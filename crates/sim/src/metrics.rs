//! Time-series metrics: the quantities the paper's evaluation figures plot —
//! per-user priority (fairshare distance) and combined usage share over
//! time, system utilization, throughput, and convergence times.
//!
//! Since the sharded engine, one global [`Sample`] is assembled at each
//! sampling barrier from per-shard [`ShardSample`] fragments, merged
//! deterministically in site order — so an N-thread run logs bit-identical
//! metrics to the single-threaded run.

use aequus_core::GridUser;
use aequus_services::LinkObservation;
use std::collections::BTreeMap;

/// Per-user state at one sample instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserSample {
    /// Fairshare distance ("priority" in Figures 10/12/13b).
    pub priority: f64,
    /// Usage share as seen by the fairshare system (Figures 10a/12/13a).
    pub usage_share: f64,
    /// Projected `[0, 1]` priority factor served to the RMS.
    pub factor: f64,
}

/// One metrics sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Simulated time, seconds.
    pub t_s: f64,
    /// Per-user state at the reference site (site 0).
    pub users: BTreeMap<String, UserSample>,
    /// Per-site per-user priority (for partial-participation comparisons).
    pub per_site_priority: Vec<BTreeMap<String, f64>>,
    /// Instantaneous total utilization across all clusters.
    pub utilization: f64,
    /// Total pending jobs across clusters.
    pub pending: usize,
    /// Total running jobs across clusters.
    pub running: usize,
    /// Cumulative completed jobs.
    pub completed: u64,
    /// Cumulative FCS refreshes across sites that rebuilt the fairshare
    /// tree from scratch.
    pub fcs_full_refreshes: u64,
    /// Cumulative FCS refreshes served by the incremental engine.
    pub fcs_incremental_refreshes: u64,
    /// Cumulative subtree-aggregate recomputations across all sites — the
    /// work metric the incremental engine minimizes.
    pub fcs_nodes_recomputed: u64,
    /// Maximum over users of the spread (max − min) of raw per-user grid
    /// usage across the global-reading, non-crashed sites' USS views — the
    /// fault-recovery metric: `0` means every site agrees on everyone's
    /// usage, and after faults clear the anti-entropy layer must drive it
    /// back toward `0`. `0` when fewer than two sites hold comparable views.
    pub usage_view_divergence: f64,
    /// Cumulative gossip bytes-on-wire across all sites at this sample —
    /// the codec-accurate encoded size of every exchange message sent so
    /// far (under the scenario's wire encoding).
    pub gossip_bytes: u64,
    /// Per-site telemetry registry snapshots, in cluster order. Empty when
    /// the scenario runs without telemetry.
    pub site_telemetry: Vec<aequus_telemetry::Snapshot>,
    /// Per-link gossip health observations across all sites, in site order
    /// (tx rows then rx rows per site). Empty unless the scenario runs
    /// health monitoring.
    pub link_health: Vec<LinkObservation>,
}

/// One shard's contribution to a metrics sample, gathered locally at a
/// sampling barrier. Fragments are pure data — no locks, no shared state —
/// so shards can produce them in parallel; the coordinator merges them in
/// site order with [`Sample::assemble`].
#[derive(Debug, Clone, Default)]
pub struct ShardSample {
    /// Per-user state from the reference site's fairshare tree. Only the
    /// shard hosting site 0 fills this; every other shard leaves it empty.
    pub users: BTreeMap<String, UserSample>,
    /// Tracked-user priorities from this shard's own fairshare tree.
    pub site_priority: BTreeMap<String, f64>,
    /// Cores busy on this shard's cluster right now.
    pub busy_cores: u32,
    /// Jobs pending on this shard's cluster.
    pub pending: usize,
    /// Jobs running on this shard's cluster.
    pub running: usize,
    /// Jobs completed by this shard's cluster so far.
    pub completed: u64,
    /// Cumulative from-scratch FCS refreshes on this shard's site.
    pub fcs_full_refreshes: u64,
    /// Cumulative incremental FCS refreshes on this shard's site.
    pub fcs_incremental_refreshes: u64,
    /// Cumulative FCS subtree-aggregate recomputations on this shard's site.
    pub fcs_nodes_recomputed: u64,
    /// This site's raw per-user grid-usage view, when it participates in the
    /// divergence metric (reads global data and is not crashed); `None`
    /// otherwise.
    pub usage_view: Option<UsageView>,
    /// Cumulative gossip bytes this site has put on the wire.
    pub gossip_bytes: u64,
    /// This site's telemetry registry snapshot, when telemetry is on.
    pub telemetry: Option<aequus_telemetry::Snapshot>,
    /// This site's per-link gossip health observations (empty unless the
    /// scenario runs health monitoring).
    pub link_health: Vec<LinkObservation>,
}

/// One site's raw per-user grid-usage view, laid out against the run's
/// shared sorted user index (`SampleSpec::view_index`): a dense column per
/// indexed user plus a small sorted side list for users outside the index.
/// Every view of one run has the same number of columns, so the divergence
/// is a column-wise sweep with no per-user key lookups.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageView {
    /// Usage of `index[i]` in column `i`; `0.0` where the site holds none.
    dense: Vec<f64>,
    /// Users outside the index with their usage, in user order.
    extra: Vec<(GridUser, f64)>,
}

impl UsageView {
    /// Lay out a user-ordered `(user, usage)` stream (such as
    /// `Uss::grid_usage`) against the sorted, deduplicated `index` with one
    /// merge walk.
    pub fn from_sorted<'a>(
        index: &[GridUser],
        usage: impl IntoIterator<Item = (&'a GridUser, f64)>,
    ) -> Self {
        let mut dense = vec![0.0; index.len()];
        let mut extra = Vec::new();
        let mut col = 0;
        for (user, value) in usage {
            while col < index.len() && index[col] < *user {
                col += 1;
            }
            if col < index.len() && index[col] == *user {
                dense[col] = value;
            } else {
                extra.push((user.clone(), value));
            }
        }
        Self { dense, extra }
    }

    /// Usage of a user outside the index (`0.0` when absent).
    fn extra_usage(&self, user: &GridUser) -> f64 {
        self.extra
            .binary_search_by(|(u, _)| u.cmp(user))
            .map_or(0.0, |k| self.extra[k].1)
    }
}

impl Sample {
    /// Merge per-shard fragments (in site order) into one global sample —
    /// the same sums, divergence, and utilization the single-queue engine
    /// computed inline. Deterministic: the result depends only on the
    /// fragments and their order, never on which worker produced which.
    pub fn assemble(t_s: f64, fragments: Vec<ShardSample>, total_cores: u32) -> Self {
        let mut users = BTreeMap::new();
        let mut per_site_priority = Vec::with_capacity(fragments.len());
        let mut busy: u32 = 0;
        let mut pending = 0usize;
        let mut running = 0usize;
        let mut completed = 0u64;
        let mut fcs_full = 0u64;
        let mut fcs_inc = 0u64;
        let mut fcs_nodes = 0u64;
        let mut views: Vec<UsageView> = Vec::new();
        let mut gossip_bytes = 0u64;
        let mut site_telemetry = Vec::new();
        let mut link_health = Vec::new();
        for frag in fragments {
            if !frag.users.is_empty() {
                users = frag.users;
            }
            per_site_priority.push(frag.site_priority);
            busy += frag.busy_cores;
            pending += frag.pending;
            running += frag.running;
            completed += frag.completed;
            fcs_full += frag.fcs_full_refreshes;
            fcs_inc += frag.fcs_incremental_refreshes;
            fcs_nodes += frag.fcs_nodes_recomputed;
            if let Some(view) = frag.usage_view {
                views.push(view);
            }
            gossip_bytes += frag.gossip_bytes;
            if let Some(snap) = frag.telemetry {
                site_telemetry.push(snap);
            }
            link_health.extend(frag.link_health);
        }
        Self {
            t_s,
            users,
            per_site_priority,
            utilization: busy as f64 / total_cores.max(1) as f64,
            pending,
            running,
            completed,
            fcs_full_refreshes: fcs_full,
            fcs_incremental_refreshes: fcs_inc,
            fcs_nodes_recomputed: fcs_nodes,
            usage_view_divergence: view_divergence(&views),
            gossip_bytes,
            site_telemetry,
            link_health,
        }
    }
}

/// Largest per-user spread (max − min) across the given usage views; `0`
/// when fewer than two views are comparable. A user a view lacks reads
/// `0.0` there.
///
/// Each user's spread takes the same `min`/`max` steps over the views in
/// site order as a lookup per user would. Spreads are non-negative (view
/// values are sums of positive charges), so the `max` over users is exact
/// in any order, and an indexed user no view holds adds a spread of `0.0`,
/// which never moves it: the result is bit-identical to the per-user
/// `BTreeMap` walk over the union of keys.
fn view_divergence(views: &[UsageView]) -> f64 {
    if views.len() < 2 {
        return 0.0;
    }
    let columns = views[0].dense.len();
    let mut lo = vec![f64::INFINITY; columns];
    let mut hi = vec![f64::NEG_INFINITY; columns];
    for view in views {
        assert_eq!(view.dense.len(), columns, "views share one user index");
        for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(&view.dense) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
    let mut divergence = lo
        .iter()
        .zip(&hi)
        .fold(0.0f64, |d, (lo, hi)| d.max(hi - lo));
    let mut extra: Vec<&GridUser> = views
        .iter()
        .flat_map(|v| v.extra.iter().map(|(u, _)| u))
        .collect();
    extra.sort_unstable();
    extra.dedup();
    for user in extra {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for view in views {
            let v = view.extra_usage(user);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        divergence = divergence.max(hi - lo);
    }
    divergence
}

/// The full metrics log of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct MetricsLog {
    samples: Vec<Sample>,
    /// Target policy shares the run was configured with.
    pub policy: BTreeMap<String, f64>,
    /// Jobs submitted per minute (bucketed), for throughput reporting.
    pub submissions_per_minute: Vec<u32>,
}

impl MetricsLog {
    /// Create a log for a run with the given policy targets.
    pub fn new(policy: BTreeMap<String, f64>) -> Self {
        Self {
            samples: Vec::new(),
            policy,
            submissions_per_minute: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn record(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Count one submission at `t_s` into its minute bucket.
    pub fn count_submission(&mut self, t_s: f64) {
        let minute = (t_s / 60.0).floor().max(0.0) as usize;
        if self.submissions_per_minute.len() <= minute {
            self.submissions_per_minute.resize(minute + 1, 0);
        }
        self.submissions_per_minute[minute] += 1;
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Time series of one user's priority.
    pub fn priority_series(&self, user: &str) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter_map(|s| s.users.get(user).map(|u| (s.t_s, u.priority)))
            .collect()
    }

    /// Time series of one user's usage share.
    pub fn usage_share_series(&self, user: &str) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter_map(|s| s.users.get(user).map(|u| (s.t_s, u.usage_share)))
            .collect()
    }

    /// Maximum deviation of any user's usage share from its policy target
    /// at sample index `i`.
    fn deviation_at(&self, i: usize) -> f64 {
        let s = &self.samples[i];
        self.policy
            .iter()
            .map(|(user, target)| {
                let share = s.users.get(user).map(|u| u.usage_share).unwrap_or(0.0);
                (share - target).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Convergence time: the earliest sample time `t` such that the maximum
    /// policy deviation stays below `eps` throughout `[t, t + dwell_s]`.
    ///
    /// The paper reports balance as *windows*, not a permanent state ("the
    /// system converges towards a balanced state between minute 80 and
    /// minute 130", §IV-A-5; "close to balance in the 120 to 180 minute
    /// range", §IV-A-3) — workload non-stationarity moves the system out of
    /// balance again when a user's jobs dry up.
    pub fn convergence_time(&self, eps: f64, dwell_s: f64) -> Option<f64> {
        self.balance_windows(eps)
            .into_iter()
            .find(|(from, to)| to - from >= dwell_s)
            .map(|(from, _)| from)
    }

    /// All maximal time windows during which the maximum policy deviation
    /// stays below `eps`.
    pub fn balance_windows(&self, eps: f64) -> Vec<(f64, f64)> {
        let mut windows = Vec::new();
        let mut start: Option<f64> = None;
        for i in 0..self.samples.len() {
            let balanced = self.deviation_at(i) < eps;
            match (balanced, start) {
                (true, None) => start = Some(self.samples[i].t_s),
                (false, Some(s)) => {
                    windows.push((s, self.samples[i].t_s));
                    start = None;
                }
                _ => {}
            }
        }
        if let (Some(s), Some(last)) = (start, self.samples.last()) {
            windows.push((s, last.t_s));
        }
        windows
    }

    /// Like `deviation_at`, but users that are currently *idle* (usage share
    /// below `activity_eps`) are excluded and the remaining targets are
    /// renormalized — the paper's balance notion for the bursty test, where
    /// "the unused allocation of U3 is divided between the other users"
    /// while U3 is not submitting.
    fn renormalized_deviation_at(&self, i: usize, activity_eps: f64) -> f64 {
        let s = &self.samples[i];
        let active: Vec<(&String, f64)> = self
            .policy
            .iter()
            .filter_map(|(user, &target)| {
                let share = s.users.get(user).map(|u| u.usage_share).unwrap_or(0.0);
                (share >= activity_eps).then_some((user, target))
            })
            .collect();
        let target_total: f64 = active.iter().map(|(_, t)| t).sum();
        let share_total: f64 = active
            .iter()
            .map(|(u, _)| s.users.get(*u).map(|x| x.usage_share).unwrap_or(0.0))
            .sum();
        if target_total <= 0.0 || share_total <= 0.0 {
            return 1.0;
        }
        active
            .iter()
            .map(|(user, target)| {
                let share = s.users.get(*user).map(|u| u.usage_share).unwrap_or(0.0);
                (share / share_total - target / target_total).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Balance windows under the renormalized (idle-users-excluded)
    /// deviation — the §IV-A-5 notion of balance.
    pub fn active_balance_windows(&self, eps: f64) -> Vec<(f64, f64)> {
        let mut windows = Vec::new();
        let mut start: Option<f64> = None;
        for i in 0..self.samples.len() {
            let balanced = self.renormalized_deviation_at(i, 0.005) < eps;
            match (balanced, start) {
                (true, None) => start = Some(self.samples[i].t_s),
                (false, Some(s)) => {
                    windows.push((s, self.samples[i].t_s));
                    start = None;
                }
                _ => {}
            }
        }
        if let (Some(s), Some(last)) = (start, self.samples.last()) {
            windows.push((s, last.t_s));
        }
        windows
    }

    /// Convergence time under the renormalized deviation.
    pub fn active_convergence_time(&self, eps: f64, dwell_s: f64) -> Option<f64> {
        self.active_balance_windows(eps)
            .into_iter()
            .find(|(from, to)| to - from >= dwell_s)
            .map(|(from, _)| from)
    }

    /// Maximum policy deviation in the final sample.
    pub fn final_deviation(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.deviation_at(self.samples.len() - 1)
        }
    }

    /// Mean utilization over the sampled window.
    pub fn mean_utilization(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.utilization).sum::<f64>() / self.samples.len() as f64
    }

    /// Peak jobs-per-minute submission rate.
    pub fn peak_submission_rate(&self) -> u32 {
        self.submissions_per_minute
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Sustained (mean over non-empty minutes) submission rate.
    pub fn sustained_submission_rate(&self) -> f64 {
        let busy: Vec<u32> = self
            .submissions_per_minute
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        if busy.is_empty() {
            0.0
        } else {
            busy.iter().map(|&c| c as f64).sum::<f64>() / busy.len() as f64
        }
    }

    /// Completed jobs at the end of the run.
    pub fn total_completed(&self) -> u64 {
        self.samples.last().map(|s| s.completed).unwrap_or(0)
    }

    /// Time series of the cross-site usage-view divergence.
    pub fn view_divergence_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.t_s, s.usage_view_divergence))
            .collect()
    }

    /// Time series of cumulative gossip bytes-on-wire.
    pub fn gossip_bytes_series(&self) -> Vec<(f64, u64)> {
        self.samples
            .iter()
            .map(|s| (s.t_s, s.gossip_bytes))
            .collect()
    }

    /// Total gossip bytes-on-wire at the end of the run.
    pub fn total_gossip_bytes(&self) -> u64 {
        self.samples.last().map(|s| s.gossip_bytes).unwrap_or(0)
    }

    /// Earliest sample time from which the cross-site usage views stay
    /// within `eps` of each other through the end of the run — the
    /// convergence-after-fault time the chaos suite and fault-sweep bench
    /// report. `None` if even the final sample diverges.
    pub fn view_convergence_time(&self, eps: f64) -> Option<f64> {
        let mut from = None;
        for s in self.samples.iter().rev() {
            if s.usage_view_divergence < eps {
                from = Some(s.t_s);
            } else {
                break;
            }
        }
        from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A view laid out against the index `["a"]`.
    fn view_of(usage: &[(&str, f64)]) -> UsageView {
        let usage: Vec<(GridUser, f64)> =
            usage.iter().map(|&(u, v)| (GridUser::new(u), v)).collect();
        UsageView::from_sorted(&[GridUser::new("a")], usage.iter().map(|(u, v)| (u, *v)))
    }

    /// The per-user `BTreeMap` divergence the dense sweep replaced: the
    /// oracle it must match bit for bit.
    fn reference_view_divergence(views: &[BTreeMap<GridUser, f64>]) -> f64 {
        if views.len() < 2 {
            return 0.0;
        }
        let mut divergence = 0.0f64;
        let users: std::collections::BTreeSet<&GridUser> =
            views.iter().flat_map(|v| v.keys()).collect();
        for user in users {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for view in views {
                let v = view.get(user).copied().unwrap_or(0.0);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            divergence = divergence.max(hi - lo);
        }
        divergence
    }

    /// Random multi-site views over twelve users: per site `None` (crashed
    /// or not reading global data) one time in five, else a map holding a
    /// random subset of the users; plus which users the index holds. Usage
    /// values include exact zeros and inexact fractions.
    fn views_strategy() -> impl Strategy<Value = (Vec<bool>, Vec<Option<BTreeMap<GridUser, f64>>>)>
    {
        let cell = (0u8..5, 0u8..7, 0.0..5_000.0f64);
        let site = (0u8..5, proptest::collection::vec(cell, 12)).prop_map(|(live, cells)| {
            (live > 0).then(|| {
                cells
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (held, _, _))| *held > 1)
                    .map(|(i, (_, zero, v))| {
                        (
                            GridUser::new(format!("u{i:02}")),
                            if zero == 0 { 0.0 } else { v },
                        )
                    })
                    .collect()
            })
        });
        (
            proptest::collection::vec(0u8..2, 12)
                .prop_map(|bits| bits.into_iter().map(|b| b == 1).collect()),
            proptest::collection::vec(site, 1..6),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dense_divergence_matches_btreemap_reference((indexed, sites) in views_strategy()) {
            let index: Vec<GridUser> = (0..12)
                .filter(|&i| indexed[i])
                .map(|i| GridUser::new(format!("u{i:02}")))
                .collect();
            let fragments: Vec<ShardSample> = sites
                .iter()
                .map(|site| ShardSample {
                    usage_view: site
                        .as_ref()
                        .map(|m| UsageView::from_sorted(&index, m.iter().map(|(u, v)| (u, *v)))),
                    ..ShardSample::default()
                })
                .collect();
            for (frag, site) in fragments.iter().zip(&sites) {
                if let (Some(view), Some(map)) = (&frag.usage_view, site) {
                    prop_assert_eq!(view.dense.len(), index.len());
                    let outside = map.keys().filter(|u| !index.contains(u)).count();
                    prop_assert_eq!(view.extra.len(), outside);
                }
            }
            let live: Vec<BTreeMap<GridUser, f64>> = sites.into_iter().flatten().collect();
            let sample = Sample::assemble(0.0, fragments, 4);
            let expected = reference_view_divergence(&live);
            prop_assert_eq!(sample.usage_view_divergence.to_bits(), expected.to_bits());
        }
    }

    fn sample(t: f64, share_a: f64) -> Sample {
        let mut users = BTreeMap::new();
        users.insert(
            "a".to_string(),
            UserSample {
                priority: 0.0,
                usage_share: share_a,
                factor: 0.5,
            },
        );
        Sample {
            t_s: t,
            users,
            per_site_priority: vec![],
            utilization: 0.95,
            pending: 0,
            running: 0,
            completed: 10,
            fcs_full_refreshes: 0,
            fcs_incremental_refreshes: 0,
            fcs_nodes_recomputed: 0,
            usage_view_divergence: 0.0,
            gossip_bytes: 0,
            site_telemetry: vec![],
            link_health: vec![],
        }
    }

    fn log_with_shares(shares: &[f64]) -> MetricsLog {
        let mut log = MetricsLog::new([("a".to_string(), 0.5)].into_iter().collect());
        for (i, &s) in shares.iter().enumerate() {
            log.record(sample(i as f64 * 60.0, s));
        }
        log
    }

    #[test]
    fn convergence_finds_first_long_enough_window() {
        // Deviations: .3 .2 .04 .15 .03 .02 — windows: [120,180), [240,300].
        let log = log_with_shares(&[0.8, 0.7, 0.54, 0.65, 0.53, 0.52]);
        assert_eq!(log.convergence_time(0.05, 60.0), Some(120.0));
        assert_eq!(log.convergence_time(0.05, 61.0), None);
        assert_eq!(
            log.balance_windows(0.05),
            vec![(120.0, 180.0), (240.0, 300.0)]
        );
    }

    #[test]
    fn no_convergence_when_always_deviant() {
        let log = log_with_shares(&[0.8, 0.7, 0.9]);
        assert_eq!(log.convergence_time(0.05, 0.0), None);
        assert!(log.balance_windows(0.05).is_empty());
        assert!((log.final_deviation() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn immediate_convergence() {
        let log = log_with_shares(&[0.5, 0.51, 0.49]);
        assert_eq!(log.convergence_time(0.05, 100.0), Some(0.0));
        assert_eq!(log.balance_windows(0.05), vec![(0.0, 120.0)]);
    }

    #[test]
    fn submission_rate_buckets() {
        let mut log = MetricsLog::new(BTreeMap::new());
        for i in 0..130 {
            log.count_submission(i as f64); // 60 in min 0, 60 in min 1, 10 in min 2
        }
        assert_eq!(log.peak_submission_rate(), 60);
        assert!((log.sustained_submission_rate() - 130.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn series_extraction() {
        let log = log_with_shares(&[0.6, 0.55]);
        let s = log.usage_share_series("a");
        assert_eq!(s, vec![(0.0, 0.6), (60.0, 0.55)]);
        assert!(log.usage_share_series("ghost").is_empty());
    }

    #[test]
    fn renormalized_deviation_excludes_idle_users() {
        // Two users, targets 0.5/0.5; "b" idle (share 0), "a" takes all.
        // Plain deviation = 0.5; renormalized over active users = 0.
        let mut log = MetricsLog::new(
            [("a".to_string(), 0.5), ("b".to_string(), 0.5)]
                .into_iter()
                .collect(),
        );
        let mut users = BTreeMap::new();
        users.insert(
            "a".to_string(),
            UserSample {
                priority: 0.0,
                usage_share: 1.0,
                factor: 0.5,
            },
        );
        users.insert(
            "b".to_string(),
            UserSample {
                priority: 0.5,
                usage_share: 0.0,
                factor: 0.9,
            },
        );
        log.record(Sample {
            t_s: 0.0,
            users,
            per_site_priority: vec![],
            utilization: 1.0,
            pending: 0,
            running: 1,
            completed: 0,
            fcs_full_refreshes: 0,
            fcs_incremental_refreshes: 0,
            fcs_nodes_recomputed: 0,
            usage_view_divergence: 0.0,
            gossip_bytes: 0,
            site_telemetry: vec![],
            link_health: vec![],
        });
        assert!(log.balance_windows(0.1).is_empty());
        assert_eq!(log.active_balance_windows(0.1), vec![(0.0, 0.0)]);
        assert_eq!(log.active_convergence_time(0.1, 0.0), Some(0.0));
    }

    #[test]
    fn assemble_merges_fragments_in_site_order() {
        let mut ref_users = BTreeMap::new();
        ref_users.insert(
            "a".to_string(),
            UserSample {
                priority: 0.1,
                usage_share: 0.6,
                factor: 0.4,
            },
        );
        let f0 = ShardSample {
            users: ref_users.clone(),
            site_priority: [("a".to_string(), 0.1)].into_iter().collect(),
            busy_cores: 3,
            pending: 1,
            running: 3,
            completed: 10,
            fcs_full_refreshes: 2,
            fcs_incremental_refreshes: 5,
            fcs_nodes_recomputed: 9,
            usage_view: Some(view_of(&[("a", 100.0)])),
            gossip_bytes: 70,
            telemetry: None,
            link_health: vec![],
        };
        let f1 = ShardSample {
            site_priority: [("a".to_string(), -0.2)].into_iter().collect(),
            busy_cores: 1,
            pending: 2,
            running: 1,
            completed: 4,
            fcs_full_refreshes: 1,
            fcs_incremental_refreshes: 3,
            fcs_nodes_recomputed: 4,
            usage_view: Some(view_of(&[("a", 94.0)])),
            gossip_bytes: 30,
            ..ShardSample::default()
        };
        let s = Sample::assemble(120.0, vec![f0, f1], 8);
        assert_eq!(s.t_s, 120.0);
        assert_eq!(s.users, ref_users, "reference-site users survive merge");
        assert_eq!(s.per_site_priority.len(), 2);
        assert_eq!(s.per_site_priority[1]["a"], -0.2);
        assert!((s.utilization - 0.5).abs() < 1e-12);
        assert_eq!((s.pending, s.running, s.completed), (3, 4, 14));
        assert_eq!(s.fcs_full_refreshes, 3);
        assert_eq!(s.fcs_incremental_refreshes, 8);
        assert_eq!(s.fcs_nodes_recomputed, 13);
        assert!((s.usage_view_divergence - 6.0).abs() < 1e-12);
        assert_eq!(s.gossip_bytes, 100);
    }

    #[test]
    fn assemble_divergence_zero_with_single_view() {
        let f = ShardSample {
            usage_view: Some(view_of(&[("a", 50.0)])),
            ..ShardSample::default()
        };
        let s = Sample::assemble(0.0, vec![f, ShardSample::default()], 4);
        assert_eq!(s.usage_view_divergence, 0.0);
    }

    #[test]
    fn empty_log_safe() {
        let log = MetricsLog::new(BTreeMap::new());
        assert_eq!(log.convergence_time(0.1, 60.0), None);
        assert_eq!(log.mean_utilization(), 0.0);
        assert_eq!(log.total_completed(), 0);
    }
}
