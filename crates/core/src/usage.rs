//! Usage accounting (§II-A constituent 2): per-job usage records are rolled
//! up into per-user, per-interval histograms; sites exchange these in a
//! compact form "relaying the combined usage of each user on each site while
//! omitting the details of individual jobs".

use crate::decay::DecayPolicy;
use crate::ids::{GridUser, JobId, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-user charge per slot index — the cell grid summaries and mirrors
/// are built from.
pub type UserCells = BTreeMap<GridUser, BTreeMap<u64, f64>>;

/// The resource consumption of one completed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageRecord {
    /// Job identity.
    pub job: JobId,
    /// Grid identity of the owning user.
    pub user: GridUser,
    /// Site where the job executed.
    pub site: SiteId,
    /// Cores occupied.
    pub cores: u32,
    /// Execution start, seconds.
    pub start_s: f64,
    /// Execution end, seconds (≥ start).
    pub end_s: f64,
}

impl UsageRecord {
    /// Charged usage: core-seconds of wall-clock occupancy.
    pub fn charge(&self) -> f64 {
        self.cores as f64 * (self.end_s - self.start_s).max(0.0)
    }
}

/// Per-user usage histogram over fixed time slots ("per-user histograms for
/// configurable time intervals", §II-A).
///
/// Job charges are spread proportionally over the slots the job's execution
/// overlaps, so long jobs decay gradually rather than as a lump at
/// completion.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UsageHistogram {
    slot_s: f64,
    /// charge per (user, slot index).
    slots: BTreeMap<GridUser, BTreeMap<u64, f64>>,
    /// Total charge ever recorded, for conservation checks.
    total: f64,
}

impl UsageHistogram {
    /// Create a histogram with the given slot duration in seconds.
    ///
    /// # Panics
    /// Panics if `slot_s` is not strictly positive.
    pub fn new(slot_s: f64) -> Self {
        assert!(slot_s > 0.0, "slot duration must be positive");
        Self {
            slot_s,
            slots: BTreeMap::new(),
            total: 0.0,
        }
    }

    /// Slot duration in seconds.
    pub fn slot_duration(&self) -> f64 {
        self.slot_s
    }

    /// Record a completed job, spreading its charge across overlapped slots.
    pub fn record(&mut self, rec: &UsageRecord) {
        let charge = rec.charge();
        if charge <= 0.0 {
            return;
        }
        self.total += charge;
        let user_slots = self.slots.entry(rec.user.clone()).or_default();
        let first = (rec.start_s / self.slot_s).floor().max(0.0) as u64;
        let last = (rec.end_s / self.slot_s).floor().max(0.0) as u64;
        if first == last {
            *user_slots.entry(first).or_insert(0.0) += charge;
            return;
        }
        let rate = rec.cores as f64; // core-seconds per second
        for slot in first..=last {
            let slot_start = slot as f64 * self.slot_s;
            let slot_end = slot_start + self.slot_s;
            let overlap = rec.end_s.min(slot_end) - rec.start_s.max(slot_start);
            if overlap > 0.0 {
                *user_slots.entry(slot).or_insert(0.0) += rate * overlap;
            }
        }
    }

    /// Add `charge` core-seconds to one (user, slot) cell. This is the
    /// receiver-side primitive of the reliable exchange: the USS computes the
    /// positive delta of an incoming cell against its per-peer mirror and
    /// applies exactly that, so duplicated or reordered deliveries never
    /// double-count. Non-positive charges are ignored.
    pub fn add_charge(&mut self, user: &GridUser, slot: u64, charge: f64) {
        if charge <= 0.0 {
            return;
        }
        *self
            .slots
            .entry(user.clone())
            .or_default()
            .entry(slot)
            .or_insert(0.0) += charge;
        self.total += charge;
    }

    /// Merge a compact per-user summary from another site.
    pub fn merge_summary(&mut self, summary: &UsageSummary) {
        for (user, slots) in &summary.per_user {
            let user_slots = self.slots.entry(user.clone()).or_default();
            for (&slot, &charge) in slots {
                *user_slots.entry(slot).or_insert(0.0) += charge;
                self.total += charge;
            }
        }
    }

    /// Decay-weighted total usage of `user` as seen at time `now_s`.
    pub fn decayed_usage(&self, user: &GridUser, now_s: f64, decay: DecayPolicy) -> f64 {
        let Some(slots) = self.slots.get(user) else {
            return 0.0;
        };
        slots
            .iter()
            .map(|(&slot, &charge)| {
                let slot_center = (slot as f64 + 0.5) * self.slot_s;
                charge * decay.weight(now_s - slot_center)
            })
            .sum()
    }

    /// Usage of `user` weighted relative to a fixed reference epoch
    /// (separable decays only; see [`DecayPolicy::epoch_weight`]). Equal to
    /// the decayed usage at `epoch_s` up to the unclamped handling of slots
    /// newer than the epoch. The incremental UMS caches these weights so
    /// advancing time never dirties unchanged users.
    pub fn epoch_usage(&self, user: &GridUser, epoch_s: f64, decay: DecayPolicy) -> f64 {
        let Some(slots) = self.slots.get(user) else {
            return 0.0;
        };
        slots
            .iter()
            .map(|(&slot, &charge)| {
                let slot_center = (slot as f64 + 0.5) * self.slot_s;
                charge * decay.epoch_weight(epoch_s - slot_center)
            })
            .sum()
    }

    /// Raw (undecayed) total usage of `user`.
    pub fn raw_usage(&self, user: &GridUser) -> f64 {
        self.slots
            .get(user)
            .map(|s| s.values().sum())
            .unwrap_or(0.0)
    }

    /// Every user's raw (undecayed) total usage, in user order — the same
    /// sums as [`UsageHistogram::raw_usage`], without a lookup per user.
    pub fn raw_usages(&self) -> impl Iterator<Item = (&GridUser, f64)> {
        self.slots.iter().map(|(u, s)| (u, s.values().sum()))
    }

    /// Total charge recorded across all users (conservation invariant:
    /// equals the sum of `raw_usage` over all users).
    pub fn total_recorded(&self) -> f64 {
        self.total
    }

    /// All users with recorded usage.
    pub fn users(&self) -> impl Iterator<Item = &GridUser> {
        self.slots.keys()
    }

    /// Decay-weighted usage for every user at once.
    pub fn decayed_all(&self, now_s: f64, decay: DecayPolicy) -> BTreeMap<GridUser, f64> {
        self.slots
            .keys()
            .map(|u| (u.clone(), self.decayed_usage(u, now_s, decay)))
            .collect()
    }

    /// Produce the compact cross-site exchange summary: per-user charge per
    /// slot, no job-level detail. `since_slot` allows incremental exchange
    /// (only slots ≥ the given index are included).
    pub fn summary(&self, site: SiteId, since_slot: u64) -> UsageSummary {
        UsageSummary {
            site,
            seq: 0,
            slot_s: self.slot_s,
            per_user: self
                .slots
                .iter()
                .filter_map(|(u, slots)| {
                    let filtered: BTreeMap<u64, f64> =
                        slots.range(since_slot..).map(|(&k, &v)| (k, v)).collect();
                    (!filtered.is_empty()).then(|| (u.clone(), filtered))
                })
                .collect(),
            relayed: BTreeMap::new(),
        }
    }

    /// Drop slots older than `horizon_s` before `now_s` (storage compaction;
    /// safe once the decay weight of those slots is negligible).
    pub fn compact(&mut self, now_s: f64, horizon_s: f64) {
        let cutoff_slot = ((now_s - horizon_s) / self.slot_s).floor().max(0.0) as u64;
        for slots in self.slots.values_mut() {
            *slots = slots.split_off(&cutoff_slot);
        }
        self.slots.retain(|_, s| !s.is_empty());
    }
}

/// Compact per-user usage totals exchanged between sites' USS services.
///
/// Summaries produced by the reliable exchange carry **absolute** cumulative
/// charge per included (user, slot) cell — not deltas. Per-cell charge is
/// monotone non-decreasing at the publisher, so receivers merge by taking
/// the positive difference against a per-peer mirror, which makes retries,
/// duplicates, reordering, and snapshot catch-up all idempotent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageSummary {
    /// Originating site.
    pub site: SiteId,
    /// Per-publisher monotonically increasing sequence number, 1-based.
    /// `0` marks an unsequenced summary (ad-hoc construction outside the
    /// reliable exchange, e.g. [`UsageHistogram::summary`]); receivers merge
    /// it but skip gap tracking.
    pub seq: u64,
    /// Slot duration the totals are binned with.
    pub slot_s: f64,
    /// Per-user charge per slot index (absolute cumulative values in the
    /// reliable exchange; see the struct docs).
    pub per_user: BTreeMap<GridUser, BTreeMap<u64, f64>>,
    /// Cells this publisher is *relaying* on behalf of other origins, keyed
    /// by originating site — the per-hop aggregation payload of the Tree
    /// and Hub overlays. Like `per_user`, values are absolute cumulative
    /// charge as last heard from the origin, so the positive-delta merge
    /// stays idempotent across any number of forwarding hops or delivery
    /// paths. Empty in full-mesh operation.
    pub relayed: BTreeMap<SiteId, UserCells>,
}

impl UsageSummary {
    /// Total charge carried by this summary, own and relayed sections.
    pub fn total(&self) -> f64 {
        let own: f64 = self.per_user.values().flat_map(|s| s.values()).sum();
        let relayed: f64 = self
            .relayed
            .values()
            .flat_map(|cells| cells.values().flat_map(|s| s.values()))
            .sum();
        own + relayed
    }

    /// Number of (user, slot) cells across all sections.
    pub fn cells(&self) -> usize {
        let own: usize = self.per_user.values().map(|s| s.len()).sum();
        let relayed: usize = self
            .relayed
            .values()
            .flat_map(|cells| cells.values().map(|s| s.len()))
            .sum();
        own + relayed
    }

    /// Serialized size in bytes under `enc` — the *actual* encoded length
    /// (see [`crate::codec`]), not a model, so gossip byte accounting in
    /// the profiler and the bench gates measure what the codec produces.
    pub fn wire_bytes(&self, enc: crate::codec::Encoding) -> u64 {
        crate::codec::encoded_size(self, enc) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: &str, cores: u32, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(0),
            user: GridUser::new(user),
            site: SiteId(0),
            cores,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn charge_is_core_seconds() {
        assert_eq!(rec("a", 4, 10.0, 20.0).charge(), 40.0);
        assert_eq!(rec("a", 4, 20.0, 10.0).charge(), 0.0);
    }

    #[test]
    fn record_single_slot() {
        let mut h = UsageHistogram::new(100.0);
        h.record(&rec("a", 1, 10.0, 30.0));
        assert_eq!(h.raw_usage(&GridUser::new("a")), 20.0);
        assert_eq!(h.raw_usage(&GridUser::new("b")), 0.0);
    }

    #[test]
    fn record_spreads_across_slots() {
        let mut h = UsageHistogram::new(100.0);
        // Job spans slots 0, 1, 2: 50s in slot 0, 100s in slot 1, 50s in slot 2.
        h.record(&rec("a", 2, 50.0, 250.0));
        let total = h.raw_usage(&GridUser::new("a"));
        assert!((total - 400.0).abs() < 1e-9);
        // Decay with a window covering only recent slots sees partial usage.
        let w = h.decayed_usage(
            &GridUser::new("a"),
            250.0,
            DecayPolicy::Window { window_s: 120.0 },
        );
        // Slot centers: 50 (age 200, out), 150 (age 100, in), 250 (age 0, in).
        assert!((w - (200.0 + 100.0)).abs() < 1e-9, "{w}");
    }

    #[test]
    fn conservation_total_equals_sum() {
        let mut h = UsageHistogram::new(60.0);
        h.record(&rec("a", 1, 0.0, 90.0));
        h.record(&rec("b", 3, 30.0, 150.0));
        h.record(&rec("a", 2, 200.0, 260.0));
        let sum: f64 = ["a", "b"]
            .iter()
            .map(|u| h.raw_usage(&GridUser::new(*u)))
            .sum();
        assert!((h.total_recorded() - sum).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_job_ignored() {
        let mut h = UsageHistogram::new(60.0);
        h.record(&rec("a", 8, 100.0, 100.0));
        assert_eq!(h.total_recorded(), 0.0);
    }

    #[test]
    fn summary_roundtrip_merge() {
        let mut h1 = UsageHistogram::new(60.0);
        h1.record(&rec("a", 1, 0.0, 120.0));
        let s = h1.summary(SiteId(1), 0);
        assert!((s.total() - 120.0).abs() < 1e-9);

        let mut h2 = UsageHistogram::new(60.0);
        h2.record(&rec("a", 1, 0.0, 60.0));
        h2.merge_summary(&s);
        assert!((h2.raw_usage(&GridUser::new("a")) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_summary_filters_old_slots() {
        let mut h = UsageHistogram::new(100.0);
        h.record(&rec("a", 1, 50.0, 60.0)); // slot 0
        h.record(&rec("a", 1, 250.0, 260.0)); // slot 2
        let s = h.summary(SiteId(0), 2);
        assert_eq!(s.cells(), 1);
        assert!((s.total() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn compact_drops_old_slots() {
        let mut h = UsageHistogram::new(100.0);
        h.record(&rec("a", 1, 50.0, 60.0));
        h.record(&rec("a", 1, 1050.0, 1060.0));
        h.compact(1100.0, 500.0);
        assert!((h.raw_usage(&GridUser::new("a")) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn decay_none_sees_all_history() {
        let mut h = UsageHistogram::new(10.0);
        h.record(&rec("a", 1, 0.0, 10.0));
        let v = h.decayed_usage(&GridUser::new("a"), 1e9, DecayPolicy::None);
        assert!((v - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slot_panics() {
        UsageHistogram::new(0.0);
    }

    #[test]
    fn add_charge_updates_cell_and_total() {
        let mut h = UsageHistogram::new(60.0);
        h.add_charge(&GridUser::new("a"), 3, 25.0);
        h.add_charge(&GridUser::new("a"), 3, 5.0);
        h.add_charge(&GridUser::new("a"), 4, -1.0); // ignored
        h.add_charge(&GridUser::new("a"), 4, 0.0); // ignored
        assert!((h.raw_usage(&GridUser::new("a")) - 30.0).abs() < 1e-12);
        assert!((h.total_recorded() - 30.0).abs() < 1e-12);
    }
}
