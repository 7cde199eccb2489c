//! The output digest: one FNV-1a hash over everything a run's correctness
//! rests on. Floats enter by their exact bit patterns, so the digest pins
//! the simulation bit for bit.

use aequus_core::GridUser;
use aequus_sim::Sample;
use aequus_telemetry::AlertEvent;
use std::collections::BTreeMap;

/// Digests recorded at the commit that defined the benchmark: the default
/// seed (42) and one held-out seed (1729) per workload. A run on a seed
/// listed here must reproduce the digest exactly.
pub const RECORDED: &[(&str, u64, u64)] = &[
    ("paper_testbed", 42, 0xb759_71fc_5fe2_d3fc),
    ("paper_testbed", 1729, 0x72a3_64a7_ee80_36a1),
    ("nation_mid", 42, 0xb38c_9cf1_e5ab_3023),
    ("nation_mid", 1729, 0xa8a2_e340_8106_3f7c),
    ("chaos_wal", 42, 0x1a92_ec51_cd1b_3c29),
    ("chaos_wal", 1729, 0xb059_961f_895c_93e2),
];

/// The recorded digest for `(workload, seed)`, if there is one.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}

/// The parts of a finished run the digest covers, borrowed from either the
/// engine's `SimResult` or the traced driver's own state.
pub struct Outputs<'a> {
    /// `(submitted, completed)` per cluster, in cluster order.
    pub cluster_counts: Vec<(u64, u64)>,
    /// Events processed, metrics samples included.
    pub events_processed: u64,
    /// Simulated end time.
    pub end_s: f64,
    /// Every metrics sample, in time order.
    pub samples: &'a [Sample],
    /// Each site's final usage view, in cluster order.
    pub views: &'a [BTreeMap<GridUser, f64>],
    /// The SLO alert stream (empty without health monitoring).
    pub alerts: &'a [AlertEvent],
}

impl Outputs<'_> {
    /// The 64-bit digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &(submitted, completed) in &self.cluster_counts {
            h.u64(submitted);
            h.u64(completed);
        }
        h.u64(self.events_processed);
        h.f64(self.end_s);
        for s in self.samples {
            h.f64(s.t_s);
            for (name, u) in &s.users {
                h.str(name);
                h.f64(u.priority);
                h.f64(u.usage_share);
            }
            h.f64(s.usage_view_divergence);
        }
        for view in self.views {
            h.u64(view.len() as u64);
            for (user, v) in view {
                h.str(user.as_str());
                h.f64(*v);
            }
        }
        for a in self.alerts {
            h.f64(a.t_s);
            h.str(&a.rule);
            h.str(a.transition);
            h.f64(a.value);
            h.f64(a.burn_short);
            h.f64(a.burn_long);
        }
        h.0
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so adjacent strings cannot alias.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}
