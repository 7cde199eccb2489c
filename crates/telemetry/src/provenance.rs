//! Decision provenance: a bounded store of served-priority explanations.
//!
//! The telemetry crate cannot depend on the core fairshare types, so the
//! explanation body is type-erased: the capturing layer (libaequus, via the
//! FCS) pre-renders the full component breakdown as a JSON string (see
//! `aequus_core::explain`) and this store retains it alongside the serving
//! metadata — who asked, when, which trace carried the underlying usage, and
//! the factor actually served. Replaying the JSON through
//! `aequus_core::explain::Explanation::from_json` reproduces the served
//! priority bit-for-bit.

use crate::events::Ring;

/// One captured decision.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvenanceRecord {
    /// Domain time the decision was served at.
    pub t_s: f64,
    /// The grid user the priority was served for.
    pub user: String,
    /// The trace whose pipeline delivered the inputs, when the serving
    /// refresh was traced; `0` otherwise.
    pub trace_id: u64,
    /// The fairshare factor actually served.
    pub factor: f64,
    /// The pre-rendered `Explanation` JSON (component breakdown).
    pub json: String,
}

/// Bounded FIFO store of [`ProvenanceRecord`]s.
pub type ProvenanceStore = Ring<ProvenanceRecord>;

impl ProvenanceStore {
    /// The latest captured decision for `user`, if retained.
    pub fn latest_for(&self, user: &str) -> Option<&ProvenanceRecord> {
        self.items().iter().rev().find(|r| r.user == user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: &str, t: f64) -> ProvenanceRecord {
        ProvenanceRecord {
            t_s: t,
            user: user.to_string(),
            trace_id: 0,
            factor: 0.5,
            json: String::from("{}"),
        }
    }

    #[test]
    fn bounded_fifo() {
        let mut s = ProvenanceStore::new(2);
        s.push(rec("a", 0.0));
        s.push(rec("b", 1.0));
        s.push(rec("c", 2.0));
        assert_eq!(s.items().len(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.items()[0].user, "b");
    }

    #[test]
    fn latest_for_finds_newest() {
        let mut s = ProvenanceStore::new(8);
        s.push(rec("a", 0.0));
        s.push(rec("b", 1.0));
        s.push(rec("a", 2.0));
        assert_eq!(s.latest_for("a").unwrap().t_s, 2.0);
        assert!(s.latest_for("zz").is_none());
    }
}
