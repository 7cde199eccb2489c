//! Property-based tests of the core fairshare invariants: policy
//! normalization, usage conservation, distance bounds, vector ordering, and
//! projection consistency across randomized trees and usage patterns.

use aequus_core::decay::DecayPolicy;
use aequus_core::fairshare::{FairshareConfig, FairshareTree};
use aequus_core::ids::{EntityPath, GridUser, JobId, SiteId};
use aequus_core::policy::{flat_policy, PolicyNode, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::{UsageHistogram, UsageRecord};
use aequus_core::vector::{FairshareVector, Resolution};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a flat policy over n users with random positive shares, plus
/// random usage values.
fn flat_scenario() -> impl Strategy<Value = (Vec<(String, f64)>, Vec<f64>)> {
    (2usize..12).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.01..10.0f64, n),
            proptest::collection::vec(0.0..1000.0f64, n),
        )
            .prop_map(|(shares, usage)| {
                let named: Vec<(String, f64)> = shares
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| (format!("u{i}"), s))
                    .collect();
                (named, usage)
            })
    })
}

fn build_tree(shares: &[(String, f64)], usage: &[f64], k: f64) -> (PolicyTree, FairshareTree) {
    let pairs: Vec<(&str, f64)> = shares.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let policy = flat_policy(&pairs).unwrap();
    let usage_map: BTreeMap<GridUser, f64> = shares
        .iter()
        .zip(usage)
        .map(|((n, _), &u)| (GridUser::new(n.clone()), u))
        .collect();
    let cfg = FairshareConfig {
        k_weight: k,
        ..Default::default()
    };
    let tree = FairshareTree::compute(&policy, &usage_map, &cfg, 0.0);
    (policy, tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn normalized_shares_sum_to_one((shares, _) in flat_scenario()) {
        let pairs: Vec<(&str, f64)> = shares.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let policy = flat_policy(&pairs).unwrap();
        let normalized = policy.normalized_children(&EntityPath::root());
        let total: f64 = normalized.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        for v in normalized.values() {
            prop_assert!(*v >= 0.0 && *v <= 1.0);
        }
    }

    #[test]
    fn distances_bounded_by_theory((shares, usage) in flat_scenario(), k in 0.0..1.0f64) {
        let (policy, tree) = build_tree(&shares, &usage, k);
        let cfg = FairshareConfig { k_weight: k, ..Default::default() };
        for (name, _) in &shares {
            let user = GridUser::new(name.clone());
            let d = tree.user_priority(&user).unwrap();
            // Global bounds.
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&d), "{name}: {d}");
            // Per-user upper bound: k + (1−k)·share, attained at zero usage.
            let p = policy
                .normalized_children(&EntityPath::root())
                .get(name)
                .copied()
                .unwrap_or(0.0);
            prop_assert!(
                d <= cfg.max_priority(p) + 1e-9,
                "{name}: d={d} > bound {}",
                cfg.max_priority(p)
            );
        }
    }

    #[test]
    fn usage_shares_sum_to_one_when_positive((shares, usage) in flat_scenario()) {
        prop_assume!(usage.iter().sum::<f64>() > 0.0);
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        let total: f64 = shares
            .iter()
            .map(|(n, _)| {
                tree.node(&EntityPath::parse(&format!("/{n}")))
                    .unwrap()
                    .usage_share
            })
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "usage shares sum to {total}");
    }

    #[test]
    fn balanced_usage_is_fixed_point((shares, _) in flat_scenario()) {
        // Usage proportional to normalized shares ⇒ all distances zero.
        let pairs: Vec<(&str, f64)> = shares.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let policy = flat_policy(&pairs).unwrap();
        let normalized = policy.normalized_children(&EntityPath::root());
        let usage: Vec<f64> = shares
            .iter()
            .map(|(n, _)| normalized[n] * 1234.5)
            .collect();
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        for (name, _) in &shares {
            let d = tree.user_priority(&GridUser::new(name.clone())).unwrap();
            prop_assert!(d.abs() < 1e-9, "{name}: {d}");
        }
    }

    #[test]
    fn vector_faithful_projections_agree_with_vector_order((shares, usage) in flat_scenario()) {
        // Dictionary and bitwise operate *on the vectors*, so strict vector
        // ordering must be preserved. (Percental re-derives its own
        // absolute-share metric, which can legally order users with
        // different policy shares differently from the combined distance —
        // the price of its share-product construction.)
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        let vectors = tree.all_vectors();
        for kind in [ProjectionKind::Dictionary, ProjectionKind::Bitwise] {
            let values = kind.build().project(&tree);
            for (ua, va) in &vectors {
                for (ub, vb) in &vectors {
                    if va.compare(vb) == std::cmp::Ordering::Greater {
                        let (fa, fb) = (values[ua], values[ub]);
                        prop_assert!(
                            fa >= fb - 1e-9,
                            "{kind:?}: {ua} > {ub} by vector but {fa} < {fb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn percental_orders_equal_share_users_by_usage((_, usage) in flat_scenario()) {
        // With equal policy shares, percental must rank lower usage higher —
        // its metric reduces to −usage share.
        let n = usage.len();
        let shares: Vec<(String, f64)> =
            (0..n).map(|i| (format!("u{i}"), 1.0)).collect();
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        let values = ProjectionKind::Percental.build().project(&tree);
        for i in 0..n {
            for j in 0..n {
                if usage[i] < usage[j] - 1e-9 {
                    let (fi, fj) = (
                        values[&GridUser::new(format!("u{i}"))],
                        values[&GridUser::new(format!("u{j}"))],
                    );
                    prop_assert!(fi >= fj - 1e-12, "u{i}({fi}) vs u{j}({fj})");
                }
            }
        }
    }

    #[test]
    fn histogram_conserves_charge(
        jobs in proptest::collection::vec((0.0..1e4f64, 0.1..1e3f64, 1u32..8), 1..40),
        slot in 1.0..500.0f64,
    ) {
        let mut h = UsageHistogram::new(slot);
        let mut expected = 0.0;
        for (i, (start, len, cores)) in jobs.iter().enumerate() {
            let rec = UsageRecord {
                job: JobId(i as u64),
                user: GridUser::new(format!("u{}", i % 3)),
                site: SiteId(0),
                cores: *cores,
                start_s: *start,
                end_s: start + len,
            };
            expected += rec.charge();
            h.record(&rec);
        }
        prop_assert!((h.total_recorded() - expected).abs() < 1e-6 * expected.max(1.0));
        // Per-user raw sums equal the total.
        let by_user: f64 = (0..3)
            .map(|i| h.raw_usage(&GridUser::new(format!("u{i}"))))
            .sum();
        prop_assert!((by_user - expected).abs() < 1e-6 * expected.max(1.0));
        // Decayed usage never exceeds raw usage.
        for i in 0..3 {
            let user = GridUser::new(format!("u{i}"));
            let raw = h.raw_usage(&user);
            let dec = h.decayed_usage(&user, 2e4, DecayPolicy::default());
            prop_assert!(dec <= raw + 1e-9, "decayed {dec} > raw {raw}");
        }
    }

    #[test]
    fn decay_weight_monotone_in_age(
        age1 in 0.0..1e6f64,
        delta in 0.0..1e6f64,
        half in 1.0..1e6f64,
    ) {
        for policy in [
            DecayPolicy::None,
            DecayPolicy::Exponential { half_life_s: half },
            DecayPolicy::Window { window_s: half },
            DecayPolicy::Linear { span_s: half },
        ] {
            let w1 = policy.weight(age1);
            let w2 = policy.weight(age1 + delta);
            prop_assert!(w2 <= w1 + 1e-12, "{policy:?}");
            prop_assert!((0.0..=1.0).contains(&w1));
        }
    }

    #[test]
    fn vector_compare_total_order(
        a in proptest::collection::vec(0.0..9999.0f64, 1..6),
        b in proptest::collection::vec(0.0..9999.0f64, 1..6),
        c in proptest::collection::vec(0.0..9999.0f64, 1..6),
    ) {
        let r = Resolution::PAPER;
        let va = FairshareVector::from_elements(a, r);
        let vb = FairshareVector::from_elements(b, r);
        let vc = FairshareVector::from_elements(c, r);
        // Antisymmetry.
        prop_assert_eq!(va.compare(&vb), vb.compare(&va).reverse());
        // Transitivity.
        use std::cmp::Ordering::*;
        if va.compare(&vb) != Greater && vb.compare(&vc) != Greater {
            prop_assert!(va.compare(&vc) != Greater);
        }
        // Padding does not change the order.
        let depth = va.depth().max(vb.depth()) + 2;
        prop_assert_eq!(va.compare(&vb), va.padded(depth).compare(&vb.padded(depth)));
    }

    #[test]
    fn subtree_usage_isolation(
        u1 in 0.0..1000.0f64,
        u2 in 0.0..1000.0f64,
        lever in 0.0..100_000.0f64,
    ) {
        // Moving usage inside sibling subtree g1 never changes the *vector
        // elements* of users inside g2 (the representation-level guarantee
        // behind Table I's subgroup-isolation column).
        prop_assume!(u1 + u2 > 0.0);
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group("g1", 0.5, vec![PolicyNode::user("x", 1.0)]),
                PolicyNode::group(
                    "g2",
                    0.5,
                    vec![PolicyNode::user("a", 0.6), PolicyNode::user("b", 0.4)],
                ),
            ],
        ))
        .unwrap();
        let cfg = FairshareConfig::default();
        let tree_for = |x_usage: f64| {
            let usage: BTreeMap<GridUser, f64> = [
                (GridUser::new("x"), x_usage),
                (GridUser::new("a"), u1),
                (GridUser::new("b"), u2),
            ]
            .into_iter()
            .collect();
            FairshareTree::compute(&policy, &usage, &cfg, 0.0)
        };
        let t1 = tree_for(lever);
        let t2 = tree_for(lever * 2.0 + 1.0);
        for user in ["a", "b"] {
            let path = EntityPath::parse(&format!("/g2/{user}"));
            let e1 = t1.node(&path).unwrap().element;
            let e2 = t2.node(&path).unwrap().element;
            prop_assert!((e1 - e2).abs() < 1e-9, "{user}: {e1} vs {e2}");
        }
    }
}

/// Strategy: a random two-level policy tree (groups with users).
fn random_tree() -> impl Strategy<Value = PolicyTree> {
    proptest::collection::vec((1usize..5, 0.1..10.0f64), 1..5).prop_map(|groups| {
        let children: Vec<PolicyNode> = groups
            .iter()
            .enumerate()
            .map(|(g, (users, share))| {
                PolicyNode::group(
                    format!("g{g}"),
                    *share,
                    (0..*users)
                        .map(|u| PolicyNode::user(format!("g{g}u{u}"), 1.0 + u as f64))
                        .collect(),
                )
            })
            .collect();
        PolicyTree::new(PolicyNode::group("root", 1.0, children)).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn policy_file_roundtrip(tree in random_tree()) {
        use aequus_core::policy_file::{parse_policy, to_policy_file};
        let text = to_policy_file(&tree);
        let back = parse_policy(&text).unwrap();
        prop_assert_eq!(back.users().len(), tree.users().len());
        for (path, user) in tree.users() {
            let a = tree.absolute_share(&path).unwrap();
            let b = back.absolute_share(&path).unwrap();
            prop_assert!((a - b).abs() < 1e-12, "{path}: {a} vs {b}");
            prop_assert_eq!(back.path_of_user(&user), Some(path));
        }
    }

    #[test]
    fn user_shares_walk_matches_absolute_share_bitwise(tree in random_tree()) {
        let walked = tree.user_shares();
        let users = tree.users();
        prop_assert_eq!(walked.len(), users.len());
        for ((path, user), (walked_user, share)) in users.iter().zip(&walked) {
            prop_assert_eq!(user, walked_user);
            let direct = tree.absolute_share(path).unwrap();
            prop_assert_eq!(share.to_bits(), direct.to_bits(), "{}", path);
        }
    }

    #[test]
    fn combined_vector_blend_laws(
        elems in proptest::collection::vec(0.0..9999.0f64, 1..6),
        age in 0.0..1.0f64,
        qos in 0.0..1.0f64,
        size in 0.0..1.0f64,
        w_fs in 0.01..1.0f64,
        w_age in 0.0..1.0f64,
    ) {
        use aequus_core::combined::{CombinedVector, VectorWeights};
        use aequus_core::vector::{FairshareVector, Resolution};
        let w = VectorWeights { fairshare: w_fs, age: w_age, qos: 0.1, size: 0.1 };
        let v = FairshareVector::from_elements(elems.clone(), Resolution::PAPER);
        let c = CombinedVector::blend(&v, age, qos, size, &w);
        // Elements stay in range.
        for e in c.elements() {
            prop_assert!((0.0..=9999.0 + 1e-9).contains(e), "{e}");
        }
        // Monotone in each fairshare element: raising one element never
        // lowers the combined vector.
        let mut raised = elems.clone();
        raised[0] = (raised[0] + 1.0).min(9999.0);
        let v2 = FairshareVector::from_elements(raised, Resolution::PAPER);
        let c2 = CombinedVector::blend(&v2, age, qos, size, &w);
        prop_assert!(c2.compare(&c) != std::cmp::Ordering::Less);
        // Monotone in age.
        let older = CombinedVector::blend(&v, (age + 0.1).min(1.0), qos, size, &w);
        prop_assert!(older.compare(&c) != std::cmp::Ordering::Less);
        // Scalar view in range.
        prop_assert!((0.0..=1.0).contains(&c.scalar_view()));
    }
}
