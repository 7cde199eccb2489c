//! Hierarchical, tree-based usage share policies (§II-A constituent 1).
//!
//! A policy tree assigns each user, project, or VO a *target usage share*,
//! recursively subdividable into subgroups. Globally managed sub-policies can
//! be **mounted** into a locally administered root: a site admin assigns,
//! say, 30% of the cluster to a grid, and the grid's own PDS supplies how
//! that 30% subdivides — without the site admin managing grid-internal
//! shares.

use crate::ids::{EntityPath, GridUser};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Errors raised by policy construction and mounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A node share was non-finite or negative.
    InvalidShare(String),
    /// Duplicate child name under one parent.
    DuplicateChild(String),
    /// Mount target path does not exist or is not a mount point.
    NoSuchMountPoint(String),
    /// The path names no node in the tree.
    NoSuchPath(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::InvalidShare(n) => write!(f, "invalid share on node {n}"),
            PolicyError::DuplicateChild(n) => write!(f, "duplicate child name {n}"),
            PolicyError::NoSuchMountPoint(p) => write!(f, "no mount point at {p}"),
            PolicyError::NoSuchPath(p) => write!(f, "no policy node at {p}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// What a policy node represents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyNodeKind {
    /// An interior grouping (VO, project, research group).
    Group,
    /// A leaf user entity, carrying the grid identity it accounts for.
    User(GridUser),
    /// A mount point: a slot for a remotely managed sub-policy. Until
    /// resolved, it behaves as an empty group.
    MountPoint {
        /// Identifies the remote PDS / policy source expected here.
        source: String,
    },
}

/// One node of a policy tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyNode {
    /// Node name; unique among siblings.
    pub name: String,
    /// Raw (un-normalized) target share weight; ≥ 0.
    pub share: f64,
    /// Node semantics.
    pub kind: PolicyNodeKind,
    /// Child nodes (empty for users and unresolved mount points).
    pub children: Vec<PolicyNode>,
}

impl PolicyNode {
    /// A group node.
    pub fn group(name: impl Into<String>, share: f64, children: Vec<PolicyNode>) -> Self {
        Self {
            name: name.into(),
            share,
            kind: PolicyNodeKind::Group,
            children,
        }
    }

    /// A user leaf whose name doubles as its grid identity.
    pub fn user(name: impl Into<String>, share: f64) -> Self {
        let name = name.into();
        Self {
            share,
            kind: PolicyNodeKind::User(GridUser::new(name.clone())),
            children: Vec::new(),
            name,
        }
    }

    /// A user leaf with an explicit grid identity.
    pub fn user_with_identity(name: impl Into<String>, share: f64, identity: GridUser) -> Self {
        Self {
            name: name.into(),
            share,
            kind: PolicyNodeKind::User(identity),
            children: Vec::new(),
        }
    }

    /// A mount point for a remotely supplied sub-policy.
    pub fn mount_point(name: impl Into<String>, share: f64, source: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            share,
            kind: PolicyNodeKind::MountPoint {
                source: source.into(),
            },
            children: Vec::new(),
        }
    }
}

/// A complete share policy: a named tree with validation and mounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyTree {
    root: PolicyNode,
    /// Monotonically increasing version, bumped on every mutation; lets
    /// downstream services (UMS/FCS) detect policy changes cheaply.
    version: u64,
}

impl PolicyTree {
    /// Build a policy tree from a root node, validating shares and name
    /// uniqueness throughout.
    pub fn new(root: PolicyNode) -> Result<Self, PolicyError> {
        validate(&root)?;
        Ok(Self { root, version: 1 })
    }

    /// The root node.
    pub fn root(&self) -> &PolicyNode {
        &self.root
    }

    /// Current policy version (bumped on mount/update).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Find a node by path (root = empty path).
    pub fn node_at(&self, path: &EntityPath) -> Option<&PolicyNode> {
        let mut node = &self.root;
        for comp in path.components() {
            node = node.children.iter().find(|c| &c.name == comp)?;
        }
        Some(node)
    }

    /// Mount a sub-policy at the named mount point. The mounted tree's root
    /// children become the mount node's children; the mount node keeps its
    /// locally assigned share ("local administrations retain control").
    pub fn mount(&mut self, at: &EntityPath, subtree: &PolicyTree) -> Result<(), PolicyError> {
        let node = node_at_mut(&mut self.root, at)
            .ok_or_else(|| PolicyError::NoSuchMountPoint(at.to_string()))?;
        if !matches!(node.kind, PolicyNodeKind::MountPoint { .. }) {
            return Err(PolicyError::NoSuchMountPoint(at.to_string()));
        }
        node.children = subtree.root.children.clone();
        validate(&self.root)?;
        self.version += 1;
        Ok(())
    }

    /// Replace the share of the node at `path` (run-time policy change, as
    /// exercised by the paper's non-optimal policy test).
    pub fn set_share(&mut self, path: &EntityPath, share: f64) -> Result<(), PolicyError> {
        if !(share.is_finite() && share >= 0.0) {
            return Err(PolicyError::InvalidShare(path.to_string()));
        }
        let node = node_at_mut(&mut self.root, path)
            .ok_or_else(|| PolicyError::NoSuchPath(path.to_string()))?;
        node.share = share;
        self.version += 1;
        Ok(())
    }

    /// Normalized target share of each child of `path` (shares of siblings
    /// sum to 1; returns an empty map for leaves and zero-weight groups).
    pub fn normalized_children(&self, path: &EntityPath) -> BTreeMap<String, f64> {
        let Some(node) = self.node_at(path) else {
            return BTreeMap::new();
        };
        let total: f64 = node.children.iter().map(|c| c.share).sum();
        if total <= 0.0 {
            return BTreeMap::new();
        }
        node.children
            .iter()
            .map(|c| (c.name.clone(), c.share / total))
            .collect()
    }

    /// The *absolute* target share of the entity at `path`: the product of
    /// normalized shares along the path (the "total target share" of the
    /// percental projection, §III-C).
    pub fn absolute_share(&self, path: &EntityPath) -> Option<f64> {
        let mut node = &self.root;
        let mut share = 1.0;
        for comp in path.components() {
            let total: f64 = node.children.iter().map(|c| c.share).sum();
            let child = node.children.iter().find(|c| &c.name == comp)?;
            if total <= 0.0 {
                return Some(0.0);
            }
            share *= child.share / total;
            node = child;
        }
        Some(share)
    }

    /// Every user leaf's grid identity with its absolute target share, in
    /// [`PolicyTree::users`] order. One pre-order walk carries the share
    /// product down the tree with the same `share *= child / Σsiblings`
    /// steps as [`PolicyTree::absolute_share`], so each share is
    /// bit-identical to the per-leaf lookup at O(nodes) instead of
    /// O(users × siblings).
    pub fn user_shares(&self) -> Vec<(GridUser, f64)> {
        fn walk(node: &PolicyNode, share: f64, out: &mut Vec<(GridUser, f64)>) {
            if let PolicyNodeKind::User(u) = &node.kind {
                out.push((u.clone(), share));
            }
            let total: f64 = node.children.iter().map(|c| c.share).sum();
            for c in &node.children {
                // `absolute_share` stops at a zero-weight group with 0.0;
                // a zero share stays 0.0 through every deeper product.
                let child = if total <= 0.0 {
                    0.0
                } else {
                    share * (c.share / total)
                };
                walk(c, child, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, 1.0, &mut out);
        out
    }

    /// Paths of all user leaves with their grid identities.
    pub fn users(&self) -> Vec<(EntityPath, GridUser)> {
        let mut out = Vec::new();
        collect_users(&self.root, &EntityPath::root(), &mut out);
        out
    }

    /// Locate the path of the leaf accounting for the given grid user.
    pub fn path_of_user(&self, user: &GridUser) -> Option<EntityPath> {
        self.users()
            .into_iter()
            .find(|(_, u)| u == user)
            .map(|(p, _)| p)
    }

    /// Maximum leaf depth of the tree.
    pub fn depth(&self) -> usize {
        fn depth_of(n: &PolicyNode) -> usize {
            1 + n.children.iter().map(depth_of).max().unwrap_or(0)
        }
        depth_of(&self.root) - 1
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        fn count(n: &PolicyNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }
}

fn node_at_mut<'a>(root: &'a mut PolicyNode, path: &EntityPath) -> Option<&'a mut PolicyNode> {
    let mut node = root;
    for comp in path.components() {
        node = node.children.iter_mut().find(|c| &c.name == comp)?;
    }
    Some(node)
}

fn validate(node: &PolicyNode) -> Result<(), PolicyError> {
    if !(node.share.is_finite() && node.share >= 0.0) {
        return Err(PolicyError::InvalidShare(node.name.clone()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for c in &node.children {
        if !seen.insert(&c.name) {
            return Err(PolicyError::DuplicateChild(c.name.clone()));
        }
        validate(c)?;
    }
    Ok(())
}

fn collect_users(node: &PolicyNode, path: &EntityPath, out: &mut Vec<(EntityPath, GridUser)>) {
    if let PolicyNodeKind::User(u) = &node.kind {
        out.push((path.clone(), u.clone()));
    }
    for c in &node.children {
        collect_users(c, &path.child(&c.name), out);
    }
}

/// Convenience: a flat single-level policy over plain users with the given
/// (name, share) pairs — the shape used in the paper's evaluation where the
/// four model users U65/U30/U3/Uoth sit directly under the root.
pub fn flat_policy(users: &[(&str, f64)]) -> Result<PolicyTree, PolicyError> {
    PolicyTree::new(PolicyNode::group(
        "root",
        1.0,
        users
            .iter()
            .map(|(n, s)| PolicyNode::user(*n, *s))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3_tree() -> PolicyTree {
        // Figure 3's shape: root → {HP → {u1, u2}, LQ}.
        PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "HP",
                    0.7,
                    vec![PolicyNode::user("u1", 0.6), PolicyNode::user("u2", 0.4)],
                ),
                PolicyNode::user("LQ", 0.3),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn normalization_sums_to_one() {
        let t = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![PolicyNode::user("a", 2.0), PolicyNode::user("b", 6.0)],
        ))
        .unwrap();
        let n = t.normalized_children(&EntityPath::root());
        assert!((n["a"] - 0.25).abs() < 1e-12);
        assert!((n["b"] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn absolute_share_is_product() {
        let t = figure3_tree();
        let u1 = t.absolute_share(&EntityPath::parse("/HP/u1")).unwrap();
        assert!((u1 - 0.7 * 0.6).abs() < 1e-12);
        let lq = t.absolute_share(&EntityPath::parse("/LQ")).unwrap();
        assert!((lq - 0.3).abs() < 1e-12);
    }

    /// `user_shares` must agree with `absolute_share` bit for bit, in
    /// `users` order, on every `stride`-th leaf (and the last).
    fn assert_shares_match_per_leaf(t: &PolicyTree, stride: usize) {
        let shares = t.user_shares();
        let users = t.users();
        assert_eq!(shares.len(), users.len());
        for (i, ((path, user), (walked_user, walked))) in users.iter().zip(&shares).enumerate() {
            assert_eq!(user, walked_user);
            if i % stride == 0 || i + 1 == users.len() {
                let direct = t.absolute_share(path).unwrap();
                assert_eq!(walked.to_bits(), direct.to_bits(), "{path}");
            }
        }
    }

    #[test]
    fn user_shares_match_absolute_share_bitwise() {
        assert_shares_match_per_leaf(&figure3_tree(), 1);

        // Deep nesting with uneven, non-dyadic weights at every level.
        let mut node = PolicyNode::user("deep", 0.3);
        for level in 0..12 {
            node = PolicyNode::group(
                format!("l{level}"),
                0.7 + level as f64 / 9.0,
                vec![
                    node,
                    PolicyNode::user(format!("side{level}"), 1.0 / 3.0 + level as f64),
                    PolicyNode::group(
                        format!("g{level}"),
                        0.11,
                        vec![PolicyNode::user(format!("x{level}"), 0.7)],
                    ),
                ],
            );
        }
        let deep = PolicyTree::new(PolicyNode::group("root", 1.0, vec![node])).unwrap();
        assert_eq!(deep.depth(), 14);
        assert_shares_match_per_leaf(&deep, 1);

        // A zero-share group, and a group whose children all weigh zero.
        let zero = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "idle",
                    0.0,
                    vec![
                        PolicyNode::user("i1", 0.5),
                        PolicyNode::group("ig", 2.0, vec![PolicyNode::user("i2", 1.0)]),
                    ],
                ),
                PolicyNode::group(
                    "empty",
                    0.4,
                    vec![PolicyNode::user("e1", 0.0), PolicyNode::user("e2", 0.0)],
                ),
                PolicyNode::user("live", 0.6),
            ],
        ))
        .unwrap();
        assert_shares_match_per_leaf(&zero, 1);
        assert_eq!(zero.user_shares()[0].1, 0.0);

        // Nation scale: 20k equal-share users under one root. The per-leaf
        // lookup is quadratic here, so it checks every 97th leaf; every
        // leaf is checked against the same product with the sum hoisted.
        let names: Vec<String> = (0..20_000).map(|i| format!("u{i:05}")).collect();
        let pairs: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.0 / 20_000.0)).collect();
        let flat = flat_policy(&pairs).unwrap();
        assert_shares_match_per_leaf(&flat, 97);
        let total: f64 = flat.root().children.iter().map(|c| c.share).sum();
        for (c, (_, walked)) in flat.root().children.iter().zip(flat.user_shares()) {
            let mut direct = 1.0;
            direct *= c.share / total;
            assert_eq!(walked.to_bits(), f64::to_bits(direct), "{}", c.name);
        }
    }

    #[test]
    fn users_enumerated_with_paths() {
        let t = figure3_tree();
        let users = t.users();
        assert_eq!(users.len(), 3);
        assert!(users
            .iter()
            .any(|(p, u)| p.to_string() == "/HP/u1" && u.as_str() == "u1"));
        assert_eq!(
            t.path_of_user(&GridUser::new("LQ")),
            Some(EntityPath::parse("/LQ"))
        );
    }

    #[test]
    fn mounting_inserts_remote_subtree() {
        // Site assigns 30% to the grid; the grid PDS supplies the subdivision.
        let mut site = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::user("local", 0.7),
                PolicyNode::mount_point("grid", 0.3, "national-pds"),
            ],
        ))
        .unwrap();
        let grid_policy = PolicyTree::new(PolicyNode::group(
            "grid",
            1.0,
            vec![PolicyNode::user("vo-a", 0.5), PolicyNode::user("vo-b", 0.5)],
        ))
        .unwrap();
        let v0 = site.version();
        site.mount(&EntityPath::parse("/grid"), &grid_policy)
            .unwrap();
        assert!(site.version() > v0);
        let voa = site
            .absolute_share(&EntityPath::parse("/grid/vo-a"))
            .unwrap();
        assert!((voa - 0.15).abs() < 1e-12);
        // Local share of the mount stays under site control.
        assert!((site.absolute_share(&EntityPath::parse("/local")).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mount_rejects_non_mount_target() {
        let mut t = figure3_tree();
        let sub = flat_policy(&[("x", 1.0)]).unwrap();
        assert!(matches!(
            t.mount(&EntityPath::parse("/HP"), &sub),
            Err(PolicyError::NoSuchMountPoint(_))
        ));
    }

    #[test]
    fn duplicate_children_rejected() {
        let r = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![PolicyNode::user("a", 0.5), PolicyNode::user("a", 0.5)],
        ));
        assert!(matches!(r, Err(PolicyError::DuplicateChild(_))));
    }

    #[test]
    fn negative_share_rejected() {
        let r = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![PolicyNode::user("a", -0.1)],
        ));
        assert!(matches!(r, Err(PolicyError::InvalidShare(_))));
    }

    #[test]
    fn set_share_changes_normalization() {
        let mut t = figure3_tree();
        t.set_share(&EntityPath::parse("/LQ"), 0.7).unwrap();
        let n = t.normalized_children(&EntityPath::root());
        assert!((n["LQ"] - 0.5).abs() < 1e-12);
        assert!((n["HP"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depth_and_count() {
        let t = figure3_tree();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn flat_policy_for_paper_users() {
        // The paper's baseline: actual usage shares as targets.
        let t = flat_policy(&[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ])
        .unwrap();
        let n = t.normalized_children(&EntityPath::root());
        assert_eq!(n.len(), 4);
        let sum: f64 = n.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
