//! Service discovery over the cluster: instance sets and change events.
//!
//! The serving layer is sans-io: nothing here polls a network registry.
//! [`Discover`] exposes the current routable [`InstanceSet`] plus the
//! [`Change`] events since the last poll — the deterministic analogue of
//! volo's discovery push channel. [`ClusterDiscover`] implements it by
//! snapshotting a [`Cluster`] at reallocation
//! boundaries and diffing successive snapshots, so wake/sleep/crash
//! decisions made by the §4 consolidation policy surface to the pickers
//! as membership changes, and migrations surface as instance updates.

use std::fmt;

use ecolb_cluster::instances::InstanceInfo;
use ecolb_cluster::server::ServerId;
use ecolb_cluster::Cluster;

/// A canonically ordered instance snapshot.
///
/// Instances are sorted by server id regardless of how they were
/// handed in, so every picker decision is a function of the *set*, not
/// of the discovery order — the determinism-under-reordering property
/// checked in the picker property tests.
#[derive(Clone, Default)]
pub struct InstanceSet {
    instances: Vec<InstanceInfo>,
    /// Indices (into `instances`) of the awake, routable entries.
    awake: Vec<usize>,
    /// Identity of the current contents: redrawn by every rebuild, so
    /// equal stamps mean equal contents (a clone shares its original's
    /// stamp until either is rebuilt).
    stamp: u64,
}

/// Equality of the contents; the stamp is an identity, not state.
impl PartialEq for InstanceSet {
    fn eq(&self, other: &Self) -> bool {
        self.instances == other.instances && self.awake == other.awake
    }
}

impl fmt::Debug for InstanceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstanceSet")
            .field("instances", &self.instances)
            .field("awake", &self.awake)
            .finish()
    }
}

impl InstanceSet {
    /// Builds a set from instances in any order; sorts by server id.
    pub fn from_instances(mut instances: Vec<InstanceInfo>) -> Self {
        instances.sort_by_key(|i| i.id);
        let mut set = InstanceSet {
            instances,
            awake: Vec::new(),
            stamp: 0,
        };
        set.reindex();
        set
    }

    /// Replaces the contents from a snapshot buffer (already in id
    /// order when it comes from `Cluster::instance_snapshot`); sorts
    /// defensively so callers cannot break the canonical order.
    pub fn replace_from(&mut self, snapshot: &[InstanceInfo]) {
        self.instances.clear();
        self.instances.extend_from_slice(snapshot);
        self.instances.sort_by_key(|i| i.id);
        self.reindex();
    }

    fn reindex(&mut self) {
        self.awake.clear();
        for (i, inst) in self.instances.iter().enumerate() {
            if inst.awake {
                self.awake.push(i);
            }
        }
        self.stamp = crate::next_stamp();
    }

    /// The identity of the current contents (see the field docs).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// All instances, in server-id order.
    pub fn instances(&self) -> &[InstanceInfo] {
        &self.instances
    }

    /// Indices of the awake (routable) instances, ascending.
    pub fn awake_indices(&self) -> &[usize] {
        &self.awake
    }

    /// Number of awake (routable) instances.
    pub fn awake_len(&self) -> usize {
        self.awake.len()
    }

    /// Total instances, routable or not.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the set holds no instances at all.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instance at `idx` (id order).
    pub fn get(&self, idx: usize) -> Option<&InstanceInfo> {
        self.instances.get(idx)
    }
}

/// One discovery change between two snapshots — the sans-io analogue of
/// a registry push notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// The server became routable (woke, recovered, or first seen).
    Joined(ServerId),
    /// The server left the routable set (slept or crashed).
    Left(ServerId),
    /// The server stayed routable but its load or VM census moved
    /// (demand evolution or a migration landing).
    Updated(ServerId),
}

/// Computes the changes turning `old` into `new`, in server-id order.
/// Both sets are canonically ordered, so this is a linear merge.
pub fn diff_into(old: &InstanceSet, new: &InstanceSet, out: &mut Vec<Change>) {
    out.clear();
    let (a, b) = (old.instances(), new.instances());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let order = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x.id.cmp(&y.id),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => break,
        };
        match order {
            std::cmp::Ordering::Less => {
                if a[i].awake {
                    out.push(Change::Left(a[i].id));
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if b[j].awake {
                    out.push(Change::Joined(b[j].id));
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (x, y) = (&a[i], &b[j]);
                match (x.awake, y.awake) {
                    (false, true) => out.push(Change::Joined(y.id)),
                    (true, false) => out.push(Change::Left(y.id)),
                    (true, true) => {
                        if x.load != y.load || x.vms != y.vms || x.regime != y.regime {
                            out.push(Change::Updated(y.id));
                        }
                    }
                    (false, false) => {}
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// The discovery seam: the current routable set plus the changes since
/// the previous poll.
pub trait Discover {
    /// The current canonical instance set.
    fn instances(&self) -> &InstanceSet;
    /// Drains the changes accumulated since the last call into `out`
    /// (cleared first).
    fn poll_changes(&mut self, out: &mut Vec<Change>);
}

/// [`Discover`] backed by cluster snapshots at reallocation boundaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterDiscover {
    current: InstanceSet,
    previous: InstanceSet,
    scratch: Vec<InstanceInfo>,
    diff_scratch: Vec<Change>,
    pending: Vec<Change>,
}

impl ClusterDiscover {
    /// Creates a discover seeded with the cluster's initial snapshot
    /// (no pending changes — the initial set is the baseline).
    pub fn new(cluster: &Cluster) -> Self {
        let mut d = ClusterDiscover::default();
        cluster.instance_snapshot(&mut d.scratch);
        d.current.replace_from(&d.scratch);
        d
    }

    /// Re-snapshots the cluster and accumulates the diff against the
    /// previous snapshot into the pending change queue.
    pub fn refresh(&mut self, cluster: &Cluster) {
        std::mem::swap(&mut self.previous, &mut self.current);
        cluster.instance_snapshot(&mut self.scratch);
        self.current.replace_from(&self.scratch);
        diff_into(&self.previous, &self.current, &mut self.diff_scratch);
        self.pending.extend_from_slice(&self.diff_scratch);
    }
}

impl Discover for ClusterDiscover {
    fn instances(&self) -> &InstanceSet {
        &self.current
    }

    fn poll_changes(&mut self, out: &mut Vec<Change>) {
        out.clear();
        out.append(&mut self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_energy::regimes::OperatingRegime;

    fn inst(id: u32, awake: bool, load: f64) -> InstanceInfo {
        InstanceInfo {
            id: ServerId(id),
            awake,
            regime: OperatingRegime::Optimal,
            load,
            vms: 2,
        }
    }

    #[test]
    fn sets_canonicalize_order() {
        let a = InstanceSet::from_instances(vec![inst(2, true, 0.5), inst(0, true, 0.1)]);
        let b = InstanceSet::from_instances(vec![inst(0, true, 0.1), inst(2, true, 0.5)]);
        assert_eq!(a, b);
        assert_eq!(a.awake_len(), 2);
    }

    #[test]
    fn awake_index_skips_sleepers() {
        let s = InstanceSet::from_instances(vec![
            inst(0, true, 0.1),
            inst(1, false, 0.0),
            inst(2, true, 0.5),
        ]);
        assert_eq!(s.awake_indices(), &[0, 2]);
    }

    #[test]
    fn diff_reports_joins_leaves_updates() {
        let old = InstanceSet::from_instances(vec![
            inst(0, true, 0.1),
            inst(1, true, 0.2),
            inst(2, false, 0.0),
        ]);
        let new = InstanceSet::from_instances(vec![
            inst(0, true, 0.3),  // load moved
            inst(1, false, 0.0), // slept
            inst(2, true, 0.1),  // woke
        ]);
        let mut out = Vec::new();
        diff_into(&old, &new, &mut out);
        assert_eq!(
            out,
            vec![
                Change::Updated(ServerId(0)),
                Change::Left(ServerId(1)),
                Change::Joined(ServerId(2)),
            ]
        );
    }

    #[test]
    fn diff_of_identical_sets_is_empty() {
        let s = InstanceSet::from_instances(vec![inst(0, true, 0.1), inst(1, false, 0.0)]);
        let mut out = vec![Change::Joined(ServerId(9))];
        diff_into(&s, &s.clone(), &mut out);
        assert!(out.is_empty());
    }
}
