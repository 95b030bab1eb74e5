//! Deterministic request pickers — the `LoadBalance` seam.
//!
//! A [`Picker`] maps one request to one awake instance given the current
//! [`InstanceSet`] and a read-only [`QueueView`]. All four shipped
//! pickers are pure functions of `(instance set, queue state, request
//! id, seed)`:
//!
//! * [`RoundRobin`] — cyclic over the awake instances;
//! * [`LeastLoaded`] — global argmin of queued work;
//! * [`PowerOfTwo`] — two keyed-random candidates, less-loaded wins
//!   (the classic two-choices result: near-least-loaded quality at O(1)
//!   cost). The candidate draws come from the `(seed, request id)`
//!   stream, so the choice is independent of call order — seed
//!   provenance the lint can follow;
//! * [`RegimeAware`] — the paper's §4 regime classification re-exposed
//!   as a router: requests steer *off* the underloaded servers the
//!   consolidation policy wants to drain and sleep (R1/R2) and off the
//!   overloaded ones (R5), concentrating traffic where the policy wants
//!   it — so the serving layer stops fighting the energy layer.
//!
//! Ties always break toward the lower server id, and candidates only
//! ever come from [`InstanceSet::awake_indices`] — no picker can route
//! to a sleeping or crashed instance.
//!
//! "Pure function" is the *output* contract. [`LeastLoaded`] and
//! [`RegimeAware`] keep an internal index so that a pick costs O(log n)
//! instead of an O(awake) scan: one min-segment tree of queue horizons
//! per regime penalty, cached under the stamps of the instance set and
//! of the queue model it was built from. A set rebuild, a fresh or
//! cloned model, or a [`reset`](crate::queue::QueueModel::reset) draws a
//! new stamp and forces an O(awake) rebuild; in between, enqueues only
//! raise horizons, so every cached horizon is a lower bound of the true
//! one and a query checks (and refreshes) just the leaf it lands on. The
//! pick is always the exact argmin the linear scan would return.
//!
//! The same index answers the gold hedge's query: the least-backlogged
//! awake server other than the primary. [`ServeSim`](crate::sim::ServeSim)
//! keeps a zero-penalty index for it, and the query masks the primary's
//! leaf for the length of one argmin.

use crate::discover::{Change, InstanceSet};
use crate::queue::QueueView;
use ecolb_cluster::server::ServerId;
use ecolb_energy::regimes::OperatingRegime;
use ecolb_workload::requests::{request_stream, RequestId, RequestStreamDomain};

/// A routing strategy: picks an awake instance for each request.
pub trait Picker {
    /// Stable strategy label for reports and traces.
    fn name(&self) -> &'static str;

    /// Picks the serving instance for `request`, or `None` when no
    /// awake instance exists.
    fn pick(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        request: RequestId,
    ) -> Option<ServerId>;

    /// Discovery notification: the instance set changed (wake, sleep,
    /// crash, migration). Default: no internal state to fix up.
    fn on_change(&mut self, _set: &InstanceSet, _changes: &[Change]) {}
}

/// The four shipped strategies, as config vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickerKind {
    /// Cyclic over the awake instances.
    RoundRobin,
    /// Global argmin of queued work.
    LeastLoaded,
    /// Two keyed-random candidates, less-loaded wins.
    PowerOfTwo,
    /// Regime-scored routing (paper §4 classification).
    RegimeAware,
}

impl PickerKind {
    /// Every shipped strategy, in report order.
    pub fn all() -> [PickerKind; 4] {
        [
            PickerKind::RoundRobin,
            PickerKind::LeastLoaded,
            PickerKind::PowerOfTwo,
            PickerKind::RegimeAware,
        ]
    }

    /// Stable label matching [`Picker::name`].
    pub fn label(self) -> &'static str {
        match self {
            PickerKind::RoundRobin => "round_robin",
            PickerKind::LeastLoaded => "least_loaded",
            PickerKind::PowerOfTwo => "power_of_two",
            PickerKind::RegimeAware => "regime_aware",
        }
    }

    /// Instantiates the picker. `seed` feeds the keyed choice stream of
    /// [`PowerOfTwo`]; the other strategies ignore it.
    pub fn build(self, seed: u64) -> Box<dyn Picker> {
        match self {
            PickerKind::RoundRobin => Box::new(RoundRobin::new()),
            PickerKind::LeastLoaded => Box::<LeastLoaded>::default(),
            PickerKind::PowerOfTwo => Box::new(PowerOfTwo::new(seed)),
            PickerKind::RegimeAware => Box::<RegimeAware>::default(),
        }
    }
}

/// Cyclic picker over the awake instances.
///
/// The cursor indexes the *awake list*, so over any window in which the
/// awake set is stable every awake instance receives either ⌊w/n⌋ or
/// ⌈w/n⌉ of the w requests — the fairness property in the property
/// tests. Membership changes reset the cursor (a deterministic function
/// of the new set, not of which server happened to change).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// A fresh picker with the cursor at the first awake instance.
    pub fn new() -> Self {
        RoundRobin { cursor: 0 }
    }
}

impl Picker for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn pick(
        &mut self,
        set: &InstanceSet,
        _queues: &QueueView<'_>,
        _request: RequestId,
    ) -> Option<ServerId> {
        let awake = set.awake_indices();
        if awake.is_empty() {
            return None;
        }
        let slot = self.cursor % awake.len();
        self.cursor = slot + 1;
        set.get(awake[slot]).map(|i| i.id)
    }

    fn on_change(&mut self, _set: &InstanceSet, changes: &[Change]) {
        if !changes.is_empty() {
            self.cursor = 0;
        }
    }
}

/// One penalty bucket of a [`HorizonIndex`]: a min-segment tree over the
/// queue horizons (`busy_until`, ticks) of the bucket's awake servers.
#[derive(Debug, Clone, Default)]
struct Bucket {
    penalty: u64,
    /// Leaf `i` is server `ids[i]`; ids ascend.
    ids: Vec<ServerId>,
    /// Heap layout: node 1 is the root, node `k` has children `2k` and
    /// `2k + 1`, and the leaves fill `width..2 * width` with `u64::MAX`
    /// padding. Empty when the bucket has no servers.
    tree: Vec<u64>,
}

impl Bucket {
    fn width(&self) -> usize {
        self.tree.len() / 2
    }

    /// Reads every leaf afresh from `queues` and rebuilds the tree.
    fn fill(&mut self, queues: &QueueView<'_>) {
        self.tree.clear();
        if self.ids.is_empty() {
            return;
        }
        let width = self.ids.len().next_power_of_two();
        self.tree.resize(2 * width, u64::MAX);
        for (leaf, &id) in self.ids.iter().enumerate() {
            self.tree[width + leaf] = queues.busy_until_ticks(id);
        }
        for node in (1..width).rev() {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    fn update(&mut self, leaf: usize, horizon: u64) {
        let mut node = self.width() + leaf;
        self.tree[node] = horizon;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    /// The leftmost leaf whose horizon satisfies `hit`, given that the
    /// root's does.
    fn leftmost(&self, hit: impl Fn(u64) -> bool) -> usize {
        let width = self.width();
        let mut node = 1;
        while node < width {
            node = if hit(self.tree[2 * node]) {
                2 * node
            } else {
                2 * node + 1
            };
        }
        node - width
    }

    /// The bucket's exact `(penalty + backlog, id)` minimum, or `None`
    /// when the bucket is empty or cannot beat `best`. Stale leaves met
    /// on the way are refreshed from `queues`.
    fn argmin(
        &mut self,
        queues: &QueueView<'_>,
        best: Option<(u64, ServerId)>,
    ) -> Option<(u64, ServerId)> {
        let now = queues.now().ticks();
        loop {
            let root = *self.tree.get(1)?;
            // Stored horizons are lower bounds, so this bounds every key
            // in the bucket from below; on a tie a lower id may still win.
            let bound = self.penalty.saturating_add(root.saturating_sub(now));
            if best.is_some_and(|(key, _)| bound > key) {
                return None;
            }
            // Busy bucket: the smallest horizon (lowest id among equals).
            // Otherwise: the lowest-id server idle at `now`.
            let leaf = if root > now {
                self.leftmost(|h| h == root)
            } else {
                self.leftmost(|h| h <= now)
            };
            let id = self.ids[leaf];
            let stored = self.tree[self.width() + leaf];
            let actual = queues.busy_until_ticks(id);
            // Exact when the true horizon matches the stored one — or,
            // for an idle pick, when the server is still idle.
            if actual.max(now) == stored.max(now) {
                let key = self.penalty.saturating_add(actual.saturating_sub(now));
                return Some((key, id));
            }
            self.update(leaf, actual);
        }
    }
}

/// The exact argmin index shared by [`LeastLoaded`] and [`RegimeAware`]:
/// awake servers grouped by routing penalty, one [`Bucket`] per distinct
/// penalty, in penalty order.
///
/// The cache is keyed on the `(InstanceSet, QueueModel)` stamps and
/// rebuilt in O(awake) whenever either changes. Under one key the stored
/// horizons are lower bounds of the true ones (a model only ever raises
/// a horizon between stamp bumps), so a query validates the one leaf it
/// lands on and, when stale, refreshes it in O(log n) and asks again.
/// Each enqueue leaves at most one leaf stale.
///
/// A zero-penalty index also answers the gold hedge's query,
/// [`HorizonIndex::alternate`].
#[derive(Debug, Clone, Default)]
pub(crate) struct HorizonIndex {
    stamps: Option<(u64, u64)>,
    buckets: Vec<Bucket>,
}

impl HorizonIndex {
    /// The awake server minimising `(penalty(regime) + backlog, id)`.
    fn pick(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        penalty: fn(OperatingRegime) -> u64,
    ) -> Option<ServerId> {
        self.sync(set, queues, penalty);
        let mut best = None;
        for bucket in &mut self.buckets {
            if let Some(candidate) = bucket.argmin(queues, best) {
                if best.is_none_or(|b| candidate < b) {
                    best = Some(candidate);
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// The awake server other than `primary` with the least backlog, ties
    /// to the lower id: the gold hedge's alternate. `None` when `primary`
    /// is the only awake server. The query builds the index with zero
    /// penalty, so an index that answers it must not also serve a
    /// penalised `pick`.
    ///
    /// The primary's leaf is masked to `u64::MAX` for the search, then
    /// holds its true horizon, a valid lower bound.
    pub(crate) fn alternate(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        primary: ServerId,
    ) -> Option<ServerId> {
        self.sync(set, queues, |_| 0);
        let bucket = self.buckets.first_mut()?;
        let masked = bucket.ids.binary_search(&primary).ok();
        if let Some(leaf) = masked {
            bucket.update(leaf, u64::MAX);
        }
        // A root at `u64::MAX` is the masked primary or padding: there is
        // no alternate, and `argmin` must not descend into the padding.
        let alternate = match bucket.tree.get(1) {
            Some(&root) if root < u64::MAX => bucket.argmin(queues, None),
            _ => None,
        };
        if let Some(leaf) = masked {
            bucket.update(leaf, queues.busy_until_ticks(primary));
        }
        alternate.map(|(_, id)| id)
    }

    /// Rebuilds the index when the set or the queue model changed stamp.
    fn sync(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        penalty: fn(OperatingRegime) -> u64,
    ) {
        let stamps = (set.stamp(), queues.stamp());
        if self.stamps != Some(stamps) {
            self.rebuild(set, queues, penalty);
            self.stamps = Some(stamps);
        }
    }

    fn rebuild(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        penalty: fn(OperatingRegime) -> u64,
    ) {
        for bucket in &mut self.buckets {
            bucket.ids.clear();
        }
        for inst in set.awake_indices().iter().filter_map(|&i| set.get(i)) {
            let p = penalty(inst.regime);
            match self.buckets.iter_mut().find(|b| b.penalty == p) {
                Some(bucket) => bucket.ids.push(inst.id),
                None => self.buckets.push(Bucket {
                    penalty: p,
                    ids: vec![inst.id],
                    tree: Vec::new(),
                }),
            }
        }
        self.buckets.sort_by_key(|b| b.penalty);
        for bucket in &mut self.buckets {
            bucket.fill(queues);
        }
    }
}

/// Global argmin of queued work; ties break to the lower server id.
/// The horizon index of the module docs with a single zero-penalty
/// bucket.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded {
    index: HorizonIndex,
}

impl Picker for LeastLoaded {
    fn name(&self) -> &'static str {
        "least_loaded"
    }

    fn pick(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        _request: RequestId,
    ) -> Option<ServerId> {
        self.index.pick(set, queues, |_| 0)
    }
}

/// Two keyed-random candidates; the one with less queued work wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerOfTwo {
    seed: u64,
}

impl PowerOfTwo {
    /// A picker whose candidate draws are keyed on `(seed, request)`.
    pub fn new(seed: u64) -> Self {
        PowerOfTwo { seed }
    }
}

impl Picker for PowerOfTwo {
    fn name(&self) -> &'static str {
        "power_of_two"
    }

    fn pick(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        request: RequestId,
    ) -> Option<ServerId> {
        let awake = set.awake_indices();
        let n = awake.len();
        if n == 0 {
            return None;
        }
        // Candidates come from the per-request stream, so the draw is a
        // pure function of (seed, request id, awake count) — replaying
        // the same request against the same set always picks the same
        // pair, regardless of how many requests ran before it.
        let mut rng = request_stream(self.seed, RequestStreamDomain::Choice, request.0);
        let first_slot = rng.index(n);
        if n == 1 {
            return set.get(awake[first_slot]).map(|i| i.id);
        }
        // Second candidate distinct from the first: draw from the n−1
        // remaining slots and skip over the first pick.
        let mut second_slot = rng.index(n - 1);
        if second_slot >= first_slot {
            second_slot += 1;
        }
        let a = set.get(awake[first_slot])?;
        let b = set.get(awake[second_slot])?;
        let ka = (queues.backlog_ticks(a.id), a.id);
        let kb = (queues.backlog_ticks(b.id), b.id);
        Some(if ka <= kb { a.id } else { b.id })
    }
}

/// Regime-scored router: keep traffic on optimally loaded servers,
/// off drain candidates and off overloaded ones. The horizon index of
/// the module docs with one bucket per regime penalty.
#[derive(Debug, Clone, Default)]
pub struct RegimeAware {
    index: HorizonIndex,
}

/// Routing penalty of a regime, as virtual backlog ticks added to the
/// instance's real queue before comparison. Zero for the optimal band
/// (R3); small for the high suboptimal band (R4, still has headroom);
/// larger for the low band (R2) and especially R1 — the consolidation
/// policy's drain candidates, where every routed request keeps a server
/// the energy layer wants asleep busy; largest for saturated R5, which
/// serves slowest. A *penalty* rather than a strict tier: preferred
/// regimes absorb traffic first, but once their queues grow past the
/// penalty gap the load spills over instead of piling up.
pub fn regime_penalty_ticks(regime: OperatingRegime) -> u64 {
    match regime {
        OperatingRegime::Optimal => 0,
        OperatingRegime::SuboptimalHigh => 100_000,
        OperatingRegime::SuboptimalLow => 250_000,
        OperatingRegime::UndesirableLow => 500_000,
        OperatingRegime::UndesirableHigh => 1_500_000,
    }
}

impl Picker for RegimeAware {
    fn name(&self) -> &'static str {
        "regime_aware"
    }

    fn pick(
        &mut self,
        set: &InstanceSet,
        queues: &QueueView<'_>,
        _request: RequestId,
    ) -> Option<ServerId> {
        self.index.pick(set, queues, regime_penalty_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueModel;
    use ecolb_cluster::instances::InstanceInfo;
    use ecolb_simcore::time::{SimDuration, SimTime};

    fn inst(id: u32, awake: bool, regime: OperatingRegime, load: f64) -> InstanceInfo {
        InstanceInfo {
            id: ServerId(id),
            awake,
            regime,
            load,
            vms: 1,
        }
    }

    fn set(instances: Vec<InstanceInfo>) -> InstanceSet {
        InstanceSet::from_instances(instances)
    }

    #[test]
    fn round_robin_cycles_over_awake_only() {
        let s = set(vec![
            inst(0, true, OperatingRegime::Optimal, 0.5),
            inst(1, false, OperatingRegime::UndesirableLow, 0.0),
            inst(2, true, OperatingRegime::Optimal, 0.5),
        ]);
        let q = QueueModel::new(3);
        let view = q.view(SimTime::ZERO);
        let mut rr = RoundRobin::new();
        let picks: Vec<u32> = (0..4)
            .filter_map(|i| rr.pick(&s, &view, RequestId(i)))
            .map(|id| id.0)
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn least_loaded_follows_backlog() {
        let s = set(vec![
            inst(0, true, OperatingRegime::Optimal, 0.5),
            inst(1, true, OperatingRegime::Optimal, 0.5),
        ]);
        let mut q = QueueModel::new(2);
        q.enqueue(SimTime::ZERO, ServerId(0), SimDuration::from_secs(5));
        let view = q.view(SimTime::ZERO);
        let mut ll = LeastLoaded::default();
        assert_eq!(ll.pick(&s, &view, RequestId(0)), Some(ServerId(1)));
    }

    #[test]
    fn power_of_two_is_keyed_per_request() {
        let s = set((0..8)
            .map(|i| inst(i, true, OperatingRegime::Optimal, 0.5))
            .collect());
        let q = QueueModel::new(8);
        let view = q.view(SimTime::ZERO);
        let mut a = PowerOfTwo::new(42);
        let mut b = PowerOfTwo::new(42);
        // Same request id → same pick, regardless of call history.
        for _ in 0..5 {
            let _ = a.pick(&s, &view, RequestId(0));
        }
        assert_eq!(
            a.pick(&s, &view, RequestId(7)),
            b.pick(&s, &view, RequestId(7))
        );
    }

    #[test]
    fn power_of_two_single_instance() {
        let s = set(vec![inst(3, true, OperatingRegime::Optimal, 0.5)]);
        let q = QueueModel::new(4);
        let view = q.view(SimTime::ZERO);
        let mut p = PowerOfTwo::new(1);
        assert_eq!(p.pick(&s, &view, RequestId(0)), Some(ServerId(3)));
    }

    #[test]
    fn regime_aware_prefers_optimal_band() {
        let s = set(vec![
            inst(0, true, OperatingRegime::UndesirableLow, 0.05),
            inst(1, true, OperatingRegime::Optimal, 0.6),
            inst(2, true, OperatingRegime::UndesirableHigh, 0.95),
        ]);
        let q = QueueModel::new(3);
        let view = q.view(SimTime::ZERO);
        let mut ra = RegimeAware::default();
        assert_eq!(ra.pick(&s, &view, RequestId(0)), Some(ServerId(1)));
    }

    #[test]
    fn empty_awake_set_yields_none() {
        let s = set(vec![inst(0, false, OperatingRegime::UndesirableLow, 0.0)]);
        let q = QueueModel::new(1);
        let view = q.view(SimTime::ZERO);
        for kind in PickerKind::all() {
            let mut p = kind.build(9);
            assert_eq!(p.pick(&s, &view, RequestId(0)), None, "{}", p.name());
        }
    }

    #[test]
    fn kind_labels_match_picker_names() {
        for kind in PickerKind::all() {
            assert_eq!(kind.label(), kind.build(1).name());
        }
    }

    #[test]
    fn regime_penalties_are_a_strict_preference_order() {
        let penalties: Vec<u64> = [
            OperatingRegime::Optimal,
            OperatingRegime::SuboptimalHigh,
            OperatingRegime::SuboptimalLow,
            OperatingRegime::UndesirableLow,
            OperatingRegime::UndesirableHigh,
        ]
        .into_iter()
        .map(regime_penalty_ticks)
        .collect();
        assert!(
            penalties.windows(2).all(|w| w[0] < w[1]),
            "penalties must strictly increase with routing undesirability: {penalties:?}"
        );
    }

    #[test]
    fn regime_penalty_spills_over_under_load() {
        // An optimal server with a queue deeper than the drain-candidate
        // penalty gap loses to the idle drain candidate: steering, not
        // strict tiering.
        let s = set(vec![
            inst(0, true, OperatingRegime::UndesirableLow, 0.05),
            inst(1, true, OperatingRegime::Optimal, 0.6),
        ]);
        let mut q = QueueModel::new(2);
        q.enqueue(SimTime::ZERO, ServerId(1), SimDuration::from_secs(5));
        let view = q.view(SimTime::ZERO);
        let mut ra = RegimeAware::default();
        assert_eq!(ra.pick(&s, &view, RequestId(0)), Some(ServerId(0)));
    }

    fn regime_pick(s: &InstanceSet, q: &QueueModel, now: SimTime) -> Option<ServerId> {
        RegimeAware::default().pick(s, &q.view(now), RequestId(0))
    }

    #[test]
    fn equal_keys_across_buckets_go_to_the_lower_id() {
        // Server 1 (optimal, 0.1 s queued) and server 0 (R4, idle) both
        // score 100_000 ticks; the lower id wins although its bucket is
        // searched second.
        let s = set(vec![
            inst(0, true, OperatingRegime::SuboptimalHigh, 0.8),
            inst(1, true, OperatingRegime::Optimal, 0.6),
        ]);
        let mut q = QueueModel::new(2);
        q.enqueue(SimTime::ZERO, ServerId(1), SimDuration::from_millis(100));
        assert_eq!(regime_pick(&s, &q, SimTime::ZERO), Some(ServerId(0)));
        // One tick less queued and the optimal server wins outright.
        let mut q = QueueModel::new(2);
        q.enqueue(SimTime::ZERO, ServerId(1), SimDuration::from_ticks(99_999));
        assert_eq!(regime_pick(&s, &q, SimTime::ZERO), Some(ServerId(1)));
    }

    #[test]
    fn idle_beats_busy_within_a_bucket_then_lowest_horizon_wins() {
        let s = set((0..4)
            .map(|i| inst(i, true, OperatingRegime::Optimal, 0.5))
            .collect());
        let mut q = QueueModel::new(4);
        for (id, ms) in [(0, 300), (1, 200), (3, 200)] {
            q.enqueue(SimTime::ZERO, ServerId(id), SimDuration::from_millis(ms));
        }
        // Server 2 is the only idle one.
        assert_eq!(regime_pick(&s, &q, SimTime::ZERO), Some(ServerId(2)));
        q.enqueue(SimTime::ZERO, ServerId(2), SimDuration::from_millis(250));
        // All busy: 1 and 3 tie on the smallest horizon, 1 wins.
        assert_eq!(regime_pick(&s, &q, SimTime::ZERO), Some(ServerId(1)));
        // Later, 1 and 3 have drained: the lowest idle id wins.
        assert_eq!(
            regime_pick(&s, &q, SimTime::from_ticks(220_000)),
            Some(ServerId(1))
        );
    }

    #[test]
    fn an_empty_bucket_is_skipped() {
        // No optimal server at all; R4 beats R2 beats R5.
        let s = set(vec![
            inst(0, true, OperatingRegime::UndesirableHigh, 0.95),
            inst(1, true, OperatingRegime::SuboptimalLow, 0.3),
            inst(2, true, OperatingRegime::SuboptimalHigh, 0.8),
            inst(3, false, OperatingRegime::Optimal, 0.6),
        ]);
        let q = QueueModel::new(4);
        assert_eq!(regime_pick(&s, &q, SimTime::ZERO), Some(ServerId(2)));
    }

    #[test]
    fn an_all_r5_set_routes_like_least_loaded() {
        let s = set((0..5)
            .map(|i| inst(i, true, OperatingRegime::UndesirableHigh, 0.95))
            .collect());
        let mut q = QueueModel::new(5);
        for id in [0, 1, 3] {
            q.enqueue(SimTime::ZERO, ServerId(id), SimDuration::from_secs(1));
        }
        let view = q.view(SimTime::ZERO);
        let mut ra = RegimeAware::default();
        let mut ll = LeastLoaded::default();
        assert_eq!(ra.pick(&s, &view, RequestId(0)), Some(ServerId(2)));
        assert_eq!(ll.pick(&s, &view, RequestId(0)), Some(ServerId(2)));
    }

    #[test]
    fn reset_and_a_fresh_model_invalidate_the_index() {
        let s = set((0..2)
            .map(|i| inst(i, true, OperatingRegime::Optimal, 0.5))
            .collect());
        let mut q = QueueModel::new(2);
        let mut ra = RegimeAware::default();
        q.enqueue(SimTime::ZERO, ServerId(0), SimDuration::from_secs(2));
        q.enqueue(SimTime::ZERO, ServerId(1), SimDuration::from_secs(1));
        assert_eq!(
            ra.pick(&s, &q.view(SimTime::ZERO), RequestId(0)),
            Some(ServerId(1))
        );
        // A reset lowers server 0's horizon below the cached one.
        q.reset(ServerId(0));
        assert_eq!(
            ra.pick(&s, &q.view(SimTime::ZERO), RequestId(1)),
            Some(ServerId(0))
        );
        // A different model with the same set is a different index.
        let mut other = QueueModel::new(2);
        other.enqueue(SimTime::ZERO, ServerId(0), SimDuration::from_secs(3));
        assert_eq!(
            ra.pick(&s, &other.view(SimTime::ZERO), RequestId(2)),
            Some(ServerId(1))
        );
    }
}
