//! The request-level resilience layer: deadlines, retry budgets,
//! hedging, circuit breaking and SLA-class load shedding.
//!
//! Everything here is *policy vocabulary plus pure state machines*; the
//! co-simulation in [`sim`](crate::sim) wires them into the dispatch
//! path. Five mechanisms, each independently switchable:
//!
//! * **Deadlines** — every request carries a deadline derived from its
//!   SLA-class latency objective
//!   ([`ResiliencePolicy::deadline`]). An attempt
//!   whose *predicted* latency (queue backlog + effective service)
//!   already exceeds the deadline is failed at dispatch instead of
//!   being enqueued to miss it — the failure feeds the retry ladder and
//!   the chosen server's breaker.
//! * **Retries** — failed attempts back off exponentially with
//!   per-request jitter drawn once from the keyed
//!   `(seed, Retry, request id)` stream ([`BackoffSchedule`]), governed
//!   by a token-bucket [`RetryBudget`] that refills per admitted
//!   request: when the fleet degrades, the budget bounds the retry
//!   amplification instead of letting a retry storm finish it off.
//! * **Hedging** — a gold request whose primary pick predicts a slow
//!   response is duplicated onto the least-backlogged alternate
//!   instance; the earlier completion wins.
//! * **Circuit breaking** — per-instance closed→open→half-open state
//!   machine ([`BreakerBank`]) fed by dispatch failures and crash
//!   events; an open breaker ejects the instance from the routable set
//!   until its open window elapses in sim ticks.
//! * **Load shedding** — admission control sheds requests whose chosen
//!   server's backlog exceeds the class watermark; bronze watermarks
//!   sit below gold ([`ShedPolicy`]), so bronze sheds first and gold
//!   capacity survives the longest.
//!
//! A mechanism is off by being absent: each is an `Option` in
//! [`ResiliencePolicy`], and [`ResiliencePolicy::disabled`] (all `None`)
//! is a structural no-op: the simulation draws zero extra random
//! numbers, emits zero extra trace events and produces a byte-identical
//! report.

use ecolb_cluster::server::ServerId;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::requests::{request_stream, RequestId, RequestStreamDomain};

/// One milli-token; a retry withdraws exactly this much.
pub const RETRY_COST_MTOKENS: u64 = 1000;

/// The full resilience configuration of a serving run. `None` turns a
/// mechanism off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResiliencePolicy {
    /// Deadline per class as a multiple of its latency objective
    /// (gold 0.5 s × 2.0 → 1.0 s deadline), guarded at dispatch.
    pub deadline: Option<f64>,
    /// Retry ladder and budget.
    pub retry: Option<RetryPolicy>,
    /// Gold-class hedging.
    pub hedge: Option<HedgePolicy>,
    /// Per-instance circuit breakers.
    pub breaker: Option<BreakerPolicy>,
    /// SLA-class load shedding.
    pub shed: Option<ShedPolicy>,
}

impl ResiliencePolicy {
    /// The structural no-op default: every mechanism off.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Retries only: crash-killed attempts are retried under the
    /// default budget, but no deadline guard, hedging, breakers or
    /// shedding — the middle column of the EXPERIMENTS "RS" sweep.
    pub fn retry_only() -> Self {
        ResiliencePolicy {
            retry: Some(RetryPolicy::default()),
            ..Self::disabled()
        }
    }

    /// The full stack with paper-shaped defaults: 2× objective
    /// deadlines, budgeted retries, gold hedging, breakers and
    /// bronze-first shedding.
    pub fn full() -> Self {
        ResiliencePolicy {
            deadline: Some(2.0),
            retry: Some(RetryPolicy::default()),
            hedge: Some(HedgePolicy::default()),
            breaker: Some(BreakerPolicy::default()),
            shed: Some(ShedPolicy::default()),
        }
    }

    /// The deadline for a request with the given class objective, or
    /// `None` when the deadline guard is off.
    pub fn deadline_s(&self, objective_s: f64) -> Option<f64> {
        self.deadline.map(|multiplier| objective_s * multiplier)
    }
}

/// Exponential-backoff retry configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per request (not counting the original).
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied per further attempt (≥ 1 keeps the schedule
    /// monotone).
    pub backoff_multiplier: f64,
    /// Backoff cap, seconds.
    pub max_backoff_s: f64,
    /// Jitter width: the per-request factor is uniform in
    /// `[1 − jitter_fraction, 1]`. `0.0` draws nothing.
    pub jitter_fraction: f64,
    /// The token bucket governing the global retry volume.
    pub budget: RetryBudgetSpec,
}

impl Default for RetryPolicy {
    /// Up to 3 budgeted retries at 50 ms × 2^k capped at 400 ms, with
    /// 20 % jitter.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 0.05,
            backoff_multiplier: 2.0,
            max_backoff_s: 0.4,
            jitter_fraction: 0.2,
            budget: RetryBudgetSpec::default(),
        }
    }
}

/// Token-bucket retry-budget configuration, in milli-tokens (one retry
/// costs [`RETRY_COST_MTOKENS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudgetSpec {
    /// Milli-tokens deposited per admitted request (100 ⇒ a sustained
    /// retry ratio of 10 % of admissions).
    pub fill_per_admit_mtokens: u64,
    /// Bucket capacity, milli-tokens — the burst of back-to-back
    /// retries one fault may trigger.
    pub burst_mtokens: u64,
}

impl Default for RetryBudgetSpec {
    /// 10 % sustained retry ratio with a 200-retry burst.
    fn default() -> Self {
        RetryBudgetSpec {
            fill_per_admit_mtokens: 100,
            burst_mtokens: 200 * RETRY_COST_MTOKENS,
        }
    }
}

/// Gold-class hedging configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Predicted primary latency above which a hedge is issued, seconds.
    pub threshold_s: f64,
}

impl Default for HedgePolicy {
    /// Hedge gold requests predicted slower than 350 ms.
    fn default() -> Self {
        HedgePolicy { threshold_s: 0.35 }
    }
}

/// Per-instance circuit-breaker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive dispatch failures that trip a closed breaker.
    pub failure_threshold: u32,
    /// Open window before the half-open probe, seconds (sim ticks).
    pub open_s: f64,
}

impl Default for BreakerPolicy {
    /// Trip after 5 consecutive failures, eject for 20 s.
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            open_s: 20.0,
        }
    }
}

/// SLA-class load-shedding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPolicy {
    /// Bronze requests shed once the chosen server queues more than
    /// this many seconds of work.
    pub bronze_watermark_s: f64,
    /// Gold watermark — strictly above bronze, so bronze sheds first.
    pub gold_watermark_s: f64,
}

impl Default for ShedPolicy {
    /// Shed bronze past 1.2 s of backlog, gold past 1.6 s (both below
    /// the 2 s hard admission bound).
    fn default() -> Self {
        ShedPolicy {
            bronze_watermark_s: 1.2,
            gold_watermark_s: 1.6,
        }
    }
}

impl ShedPolicy {
    /// The watermark for a class index (0 = gold, 1 = bronze).
    pub fn watermark_s(&self, class: usize) -> f64 {
        if class == 0 {
            self.gold_watermark_s
        } else {
            self.bronze_watermark_s
        }
    }
}

/// The capped-exponential backoff schedule of one request: a pure
/// function of `(seed, request id, policy)`.
///
/// The jitter factor is drawn *once* per request from the keyed
/// `(seed, Retry, request)` stream and applied uniformly, so the
/// schedule stays monotone non-decreasing (multiplier ≥ 1) and never
/// exceeds the cap. With `jitter_fraction == 0` no stream is opened at
/// all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffSchedule {
    base_s: f64,
    multiplier: f64,
    cap_s: f64,
    jitter_factor: f64,
}

impl BackoffSchedule {
    /// Builds the schedule for `request` under `policy`.
    pub fn new(seed: u64, request: RequestId, policy: &RetryPolicy) -> Self {
        let jitter_factor = if policy.jitter_fraction > 0.0 {
            let width = policy.jitter_fraction.min(1.0);
            let mut rng = request_stream(seed, RequestStreamDomain::Retry, request.0);
            1.0 - width * rng.next_f64()
        } else {
            1.0
        };
        BackoffSchedule {
            base_s: policy.base_backoff_s.max(0.0),
            multiplier: policy.backoff_multiplier.max(1.0),
            cap_s: policy.max_backoff_s.max(0.0),
            jitter_factor,
        }
    }

    /// Backoff before retry attempt `k` (1-based), seconds.
    pub fn delay_s(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(63);
        let raw = self.base_s * self.multiplier.powi(exp as i32);
        raw.min(self.cap_s).max(0.0) * self.jitter_factor
    }
}

/// The runtime token bucket behind [`RetryBudgetSpec`].
///
/// Starts full at the burst capacity; every admitted request deposits
/// the fill amount (clamped at the capacity, the spill counted in
/// [`RetryBudget::dropped_mtokens`]); every granted retry withdraws
/// [`RETRY_COST_MTOKENS`]. Conservation holds exactly in integer
/// milli-tokens:
/// `initial + deposited == balance + withdrawn + dropped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    spec: RetryBudgetSpec,
    balance: u64,
    deposited: u64,
    withdrawn: u64,
    dropped: u64,
}

impl RetryBudget {
    /// A bucket starting full at the spec's burst capacity.
    pub fn new(spec: RetryBudgetSpec) -> Self {
        RetryBudget {
            spec,
            balance: spec.burst_mtokens,
            deposited: 0,
            withdrawn: 0,
            dropped: 0,
        }
    }

    /// Deposits the per-admission fill.
    pub fn deposit(&mut self) {
        let fill = self.spec.fill_per_admit_mtokens;
        self.deposited += fill;
        let room = self.spec.burst_mtokens - self.balance;
        let kept = fill.min(room);
        self.balance += kept;
        self.dropped += fill - kept;
    }

    /// Withdraws one retry's worth of tokens; `false` means the retry
    /// is denied.
    pub fn try_withdraw(&mut self) -> bool {
        if self.balance >= RETRY_COST_MTOKENS {
            self.balance -= RETRY_COST_MTOKENS;
            self.withdrawn += RETRY_COST_MTOKENS;
            true
        } else {
            false
        }
    }

    /// Current balance, milli-tokens.
    pub fn balance_mtokens(&self) -> u64 {
        self.balance
    }

    /// Initial capacity the bucket started with, milli-tokens.
    pub fn initial_mtokens(&self) -> u64 {
        self.spec.burst_mtokens
    }

    /// Total deposited, milli-tokens (including spill).
    pub fn deposited_mtokens(&self) -> u64 {
        self.deposited
    }

    /// Total withdrawn by granted retries, milli-tokens.
    pub fn withdrawn_mtokens(&self) -> u64 {
        self.withdrawn
    }

    /// Deposits spilled over the burst capacity, milli-tokens.
    pub fn dropped_mtokens(&self) -> u64 {
        self.dropped
    }
}

/// One instance's breaker position. `HalfOpen` is routable: the next
/// attempt is the probe that closes or re-opens the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: SimTime },
    HalfOpen,
}

/// The per-instance circuit breakers of a fleet.
///
/// Transition protocol (the `breaker_routing` invariant relies on the
/// emission sites being exactly the `true` returns here):
///
/// * closed → open on the threshold'th consecutive failure, or
///   immediately on a crash ([`BreakerBank::trip`]);
/// * half-open → open on a probe failure;
/// * open → half-open once the open window elapses
///   ([`BreakerBank::poll_expired`]), or on a discovery rejoin
///   ([`BreakerBank::reset`]).
///
/// The bank keeps a watermark at or below the earliest open window's
/// end, so [`BreakerBank::poll_expired`] is O(1) until that instant and
/// scans the fleet once per expiry, not on every dispatch.
#[derive(Debug, Clone)]
pub struct BreakerBank {
    states: Vec<BreakerState>,
    failures: Vec<u32>,
    open_count: usize,
    /// A lower bound on the `until` of every open breaker: opening one
    /// lowers it, a poll that scans resets it to the exact minimum. A
    /// [`reset`](BreakerBank::reset) can leave it too low, which costs
    /// one empty scan, never a missed expiry.
    next_expiry: SimTime,
}

impl BreakerBank {
    /// A bank of `n` closed breakers.
    pub fn new(n: usize) -> Self {
        BreakerBank {
            states: vec![BreakerState::Closed; n],
            failures: vec![0; n],
            open_count: 0,
            next_expiry: SimTime::MAX,
        }
    }

    /// Breakers currently open (routing-forbidden instances).
    pub fn open_count(&self) -> usize {
        self.open_count
    }

    /// True when `server` must not receive traffic.
    pub fn is_open(&self, server: ServerId) -> bool {
        matches!(
            self.states.get(server.index()),
            Some(BreakerState::Open { .. })
        )
    }

    fn set_open(&mut self, idx: usize, until: SimTime) -> bool {
        match self.states.get_mut(idx) {
            Some(slot) if !matches!(slot, BreakerState::Open { .. }) => {
                *slot = BreakerState::Open { until };
                self.open_count += 1;
                self.next_expiry = self.next_expiry.min(until);
                true
            }
            _ => false,
        }
    }

    /// Records a dispatch failure against `server`; returns `true` when
    /// this trips the breaker open (emit `breaker_open`).
    pub fn record_failure(
        &mut self,
        server: ServerId,
        now: SimTime,
        policy: &BreakerPolicy,
    ) -> bool {
        let idx = server.index();
        let open_until = now + SimDuration::from_secs_f64(policy.open_s);
        match self.states.get(idx).copied() {
            Some(BreakerState::Closed) => {
                if let Some(f) = self.failures.get_mut(idx) {
                    *f += 1;
                    if *f >= policy.failure_threshold {
                        *f = 0;
                        return self.set_open(idx, open_until);
                    }
                }
                false
            }
            Some(BreakerState::HalfOpen) => self.set_open(idx, open_until),
            _ => false,
        }
    }

    /// Records a successful completion on `server`: closes a half-open
    /// breaker and clears the failure streak.
    pub fn record_success(&mut self, server: ServerId) {
        let idx = server.index();
        if let Some(slot) = self.states.get_mut(idx) {
            if *slot == BreakerState::HalfOpen {
                *slot = BreakerState::Closed;
            }
        }
        if let Some(f) = self.failures.get_mut(idx) {
            *f = 0;
        }
    }

    /// Trips `server` straight to open (crash evidence); returns `true`
    /// when the breaker actually transitioned (emit `breaker_open`).
    pub fn trip(&mut self, server: ServerId, now: SimTime, policy: &BreakerPolicy) -> bool {
        let until = now + SimDuration::from_secs_f64(policy.open_s);
        let idx = server.index();
        if let Some(f) = self.failures.get_mut(idx) {
            *f = 0;
        }
        self.set_open(idx, until)
    }

    /// Moves every breaker whose open window has elapsed to half-open,
    /// appending the servers to `reopened` in id order (emit
    /// `breaker_close` for each). O(1) until the earliest open window
    /// ends; then one O(n) scan, which also finds the next window's end.
    pub fn poll_expired(&mut self, now: SimTime, reopened: &mut Vec<ServerId>) {
        if self.open_count == 0 || now < self.next_expiry {
            return;
        }
        let mut next_expiry = SimTime::MAX;
        for (idx, slot) in self.states.iter_mut().enumerate() {
            if let BreakerState::Open { until } = *slot {
                if now >= until {
                    *slot = BreakerState::HalfOpen;
                    self.open_count -= 1;
                    reopened.push(ServerId(idx as u32));
                } else {
                    next_expiry = next_expiry.min(until);
                }
            }
        }
        self.next_expiry = next_expiry;
    }

    /// Resets `server` to closed (discovery rejoin after recovery or
    /// wake); returns `true` when it was open (emit `breaker_close`).
    pub fn reset(&mut self, server: ServerId) -> bool {
        let idx = server.index();
        if let Some(f) = self.failures.get_mut(idx) {
            *f = 0;
        }
        match self.states.get_mut(idx) {
            Some(slot) => {
                let was_open = matches!(slot, BreakerState::Open { .. });
                *slot = BreakerState::Closed;
                if was_open {
                    self.open_count -= 1;
                }
                was_open
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_turns_everything_off() {
        let p = ResiliencePolicy::disabled();
        assert_eq!(p.deadline_s(0.5), None);
        assert!(p.retry.is_none());
        assert!(p.hedge.is_none());
        assert!(p.breaker.is_none());
        assert!(p.shed.is_none());
    }

    #[test]
    fn full_policy_derives_deadlines_from_objectives() {
        let p = ResiliencePolicy::full();
        assert_eq!(p.deadline_s(0.5), Some(1.0));
        assert_eq!(p.deadline_s(2.0), Some(4.0));
        let shed = ShedPolicy::default();
        assert_eq!(p.shed, Some(shed));
        assert!(shed.watermark_s(1) < shed.watermark_s(0));
    }

    #[test]
    fn backoff_is_deterministic_monotone_and_capped() {
        let policy = RetryPolicy::default();
        let a = BackoffSchedule::new(7, RequestId(42), &policy);
        let b = BackoffSchedule::new(7, RequestId(42), &policy);
        assert_eq!(a, b);
        let mut last = 0.0;
        for k in 1..=10 {
            let d = a.delay_s(k);
            assert!(d >= last, "monotone at attempt {k}");
            assert!(d <= policy.max_backoff_s, "cap at attempt {k}");
            last = d;
        }
    }

    #[test]
    fn zero_jitter_schedule_is_exact_exponential() {
        let policy = RetryPolicy {
            jitter_fraction: 0.0,
            ..RetryPolicy::default()
        };
        let s = BackoffSchedule::new(1, RequestId(0), &policy);
        assert_eq!(s.delay_s(1), 0.05);
        assert_eq!(s.delay_s(2), 0.1);
        assert_eq!(s.delay_s(3), 0.2);
        assert_eq!(s.delay_s(4), 0.4);
        assert_eq!(s.delay_s(9), 0.4, "capped");
    }

    #[test]
    fn budget_conserves_tokens_and_never_goes_negative() {
        let mut b = RetryBudget::new(RetryBudgetSpec {
            fill_per_admit_mtokens: 300,
            burst_mtokens: 2000,
        });
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "empty bucket denies");
        b.deposit();
        b.deposit();
        b.deposit();
        b.deposit();
        assert!(b.try_withdraw());
        for _ in 0..20 {
            b.deposit();
        }
        assert_eq!(
            b.initial_mtokens() + b.deposited_mtokens(),
            b.balance_mtokens() + b.withdrawn_mtokens() + b.dropped_mtokens()
        );
        assert!(b.balance_mtokens() <= 2000);
    }

    #[test]
    fn breaker_trips_on_threshold_and_probes_half_open() {
        let policy = BreakerPolicy {
            failure_threshold: 3,
            open_s: 10.0,
        };
        let mut bank = BreakerBank::new(4);
        let s = ServerId(1);
        let t0 = SimTime::ZERO;
        assert!(!bank.record_failure(s, t0, &policy));
        assert!(!bank.record_failure(s, t0, &policy));
        assert!(bank.record_failure(s, t0, &policy), "third failure trips");
        assert!(bank.is_open(s));
        assert_eq!(bank.open_count(), 1);
        // Further failures while open change nothing.
        assert!(!bank.record_failure(s, t0, &policy));

        let mut reopened = Vec::new();
        bank.poll_expired(t0 + SimDuration::from_secs(5), &mut reopened);
        assert!(reopened.is_empty(), "window not elapsed");
        bank.poll_expired(t0 + SimDuration::from_secs(10), &mut reopened);
        assert_eq!(reopened, vec![s]);
        assert!(!bank.is_open(s), "half-open is routable");
        assert_eq!(bank.open_count(), 0);

        // A half-open probe failure re-opens immediately.
        assert!(bank.record_failure(s, t0 + SimDuration::from_secs(11), &policy));
        assert!(bank.is_open(s));
    }

    #[test]
    fn success_closes_a_half_open_breaker_and_clears_streaks() {
        let policy = BreakerPolicy {
            failure_threshold: 2,
            open_s: 1.0,
        };
        let mut bank = BreakerBank::new(2);
        let s = ServerId(0);
        assert!(!bank.record_failure(s, SimTime::ZERO, &policy));
        bank.record_success(s);
        // The streak reset means two more failures are needed.
        assert!(!bank.record_failure(s, SimTime::ZERO, &policy));
        assert!(bank.record_failure(s, SimTime::ZERO, &policy));
        let mut reopened = Vec::new();
        bank.poll_expired(SimTime::from_secs(2), &mut reopened);
        assert_eq!(reopened, vec![s]);
        bank.record_success(s);
        assert!(!bank.is_open(s));
        assert!(!bank.record_failure(s, SimTime::from_secs(3), &policy));
    }

    #[test]
    fn trip_and_reset_pair_for_crash_and_rejoin() {
        let policy = BreakerPolicy::default();
        let mut bank = BreakerBank::new(3);
        let s = ServerId(2);
        assert!(bank.trip(s, SimTime::ZERO, &policy));
        assert!(!bank.trip(s, SimTime::ZERO, &policy), "already open");
        assert!(bank.reset(s), "reset of an open breaker reports it");
        assert!(!bank.reset(s), "reset of a closed breaker is silent");
        assert_eq!(bank.open_count(), 0);
    }
}
