//! `proptest_lite` properties for the resilience primitives (ISSUE 10
//! satellite):
//!
//! 1. backoff schedules are monotone non-decreasing, never exceed the
//!    (jittered) cap, and are byte-deterministic in
//!    `(seed, request, policy)`;
//! 2. the retry-budget token bucket never goes negative and conserves
//!    milli-tokens exactly;
//! 3. the breaker bank's watermarked expiry poll agrees with a reference
//!    bank that scans every slot on every poll.

use ecolb_cluster::server::ServerId;
use ecolb_serve::resilience::{
    BackoffSchedule, BreakerBank, BreakerPolicy, RetryBudget, RetryBudgetSpec, RetryPolicy,
    RETRY_COST_MTOKENS,
};
use ecolb_simcore::proptest_lite::{check, Gen};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::requests::RequestId;

/// Draws an arbitrary-but-sane retry policy: base up to 2 s, multiplier
/// in [1, 4), cap up to 8 s, jitter in [0, 1).
fn gen_policy(gen: &mut Gen) -> RetryPolicy {
    RetryPolicy {
        max_attempts: gen.u64_in(1, 8) as u32,
        base_backoff_s: gen.f64_in(0.0, 2.0),
        backoff_multiplier: gen.f64_in(1.0, 4.0),
        max_backoff_s: gen.f64_in(0.0, 8.0),
        jitter_fraction: gen.f64_in(0.0, 1.0),
        budget: RetryBudgetSpec::default(),
    }
}

#[test]
fn backoff_schedule_is_monotone_and_capped() {
    check("backoff_monotone_capped", |gen| {
        let policy = gen_policy(gen);
        let seed = gen.u64();
        let request = RequestId(gen.u64());
        let schedule = BackoffSchedule::new(seed, request, &policy);
        let mut last = 0.0f64;
        for attempt in 1..=16u32 {
            let d = schedule.delay_s(attempt);
            assert!(d >= 0.0, "negative backoff {d} at attempt {attempt}");
            assert!(
                d + 1e-12 >= last,
                "backoff fell from {last} to {d} at attempt {attempt}"
            );
            // The jitter factor lies in [1 − jitter, 1] ⊆ [0, 1], so the
            // configured cap bounds every jittered delay.
            assert!(
                d <= policy.max_backoff_s.max(0.0) + 1e-12,
                "backoff {d} exceeds cap {} at attempt {attempt}",
                policy.max_backoff_s
            );
            last = d;
        }
    });
}

#[test]
fn backoff_schedule_is_deterministic_in_its_key() {
    check("backoff_deterministic", |gen| {
        let policy = gen_policy(gen);
        let seed = gen.u64();
        let request = RequestId(gen.u64());
        let a = BackoffSchedule::new(seed, request, &policy);
        let b = BackoffSchedule::new(seed, request, &policy);
        assert_eq!(a, b, "same key, different schedule");
        for attempt in 1..=8u32 {
            assert!(
                a.delay_s(attempt).to_bits() == b.delay_s(attempt).to_bits(),
                "delay at attempt {attempt} is not byte-deterministic"
            );
        }
        // A different request re-keys the jitter stream; with full
        // jitter width the schedules almost surely differ, but
        // determinism (not distinctness) is the property under test, so
        // only assert the re-keyed schedule is itself stable.
        let other = RequestId(request.0 ^ 0x9E37_79B9_7F4A_7C15);
        assert_eq!(
            BackoffSchedule::new(seed, other, &policy),
            BackoffSchedule::new(seed, other, &policy)
        );
    });
}

#[test]
fn retry_budget_never_goes_negative_and_conserves_tokens() {
    check("budget_conservation", |gen| {
        let spec = RetryBudgetSpec {
            fill_per_admit_mtokens: gen.u64_in(0, 500),
            burst_mtokens: gen.u64_in(0, 20) * RETRY_COST_MTOKENS,
        };
        let mut budget = RetryBudget::new(spec);
        let mut granted = 0u64;
        let ops = gen.usize_in(1, 200);
        for _ in 0..ops {
            if gen.f64_in(0.0, 1.0) < 0.5 {
                budget.deposit();
            } else {
                let before = budget.balance_mtokens();
                if budget.try_withdraw() {
                    granted += 1;
                } else {
                    // A denial is only legal when the bucket genuinely
                    // cannot cover one retry, and it must not move state.
                    assert!(before < RETRY_COST_MTOKENS, "denied with {before} banked");
                    assert_eq!(budget.balance_mtokens(), before);
                }
            }
            // The balance is unsigned by construction; the sharp edge is
            // that it never exceeds the burst capacity either.
            assert!(
                budget.balance_mtokens() <= spec.burst_mtokens,
                "balance {} above burst {}",
                budget.balance_mtokens(),
                spec.burst_mtokens
            );
            // Exact integer conservation at every step.
            assert_eq!(
                budget.initial_mtokens() + budget.deposited_mtokens(),
                budget.balance_mtokens() + budget.withdrawn_mtokens() + budget.dropped_mtokens(),
                "milli-tokens leaked"
            );
        }
        assert_eq!(budget.withdrawn_mtokens(), granted * RETRY_COST_MTOKENS);
    });
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RefState {
    Closed,
    Open(SimTime),
    HalfOpen,
}

/// The breaker state machine with no watermark: every poll scans every
/// slot.
struct ReferenceBank {
    states: Vec<RefState>,
    failures: Vec<u32>,
}

impl ReferenceBank {
    fn new(n: usize) -> Self {
        ReferenceBank {
            states: vec![RefState::Closed; n],
            failures: vec![0; n],
        }
    }

    fn open(&mut self, idx: usize, until: SimTime) -> bool {
        if matches!(self.states[idx], RefState::Open(_)) {
            return false;
        }
        self.states[idx] = RefState::Open(until);
        true
    }

    fn open_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, RefState::Open(_)))
            .count()
    }
}

#[derive(Debug, Clone, Copy)]
enum BreakerOp {
    Trip(usize),
    Failure(usize),
    Success(usize),
    Reset(usize),
    Poll,
}

/// Applies `op` at `now` to both banks and checks that they agree on the
/// op's result, the reopened servers, the open count and every server's
/// `is_open`.
fn apply(
    bank: &mut BreakerBank,
    reference: &mut ReferenceBank,
    op: BreakerOp,
    now: SimTime,
    policy: &BreakerPolicy,
) {
    let until = now + SimDuration::from_secs_f64(policy.open_s);
    match op {
        BreakerOp::Trip(i) => {
            reference.failures[i] = 0;
            let want = reference.open(i, until);
            assert_eq!(bank.trip(ServerId(i as u32), now, policy), want);
        }
        BreakerOp::Failure(i) => {
            let want = match reference.states[i] {
                RefState::Closed => {
                    reference.failures[i] += 1;
                    reference.failures[i] >= policy.failure_threshold && {
                        reference.failures[i] = 0;
                        reference.open(i, until)
                    }
                }
                RefState::HalfOpen => reference.open(i, until),
                RefState::Open(_) => false,
            };
            let got = bank.record_failure(ServerId(i as u32), now, policy);
            assert_eq!(got, want, "failure on {i} at {now:?}");
        }
        BreakerOp::Success(i) => {
            if reference.states[i] == RefState::HalfOpen {
                reference.states[i] = RefState::Closed;
            }
            reference.failures[i] = 0;
            bank.record_success(ServerId(i as u32));
        }
        BreakerOp::Reset(i) => {
            let want = matches!(reference.states[i], RefState::Open(_));
            reference.states[i] = RefState::Closed;
            reference.failures[i] = 0;
            assert_eq!(bank.reset(ServerId(i as u32)), want, "reset {i} at {now:?}");
        }
        BreakerOp::Poll => {
            let mut want = Vec::new();
            for (i, state) in reference.states.iter_mut().enumerate() {
                if let RefState::Open(until) = *state {
                    if now >= until {
                        *state = RefState::HalfOpen;
                        want.push(ServerId(i as u32));
                    }
                }
            }
            let mut got = Vec::new();
            bank.poll_expired(now, &mut got);
            assert_eq!(got, want, "reopened at {now:?}");
        }
    }
    assert_eq!(
        bank.open_count(),
        reference.open_count(),
        "{op:?} at {now:?}"
    );
    for (i, state) in reference.states.iter().enumerate() {
        assert_eq!(
            bank.is_open(ServerId(i as u32)),
            matches!(state, RefState::Open(_)),
            "server {i} after {op:?} at {now:?}"
        );
    }
}

#[test]
fn breaker_expiry_matches_a_full_scan_on_every_poll() {
    check("breaker_expiry_vs_scan", |gen| {
        let n = gen.usize_in(1, 12);
        // Whole-second windows and clock steps, so several windows often
        // end at one instant and polls land exactly on an expiry.
        let policy = BreakerPolicy {
            failure_threshold: gen.u64_in(1, 4) as u32,
            open_s: gen.u64_in(1, 6) as f64,
        };
        let mut bank = BreakerBank::new(n);
        let mut reference = ReferenceBank::new(n);
        let mut now = SimTime::ZERO;
        for _ in 0..gen.usize_in(1, 300) {
            now += SimDuration::from_secs(gen.u64_in(0, 3));
            let server = gen.usize_in(0, n);
            let op = match gen.usize_in(0, 10) {
                0 | 1 => BreakerOp::Trip(server),
                2 | 3 => BreakerOp::Failure(server),
                4 => BreakerOp::Success(server),
                5 => BreakerOp::Reset(server),
                _ => BreakerOp::Poll,
            };
            apply(&mut bank, &mut reference, op, now, &policy);
        }
    });
}

#[test]
fn breaker_expiry_survives_a_reset_and_windows_ending_together() {
    let policy = BreakerPolicy {
        failure_threshold: 1,
        open_s: 10.0,
    };
    let mut bank = BreakerBank::new(4);
    let mut reference = ReferenceBank::new(4);
    let script = [
        // Server 0 opens until 10 s and a rejoin resets it, which leaves
        // the watermark at 10 s.
        (0, BreakerOp::Trip(0)),
        (1, BreakerOp::Reset(0)),
        // Servers 1 and 2 open until 12 s; server 0 trips again, until
        // 13 s. The watermark stays at 10 s, below every open window.
        (2, BreakerOp::Trip(1)),
        (2, BreakerOp::Failure(2)),
        (3, BreakerOp::Trip(0)),
        // The stale watermark costs one empty scan at 10 s.
        (10, BreakerOp::Poll),
        (11, BreakerOp::Poll),
        // Two windows end together and reopen in id order.
        (12, BreakerOp::Poll),
        (12, BreakerOp::Poll),
        (13, BreakerOp::Poll),
        (13, BreakerOp::Poll),
    ];
    for (secs, op) in script {
        apply(
            &mut bank,
            &mut reference,
            op,
            SimTime::from_secs(secs),
            &policy,
        );
    }
    assert_eq!(bank.open_count(), 0);
}
