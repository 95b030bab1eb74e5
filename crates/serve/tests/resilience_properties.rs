//! `proptest_lite` properties for the resilience primitives (ISSUE 10
//! satellite):
//!
//! 1. backoff schedules are monotone non-decreasing, never exceed the
//!    (jittered) cap, and are byte-deterministic in
//!    `(seed, request, policy)`;
//! 2. the retry-budget token bucket never goes negative and conserves
//!    milli-tokens exactly.

use ecolb_serve::resilience::{
    BackoffSchedule, RetryBudget, RetryBudgetSpec, RetryPolicy, RETRY_COST_MTOKENS,
};
use ecolb_simcore::proptest_lite::{check, Gen};
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
