//! Dynamic capacity-management policies (paper §3).
//!
//! The paper surveys the policy space for deciding *when to switch servers
//! to a sleep state*: the **reactive** policy, **reactive with extra
//! capacity**, the conservative **AutoScale** policy of Gandhi et al. \[9\],
//! two **predictive** policies (moving-window average and linear
//! regression, [7, 24]), and the notion of an **optimal** policy that
//! causes no SLA violations while keeping servers in their optimal regime.
//! All of them are implemented here against a common [`CapacityPolicy`]
//! interface and evaluated by [`crate::farm`].

use ecolb_workload::slo::Sla;

/// What a policy sees at each decision step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyInput<'a> {
    /// Arrival rate observed during the step that just ended, requests/s.
    pub observed_rate: f64,
    /// Servers currently active (serving).
    pub active: u64,
    /// Servers currently in setup (will become active later).
    pub in_setup: u64,
    /// Oracle lookahead: true future rates starting at the *next* step.
    /// Only [`Optimal`] reads this; real policies must ignore it.
    pub future_rates: &'a [f64],
}

/// A capacity-management policy: maps observations to a desired number of
/// active servers.
pub trait CapacityPolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// Desired number of active servers for the next step.
    fn desired_servers(&mut self, input: &PolicyInput<'_>) -> u64;
}

/// Sizing helper shared by all policies: servers needed for `rate` under
/// the SLA, given per-server capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Requests/second one server completes at full utilization.
    pub per_server_rate: f64,
    /// The SLA defining the usable-utilization knee.
    pub sla: Sla,
}

impl Sizing {
    /// Creates the sizing model.
    pub fn new(per_server_rate: f64, sla: Sla) -> Self {
        assert!(per_server_rate > 0.0, "per-server rate must be positive");
        Sizing {
            per_server_rate,
            sla,
        }
    }

    /// Servers needed to serve `rate` within the SLA (at least 1 for any
    /// positive rate).
    pub fn servers_for(&self, rate: f64) -> u64 {
        self.sla
            .servers_needed(rate.max(0.0), self.per_server_rate)
            .max(1)
    }
}

/// Baseline: every server always on (the wasteful policy the paper
/// criticises — zero violations, maximal energy).
#[derive(Debug, Clone, Copy)]
pub struct AlwaysOn {
    /// Total fleet size.
    pub n_total: u64,
}

impl CapacityPolicy for AlwaysOn {
    fn name(&self) -> &'static str {
        "always-on"
    }

    fn desired_servers(&mut self, _input: &PolicyInput<'_>) -> u64 {
        self.n_total
    }
}

/// The reactive policy \[22\]: size exactly for the load just observed.
/// "Generally, this policy leads to SLA violations and could work only for
/// slowly-varying and predictable loads" (§3).
#[derive(Debug, Clone, Copy)]
pub struct Reactive {
    /// Sizing model.
    pub sizing: Sizing,
}

impl CapacityPolicy for Reactive {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn desired_servers(&mut self, input: &PolicyInput<'_>) -> u64 {
        self.sizing.servers_for(input.observed_rate)
    }
}

/// Reactive with extra capacity: keep a safety margin (the paper's example
/// is 20 %) above the reactive size.
#[derive(Debug, Clone, Copy)]
pub struct ReactiveExtraCapacity {
    /// Sizing model.
    pub sizing: Sizing,
    /// Fractional safety margin, e.g. `0.2`.
    pub margin: f64,
}

impl CapacityPolicy for ReactiveExtraCapacity {
    fn name(&self) -> &'static str {
        "reactive+margin"
    }

    fn desired_servers(&mut self, input: &PolicyInput<'_>) -> u64 {
        let base = self.sizing.servers_for(input.observed_rate);
        (base as f64 * (1.0 + self.margin)).ceil() as u64
    }
}

/// AutoScale \[9\]: reactive scale-up, but *very conservative* scale-down —
/// a server is released only after the demand has been below the current
/// capacity for `hold_steps` consecutive steps. "This can be advantageous
/// for unpredictable, spiky loads" (§3).
#[derive(Debug, Clone)]
pub struct AutoScale {
    /// Sizing model.
    pub sizing: Sizing,
    /// Steps demand must stay below capacity before scaling down.
    pub hold_steps: u64,
    below_for: u64,
}

impl AutoScale {
    /// Creates the policy.
    pub fn new(sizing: Sizing, hold_steps: u64) -> Self {
        AutoScale {
            sizing,
            hold_steps,
            below_for: 0,
        }
    }
}

impl CapacityPolicy for AutoScale {
    fn name(&self) -> &'static str {
        "autoscale"
    }

    fn desired_servers(&mut self, input: &PolicyInput<'_>) -> u64 {
        let needed = self.sizing.servers_for(input.observed_rate);
        let current = input.active + input.in_setup;
        if needed >= current {
            self.below_for = 0;
            needed
        } else {
            self.below_for += 1;
            if self.below_for >= self.hold_steps {
                // Release one server at a time — AutoScale's cautious
                // index-based scale-down.
                self.below_for = 0;
                current.saturating_sub(1).max(needed)
            } else {
                current
            }
        }
    }
}

/// Moving-window-average predictive policy [7, 24]: "one estimates the
/// workload by measuring the average request rate in a window of size Δ
/// seconds and uses this average to predict the load during the next
/// second" (§3).
#[derive(Debug, Clone)]
pub struct MovingWindow {
    /// Sizing model.
    pub sizing: Sizing,
    /// Window length Δ in steps.
    pub window: usize,
    history: Vec<f64>,
}

impl MovingWindow {
    /// Creates the policy; panics for an empty window.
    pub fn new(sizing: Sizing, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MovingWindow {
            sizing,
            window,
            history: Vec::new(),
        }
    }

    fn predict(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let tail = &self.history[self.history.len().saturating_sub(self.window)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

impl CapacityPolicy for MovingWindow {
    fn name(&self) -> &'static str {
        "moving-window"
    }

    fn desired_servers(&mut self, input: &PolicyInput<'_>) -> u64 {
        self.history.push(input.observed_rate);
        self.sizing.servers_for(self.predict())
    }
}

/// Linear-regression predictive policy: least-squares fit over the last
/// `window` observations, extrapolated one step ahead (§3's "predictive
/// linear regression policy").
#[derive(Debug, Clone)]
pub struct LinearRegression {
    /// Sizing model.
    pub sizing: Sizing,
    /// Fit window in steps.
    pub window: usize,
    history: Vec<f64>,
}

impl LinearRegression {
    /// Creates the policy; the window needs at least two points to fit.
    pub fn new(sizing: Sizing, window: usize) -> Self {
        assert!(window >= 2, "regression needs a window of at least 2");
        LinearRegression {
            sizing,
            window,
            history: Vec::new(),
        }
    }

    fn predict(&self) -> f64 {
        let n = self.history.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.history[n.saturating_sub(self.window)..];
        let m = tail.len();
        if m == 1 {
            return tail[0];
        }
        // x = 0..m-1; predict at x = m.
        let mean_x = (m - 1) as f64 / 2.0;
        let mean_y = tail.iter().sum::<f64>() / m as f64;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, &y) in tail.iter().enumerate() {
            let dx = i as f64 - mean_x;
            sxy += dx * (y - mean_y);
            sxx += dx * dx;
        }
        let slope = sxy / sxx;
        (mean_y + slope * (m as f64 - mean_x)).max(0.0)
    }
}

impl CapacityPolicy for LinearRegression {
    fn name(&self) -> &'static str {
        "linear-regression"
    }

    fn desired_servers(&mut self, input: &PolicyInput<'_>) -> u64 {
        self.history.push(input.observed_rate);
        self.sizing.servers_for(self.predict())
    }
}

/// The optimal (oracle) policy of §3: it knows the future. It sizes for
/// the true rate far enough ahead to cover server setup time, so capacity
/// is always ready exactly when needed — no violations, minimal energy.
#[derive(Debug, Clone, Copy)]
pub struct Optimal {
    /// Sizing model.
    pub sizing: Sizing,
    /// Server setup latency in steps — the oracle pre-warms this far
    /// ahead.
    pub setup_steps: usize,
    /// Fractional rate margin absorbing arrival (Poisson) noise around the
    /// true rate; the oracle knows the rate, not the sample path.
    pub noise_margin: f64,
}

impl CapacityPolicy for Optimal {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn desired_servers(&mut self, input: &PolicyInput<'_>) -> u64 {
        // Peak true demand over the horizon a setup decision influences.
        let horizon = &input.future_rates[..input.future_rates.len().min(self.setup_steps + 1)];
        let peak = horizon.iter().copied().fold(input.observed_rate, f64::max);
        self.sizing.servers_for(peak * (1.0 + self.noise_margin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizing() -> Sizing {
        // 100 req/s per server, SLA knee at u = 0.8 → 80 usable req/s.
        Sizing::new(100.0, Sla::interactive())
    }

    fn input(rate: f64, active: u64) -> PolicyInput<'static> {
        PolicyInput {
            observed_rate: rate,
            active,
            in_setup: 0,
            future_rates: &[],
        }
    }

    #[test]
    fn sizing_matches_sla_knee() {
        let s = sizing();
        assert_eq!(s.servers_for(80.0), 1);
        assert_eq!(s.servers_for(81.0), 2);
        assert_eq!(s.servers_for(0.0), 1, "floor of one server");
        assert_eq!(s.servers_for(-5.0), 1, "negative rates clamp");
    }

    #[test]
    fn always_on_ignores_load() {
        let mut p = AlwaysOn { n_total: 50 };
        assert_eq!(p.desired_servers(&input(0.0, 50)), 50);
        assert_eq!(p.desired_servers(&input(1e6, 50)), 50);
    }

    #[test]
    fn reactive_tracks_observed() {
        let mut p = Reactive { sizing: sizing() };
        assert_eq!(p.desired_servers(&input(160.0, 1)), 2);
        assert_eq!(p.desired_servers(&input(800.0, 2)), 10);
        assert_eq!(p.desired_servers(&input(10.0, 10)), 1);
    }

    #[test]
    fn margin_adds_fraction() {
        let mut p = ReactiveExtraCapacity {
            sizing: sizing(),
            margin: 0.2,
        };
        // reactive would say 10; +20 % → 12.
        assert_eq!(p.desired_servers(&input(800.0, 10)), 12);
    }

    #[test]
    fn autoscale_scales_up_immediately() {
        let mut p = AutoScale::new(sizing(), 5);
        assert_eq!(p.desired_servers(&input(800.0, 2)), 10);
    }

    #[test]
    fn autoscale_releases_slowly() {
        let mut p = AutoScale::new(sizing(), 3);
        // Demand drops to 1-server level while 10 are active.
        for _ in 0..2 {
            assert_eq!(p.desired_servers(&input(10.0, 10)), 10, "holding");
        }
        assert_eq!(
            p.desired_servers(&input(10.0, 10)),
            9,
            "released one after hold"
        );
        // Counter reset: holds again.
        assert_eq!(p.desired_servers(&input(10.0, 9)), 9);
    }

    #[test]
    fn autoscale_spike_resets_hold() {
        let mut p = AutoScale::new(sizing(), 3);
        p.desired_servers(&input(10.0, 10));
        p.desired_servers(&input(10.0, 10));
        // Spike: counter resets.
        assert_eq!(p.desired_servers(&input(900.0, 10)), 12);
        assert_eq!(p.desired_servers(&input(10.0, 12)), 12, "hold restarts");
    }

    #[test]
    fn moving_window_averages_history() {
        let mut p = MovingWindow::new(sizing(), 3);
        p.desired_servers(&input(100.0, 1));
        p.desired_servers(&input(200.0, 1));
        // Window now [100, 200, 300] → mean 200 → 3 servers.
        assert_eq!(p.desired_servers(&input(300.0, 1)), 3);
        // Window slides: [200, 300, 400] → mean 300 → 4 servers.
        assert_eq!(p.desired_servers(&input(400.0, 1)), 4);
    }

    #[test]
    fn regression_extrapolates_trend() {
        let mut p = LinearRegression::new(sizing(), 4);
        for r in [100.0, 200.0, 300.0] {
            p.desired_servers(&input(r, 1));
        }
        // Perfect linear trend predicts 400 next → 5 servers; the moving
        // average would only say 250 → 4. Regression leads the ramp.
        assert_eq!(
            p.desired_servers(&input(400.0, 1)),
            7,
            "predicts 500 for next step"
        );
    }

    #[test]
    fn regression_clamps_negative_predictions() {
        let mut p = LinearRegression::new(sizing(), 3);
        for r in [300.0, 150.0] {
            p.desired_servers(&input(r, 1));
        }
        // Steep downward trend would predict below zero; clamps to ≥ 0 →
        // sizing floor of 1.
        assert_eq!(p.desired_servers(&input(0.0, 1)), 1);
    }

    #[test]
    fn optimal_uses_lookahead_peak() {
        let mut p = Optimal {
            sizing: sizing(),
            setup_steps: 2,
            noise_margin: 0.0,
        };
        let future = [100.0, 900.0, 50.0, 2000.0];
        let inp = PolicyInput {
            observed_rate: 10.0,
            active: 1,
            in_setup: 0,
            future_rates: &future,
        };
        // Horizon is setup_steps + 1 = 3 entries: peak 900 → 12 servers;
        // the 2000 beyond the horizon is ignored.
        assert_eq!(p.desired_servers(&inp), 12);
    }

    #[test]
    fn optimal_with_empty_future_falls_back_to_observed() {
        let mut p = Optimal {
            sizing: sizing(),
            setup_steps: 3,
            noise_margin: 0.0,
        };
        assert_eq!(p.desired_servers(&input(160.0, 1)), 2);
    }

    #[test]
    fn optimal_noise_margin_adds_servers() {
        let mut exact = Optimal {
            sizing: sizing(),
            setup_steps: 0,
            noise_margin: 0.0,
        };
        let mut padded = Optimal {
            sizing: sizing(),
            setup_steps: 0,
            noise_margin: 0.15,
        };
        assert_eq!(exact.desired_servers(&input(800.0, 1)), 10);
        assert_eq!(padded.desired_servers(&input(800.0, 1)), 12);
    }
}
