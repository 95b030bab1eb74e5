//! The simulation run-loop.
//!
//! [`Engine`] owns the clock and pending-event set and repeatedly pops the
//! earliest event, advances the clock, and hands the event to a user-supplied
//! handler. The handler can schedule further events through the
//! [`Scheduler`] view it receives, but it cannot touch the clock — time only
//! moves forward through the loop itself.
//!
//! The design is deliberately monomorphic over the event payload type `E`
//! (each simulation defines one event enum) rather than trait objects: event
//! dispatch is the hottest loop of the simulator and an enum match compiles
//! to a jump table, whereas boxed closures would allocate per event.

use ecolb_trace::{NoTrace, SpanKind, TraceEventKind, Tracer};

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// The scheduling interface handed to event handlers.
///
/// A thin wrapper over the queue that also knows the current instant, so
/// handlers schedule with relative delays. The tracer parameter defaults
/// to [`NoTrace`], so pre-trace `Scheduler<'_, E>` annotations keep
/// compiling and the untraced path monomorphizes to the original code.
pub struct Scheduler<'a, E, T: Tracer = NoTrace> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    tracer: &'a mut T,
}

impl<'a, E, T: Tracer> Scheduler<'a, E, T> {
    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's tracer, for handlers that emit domain events. A
    /// `&mut T` auto-coerces to `&mut dyn Tracer` at cold call sites.
    #[inline]
    pub fn tracer(&mut self) -> &mut T {
        self.tracer
    }

    /// Schedules `event` to fire `delay` after the current instant.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.tracer.counter("engine.scheduled", 1);
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant, which must not be in the
    /// past (panics in debug builds otherwise).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.tracer.counter("engine.scheduled", 1);
        self.queue.schedule(at, event);
    }

    /// Number of currently pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained before any limit was hit.
    Drained,
    /// The time horizon was reached.
    HorizonReached,
    /// The event-count budget was exhausted (runaway-schedule backstop).
    EventBudgetExhausted,
    /// A handler requested an early stop.
    Stopped,
}

impl RunOutcome {
    /// Stable snake_case label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Drained => "drained",
            RunOutcome::HorizonReached => "horizon",
            RunOutcome::EventBudgetExhausted => "budget",
            RunOutcome::Stopped => "stopped",
        }
    }
}

/// Flow-control decision returned by event handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    /// Keep running.
    #[default]
    Continue,
    /// Stop after this event; `Engine::run` returns [`RunOutcome::Stopped`].
    Stop,
}

/// An interceptor's verdict on an event about to be delivered — the
/// injection seam of [`Engine::run_with`]. Fault layers use it to
/// model lossy or slow links without the handler ever knowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Disposition {
    /// Hand the event to the handler normally.
    #[default]
    Deliver,
    /// Silently discard the event (it still counts as processed).
    Drop,
    /// Requeue the event this far in the future instead of delivering it
    /// now. A zero delay delivers immediately (no requeue), so an
    /// interceptor cannot live-lock the loop.
    Delay(SimDuration),
}

/// A discrete-event simulation engine over event payload type `E`.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    horizon: SimTime,
    event_budget: u64,
    events_processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with no horizon and a very large event budget.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            horizon: SimTime::MAX,
            event_budget: u64::MAX,
            events_processed: 0,
        }
    }

    /// [`Engine::new`] with the event queue pre-sized for `capacity`
    /// pending events. With enough headroom for the simulation's peak
    /// event population, the dispatch loop performs no heap allocation at
    /// all: popping, handling, and rescheduling reuse the queue's storage.
    pub fn with_capacity(capacity: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Sets the time horizon: events strictly after `horizon` are not
    /// processed (they stay pending).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets a hard cap on the number of processed events.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules an initial event before the run starts (or between runs).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    /// Runs the loop until drained, horizon, budget, or handler stop.
    ///
    /// The handler receives each event together with a [`Scheduler`] for
    /// follow-up scheduling and a `&mut S` simulation state. This is
    /// [`Engine::run_with`] with no tracer and no interceptor.
    pub fn run<S>(
        &mut self,
        state: &mut S,
        handler: impl FnMut(&mut S, &mut Scheduler<'_, E>, E) -> Control,
    ) -> RunOutcome {
        self.run_with(state, &mut NoTrace, |_, _, _| Disposition::Deliver, handler)
    }

    /// [`Engine::run`] with both seams explicit.
    ///
    /// * `tracer` sees `engine_started` / `engine_finished` events, an
    ///   `engine` span and per-dispatch counters; with [`NoTrace`] this
    ///   monomorphizes back to the plain loop.
    /// * `intercept` runs before each event reaches the handler and may
    ///   [`Disposition::Drop`] it (lossy link) or [`Disposition::Delay`]
    ///   it (slow link, requeued at `now + d`). Its verdicts become
    ///   `event_dropped` / `event_delayed` trace events, so fault
    ///   dispositions are visible without the fault layer knowing about
    ///   the tracer. An interceptor that always answers
    ///   [`Disposition::Deliver`] leaves the clock, the event order and
    ///   the `events_processed` count exactly as in [`Engine::run`].
    pub fn run_with<S, T: Tracer>(
        &mut self,
        state: &mut S,
        tracer: &mut T,
        mut intercept: impl FnMut(&mut S, SimTime, &E) -> Disposition,
        mut handler: impl FnMut(&mut S, &mut Scheduler<'_, E, T>, E) -> Control,
    ) -> RunOutcome {
        tracer.span_enter(self.now.ticks(), SpanKind::Engine);
        tracer.event(self.now.ticks(), TraceEventKind::EngineStarted);
        let outcome = loop {
            match self.queue.peek_time() {
                None => break RunOutcome::Drained,
                Some(t) if t > self.horizon => break RunOutcome::HorizonReached,
                Some(_) => {}
            }
            if self.events_processed >= self.event_budget {
                break RunOutcome::EventBudgetExhausted;
            }
            // An invariant-checking tracer can stop the run as soon as a
            // violation is detected; the default `false` lets this poll
            // monomorphize away for `NoTrace`.
            if tracer.abort_requested() {
                break RunOutcome::Stopped;
            }
            // The peek above saw an event; a racing-free single-threaded
            // queue cannot lose it, but drain gracefully rather than panic.
            let Some((at, event)) = self.queue.pop() else {
                break RunOutcome::Drained;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            tracer.counter("engine.dispatched", 1);
            match intercept(state, self.now, &event) {
                Disposition::Deliver => {}
                Disposition::Drop => {
                    tracer.event(self.now.ticks(), TraceEventKind::EventDropped);
                    tracer.counter("engine.dropped", 1);
                    continue;
                }
                Disposition::Delay(d) if !d.is_zero() => {
                    tracer.event(
                        self.now.ticks(),
                        TraceEventKind::EventDelayed {
                            delay_us: d.ticks(),
                        },
                    );
                    tracer.counter("engine.delayed", 1);
                    self.queue.schedule(self.now + d, event);
                    continue;
                }
                Disposition::Delay(_) => {} // zero delay: deliver now
            }
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                tracer: &mut *tracer,
            };
            if handler(state, &mut sched, event) == Control::Stop {
                break RunOutcome::Stopped;
            }
        };
        tracer.event(
            self.now.ticks(),
            TraceEventKind::EngineFinished {
                outcome: outcome.label(),
                events: self.events_processed,
            },
        );
        tracer.span_exit(self.now.ticks(), SpanKind::Engine);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn drains_when_no_follow_ups() {
        let mut engine = Engine::new();
        for i in 0..5 {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut seen = Vec::new();
        let outcome = engine.run(&mut seen, |seen, _s, ev| {
            if let Ev::Tick(i) = ev {
                seen.push(i);
            }
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.events_processed(), 5);
    }

    #[test]
    fn self_scheduling_chain_advances_clock() {
        let mut engine = Engine::new().with_horizon(SimTime::from_secs(10));
        engine.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        let outcome = engine.run(&mut count, |count, s, _ev| {
            *count += 1;
            s.schedule_in(SimDuration::from_secs(1), Ev::Tick(*count));
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Events at t = 0..=10 inclusive fire; t = 11 exceeds the horizon.
        assert_eq!(count, 11);
        assert_eq!(engine.now(), SimTime::from_secs(10));
    }

    #[test]
    fn handler_stop_is_honoured() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        engine.schedule_at(SimTime::from_secs(2), Ev::Stop);
        engine.schedule_at(SimTime::from_secs(3), Ev::Tick(3));
        let mut seen = Vec::new();
        let outcome = engine.run(&mut seen, |seen, _s, ev| match ev {
            Ev::Stop => Control::Stop,
            Ev::Tick(i) => {
                seen.push(i);
                Control::Continue
            }
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn event_budget_backstops_runaway_schedules() {
        let mut engine = Engine::new().with_event_budget(100);
        engine.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let outcome = engine.run(&mut (), |_, s, _| {
            // Pathological: schedules two follow-ups per event.
            s.schedule_in(SimDuration::from_secs(1), Ev::Tick(0));
            s.schedule_in(SimDuration::from_secs(1), Ev::Tick(0));
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(engine.events_processed(), 100);
    }

    #[test]
    fn dropped_events_never_reach_the_handler() {
        let mut engine = Engine::new();
        for i in 0..6 {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut seen = Vec::new();
        let outcome = engine.run_with(
            &mut seen,
            &mut NoTrace,
            |_, _, ev| match ev {
                Ev::Tick(i) if i % 2 == 1 => Disposition::Drop,
                _ => Disposition::Deliver,
            },
            |seen, _s, ev| {
                if let Ev::Tick(i) = ev {
                    seen.push(i);
                }
                Control::Continue
            },
        );
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, vec![0, 2, 4], "odd ticks dropped on the link");
        assert_eq!(engine.events_processed(), 6, "drops still count");
    }

    #[test]
    fn delayed_events_arrive_later_in_order() {
        struct St {
            delayed_once: bool,
            order: Vec<(u32, u64)>,
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        engine.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        // Delay tick 1 by 3 s (once): it now lands after tick 2.
        let mut st = St {
            delayed_once: false,
            order: Vec::new(),
        };
        engine.run_with(
            &mut st,
            &mut NoTrace,
            |st, _, ev| {
                if matches!(ev, Ev::Tick(1)) && !st.delayed_once {
                    st.delayed_once = true;
                    return Disposition::Delay(SimDuration::from_secs(3));
                }
                Disposition::Deliver
            },
            |st, s, ev| {
                if let Ev::Tick(i) = ev {
                    st.order.push((i, s.now().ticks() / 1_000_000));
                }
                Control::Continue
            },
        );
        assert!(st.delayed_once);
        assert_eq!(st.order, vec![(2, 2), (1, 4)], "tick 1 requeued to t = 4 s");
    }

    #[test]
    fn zero_delay_delivers_immediately() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        let mut count = 0u32;
        let outcome = engine.run_with(
            &mut count,
            &mut NoTrace,
            |_, _, _| Disposition::Delay(SimDuration::ZERO),
            |count, _s, _ev| {
                *count += 1;
                Control::Continue
            },
        );
        assert_eq!(outcome, RunOutcome::Drained, "no live-lock on zero delay");
        assert_eq!(count, 1);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut engine = Engine::new();
        for i in [5u64, 1, 9, 3, 3, 7] {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut last = SimTime::ZERO;
        engine.run(&mut last, |last, s, _| {
            assert!(s.now() >= *last);
            *last = s.now();
            Control::Continue
        });
    }

    #[test]
    fn traced_run_brackets_with_engine_lifecycle_events() {
        use ecolb_trace::RingTracer;
        let mut engine = Engine::new();
        for i in 0..3 {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut tracer = RingTracer::new();
        let outcome = engine.run_with(
            &mut (),
            &mut tracer,
            |_, _, _| Disposition::Deliver,
            |_, s, _| {
                s.tracer().counter("test.handled", 1);
                Control::Continue
            },
        );
        assert_eq!(outcome, RunOutcome::Drained);
        let kinds: Vec<&'static str> = tracer.events().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "span_enter",
                "engine_started",
                "engine_finished",
                "span_exit"
            ]
        );
        assert_eq!(tracer.counter_value("engine.dispatched"), 3);
        assert_eq!(tracer.counter_value("test.handled"), 3);
        assert!(tracer.events().any(|e| e.kind
            == TraceEventKind::EngineFinished {
                outcome: "drained",
                events: 3
            }));
    }

    #[test]
    fn traced_interception_records_dispositions() {
        use ecolb_trace::RingTracer;
        let mut engine = Engine::new();
        for i in 0..4 {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut tracer = RingTracer::new();
        let mut seen = Vec::new();
        let mut delayed_once = false;
        engine.run_with(
            &mut seen,
            &mut tracer,
            |_, _, ev| match ev {
                Ev::Tick(1) => Disposition::Drop,
                Ev::Tick(2) if !delayed_once => {
                    delayed_once = true;
                    Disposition::Delay(SimDuration::from_secs(5))
                }
                _ => Disposition::Deliver,
            },
            |seen: &mut Vec<u32>, _s, ev| {
                if let Ev::Tick(i) = ev {
                    seen.push(i);
                }
                Control::Continue
            },
        );
        assert_eq!(seen, vec![0, 3, 2], "tick 2 requeued past tick 3");
        assert_eq!(tracer.counter_value("engine.dropped"), 1);
        assert_eq!(tracer.counter_value("engine.delayed"), 1);
        assert!(tracer.events().any(|e| e.kind
            == TraceEventKind::EventDelayed {
                delay_us: 5_000_000
            }));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        use ecolb_trace::RingTracer;
        let mk = || {
            let mut e = Engine::new();
            e.schedule_at(SimTime::ZERO, Ev::Tick(0));
            e
        };
        let mut plain = mk();
        let plain_outcome = plain.run(&mut 0u32, |n, s, _| {
            *n += 1;
            if *n < 10 {
                s.schedule_in(SimDuration::from_secs(1), Ev::Tick(*n));
            }
            Control::Continue
        });
        let mut traced = mk();
        let mut rt = RingTracer::new();
        let traced_outcome = traced.run_with(
            &mut 0u32,
            &mut rt,
            |_, _, _| Disposition::Deliver,
            |n, s, _| {
                *n += 1;
                if *n < 10 {
                    s.schedule_in(SimDuration::from_secs(1), Ev::Tick(*n));
                }
                Control::Continue
            },
        );
        assert_eq!(plain_outcome, traced_outcome);
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.events_processed(), traced.events_processed());
        assert_eq!(rt.counter_value("engine.scheduled"), 9);
    }

    #[test]
    fn scheduler_reports_pending() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Tick(0));
        engine.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        let mut pendings = Vec::new();
        engine.run(&mut pendings, |p, s, _| {
            p.push(s.pending());
            Control::Continue
        });
        assert_eq!(pendings, vec![1, 0]);
    }
}
