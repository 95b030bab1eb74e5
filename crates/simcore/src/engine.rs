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
/// to [`NoTrace`], so an untraced handler writes `Scheduler<'_, E>` and
/// its counter calls compile to nothing.
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
    /// past: debug builds panic, release builds clamp it to the current
    /// instant.
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

/// A discrete-event simulation engine over event payload type `E`.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    event_budget: u64,
    events_processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with a very large event budget.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
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
    ///
    /// `at` must not be before [`Engine::now`], the last dispatched
    /// instant: debug builds panic, release builds clamp it to `now`, so
    /// the clock never runs backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at, event);
    }

    /// Runs the loop until drained, budget, or handler stop.
    ///
    /// The handler receives each event together with a [`Scheduler`] for
    /// follow-up scheduling and a `&mut S` simulation state. This is
    /// [`Engine::run_with`] with no tracer and no wire delay.
    pub fn run<S>(
        &mut self,
        state: &mut S,
        handler: impl FnMut(&mut S, &mut Scheduler<'_, E>, E) -> Control,
    ) -> RunOutcome {
        self.run_with(state, &mut NoTrace, |_, _| SimDuration::ZERO, handler)
    }

    /// [`Engine::run`] with both seams explicit.
    ///
    /// * `tracer` sees `engine_started` / `engine_finished` events, an
    ///   `engine` span and per-dispatch counters; with [`NoTrace`] this
    ///   monomorphizes back to the plain loop.
    /// * `delay` runs before each event reaches the handler and returns
    ///   how much longer the event stays on the simulated wire. Zero
    ///   delivers it now; a longer delay requeues it at `now + d` (a slow
    ///   link) and becomes an `event_delayed` trace event, so fault delays
    ///   are visible without the fault layer knowing about the tracer. A
    ///   delay that is always zero leaves the clock, the event order and
    ///   the `events_processed` count exactly as in [`Engine::run`], and a
    ///   zero delay never requeues, so it cannot live-lock the loop.
    pub fn run_with<S, T: Tracer>(
        &mut self,
        state: &mut S,
        tracer: &mut T,
        mut delay: impl FnMut(&mut S, &E) -> SimDuration,
        mut handler: impl FnMut(&mut S, &mut Scheduler<'_, E, T>, E) -> Control,
    ) -> RunOutcome {
        tracer.span_enter(self.now.ticks(), SpanKind::Engine);
        tracer.event(self.now.ticks(), TraceEventKind::EngineStarted);
        let outcome = loop {
            if self.queue.is_empty() {
                break RunOutcome::Drained;
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
            // The queue is not empty, so this pops; drain gracefully
            // rather than panic all the same.
            let Some((at, event)) = self.queue.pop() else {
                break RunOutcome::Drained;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            tracer.counter("engine.dispatched", 1);
            let d = delay(state, &event);
            if !d.is_zero() {
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
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        let outcome = engine.run(&mut count, |count, s, _ev| {
            *count += 1;
            if *count <= 10 {
                s.schedule_in(SimDuration::from_secs(1), Ev::Tick(*count));
            }
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        // Events at t = 0..=10 inclusive fire; the last schedules nothing.
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
    fn a_drained_queue_wins_over_a_spent_budget() {
        let mut engine = Engine::new().with_event_budget(3);
        for i in 0..3 {
            engine.schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let outcome = engine.run(&mut (), |_, _, _| Control::Continue);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(engine.events_processed(), 3);
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
            |st, ev| {
                if matches!(ev, Ev::Tick(1)) && !st.delayed_once {
                    st.delayed_once = true;
                    return SimDuration::from_secs(3);
                }
                SimDuration::ZERO
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
            |_, _| SimDuration::ZERO,
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_before_now_panics_in_debug_builds() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        engine.run(&mut (), |_, _, _| Control::Continue);
        engine.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
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
            |_, _| SimDuration::ZERO,
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
            |_, ev| match ev {
                Ev::Tick(2) if !delayed_once => {
                    delayed_once = true;
                    SimDuration::from_secs(5)
                }
                _ => SimDuration::ZERO,
            },
            |seen: &mut Vec<u32>, _s, ev| {
                if let Ev::Tick(i) = ev {
                    seen.push(i);
                }
                Control::Continue
            },
        );
        assert_eq!(seen, vec![0, 1, 3, 2], "tick 2 requeued past tick 3");
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
            |_, _| SimDuration::ZERO,
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
