//! The serve loop's handoff to one helper thread beside it.
//!
//! Two per-request results leave the engine loop's critical path here.
//! Completion latencies go out in batches, and the helper folds them
//! into the run's one [`LatencyRecorder`]. Service times come back
//! precomputed, one window of [`service_time_s`] draws for the next
//! request ids. Nothing reads either result before the report is built,
//! so neither can change a bit of it:
//!
//! * one FIFO channel and one consumer: the helper makes the loop's
//!   `record` calls in the loop's order, and P² depends on that order;
//! * `service_time_s` is a pure function of `(seed, request id, mean)`,
//!   so a draw made on the helper is the draw the loop would have made;
//! * the helper keeps receiving until the loop hangs up, so the last,
//!   partial batch is folded too.
//!
//! Two batches travel between the two threads over a pair of
//! `sync_channel(1)`s, and every buffer is allocated once, before the
//! helper starts. The loop trades its batch for the helper's when its
//! window runs out or its latency buffer fills; while the loop works
//! through one window, the helper folds the other batch and draws the
//! window after it.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use ecolb_metrics::latency::LatencyRecorder;
use ecolb_workload::requests::{service_time_s, RequestId};

/// Request ids per service window.
const WINDOW: usize = 1024;

/// Latencies a batch holds before the loop trades it early: twice a
/// window, so that completions outpacing admissions over one window
/// rarely cut the window short.
pub(crate) const LATENCIES: usize = 2 * WINDOW;

/// One of the two buffers that travel between the loop and the helper.
struct Batch {
    /// Completion latencies, seconds, in completion order.
    latencies: Vec<f64>,
    /// The first request id of `window`.
    start: u64,
    /// `service_time_s` of request ids `start..start + window.len()`.
    window: Vec<f64>,
}

impl Batch {
    fn new(start: u64) -> Self {
        Batch {
            latencies: Vec::with_capacity(LATENCIES),
            start,
            window: Vec::with_capacity(WINDOW),
        }
    }

    /// The window's draw for request `id`, if the window covers it.
    fn draw(&self, id: u64) -> Option<f64> {
        let offset = usize::try_from(id.checked_sub(self.start)?).ok()?;
        self.window.get(offset).copied()
    }
}

/// The loop's end of the handoff.
pub(crate) struct Handoff {
    batch: Batch,
    to_helper: SyncSender<Batch>,
    from_helper: Receiver<Batch>,
    seed: u64,
    mean_service_s: f64,
}

/// Runs `body` with the loop's end of a handoff while a helper thread
/// folds the latencies it records into `latency` and draws its service
/// times. Returns `body`'s result and the recorder, which holds every
/// latency `body` recorded, in order. A panic on the helper is re-raised
/// here.
pub(crate) fn beside<R>(
    seed: u64,
    mean_service_s: f64,
    latency: LatencyRecorder,
    body: impl FnOnce(&mut Handoff) -> R,
) -> (R, LatencyRecorder) {
    let (to_helper, inbox) = sync_channel(1);
    let (outbox, from_helper) = sync_channel(1);
    // The helper's first batch draws ids from 0. The loop's starts with
    // an empty window, so its first draw trades for the helper's. The
    // channel is empty and its receiver alive, so this send cannot fail.
    let _ = to_helper.send(Batch::new(0));
    std::thread::scope(|scope| {
        let helper =
            scope.spawn(move || fold_and_draw(inbox, outbox, latency, seed, mean_service_s));
        // A local of this closure: a panic in `body` drops the loop's
        // channel ends, so the helper stops before the scope joins it.
        let mut handoff = Handoff {
            batch: Batch::new(0),
            to_helper,
            from_helper,
            seed,
            mean_service_s,
        };
        let out = body(&mut handoff);
        handoff.finish();
        match helper.join() {
            Ok(latency) => (out, latency),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

impl Handoff {
    /// `service_time_s(seed, id, mean)`, read from the window when it
    /// covers `id`. An id past the window trades for the next window
    /// first; an id behind it (a retry) is drawn here.
    pub(crate) fn service_s(&mut self, id: RequestId) -> f64 {
        if let Some(s) = self.batch.draw(id.0) {
            return s;
        }
        if id.0 >= self.batch.start {
            self.trade(id.0.saturating_add(1));
            if let Some(s) = self.batch.draw(id.0) {
                return s;
            }
        }
        service_time_s(self.seed, id, self.mean_service_s)
    }

    /// Queues one completion's latency, seconds, for the helper to fold.
    pub(crate) fn record(&mut self, latency_s: f64) {
        self.batch.latencies.push(latency_s);
        if self.batch.latencies.len() == LATENCIES {
            self.trade(0);
        }
    }

    /// Trades the loop's batch for the helper's. The loop takes the
    /// helper's window; the helper folds the loop's latencies and draws
    /// the window after the one the loop took, or from `next_id` when
    /// that is later.
    fn trade(&mut self, next_id: u64) {
        let Ok(next) = self.from_helper.recv() else {
            // The helper is gone, and `beside` re-raises its panic; until
            // then the loop draws inline and keeps no latencies.
            self.batch.latencies.clear();
            return;
        };
        let start = next.start.saturating_add(WINDOW as u64).max(next_id);
        let done = std::mem::replace(&mut self.batch, next);
        // A failed send means the helper is gone, as above.
        let _ = self.to_helper.send(Batch { start, ..done });
    }

    /// Hands the last, partial batch to the helper and hangs up, which
    /// lets the helper fold it and return.
    fn finish(self) {
        // A failed send means the helper is gone; its join says why.
        let _ = self.to_helper.send(self.batch);
    }
}

/// The helper: folds each batch's latencies into `latency` in arrival
/// order, refills its window and hands it back. It runs until the loop
/// hangs up. A reply the loop no longer takes is dropped, never a reason
/// to stop, because the loop's last batch may still be in the inbox.
fn fold_and_draw(
    inbox: Receiver<Batch>,
    outbox: SyncSender<Batch>,
    mut latency: LatencyRecorder,
    seed: u64,
    mean_service_s: f64,
) -> LatencyRecorder {
    for mut batch in inbox {
        for &s in &batch.latencies {
            latency.record(s);
        }
        batch.latencies.clear();
        let ids = batch.start..batch.start.saturating_add(WINDOW as u64);
        batch.window.clear();
        batch
            .window
            .extend(ids.map(|id| service_time_s(seed, RequestId(id), mean_service_s)));
        let _ = outbox.send(batch);
    }
    latency
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 20140109;
    const MEAN: f64 = 0.05;

    fn fresh() -> LatencyRecorder {
        LatencyRecorder::new(8.0, 64)
    }

    fn want(id: u64) -> u64 {
        service_time_s(SEED, RequestId(id), MEAN).to_bits()
    }

    /// Every id returns `service_time_s`'s bits, wherever it falls
    /// relative to the window: in order across several windows, after
    /// skipped ids, behind the window (a retry) and far past it.
    #[test]
    fn the_service_window_returns_the_pure_draw() {
        let w = WINDOW as u64;
        let ids: Vec<u64> = (0..3 * w)
            .chain((3 * w..5 * w).step_by(7))
            .chain([5 * w + 3, 2, 5 * w + 4, 40 * w + 9, 40 * w + 10, 7, 41 * w])
            .chain((41 * w + 1..44 * w).step_by(3))
            .collect();
        let (got, latency) = beside(SEED, MEAN, fresh(), |h| {
            ids.iter()
                .map(|&id| h.service_s(RequestId(id)).to_bits())
                .collect::<Vec<u64>>()
        });
        let want: Vec<u64> = ids.iter().map(|&id| want(id)).collect();
        assert_eq!(got, want);
        assert_eq!(latency, fresh());
    }

    /// Latencies reach the recorder in the order they were queued, across
    /// full latency buffers, draws that trade windows, and a partial last
    /// batch. Ids advance five times slower than completions, so the
    /// latency buffer fills before the window runs out, and the window
    /// ids it skips are then drawn inline.
    #[test]
    fn latencies_fold_in_record_order() {
        let samples: Vec<f64> = (0..7 * LATENCIES + 17)
            .map(|i| service_time_s(SEED, RequestId(i as u64), MEAN))
            .collect();
        let ((), latency) = beside(SEED, MEAN, fresh(), |h| {
            for (i, &s) in samples.iter().enumerate() {
                h.record(s);
                let id = i as u64 / 5;
                assert_eq!(h.service_s(RequestId(id)).to_bits(), want(id));
            }
        });
        let mut oracle = fresh();
        for &s in &samples {
            oracle.record(s);
        }
        assert_eq!(latency, oracle);
    }

    #[test]
    fn a_panic_in_the_loop_stops_the_helper_and_propagates() {
        let caught = std::panic::catch_unwind(|| {
            beside(SEED, MEAN, fresh(), |h| {
                h.record(1.0);
                panic!("loop failed");
            })
        });
        let payload = caught.expect_err("the loop's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"loop failed"));
    }
}
