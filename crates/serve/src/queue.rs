//! Per-instance FIFO queueing model.
//!
//! Each server instance serves requests one at a time in arrival order:
//! the model is a single `busy_until` horizon per server. A request
//! enqueued at `now` starts at `max(now, busy_until)` and completes
//! after its (effective) service time; the gap between arrival and
//! start is its queueing delay. Everything is integer tick arithmetic —
//! no float accumulation order to worry about, and latencies come out
//! as exact tick differences.

use std::fmt;

use ecolb_cluster::server::ServerId;
use ecolb_simcore::time::{SimDuration, SimTime};

/// FIFO queue horizons, one per server (indexed by server id).
///
/// Between two stamp bumps every horizon only rises:
/// [`enqueue`](QueueModel::enqueue) never lowers one, and the only operations
/// that can — [`reset`](QueueModel::reset), or handing a picker a
/// different model (`new`, `clone`) — draw a fresh stamp. Pickers rely
/// on that to keep cached horizons as lower bounds.
pub struct QueueModel {
    busy_until: Vec<SimTime>,
    stamp: u64,
}

impl Clone for QueueModel {
    /// A copy with its own stamp: the two models diverge from here on.
    fn clone(&self) -> Self {
        QueueModel {
            busy_until: self.busy_until.clone(),
            stamp: crate::next_stamp(),
        }
    }
}

/// Equality of the horizons; the stamp is an identity, not state.
impl PartialEq for QueueModel {
    fn eq(&self, other: &Self) -> bool {
        self.busy_until == other.busy_until
    }
}

impl fmt::Debug for QueueModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueModel")
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

impl QueueModel {
    /// A model for `n` servers, all idle.
    pub fn new(n: usize) -> Self {
        QueueModel {
            busy_until: vec![SimTime::ZERO; n],
            stamp: crate::next_stamp(),
        }
    }

    /// Number of modelled servers.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// True for a zero-server model.
    pub fn is_empty(&self) -> bool {
        self.busy_until.is_empty()
    }

    /// Outstanding work on `server` beyond `now` (zero when idle).
    pub fn backlog(&self, now: SimTime, server: ServerId) -> SimDuration {
        match self.busy_until.get(server.index()) {
            Some(&b) => b.saturating_sub(now),
            None => SimDuration::ZERO,
        }
    }

    /// Enqueues a request of the given service time on `server` at
    /// `now`; returns `(start, completion)`. The queue grows by exactly
    /// the service time — FIFO, no preemption.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        server: ServerId,
        service: SimDuration,
    ) -> (SimTime, SimTime) {
        let idx = server.index();
        let start = if self.busy_until[idx] > now {
            self.busy_until[idx]
        } else {
            now
        };
        let completion = start + service;
        self.busy_until[idx] = completion;
        (start, completion)
    }

    /// Clears `server`'s queue horizon — a crash destroys its backlog,
    /// and without the reset a recovered server would appear to still
    /// owe the work its dead queue never performed.
    pub fn reset(&mut self, server: ServerId) {
        if let Some(slot) = self.busy_until.get_mut(server.index()) {
            *slot = SimTime::ZERO;
        }
        self.stamp = crate::next_stamp();
    }

    /// A read-only view bound to an instant, handed to pickers.
    pub fn view(&self, now: SimTime) -> QueueView<'_> {
        QueueView { model: self, now }
    }
}

/// A picker's read-only window onto the queue state at one instant.
#[derive(Debug, Clone, Copy)]
pub struct QueueView<'a> {
    model: &'a QueueModel,
    now: SimTime,
}

impl QueueView<'_> {
    /// Outstanding work on `server`, seconds.
    pub fn backlog_s(&self, server: ServerId) -> f64 {
        self.model.backlog(self.now, server).as_secs_f64()
    }

    /// Outstanding work on `server`, integer ticks — the exact quantity
    /// for tie-free comparisons.
    pub fn backlog_ticks(&self, server: ServerId) -> u64 {
        self.model.backlog(self.now, server).ticks()
    }

    /// The instant `server`'s queue drains, integer ticks (zero when it
    /// never queued or is out of range).
    pub fn busy_until_ticks(&self, server: ServerId) -> u64 {
        self.model
            .busy_until
            .get(server.index())
            .map_or(0, |b| b.ticks())
    }

    /// The model's current stamp (see [`QueueModel`]).
    pub(crate) fn stamp(&self) -> u64 {
        self.model.stamp
    }

    /// The instant this view is bound to.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut q = QueueModel::new(2);
        let now = SimTime::from_secs(10);
        let (start, done) = q.enqueue(now, ServerId(0), SimDuration::from_secs(2));
        assert_eq!(start, now);
        assert_eq!(done, SimTime::from_secs(12));
        assert_eq!(q.backlog(now, ServerId(0)), SimDuration::from_secs(2));
        assert_eq!(q.backlog(now, ServerId(1)), SimDuration::ZERO);
    }

    #[test]
    fn fifo_queues_back_to_back() {
        let mut q = QueueModel::new(1);
        let now = SimTime::from_secs(0);
        q.enqueue(now, ServerId(0), SimDuration::from_secs(3));
        let (start, done) = q.enqueue(now, ServerId(0), SimDuration::from_secs(1));
        assert_eq!(start, SimTime::from_secs(3));
        assert_eq!(done, SimTime::from_secs(4));
    }

    #[test]
    fn backlog_drains_with_time() {
        let mut q = QueueModel::new(1);
        q.enqueue(SimTime::ZERO, ServerId(0), SimDuration::from_secs(5));
        assert_eq!(
            q.backlog(SimTime::from_secs(3), ServerId(0)),
            SimDuration::from_secs(2)
        );
        assert_eq!(
            q.backlog(SimTime::from_secs(9), ServerId(0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn view_reports_seconds_and_ticks() {
        let mut q = QueueModel::new(1);
        q.enqueue(SimTime::ZERO, ServerId(0), SimDuration::from_millis(1500));
        let v = q.view(SimTime::ZERO);
        assert!((v.backlog_s(ServerId(0)) - 1.5).abs() < 1e-12);
        assert_eq!(v.backlog_ticks(ServerId(0)), 1_500_000);
    }

    #[test]
    fn reset_clears_the_backlog() {
        let mut q = QueueModel::new(2);
        q.enqueue(SimTime::ZERO, ServerId(0), SimDuration::from_secs(5));
        q.reset(ServerId(0));
        q.reset(ServerId(9)); // out of range is a no-op
        assert_eq!(q.backlog(SimTime::ZERO, ServerId(0)), SimDuration::ZERO);
    }

    #[test]
    fn out_of_range_server_reads_as_idle() {
        let q = QueueModel::new(1);
        assert_eq!(q.backlog(SimTime::ZERO, ServerId(7)), SimDuration::ZERO);
    }
}
