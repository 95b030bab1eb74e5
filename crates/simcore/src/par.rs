//! Deterministic data parallelism on plain `std::thread`.
//!
//! The experiment matrices are embarrassingly parallel, but the harness
//! must stay hermetic (no external crates) and bit-reproducible: the
//! result of a sweep may not depend on how many workers ran it. This
//! module provides a scoped, work-stealing-free pool: items are assigned
//! to workers by a fixed round-robin stripe of their *index*, each worker
//! returns `(index, result)` pairs, and the caller reassembles them in
//! input order. Because every item carries its own seed derived from its
//! index (not from a shared RNG), output is byte-identical at any thread
//! count.

use std::num::NonZeroUsize;

/// Number of workers to use by default: the machine's available
/// parallelism, or 1 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on `threads` scoped worker threads and returns
/// the results **in input order**, regardless of thread count or
/// scheduling. `f` receives the item's index alongside the item so
/// callers can derive per-item seeds.
///
/// Items are striped round-robin across workers (worker `w` takes items
/// `w`, `w + threads`, `w + 2·threads`, …) — no queue, no stealing — so
/// the assignment itself is deterministic too.
///
/// Panics in a worker are propagated to the caller.
pub fn map_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }

    // Deal items into per-worker stripes, remembering original indices.
    let mut stripes: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        stripes[i % threads].push((i, item));
    }

    let f = &f;
    let mut produced = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                scope.spawn(move || {
                    stripe
                        .into_iter()
                        .map(|(i, x)| (i, f(i, x)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                // Re-raise the worker's own panic payload instead of
                // replacing it with a second, less informative one.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect::<Vec<(usize, R)>>()
    });
    // Every index 0..n occurs exactly once across the stripes, so sorting
    // by index restores input order without per-slot occupancy checks.
    produced.sort_by_key(|&(i, _)| i);
    produced.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = map_indexed((0..100u64).collect(), 7, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let work = |i: usize, x: u64| x.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let one = map_indexed((0..37u64).collect(), 1, work);
        let four = map_indexed((0..37u64).collect(), 4, work);
        let many = map_indexed((0..37u64).collect(), 16, work);
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = map_indexed(Vec::new(), 4, |_, x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(map_indexed(vec![9u32], 4, |_, x| x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(map_indexed(vec![1u8, 2], 64, |_, x| x), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        map_indexed(vec![0u8, 1], 2, |_, x| {
            assert_ne!(x, 1, "boom");
            x
        });
    }
}
