//! Worksharing loop schedules: how a `parallel for` distributes iterations.
//!
//! The paper's data-parallel OpenMP versions use worksharing with the
//! *static* schedule ("OpenMP static schedule is applied to all the three
//! models for data parallelism"); *dynamic* is provided for comparison (the
//! `omp_dyn` profile row), and the shared-counter transactions it costs are
//! the benchmark's per-layer `forkjoin.loop_claims` metric (static never
//! touches the counter). Static assignment is computed locally by each
//! thread with zero coordination — the reason the paper finds worksharing
//! cheaper than work stealing for uniform data parallelism.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A loop schedule, mirroring OpenMP's `schedule(...)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Iterations divided into contiguous blocks, one per thread
    /// (`schedule(static)`): the paper's default for all data-parallel
    /// comparisons.
    #[default]
    Static,
    /// Threads grab `chunk`-sized blocks from a shared counter
    /// (`schedule(dynamic, chunk)`).
    Dynamic {
        /// Block size grabbed per fetch; must be ≥ 1.
        chunk: usize,
    },
}

/// The block of `range` thread `tid` of `num_threads` executes under
/// `schedule(static)`: `range` is split into `num_threads` contiguous blocks
/// whose sizes differ by at most one (the first `len % num_threads` blocks
/// get the extra iteration — OpenMP's usual static partition). Empty when
/// the thread gets no iteration.
pub fn static_chunks(range: Range<usize>, tid: usize, num_threads: usize) -> Range<usize> {
    debug_assert!(tid < num_threads);
    let len = range.len();
    let base = len / num_threads;
    let extra = len % num_threads;
    let start = range.start + tid * base + tid.min(extra);
    start..start + base + usize::from(tid < extra)
}

/// Shared state for one dynamic worksharing loop.
///
/// One instance is active per team at a time (worksharing constructs end with
/// an implicit barrier), so a single slot in the region state suffices.
#[derive(Debug)]
pub struct LoopCounter {
    next: AtomicUsize,
    end: usize,
}

impl LoopCounter {
    /// Creates a counter over `range`.
    pub fn new(range: Range<usize>) -> Self {
        Self {
            next: AtomicUsize::new(range.start),
            end: range.end,
        }
    }

    /// Claims up to `max_batch` consecutive `chunk`-sized blocks in *one*
    /// shared-counter transaction (dynamic schedule with batching). The
    /// caller serves the returned range thread-locally in `chunk`-sized
    /// pieces, so `max_batch` blocks cost one RMW instead of `max_batch`.
    ///
    /// The batch decays toward a single chunk near the end of the range: at
    /// most a `1/(2·num_threads)` share of the remaining blocks is claimed,
    /// so even if every other thread stalls right after this claim, tail
    /// imbalance stays bounded the way plain `schedule(dynamic)` bounds it.
    /// An exhausted counter is detected with a plain load — the terminal
    /// probe does not pay for an RMW.
    pub fn next_dynamic_batch(
        &self,
        chunk: usize,
        num_threads: usize,
        max_batch: usize,
    ) -> Option<Range<usize>> {
        let chunk = chunk.max(1);
        let seen = self.next.load(Ordering::Relaxed);
        if seen >= self.end {
            return None;
        }
        let blocks_left = (self.end - seen).div_ceil(chunk);
        let batch = (blocks_left / (2 * num_threads.max(1))).clamp(1, max_batch.max(1));
        let start = self.next.fetch_add(batch * chunk, Ordering::Relaxed);
        if start >= self.end {
            return None;
        }
        Some(start..(start + batch * chunk).min(self.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_exact_cover(chunks: &[Range<usize>], range: Range<usize>) {
        let mut seen = HashSet::new();
        for c in chunks {
            for i in c.clone() {
                assert!(seen.insert(i), "iteration {i} covered twice");
            }
        }
        assert_eq!(seen.len(), range.len());
        for i in range {
            assert!(seen.contains(&i), "iteration {i} not covered");
        }
    }

    /// Every block of a `LoopCounter` drained by one thread claiming
    /// batches of up to `max_batch` chunks.
    fn drain(c: &LoopCounter, chunk: usize, max_batch: usize) -> Vec<Range<usize>> {
        let mut chunks = Vec::new();
        while let Some(r) = c.next_dynamic_batch(chunk, 4, max_batch) {
            chunks.push(r);
        }
        chunks
    }

    #[test]
    fn static_block_partition_covers_exactly() {
        for n in [1, 2, 3, 7, 16] {
            for len in [0usize, 1, 5, 16, 100, 101] {
                let all: Vec<_> = (0..n)
                    .map(|tid| static_chunks(10..10 + len, tid, n))
                    .collect();
                assert_exact_cover(&all, 10..10 + len);
            }
        }
    }

    #[test]
    fn static_block_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..7)
            .map(|tid| static_chunks(0..100, tid, 7).len())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn dynamic_counter_covers_exactly() {
        // A batch of at most one chunk is plain `schedule(dynamic)`.
        let c = LoopCounter::new(0..100);
        let chunks = drain(&c, 7, 1);
        assert!(
            chunks.iter().all(|r| r.len() == 7 || r.end == 100),
            "{chunks:?}"
        );
        assert_exact_cover(&chunks, 0..100);
    }

    #[test]
    fn dynamic_counter_concurrent_cover() {
        let c = LoopCounter::new(0..10_000);
        let collected = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let local = drain(&c, 13, 1);
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        assert_exact_cover(&collected.into_inner().unwrap(), 0..10_000);
    }

    #[test]
    fn dynamic_batch_covers_exactly_with_fewer_claims() {
        let c = LoopCounter::new(0..10_000);
        let mut chunks = Vec::new();
        let mut claims = 0usize;
        while let Some(batch) = c.next_dynamic_batch(13, 4, 8) {
            claims += 1;
            let mut start = batch.start;
            while start < batch.end {
                let piece = start..(start + 13).min(batch.end);
                start = piece.end;
                chunks.push(piece);
            }
        }
        assert_exact_cover(&chunks, 0..10_000);
        // 770 chunks of 13; batching must claim far fewer transactions.
        assert!(claims < 300, "claims = {claims}");
    }

    #[test]
    fn dynamic_batch_concurrent_cover() {
        let c = LoopCounter::new(0..9_973);
        let collected = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(r) = c.next_dynamic_batch(7, 4, 8) {
                        local.push(r);
                    }
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        assert_exact_cover(&collected.into_inner().unwrap(), 0..9_973);
    }

    #[test]
    fn empty_range_yields_nothing() {
        assert!(static_chunks(5..5, 0, 4).is_empty());
        assert!(static_chunks(0..3, 3, 4).is_empty());
        let c = LoopCounter::new(5..5);
        assert!(c.next_dynamic_batch(4, 2, 1).is_none());
        assert!(c.next_dynamic_batch(4, 2, 8).is_none());
    }
}
