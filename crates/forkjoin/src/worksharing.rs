//! Worksharing loop schedules: how a `parallel for` distributes iterations.
//!
//! The paper's data-parallel OpenMP versions use worksharing with the
//! *static* schedule ("OpenMP static schedule is applied to all the three
//! models for data parallelism"); *dynamic* and *guided* are provided for
//! comparison, and the shared-counter transactions they cost are the
//! benchmark's per-layer `forkjoin.loop_claims` metric (static never
//! touches the counter). Static assignment is computed locally by each
//! thread with zero coordination — the reason the paper finds worksharing
//! cheaper than work stealing for uniform data parallelism.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A loop schedule, mirroring OpenMP's `schedule(...)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Iterations divided into contiguous blocks, one per thread
    /// (`schedule(static)`), or round-robin blocks of `chunk` when given
    /// (`schedule(static, chunk)`).
    Static {
        /// Optional fixed chunk size; `None` means one block per thread.
        chunk: Option<usize>,
    },
    /// Threads grab `chunk`-sized blocks from a shared counter
    /// (`schedule(dynamic, chunk)`).
    Dynamic {
        /// Block size grabbed per fetch; must be ≥ 1.
        chunk: usize,
    },
    /// Exponentially decreasing blocks, at least `min_chunk`
    /// (`schedule(guided, min_chunk)`).
    Guided {
        /// Lower bound on the block size.
        min_chunk: usize,
    },
    /// Picked per loop from the range size and team width
    /// (`schedule(auto)`) — see [`Schedule::resolve`].
    Auto,
}

impl Schedule {
    /// The paper's default for all data-parallel comparisons.
    pub const fn static_default() -> Self {
        Schedule::Static { chunk: None }
    }

    /// Resolves [`Auto`](Schedule::Auto) to a concrete schedule for a loop
    /// of `len` iterations on `num_threads` threads; concrete schedules pass
    /// through unchanged.
    ///
    /// Heuristic: ranges with at least 64 iterations per thread take the
    /// static schedule — the per-thread blocks are large enough that
    /// uniform-cost imbalance is negligible, and static costs zero
    /// coordination. Shorter ranges, where per-iteration cost is more
    /// likely to dominate and imbalance bites, take the dynamic schedule
    /// with a chunk sized for about four grabs per thread.
    pub fn resolve(self, len: usize, num_threads: usize) -> Schedule {
        let Schedule::Auto = self else {
            return self;
        };
        let n = num_threads.max(1);
        if len >= n * 64 {
            Schedule::Static { chunk: None }
        } else {
            Schedule::Dynamic {
                chunk: len.div_ceil(n * 4).max(1),
            }
        }
    }
}

impl Default for Schedule {
    fn default() -> Self {
        Self::static_default()
    }
}

/// Yields the chunks thread `tid` of `num_threads` executes under
/// `schedule(static)` semantics for the iteration space `range`.
///
/// With `chunk = None`, iterations are split into `num_threads` contiguous
/// blocks whose sizes differ by at most one (the first `len % num_threads`
/// blocks get the extra iteration — OpenMP's usual static partition).
/// With `chunk = Some(c)`, blocks of `c` are dealt round-robin.
pub fn static_chunks(
    range: Range<usize>,
    tid: usize,
    num_threads: usize,
    chunk: Option<usize>,
) -> Vec<Range<usize>> {
    debug_assert!(tid < num_threads);
    let len = range.len();
    match chunk {
        None => {
            let base = len / num_threads;
            let extra = len % num_threads;
            let (start, size) = if tid < extra {
                (tid * (base + 1), base + 1)
            } else {
                (extra * (base + 1) + (tid - extra) * base, base)
            };
            if size == 0 {
                Vec::new()
            } else {
                let s = range.start + start;
                // One contiguous block per thread (a Vec for signature
                // uniformity with the chunked schedule).
                std::iter::once(s..s + size).collect()
            }
        }
        Some(c) => {
            let c = c.max(1);
            let mut out = Vec::new();
            let mut start = range.start + tid * c;
            while start < range.end {
                out.push(start..(start + c).min(range.end));
                start += num_threads * c;
            }
            out
        }
    }
}

/// Shared state for one dynamic/guided worksharing loop.
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

    /// Claims the next `chunk` iterations (dynamic schedule); `None` when the
    /// loop is exhausted.
    pub fn next_dynamic(&self, chunk: usize) -> Option<Range<usize>> {
        let chunk = chunk.max(1);
        let start = self.next.fetch_add(chunk, Ordering::Relaxed);
        if start >= self.end {
            return None;
        }
        Some(start..(start + chunk).min(self.end))
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

    /// Claims the next guided block: `remaining / num_threads`, clamped below
    /// by `min_chunk` (OpenMP's guided schedule).
    ///
    /// `min_chunk` is honored for *every* block: when claiming the clamped
    /// size would strand a tail smaller than `min_chunk`, the block absorbs
    /// the tail instead (so the final block may reach `2·min_chunk − 1`).
    /// Without the absorption the floor silently failed on the last trip —
    /// e.g. 13 remaining with `min_chunk = 8` used to split 8 + 5.
    pub fn next_guided(&self, num_threads: usize, min_chunk: usize) -> Option<Range<usize>> {
        let min_chunk = min_chunk.max(1);
        loop {
            let start = self.next.load(Ordering::Relaxed);
            if start >= self.end {
                return None;
            }
            let remaining = self.end - start;
            let base = (remaining / num_threads.max(1)).max(min_chunk);
            let size = if remaining - base.min(remaining) < min_chunk {
                remaining
            } else {
                base
            };
            if self
                .next
                .compare_exchange_weak(start, start + size, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some(start..start + size);
            }
        }
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

    #[test]
    fn static_block_partition_covers_exactly() {
        for n in [1, 2, 3, 7, 16] {
            for len in [0usize, 1, 5, 16, 100, 101] {
                let all: Vec<_> = (0..n)
                    .flat_map(|tid| static_chunks(10..10 + len, tid, n, None))
                    .collect();
                assert_exact_cover(&all, 10..10 + len);
            }
        }
    }

    #[test]
    fn static_block_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..7)
            .map(|tid| {
                static_chunks(0..100, tid, 7, None)
                    .iter()
                    .map(|c| c.len())
                    .sum()
            })
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn static_chunked_is_round_robin() {
        let c0 = static_chunks(0..10, 0, 2, Some(2));
        let c1 = static_chunks(0..10, 1, 2, Some(2));
        assert_eq!(c0, vec![0..2, 4..6, 8..10]);
        assert_eq!(c1, vec![2..4, 6..8]);
    }

    #[test]
    fn static_chunked_covers_exactly() {
        for n in [1, 2, 5] {
            for chunk in [1, 3, 64] {
                let all: Vec<_> = (0..n)
                    .flat_map(|tid| static_chunks(0..97, tid, n, Some(chunk)))
                    .collect();
                assert_exact_cover(&all, 0..97);
            }
        }
    }

    #[test]
    fn dynamic_counter_covers_exactly() {
        let c = LoopCounter::new(0..100);
        let mut chunks = Vec::new();
        while let Some(r) = c.next_dynamic(7) {
            chunks.push(r);
        }
        assert_exact_cover(&chunks, 0..100);
    }

    #[test]
    fn dynamic_counter_concurrent_cover() {
        let c = LoopCounter::new(0..10_000);
        let collected = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(r) = c.next_dynamic(13) {
                        local.push(r);
                    }
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        assert_exact_cover(&collected.into_inner().unwrap(), 0..10_000);
    }

    #[test]
    fn guided_chunks_shrink() {
        let c = LoopCounter::new(0..1000);
        let mut sizes = Vec::new();
        while let Some(r) = c.next_guided(4, 8) {
            sizes.push(r.len());
        }
        // Non-increasing (single-threaded claim order), except that the
        // final block may absorb a sub-min_chunk tail and grow by up to
        // min_chunk − 1.
        for w in sizes[..sizes.len() - 1].windows(2) {
            assert!(w[0] >= w[1], "{sizes:?}");
        }
        // The min_chunk floor holds for *every* block, tail included.
        for &s in &sizes {
            assert!(s >= 8, "{sizes:?}");
        }
        assert!(*sizes.last().unwrap() < 16, "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn guided_final_chunk_honors_min_chunk() {
        // Regression: 13 remaining with min_chunk 8 used to split 8 + 5,
        // handing out a 5-iteration block below the requested floor.
        let c = LoopCounter::new(0..13);
        assert_eq!(c.next_guided(4, 8), Some(0..13));
        assert_eq!(c.next_guided(4, 8), None);
        // A range below min_chunk is one (short) block — nothing to honor.
        let c = LoopCounter::new(0..5);
        assert_eq!(c.next_guided(4, 8), Some(0..5));
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
    fn auto_schedule_resolution() {
        // Wide range: static. Short range: dynamic with a ~len/4n chunk.
        assert_eq!(
            Schedule::Auto.resolve(10_000, 4),
            Schedule::Static { chunk: None }
        );
        assert_eq!(
            Schedule::Auto.resolve(100, 4),
            Schedule::Dynamic { chunk: 7 }
        );
        assert_eq!(Schedule::Auto.resolve(0, 4), Schedule::Dynamic { chunk: 1 });
        // Concrete schedules pass through untouched.
        assert_eq!(
            Schedule::Guided { min_chunk: 3 }.resolve(10, 2),
            Schedule::Guided { min_chunk: 3 }
        );
    }

    #[test]
    fn guided_concurrent_cover() {
        let c = LoopCounter::new(0..5000);
        let collected = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(r) = c.next_guided(4, 4) {
                        local.push(r);
                    }
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        assert_exact_cover(&collected.into_inner().unwrap(), 0..5000);
    }

    #[test]
    fn empty_range_yields_nothing() {
        assert!(static_chunks(5..5, 0, 4, None).is_empty());
        let c = LoopCounter::new(5..5);
        assert!(c.next_dynamic(4).is_none());
        assert!(c.next_dynamic_batch(4, 2, 8).is_none());
        assert!(c.next_guided(4, 1).is_none());
    }
}
