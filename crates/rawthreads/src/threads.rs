//! `std::thread` analogues: thread-per-region data parallelism with manual
//! chunking.
//!
//! The paper's C++11 data-parallel versions "use a for loop and manual
//! chunking to distribute loop iterations among threads", with the static
//! partition so the three models compare fairly. Crucially there is no pool:
//! every parallel region pays `num_threads` thread creations and joins —
//! the overhead that separates this model from the other two at small work
//! sizes.

use std::ops::Range;

use tpm_sync::{CancelReason, CancelToken, EventKind};

use crate::stats::emit;

/// Splits `range` into `num_threads` contiguous blocks (sizes differing by at
/// most one) and runs `body(tid, chunk)` on one freshly spawned OS thread per
/// non-empty block, joining them all before returning.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use tpm_rawthreads::threads_for;
///
/// let sum = AtomicU64::new(0);
/// threads_for(4, 0..1000, |_tid, chunk| {
///     sum.fetch_add(chunk.map(|i| i as u64).sum(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), (0..1000).sum());
/// ```
pub fn threads_for<F>(num_threads: usize, range: Range<usize>, body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let body = |tid, chunk| {
        // An injected panic unwinds this thread; the join re-raises it with
        // the original payload on the caller.
        match tpm_fault::probe(tpm_fault::Site::ChunkClaim) {
            tpm_fault::Action::Panic => tpm_fault::injected_panic(tpm_fault::Site::ChunkClaim),
            tpm_fault::Action::TaskDrop => tpm_fault::injected_drop(tpm_fault::Site::ChunkClaim),
            _ => {}
        }
        body(tid, chunk)
    };
    threads_for_reduce(num_threads, range, body, |(), ()| (), ());
}

/// [`threads_for`] with cooperative cancellation. Each region thread polls
/// the token once before starting its block and then sub-chunks the block
/// into at most `CANCEL_SUBCHUNKS` pieces, re-polling between pieces — so a
/// cancel or deadline lands within `len/(P·8)` iterations instead of a whole
/// `len/P` block. Spawn/join costs are unchanged: still one thread per block.
///
/// # Examples
///
/// ```
/// use tpm_sync::{CancelReason, CancelToken};
/// use tpm_rawthreads::threads_for_cancel;
///
/// let token = CancelToken::new();
/// token.cancel();
/// let r = threads_for_cancel(4, 0..1_000, &token, |_, _| unreachable!());
/// assert_eq!(r, Err(CancelReason::Cancelled));
/// ```
pub fn threads_for_cancel<F>(
    num_threads: usize,
    range: Range<usize>,
    token: &CancelToken,
    body: F,
) -> Result<(), CancelReason>
where
    F: Fn(usize, Range<usize>) + Sync,
{
    /// How many times each region thread re-polls the token inside its block.
    const CANCEL_SUBCHUNKS: usize = 8;
    // Straight onto the region threads: the loop below probes each piece it
    // claims, so `threads_for`'s per-block probe would count the first one
    // twice.
    let body = |tid, chunk: Range<usize>| {
        let piece = chunk.len().div_ceil(CANCEL_SUBCHUNKS).max(1);
        let mut start = chunk.start;
        while start < chunk.end {
            if token.is_cancelled() {
                return;
            }
            let end = (start + piece).min(chunk.end);
            match tpm_fault::probe(tpm_fault::Site::ChunkClaim) {
                tpm_fault::Action::Panic => tpm_fault::injected_panic(tpm_fault::Site::ChunkClaim),
                tpm_fault::Action::TaskDrop => {
                    tpm_fault::injected_drop(tpm_fault::Site::ChunkClaim)
                }
                _ => {}
            }
            body(tid, start..end);
            start = end;
        }
    };
    threads_for_reduce(num_threads, range, body, |(), ()| (), ());
    token.check()
}

/// Like [`threads_for`], but each thread returns a partial value; partials
/// are combined in thread order (manual reduction, as the paper's C++ Sum
/// version does).
pub fn threads_for_reduce<T, F, Op>(
    num_threads: usize,
    range: Range<usize>,
    body: F,
    combine: Op,
    identity: T,
) -> T
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
    Op: Fn(T, T) -> T,
{
    let num_threads = num_threads.max(1);
    // There is no pool (and so no `PoolConfig`) to configure: the env knob
    // is the only way to request pinning for per-region threads.
    let pin = tpm_sync::affinity::pin_from_env();
    let partials = std::thread::scope(|s| {
        let handles: Vec<_> = (0..num_threads)
            .filter_map(|tid| {
                let chunk = block_chunk(range.clone(), tid, num_threads);
                if chunk.is_empty() {
                    return None;
                }
                emit(EventKind::ThreadSpawn, tid as u64);
                let body = &body;
                Some(
                    std::thread::Builder::new()
                        .name(format!("tpm-rawthreads-{tid}"))
                        .spawn_scoped(s, move || {
                            if pin {
                                tpm_sync::affinity::pin_current_thread(tid);
                            }
                            emit(EventKind::ChunkDispatch, chunk.len() as u64);
                            body(tid, chunk)
                        })
                        .expect("failed to spawn region thread"),
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let joined = h.join();
                emit(EventKind::ThreadJoin, 0);
                // Re-raise the first panic in thread order with its original
                // payload (not the scope's generic message) so callers can
                // classify injected faults; the scope joins the rest first.
                joined.unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect::<Vec<T>>()
    });
    partials.into_iter().fold(identity, combine)
}

/// The contiguous block of `range` owned by `tid` of `num_threads`
/// (the manual-chunking formula from the paper's C++ versions).
pub fn block_chunk(range: Range<usize>, tid: usize, num_threads: usize) -> Range<usize> {
    let len = range.len();
    let base = len / num_threads;
    let extra = len % num_threads;
    let (start, size) = if tid < extra {
        (tid * (base + 1), base + 1)
    } else {
        (extra * (base + 1) + (tid - extra) * base, base)
    };
    let s = range.start + start;
    s..s + size
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn block_chunks_tile_the_range() {
        for n in [1, 2, 3, 8] {
            for len in [0, 1, 7, 64, 65] {
                let mut covered = vec![0u32; len];
                for tid in 0..n {
                    for i in block_chunk(0..len, tid, n) {
                        covered[i] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "n={n} len={len}");
            }
        }
    }

    #[test]
    fn threads_for_visits_everything_once() {
        let flags: Vec<AtomicU64> = (0..101).map(|_| AtomicU64::new(0)).collect();
        threads_for(4, 0..101, |_, chunk| {
            for i in chunk {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn threads_for_with_more_threads_than_work() {
        let flags: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        threads_for(8, 0..3, |_, chunk| {
            for i in chunk {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reduce_combines_partials_in_order() {
        let result = threads_for_reduce(
            3,
            0..9,
            |_tid, chunk| chunk.map(|i| i.to_string()).collect::<String>(),
            |a, b| a + &b,
            String::new(),
        );
        assert_eq!(result, "012345678");
    }

    #[test]
    fn reduce_sums() {
        let total = threads_for_reduce(
            4,
            0..10_000,
            |_, chunk| chunk.map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
            0u64,
        );
        assert_eq!(total, (0..10_000u64).sum());
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let sum = AtomicU64::new(0);
        threads_for(1, 0..100, |tid, chunk| {
            assert_eq!(tid, 0);
            assert_eq!(chunk, 0..100);
            sum.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 100);
    }
}
