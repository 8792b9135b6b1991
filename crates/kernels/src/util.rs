//! Shared kernel utilities.

use std::ops::Range;

use tpm_core::{ExecError, Executor, Model};
use tpm_sync::CancelToken;

/// A shared mutable slice view for data-parallel writers.
///
/// Parallel loop bodies receive disjoint index chunks; this wrapper lets
/// them write their own chunk through a shared reference. All six model
/// variants of every kernel use it the same way, so the comparison measures
/// scheduling — not borrow-checker workarounds.
///
/// # Safety contract
///
/// The wrapper itself performs no synchronization. Every `unsafe` accessor
/// requires the caller to uphold **range disjointness**: across all threads
/// and for the lifetime of any reference obtained, no index may be reachable
/// through two simultaneously live accesses (two `slice_mut` ranges that
/// overlap, or a `write` into a live `slice_mut` range). The kernels satisfy
/// this structurally — the executor hands each task a chunk of the iteration
/// space and every task only touches indices derived from its own chunk.
/// Index validity (`i < len`, `range ⊆ 0..len`) is the caller's obligation
/// too, checked by `debug_assert!` in debug builds.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: callers uphold chunk disjointness (see the type-level contract).
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `i`.
    ///
    /// # Safety
    /// `i < self.len()`, and no other thread may concurrently access index
    /// `i` (see the type-level disjointness contract).
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(
            i < self.len,
            "UnsafeSlice::write: {i} out of bounds ({})",
            self.len
        );
        *self.ptr.add(i) = value;
    }

    /// Mutable access to `range`.
    ///
    /// # Safety
    /// `range` must be non-decreasing and lie within `0..self.len()`, and no
    /// other thread may concurrently access any index in `range` (see the
    /// type-level disjointness contract). The returned reference must be
    /// dropped before any other access to those indices.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(
            range.start <= range.end,
            "UnsafeSlice::slice_mut: inverted range {}..{}",
            range.start,
            range.end
        );
        debug_assert!(
            range.end <= self.len,
            "UnsafeSlice::slice_mut: {}..{} out of bounds ({})",
            range.start,
            range.end,
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }
}

/// Deterministic pseudo-random f64 vector in `[0, 1)` (no `rand` dependency
/// in the hot path; reproducible across runs).
pub fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = tpm_sync::SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64()).collect()
}

/// [`random_vec`] with parallel first-touch: the vector is filled through
/// a parallel loop under `model`, so each page is first touched by the
/// thread that will process the same index range in the kernel proper.
///
/// The large kernel inputs (100 M-element vectors) were previously
/// initialized sequentially, first-touching every page from one thread; on a
/// NUMA host that places all pages on one node, and even on one socket it
/// serializes the page-fault storm. Bitwise-identical to [`random_vec`] for
/// every `(n, seed)` regardless of model, thread count, or chunk boundaries:
/// each chunk seeks the SplitMix64 stream to its start index in O(1)
/// ([`tpm_sync::SplitMix64::new_at`]).
///
/// Cancellable: the fill runs through [`Executor::try_parallel_for`] under
/// `token` and additionally polls it every [`POLL_EVERY`] elements
/// inside a chunk, so a deadline is honoured within one poll interval even
/// when a static schedule hands each thread a single huge chunk. On `Err`
/// the partly filled vector is dropped. The kernels' infallible `alloc_on`
/// passes a fresh token.
pub fn try_random_vec_on(
    exec: &Executor,
    model: Model,
    n: usize,
    seed: u64,
    token: &CancelToken,
) -> Result<Vec<f64>, ExecError> {
    try_random_vec_map_on(exec, model, n, seed, token, &|v| v)
}

/// [`try_random_vec_on`] with `map` applied to each element as it is
/// written (one sweep, one first touch).
pub fn try_random_vec_map_on<M>(
    exec: &Executor,
    model: Model,
    n: usize,
    seed: u64,
    token: &CancelToken,
    map: &M,
) -> Result<Vec<f64>, ExecError>
where
    M: Fn(f64) -> f64 + Sync,
{
    // `vec![0.0; n]` allocates zeroed pages lazily (no touch); the parallel
    // fill below performs the first touch with the kernel's own schedule.
    let mut v = vec![0.0f64; n];
    advise_hugepages_for(&v);
    let dst = UnsafeSlice::new(&mut v);
    exec.try_parallel_for(model, 0..n, token, &|chunk: Range<usize>| {
        let mut rng = tpm_sync::SplitMix64::new_at(seed, chunk.start as u64);
        // SAFETY: the executor hands out disjoint chunks.
        let slice = unsafe { dst.slice_mut(chunk) };
        for block in slice.chunks_mut(POLL_EVERY) {
            if token.is_cancelled() {
                return;
            }
            for v in block {
                *v = map(rng.next_f64());
            }
        }
    })?;
    Ok(v)
}

/// Elements a flat body (input fill, [`Sum`](crate::Sum),
/// [`Axpy`](crate::Axpy)) processes between cancellation polls inside one
/// chunk (32 KiB of `f64`: a few microseconds), so even a static schedule's
/// single chunk per thread stops within one block once the token fires.
pub const POLL_EVERY: usize = 4096;

/// Unwraps the result of a kernel body that ran under a fresh,
/// never-cancelled token — what every infallible `run`/`alloc_on` wrapper
/// does: a failure there is a kernel bug (or a panicking body), reported by
/// panicking.
pub fn infallible<T>(model: Model, r: Result<T, ExecError>) -> T {
    r.unwrap_or_else(|e| panic!("{model} kernel loop failed: {e}"))
}

/// Buffers at least this large get a transparent-huge-page hint before
/// first touch (2 MiB = one x86-64 huge page; smaller buffers cannot
/// contain one).
const HUGEPAGE_THRESHOLD_BYTES: usize = 2 << 20;

/// Best-effort `madvise(MADV_HUGEPAGE)` for a large kernel buffer, issued
/// *before* first touch so the page-fault storm can map 2 MiB pages
/// directly (a 100 M-element input is ~195 k base pages but ~380 huge
/// pages — fewer faults, far fewer TLB misses during the kernel sweep).
/// No-op for small buffers and on platforms without `madvise`.
pub fn advise_hugepages_for<T>(buf: &[T]) -> bool {
    let bytes = std::mem::size_of_val(buf);
    if bytes < HUGEPAGE_THRESHOLD_BYTES {
        return false;
    }
    tpm_sync::topology::advise_hugepages(buf.as_ptr().cast(), bytes)
}

/// Max-abs-difference between two vectors (for verification).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_slice_disjoint_parallel_writes() {
        let mut v = vec![0u64; 100];
        {
            let s = UnsafeSlice::new(&mut v);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let s = &s;
                    scope.spawn(move || {
                        for i in (t * 25)..((t + 1) * 25) {
                            // SAFETY: each thread owns a distinct 25-element block.
                            unsafe { s.write(i, i as u64) };
                        }
                    });
                }
            });
        }
        assert_eq!(v, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn slice_mut_range() {
        let mut v = vec![0; 10];
        let s = UnsafeSlice::new(&mut v);
        // SAFETY: single-threaded here.
        unsafe { s.slice_mut(2..5).fill(7) };
        assert_eq!(v, [0, 0, 7, 7, 7, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn random_vec_is_deterministic_and_unit_range() {
        let a = random_vec(1000, 42);
        let b = random_vec(1000, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert!(max_abs_diff(&a, &random_vec(1000, 43)) > 0.0);
    }

    #[test]
    fn parallel_first_touch_is_bitwise_identical_to_sequential() {
        let expected = random_vec(10_007, 0xF1257);
        for threads in [1, 3] {
            let exec = Executor::new(threads);
            for model in Model::ALL {
                let got = try_random_vec_on(&exec, model, 10_007, 0xF1257, &CancelToken::new());
                assert_eq!(got.as_ref(), Ok(&expected), "{model} @{threads}t");
            }
        }
    }

    #[test]
    fn cancellable_fill_honours_the_token_and_maps_elements() {
        let exec = Executor::new(2);
        let n = 10 * POLL_EVERY + 7;
        for model in Model::ALL {
            let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
            let r = try_random_vec_on(&exec, model, n, 3, &expired);
            assert_eq!(r.unwrap_err(), ExecError::Deadline, "{model}");
            let mapped =
                try_random_vec_map_on(&exec, model, n, 3, &CancelToken::new(), &|v| 2.0 * v)
                    .unwrap();
            let want: Vec<f64> = random_vec(n, 3).into_iter().map(|v| 2.0 * v).collect();
            assert_eq!(mapped, want, "{model}");
        }
    }

    #[test]
    fn hugepage_hint_skips_small_buffers_and_preserves_data() {
        let small = vec![1.0f64; 16];
        assert!(!advise_hugepages_for(&small), "below threshold");
        // 4 MiB of f64: over the threshold; hint may or may not be accepted
        // (THP can be off), but the data must be untouched either way.
        let big = vec![2.5f64; (4 << 20) / 8];
        let _ = advise_hugepages_for(&big);
        assert!(big.iter().all(|&x| x == 2.5));
    }

    #[test]
    fn fill_random_on_empty_and_single() {
        let exec = Executor::new(2);
        let token = CancelToken::new();
        assert_eq!(
            try_random_vec_on(&exec, Model::CilkFor, 0, 1, &token),
            Ok(vec![])
        );
        assert_eq!(
            try_random_vec_on(&exec, Model::OmpTask, 1, 9, &token),
            Ok(random_vec(1, 9))
        );
    }
}
