//! A unified executor over the four runtimes.
//!
//! [`Executor::new`] builds one runtime per pooled family — the `Team`, the
//! stealing `Runtime` and the `ActorRuntime`, held by name — from one shared
//! [`PoolConfig`], so the pools stay comparable; the C++11 family creates
//! its threads per call. [`Executor::try_parallel_for`] and
//! [`Executor::try_parallel_reduce`] run any [`Model`] on them through one
//! per-model loop dispatch, so a model's for loop and its reduction claim
//! the same chunks, poll the token and probe faults at the same points, and
//! differ only in what the body does with a chunk: the reduction folds it
//! into the executing worker's private view. `cxx_async` alone reduces
//! through its thread-per-split combine tree, which has no worker slots.
//!
//! Task-parallel *algorithms* (recursive decomposition, per-phase task
//! graphs) are inherently per-application; those use [`Executor::team`],
//! [`Executor::worksteal`] and [`Executor::actors`] directly, exactly as
//! the paper wrote bespoke versions per benchmark.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tpm_actors::ActorRuntime;
use tpm_forkjoin::{Schedule, Team};
use tpm_rawthreads as raw;
use tpm_sync::{CancelToken, PoolConfig, Reducer, SchedulerStats, StatsSnapshot};
use tpm_worksteal::{Grain, Runtime, WorkerCtx};

use crate::error::{panic_message, ExecError};
use crate::model::{Family, Model};

/// Holds one runtime instance per pooled API family, all sized to the same
/// thread count, so a figure's curves measure scheduling — not pool size.
/// The C++11 family is stateless: raw threads are created per call.
///
/// # Examples
///
/// ```
/// use tpm_core::Executor;
///
/// let exec = Executor::new(2);
/// assert_eq!(exec.threads(), 2);
/// assert_eq!(exec.worksteal().num_workers(), 2);
/// ```
pub struct Executor {
    threads: usize,
    team: Team,
    worksteal: Runtime,
    actors: ActorRuntime,
}

impl Executor {
    /// Creates every pooled family's runtime with `threads` threads each,
    /// from one [`PoolConfig::from_env`] so the pools stay comparable.
    pub fn new(threads: usize) -> Self {
        let cfg = PoolConfig {
            threads,
            ..PoolConfig::from_env()
        };
        Executor {
            threads,
            team: Team::with_config(cfg.clone()),
            worksteal: Runtime::with_config(cfg.clone()),
            actors: ActorRuntime::with_config(cfg),
        }
    }

    /// The common thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Direct access to the OpenMP-analogue team (for task-parallel code).
    pub fn team(&self) -> &Team {
        &self.team
    }

    /// Direct access to the Cilk-analogue runtime (for task-parallel code).
    pub fn worksteal(&self) -> &Runtime {
        &self.worksteal
    }

    /// Direct access to the actor runtime (for message-driven code).
    pub fn actors(&self) -> &ActorRuntime {
        &self.actors
    }

    /// The scheduler counters of every pooled runtime, in [`Family::ALL`]
    /// order (C++11, which has no pool, is omitted).
    fn pooled(&self) -> [(Family, &SchedulerStats); 3] {
        [
            (Family::OpenMp, self.team.stats()),
            (Family::CilkPlus, self.worksteal.stats()),
            (Family::Actors, self.actors.stats()),
        ]
    }

    /// Snapshots of every pooled runtime's scheduler counters, in
    /// [`Family::ALL`] order (families without a pool — C++11 — are
    /// omitted). Two snapshots bracket a job; their difference
    /// (`StatsSnapshot` implements `Sub`) attributes the events to that
    /// job — exact when the executor runs one job at a time, as in the job
    /// service's per-worker executor caches. The rawthreads model's
    /// process-global counters live at `tpm_rawthreads::stats()`.
    pub fn pooled_stats(&self) -> Vec<(Family, StatsSnapshot)> {
        self.pooled()
            .into_iter()
            .map(|(family, stats)| (family, stats.snapshot()))
            .collect()
    }

    /// Resets every pooled runtime's scheduler counters (e.g. between a
    /// warm-up run and a profiled run).
    pub fn reset_stats(&self) {
        for (_, stats) in self.pooled() {
            stats.reset();
        }
    }

    /// The chunk size the paper's manual/task chunkings use:
    /// `BASE = N / threads`.
    pub fn base_chunk(&self, n: usize) -> usize {
        raw::base_cutoff(n, self.threads)
    }

    /// Fallible parallel loop: polls `token` at every chunk/steal boundary
    /// and stops within one grain of work per thread once it fires; a
    /// panicking body is caught (the runtimes stay usable) and reported as
    /// [`ExecError::Panic`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_core::{ExecError, Executor, Model};
    /// use tpm_sync::CancelToken;
    ///
    /// let exec = Executor::new(2);
    /// let token = CancelToken::new();
    /// token.cancel();
    /// let r = exec.try_parallel_for(Model::OmpFor, 0..100, &token, &|_| unreachable!());
    /// assert_eq!(r, Err(ExecError::Cancelled));
    /// ```
    pub fn try_parallel_for<F>(
        &self,
        model: Model,
        range: Range<usize>,
        token: &CancelToken,
        body: &F,
    ) -> Result<(), ExecError>
    where
        F: Fn(Range<usize>) + Sync,
    {
        if let Some(r) = token.reason() {
            return Err(r.into());
        }
        match catch_unwind(AssertUnwindSafe(|| {
            self.chunks(model, range, token, &|_, chunk| body(chunk))
        })) {
            Ok(()) => token.check().map_err(Into::into),
            Err(p) => Err(ExecError::Panic(panic_message(p))),
        }
    }

    /// Fallible reduction: stops within one grain once `token` fires and
    /// discards the partial accumulators. Body panics are caught and
    /// reported as [`ExecError::Panic`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_core::{Executor, Model};
    /// use tpm_sync::CancelToken;
    ///
    /// let exec = Executor::new(2);
    /// let sum = exec.try_parallel_reduce(
    ///     Model::CilkFor,
    ///     0..100,
    ///     &CancelToken::new(),
    ///     || 0u64,
    ///     |a, b| a + b,
    ///     |chunk, acc| for i in chunk { *acc += i as u64 },
    /// );
    /// assert_eq!(sum, Ok(4950));
    /// ```
    pub fn try_parallel_reduce<T, F, Id, Op>(
        &self,
        model: Model,
        range: Range<usize>,
        token: &CancelToken,
        identity: Id,
        combine: Op,
        body: F,
    ) -> Result<T, ExecError>
    where
        T: Send,
        Id: Fn() -> T + Send + Sync,
        Op: Fn(T, T) -> T + Send + Sync,
        F: Fn(Range<usize>, &mut T) + Sync,
    {
        if let Some(r) = token.reason() {
            return Err(r.into());
        }
        match catch_unwind(AssertUnwindSafe(|| {
            if model == Model::CxxAsync {
                // No worker slots to key partials by; the thread-per-split
                // combine tree also keeps float sums bit-reproducible.
                let leaf = |chunk| {
                    let mut acc = identity();
                    body(chunk, &mut acc);
                    acc
                };
                let base = self.base_chunk(range.len());
                return raw::recursive_reduce_cancel(
                    range, base, token, &identity, &leaf, &combine,
                );
            }
            // One private view per worker slot, merged in slot order.
            let reducer = Reducer::new(self.threads, identity, combine);
            self.chunks(model, range, token, &|slot, chunk| {
                reducer.with(slot, |acc| body(chunk, acc))
            });
            reducer.finish()
        })) {
            Ok(v) => token.check().map(|()| v).map_err(Into::into),
            Err(p) => Err(ExecError::Panic(panic_message(p))),
        }
    }

    /// The one per-model loop dispatch: runs `body(slot, chunk)` over
    /// `range` with `model`'s chunking and scheduling, where `slot` is the
    /// executing worker's index (below [`Executor::threads`]). Every model
    /// polls `token` per chunk, so a fired token stops the loop within one
    /// grain per worker.
    fn chunks<F>(&self, model: Model, range: Range<usize>, token: &CancelToken, body: &F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let base = self.base_chunk(range.len());
        match model {
            Model::OmpFor => {
                // Worksharing with the static schedule (the paper's setup for
                // all data-parallel comparisons); the region carries the token
                // so every chunk boundary polls it.
                self.team.parallel_with_token(self.threads, token, |ctx| {
                    ctx.ws_for_chunks(Schedule::static_default(), range.clone(), |chunk| {
                        body(ctx.thread_num(), chunk)
                    });
                });
            }
            Model::OmpTask => {
                // parallel + single + one task per BASE-sized chunk; each task
                // polls the region's cancellation state before running.
                self.team.parallel_with_token(self.threads, token, |ctx| {
                    ctx.single(|| {
                        ctx.task_scope(|s| {
                            let mut start = range.start;
                            while start < range.end {
                                let end = (start + base).min(range.end);
                                s.spawn(move |c| {
                                    if !c.is_cancelled() {
                                        body(c.thread_num(), start..end)
                                    }
                                });
                                start = end;
                            }
                        });
                    });
                });
            }
            Model::CilkFor => {
                // Recursive lazy splitting with Cilk's default grain.
                self.worksteal.install(|ctx| {
                    let _ = tpm_worksteal::par_for_ctx_cancel(
                        ctx,
                        range,
                        Grain::Auto,
                        token,
                        &|c: &WorkerCtx<'_>, chunk| body(c.index(), chunk),
                    );
                });
            }
            Model::CilkSpawn => {
                // Explicitly spawned BASE-sized chunk tasks + sync.
                self.worksteal.install(|ctx| {
                    tpm_worksteal::scope(ctx, |s| {
                        let mut start = range.start;
                        while start < range.end {
                            let end = (start + base).min(range.end);
                            s.spawn(move |c| {
                                if !token.is_cancelled() {
                                    body(c.index(), start..end)
                                }
                            });
                            start = end;
                        }
                    });
                });
            }
            Model::CxxThread => {
                let _ = raw::threads_for_cancel(self.threads, range, token, body);
            }
            Model::CxxAsync => {
                // Thread-per-split recursion; with no worker slots, every
                // leaf reports slot 0 (only the for loop reaches this arm).
                raw::recursive_reduce_cancel(
                    range,
                    base,
                    token,
                    &|| (),
                    &|c| body(0, c),
                    &|(), ()| (),
                );
            }
            Model::ActorFor => {
                // Flat scatter of BASE-sized chunk activations, balanced by
                // work stealing, joined on a latch (panics re-raised here,
                // caught by the try_* wrappers).
                tpm_actors::scatter_for_indexed_cancel(&self.actors, range, base, token, body);
            }
            Model::ActorTask => {
                // Recursive parcels: binary splitting into stealable
                // activations down to BASE.
                tpm_actors::recursive_for_indexed_cancel(&self.actors, range, base, token, body);
            }
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn run_for(
        exec: &Executor,
        model: Model,
        range: Range<usize>,
        body: &(impl Fn(Range<usize>) + Sync),
    ) {
        exec.try_parallel_for(model, range, &CancelToken::new(), body)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
    }

    #[test]
    fn all_models_cover_the_range() {
        let exec = Executor::new(3);
        for model in Model::ALL {
            let flags: Vec<AtomicU64> = (0..101).map(|_| AtomicU64::new(0)).collect();
            run_for(&exec, model, 0..101, &|chunk| {
                for i in chunk {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, f) in flags.iter().enumerate() {
                assert_eq!(f.load(Ordering::Relaxed), 1, "{model} iteration {i}");
            }
        }
    }

    #[test]
    fn all_models_reduce_identically() {
        let exec = Executor::new(4);
        let expected: u64 = (0..5000u64).map(|i| i * 7).sum();
        for model in Model::ALL {
            let got = exec
                .try_parallel_reduce(
                    model,
                    0..5000,
                    &CancelToken::new(),
                    || 0u64,
                    |a, b| a + b,
                    |chunk, acc| {
                        for i in chunk {
                            *acc += (i as u64) * 7;
                        }
                    },
                )
                .unwrap();
            assert_eq!(got, expected, "{model}");
        }
    }

    #[test]
    fn executor_is_reusable_across_models() {
        let exec = Executor::new(2);
        for _ in 0..3 {
            for model in Model::ALL {
                let c = AtomicU64::new(0);
                run_for(&exec, model, 0..10, &|chunk| {
                    c.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                });
                assert_eq!(c.into_inner(), 10);
            }
        }
    }

    #[test]
    fn chunks_hand_every_model_a_slot_below_the_thread_count() {
        let exec = Executor::new(3);
        for model in Model::ALL {
            let covered = AtomicU64::new(0);
            exec.chunks(model, 0..1000, &CancelToken::new(), &|slot, chunk| {
                assert!(slot < exec.threads(), "{model}: slot {slot}");
                covered.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            });
            assert_eq!(covered.into_inner(), 1000, "{model}");
        }
    }

    #[test]
    fn registry_builds_every_family() {
        let exec = Executor::new(2);
        assert_eq!(exec.team().num_threads(), 2);
        assert_eq!(exec.worksteal().num_workers(), 2);
        assert_eq!(exec.actors().num_workers(), 2);
        // Pooled stats cover every family with a persistent pool, in
        // registry order.
        let pooled: Vec<Family> = exec.pooled_stats().iter().map(|(f, _)| *f).collect();
        assert_eq!(
            pooled,
            vec![Family::OpenMp, Family::CilkPlus, Family::Actors]
        );
    }

    #[test]
    fn base_chunk_matches_paper_formula() {
        let exec = Executor::new(4);
        assert_eq!(exec.base_chunk(100), 25);
        assert_eq!(exec.base_chunk(2), 1);
    }

    #[test]
    fn cancelled_token_yields_cancelled_for_every_model() {
        let exec = Executor::new(2);
        for model in Model::ALL {
            let token = CancelToken::new();
            token.cancel();
            let r = exec.try_parallel_for(model, 0..100, &token, &|_| unreachable!());
            assert_eq!(r, Err(ExecError::Cancelled), "{model} for");
            let r = exec.try_parallel_reduce(
                model,
                0..100,
                &token,
                || 0u64,
                |a, b| a + b,
                |_, _| unreachable!(),
            );
            assert_eq!(r, Err(ExecError::Cancelled), "{model} reduce");
        }
    }

    #[test]
    fn expired_deadline_yields_deadline_for_every_model() {
        let exec = Executor::new(2);
        for model in Model::ALL {
            let token = CancelToken::with_deadline(std::time::Duration::ZERO);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let r = exec.try_parallel_for(model, 0..100, &token, &|_| {});
            assert_eq!(r, Err(ExecError::Deadline), "{model} for");
            let r = exec.try_parallel_reduce(
                model,
                0..100,
                &token,
                || 0u64,
                |a, b| a + b,
                |chunk, acc| *acc += chunk.len() as u64,
            );
            assert_eq!(r, Err(ExecError::Deadline), "{model} reduce");
        }
    }

    #[test]
    fn body_panic_yields_panic_error_and_executor_survives() {
        let exec = Executor::new(2);
        for model in Model::ALL {
            let token = CancelToken::new();
            let r = exec.try_parallel_for(model, 0..100, &token, &|chunk| {
                if chunk.contains(&50) {
                    panic!("body boom in {model}");
                }
            });
            match r {
                Err(ExecError::Panic(msg)) => {
                    assert!(msg.contains("body boom"), "{model}: {msg}")
                }
                other => panic!("{model}: expected Panic, got {other:?}"),
            }
            // The pools stay usable after containment.
            let hits = AtomicU64::new(0);
            run_for(&exec, model, 0..10, &|chunk| {
                hits.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            });
            assert_eq!(hits.into_inner(), 10, "{model} reuse after panic");
        }
    }

    #[test]
    fn reduce_body_panic_yields_panic_error_for_every_model() {
        let exec = Executor::new(2);
        for model in Model::ALL {
            let r = exec.try_parallel_reduce(
                model,
                0..100,
                &CancelToken::new(),
                || 0u64,
                |a, b| a + b,
                |chunk, _| {
                    if chunk.contains(&50) {
                        panic!("reduce boom");
                    }
                },
            );
            assert!(matches!(r, Err(ExecError::Panic(_))), "{model}: got {r:?}");
        }
    }
}
