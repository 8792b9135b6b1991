//! A unified executor over the four runtimes.
//!
//! Construction is registry-driven: [`Executor::try_build`] walks
//! [`Family::ALL`] and asks each family to build its runtime
//! ([`Family::build_runtime`]) from one shared [`PoolConfig`] — so adding a
//! family means adding a [`FamilyRuntime`] variant and a dispatch arm here,
//! and every harness loop, test, and service picks it up through the
//! registry without per-call-site edits.
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
use tpm_sync::{CancelToken, PoolConfig, StatsSnapshot};
use tpm_worksteal::{Grain, Runtime};

use crate::error::{panic_message, ExecError};
use crate::model::{Family, Model};

/// One family's runtime instance (the C++11 family is stateless: raw
/// threads are created per call).
pub enum FamilyRuntime {
    /// The OpenMP analogue (`tpm-forkjoin`).
    OpenMp(Team),
    /// The Cilk Plus analogue (`tpm-worksteal`).
    CilkPlus(Runtime),
    /// The C++11 analogue needs no persistent pool.
    Cxx11,
    /// The message-driven actor runtime (`tpm-actors`).
    Actors(ActorRuntime),
}

impl FamilyRuntime {
    /// Which family this runtime implements.
    pub fn family(&self) -> Family {
        match self {
            FamilyRuntime::OpenMp(_) => Family::OpenMp,
            FamilyRuntime::CilkPlus(_) => Family::CilkPlus,
            FamilyRuntime::Cxx11 => Family::Cxx11,
            FamilyRuntime::Actors(_) => Family::Actors,
        }
    }

    /// Scheduler counters, for families with a pooled runtime (`None` for
    /// the stateless C++11 family — its process-global counters live at
    /// `tpm_rawthreads::stats()`).
    pub fn stats(&self) -> Option<StatsSnapshot> {
        match self {
            FamilyRuntime::OpenMp(t) => Some(t.stats().snapshot()),
            FamilyRuntime::CilkPlus(r) => Some(r.stats().snapshot()),
            FamilyRuntime::Cxx11 => None,
            FamilyRuntime::Actors(a) => Some(a.stats().snapshot()),
        }
    }

    /// Resets this runtime's scheduler counters (no-op for the stateless
    /// C++11 family).
    pub fn reset_stats(&self) {
        match self {
            FamilyRuntime::OpenMp(t) => t.stats().reset(),
            FamilyRuntime::CilkPlus(r) => r.stats().reset(),
            FamilyRuntime::Cxx11 => {}
            FamilyRuntime::Actors(a) => a.stats().reset(),
        }
    }
}

impl std::fmt::Debug for FamilyRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FamilyRuntime")
            .field(&self.family())
            .finish()
    }
}

impl Family {
    /// Builds this family's runtime from the shared pool knobs. The
    /// registry's construction hook: [`Executor::try_build`] calls this for
    /// every entry of [`Family::ALL`].
    pub fn build_runtime(self, cfg: &PoolConfig) -> FamilyRuntime {
        match self {
            Family::OpenMp => FamilyRuntime::OpenMp(Team::builder().config(cfg.clone()).build()),
            Family::CilkPlus => {
                FamilyRuntime::CilkPlus(Runtime::builder().config(cfg.clone()).build())
            }
            Family::Cxx11 => FamilyRuntime::Cxx11,
            Family::Actors => {
                FamilyRuntime::Actors(ActorRuntime::builder().config(cfg.clone()).build())
            }
        }
    }
}

/// Holds one runtime instance per API family, all sized to the same thread
/// count, so a figure's curves measure scheduling — not pool size.
pub struct Executor {
    threads: usize,
    runtimes: Vec<FamilyRuntime>,
}

/// Configures an [`Executor`] before construction — one [`PoolConfig`]
/// applied to every family's runtime, so the pools stay comparable.
///
/// # Examples
///
/// ```
/// use tpm_core::Executor;
///
/// let exec = Executor::builder().threads(2).pin(false).build();
/// assert_eq!(exec.threads(), 2);
/// ```
#[derive(Debug)]
#[must_use = "a builder does nothing until .build()"]
pub struct ExecutorBuilder {
    cfg: PoolConfig,
}

impl ExecutorBuilder {
    /// Thread count for every pool (default 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg = self.cfg.threads(n);
        self
    }

    /// Pin workers to cores in every pool. Defaults to the `TPM_PIN`
    /// environment variable.
    pub fn pin(mut self, pin: bool) -> Self {
        self.cfg = self.cfg.pin(pin);
        self
    }

    /// Force NUMA-aware victim ordering on or off in the pools that support
    /// it. Defaults to `TPM_NUMA`, then the topology probe.
    pub fn numa(mut self, numa: bool) -> Self {
        self.cfg = self.cfg.numa(numa);
        self
    }

    /// Idle escalation policy (spin rounds, yield rounds) for every pool's
    /// worker loops.
    pub fn idle(mut self, spin_rounds: u32, yield_rounds: u32) -> Self {
        self.cfg = self.cfg.idle(spin_rounds, yield_rounds);
        self
    }

    /// Materializes every family's runtime.
    ///
    /// Panics on an unbuildable configuration; use
    /// [`try_build`](Self::try_build) to get an [`ExecError`] instead.
    #[must_use]
    pub fn build(self) -> Executor {
        match self.try_build() {
            Ok(exec) => exec,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`build`](Self::build): returns [`ExecError::BadConfig`]
    /// when the configuration cannot produce a working executor (currently:
    /// a zero thread count) instead of panicking.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_core::{ExecError, Executor};
    ///
    /// let r = Executor::builder().threads(0).try_build();
    /// assert!(matches!(r, Err(ExecError::BadConfig(_))));
    /// ```
    pub fn try_build(self) -> Result<Executor, ExecError> {
        if self.cfg.threads == 0 {
            return Err(ExecError::BadConfig(
                "thread count must be at least 1".into(),
            ));
        }
        let threads = self.cfg.threads;
        let runtimes = Family::ALL
            .iter()
            .map(|fam| fam.build_runtime(&self.cfg))
            .collect();
        Ok(Executor { threads, runtimes })
    }
}

impl Executor {
    /// Starts configuring an executor (threads 1, pinning from `TPM_PIN`).
    pub fn builder() -> ExecutorBuilder {
        ExecutorBuilder {
            cfg: PoolConfig::from_env(),
        }
    }

    /// Creates runtimes with `threads` threads each.
    pub fn new(threads: usize) -> Self {
        Self::builder().threads(threads).build()
    }

    /// The common thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn runtime(&self, family: Family) -> &FamilyRuntime {
        self.runtimes
            .iter()
            .find(|r| r.family() == family)
            .expect("try_build materializes every registry family")
    }

    /// Direct access to the OpenMP-analogue team (for task-parallel code).
    pub fn team(&self) -> &Team {
        match self.runtime(Family::OpenMp) {
            FamilyRuntime::OpenMp(t) => t,
            _ => unreachable!("OpenMp slot holds a Team"),
        }
    }

    /// Direct access to the Cilk-analogue runtime (for task-parallel code).
    pub fn worksteal(&self) -> &Runtime {
        match self.runtime(Family::CilkPlus) {
            FamilyRuntime::CilkPlus(r) => r,
            _ => unreachable!("CilkPlus slot holds a Runtime"),
        }
    }

    /// Direct access to the actor runtime (for message-driven code).
    pub fn actors(&self) -> &ActorRuntime {
        match self.runtime(Family::Actors) {
            FamilyRuntime::Actors(a) => a,
            _ => unreachable!("Actors slot holds an ActorRuntime"),
        }
    }

    /// Snapshots of every pooled runtime's scheduler counters, in
    /// [`Family::ALL`] order (families without a pool — C++11 — are
    /// omitted). Two snapshots bracket a job; their difference
    /// (`StatsSnapshot` implements `Sub`) attributes the events to that
    /// job — exact when the executor runs one job at a time, as in the job
    /// service's per-worker executor caches. The rawthreads model's
    /// process-global counters live at `tpm_rawthreads::stats()`.
    pub fn pooled_stats(&self) -> Vec<(Family, StatsSnapshot)> {
        self.runtimes
            .iter()
            .filter_map(|r| r.stats().map(|s| (r.family(), s)))
            .collect()
    }

    /// Resets every pooled runtime's scheduler counters (e.g. between a
    /// warm-up run and a profiled run).
    pub fn reset_stats(&self) {
        for r in &self.runtimes {
            r.reset_stats();
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
            self.dispatch_for(model, range, token, body)
        })) {
            Ok(()) => token.check().map_err(Into::into),
            Err(p) => Err(ExecError::Panic(panic_message(p))),
        }
    }

    fn dispatch_for<F>(&self, model: Model, range: Range<usize>, token: &CancelToken, body: &F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let n = range.len();
        let base = self.base_chunk(n);
        match model {
            Model::OmpFor => {
                // Worksharing with the static schedule (the paper's setup for
                // all data-parallel comparisons); the region carries the token
                // so every chunk boundary polls it.
                self.team().parallel_with_token(self.threads, token, |ctx| {
                    ctx.ws_for_chunks(Schedule::static_default(), range.clone(), body);
                });
            }
            Model::OmpTask => {
                // parallel + single + one task per BASE-sized chunk; each task
                // polls the region's cancellation state before running.
                self.team().parallel_with_token(self.threads, token, |ctx| {
                    ctx.single(|| {
                        ctx.task_scope(|s| {
                            let mut start = range.start;
                            while start < range.end {
                                let end = (start + base).min(range.end);
                                s.spawn(move |c| {
                                    if !c.is_cancelled() {
                                        body(start..end)
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
                self.worksteal().install(|ctx| {
                    let _ = tpm_worksteal::par_for_cancel(ctx, range, Grain::Auto, token, body);
                });
            }
            Model::CilkSpawn => {
                // Explicitly spawned BASE-sized chunk tasks + sync.
                self.worksteal().install(|ctx| {
                    tpm_worksteal::scope(ctx, |s| {
                        let mut start = range.start;
                        while start < range.end {
                            let end = (start + base).min(range.end);
                            s.spawn(move |_| {
                                if !token.is_cancelled() {
                                    body(start..end)
                                }
                            });
                            start = end;
                        }
                    });
                });
            }
            Model::CxxThread => {
                let _ =
                    raw::threads_for_cancel(self.threads, range, token, |_tid, chunk| body(chunk));
            }
            Model::CxxAsync => {
                let _ = raw::recursive_for_cancel(range, base, token, body);
            }
            Model::ActorFor => {
                // Flat scatter of BASE-sized chunk activations, balanced by
                // work stealing, joined on a latch (panics re-raised here,
                // caught by the try_* wrapper).
                tpm_actors::scatter_for_cancel(self.actors(), range, base, token, body);
            }
            Model::ActorTask => {
                // Recursive parcels: binary splitting into stealable
                // activations down to BASE.
                tpm_actors::recursive_for_cancel(self.actors(), range, base, token, body);
            }
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
            self.dispatch_reduce(model, range, token, identity, combine, body)
        })) {
            Ok(v) => token.check().map(|()| v).map_err(Into::into),
            Err(p) => Err(ExecError::Panic(panic_message(p))),
        }
    }

    fn dispatch_reduce<T, F, Id, Op>(
        &self,
        model: Model,
        range: Range<usize>,
        token: &CancelToken,
        identity: Id,
        combine: Op,
        body: F,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Send + Sync,
        Op: Fn(T, T) -> T + Send + Sync,
        F: Fn(Range<usize>, &mut T) + Sync,
    {
        let n = range.len();
        let base = self.base_chunk(n);
        match model {
            Model::OmpFor => {
                // Identical to Team::parallel_for_reduce, with the token
                // attached to the region (same chunks, same combine order).
                let reducer = tpm_sync::Reducer::new(self.threads, identity, combine);
                self.team().parallel_with_token(self.threads, token, |ctx| {
                    ctx.ws_for_chunks(Schedule::static_default(), range.clone(), |chunk| {
                        reducer.with(ctx.thread_num(), |acc| body(chunk, acc));
                    });
                });
                reducer.finish()
            }
            Model::OmpTask => {
                // Tasks accumulate into a reducer keyed by executing thread.
                let reducer = tpm_sync::Reducer::new(self.threads, identity, combine);
                self.team().parallel_with_token(self.threads, token, |ctx| {
                    ctx.single(|| {
                        ctx.task_scope(|s| {
                            let mut start = range.start;
                            while start < range.end {
                                let end = (start + base).min(range.end);
                                let reducer = &reducer;
                                let body = &body;
                                s.spawn(move |c| {
                                    if !c.is_cancelled() {
                                        reducer.with(c.thread_num(), |acc| body(start..end, acc));
                                    }
                                });
                                start = end;
                            }
                        });
                    });
                });
                reducer.finish()
            }
            Model::CilkFor => {
                // par_for_reduce's reducer pattern over the cancel-aware loop.
                let body = &body; // shared borrow: Send because F: Sync
                self.worksteal().install(move |ctx| {
                    let reducer = tpm_sync::Reducer::new(ctx.num_workers(), identity, combine);
                    let _ = tpm_worksteal::par_for_ctx_cancel(
                        ctx,
                        range,
                        Grain::Auto,
                        token,
                        &|c: &tpm_worksteal::WorkerCtx<'_>, chunk: Range<usize>| {
                            reducer.with(c.index(), |acc| body(chunk, acc));
                        },
                    );
                    reducer.finish()
                })
            }
            Model::CilkSpawn => {
                let reducer = tpm_sync::Reducer::new(self.threads, identity, combine);
                self.worksteal().install(|ctx| {
                    tpm_worksteal::scope(ctx, |s| {
                        let mut start = range.start;
                        while start < range.end {
                            let end = (start + base).min(range.end);
                            let reducer = &reducer;
                            let body = &body;
                            s.spawn(move |c| {
                                if !token.is_cancelled() {
                                    reducer.with(c.index(), |acc| body(start..end, acc));
                                }
                            });
                            start = end;
                        }
                    });
                });
                reducer.finish()
            }
            Model::CxxThread => {
                // threads_for_reduce's per-thread partials, over the
                // cancel-aware loop (sub-chunks fold in order, so the
                // operation sequence per thread is unchanged).
                let reducer = tpm_sync::Reducer::new(self.threads, identity, combine);
                let _ = raw::threads_for_cancel(self.threads, range, token, |tid, chunk| {
                    reducer.with(tid, |acc| body(chunk, acc));
                });
                reducer.finish()
            }
            Model::CxxAsync => raw::recursive_reduce_cancel(
                range,
                base,
                token,
                &identity,
                &|chunk| {
                    let mut acc = identity();
                    body(chunk, &mut acc);
                    acc
                },
                &combine,
            ),
            Model::ActorFor => {
                // Scatter activations fold into a reducer keyed by the
                // executing worker (same per-worker-partials shape as the
                // other pooled families).
                let reducer = tpm_sync::Reducer::new(self.threads, identity, combine);
                tpm_actors::scatter_for_indexed_cancel(
                    self.actors(),
                    range,
                    base,
                    token,
                    |w, chunk| reducer.with(w, |acc| body(chunk, acc)),
                );
                reducer.finish()
            }
            Model::ActorTask => {
                let reducer = tpm_sync::Reducer::new(self.threads, identity, combine);
                tpm_actors::recursive_for_indexed_cancel(
                    self.actors(),
                    range,
                    base,
                    token,
                    |w, chunk| reducer.with(w, |acc| body(chunk, acc)),
                );
                reducer.finish()
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
    fn registry_builds_every_family() {
        let exec = Executor::new(2);
        let families: Vec<Family> = exec.runtimes.iter().map(|r| r.family()).collect();
        assert_eq!(families, Family::ALL.to_vec());
        // Pooled stats cover every family with a persistent pool.
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
    fn zero_threads_is_bad_config_not_a_panic() {
        match Executor::builder().threads(0).try_build() {
            Err(ExecError::BadConfig(msg)) => assert!(msg.contains("thread count")),
            other => panic!("expected BadConfig, got {other:?}"),
        }
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
