//! Named, cancellable jobs — the dispatch layer under the serve frontend.
//!
//! A [`JobSpec`] is the serialized form of "run kernel K under model M at
//! size N on T threads": everything needed to execute arrives as plain data,
//! so a CLI flag set, a JSON request line, or a test can all name the same
//! execution. A [`JobRegistry`] maps kernel names to run functions; `tpm-core`
//! owns only the mechanism (this crate cannot see the kernels), and the
//! harness populates it with every kernel and Rodinia app at startup.
//!
//! Every job runs under a [`CancelToken`] and returns
//! `Result<JobResult, ExecError>` — cancellation, deadline expiry, panics and
//! malformed specs all come back as values, which is what lets a server thread
//! survive arbitrary requests.
//!
//! A job has two phases, timed separately: *prepare* obtains the input
//! (from the registry's shared [`InputCache`], or by generating it) and
//! *run* is the kernel body — the paper's timed parallel region.

mod cache;

pub use cache::{
    InputCache, InputCacheStats, BUILD_WAIT, INPUT_CACHE_BUDGET_BYTES, MIN_CACHED_BYTES,
};

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tpm_sync::CancelToken;

use crate::error::ExecError;
use crate::executor::Executor;
use crate::model::Model;
use crate::variant::KernelVariant;

/// One executable request: which kernel, under which model/variant, how big,
/// on how many threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Registry name of the kernel (`"sum"`, `"matmul"`, …).
    pub kernel: String,
    /// Threading model to execute under.
    pub model: Model,
    /// Reference or optimized data path.
    pub variant: KernelVariant,
    /// Problem size (kernel-defined meaning: elements, matrix order, …).
    pub size: usize,
    /// Thread count for the executor the job runs on.
    pub threads: usize,
}

/// What a completed job reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Kernel-defined scalar output (sum, checksum, node count, …) so
    /// clients can sanity-check results across models.
    pub value: f64,
    /// Wall-clock time of the run phase only: the kernel body, the paper's
    /// timed region. Input lookup, allocation and generation are in
    /// [`prepare`](Self::prepare), not here.
    pub elapsed: Duration,
    /// Wall-clock time of the prepare phase: input-cache lookup plus, on a
    /// miss, allocation and generation. Zero for jobs registered without
    /// one.
    pub prepare: Duration,
}

/// Everything a job body gets to run with.
#[derive(Debug)]
pub struct JobCtx<'a> {
    /// Executor sized to `spec.threads`.
    pub exec: &'a Executor,
    /// The validated request.
    pub spec: &'a JobSpec,
    /// Cancellation/deadline token; bodies poll it between work grains
    /// (the runtimes additionally poll at chunk/steal boundaries).
    pub token: &'a CancelToken,
    /// The registry's input cache, shared by every job and worker.
    pub inputs: &'a InputCache,
}

type JobFn = Box<dyn Fn(&JobCtx<'_>) -> Result<JobResult, ExecError> + Send + Sync>;

struct JobEntry {
    description: &'static str,
    max_size: usize,
    run: JobFn,
}

/// Name → job-function table. Populated once at startup, then shared
/// (read-only) across server workers.
#[derive(Default)]
pub struct JobRegistry {
    jobs: BTreeMap<&'static str, JobEntry>,
    inputs: InputCache,
}

impl JobRegistry {
    /// An empty registry with the standard input cache
    /// ([`INPUT_CACHE_BUDGET_BYTES`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry over `inputs` (tests bring a small-budget cache so
    /// eviction and bypass are reachable at small sizes).
    #[must_use]
    pub fn with_inputs(inputs: InputCache) -> Self {
        Self {
            jobs: BTreeMap::new(),
            inputs,
        }
    }

    /// Registers a job with no prepare phase: `run` is timed whole as the
    /// body. See [`register_prepared`](Self::register_prepared).
    pub fn register<F>(
        &mut self,
        name: &'static str,
        description: &'static str,
        max_size: usize,
        run: F,
    ) where
        F: Fn(&JobCtx<'_>) -> Result<f64, ExecError> + Send + Sync + 'static,
    {
        self.register_prepared(
            name,
            description,
            max_size,
            |_| Ok(()),
            move |ctx, _: &()| run(ctx),
        );
    }

    /// Registers a two-phase job under `name`: `prepare` produces the input
    /// (timed into [`JobResult::prepare`]) and `run` computes on it (timed
    /// into [`JobResult::elapsed`]). `max_size` bounds `JobSpec::size` so a
    /// hostile request cannot demand a terabyte allocation; oversized specs
    /// fail validation as [`ExecError::BadConfig`]. Re-registering a name
    /// replaces the entry.
    pub fn register_prepared<I, P, F>(
        &mut self,
        name: &'static str,
        description: &'static str,
        max_size: usize,
        prepare: P,
        run: F,
    ) where
        P: Fn(&JobCtx<'_>) -> Result<I, ExecError> + Send + Sync + 'static,
        F: Fn(&JobCtx<'_>, &I) -> Result<f64, ExecError> + Send + Sync + 'static,
    {
        let timed = move |ctx: &JobCtx<'_>| {
            let start = Instant::now();
            let input = prepare(ctx)?;
            let prepared = Instant::now();
            let value = run(ctx, &input)?;
            Ok(JobResult {
                value,
                elapsed: prepared.elapsed(),
                prepare: prepared - start,
            })
        };
        self.jobs.insert(
            name,
            JobEntry {
                description,
                max_size,
                run: Box::new(timed),
            },
        );
    }

    /// The input cache every job of this registry shares.
    pub fn inputs(&self) -> &InputCache {
        &self.inputs
    }

    /// Registered kernel names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.jobs.keys().copied().collect()
    }

    /// The one-line description of `name`, if registered.
    pub fn describe(&self, name: &str) -> Option<&'static str> {
        self.jobs.get(name).map(|e| e.description)
    }

    /// Checks a spec without running it: known kernel, size within the
    /// kernel's bound, sane thread count.
    pub fn validate(&self, spec: &JobSpec) -> Result<(), ExecError> {
        let entry = self
            .jobs
            .get(spec.kernel.as_str())
            .ok_or_else(|| ExecError::BadConfig(format!("unknown kernel {:?}", spec.kernel)))?;
        if spec.size == 0 {
            return Err(ExecError::BadConfig("size must be >= 1".to_string()));
        }
        if spec.size > entry.max_size {
            return Err(ExecError::BadConfig(format!(
                "size {} exceeds {}'s limit {}",
                spec.size, spec.kernel, entry.max_size
            )));
        }
        if spec.threads == 0 {
            return Err(ExecError::BadConfig("threads must be >= 1".to_string()));
        }
        Ok(())
    }

    /// Validates `spec` and runs it on `exec` under `token`, timing the
    /// prepare and run phases separately.
    /// `exec` must be sized to `spec.threads` (the caller owns executor
    /// caching; a mismatch is a [`ExecError::BadConfig`]).
    pub fn run(
        &self,
        exec: &Executor,
        spec: &JobSpec,
        token: &CancelToken,
    ) -> Result<JobResult, ExecError> {
        self.validate(spec)?;
        if exec.threads() != spec.threads {
            return Err(ExecError::BadConfig(format!(
                "executor has {} threads, spec wants {}",
                exec.threads(),
                spec.threads
            )));
        }
        token.check()?;
        let entry = &self.jobs[spec.kernel.as_str()];
        let ctx = JobCtx {
            exec,
            spec,
            token,
            inputs: &self.inputs,
        };
        (entry.run)(&ctx)
    }
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRegistry")
            .field("kernels", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kernel: &str, size: usize, threads: usize) -> JobSpec {
        JobSpec {
            kernel: kernel.to_string(),
            model: Model::OmpFor,
            variant: KernelVariant::Reference,
            size,
            threads,
        }
    }

    fn toy_registry() -> JobRegistry {
        let mut reg = JobRegistry::new();
        reg.register("double", "2x the size", 1_000_000, |ctx| {
            ctx.token.check()?;
            Ok(ctx.spec.size as f64 * 2.0)
        });
        reg
    }

    #[test]
    fn runs_and_times_a_job() {
        let reg = toy_registry();
        let exec = Executor::new(1);
        let r = reg
            .run(&exec, &spec("double", 21, 1), &CancelToken::new())
            .unwrap();
        assert_eq!(r.value, 42.0);
    }

    #[test]
    fn prepare_and_body_are_timed_separately() {
        let mut reg = JobRegistry::new();
        reg.register_prepared(
            "slow-input",
            "sleeps in prepare",
            10,
            |ctx| {
                std::thread::sleep(Duration::from_millis(20));
                Ok(ctx.spec.size as f64)
            },
            |_, &input| Ok(input + 1.0),
        );
        let exec = Executor::new(1);
        let r = reg
            .run(&exec, &spec("slow-input", 2, 1), &CancelToken::new())
            .unwrap();
        assert_eq!(r.value, 3.0);
        assert!(r.prepare >= Duration::from_millis(20), "{r:?}");
        assert!(r.elapsed < r.prepare, "{r:?}");
    }

    #[test]
    fn jobs_reach_the_registry_cache_through_their_context() {
        let mut reg = JobRegistry::new();
        reg.register_prepared(
            "cached",
            "caches its size",
            10,
            |ctx| {
                ctx.inputs
                    .get_or_try_build("cached", ctx.spec.size, MIN_CACHED_BYTES, || {
                        Ok(ctx.spec.size)
                    })
            },
            |_, input| Ok(**input as f64),
        );
        let exec = Executor::new(1);
        for _ in 0..3 {
            let r = reg.run(&exec, &spec("cached", 7, 1), &CancelToken::new());
            assert_eq!(r.unwrap().value, 7.0);
        }
        let stats = reg.inputs().stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn bad_specs_are_bad_config() {
        let reg = toy_registry();
        let exec = Executor::new(1);
        let t = CancelToken::new();
        for s in [
            spec("nope", 10, 1),
            spec("double", 0, 1),
            spec("double", usize::MAX, 1),
            spec("double", 10, 0),
            spec("double", 10, 2), // executor sized 1
        ] {
            match reg.run(&exec, &s, &t) {
                Err(ExecError::BadConfig(_)) => {}
                other => panic!("{s:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_token_short_circuits() {
        let reg = toy_registry();
        let exec = Executor::new(1);
        let t = CancelToken::new();
        t.cancel();
        assert_eq!(
            reg.run(&exec, &spec("double", 10, 1), &t),
            Err(ExecError::Cancelled)
        );
    }

    #[test]
    fn names_and_describe() {
        let reg = toy_registry();
        assert_eq!(reg.names(), vec!["double"]);
        assert_eq!(reg.describe("double"), Some("2x the size"));
        assert_eq!(reg.describe("nope"), None);
    }
}
