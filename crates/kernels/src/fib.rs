//! Fibonacci: recursive task parallelism (Fig. 5).
//!
//! "Fibonacci uses recursive task parallelism ... thus cilk_for and omp_for
//! are not practical. In addition, for recursive implementation in C++, when
//! problem size increases to 20 or above, the system hangs ... Thus, for
//! this application, only the performance of cilk_spawn and omp_task for
//! problem size 40 are provided." The finding: `cilk_spawn` ≈ 20% faster
//! than `omp_task` (lock-free vs lock-based task deques), except at 1 core.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use tpm_actors::{ActorRuntime, Promise};
use tpm_core::{Executor, Family, Model};
use tpm_forkjoin::{Ctx, Team};
use tpm_sim::FibWorkload;
use tpm_sync::SpinLock;
use tpm_worksteal::{join, Runtime, WorkerCtx};

/// Fibonacci problem instance.
#[derive(Debug, Clone, Copy)]
pub struct Fib {
    /// Argument (paper: 40).
    pub n: u64,
    /// Sequential cutoff for the task versions (tasks are spawned only above
    /// this argument; standard practice to bound task granularity).
    pub cutoff: u64,
}

impl Fib {
    /// The paper's configuration: fib(40).
    pub fn paper() -> Self {
        Self { n: 40, cutoff: 18 }
    }

    /// A scaled-down instance for native runs.
    pub fn native(n: u64) -> Self {
        Self {
            n,
            cutoff: n.saturating_sub(8).max(2),
        }
    }

    /// Sequential recursive reference (the same recurrence every version
    /// computes, so times are comparable).
    pub fn seq(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            Self::seq(n - 1) + Self::seq(n - 2)
        }
    }

    /// Runs the task version of `model`'s family on `exec`'s runtimes: a
    /// family has one spawn mechanism, so both of its models run the same
    /// recursion.
    pub fn run(&self, exec: &Executor, model: Model) -> u64 {
        match model.family() {
            Family::OpenMp => self.run_omp_task(exec.team()),
            Family::CilkPlus => self.run_cilk_spawn(exec.worksteal()),
            Family::Cxx11 => self.run_cxx_async(),
            Family::Actors => self.run_actor_task(exec.actors()),
        }
    }

    /// `omp_task` version: `parallel` + `single` + recursive `task`/`taskwait`.
    pub fn run_omp_task(&self, team: &Team) -> u64 {
        fn rec(ctx: &Ctx<'_>, n: u64, cutoff: u64) -> u64 {
            if n < 2 || n <= cutoff {
                return Fib::seq(n);
            }
            let mut a = 0;
            let mut b = 0;
            ctx.task_scope(|s| {
                s.spawn(|c| a = rec(c, n - 1, cutoff));
                b = rec(ctx, n - 2, cutoff);
            });
            a + b
        }
        let result = std::sync::atomic::AtomicU64::new(0);
        let (n, cutoff) = (self.n, self.cutoff);
        team.parallel(|ctx| {
            ctx.single(|| {
                result.store(rec(ctx, n, cutoff), std::sync::atomic::Ordering::Relaxed);
            });
        });
        result.into_inner()
    }

    /// `cilk_spawn` version: recursive `join` on the work-stealing runtime.
    pub fn run_cilk_spawn(&self, rt: &Runtime) -> u64 {
        fn rec(ctx: &WorkerCtx<'_>, n: u64, cutoff: u64) -> u64 {
            if n < 2 || n <= cutoff {
                return Fib::seq(n);
            }
            let (a, b) = join(ctx, |c| rec(c, n - 1, cutoff), |c| rec(c, n - 2, cutoff));
            a + b
        }
        let (n, cutoff) = (self.n, self.cutoff);
        rt.install(move |ctx| rec(ctx, n, cutoff))
    }

    /// C++11 `std::async` recursive version *with* cutoff (the workable one).
    pub fn run_cxx_async(&self) -> u64 {
        tpm_rawthreads::fib_with_cutoff(self.n, self.cutoff)
    }

    /// Actor-parcel version: continuation-passing join tree. Each node above
    /// the cutoff spawns its left child as a stealable activation and walks
    /// the right child inline; children complete promises whose
    /// continuations fold into a shared join cell, and the *last* child to
    /// arrive propagates the sum upward on its own thread — no worker ever
    /// blocks on a dependency (the HPX/Charm++ dataflow style, vs. the
    /// blocking `join` of `cilk_spawn`). The caller waits for the root's
    /// promise through the runtime ([`ActorRuntime::block_on`]), working as
    /// worker 0 meanwhile.
    pub fn run_actor_task(&self, rt: &ActorRuntime) -> u64 {
        struct JoinCell {
            sum: AtomicU64,
            pending: AtomicUsize,
            out: SpinLock<Option<Promise<u64>>>,
        }

        fn child(cell: Arc<JoinCell>) -> Promise<u64> {
            Promise::on_complete(move |v| {
                cell.sum.fetch_add(v, Ordering::Relaxed);
                if cell.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let out = cell.out.lock().take().expect("join emits once");
                    out.set(cell.sum.load(Ordering::Relaxed));
                }
            })
        }

        fn node(ctx: &tpm_actors::WorkerCtx<'_>, n: u64, cutoff: u64, out: Promise<u64>) {
            if n < 2 || n <= cutoff {
                out.set(Fib::seq(n));
                return;
            }
            let cell = Arc::new(JoinCell {
                sum: AtomicU64::new(0),
                pending: AtomicUsize::new(2),
                out: SpinLock::new(Some(out)),
            });
            let left = child(Arc::clone(&cell));
            ctx.spawn(move |c| node(c, n - 1, cutoff, left));
            let right = child(cell);
            node(ctx, n - 2, cutoff, right);
        }

        let (future, promise) = tpm_actors::future();
        let (n, cutoff) = (self.n, self.cutoff);
        rt.spawn(move |ctx| node(ctx, n, cutoff, promise));
        rt.block_on(future)
    }

    /// C++11 naive version (no cutoff): returns the paper's failure mode as
    /// an error when the thread budget would be exceeded.
    pub fn run_cxx_naive(
        &self,
        budget: &tpm_rawthreads::ThreadBudget,
    ) -> Result<u64, tpm_rawthreads::ThreadExplosion> {
        tpm_rawthreads::fib_thread_per_call(self.n, budget)
    }

    /// Simulator descriptor for the paper-scale run.
    pub fn sim_workload(&self) -> FibWorkload {
        FibWorkload {
            n: self.n,
            leaf_cutoff: self.cutoff,
            call_ns: 2.2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_versions_agree_with_sequential() {
        let k = Fib::native(22);
        let expected = Fib::seq(22);
        assert_eq!(expected, 17_711);
        let team = Team::new(4);
        assert_eq!(k.run_omp_task(&team), expected);
        let rt = Runtime::new(4);
        assert_eq!(k.run_cilk_spawn(&rt), expected);
        assert_eq!(k.run_cxx_async(), expected);
        let actors = ActorRuntime::new(4);
        assert_eq!(k.run_actor_task(&actors), expected);
    }

    #[test]
    fn actor_version_handles_base_cases_and_deep_trees() {
        let actors = ActorRuntime::new(2);
        assert_eq!(Fib { n: 0, cutoff: 0 }.run_actor_task(&actors), 0);
        assert_eq!(Fib { n: 1, cutoff: 0 }.run_actor_task(&actors), 1);
        // cutoff 0: every node above the leaves is a spawned activation.
        assert_eq!(Fib { n: 16, cutoff: 0 }.run_actor_task(&actors), 987);
        // Runtime stays healthy for a second tree.
        assert_eq!(Fib { n: 18, cutoff: 4 }.run_actor_task(&actors), 2584);
    }

    #[test]
    fn naive_cxx_explodes_like_the_paper_says() {
        let k = Fib { n: 20, cutoff: 0 };
        let budget = tpm_rawthreads::ThreadBudget::new(128);
        assert!(k.run_cxx_naive(&budget).is_err());
    }

    #[test]
    fn base_cases() {
        assert_eq!(Fib::seq(0), 0);
        assert_eq!(Fib::seq(1), 1);
        let team = Team::new(2);
        assert_eq!(Fib { n: 1, cutoff: 0 }.run_omp_task(&team), 1);
        let rt = Runtime::new(2);
        assert_eq!(Fib { n: 0, cutoff: 0 }.run_cilk_spawn(&rt), 0);
    }

    #[test]
    fn cutoff_does_not_change_the_value() {
        let rt = Runtime::new(2);
        for cutoff in [0, 5, 30] {
            assert_eq!(Fib { n: 18, cutoff }.run_cilk_spawn(&rt), Fib::seq(18));
        }
    }
}
