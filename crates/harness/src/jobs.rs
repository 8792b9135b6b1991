//! The harness's job registry: every kernel the server can run by name.
//!
//! [`tpm_core::JobRegistry`] deliberately knows nothing about concrete
//! kernels (the dependency points the other way), so this module is where
//! the suite's kernels become service-dispatchable. Every job body is one
//! call to the same `try_run*` kernel body the figures time, under the
//! job's own executor, model, variant and token, plus a scalar checksum
//! (sum, Σ of the output, reached-node count) so clients can sanity-check
//! results across models. Every job honours `spec.variant` where its kernel
//! has one (`fib` and `bfs` have a single body).
//!
//! Where each job polls its token, on top of the one check after prepare
//! and the executor's own poll at every chunk boundary:
//!
//! * `sum`, `axpy`: once per [`POLL_EVERY`](tpm_kernels::util::POLL_EVERY)
//!   block inside each chunk, so even a static schedule's single chunk per
//!   thread stops within one block.
//! * `matvec`, `matmul`: once per row (per 32-row block in the optimized
//!   matmul).
//! * `bfs`, `hotspot`: every phase is its own region, so a fired token stops
//!   the run at the next phase or chunk boundary.
//! * `fib`: task trees have no chunk stream; it checks before and after.
//!
//! The bodies only read their input: `axpy` updates a private copy of `y`
//! (8n bytes per job), and `matvec`/`matmul` allocate their output (8n and
//! 8n² bytes) as the figures do.
//!
//! Every job that reads an input is registered in two phases
//! ([`JobRegistry::register_prepared`]): *prepare* obtains the input through
//! `input` — shared from the registry's [`tpm_core::job::InputCache`] when it
//! is big enough to be worth sharing — and *run* is the kernel body alone.
//! Inputs are a pure function of `(kernel, size)` (fixed seeds; model,
//! variant and thread count play no part) and the bodies only read them,
//! which is what makes one copy valid for every model and worker.

use std::sync::Arc;

use tpm_core::job::{JobCtx, MIN_CACHED_BYTES};
use tpm_core::{ExecError, JobRegistry};
use tpm_kernels::{Axpy, Fib, Matmul, Matvec, Sum};
use tpm_rodinia::{Bfs, HotSpot};

const F64: usize = std::mem::size_of::<f64>();

/// Checks the job's token, converting a fired reason into the exec error.
fn poll(ctx: &JobCtx<'_>) -> Result<(), ExecError> {
    ctx.token.check().map_err(ExecError::from)
}

/// The input of `kernel` at `ctx.spec.size`, `bytes` big.
///
/// Under [`MIN_CACHED_BYTES`] it is built by `sequential` on this thread,
/// per request: such an input is L2-resident and comes out of the thread's
/// malloc arena without a page fault, so a parallel region or a shared
/// lookup would cost more than the microseconds it takes. From there up it
/// comes from the registry's cache; a miss runs `parallel`, the kernel's
/// cancellable first-touch generator under the job's own executor, model
/// and token (bitwise the same values as `sequential`).
fn input<T: Send + Sync + 'static>(
    ctx: &JobCtx<'_>,
    kernel: &'static str,
    bytes: usize,
    sequential: impl FnOnce() -> T,
    parallel: impl FnOnce() -> Result<T, ExecError>,
) -> Result<Arc<T>, ExecError> {
    let input = if bytes < MIN_CACHED_BYTES {
        Arc::new(sequential())
    } else {
        ctx.inputs
            .get_or_try_build(kernel, ctx.spec.size, bytes, parallel)?
    };
    poll(ctx)?;
    Ok(input)
}

/// The `hotspot` job's instance: 4 time steps at the requested grid size.
fn hotspot(ctx: &JobCtx<'_>) -> HotSpot {
    HotSpot::native(ctx.spec.size, 4)
}

/// Builds the registry of every kernel `tpm-harness serve` exposes.
pub fn registry() -> JobRegistry {
    let mut reg = JobRegistry::new();
    register_all(&mut reg);
    reg
}

/// Registers the whole suite into `reg`.
pub fn register_all(reg: &mut JobRegistry) {
    reg.register_prepared(
        "sum",
        "sum of a*x[i] (flat reduction)",
        1 << 26,
        |ctx| {
            let k = Sum::native(ctx.spec.size);
            input(
                ctx,
                "sum",
                k.n * F64,
                || k.alloc(),
                || k.try_alloc_on(ctx.exec, ctx.spec.model, ctx.token),
            )
        },
        |ctx, x| {
            let (exec, model, variant) = (ctx.exec, ctx.spec.model, ctx.spec.variant);
            Sum::native(ctx.spec.size).try_run_v(exec, model, variant, x, ctx.token)
        },
    );

    reg.register_prepared(
        "axpy",
        "checksum of y = a*x + y",
        1 << 26,
        |ctx| {
            let k = Axpy::native(ctx.spec.size);
            input(
                ctx,
                "axpy",
                2 * k.n * F64,
                || k.alloc(),
                || k.try_alloc_on(ctx.exec, ctx.spec.model, ctx.token),
            )
        },
        |ctx, xy| {
            let (exec, model, variant) = (ctx.exec, ctx.spec.model, ctx.spec.variant);
            let (x, y) = &**xy;
            // The kernel updates y in place; the cached input stays shared.
            let mut y = y.clone();
            Axpy::native(ctx.spec.size).try_run_v(exec, model, variant, x, &mut y, ctx.token)?;
            Ok(y.iter().sum())
        },
    );

    reg.register_prepared(
        "matvec",
        "checksum of y = A*x (row-parallel)",
        1 << 13,
        |ctx| {
            let k = Matvec::native(ctx.spec.size);
            input(
                ctx,
                "matvec",
                (k.n * k.n + k.n) * F64,
                || k.alloc(),
                || k.try_alloc_on(ctx.exec, ctx.spec.model, ctx.token),
            )
        },
        |ctx, ax| {
            let (exec, model, variant) = (ctx.exec, ctx.spec.model, ctx.spec.variant);
            let (a, x) = &**ax;
            let k = Matvec::native(ctx.spec.size);
            Ok(k.try_run_v(exec, model, variant, a, x, ctx.token)?
                .iter()
                .sum())
        },
    );

    reg.register_prepared(
        "matmul",
        "checksum of C = A*B (row-parallel)",
        1 << 11,
        |ctx| {
            let k = Matmul::native(ctx.spec.size);
            input(
                ctx,
                "matmul",
                2 * k.n * k.n * F64,
                || k.alloc(),
                || k.try_alloc_on(ctx.exec, ctx.spec.model, ctx.token),
            )
        },
        |ctx, ab| {
            let (exec, model, variant) = (ctx.exec, ctx.spec.model, ctx.spec.variant);
            let (a, b) = &**ab;
            let k = Matmul::native(ctx.spec.size);
            Ok(k.try_run_v(exec, model, variant, a, b, ctx.token)?
                .iter()
                .sum())
        },
    );

    reg.register("fib", "recursive Fibonacci (task-parallel)", 32, |ctx| {
        poll(ctx)?;
        let k = Fib::native(ctx.spec.size as u64);
        // Task trees have no chunk stream to poll; run the requested model's
        // family's spawn mechanism and check before/after.
        let v = k.run(ctx.exec, ctx.spec.model);
        poll(ctx)?;
        Ok(v as f64)
    });

    reg.register_prepared(
        "bfs",
        "breadth-first search (reached nodes)",
        1 << 20,
        |ctx| {
            let k = Bfs::native(ctx.spec.size);
            // Graph generation is one sequential stream either way; the
            // charge is the bound known before generating.
            input(
                ctx,
                "bfs",
                k.max_input_bytes(),
                || k.generate(),
                || k.try_generate(ctx.token),
            )
        },
        |ctx, g| {
            let k = Bfs::native(ctx.spec.size);
            let (cost, _levels) = k.try_run(ctx.exec, ctx.spec.model, g, ctx.token)?;
            Ok(cost.iter().filter(|&&c| c >= 0).count() as f64)
        },
    );

    reg.register_prepared(
        "hotspot",
        "2-D thermal stencil, 4 steps (mean temp)",
        1 << 10,
        |ctx| {
            let k = hotspot(ctx);
            input(
                ctx,
                "hotspot",
                2 * k.n * k.n * F64,
                || k.generate(),
                || k.try_generate_on(ctx.exec, ctx.spec.model, ctx.token),
            )
        },
        |ctx, grids| {
            let (exec, model, variant) = (ctx.exec, ctx.spec.model, ctx.spec.variant);
            let (temp, power) = &**grids;
            let out = hotspot(ctx).try_run_v(exec, model, variant, temp, power, ctx.token)?;
            Ok(out.iter().sum::<f64>() / out.len() as f64)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use tpm_core::{Executor, JobResult, JobSpec, KernelVariant, Model};
    use tpm_sync::CancelToken;

    fn spec(kernel: &str, size: usize) -> JobSpec {
        JobSpec {
            kernel: kernel.to_string(),
            model: Model::OmpFor,
            variant: KernelVariant::Reference,
            size,
            threads: 2,
        }
    }

    #[test]
    fn registry_lists_the_whole_suite() {
        let names = registry().names();
        for want in ["sum", "axpy", "matvec", "matmul", "fib", "bfs", "hotspot"] {
            assert!(names.contains(&want), "missing job {want}: {names:?}");
        }
    }

    #[test]
    fn sum_job_matches_sequential() {
        let reg = registry();
        let exec = Executor::new(2);
        let s = spec("sum", 10_000);
        let r = reg.run(&exec, &s, &CancelToken::new()).unwrap();
        let k = Sum::native(s.size);
        let x = k.alloc();
        tpm_core::approx::scalar_close(r.value, k.seq(&x), 1e-9).unwrap();
    }

    #[test]
    fn sum_job_runs_the_requested_variant_bit_for_bit() {
        let reg = registry();
        let exec = Executor::new(1);
        let s = JobSpec {
            variant: KernelVariant::Optimized,
            threads: 1,
            ..spec("sum", 10_000)
        };
        let got = reg.run(&exec, &s, &CancelToken::new()).unwrap().value;
        let k = Sum::native(s.size);
        let want = k.try_run_v(&exec, s.model, s.variant, &k.alloc(), &CancelToken::new());
        assert_eq!(Ok(got.to_bits()), want.map(f64::to_bits));
    }

    #[test]
    fn matmul_job_agrees_with_reference_checksum() {
        let reg = registry();
        let exec = Executor::new(2);
        let s = spec("matmul", 48);
        let r = reg.run(&exec, &s, &CancelToken::new()).unwrap();
        let k = Matmul::native(48);
        let (a, b) = k.alloc();
        let want: f64 = k.seq(&a, &b).iter().sum();
        tpm_core::approx::scalar_close(r.value, want, 1e-9).unwrap();
    }

    #[test]
    fn every_job_runs_under_every_model_at_small_size() {
        let reg = registry();
        let exec = Executor::new(2);
        for name in reg.names() {
            for model in Model::ALL {
                let mut s = spec(name, 64);
                s.model = model;
                if name == "fib" {
                    s.size = 10;
                }
                let r = reg.run(&exec, &s, &CancelToken::new());
                assert!(r.is_ok(), "{name} under {model}: {r:?}");
            }
        }
    }

    /// A deadline that fires mid-body (the input is already cached, so the
    /// body starts at once) stops the row loop: the job returns `Deadline`
    /// long before an uncancelled run of the same spec would finish.
    #[test]
    fn expired_deadline_stops_matmul_within_a_row() {
        let reg = registry();
        let exec = Executor::new(2);
        let s = spec("matmul", 256);
        let full = reg.run(&exec, &s, &CancelToken::new()).unwrap().elapsed;
        let token = CancelToken::with_deadline(full / 10);
        let start = Instant::now();
        let err = reg.run(&exec, &s, &token).unwrap_err();
        let took = start.elapsed();
        assert_eq!(err, ExecError::Deadline);
        assert!(
            took < full / 2,
            "{took:?} to stop; a full run takes {full:?}"
        );
    }

    /// Runs `kernel` at `size` on one thread with a warm input cache while a
    /// second thread cancels the job's token as soon as the executor's
    /// counters show its first region, then reads how many loop chunks (one
    /// per region on one thread) had been dispatched by the time the cancel
    /// was stored. Returns the outcome, the chunks the cancelled job ran,
    /// that count at the cancel, and the chunks of an uncancelled run of the
    /// same spec.
    fn cancel_after_first_region(
        reg: &JobRegistry,
        exec: &Executor,
        s: &JobSpec,
    ) -> (Result<JobResult, ExecError>, u64, u64, u64) {
        let chunks = || -> u64 { exec.pooled_stats().iter().map(|(_, st)| st.chunks).sum() };
        reg.run(exec, s, &CancelToken::new()).unwrap();
        exec.reset_stats();
        reg.run(exec, s, &CancelToken::new()).unwrap();
        let full = chunks();
        exec.reset_stats();
        let token = CancelToken::new();
        let (r, at_cancel) = std::thread::scope(|scope| {
            let canceller = scope.spawn(|| {
                while chunks() == 0 {
                    std::thread::yield_now();
                }
                token.cancel();
                chunks()
            });
            let r = reg.run(exec, s, &token);
            (r, canceller.join().unwrap())
        });
        (r, chunks(), at_cancel, full)
    }

    /// A cancel stored while region `k` runs stops the job before region
    /// `k + 2`: regions check the token before dispatching their chunk, so
    /// at most the one whose check raced the cancel still runs. The
    /// canceller thread can be scheduled so late that every region has
    /// already started; such an attempt shows nothing and is run again.
    #[test]
    fn cancelled_bfs_and_hotspot_stop_at_the_next_region() {
        const ATTEMPTS: usize = 50;
        let reg = registry();
        let exec = Executor::new(1);
        for (kernel, size) in [("bfs", 1 << 17), ("hotspot", 256)] {
            let s = JobSpec {
                threads: 1,
                ..spec(kernel, size)
            };
            let mut landed = false;
            for _ in 0..ATTEMPTS {
                let (r, ran, at_cancel, full) = cancel_after_first_region(&reg, &exec, &s);
                if at_cancel + 1 >= full {
                    continue;
                }
                assert_eq!(r.unwrap_err(), ExecError::Cancelled, "{kernel}");
                assert!(
                    ran <= at_cancel + 1,
                    "{kernel}: {ran} of {full} regions ran, {at_cancel} had at the cancel"
                );
                landed = true;
                break;
            }
            assert!(
                landed,
                "{kernel}: no cancel of {ATTEMPTS} landed before the last region"
            );
        }
    }
}
