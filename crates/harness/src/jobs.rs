//! The harness's job registry: every kernel the server can run by name.
//!
//! [`tpm_core::JobRegistry`] deliberately knows nothing about concrete
//! kernels (the dependency points the other way), so this module is where
//! the suite's kernels become service-dispatchable. Each body returns a
//! scalar (sum, checksum, reached-node count) so clients can sanity-check
//! results across models, and each cooperates with cancellation:
//!
//! * Flat loops (`sum`, `axpy`) poll the token every [`POLL_EVERY`]
//!   elements inside their chunk, on top of the executor's own
//!   chunk-boundary polls — so even a single static chunk covering the
//!   whole range stops within one poll interval.
//! * Row-parallel kernels (`matvec`, `matmul`) poll per row; one row is
//!   the scheduling grain a deadline is observed within.
//! * Phase-structured kernels (`fib`, `bfs`, `hotspot`) check before and
//!   after the run (their inner loops are the runtimes' own, which poll at
//!   chunk boundaries).
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

/// Elements processed between cancellation polls inside flat loop bodies.
const POLL_EVERY: usize = 4096;

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
            let k = Sum::native(ctx.spec.size);
            let (a, token) = (k.a, ctx.token);
            ctx.exec.try_parallel_reduce(
                ctx.spec.model,
                0..k.n,
                token,
                || 0.0f64,
                |l, r| l + r,
                |chunk, acc: &mut f64| {
                    let mut i = chunk.start;
                    while i < chunk.end {
                        if token.is_cancelled() {
                            return;
                        }
                        let end = (i + POLL_EVERY).min(chunk.end);
                        let mut local = 0.0;
                        for &xi in &x[i..end] {
                            local += a * xi;
                        }
                        *acc += local;
                        i = end;
                    }
                },
            )
        },
    );

    reg.register_prepared(
        "axpy",
        "checksum of a*x[i] + y[i]",
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
            let k = Axpy::native(ctx.spec.size);
            let (x, y) = &**xy;
            let (a, token) = (k.a, ctx.token);
            ctx.exec.try_parallel_reduce(
                ctx.spec.model,
                0..k.n,
                token,
                || 0.0f64,
                |l, r| l + r,
                |chunk, acc: &mut f64| {
                    let mut i = chunk.start;
                    while i < chunk.end {
                        if token.is_cancelled() {
                            return;
                        }
                        let end = (i + POLL_EVERY).min(chunk.end);
                        let mut local = 0.0;
                        for j in i..end {
                            local += a * x[j] + y[j];
                        }
                        *acc += local;
                        i = end;
                    }
                },
            )
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
            let n = ctx.spec.size;
            let (a, x) = &**ax;
            let token = ctx.token;
            ctx.exec.try_parallel_reduce(
                ctx.spec.model,
                0..n,
                token,
                || 0.0f64,
                |l, r| l + r,
                |rows, acc: &mut f64| {
                    for i in rows {
                        if token.is_cancelled() {
                            return;
                        }
                        let row = &a[i * n..(i + 1) * n];
                        let mut yi = 0.0;
                        for j in 0..n {
                            yi += row[j] * x[j];
                        }
                        *acc += yi;
                    }
                },
            )
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
            let n = ctx.spec.size;
            let (a, b) = &**ab;
            let token = ctx.token;
            ctx.exec.try_parallel_reduce(
                ctx.spec.model,
                0..n,
                token,
                || 0.0f64,
                |l, r| l + r,
                |rows, acc: &mut f64| {
                    // One row of C per cancellation poll: the deadline grain.
                    for i in rows {
                        if token.is_cancelled() {
                            return;
                        }
                        let arow = &a[i * n..(i + 1) * n];
                        let mut rowsum = 0.0;
                        for (kk, &aik) in arow.iter().enumerate() {
                            let brow = &b[kk * n..(kk + 1) * n];
                            for &bkj in brow {
                                rowsum += aik * bkj;
                            }
                        }
                        *acc += rowsum;
                    }
                },
            )
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
            let (cost, _levels) = k.run(ctx.exec, ctx.spec.model, g);
            poll(ctx)?;
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
            let k = hotspot(ctx);
            let (temp, power) = &**grids;
            let out = k.run_v(ctx.exec, ctx.spec.model, ctx.spec.variant, temp, power);
            poll(ctx)?;
            Ok(out.iter().sum::<f64>() / out.len() as f64)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tpm_core::{Executor, JobSpec, KernelVariant, Model};
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

    #[test]
    fn expired_deadline_stops_matmul_within_a_row() {
        let reg = registry();
        let exec = Executor::new(2);
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = reg.run(&exec, &spec("matmul", 256), &token).unwrap_err();
        assert_eq!(err, ExecError::Deadline);
    }
}
