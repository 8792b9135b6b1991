//! Native (real-runtime) experiments: the same kernels and applications run
//! on this machine's actual threads through the four real runtimes.
//!
//! On a many-core host these sweep like the paper's figures; on the 1-core
//! CI host they measure *overhead ordering* (which runtime's mechanism costs
//! more at equal thread counts), which is the paper's explanatory variable.

use tpm_core::{timing, Executor, Figure, KernelVariant, Model, Pattern, Series, Sweep};
use tpm_kernels::util::infallible;
use tpm_kernels::{Axpy, Fib, Matmul, Matvec, Sum};
use tpm_rodinia::{Bfs, HotSpot, LavaMd, Lud, Srad};
use tpm_sync::CancelToken;

/// Native experiment configuration.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Problem-size scale factor numerator (size = paper size / divisor,
    /// per experiment below).
    pub scale: usize,
    /// Timed repetitions (median taken).
    pub reps: usize,
    /// Kernel data-path variant (`--kernel-variant`): paper-faithful scalar
    /// bodies or the vectorized/blocked optimized bodies. The Rodinia apps
    /// have one body each and ignore it.
    pub variant: KernelVariant,
    /// Models to sweep (`--model all` or a comma list; defaults to the whole
    /// registry).
    pub models: Vec<Model>,
}

impl Default for NativeConfig {
    fn default() -> Self {
        Self {
            threads: vec![1, 2, 4],
            scale: 1,
            reps: 3,
            variant: KernelVariant::Reference,
            models: Model::ALL.to_vec(),
        }
    }
}

impl NativeConfig {
    /// An executor at the sweep's widest thread count, used to first-touch
    /// kernel inputs with the same parallel distribution the timed kernels
    /// use (pages land on the threads that stream them).
    fn alloc_exec(&self) -> Executor {
        Executor::new(self.threads.iter().copied().max().unwrap_or(1))
    }
}

fn sweep(
    title: &str,
    cfg: &NativeConfig,
    models: &[Model],
    run: impl FnMut(&Executor, Model),
) -> Figure {
    Sweep::over(cfg.threads.clone())
        .reps(cfg.reps)
        .figure(title, models, run)
}

/// Native Fig. 1: Axpy.
pub fn fig1_axpy(cfg: &NativeConfig) -> Figure {
    let k = Axpy::native(1_000_000 * cfg.scale);
    let (x, y0) = match cfg.variant {
        KernelVariant::Reference => k.alloc(),
        KernelVariant::Optimized => k.alloc_on(&cfg.alloc_exec(), Model::OmpFor),
    };
    let (mut y, token) = (y0.clone(), CancelToken::new());
    sweep("Fig.1 Axpy (native)", cfg, &cfg.models, |exec, m| {
        y.copy_from_slice(&y0);
        infallible(m, k.try_run_v(exec, m, cfg.variant, &x, &mut y, &token));
    })
}

/// Native Fig. 2: Sum.
pub fn fig2_sum(cfg: &NativeConfig) -> Figure {
    let k = Sum::native(1_000_000 * cfg.scale);
    let x = match cfg.variant {
        KernelVariant::Reference => k.alloc(),
        KernelVariant::Optimized => k.alloc_on(&cfg.alloc_exec(), Model::OmpFor),
    };
    let token = CancelToken::new();
    sweep("Fig.2 Sum (native)", cfg, &cfg.models, |exec, m| {
        std::hint::black_box(infallible(m, k.try_run_v(exec, m, cfg.variant, &x, &token)));
    })
}

/// Native Fig. 3: Matvec.
pub fn fig3_matvec(cfg: &NativeConfig) -> Figure {
    let k = Matvec::native(512 * cfg.scale);
    let (a, x) = match cfg.variant {
        KernelVariant::Reference => k.alloc(),
        KernelVariant::Optimized => k.alloc_on(&cfg.alloc_exec(), Model::OmpFor),
    };
    let token = CancelToken::new();
    sweep("Fig.3 Matvec (native)", cfg, &cfg.models, |exec, m| {
        let r = k.try_run_v(exec, m, cfg.variant, &a, &x, &token);
        std::hint::black_box(infallible(m, r));
    })
}

/// Native Fig. 4: Matmul.
pub fn fig4_matmul(cfg: &NativeConfig) -> Figure {
    let k = Matmul::native(128 * cfg.scale);
    let (a, b) = match cfg.variant {
        KernelVariant::Reference => k.alloc(),
        KernelVariant::Optimized => k.alloc_on(&cfg.alloc_exec(), Model::OmpFor),
    };
    let token = CancelToken::new();
    sweep("Fig.4 Matmul (native)", cfg, &cfg.models, |exec, m| {
        let r = k.try_run_v(exec, m, cfg.variant, &a, &b, &token);
        std::hint::black_box(infallible(m, r));
    })
}

/// Native Fig. 5: Fibonacci — the task-parallel variant of each pooled
/// family, as in the paper (plain-thread recursion is absent: "the system
/// hangs"). The series list comes from the registry, so a new family's
/// task variant appears here without edits.
pub fn fig5_fib(cfg: &NativeConfig) -> Figure {
    let k = Fib::native(24 + (cfg.scale.min(8) as u64));
    let mut fig = Figure::new("Fig.5 Fibonacci (native, task variants)");
    let models: Vec<Model> = cfg
        .models
        .iter()
        .copied()
        .filter(|m| m.pattern() == Pattern::Task && m.family().has_pooled_runtime())
        .collect();
    for model in models {
        let mut s = Series::new(model.name());
        for &p in &cfg.threads {
            let exec = Executor::new(p);
            let d = timing::median_time(1, cfg.reps, || {
                std::hint::black_box(k.run(&exec, model));
            });
            s.push(p, d.as_secs_f64());
        }
        fig.series.push(s);
    }
    fig
}

/// Native Fig. 6: BFS.
pub fn fig6_bfs(cfg: &NativeConfig) -> Figure {
    let b = Bfs::native(50_000 * cfg.scale);
    let g = b.generate();
    sweep("Fig.6 Rodinia BFS (native)", cfg, &cfg.models, |exec, m| {
        std::hint::black_box(b.run(exec, m, &g));
    })
}

/// Native Fig. 7: HotSpot.
pub fn fig7_hotspot(cfg: &NativeConfig) -> Figure {
    let h = HotSpot::native(128 * cfg.scale, 10);
    let (t, p) = h.generate();
    sweep(
        "Fig.7 Rodinia HotSpot (native)",
        cfg,
        &cfg.models,
        |exec, m| {
            std::hint::black_box(h.run(exec, m, &t, &p));
        },
    )
}

/// Native Fig. 8: LUD.
pub fn fig8_lud(cfg: &NativeConfig) -> Figure {
    let l = Lud::native(96 * cfg.scale);
    let a = l.generate();
    sweep("Fig.8 Rodinia LUD (native)", cfg, &cfg.models, |exec, m| {
        std::hint::black_box(l.run(exec, m, &a));
    })
}

/// Native Fig. 9: LavaMD.
pub fn fig9_lavamd(cfg: &NativeConfig) -> Figure {
    let l = LavaMd::native(3 * cfg.scale.min(4), 16);
    let particles = l.generate();
    sweep(
        "Fig.9 Rodinia LavaMD (native)",
        cfg,
        &cfg.models,
        |exec, m| {
            std::hint::black_box(l.run(exec, m, &particles));
        },
    )
}

/// Native Fig. 10: SRAD.
pub fn fig10_srad(cfg: &NativeConfig) -> Figure {
    let s = Srad::native(96 * cfg.scale, 4);
    let img = s.generate();
    sweep(
        "Fig.10 Rodinia SRAD (native)",
        cfg,
        &cfg.models,
        |exec, m| {
            std::hint::black_box(s.run(exec, m, &img));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NativeConfig {
        NativeConfig {
            threads: vec![1, 2],
            scale: 1,
            reps: 1,
            variant: KernelVariant::Reference,
            models: Model::ALL.to_vec(),
        }
    }

    #[test]
    fn native_fig1_produces_positive_times() {
        let cfg = tiny();
        let k = Axpy::native(10_000);
        let (x, y0) = k.alloc();
        let mut y = y0.clone();
        let fig = sweep("tiny axpy", &cfg, &cfg.models, |exec, m| {
            y.copy_from_slice(&y0);
            k.run(exec, m, &x, &mut y);
        });
        assert_eq!(fig.series.len(), Model::ALL.len());
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, v)| v > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn native_fig4_runs_optimized_variant() {
        let mut cfg = tiny();
        cfg.threads = vec![2];
        cfg.variant = KernelVariant::Optimized;
        let fig = fig4_matmul(&cfg);
        assert_eq!(fig.series.len(), Model::ALL.len());
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, v)| v > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn native_fib_has_one_series_per_pooled_task_variant() {
        let mut cfg = tiny();
        cfg.threads = vec![2];
        let fig = fig5_fib(&cfg);
        // omp_task, cilk_spawn, actor_task — derived from the registry.
        assert_eq!(fig.series.len(), 3);
        let labels: Vec<&str> = fig.series.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&Model::ActorTask.name()), "{labels:?}");
    }

    #[test]
    fn model_selection_narrows_the_sweep() {
        let mut cfg = tiny();
        cfg.models = vec![Model::OmpFor, Model::ActorFor];
        let k = Sum::native(5_000);
        let x = k.alloc();
        let fig = sweep("narrow sum", &cfg, &cfg.models, |exec, m| {
            std::hint::black_box(k.run(exec, m, &x));
        });
        let labels: Vec<&str> = fig.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["omp_for", "actor_for"]);
    }
}
