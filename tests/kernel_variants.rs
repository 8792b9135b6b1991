//! Property tests: the `Optimized` kernel data path must agree with the
//! paper-faithful `Reference` path for *every* model, thread count, and —
//! critically — awkward problem sizes: n = 0 and 1, sizes not divisible by
//! the unroll width (8 lanes) or the matmul block edges (MB=32, KU=4).
//! The stencils (HotSpot, SRAD) have one body each: every model, at 1–4
//! threads and on grids down to 1×1, must reproduce `seq` exactly.
//!
//! Axpy and the stencils evaluate the exact same per-element expression,
//! so they must match bitwise. Sum/Matvec/Matmul reassociate
//! floating-point additions, so they are compared with the relative-epsilon
//! helper from `threadcmp::approx`.

use proptest::prelude::*;

use threadcmp::approx::{scalar_close, slices_close};
use threadcmp::kernels::{Axpy, Matmul, Matvec, Sum};
use threadcmp::rodinia::{HotSpot, Srad};
use threadcmp::sync::CancelToken;
use threadcmp::{Executor, KernelVariant, Model};

fn model_strategy() -> impl Strategy<Value = Model> {
    prop_oneof![
        Just(Model::OmpFor),
        Just(Model::OmpTask),
        Just(Model::CilkFor),
        Just(Model::CilkSpawn),
        Just(Model::CxxThread),
        Just(Model::CxxAsync),
    ]
}

/// Sizes that stress lane/tile remainders: tiny degenerate cases plus
/// values straddling the 8-lane unroll and 32-row block boundaries.
fn awkward_n() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        2usize..18,
        30usize..40,
        62usize..70,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Axpy's unrolled body performs the identical `a*x+y` per element —
    /// bitwise equality, no tolerance.
    #[test]
    fn axpy_optimized_is_bitwise_identical(
        n in 0usize..600,
        threads in 1usize..6,
        model in model_strategy(),
    ) {
        let k = Axpy::native(n);
        let (x, y0) = k.alloc();
        let mut expected = y0.clone();
        k.seq(&x, &mut expected);
        let exec = Executor::new(threads);
        let mut y = y0.clone();
        k.try_run_v(&exec, model, KernelVariant::Optimized, &x, &mut y, &CancelToken::new()).unwrap();
        prop_assert_eq!(y, expected);
    }

    /// Sum's 8-accumulator reduction reassociates; it must stay within
    /// relative epsilon of the sequential fold.
    #[test]
    fn sum_optimized_matches_reference(
        n in 0usize..3000,
        threads in 1usize..6,
        model in model_strategy(),
    ) {
        let k = Sum::native(n);
        let x = k.alloc();
        let expected = k.seq(&x);
        let exec = Executor::new(threads);
        let got = k.try_run_v(&exec, model, KernelVariant::Optimized, &x, &CancelToken::new()).unwrap();
        prop_assert!(scalar_close(got, expected, 1e-10).is_ok(),
            "{}", scalar_close(got, expected, 1e-10).unwrap_err());
    }

    /// Matvec's split-accumulator dot products reassociate per row.
    #[test]
    fn matvec_optimized_matches_reference(
        n in awkward_n(),
        threads in 1usize..5,
        model in model_strategy(),
    ) {
        let k = Matvec::native(n);
        let (a, x) = k.alloc();
        let expected = k.seq(&a, &x);
        let exec = Executor::new(threads);
        let got = k.try_run_v(&exec, model, KernelVariant::Optimized, &a, &x, &CancelToken::new()).unwrap();
        prop_assert!(slices_close(&got, &expected, 1e-12).is_ok(),
            "{}", slices_close(&got, &expected, 1e-12).unwrap_err());
    }

    /// Blocked matmul reorders the k-loop into KB×JB tiles with a KU-unroll;
    /// both the parallel and the sequential blocked paths must agree with
    /// the naive triple loop.
    #[test]
    fn matmul_optimized_matches_reference(
        n in awkward_n(),
        threads in 1usize..5,
        model in model_strategy(),
    ) {
        let k = Matmul::native(n);
        let (a, b) = k.alloc();
        let expected = k.seq(&a, &b);
        let exec = Executor::new(threads);
        let got = k.try_run_v(&exec, model, KernelVariant::Optimized, &a, &b, &CancelToken::new()).unwrap();
        prop_assert!(slices_close(&got, &expected, 1e-12).is_ok(),
            "{}", slices_close(&got, &expected, 1e-12).unwrap_err());
        let seq_blocked = k.seq_blocked(&a, &b);
        prop_assert!(slices_close(&seq_blocked, &expected, 1e-12).is_ok(),
            "{}", slices_close(&seq_blocked, &expected, 1e-12).unwrap_err());
    }
}

proptest! {
    // Stencils run `steps` full sweeps — keep the case count lower.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every model's HotSpot grid equals the sequential one bitwise: the
    /// row-parallel split must not change a single cell.
    #[test]
    fn hotspot_every_model_is_bitwise_identical_to_seq(
        n in 1usize..34,
        steps in 0usize..4,
        threads in 1usize..5,
    ) {
        let h = HotSpot::native(n, steps);
        let (t, p) = h.generate();
        let expected = h.seq(&t, &p);
        let exec = Executor::new(threads);
        for model in Model::ALL {
            let got = h.try_run(&exec, model, &t, &p, &CancelToken::new()).unwrap();
            prop_assert_eq!(&got, &expected, "{}", model);
        }
    }

    /// Every model's SRAD image equals the sequential one bitwise.
    #[test]
    fn srad_every_model_is_bitwise_identical_to_seq(
        n in 1usize..30,
        iters in 1usize..4,
        threads in 1usize..5,
    ) {
        let s = Srad::native(n, iters);
        let img = s.generate();
        let expected = s.seq(&img);
        let exec = Executor::new(threads);
        for model in Model::ALL {
            let got = s.try_run(&exec, model, &img, &CancelToken::new()).unwrap();
            prop_assert_eq!(&got, &expected, "{}", model);
        }
    }
}

/// Deterministic spot-check of the exact boundary sizes the strategies only
/// sample: lane width ±1 and the matmul MB/KU edges.
#[test]
fn exact_boundary_sizes_all_models() {
    let exec = Executor::new(3);
    for n in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65] {
        let k = Matmul::native(n);
        let (a, b) = k.alloc();
        let expected = k.seq(&a, &b);
        for model in Model::ALL {
            let got = k
                .try_run_v(
                    &exec,
                    model,
                    KernelVariant::Optimized,
                    &a,
                    &b,
                    &CancelToken::new(),
                )
                .unwrap();
            slices_close(&got, &expected, 1e-12)
                .unwrap_or_else(|e| panic!("matmul n={n} {model}: {e}"));
        }
    }
}
