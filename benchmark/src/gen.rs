//! Seeded inputs: the `serve_open` arrival schedule and job mix, and the
//! visiting order of grid cells. Pure functions of the workload seed — the
//! seed decides order and timing, never the amount of work, and the program
//! under test sees only the generated requests.

use tpm_core::{JobSpec, KernelVariant, Model};
use tpm_sync::SplitMix64;

use crate::spec;

/// One job of the `serve_open` catalog with the class it reports under.
#[derive(Debug, Clone, PartialEq)]
pub struct MixJob {
    /// Index into [`spec::MIX_JOBS`].
    pub class: usize,
    /// The request's job.
    pub spec: JobSpec,
}

fn job(kernel: &str, model: Model, size: usize, threads: usize) -> JobSpec {
    JobSpec {
        kernel: kernel.to_string(),
        model,
        variant: KernelVariant::Reference,
        size,
        threads,
    }
}

/// The small job every `serve_small` / `serve_json` request names.
pub fn small_job() -> JobSpec {
    job("sum", Model::OmpFor, spec::SMALL_SIZE, 1)
}

/// Every distinct job `serve_open` can send: the small `sum`, the large
/// `sum` under each of the eight models, `fib` under each task model,
/// `matmul` under each loop model.
pub fn mix_catalog() -> Vec<MixJob> {
    let mut jobs = vec![MixJob {
        class: 0,
        spec: small_job(),
    }];
    for m in Model::ALL {
        jobs.push(MixJob {
            class: 1,
            spec: job("sum", m, spec::OPEN_BIG_SIZE, spec::MAX_JOB_THREADS),
        });
    }
    for m in spec::pooled_task_models() {
        jobs.push(MixJob {
            class: 2,
            spec: job("fib", m, spec::OPEN_FIB_N, spec::MAX_JOB_THREADS),
        });
    }
    for m in spec::loop_models() {
        jobs.push(MixJob {
            class: 3,
            spec: job("matmul", m, spec::OPEN_MATMUL_N, spec::MAX_JOB_THREADS),
        });
    }
    jobs
}

/// One scheduled request: when it is due and which catalog job it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the window opens at which the request is due.
    pub due_ns: u64,
    /// Index into [`mix_catalog`].
    pub job: usize,
}

/// The `serve_open` schedule for a window of `seconds`: exponential gaps at
/// [`spec::OPEN_RATE`], and per arrival a class drawn 80/10/5/5 with the
/// model rotating within the class.
pub fn open_schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let catalog = mix_catalog();
    let of_class = |c: usize| -> Vec<usize> {
        (0..catalog.len())
            .filter(|&i| catalog[i].class == c)
            .collect()
    };
    let classes: Vec<Vec<usize>> = (0..spec::MIX_JOBS.len()).map(of_class).collect();
    let mut rotation = vec![0usize; classes.len()];
    let mut rng = SplitMix64::new(seed);
    let window_ns = (seconds * 1e9) as u64;
    let mut out = Vec::with_capacity((seconds * spec::OPEN_RATE * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / spec::OPEN_RATE * 1e9;
        if t as u64 >= window_ns {
            return out;
        }
        let class = match rng.next_bounded(100) {
            0..=79 => 0,
            80..=89 => 1,
            90..=94 => 2,
            _ => 3,
        };
        let members = &classes[class];
        let job = members[rotation[class] % members.len()];
        rotation[class] += 1;
        out.push(Arrival {
            due_ns: t as u64,
            job,
        });
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates): the order grid cells are
/// visited in within one pass.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = open_schedule(7, 2.0);
        assert_eq!(a, open_schedule(7, 2.0));
        assert_ne!(a, open_schedule(8, 2.0));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 2_000_000_000);
    }

    #[test]
    fn schedule_hits_the_rate_and_the_mix() {
        let catalog = mix_catalog();
        let s = open_schedule(1, 20.0);
        let rate = s.len() as f64 / 20.0;
        assert!(
            (rate - spec::OPEN_RATE).abs() < 0.03 * spec::OPEN_RATE,
            "{rate}"
        );
        let share = |c: usize| {
            s.iter().filter(|a| catalog[a.job].class == c).count() as f64 / s.len() as f64
        };
        assert!((share(0) - 0.80).abs() < 0.02);
        assert!((share(1) - 0.10).abs() < 0.01);
        assert!((share(2) - 0.05).abs() < 0.01);
        assert!((share(3) - 0.05).abs() < 0.01);
        // Rotation: every catalog job is used.
        for j in 0..catalog.len() {
            assert!(s.iter().any(|a| a.job == j), "job {j} never scheduled");
        }
    }

    #[test]
    fn catalog_asks_for_no_more_threads_than_allowed() {
        let catalog = mix_catalog();
        assert_eq!(catalog.len(), 1 + 8 + 3 + 4);
        assert!(catalog
            .iter()
            .all(|j| j.spec.threads <= spec::MAX_JOB_THREADS));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(21, &mut SplitMix64::new(3));
        assert_eq!(a, shuffled(21, &mut SplitMix64::new(3)));
        assert_ne!(a, shuffled(21, &mut SplitMix64::new(4)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
    }
}
