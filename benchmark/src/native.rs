//! The `native_fine` and `native_coarse` workloads: kernel × model grids run
//! in-process on the four real runtimes, two threads, no server.
//!
//! A *cell* is one kernel under one model (or the plain sequential `seq`
//! baseline). A pass visits every cell once in a seeded order; a visit runs
//! the cell a fixed number of times back to back and records the mean time
//! of one run. Every result is compared with the sequential reference.

use std::time::Instant;

use tpm_core::{approx, Executor, Model};
use tpm_kernels::{Axpy, Fib, Matmul, Sum, Uts};
use tpm_rodinia::{Bfs, Graph, HotSpot};
use tpm_sync::{CancelToken, SplitMix64, StatsSnapshot};

use crate::gen::shuffled;
use crate::spec;
use crate::stats::{geomean, median};
use crate::trace::Tracer;

/// Relative tolerance against the sequential reference (parallel
/// reductions reassociate sums).
const TOL: f64 = 1e-9;
/// Every `AXPY_STRIDE`-th element of Axpy's output is checked per visit.
const AXPY_STRIDE: usize = 4099;

/// Which grid a cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Data-parallel loop kernels under a loop or task model.
    Loop,
    /// Recursive task-tree kernels under a task model.
    Task,
    /// The single-threaded baseline of a kernel.
    Seq,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Region,
    Sum,
    Fib,
    Uts,
    Axpy,
    Matmul,
    HotSpot,
    Bfs,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Region => "region",
            Kernel::Sum => "sum",
            Kernel::Fib => "fib",
            Kernel::Uts => "uts",
            Kernel::Axpy => "axpy",
            Kernel::Matmul => "matmul",
            Kernel::HotSpot => "hotspot",
            Kernel::Bfs => "bfs",
        }
    }

    /// Back-to-back runs per visit: enough that a visit of the cheapest
    /// cells is long against the clock's resolution.
    fn reps(self) -> u32 {
        match self {
            Kernel::Region => 100,
            Kernel::Sum => 20,
            _ => 1,
        }
    }
}

/// One kernel under one model.
#[derive(Debug, Clone)]
pub struct Cell {
    kernel: Kernel,
    /// `None` for the sequential baseline.
    model: Option<Model>,
    /// The grid it is averaged in.
    pub part: Part,
    /// What the sequential reference computes.
    expected: f64,
}

impl Cell {
    /// `kernel.model`, the suffix of the cell's `kernels.body_ms.*` metric.
    pub fn label(&self) -> String {
        format!(
            "{}.{}",
            self.kernel.name(),
            self.model.map_or("seq", Model::name)
        )
    }
}

/// Inputs of every kernel in the grid; generated once per set-up.
#[derive(Debug)]
struct Inputs {
    sum: Sum,
    sum_x: Vec<f64>,
    fib: Fib,
    uts: Uts,
    axpy: Axpy,
    axpy_x: Vec<f64>,
    axpy_y: Vec<f64>,
    /// `(index, y0[index])` for the elements checked after each run.
    axpy_probe: Vec<(usize, f64)>,
    /// Axpy runs so far: `y = y0 + runs · a · x`.
    axpy_runs: u64,
    matmul: Matmul,
    mm_a: Vec<f64>,
    mm_b: Vec<f64>,
    hotspot: HotSpot,
    hs_temp: Vec<f64>,
    hs_power: Vec<f64>,
    bfs: Bfs,
    graph: Graph,
}

/// A built grid: executor, inputs, cells with their expected values.
#[derive(Debug)]
pub struct Grid {
    exec: Executor,
    inputs: Inputs,
    /// The cells, in declaration order.
    pub cells: Vec<Cell>,
}

/// Checksum of a BFS result: reached nodes and the sum of their levels.
fn bfs_checksum(cost: &[i32]) -> f64 {
    cost.iter()
        .filter(|&&c| c >= 0)
        .map(|&c| 1.0 + f64::from(c) * 1e-3)
        .sum()
}

impl Grid {
    /// Builds the grid of `workload` (`native_fine` or `native_coarse`):
    /// executor, inputs, sequential references, and one checked warm-up
    /// visit of every cell. Everything here is set-up time.
    pub fn build(fine: bool) -> Result<Grid, String> {
        let threads = spec::MAX_JOB_THREADS;
        let exec = Executor::new(threads);
        let (hs_n, hs_steps) = spec::COARSE_HOTSPOT;
        let mut inputs = Inputs {
            sum: Sum::native(spec::FINE_SUM_N),
            sum_x: Vec::new(),
            fib: Fib {
                n: spec::FINE_FIB.0,
                cutoff: spec::FINE_FIB.1,
            },
            uts: Uts::standard(spec::FINE_UTS_SEED),
            axpy: Axpy::native(spec::COARSE_AXPY_N),
            axpy_x: Vec::new(),
            axpy_y: Vec::new(),
            axpy_probe: Vec::new(),
            axpy_runs: 0,
            matmul: Matmul::native(spec::COARSE_MATMUL_N),
            mm_a: Vec::new(),
            mm_b: Vec::new(),
            hotspot: HotSpot::native(hs_n, hs_steps),
            hs_temp: Vec::new(),
            hs_power: Vec::new(),
            bfs: Bfs::native(spec::COARSE_BFS_NODES),
            graph: Graph {
                offsets: vec![0],
                edges: Vec::new(),
            },
        };
        let mut cells = Vec::new();
        let mut cell = |kernel, model, part, expected| {
            cells.push(Cell {
                kernel,
                model,
                part,
                expected,
            })
        };
        if fine {
            inputs.sum_x = inputs.sum.alloc();
            let sum = inputs.sum.seq(&inputs.sum_x);
            for m in Model::ALL {
                cell(Kernel::Sum, Some(m), Part::Loop, sum);
                cell(Kernel::Region, Some(m), Part::Loop, 1.0);
            }
            let fib = Fib::seq(inputs.fib.n) as f64;
            for m in spec::pooled_task_models() {
                cell(Kernel::Fib, Some(m), Part::Task, fib);
            }
            let uts = inputs.uts.seq() as f64;
            for m in [Model::OmpTask, Model::CilkSpawn] {
                cell(Kernel::Uts, Some(m), Part::Task, uts);
            }
        } else {
            (inputs.axpy_x, inputs.axpy_y) = inputs.axpy.alloc();
            inputs.axpy_probe = (0..inputs.axpy.n)
                .step_by(AXPY_STRIDE)
                .map(|i| (i, inputs.axpy_y[i]))
                .collect();
            (inputs.mm_a, inputs.mm_b) = inputs.matmul.alloc();
            (inputs.hs_temp, inputs.hs_power) = inputs.hotspot.generate();
            inputs.graph = inputs.bfs.generate();
            let mm: f64 = inputs.matmul.seq(&inputs.mm_a, &inputs.mm_b).iter().sum();
            let hs = inputs.hotspot.seq(&inputs.hs_temp, &inputs.hs_power);
            let hs = hs.iter().sum::<f64>() / hs.len() as f64;
            let bfs = bfs_checksum(&inputs.bfs.seq(&inputs.graph));
            for (kernel, expected) in [
                (Kernel::Axpy, 0.0),
                (Kernel::Matmul, mm),
                (Kernel::HotSpot, hs),
                (Kernel::Bfs, bfs),
            ] {
                for m in Model::ALL {
                    cell(kernel, Some(m), Part::Loop, expected);
                }
                cell(kernel, None, Part::Seq, expected);
            }
        }
        let mut grid = Grid {
            exec,
            inputs,
            cells,
        };
        for i in 0..grid.cells.len() {
            grid.visit(i)?;
        }
        Ok(grid)
    }

    /// Runs cell `i` its fixed number of times; returns the mean
    /// nanoseconds of one run, or what was wrong with a result.
    pub fn visit(&mut self, i: usize) -> Result<f64, String> {
        let cell = self.cells[i].clone();
        let reps = cell.kernel.reps();
        let mut value = 0.0;
        let start = Instant::now();
        for _ in 0..reps {
            value = self.run(&cell);
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(reps);
        let ok = match cell.kernel {
            // Axpy accumulates in place: check the sampled elements against
            // y0 + runs·a·x and report their worst relative error.
            Kernel::Axpy => value <= TOL,
            _ => approx::rel_close(value, cell.expected, TOL),
        };
        if ok {
            Ok(ns)
        } else {
            Err(format!(
                "{}: got {value}, sequential reference {}",
                cell.label(),
                cell.expected
            ))
        }
    }

    fn run(&mut self, cell: &Cell) -> f64 {
        let (exec, inp) = (&self.exec, &mut self.inputs);
        match (cell.kernel, cell.model) {
            (Kernel::Region, Some(m)) => {
                let r = exec.try_parallel_for(
                    m,
                    0..spec::FINE_REGION_ITERS,
                    &CancelToken::new(),
                    &|_| {},
                );
                f64::from(u8::from(r.is_ok()))
            }
            (Kernel::Sum, Some(m)) => inp.sum.run(exec, m, &inp.sum_x),
            (Kernel::Fib, Some(m)) => match m {
                Model::OmpTask => inp.fib.run_omp_task(exec.team()) as f64,
                Model::CilkSpawn => inp.fib.run_cilk_spawn(exec.worksteal()) as f64,
                Model::ActorTask => inp.fib.run_actor_task(exec.actors()) as f64,
                other => unreachable!("no fib cell under {other}"),
            },
            (Kernel::Uts, Some(m)) => match m {
                Model::OmpTask => inp.uts.run_omp_task(exec.team()) as f64,
                Model::CilkSpawn => inp.uts.run_worksteal(exec.worksteal()) as f64,
                other => unreachable!("no uts cell under {other}"),
            },
            (Kernel::Axpy, model) => {
                match model {
                    Some(m) => inp.axpy.run(exec, m, &inp.axpy_x, &mut inp.axpy_y),
                    None => inp.axpy.seq(&inp.axpy_x, &mut inp.axpy_y),
                }
                inp.axpy_runs += 1;
                let k = inp.axpy_runs as f64;
                inp.axpy_probe
                    .iter()
                    .map(|&(i, y0)| {
                        let want = y0 + k * inp.axpy.a * inp.axpy_x[i];
                        ((inp.axpy_y[i] - want) / want).abs()
                    })
                    .fold(0.0, f64::max)
            }
            (Kernel::Matmul, model) => match model {
                Some(m) => inp.matmul.run(exec, m, &inp.mm_a, &inp.mm_b),
                None => inp.matmul.seq(&inp.mm_a, &inp.mm_b),
            }
            .iter()
            .sum(),
            (Kernel::HotSpot, model) => {
                let out = match model {
                    Some(m) => inp.hotspot.run(exec, m, &inp.hs_temp, &inp.hs_power),
                    None => inp.hotspot.seq(&inp.hs_temp, &inp.hs_power),
                };
                out.iter().sum::<f64>() / out.len() as f64
            }
            (Kernel::Bfs, model) => bfs_checksum(&match model {
                Some(m) => inp.bfs.run(exec, m, &inp.graph).0,
                None => inp.bfs.seq(&inp.graph),
            }),
            (k, None) => unreachable!("{} has no sequential cell", k.name()),
        }
    }

    /// Scheduler counters of the pooled runtimes, by runtime crate name.
    pub fn pooled_stats(&self) -> Vec<(&'static str, StatsSnapshot)> {
        self.exec
            .pooled_stats()
            .into_iter()
            .map(|(f, s)| (f.runtime_label(), s))
            .collect()
    }
}

/// What a window over a grid produced.
#[derive(Debug)]
pub struct GridLog {
    /// `samples[segment][cell]`: mean run time per visit, nanoseconds.
    pub samples: Vec<Vec<Vec<f64>>>,
    /// Kernel runs completed per segment.
    pub runs: Vec<u64>,
    /// Cell visits made.
    pub attempted: u64,
    /// Visits whose result disagreed with the sequential reference.
    pub failed: u64,
    /// The first few disagreements.
    pub errors: Vec<String>,
}

/// Visits the grid's cells pass after pass, each pass in a fresh seeded
/// order, until `seconds` have passed. With a tracer, every visit is a span
/// (`native.cell`) tagged with its cell index.
pub fn run_window(
    grid: &mut Grid,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> GridLog {
    let n = grid.cells.len();
    let mut log = GridLog {
        samples: vec![vec![Vec::new(); n]; spec::SEGMENTS],
        runs: vec![0; spec::SEGMENTS],
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut rng = SplitMix64::new(seed);
    let seg_s = seconds / spec::SEGMENTS as f64;
    let start = Instant::now();
    'window: loop {
        for i in shuffled(n, &mut rng) {
            let visit_start = Instant::now();
            if (visit_start - start).as_secs_f64() >= seconds {
                break 'window;
            }
            log.attempted += 1;
            match grid.visit(i) {
                Ok(ns) => {
                    let end = Instant::now();
                    let seg = ((end - start).as_secs_f64() / seg_s) as usize;
                    if seg < spec::SEGMENTS {
                        log.samples[seg][i].push(ns);
                        log.runs[seg] += u64::from(grid.cells[i].kernel.reps());
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("native.cell", i as u64, "", visit_start, end);
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    if log.errors.len() < 5 {
                        log.errors.push(e);
                    }
                }
            }
        }
    }
    log
}

impl GridLog {
    /// Per segment, the geometric mean over the cells of `part` of each
    /// cell's median run time in milliseconds; segments in which some cell
    /// was never visited are left out.
    pub fn segment_geomeans(&self, cells: &[Cell], part: &[Part]) -> Vec<f64> {
        self.samples
            .iter()
            .filter_map(|seg| {
                let medians: Option<Vec<f64>> = cells
                    .iter()
                    .zip(seg)
                    .filter(|(c, _)| part.contains(&c.part))
                    .map(|(_, s)| median(s).map(|ns| ns / 1e6))
                    .collect();
                geomean(&medians?)
            })
            .collect()
    }

    /// Median run time of cell `i` over the whole window, milliseconds.
    pub fn cell_ms(&self, i: usize) -> Option<f64> {
        let all: Vec<f64> = self
            .samples
            .iter()
            .flat_map(|seg| seg[i].iter().copied())
            .collect();
        median(&all).map(|ns| ns / 1e6)
    }
}
