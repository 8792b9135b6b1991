//! Discrete-event simulations of the six loop-distribution mechanisms.
//!
//! Each simulator charges virtual time for exactly the coordination its
//! runtime performs, so figure *shapes* emerge from mechanism, not curve
//! fitting: static worksharing pays nothing per chunk, the dynamic counter
//! is an exclusive resource, `cilk_for` distributes chunks only through
//! (per-victim serialized) steals, task pools pay a serial creation phase on
//! the producer, and the C++11 variants pay OS-thread creation.

use std::collections::VecDeque;

use crate::cost::{CostModel, DequeKind};
use crate::machine::Machine;
use crate::placement::VictimPolicy;
use crate::result::SimResult;
use crate::steal::{hold, run_workers, Owner, Stealing};
use crate::trace::{Activity, Trace};
use crate::workload::LoopWorkload;

/// How a simulated runtime distributes a parallel loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopPolicy {
    /// OpenMP `schedule(static)` worksharing (the paper's `omp_for` setup).
    WorksharingStatic,
    /// OpenMP `schedule(dynamic, chunk)`: shared fetch counter.
    WorksharingDynamic {
        /// Iterations claimed per fetch.
        chunk: u64,
    },
    /// `cilk_for`: recursive splitting, distribution via steals.
    WorkstealingSplit {
        /// Leaf size; 0 selects Cilk's auto grain `min(2048, N/8P)`.
        grain: u64,
    },
    /// Chunk tasks on per-worker deques (`omp_task` when `Locked`,
    /// `cilk_spawn` when `LockFree`); chunk size is `N / threads` (BASE).
    TaskChunks {
        /// Deque implementation (the Fig. 5 variable).
        kind: DequeKind,
    },
    /// `std::thread`: one freshly spawned OS thread per BASE chunk.
    ThreadPerChunk,
    /// `std::async` recursive: OS thread per split, cutoff BASE.
    RecursiveSpawn,
}

/// The simulator: a machine plus a cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulator {
    /// Simulated hardware.
    pub machine: Machine,
    /// Runtime-mechanism costs.
    pub cost: CostModel,
}

impl Simulator {
    /// Simulator for the paper's testbed with calibrated costs.
    pub fn paper_testbed() -> Self {
        Self {
            machine: Machine::xeon_e5_2699v3(),
            cost: CostModel::calibrated(),
        }
    }

    /// Duration of executing iterations `[start, end)` of `wl` with `active`
    /// concurrent threads (bandwidth roofline + imbalance), the bandwidth
    /// scaled by `bw_factor` (< 1 for chunks whose locality was destroyed
    /// by fine-grained stealing).
    fn chunk_time(
        &self,
        wl: &LoopWorkload,
        start: u64,
        end: u64,
        active: usize,
        bw_factor: f64,
    ) -> f64 {
        let iters = (end - start) as f64;
        let compute = iters * wl.work_ns_per_iter / self.machine.compute_rate(active);
        let time = if wl.bytes_per_iter > 0.0 {
            let mem = iters * wl.bytes_per_iter
                / (self.machine.bw_per_core(active) * bw_factor.max(0.05));
            compute.max(mem)
        } else {
            compute
        };
        time * wl.imbalance.factor(start, end, wl.iters)
    }

    /// Simulates one parallel loop under `policy` with `threads` threads.
    pub fn run_loop(&self, policy: LoopPolicy, wl: &LoopWorkload, threads: usize) -> SimResult {
        let threads = threads.max(1);
        match policy {
            LoopPolicy::WorksharingStatic => self.sim_static(wl, threads),
            LoopPolicy::WorksharingDynamic { chunk } => self.sim_dynamic(wl, threads, chunk.max(1)),
            LoopPolicy::WorkstealingSplit { grain } => {
                self.sim_worksteal_split(wl, threads, grain, None)
            }
            LoopPolicy::TaskChunks { kind } => self.sim_task_chunks(wl, threads, kind),
            LoopPolicy::ThreadPerChunk => self.sim_thread_per_chunk(wl, threads),
            LoopPolicy::RecursiveSpawn => self.sim_recursive_spawn(wl, threads),
        }
    }

    /// The BASE chunk from the paper: `⌈N / threads⌉`, at least 1 (ceiling
    /// so the chunk count matches the thread count, avoiding a 2× straggler
    /// when `threads ∤ N`).
    fn base_chunk(&self, wl: &LoopWorkload, threads: usize) -> u64 {
        wl.iters.div_ceil(threads as u64).max(1)
    }

    fn barrier_cost(&self, threads: usize) -> f64 {
        self.cost.barrier_per_thread_ns * threads as f64
    }

    /// The `schedule(static)` partition: thread `t` of `p` runs the `t`-th
    /// of `p` contiguous blocks whose sizes differ by at most one; yields
    /// each block's duration in thread order.
    fn block_times<'a>(&'a self, wl: &'a LoopWorkload, p: usize) -> impl Iterator<Item = f64> + 'a {
        let (per, extra) = (wl.iters / p as u64, wl.iters % p as u64);
        (0..p as u64).scan(0u64, move |start, t| {
            let (s, size) = (*start, per + u64::from(t < extra));
            *start += size;
            Some(if size > 0 {
                self.chunk_time(wl, s, s + size, p, 1.0)
            } else {
                0.0
            })
        })
    }

    // ---- policy: OpenMP static worksharing -------------------------------

    fn sim_static(&self, wl: &LoopWorkload, p: usize) -> SimResult {
        let mut r = SimResult::default();
        let mut max_finish = 0.0f64;
        for (t, work) in self.block_times(wl, p).enumerate() {
            let fork = self.cost.region_fork_per_thread_ns * t as f64;
            r.busy_ns += work;
            r.overhead_ns += self.cost.static_dispatch_ns + self.cost.region_fork_per_thread_ns;
            r.tasks += 1;
            max_finish = max_finish.max(fork + self.cost.static_dispatch_ns + work);
        }
        r.overhead_ns += self.barrier_cost(p);
        r.makespan_ns = max_finish + self.barrier_cost(p);
        r
    }

    // ---- policy: OpenMP dynamic worksharing ------------------------------

    fn sim_dynamic(&self, wl: &LoopWorkload, p: usize, chunk: u64) -> SimResult {
        let mut r = SimResult::default();
        let mut next = 0u64;
        let mut counter_free = 0.0f64;
        let finish = run_workers(
            p,
            |t| self.cost.region_fork_per_thread_ns * t as f64,
            |_, time| {
                if next >= wl.iters {
                    return None;
                }
                // The shared counter is an exclusive resource: concurrent
                // fetches serialize.
                let fetch_start = hold(&mut counter_free, time, self.cost.dynamic_fetch_ns);
                let start = next;
                next = (start + chunk).min(wl.iters);
                let work = self.chunk_time(wl, start, next, p, 1.0);
                r.busy_ns += work;
                r.overhead_ns += self.cost.dynamic_fetch_ns;
                r.tasks += 1;
                Some(fetch_start + self.cost.dynamic_fetch_ns + work)
            },
        );
        r.makespan_ns = finish + self.barrier_cost(p);
        r.overhead_ns += self.barrier_cost(p);
        r
    }

    // ---- policy: cilk_for recursive splitting over work stealing ---------

    /// Traced variant of the `cilk_for` simulation: returns per-worker
    /// activity spans alongside the result, so the serialized steal ramp is
    /// visible (render with [`crate::Trace::gantt`]).
    pub fn trace_worksteal_split(
        &self,
        wl: &LoopWorkload,
        threads: usize,
        grain: u64,
    ) -> (SimResult, Trace) {
        let mut trace = Trace::new(threads.max(1));
        let r = self.sim_worksteal_split(wl, threads.max(1), grain, Some(&mut trace));
        (r, trace)
    }

    /// Lazy binary splitting over the stealing core. Ranges carry a
    /// "reached me by a steal" flag: stolen chunks (and their sub-splits)
    /// lose streaming locality.
    fn sim_worksteal_split(
        &self,
        wl: &LoopWorkload,
        p: usize,
        grain: u64,
        trace: Option<&mut Trace>,
    ) -> SimResult {
        let grain = if grain == 0 {
            (wl.iters / (8 * p as u64)).clamp(1, 2048)
        } else {
            grain
        };
        let split = self.cost.split_ns + self.cost.push_lockfree_ns;
        let pop = self.cost.pop_lockfree_ns;
        let stealing = Stealing {
            nodes: &vec![0; p],
            policy: VictimPolicy::Random,
            seed: 0x0C11_CF02 ^ ((p as u64) << 8) ^ grain,
            steal_ns: self.cost.steal_success_ns,
        };
        let run = |o: &mut Owner<'_, (u64, u64, bool)>, (start, end, stolen), time: f64| {
            if end - start > grain {
                // Split: keep left, expose right to thieves.
                let mid = start + (end - start) / 2;
                o.push((mid, end, stolen));
                o.push((start, mid, stolen));
                o.r.overhead_ns += split;
                (Activity::Overhead, time, time + split)
            } else {
                let bw = if stolen {
                    self.cost.steal_locality_derate
                } else {
                    1.0
                };
                let work = self.chunk_time(wl, start, end, p, bw);
                o.r.busy_ns += work;
                o.r.overhead_ns += pop;
                o.r.tasks += 1;
                (Activity::Work, time + pop, time + pop + work)
            }
        };
        let on_steal = |(start, end, _)| (start, end, true);
        let (r, _) = self.run_stealing(stealing, (0, wl.iters, false), run, on_steal, trace);
        r
    }

    // ---- policy: chunk tasks on per-worker deques ------------------------

    fn sim_task_chunks(&self, wl: &LoopWorkload, p: usize, kind: DequeKind) -> SimResult {
        let mut r = SimResult::default();
        let base = self.base_chunk(wl, p);
        // Producer (worker 0) creates all chunk tasks serially; task i
        // becomes stealable at its creation time.
        let mut tasks: VecDeque<(f64, u64, u64)> = VecDeque::new(); // (ready, start, end)
        let mut t0 = self.cost.region_fork_per_thread_ns;
        let mut start = 0u64;
        while start < wl.iters {
            let end = (start + base).min(wl.iters);
            t0 += self.cost.push_cost(kind) + self.cost.task_frame_ns;
            tasks.push_back((t0, start, end));
            r.overhead_ns += self.cost.push_cost(kind) + self.cost.task_frame_ns;
            r.tasks += 1;
            start = end;
        }
        // The producer's deque is the only one; with a locked deque every
        // op (owner pop and thief steal) serializes on its lock; lock-free
        // serializes only thieves.
        let mut deque_free = 0.0f64; // lock (Locked) or top-CAS window (LockFree)
        let finish = run_workers(
            p,
            // The producer turns consumer after creation.
            |w| if w == 0 { t0 } else { 0.0 },
            |w, time| {
                // Front first: FIFO for thieves; the owner would take the
                // back — immaterial here because chunks are uniform.
                let &(ready, s, e) = tasks.front()?;
                let (op_cost, serialized) = if w == 0 {
                    (self.cost.pop_cost(kind), matches!(kind, DequeKind::Locked))
                } else {
                    (
                        self.cost.steal_success_ns.max(self.cost.pop_cost(kind)),
                        true,
                    )
                };
                let begin = if serialized {
                    hold(&mut deque_free, time, op_cost)
                } else {
                    time
                };
                if ready > begin + op_cost {
                    // Not yet published: retry when it is.
                    r.failed_steals += 1;
                    r.overhead_ns += self.cost.steal_attempt_ns;
                    return Some(ready.max(time + self.cost.steal_attempt_ns));
                }
                tasks.pop_front();
                let work = self.chunk_time(wl, s, e, p, 1.0);
                r.busy_ns += work;
                r.overhead_ns += op_cost;
                r.steals += u64::from(w != 0);
                Some(begin + op_cost + work)
            },
        );
        r.makespan_ns = finish + self.barrier_cost(p); // taskwait + region end
        r.overhead_ns += self.barrier_cost(p);
        r
    }

    // ---- policy: one OS thread per chunk (std::thread) -------------------

    fn sim_thread_per_chunk(&self, wl: &LoopWorkload, p: usize) -> SimResult {
        let mut r = SimResult::default();
        let mut max_finish = 0.0f64;
        for (t, work) in self.block_times(wl, p).enumerate() {
            // Thread t is created after t+1 serial spawn calls.
            let spawn_done = self.cost.thread_spawn_ns * (t + 1) as f64;
            r.busy_ns += work;
            r.overhead_ns += self.cost.thread_spawn_ns;
            r.tasks += 1;
            max_finish = max_finish.max(spawn_done + work);
        }
        r.makespan_ns = max_finish;
        r
    }

    // ---- policy: recursive std::async (thread per split, cutoff BASE) ----

    fn sim_recursive_spawn(&self, wl: &LoopWorkload, p: usize) -> SimResult {
        let mut r = SimResult::default();
        let base = self.base_chunk(wl, p);
        let cores = p.min(self.machine.cores);
        // Global ready pool of (ready_time, start, end); OS assigns to the
        // earliest-free core.
        let mut pool: Vec<(f64, u64, u64)> = vec![(0.0, 0, wl.iters)];
        let mut remaining = wl.iters;
        let finish = run_workers(
            cores,
            |_| 0.0,
            |_, time| {
                if remaining == 0 {
                    return None;
                }
                // Earliest-ready entry this core can take.
                let Some((i, &(ready, _, _))) = pool
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                else {
                    // Work is in flight on other cores; check back shortly.
                    return Some(time + self.cost.steal_attempt_ns);
                };
                if ready > time {
                    // Wait for it to be spawned.
                    return Some(ready);
                }
                let (_, mut s, e) = pool.swap_remove(i);
                let mut t = time;
                // Descend the right spine, spawning left subtrees.
                while e - s > base {
                    let mid = s + (e - s) / 2;
                    t += self.cost.thread_spawn_ns;
                    r.overhead_ns += self.cost.thread_spawn_ns;
                    r.tasks += 1;
                    pool.push((t, s, mid));
                    s = mid;
                }
                let work = self.chunk_time(wl, s, e, cores, 1.0);
                remaining -= e - s;
                r.busy_ns += work;
                Some(t + work)
            },
        );
        r.makespan_ns = finish;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Imbalance;

    fn sim_free(cores: usize) -> Simulator {
        Simulator {
            machine: Machine::small(cores),
            cost: CostModel::free(),
        }
    }

    const POLICIES: [LoopPolicy; 6] = [
        LoopPolicy::WorksharingStatic,
        LoopPolicy::WorksharingDynamic { chunk: 64 },
        LoopPolicy::WorkstealingSplit { grain: 0 },
        LoopPolicy::TaskChunks {
            kind: DequeKind::Locked,
        },
        LoopPolicy::ThreadPerChunk,
        LoopPolicy::RecursiveSpawn,
    ];

    #[test]
    fn zero_cost_uniform_loop_scales_perfectly_static() {
        let sim = sim_free(8);
        let wl = LoopWorkload::uniform(8_000, 10.0);
        let r1 = sim.run_loop(LoopPolicy::WorksharingStatic, &wl, 1);
        let r8 = sim.run_loop(LoopPolicy::WorksharingStatic, &wl, 8);
        assert!((r1.makespan_ns - 80_000.0).abs() < 1.0);
        assert!((r8.makespan_ns - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn makespan_never_beats_work_over_p() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(100_000, 5.0);
        for policy in POLICIES {
            for &p in &[1usize, 2, 4, 8, 16, 36] {
                let r = sim.run_loop(policy, &wl, p);
                let bound = wl.total_work_ns() / p as f64;
                assert!(
                    r.makespan_ns >= bound * 0.999,
                    "{policy:?} p={p}: {} < {}",
                    r.makespan_ns,
                    bound
                );
            }
        }
    }

    #[test]
    fn all_policies_execute_all_work() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(10_000, 5.0);
        for policy in POLICIES {
            let r = sim.run_loop(policy, &wl, 7);
            assert!(
                (r.busy_ns - wl.total_work_ns()).abs() < 1e-6,
                "{policy:?}: busy {} != {}",
                r.busy_ns,
                wl.total_work_ns()
            );
        }
    }

    #[test]
    fn simulations_are_deterministic() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(50_000, 3.0).with_bytes(16.0);
        for policy in POLICIES {
            let a = sim.run_loop(policy, &wl, 16);
            let b = sim.run_loop(policy, &wl, 16);
            assert_eq!(a, b, "{policy:?}");
        }
    }

    #[test]
    fn bandwidth_bound_loop_stops_scaling() {
        // Axpy-like: almost no compute, lots of traffic.
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(10_000_000, 0.4).with_bytes(24.0);
        let r1 = sim.run_loop(LoopPolicy::WorksharingStatic, &wl, 1);
        let r8 = sim.run_loop(LoopPolicy::WorksharingStatic, &wl, 8);
        let r36 = sim.run_loop(LoopPolicy::WorksharingStatic, &wl, 36);
        let s8 = r1.makespan_ns / r8.makespan_ns;
        let s36 = r1.makespan_ns / r36.makespan_ns;
        assert!(s8 > 2.0, "some scaling early: {s8}");
        // Far from linear at 36 threads: bandwidth-bound.
        assert!(s36 < 18.0, "should saturate: {s36}");
    }

    #[test]
    fn cilk_for_pays_steals_where_worksharing_pays_none() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(1_000_000, 1.0);
        let ws = sim.run_loop(LoopPolicy::WorkstealingSplit { grain: 0 }, &wl, 16);
        let st = sim.run_loop(LoopPolicy::WorksharingStatic, &wl, 16);
        assert!(ws.steals > 0);
        assert_eq!(st.steals, 0);
        assert!(ws.overhead_ns > st.overhead_ns);
    }

    #[test]
    fn locked_deque_tasks_cost_more_than_lockfree() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(1_000_000, 1.0);
        let locked = sim.run_loop(
            LoopPolicy::TaskChunks {
                kind: DequeKind::Locked,
            },
            &wl,
            16,
        );
        let lockfree = sim.run_loop(
            LoopPolicy::TaskChunks {
                kind: DequeKind::LockFree,
            },
            &wl,
            16,
        );
        assert!(locked.overhead_ns > lockfree.overhead_ns);
    }

    #[test]
    fn thread_per_chunk_pays_spawns() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(1000, 1.0); // tiny loop
        let r = sim.run_loop(LoopPolicy::ThreadPerChunk, &wl, 8);
        assert!(r.makespan_ns >= 8.0 * sim.cost.thread_spawn_ns);
    }

    #[test]
    fn imbalanced_load_hurts_static_more_than_dynamic() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(100_000, 10.0)
            .with_imbalance(Imbalance::FrontLoaded { slope: 0.9 });
        let st = sim.run_loop(LoopPolicy::WorksharingStatic, &wl, 8);
        let dy = sim.run_loop(LoopPolicy::WorksharingDynamic { chunk: 256 }, &wl, 8);
        assert!(
            dy.makespan_ns < st.makespan_ns,
            "dynamic {} vs static {}",
            dy.makespan_ns,
            st.makespan_ns
        );
    }

    #[test]
    fn single_iteration_loop() {
        let sim = Simulator::paper_testbed();
        let wl = LoopWorkload::uniform(1, 100.0);
        for policy in POLICIES {
            let r = sim.run_loop(policy, &wl, 4);
            assert!(r.busy_ns > 0.0, "{policy:?}");
            assert!(r.makespan_ns >= 100.0, "{policy:?}");
        }
    }
}
