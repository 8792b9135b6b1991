//! The worker-event driver every event-driven policy runs on, and the one
//! work-stealing core `cilk_for`, the Fig. 5 fib tree and the NUMA
//! placement sweep share. The driver's ties pop by worker index, not in
//! scheduling order as [`crate::des::EventQueue`]'s do; `des.rs` says why
//! the two stay apart.

use std::cmp::Reverse;
use std::collections::{binary_heap::PeekMut, BinaryHeap, VecDeque};

use tpm_sync::SplitMix64;

use crate::loop_sim::Simulator;
use crate::placement::VictimPolicy;
use crate::result::SimResult;
use crate::trace::{Activity, Trace};

/// Runs `workers` simulated workers until each has retired. Worker `w`'s
/// first event is at `start(w)`; each event calls `step(w, time)`, which
/// returns the time of `w`'s next event, or `None` once `w` has found
/// nothing left to do. Returns the latest retirement time.
pub(crate) fn run_workers(
    workers: usize,
    start: impl Fn(usize) -> f64,
    mut step: impl FnMut(usize, f64) -> Option<f64>,
) -> f64 {
    // Min-heap on (time bits, worker): for non-negative floats the bit
    // pattern orders like the number.
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = (0..workers)
        .map(|w| Reverse((start(w).to_bits(), w)))
        .collect();
    let mut finish = 0.0f64;
    // The keys are unique (one event per worker), so re-keying the top in
    // place pops in the same order as a pop and a push, for one sift-down.
    while let Some(mut top) = queue.peek_mut() {
        let Reverse((bits, w)) = *top;
        let time = f64::from_bits(bits);
        match step(w, time) {
            Some(next) => {
                debug_assert!(next >= 0.0);
                *top = Reverse((next.to_bits(), w));
            }
            None => {
                PeekMut::pop(top);
                finish = finish.max(time);
            }
        }
    }
    finish
}

/// The running worker's own end of its deque, handed to the step that
/// executes an item the worker popped.
pub(crate) struct Owner<'a, T> {
    deque: &'a mut VecDeque<T>,
    outstanding: &'a mut u64,
    /// The deque's exclusive window (its lock, if locked); see [`hold`].
    pub(crate) window: &'a mut f64,
    /// The result being accumulated.
    pub(crate) r: &'a mut SimResult,
}

impl<T> Owner<'_, T> {
    /// Pushes `item` onto the deque's bottom, where thieves can reach it.
    pub(crate) fn push(&mut self, item: T) {
        self.deque.push_back(item);
        *self.outstanding += 1;
    }
}

/// Holds an exclusive resource whose next free time is `*window` for
/// `cost`, asked for at `t`; returns when the hold began.
pub(crate) fn hold(window: &mut f64, t: f64, cost: f64) -> f64 {
    let begin = t.max(*window);
    *window = begin + cost;
    begin
}

/// What distinguishes one work-stealing run from another.
pub(crate) struct Stealing<'a> {
    /// NUMA node of each worker; its length is the worker count.
    pub(crate) nodes: &'a [usize],
    /// Whom a worker with an empty deque probes.
    pub(crate) policy: VictimPolicy,
    /// Seed of the victim draw.
    pub(crate) seed: u64,
    /// Window a successful steal holds on a same-node victim's deque.
    pub(crate) steal_ns: f64,
}

impl Simulator {
    /// Randomized work stealing from `root`, in worker 0's deque when the
    /// region forks. Each event, a worker pops its own deque's bottom and
    /// runs the item with `run(owner, item, time)`, which returns the span
    /// `(activity, start, end)` the item kept the worker busy; its next
    /// event is at `end`. A worker with an empty deque probes one victim;
    /// a hit takes the top item (through `on_steal`) into its own deque. A
    /// worker retires when no deque holds an item. Returns the result
    /// (makespan: the last retirement, no barrier) and the number of steals
    /// whose thief and victim sit on different nodes.
    pub(crate) fn run_stealing<T>(
        &self,
        s: Stealing<'_>,
        root: T,
        mut run: impl FnMut(&mut Owner<'_, T>, T, f64) -> (Activity, f64, f64),
        on_steal: impl Fn(T) -> T,
        mut trace: Option<&mut Trace>,
    ) -> (SimResult, u64) {
        let (nodes, p) = (s.nodes, s.nodes.len());
        // Same-node victims, drawn from on a NodeAware worker's odd attempts;
        // even attempts go uniform so work still crosses nodes (forkjoin's
        // 2n-round schedule). On one node this is everyone but the thief.
        let local: Vec<Vec<usize>> = match s.policy {
            VictimPolicy::Random => Vec::new(),
            VictimPolicy::NodeAware => (0..p)
                .map(|w| (0..p).filter(|&v| v != w && nodes[v] == nodes[w]).collect())
                .collect(),
        };
        let remote = self.cost.steal_remote_penalty.max(1.0);
        let mult = |a: usize, b: usize| if nodes[a] == nodes[b] { 1.0 } else { remote };
        let mut rng = SplitMix64::new(s.seed);
        let mut deques: Vec<VecDeque<T>> = (0..p).map(|_| VecDeque::new()).collect();
        let mut windows = vec![0.0f64; p];
        let mut attempts = vec![0u64; p];
        let mut outstanding = 1u64;
        let mut r = SimResult::default();
        let mut remote_steals = 0u64;
        deques[0].push_back(root);
        let fork = self.cost.region_fork_per_thread_ns;
        let finish = run_workers(
            p,
            |w| if w == 0 { fork } else { 0.0 },
            |w, time| {
                let (activity, start, end) = if let Some(item) = deques[w].pop_back() {
                    outstanding -= 1;
                    let mut owner = Owner {
                        deque: &mut deques[w],
                        window: &mut windows[w],
                        outstanding: &mut outstanding,
                        r: &mut r,
                    };
                    run(&mut owner, item, time)
                } else if outstanding == 0 {
                    return None;
                } else {
                    attempts[w] += 1;
                    let v = match local.get(w) {
                        Some(l) if !l.is_empty() && attempts[w] % 2 == 1 => {
                            l[rng.next_bounded(l.len() as u64) as usize]
                        }
                        _ => rng.next_bounded(p as u64) as usize,
                    };
                    match if v == w { None } else { deques[v].pop_front() } {
                        Some(item) => {
                            // The serialized window on the victim's deque
                            // top: the chunk-distribution serialization the
                            // paper describes.
                            let cost = mult(w, v) * s.steal_ns;
                            let begin = hold(&mut windows[v], time, cost);
                            deques[w].push_back(on_steal(item));
                            r.steals += 1;
                            remote_steals += u64::from(nodes[w] != nodes[v]);
                            r.overhead_ns += cost;
                            (Activity::Steal, begin, begin + cost)
                        }
                        None => {
                            // A failed probe still snoops the victim's cache
                            // line; a remote one crosses the interconnect.
                            let cost = mult(w, v) * self.cost.steal_attempt_ns;
                            r.failed_steals += 1;
                            r.overhead_ns += cost;
                            (Activity::Idle, time, time + cost)
                        }
                    }
                };
                if let Some(t) = trace.as_deref_mut() {
                    t.record(w, start, end, activity);
                }
                Some(end)
            },
        );
        r.makespan_ns = finish;
        (r, remote_steals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_pop_by_worker_index_not_scheduling_order() {
        // Worker 1 schedules its t = 1 event before worker 0 does; the
        // driver still runs worker 0 first at t = 1.
        let mut order = Vec::new();
        let finish = run_workers(
            2,
            |w| if w == 0 { 0.5 } else { 0.0 },
            |w, time| {
                order.push((w, time));
                (time < 1.0).then_some(1.0)
            },
        );
        assert_eq!(order, [(1, 0.0), (0, 0.5), (0, 1.0), (1, 1.0)]);
        assert_eq!(finish, 1.0);
    }
}
