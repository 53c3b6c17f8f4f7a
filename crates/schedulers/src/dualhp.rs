//! DualHP — the dual-approximation scheduler of Bleuse et al. \[15\], as
//! described in the paper's §6.
//!
//! For a guess λ on the optimal makespan: any task longer than λ on one
//! resource class is forced onto the other; the remaining (flexible) tasks
//! are packed onto the GPUs by decreasing acceleration factor while the GPU
//! makespan stays within 2λ; the rest go to the CPUs, and the guess is
//! feasible iff the CPU makespan also stays within 2λ. The smallest feasible
//! λ found by binary search yields a 2-approximation for independent tasks.
//!
//! The DAG-mode variant re-runs this packing on the current ready set every
//! time the ready set changes, accounting for the load of currently
//! executing tasks (§6.2), and orders each class queue by rank (`fifo`, or
//! the bottom-level priorities already attached to the tasks).
//!
//! Performance note: the ready set is sorted once per repartition; each λ
//! probe of the binary search is then a single O(R) pass that allocates
//! nothing, which keeps the per-ready-event cost low enough for the N=64
//! task graphs of Figure 7 (tens of thousands of ready events).

use heteroprio_core::{
    ClassId, Instance, Platform, Schedule, Task, TaskId, TaskRun, WorkerId, WorkerOrder,
};
use heteroprio_simulator::{OnlinePolicy, SimContext, SnapshotOnlinePolicy};

/// Placement of every packed task: (task, worker, start, end).
type Placements = Vec<(TaskId, WorkerId, f64, f64)>;

/// Acceleration of a task relative to the spill class (class 0): its class-0
/// time over its best time on any other class. Equal to
/// [`Task::accel_factor`](heteroprio_core::Task::accel_factor) when `k = 2`.
fn accel_over_spill(task: &Task) -> f64 {
    let best_other =
        (1..task.k()).map(|c| task.time_on(ClassId(c as u16))).fold(f64::INFINITY, f64::min);
    task.time_on(ClassId(0)) / best_other
}

/// The λ probes of one search: the ready tasks pre-sorted once, the alive
/// workers of each class, and buffers every probe reuses, so a probe
/// allocates nothing.
struct Packer {
    /// The ready tasks by decreasing acceleration over the spill class (ties
    /// to the lower id), the order the probes place them in.
    ranked: Vec<(TaskId, Task)>,
    /// Each ranked task's non-spill classes, fastest first (ties to the
    /// lower id), `k - 1` entries per rank. A probe only filters this order.
    prefs: Vec<ClassId>,
    /// Ranks sorted by spill-class time descending (ties to the lower id),
    /// the order of the spill pass.
    by_p_desc: Vec<usize>,
    /// Alive workers per class: only they receive placements. After an
    /// injected worker failure a whole class may be gone, in which case its
    /// tasks are forced onto the surviving classes (and λ grows until that
    /// is feasible).
    workers: Vec<Vec<WorkerId>>,
    /// Per-class worker loads during a probe.
    loads: Vec<Vec<f64>>,
    /// Per-class "refused a task" latch during a probe.
    latched: Vec<bool>,
    /// Per rank: left for the spill pass during a probe.
    spill: Vec<bool>,
}

impl Packer {
    fn new(instance: &Instance, platform: &Platform, tasks: &[TaskId], alive: &[bool]) -> Self {
        let k = platform.k();
        let mut keyed: Vec<(f64, TaskId)> =
            tasks.iter().map(|&t| (accel_over_spill(instance.task(t)), t)).collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let ranked: Vec<(TaskId, Task)> =
            keyed.into_iter().map(|(_, t)| (t, *instance.task(t))).collect();
        let mut by_p_desc: Vec<usize> = (0..ranked.len()).collect();
        by_p_desc.sort_by(|&a, &b| {
            let ((ta, pa), (tb, pb)) = (&ranked[a], &ranked[b]);
            pb.cpu_time().total_cmp(&pa.cpu_time()).then(ta.cmp(tb))
        });
        let mut prefs = Vec::with_capacity(ranked.len() * (k - 1));
        for (_, task) in &ranked {
            let first = prefs.len();
            prefs.extend((1..k).map(|c| ClassId(c as u16)));
            prefs[first..]
                .sort_by(|&a, &b| task.time_on(a).total_cmp(&task.time_on(b)).then(a.cmp(&b)));
        }
        let workers: Vec<Vec<WorkerId>> = (0..k)
            .map(|c| platform.workers_of(ClassId(c as u16)).filter(|w| alive[w.index()]).collect())
            .collect();
        let loads = workers.iter().map(|ws| Vec::with_capacity(ws.len())).collect();
        let spill = vec![false; ranked.len()];
        Packer { ranked, prefs, by_p_desc, workers, loads, latched: vec![false; k], spill }
    }

    /// One λ probe: greedy pack within makespan 2λ, with class 0 as the
    /// spill class. O(R · k · workers-per-class).
    ///
    /// A task may only run on classes where its time is ≤ λ and that have
    /// alive workers. Tasks are scanned by decreasing acceleration over the
    /// spill class; each is offered to its allowed non-spill classes fastest
    /// first. A class that refuses a task latches full and stops taking
    /// flexible tasks; a task whose spill class is disallowed retries
    /// latched classes before failing. Spilled tasks go to class 0
    /// longest-first within 2λ. At `k = 2` this is the paper's packing:
    /// forced tasks on their only class, flexible ones on the GPUs by
    /// decreasing ρ until the first that does not fit, the rest on the CPUs.
    fn fits(&mut self, lambda: f64, avail: &[f64], placements: &mut Placements) -> bool {
        placements.clear();
        let limit = 2.0 * lambda + 1e-12;
        let Packer { ranked, prefs, by_p_desc, workers, loads, latched, spill } = self;
        for (ws, ls) in workers.iter().zip(loads.iter_mut()) {
            ls.clear();
            ls.extend(ws.iter().map(|w| avail[w.index()]));
        }
        latched.fill(false);
        spill.fill(false);
        let stride = workers.len() - 1;
        for (j, &(id, task)) in ranked.iter().enumerate() {
            let over = |c: ClassId| task.time_on(c) > lambda || workers[c.index()].is_empty();
            let prefs = &prefs[j * stride..(j + 1) * stride];
            let spill_ok = !over(ClassId(0));
            let mut try_class = |c: ClassId| {
                place(
                    id,
                    task.time_on(c),
                    &workers[c.index()],
                    &mut loads[c.index()],
                    limit,
                    placements,
                )
            };
            let mut placed = false;
            for &c in prefs {
                if over(c) || latched[c.index()] {
                    continue;
                }
                if try_class(c) {
                    placed = true;
                    break;
                }
                latched[c.index()] = true;
            }
            if placed {
                continue;
            }
            if spill_ok {
                spill[j] = true;
                continue;
            }
            // No spill class: a latched class may still fit this (shorter)
            // task. With no allowed class at all, λ is below the trivial
            // bound.
            if !prefs.iter().any(|&c| !over(c) && latched[c.index()] && try_class(c)) {
                return false;
            }
        }

        // Spill pass: class 0, longest-first list schedule within 2λ.
        by_p_desc.iter().filter(|&&j| spill[j]).all(|&j| {
            let (id, task) = ranked[j];
            place(id, task.cpu_time(), &workers[0], &mut loads[0], limit, placements)
        })
    }
}

/// Place task `id` of duration `time` on the least-loaded of `workers` if it
/// ends within `limit`.
fn place(
    id: TaskId,
    time: f64,
    workers: &[WorkerId],
    loads: &mut [f64],
    limit: f64,
    placements: &mut Placements,
) -> bool {
    let m = min_index(loads);
    let start = loads[m];
    if start + time > limit {
        return false;
    }
    loads[m] = start + time;
    placements.push((id, workers[m], start, loads[m]));
    true
}

#[inline]
fn min_index(loads: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..loads.len() {
        if loads[i] < loads[best] {
            best = i;
        }
    }
    best
}

/// Binary-search the smallest feasible λ; returns the placements of the
/// smallest feasible packing found.
fn search(
    instance: &Instance,
    platform: &Platform,
    tasks: &[TaskId],
    avail: &[f64],
    alive: &[bool],
) -> Placements {
    if tasks.is_empty() || !alive.iter().any(|&a| a) {
        return Vec::new();
    }
    let mut packer = Packer::new(instance, platform, tasks, alive);
    // Grow an upper bound until feasible.
    let mut hi = packer
        .ranked
        .iter()
        .map(|(_, task)| task.min_time())
        .fold(0.0, f64::max)
        .max(avail.iter().copied().fold(0.0, f64::max))
        .max(1e-9);
    let mut best = Vec::new();
    let mut scratch = Vec::new();
    loop {
        if packer.fits(hi, avail, &mut scratch) {
            std::mem::swap(&mut best, &mut scratch);
            break;
        }
        hi *= 2.0;
        assert!(hi.is_finite(), "DualHP upper-bound search diverged");
    }
    let mut lo = 0.0;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        // lint: allow(float-ord): deliberate bisection convergence threshold, not a time comparison.
        if mid <= lo || mid >= hi || (hi - lo) < 1e-9 * hi {
            break;
        }
        if packer.fits(mid, avail, &mut scratch) {
            hi = mid;
            std::mem::swap(&mut best, &mut scratch);
        } else {
            lo = mid;
        }
    }
    best
}

/// DualHP for a set of independent tasks: returns the packed schedule.
pub fn dualhp_independent(instance: &Instance, platform: &Platform) -> Schedule {
    let tasks: Vec<TaskId> = instance.ids().collect();
    let avail = vec![0.0; platform.workers()];
    let alive = vec![true; platform.workers()];
    let placements = search(instance, platform, &tasks, &avail, &alive);
    Schedule {
        runs: placements
            .into_iter()
            .map(|(task, worker, start, end)| TaskRun { task, worker, start, end })
            .collect(),
        aborted: Vec::new(),
    }
}

/// Ranking scheme for the DAG-mode class queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DualHpRank {
    /// Process tasks in the order they became ready.
    #[default]
    Fifo,
    /// Highest (bottom-level) priority first, as attached to the tasks.
    Priority,
}

/// DualHP as an online policy: re-partition the ready set whenever it has
/// changed, then serve each class queue in rank order. Never spoliates.
pub struct DualHpDagPolicy {
    rank: DualHpRank,
    /// Ready, not-yet-started tasks in announcement order.
    pending: Vec<TaskId>,
    /// Announcement sequence number per task id (the FIFO rank), sized
    /// lazily to the graph.
    seq_of: Vec<u64>,
    /// One serve queue per resource class, indexed by class id (sized
    /// lazily at the first repartition).
    queues: Vec<Vec<TaskId>>,
    seq: u64,
    /// Ready set changed since the last repartition.
    dirty: bool,
    /// Worker liveness at the last repartition; a change (failure or
    /// recovery) also forces a repartition, or tasks packed onto a
    /// now-dead class would never be served.
    alive_seen: Vec<bool>,
}

impl DualHpDagPolicy {
    pub fn new(rank: DualHpRank) -> Self {
        DualHpDagPolicy {
            rank,
            pending: Vec::new(),
            seq_of: Vec::new(),
            queues: Vec::new(),
            seq: 0,
            dirty: false,
            alive_seen: Vec::new(),
        }
    }

    fn repartition(&mut self, ctx: &SimContext<'_>) {
        // Worker availability = remaining time of the currently running task.
        // Dead workers receive no placements, so a class wiped out by a
        // fault plan spills its whole share onto the survivors.
        let avail: Vec<f64> = (0..ctx.platform.workers())
            .map(|w| ctx.running[w].map_or(0.0, |r| (r.end - ctx.now).max(0.0)))
            .collect();
        let placements =
            search(ctx.graph.instance(), ctx.platform, &self.pending, &avail, ctx.alive);
        self.queues.resize(ctx.platform.k(), Vec::new());
        for q in &mut self.queues {
            q.clear();
        }
        for (task, worker, _, _) in placements {
            self.queues[ctx.platform.class_of(worker).index()].push(task);
        }
        // Serve order within each class. Queues pop from the back, so sort
        // ascending in urgency.
        let instance = ctx.graph.instance();
        for queue in &mut self.queues {
            match self.rank {
                DualHpRank::Fifo => {
                    queue.sort_by_key(|&t| std::cmp::Reverse(self.seq_of[t.index()]));
                }
                DualHpRank::Priority => {
                    queue.sort_by(|&a, &b| {
                        instance
                            .task(a)
                            .priority
                            .total_cmp(&instance.task(b).priority)
                            .then(b.cmp(&a))
                    });
                }
            }
        }
    }
}

impl OnlinePolicy for DualHpDagPolicy {
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &SimContext<'_>) {
        let n = ctx.graph.instance().len();
        if self.seq_of.len() < n {
            self.seq_of.resize(n, u64::MAX);
        }
        for &t in tasks {
            self.pending.push(t);
            self.seq_of[t.index()] = self.seq;
            self.seq = self.seq.checked_add(1).expect("u64 push sequence never saturates");
        }
        self.dirty = true;
    }

    fn pick_task(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<TaskId> {
        if self.dirty || self.alive_seen != ctx.alive {
            self.alive_seen = ctx.alive.to_vec();
            self.repartition(ctx);
            self.dirty = false;
        }
        let queue = self.queues.get_mut(ctx.platform.class_of(worker).index())?;
        let task = queue.pop()?;
        self.pending.retain(|&t| t != task);
        Some(task)
    }

    fn worker_order(&self) -> WorkerOrder {
        WorkerOrder::GpusFirst
    }
}

impl SnapshotOnlinePolicy for DualHpDagPolicy {
    // `pending` holds the full ready set in announcement order. The default
    // `restore` re-announces that list, assigning fresh ascending sequence
    // numbers and marking the partition dirty, so the next pick re-runs the
    // λ search on exactly the state the original run would have had.
    fn ready_order(&self) -> Vec<TaskId> {
        self.pending.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_bounds::{combined_lower_bound, optimal_makespan};
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::ResourceKind;
    use heteroprio_simulator::simulate;
    use heteroprio_taskgraph::{check_precedence, cholesky, ConstTiming, DagBuilder, TaskGraph};

    #[test]
    fn independent_simple_split() {
        // One GPU-friendly, one CPU-friendly task: both classes get theirs.
        let inst = Instance::from_times(&[(10.0, 1.0), (1.0, 10.0)]);
        let plat = Platform::new(1, 1);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        assert!(approx_eq(sched.makespan(), 1.0), "{}", sched.makespan());
    }

    #[test]
    fn independent_within_twice_optimal() {
        // Random-ish small instances: certified 2-approximation.
        let seeds: Vec<Vec<(f64, f64)>> = vec![
            vec![(3.0, 1.0), (2.0, 5.0), (4.0, 4.0), (1.0, 2.0), (6.0, 1.0)],
            vec![(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 3.0)],
            vec![(7.0, 2.0), (2.0, 7.0), (5.0, 5.0), (1.0, 1.0), (3.0, 6.0), (6.0, 3.0)],
        ];
        for times in seeds {
            let inst = Instance::from_times(&times);
            for plat in [Platform::new(1, 1), Platform::new(2, 1), Platform::new(2, 2)] {
                let sched = dualhp_independent(&inst, &plat);
                sched.validate(&inst, &plat).unwrap();
                let opt = optimal_makespan(&inst, &plat).makespan;
                assert!(sched.makespan() <= 2.0 * opt + 1e-9, "{} > 2 × {opt}", sched.makespan());
            }
        }
    }

    #[test]
    fn independent_forced_assignment_respected() {
        // A task with enormous CPU time must land on a GPU and vice versa.
        let inst = Instance::from_times(&[(1000.0, 1.0), (1.0, 1000.0), (2.0, 2.0)]);
        let plat = Platform::new(1, 1);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        let r0 = sched.run_of(TaskId(0)).unwrap();
        assert_eq!(plat.kind_of(r0.worker), ResourceKind::Gpu);
        let r1 = sched.run_of(TaskId(1)).unwrap();
        assert_eq!(plat.kind_of(r1.worker), ResourceKind::Cpu);
    }

    #[test]
    fn dag_mode_completes_and_respects_deps() {
        let g = cholesky(5, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(3, 2);
        for rank in [DualHpRank::Fifo, DualHpRank::Priority] {
            let mut policy = DualHpDagPolicy::new(rank);
            let res = simulate(&g, &plat, &mut policy);
            res.schedule.validate(g.instance(), &plat).unwrap();
            check_precedence(&g, &res.schedule).unwrap();
            assert_eq!(res.spoliations, 0);
        }
    }

    #[test]
    fn dag_mode_on_independent_tasks_close_to_area_bound() {
        let times: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let p = 1.0 + (i % 7) as f64;
                (p, p / (1.0 + (i % 5) as f64))
            })
            .collect();
        let inst = Instance::from_times(&times);
        let plat = Platform::new(4, 2);
        let g = TaskGraph::independent(inst.clone());
        let mut policy = DualHpDagPolicy::new(DualHpRank::Fifo);
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(&inst, &plat).unwrap();
        // The 2-approximation is proved against OPT, not the area bound, and
        // the online DAG variant repartitions greedily — allow some slack.
        let lb = combined_lower_bound(&inst, &plat);
        assert!(res.makespan() <= 3.0 * lb + 1e-6, "{} vs lb {lb}", res.makespan());
    }

    #[test]
    fn independent_three_classes_packs_validly() {
        // cpu=2, gpu=2, fpga=1: forced and flexible tasks across 3 classes.
        let inst = Instance::from_class_times(&[
            &[10.0, 1.0, 5.0],  // GPU-forced at small λ
            &[1.0, 10.0, 10.0], // CPU-friendly
            &[6.0, 3.0, 1.0],   // FPGA-friendly
            &[4.0, 4.0, 4.0],   // indifferent
            &[9.0, 2.0, 2.0],   // accelerated on either device class
        ]);
        let plat = Platform::from_counts(&[2, 2, 1]);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        assert_eq!(sched.runs.len(), inst.len());
        // The λ search must beat the trivial every-task-on-class-0 pile.
        let serial: f64 = inst.ids().map(|t| inst.task(t).time_on(ClassId(0))).sum();
        assert!(sched.makespan() < serial, "{} vs serial {serial}", sched.makespan());
    }

    #[test]
    fn dag_mode_three_classes_completes() {
        // Re-time a Cholesky graph onto three classes (an FPGA twice as
        // slow as the GPU), preserving its structure.
        let g = cholesky(4, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let mut b = DagBuilder::new();
        for t in g.instance().ids() {
            let task = g.instance().task(t);
            b.add_task(
                Task::from_times(&[task.cpu_time(), task.gpu_time(), 2.0 * task.gpu_time()]),
                g.label(t),
            );
        }
        for t in g.instance().ids() {
            for &s in g.successors(t) {
                b.add_edge(t, s);
            }
        }
        let g3 = b.build().unwrap();
        let plat = Platform::from_counts(&[2, 1, 1]);
        let mut policy = DualHpDagPolicy::new(DualHpRank::Fifo);
        let res = simulate(&g3, &plat, &mut policy);
        res.schedule.validate(g3.instance(), &plat).unwrap();
        check_precedence(&g3, &res.schedule).unwrap();
    }

    #[test]
    fn packing_prefers_high_accel_tasks_on_gpu() {
        // With a tight GPU budget, the most accelerated flexible tasks must
        // be the ones packed on the GPU.
        let inst = Instance::from_times(&[
            (20.0, 1.0), // ρ=20
            (10.0, 1.0), // ρ=10
            (2.0, 1.0),  // ρ=2
            (2.0, 1.0),  // ρ=2
        ]);
        let plat = Platform::new(4, 1);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        let gpu_tasks = sched.tasks_on(&plat, ResourceKind::Gpu);
        assert!(gpu_tasks.contains(&TaskId(0)), "{gpu_tasks:?}");
    }
}
