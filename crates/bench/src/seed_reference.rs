//! Frozen copy of the pre-kernel HeteroPrio engine, kept as a differential
//! testing fixture.
//!
//! This is the independent-task engine exactly as it existed before the
//! discrete-event loop was extracted into `heteroprio_core::kernel`: one
//! self-contained simulation owning its own ready-queue sort, completion
//! heap, generation counters and idle bookkeeping. It is deliberately
//! **not** maintained as a production engine — its sole purpose is to pin
//! the unified kernel against the seed behaviour:
//! `tests/kernel_parity.rs` asserts event-for-event
//! identical traces between [`seed_heteroprio_traced`] and
//! [`heteroprio_core::heteroprio_traced`], on small random instances and on
//! the Fig. 6-scale Cholesky instances (N = 16, 32, 64) on the paper's
//! 20 CPU + 4 GPU platform.
//!
//! Do not "fix" or modernise this module; behavioural changes belong in the
//! kernel, and this copy exists precisely so such changes are detected.

use heteroprio_core::time::{strictly_less, F64Ord};
use heteroprio_core::{
    HeteroPrioConfig, HeteroPrioResult, Instance, Platform, QueueTieBreak, ResourceKind, Schedule,
    TaskId, TaskRun, WorkerId, WorkerOrder,
};
use heteroprio_trace::{NullSink, QueueEnd, SchedEvent, TraceSink, TraceSummary};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Run the frozen seed engine (Algorithm 1) on an instance of independent
/// tasks. Mirrors [`heteroprio_core::heteroprio()`].
pub fn seed_heteroprio(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> HeteroPrioResult {
    seed_heteroprio_traced(instance, platform, config, &mut NullSink)
}

/// [`seed_heteroprio`] with a trace sink. Mirrors
/// [`heteroprio_core::heteroprio_traced`].
pub fn seed_heteroprio_traced<S: TraceSink>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    sink: &mut S,
) -> HeteroPrioResult {
    let ids: Vec<TaskId> = instance.ids().collect();
    let mut sim = Sim::new(instance, platform, config, sink);
    for &t in &ids {
        sim.emit(SchedEvent::TaskReady { time: 0.0, task: t.0 });
    }
    sim.queue = seed_sorted_queue(instance, &ids, config.queue_tie);
    sim.run();
    let mut summary = sim.summary;
    summary.finish();
    HeteroPrioResult {
        schedule: sim.schedule,
        first_idle: summary.first_idle,
        spoliations: summary.spoliation_count,
        summary,
    }
}

/// The seed's ready-queue build, frozen: one cached key per task, then a
/// stable sort on (−ρ, tie, task id), or on (−ρ, tie, position in `ids`)
/// under insertion order, where the tie is the priority oriented towards
/// the end whose class the ratio favours. The live `sorted_queue` must
/// produce this order; keeping a copy here lets `kernel_parity` check it.
pub fn seed_sorted_queue(
    instance: &Instance,
    ids: &[TaskId],
    tie: QueueTieBreak,
) -> VecDeque<TaskId> {
    let mut keyed: Vec<((F64Ord, F64Ord, usize), TaskId)> = ids
        .iter()
        .enumerate()
        .map(|(pos, &id)| {
            let t = instance.task(id);
            let rho = t.accel_factor();
            let (tie_key, anchor) = match tie {
                // lint: allow(float-ord): orientation branch, not arithmetic — ρ = 1 exactly
                // takes the accelerated-side tie rule.
                QueueTieBreak::Priority if rho >= 1.0 => (-t.priority, id.index()),
                QueueTieBreak::Priority => (t.priority, id.index()),
                QueueTieBreak::InsertionOrder => (0.0, pos),
            };
            ((F64Ord(-rho), F64Ord(tie_key), anchor), id)
        })
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, id)| id).collect()
}

#[derive(Clone, Copy, Debug)]
struct Running {
    task: TaskId,
    start: f64,
    end: f64,
}

/// Event-driven simulation state of the seed engine.
struct Sim<'a, S: TraceSink> {
    instance: &'a Instance,
    platform: &'a Platform,
    config: &'a HeteroPrioConfig,
    queue: VecDeque<TaskId>,
    running: Vec<Option<Running>>,
    /// Event invalidation counters (bumped when a run is aborted).
    generation: Vec<u64>,
    /// Min-heap of (completion time, worker, generation).
    pending: BinaryHeap<Reverse<(F64Ord, u32, u64)>>,
    idle: Vec<WorkerId>,
    completed: usize,
    schedule: Schedule,
    sink: &'a mut S,
    summary: TraceSummary,
    /// Whether a `WorkerIdleBegin` has been emitted and not yet closed.
    idle_announced: Vec<bool>,
}

impl<'a, S: TraceSink> Sim<'a, S> {
    fn new(
        instance: &'a Instance,
        platform: &'a Platform,
        config: &'a HeteroPrioConfig,
        sink: &'a mut S,
    ) -> Self {
        let summary = if sink.is_enabled() {
            TraceSummary::with_timeline(platform.workers())
        } else {
            TraceSummary::new(platform.workers())
        };
        Sim {
            instance,
            platform,
            config,
            queue: VecDeque::new(),
            running: vec![None; platform.workers()],
            generation: vec![0; platform.workers()],
            pending: BinaryHeap::new(),
            idle: platform.all_workers().collect(),
            completed: 0,
            schedule: Schedule::new(),
            sink,
            summary,
            idle_announced: vec![false; platform.workers()],
        }
    }

    #[inline]
    fn emit(&mut self, event: SchedEvent) {
        self.summary.record(&event);
        self.sink.emit(event);
    }

    fn worker_sort_key(&self, w: WorkerId) -> (u8, u32) {
        let kind = self.platform.kind_of(w);
        let class = match self.config.worker_order {
            WorkerOrder::GpusFirst => match kind {
                ResourceKind::Gpu => 0,
                ResourceKind::Cpu => 1,
            },
            WorkerOrder::CpusFirst => match kind {
                ResourceKind::Cpu => 0,
                ResourceKind::Gpu => 1,
            },
            WorkerOrder::ById => 0,
        };
        (class, w.0)
    }

    fn start(&mut self, w: WorkerId, task: TaskId, now: f64) {
        let dur = self.instance.task(task).time_on(self.platform.kind_of(w));
        let end = now + dur;
        if self.idle_announced[w.index()] {
            self.idle_announced[w.index()] = false;
            self.emit(SchedEvent::WorkerIdleEnd { time: now, worker: w.0 });
        }
        self.emit(SchedEvent::TaskStart {
            time: now,
            task: task.0,
            worker: w.0,
            expected_end: end,
        });
        self.running[w.index()] = Some(Running { task, start: now, end });
        self.pending.push(Reverse((F64Ord::new(end), w.0, self.generation[w.index()])));
    }

    /// Pick a spoliation victim for idle worker `w` at time `now`:
    /// tasks running on the other class, in decreasing order of expected
    /// completion time (ties: highest priority, then lowest id), first one
    /// strictly improvable.
    fn pick_victim(&self, w: WorkerId, now: f64) -> Option<WorkerId> {
        let my_kind = self.platform.kind_of(w);
        let mut candidates: Vec<(WorkerId, Running)> = self
            .platform
            .workers_of(my_kind.other())
            .filter_map(|v| self.running[v.index()].map(|r| (v, r)))
            .collect();
        candidates.sort_by(|(_, a), (_, b)| {
            b.end.total_cmp(&a.end).then_with(|| {
                let ta = self.instance.task(a.task);
                let tb = self.instance.task(b.task);
                tb.priority.total_cmp(&ta.priority).then(a.task.cmp(&b.task))
            })
        });
        for (v, r) in candidates {
            let new_end = now + self.instance.task(r.task).time_on(my_kind);
            if strictly_less(new_end, r.end) {
                return Some(v);
            }
        }
        None
    }

    /// Let every idle worker act (queue pop or spoliation) until no action is
    /// possible at the current instant.
    fn assign_fixpoint(&mut self, now: f64) {
        loop {
            let mut idle = std::mem::take(&mut self.idle);
            idle.sort_by_key(|&w| self.worker_sort_key(w));
            self.idle = idle;
            let mut acted = false;
            let mut still_idle: Vec<WorkerId> = Vec::new();
            let mut newly_idle: Vec<WorkerId> = Vec::new();
            let workers: Vec<WorkerId> = self.idle.drain(..).collect();
            for w in workers {
                let kind = self.platform.kind_of(w);
                let (popped, end) = match kind {
                    ResourceKind::Gpu => (self.queue.pop_front(), QueueEnd::Front),
                    ResourceKind::Cpu => (self.queue.pop_back(), QueueEnd::Back),
                };
                if let Some(task) = popped {
                    self.emit(SchedEvent::QueuePop { time: now, task: task.0, worker: w.0, end });
                    self.start(w, task, now);
                    acted = true;
                    continue;
                }
                // Queue empty: this worker is (at least momentarily) idle.
                // The WorkerIdleBegin precedes any spoliation attempt, so
                // T_FirstIdle covers thieves that steal work immediately.
                if !self.idle_announced[w.index()] {
                    self.idle_announced[w.index()] = true;
                    self.emit(SchedEvent::WorkerIdleBegin { time: now, worker: w.0 });
                }
                if !self.config.disable_spoliation {
                    if let Some(victim) = self.pick_victim(w, now) {
                        let r = self.running[victim.index()].take().expect("victim running");
                        self.generation[victim.index()] += 1; // invalidate its event
                                                              // lint: allow(schedule-mut): frozen pre-kernel engine kept as a differential-testing fixture.
                        self.schedule.aborted.push(TaskRun {
                            task: r.task,
                            worker: victim,
                            start: r.start,
                            end: now,
                        });
                        self.emit(SchedEvent::Spoliation {
                            time: now,
                            task: r.task.0,
                            victim: victim.0,
                            thief: w.0,
                            wasted_work: now - r.start,
                        });
                        self.start(w, r.task, now);
                        newly_idle.push(victim);
                        acted = true;
                        continue;
                    }
                }
                still_idle.push(w);
            }
            self.idle = still_idle;
            self.idle.extend(newly_idle);
            if !acted {
                return;
            }
        }
    }

    fn run(&mut self) {
        let total = self.instance.len();
        let mut now = 0.0;
        self.assign_fixpoint(now);
        while self.completed < total {
            // Advance to the next valid completion event.
            let (t, w) = loop {
                let Reverse((F64Ord(t), w, generation)) =
                    self.pending.pop().expect("tasks remain but nothing is running");
                if self.generation[w as usize] == generation {
                    break (t, WorkerId(w));
                }
            };
            debug_assert!(t >= now);
            now = t;
            self.complete(w, now);
            // Drain any other completions at exactly the same instant so the
            // idle set is processed coherently in configured order.
            while let Some(&Reverse((F64Ord(t2), w2, g2))) = self.pending.peek() {
                if t2 == now && self.generation[w2 as usize] == g2 {
                    self.pending.pop();
                    self.complete(WorkerId(w2), now);
                } else if self.generation[w2 as usize] != g2 {
                    self.pending.pop();
                } else {
                    break;
                }
            }
            self.assign_fixpoint(now);
        }
    }

    fn complete(&mut self, w: WorkerId, now: f64) {
        let r = self.running[w.index()].take().expect("completion of empty worker");
        // lint: allow(schedule-mut): frozen pre-kernel engine kept as a differential-testing fixture.
        self.schedule.runs.push(TaskRun { task: r.task, worker: w, start: r.start, end: now });
        self.emit(SchedEvent::TaskComplete { time: now, task: r.task.0, worker: w.0 });
        self.completed += 1;
        self.idle.push(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::heteroprio;

    #[test]
    fn seed_engine_matches_kernel_on_a_small_instance() {
        let inst = Instance::from_times(&[(4.0, 1.0), (3.0, 1.0), (1.0, 2.0), (1.0, 4.0)]);
        let plat = Platform::new(1, 1);
        let cfg = HeteroPrioConfig::new();
        let seed = seed_heteroprio(&inst, &plat, &cfg);
        let new = heteroprio(&inst, &plat, &cfg);
        assert_eq!(seed.schedule.runs, new.schedule.runs);
        assert_eq!(seed.schedule.aborted, new.schedule.aborted);
        assert_eq!(seed.spoliations, new.spoliations);
    }
}
