//! Executing a static scheduler's plan in the kernel.
//!
//! HEFT, the DualHP packer and the heuristics first compute a plan: a
//! [`Schedule`] fixing each task's worker and each worker's task order.
//! [`PlanPolicy`] executes it as a kernel policy, so a planned run is
//! traced, metered, journaled and resumed like an online one.

use heteroprio_core::kernel::{KernelContext, KernelPolicy, Pick, SnapshotPolicy};
use heteroprio_core::{Platform, Schedule, TaskId, WorkerId};

/// Each idle worker runs the head of its plan (planned start order) once
/// that task is ready, and otherwise waits for the next event. A plan that
/// starts every task at the later of its ready time and its worker's
/// previous end comes back unchanged. Never spoliates.
#[derive(Clone, Debug)]
pub struct PlanPolicy {
    /// Per worker, the planned tasks not yet picked, the next one last.
    plans: Vec<Vec<TaskId>>,
    /// Per task, announced and not yet picked.
    ready: Vec<bool>,
}

impl PlanPolicy {
    /// Execute `plan` on `platform`. Equal planned starts on one worker
    /// keep the plan's run order, which every planner here makes topological.
    pub fn new(plan: &Schedule, platform: &Platform) -> Self {
        let mut plans: Vec<Vec<(f64, TaskId)>> = vec![Vec::new(); platform.workers()];
        for run in &plan.runs {
            let worker = plans.get_mut(run.worker.index()).expect("a plan uses platform workers");
            worker.push((run.start, run.task));
        }
        let plans = plans
            .into_iter()
            .map(|mut runs| {
                runs.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep plan order
                runs.into_iter().rev().map(|(_, task)| task).collect()
            })
            .collect();
        PlanPolicy { plans, ready: vec![false; plan.runs.len()] }
    }
}

impl KernelPolicy for PlanPolicy {
    fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
        for &task in tasks {
            *self.ready.get_mut(task.index()).expect("the plan covers every task") = true;
        }
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        let plan = self.plans.get_mut(worker.index())?;
        // A restored snapshot starts every plan from the top: skip the
        // heads that already completed.
        let done = |t: &TaskId| ctx.ran_kind.get(t.index()).is_some_and(Option::is_some);
        while plan.last().is_some_and(done) {
            plan.pop();
        }
        let &task = plan.last()?;
        if !std::mem::take(self.ready.get_mut(task.index())?) {
            return None;
        }
        plan.pop();
        Some(Pick { task, queue_end: None })
    }
}

/// The next pick depends on readiness, not on announcement order, so the
/// default re-announcing `restore` is exact.
impl SnapshotPolicy for PlanPolicy {
    fn ready_order(&self) -> Vec<TaskId> {
        (0u32..).zip(&self.ready).filter(|(_, &r)| r).map(|(t, _)| TaskId(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::kernel::{self, Run};
    use heteroprio_core::{IndependentWorkload, Instance, TaskRun};
    use heteroprio_metrics::NullRegistry;
    use heteroprio_trace::NullSink;

    #[test]
    fn a_plan_comes_back_from_the_kernel_in_its_own_order() {
        let platform = Platform::new(1, 1);
        let instance = Instance::from_times(&[(1.0, 4.0), (2.0, 1.0), (3.0, 3.0)]);
        let run = |task, worker, start, end| TaskRun {
            task: TaskId(task),
            worker: WorkerId(worker),
            start,
            end,
        };
        // The CPU runs task 2 before task 0; the GPU runs task 1.
        let plan = Schedule {
            runs: vec![run(0, 0, 3.0, 4.0), run(1, 1, 0.0, 1.0), run(2, 0, 0.0, 3.0)],
            aborted: Vec::new(),
        };
        let mut policy = PlanPolicy::new(&plan, &platform);
        let mut workload = IndependentWorkload::new(&instance);
        let mut sink = NullSink;
        let spec = Run::new(&mut sink, &NullRegistry);
        let out = kernel::run(&platform, &mut workload, &mut policy, spec).unwrap();
        let mut got = out.schedule.runs;
        got.sort_by_key(|r| r.task);
        assert_eq!(got, vec![run(0, 0, 3.0, 4.0), run(1, 1, 0.0, 1.0), run(2, 0, 0.0, 3.0)]);
    }
}
