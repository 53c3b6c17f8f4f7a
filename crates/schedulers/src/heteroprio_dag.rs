//! DAG-mode HeteroPrio (§6.2 of the paper).
//!
//! "Since HeteroPrio is a list algorithm, HeteroPrio rule can be used to
//! assign a ready task to any idle resource. If no ready task is available
//! for an idle resource, a spoliation attempt is done on currently running
//! tasks." Priorities (bottom levels) break ties among equal acceleration
//! factors and among spoliation candidates with equal completion times.

use heteroprio_core::kernel::KernelContext;
use heteroprio_core::{HeteroPrioConfig, HeteroPrioState, Platform, TaskId, WorkerId, WorkerOrder};
use heteroprio_simulator::{OnlinePolicy, SimContext, SnapshotOnlinePolicy};
use heteroprio_taskgraph::TaskGraph;

/// HeteroPrio as an online policy for the runtime engine: a shell around
/// the core [`HeteroPrioState`], the queue and victim search the
/// independent engines use. Its spoliation check charges a restart what
/// the engine will charge, transfer penalty included.
pub struct HeteroPrioDagPolicy {
    state: HeteroPrioState,
}

impl HeteroPrioDagPolicy {
    /// A two-class policy until [`OnlinePolicy::init`] sizes it to the
    /// platform.
    pub fn new(config: HeteroPrioConfig) -> Self {
        HeteroPrioDagPolicy { state: HeteroPrioState::new(2, config) }
    }
}

impl OnlinePolicy for HeteroPrioDagPolicy {
    fn init(&mut self, _graph: &TaskGraph, platform: &Platform) {
        self.state = HeteroPrioState::new(platform.k(), self.state.config());
    }

    fn on_ready(&mut self, tasks: &[TaskId], ctx: &SimContext<'_>) {
        self.state.announce(ctx.graph.instance(), tasks);
    }

    fn pick_task(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<TaskId> {
        self.state.pick(ctx.platform, worker).map(|pick| pick.task)
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<WorkerId> {
        let kernel = KernelContext {
            now: ctx.now,
            platform: ctx.platform,
            running: ctx.running,
            ran_kind: ctx.ran_kind,
            alive: ctx.alive,
        };
        let charged = |task, class| ctx.effective_time(task, class);
        self.state.victim(ctx.graph.instance(), worker, &kernel, charged)
    }

    fn worker_order(&self) -> WorkerOrder {
        self.state.config().worker_order
    }
}

impl SnapshotOnlinePolicy for HeteroPrioDagPolicy {
    // The default `restore` (re-announce through `on_ready`) is exact: the
    // class queue's snapshot order re-pushes to the same queue.
    fn ready_order(&self) -> Vec<TaskId> {
        self.state.ready_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::{heteroprio, Instance, Platform, ResourceKind, Task};
    use heteroprio_simulator::simulate;
    use heteroprio_taskgraph::{check_precedence, cholesky, ConstTiming, DagBuilder, TaskGraph};

    #[test]
    fn matches_core_heteroprio_on_independent_tasks() {
        // On an edge-free graph the DAG policy must reproduce the core
        // independent-task implementation exactly.
        let times: Vec<(f64, f64)> = (1..=12)
            .map(|i| {
                let p = (i * 37 % 11 + 1) as f64;
                let q = (i * 53 % 7 + 1) as f64;
                (p, q)
            })
            .collect();
        let inst = Instance::from_times(&times);
        let plat = Platform::new(3, 2);
        let cfg = HeteroPrioConfig::new();
        let core_res = heteroprio(&inst, &plat, &cfg);
        let g = TaskGraph::independent(inst.clone());
        let mut policy = HeteroPrioDagPolicy::new(cfg);
        let sim_res = simulate(&g, &plat, &mut policy);
        sim_res.schedule.validate(&inst, &plat).unwrap();
        assert!(
            approx_eq(core_res.makespan(), sim_res.makespan()),
            "core {} vs dag {}",
            core_res.makespan(),
            sim_res.makespan()
        );
        assert_eq!(core_res.spoliations, sim_res.spoliations);
    }

    #[test]
    fn cholesky_runs_to_completion_and_respects_deps() {
        let g = cholesky(6, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(4, 2);
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(g.instance(), &plat).unwrap();
        check_precedence(&g, &res.schedule).unwrap();
        assert!(res.makespan() > 0.0);
    }

    #[test]
    fn spoliation_disabled_config_spoliates_nothing() {
        let inst = Instance::from_times(&[(100.0, 1.0), (100.0, 1.0)]);
        let g = TaskGraph::independent(inst);
        let plat = Platform::new(1, 1);
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::without_spoliation());
        let res = simulate(&g, &plat, &mut policy);
        assert_eq!(res.spoliations, 0);
        assert!(approx_eq(res.makespan(), 100.0));
    }

    #[test]
    fn queue_serves_extremes_to_matching_resources() {
        // Four ready tasks with distinct ρ: GPU should take the highest-ρ
        // tasks, CPU the lowest.
        let inst = Instance::from_times(&[(8.0, 1.0), (4.0, 1.0), (1.0, 4.0), (1.0, 8.0)]);
        let g = TaskGraph::independent(inst.clone());
        let plat = Platform::new(2, 2);
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let res = simulate(&g, &plat, &mut policy);
        for r in &res.schedule.runs {
            let rho = inst.task(r.task).accel_factor();
            let kind = plat.kind_of(r.worker);
            if rho > 1.0 {
                assert_eq!(kind, ResourceKind::Gpu, "{} with rho {rho}", r.task);
            } else {
                assert_eq!(kind, ResourceKind::Cpu, "{} with rho {rho}", r.task);
            }
        }
        assert!(approx_eq(res.makespan(), 1.0));
    }

    #[test]
    fn three_class_cholesky_completes_and_respects_deps() {
        // Re-time Cholesky 4 onto three classes (an FPGA twice as slow as
        // the GPU), preserving its structure.
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
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let res = simulate(&g3, &plat, &mut policy);
        res.schedule.validate(g3.instance(), &plat).unwrap();
        check_precedence(&g3, &res.schedule).unwrap();
    }
}
