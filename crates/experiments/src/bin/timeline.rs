//! Time-resolved view of the Figure 9 story: per-class utilization and
//! ready-queue sparklines over the schedule for each algorithm, plus
//! ramp-up times — DualHP's CPUs sit idle at the beginning, HeteroPrio's
//! do not.
//!
//! Profiles are derived from the scheduler's live event stream (the ready
//! line is the scheduler's actual queue depth, which a finished schedule
//! alone cannot show).
//!
//! Usage: `timeline [N]` (default N = 16).

#![forbid(unsafe_code)]

use heteroprio_core::{schedule_from_events, ResourceKind};
use heteroprio_experiments::{
    ramp_up_time, ready_profile_from_events, trace_dag, utilization_profile, DAG_PAPER,
};
use heteroprio_taskgraph::Factorization;
use heteroprio_trace::VecSink;
use heteroprio_workloads::{paper_platform, ChameleonTiming};

fn main() {
    let n: usize = std::env::args().skip(1).find_map(|a| a.parse().ok()).unwrap_or(16);
    let platform = paper_platform();
    let graph = Factorization::Cholesky.generate(n, &ChameleonTiming);
    println!("Cholesky N={n} on 20 CPUs + 4 GPUs — utilization over normalized time\n");
    for (name, algo) in DAG_PAPER {
        let mut sink = VecSink::new();
        let sched = trace_dag(algo, &graph, &platform, &mut sink);
        let events = sink.into_events();
        let width = 56;
        let rebuilt = schedule_from_events(&events);
        let cpu = utilization_profile(&rebuilt, &platform, ResourceKind::Cpu, width);
        let gpu = utilization_profile(&rebuilt, &platform, ResourceKind::Gpu, width);
        let ready = ready_profile_from_events(&events, width);
        let ramp = ramp_up_time(&sched, &platform, ResourceKind::Cpu, 0.5)
            .map_or("never".to_string(), |t| format!("{:.0}ms", t));
        println!("{name} (makespan {:.0}ms)", sched.makespan());
        println!("  CPU |{}| mean {:.2}, 50%-ramp-up {}", cpu.sparkline(), cpu.mean(), ramp);
        println!("  GPU |{}| mean {:.2}", gpu.sparkline(), gpu.mean());
        println!("  RDY |{}| peak {:.0} ready tasks", ready.sparkline(), ready.max());
        println!();
    }
}
