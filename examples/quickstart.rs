//! Quickstart: schedule a handful of independent tasks with HeteroPrio and
//! inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use heteroprio::bounds::{area_bound, combined_lower_bound, optimal_makespan};
use heteroprio::core::heteroprio as hp;
use heteroprio::core::{HeteroPrioConfig, Instance, Platform, Task};

fn main() {
    // A platform with 2 CPU cores and 1 GPU.
    let platform = Platform::new(2, 1);

    // Six tasks with unrelated processing times (cpu, gpu). The acceleration
    // factor p/q drives HeteroPrio: GPUs serve the most accelerated tasks,
    // CPUs the least accelerated ones.
    let mut instance = Instance::new();
    instance.push(Task::new(28.8, 1.0)); // a GEMM-like task, 28.8x faster on GPU
    instance.push(Task::new(28.8, 1.0));
    instance.push(Task::new(8.7, 1.0)); // TRSM-like
    instance.push(Task::new(1.7, 1.0)); // POTRF-like, barely accelerated
    instance.push(Task::new(2.0, 4.0)); // prefers the CPU
    instance.push(Task::new(1.0, 3.0));

    let result = hp(&instance, &platform, &HeteroPrioConfig::new());
    result.schedule.validate(&instance, &platform).expect("valid schedule");

    println!("HeteroPrio schedule (makespan {:.2}):", result.makespan());
    println!("{}", result.schedule.render_ascii(&platform, 64));
    println!("spoliations: {}", result.spoliations);
    println!("first idle time: {:?}", result.first_idle);

    // How good is it? Compare against the area bound (fractional relaxation)
    // and, for an instance this small, the true optimum.
    let ab = area_bound(&instance, &platform).expect("tasks built by Task::new have valid times");
    let lb = combined_lower_bound(&instance, &platform);
    let opt = optimal_makespan(&instance, &platform);
    println!("area bound      : {:.3}", ab.value);
    println!("combined LB     : {:.3}", lb);
    println!("exact optimum   : {:.3}", opt.makespan);
    println!("HeteroPrio ratio: {:.3}", result.makespan() / opt.makespan);
    assert!(result.makespan() <= (2.0 + 2.0_f64.sqrt()) * opt.makespan + 1e-9);
}
