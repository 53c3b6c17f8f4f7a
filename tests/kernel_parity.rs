//! Differential test: the unified event kernel reproduces the seed engine.
//!
//! The independent-task mode of `heteroprio_core::kernel` (driven through
//! the public `heteroprio_traced` entry point) must be **event-for-event**
//! identical to the frozen pre-kernel engine kept in
//! `heteroprio_bench::seed_reference` — same events, same order, same
//! timestamps, same schedule — across both queue tie-break modes, with and
//! without spoliation, and on the Fig. 6-scale Cholesky instances.

use heteroprio::core::{
    heteroprio_traced, HeteroPrioConfig, Instance, Platform, QueueTieBreak, Task,
};
use heteroprio::taskgraph::Factorization;
use heteroprio::trace::VecSink;
use heteroprio::workloads::{independent_instance, paper_platform, ChameleonTiming};
use heteroprio_bench::seed_reference::seed_heteroprio_traced;
use proptest::prelude::*;

fn task_strategy() -> impl Strategy<Value = Task> {
    (0.1f64..50.0, 0.1f64..50.0).prop_map(|(p, q)| Task::new(p, q))
}

fn instance_strategy(max: usize) -> impl Strategy<Value = Instance> {
    prop::collection::vec(task_strategy(), 1..=max).prop_map(Instance::from_tasks)
}

fn platform_strategy() -> impl Strategy<Value = Platform> {
    (1usize..=4, 1usize..=3).prop_map(|(m, n)| Platform::new(m, n))
}

fn assert_identical(instance: &Instance, platform: &Platform, config: &HeteroPrioConfig) {
    let mut seed_sink = VecSink::new();
    let seed = seed_heteroprio_traced(instance, platform, config, &mut seed_sink);
    let mut kernel_sink = VecSink::new();
    let kernel = heteroprio_traced(instance, platform, config, &mut kernel_sink);
    assert_eq!(seed_sink.events, kernel_sink.events, "event streams diverged");
    assert_eq!(seed.schedule.runs, kernel.schedule.runs);
    assert_eq!(seed.schedule.aborted, kernel.schedule.aborted);
    assert_eq!(seed.first_idle, kernel.first_idle);
    assert_eq!(seed.spoliations, kernel.spoliations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_is_event_for_event_identical_to_seed_engine(
        instance in instance_strategy(24),
        platform in platform_strategy(),
        rho_tie in 0u32..2,
        spoliation in 0u32..2,
    ) {
        let mut config = HeteroPrioConfig::new();
        config.queue_tie =
            if rho_tie == 0 { QueueTieBreak::Priority } else { QueueTieBreak::InsertionOrder };
        config.disable_spoliation = spoliation == 0;
        assert_identical(&instance, &platform, &config);
    }
}

#[test]
fn kernel_matches_seed_on_the_spoliation_workout() {
    // Hand-built instance that exercises spoliation and simultaneous
    // completions: two GPU-hungry tasks parked on CPUs plus filler.
    let inst = Instance::from_times(&[
        (100.0, 1.0),
        (100.0, 1.0),
        (9.0, 1.0),
        (8.0, 1.0),
        (10.0, 3.0),
        (1.0, 4.0),
    ]);
    for (m, n) in [(1, 1), (2, 1), (3, 2)] {
        let plat = Platform::new(m, n);
        for config in [HeteroPrioConfig::new(), HeteroPrioConfig::without_spoliation()] {
            assert_identical(&inst, &plat, &config);
        }
    }
}

#[test]
fn kernel_matches_seed_on_fig6_cholesky_at_paper_scale() {
    // The Fig. 6 kernel mixes of an N-tile Cholesky (816 to 45,760 tasks)
    // on the paper's 20 CPU + 4 GPU machine: the parity check at the scale
    // the paper reports, where equal kernel times make ties the common case.
    let platform = paper_platform();
    for n in [16, 32, 64] {
        let instance = independent_instance(Factorization::Cholesky, n, &ChameleonTiming);
        assert_identical(&instance, &platform, &HeteroPrioConfig::new());
    }
}
