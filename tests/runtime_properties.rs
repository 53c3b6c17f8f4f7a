//! Property-based tests of the submission runtime: random submission
//! sequences with random access modes always yield acyclic graphs whose
//! execution is valid, dependency-respecting, and sequentially consistent
//! (per-handle writer/reader ordering), and that every scheduler resumes a
//! crashed journaled run to the uninterrupted event stream. An access-mode
//! oracle pins the factorization generators to the graphs the runtime
//! infers.

use heteroprio::core::kernel::{Checkpoints, Resume, Run};
use heteroprio::core::{journaled, CrashPlan, MemCheckpointStore, Platform, RunError, Task};
use heteroprio::metrics::NullRegistry;
use heteroprio::runtime::{Access, DataHandle, ExecError, Runtime, Scheduler};
use heteroprio::schedulers::DualHpRank;
use heteroprio::taskgraph::{Factorization, Kernel, KernelTiming, TaskGraph, WeightScheme};
use heteroprio::trace::{MemJournal, NullSink, VecSink};
use heteroprio::workloads::ChameleonTiming;
use proptest::prelude::*;

/// Test-only oracle: the tiled factorizations as Chameleon submits them,
/// loops of kernels over tile handles with access modes, leaving the DAG to
/// the runtime's inference. QR registers the reflectors `GEQRT(k)` leaves
/// below the diagonal of A(k,k) as their own datum, which `ORMQR` reads;
/// with `split_reflectors` off, `ORMQR` reads the whole tile A(k,k)
/// instead, and so precedes the `TSQRT`s that rewrite it.
fn submit_factorization(rt: &mut Runtime, f: Factorization, n: usize, split_reflectors: bool) {
    use Access::{Read, ReadWrite, Write};
    let timing = ChameleonTiming;
    let submit = |rt: &mut Runtime, kernel: Kernel, accesses: &[(DataHandle, Access)]| {
        rt.submit(timing.task(kernel), kernel.name(), accesses);
    };
    let tiles: Vec<DataHandle> = (0..n * n).map(|_| rt.register_data("tile")).collect();
    let a = |i: usize, j: usize| tiles[i * n + j];
    for k in 0..n {
        match f {
            Factorization::Cholesky => {
                submit(rt, Kernel::Potrf, &[(a(k, k), ReadWrite)]);
                for i in k + 1..n {
                    submit(rt, Kernel::Trsm, &[(a(k, k), Read), (a(i, k), ReadWrite)]);
                }
                for i in k + 1..n {
                    submit(rt, Kernel::Syrk, &[(a(i, k), Read), (a(i, i), ReadWrite)]);
                    for j in k + 1..i {
                        let acc = [(a(i, k), Read), (a(j, k), Read), (a(i, j), ReadWrite)];
                        submit(rt, Kernel::Gemm, &acc);
                    }
                }
            }
            Factorization::Qr => {
                let v = rt.register_data("reflectors");
                submit(rt, Kernel::Geqrt, &[(a(k, k), ReadWrite), (v, Write)]);
                let reflectors = if split_reflectors { v } else { a(k, k) };
                for j in k + 1..n {
                    submit(rt, Kernel::Ormqr, &[(reflectors, Read), (a(k, j), ReadWrite)]);
                }
                for i in k + 1..n {
                    submit(rt, Kernel::Tsqrt, &[(a(k, k), ReadWrite), (a(i, k), ReadWrite)]);
                    for j in k + 1..n {
                        let acc = [(a(i, k), Read), (a(k, j), ReadWrite), (a(i, j), ReadWrite)];
                        submit(rt, Kernel::Tsmqr, &acc);
                    }
                }
            }
            Factorization::Lu => {
                submit(rt, Kernel::Getrf, &[(a(k, k), ReadWrite)]);
                for j in k + 1..n {
                    submit(rt, Kernel::Trsm, &[(a(k, k), Read), (a(k, j), ReadWrite)]);
                }
                for i in k + 1..n {
                    submit(rt, Kernel::Trsm, &[(a(k, k), Read), (a(i, k), ReadWrite)]);
                }
                for i in k + 1..n {
                    for j in k + 1..n {
                        let acc = [(a(i, k), Read), (a(k, j), Read), (a(i, j), ReadWrite)];
                        submit(rt, Kernel::Gemm, &acc);
                    }
                }
            }
        }
    }
}

/// Node for node: task times, labels, and successor and predecessor
/// slices in order (release order is the ready queue's FIFO order).
fn assert_same_graph(got: &TaskGraph, want: &TaskGraph, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: task count");
    for t in want.instance().ids() {
        assert_eq!(got.instance().task(t), want.instance().task(t), "{what}: task {t:?}");
        assert_eq!(got.label(t), want.label(t), "{what}: label of {t:?}");
        assert_eq!(got.successors(t), want.successors(t), "{what}: successors of {t:?}");
        assert_eq!(got.predecessors(t), want.predecessors(t), "{what}: predecessors of {t:?}");
    }
}

#[test]
fn access_mode_submissions_infer_the_generator_graphs() {
    for f in Factorization::ALL {
        for n in 1..=8 {
            let generated = f.generate(n, &ChameleonTiming);
            let mut rt = Runtime::new(Platform::new(2, 2));
            submit_factorization(&mut rt, f, n, true);
            let inferred = rt.build_graph().unwrap();
            assert_same_graph(&inferred, &generated, &format!("{} n={n} inferred", f.name()));
            let mut rt = Runtime::new(Platform::new(2, 2));
            rt.submit_graph(&generated);
            let resubmitted = rt.build_graph().unwrap();
            assert_same_graph(&resubmitted, &generated, &format!("{} n={n} resubmitted", f.name()));
        }
    }
}

#[test]
fn a_journal_of_the_one_handle_qr_dag_does_not_resume_on_the_generator_dag() {
    // The one-handle QR graph, recorded up to a crash half-way through...
    let one_handle = || {
        let mut rt = Runtime::new(Platform::new(2, 1));
        submit_factorization(&mut rt, Factorization::Qr, 4, false);
        rt
    };
    let mut full = VecSink::new();
    one_handle().execute(Scheduler::default(), Run::new(&mut full, &NullRegistry)).unwrap();
    let crash_at = full.events.len() as u64 / 2;
    let mut journal = MemJournal::new();
    let crashed = journaled(&mut journal, &mut NullSink, |sink| {
        let crash = CrashPlan::at_event(crash_at);
        one_handle().execute(Scheduler::default(), Run { crash, ..Run::new(sink, &NullRegistry) })
    })
    .unwrap();
    assert!(matches!(crashed, Err(ExecError::Run(RunError::Crashed { .. }))), "{crashed:?}");
    // ...is refused, not continued, on the generator's graph.
    let recovered = journal.events().to_vec();
    let mut rt = Runtime::new(Platform::new(2, 1));
    rt.submit_graph(&Factorization::Qr.generate(4, &ChameleonTiming));
    let resume = Some(Resume { journal: &recovered, snapshot: None });
    let err = rt
        .execute(Scheduler::default(), Run { resume, ..Run::new(&mut NullSink, &NullRegistry) })
        .unwrap_err();
    assert!(matches!(err, ExecError::Run(RunError::Divergence { .. })), "{err}");
}

#[derive(Clone, Debug)]
struct Submission {
    cpu: f64,
    gpu: f64,
    /// (handle index, mode 0=R 1=W 2=RW); deduplicated per submission.
    accesses: Vec<(usize, u8)>,
}

fn submission_strategy(handles: usize) -> impl Strategy<Value = Submission> {
    (0.5f64..10.0, 0.5f64..10.0, prop::collection::vec((0..handles, 0u8..3), 1..4)).prop_map(
        |(cpu, gpu, mut accesses)| {
            // One access per handle per task.
            accesses.sort_by_key(|&(h, _)| h);
            accesses.dedup_by_key(|&mut (h, _)| h);
            Submission { cpu, gpu, accesses }
        },
    )
}

fn build(subs: &[Submission], handles: usize, platform: Platform) -> Runtime {
    let mut rt = Runtime::new(platform);
    let hs: Vec<DataHandle> = (0..handles).map(|_| rt.register_data("d")).collect();
    for s in subs {
        let accesses: Vec<(DataHandle, Access)> = s
            .accesses
            .iter()
            .map(|&(h, m)| {
                let mode = match m {
                    0 => Access::Read,
                    1 => Access::Write,
                    _ => Access::ReadWrite,
                };
                (hs[h], mode)
            })
            .collect();
        rt.submit(Task::new(s.cpu, s.gpu), "t", &accesses);
    }
    rt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_submissions_execute_validly(
        subs in prop::collection::vec(submission_strategy(5), 1..25),
        cpus in 1usize..3,
        gpus in 1usize..3,
    ) {
        let platform = Platform::new(cpus, gpus);
        let report = build(&subs, 5, platform).run(Scheduler::default());
        let report = report.expect("submission graphs are acyclic by construction");
        prop_assert_eq!(report.schedule.runs.len(), subs.len());
        prop_assert!(report.ratio() >= 1.0 - 1e-9);
    }

    #[test]
    fn sequential_consistency_per_handle(
        subs in prop::collection::vec(submission_strategy(3), 1..20),
    ) {
        // In the executed schedule, for every handle: each read of a value
        // starts after the completion of the handle's preceding writer (in
        // submission order), and each writer starts after every earlier
        // reader/writer of the handle completes.
        let platform = Platform::new(2, 2);
        let report = build(&subs, 3, platform).run(Scheduler::default()).unwrap();
        let start_of = |i: usize| report.schedule.runs.iter().find(|r| r.task.index() == i).unwrap().start;
        let end_of = |i: usize| report.schedule.runs.iter().find(|r| r.task.index() == i).unwrap().end;
        for h in 0..3usize {
            let mut last_writer: Option<usize> = None;
            let mut readers_since: Vec<usize> = Vec::new();
            for (i, s) in subs.iter().enumerate() {
                let Some(&(_, mode)) = s.accesses.iter().find(|&&(hh, _)| hh == h) else {
                    continue;
                };
                let writes = mode != 0;
                let reads = mode != 1;
                if reads {
                    if let Some(w) = last_writer {
                        prop_assert!(start_of(i) >= end_of(w) - 1e-9,
                            "task {i} reads D{h} before writer {w} finished");
                    }
                }
                if writes {
                    if let Some(w) = last_writer {
                        prop_assert!(start_of(i) >= end_of(w) - 1e-9);
                    }
                    for &r in &readers_since {
                        prop_assert!(start_of(i) >= end_of(r) - 1e-9,
                            "task {i} overwrites D{h} before reader {r} finished");
                    }
                    readers_since.clear();
                    last_writer = Some(i);
                } else {
                    readers_since.push(i);
                }
            }
        }
    }

    #[test]
    fn all_schedulers_agree_on_task_count(
        subs in prop::collection::vec(submission_strategy(4), 1..15),
    ) {
        let platform = Platform::new(2, 1);
        for scheduler in [
            Scheduler::HeteroPrio(WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min),
            Scheduler::Heft(WeightScheme::Avg, heteroprio::schedulers::HeftVariant::NoInsertion),
            Scheduler::PriorityList(WeightScheme::Avg),
        ] {
            let report = build(&subs, 4, platform).run(scheduler).unwrap();
            prop_assert_eq!(report.schedule.runs.len(), subs.len());
        }
    }

    #[test]
    fn every_scheduler_resumes_a_crashed_submission_to_its_uninterrupted_stream(
        subs in prop::collection::vec(submission_strategy(4), 1..15),
        crash_point in 0.0f64..1.0,
        snapshot in 0u8..2,
    ) {
        // Crash a journaled run at a random event (checkpointing every 3
        // events or not), then resume it from the journal (and the latest
        // checkpoint): the resumed stream, the journal and the schedule
        // must all be the uninterrupted run's.
        let platform = Platform::new(2, 1);
        let runtime = || build(&subs, 4, platform);
        for scheduler in Scheduler::NAMES.map(|name| Scheduler::parse(name).unwrap()) {
            let mut reference = VecSink::new();
            let report =
                runtime().execute(scheduler, Run::new(&mut reference, &NullRegistry)).unwrap();
            let total = reference.events.len() as u64;
            let crash_at = 1 + (crash_point * total as f64) as u64;
            let mut journal = MemJournal::new();
            let mut store = MemCheckpointStore::default();
            let crashed = journaled(&mut journal, &mut NullSink, |sink| {
                let crash = CrashPlan::at_event(crash_at);
                let checkpoints = (snapshot == 1).then_some(Checkpoints { every: 3, store: &mut store });
                let spec = Run { crash, checkpoints, ..Run::new(sink, &NullRegistry) };
                runtime().execute(scheduler, spec)
            })
            .unwrap();
            prop_assert!(
                matches!(crashed, Err(ExecError::Run(RunError::Crashed { events, .. })) if events == crash_at),
                "{scheduler} @ {crash_at}/{total}: {crashed:?}"
            );
            prop_assert_eq!(journal.events(), &reference.events[..crash_at as usize]);
            let recovered = journal.events().to_vec();
            let mut resumed = VecSink::new();
            let resumed_report = journaled(&mut journal, &mut resumed, |sink| {
                let resume = Some(Resume { journal: &recovered, snapshot: store.latest.as_ref() });
                runtime().execute(scheduler, Run { resume, ..Run::new(sink, &NullRegistry) })
            })
            .unwrap()
            .unwrap();
            prop_assert_eq!(&resumed.events, &reference.events, "{} @ {}", scheduler, crash_at);
            prop_assert_eq!(journal.events(), reference.events.as_slice());
            prop_assert_eq!(resumed_report.schedule.runs, report.schedule.runs);
        }
    }
}
