//! Parity oracle for the bucketed [`AffinityQueue`]: a frozen copy of the
//! pre-bucketing `BTreeSet` implementation, plus proptests sweeping
//! push/pop/snapshot-restore interleavings and asserting the two are
//! drain-identical — the "bit-identical pop order" guarantee the rebuild
//! promises.
//!
//! The snapshot-restore op replays the exact `KernelSnapshot` queue
//! protocol: the ready order captured by `SnapshotPolicy::ready_order()`
//! is the queue's GPU-to-CPU iteration order, and restore re-pushes it
//! into a fresh queue in that order with fresh sequence numbers. FIFO ties
//! (identical ρ, tie key and — for the priority rule — priority) must
//! survive any number of such round trips.

use heteroprio_core::{
    AffinityQueue, ClassId, ClassQueue, Instance, QueueTieBreak, ResourceKind, Task, TaskId,
};
use proptest::prelude::*;

/// Frozen copy of the `BTreeSet`-based `AffinityQueue` exactly as it stood
/// before the bucketed rebuild. Do not fix or modernise: this is the
/// oracle the new structure must reproduce key-for-key.
mod frozen {
    use heteroprio_core::{Instance, QueueTieBreak, ResourceKind, TaskId};
    use std::cmp::Ordering;
    use std::collections::BTreeSet;

    /// Stand-in for the crate-private `F64Ord`: total order via
    /// `f64::total_cmp`, exactly as the original keys ordered.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Ord64(pub f64);

    impl Eq for Ord64 {}

    impl PartialOrd for Ord64 {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Ord64 {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    type Key = (Ord64, Ord64, u64, TaskId);

    #[derive(Clone, Debug)]
    pub struct FrozenAffinityQueue {
        tie: QueueTieBreak,
        set: BTreeSet<Key>,
        seq: u64,
    }

    impl FrozenAffinityQueue {
        pub fn new(tie: QueueTieBreak) -> Self {
            FrozenAffinityQueue { tie, set: BTreeSet::new(), seq: 0 }
        }

        fn key(&mut self, instance: &Instance, task: TaskId) -> Key {
            let t = instance.task(task);
            let rho = t.accel_factor();
            let tie = match self.tie {
                QueueTieBreak::Priority => {
                    if rho >= 1.0 {
                        -t.priority
                    } else {
                        t.priority
                    }
                }
                QueueTieBreak::InsertionOrder => 0.0,
            };
            let seq = self.seq;
            self.seq += 1;
            (Ord64(-rho), Ord64(tie), seq, task)
        }

        pub fn push(&mut self, instance: &Instance, task: TaskId) {
            let key = self.key(instance, task);
            self.set.insert(key);
        }

        pub fn pop(&mut self, kind: ResourceKind) -> Option<TaskId> {
            let key = match kind {
                ResourceKind::Gpu => self.set.pop_first()?,
                ResourceKind::Cpu => self.set.pop_last()?,
            };
            Some(key.3)
        }

        pub fn len(&self) -> usize {
            self.set.len()
        }

        pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
            self.set.iter().map(|&(_, _, _, task)| task)
        }
    }
}

use frozen::FrozenAffinityQueue;

/// Discrete time/priority tables: small enough that generated instances
/// are dense in ρ collisions (exact FIFO ties), same-octave neighbours
/// (the spill path) and the ρ = 1 orientation boundary. Priorities 0.0
/// and −0.0 give tie keys that only `total_cmp` tells apart.
const TIMES: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 8.0];
const PRIORITIES: [f64; 4] = [0.0, 1.0, 2.0, -0.0];

fn build_instance(specs: &[(usize, usize, usize)]) -> Instance {
    let mut inst = Instance::new();
    for &(c, g, p) in specs {
        inst.push(
            Task::new(TIMES[c % TIMES.len()], TIMES[g % TIMES.len()])
                .with_priority(PRIORITIES[p % PRIORITIES.len()]),
        );
    }
    inst
}

/// Replay the `KernelSnapshot` queue protocol on the bucketed queue:
/// capture the GPU-to-CPU iteration order, re-push into a fresh queue.
fn round_trip(q: &AffinityQueue, instance: &Instance, tie: QueueTieBreak) -> AffinityQueue {
    let saved: Vec<TaskId> = q.iter().collect();
    let mut restored = AffinityQueue::new(tie);
    for t in saved {
        restored.push(instance, t);
    }
    restored
}

fn round_trip_frozen(
    q: &FrozenAffinityQueue,
    instance: &Instance,
    tie: QueueTieBreak,
) -> FrozenAffinityQueue {
    let saved: Vec<TaskId> = q.iter().collect();
    let mut restored = FrozenAffinityQueue::new(tie);
    for t in saved {
        restored.push(instance, t);
    }
    restored
}

/// Drive both queues through one op script, checking iteration order (the
/// snapshot contract) after every step and pop equality at every pop.
fn check_script(tie: QueueTieBreak, specs: &[(usize, usize, usize)], ops: &[(u8, usize)]) {
    let inst = build_instance(specs);
    let n = inst.len();
    let mut bucketed = AffinityQueue::new(tie);
    let mut oracle = FrozenAffinityQueue::new(tie);
    for (step, &(op, sel)) in ops.iter().enumerate() {
        match op {
            // Push (twice as likely as each other op, to keep queues full).
            0 | 1 => {
                let t = TaskId((sel % n) as u32);
                bucketed.push(&inst, t);
                oracle.push(&inst, t);
            }
            2 => {
                prop_assert_eq!(
                    bucketed.pop(ResourceKind::Gpu),
                    oracle.pop(ResourceKind::Gpu),
                    "GPU pop diverged at step {} ({:?})",
                    step,
                    tie
                );
            }
            3 => {
                prop_assert_eq!(
                    bucketed.pop(ResourceKind::Cpu),
                    oracle.pop(ResourceKind::Cpu),
                    "CPU pop diverged at step {} ({:?})",
                    step,
                    tie
                );
            }
            // Snapshot-restore round trip on both queues.
            _ => {
                bucketed = round_trip(&bucketed, &inst, tie);
                oracle = round_trip_frozen(&oracle, &inst, tie);
            }
        }
        prop_assert_eq!(bucketed.len(), oracle.len());
        prop_assert_eq!(
            bucketed.iter().collect::<Vec<_>>(),
            oracle.iter().collect::<Vec<_>>(),
            "iteration (snapshot) order diverged at step {} ({:?})",
            step,
            tie
        );
    }
    // Full drain from alternating ends must empty both identically.
    let mut side = ResourceKind::Gpu;
    loop {
        let (b, o) = (bucketed.pop(side), oracle.pop(side));
        prop_assert_eq!(b, o, "final drain diverged ({:?})", tie);
        if b.is_none() {
            break;
        }
        side = side.other();
    }
    prop_assert!(bucketed.is_empty());
    prop_assert_eq!(oracle.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The bucketed queue is drain-identical to the frozen `BTreeSet`
    // implementation under arbitrary push/pop/snapshot-restore
    // interleavings, for both tie-break rules.
    #[test]
    fn bucketed_queue_matches_frozen_btreeset_oracle(
        specs in prop::collection::vec((0usize..8, 0usize..8, 0usize..4), 1..24),
        ops in prop::collection::vec((0u8..5, 0usize..32), 1..160),
    ) {
        check_script(QueueTieBreak::Priority, &specs, &ops);
        check_script(QueueTieBreak::InsertionOrder, &specs, &ops);
    }

    // FIFO ties survive repeated `KernelSnapshot`-style round trips: a
    // queue of *identical* tasks (maximal tie density) must preserve its
    // exact announcement order through any number of capture/restore
    // cycles interleaved with pops.
    #[test]
    fn fifo_ties_survive_snapshot_round_trips(
        dims in (1usize..6, 2usize..16),
        trips in 1usize..5,
    ) {
        let (distinct, copies) = dims;
        // `distinct` task shapes, each duplicated `copies` times.
        let specs: Vec<(usize, usize, usize)> = (0..distinct)
            .flat_map(|d| std::iter::repeat_n((d, 0, d), copies))
            .collect();
        let inst = build_instance(&specs);
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let mut bucketed = AffinityQueue::new(tie);
            let mut oracle = FrozenAffinityQueue::new(tie);
            for id in inst.ids() {
                bucketed.push(&inst, id);
                oracle.push(&inst, id);
            }
            for _ in 0..trips {
                bucketed = round_trip(&bucketed, &inst, tie);
                oracle = round_trip_frozen(&oracle, &inst, tie);
                prop_assert_eq!(
                    bucketed.iter().collect::<Vec<_>>(),
                    oracle.iter().collect::<Vec<_>>(),
                    "{:?}", tie
                );
                // Pop one from each side between trips so restores are
                // exercised on partially-drained queues too.
                prop_assert_eq!(bucketed.pop(ResourceKind::Gpu), oracle.pop(ResourceKind::Gpu));
                prop_assert_eq!(bucketed.pop(ResourceKind::Cpu), oracle.pop(ResourceKind::Cpu));
            }
        }
    }
}

/// Brute-force oracle for the `k ≥ 3` [`ClassQueue`] rule, O(n) per pop:
/// for class `c`, each pair `{c, d}` offers its extreme task in `c`'s
/// direction under the pair key `(−ρ_ab, tie, seq, id)`; the pair whose
/// extreme has the largest advantage (`ρ_ab` when `c = b`, `1 / ρ_ab`
/// when `c = a`) wins under strict `>`, so the lowest `d` wins ties.
mod oracle {
    use super::frozen::Ord64;
    use heteroprio_core::queue::PopSide;
    use heteroprio_core::{ClassId, Instance, QueueTieBreak, TaskId};

    type Key = (Ord64, Ord64, u64, TaskId);

    pub struct ArgmaxOracle {
        k: usize,
        tie: QueueTieBreak,
        /// Live tasks with the sequence number of their push.
        live: Vec<(TaskId, u64)>,
        seq: u64,
    }

    impl ArgmaxOracle {
        pub fn new(k: usize, tie: QueueTieBreak) -> Self {
            ArgmaxOracle { k, tie, live: Vec::new(), seq: 0 }
        }

        pub fn push(&mut self, task: TaskId) {
            self.live.push((task, self.seq));
            self.seq += 1;
        }

        pub fn len(&self) -> usize {
            self.live.len()
        }

        fn key(&self, instance: &Instance, (task, seq): (TaskId, u64), a: usize, b: usize) -> Key {
            let t = instance.task(task);
            let rho = t.affinity(ClassId::from(a), ClassId::from(b));
            let tie = match self.tie {
                QueueTieBreak::Priority => {
                    if rho >= 1.0 {
                        -t.priority
                    } else {
                        t.priority
                    }
                }
                QueueTieBreak::InsertionOrder => 0.0,
            };
            (Ord64(-rho), Ord64(tie), seq, task)
        }

        pub fn pop(&mut self, instance: &Instance, c: usize) -> Option<(TaskId, PopSide)> {
            let mut best: Option<(f64, PopSide, usize)> = None;
            for d in (0..self.k).filter(|&d| d != c) {
                let (a, b) = (c.min(d), c.max(d));
                let keyed =
                    self.live.iter().enumerate().map(|(i, &e)| (self.key(instance, e, a, b), i));
                let (extreme, side) = if c == b {
                    (keyed.min_by_key(|&(key, _)| key), PopSide::Front)
                } else {
                    (keyed.max_by_key(|&(key, _)| key), PopSide::Back)
                };
                let Some((key, i)) = extreme else { continue };
                let rho = -(key.0).0;
                let advantage = if c == b { rho } else { 1.0 / rho };
                if best.is_none_or(|(adv, ..)| advantage > adv) {
                    best = Some((advantage, side, i));
                }
            }
            let (_, side, i) = best?;
            Some((self.live.remove(i).0, side))
        }
    }
}

/// Drive `ClassQueue` and the argmax oracle through one op script on a
/// `k`-class instance, re-pushing popped tasks (the spoliation path) and
/// rebuilding the queue from its snapshot order (the resume path).
fn check_class_script(
    k: usize,
    tie: QueueTieBreak,
    rows: &[(Vec<usize>, usize)],
    ops: &[(u8, usize)],
) {
    let mut inst = Instance::new();
    for (times, p) in rows {
        let times: Vec<f64> = times.iter().take(k).map(|&t| (t + 1) as f64).collect();
        inst.push(Task::from_times(&times).with_priority(PRIORITIES[p % PRIORITIES.len()]));
    }
    let n = inst.len();
    let mut queue = ClassQueue::new(k, tie);
    let mut oracle = oracle::ArgmaxOracle::new(k, tie);
    let mut queued = vec![false; n];
    for (step, &(op, sel)) in ops.iter().enumerate() {
        if op < 2 {
            // Push the first task at or after `sel` that is not queued;
            // popped tasks come back here, as a spoliated task does.
            let Some(t) = (0..n).map(|i| (sel + i) % n).find(|&t| !queued[t]) else { continue };
            queued[t] = true;
            queue.push(&inst, TaskId(t as u32));
            oracle.push(TaskId(t as u32));
        } else if op == 4 {
            let saved: Vec<TaskId> = queue.iter().collect();
            queue = ClassQueue::new(k, tie);
            for t in saved {
                queue.push(&inst, t);
            }
        } else {
            let c = sel % k;
            let got = queue.pop(ClassId::from(c));
            prop_assert_eq!(
                got,
                oracle.pop(&inst, c),
                "class {} pop diverged at step {} (k = {}, {:?})",
                c,
                step,
                k,
                tie
            );
            if let Some((t, _)) = got {
                queued[t.index()] = false;
            }
        }
        prop_assert_eq!(queue.len(), oracle.len(), "len diverged at step {}", step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The k ≥ 3 queue pops exactly what the brute-force argmax rule pops,
    // under heavy ties (integer times in 1..=5), both tie-break modes and
    // interleaved push/pop/re-push/snapshot-rebuild.
    #[test]
    fn class_queue_matches_brute_force_argmax_oracle(
        rows in prop::collection::vec(
            (prop::collection::vec(0usize..5, 4..5), 0usize..3),
            1..20,
        ),
        ops in prop::collection::vec((0u8..5, 0usize..64), 1..160),
    ) {
        for k in [3, 4] {
            check_class_script(k, QueueTieBreak::Priority, &rows, &ops);
            check_class_script(k, QueueTieBreak::InsertionOrder, &rows, &ops);
        }
    }
}
