//! The affinity-ordered double-ended ready queue at HeteroPrio's heart.
//!
//! Tasks are ordered by non-increasing acceleration factor; GPUs pop from
//! the front (most accelerated), CPUs from the back. Ties follow
//! [`QueueTieBreak`]: the paper's priority rule (§2.2) keeps the
//! highest-priority task closest to the end of the queue served by the
//! resource class that wants it, falling back to insertion order.
//!
//! [`ClassQueue`] is the ready structure of `heteroprio::HeteroPrioState`,
//! the one HeteroPrio policy state: the release-dates engine, the DAG-mode
//! policy in `heteroprio-schedulers`, and the independent engine at
//! `k ≥ 3` push into it. At `k = 2` it wraps the bucketed
//! [`AffinityQueue`] below. The independent engine at `k = 2` keeps the
//! deque one `sorted_queue` call builds instead, whose order this queue
//! reproduces.
//!
//! # Bucketed representation
//!
//! The paper only ever consumes the queue from its two ends, so a full
//! balanced-tree total order is more structure than Algorithm 1 needs.
//! Keys are instead quantized into **log-spaced acceleration buckets** —
//! one per octave of ρ, derived from the raw IEEE-754 exponent, which is
//! monotone in ρ for the positive finite values construction guarantees.
//! Each bucket is a [`VecDeque`] kept sorted by the *exact* key
//! `(−ρ, tie, seq, id)`; an occupancy bitmap finds the extreme non-empty
//! buckets in a few word scans. Pushes are an `O(1)` append whenever keys
//! arrive in within-bucket order (the common case: ready batches arrive in
//! ascending id/seq order and real workloads have few distinct ρ per
//! octave); out-of-order keys take the **exact-ρ spill path**, an ordered
//! insert that restores the sorted invariant. Pops take from the front of
//! the first or the back of the last occupied bucket.
//!
//! Because every bucket is exactly sorted and bucket index is monotone in
//! the key, the concatenation of buckets *is* the old `BTreeSet` total
//! order: pop and iteration order are bit-identical to the tree-based
//! implementation (pinned by `matches_sorted_queue_on_static_sets` below,
//! the `queue_parity` proptests, and the `kernel_parity` suite).

use crate::heteroprio::QueueTieBreak;
use crate::model::{ClassId, Instance, ResourceKind, TaskId, MAX_CLASSES};
use crate::time::F64Ord;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Key ordering: ascending = the GPU end of the queue.
type Key = (F64Ord, F64Ord, u64, TaskId);

/// One bucket per f64 exponent value: sign (always 0 for a valid ρ) plus
/// the 11 exponent bits.
const BUCKET_BITS: u32 = 12;
/// Number of log-spaced buckets (covers every positive finite ρ).
const BUCKET_COUNT: usize = 1 << BUCKET_BITS;
/// Words in the occupancy bitmap.
const OCC_WORDS: usize = BUCKET_COUNT / 64;

/// Bucket index for an acceleration factor, **descending** in ρ so that
/// ascending bucket order matches ascending key order (the GPU end first).
///
/// For positive finite floats the IEEE-754 bit pattern is monotone in the
/// value, so the top `BUCKET_BITS` bits (sign + exponent) quantize ρ into
/// log-spaced octaves without touching `log2` (whose libm rounding is not
/// guaranteed monotone).
#[inline]
fn bucket_of(rho: f64) -> usize {
    let bits = rho.to_bits();
    let raw = (bits >> (64 - BUCKET_BITS)) as usize;
    // lint: allow(unchecked-arith): raw is the top BUCKET_BITS bits, so
    // raw <= BUCKET_COUNT - 1 by construction; const overflow is a
    // compile error.
    (BUCKET_COUNT - 1) - raw
}

/// The tie component of a queue key for a task of ratio `rho`: the
/// priority, oriented so the highest priority sits closest to the end
/// whose class the ratio favours, or 0 under insertion order.
#[inline]
pub(crate) fn tie_key(tie: QueueTieBreak, rho: f64, priority: f64) -> f64 {
    match tie {
        QueueTieBreak::Priority => {
            // lint: allow(float-ord): orientation branch, not arithmetic — ρ = 1 exactly
            // is a documented policy choice (the accelerated-side tie rule applies).
            if rho >= 1.0 {
                -priority
            } else {
                priority
            }
        }
        QueueTieBreak::InsertionOrder => 0.0,
    }
}

/// A dynamic ready queue ordered by acceleration factor.
#[derive(Clone, Debug)]
pub struct AffinityQueue {
    tie: QueueTieBreak,
    /// `BUCKET_COUNT` sorted runs, allocated on first push (a fresh queue
    /// costs nothing). Invariant: each deque is sorted ascending by `Key`,
    /// and all keys in bucket `b` precede all keys in bucket `b + 1`.
    buckets: Vec<VecDeque<Key>>,
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupancy: [u64; OCC_WORDS],
    len: usize,
    seq: u64,
}

impl Default for AffinityQueue {
    fn default() -> Self {
        AffinityQueue::new(QueueTieBreak::default())
    }
}

impl AffinityQueue {
    pub fn new(tie: QueueTieBreak) -> Self {
        AffinityQueue { tie, buckets: Vec::new(), occupancy: [0; OCC_WORDS], len: 0, seq: 0 }
    }

    fn key(&mut self, instance: &Instance, task: TaskId) -> Key {
        let t = instance.task(task);
        // Validated construction guarantees a positive finite ρ; a task
        // smuggled in through raw public fields or an unvalidated
        // `Instance::from_tasks` is rejected here, before the poisoned
        // value can reach `F64Ord` and corrupt the queue order.
        let rho = match t.try_accel_factor() {
            Ok(rho) => rho,
            Err(e) => panic!("cannot queue {task}: {e}"),
        };
        let tie = tie_key(self.tie, rho, t.priority);
        let seq = self.seq;
        self.seq = self.seq.checked_add(1).expect("u64 push sequence never saturates");
        (F64Ord::new(-rho), F64Ord::new(tie), seq, task)
    }

    /// Insert a ready task.
    pub fn push(&mut self, instance: &Instance, task: TaskId) {
        let key = self.key(instance, task);
        if self.buckets.is_empty() {
            self.buckets.resize_with(BUCKET_COUNT, VecDeque::new);
        }
        let b = bucket_of(-(key.0).0);
        let dq = self.buckets.get_mut(b).expect("bucket_of yields b < BUCKET_COUNT");
        match dq.back() {
            // Exact-ρ spill path: the new key lands *inside* the bucket's
            // sorted run (a finer ρ in the same octave, a higher-priority
            // tie, or a re-announced task) — an ordered insert keeps the
            // within-bucket order exact, so pop order stays bit-identical
            // to the tree-based total order.
            Some(last) if *last > key => {
                let pos = dq.partition_point(|k| k < &key);
                dq.insert(pos, key);
            }
            // Common case: FIFO arrival within a ρ/tie group appends.
            _ => dq.push_back(key),
        }
        *self.occupancy.get_mut(b / 64).expect("occupancy sized to BUCKET_COUNT/64") |=
            1 << (b % 64);
        self.len += 1;
    }

    /// Checked bucket accessor; `b` always comes from `bucket_of` or the
    /// occupancy bitmap, both bounded by `BUCKET_COUNT`.
    #[inline]
    fn bucket_mut(&mut self, b: usize) -> &mut VecDeque<Key> {
        self.buckets.get_mut(b).expect("bucket index from occupancy bitmap")
    }

    /// Lowest occupied bucket index (the GPU end), if any.
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        self.occupancy
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Highest occupied bucket index (the CPU end), if any.
    #[inline]
    fn last_occupied(&self) -> Option<usize> {
        self.occupancy
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + 63 - w.leading_zeros() as usize)
    }

    /// Pop the task best suited to a worker of class `kind`: the most
    /// accelerated task for a GPU, the least accelerated for a CPU.
    pub fn pop(&mut self, kind: ResourceKind) -> Option<TaskId> {
        let (b, key) = match kind {
            ResourceKind::Gpu => {
                let b = self.first_occupied()?;
                (b, self.bucket_mut(b).pop_front().expect("occupied bucket is non-empty"))
            }
            ResourceKind::Cpu => {
                let b = self.last_occupied()?;
                (b, self.bucket_mut(b).pop_back().expect("occupied bucket is non-empty"))
            }
        };
        if self.bucket_mut(b).is_empty() {
            *self.occupancy.get_mut(b / 64).expect("occupancy sized to BUCKET_COUNT/64") &=
                !(1 << (b % 64));
        }
        self.len -= 1;
        Some(key.3)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tasks from the GPU end to the CPU end, for snapshot capture.
    /// Re-pushing them in this order reproduces the queue exactly: fresh
    /// sequence numbers are assigned ascending in iteration order, which
    /// preserves every FIFO tie.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.buckets.iter().flat_map(|dq| dq.iter().map(|&(_, _, _, task)| task))
    }
}

/// Which end of an affinity-ordered pair queue a pop came from.
///
/// `Front` is the accelerated end (the paper's GPU side of the pair),
/// `Back` the decelerated end. Reported so callers can emit the queue-end
/// trace annotation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PopSide {
    Front,
    Back,
}

/// Most unordered class pairs a task can have.
const MAX_PAIRS: usize = MAX_CLASSES * (MAX_CLASSES - 1) / 2;

/// Index of the pair `{a, b}` (`a < b < k`) in row-major
/// upper-triangular order.
#[inline]
fn pair_index(k: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < k);
    a * (2 * k - a - 1) / 2 + (b - a - 1)
}

/// `queued` value of a task that is not in the queue.
const NOT_QUEUED: u64 = u64::MAX;

/// A task's entry in class `c`'s heap: its best pair `{c, d}` for `c`,
/// with that pair's exact key turned so that larger is better for `c`.
///
/// Field order is comparison order. Within one heap every entry has its
/// own push sequence number, so `task` never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Entry {
    /// Relative speedup on `c`: `ρ_dc` when `d < c`, `1 / ρ_cd` when
    /// `d > c` — computed exactly as the pair's extreme is judged.
    advantage: F64Ord,
    /// The other class `d`; the lowest wins equal advantages.
    other: Reverse<u8>,
    /// The pair key `(−ρ, tie, seq)` as is when `c` takes the pair's back
    /// (largest key), negated when `c` takes its front (smallest key).
    rho: F64Ord,
    tie: F64Ord,
    seq: u64,
    task: TaskId,
}

impl Entry {
    /// Class `c`'s entry for `task` over the pair `{c, d}` with ratio
    /// `rho = ρ_ab = t_a / t_b`, `a < b`, pushed with sequence `seq`.
    #[inline]
    fn new(c: usize, d: usize, rho: f64, tie: f64, seq: u64, task: TaskId) -> Entry {
        let other = Reverse(u8::try_from(d).expect("class index < MAX_CLASSES"));
        if c > d {
            // `c` is the pair's `b`: it takes the front, the smallest key.
            Entry {
                advantage: F64Ord::new(rho),
                other,
                rho: F64Ord::new(rho),
                tie: F64Ord::new(-tie),
                seq: !seq,
                task,
            }
        } else {
            Entry {
                advantage: F64Ord::new(1.0 / rho),
                other,
                rho: F64Ord::new(-rho),
                tie: F64Ord::new(tie),
                seq,
                task,
            }
        }
    }

    /// Which end of the pair `{c, d}` this entry of class `c` pops from.
    #[inline]
    fn side(&self, c: usize) -> PopSide {
        if c > usize::from(self.other.0) {
            PopSide::Front
        } else {
            PopSide::Back
        }
    }

    /// The push sequence number this entry was made with.
    #[inline]
    fn push_seq(&self, c: usize) -> u64 {
        match self.side(c) {
            PopSide::Front => !self.seq,
            PopSide::Back => self.seq,
        }
    }
}

/// The ready queue generalized to `k` resource classes. Every unordered
/// class pair `{a, b}` orders the tasks by the pair ratio
/// `ρ_ab = t_a / t_b` under the exact key `(−ρ_ab, tie, seq, id)`, and a
/// worker of class `c` pops the task with the largest relative speedup on
/// `c` across the `k − 1` pairs that involve `c`: each pair offers its
/// extreme in `c`'s direction, the largest advantage wins (strict `>`, so
/// the lowest other class wins ties). This is the argmax generalization
/// of "GPUs pop the front, CPUs the back".
///
/// On the canonical two-class platform there is exactly one pair, and the
/// structure *is* the bucketed [`AffinityQueue`] (same keys, same pops:
/// bit-identical order, pinned by `two_class_matches_affinity_queue`
/// below).
///
/// For `k ≥ 3` the queue keeps **one binary max-heap per class**. Class
/// `c`'s pop is the maximum over all `(task, d)` of
/// `(advantage, lowest d, pair key in c's direction)`, so each task needs
/// only its best pair for `c`: push computes the `k(k−1)/2` ratios once
/// and pushes one `Entry` per class heap. A pop leaves the task's
/// entries in the other heaps behind as stale (their sequence number no
/// longer matches the task's), skips them when they surface, and compacts
/// every heap once stale entries outnumber queued tasks. Push is
/// `O(k log n)`, pop `O(k log n + k²)` amortized.
#[derive(Clone, Debug)]
pub struct ClassQueue {
    tie: QueueTieBreak,
    k: usize,
    /// `k == 2` fast path: the single pair, bucketed.
    two: Option<AffinityQueue>,
    /// `k ≥ 3`: one max-heap of `Entry`s per class.
    heaps: Vec<BinaryHeap<Entry>>,
    /// Push sequence number of each queued task (by index), or
    /// `NOT_QUEUED`; an entry with another sequence number is stale.
    queued: Vec<u64>,
    live: usize,
    /// Stale entries across all heaps.
    stale: usize,
    seq: u64,
}

impl ClassQueue {
    /// A queue for platforms with `k` resource classes.
    pub fn new(k: usize, tie: QueueTieBreak) -> Self {
        assert!((2..=MAX_CLASSES).contains(&k), "class queue needs 2..={MAX_CLASSES} classes");
        let (two, heaps) = if k == 2 {
            (Some(AffinityQueue::new(tie)), Vec::new())
        } else {
            (None, vec![BinaryHeap::new(); k])
        };
        ClassQueue { tie, k, two, heaps, queued: Vec::new(), live: 0, stale: 0, seq: 0 }
    }

    /// Number of classes this queue was sized for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Insert a ready task. A task already in the queue takes a fresh
    /// sequence number, as if popped and pushed again.
    pub fn push(&mut self, instance: &Instance, task: TaskId) {
        if let Some(two) = &mut self.two {
            two.push(instance, task);
            return;
        }
        let t = instance.task(task);
        let mut ratios = [0.0; MAX_PAIRS];
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                let rho = match t.try_affinity(ClassId::from(a), ClassId::from(b)) {
                    Ok(rho) => rho,
                    Err(e) => panic!("cannot queue {task}: {e}"),
                };
                *ratios.get_mut(pair_index(self.k, a, b)).expect("pair_index < MAX_PAIRS") = rho;
            }
        }
        let seq = self.seq;
        self.seq = self.seq.checked_add(1).expect("u64 push sequence never saturates");
        if self.queued.len() <= task.index() {
            self.queued.resize(task.index() + 1, NOT_QUEUED);
        }
        let slot = self.queued.get_mut(task.index()).expect("resized above");
        if *slot == NOT_QUEUED {
            self.live += 1;
        } else {
            self.stale += self.k;
        }
        *slot = seq;
        let (k, tie) = (self.k, self.tie);
        for (c, heap) in self.heaps.iter_mut().enumerate() {
            let best = (0..k)
                .filter(|&d| d != c)
                .map(|d| {
                    let rho = *ratios
                        .get(pair_index(k, c.min(d), c.max(d)))
                        .expect("pair_index < MAX_PAIRS");
                    Entry::new(c, d, rho, tie_key(tie, rho, t.priority), seq, task)
                })
                .max()
                .expect("k >= 3 gives every class another class");
            heap.push(best);
        }
    }

    /// Pop the task best suited to a worker of class `class`: the argmax
    /// of the relative speedup `t_other / t_class` over every pair that
    /// involves `class` (strictly-greater comparison, lowest other-class
    /// index winning ties). Returns the chosen task and which end of its
    /// winning pair queue it came from.
    pub fn pop(&mut self, class: impl Into<ClassId>) -> Option<(TaskId, PopSide)> {
        let class = class.into();
        if let Some(two) = &mut self.two {
            return match class.index() {
                0 => two.pop(ResourceKind::Cpu).map(|t| (t, PopSide::Back)),
                1 => two.pop(ResourceKind::Gpu).map(|t| (t, PopSide::Front)),
                c => panic!("class C{c} out of range on a two-class queue"),
            };
        }
        let c = class.index();
        let Some(heap) = self.heaps.get_mut(c) else {
            panic!("class {class} out of range (k = {})", self.k);
        };
        let entry = loop {
            let top = heap.pop()?;
            let slot = self.queued.get_mut(top.task.index()).expect("queued task has a slot");
            if *slot == top.push_seq(c) {
                *slot = NOT_QUEUED;
                break top;
            }
            self.stale -= 1;
        };
        self.live -= 1;
        self.stale += self.k - 1;
        if self.stale > self.live {
            let queued = &self.queued;
            for (c, heap) in self.heaps.iter_mut().enumerate() {
                heap.retain(|e| queued.get(e.task.index()) == Some(&e.push_seq(c)));
            }
            self.stale = 0;
        }
        Some((entry.task, entry.side(c)))
    }

    pub fn len(&self) -> usize {
        match &self.two {
            Some(two) => two.len(),
            None => self.live,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tasks in snapshot order: re-pushing them in this order into a fresh
    /// queue reproduces every pop. On a two-class queue this is the exact
    /// accelerated-to-decelerated order of the underlying
    /// [`AffinityQueue`]; for `k ≥ 3` it is push order, which keeps every
    /// pair's FIFO ties because fresh sequence numbers ascend in it.
    pub fn iter(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        match &self.two {
            Some(two) => Box::new(two.iter()),
            None => {
                let mut live: Vec<(u64, TaskId)> = (0u32..)
                    .zip(&self.queued)
                    .filter(|&(_, &seq)| seq != NOT_QUEUED)
                    .map(|(i, &seq)| (seq, TaskId(i)))
                    .collect();
                live.sort_unstable();
                Box::new(live.into_iter().map(|(_, task)| task))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Task;

    #[test]
    fn gpu_gets_most_accelerated_cpu_least() {
        let inst = Instance::from_times(&[(8.0, 1.0), (1.0, 8.0), (2.0, 2.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(0)));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(TaskId(1)));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(TaskId(2)));
        assert!(q.is_empty());
        assert_eq!(q.pop(ResourceKind::Gpu), None);
    }

    #[test]
    fn priority_rule_orients_ties_by_side() {
        let mut inst = Instance::new();
        let lo_acc = inst.push(Task::new(2.0, 1.0).with_priority(1.0));
        let hi_acc = inst.push(Task::new(2.0, 1.0).with_priority(9.0));
        let lo_dec = inst.push(Task::new(1.0, 2.0).with_priority(1.0));
        let hi_dec = inst.push(Task::new(1.0, 2.0).with_priority(9.0));
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        // Among accelerated ties the GPU sees the high priority first;
        // among decelerated ties the CPU sees the high priority first.
        assert_eq!(q.pop(ResourceKind::Gpu), Some(hi_acc));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(lo_acc));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(hi_dec));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(lo_dec));
    }

    #[test]
    fn insertion_order_breaks_ties_fifo_per_side() {
        let inst = Instance::from_times(&[(2.0, 1.0), (2.0, 1.0), (2.0, 1.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::InsertionOrder);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(0)));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(TaskId(2)));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(1)));
    }

    #[test]
    fn matches_sorted_queue_on_static_sets() {
        use crate::heteroprio::sorted_queue;
        let inst =
            Instance::from_times(&[(3.0, 1.0), (1.0, 3.0), (4.0, 4.0), (9.0, 1.0), (2.0, 5.0)]);
        let ids: Vec<TaskId> = inst.ids().collect();
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let reference = sorted_queue(&inst, &ids, tie);
            let mut q = AffinityQueue::new(tie);
            for &id in &ids {
                q.push(&inst, id);
            }
            // Draining from the GPU side must reproduce the sorted order.
            let mut drained = Vec::new();
            while let Some(t) = q.pop(ResourceKind::Gpu) {
                drained.push(t);
            }
            assert_eq!(drained, Vec::from(reference), "{tie:?}");
        }
    }

    #[test]
    fn rho_exactly_one_uses_gpu_side_priority_rule_on_both_queues() {
        use crate::heteroprio::sorted_queue;
        // ρ = 1.0 exactly sits on the orientation boundary of the priority
        // tie rule. Both the static sort and the dynamic queue must apply
        // the GPU-side rule (`ρ >= 1`): highest priority closest to the
        // front. Pin the order on both so the two code paths cannot drift.
        let mut inst = Instance::new();
        let lo = inst.push(Task::new(3.0, 3.0).with_priority(1.0));
        let hi = inst.push(Task::new(3.0, 3.0).with_priority(9.0));
        let mid = inst.push(Task::new(3.0, 3.0).with_priority(5.0));
        let ids: Vec<TaskId> = inst.ids().collect();

        // Static queue: descending priority at ρ = 1.
        let sorted = sorted_queue(&inst, &ids, QueueTieBreak::Priority);
        assert_eq!(Vec::from(sorted), vec![hi, mid, lo]);

        // Dynamic queue agrees, draining from either end.
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        for &id in &ids {
            q.push(&inst, id);
        }
        assert_eq!(q.pop(ResourceKind::Gpu), Some(hi), "GPU sees the highest priority first");
        assert_eq!(q.pop(ResourceKind::Cpu), Some(lo), "CPU end holds the lowest priority");
        assert_eq!(q.pop(ResourceKind::Gpu), Some(mid));

        // Mixed ρ around the boundary: ρ = 1 tasks still group together
        // and sit between accelerated and decelerated tasks.
        let mut inst2 = Instance::new();
        let fast = inst2.push(Task::new(4.0, 1.0));
        let one_hi = inst2.push(Task::new(2.0, 2.0).with_priority(7.0));
        let one_lo = inst2.push(Task::new(2.0, 2.0).with_priority(2.0));
        let slow = inst2.push(Task::new(1.0, 4.0));
        let ids2: Vec<TaskId> = inst2.ids().collect();
        let expect = vec![fast, one_hi, one_lo, slow];
        assert_eq!(Vec::from(sorted_queue(&inst2, &ids2, QueueTieBreak::Priority)), expect);
        let mut q2 = AffinityQueue::new(QueueTieBreak::Priority);
        for &id in &ids2 {
            q2.push(&inst2, id);
        }
        let mut drained = Vec::new();
        while let Some(t) = q2.pop(ResourceKind::Gpu) {
            drained.push(t);
        }
        assert_eq!(drained, expect);
    }

    #[test]
    fn non_finite_accel_factor_is_rejected_at_the_queue_boundary() {
        // A task smuggled past validation (public fields) must be rejected
        // with the typed ModelError message, not silently mis-ordered.
        let inst = Instance::from_tasks(vec![Task::from_raw_times(&[1e308, 1e-308], 0.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push(&inst, TaskId(0));
        }))
        .expect_err("push of a non-finite-rho task must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("positive and finite"), "unexpected panic message: {msg}");
    }

    #[test]
    fn interleaved_push_pop_preserves_exact_order() {
        // Exercise the spill path: push high-ρ tasks after lower-ρ ones in
        // the same octave, interleaved with pops from both ends, and check
        // against a straightforward sorted model.
        let inst = Instance::from_times(&[
            (3.0, 2.0), // ρ = 1.5
            (7.0, 4.0), // ρ = 1.75  (same octave as 1.5)
            (2.0, 1.0), // ρ = 2
            (5.0, 4.0), // ρ = 1.25  (same octave again)
            (9.0, 8.0), // ρ = 1.125
        ]);
        let mut q = AffinityQueue::new(QueueTieBreak::InsertionOrder);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(1)); // spill: 1.75 sorts before 1.5
        q.push(&inst, TaskId(2)); // different octave
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(2)));
        q.push(&inst, TaskId(3)); // appends after 1.5
        q.push(&inst, TaskId(4)); // appends after 1.25
        let mut front_drain = Vec::new();
        while let Some(t) = q.pop(ResourceKind::Gpu) {
            front_drain.push(t);
        }
        assert_eq!(front_drain, vec![TaskId(1), TaskId(0), TaskId(3), TaskId(4)]);
    }

    #[test]
    fn two_class_matches_affinity_queue() {
        // The generalized queue at k = 2 *is* the bucketed AffinityQueue:
        // identical pops from both ends, interleaved with pushes.
        let inst = Instance::from_times(&[
            (3.0, 1.0),
            (1.0, 3.0),
            (4.0, 4.0),
            (9.0, 1.0),
            (2.0, 5.0),
            (3.0, 1.0),
            (7.0, 4.0),
        ]);
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let mut reference = AffinityQueue::new(tie);
            let mut general = ClassQueue::new(2, tie);
            for id in inst.ids() {
                reference.push(&inst, id);
                general.push(&inst, id);
            }
            assert_eq!(general.len(), reference.len());
            let mut side = ResourceKind::Gpu;
            while let Some(expect) = reference.pop(side) {
                let class = ClassId::from(side);
                let got = general.pop(class);
                let want_side =
                    if side == ResourceKind::Gpu { PopSide::Front } else { PopSide::Back };
                assert_eq!(got, Some((expect, want_side)), "{tie:?}");
                side = side.other();
            }
            assert!(general.is_empty());
        }
    }

    #[test]
    fn three_class_pop_takes_argmax_relative_speedup() {
        // Times per class (cpu, gpu, fpga).
        let inst = Instance::from_class_times(&[
            &[8.0, 1.0, 4.0], // T0: best on gpu (8× vs cpu)
            &[2.0, 4.0, 1.0], // T1: best on fpga (4× vs gpu)
            &[1.0, 6.0, 6.0], // T2: best on cpu
        ]);
        let mut q = ClassQueue::new(3, QueueTieBreak::Priority);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        assert_eq!(q.len(), 3);
        // The GPU's best relative speedup is T0 (ρ_cpu,gpu = 8).
        let (t, _) = q.pop(ClassId(1)).unwrap();
        assert_eq!(t, TaskId(0));
        // The FPGA's best remaining is T1 (ρ_gpu,fpga = 4).
        let (t, _) = q.pop(ClassId(2)).unwrap();
        assert_eq!(t, TaskId(1));
        // The CPU takes what favours it most.
        let (t, _) = q.pop(ClassId(0)).unwrap();
        assert_eq!(t, TaskId(2));
        assert!(q.is_empty());
        assert_eq!(q.pop(ClassId(0)), None);
    }

    #[test]
    fn three_class_pop_removes_task_from_every_pair() {
        // After a pop, the task must be gone from all pair queues: popping
        // for the other classes never yields it again, and a re-push (the
        // spoliation path) resurrects it cleanly.
        let inst = Instance::from_class_times(&[&[4.0, 1.0, 2.0], &[4.0, 2.0, 1.0]]);
        let mut q = ClassQueue::new(3, QueueTieBreak::Priority);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(1));
        let (first, _) = q.pop(ClassId(1)).unwrap();
        assert_eq!(first, TaskId(0), "GPU favours T0 (4x over CPU)");
        assert_eq!(q.len(), 1);
        let (second, _) = q.pop(ClassId(2)).unwrap();
        assert_eq!(second, TaskId(1), "T0 must not reappear from another pair");
        assert!(q.is_empty());
        // Spoliation re-push: the task returns and is poppable again.
        q.push(&inst, TaskId(0));
        assert_eq!(q.pop(ClassId(0)).unwrap().0, TaskId(0));
    }

    #[test]
    fn three_class_repush_of_a_queued_task_keeps_one_copy() {
        let inst = Instance::from_class_times(&[&[2.0, 2.0, 1.0], &[2.0, 2.0, 1.0]]);
        let mut q = ClassQueue::new(3, QueueTieBreak::InsertionOrder);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(1));
        q.push(&inst, TaskId(0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(1), TaskId(0)]);
        assert_eq!(q.pop(ClassId(2)).map(|(t, _)| t), Some(TaskId(1)), "T0 lost its FIFO place");
        assert_eq!(q.pop(ClassId(0)).map(|(t, _)| t), Some(TaskId(0)));
        assert_eq!(q.pop(ClassId(1)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn three_class_snapshot_rebuild_keeps_fifo_ties_in_every_pair() {
        // T0 and T1 tie in pair (0, 2) (ρ = 2 for both) but not in pair
        // (0, 1), so a snapshot in (0, 1) order would re-push T1 first and
        // hand class 2 the wrong tie. Push order keeps every pair's ties.
        let inst = Instance::from_class_times(&[&[2.0, 2.0, 1.0], &[4.0, 2.0, 2.0]]);
        let mut live = ClassQueue::new(3, QueueTieBreak::InsertionOrder);
        for id in inst.ids() {
            live.push(&inst, id);
        }
        let saved: Vec<TaskId> = live.iter().collect();
        assert_eq!(saved, vec![TaskId(0), TaskId(1)]);
        let mut rebuilt = ClassQueue::new(3, QueueTieBreak::InsertionOrder);
        for &t in &saved {
            rebuilt.push(&inst, t);
        }
        assert_eq!(live.pop(ClassId(2)), Some((TaskId(0), PopSide::Front)));
        assert_eq!(rebuilt.pop(ClassId(2)), Some((TaskId(0), PopSide::Front)));
        assert_eq!(rebuilt.pop(ClassId(0)), live.pop(ClassId(0)));
        assert!(rebuilt.is_empty() && live.is_empty());
    }

    #[test]
    fn iter_order_survives_snapshot_style_rebuild() {
        // The snapshot protocol re-pushes iter() output in order with fresh
        // sequence numbers; the rebuilt queue must drain identically.
        let inst = Instance::from_times(&[
            (2.0, 1.0),
            (2.0, 1.0),
            (6.0, 4.0),
            (1.0, 2.0),
            (3.0, 3.0),
            (2.0, 1.0),
        ]);
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let mut q = AffinityQueue::new(tie);
            for id in inst.ids() {
                q.push(&inst, id);
            }
            let _ = q.pop(ResourceKind::Cpu);
            let saved: Vec<TaskId> = q.iter().collect();
            let mut rebuilt = AffinityQueue::new(tie);
            for &t in &saved {
                rebuilt.push(&inst, t);
            }
            assert_eq!(rebuilt.iter().collect::<Vec<_>>(), saved, "{tie:?}");
            while let Some(expect) = q.pop(ResourceKind::Gpu) {
                assert_eq!(rebuilt.pop(ResourceKind::Gpu), Some(expect), "{tie:?}");
            }
            assert!(rebuilt.is_empty());
        }
    }
}
