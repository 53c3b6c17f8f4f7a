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
//! `k ≥ 3` push into it. It keeps one rank-indexed [`AffinityQueue`] per
//! class pair: at `k = 2` exactly one. The independent engine at `k = 2`
//! keeps the deque one `sorted_queue` call builds instead, whose order
//! this queue reproduces. Both builds order through one routine,
//! `sorted_runs`, which sorts runs of equal keys rather than tasks.
//!
//! # Rank-indexed representation
//!
//! The order is `(−ρ, tie, seq)`: the queue key `queue_key` first, push
//! order among equal keys. The key of a task never changes, so the first
//! push **ranks** every task of the instance once, by that key: runs of
//! consecutive task indices with one key are sorted as one entry each,
//! equal keys share a rank, and rank order is key order under
//! `total_cmp`, so ±0.0 stay distinct.
//! Each rank then holds a FIFO list of the queued tasks that carry it,
//! and a 64-ary bitmap tree over the ranks marks the non-empty lists.
//!
//! * **Push** appends the task to its rank's list and sets one bit (more
//!   only when a whole word was empty): no key comparison at all.
//! * **Pop** descends the bitmap tree, a `trailing_zeros` or
//!   `leading_zeros` per level (3 levels for 262,144 ranks), and takes the
//!   head of the first set rank for a GPU, the tail of the last for a CPU.
//!
//! The lists are circular and doubly linked through a node slab. Node `i`
//! is task `i`'s own; a task pushed again while queued takes a spare node
//! from a free list, so duplicate pushes keep their place in the order.
//!
//! Within a rank, list order is push order, and the ranks are the key
//! order, so the concatenation of the lists *is* the old `BTreeSet` total
//! order: pop and iteration order are bit-identical to the tree-based
//! implementation (pinned by `matches_sorted_queue_on_static_sets` below,
//! the `queue_parity` proptests, and the `kernel_parity` suite).

use crate::heteroprio::QueueTieBreak;
use crate::model::{ClassId, Instance, ResourceKind, TaskId, MAX_CLASSES};
use crate::time::F64Ord;

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

/// A task's place in the two-class ready order, before arrival order
/// breaks ties: `(−ρ, tie)` under `total_cmp`, ascending from the GPU end,
/// as [`F64Ord::total_bits`] integers so that sorts compare it cheaply.
/// The one key definition of the static queue (`sorted_queue`) and the
/// dynamic one.
#[inline]
pub(crate) fn queue_key(tie: QueueTieBreak, rho: f64, priority: f64) -> (u64, u64) {
    (F64Ord(-rho).total_bits(), F64Ord(tie_key(tie, rho, priority)).total_bits())
}

/// "No node" and "no rank": the end of a list, an empty rank, a task that
/// could not be ranked.
const NIL: u32 = u32::MAX;

/// `len` consecutive entries from `anchor` that share one queue key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyRun {
    pub(crate) key: (u64, u64),
    pub(crate) anchor: u32,
    pub(crate) len: u32,
}

impl KeyRun {
    /// The anchors the run covers.
    pub(crate) fn span(&self) -> std::ops::Range<u32> {
        self.anchor..self.anchor.checked_add(self.len).expect("a run ends within u32 anchors")
    }
}

/// The one ordering routine of both queue builds. `entries` yields each
/// entry's queue key and anchor (a task id or a position), or `None` for
/// an entry that takes no place in the order. Consecutive entries join one
/// run while the key stays equal and each anchor is the previous one + 1;
/// where anchors are entry indices, the gap a `None` leaves ends the run
/// before it. The runs come back sorted by key;
/// runs with equal keys come in no set order, and a caller that needs
/// one orders each such group by anchor. The sort compares one entry per
/// run, not per task: the generated instances repeat a few kernel types
/// in long id ranges, and 695,520 Cholesky tasks collapse to 4 runs.
///
/// The run buffer grows geometrically but never past the number of
/// entries, so run-free input costs no more than one key per entry.
pub(crate) fn sorted_runs(
    entries: impl ExactSizeIterator<Item = Option<((u64, u64), u32)>>,
) -> Vec<KeyRun> {
    let total = entries.len();
    let mut runs: Vec<KeyRun> = Vec::new();
    for (i, entry) in entries.enumerate() {
        let Some((key, anchor)) = entry else { continue };
        if let Some(last) = runs.last_mut() {
            if last.key == key && last.span().end == anchor {
                last.len = last.len.checked_add(1).expect("a run ends within u32 anchors");
                continue;
            }
        }
        if runs.len() == runs.capacity() {
            runs.reserve_exact(runs.len().max(16).min(total.saturating_sub(i)));
        }
        runs.push(KeyRun { key, anchor, len: 1 });
    }
    // One 128-bit compare, and no anchor: on the DAG's 152,096 distinct
    // keys a total `(key, anchor)` compare made the rank build 25% slower.
    runs.sort_unstable_by_key(|r| u128::from(r.key.0) << 64 | u128::from(r.key.1));
    runs
}

/// The tasks of an instance ranked by their queue key for one class pair.
struct Ranking {
    /// Each task's rank, ascending from the pair's front; [`NIL`] for a
    /// task without a positive finite ratio, so only a push of it fails.
    rank: Vec<u32>,
    /// Number of ranks.
    count: usize,
    /// Each rank's ratio, when asked for.
    rho: Vec<f64>,
}

/// Rank every task of `instance` by its queue key over the ratio
/// `ρ = t_a / t_b`: [`sorted_runs`] over runs of consecutive task indices,
/// so a run of equal keys is ranked with one entry. Equal keys share a
/// rank; keys that differ only under `total_cmp` (±0.0) do not, since the
/// runs compare `total_bits` integers. A task without a positive finite
/// ratio ends its run and keeps [`NIL`].
fn rank_tasks(
    instance: &Instance,
    tie: QueueTieBreak,
    (a, b): (ClassId, ClassId),
    keep_rho: bool,
) -> Ranking {
    let runs = sorted_runs(instance.tasks().iter().enumerate().map(|(i, t)| {
        let i = u32::try_from(i).expect("task indices fit u32");
        Some((queue_key(tie, t.try_affinity(a, b).ok()?, t.priority), i))
    }));
    let mut rank = vec![NIL; instance.len()];
    let mut rho = Vec::new();
    // `ranks` is the number of distinct keys so far; the last is `ranks - 1`.
    let mut ranks = 0u32;
    let mut prev = None;
    for run in runs {
        if prev != Some(run.key) {
            prev = Some(run.key);
            ranks = ranks.checked_add(1).expect("ranks fit u32");
            if keep_rho {
                rho.push(-F64Ord::from_total_bits(run.key.0).0);
            }
        }
        let span = run.span();
        rank.get_mut(span.start as usize..span.end as usize)
            .expect("runs cover task indices")
            .fill(ranks - 1);
    }
    Ranking { rank, count: ranks as usize, rho }
}

/// The set of non-empty ranks: a 64-ary bitmap tree. `levels[0]` has one
/// bit per rank; each word of a level has one bit in the level above, set
/// iff the word is non-zero; the last level is one word.
#[derive(Clone, Debug)]
struct RankSet {
    levels: Vec<Vec<u64>>,
}

impl RankSet {
    fn new(ranks: usize) -> Self {
        let mut levels = Vec::new();
        let mut bits = ranks.max(1);
        loop {
            let words = bits.div_ceil(64);
            levels.push(vec![0; words]);
            if words == 1 {
                return RankSet { levels };
            }
            bits = words;
        }
    }

    fn insert(&mut self, rank: u32) {
        let mut i = rank as usize;
        for level in &mut self.levels {
            let word = level.get_mut(i / 64).expect("rank < the ranked count");
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                return;
            }
            i /= 64;
        }
    }

    fn remove(&mut self, rank: u32) {
        let mut i = rank as usize;
        for level in &mut self.levels {
            let word = level.get_mut(i / 64).expect("rank < the ranked count");
            *word &= !(1 << (i % 64));
            if *word != 0 {
                return;
            }
            i /= 64;
        }
    }

    /// The lowest (`Front`) or highest (`Back`) set rank.
    #[inline]
    fn extreme(&self, side: PopSide) -> Option<u32> {
        let mut i = 0usize;
        for level in self.levels.iter().rev() {
            let word = *level.get(i).expect("a set bit's word exists one level down");
            if word == 0 {
                return None;
            }
            let bit = match side {
                PopSide::Front => word.trailing_zeros(),
                PopSide::Back => 63 - word.leading_zeros(),
            };
            i = i * 64 + bit as usize;
        }
        Some(u32::try_from(i).expect("ranks fit u32"))
    }

    /// The set ranks, ascending.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..).zip(self.levels.first().into_iter().flatten()).flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// A node's neighbours in its rank's circular list; `prev == NIL` while
/// the node is in no list.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link { prev: NIL, next: NIL };

/// A dynamic ready queue ordered by acceleration factor.
///
/// Order: `(−ρ, tie, push order)` from the GPU end, exactly the frozen
/// `BTreeSet` queue's. A task pushed while already queued is queued
/// twice, and each copy pops once. Every push after the first must come
/// with the instance the first one ranked.
#[derive(Clone, Debug)]
pub struct AffinityQueue {
    tie: QueueTieBreak,
    /// The class pair `(a, b)` whose ratio `t_a / t_b` orders the queue:
    /// CPU and GPU, unless a [`ClassQueue`] for `k ≥ 3` made it.
    pair: (ClassId, ClassId),
    /// Keep each rank's ratio, for a [`ClassQueue`]'s advantage test.
    keep_rho: bool,
    /// Each rank's ratio when `keep_rho`, else empty.
    rho: Vec<f64>,
    /// Each task's rank; empty until the first push ranks the instance.
    rank: Vec<u32>,
    /// Each rank's list head (its GPU end), or `NIL`.
    heads: Vec<u32>,
    /// Node `i < rank.len()` is task `i`'s own; later nodes hold the
    /// duplicate copies of `dup_tasks[i − rank.len()]`.
    links: Vec<Link>,
    dup_tasks: Vec<TaskId>,
    /// Duplicate nodes that are in no list.
    free: Vec<u32>,
    occupied: RankSet,
    len: usize,
}

impl Default for AffinityQueue {
    fn default() -> Self {
        AffinityQueue::new(QueueTieBreak::default())
    }
}

impl AffinityQueue {
    pub fn new(tie: QueueTieBreak) -> Self {
        AffinityQueue::with_pair(tie, (ClassId(0), ClassId(1)), false)
    }

    /// The queue of the pair `{a, b}`, `a < b`, inside a `k ≥ 3`
    /// [`ClassQueue`]: it also keeps each rank's ratio.
    fn for_pair(tie: QueueTieBreak, a: ClassId, b: ClassId) -> Self {
        AffinityQueue::with_pair(tie, (a, b), true)
    }

    fn with_pair(tie: QueueTieBreak, pair: (ClassId, ClassId), keep_rho: bool) -> Self {
        AffinityQueue {
            tie,
            pair,
            keep_rho,
            rho: Vec::new(),
            rank: Vec::new(),
            heads: Vec::new(),
            links: Vec::new(),
            dup_tasks: Vec::new(),
            free: Vec::new(),
            occupied: RankSet::new(0),
            len: 0,
        }
    }

    /// `task`'s rank, ranking `instance` on the first push.
    fn rank_of(&mut self, instance: &Instance, task: TaskId) -> u32 {
        if self.links.is_empty() {
            let Ranking { rank, count, rho } =
                rank_tasks(instance, self.tie, self.pair, self.keep_rho);
            self.rank = rank;
            self.rho = rho;
            self.heads = vec![NIL; count];
            self.links = vec![UNLINKED; instance.len()];
            self.occupied = RankSet::new(count);
        }
        assert!(
            instance.len() == self.rank.len(),
            "queue ranked an instance of {} tasks, pushed under one of {}",
            self.rank.len(),
            instance.len()
        );
        let rank = *self.rank.get(task.index()).expect("TaskId minted by the ranked instance");
        if rank == NIL {
            // Validated construction guarantees a positive finite ρ; a
            // task smuggled in through raw public fields or an unvalidated
            // `Instance::from_tasks` is rejected here.
            let (a, b) = self.pair;
            match instance.task(task).try_affinity(a, b) {
                Ok(rho) => unreachable!("ranked every task with a valid ρ, not ρ = {rho}"),
                Err(e) => panic!("cannot queue {task}: {e}"),
            }
        }
        rank
    }

    #[inline]
    fn link(&self, node: u32) -> Link {
        *self.links.get(node as usize).expect("node from the slab")
    }

    #[inline]
    fn link_mut(&mut self, node: u32) -> &mut Link {
        self.links.get_mut(node as usize).expect("node from the slab")
    }

    #[inline]
    fn head(&self, rank: u32) -> &u32 {
        self.heads.get(rank as usize).expect("rank < the ranked count")
    }

    #[inline]
    fn head_mut(&mut self, rank: u32) -> &mut u32 {
        self.heads.get_mut(rank as usize).expect("rank < the ranked count")
    }

    /// Append `node` at the CPU end of `rank`'s list.
    fn append(&mut self, node: u32, rank: u32) {
        let head = *self.head(rank);
        if head == NIL {
            *self.head_mut(rank) = node;
            *self.link_mut(node) = Link { prev: node, next: node };
            self.occupied.insert(rank);
        } else {
            let tail = self.link(head).prev;
            *self.link_mut(node) = Link { prev: tail, next: head };
            self.link_mut(tail).next = node;
            self.link_mut(head).prev = node;
        }
        self.len += 1;
    }

    /// Take `node` out of `rank`'s list.
    fn unlink(&mut self, node: u32, rank: u32) {
        let Link { prev, next } = self.link(node);
        if next == node {
            *self.head_mut(rank) = NIL;
            self.occupied.remove(rank);
        } else {
            self.link_mut(prev).next = next;
            self.link_mut(next).prev = prev;
            let head = self.head_mut(rank);
            if *head == node {
                *head = next;
            }
        }
        *self.link_mut(node) = UNLINKED;
        self.len -= 1;
    }

    #[inline]
    fn task_of(&self, node: u32) -> TaskId {
        match (node as usize).checked_sub(self.rank.len()) {
            None => TaskId(node),
            Some(dup) => *self.dup_tasks.get(dup).expect("duplicate node from the slab"),
        }
    }

    /// Insert a ready task.
    pub fn push(&mut self, instance: &Instance, task: TaskId) {
        let rank = self.rank_of(instance, task);
        let node = if self.link(task.0).prev == NIL {
            task.0
        } else if let Some(node) = self.free.pop() {
            let dup = node as usize - self.rank.len();
            *self.dup_tasks.get_mut(dup).expect("free node from the slab") = task;
            node
        } else {
            self.links.push(UNLINKED);
            self.dup_tasks.push(task);
            u32::try_from(self.links.len() - 1).ok().filter(|&n| n != NIL).expect("node fits u32")
        };
        self.append(node, rank);
    }

    /// Insert a ready task, or move it if it is already queued: it takes
    /// the CPU end of its rank, as if popped and pushed again. Only for a
    /// queue that no plain [`push`](Self::push) gave a duplicate.
    fn push_unique(&mut self, instance: &Instance, task: TaskId) {
        let rank = self.rank_of(instance, task);
        self.remove(task);
        self.append(task.0, rank);
    }

    /// Take a task out of the queue, if it is queued on its own node.
    fn remove(&mut self, task: TaskId) {
        if self.link(task.0).prev != NIL {
            let rank = *self.rank.get(task.index()).expect("a queued task was ranked");
            self.unlink(task.0, rank);
        }
    }

    /// The ratio of the task at the front or back, for a queue made by
    /// [`for_pair`](Self::for_pair).
    fn end_rho(&self, side: PopSide) -> Option<f64> {
        let rank = self.occupied.extreme(side)?;
        Some(*self.rho.get(rank as usize).expect("for_pair keeps every rank's ratio"))
    }

    /// Take `node`, just unlinked, back to the slab.
    fn release(&mut self, node: u32) -> TaskId {
        let task = self.task_of(node);
        if node as usize >= self.rank.len() {
            self.free.push(node);
        }
        task
    }

    /// Pop the head of the first rank (the most accelerated task) or the
    /// tail of the last (the least accelerated).
    fn pop_end(&mut self, side: PopSide) -> Option<TaskId> {
        let rank = self.occupied.extreme(side)?;
        let head = *self.head(rank);
        let node = match side {
            PopSide::Front => head,
            PopSide::Back => self.link(head).prev,
        };
        self.unlink(node, rank);
        Some(self.release(node))
    }

    /// Pop the task best suited to a worker of class `kind`: the most
    /// accelerated task for a GPU, the least accelerated for a CPU.
    pub fn pop(&mut self, kind: ResourceKind) -> Option<TaskId> {
        self.pop_end(match kind {
            ResourceKind::Gpu => PopSide::Front,
            ResourceKind::Cpu => PopSide::Back,
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tasks from the GPU end to the CPU end, for snapshot capture.
    /// Re-pushing them in this order reproduces the queue exactly: fresh
    /// pushes append in iteration order, which preserves every FIFO tie.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.occupied.iter().flat_map(move |rank| {
            let head = *self.head(rank);
            std::iter::successors(Some(head), move |&node| {
                Some(self.link(node).next).filter(|&next| next != head)
            })
            .map(|node| self.task_of(node))
        })
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

/// Index of the pair `{a, b}` (`a < b < k`) in row-major
/// upper-triangular order.
#[inline]
fn pair_index(k: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < k);
    a * (2 * k - a - 1) / 2 + (b - a - 1)
}

/// `queued` value of a task that is not in the queue.
const NOT_QUEUED: u64 = u64::MAX;

/// The ready queue generalized to `k` resource classes. Every unordered
/// class pair `{a, b}` orders the tasks by the pair ratio
/// `ρ_ab = t_a / t_b` under the exact key `(−ρ_ab, tie, seq)`, and a
/// worker of class `c` pops the task with the largest relative speedup on
/// `c` across the `k − 1` pairs that involve `c`: each pair offers its
/// extreme in `c`'s direction, the largest advantage wins (strict `>`, so
/// the lowest other class wins ties). This is the argmax generalization
/// of "GPUs pop the front, CPUs the back".
///
/// The queue keeps each pair as a rank-indexed [`AffinityQueue`] ranked
/// by that pair's ratio, and every queued task sits once in each. On the
/// canonical two-class platform there is exactly one pair, and the
/// structure *is* an [`AffinityQueue`] (same keys, same pops:
/// bit-identical order, pinned by `two_class_matches_affinity_queue`
/// below). For `k ≥ 3`, a pop reads the `k − 1` pair extremes for its
/// class, each an `O(log₆₄ n)` descent plus the extreme rank's ratio,
/// takes the winner and unlinks the task from the other pairs in `O(1)`
/// each; a push appends to every pair in `O(1)` each. The first push
/// ranks the instance once per pair, `k(k−1)/2` sorts.
///
/// At every `k` the queue holds each task at most once: a push of a
/// queued task moves it, as if it were popped and pushed again. (A plain
/// [`AffinityQueue`] queues such a task twice instead.)
#[derive(Clone, Debug)]
pub struct ClassQueue {
    k: usize,
    /// One queue per class pair `{a, b}`, `a < b`, in `pair_index` order.
    pairs: Vec<AffinityQueue>,
    /// `k ≥ 3`: the push sequence number of each queued task (by index),
    /// or `NOT_QUEUED`; the snapshot order.
    queued: Vec<u64>,
    seq: u64,
}

impl ClassQueue {
    /// A queue for platforms with `k` resource classes.
    pub fn new(k: usize, tie: QueueTieBreak) -> Self {
        assert!((2..=MAX_CLASSES).contains(&k), "class queue needs 2..={MAX_CLASSES} classes");
        let pairs = if k == 2 {
            vec![AffinityQueue::new(tie)]
        } else {
            (0..k)
                .flat_map(|a| ((a + 1)..k).map(move |b| (a, b)))
                .map(|(a, b)| AffinityQueue::for_pair(tie, ClassId::from(a), ClassId::from(b)))
                .collect()
        };
        ClassQueue { k, pairs, queued: Vec::new(), seq: 0 }
    }

    /// Number of classes this queue was sized for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Insert a ready task. A task already in the queue takes a fresh
    /// sequence number, as if popped and pushed again.
    pub fn push(&mut self, instance: &Instance, task: TaskId) {
        for pair in &mut self.pairs {
            pair.push_unique(instance, task);
        }
        if self.k > 2 {
            if self.queued.len() <= task.index() {
                self.queued.resize(task.index() + 1, NOT_QUEUED);
            }
            *self.queued.get_mut(task.index()).expect("resized above") = self.seq;
            self.seq = self.seq.checked_add(1).expect("u64 push sequence never saturates");
        }
    }

    /// The pair whose extreme class `c` pops, and that extreme's end: the
    /// largest advantage over the pairs `{c, d}`, the lowest `d` on ties.
    fn best_pair(&self, c: usize) -> Option<(usize, PopSide)> {
        let mut best: Option<(f64, usize, PopSide)> = None;
        for d in (0..self.k).filter(|&d| d != c) {
            let p = pair_index(self.k, c.min(d), c.max(d));
            // `c` takes the front (the smallest key) when it is the
            // pair's `b`, where ρ_dc is its speedup; the back otherwise.
            let side = if c > d { PopSide::Front } else { PopSide::Back };
            let rho = self.pairs.get(p).expect("pair_index < pairs").end_rho(side)?;
            let advantage = if c > d { rho } else { 1.0 / rho };
            if best.is_none_or(|(top, ..)| advantage > top) {
                best = Some((advantage, p, side));
            }
        }
        best.map(|(_, p, side)| (p, side))
    }

    /// Pop the task best suited to a worker of class `class`: the argmax
    /// of the relative speedup `t_other / t_class` over every pair that
    /// involves `class` (strictly-greater comparison, lowest other-class
    /// index winning ties). Returns the chosen task and which end of its
    /// winning pair queue it came from.
    pub fn pop(&mut self, class: impl Into<ClassId>) -> Option<(TaskId, PopSide)> {
        let class = class.into();
        let c = class.index();
        assert!(c < self.k, "class {class} out of range (k = {})", self.k);
        let (p, side) = if self.k == 2 {
            (0, if c == 1 { PopSide::Front } else { PopSide::Back })
        } else {
            self.best_pair(c)?
        };
        let task = self.pairs.get_mut(p).expect("pair_index < pairs").pop_end(side)?;
        for (q, pair) in self.pairs.iter_mut().enumerate() {
            if q != p {
                pair.remove(task);
            }
        }
        if let Some(slot) = self.queued.get_mut(task.index()) {
            *slot = NOT_QUEUED;
        }
        Some((task, side))
    }

    pub fn len(&self) -> usize {
        self.pairs.first().map_or(0, AffinityQueue::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tasks in snapshot order: re-pushing them in this order into a fresh
    /// queue reproduces every pop. On a two-class queue this is the exact
    /// accelerated-to-decelerated order of the underlying
    /// [`AffinityQueue`]; for `k ≥ 3` it is push order, which keeps every
    /// pair's FIFO ties because fresh pushes append in it.
    pub fn iter(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        match self.pairs.as_slice() {
            [two] => Box::new(two.iter()),
            _ => {
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
        // Push high-ρ tasks after lower-ρ ones with close ratios,
        // interleaved with pops from both ends, and check against a
        // straightforward sorted model.
        let inst = Instance::from_times(&[
            (3.0, 2.0), // ρ = 1.5
            (7.0, 4.0), // ρ = 1.75
            (2.0, 1.0), // ρ = 2
            (5.0, 4.0), // ρ = 1.25
            (9.0, 8.0), // ρ = 1.125
        ]);
        let mut q = AffinityQueue::new(QueueTieBreak::InsertionOrder);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(1)); // 1.75 sorts before 1.5
        q.push(&inst, TaskId(2));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(2)));
        q.push(&inst, TaskId(3)); // after 1.5
        q.push(&inst, TaskId(4)); // after 1.25
        let mut front_drain = Vec::new();
        while let Some(t) = q.pop(ResourceKind::Gpu) {
            front_drain.push(t);
        }
        assert_eq!(front_drain, vec![TaskId(1), TaskId(0), TaskId(3), TaskId(4)]);
    }

    #[test]
    fn two_class_matches_affinity_queue() {
        // The generalized queue at k = 2 *is* the rank-indexed AffinityQueue:
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
    fn two_class_repush_of_a_queued_task_keeps_one_copy() {
        let inst = Instance::from_times(&[(2.0, 1.0), (2.0, 1.0)]);
        let mut q = ClassQueue::new(2, QueueTieBreak::InsertionOrder);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(1));
        q.push(&inst, TaskId(0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(1), TaskId(0)]);
        assert_eq!(q.pop(ClassId(1)).map(|(t, _)| t), Some(TaskId(1)), "T0 lost its FIFO place");
        assert_eq!(q.pop(ClassId(1)).map(|(t, _)| t), Some(TaskId(0)));
        assert_eq!(q.pop(ClassId(0)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn affinity_queue_keeps_every_copy_of_a_repushed_task() {
        let inst = Instance::from_times(&[(2.0, 1.0), (2.0, 1.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::InsertionOrder);
        for t in [0, 1, 0, 0] {
            q.push(&inst, TaskId(t));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter().collect::<Vec<_>>(), [0, 1, 0, 0].map(TaskId));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(0)));
        // The task's own node is free again; the spare ones still hold it.
        q.push(&inst, TaskId(1));
        assert_eq!(q.iter().collect::<Vec<_>>(), [1, 0, 0, 1].map(TaskId));
        let drained: Vec<_> = std::iter::from_fn(|| q.pop(ResourceKind::Cpu)).collect();
        assert_eq!(drained, [1, 0, 0, 1].map(TaskId));
    }

    /// The canonical pair's ranks and rank count.
    fn ranks(instance: &Instance, tie: QueueTieBreak) -> (Vec<u32>, usize) {
        let ranking = rank_tasks(instance, tie, (ClassId(0), ClassId(1)), false);
        (ranking.rank, ranking.count)
    }

    #[test]
    fn run_ranks_equal_per_task_ranks() {
        // The rank build before runs: one keyed entry per task, sorted,
        // equal keys sharing a rank.
        fn per_task(
            instance: &Instance,
            tie: QueueTieBreak,
            (a, b): (ClassId, ClassId),
        ) -> Ranking {
            let mut keyed: Vec<((u64, u64), usize)> = (instance.tasks().iter().enumerate())
                .filter_map(|(i, t)| {
                    Some((queue_key(tie, t.try_affinity(a, b).ok()?, t.priority), i))
                })
                .collect();
            keyed.sort_unstable();
            let mut rank = vec![NIL; instance.len()];
            let (mut rho, mut prev) = (Vec::new(), None);
            for (key, i) in keyed {
                if prev != Some(key) {
                    prev = Some(key);
                    rho.push(-F64Ord::from_total_bits(key.0).0);
                }
                rank[i] = u32::try_from(rho.len() - 1).unwrap();
            }
            Ranking { count: rho.len(), rank, rho }
        }
        // Blocks of at most 4 task types, priorities with ±0.0 and equal
        // values, and now and then a task without a finite ratio.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as usize
        };
        let priorities = [-0.0, 0.0, 1.0, 1.0, 7.5];
        for case in 0..200 {
            let k = 2 + case % 2;
            let types: Vec<Vec<f64>> =
                (0..1 + draw(4)).map(|_| (0..k).map(|_| (1 + draw(4)) as f64).collect()).collect();
            let mut tasks = Vec::new();
            for _ in 0..1 + draw(10) {
                let (ty, len, prio, vary) = (draw(4), 1 + draw(8), draw(5), draw(2));
                for j in 0..len {
                    let priority = priorities[(prio + j * vary) % priorities.len()];
                    let times = &types[ty % types.len()];
                    tasks.push(if draw(16) == 0 {
                        // Class 0's ratio to every other class overflows.
                        let mut raw = vec![f64::MIN_POSITIVE; k];
                        raw[0] = f64::MAX;
                        Task::from_raw_times(&raw, priority)
                    } else {
                        Task::from_times(times).with_priority(priority)
                    });
                }
            }
            let instance = Instance::from_tasks(tasks);
            let pairs: &[(u16, u16)] = if k == 2 { &[(0, 1)] } else { &[(0, 1), (0, 2), (1, 2)] };
            for &(a, b) in pairs {
                let pair = (ClassId(a), ClassId(b));
                for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
                    let runs = rank_tasks(&instance, tie, pair, true);
                    let want = per_task(&instance, tie, pair);
                    assert_eq!(runs.rank, want.rank, "case {case} {pair:?} {tie:?}");
                    assert_eq!(runs.count, want.count, "case {case} {pair:?} {tie:?}");
                    assert_eq!(runs.rho, want.rho, "case {case} {pair:?} {tie:?}");
                }
            }
        }
    }

    #[test]
    fn rank_build_of_the_empty_instance_has_no_ranks() {
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            assert_eq!(ranks(&Instance::new(), tie), (Vec::new(), 0));
        }
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        assert_eq!(q.pop(ResourceKind::Gpu), None);
        assert_eq!(q.pop(ResourceKind::Cpu), None);
        assert!(q.is_empty() && q.iter().next().is_none());
    }

    #[test]
    fn rank_build_of_a_one_task_instance() {
        let inst = Instance::from_times(&[(3.0, 1.0)]);
        assert_eq!(ranks(&inst, QueueTieBreak::Priority), (vec![0], 1));
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(ResourceKind::Cpu), Some(TaskId(0)));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(0)));
        assert_eq!(q.pop(ResourceKind::Gpu), None);
        q.push(&inst, TaskId(0));
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(0)]);
    }

    #[test]
    fn rank_build_keeps_signed_zero_ties_apart() {
        // ρ ≥ 1 negates the priority: the tie keys are −0.0 and +0.0, which
        // `total_cmp` orders, so −0.0 (priority +0.0) is nearer the GPU end
        // whatever the push order.
        let mut inst = Instance::new();
        let neg = inst.push(Task::new(2.0, 1.0).with_priority(-0.0));
        let pos = inst.push(Task::new(2.0, 1.0).with_priority(0.0));
        assert_eq!(ranks(&inst, QueueTieBreak::Priority), (vec![1, 0], 2));
        assert_eq!(ranks(&inst, QueueTieBreak::InsertionOrder), (vec![0, 0], 1));
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        q.push(&inst, neg);
        q.push(&inst, pos);
        assert_eq!(q.pop(ResourceKind::Gpu), Some(pos));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(neg));
    }

    #[test]
    fn push_under_another_instance_names_the_mismatch() {
        let ranked = Instance::from_times(&[(2.0, 1.0), (1.0, 2.0)]);
        let other = Instance::from_times(&[(2.0, 1.0), (1.0, 2.0), (3.0, 1.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        q.push(&ranked, TaskId(0));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push(&other, TaskId(2));
        }))
        .expect_err("push under an instance of another length must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("ranked an instance of 2 tasks, pushed under one of 3"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn rank_set_finds_both_ends_across_levels() {
        // 70,000 ranks: three levels of words.
        let ends = |set: &RankSet| (set.extreme(PopSide::Front), set.extreme(PopSide::Back));
        let mut set = RankSet::new(70_000);
        assert_eq!(set.levels.len(), 3);
        assert_eq!(ends(&set), (None, None));
        for r in [69_999, 4_097, 64, 63, 0] {
            set.insert(r);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 4_097, 69_999]);
        assert_eq!(ends(&set), (Some(0), Some(69_999)));
        set.remove(0);
        set.remove(69_999);
        assert_eq!(ends(&set), (Some(63), Some(4_097)));
        for r in [63, 64, 4_097] {
            set.remove(r);
        }
        assert_eq!(ends(&set), (None, None));
        assert!(set.levels.iter().flatten().all(|&w| w == 0));
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
