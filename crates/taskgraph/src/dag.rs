//! Directed acyclic task graphs.
//!
//! A [`TaskGraph`] owns an [`Instance`] (one task per node) plus the
//! dependency structure. Node identifiers are the instance's [`TaskId`]s, so
//! schedules produced for a graph validate directly against its instance.

use heteroprio_core::model::{Instance, Task, TaskId};
use heteroprio_core::time::approx_le;
use std::fmt;

/// A task graph: tasks plus precedence edges.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    instance: Instance,
    labels: Vec<&'static str>,
    succs: Csr<TaskId>,
    preds: Csr<TaskId>,
}

/// Compressed rows: row `i` is `items[start[i]..start[i + 1]]`. One flat
/// allocation per direction instead of one heap `Vec` per node, so walking
/// a node's neighbours reads contiguous memory.
#[derive(Clone, Debug)]
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// `n` empty rows.
    fn empty(n: usize) -> Self {
        Csr { start: vec![0; n + 1], items: Vec::new() }
    }

    /// Group `(row, item)` pairs into `n` rows by a stable counting sort:
    /// every row keeps its items in the order `pairs` yields them.
    fn group<I>(n: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        let mut start = vec![0u32; n + 1];
        let mut len = 0u32;
        for (row, _) in pairs.clone() {
            start[row + 1] += 1;
            len = len.checked_add(1).expect("at most u32::MAX adjacency entries");
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        // Every slot is overwritten below; the first item is only a filler.
        let mut items = match pairs.clone().next() {
            Some((_, first)) => vec![first; len as usize],
            None => Vec::new(),
        };
        for (row, item) in pairs {
            items[next[row] as usize] = item;
            next[row] += 1;
        }
        Csr { start, items }
    }

    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }

    #[inline]
    fn degree(&self, i: usize) -> u32 {
        self.start[i + 1] - self.start[i]
    }
}

/// Error raised when a builder's edges contain a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError;

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task graph contains a dependency cycle")
    }
}

impl std::error::Error for CycleError {}

/// Incremental construction of a [`TaskGraph`].
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    instance: Instance,
    labels: Vec<&'static str>,
    edges: Vec<(TaskId, TaskId)>,
}

impl DagBuilder {
    pub fn new() -> Self {
        DagBuilder::default()
    }

    /// Add a node; `label` is a kernel name for reporting (e.g. `"DGEMM"`).
    pub fn add_task(&mut self, task: Task, label: &'static str) -> TaskId {
        let id = self.instance.push(task);
        self.labels.push(label);
        id
    }

    /// Add a precedence edge `from → to` (`to` cannot start before `from`
    /// completes). Duplicate edges are deduplicated at build time.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        assert_ne!(from, to, "self-dependency");
        self.edges.push((from, to));
    }

    /// Add an edge from an optional predecessor (no-op on `None`); a common
    /// pattern with last-writer tracking in the generators.
    pub fn add_edge_opt(&mut self, from: Option<TaskId>, to: TaskId) {
        if let Some(f) = from {
            self.add_edge(f, to);
        }
    }

    pub fn len(&self) -> usize {
        self.instance.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instance.is_empty()
    }

    /// Finish construction, verifying acyclicity.
    ///
    /// Duplicate edges keep their first occurrence, and every successor and
    /// predecessor slice lists its edges in insertion order: the order in
    /// which a completion releases its successors is the ready queue's FIFO
    /// order, so it is part of the schedule.
    pub fn build(self) -> Result<TaskGraph, CycleError> {
        let n = self.instance.len();
        let edges = self.edges;
        assert!(
            edges.iter().all(|&(from, to)| from.index() < n && to.index() < n),
            "edge references unknown node"
        );
        // Edge ids by source, in insertion order. Within one source row a
        // target is a duplicate iff it was stamped earlier in that row.
        let by_source =
            Csr::group(n, edges.iter().enumerate().map(|(e, &(f, _))| (f.index(), e as u32)));
        let mut stamp = vec![u32::MAX; n];
        let mut keep = vec![false; edges.len()];
        let mut succs = Csr { start: Vec::with_capacity(n + 1), items: Vec::new() };
        succs.start.push(0);
        for from in 0..n {
            for &e in by_source.row(from) {
                let to = edges[e as usize].1;
                if stamp[to.index()] != from as u32 {
                    stamp[to.index()] = from as u32;
                    keep[e as usize] = true;
                    succs.items.push(to);
                }
            }
            succs.start.push(succs.items.len() as u32);
        }
        drop(by_source);
        let kept = edges.iter().zip(&keep).filter(|&(_, &k)| k).map(|(&edge, _)| edge);
        let preds = Csr::group(n, kept.map(|(from, to)| (to.index(), from)));
        let graph = TaskGraph { instance: self.instance, labels: self.labels, succs, preds };
        if graph.topo_order().len() != n {
            return Err(CycleError);
        }
        Ok(graph)
    }
}

impl TaskGraph {
    /// A graph of independent tasks (no edges).
    pub fn independent(instance: Instance) -> Self {
        let n = instance.len();
        TaskGraph { instance, labels: vec!["task"; n], succs: Csr::empty(n), preds: Csr::empty(n) }
    }

    #[inline]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.instance.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instance.is_empty()
    }

    #[inline]
    pub fn label(&self, id: TaskId) -> &'static str {
        self.labels[id.index()]
    }

    #[inline]
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.succs.row(id.index())
    }

    #[inline]
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.preds.row(id.index())
    }

    pub fn edge_count(&self) -> usize {
        self.succs.items.len()
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        self.instance.ids().filter(|&id| self.preds.degree(id.index()) == 0).collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.instance.ids().filter(|&id| self.succs.degree(id.index()) == 0).collect()
    }

    /// Kahn topological order. Shorter than `len()` iff the graph is cyclic
    /// (never the case after a successful [`DagBuilder::build`]).
    pub fn topo_order(&self) -> Vec<TaskId> {
        let n = self.len();
        let mut indegree: Vec<u32> = (0..n).map(|i| self.preds.degree(i)).collect();
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<TaskId> =
            self.instance.ids().filter(|id| indegree[id.index()] == 0).collect();
        while let Some(id) = stack.pop() {
            order.push(id);
            for &s in self.successors(id) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    stack.push(s);
                }
            }
        }
        order
    }

    /// Replace the priorities of all tasks (e.g. with bottom-level ranks).
    pub fn set_priorities(&mut self, priorities: &[f64]) {
        assert_eq!(priorities.len(), self.len());
        for (i, &p) in priorities.iter().enumerate() {
            self.instance.set_priority(TaskId(i as u32), p);
        }
    }

    /// Count nodes per label (e.g. kernels per type), sorted by label.
    pub fn label_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut hist: Vec<(&'static str, usize)> = Vec::new();
        for &l in &self.labels {
            match hist.iter_mut().find(|(name, _)| *name == l) {
                Some((_, c)) => *c += 1,
                None => hist.push((l, 1)),
            }
        }
        hist.sort_by_key(|&(name, _)| name);
        hist
    }
}

/// Tracks which tasks are ready as predecessors complete; the runtime
/// simulator's dependency-release mechanism.
#[derive(Clone, Debug)]
pub struct ReadyTracker {
    indegree: Vec<u32>,
    remaining: usize,
}

impl ReadyTracker {
    pub fn new(graph: &TaskGraph) -> Self {
        ReadyTracker {
            indegree: (0..graph.len()).map(|i| graph.preds.degree(i)).collect(),
            remaining: graph.len(),
        }
    }

    /// Tasks ready at time zero.
    pub fn initial_ready(&self, graph: &TaskGraph) -> Vec<TaskId> {
        graph.sources()
    }

    /// Record completion of `task`: append the tasks that just became ready
    /// to `out`. The simulator's kernel workload calls this once per
    /// completion with a pooled buffer.
    pub fn complete_into(&mut self, graph: &TaskGraph, task: TaskId, out: &mut Vec<TaskId>) {
        self.remaining -= 1;
        for &s in graph.successors(task) {
            let d = &mut self.indegree[s.index()];
            *d = d.checked_sub(1).expect("each task completes once, so no indegree underflows");
            if *d == 0 {
                out.push(s);
            }
        }
    }

    /// Number of tasks not yet completed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

/// Verify that a schedule respects the graph's precedence constraints:
/// every completed run starts no earlier than the completion of each of its
/// predecessors' completed runs.
pub fn check_precedence(
    graph: &TaskGraph,
    schedule: &heteroprio_core::Schedule,
) -> Result<(), String> {
    let mut end_of = vec![f64::NAN; graph.len()];
    let mut start_of = vec![f64::NAN; graph.len()];
    for r in &schedule.runs {
        end_of[r.task.index()] = r.end;
        start_of[r.task.index()] = r.start;
    }
    for id in graph.instance().ids() {
        for &p in graph.predecessors(id) {
            let (s, e) = (start_of[id.index()], end_of[p.index()]);
            // Negated on purpose: a missing run leaves NaN, which must fail.
            if !approx_le(e, s) {
                return Err(format!("{id} starts at {s} before predecessor {p} ends at {e}"));
            }
        }
    }
    // Aborted runs must also start after the task's predecessors completed.
    for r in &schedule.aborted {
        for &p in graph.predecessors(r.task) {
            let e = end_of[p.index()];
            if !approx_le(e, r.start) {
                return Err(format!(
                    "aborted run of {} starts at {} before predecessor {p} ends at {e}",
                    r.task, r.start
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // a → b, a → c, b → d, c → d
        let mut b = DagBuilder::new();
        let a = b.add_task(Task::new(1.0, 1.0), "a");
        let x = b.add_task(Task::new(1.0, 1.0), "b");
        let y = b.add_task(Task::new(1.0, 1.0), "c");
        let d = b.add_task(Task::new(1.0, 1.0), "d");
        b.add_edge(a, x);
        b.add_edge(a, y);
        b.add_edge(x, d);
        b.add_edge(y, d);
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
        assert_eq!(g.predecessors(TaskId(3)).len(), 2);
    }

    #[test]
    fn topo_order_is_consistent() {
        let g = diamond();
        let order = g.topo_order();
        assert_eq!(order.len(), 4);
        let pos = |id: TaskId| order.iter().position(|&x| x == id).unwrap();
        for id in g.instance().ids() {
            for &s in g.successors(id) {
                assert!(pos(id) < pos(s));
            }
        }
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = DagBuilder::new();
        let x = b.add_task(Task::new(1.0, 1.0), "x");
        let y = b.add_task(Task::new(1.0, 1.0), "y");
        b.add_edge(x, y);
        b.add_edge(y, x);
        assert_eq!(b.build().unwrap_err(), CycleError);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let mut b = DagBuilder::new();
        let x = b.add_task(Task::new(1.0, 1.0), "x");
        let y = b.add_task(Task::new(1.0, 1.0), "y");
        b.add_edge(x, y);
        b.add_edge(x, y);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn ready_tracker_releases_in_waves() {
        let g = diamond();
        let mut rt = ReadyTracker::new(&g);
        assert_eq!(rt.initial_ready(&g), vec![TaskId(0)]);
        assert_eq!(rt.remaining(), 4);
        let mut complete = |t| {
            let mut ready = Vec::new();
            rt.complete_into(&g, t, &mut ready);
            ready.sort();
            ready
        };
        assert_eq!(complete(TaskId(0)), vec![TaskId(1), TaskId(2)]);
        assert!(complete(TaskId(1)).is_empty());
        assert_eq!(complete(TaskId(2)), vec![TaskId(3)]);
        assert!(complete(TaskId(3)).is_empty());
        assert!(rt.is_done());
    }

    #[test]
    fn precedence_check_catches_violations() {
        use heteroprio_core::{Schedule, TaskRun, WorkerId};
        let g = diamond();
        let mut sched = Schedule::new();
        // Serial valid schedule on one worker id 0.
        for (i, (s, e)) in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)].iter().enumerate() {
            sched.runs.push(TaskRun {
                task: TaskId(i as u32),
                worker: WorkerId(0),
                start: *s,
                end: *e,
            });
        }
        check_precedence(&g, &sched).unwrap();
        // Make the sink start before its predecessors complete.
        sched.runs[3].start = 0.5;
        sched.runs[3].end = 1.5;
        assert!(check_precedence(&g, &sched).is_err());
    }

    #[test]
    fn set_priorities_rewrites_instance() {
        let mut g = diamond();
        g.set_priorities(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(g.instance().task(TaskId(0)).priority, 4.0);
        assert_eq!(g.instance().task(TaskId(3)).priority, 1.0);
        assert_eq!(g.label(TaskId(0)), "a");
    }

    #[test]
    fn label_histogram_counts() {
        let g = diamond();
        let hist = g.label_histogram();
        assert_eq!(hist.len(), 4);
        assert!(hist.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn independent_graph_has_no_edges() {
        let g = TaskGraph::independent(Instance::from_times(&[(1.0, 1.0), (2.0, 2.0)]));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.sources().len(), 2);
    }
}
