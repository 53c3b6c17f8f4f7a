//! Parity oracle for [`DagBuilder::build`]: a frozen copy of the
//! one-`Vec`-per-node builder with `HashSet` edge deduplication, plus a
//! proptest over random edge lists (duplicates, with and without cycles)
//! asserting the compressed-row graph is slice-for-slice identical —
//! successor order is release order, which the ready queue's FIFO ties
//! see, so "same edges" is not enough.

use heteroprio_core::{Task, TaskId};
use heteroprio_taskgraph::{CycleError, DagBuilder, TaskGraph};
use proptest::prelude::*;

/// Frozen copy of the adjacency-list builder and graph queries exactly as
/// they stood before the compressed-row rewrite. Do not fix or modernise:
/// this is the oracle the new storage must reproduce.
mod frozen {
    use heteroprio_core::TaskId;
    use std::collections::HashSet;

    pub struct FrozenGraph {
        pub succs: Vec<Vec<TaskId>>,
        pub preds: Vec<Vec<TaskId>>,
    }

    pub fn build(n: usize, edges: &[(TaskId, TaskId)]) -> Result<FrozenGraph, ()> {
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut seen: HashSet<(TaskId, TaskId)> = HashSet::with_capacity(edges.len());
        for &(from, to) in edges {
            assert!(from.index() < n && to.index() < n, "edge references unknown node");
            if seen.insert((from, to)) {
                succs[from.index()].push(to);
                preds[to.index()].push(from);
            }
        }
        let graph = FrozenGraph { succs, preds };
        if graph.topo_order().len() != n {
            return Err(());
        }
        Ok(graph)
    }

    impl FrozenGraph {
        fn ids(&self) -> impl Iterator<Item = TaskId> {
            (0..self.succs.len() as u32).map(TaskId)
        }

        pub fn edge_count(&self) -> usize {
            self.succs.iter().map(Vec::len).sum()
        }

        pub fn sources(&self) -> Vec<TaskId> {
            self.ids().filter(|&id| self.preds[id.index()].is_empty()).collect()
        }

        pub fn sinks(&self) -> Vec<TaskId> {
            self.ids().filter(|&id| self.succs[id.index()].is_empty()).collect()
        }

        pub fn topo_order(&self) -> Vec<TaskId> {
            let n = self.succs.len();
            let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
            let mut order = Vec::with_capacity(n);
            let mut stack: Vec<TaskId> =
                self.ids().filter(|id| indegree[id.index()] == 0).collect();
            while let Some(id) = stack.pop() {
                order.push(id);
                for &s in &self.succs[id.index()] {
                    indegree[s.index()] -= 1;
                    if indegree[s.index()] == 0 {
                        stack.push(s);
                    }
                }
            }
            order
        }
    }
}

fn build(n: usize, edges: &[(TaskId, TaskId)]) -> Result<TaskGraph, CycleError> {
    let mut b = DagBuilder::new();
    for _ in 0..n {
        b.add_task(Task::new(1.0, 1.0), "t");
    }
    for &(from, to) in edges {
        b.add_edge(from, to);
    }
    b.build()
}

fn check(n: usize, edges: &[(TaskId, TaskId)]) {
    match (frozen::build(n, edges), build(n, edges)) {
        (Err(()), Err(CycleError)) => {}
        (Ok(want), Ok(got)) => {
            for id in got.instance().ids() {
                assert_eq!(got.successors(id), want.succs[id.index()].as_slice(), "succ {}", id);
                assert_eq!(got.predecessors(id), want.preds[id.index()].as_slice(), "pred {}", id);
            }
            assert_eq!(got.edge_count(), want.edge_count());
            assert_eq!(got.sources(), want.sources());
            assert_eq!(got.sinks(), want.sinks());
            assert_eq!(got.topo_order(), want.topo_order());
        }
        (want, got) => {
            panic!("cycle verdicts differ: frozen ok {}, new {:?}", want.is_ok(), got.map(|_| ()))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Raw endpoints: duplicates are common on so few nodes, and back edges
    // make many of the lists cyclic, so both verdicts are exercised.
    #[test]
    fn build_matches_frozen_oracle(
        n in 2usize..10,
        raw in prop::collection::vec((0usize..10, 0usize..10), 0..40),
    ) {
        let edges: Vec<(TaskId, TaskId)> = raw
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (TaskId(a as u32), TaskId(b as u32)))
            .collect();
        check(n, &edges);
    }

    // Acyclic lists: each edge points up a random node ranking (not id
    // order), so successor and predecessor rows are not sorted by id.
    #[test]
    fn acyclic_build_matches_frozen_oracle(
        rank in prop::collection::vec(0u8..6, 2..12),
        raw in prop::collection::vec((0usize..12, 0usize..12, 0u8..3), 0..60),
    ) {
        let n = rank.len();
        let key = |i: usize| (rank[i], i);
        let mut edges = Vec::new();
        for &(a, b, repeat) in &raw {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let (from, to) = if key(a) < key(b) { (a, b) } else { (b, a) };
            for _ in 0..=repeat {
                edges.push((TaskId(from as u32), TaskId(to as u32)));
            }
        }
        prop_assert!(frozen::build(n, &edges).is_ok());
        check(n, &edges);
    }
}
