//! Task-graph generators.
//!
//! The three dense linear-algebra factorizations of the paper's evaluation
//! (tiled Cholesky, QR and LU on an N×N tile grid, as implemented by the
//! Chameleon library), plus synthetic graphs (chains, fork-join, random
//! layered DAGs) for tests and robustness studies.
//!
//! Dependencies are derived with last-writer tracking per tile, which
//! serializes successive updates of the same tile — matching the
//! read-write-access dependency inference of StarPU-like runtimes. In QR,
//! `GEQRT(k)` leaves two results in the diagonal tile: the reflectors
//! below the diagonal and the R factor on and above it. `ORMQR` reads only
//! the reflectors and `TSQRT` rewrites only R, so `ORMQR(k,j)` does not
//! precede `TSQRT(i,k)`: a runtime that registers the reflectors as their
//! own datum infers exactly this graph. `tests/runtime_properties.rs`
//! pins all three generators, edge order included, against such
//! access-mode submissions.

use crate::dag::{DagBuilder, TaskGraph};
use crate::kernels::{Kernel, KernelTiming};
use heteroprio_core::{Task, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The last task that wrote each tile of an `n × n` grid, indexed
/// `i * n + j`: a tile's next writer depends on it.
struct LastWriter {
    n: usize,
    tiles: Vec<Option<TaskId>>,
}

impl LastWriter {
    fn new(n: usize) -> Self {
        LastWriter { n, tiles: vec![None; n * n] }
    }

    /// Record `task` as the writer of tile `(i, j)`; returns the previous one.
    fn replace(&mut self, i: usize, j: usize, task: TaskId) -> Option<TaskId> {
        self.tiles[i * self.n + j].replace(task)
    }
}

/// Tiled Cholesky factorization (A = L·Lᵀ) on an `n × n` tile grid.
///
/// Per panel `k`: `POTRF(k)` factors the diagonal tile, `TRSM(i,k)` solves
/// the panel, `SYRK(i,k)` updates diagonal tiles and `GEMM(i,j,k)` updates
/// the trailing sub-diagonal tiles.
pub fn cholesky(n: usize, timing: &impl KernelTiming) -> TaskGraph {
    assert!(n >= 1, "need at least one tile");
    let mut b = DagBuilder::new();
    // Only the lower-triangular tiles i >= j are written.
    let mut last = LastWriter::new(n);
    for k in 0..n {
        let potrf = b.add_task(timing.task(Kernel::Potrf), Kernel::Potrf.name());
        b.add_edge_opt(last.replace(k, k, potrf), potrf);
        let mut trsm = Vec::with_capacity(n - k - 1);
        for i in k + 1..n {
            let t = b.add_task(timing.task(Kernel::Trsm), Kernel::Trsm.name());
            b.add_edge(potrf, t);
            b.add_edge_opt(last.replace(i, k, t), t);
            trsm.push(t);
        }
        for i in k + 1..n {
            let syrk = b.add_task(timing.task(Kernel::Syrk), Kernel::Syrk.name());
            b.add_edge(trsm[i - k - 1], syrk);
            b.add_edge_opt(last.replace(i, i, syrk), syrk);
            for j in k + 1..i {
                let gemm = b.add_task(timing.task(Kernel::Gemm), Kernel::Gemm.name());
                b.add_edge(trsm[i - k - 1], gemm);
                b.add_edge(trsm[j - k - 1], gemm);
                b.add_edge_opt(last.replace(i, j, gemm), gemm);
            }
        }
    }
    b.build().expect("cholesky generator is acyclic by construction")
}

/// Tiled QR factorization (flat reduction tree, as in PLASMA/Chameleon).
///
/// Per panel `k`: `GEQRT(k)` factors the diagonal tile, `ORMQR(k,j)` applies
/// it to the k-th row, `TSQRT(i,k)` eliminates tile `(i,k)` against the
/// diagonal (a serial chain down the panel), and `TSMQR(i,k,j)` applies each
/// elimination to rows `k` and `i` of the trailing matrix.
pub fn qr(n: usize, timing: &impl KernelTiming) -> TaskGraph {
    assert!(n >= 1, "need at least one tile");
    let mut b = DagBuilder::new();
    let mut last = LastWriter::new(n);
    for k in 0..n {
        let geqrt = b.add_task(timing.task(Kernel::Geqrt), Kernel::Geqrt.name());
        b.add_edge_opt(last.replace(k, k, geqrt), geqrt);
        for j in k + 1..n {
            let ormqr = b.add_task(timing.task(Kernel::Ormqr), Kernel::Ormqr.name());
            b.add_edge(geqrt, ormqr);
            b.add_edge_opt(last.replace(k, j, ormqr), ormqr);
        }
        for i in k + 1..n {
            let tsqrt = b.add_task(timing.task(Kernel::Tsqrt), Kernel::Tsqrt.name());
            // Reads/writes the diagonal tile R(k,k) (chain) and tile (i,k).
            b.add_edge_opt(last.replace(k, k, tsqrt), tsqrt);
            b.add_edge_opt(last.replace(i, k, tsqrt), tsqrt);
            for j in k + 1..n {
                let tsmqr = b.add_task(timing.task(Kernel::Tsmqr), Kernel::Tsmqr.name());
                b.add_edge(tsqrt, tsmqr);
                b.add_edge_opt(last.replace(k, j, tsmqr), tsmqr);
                b.add_edge_opt(last.replace(i, j, tsmqr), tsmqr);
            }
        }
    }
    b.build().expect("qr generator is acyclic by construction")
}

/// Tiled LU factorization without pivoting.
///
/// Per panel `k`: `GETRF(k)` factors the diagonal tile, `TRSM` solves the
/// k-th row (upper) and column (lower), and `GEMM(i,j,k)` updates the whole
/// trailing matrix.
pub fn lu(n: usize, timing: &impl KernelTiming) -> TaskGraph {
    assert!(n >= 1, "need at least one tile");
    let mut b = DagBuilder::new();
    let mut last = LastWriter::new(n);
    for k in 0..n {
        let getrf = b.add_task(timing.task(Kernel::Getrf), Kernel::Getrf.name());
        b.add_edge_opt(last.replace(k, k, getrf), getrf);
        let mut row = Vec::with_capacity(n - k - 1);
        let mut col = Vec::with_capacity(n - k - 1);
        for j in k + 1..n {
            let t = b.add_task(timing.task(Kernel::Trsm), Kernel::Trsm.name());
            b.add_edge(getrf, t);
            b.add_edge_opt(last.replace(k, j, t), t);
            row.push(t);
        }
        for i in k + 1..n {
            let t = b.add_task(timing.task(Kernel::Trsm), Kernel::Trsm.name());
            b.add_edge(getrf, t);
            b.add_edge_opt(last.replace(i, k, t), t);
            col.push(t);
        }
        for i in k + 1..n {
            for j in k + 1..n {
                let gemm = b.add_task(timing.task(Kernel::Gemm), Kernel::Gemm.name());
                b.add_edge(col[i - k - 1], gemm);
                b.add_edge(row[j - k - 1], gemm);
                b.add_edge_opt(last.replace(i, j, gemm), gemm);
            }
        }
    }
    b.build().expect("lu generator is acyclic by construction")
}

/// The three factorizations, for sweeping experiments uniformly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Factorization {
    Cholesky,
    Qr,
    Lu,
}

impl Factorization {
    pub const ALL: [Factorization; 3] =
        [Factorization::Cholesky, Factorization::Qr, Factorization::Lu];

    pub fn name(self) -> &'static str {
        match self {
            Factorization::Cholesky => "Cholesky",
            Factorization::Qr => "QR",
            Factorization::Lu => "LU",
        }
    }

    /// The factorization named `cholesky`, `qr` or `lu`, in any case.
    pub fn parse(name: &str) -> Option<Self> {
        Factorization::ALL.into_iter().find(|f| f.name().eq_ignore_ascii_case(name))
    }

    pub fn generate(self, n: usize, timing: &impl KernelTiming) -> TaskGraph {
        match self {
            Factorization::Cholesky => cholesky(n, timing),
            Factorization::Qr => qr(n, timing),
            Factorization::Lu => lu(n, timing),
        }
    }
}

/// Kernel multiset of an `n`-tile factorization: `(kernel, count)` pairs,
/// in the order the generator first submits each kernel. A kernel the
/// factorization never runs at this size has count 0.
pub fn kernel_counts(f: Factorization, n: usize) -> Vec<(Kernel, usize)> {
    let c2 = n * (n - 1) / 2; // C(n, 2)
    let c3 = if n >= 3 { n * (n - 1) * (n - 2) / 6 } else { 0 }; // C(n, 3)
    let sq_sum = (n - 1) * n * (2 * n - 1) / 6; // Σ_{k<n} k²
    match f {
        Factorization::Cholesky => {
            vec![(Kernel::Potrf, n), (Kernel::Trsm, c2), (Kernel::Syrk, c2), (Kernel::Gemm, c3)]
        }
        Factorization::Qr => vec![
            (Kernel::Geqrt, n),
            (Kernel::Ormqr, c2),
            (Kernel::Tsqrt, c2),
            (Kernel::Tsmqr, sq_sum),
        ],
        Factorization::Lu => {
            vec![(Kernel::Getrf, n), (Kernel::Trsm, 2 * c2), (Kernel::Gemm, sq_sum)]
        }
    }
}

/// A serial chain of `len` tasks with the given times.
pub fn chain(len: usize, cpu: f64, gpu: f64) -> TaskGraph {
    let mut b = DagBuilder::new();
    let mut prev: Option<TaskId> = None;
    for _ in 0..len {
        let t = b.add_task(Task::new(cpu, gpu), "chain");
        b.add_edge_opt(prev, t);
        prev = Some(t);
    }
    b.build().expect("chain is acyclic")
}

/// Fork-join: one source, `width` parallel middle tasks, one sink.
pub fn fork_join(width: usize, cpu: f64, gpu: f64) -> TaskGraph {
    let mut b = DagBuilder::new();
    let src = b.add_task(Task::new(cpu, gpu), "fork");
    let sink_task = Task::new(cpu, gpu);
    let mut middles = Vec::with_capacity(width);
    for _ in 0..width {
        let m = b.add_task(Task::new(cpu, gpu), "work");
        b.add_edge(src, m);
        middles.push(m);
    }
    let sink = b.add_task(sink_task, "join");
    for m in middles {
        b.add_edge(m, sink);
    }
    b.build().expect("fork-join is acyclic")
}

/// Parameters of the random layered DAG generator.
#[derive(Clone, Copy, Debug)]
pub struct RandomDagParams {
    pub layers: usize,
    pub width: usize,
    /// Probability of an edge between nodes of consecutive layers.
    pub edge_prob: f64,
    /// CPU times drawn uniformly from this range.
    pub cpu_range: (f64, f64),
    /// Acceleration factors drawn log-uniformly from this range.
    pub accel_range: (f64, f64),
}

impl Default for RandomDagParams {
    fn default() -> Self {
        RandomDagParams {
            layers: 6,
            width: 8,
            edge_prob: 0.3,
            cpu_range: (1.0, 10.0),
            accel_range: (0.1, 30.0),
        }
    }
}

/// Random layered DAG: `layers × width` tasks; edges only between
/// consecutive layers; every non-source node gets at least one predecessor
/// so the depth is honest.
pub fn random_layered(params: &RandomDagParams, seed: u64) -> TaskGraph {
    assert!(params.layers >= 1 && params.width >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DagBuilder::new();
    let mut prev_layer: Vec<TaskId> = Vec::new();
    for layer in 0..params.layers {
        let mut this_layer = Vec::with_capacity(params.width);
        for _ in 0..params.width {
            let cpu = rng.random_range(params.cpu_range.0..=params.cpu_range.1);
            let (lo, hi) = params.accel_range;
            let rho = (rng.random_range(lo.ln()..=hi.ln())).exp();
            let t = b.add_task(Task::new(cpu, cpu / rho), "rand");
            if layer > 0 {
                let mut has_pred = false;
                for &p in &prev_layer {
                    if rng.random_bool(params.edge_prob) {
                        b.add_edge(p, t);
                        has_pred = true;
                    }
                }
                if !has_pred {
                    let p = prev_layer[rng.random_range(0..prev_layer.len())];
                    b.add_edge(p, t);
                }
            }
            this_layer.push(t);
        }
        prev_layer = this_layer;
    }
    b.build().expect("layered graph is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ConstTiming;

    const T: ConstTiming = ConstTiming { cpu: 1.0, gpu: 1.0 };

    #[test]
    fn kernel_counts_are_the_generated_histogram() {
        for f in Factorization::ALL {
            for n in 1..=12 {
                let mut counts: Vec<(&str, usize)> = kernel_counts(f, n)
                    .into_iter()
                    .filter(|&(_, c)| c > 0)
                    .map(|(k, c)| (k.name(), c))
                    .collect();
                counts.sort_by_key(|&(name, _)| name);
                assert_eq!(counts, f.generate(n, &T).label_histogram(), "{} n={n}", f.name());
            }
        }
        // Explicit: N=4 → 4 + 6 + 6 + 4 = 20 tasks.
        assert_eq!(cholesky(4, &T).len(), 20);
    }

    #[test]
    fn factorization_names_parse_in_any_case() {
        for f in Factorization::ALL {
            assert_eq!(Factorization::parse(f.name()), Some(f));
            assert_eq!(Factorization::parse(&f.name().to_ascii_lowercase()), Some(f));
        }
        assert_eq!(Factorization::parse("Cholesky"), Some(Factorization::Cholesky));
        assert_eq!(Factorization::parse("qrx"), None);
        assert_eq!(Factorization::parse(""), None);
    }

    #[test]
    fn factorizations_have_single_source_and_sink() {
        for f in Factorization::ALL {
            let g = f.generate(5, &T);
            assert_eq!(g.sources().len(), 1, "{}", f.name());
            assert_eq!(g.sinks().len(), 1, "{}", f.name());
        }
    }

    #[test]
    fn factorization_critical_path_grows_linearly() {
        use crate::rank::{critical_path, WeightScheme};
        // With unit kernels the Cholesky critical path is 3(n-1)+1 tasks:
        // POTRF→TRSM→SYRK per panel, then the final POTRF.
        for n in 2..=6 {
            let g = cholesky(n, &T);
            let cp = critical_path(&g, WeightScheme::Avg);
            assert_eq!(cp, (3 * (n - 1) + 1) as f64, "n={n}");
        }
    }

    #[test]
    fn chain_and_fork_join_shapes() {
        let c = chain(5, 1.0, 2.0);
        assert_eq!(c.len(), 5);
        assert_eq!(c.edge_count(), 4);
        assert_eq!(c.sources().len(), 1);
        assert_eq!(c.sinks().len(), 1);

        let fj = fork_join(7, 1.0, 1.0);
        assert_eq!(fj.len(), 9);
        assert_eq!(fj.edge_count(), 14);
    }

    #[test]
    fn random_layered_is_reproducible_and_connected() {
        let params = RandomDagParams::default();
        let g1 = random_layered(&params, 42);
        let g2 = random_layered(&params, 42);
        assert_eq!(g1.len(), g2.len());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(g1.len(), params.layers * params.width);
        // Only the first layer can be sources.
        assert!(g1.sources().len() <= params.width);
        // Every non-source node has a predecessor (generator guarantees it).
        let sources = g1.sources();
        for id in g1.instance().ids() {
            if !sources.contains(&id) {
                assert!(!g1.predecessors(id).is_empty());
            }
        }
    }

    #[test]
    fn random_layered_seeds_differ() {
        let params = RandomDagParams::default();
        let g1 = random_layered(&params, 1);
        let g2 = random_layered(&params, 2);
        let t1: Vec<f64> = g1.instance().tasks().iter().map(|t| t.cpu_time()).collect();
        let t2: Vec<f64> = g2.instance().tasks().iter().map(|t| t.cpu_time()).collect();
        assert_ne!(t1, t2);
    }

    #[test]
    fn accel_factors_respect_range() {
        let params = RandomDagParams { accel_range: (0.5, 4.0), ..RandomDagParams::default() };
        let g = random_layered(&params, 7);
        for t in g.instance().tasks() {
            let rho = t.accel_factor();
            assert!((0.5 - 1e-9..=4.0 + 1e-9).contains(&rho), "rho {rho}");
        }
    }
}
