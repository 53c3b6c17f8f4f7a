//! The per-layer ledger of one traced engine call: rows of count × ns/op
//! and the residual against the measured wall time.
//!
//! One row, `kernel.self`, is the engine's own time: the traced wall minus
//! every timed child (the adapters' top-level calls and the replayed
//! layers nested in the kernel). Every other row charges a layer at its
//! *isolated* cost, replayed through the layer's public functions, where
//! such a replay exists, and at its in-situ adapter cost otherwise. The
//! residual is therefore the time the layers took inside the run beyond
//! what their isolated costs explain — adapter clock reads, cache
//! interference, work no row names. If the layers stop adding up to the
//! wall time, the residual shows it.

/// Where a row's ns/op comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed by an adapter around the layer's calls inside the run.
    InSitu,
    /// Replayed through the layer's public functions, outside the run.
    Replay,
    /// The engine's remainder after every timed child.
    Remainder,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::InSitu => "in-situ",
            Source::Replay => "replay",
            Source::Remainder => "remainder",
        }
    }
}

/// One ledger row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    pub count: f64,
    pub ns_per_op: f64,
    pub source: Source,
}

impl Row {
    pub fn new(layer: &'static str, count: f64, ns_per_op: f64, source: Source) -> Row {
        Row { layer, count, ns_per_op, source }
    }

    pub fn total_ns(&self) -> f64 {
        self.count * self.ns_per_op
    }
}

/// The ledger of one traced engine call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    pub wall_ns: f64,
    pub rows: Vec<Row>,
}

impl Ledger {
    /// Σ count × ns/op over the rows.
    pub fn explained_ns(&self) -> f64 {
        self.rows.iter().map(Row::total_ns).sum()
    }

    /// (wall − Σ count × ns/op) ÷ wall; 0 for an empty wall.
    pub fn residual_share(&self) -> f64 {
        if self.wall_ns > 0.0 {
            (self.wall_ns - self.explained_ns()) / self.wall_ns
        } else {
            0.0
        }
    }

    /// The rows as report lines, then the residual.
    pub fn render(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "ledger {:<20} {:>12.0} x {:>10.1} ns = {:>9.4} s  {:>6.2}%  ({})",
                    r.layer,
                    r.count,
                    r.ns_per_op,
                    r.total_ns() / 1e9,
                    share(r.total_ns(), self.wall_ns) * 100.0,
                    r.source.label()
                )
            })
            .collect();
        lines.push(format!(
            "ledger {:<20} {:>38.4} s  {:>6.2}%",
            "residual",
            (self.wall_ns - self.explained_ns()) / 1e9,
            self.residual_share() * 100.0
        ));
        lines.push(format!("ledger {:<20} {:>38.4} s", "traced wall", self.wall_ns / 1e9));
        lines
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
