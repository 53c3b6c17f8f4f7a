//! The metric catalogue, the statistics over samples, and the result line.

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("tasks_per_s", "tasks/s"),
    ("setup_s", "s"),
    ("makespan_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer the
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("kernel.events", "count"),
    ("kernel.spoliations", "count"),
    ("kernel.peak_ready_depth", "count"),
    ("kernel.self_ns_per_task", "ns"),
    ("heteroprio.sort_ns_per_task", "ns"),
    ("queue.push_ns", "ns"),
    ("queue.pop_ns", "ns"),
    ("queue.pushes", "count"),
    ("queue.pops", "count"),
    ("online.arrival_batches", "count"),
    ("schedulers.on_ready_ns", "ns"),
    ("schedulers.pick_ns", "ns"),
    ("schedulers.victim_ns", "ns"),
    ("schedulers.picks", "count"),
    ("schedulers.victim_scans", "count"),
    ("schedulers.victim_hit_ratio", "ratio"),
    ("simulator.self_ns_per_task", "ns"),
    ("taskgraph.build_s", "s"),
    ("taskgraph.rank_s", "s"),
    ("taskgraph.release_ns", "ns"),
    ("workloads.generate_s", "s"),
    ("trace.emit_ns", "ns"),
    ("trace.events", "count"),
    ("trace.encode_ns", "ns"),
    ("trace.bytes_per_event", "B"),
    ("trace.crc_ns_per_kib", "ns/KiB"),
    ("journal.append_ns", "ns"),
    ("journal.appends", "count"),
    ("journal.sync_ns", "ns"),
    ("journal.syncs", "count"),
    ("journal.bytes", "B"),
    ("audit.event_ns", "ns"),
    ("audit.finish_s", "s"),
    ("audit.checks", "count"),
    ("metrics.record_ns", "ns"),
    ("metrics.records", "count"),
    ("bounds.lower_bound_s", "s"),
    ("ledger.residual_share", "ratio"),
    ("ledger.trace_overhead_x", "ratio"),
    ("ledger.traced_wall_s", "s"),
    ("ledger.untraced_wall_s", "s"),
];

/// A metric name is letters, digits, `_`, `.` and `-`, starting with a
/// letter or a digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest ranks; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (the mean of the middle two for an even count); 0
/// for none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Look up `name`'s unit in `catalogue` and pair it with `value`.
pub fn metric(catalogue: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = catalogue
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
    (name, unit, value)
}

/// A number as JSON: every digit Rust's shortest round-trip form keeps;
/// non-finite values (never expected) become 0 so the line stays JSON.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
