//! Metric tables, the failure tally, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("serial_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.resident_bytes", "bytes"),
    ("graph.shard_bytes_max", "bytes"),
    ("diffusion.sample_s", "s"),
    ("diffusion.edges_per_s", "1/s"),
    ("diffusion.samples", "count"),
    ("diffusion.edges_examined", "count"),
    ("diffusion.rrr_entries", "count"),
    ("diffusion.rrr_bytes_peak", "bytes"),
    ("diffusion.arena_bytes_peak", "bytes"),
    ("core.select_s", "s"),
    ("core.index_build_s", "s"),
    ("core.touched_per_s", "1/s"),
    ("core.index_bytes_peak", "bytes"),
    ("core.theta", "count"),
    ("core.theta_rounds", "count"),
    ("core.select_iterations", "count"),
    ("core.select_entries_touched", "count"),
    ("core.residual_s", "s"),
    ("rayon.par_call_us", "us"),
    ("rayon.serial_call_us", "us"),
    ("comm.collective_s", "s"),
    ("comm.post_s", "s"),
    ("comm.wait_s", "s"),
    ("comm.busy_share", "ratio"),
    ("comm.collective_calls", "count"),
    ("comm.exchange_calls", "count"),
    ("comm.bytes_moved", "bytes"),
    ("comm.retries", "count"),
    ("comm.dropped_ops", "count"),
    ("serve.build_s", "s"),
    ("serve.snapshot_write_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.topk_p50_ms", "ms"),
    ("serve.topk_excluding_p50_ms", "ms"),
    ("serve.spread_p50_ms", "ms"),
    ("serve.entries_touched_per_query", "count"),
    ("serve.resident_bytes", "bytes"),
    ("bench.traced_solve_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
];

/// Operations attempted and failed. A failure is a wrong answer, an
/// `Err`, or a caught panic; none of them stops the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed and says why
    /// on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Metric values by name; names absent at print time read 0.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Set-up repetitions per run, at the least.
const SETUP_MIN_REPS: usize = 5;
/// Set-up repeats until this much time is spent; `setup_s` is the median.
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Runs `setup` repeatedly, dropping each result before the next, and
/// returns the last result with every repetition's wall seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran at least once"), times)
}

extern "C" {
    /// glibc: returns free heap memory of every malloc arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the system, then resets this process's
/// peak resident set (`VmHWM`) to its current resident set, so the next
/// [`peak_rss_mb`] covers only what follows and not memory an earlier
/// operation freed but the allocator kept.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call at any time from any
    // thread.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), megabytes.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `table` with its unit.
#[must_use]
pub fn result_line(tally: Tally, table: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut m = Metrics::new();
        m.insert("setup_s", 0.5);
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = result_line(tally, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"solve_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }

    #[test]
    fn tally_counts_failures_without_stopping() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "wrong".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!((t.error_rate() - 0.5).abs() < 1e-12);
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list end")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().expect("name");
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn tables_match_the_benchmark_declaration() {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared(section), ours, "{section}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
