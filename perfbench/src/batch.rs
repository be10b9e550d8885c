//! The batch workloads: `ic-sample`, `lt-select` and `dist-shard`.
//!
//! A run generates the graph several times (set-up), solves once on one
//! worker (the correctness reference and `serial_s`), then solves on the
//! parallel engine until the measuring time is spent. Every answer is
//! checked outside the timed region. A traced run alternates traced and
//! untraced solves and turns each traced solve's `RunReport` span tree,
//! counters and per-rank communicator timings into the per-layer ledger.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ripples_comm::{SelfComm, ThreadWorld};
use ripples_core::dist_sharded::imm_sharded;
use ripples_core::mt::imm_multithreaded;
use ripples_core::obs::SpanNode;
use ripples_core::seq::immopt_sequential;
use ripples_core::{ImmParams, ImmResult, RunReport};
use ripples_graph::{Graph, Vertex};

use crate::output::{peak_rss_mb, repeat_setup, reset_peak_rss, Metrics, Tally};
use crate::stats::{max, median, tail};
use crate::timing_comm::{CommTimes, TimingComm};
use crate::workload::{Inputs, Workload, WORKERS};
use crate::Args;

/// Solves a measuring window holds at least, whatever `--seconds` says.
const MIN_SOLVES: usize = 4;

/// One finished solve (or, on `serve-replay`, one sketch build).
pub(crate) struct Solve {
    pub(crate) wall_s: f64,
    pub(crate) seeds: Vec<Vertex>,
    /// One report per rank (one in total for `mt`).
    pub(crate) reports: Vec<RunReport>,
    /// Per-rank communicator timings; empty unless traced on `dist-shard`.
    pub(crate) comm: Vec<CommTimes>,
}

/// Counts that must repeat exactly between solves of the same inputs.
#[derive(Debug, PartialEq, Eq)]
struct ExactCounts {
    samples: u64,
    edges_examined: u64,
    rrr_entries: u64,
    theta: u64,
    theta_rounds: u64,
    select_iterations: u64,
    select_entries_touched: u64,
    bytes_moved: u64,
}

impl Solve {
    fn counts(&self) -> ExactCounts {
        let c = &self.reports[0].counters;
        ExactCounts {
            samples: c.samples_generated,
            edges_examined: c.edges_examined,
            rrr_entries: c.rrr_entries,
            theta: c.theta_final,
            theta_rounds: c.theta_rounds,
            select_iterations: c.select_iterations,
            select_entries_touched: c.select_entries_touched,
            bytes_moved: self.max_of(|r| r.comm.map_or(0, |cc| cc.bytes_moved)) as u64,
        }
    }

    /// Largest per-rank value of `f`.
    fn max_of(&self, f: impl Fn(&RunReport) -> u64) -> f64 {
        self.reports.iter().map(f).max().unwrap_or(0) as f64
    }

    /// Largest per-rank seconds inside spans named `names`.
    fn span_s(&self, names: &[&str]) -> f64 {
        self.reports
            .iter()
            .map(|r| span_nanos(r.spans(), names))
            .max()
            .unwrap_or(0) as f64
            * 1e-9
    }

    fn sample_s(&self) -> f64 {
        self.span_s(&["sample", "Sample"])
    }

    fn select_s(&self) -> f64 {
        self.span_s(&["select", "SelectSeeds"])
    }
}

/// Nanoseconds inside spans named one of `names`, outermost match only.
fn span_nanos(spans: &[SpanNode], names: &[&str]) -> u128 {
    spans
        .iter()
        .map(|s| {
            if names.contains(&s.name.as_str()) {
                s.nanos
            } else {
                span_nanos(&s.children, names)
            }
        })
        .sum()
}

/// Runs `f`, returning its result and wall seconds, or `None` on a panic.
fn timed<T>(f: impl FnOnce() -> T) -> Option<(T, f64)> {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok()?;
    Some((out, start.elapsed().as_secs_f64()))
}

fn finish(wall_s: f64, results: Vec<(ImmResult, Option<CommTimes>)>) -> Solve {
    let seeds = results[0].0.seeds.clone();
    let mut comm = Vec::new();
    let mut reports = Vec::new();
    for (r, t) in results {
        comm.extend(t);
        reports.push(r.report);
    }
    Solve {
        wall_s,
        seeds,
        reports,
        comm,
    }
}

/// The one-worker reference: `opt`, or `sharded` on a single rank.
fn solve_serial(workload: Workload, graph: &Graph, params: &ImmParams) -> Option<Solve> {
    let (result, wall_s) = timed(|| match workload {
        Workload::DistShard => imm_sharded(&SelfComm::new(), graph, params),
        _ => immopt_sequential(graph, params),
    })?;
    Some(finish(wall_s, vec![(result, None)]))
}

/// One solve on the workload's parallel engine. Every rank of a sharded
/// solve must return the same seeds; a disagreement reads as a panic.
fn solve_parallel(
    workload: Workload,
    graph: &Graph,
    params: &ImmParams,
    traced: bool,
) -> Option<Solve> {
    let (results, wall_s) = timed(|| match workload {
        Workload::DistShard => {
            let per_rank = ThreadWorld::new(WORKERS as u32).run(|comm| {
                if traced {
                    let timing = TimingComm::new(comm);
                    let result = imm_sharded(&timing, graph, params);
                    (result, Some(timing.times()))
                } else {
                    (imm_sharded(comm, graph, params), None)
                }
            });
            assert!(
                per_rank.iter().all(|(r, _)| r.seeds == per_rank[0].0.seeds),
                "ranks disagree on the seed set"
            );
            per_rank
        }
        _ => vec![(imm_multithreaded(graph, params, WORKERS), None)],
    })?;
    Some(finish(wall_s, results))
}

/// `seeds` is `k` distinct vertices of an `n`-vertex graph.
pub(crate) fn well_formed(seeds: &[Vertex], k: u32, n: u32) -> bool {
    let mut sorted = seeds.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == seeds.len() && seeds.len() == k as usize && seeds.iter().all(|&v| v < n)
}

/// Runs one batch workload and fills `metrics` for the requested mode.
pub fn run(workload: Workload, args: &Args, tally: &mut Tally, metrics: &mut Metrics) {
    let inputs = Inputs::new(workload, args.seed);
    let params = inputs.params;
    let (graph, setup_s) = repeat_setup(|| inputs.graph());
    let (n, k) = (
        graph.num_vertices(),
        params.effective_k(graph.num_vertices()),
    );
    eprintln!(
        "perfbench: {} seed {}: n={n} m={} k={k} eps={} model={}",
        workload.name(),
        args.seed,
        graph.num_edges(),
        params.epsilon,
        params.model
    );

    // The first one-worker solve opens the measuring window and is the
    // reference every later answer must equal bitwise.
    let window = Instant::now();
    let reference = solve_serial(workload, &graph, &params);
    tally.check(
        reference
            .as_ref()
            .is_some_and(|r| well_formed(&r.seeds, k, n)),
        || "one-worker reference solve panicked or returned a malformed seed set".into(),
    );
    let reference_seeds = reference.as_ref().map(|r| r.seeds.clone());
    let mut serial_s: Vec<f64> = reference.iter().map(|r| r.wall_s).collect();

    // The measuring window. An untraced run interleaves one one-worker
    // solve after every two parallel ones; a traced run alternates traced
    // and untraced parallel solves. Either way every kind sees the same
    // machine state.
    let mut solves: Vec<Solve> = Vec::new();
    let mut untraced_s: Vec<f64> = Vec::new();
    let mut rss_mb: Vec<f64> = Vec::new();
    let mut i = 0usize;
    while i < MIN_SOLVES || window.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i.is_multiple_of(2);
        let serial = !args.trace && i % 3 == 1;
        i += 1;
        reset_peak_rss();
        let solve = if serial {
            solve_serial(workload, &graph, &params)
        } else {
            solve_parallel(workload, &graph, &params, traced)
        };
        let peak_mb = peak_rss_mb();
        let ok = solve.as_ref().is_some_and(|s| {
            well_formed(&s.seeds, k, n) && Some(&s.seeds) == reference_seeds.as_ref()
        });
        tally.check(ok, || {
            format!("solve {i} panicked or differs from the one-worker reference")
        });
        let Some(solve) = solve else { continue };
        eprintln!(
            "perfbench: solve {i} {}: {:.4} s, peak {peak_mb:.1} MB",
            if serial {
                "one-worker"
            } else if traced {
                "traced"
            } else {
                "parallel"
            },
            solve.wall_s
        );
        if serial {
            serial_s.push(solve.wall_s);
            continue;
        }
        if let Some(first) = solves.first() {
            let (a, b) = (first.counts(), solve.counts());
            tally.check(a == b, || format!("exact counts changed: {a:?} vs {b:?}"));
        }
        rss_mb.push(peak_mb);
        if args.trace && !traced {
            untraced_s.push(solve.wall_s);
        } else {
            solves.push(solve);
        }
    }
    let walls: Vec<f64> = solves.iter().map(|s| s.wall_s).collect();
    let solve_s = median(&walls).unwrap_or(0.0);
    if args.trace {
        ledger(&solves, &graph, metrics);
        metrics.insert("graph.build_s", median(&setup_s).unwrap_or(0.0));
        metrics.insert("bench.traced_solve_s", solve_s);
        let untraced = median(&untraced_s).unwrap_or(0.0);
        if untraced > 0.0 {
            metrics.insert("bench.trace_overhead", solve_s / untraced);
        }
    } else {
        metrics.insert("setup_s", median(&setup_s).unwrap_or(0.0));
        metrics.insert("solve_s", solve_s);
        metrics.insert("serial_s", median(&serial_s).unwrap_or(0.0));
        metrics.insert("peak_rss_mb", median(&rss_mb).unwrap_or(0.0));
        // On a batch workload each query is one whole solve.
        metrics.insert(
            "queries_per_s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
        );
        metrics.insert("query_p50_ms", solve_s * 1e3);
        let p99 = tail(&walls, 0.99).or_else(|| max(&walls)).unwrap_or(0.0);
        metrics.insert("query_p99_ms", p99 * 1e3);
        eprintln!(
            "perfbench: {} parallel and {} one-worker solves; query_p99_ms is the slowest solve",
            walls.len(),
            serial_s.len()
        );
    }
}

/// Per-layer metrics from the traced solves: times are medians over
/// solves of the per-rank maximum; counts come from the first solve and
/// were checked to repeat exactly.
pub(crate) fn ledger(solves: &[Solve], graph: &Graph, m: &mut Metrics) {
    let Some(first) = solves.first() else { return };
    let med = |f: &dyn Fn(&Solve) -> f64| median(&solves.iter().map(f).collect::<Vec<_>>());
    let c = &first.reports[0].counters;

    let sample_s = med(&|s| s.sample_s()).unwrap_or(0.0);
    let select_s = med(&|s| s.select_s()).unwrap_or(0.0);
    let residual_s = med(&|s| s.wall_s - s.sample_s() - s.select_s()).unwrap_or(0.0);
    m.insert("graph.resident_bytes", graph.resident_bytes() as f64);
    let shard = first.max_of(|r| r.counters.graph_bytes_peak);
    m.insert(
        "graph.shard_bytes_max",
        if shard > 0.0 {
            shard
        } else {
            graph.resident_bytes() as f64
        },
    );
    m.insert("diffusion.sample_s", sample_s);
    m.insert("diffusion.edges_per_s", c.edges_examined as f64 / sample_s);
    m.insert("diffusion.samples", c.samples_generated as f64);
    m.insert("diffusion.edges_examined", c.edges_examined as f64);
    m.insert("diffusion.rrr_entries", c.rrr_entries as f64);
    m.insert(
        "diffusion.rrr_bytes_peak",
        first.max_of(|r| r.counters.rrr_bytes_peak),
    );
    m.insert(
        "diffusion.arena_bytes_peak",
        first.max_of(|r| r.counters.arena_bytes_peak),
    );
    m.insert("core.select_s", select_s);
    m.insert(
        "core.index_build_s",
        med(&|s| s.max_of(|r| r.counters.index_build_nanos) * 1e-9).unwrap_or(0.0),
    );
    m.insert(
        "core.touched_per_s",
        c.select_entries_touched as f64 / select_s,
    );
    m.insert(
        "core.index_bytes_peak",
        first.max_of(|r| r.counters.index_bytes_peak),
    );
    m.insert("core.theta", c.theta_final as f64);
    m.insert("core.theta_rounds", c.theta_rounds as f64);
    m.insert("core.select_iterations", c.select_iterations as f64);
    m.insert(
        "core.select_entries_touched",
        c.select_entries_touched as f64,
    );
    m.insert("core.residual_s", residual_s);

    if !first.comm.is_empty() {
        let comm_max =
            |s: &Solve, f: &dyn Fn(&CommTimes) -> f64| s.comm.iter().map(f).fold(0.0, f64::max);
        m.insert(
            "comm.collective_s",
            med(&|s| comm_max(s, &|t| t.collective_s)).unwrap_or(0.0),
        );
        m.insert(
            "comm.post_s",
            med(&|s| comm_max(s, &|t| t.post_s)).unwrap_or(0.0),
        );
        m.insert(
            "comm.wait_s",
            med(&|s| comm_max(s, &|t| t.wait_s)).unwrap_or(0.0),
        );
        m.insert(
            "comm.busy_share",
            med(&|s| comm_max(s, &|t| t.busy_s()) / s.wall_s).unwrap_or(0.0),
        );
        m.insert(
            "comm.collective_calls",
            comm_max(first, &|t| t.collective_calls as f64),
        );
        m.insert(
            "comm.exchange_calls",
            comm_max(first, &|t| t.exchange_calls as f64),
        );
        m.insert(
            "comm.bytes_moved",
            first.max_of(|r| r.comm.map_or(0, |cc| cc.bytes_moved)),
        );
        m.insert("comm.retries", c.retries as f64);
        m.insert("comm.dropped_ops", c.dropped_ops as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_rejects_duplicates_range_and_length() {
        assert!(well_formed(&[3, 1, 2], 3, 4));
        assert!(!well_formed(&[3, 3, 2], 3, 4));
        assert!(!well_formed(&[1, 2, 4], 3, 4));
        assert!(!well_formed(&[1, 2], 3, 4));
    }

    #[test]
    fn exact_counts_repeat_between_solves() {
        let graph = ripples_graph::generators::erdos_renyi(
            300,
            2400,
            ripples_graph::WeightModel::UniformRandom { seed: 4 },
            false,
            9,
        );
        let params = ImmParams::new(
            6,
            0.5,
            ripples_diffusion::DiffusionModel::IndependentCascade,
            3,
        );
        for workload in [Workload::IcSample, Workload::DistShard] {
            let a = solve_parallel(workload, &graph, &params, true).expect("solve");
            let b = solve_parallel(workload, &graph, &params, false).expect("solve");
            let serial = solve_serial(workload, &graph, &params).expect("solve");
            assert_eq!(a.counts(), b.counts(), "{workload:?}");
            assert_eq!(a.seeds, serial.seeds, "{workload:?}");
            assert!(a.counts().samples > 0 && a.counts().edges_examined > 0);
        }
    }

    #[test]
    fn span_totals_take_the_outermost_match() {
        let leaf = |name: &str, nanos| SpanNode {
            name: name.into(),
            nanos,
            children: Vec::new(),
        };
        let tree = vec![
            SpanNode {
                name: "EstimateTheta".into(),
                nanos: 100,
                children: vec![SpanNode {
                    name: "round-1".into(),
                    nanos: 90,
                    children: vec![leaf("sample", 40), leaf("select", 30)],
                }],
            },
            SpanNode {
                name: "Sample".into(),
                nanos: 50,
                children: vec![leaf("sample", 45)],
            },
            leaf("SelectSeeds", 20),
        ];
        assert_eq!(span_nanos(&tree, &["sample", "Sample"]), 90);
        assert_eq!(span_nanos(&tree, &["select", "SelectSeeds"]), 50);
    }
}
