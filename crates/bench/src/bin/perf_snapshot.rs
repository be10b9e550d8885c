//! `perf_snapshot` — perf-trajectory benchmark harness.
//!
//! Runs a small fixed matrix of (engine × synthetic graph) configurations
//! and writes one dated JSON snapshot (`BENCH_<date>.json`) so the repo
//! accumulates a performance trajectory over time: each PR can commit a
//! fresh snapshot and regressions show up as a diff against the previous
//! file instead of being lost to CI log rotation.
//!
//! ```text
//! perf_snapshot [--out DIR] [--date YYYY-MM-DD] [--quick] [--select ENGINE]
//!               [--trials N]
//! ```
//!
//! - `--out DIR`       — output directory (default `results/`).
//! - `--date`          — override the UTC date stamp in the file name.
//! - `--quick`         — smaller graphs, for CI smoke runs.
//! - `--select ENGINE` — override the selection engine for the `opt` and
//!   `mt` cells (e.g. `partitioned` to record a before-run against the
//!   default `auto` dispatch); distributed cells are unaffected.
//! - `--trials N`      — timed repetitions per config (default 3); wall
//!   times report the median, and the min/spread ride along so `bench_diff`
//!   can tell regression from run-to-run noise.
//!
//! The schema (`ripples-perf-snapshot-v8`) is documented in
//! `EXPERIMENTS.md`; every record carries the wall time, the per-phase
//! sampling/selection wall-time split (summed from the span tree), the peak
//! RRR/index/arena byte counts, and the key
//! [`RunReport`](ripples_core::obs::RunReport) counters so a snapshot is
//! interpretable on its own, without re-running anything. v3 added the
//! comm-health counters (`retries`, `dropped_ops`, `degraded_ranks`) — all
//! zero on the reliable in-process backend, nonzero only under injected
//! chaos. v4 adds the sampling-engine fields (`sample_engine`,
//! `fused_passes`, `mask_bytes_peak`) — again purely additive, and the two
//! fused counters are zero on every reference-sampler row. v5 adds host
//! provenance (`git_sha`, `rustc`, alongside the existing `threads`) and
//! per-config repeated-trial statistics: `trials`, and for each of
//! `wall_s`/`sampling_wall_s`/`selection_wall_s` a `*_min_s` and a
//! relative `*_spread` = (max − min) / median. The headline `wall_s`
//! fields become the median across trials (a v4 snapshot is the
//! degenerate `trials = 1` case, so consumers can treat v4/v5 uniformly).
//! v6 adds the RRR storage-backend fields: `rrr_store` (the `--rrr-store`
//! tag, `flat` on every pre-v6 row), `compressed_ratio` (flat-equivalent
//! payload bytes, 4 per entry, over `rrr_bytes_peak` — > 1 means the
//! backend shrank the working set), `spill_bytes_written`, and
//! `decode_nanos` — plus flat-vs-varint er-wc rows so the compression
//! trade-off is part of the committed trajectory. v7 adds serve-mode rows
//! (`engine: "serve"`): one resident [`SketchService`] sketch built at
//! `k_max` answers a fixed replay of `topk(k)` queries, and the row
//! records `queries`, `queries_per_sec`, `query_p50_ns` / `query_p99_ns`
//! (with `query_p99_spread`), `snapshot_restore_wall_s` (plus min/spread)
//! — the wall to restore the sketch from its snapshot file, which must be
//! far below the row's `sampling_wall_s` since restore skips sampling —
//! `snapshot_bytes`, and `sketch_resident_bytes`. The restored sketch is
//! asserted bitwise-identical to the writer before anything is timed.
//! v8 adds the vertex-cut sharded engine (`engine: "sharded"`, 4 ranks)
//! and three fields on every batch row: `graph_bytes_peak` (per-rank peak
//! graph bytes — the shard for `sharded`, 0 for engines that replicate),
//! `frontier_exchanges`, and `overlap_nanos` (summed post-to-wait
//! windows of the member exchanges; both 0 for non-sharded engines), plus
//! `exchange_calls` in the `comm` object. The harness *asserts* the
//! sharded claim before writing: the 4-rank per-rank `graph_bytes_peak`
//! must be under half the replicated engines\' full-graph footprint on
//! the same graph.

use ripples_bench::{measure, Args};
use ripples_comm::ThreadWorld;
use ripples_core::{
    dist::imm_distributed, dist_sharded::imm_sharded, mt::imm_multithreaded,
    seq::immopt_sequential, ImmParams, ImmResult, SampleEngine, SelectEngine,
};
use ripples_diffusion::{DiffusionModel, RrrStoreKind, StorageConfig};
use ripples_graph::generators::{barabasi_albert, erdos_renyi};
use ripples_graph::{Graph, WeightModel};
use ripples_serve::SketchService;
use std::fmt::Write as _;

/// Gregorian civil date from days since the Unix epoch (Howard Hinnant's
/// `civil_from_days` algorithm) — keeps the binary dependency-free.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

struct Config {
    graph_name: &'static str,
    engine: &'static str,
    /// Sampling kernel for the `opt` / `mt` cells (`reference` / `fused` /
    /// `auto`); the distributed cells always run the reference sampler.
    sample: SampleEngine,
    /// RRR storage backend (CLI `--rrr-store`); `flat` rows take exactly
    /// the pre-v6 code paths.
    store: StorageConfig,
}

const FLAT: StorageConfig = StorageConfig {
    kind: RrrStoreKind::Flat,
    budget: None,
};
const VARINT: StorageConfig = StorageConfig {
    kind: RrrStoreKind::Varint,
    budget: None,
};
/// Spill with a budget small enough to actually spill on the snapshot
/// graphs, so the row measures the chunk-seal + re-read path, not a
/// never-triggered cap.
const SPILL_TIGHT: StorageConfig = StorageConfig {
    kind: RrrStoreKind::Spill,
    budget: Some(256 << 10),
};

/// Sums the wall time of every span (at any depth) whose name is in
/// `names`, without double-counting nested matches: once a span matches,
/// its children are not descended into.
fn phase_wall_s(spans: &[ripples_core::obs::SpanNode], names: &[&str]) -> f64 {
    let mut nanos: u128 = 0;
    let mut stack: Vec<&ripples_core::obs::SpanNode> = spans.iter().collect();
    while let Some(span) = stack.pop() {
        if names.contains(&span.name.as_str()) {
            nanos += span.nanos;
        } else {
            stack.extend(span.children.iter());
        }
    }
    nanos as f64 / 1e9
}

fn build_graph(name: &str, quick: bool) -> Graph {
    let scale = if quick { 4 } else { 1 };
    let uniform = WeightModel::UniformRandom { seed: 7 };
    match name {
        "er-sparse" => erdos_renyi(2000 / scale, 16_000 / scale as usize, uniform, false, 42),
        // Weighted-cascade probabilities (1/in-degree) produce the short
        // RRR sets of realistic cascades — the regime where the fused
        // engine's index pays off and `auto` dispatches to it.
        "er-wc" => erdos_renyi(
            2000 / scale,
            16_000 / scale as usize,
            WeightModel::WeightedCascade,
            false,
            42,
        ),
        "ba-hubs" => barabasi_albert(2000 / scale, 8, uniform, false, 42),
        other => panic!("unknown snapshot graph `{other}`"),
    }
}

fn run_engine(engine: &str, graph: &Graph, params: &ImmParams) -> ImmResult {
    match engine {
        "opt" => immopt_sequential(graph, params),
        "mt" => imm_multithreaded(graph, params, 0),
        "dist" => ThreadWorld::new(2)
            .run(|comm| imm_distributed(comm, graph, params))
            .pop()
            .expect("at least one rank"),
        // The sharded rows run at 4 ranks so the committed per-rank
        // graph_bytes_peak shows a real (4-way) cut, not a 2-way one.
        "sharded" => ThreadWorld::new(4)
            .run(|comm| imm_sharded(comm, graph, params))
            .pop()
            .expect("at least one rank"),
        other => panic!("unknown snapshot engine `{other}`"),
    }
}

/// min / median / relative-spread of a set of timings. Spread is
/// `(max − min) / median` — a dimensionless noise estimate `bench_diff`
/// scales into its regression threshold.
fn stats(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let min = samples[0];
    let max = samples[samples.len() - 1];
    let median = samples[samples.len() / 2];
    let spread = if median > 0.0 {
        (max - min) / median
    } else {
        0.0
    };
    (min, median, spread)
}

/// First output line of `cmd args…`, or `fallback` when the command is
/// unavailable or fails (sandboxed CI, tarball checkouts without git).
fn probe(cmd: &str, args: &[&str], fallback: &str) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| fallback.to_string())
}

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let trials: usize = args.parse_or("trials", 3).max(1);
    let out_dir = args.get("out").unwrap_or("results").to_string();
    let date = args
        .get("date")
        .map(str::to_string)
        .unwrap_or_else(today_utc);
    let select = match args.get("select") {
        Some(tag) => SelectEngine::from_tag(tag).unwrap_or_else(|| {
            eprintln!("error: unknown --select `{tag}`");
            std::process::exit(1);
        }),
        None => SelectEngine::Auto,
    };

    let matrix = [
        Config {
            graph_name: "er-sparse",
            engine: "opt",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        Config {
            graph_name: "er-sparse",
            engine: "mt",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        // Same cell with the fused multi-cascade kernel: er-sparse's
        // uniform-random weights grow wide cascades, the regime where 64
        // lanes per CSR pass pay off — this row vs the one above is the
        // committed evidence for the fused sampler's wall-time win.
        Config {
            graph_name: "er-sparse",
            engine: "mt",
            sample: SampleEngine::Fused,
            store: FLAT,
        },
        Config {
            graph_name: "er-sparse",
            engine: "dist",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        Config {
            graph_name: "ba-hubs",
            engine: "mt",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        // Vertex-cut sharded rows at 4 ranks, on the same graphs as a
        // replicated (mt) row, so the trajectory carries the
        // memory-vs-overlap trade directly.
        Config {
            graph_name: "ba-hubs",
            engine: "sharded",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        Config {
            graph_name: "er-sparse",
            engine: "sharded",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        Config {
            graph_name: "er-wc",
            engine: "opt",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        Config {
            graph_name: "er-wc",
            engine: "mt",
            sample: SampleEngine::Reference,
            store: FLAT,
        },
        // Auto on weighted-cascade: short RRR sets should make the probe
        // keep the reference kernel — committed so the dispatch decision
        // itself is part of the trajectory.
        Config {
            graph_name: "er-wc",
            engine: "mt",
            sample: SampleEngine::Auto,
            store: FLAT,
        },
        // Flat-vs-varint on the weighted-cascade graph: the committed
        // evidence for the compressed backends' memory claim (the er-wc
        // flat rows above are the baselines these compress against).
        Config {
            graph_name: "er-wc",
            engine: "opt",
            sample: SampleEngine::Reference,
            store: VARINT,
        },
        Config {
            graph_name: "er-wc",
            engine: "mt",
            sample: SampleEngine::Reference,
            store: VARINT,
        },
        // Spill under a deliberately tight budget: peak must land below
        // the flat row's while the seed set stays identical.
        Config {
            graph_name: "er-wc",
            engine: "mt",
            sample: SampleEngine::Reference,
            store: SPILL_TIGHT,
        },
    ];

    let params = ImmParams::new(16, 0.5, DiffusionModel::IndependentCascade, 0);
    let mut records = String::new();
    for (i, config) in matrix.iter().enumerate() {
        let graph = build_graph(config.graph_name, quick);
        let params = params
            .with_select(select)
            .with_sample(config.sample)
            .with_storage(config.store);
        // Repeated trials: identical seeds make every trial compute the
        // same answer, so only the timings vary — keep the median-wall
        // trial's result for the counters and fold the rest into stats.
        let mut runs: Vec<(ImmResult, f64)> = (0..trials)
            .map(|_| {
                let (result, wall) = measure(|| run_engine(config.engine, &graph, &params));
                (result, wall.as_secs_f64())
            })
            .collect();
        let mut walls: Vec<f64> = runs.iter().map(|(_, w)| *w).collect();
        let mut sampling: Vec<f64> = runs
            .iter()
            .map(|(r, _)| phase_wall_s(r.report.spans(), &["sample", "Sample"]))
            .collect();
        let mut selection: Vec<f64> = runs
            .iter()
            .map(|(r, _)| phase_wall_s(r.report.spans(), &["select", "SelectSeeds"]))
            .collect();
        let (wall_min, wall_median, wall_spread) = stats(&mut walls);
        let (samp_min, samp_median, samp_spread) = stats(&mut sampling);
        let (sel_min, sel_median, sel_spread) = stats(&mut selection);
        let median_idx = runs
            .iter()
            .position(|(_, w)| *w == wall_median)
            .unwrap_or(0);
        let (result, _) = runs.swap_remove(median_idx);
        let c = &result.report.counters;
        eprintln!(
            "{}/{}: {} on {} ({} vertices, sample={}, store={}): {:.3}s median of {} (spread {:.1}%) theta={}",
            i + 1,
            matrix.len(),
            config.engine,
            config.graph_name,
            graph.num_vertices(),
            config.sample.tag(),
            config.store.kind.tag(),
            wall_median,
            trials,
            wall_spread * 100.0,
            result.theta
        );
        if i > 0 {
            records.push(',');
        }
        let comm = match &result.report.comm {
            Some(cc) => format!(
                "{{\"allreduce_calls\":{},\"barrier_calls\":{},\"broadcast_calls\":{},\"allgather_calls\":{},\"exchange_calls\":{},\"bytes_moved\":{}}}",
                cc.allreduce_calls, cc.barrier_calls, cc.broadcast_calls, cc.allgather_calls, cc.exchange_calls, cc.bytes_moved
            ),
            None => "null".to_string(),
        };
        // The sharded memory claim, enforced before the snapshot is
        // written: a 4-rank shard (edge chunks + two O(n) routing tables)
        // must stay under half the replicated full-graph footprint.
        if config.engine == "sharded" {
            let full = graph.resident_bytes();
            assert!(
                c.graph_bytes_peak > 0,
                "sharded row did not publish graph_bytes_peak"
            );
            assert!(
                (c.graph_bytes_peak as usize) * 2 < full,
                "sharded per-rank graph_bytes_peak {} is not under half the \
                 replicated footprint {} on {}",
                c.graph_bytes_peak,
                full,
                config.graph_name
            );
            assert!(
                c.frontier_exchanges > 0,
                "sharded row did not publish frontier_exchanges"
            );
        }
        // Flat-equivalent payload is 4 bytes per stored entry (one u32);
        // the ratio over the live peak is the headline compression number.
        let compressed_ratio = if c.rrr_bytes_peak > 0 {
            (4.0 * c.rrr_entries as f64) / c.rrr_bytes_peak as f64
        } else {
            0.0
        };
        write!(
            records,
            "\n    {{\"engine\":\"{}\",\"sample_engine\":\"{}\",\"rrr_store\":\"{}\",\"graph\":\"{}\",\"vertices\":{},\"edges\":{},\"k\":{},\"epsilon\":{},\"trials\":{trials},\"wall_s\":{:.6},\"wall_min_s\":{:.6},\"wall_spread\":{:.4},\"sampling_wall_s\":{:.6},\"sampling_wall_min_s\":{:.6},\"sampling_wall_spread\":{:.4},\"selection_wall_s\":{:.6},\"selection_wall_min_s\":{:.6},\"selection_wall_spread\":{:.4},\"theta\":{},\"theta_rounds\":{},\"samples_generated\":{},\"edges_examined\":{},\"rrr_entries\":{},\"rrr_bytes_peak\":{},\"compressed_ratio\":{:.4},\"spill_bytes_written\":{},\"decode_nanos\":{},\"index_bytes_peak\":{},\"arena_bytes_peak\":{},\"fused_passes\":{},\"mask_bytes_peak\":{},\"select_entries_touched\":{},\"index_build_nanos\":{},\"select_iterations\":{},\"retries\":{},\"dropped_ops\":{},\"degraded_ranks\":{},\"graph_bytes_peak\":{},\"frontier_exchanges\":{},\"overlap_nanos\":{},\"comm\":{}}}",
            config.engine,
            config.sample.tag(),
            config.store.kind.tag(),
            config.graph_name,
            graph.num_vertices(),
            graph.num_edges(),
            params.k,
            params.epsilon,
            wall_median,
            wall_min,
            wall_spread,
            samp_median,
            samp_min,
            samp_spread,
            sel_median,
            sel_min,
            sel_spread,
            result.theta,
            c.theta_rounds,
            c.samples_generated,
            c.edges_examined,
            c.rrr_entries,
            c.rrr_bytes_peak,
            compressed_ratio,
            c.spill_bytes_written,
            c.decode_nanos,
            c.index_bytes_peak,
            c.arena_bytes_peak,
            c.fused_passes,
            c.mask_bytes_peak,
            c.select_entries_touched,
            c.index_build_nanos,
            c.select_iterations,
            c.retries,
            c.dropped_ops,
            c.degraded_ranks,
            c.graph_bytes_peak,
            c.frontier_exchanges,
            c.overlap_nanos,
            comm,
        )
        .expect("writing to String cannot fail");
    }

    // v7 serve rows: ONE resident sketch (built at k_max = the batch rows'
    // k) replays a fixed query mix, then restores itself from its snapshot
    // file. The restore wall is the committed evidence that restart skips
    // sampling; bitwise parity with the writer is asserted before timing.
    // er-sparse has a sampling wall in the hundreds of ms, so its row is
    // the one where the restore-skips-sampling assertion below has real
    // margin; the er-wc rows carry the flat-vs-varint serve comparison.
    let serve_matrix = [("er-sparse", FLAT), ("er-wc", FLAT), ("er-wc", VARINT)];
    let queries_per_trial: usize = if quick { 64 } else { 256 };
    for (row, &(graph_name, store)) in serve_matrix.iter().enumerate() {
        let graph = build_graph(graph_name, quick);
        let serve_params = ImmParams::new(1, params.epsilon, DiffusionModel::IndependentCascade, 0)
            .with_k_max(params.k);
        let mut query_walls = Vec::with_capacity(trials);
        let mut sampling_walls = Vec::with_capacity(trials);
        let mut restore_walls = Vec::with_capacity(trials);
        let mut p50s = Vec::with_capacity(trials);
        let mut p99s = Vec::with_capacity(trials);
        let mut theta = 0usize;
        let mut sketch_bytes = 0usize;
        let mut snapshot_bytes = 0u64;
        for trial in 0..trials {
            let mut svc =
                SketchService::build(&graph, serve_params, select, SampleEngine::Reference, store);
            sampling_walls.push(svc.build_result().map_or(0.0, |r| {
                phase_wall_s(r.report.spans(), &["sample", "Sample"])
            }));
            theta = svc.theta();
            sketch_bytes = svc.resident_bytes();

            let snap = std::env::temp_dir().join(format!(
                "ripples-perf-serve-{}-{row}-{trial}.snap",
                std::process::id()
            ));
            svc.snapshot_to(&snap).expect("serve row: snapshot write");
            snapshot_bytes = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
            let (mut restored, restore_wall) = measure(|| {
                SketchService::restore_from(&snap, &graph, select)
                    .expect("serve row: snapshot restore")
            });
            std::fs::remove_file(&snap).ok();
            restore_walls.push(restore_wall.as_secs_f64());

            for k in [1, params.k / 2, params.k] {
                let (a, _) = svc.topk(k).expect("query within k_max");
                let (b, _) = restored.topk(k).expect("query within k_max");
                assert_eq!(a, b, "restored sketch diverged from writer at k={k}");
            }

            let ((), wall) = measure(|| {
                for q in 0..queries_per_trial {
                    let k = (q as u32 % params.k) + 1;
                    let _ = svc.topk(k).expect("query within k_max");
                }
            });
            query_walls.push(wall.as_secs_f64());
            p50s.push(svc.latency_quantile_nanos(0.50) as f64);
            p99s.push(svc.latency_quantile_nanos(0.99) as f64);
        }
        let (wall_min, wall_median, wall_spread) = stats(&mut query_walls);
        let (samp_min, samp_median, samp_spread) = stats(&mut sampling_walls);
        let (rest_min, rest_median, rest_spread) = stats(&mut restore_walls);
        let (_, p50_median, _) = stats(&mut p50s);
        let (_, p99_median, p99_spread) = stats(&mut p99s);
        let qps = if wall_median > 0.0 {
            queries_per_trial as f64 / wall_median
        } else {
            0.0
        };
        // The restart-skips-sampling claim, enforced where timing is
        // meaningful (tiny quick-mode sampling walls are all jitter).
        if samp_median > 0.05 {
            assert!(
                rest_median < 0.2 * samp_median,
                "snapshot restore ({rest_median:.4}s) is not < 20% of the sampling wall \
                 ({samp_median:.4}s)"
            );
        }
        eprintln!(
            "serve {}/{}: {} store={}: {:.0} queries/s (p50 {:.0} ns, p99 {:.0} ns), restore {:.4}s vs sampling {:.4}s, theta={}",
            row + 1,
            serve_matrix.len(),
            graph_name,
            store.kind.tag(),
            qps,
            p50_median,
            p99_median,
            rest_median,
            samp_median,
            theta,
        );
        records.push(',');
        write!(
            records,
            "\n    {{\"engine\":\"serve\",\"sample_engine\":\"{}\",\"rrr_store\":\"{}\",\"graph\":\"{}\",\"vertices\":{},\"edges\":{},\"k\":{},\"epsilon\":{},\"trials\":{trials},\"queries\":{queries_per_trial},\"wall_s\":{:.6},\"wall_min_s\":{:.6},\"wall_spread\":{:.4},\"sampling_wall_s\":{:.6},\"sampling_wall_min_s\":{:.6},\"sampling_wall_spread\":{:.4},\"theta\":{},\"queries_per_sec\":{:.1},\"query_p50_ns\":{:.0},\"query_p99_ns\":{:.0},\"query_p99_spread\":{:.4},\"snapshot_restore_wall_s\":{:.6},\"snapshot_restore_min_s\":{:.6},\"snapshot_restore_spread\":{:.4},\"snapshot_bytes\":{snapshot_bytes},\"sketch_resident_bytes\":{sketch_bytes}}}",
            SampleEngine::Reference.tag(),
            store.kind.tag(),
            graph_name,
            graph.num_vertices(),
            graph.num_edges(),
            params.k,
            params.epsilon,
            wall_median,
            wall_min,
            wall_spread,
            samp_median,
            samp_min,
            samp_spread,
            theta,
            qps,
            p50_median,
            p99_median,
            p99_spread,
            rest_median,
            rest_min,
            rest_spread,
        )
        .expect("writing to String cannot fail");
    }

    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let git_sha = probe("git", &["rev-parse", "HEAD"], "unknown");
    let rustc = probe("rustc", &["-V"], "unknown");
    let json = format!(
        "{{\n  \"schema\": \"ripples-perf-snapshot-v8\",\n  \"date\": \"{date}\",\n  \"quick\": {quick},\n  \"host\": {{\"threads\": {threads}, \"git_sha\": \"{git_sha}\", \"rustc\": \"{rustc}\"}},\n  \"configs\": [{records}\n  ]\n}}\n",
    );
    ripples_trace::validate_json(&json).expect("snapshot must be valid JSON");

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        std::process::exit(1);
    }
    let path = format!("{out_dir}/BENCH_{date}.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("snapshot written to {path}");
}
