//! The `serve-replay` workload: a closed loop of one client replaying a
//! seeded query mix against a resident sketch restored from a snapshot.
//!
//! Set-up (repeated, median reported) generates the graph, builds the
//! sketch, writes the snapshot and restores it. The measuring window then
//! cycles through the mix until the time is spent: 60% `topk(1..=k_max)`,
//! 20% `topk_excluding` with 10 banned vertices drawn from the top answer,
//! 20% `spread_estimate` of 20 random vertices, at least three times. Each
//! query is timed here, around the call; answers are checked after the
//! clock stops.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ripples_core::seq::immopt_sequential;
use ripples_core::{coverage_of_store, SampleEngine, SelectEngine};
use ripples_diffusion::StorageConfig;
use ripples_graph::Vertex;
use ripples_rng::SplitMix64;
use ripples_serve::SketchService;

use crate::batch::{ledger, well_formed, Solve};
use crate::output::{peak_rss_mb, repeat_setup, reset_peak_rss, Metrics, Tally};
use crate::stats::{median, tail};
use crate::workload::{Inputs, Workload};
use crate::Args;

/// Distinct queries in the replayed mix.
const MIX_LEN: usize = 1000;
/// Banned vertices per `topk_excluding` query.
const BANNED: usize = 10;
/// Seeds per `spread_estimate` query.
const SPREAD_SEEDS: usize = 20;
/// Queries between two one-worker batch runs in the measuring window.
const SERIAL_EVERY: usize = 100;
/// Passes over the mix a window makes at least, so each query's median
/// latency rests on three runs.
const MIN_PASSES: usize = 3;

enum Query {
    TopK(u32),
    Excluding(u32, Vec<Vertex>),
    Spread(Vec<Vertex>),
}

/// `count` distinct values drawn by `draw`.
fn distinct(count: usize, mut draw: impl FnMut() -> Vertex) -> Vec<Vertex> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = draw();
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn query_mix(seed: u64, n: u32, k_max: u32, top: &[Vertex]) -> Vec<Query> {
    let mut rng = SplitMix64::for_stream(seed, 0);
    (0..MIX_LEN)
        .map(|_| {
            let kind = rng.bounded_u64(10);
            let k = 1 + rng.bounded_u64(u64::from(k_max)) as u32;
            match kind {
                0..=5 => Query::TopK(k),
                6 | 7 => Query::Excluding(
                    k,
                    distinct(BANNED, || top[rng.bounded_u64(top.len() as u64) as usize]),
                ),
                _ => Query::Spread(distinct(SPREAD_SEEDS, || {
                    rng.bounded_u64(u64::from(n)) as Vertex
                })),
            }
        })
        .collect()
}

/// Per-rep set-up timings.
#[derive(Default)]
struct SetupTimes {
    graph_s: Vec<f64>,
    build_s: Vec<f64>,
    write_s: Vec<f64>,
    restore_s: Vec<f64>,
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `serve-replay` and fills `metrics` for the requested mode.
pub fn run(args: &Args, tally: &mut Tally, metrics: &mut Metrics) {
    let inputs = Inputs::new(Workload::ServeReplay, args.seed);
    let params = inputs.params;
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
    }
    let snapshot = args
        .scratch
        .join(format!("serve-replay-{}.snap", args.seed));

    let mut times = SetupTimes::default();
    let mut builds: Vec<Solve> = Vec::new();
    let (state, _) = repeat_setup(|| {
        let start = Instant::now();
        let graph = inputs.graph();
        times.graph_s.push(seconds_since(start));
        let t = Instant::now();
        let built = SketchService::build(
            &graph,
            params,
            SelectEngine::Auto,
            SampleEngine::Reference,
            StorageConfig::default(),
        );
        times.build_s.push(seconds_since(t));
        let t = Instant::now();
        let written = built.snapshot_to(&snapshot);
        times.write_s.push(seconds_since(t));
        let t = Instant::now();
        let restored = written
            .and_then(|()| SketchService::restore_from(&snapshot, &graph, SelectEngine::Auto));
        times.restore_s.push(seconds_since(t));
        if let Some(result) = built.build_result() {
            builds.push(Solve {
                wall_s: built.build_wall_s(),
                seeds: result.seeds.clone(),
                reports: vec![result.report.clone()],
                comm: Vec::new(),
            });
        }
        restored.map(|restored| (graph, built, restored))
    });
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&snapshot);
    let (graph, mut built, mut service) = match state {
        Ok(state) => state,
        Err(e) => return tally.check(false, || format!("snapshot write or restore failed: {e}")),
    };
    let n = graph.num_vertices();
    let k_max = service.k_max();
    eprintln!(
        "perfbench: serve-replay seed {}: n={n} m={} k_max={k_max} theta={}",
        args.seed,
        graph.num_edges(),
        service.theta()
    );

    // References, all outside the timed region: the built and restored
    // services' top answers, and the one-worker batch run they must equal.
    let top = built.topk(k_max).map(|(s, _)| s).unwrap_or_default();
    tally.check(well_formed(&top, k_max, n), || {
        "built topk(k_max) is malformed".into()
    });
    let mut serial_s = Vec::new();
    let mut batch_solve = |tally: &mut Tally| {
        let start = Instant::now();
        let serial = catch_unwind(AssertUnwindSafe(|| immopt_sequential(&graph, &params)));
        serial_s.push(seconds_since(start));
        tally.check(serial.is_ok_and(|r| r.seeds == top), || {
            "the one-worker batch run differs from the built topk(k_max)".into()
        });
    };
    batch_solve(tally);
    let restored_top = service.topk(k_max).map(|(s, _)| s).ok();
    tally.check(restored_top.as_ref() == Some(&top), || {
        "restored topk(k_max) differs from the built service".into()
    });
    let probe = &top[..top.len().min(SPREAD_SEEDS)];
    let (a, b) = (built.spread_estimate(probe), service.spread_estimate(probe));
    tally.check(
        matches!((&a, &b), (Ok((x, _)), Ok((y, _))) if x.to_bits() == y.to_bits()),
        || "restored spread differs from the built service".into(),
    );
    drop(built);
    if !well_formed(&top, k_max, n) {
        // Nothing to check the replay against; the failure is counted.
        return;
    }

    let mix = query_mix(inputs.query_seed, n, k_max, &top);
    let mut expected: Vec<Option<Vec<Vertex>>> = vec![None; MIX_LEN];
    let mut expected_spread: Vec<Option<u64>> = vec![None; MIX_LEN];
    // Raw latencies per query of the mix, and per pass parity (a traced
    // run keeps even passes as "traced", odd ones as "untraced").
    let mut runs_ms: Vec<Vec<f64>> = vec![Vec::new(); MIX_LEN];
    let mut parity_topk_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut touched: Vec<f64> = Vec::new();
    // Peak memory is taken per block of queries between two batch runs,
    // so it covers answering only.
    let mut rss_mb = Vec::new();
    reset_peak_rss();
    let window = Instant::now();
    let mut i = 0usize;
    while i < MIN_PASSES * MIX_LEN || seconds_since(window) < args.seconds {
        let (slot, pass) = (i % MIX_LEN, i / MIX_LEN);
        if i > 0 && i.is_multiple_of(SERIAL_EVERY) {
            rss_mb.push(peak_rss_mb());
            batch_solve(tally);
            reset_peak_rss();
        }
        i += 1;
        let t = Instant::now();
        let answer = catch_unwind(AssertUnwindSafe(|| match &mix[slot] {
            Query::TopK(k) => service.topk(*k).map(|(s, r)| (s, 0.0, r)),
            Query::Excluding(k, banned) => {
                service.topk_excluding(*k, banned).map(|(s, r)| (s, 0.0, r))
            }
            Query::Spread(seeds) => service.spread_estimate(seeds).map(|(e, r)| (vec![], e, r)),
        }));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        runs_ms[slot].push(ms);
        if matches!(mix[slot], Query::TopK(_)) {
            parity_topk_ms[pass % 2].push(ms);
        }

        let Ok(Ok((seeds, estimate, report))) = answer else {
            tally.check(false, || {
                format!("query {slot} returned an error or panicked")
            });
            continue;
        };
        let ok = match &mix[slot] {
            Query::TopK(k) => top.get(..*k as usize) == Some(&seeds[..]),
            Query::Excluding(k, banned) => {
                let first = expected[slot].get_or_insert_with(|| seeds.clone());
                well_formed(&seeds, *k, n)
                    && !seeds.iter().any(|v| banned.contains(v))
                    && *first == seeds
            }
            Query::Spread(q) => {
                let want = *expected_spread[slot].get_or_insert_with(|| {
                    let covered = coverage_of_store(service.store(), q);
                    (f64::from(n) * (covered as f64 / service.theta() as f64)).to_bits()
                });
                estimate.to_bits() == want
            }
        };
        tally.check(ok, || format!("query {slot} gave a wrong answer"));
        if pass == 0 && !matches!(mix[slot], Query::Spread(_)) {
            touched.push(report.entries_touched as f64);
        }
    }
    rss_mb.push(peak_rss_mb());

    // A query's latency is the median of its runs, so a burst of
    // interference during one pass does not move the mix's tail.
    let latency_ms: Vec<f64> = runs_ms.iter().filter_map(|r| median(r)).collect();
    let of_kind = |want: fn(&Query) -> bool| -> Vec<f64> {
        mix.iter()
            .zip(&latency_ms)
            .filter(|(q, _)| want(q))
            .map(|(_, &ms)| ms)
            .collect()
    };
    let topk_p50_ms = median(&of_kind(|q| matches!(q, Query::TopK(_)))).unwrap_or(0.0);
    eprintln!(
        "perfbench: {i} queries ({} passes over {MIX_LEN}), {} batch runs",
        i.div_ceil(MIX_LEN),
        serial_s.len()
    );
    if args.trace {
        ledger(&builds, &graph, metrics);
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        metrics.insert("graph.build_s", med(&times.graph_s));
        metrics.insert("serve.build_s", med(&times.build_s));
        metrics.insert("serve.snapshot_write_s", med(&times.write_s));
        metrics.insert("serve.restore_s", med(&times.restore_s));
        metrics.insert("serve.snapshot_bytes", snapshot_bytes as f64);
        metrics.insert("serve.topk_p50_ms", topk_p50_ms);
        metrics.insert(
            "serve.topk_excluding_p50_ms",
            med(&of_kind(|q| matches!(q, Query::Excluding(..)))),
        );
        metrics.insert(
            "serve.spread_p50_ms",
            med(&of_kind(|q| matches!(q, Query::Spread(_)))),
        );
        metrics.insert(
            "serve.entries_touched_per_query",
            touched.iter().sum::<f64>() / touched.len().max(1) as f64,
        );
        metrics.insert("serve.resident_bytes", service.resident_bytes() as f64);
        let [traced, untraced] = parity_topk_ms.map(|v| med(&v));
        metrics.insert("bench.traced_solve_s", traced * 1e-3);
        if untraced > 0.0 {
            metrics.insert("bench.trace_overhead", traced / untraced);
        }
    } else {
        // Each repetition's set-up is its four steps, without the
        // benchmark's own bookkeeping between them.
        let total_s: Vec<f64> = (0..times.graph_s.len())
            .map(|r| times.graph_s[r] + times.build_s[r] + times.write_s[r] + times.restore_s[r])
            .collect();
        metrics.insert("setup_s", median(&total_s).unwrap_or(0.0));
        // A topk query is this workload's k-seed answer.
        metrics.insert("solve_s", topk_p50_ms * 1e-3);
        metrics.insert("serial_s", median(&serial_s).unwrap_or(0.0));
        metrics.insert("peak_rss_mb", median(&rss_mb).unwrap_or(0.0));
        metrics.insert(
            "queries_per_s",
            latency_ms.len() as f64 / (latency_ms.iter().sum::<f64>() * 1e-3),
        );
        metrics.insert("query_p50_ms", median(&latency_ms).unwrap_or(0.0));
        metrics.insert("query_p99_ms", tail(&latency_ms, 0.99).unwrap_or(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mix_is_seeded_and_well_formed() {
        let top: Vec<Vertex> = (100..150).collect();
        let a = query_mix(9, 1000, 50, &top);
        let b = query_mix(9, 1000, 50, &top);
        assert_eq!(a.len(), MIX_LEN);
        let mut kinds = [0usize; 3];
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Query::TopK(k), Query::TopK(j)) => {
                    assert_eq!(k, j);
                    assert!((1..=50).contains(k));
                    kinds[0] += 1;
                }
                (Query::Excluding(k, banned), Query::Excluding(j, other)) => {
                    assert_eq!((k, banned), (j, other));
                    assert!(well_formed(banned, BANNED as u32, 150));
                    assert!(banned.iter().all(|v| top.contains(v)));
                    kinds[1] += 1;
                }
                (Query::Spread(s), Query::Spread(t)) => {
                    assert_eq!(s, t);
                    assert!(well_formed(s, SPREAD_SEEDS as u32, 1000));
                    kinds[2] += 1;
                }
                _ => panic!("same seed gave a different mix"),
            }
        }
        // Roughly 60/20/20.
        assert!((550..650).contains(&kinds[0]), "{kinds:?}");
        assert!((150..250).contains(&kinds[1]), "{kinds:?}");
        assert!((150..250).contains(&kinds[2]), "{kinds:?}");
    }
}
