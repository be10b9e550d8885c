//! The Algorithm 1 driver shared by every sampling-based IMM engine.
//!
//! ```text
//! ⟨R, θ⟩ ← EstimateTheta(G, k, ε)      // Algorithm 2, martingale rounds
//! R ← Sample(G, θ − |R|, R)            // top up to θ samples
//! S ← SelectSeeds(G, k, R)             // Algorithm 4 (greedy max cover)
//! ```
//!
//! IMMOPT, IMMmt, IMMdist and the graph-sharded engine differ only in how a
//! process grows its share of `R` and how the greedy counters are
//! aggregated, so [`run_imm`] takes exactly those two steps as closures and
//! owns everything else: the θ schedule, the phase spans `perfbench` and
//! `RunReport` readers rely on, memory observation and the final counter
//! block. [`run_shared`] binds the closures for the shared-memory engines;
//! [`crate::dist`] wraps the driver in its collective layer.

use crate::memory::MemoryStats;
use crate::obs::RunReport;
use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::sample::SamplerDispatch;
use crate::select::{select_with_engine_store, SelectStats};
use crate::theta::ThetaSchedule;
use ripples_diffusion::{BatchOutcome, DynRrrStore, RrrStore};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;
use std::ops::Range;

/// Trivial result for graphs too small for the estimation math (`n < 2`).
pub(crate) fn degenerate_result(engine: &str, graph: &Graph, params: &ImmParams) -> ImmResult {
    let n = graph.num_vertices();
    let k = params.effective_k(n);
    let report = RunReport::new(engine);
    ImmResult {
        seeds: (0..k).collect(),
        theta: 0,
        coverage_fraction: if n > 0 { 1.0 } else { 0.0 },
        opt_lower_bound: None,
        timers: report.phase_timers(),
        memory: MemoryStats {
            graph_bytes: graph.resident_bytes(),
            ..MemoryStats::default()
        },
        sample_work: Vec::new(),
        report,
    }
}

/// Records one sampling batch's outcome into `report`: sample/edge counters,
/// per-worker load-balance observations, and the sizes of the samples
/// appended to `collection` since `old_len`.
pub(crate) fn record_batch<S: RrrStore>(
    report: &mut RunReport,
    collection: &S,
    old_len: usize,
    outcome: &BatchOutcome,
) {
    report.counters.samples_generated += (collection.len() - old_len) as u64;
    report.counters.edges_examined += outcome.total_work();
    for &w in &outcome.per_worker_samples {
        report.thread_samples.record(w);
    }
    for j in old_len..collection.len() {
        report.rrr_sizes.record(collection.sample_len(j) as u64);
    }
    report.counters.arena_bytes_peak = report
        .counters
        .arena_bytes_peak
        .max(outcome.arena_bytes as u64);
    report.counters.fused_passes += outcome.fused_passes;
    report.counters.mask_bytes_peak = report
        .counters
        .mask_bytes_peak
        .max(outcome.mask_bytes as u64);
    for (lanes, &times) in outcome.lane_width_counts.iter().enumerate() {
        report.lanes_active.record_n(lanes as u64, times);
    }
    // The trace stream mirrors the *running peak*, not the last batch's
    // reservation, so a trace reader sees the same high-water mark the
    // counters report.
    if crate::obs::trace::enabled() {
        crate::obs::trace::counter(
            crate::obs::trace::TraceName::ArenaBytes,
            report.counters.arena_bytes_peak,
        );
        if report.counters.mask_bytes_peak > 0 {
            crate::obs::trace::counter(
                crate::obs::trace::TraceName::MaskBytes,
                report.counters.mask_bytes_peak,
            );
        }
    }
}

/// Runs Algorithm 1 over `store` and hands the filled, sealed store back
/// with the result (the resident serve mode keeps it; batch engines drop
/// it).
///
/// * `memory` carries the engine's graph and counter footprint; the driver
///   adds the RRR and index peaks.
/// * `grow(range, store, report, sample_work)` appends this process's share
///   of the global sample indices `range` to `store`, recording its sample
///   counters in `report` and its per-sample work in `sample_work`.
/// * `select(store, theta, k)` runs one greedy max-cover pass over the
///   `theta` samples drawn so far and returns the seeds, the coverage
///   fraction and the pass's [`SelectStats`].
///
/// θ sizing uses [`ImmParams::sizing_k`] (`= effective_k` unless `k_max`
/// is set), so a sketch built at `k_max` is the same collection a batch run
/// with the same `k_max` samples; only the final selection returns `k`
/// seeds. Graphs with `n < 2` return [`degenerate_result`] untouched.
pub(crate) fn run_imm(
    engine: &str,
    graph: &Graph,
    params: &ImmParams,
    mut memory: MemoryStats,
    mut store: DynRrrStore,
    mut grow: impl FnMut(Range<usize>, &mut DynRrrStore, &mut RunReport, &mut Vec<u64>),
    mut select: impl FnMut(&DynRrrStore, usize, u32) -> (Vec<Vertex>, f64, SelectStats),
) -> (ImmResult, DynRrrStore) {
    let n = graph.num_vertices();
    if n < 2 {
        return (degenerate_result(engine, graph, params), store);
    }
    let k = params.effective_k(n);
    let sizing_k = params.sizing_k(n);
    let schedule = ThetaSchedule::new(
        u64::from(n),
        u64::from(sizing_k),
        params.epsilon,
        params.ell,
    );

    let mut report = RunReport::new(engine);
    let mut sample_work: Vec<u64> = Vec::new();
    let mut theta_global: usize = 0;
    let mut select_stats = SelectStats::default();

    // --- EstimateTheta (Algorithm 2) -----------------------------------
    let mut lb: Option<f64> = None;
    report.span("EstimateTheta", |report| {
        for x in 1..=schedule.max_rounds() {
            let budget = schedule.round_budget(x);
            if crate::obs::metrics::enabled() {
                crate::obs::metrics::set(crate::obs::metrics::Metric::ThetaTarget, budget as u64);
            }
            let stop = report.span(&format!("round-{x}"), |report| {
                if budget > theta_global {
                    report.span("sample", |report| {
                        grow(theta_global..budget, &mut store, report, &mut sample_work);
                    });
                    theta_global = budget;
                }
                memory.observe_rrr(store.resident_bytes());
                let (seeds, fraction, sstats) =
                    report.span("select", |_| select(&store, theta_global, sizing_k));
                select_stats.absorb(sstats);
                report.counters.theta_rounds += 1;
                report.counters.select_iterations += seeds.len() as u64;
                report.counters.round_budgets.push(budget as u64);
                report.counters.round_coverage.push(fraction);
                if schedule.round_succeeds(x, fraction) {
                    lb = Some(schedule.lower_bound(fraction));
                    true
                } else {
                    false
                }
            });
            if stop {
                break;
            }
        }
    });
    let theta = match lb {
        Some(bound) => schedule.final_theta(bound),
        None => schedule.fallback_theta(u64::from(sizing_k)),
    };
    if crate::obs::metrics::enabled() {
        crate::obs::metrics::set(crate::obs::metrics::Metric::ThetaTarget, theta as u64);
    }

    // --- Sample top-up (Algorithm 3 from the skeleton) ------------------
    if theta > theta_global {
        report.span("Sample", |report| {
            grow(theta_global..theta, &mut store, report, &mut sample_work);
        });
        theta_global = theta;
    }
    memory.observe_rrr(store.resident_bytes());

    // --- SelectSeeds (Algorithm 4) ---------------------------------------
    let (seeds, fraction, final_stats) =
        report.span("SelectSeeds", |_| select(&store, theta_global, k));
    select_stats.absorb(final_stats);
    report.counters.select_iterations += seeds.len() as u64;

    memory.observe_index(select_stats.index_bytes);
    report.counters.rrr_entries = store.total_entries();
    report.counters.rrr_bytes_peak = memory.peak_rrr_bytes as u64;
    report.counters.theta_final = theta_global as u64;
    report.counters.unsorted_pushes = store.unsorted_pushes();
    report.counters.select_entries_touched = select_stats.entries_touched;
    report.counters.index_build_nanos = select_stats.index_build_nanos;
    report.counters.index_bytes_peak = select_stats.index_bytes as u64;
    report.counters.decode_nanos = select_stats.decode_nanos;
    report.counters.spill_bytes_written = store.spill_bytes_written();
    let result = ImmResult {
        seeds,
        theta: theta_global,
        coverage_fraction: fraction,
        opt_lower_bound: lb,
        timers: report.phase_timers(),
        memory,
        sample_work,
        report,
    };
    (result, store)
}

/// [`run_imm`] on this process's cores: the samples land in a
/// `params.storage` store through `params.sample`'s kernel, and every
/// selection pass runs `params.select`. `parallel` picks the rayon batch
/// sampler and one selection interval per pool thread (IMMmt) over the
/// strictly sequential sampler and a single interval (IMMOPT). Attaches
/// the process-wide trace when tracing is on.
pub(crate) fn run_shared(
    engine: &str,
    graph: &Graph,
    params: &ImmParams,
    parallel: bool,
) -> (ImmResult, DynRrrStore) {
    let n = graph.num_vertices();
    let factory = StreamFactory::new(params.seed);
    let mut dispatch = SamplerDispatch::new(graph, params.model, &factory, params.sample, parallel);
    let partitions = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let memory = MemoryStats {
        counter_bytes: n as usize * std::mem::size_of::<u64>(),
        graph_bytes: graph.resident_bytes(),
        ..MemoryStats::default()
    };
    let (mut result, store) = run_imm(
        engine,
        graph,
        params,
        memory,
        DynRrrStore::new(params.storage, n),
        |range, store, report, sample_work| {
            let old_len = store.len();
            let outcome = dispatch.sample_batch(range.start as u64, range.len(), store);
            sample_work.extend_from_slice(&outcome.work_per_sample);
            record_batch(report, store, old_len, &outcome);
        },
        |store, _, k| {
            let (sel, stats) = select_with_engine_store(params.select, store, n, k, partitions);
            (sel.seeds, sel.fraction, stats)
        },
    );
    if crate::obs::trace::enabled() {
        result.report.trace = Some(crate::obs::trace::collect_all());
    }
    (result, store)
}
