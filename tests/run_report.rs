//! Acceptance test for the run-report observability layer: all four IMM
//! entry points (sequential, multithreaded, distributed-replicated,
//! distributed graph-sharded) must return populated [`RunReport`]s, and the
//! deterministic counters — samples generated, total RRR entries, θ
//! estimation rounds — must be *identical* across thread counts and rank
//! counts for the same seed. That invariance is what makes the counters
//! trustworthy for cross-configuration regression comparisons.

use ripples_comm::{SelfComm, ThreadWorld};
use ripples_core::dist::imm_distributed;
use ripples_core::dist_sharded::imm_sharded;
use ripples_core::mt::imm_multithreaded;
use ripples_core::seq::immopt_sequential;
use ripples_core::{build_resident_sketch, ImmParams, ImmResult, RunReport};
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};

fn graph() -> Graph {
    erdos_renyi(
        300,
        2400,
        WeightModel::UniformRandom { seed: 31 },
        false,
        90,
    )
}

fn params() -> ImmParams {
    ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 17)
}

/// The counters that must not depend on how the run was parallelized.
fn deterministic_counters(r: &ImmResult) -> (u64, u64, u64, u64) {
    (
        r.report.counters.samples_generated,
        r.report.counters.rrr_entries,
        r.report.counters.theta_rounds,
        r.report.counters.theta_final,
    )
}

fn assert_populated(report: &RunReport, engine: &str) {
    assert_eq!(report.engine, engine);
    assert!(
        report.counters.samples_generated > 0,
        "{engine}: no samples"
    );
    assert!(report.counters.rrr_entries > 0, "{engine}: no entries");
    assert!(report.counters.theta_rounds > 0, "{engine}: no rounds");
    assert!(report.counters.theta_final > 0, "{engine}: no final theta");
    assert_eq!(
        report.counters.round_budgets.len(),
        report.counters.theta_rounds as usize,
        "{engine}: one budget per round"
    );
    assert_eq!(
        report.counters.round_coverage.len(),
        report.counters.theta_rounds as usize
    );
    assert!(
        report.rrr_sizes.count() > 0,
        "{engine}: empty size histogram"
    );
    assert!(!report.spans().is_empty(), "{engine}: empty span tree");
    // The flat phase view is derived from the span tree.
    let span_nanos: u128 = report.spans().iter().map(|s| s.nanos).sum();
    assert_eq!(report.phase_timers().total().as_nanos(), span_nanos);
    assert_eq!(
        report.counters.unsorted_pushes, 0,
        "{engine}: generator bug"
    );
}

#[test]
fn all_entry_points_agree_on_deterministic_counters() {
    let g = graph();
    let p = params();

    let seq = immopt_sequential(&g, &p);
    assert_populated(&seq.report, "immopt");
    assert!(seq.report.comm.is_none(), "sequential run has no comm");
    let expect = deterministic_counters(&seq);
    assert_eq!(seq.report.counters.theta_final, seq.theta as u64);
    assert_eq!(seq.report.rrr_sizes.count(), seq.theta as u64);

    // Multithreaded: identical counters at every thread count.
    for threads in [1usize, 2, 4] {
        let r = imm_multithreaded(&g, &p, threads);
        assert_populated(&r.report, "mt");
        assert_eq!(
            deterministic_counters(&r),
            expect,
            "mt at {threads} threads diverged"
        );
    }

    // Distributed (replicated graph): counters are globalized over ranks,
    // so every rank of every world size reports the same totals.
    for size in [1u32, 2, 3] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_distributed(comm, &g, &p));
        for (rank, r) in results.iter().enumerate() {
            assert_populated(&r.report, "dist");
            assert_eq!(
                deterministic_counters(r),
                expect,
                "dist rank {rank} of {size} diverged"
            );
            let comm = r.report.comm.expect("distributed run must report comm");
            assert!(comm.allreduce_calls > 0, "no collectives recorded");
        }
    }
}

#[test]
fn partitioned_counters_invariant_across_world_sizes() {
    let g = graph();
    let p = params();

    // The graph-sharded engine samples cooperatively (coin flips keyed by
    // (sample, vertex)), so its edge counts differ from the replicated
    // engines' BFS — but they must still be invariant across world sizes.
    let single = imm_sharded(&SelfComm::new(), &g, &p);
    assert_populated(&single.report, "sharded");
    let expect = deterministic_counters(&single);
    let expect_edges = single.report.counters.edges_examined;
    assert!(expect_edges > 0);

    for size in [2u32, 3] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_sharded(comm, &g, &p));
        for (rank, r) in results.iter().enumerate() {
            assert_populated(&r.report, "sharded");
            assert_eq!(
                deterministic_counters(r),
                expect,
                "sharded rank {rank} of {size} diverged"
            );
            assert_eq!(
                r.report.counters.edges_examined, expect_edges,
                "sharded rank {rank} of {size}: edge work diverged"
            );
            assert!(r.report.comm.is_some());
        }
    }
}

#[test]
fn distributed_edge_work_matches_sequential_in_indexed_mode() {
    // In IndexedStreams mode every global sample is generated exactly once
    // somewhere with an identical RNG stream, so even the *work* counter is
    // rank-count invariant and equals the sequential run's.
    let g = graph();
    let p = params();
    let seq = immopt_sequential(&g, &p);
    for size in [1u32, 3] {
        let world = ThreadWorld::new(size);
        let results = world.run(|comm| imm_distributed(comm, &g, &p));
        for r in results {
            assert_eq!(
                r.report.counters.edges_examined, seq.report.counters.edges_examined,
                "world {size}"
            );
        }
    }
}

#[test]
fn report_exports_render() {
    let g = graph();
    let p = params();
    let r = immopt_sequential(&g, &p);
    let json = r.report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"samples_generated\""));
    assert!(json.contains("\"engine\":\"immopt\""));
    let pretty = r.report.render_pretty();
    assert!(pretty.contains("EstimateTheta"));
    assert!(pretty.contains("samples"));
}

/// The span names every driver-backed engine emits: `perfbench` sums the
/// sampling and selection walls by these names (`sample`/`Sample`,
/// `select`/`SelectSeeds`), so a renamed or re-nested span would silently
/// zero its per-layer figures.
fn assert_driver_spans(report: &RunReport, label: &str) {
    let spans = report.spans();
    let top: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    let estimate = spans
        .iter()
        .find(|s| s.name == "EstimateTheta")
        .unwrap_or_else(|| panic!("{label}: no EstimateTheta span in {top:?}"));
    let round = estimate
        .children
        .first()
        .unwrap_or_else(|| panic!("{label}: EstimateTheta has no rounds"));
    assert_eq!(round.name, "round-1", "{label}");
    let inner: Vec<&str> = round.children.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(inner, ["sample", "select"], "{label}: round-1 children");
    assert_eq!(
        estimate.children.len() as u64,
        report.counters.theta_rounds,
        "{label}: one span per round"
    );
    let last_budget = *report.counters.round_budgets.last().expect("rounds ran");
    let topped_up = report.counters.theta_final > last_budget;
    let mut expect = vec!["EstimateTheta"];
    if topped_up {
        expect.push("Sample");
    }
    expect.push("SelectSeeds");
    assert_eq!(top, expect, "{label}: top-level spans");
}

#[test]
fn driver_engines_emit_the_span_tree_perfbench_reads() {
    let g = graph();
    let p = params();
    assert_driver_spans(&immopt_sequential(&g, &p).report, "immopt");
    assert_driver_spans(&imm_multithreaded(&g, &p, 2).report, "mt");
    let world = ThreadWorld::new(2);
    for r in world.run(|comm| imm_distributed(comm, &g, &p)) {
        assert_driver_spans(&r.report, "dist");
    }
    for r in world.run(|comm| imm_sharded(comm, &g, &p)) {
        assert_driver_spans(&r.report, "sharded");
    }
    let built = build_resident_sketch(&g, &p.with_k_max(8));
    assert_driver_spans(&built.result.report, "sketch");
}
