//! The distributed-memory IMM implementation — "IMMdist" in Table 3, the
//! subject of Figures 7 and 8 — written against the
//! [`ripples_comm::Communicator`] abstraction (§3.2 of the paper).
//!
//! Design, following the paper exactly:
//!
//! * Every rank holds the **entire input graph** and generates a distinct
//!   batch of `θ/p` samples ("evenly partitioning the samples to be
//!   generated among the p ranks").
//! * Seed selection keeps an `n`-counter array per rank: local counts are
//!   aggregated with **All-Reduce**; each greedy iteration then identifies
//!   the next seed locally (every rank has the global counts), purges its
//!   local samples, and All-Reduces the decrements — `O(k · n · lg p)`
//!   communication.
//! * Sample indices are global, so the union of all ranks' samples is
//!   *identical* to a sequential run's collection, and therefore so is the
//!   seed set — the cross-implementation equivalence the test suite checks.
//!
//! The IMM round loop itself (θ estimation, top-up, selection, counter
//! block) is the driver every sampling-based engine shares
//! ([`crate::driver`]). This module adds the collective layer around it,
//! `run_distributed`, which the graph-sharded engine
//! ([`crate::dist_sharded`]) reuses; the two differ only in how a rank
//! grows its local sample store.

use crate::driver::{degenerate_result, run_imm};
use crate::memory::MemoryStats;
use crate::obs::{CommCounters, Histogram, RunReport};
use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::select::{fused_is_profitable_store, SelectStats};
use ripples_comm::{Communicator, RetryComm};
use ripples_diffusion::rrr::{generate_rrr, RrrScratch};
use ripples_diffusion::{
    DiffusionModel, DynRrrStore, IncrementalSampleIndex, RrrCollection, RrrStore, SampleIndex,
};
use ripples_graph::{Graph, Vertex};
use ripples_rng::{RankStream, StreamFactory};
use std::ops::Range;

/// Global sample indices owned by `rank` within `[0, total)`: the strided
/// (round-robin) partition `{ i : i ≡ rank (mod size) }`.
///
/// Strided ownership is *append-only under growth*: when θ grows from `t` to
/// `t′`, a rank's new indices are exactly its stride within `[t, t′)`, so
/// the estimation loop's repeated top-ups never invalidate earlier local
/// samples — the same reason the paper leap-frogs its RNG streams.
fn strided_indices(total: usize, rank: u32, size: u32) -> impl Iterator<Item = u64> {
    let size = u64::from(size);
    let rank = u64::from(rank);
    (0..total as u64).filter(move |i| i % size == rank)
}

/// How per-round counter updates travel between ranks during distributed
/// seed selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DistSelectMode {
    /// The paper's §3.2 design: one dense All-Reduce of all `n` counters
    /// per greedy iteration — `O(k·n·lg p)` communication regardless of how
    /// few counters actually changed.
    #[default]
    DenseAllReduce,
    /// Sparse aggregation (an "optimizing communication" extension, §6):
    /// each rank gathers only its nonzero `(vertex, decrement)` pairs via
    /// `MPI_Allgatherv`. Volume is proportional to the vertices actually
    /// touched by the purged samples, which collapses for the late greedy
    /// rounds where few samples remain uncovered.
    SparseAllGather,
}

/// Distributed greedy seed selection over each rank's local samples.
///
/// Returns `(seeds, fraction, stats)`; everything but the per-rank `stats`
/// is identical on every rank.
pub(crate) fn select_seeds_distributed<C: Communicator, S: RrrStore>(
    comm: &C,
    local: &S,
    theta_global: usize,
    n: u32,
    k: u32,
    select_mode: DistSelectMode,
) -> (Vec<Vertex>, f64, SelectStats) {
    if let Some(flat) = local.as_flat() {
        select_seeds_distributed_flat(comm, flat, theta_global, n, k, select_mode)
    } else {
        select_seeds_distributed_store(comm, local, theta_global, n, k, select_mode)
    }
}

/// The flat-storage distributed selection: binary-searched slices, serial
/// [`SampleIndex`] when profitable. Bitwise the pre-storage-backend code
/// path.
fn select_seeds_distributed_flat<C: Communicator>(
    comm: &C,
    local: &RrrCollection,
    theta_global: usize,
    n: u32,
    k: u32,
    select_mode: DistSelectMode,
) -> (Vec<Vertex>, f64, SelectStats) {
    let n_us = n as usize;
    let k = k.min(n);

    // Per-call serial inverted index over this rank's local samples: the
    // purge step for a chosen seed walks exactly the samples containing it
    // instead of binary-searching every alive local sample per iteration.
    // Only built when the cost model says its O(E) construction amortizes
    // over the k purge passes; the decrement sums are identical either way,
    // so ranks may even disagree on the choice without diverging.
    let index = if fused_is_profitable_store(local, k) {
        let t0 = std::time::Instant::now();
        let index = SampleIndex::build(local, n, 1);
        if crate::obs::trace::enabled() {
            crate::obs::trace::complete(
                crate::obs::trace::TraceName::IndexBuild,
                t0,
                index.total_entries() as u64,
                1,
            );
        }
        Some((index, t0.elapsed()))
    } else {
        None
    };
    let mut stats = match &index {
        Some((index, build)) => SelectStats {
            index_build_nanos: u64::try_from(build.as_nanos()).unwrap_or(u64::MAX),
            index_bytes: index.resident_bytes(),
            ..SelectStats::default()
        },
        None => SelectStats::default(),
    };

    // Local counting pass (the index's vertex degrees, or one direct sweep
    // over the local samples), then one All-Reduce for the global counts.
    let mut counters: Vec<u64> = match &index {
        Some((index, _)) => (0..n).map(|v| index.degree(v)).collect(),
        None => {
            let mut counts = vec![0u64; n_us];
            for set in local.iter() {
                for &u in set {
                    counts[u as usize] += 1;
                }
            }
            counts
        }
    };
    comm.all_reduce_sum_u64(&mut counters);

    let mut covered = vec![false; local.len()];
    let mut selected = vec![false; n_us];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut covered_local = 0usize;
    let mut decrements = vec![0u64; n_us];
    for _ in 0..k {
        // Global argmax is a local operation: all ranks hold the counts and
        // the tie-break (lowest id) is deterministic.
        let mut best: Option<(u64, Vertex)> = None;
        for (v, (&c, &s)) in counters.iter().zip(&selected).enumerate() {
            if s {
                continue;
            }
            match best {
                Some((bc, _)) if bc >= c => {}
                _ => best = Some((c, v as Vertex)),
            }
        }
        let Some((gain, v)) = best else { break };
        selected[v as usize] = true;
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(crate::obs::trace::TraceName::SelectStep, u64::from(v), gain);
        }
        seeds.push(v);

        // Purge local samples containing v; accumulate counter decrements.
        decrements.fill(0);
        match &index {
            Some((index, _)) => {
                for &sid in index.samples_containing(v) {
                    let j = sid as usize;
                    if covered[j] {
                        continue;
                    }
                    covered[j] = true;
                    covered_local += 1;
                    let set = local.get(j);
                    stats.entries_touched += set.len() as u64;
                    for &u in set {
                        decrements[u as usize] += 1;
                    }
                }
            }
            None => {
                for (j, cov) in covered.iter_mut().enumerate() {
                    if *cov {
                        continue;
                    }
                    let set = local.get(j);
                    if set.binary_search(&v).is_ok() {
                        *cov = true;
                        covered_local += 1;
                        for &u in set {
                            decrements[u as usize] += 1;
                        }
                    }
                }
            }
        }
        match select_mode {
            DistSelectMode::DenseAllReduce => {
                // The O(k·n·lg p) step: one All-Reduce per greedy iteration.
                comm.all_reduce_sum_u64(&mut decrements);
                for (c, &d) in counters.iter_mut().zip(&decrements) {
                    *c -= d;
                }
            }
            DistSelectMode::SparseAllGather => {
                // Encode only nonzero decrements as (vertex << 32 | count).
                let sparse: Vec<u64> = decrements
                    .iter()
                    .enumerate()
                    .filter(|(_, &d)| d > 0)
                    .map(|(u, &d)| {
                        debug_assert!(d < (1 << 32), "decrement overflow");
                        ((u as u64) << 32) | d
                    })
                    .collect();
                for rank_list in comm.all_gather_u64_list(&sparse) {
                    for enc in rank_list {
                        let u = (enc >> 32) as usize;
                        let d = enc & 0xFFFF_FFFF;
                        counters[u] -= d;
                    }
                }
            }
        }
    }
    let covered_global = comm.all_reduce_sum_u64_scalar(covered_local as u64) as usize;
    // Degraded runs: dead ranks' samples are gone from every collective, so
    // coverage must be judged against the samples the surviving ranks
    // actually hold, not the nominal θ. The dead-rank set is identical on
    // every rank (lockstep fault decisions), so this extra collective is
    // taken — or skipped — uniformly; the fault-free path is unchanged.
    let theta_eff = if comm.dead_ranks().is_empty() {
        theta_global
    } else {
        comm.all_reduce_sum_u64_scalar(local.len() as u64) as usize
    };
    let fraction = if theta_eff == 0 {
        0.0
    } else {
        covered_global as f64 / theta_eff as f64
    };
    (seeds, fraction, stats)
}

/// Distributed selection over a compressed local [`RrrStore`]: the same
/// greedy protocol (local counting → All-Reduce → local argmax → purge →
/// decrement aggregation) with decode-on-touch access — a per-rank
/// inverted index ([`RrrStore::with_sample_index`], cached across θ rounds
/// by `DynRrrStore`) when the cost model says it amortizes, direct
/// `contains`/`for_each_vertex` sweeps otherwise. Decrement sums are
/// identical to the flat path's, so the aggregated counters — and the
/// seeds — match the flat run bit for bit.
fn select_seeds_distributed_store<C: Communicator, S: RrrStore>(
    comm: &C,
    local: &S,
    theta_global: usize,
    n: u32,
    k: u32,
    select_mode: DistSelectMode,
) -> (Vec<Vertex>, f64, SelectStats) {
    let k = k.min(n);
    let mut stats = SelectStats::default();
    let (seeds, fraction) = if fused_is_profitable_store(local, k) {
        let t0 = std::time::Instant::now();
        local.with_sample_index(n, |index| {
            stats.index_build_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stats.index_bytes = index.resident_bytes();
            if crate::obs::trace::enabled() {
                crate::obs::trace::complete(
                    crate::obs::trace::TraceName::IndexBuild,
                    t0,
                    local.total_entries(),
                    1,
                );
            }
            distributed_store_rounds(
                comm,
                local,
                theta_global,
                n,
                k,
                select_mode,
                Some(index),
                &mut stats,
            )
        })
    } else {
        distributed_store_rounds(
            comm,
            local,
            theta_global,
            n,
            k,
            select_mode,
            None,
            &mut stats,
        )
    };
    (seeds, fraction, stats)
}

/// The collective greedy rounds of [`select_seeds_distributed_store`],
/// shared by the indexed and direct access strategies. Must be called
/// collectively with the same `index`-present/absent decision on every
/// rank (the cost model inputs are collective-identical, so it is).
#[allow(clippy::too_many_arguments)]
fn distributed_store_rounds<C: Communicator, S: RrrStore>(
    comm: &C,
    local: &S,
    theta_global: usize,
    n: u32,
    k: u32,
    select_mode: DistSelectMode,
    index: Option<&IncrementalSampleIndex>,
    stats: &mut SelectStats,
) -> (Vec<Vertex>, f64) {
    let n_us = n as usize;

    let mut counters: Vec<u64> = match &index {
        Some(index) => (0..n).map(|v| u64::from(index.degree(v))).collect(),
        None => {
            let t0 = std::time::Instant::now();
            let mut counts = vec![0u64; n_us];
            for j in 0..local.len() {
                local.for_each_vertex(j, |u| counts[u as usize] += 1);
            }
            stats.decode_nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            counts
        }
    };
    comm.all_reduce_sum_u64(&mut counters);

    let mut covered = vec![false; local.len()];
    let mut selected = vec![false; n_us];
    let mut seeds = Vec::with_capacity(k as usize);
    let mut covered_local = 0usize;
    let mut decrements = vec![0u64; n_us];
    for _ in 0..k {
        let mut best: Option<(u64, Vertex)> = None;
        for (v, (&c, &s)) in counters.iter().zip(&selected).enumerate() {
            if s {
                continue;
            }
            match best {
                Some((bc, _)) if bc >= c => {}
                _ => best = Some((c, v as Vertex)),
            }
        }
        let Some((gain, v)) = best else { break };
        selected[v as usize] = true;
        if crate::obs::trace::enabled() {
            crate::obs::trace::mark(crate::obs::trace::TraceName::SelectStep, u64::from(v), gain);
        }
        seeds.push(v);

        decrements.fill(0);
        let t0 = std::time::Instant::now();
        match &index {
            Some(index) => {
                index.for_each_sample(v, |j| {
                    if covered[j] {
                        return;
                    }
                    covered[j] = true;
                    covered_local += 1;
                    stats.entries_touched += local.sample_len(j) as u64;
                    local.for_each_vertex(j, |u| decrements[u as usize] += 1);
                });
            }
            None => {
                for (j, cov) in covered.iter_mut().enumerate() {
                    if *cov {
                        continue;
                    }
                    if local.contains(j, v) {
                        *cov = true;
                        covered_local += 1;
                        local.for_each_vertex(j, |u| decrements[u as usize] += 1);
                    }
                }
            }
        }
        stats.decode_nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match select_mode {
            DistSelectMode::DenseAllReduce => {
                comm.all_reduce_sum_u64(&mut decrements);
                for (c, &d) in counters.iter_mut().zip(&decrements) {
                    *c -= d;
                }
            }
            DistSelectMode::SparseAllGather => {
                let sparse: Vec<u64> = decrements
                    .iter()
                    .enumerate()
                    .filter(|(_, &d)| d > 0)
                    .map(|(u, &d)| {
                        debug_assert!(d < (1 << 32), "decrement overflow");
                        ((u as u64) << 32) | d
                    })
                    .collect();
                for rank_list in comm.all_gather_u64_list(&sparse) {
                    for enc in rank_list {
                        let u = (enc >> 32) as usize;
                        let d = enc & 0xFFFF_FFFF;
                        counters[u] -= d;
                    }
                }
            }
        }
    }
    let covered_global = comm.all_reduce_sum_u64_scalar(covered_local as u64) as usize;
    let theta_eff = if comm.dead_ranks().is_empty() {
        theta_global
    } else {
        comm.all_reduce_sum_u64_scalar(local.len() as u64) as usize
    };
    let fraction = if theta_eff == 0 {
        0.0
    } else {
        covered_global as f64 / theta_eff as f64
    };
    (seeds, fraction)
}

/// Merges one rank's local histogram into the identical global histogram on
/// every rank: the summable state travels in one All-Reduce, the maximum in
/// one max-reduce. Must be called collectively.
pub(crate) fn globalize_histogram<C: Communicator>(comm: &C, hist: &mut Histogram) {
    let mut flat = hist.to_flat();
    comm.all_reduce_sum_u64(&mut flat);
    let max = comm.all_reduce_max_f64(hist.max() as f64) as u64;
    hist.set_from_flat(&flat, max);
}

/// Replaces this rank's local deterministic counters (samples, edges, RRR
/// entries, unsorted pushes, selection entries touched) with their global
/// sums, and merges the RRR-size histogram, so every rank — at every world
/// size — reports the same values. Must be called collectively.
pub(crate) fn globalize_counters<C: Communicator>(comm: &C, report: &mut RunReport) {
    let mut buf = [
        report.counters.samples_generated,
        report.counters.edges_examined,
        report.counters.rrr_entries,
        report.counters.unsorted_pushes,
        report.counters.select_entries_touched,
    ];
    comm.all_reduce_sum_u64(&mut buf);
    report.counters.samples_generated = buf[0];
    report.counters.edges_examined = buf[1];
    report.counters.rrr_entries = buf[2];
    report.counters.unsorted_pushes = buf[3];
    report.counters.select_entries_touched = buf[4];
    globalize_histogram(comm, &mut report.rrr_sizes);
}

/// Publishes the comm stack's fault/retry health into the report's global
/// counters. Lockstep retries mean every live rank holds identical health
/// values, so a max-reduce both agrees across ranks and neutralizes zombie
/// (dead-rank) contributions, which arrive as `NEG_INFINITY`. Must be called
/// collectively — including on reliable fabrics, where it reduces zeros —
/// so every engine issues the same collective sequence at every fault rate.
pub(crate) fn globalize_health<C: Communicator>(comm: &C, report: &mut RunReport) {
    let health = comm.health();
    report.counters.retries = comm.all_reduce_max_f64(health.retries as f64).max(0.0) as u64;
    report.counters.dropped_ops =
        comm.all_reduce_max_f64(health.dropped_ops as f64).max(0.0) as u64;
    report.counters.degraded_ranks = comm
        .all_reduce_max_f64(health.dead_ranks.len() as f64)
        .max(0.0) as u64;
}

/// Scalar convenience over the slice All-Reduce.
trait ScalarReduce {
    fn all_reduce_sum_u64_scalar(&self, x: u64) -> u64;
}

impl<C: Communicator> ScalarReduce for C {
    fn all_reduce_sum_u64_scalar(&self, x: u64) -> u64 {
        let mut buf = [x];
        self.all_reduce_sum_u64(&mut buf);
        buf[0]
    }
}

/// How the distributed ranks draw their randomness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DistRngMode {
    /// One SplitMix64 stream per *global sample index* (the default): the
    /// sample collection — and therefore the seed set — is bitwise
    /// identical to the sequential run at every world size.
    #[default]
    IndexedStreams,
    /// The paper's TRNG strategy: one leap-frogged LCG stream per rank.
    /// Every rank's draws are a disjoint stride of one global LCG sequence,
    /// so randomness never overlaps across ranks — but sample *content*
    /// depends on the world size, exactly as in the original system.
    LeapFrog,
}

/// Runs distributed IMM on this rank. Must be called collectively by every
/// rank of `comm` with identical `graph` and `params`.
///
/// Uses [`DistRngMode::IndexedStreams`] and [`DistSelectMode::DenseAllReduce`];
/// see [`imm_distributed_full`] for the paper-faithful leap-frog RNG and
/// the sparse counter aggregation. Each rank holds its local sample stride
/// in the [`ImmParams::storage`] backend; the selection protocol's
/// decrement sums are storage-independent, so seeds match the flat run at
/// every world size.
///
/// Returns the (identical) result on every rank; `sample_work` contains only
/// this rank's local sampling work.
#[must_use]
pub fn imm_distributed<C: Communicator>(comm: &C, graph: &Graph, params: &ImmParams) -> ImmResult {
    imm_distributed_full(
        comm,
        graph,
        params,
        DistRngMode::IndexedStreams,
        DistSelectMode::DenseAllReduce,
    )
}

/// [`imm_distributed`] with an explicit RNG strategy × counter-aggregation
/// strategy (the ablations of the paper's §3.2 design).
#[must_use]
pub fn imm_distributed_full<C: Communicator>(
    comm: &C,
    graph: &Graph,
    params: &ImmParams,
    rng_mode: DistRngMode,
    select_mode: DistSelectMode,
) -> ImmResult {
    let n = graph.num_vertices();
    let model = params.model;
    let factory = StreamFactory::new(params.seed);
    let (rank, size) = (comm.rank(), comm.size());
    let mut scratch = RrrScratch::new(n);
    // Persistent per-rank leap-frog stream (used only in LeapFrog mode).
    let mut rank_stream = RankStream::new(params.seed, rank, size);
    run_distributed(
        comm,
        graph,
        params,
        "dist",
        graph.resident_bytes(),
        select_mode,
        // Append this rank's stride of the newly added global range.
        |_, range, local, report, sample_work| {
            let mut batch_samples = 0u64;
            for index in
                strided_indices(range.end, rank, size).skip_while(|&i| i < range.start as u64)
            {
                let s = match rng_mode {
                    DistRngMode::IndexedStreams => {
                        let mut rng = factory.sample_stream(index);
                        let root = rng.bounded_u64(u64::from(n)) as Vertex;
                        generate_rrr(graph, model, root, &mut rng, &mut scratch)
                    }
                    DistRngMode::LeapFrog => {
                        let root = rank_stream.bounded_u64(u64::from(n)) as Vertex;
                        generate_rrr(graph, model, root, &mut rank_stream, &mut scratch)
                    }
                };
                report.counters.edges_examined += s.edges_examined;
                report.rrr_sizes.record(s.vertices.len() as u64);
                local.push(&s.vertices);
                sample_work.push(s.edges_examined);
                batch_samples += 1;
            }
            report.counters.samples_generated += batch_samples;
            // One "worker" per rank: the batch lands wholly on this rank.
            report.thread_samples.record(batch_samples);
        },
        |_, _| {},
    )
}

/// The collective layer the distributed engines ([`imm_distributed`] and
/// [`crate::dist_sharded::imm_sharded`]) wrap around the shared driver
/// ([`crate::driver::run_imm`]), which selects with
/// [`select_seeds_distributed`] over a `params.storage` store.
///
/// It owns the retry shield, the LT normalization check, the rank's trace
/// tag and graph gauge, and — after the driver returns — the collective
/// finalization of counters, health, comm delta and trace.
///
/// * `graph_bytes` is this rank's resident graph footprint.
/// * `grow(comm, range, local, report, sample_work)` appends this rank's
///   share of the global sample indices `range` to `local`. It records
///   *local* counters in `report`, which are globalized once at the end,
///   and its sampling work in `sample_work`.
/// * `publish(comm, report)` adds the engine's own collective counters. It
///   runs on every rank after health globalization and before the comm
///   delta is taken.
///
/// Must be called collectively by every rank of `comm`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_distributed<'c, C: Communicator>(
    comm: &'c C,
    graph: &Graph,
    params: &ImmParams,
    engine: &str,
    graph_bytes: usize,
    select_mode: DistSelectMode,
    mut grow: impl FnMut(
        &RetryComm<&'c C>,
        Range<usize>,
        &mut DynRrrStore,
        &mut RunReport,
        &mut Vec<u64>,
    ),
    publish: impl FnOnce(&RetryComm<&'c C>, &mut RunReport),
) -> ImmResult {
    // All collectives below run through the retry/rank-death layer: on a
    // reliable backend every attempt succeeds first try and the wrapper is
    // free; on a fault-injecting stack transient faults are retried in
    // lockstep and persistent ones degrade the run instead of crashing it.
    let comm = &RetryComm::with_defaults(comm);
    let n = graph.num_vertices();
    if n < 2 {
        // Nothing to sample or aggregate; keep ranks aligned.
        comm.barrier();
        return degenerate_result(engine, graph, params);
    }
    // The engines sample below the batch samplers' entry validation —
    // re-assert the LT normalization contract on the full graph (every rank
    // holds it) so un-normalized input fails fast in every profile.
    if params.model == DiffusionModel::LinearThreshold {
        ripples_diffusion::ensure_lt_normalized(graph);
    }
    // Tag this rank thread's event ring so the merged trace shows one
    // process track per rank.
    crate::obs::trace::set_thread_rank(comm.rank());
    if crate::obs::metrics::enabled() {
        crate::obs::metrics::set(crate::obs::metrics::Metric::GraphBytes, graph_bytes as u64);
    }

    let comm_before = comm.stats();
    let memory = MemoryStats {
        counter_bytes: 2 * n as usize * std::mem::size_of::<u64>(),
        graph_bytes,
        ..MemoryStats::default()
    };
    let (mut result, _) = run_imm(
        engine,
        graph,
        params,
        memory,
        DynRrrStore::new(params.storage, n),
        |range, local, report, sample_work| grow(comm, range, local, report, sample_work),
        |local, theta, k| select_seeds_distributed(comm, local, theta, n, k, select_mode),
    );

    let report = &mut result.report;
    globalize_counters(comm, report);
    globalize_health(comm, report);
    publish(comm, report);
    report.comm = Some(CommCounters::delta(&comm_before, &comm.stats()));
    if crate::obs::trace::enabled() {
        // Collective: every rank contributes its timeline and every rank
        // receives the same rank-tagged merge.
        report.trace = Some(crate::obs::trace::gather_trace(comm));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::immopt_sequential;
    use ripples_comm::{SelfComm, ThreadWorld};
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn test_graph() -> Graph {
        erdos_renyi(
            250,
            2000,
            WeightModel::UniformRandom { seed: 14 },
            false,
            77,
        )
    }

    #[test]
    fn strided_indices_partition_the_range() {
        for total in [0usize, 1, 7, 100, 101] {
            for size in [1u32, 2, 3, 8] {
                let mut covered = Vec::new();
                for rank in 0..size {
                    covered.extend(strided_indices(total, rank, size));
                }
                covered.sort_unstable();
                let expect: Vec<u64> = (0..total as u64).collect();
                assert_eq!(covered, expect, "total {total} size {size}");
            }
        }
    }

    #[test]
    fn strided_growth_is_append_only() {
        // A rank's indices for a smaller total are a prefix of its indices
        // for any larger total.
        let small: Vec<u64> = strided_indices(50, 2, 4).collect();
        let large: Vec<u64> = strided_indices(90, 2, 4).collect();
        assert_eq!(&large[..small.len()], &small[..]);
    }

    #[test]
    fn single_rank_matches_sequential() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 9);
        let comm = SelfComm::new();
        let dist = imm_distributed(&comm, &g, &p);
        let seq = immopt_sequential(&g, &p);
        assert_eq!(dist.seeds, seq.seeds);
        assert_eq!(dist.theta, seq.theta);
        assert!((dist.coverage_fraction - seq.coverage_fraction).abs() < 1e-12);
    }

    #[test]
    fn multi_rank_matches_sequential_and_each_other() {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            // LT runs require the normalized in-weight contract the
            // engines now enforce.
            let lt = model == DiffusionModel::LinearThreshold;
            let g = erdos_renyi(250, 2000, WeightModel::UniformRandom { seed: 14 }, lt, 77);
            let p = ImmParams::new(5, 0.5, model, 13);
            let seq = immopt_sequential(&g, &p);
            for world_size in [2u32, 3, 5] {
                let world = ThreadWorld::new(world_size);
                let results = world.run(|comm| imm_distributed(comm, &g, &p));
                for (r, res) in results.iter().enumerate() {
                    assert_eq!(
                        res.seeds, seq.seeds,
                        "{model}: rank {r} of {world_size} diverged from sequential"
                    );
                    assert_eq!(res.theta, seq.theta);
                }
            }
        }
    }

    #[test]
    fn communication_is_accounted() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 3);
        let world = ThreadWorld::new(2);
        let stats = world.run(|comm| {
            let _ = imm_distributed(comm, &g, &p);
            comm.stats()
        });
        for s in stats {
            assert!(s.allreduce_calls > 0, "no all-reduce recorded");
            assert!(s.bytes_moved > 0);
        }
    }
}

#[cfg(test)]
mod sparse_select_tests {
    use super::*;
    use ripples_comm::ThreadWorld;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    #[test]
    fn sparse_mode_returns_identical_seeds() {
        let g = erdos_renyi(300, 2400, WeightModel::UniformRandom { seed: 5 }, false, 44);
        let p = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 12);
        for size in [1u32, 2, 4] {
            let world = ThreadWorld::new(size);
            let dense = world.run(|comm| {
                imm_distributed_full(
                    comm,
                    &g,
                    &p,
                    DistRngMode::IndexedStreams,
                    DistSelectMode::DenseAllReduce,
                )
            });
            let sparse = world.run(|comm| {
                imm_distributed_full(
                    comm,
                    &g,
                    &p,
                    DistRngMode::IndexedStreams,
                    DistSelectMode::SparseAllGather,
                )
            });
            for (d, s) in dense.iter().zip(&sparse) {
                assert_eq!(d.seeds, s.seeds, "world {size}");
                assert_eq!(d.theta, s.theta);
                assert!((d.coverage_fraction - s.coverage_fraction).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_mode_moves_fewer_bytes() {
        let g = erdos_renyi(
            2000,
            8000,
            WeightModel::UniformRandom { seed: 9 },
            false,
            77,
        );
        let p = ImmParams::new(10, 0.5, DiffusionModel::IndependentCascade, 3);
        let world = ThreadWorld::new(2);
        let dense_bytes = world
            .run(|comm| {
                let _ = imm_distributed_full(
                    comm,
                    &g,
                    &p,
                    DistRngMode::IndexedStreams,
                    DistSelectMode::DenseAllReduce,
                );
                comm.stats().bytes_moved
            })
            .into_iter()
            .max()
            .unwrap();
        let sparse_bytes = world
            .run(|comm| {
                let _ = imm_distributed_full(
                    comm,
                    &g,
                    &p,
                    DistRngMode::IndexedStreams,
                    DistSelectMode::SparseAllGather,
                );
                comm.stats().bytes_moved
            })
            .into_iter()
            .max()
            .unwrap();
        assert!(
            sparse_bytes * 2 < dense_bytes,
            "sparse {sparse_bytes} not ≪ dense {dense_bytes}"
        );
    }
}

#[cfg(test)]
mod leapfrog_mode_tests {
    use super::*;
    use ripples_diffusion::estimate_spread;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;
    use ripples_rng::StreamFactory;

    fn leapfrog<C: Communicator>(comm: &C, g: &Graph, p: &ImmParams) -> ImmResult {
        imm_distributed_full(
            comm,
            g,
            p,
            DistRngMode::LeapFrog,
            DistSelectMode::DenseAllReduce,
        )
    }

    #[test]
    fn leapfrog_mode_quality_parity() {
        // Leap-frog sample content depends on world size (as in the paper's
        // system), so seed sets may differ across configurations — but the
        // statistical quality must match the indexed-stream mode.
        let g = erdos_renyi(
            300,
            2400,
            WeightModel::UniformRandom { seed: 21 },
            false,
            55,
        );
        let model = DiffusionModel::IndependentCascade;
        let p = ImmParams::new(5, 0.5, model, 31);
        let world = ripples_comm::ThreadWorld::new(3);
        let lf = world.run(|comm| leapfrog(comm, &g, &p)).pop().unwrap();
        let idx = world
            .run(|comm| imm_distributed(comm, &g, &p))
            .pop()
            .unwrap();
        assert_eq!(lf.seeds.len(), idx.seeds.len());
        let factory = StreamFactory::new(404);
        let s_lf = estimate_spread(&g, model, &lf.seeds, 800, &factory);
        let s_idx = estimate_spread(&g, model, &idx.seeds, 800, &factory);
        let ratio = s_lf / s_idx.max(1.0);
        assert!(
            (0.9..=1.1).contains(&ratio),
            "leap-frog quality diverged: {s_lf} vs {s_idx}"
        );
    }

    #[test]
    fn leapfrog_ranks_agree_with_each_other() {
        // Within one world size, all ranks still return the same answer.
        let g = erdos_renyi(200, 1500, WeightModel::UniformRandom { seed: 3 }, false, 66);
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 9);
        let world = ripples_comm::ThreadWorld::new(4);
        let results = world.run(|comm| leapfrog(comm, &g, &p));
        for r in &results[1..] {
            assert_eq!(r.seeds, results[0].seeds);
            assert_eq!(r.theta, results[0].theta);
        }
    }
}
