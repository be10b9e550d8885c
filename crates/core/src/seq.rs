//! Sequential IMM implementations: the Tang-style hypergraph baseline
//! ("IMM" in Table 2) and the paper's optimized serial version ("IMMOPT").
//!
//! Both follow Algorithm 1 exactly:
//!
//! ```text
//! ⟨R, θ⟩ ← EstimateTheta(G, k, ε)      // Algorithm 2, martingale rounds
//! R ← Sample(G, θ − |R|, R)            // top up to θ samples
//! S ← SelectSeeds(G, k, R)             // Algorithm 4 (greedy max cover)
//! ```
//!
//! They differ only in how `R` is stored and how `SelectSeeds` walks it —
//! which is exactly the delta Table 2 measures. IMMOPT runs the driver
//! every sampling-based engine shares ([`crate::driver`]); the baseline
//! keeps Tang's own two-direction layout and loop.

use crate::driver::degenerate_result;
use crate::memory::MemoryStats;
use crate::obs::RunReport;
use crate::params::ImmParams;
use crate::result::ImmResult;
use crate::select::Selection;
use crate::theta::ThetaSchedule;
use ripples_diffusion::rrr::{generate_rrr, RrrScratch};
use ripples_graph::{Graph, Vertex};
use ripples_rng::StreamFactory;

/// The paper's optimized serial implementation (IMMOPT): compact sorted
/// one-direction storage, the strictly sequential sampler, and single-
/// interval selection. The selection engine, sampling kernel and RRR store
/// come from `params` ([`ImmParams::select`], [`ImmParams::sample`],
/// [`ImmParams::storage`]); every eager selection engine and every store
/// return the same seed set.
#[must_use]
pub fn immopt_sequential(graph: &Graph, params: &ImmParams) -> ImmResult {
    crate::driver::run_shared("immopt", graph, params, false).0
}

// ---------------------------------------------------------------------------
// The Tang-style baseline ("IMM" rows of Tables 2 and 3)
// ---------------------------------------------------------------------------

/// Two-direction growable storage mirroring Tang et al.'s hypergraph
/// implementation: per-sample vertex vectors *and* a per-vertex vector of
/// sample ids, maintained incrementally during sampling.
///
/// This is deliberately the less cache- and memory-friendly layout the paper
/// replaces: every association is stored twice, and both directions live in
/// per-entity `Vec`s with their own capacity slack.
struct TangStorage {
    sets: Vec<Vec<Vertex>>,
    vertex_to_sets: Vec<Vec<u32>>,
}

impl TangStorage {
    fn new(n: u32) -> Self {
        Self {
            sets: Vec::new(),
            vertex_to_sets: vec![Vec::new(); n as usize],
        }
    }

    fn len(&self) -> usize {
        self.sets.len()
    }

    fn push(&mut self, vertices: Vec<Vertex>) {
        let sid = self.sets.len() as u32;
        for &v in &vertices {
            self.vertex_to_sets[v as usize].push(sid);
        }
        self.sets.push(vertices);
    }

    /// Actual resident bytes including per-`Vec` capacity slack and the
    /// 24-byte `Vec` headers — the realistic footprint of this layout.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let vec_header = size_of::<Vec<u32>>();
        let sets: usize = self
            .sets
            .iter()
            .map(|s| vec_header + s.capacity() * size_of::<Vertex>())
            .sum();
        let index: usize = self
            .vertex_to_sets
            .iter()
            .map(|s| vec_header + s.capacity() * size_of::<u32>())
            .sum();
        sets + index + self.sets.capacity() * vec_header
    }

    /// Greedy max-cover driven by the inverted index (Tang's selection).
    fn select(&self, n: u32, k: u32) -> Selection {
        let k = k.min(n);
        let mut counters: Vec<u64> = (0..n as usize)
            .map(|v| self.vertex_to_sets[v].len() as u64)
            .collect();
        let mut covered = vec![false; self.sets.len()];
        let mut selected = vec![false; n as usize];
        let mut seeds = Vec::with_capacity(k as usize);
        let mut gains = Vec::with_capacity(k as usize);
        let mut covered_count = 0usize;
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
            seeds.push(v);
            gains.push(gain);
            for &sid in &self.vertex_to_sets[v as usize] {
                let j = sid as usize;
                if covered[j] {
                    continue;
                }
                covered[j] = true;
                covered_count += 1;
                for &u in &self.sets[j] {
                    counters[u as usize] -= 1;
                }
            }
        }
        Selection {
            seeds,
            covered: covered_count,
            fraction: if self.sets.is_empty() {
                0.0
            } else {
                covered_count as f64 / self.sets.len() as f64
            },
            marginal_gains: gains,
        }
    }
}

/// The sequential baseline mirroring Tang et al.'s implementation ("IMM"):
/// identical algorithm and RRR kernel, but samples stored in both directions
/// with per-entity vectors.
///
/// Produces the *same seed set* as [`immopt_sequential`] for the same
/// parameters (the greedy engines are deterministic and see the same
/// samples); differs in runtime and memory, which is what Table 2 measures.
#[must_use]
pub fn imm_baseline(graph: &Graph, params: &ImmParams) -> ImmResult {
    imm_baseline_with_options(graph, params, false)
}

/// [`imm_baseline`] with Tang's *fresh-resampling* behaviour switchable.
///
/// Tang et al.'s released code does **not** reuse the estimation-phase
/// samples: after θ is fixed, the hypergraph is discarded and θ fresh
/// samples are generated (also the statistically safest reading of the
/// martingale analysis — cf. Chen's 2018 note on IMM). The CLUSTER'19
/// paper's Algorithm 1 instead tops up (`Sample(G, θ − |R|, R)`), one of
/// IMMOPT's advertised savings. `resample_final = true` reproduces Tang's
/// behaviour for the Table 2/3 runtime comparison; the seed set then comes
/// from a different (equally valid) sample population than IMMOPT's.
#[must_use]
pub fn imm_baseline_with_options(
    graph: &Graph,
    params: &ImmParams,
    resample_final: bool,
) -> ImmResult {
    let n = graph.num_vertices();
    if n < 2 {
        return degenerate_result("baseline", graph, params);
    }
    let k = params.effective_k(n);
    let sizing_k = params.sizing_k(n);
    let schedule = ThetaSchedule::new(
        u64::from(n),
        u64::from(sizing_k),
        params.epsilon,
        params.ell,
    );
    let factory = StreamFactory::new(params.seed);
    let model = params.model;
    // This engine samples through `generate_rrr` directly, bypassing the
    // batch samplers' entry validation — re-assert the LT normalization
    // contract here so un-normalized input fails fast in every profile.
    if model == ripples_diffusion::DiffusionModel::LinearThreshold {
        ripples_diffusion::ensure_lt_normalized(graph);
    }

    let mut report = RunReport::new("baseline");
    let mut memory = MemoryStats {
        counter_bytes: n as usize * std::mem::size_of::<u64>(),
        graph_bytes: graph.resident_bytes(),
        ..MemoryStats::default()
    };
    let mut storage = TangStorage::new(n);
    let mut scratch = RrrScratch::new(n);
    let mut sample_work: Vec<u64> = Vec::new();
    let mut next_index: u64 = 0;

    let sample_into = |storage: &mut TangStorage,
                       scratch: &mut RrrScratch,
                       work: &mut Vec<u64>,
                       report: &mut RunReport,
                       first: u64,
                       count: usize| {
        for offset in 0..count as u64 {
            let index = first + offset;
            let mut rng = factory.sample_stream(index);
            let root = rng.bounded_u64(u64::from(n)) as Vertex;
            let s = generate_rrr(graph, model, root, &mut rng, scratch);
            work.push(s.edges_examined);
            report.counters.samples_generated += 1;
            report.counters.edges_examined += s.edges_examined;
            report.rrr_sizes.record(s.vertices.len() as u64);
            storage.push(s.vertices);
        }
        // Single-threaded engine: the whole batch lands on one worker.
        report.thread_samples.record(count as u64);
    };

    // EstimateTheta.
    let mut lb: Option<f64> = None;
    {
        let storage = &mut storage;
        let scratch = &mut scratch;
        let sample_work = &mut sample_work;
        let next_index = &mut next_index;
        let memory = &mut memory;
        let lb = &mut lb;
        report.span("EstimateTheta", |report| {
            for x in 1..=schedule.max_rounds() {
                let budget = schedule.round_budget(x);
                if crate::obs::metrics::enabled() {
                    crate::obs::metrics::set(
                        crate::obs::metrics::Metric::ThetaTarget,
                        budget as u64,
                    );
                }
                let stop = report.span(&format!("round-{x}"), |report| {
                    if budget > storage.len() {
                        let need = budget - storage.len();
                        report.span("sample", |report| {
                            sample_into(storage, scratch, sample_work, report, *next_index, need);
                        });
                        *next_index += need as u64;
                    }
                    memory.observe_rrr(storage.resident_bytes());
                    let sel = report.span("select", |_| storage.select(n, sizing_k));
                    report.counters.theta_rounds += 1;
                    report.counters.select_iterations += sel.seeds.len() as u64;
                    report.counters.round_budgets.push(budget as u64);
                    report.counters.round_coverage.push(sel.fraction);
                    if schedule.round_succeeds(x, sel.fraction) {
                        *lb = Some(schedule.lower_bound(sel.fraction));
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
    }
    let theta = match lb {
        Some(bound) => schedule.final_theta(bound),
        None => schedule.fallback_theta(u64::from(sizing_k)),
    };
    if crate::obs::metrics::enabled() {
        crate::obs::metrics::set(crate::obs::metrics::Metric::ThetaTarget, theta as u64);
    }

    // Top-up — or, in Tang-faithful mode, full regeneration.
    if resample_final {
        storage = TangStorage::new(n);
        sample_work.clear();
        let storage_ref = &mut storage;
        let scratch_ref = &mut scratch;
        let work_ref = &mut sample_work;
        let next = next_index;
        report.span("Sample", |report| {
            sample_into(storage_ref, scratch_ref, work_ref, report, next, theta);
        });
    } else if theta > storage.len() {
        let need = theta - storage.len();
        let storage_ref = &mut storage;
        let scratch_ref = &mut scratch;
        let work_ref = &mut sample_work;
        let next = next_index;
        report.span("Sample", |report| {
            sample_into(storage_ref, scratch_ref, work_ref, report, next, need);
        });
    }
    memory.observe_rrr(storage.resident_bytes());

    // Final selection.
    let final_sel = report.span("SelectSeeds", |_| storage.select(n, k));
    report.counters.select_iterations += final_sel.seeds.len() as u64;

    report.counters.rrr_entries = storage.sets.iter().map(|s| s.len() as u64).sum();
    report.counters.rrr_bytes_peak = memory.peak_rrr_bytes as u64;
    report.counters.theta_final = storage.len() as u64;
    if crate::obs::trace::enabled() {
        report.trace = Some(crate::obs::trace::collect_all());
    }
    ImmResult {
        seeds: final_sel.seeds,
        theta: storage.len(),
        coverage_fraction: final_sel.fraction,
        opt_lower_bound: lb,
        timers: report.phase_timers(),
        memory,
        sample_work,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::record_batch;
    use ripples_diffusion::{BatchOutcome, DiffusionModel, RrrCollection};
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn test_graph() -> Graph {
        erdos_renyi(400, 3000, WeightModel::UniformRandom { seed: 2 }, false, 11)
    }

    /// Per-model variant of [`test_graph`]: LT runs require the normalized
    /// in-weight contract the engines now enforce.
    fn graph_for(model: DiffusionModel) -> Graph {
        let lt = model == DiffusionModel::LinearThreshold;
        erdos_renyi(400, 3000, WeightModel::UniformRandom { seed: 2 }, lt, 11)
    }

    #[test]
    fn immopt_returns_k_seeds() {
        let g = test_graph();
        let p = ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade, 1);
        let r = immopt_sequential(&g, &p);
        assert_eq!(r.seeds.len(), 8);
        assert!(r.theta > 0);
        assert!(r.coverage_fraction > 0.0 && r.coverage_fraction <= 1.0);
        // Seeds must be distinct.
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn baseline_and_immopt_agree_on_seeds() {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let g = graph_for(model);
            let p = ImmParams::new(5, 0.5, model, 33);
            let a = imm_baseline(&g, &p);
            let b = immopt_sequential(&g, &p);
            assert_eq!(a.seeds, b.seeds, "seed sets diverged under {model}");
            assert_eq!(a.theta, b.theta);
            assert!((a.coverage_fraction - b.coverage_fraction).abs() < 1e-12);
        }
    }

    #[test]
    fn baseline_uses_more_memory() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 33);
        let a = imm_baseline(&g, &p);
        let b = immopt_sequential(&g, &p);
        assert!(
            a.memory.peak_rrr_bytes > b.memory.peak_rrr_bytes,
            "hypergraph {} must exceed compact {}",
            a.memory.peak_rrr_bytes,
            b.memory.peak_rrr_bytes
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = test_graph();
        let p = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 7);
        let a = immopt_sequential(&g, &p);
        let b = immopt_sequential(&g, &p);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.theta, b.theta);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = test_graph();
        let p1 = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 1);
        let p2 = ImmParams::new(6, 0.5, DiffusionModel::IndependentCascade, 2);
        let a = immopt_sequential(&g, &p1);
        let b = immopt_sequential(&g, &p2);
        // θ at least will almost surely differ; allow seeds equality.
        assert!(a.theta != b.theta || a.seeds != b.seeds);
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        let g = test_graph();
        let loose = immopt_sequential(
            &g,
            &ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 3),
        );
        let tight = immopt_sequential(
            &g,
            &ImmParams::new(5, 0.3, DiffusionModel::IndependentCascade, 3),
        );
        assert!(
            tight.theta > loose.theta,
            "θ: tight {} vs loose {}",
            tight.theta,
            loose.theta
        );
    }

    #[test]
    fn degenerate_graphs() {
        let empty = ripples_graph::GraphBuilder::new(0).build().unwrap();
        let p = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade, 1);
        let r = immopt_sequential(&empty, &p);
        assert!(r.seeds.is_empty());

        let single = ripples_graph::GraphBuilder::new(1).build().unwrap();
        let r = immopt_sequential(&single, &p);
        assert_eq!(r.seeds, vec![0]);
    }

    #[test]
    fn k_clamped_to_n() {
        let g = erdos_renyi(5, 12, WeightModel::Constant(0.5), false, 4);
        let p = ImmParams::new(50, 0.5, DiffusionModel::IndependentCascade, 1);
        let r = immopt_sequential(&g, &p);
        assert_eq!(r.seeds.len(), 5);
    }

    #[test]
    fn tang_resample_mode_is_statistically_equivalent() {
        let g = test_graph();
        let p = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade, 9);
        let fresh = imm_baseline_with_options(&g, &p, true);
        let reuse = imm_baseline_with_options(&g, &p, false);
        assert_eq!(fresh.seeds.len(), reuse.seeds.len());
        assert_eq!(fresh.theta, reuse.theta, "θ depends only on estimation");
        // Both record exactly the θ samples that drive the final selection
        // (fresh mode discards the estimation batch before regenerating).
        assert_eq!(fresh.sample_work.len(), fresh.theta);
        assert_eq!(reuse.sample_work.len(), reuse.theta);
        // Coverage fractions agree statistically.
        assert!((fresh.coverage_fraction - reuse.coverage_fraction).abs() < 0.1);
    }

    #[test]
    fn work_trace_recorded() {
        let g = test_graph();
        let p = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 9);
        let r = immopt_sequential(&g, &p);
        assert_eq!(r.sample_work.len(), r.theta);
        assert!(r.total_sample_work() > 0);
    }

    /// Regression: `arena_bytes_peak` (and the fused `mask_bytes_peak`)
    /// must track the *maximum* across batches, not the last batch's
    /// reservation — a big batch followed by a small top-up must not lower
    /// the reported peak.
    #[test]
    fn byte_peaks_track_max_across_batches() {
        let mut report = RunReport::new("test");
        let mut collection = RrrCollection::new();
        collection.push(&[0]);
        let big = BatchOutcome {
            arena_bytes: 4096,
            mask_bytes: 1024,
            fused_passes: 3,
            lane_width_counts: vec![0, 2, 5],
            ..BatchOutcome::default()
        };
        record_batch(&mut report, &collection, 0, &big);
        collection.push(&[1]);
        let small = BatchOutcome {
            arena_bytes: 128,
            mask_bytes: 64,
            fused_passes: 2,
            lane_width_counts: vec![0, 1],
            ..BatchOutcome::default()
        };
        record_batch(&mut report, &collection, 1, &small);
        assert_eq!(report.counters.arena_bytes_peak, 4096);
        assert_eq!(report.counters.mask_bytes_peak, 1024);
        assert_eq!(report.counters.fused_passes, 5);
        // Lane-width tallies fold into the histogram: 3 expansions with one
        // lane active, 5 with two.
        assert_eq!(report.lanes_active.count(), 8);
        assert_eq!(report.lanes_active.sum(), 3 + 2 * 5);
        assert_eq!(report.lanes_active.max(), 2);
    }
}
