//! Graph-partitioned RRR sampling — the paper's future-work item (i):
//! *"extension to settings where the input graph is also partitioned (in
//! addition to R)"*.
//!
//! The published system replicates the whole graph on every rank, capping
//! input size at single-node memory. The sharded engine
//! (`ripples_core::dist_sharded`) instead splits the global in-edge order
//! into `p` contiguous chunks ([`ripples_graph::partition::VertexCutShard`]),
//! so one RRR set no longer lives on one rank: its reverse BFS hops across
//! the ranks holding each frontier vertex's chunks.
//!
//! **Randomness keying.** Replicated sampling draws a sample's coin flips
//! from a per-sample stream in traversal order, which is meaningless when
//! the traversal is distributed. Instead, the coin flips consumed while
//! expanding vertex `v` of sample `s` come from a stream keyed by `(s, v)`
//! ([`vertex_keyed_rrr`] is the sequential reference), and
//! [`expand_shard_chunk`] replays exactly the slice of that stream its chunk
//! covers. A sharded run over any rank count therefore reproduces the
//! reference **bitwise** (tested in `ripples-core`).

use crate::model::DiffusionModel;
use ripples_graph::partition::ChunkView;
use ripples_graph::{Graph, Vertex};
use ripples_rng::{SplitMix64, StreamFactory};

/// Shared live-edge logic for one vertex expansion; returns edges examined.
fn expand_with(
    model: DiffusionModel,
    rng: &mut SplitMix64,
    sources: &[Vertex],
    probs: &[f32],
    out: &mut Vec<Vertex>,
) -> u64 {
    match model {
        DiffusionModel::IndependentCascade => {
            for (&u, &p) in sources.iter().zip(probs) {
                if rng.unit_f64() < f64::from(p) {
                    out.push(u);
                }
            }
            sources.len() as u64
        }
        DiffusionModel::LinearThreshold => {
            let draw = rng.unit_f64();
            let mut acc = 0.0f64;
            let mut examined = 0u64;
            for (&u, &p) in sources.iter().zip(probs) {
                examined += 1;
                acc += f64::from(p);
                if draw < acc {
                    out.push(u);
                    break;
                }
            }
            examined
        }
    }
}

/// Expands one vertex-cut chunk of `v`'s in-list for sample stream
/// `sample_seed`, flipping exactly the coins the sequential reference flips
/// for that slice of the in-edge order; returns edges examined.
///
/// The `(sample, vertex)` stream is a counter (SplitMix64), so a chunk that
/// starts at in-edge `edge_start` lands on its coins with one O(1)
/// [`SplitMix64::skip`] — under independent cascade the union of the chunks'
/// live edges is bitwise the full expansion. Under linear threshold all
/// chunks share the *first* draw and the chunk's stored `lt_prefix` (the
/// exact sequential accumulator value at the chunk boundary) decides locally
/// whether the threshold falls before, inside, or after the chunk, so at
/// most one chunk across all ranks emits the (single) live edge.
pub fn expand_shard_chunk(
    model: DiffusionModel,
    sample_seed: u64,
    v: Vertex,
    chunk: ChunkView<'_>,
    out: &mut Vec<Vertex>,
) -> u64 {
    let mut rng = SplitMix64::for_stream(sample_seed, u64::from(v));
    match model {
        DiffusionModel::IndependentCascade => {
            rng.skip(u64::from(chunk.edge_start));
            for (&u, &p) in chunk.sources.iter().zip(chunk.probs) {
                if rng.unit_f64() < f64::from(p) {
                    out.push(u);
                }
            }
            chunk.sources.len() as u64
        }
        DiffusionModel::LinearThreshold => {
            let draw = rng.unit_f64();
            if draw < chunk.lt_prefix {
                // The threshold fell in an earlier chunk; its owner emits
                // the live edge. (Probabilities are non-negative, so the
                // accumulator is monotone and this test is exact.)
                return 0;
            }
            let mut acc = chunk.lt_prefix;
            let mut examined = 0u64;
            for (&u, &p) in chunk.sources.iter().zip(chunk.probs) {
                examined += 1;
                acc += f64::from(p);
                if draw < acc {
                    out.push(u);
                    break;
                }
            }
            examined
        }
    }
}

/// Sequential reference for the `(sample, vertex)`-keyed RRR generation:
/// semantically identical to `generate_rrr` (same live-edge distribution),
/// but with coin flips keyed so that a sharded traversal can reproduce
/// it exactly.
#[must_use]
pub fn vertex_keyed_rrr(
    graph: &Graph,
    model: DiffusionModel,
    factory: &StreamFactory,
    sample_index: u64,
) -> Vec<Vertex> {
    let root = sample_root(factory, sample_index, graph.num_vertices());
    let sample_seed = sample_stream_seed(factory, sample_index);
    let mut frontier = vec![root];
    let mut next = Vec::new();
    let mut visited = vec![false; graph.num_vertices() as usize];
    visited[root as usize] = true;
    let mut members = vec![root];
    while !frontier.is_empty() {
        next.clear();
        for &v in &frontier {
            let mut rng = SplitMix64::for_stream(sample_seed, u64::from(v));
            let _ = expand_with(
                model,
                &mut rng,
                graph.in_neighbors(v),
                graph.in_probs(v),
                &mut next,
            );
        }
        frontier.clear();
        for &u in &next {
            if !visited[u as usize] {
                visited[u as usize] = true;
                members.push(u);
                frontier.push(u);
            }
        }
    }
    members.sort_unstable();
    members
}

/// Derives the per-sample seed used for `(sample, vertex)` coin-flip
/// streams (shared by the reference and the sharded engine).
#[must_use]
pub fn sample_stream_seed(factory: &StreamFactory, sample_index: u64) -> u64 {
    // One draw off the sample's own stream, domain-separated from the root
    // draw by position (root is the first draw).
    let mut rng = factory.sample_stream(sample_index);
    let _root = rng.next_u64();
    rng.next_u64()
}

/// Draws sample `index`'s root exactly as the replicated engines do.
#[must_use]
pub fn sample_root(factory: &StreamFactory, index: u64, n: u32) -> Vertex {
    let mut rng = factory.sample_stream(index);
    rng.bounded_u64(u64::from(n)) as Vertex
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    fn graph() -> Graph {
        erdos_renyi(120, 900, WeightModel::UniformRandom { seed: 5 }, false, 31)
    }

    #[test]
    fn vertex_keyed_reference_contains_root_and_is_sorted() {
        let g = graph();
        let f = StreamFactory::new(77);
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            for idx in 0..50u64 {
                let root = sample_root(&f, idx, g.num_vertices());
                let s = vertex_keyed_rrr(&g, model, &f, idx);
                assert!(s.binary_search(&root).is_ok());
                assert!(s.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn shard_chunks_reproduce_expansion_bitwise() {
        // The union (in rank order) of per-chunk expansions must equal the
        // full-graph expansion exactly, for both models, at every cut width.
        use ripples_graph::partition::VertexCutShard;
        let g = graph();
        let f = StreamFactory::new(21);
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            for size in [1u32, 2, 3, 4] {
                let shards: Vec<VertexCutShard> = (0..size)
                    .map(|r| VertexCutShard::extract(&g, r, size))
                    .collect();
                for idx in 0..20u64 {
                    let seed = sample_stream_seed(&f, idx);
                    for v in 0..g.num_vertices() {
                        let mut reference = Vec::new();
                        let mut rng = SplitMix64::for_stream(seed, u64::from(v));
                        let ref_examined = expand_with(
                            model,
                            &mut rng,
                            g.in_neighbors(v),
                            g.in_probs(v),
                            &mut reference,
                        );
                        let mut union = Vec::new();
                        let mut examined = 0u64;
                        for shard in &shards {
                            if let Some(chunk) = shard.chunk(v) {
                                examined += expand_shard_chunk(model, seed, v, chunk, &mut union);
                            }
                        }
                        assert_eq!(union, reference, "model {model:?} size {size} v {v}");
                        if model == DiffusionModel::IndependentCascade {
                            assert_eq!(examined, ref_examined, "IC examines every edge");
                        }
                    }
                }
            }
        }
    }
}
