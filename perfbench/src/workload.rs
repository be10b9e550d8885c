//! The four workloads and the inputs each derives from a workload seed.
//!
//! The workload seed is split into independent streams for the R-MAT graph
//! seed, the edge-weight seed, the IMM master seed and the serve query mix,
//! so the same seed always gives the same inputs. Graph sizes and R-MAT
//! skew come from the SNAP stand-in catalogue; only the seeds vary.

use ripples_core::ImmParams;
use ripples_diffusion::DiffusionModel;
use ripples_graph::generators::{rmat, standin, RmatConfig};
use ripples_graph::{Graph, WeightModel};
use ripples_rng::SplitMix64;

/// Workers (threads or ranks) of the parallel engine on every workload.
pub const WORKERS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sampling-bound IC solve on `mt`.
    IcSample,
    /// Selection-heavy LT solve on `mt`.
    LtSelect,
    /// IC solve on the vertex-cut `sharded` engine over two ranks.
    DistShard,
    /// Closed-loop query replay against a restored resident sketch.
    ServeReplay,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::IcSample,
        Workload::LtSelect,
        Workload::DistShard,
        Workload::ServeReplay,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::IcSample => "ic-sample",
            Workload::LtSelect => "lt-select",
            Workload::DistShard => "dist-shard",
            Workload::ServeReplay => "serve-replay",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(stand-in, divisor, model, k, epsilon)`.
    fn shape(self) -> (&'static str, u32, DiffusionModel, u32, f64) {
        use DiffusionModel::{IndependentCascade as Ic, LinearThreshold as Lt};
        match self {
            Workload::IcSample => ("cit-HepTh", 4, Ic, 50, 0.5),
            Workload::LtSelect => ("soc-Epinions1", 1, Lt, 500, 0.13),
            Workload::DistShard => ("cit-HepTh", 8, Ic, 50, 0.5),
            Workload::ServeReplay => ("cit-HepTh", 2, Lt, 50, 0.3),
        }
    }
}

/// Everything a run of one workload needs, derived from the workload seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// R-MAT generation parameters.
    pub rmat: RmatConfig,
    /// Edge-weight model (uniform random, seeded).
    pub weights: WeightModel,
    /// IMM parameters; for `serve-replay`, `k` is also the sketch's `k_max`.
    pub params: ImmParams,
    /// Seed of the serve query mix.
    pub query_seed: u64,
}

impl Inputs {
    /// Derives the inputs of `workload` from `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        let (name, divisor, model, k, epsilon) = workload.shape();
        let spec = standin(name).expect("stand-in is in the catalogue");
        let stream = |i| SplitMix64::for_stream(seed, i).next_u64();
        // Sizes as `StandinSpec::build` computes them.
        let nodes = (spec.orig_nodes / u64::from(divisor)).max(64);
        let rmat = RmatConfig {
            scale: 64 - (nodes - 1).leading_zeros(),
            edges: (spec.orig_edges / u64::from(divisor)).max(128) as usize,
            a: spec.rmat_a,
            b: spec.rmat_b,
            c: spec.rmat_c,
            undirected: !spec.directed,
            seed: stream(1),
        };
        let mut params = ImmParams::new(k, epsilon, model, stream(3));
        if workload == Workload::ServeReplay {
            params = params.with_k_max(k);
        }
        Self {
            rmat,
            weights: WeightModel::UniformRandom { seed: stream(2) },
            params,
            query_seed: stream(4),
        }
    }

    /// Generates the graph; LT graphs get normalized in-weights.
    #[must_use]
    pub fn graph(&self) -> Graph {
        let lt = self.params.model == DiffusionModel::LinearThreshold;
        rmat(&self.rmat, self.weights, lt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_graph() {
        let a = Inputs::new(Workload::DistShard, 7);
        let b = Inputs::new(Workload::DistShard, 7);
        let c = Inputs::new(Workload::DistShard, 8);
        assert_eq!(a.graph().fingerprint(), b.graph().fingerprint());
        assert_eq!(a.params, b.params);
        assert_ne!(a.graph().fingerprint(), c.graph().fingerprint());
        assert_ne!(a.params.seed, c.params.seed);
        assert_eq!(a.graph().num_vertices(), 4096);
    }
}
