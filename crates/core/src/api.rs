//! High-level one-call entry point.
//!
//! Every IMM engine takes its choices from [`ImmParams`]: build the
//! parameters once with its builders and pass them to the engine you need.
//!
//! ```
//! use ripples_core::{ImmParams, SelectEngine};
//! use ripples_diffusion::{DiffusionModel, RrrStoreKind, StorageConfig};
//! use ripples_graph::{generators::erdos_renyi, WeightModel};
//!
//! // LT runs require in-weights summing to ≤ 1 per vertex — build the
//! // graph with the normalization pass (the `true` flag).
//! let graph = erdos_renyi(100, 500, WeightModel::Constant(0.1), true, 1);
//! let params = ImmParams::new(5, 0.5, DiffusionModel::LinearThreshold, 7)
//!     .with_select(SelectEngine::Fused)
//!     .with_storage(StorageConfig::of(RrrStoreKind::Varint));
//! let result = ripples_core::mt::imm_multithreaded(&graph, &params, 1);
//! assert_eq!(result.seeds.len(), 5);
//! ```

use crate::params::ImmParams;
use crate::result::ImmResult;
use ripples_graph::Graph;

/// Runs influence maximization with the recommended engine (multithreaded
/// IMM on all available cores) and returns the seed set plus full
/// instrumentation.
///
/// Equivalent to `crate::mt::imm_multithreaded(graph, params, 0)`; prefer
/// the module-level entry points when you need a specific engine, thread
/// count, or communicator.
#[must_use]
pub fn maximize_influence(graph: &Graph, params: &ImmParams) -> ImmResult {
    crate::mt::imm_multithreaded(graph, params, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    #[test]
    fn one_call_api() {
        let g = erdos_renyi(150, 900, WeightModel::Constant(0.1), false, 5);
        let p = ImmParams::new(
            3,
            0.5,
            ripples_diffusion::DiffusionModel::IndependentCascade,
            1,
        );
        let r = maximize_influence(&g, &p);
        assert_eq!(r.seeds.len(), 3);
    }
}
