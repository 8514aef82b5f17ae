//! Per-node RNG streams for the gather→commit simulator.
//!
//! The gather phase of [`crate::sim`] draws every node's fading step and
//! delivery outcome from the node's own stream, so a node's draws never
//! depend on which other nodes share its batch or on the order a batch
//! is gathered in. Each stream is derived from the master seed with
//! [`crate::faults::splitmix64`], the same mixer the fault injector uses
//! for its independent stream.
//!
//! Properties the simulator (and the proptests in `tests/props.rs`)
//! rely on:
//!
//! * **Determinism** — `node_stream(seed, i)` is a pure function of
//!   `(seed, i)`; constructing the streams in any order, on any thread,
//!   yields bit-identical draw sequences per node.
//! * **Independence** — distinct indices land on unrelated splitmix64
//!   outputs, so streams do not overlap for any practical draw count.
//! * **Domain separation** — the salt keeps node streams disjoint from
//!   the fault injector's `splitmix64(seed, k)` family and from the
//!   Monte-Carlo trial seeds in `mmx-bench`, even for equal seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faults::splitmix64;

/// Domain-separation salt for per-node channel/PHY streams ("NODESTRM").
const NODE_STREAM_SALT: u64 = 0x4E4F_4445_5354_524D;

/// The seed of node `index`'s private stream under master `seed`.
///
/// Exposed separately from [`node_stream`] so tests can assert on the
/// mixing itself.
pub fn node_stream_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ NODE_STREAM_SALT, index as u64)
}

/// An RNG private to node `index`, derived from the master `seed`.
///
/// Used by the simulator for everything a node draws on its own behalf:
/// small-scale fading initialization and steps, and the per-packet
/// delivery draw. Shared-state draws (walker mobility) stay on the
/// master stream; control-plane fates stay on the fault injector's.
pub fn node_stream(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(node_stream_seed(seed, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic() {
        let a: Vec<f64> = (0..8)
            .map({
                let mut r = node_stream(42, 3);
                move |_| r.gen::<f64>()
            })
            .collect();
        let b: Vec<f64> = (0..8)
            .map({
                let mut r = node_stream(42, 3);
                move |_| r.gen::<f64>()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_nodes_get_distinct_streams() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256 {
            assert!(
                seen.insert(node_stream_seed(7, i)),
                "seed collision at node {i}"
            );
        }
    }

    #[test]
    fn distinct_master_seeds_shift_every_stream() {
        for i in 0..16 {
            assert_ne!(node_stream_seed(1, i), node_stream_seed(2, i));
        }
    }

    #[test]
    fn node_streams_are_domain_separated_from_fault_streams() {
        // The fault injector seeds itself from splitmix64(seed, k) for
        // small k; node streams must not collide with that family.
        for k in 0..64u64 {
            for i in 0..64 {
                assert_ne!(node_stream_seed(9, i), splitmix64(9, k));
            }
        }
    }

    #[test]
    fn evaluation_order_does_not_matter() {
        let n = 32;
        let forward: Vec<u64> = (0..n).map(|i| node_stream(5, i).gen::<u64>()).collect();
        let mut reversed: Vec<u64> = (0..n)
            .rev()
            .map(|i| node_stream(5, i).gen::<u64>())
            .collect();
        reversed.reverse();
        assert_eq!(forward, reversed);
    }
}
