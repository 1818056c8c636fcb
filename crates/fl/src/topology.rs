//! Two-tier aggregation topology: edge aggregators between the fleet
//! and the server.
//!
//! A single server scales to tens of clients; a million-client fleet
//! needs a tree. This module is the (deliberately small) abstraction
//! both schedulers wire through:
//!
//! * **cohorts** — every client belongs to exactly one edge aggregator,
//!   assigned by a stateless hash of `(seed, client id)`
//!   ([`TopologyConfig::cohort_of`]). No membership table exists
//!   anywhere: assignment is recomputed on touch, which is what keeps
//!   resident state O(aggregators), not O(fleet);
//! * **edge buffering** — an edge FedAvgs its cohort's finished
//!   dispatches locally on the virtual clock and forwards one
//!   staleness-weighted partial sum upstream once
//!   [`TopologyConfig::edge_flush_k`] updates have accumulated (the
//!   async scheduler's server buffer then counts *bundles*, not client
//!   updates). Because the server merge is linear in the per-entry
//!   weights, flattening the bundled entries into the usual weighted
//!   merge is bit-identical to merging edge-side partial sums — the
//!   hierarchy changes *when* updates reach the server and *what moves
//!   on the wire*, never the merged model;
//! * **backhaul costing** — the upstream forward pays a
//!   [`fp_hwsim::ForwardLink`] hop (base latency + partial-sum bytes
//!   over backhaul bandwidth) on the same virtual clock as every other
//!   event.
//!
//! The degenerate configuration ([`TopologyConfig::single`], the
//! default everywhere) is the flat topology: no cohorts, no edge
//! events, byte-identical ledgers and checkpoints to every pre-topology
//! golden.

use fp_hwsim::{splitmix64, ForwardLink};
use serde::{Deserialize, Serialize};

/// Domain-separation salt for cohort assignment.
const SALT_COHORT: u64 = 0xC0_0897;

/// Aggregation-tree shape and edge policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Edge aggregators between clients and the server. `0` = the flat
    /// single-server topology (the default): clients report straight to
    /// the server and none of the edge machinery exists.
    pub aggregators: usize,
    /// Finished cohort updates an edge accumulates before forwarding
    /// one partial-sum bundle upstream.
    pub edge_flush_k: usize,
    /// The edge→server backhaul each upstream forward is costed on.
    pub uplink: ForwardLink,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::single()
    }
}

impl TopologyConfig {
    /// The flat single-server topology.
    pub fn single() -> Self {
        TopologyConfig {
            aggregators: 0,
            edge_flush_k: 1,
            uplink: ForwardLink::backhaul(),
        }
    }

    /// A two-tier topology with `aggregators` edges, each forwarding
    /// after `edge_flush_k` cohort updates, over the default backhaul.
    pub fn two_tier(aggregators: usize, edge_flush_k: usize) -> Self {
        TopologyConfig {
            aggregators,
            edge_flush_k,
            uplink: ForwardLink::backhaul(),
        }
    }

    /// Whether edge aggregators exist at all.
    pub fn is_hierarchical(&self) -> bool {
        self.aggregators > 0
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if hierarchical with `edge_flush_k == 0` or a
    /// non-positive backhaul bandwidth.
    pub fn validate(&self) {
        if self.is_hierarchical() {
            assert!(
                self.edge_flush_k >= 1,
                "edge_flush_k must be >= 1 on a hierarchical topology"
            );
            assert!(
                self.uplink.gbps > 0.0,
                "edge uplink bandwidth must be positive"
            );
        }
    }

    /// The edge aggregator client `k` reports to — a stateless hash of
    /// `(seed, k)`, so membership needs no table and any client's
    /// cohort is computable in isolation.
    ///
    /// # Panics
    ///
    /// Panics on a flat topology (no cohorts exist).
    pub fn cohort_of(&self, seed: u64, k: usize) -> usize {
        assert!(self.is_hierarchical(), "flat topology has no cohorts");
        (splitmix64(seed ^ SALT_COHORT ^ (k as u64)) % self.aggregators as u64) as usize
    }
}

// Hand-written: flattens `uplink` into the `uplink_*` keys.
impl Serialize for TopologyConfig {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("aggregators".to_string(), self.aggregators.serialize()),
            ("edge_flush_k".to_string(), self.edge_flush_k.serialize()),
            ("uplink_base_s".to_string(), self.uplink.base_s.serialize()),
            ("uplink_gbps".to_string(), self.uplink.gbps.serialize()),
        ])
    }
}

impl Deserialize for TopologyConfig {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        const TY: &str = "TopologyConfig";
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for TopologyConfig"))?;
        Ok(TopologyConfig {
            aggregators: Deserialize::deserialize(serde::map_field(m, "aggregators", TY)?)?,
            edge_flush_k: Deserialize::deserialize(serde::map_field(m, "edge_flush_k", TY)?)?,
            uplink: ForwardLink {
                base_s: Deserialize::deserialize(serde::map_field(m, "uplink_base_s", TY)?)?,
                gbps: Deserialize::deserialize(serde::map_field(m, "uplink_gbps", TY)?)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohorts_are_deterministic_and_cover_all_edges() {
        let topo = TopologyConfig::two_tier(16, 4);
        let mut seen = vec![0usize; 16];
        for k in 0..10_000 {
            let c = topo.cohort_of(42, k);
            assert_eq!(c, topo.cohort_of(42, k), "stateless hash");
            seen[c] += 1;
        }
        // ~625 per cohort; a factor-of-three band catches a broken hash
        // without flaking.
        assert!(
            seen.iter().all(|&n| (200..=2000).contains(&n)),
            "unbalanced cohorts: {seen:?}"
        );
        // Different seeds shuffle membership.
        let moved = (0..10_000)
            .filter(|&k| topo.cohort_of(42, k) != topo.cohort_of(43, k))
            .count();
        assert!(moved > 5_000, "seed must reshuffle cohorts, moved {moved}");
    }

    #[test]
    fn single_tier_has_no_cohorts() {
        let topo = TopologyConfig::single();
        assert!(!topo.is_hierarchical());
        topo.validate();
    }

    #[test]
    #[should_panic(expected = "edge_flush_k")]
    fn rejects_zero_edge_flush() {
        TopologyConfig {
            aggregators: 4,
            edge_flush_k: 0,
            uplink: ForwardLink::backhaul(),
        }
        .validate();
    }

    #[test]
    fn serde_round_trips() {
        let topo = TopologyConfig::two_tier(64, 8);
        let json = serde_json::to_string(&topo).unwrap();
        let back: TopologyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, topo);
    }
}
