//! Distributed-fleet convergence experiment: how long the knowledge
//! exchange takes to reconcile as the link degrades.
//!
//! For each (drop probability, latency) cell a gossip fleet (fanout 2)
//! of [`NODES`] instances runs [`ROUNDS`] synchronized rounds over the
//! seeded lossy transport, then drains: anti-entropy repair rounds —
//! no application steps — until every node holds the same effective
//! knowledge. The *drain round count* is the convergence time the
//! paper-style crowdsourcing loop cares about: how far behind the
//! fleet's common knowledge can be once the exchange quiesces.
//!
//! Every cell is verified, not just timed: after the drain the bench
//! asserts all nodes converged onto the canonical single-shard
//! [`margot::SharedKnowledge`] fold of every observation (the same
//! invariant `tests/transport_props.rs` pins property-wise).
//!
//! Numbers land in `results/fleet_dist.json`
//! (`results/fleet_dist_smoke.json` for the small smoke configuration)
//! and BENCH.md.
//!
//! Run with `cargo run -p socrates-bench --bin fleet_dist_bench
//! --release` (`--smoke` for the small configuration). The bin's unit
//! test is the gate, so `cargo test` runs it: it reruns the full grid,
//! writes nothing, and fails on any drift of the deterministic columns
//! (drain rounds, message and byte counts, refolds and replayed
//! observations) against the committed `results/fleet_dist.json`.
//! `wall_ms` is not gated.

use margot::{Rank, SharedKnowledge};

use serde::{Deserialize, Serialize};
use socrates::{
    DistTopology, DistributedConfig, DistributedFleet, EnhancedApp, FleetConfig, FleetRuntime,
    LinkConfig,
};
use std::time::Instant;

/// Design-knowledge subsample handed to every instance.
const KNOWLEDGE_POINTS: usize = 64;
/// Fleet size per cell (full / smoke).
const NODES: usize = 16;
const NODES_SMOKE: usize = 8;
/// Synchronized application rounds per cell (full / smoke).
const ROUNDS: usize = 12;
const ROUNDS_SMOKE: usize = 6;

#[derive(Serialize, Deserialize)]
struct DistRow {
    topology: String,
    nodes: usize,
    rounds: usize,
    drop_prob: f64,
    dup_prob: f64,
    max_latency: u64,
    /// Anti-entropy repair rounds until every node held the same
    /// effective knowledge (the convergence time).
    drain_rounds: u64,
    msgs_sent: u64,
    msgs_delivered: u64,
    msgs_dropped: u64,
    msgs_duplicated: u64,
    /// Encoded wire bytes handed to the transport.
    bytes_sent: u64,
    /// Per-point fold rollbacks forced by out-of-canonical-order
    /// arrivals.
    refolds: u64,
    /// Observations re-folded by those rollbacks — the actual replay
    /// overhead, one point's suffix per rollback.
    refold_ops_replayed: u64,
    wall_ms: f64,
}

impl DistRow {
    /// What identifies a cell of the grid.
    #[cfg(test)]
    fn cell(&self) -> (&str, usize, usize, u64, u64, u64) {
        (
            &self.topology,
            self.nodes,
            self.rounds,
            self.drop_prob.to_bits(),
            self.dup_prob.to_bits(),
            self.max_latency,
        )
    }

    /// The columns a seeded run reproduces exactly.
    #[cfg(test)]
    fn exact_columns(&self) -> [(&'static str, u64); 8] {
        [
            ("drain_rounds", self.drain_rounds),
            ("msgs_sent", self.msgs_sent),
            ("msgs_delivered", self.msgs_delivered),
            ("msgs_dropped", self.msgs_dropped),
            ("msgs_duplicated", self.msgs_duplicated),
            ("bytes_sent", self.bytes_sent),
            ("refolds", self.refolds),
            ("refold_ops_replayed", self.refold_ops_replayed),
        ]
    }
}

fn main() {
    let smoke = socrates_bench::args(&["--smoke"]).smoke;
    let rows = grid(smoke);
    let name = if smoke {
        "fleet_dist_smoke"
    } else {
        "fleet_dist"
    };
    socrates_bench::write_json(name, &rows);
}

/// Runs every (drop probability, latency) cell of the full grid (the
/// small one when `smoke`), printing each row, and verifies that every
/// cell converged onto the reference fold.
fn grid(smoke: bool) -> Vec<DistRow> {
    let (nodes, rounds) = if smoke {
        (NODES_SMOKE, ROUNDS_SMOKE)
    } else {
        (NODES, ROUNDS)
    };
    let drops: &[f64] = if smoke {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.3, 0.5]
    };
    let latencies: &[u64] = if smoke { &[0, 2] } else { &[0, 2, 6] };
    let enhanced = socrates_bench::subsampled_twomm(KNOWLEDGE_POINTS);
    println!(
        "Distributed fleet convergence — drain rounds vs loss/latency\n\
         ({nodes} nodes, {rounds} rounds, {KNOWLEDGE_POINTS}-point knowledge, dup 10%)\n"
    );
    println!(
        "{:>10} {:>6} {:>8} {:>13} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "topology",
        "drop",
        "latency",
        "drain rounds",
        "sent",
        "dropped",
        "refolds",
        "replayed",
        "wall [ms]"
    );
    let mut out = Vec::new();
    for &drop_prob in drops {
        for &max_latency in latencies {
            let dup_prob = if drop_prob > 0.0 { 0.1 } else { 0.0 };
            let config = FleetConfig {
                exploration_interval: 0,
                distributed: Some(DistributedConfig {
                    topology: DistTopology::Gossip { fanout: 2 },
                    link: LinkConfig {
                        seed: 2018,
                        min_latency: 0,
                        max_latency,
                        drop_prob,
                        dup_prob,
                    },
                    ..DistributedConfig::default()
                }),
                ..FleetConfig::default()
            };
            let wall = Instant::now();
            let mut fleet = DistributedFleet::new(config, &enhanced).expect("valid fleet config");
            fleet.spawn(&Rank::throughput_per_watt2(), 2018, nodes);
            fleet.run_events(rounds as u64);
            let drain_rounds = fleet.drain().expect("drop_prob < 1 must drain");
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            verify_converged(&fleet, &enhanced, nodes);
            let stats = fleet.stats();
            let row = DistRow {
                topology: "gossip-2".to_string(),
                nodes,
                rounds,
                drop_prob,
                dup_prob,
                max_latency,
                drain_rounds,
                msgs_sent: stats.net.sent,
                msgs_delivered: stats.net.delivered,
                msgs_dropped: stats.net.dropped,
                msgs_duplicated: stats.net.duplicated,
                bytes_sent: stats.net.bytes_sent,
                refolds: stats.refolds,
                refold_ops_replayed: stats.refold_ops_replayed,
                wall_ms,
            };
            println!(
                "{:>10} {:>6.2} {:>8} {:>13} {:>10} {:>9} {:>9} {:>9} {:>10.1}",
                row.topology,
                row.drop_prob,
                row.max_latency,
                row.drain_rounds,
                row.msgs_sent,
                row.msgs_dropped,
                row.refolds,
                row.refold_ops_replayed,
                row.wall_ms
            );
            out.push(row);
        }
    }
    out
}

/// Asserts the cell actually converged onto the canonical
/// single-shard reference fold (drain guarantees it; the bench
/// re-checks rather than trusting the implementation it measures).
fn verify_converged(fleet: &DistributedFleet, enhanced: &EnhancedApp, nodes: usize) {
    assert!(fleet.converged(), "drain returned but fleet not converged");
    let config = fleet.config();
    let reference = SharedKnowledge::new(enhanced.knowledge.clone(), config.knowledge_window)
        .with_min_observations(config.min_observations)
        .with_shards(1);
    for op in fleet.canonical_ops() {
        reference.publish(&op.config, &op.observed);
    }
    let reference = reference.knowledge();
    for id in 0..nodes {
        assert_eq!(
            fleet.node_knowledge(id),
            reference,
            "node {id} diverged from the single-shard reference"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate: the full grid reproduces every exact column of every
    /// cell of the committed `results/fleet_dist.json`, and covers the
    /// same cells.
    #[test]
    fn the_full_grid_matches_the_committed_counters() {
        let rows = grid(false);
        let path = socrates_bench::results_dir().join("fleet_dist.json");
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("no committed baseline at {}: {e}", path.display()));
        let baseline: Vec<DistRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(rows.len(), baseline.len(), "the grid's cell count moved");
        for row in &rows {
            let base = baseline
                .iter()
                .find(|b| b.cell() == row.cell())
                .unwrap_or_else(|| panic!("cell {:?} is not in the baseline", row.cell()));
            assert_eq!(
                row.exact_columns(),
                base.exact_columns(),
                "cell {:?} drifted from the baseline",
                row.cell()
            );
        }
    }
}
