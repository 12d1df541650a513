//! Distributed online autotuning over a lossy wire: a 12-instance
//! fleet gossips runtime knowledge peer to peer over a link that
//! delays, reorders and drops messages — and still converges onto one
//! shared view of the deployment platform.
//!
//! Run with: `cargo run --release --example fleet_distributed`

use margot::Rank;
use polybench::{App, Dataset};
use socrates::{
    DistTopology, DistributedConfig, DistributedFleet, FleetConfig, FleetRuntime, LinkConfig,
    Toolchain,
};

fn main() {
    // Design time: enhance the application once (shortened DSE so the
    // example runs in seconds).
    let enhanced = Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(App::TwoMm)
    .expect("enhance 2mm");

    // Deployment: a gossip fleet (each node rumors to 3 rotating peers)
    // over a degraded link — up to 3 rounds of latency, 20% loss, 5%
    // duplication, all seeded and replayable. The builder validates the
    // wire configuration at the setter that introduces it.
    let config = FleetConfig::builder()
        .exploration_interval(0)
        .distributed(Some(DistributedConfig {
            topology: DistTopology::Gossip { fanout: 3 },
            link: LinkConfig {
                seed: 7,
                min_latency: 0,
                max_latency: 3,
                drop_prob: 0.2,
                dup_prob: 0.05,
            },
            ..DistributedConfig::default()
        }))
        .expect("a valid wire configuration")
        .build()
        .expect("valid fleet config");
    let mut fleet = DistributedFleet::new(config, &enhanced).expect("valid config");
    fleet.spawn(&Rank::throughput_per_watt2(), 42, 10);
    fleet.run_until(20.0);

    // Churn: two instances join mid-run; they announce themselves,
    // fold a peer's observation log and catch up via gossip.
    for seed in [1001, 1002] {
        fleet.add_instance(
            Rank::throughput_per_watt2(),
            enhanced.platform.machine(seed),
        );
    }
    fleet.run_until(30.0);

    // Drain: anti-entropy repair rounds until every node holds the
    // same effective knowledge.
    let repair_rounds = fleet.drain().expect("a 20% loss link drains");
    assert!(fleet.converged());
    let stats = fleet.stats();
    println!(
        "{} instances, {} rounds, {} observations exchanged",
        stats.instances,
        stats.rounds,
        fleet.canonical_ops().len()
    );
    println!(
        "link: {} sent / {} delivered / {} dropped / {} duplicated",
        stats.net.sent, stats.net.delivered, stats.net.dropped, stats.net.duplicated
    );
    println!("converged after {repair_rounds} repair rounds");
    let authoritative = fleet.authoritative_knowledge();
    for id in 0..stats.instances {
        assert_eq!(fleet.node_knowledge(id), authoritative);
    }
    println!(
        "all {} nodes (including the late joiners) share one knowledge view: {} points",
        stats.instances,
        authoritative.len()
    );
}
