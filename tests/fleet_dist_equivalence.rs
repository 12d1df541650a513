//! Distributed-fleet determinism: over a **lossless zero-latency
//! link** with a full gossip mesh (the default `DistributedConfig`),
//! the distributed fleet must be **bit-identical** to the in-process
//! shared-knowledge fleet — same traces, same learned knowledge. Nodes
//! step one after another in node order; CI still re-runs this file
//! under forced `RAYON_NUM_THREADS` values because the toolchain that
//! builds the app profiles it in parallel.
//!
//! This pins the distributed runtime's determinism contract: an ideal
//! link is exactly the in-process round barrier, so every divergence
//! observed under loss/latency is attributable to the link model, not
//! to the exchange protocol.

use margot::Rank;
use polybench::{App, Dataset};
use socrates::{
    trace_digest, DistTopology, DistributedConfig, DistributedFleet, EnhancedApp, Fleet,
    FleetConfig, FleetRuntime, LinkConfig, Toolchain,
};

const INSTANCES: usize = 8;
const SEED: u64 = 2018;

fn quick_enhanced(app: App) -> EnhancedApp {
    Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(app)
    .unwrap()
}

/// The in-process reference: shared knowledge on, no cooperative
/// exploration, no power budget (the capabilities the distributed
/// mode models).
fn reference_config() -> FleetConfig {
    FleetConfig {
        exploration_interval: 0,
        ..FleetConfig::default()
    }
}

fn dist_config(dist: DistributedConfig) -> FleetConfig {
    FleetConfig {
        exploration_interval: 0,
        distributed: Some(dist),
        ..FleetConfig::default()
    }
}

fn gossip(fanout: usize) -> DistributedConfig {
    DistributedConfig {
        topology: DistTopology::Gossip { fanout },
        link: LinkConfig::ideal(0),
        ..DistributedConfig::default()
    }
}

type Traces = Vec<Vec<socrates::TraceSample>>;
type Learned = margot::Knowledge<platform_sim::KnobConfig>;

fn run_reference(enhanced: &EnhancedApp, duration_s: f64) -> (Traces, Learned) {
    let mut fleet = Fleet::new(reference_config()).expect("valid config");
    fleet.spawn(enhanced, &Rank::throughput_per_watt2(), SEED, INSTANCES);
    fleet.run_until(duration_s);
    let traces = (0..INSTANCES).map(|id| fleet.trace(id)).collect();
    (traces, fleet.learned_knowledge(App::TwoMm).unwrap())
}

fn run_distributed(
    enhanced: &EnhancedApp,
    dist: DistributedConfig,
    duration_s: f64,
) -> (Traces, Learned) {
    let mut fleet = DistributedFleet::new(dist_config(dist), enhanced).expect("valid config");
    fleet.spawn(&Rank::throughput_per_watt2(), SEED, INSTANCES);
    fleet.run_until(duration_s);
    fleet.drain().expect("an ideal link drains immediately");
    assert!(fleet.converged());
    let traces = (0..INSTANCES).map(|id| fleet.trace(id)).collect();
    (traces, fleet.authoritative_knowledge())
}

#[test]
fn the_default_ideal_link_is_bit_identical_to_the_in_process_fleet() {
    let enhanced = quick_enhanced(App::TwoMm);
    let (ref_traces, ref_knowledge) = run_reference(&enhanced, 8.0);
    let (dist_traces, dist_knowledge) =
        run_distributed(&enhanced, DistributedConfig::default(), 8.0);
    for (id, (d, r)) in dist_traces.iter().zip(&ref_traces).enumerate() {
        assert_eq!(d, r, "instance {id}: distributed trace != in-process trace");
    }
    assert_eq!(
        dist_knowledge, ref_knowledge,
        "the nodes' folded knowledge must equal the in-process pool's"
    );
}

#[test]
fn ideal_full_mesh_gossip_is_bit_identical_to_the_in_process_fleet() {
    let enhanced = quick_enhanced(App::TwoMm);
    let (ref_traces, ref_knowledge) = run_reference(&enhanced, 6.0);
    // fanout >= peers: every round's observations reach every node by
    // the next round, exactly like the in-process barrier.
    let (dist_traces, dist_knowledge) = run_distributed(&enhanced, gossip(INSTANCES - 1), 6.0);
    for (id, (d, r)) in dist_traces.iter().zip(&ref_traces).enumerate() {
        assert_eq!(d, r, "instance {id}: gossip trace != in-process trace");
    }
    assert_eq!(dist_knowledge, ref_knowledge);
}

/// The expected digests are those of the serial reference: nodes
/// stepped one after another on the calling thread.
#[test]
fn parallel_and_serial_distributed_rounds_are_bit_identical() {
    let enhanced = quick_enhanced(App::TwoMm);
    let mut fleet =
        DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).expect("valid");
    fleet.spawn(&Rank::throughput_per_watt2(), SEED, INSTANCES);
    fleet.run_until(5.0);
    fleet.drain().expect("ideal link drains");
    let digests: Vec<u64> = (0..INSTANCES)
        .map(|id| trace_digest(&fleet.trace(id)))
        .collect();
    assert_eq!(
        digests,
        [
            0x673d_a7e9_6284_590e,
            0x9e58_5a39_8654_f23c,
            0xdd1a_302b_518f_4a8f,
            0x4d6e_3a5e_65c8_33cf,
            0xb373_13c6_8e30_f5d5,
            0xf95d_a647_db47_85b6,
            0xb930_df57_2ef1_854e,
            0xa518_4964_ef09_6c3e,
        ]
    );
    let knowledge = fleet.authoritative_knowledge();
    assert_eq!(
        margot::shard_content_hash(knowledge.points().iter().enumerate()),
        0x2514_0d34_0ff2_ebf5
    );
    assert_eq!(fleet.canonical_ops().len(), 1819);
}

#[test]
fn repeated_distributed_runs_are_reproducible() {
    let enhanced = quick_enhanced(App::TwoMm);
    let run = || {
        let mut fleet =
            DistributedFleet::new(dist_config(gossip(2)), &enhanced).expect("valid config");
        fleet.spawn(&Rank::throughput_per_watt2(), SEED, 4);
        fleet.run_until(4.0);
        fleet.drain().expect("ideal link drains");
        (
            (0..4).map(|id| fleet.trace(id)).collect::<Vec<_>>(),
            fleet.node_knowledge(0),
            fleet.stats().net,
        )
    };
    assert_eq!(run(), run());
}
