//! Property-based convergence tests of the distributed knowledge
//! exchange: **any** seeded sequence of drops, reorders (latency
//! jitter) and duplicates must still converge — once the links drain
//! — to the canonical single-shard [`margot::SharedKnowledge`]
//! reference fed the same observations in `(round, origin)` order;
//! and a late-joining instance must catch up exactly.
//!
//! A replica's anti-entropy retransmission set is exactly what a
//! peer's summary provably lacks: every logged observation at or above
//! the peer's watermark for its origin, in canonical order.
//!
//! The enhanced application is built once and shared across cases
//! (its design knowledge subsampled so the AS-RTM planning cost does
//! not drown the exchange being tested); every case derives its whole
//! schedule — loss, latency, duplication, fanout, churn — from the
//! proptest-generated parameters, so failures replay deterministically.

use margot::{Knowledge, Metric, MetricValues, Rank, SharedKnowledge};
use polybench::{App, Dataset};
use proptest::prelude::*;
use socrates::transport::{Observation, Replica};
use socrates::{
    DistTopology, DistributedConfig, DistributedFleet, EnhancedApp, FleetConfig, FleetRuntime,
    LinkConfig, Toolchain,
};
use std::sync::OnceLock;

/// Points kept from the design knowledge (the version table is keyed
/// by (CO, BP) and stays complete, so every kept point dispatches).
const KNOWLEDGE_POINTS: usize = 48;

fn enhanced() -> &'static EnhancedApp {
    static ENHANCED: OnceLock<EnhancedApp> = OnceLock::new();
    ENHANCED.get_or_init(|| {
        let mut enhanced = Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            ..Toolchain::default()
        }
        .enhance(App::TwoMm)
        .expect("enhance 2mm");
        let points = enhanced.knowledge.points();
        let stride = (points.len() / KNOWLEDGE_POINTS).max(1);
        enhanced.knowledge = points
            .iter()
            .step_by(stride)
            .take(KNOWLEDGE_POINTS)
            .cloned()
            .collect::<Knowledge<_>>();
        enhanced
    })
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    nodes: usize,
    rounds: usize,
    drop_prob: f64,
    dup_prob: f64,
    max_latency: u64,
    gossip_fanout: usize,
    sync_interval: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        2usize..5,
        2usize..9,
        0.0f64..0.7,
        0.0f64..0.3,
        0u64..4,
        1usize..5,
        1u64..5,
    )
        .prop_map(
            |(
                seed,
                nodes,
                rounds,
                drop_prob,
                dup_prob,
                max_latency,
                gossip_fanout,
                sync_interval,
            )| {
                Scenario {
                    seed,
                    nodes,
                    rounds,
                    drop_prob,
                    dup_prob,
                    max_latency,
                    gossip_fanout,
                    sync_interval,
                }
            },
        )
}

fn build_fleet(s: &Scenario) -> DistributedFleet {
    let config = FleetConfig {
        exploration_interval: 0,
        distributed: Some(DistributedConfig {
            topology: DistTopology::Gossip {
                fanout: s.gossip_fanout,
            },
            link: LinkConfig {
                seed: s.seed,
                min_latency: 0,
                max_latency: s.max_latency,
                drop_prob: s.drop_prob,
                dup_prob: s.dup_prob,
            },
            sync_interval: s.sync_interval,
            max_drain_rounds: 50_000,
        }),
        ..FleetConfig::default()
    };
    DistributedFleet::new(config, enhanced()).expect("valid scenario config")
}

/// Folds the fleet's canonical observation log into a single-shard
/// [`SharedKnowledge`] — the in-process reference every
/// reconciliation path must land on.
fn reference_fold(fleet: &DistributedFleet) -> Knowledge<platform_sim::KnobConfig> {
    let config = fleet.config();
    let reference = SharedKnowledge::new(enhanced().knowledge.clone(), config.knowledge_window)
        .with_min_observations(config.min_observations)
        .with_shards(1);
    for op in fleet.canonical_ops() {
        reference.publish(&op.config, &op.observed);
    }
    reference.knowledge()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the link does — drop, delay, reorder, duplicate —
    /// once the links drain, every node holds the same effective
    /// knowledge and epoch vector, equal to the canonical
    /// single-shard fold of all observations.
    #[test]
    fn any_seeded_loss_schedule_converges_to_the_reference(s in scenario_strategy()) {
        let mut fleet = build_fleet(&s);
        fleet.spawn(&Rank::throughput_per_watt2(), s.seed ^ 0xf1ee7, s.nodes);
        fleet.run_events(s.rounds as u64);
        fleet.drain().expect("any drop_prob < 1 must drain");
        prop_assert!(fleet.converged());
        // Every node made every round (nothing lost from the log):
        // summaries retransmit whatever a peer lacks.
        prop_assert_eq!(fleet.canonical_ops().len(), s.nodes * s.rounds);
        let reference = reference_fold(&fleet);
        let vector0 = fleet.epoch_vector(0);
        for id in 0..s.nodes {
            prop_assert_eq!(
                fleet.node_knowledge(id),
                reference.clone(),
                "node {} diverged from the single-shard reference",
                id
            );
            prop_assert_eq!(
                fleet.epoch_vector(id),
                vector0.clone(),
                "node {} epoch vector diverged",
                id
            );
        }
    }

    /// A node joining mid-run folds a peer's log and catches up via
    /// gossip: after drain it holds exactly the fleet's knowledge.
    #[test]
    fn late_joiner_catches_up_exactly(s in scenario_strategy(), join_after in 1usize..5) {
        let mut fleet = build_fleet(&s);
        fleet.spawn(&Rank::throughput_per_watt2(), s.seed ^ 0x101, s.nodes);
        let join_after = join_after.min(s.rounds);
        fleet.run_events(join_after as u64);
        let late = fleet.add_instance(
            Rank::throughput_per_watt2(),
            enhanced().platform.machine(s.seed ^ 0xbeef),
        );
        fleet.run_events((s.rounds - join_after) as u64);
        fleet.drain().expect("any drop_prob < 1 must drain");
        prop_assert!(fleet.converged());
        let reference = reference_fold(&fleet);
        prop_assert_eq!(
            fleet.node_knowledge(late),
            reference,
            "the late joiner must land exactly on the reference fold"
        );
        prop_assert_eq!(fleet.epoch_vector(late), fleet.epoch_vector(0));
    }

    /// The replica's fold is a pure function of the *set* of logged
    /// observations (plus design knowledge and warm seed): any arrival
    /// order — including orders that roll points back to their saved
    /// states — lands on exactly the canonical in-order fold, knowledge
    /// and epoch vector alike. Re-delivering observations the fold
    /// already covers must be a no-op: no pending work, no extra
    /// rollback.
    #[test]
    fn replica_fold_is_arrival_order_independent(
        seed in any::<u64>(),
        warm in any::<bool>(),
        fold_stride in 1usize..7,
    ) {
        let design = enhanced().knowledge.clone();
        let configs = design.points();
        // 64 deterministic observations (4 origins × 16 rounds) spread
        // over the design points.
        let ops: Vec<Observation> = (0..16u64)
            .flat_map(|round| (0..4u32).map(move |origin| (round, origin)))
            .map(|(round, origin)| {
                let p = &configs[(round as usize * 7 + origin as usize) % configs.len()];
                Observation {
                    origin,
                    seq: round,
                    round,
                    config: p.config.clone(),
                    observed: MetricValues::from_execution(
                        0.05 + (round as f64).mul_add(0.003, origin as f64 * 0.011),
                        60.0 + round as f64,
                    ),
                }
            })
            .collect();
        let build = || {
            let replica = Replica::new(design.clone(), 4, 1, 4);
            if warm {
                let seed_knowledge: Knowledge<platform_sim::KnobConfig> =
                    configs.iter().take(10).cloned().collect();
                replica.with_warm_seed(seed_knowledge, 3)
            } else {
                replica
            }
        };

        // Reference: canonical (round, origin) order, one fold.
        let mut reference = build();
        for op in &ops {
            prop_assert!(reference.insert(op.clone()));
        }
        reference.fold_pending();

        // Shuffled arrival with interleaved folds and duplicates.
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|i| {
            (seed ^ (*i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        });
        let mut replica = build();
        for (n, &i) in order.iter().enumerate() {
            prop_assert!(replica.insert(ops[i].clone()));
            if n % 5 == 4 {
                // Duplicate of an earlier delivery merges idempotently.
                prop_assert!(!replica.insert(ops[order[n / 2]].clone()));
            }
            if n % fold_stride == 0 {
                replica.fold_pending();
            }
        }
        replica.fold_pending();

        // Re-deliver the first half of the log once more: every insert
        // is a duplicate, nothing becomes pending, and no rollback is
        // charged.
        let refolds_before = replica.refolds();
        for op in ops.iter().take(ops.len() / 2) {
            prop_assert!(!replica.insert(op.clone()));
        }
        prop_assert!(!replica.pending(), "duplicates must not dirty the fold");
        prop_assert_eq!(replica.refolds(), refolds_before);

        prop_assert_eq!(replica.knowledge(), reference.knowledge());
        prop_assert_eq!(replica.shard_epochs(), reference.shard_epochs());
        prop_assert_eq!(replica.epoch(), reference.epoch());
    }
}

/// Design positions the differential test's observations land on: few
/// enough that points collect more than one saved state's worth of
/// observations, so rollbacks restore saved states past the boot one.
const HOT_POINTS: [usize; 6] = [0, 7, 13, 21, 30, 47];

/// The measured values of a generated observation: mostly finite, with
/// a few that are repeated (publishes that move no mean) and a few
/// non-finite (dropped and counted at publish).
fn generated_values(selector: u32) -> MetricValues {
    let power = match selector {
        0 => f64::NAN,
        1 => f64::INFINITY,
        s => 50.0 + f64::from(s % 4) * 5.0,
    };
    let time = if selector == 2 {
        f64::NEG_INFINITY
    } else {
        0.05 + f64::from(selector) * 0.01
    };
    MetricValues::from_unvalidated([(Metric::exec_time(), time), (Metric::power(), power)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential check of the per-point rollback fold against the
    /// plain in-order fold: whatever the arrival order — duplicates,
    /// folds interleaved anywhere, warm seed on or off, non-finite
    /// values — a replica ends on exactly the knowledge, epoch and
    /// shard epochs of a [`SharedKnowledge`] with the same shard count
    /// fed every observation once in canonical `(round, origin)` order.
    /// Along the way, patching the previous `knowledge()` with each
    /// `take_changes()` reproduces the new one exactly.
    #[test]
    fn replica_matches_the_canonical_shared_knowledge_fold(
        cells in prop::collection::vec(
            (0u64..12, 0u32..4, 0usize..HOT_POINTS.len(), 0u32..9, any::<u64>()),
            1..150,
        ),
        warm in any::<bool>(),
        shards in 1usize..6,
        // Past the window of 4, the all-time totals gate the override.
        min_observations in 1u64..7,
        fold_every in 1usize..9,
        dup_every in 2usize..7,
    ) {
        let design = enhanced().knowledge.clone();
        // One observation per (round, origin); seq numbers follow each
        // origin's rounds.
        let mut ops: Vec<(Observation, u64)> = Vec::new();
        for &(round, origin, point, selector, shuffle) in &cells {
            if ops.iter().any(|(op, _)| op.op_id() == (round, origin)) {
                continue;
            }
            ops.push((
                Observation {
                    origin,
                    seq: 0,
                    round,
                    config: design.points()[HOT_POINTS[point]].config.clone(),
                    observed: generated_values(selector),
                },
                shuffle,
            ));
        }
        ops.sort_by_key(|(op, _)| op.op_id());
        for origin in 0..4 {
            for (seq, (op, _)) in ops.iter_mut().filter(|(op, _)| op.origin == origin).enumerate() {
                op.seq = seq as u64;
            }
        }
        let seed: Knowledge<platform_sim::KnobConfig> = design
            .points()
            .iter()
            .take(10)
            .map(|p| {
                let mut p = p.clone();
                let power = p.metric(&Metric::power()).unwrap_or(50.0) * 1.1;
                p.metrics.insert(Metric::power(), power);
                p
            })
            .collect();

        // Reference: the plain fold, canonical order, each op once.
        let reference = SharedKnowledge::new(design.clone(), 4)
            .with_min_observations(min_observations)
            .with_shards(shards);
        if warm {
            reference.seed_observations(&seed, 3);
        }
        for (op, _) in &ops {
            reference.publish(&op.config, &op.observed);
        }

        let mut replica = Replica::new(design.clone(), 4, min_observations, shards);
        if warm {
            replica = replica.with_warm_seed(seed, 3);
        }
        let mut arrival: Vec<&(Observation, u64)> = ops.iter().collect();
        arrival.sort_by_key(|(op, shuffle)| (*shuffle, op.op_id()));
        // What a consumer of take_changes holds: the design knowledge
        // before the first call (the warm seed's moves come in it).
        let mut known = design.clone();
        let mut taken_epoch = 0;
        for (n, (op, _)) in arrival.iter().enumerate() {
            prop_assert!(replica.insert(op.clone()));
            if n % dup_every == dup_every - 1 {
                let (earlier, _) = arrival[n / 2];
                prop_assert!(replica.contains(earlier.op_id()));
                prop_assert!(!replica.insert(earlier.clone()), "duplicates merge idempotently");
            }
            if n % fold_every == 0 {
                replica.fold_pending();
                prop_assert!(!replica.pending());
                let delta = replica.take_changes();
                prop_assert_eq!(delta.from_epoch, taken_epoch);
                prop_assert_eq!(delta.to_epoch, replica.epoch());
                taken_epoch = delta.to_epoch;
                prop_assert!(delta.apply_to(&mut known));
                prop_assert_eq!(&known, &replica.knowledge(), "take_changes missed a point");
            }
        }
        replica.fold_pending();
        prop_assert!(!replica.pending());
        let delta = replica.take_changes();
        prop_assert!(delta.apply_to(&mut known));

        prop_assert_eq!(replica.len(), ops.len());
        prop_assert_eq!(replica.knowledge(), reference.knowledge());
        prop_assert_eq!(&known, &reference.knowledge());
        prop_assert_eq!(replica.epoch(), reference.epoch());
        let reference_epochs: Vec<u64> =
            (0..reference.shard_count()).map(|s| reference.shard_epoch(s)).collect();
        prop_assert_eq!(replica.shard_epochs(), reference_epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `missing_for` returns exactly the logged observations whose
    /// sequence number is at or above the watermark the summary gives
    /// their origin (the last one it gives; an origin the summary does
    /// not name counts from 0), in `(round, origin)` order. The logs
    /// have gaps (sequence numbers never delivered) and duplicates
    /// (deliveries the log already holds); an origin's rounds rise with
    /// its sequence numbers, as a node's own counter does, and origins
    /// share rounds, so the order breaks ties by origin.
    #[test]
    fn missing_for_is_the_log_at_or_above_each_watermark(
        deliveries in prop::collection::vec((0u32..5, 0u64..12, 0usize..KNOWLEDGE_POINTS), 0..80),
        counts in prop::collection::vec((0u32..7, 0u64..14), 0..9),
    ) {
        let design = enhanced().knowledge.clone();
        let mut replica = Replica::new(design.clone(), 4, 1, 3);
        for &(origin, seq, point) in &deliveries {
            let op = Observation {
                origin,
                seq,
                round: 2 * seq + u64::from(origin % 2),
                config: design.points()[point % design.len()].config.clone(),
                observed: MetricValues::from_execution(0.05 + seq as f64 * 0.01, 60.0),
            };
            let fresh = !replica.contains(op.op_id());
            prop_assert_eq!(replica.insert(op), fresh);
        }
        let watermark = |origin| {
            counts
                .iter()
                .rev()
                .find(|&&(node, _)| node == origin)
                .map_or(0, |&(_, count)| count)
        };
        let expected: Vec<&Observation> = replica
            .ops()
            .filter(|op| op.seq >= watermark(op.origin))
            .collect();
        prop_assert_eq!(replica.missing_for(&counts), expected);
    }
}
