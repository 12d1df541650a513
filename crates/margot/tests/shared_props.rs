//! Property tests of the sharded [`margot::SharedKnowledge`]:
//!
//! 1. **Epoch iff change** — the global epoch, and the epoch of the
//!    published config's shard, advance *iff* the publish changed the
//!    effective knowledge. No spurious bumps (empty or no-op
//!    observations), no missed bumps (a changed mean that nobody's
//!    snapshot would notice).
//! 2. **Sharded == unsharded reference** — for any publish sequence,
//!    any shard count yields the same effective knowledge, the same
//!    global epoch and the same snapshot as the single-shard (one
//!    global lock) reference, whether published one by one or as
//!    barrier batches.
//! 3. **Delta == snapshot** — draining the dirty points after each
//!    batch and patching them into a cached knowledge lands exactly on
//!    the full snapshot at every intermediate step.
//! 4. **By position == by config** — `publish_at(pos, v)` is
//!    `publish(config at pos, v)`, windows, epochs and drains alike.
//! 5. **Merge == the per-metric reference** — knowledge, epochs, drops
//!    and drains match an independent model that compares every
//!    metric's effective value before and after its push, non-finite
//!    values included.

use margot::{
    shard_content_hash, shard_index, Knowledge, KnowledgeDelta, Metric, MetricValues,
    OperatingPoint, SharedKnowledge,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

const POINTS: u32 = 12;

fn design() -> Knowledge<u32> {
    (0..POINTS)
        .map(|cfg| {
            OperatingPoint::new(
                cfg,
                MetricValues::new()
                    .with(Metric::exec_time(), 1.0 + f64::from(cfg))
                    .with(Metric::power(), 50.0 + f64::from(cfg)),
            )
        })
        .collect()
}

/// The bit-exact digest of the effective knowledge.
fn content_hash(shared: &SharedKnowledge<u32>) -> u64 {
    shard_content_hash(shared.knowledge().points().iter().enumerate())
}

/// One published observation: a config (sometimes unknown) and a
/// possibly empty metric bundle drawn from a tiny value set, so
/// repeated values (and thus no-op publishes against a window mean)
/// actually occur.
fn observation_strategy() -> impl Strategy<Value = (u32, MetricValues)> {
    let value = || prop::sample::select(vec![40.0f64, 60.0, 60.0, 80.0]);
    (
        0..POINTS + 2, // +2: sometimes an unknown config
        prop::option::of(value()),
        prop::option::of(value()),
    )
        .prop_map(|(cfg, time, power)| {
            let mut observed = MetricValues::new();
            if let Some(t) = time {
                observed.insert(Metric::exec_time(), t);
            }
            if let Some(p) = power {
                observed.insert(Metric::power(), p);
            }
            (cfg, observed)
        })
}

/// Like [`observation_strategy`], over three metrics (one the design
/// knowledge lacks), for a known config, with non-finite values and
/// values whose sums round differently by summation order.
fn wide_observation_strategy() -> impl Strategy<Value = (u32, MetricValues)> {
    let value = || {
        prop::option::of(prop::sample::select(vec![
            40.0f64,
            60.0,
            60.0,
            80.0,
            0.1,
            0.7,
            f64::NAN,
            f64::INFINITY,
        ]))
    };
    (0..POINTS, value(), value(), value()).prop_map(|(cfg, time, power, energy)| {
        let pairs = [
            (Metric::exec_time(), time),
            (Metric::power(), power),
            (Metric::energy(), energy),
        ];
        let observed = MetricValues::from_unvalidated(
            pairs.into_iter().filter_map(|(m, v)| v.map(|v| (m, v))),
        );
        (cfg, observed)
    })
}

/// An independent model of the shared windows that keeps the original
/// merge rule: every finite metric's effective value is compared
/// before and after its own push.
struct Reference {
    design: Knowledge<u32>,
    window: usize,
    min_observations: u64,
    /// Per position: `(metric, window samples, all-time count)`.
    windows: Vec<Vec<(Metric, VecDeque<f64>, u64)>>,
    changes: Vec<u64>,
    dropped: u64,
    dirty: BTreeSet<usize>,
}

impl Reference {
    fn new(window: usize, min_observations: u64) -> Self {
        Reference {
            design: design(),
            window,
            min_observations,
            windows: vec![Vec::new(); POINTS as usize],
            changes: vec![0; POINTS as usize],
            dropped: 0,
            dirty: BTreeSet::new(),
        }
    }

    fn learned(&self, pos: usize, metric: &Metric) -> Option<f64> {
        let (_, samples, total) = self.windows[pos].iter().find(|(m, _, _)| m == metric)?;
        if *total < self.min_observations || samples.is_empty() {
            return None;
        }
        let mean = samples.iter().fold(0.0, |sum, v| sum + v) / samples.len() as f64;
        mean.is_finite().then_some(mean)
    }

    fn effective(&self, pos: usize, metric: &Metric) -> Option<f64> {
        self.learned(pos, metric)
            .or_else(|| self.design.points()[pos].metric(metric))
    }

    fn publish(&mut self, pos: usize, observed: &MetricValues) {
        let mut changed = false;
        for (metric, value) in observed.iter() {
            if !value.is_finite() {
                self.dropped += 1;
                continue;
            }
            let before = self.effective(pos, metric);
            let windows = &mut self.windows[pos];
            let at = match windows.iter().position(|(m, _, _)| m == metric) {
                Some(at) => at,
                None => {
                    windows.push((metric.clone(), VecDeque::new(), 0));
                    windows.len() - 1
                }
            };
            let (_, samples, total) = &mut windows[at];
            if samples.len() == self.window {
                samples.pop_front();
            }
            samples.push_back(value);
            *total += 1;
            changed |= before != self.effective(pos, metric);
        }
        if changed {
            self.changes[pos] += 1;
            self.dirty.insert(pos);
        }
    }

    fn point(&self, pos: usize) -> OperatingPoint<u32> {
        let design = &self.design.points()[pos];
        let mut metrics = design.metrics.clone();
        for (metric, _, _) in &self.windows[pos] {
            if let Some(mean) = self.learned(pos, metric) {
                metrics.insert(metric.clone(), mean);
            }
        }
        OperatingPoint::new(design.config, metrics)
    }

    fn knowledge(&self) -> Knowledge<u32> {
        (0..POINTS as usize).map(|pos| self.point(pos)).collect()
    }

    fn drain(&mut self) -> Vec<(usize, OperatingPoint<u32>)> {
        std::mem::take(&mut self.dirty)
            .into_iter()
            .map(|pos| (pos, self.point(pos)))
            .collect()
    }
}

proptest! {
    #[test]
    fn publish_at_is_publish_by_config(
        observations in prop::collection::vec(wide_observation_strategy(), 0..48),
        window in 1usize..5,
        shards in 1usize..6,
        drain_every in 1usize..7,
    ) {
        let by_config = SharedKnowledge::new(design(), window).with_shards(shards);
        let by_position = SharedKnowledge::new(design(), window).with_shards(shards);
        for (i, (config, observed)) in observations.iter().enumerate() {
            let pos = by_position.position_of(config).expect("a design config");
            prop_assert_eq!(by_config.publish(config, observed), true);
            prop_assert_eq!(by_position.publish_at(pos, observed), true);
            if i % drain_every == 0 {
                prop_assert_eq!(by_config.drain_changes(), by_position.drain_changes());
            }
        }
        prop_assert!(!by_position.publish_at(POINTS as usize, &MetricValues::new()));
        prop_assert_eq!(by_config.knowledge(), by_position.knowledge());
        prop_assert_eq!(content_hash(&by_config), content_hash(&by_position));
        prop_assert_eq!(by_config.epoch(), by_position.epoch());
        for s in 0..by_config.shard_count() {
            prop_assert_eq!(by_config.shard_epoch(s), by_position.shard_epoch(s));
        }
        prop_assert_eq!(by_config.dropped_observations(), by_position.dropped_observations());
        for pos in 0..POINTS as usize {
            prop_assert_eq!(by_config.point_state(pos), by_position.point_state(pos));
        }
    }

    #[test]
    fn merge_matches_the_per_metric_reference(
        observations in prop::collection::vec(wide_observation_strategy(), 0..64),
        window in 1usize..5,
        min_observations in 1u64..4,
        shards in 1usize..6,
        drain_every in 1usize..7,
    ) {
        let shared = SharedKnowledge::new(design(), window)
            .with_min_observations(min_observations)
            .with_shards(shards);
        let mut reference = Reference::new(window, min_observations);
        for (i, (config, observed)) in observations.iter().enumerate() {
            shared.publish(config, observed);
            reference.publish(*config as usize, observed);
            if i % drain_every == 0 {
                prop_assert_eq!(shared.drain_changes().1, reference.drain());
            }
        }
        prop_assert_eq!(shared.knowledge(), reference.knowledge());
        prop_assert_eq!(shared.epoch(), reference.changes.iter().sum::<u64>());
        for s in 0..shared.shard_count() {
            let expected: u64 = (0..POINTS)
                .filter(|cfg| shard_index(cfg, shared.shard_count()) == s)
                .map(|cfg| reference.changes[cfg as usize])
                .sum();
            prop_assert_eq!(shared.shard_epoch(s), expected, "shard {}", s);
        }
        prop_assert_eq!(shared.dropped_observations(), reference.dropped);
        prop_assert_eq!(shared.drain_changes().1, reference.drain());
    }

    #[test]
    fn epoch_advances_iff_the_effective_knowledge_changed(
        observations in prop::collection::vec(observation_strategy(), 1..48),
        window in 1usize..5,
        min_observations in 1u64..4,
        shards in 1usize..6,
    ) {
        let shared = SharedKnowledge::new(design(), window)
            .with_min_observations(min_observations)
            .with_shards(shards);
        for (config, observed) in &observations {
            let before_epoch = shared.epoch();
            let before_shard_epochs: Vec<u64> =
                (0..shared.shard_count()).map(|s| shared.shard_epoch(s)).collect();
            let before = shared.knowledge();
            let accepted = shared.publish(config, observed);
            let after = shared.knowledge();
            let changed = before != after;
            prop_assert_eq!(accepted, *config < POINTS);
            prop_assert_eq!(
                shared.epoch() > before_epoch,
                changed,
                "global epoch must move iff the effective knowledge changed"
            );
            for (s, &before_shard) in before_shard_epochs.iter().enumerate() {
                let expect_bump = changed && shard_index(config, shared.shard_count()) == s;
                prop_assert_eq!(
                    shared.shard_epoch(s) > before_shard,
                    expect_bump,
                    "shard {} epoch moved unexpectedly",
                    s
                );
            }
        }
    }

    #[test]
    fn sharded_publishes_match_the_unsharded_reference(
        observations in prop::collection::vec(observation_strategy(), 0..48),
        window in 1usize..5,
        shards in 2usize..8,
        batch_size in 1usize..7,
    ) {
        let sharded = SharedKnowledge::new(design(), window).with_shards(shards);
        let batched = SharedKnowledge::new(design(), window).with_shards(shards);
        let reference = SharedKnowledge::new(design(), window).with_shards(1);
        for (config, observed) in &observations {
            sharded.publish(config, observed);
            reference.publish(config, observed);
        }
        // The batched twin merges the same sequence as barrier-style
        // chunks: grouped by shard under one lock, in sequence order.
        for chunk in observations.chunks(batch_size) {
            batched.publish_batch(chunk.iter().map(|(c, m)| (c, m)));
        }
        let (epoch_s, k_s) = sharded.snapshot();
        let (epoch_b, k_b) = batched.snapshot();
        let (epoch_r, k_r) = reference.snapshot();
        prop_assert_eq!(&k_s, &k_r, "sharded knowledge != unsharded reference");
        prop_assert_eq!(&k_b, &k_r, "batched knowledge != unsharded reference");
        prop_assert_eq!(epoch_s, epoch_r);
        prop_assert_eq!(epoch_b, epoch_r);
        prop_assert_eq!(
            (0..sharded.shard_count()).map(|s| sharded.shard_epoch(s)).sum::<u64>(),
            epoch_r,
            "shard epochs must partition the global epoch"
        );
        prop_assert_eq!(sharded.observed_points(), reference.observed_points());
    }

    #[test]
    fn drained_deltas_track_the_snapshot_exactly(
        observations in prop::collection::vec(observation_strategy(), 0..48),
        window in 1usize..5,
        shards in 1usize..6,
        batch_size in 1usize..7,
    ) {
        let shared = SharedKnowledge::new(design(), window).with_shards(shards);
        let mut cache = shared.knowledge();
        let mut cache_epoch = shared.epoch();
        for chunk in observations.chunks(batch_size) {
            shared.publish_batch(chunk.iter().map(|(c, m)| (c, m)));
            let (to_epoch, changed) = shared.drain_changes();
            let delta = KnowledgeDelta {
                from_epoch: cache_epoch,
                to_epoch,
                changed,
            };
            prop_assert!(delta.apply_to(&mut cache));
            cache_epoch = delta.to_epoch;
            let (epoch, snapshot) = shared.snapshot();
            prop_assert_eq!(&cache, &snapshot, "patched cache diverged from the snapshot");
            prop_assert_eq!(cache_epoch, epoch);
        }
        prop_assert!(
            shared.drain_changes().1.is_empty(),
            "every dirty point was drained"
        );
    }
}
