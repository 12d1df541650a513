//! Fleet determinism: a lockstep fleet's traces and learned knowledge
//! are pinned to digests of the serial reference.
//!
//! A round steps the instances one after another in instance order,
//! and every knowledge merge and exploration update happens at the
//! round barrier in instance order. The expected trace and knowledge
//! digests are those of that serial reference. CI still re-runs this
//! file under forced `RAYON_NUM_THREADS` values (1, 2, 8): the fleet
//! steps on one thread, but the toolchain that builds its apps
//! profiles them in parallel.

use margot::{Knowledge, Metric, Rank};
use platform_sim::KnobConfig;
use polybench::{App, Dataset};
use socrates::{trace_digest, EnhancedApp, Fleet, FleetConfig, FleetRuntime, Toolchain};

fn quick_enhanced(app: App) -> EnhancedApp {
    // Medium keeps kernel invocations ~50 ms of virtual time, so a
    // 10-virtual-second fleet run is a few hundred rounds, not tens of
    // thousands (Small kernels run in under a millisecond).
    Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(app)
    .unwrap()
}

fn build_fleet(knowledge_shards: usize, enhanced: &EnhancedApp) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig {
        exploration_interval: 2,
        knowledge_shards,
        ..FleetConfig::default()
    })
    .expect("valid fleet config");
    fleet.spawn(enhanced, &Rank::throughput_per_watt2(), 2018, 8);
    fleet
        .set_power_budget(Some(8.0 * 85.0))
        .expect("valid power budget");
    fleet
}

fn trace_digests(fleet: &Fleet) -> Vec<u64> {
    (0..fleet.len())
        .map(|id| trace_digest(&fleet.trace(id)))
        .collect()
}

/// Order-sensitive content digest of a knowledge base.
fn knowledge_digest(k: &Knowledge<KnobConfig>) -> u64 {
    margot::shard_content_hash(k.points().iter().enumerate())
}

#[test]
fn parallel_fleet_is_bit_identical_to_serial_reference() {
    let enhanced = quick_enhanced(App::TwoMm);
    let mut fleet = build_fleet(margot::DEFAULT_SHARDS, &enhanced);
    fleet.run_until(10.0);
    assert_eq!(fleet.rounds(), 440);
    assert_eq!(
        trace_digests(&fleet),
        [
            0x6ac4_8ada_ff5d_2050,
            0xa3fb_1592_65a5_98cc,
            0xe0f3_9aa2_dbfa_36b9,
            0x7f61_f2bb_9f2a_4e0b,
            0x5ac1_3aab_6f81_d76d,
            0x3994_e772_6d84_1941,
            0x2b70_586a_7928_edbe,
            0x4ba6_0136_96f8_9a15,
        ],
        "parallel traces != serial reference"
    );
    assert_eq!(fleet.knowledge_epoch(App::TwoMm), Some(3352));
    assert_eq!(
        knowledge_digest(&fleet.learned_knowledge(App::TwoMm).unwrap()),
        0x73f0_cea1_6723_d8f9,
        "final shared knowledge must be identical"
    );
    assert_eq!(fleet.exploration_coverage(App::TwoMm), Some((512, 512)));
}

#[test]
fn repeated_runs_are_reproducible() {
    let enhanced = quick_enhanced(App::TwoMm);
    let mut a = build_fleet(margot::DEFAULT_SHARDS, &enhanced);
    let mut b = build_fleet(margot::DEFAULT_SHARDS, &enhanced);
    a.run_until(5.0);
    b.run_until(5.0);
    for id in 0..8 {
        assert_eq!(a.trace(id), b.trace(id), "instance {id} diverged");
    }
    assert_eq!(
        a.learned_knowledge(App::TwoMm),
        b.learned_knowledge(App::TwoMm)
    );
}

#[test]
fn sharded_incremental_path_matches_the_single_mutex_reference() {
    // The default path (16 knowledge shards + batched barrier merge +
    // incremental cache/delta adoption) must be bit-identical to the
    // single-shard, full-rebuild/full-clone reference, whose output is
    // pinned below.
    let enhanced = quick_enhanced(App::TwoMm);
    let run = |knowledge_shards: usize| {
        let mut fleet = build_fleet(knowledge_shards, &enhanced);
        fleet.run_until(6.0);
        (
            trace_digests(&fleet),
            knowledge_digest(&fleet.learned_knowledge(App::TwoMm).unwrap()),
            fleet.knowledge_epoch(App::TwoMm).unwrap(),
            fleet.exploration_coverage(App::TwoMm).unwrap(),
        )
    };
    let reference = (
        vec![
            0x4645_567f_a0ef_e13e,
            0x6e52_9842_af2b_f739,
            0x501f_7a13_87a5_c676,
            0xe872_7a56_6118_0442,
            0xf086_6f4f_62fa_64dc,
            0xcb8f_41f0_d8a6_aa5b,
            0x9256_3629_9173_ab1b,
            0xfc09_4c36_c15d_0cd1,
        ],
        0x1e49_c43d_b576_1499,
        1920,
        (512, 512),
    );
    assert_eq!(run(margot::DEFAULT_SHARDS), reference, "sharded diverged");
    assert_eq!(run(1), reference, "single shard diverged");
}

#[test]
fn membership_changes_mid_run_stay_deterministic() {
    let enhanced = quick_enhanced(App::TwoMm);
    let mut fleet = build_fleet(margot::DEFAULT_SHARDS, &enhanced);
    fleet.run_until(3.0);
    fleet.retire_instance(2);
    fleet.add_instance(
        enhanced.clone(),
        Rank::minimize(Metric::exec_time()),
        enhanced.platform.machine(4242),
    );
    fleet.run_until(6.0);
    assert_eq!(
        trace_digests(&fleet),
        [
            0x0949_08c5_a3b9_d1ff,
            0x2d84_0daa_6f11_0fb8,
            0x67b0_c34d_6aa9_682b,
            0x46ee_1b2d_0ab2_f4bc,
            0x4a63_818c_e4d6_05ab,
            0xf01e_29c9_d6db_2b0d,
            0xa4d5_0cc1_ab71_b02f,
            0xffff_1c9f_c3ff_ee4e,
            0xcbdd_c831_2950_a0e7,
        ]
    );
    assert_eq!(
        knowledge_digest(&fleet.learned_knowledge(App::TwoMm).unwrap()),
        0x85ad_59f0_0091_e61c
    );
}
