//! Equivalence and determinism guarantees of the event-driven fleet
//! runtime:
//!
//! 1. **Replay**: any seeded arrival/retire/publish schedule — curve
//!    shape, rate and churn all proptest-generated — replays
//!    bit-identically from its seed (same event digest, same stats,
//!    same learned knowledge).
//! 2. **Churn**: instance handles are never reused, however heavy the
//!    join/retire traffic, while the slot pool stays bounded by the
//!    peak live count.
//! 3. **Lockstep**: the unified [`FleetRuntime`] surface over
//!    `Schedule::Lockstep` is bit-identical to the retired per-instance
//!    round loop on **every** polybench application (its trace digests
//!    are pinned).
//! 4. **Pinned event runs**: a seeded diurnal 2mm run, with and
//!    without a power budget, reproduces recorded constants (event
//!    digest, counters, knowledge epoch, learned-knowledge hash), so a
//!    change to the merge-on-publish path cannot drift unnoticed.
//!
//! CI re-runs this file under forced `RAYON_NUM_THREADS` values
//! (1, 2, 8): the runtimes step on one thread, but the toolchain that
//! builds their apps profiles them in parallel.

use margot::Rank;
use polybench::{App, Dataset};
use proptest::prelude::*;
use socrates::{
    trace_digest, EnhancedApp, EventFleet, Fleet, FleetConfig, FleetRuntime, Schedule, Toolchain,
    WorkloadCurve, WorkloadTrace,
};
use std::collections::HashSet;
use std::sync::OnceLock;

fn quick_enhanced(app: App) -> EnhancedApp {
    Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(app)
    .expect("toolchain")
}

/// The enhanced app shared across proptest cases (enhancing once, not
/// per case, keeps the suite seconds, not minutes).
fn enhanced() -> &'static EnhancedApp {
    static ENHANCED: OnceLock<EnhancedApp> = OnceLock::new();
    ENHANCED.get_or_init(|| quick_enhanced(App::TwoMm))
}

fn event_config() -> FleetConfig {
    FleetConfig::builder()
        .schedule(Schedule::EventDriven)
        .build()
        .expect("valid fleet config")
}

#[derive(Debug, Clone)]
struct TraceCase {
    seed: u64,
    horizon_s: f64,
    base_rate_hz: f64,
    mean_lifetime_s: f64,
    curve: WorkloadCurve,
    budget_w: Option<f64>,
}

fn curve_strategy() -> impl Strategy<Value = WorkloadCurve> {
    prop_oneof![
        Just(WorkloadCurve::Constant),
        (2.0f64..20.0, 0.0f64..1.0).prop_map(|(period_s, amplitude)| WorkloadCurve::Diurnal {
            period_s,
            amplitude,
        }),
        (0.0f64..6.0, 0.5f64..4.0, 1.0f64..6.0).prop_map(|(at_s, duration_s, multiplier)| {
            WorkloadCurve::FlashCrowd {
                at_s,
                duration_s,
                multiplier,
            }
        }),
    ]
}

fn trace_case_strategy() -> impl Strategy<Value = TraceCase> {
    (
        any::<u64>(),
        3.0f64..8.0,
        0.5f64..3.0,
        0.5f64..5.0,
        curve_strategy(),
        prop::option::of(100.0f64..1000.0),
    )
        .prop_map(
            |(seed, horizon_s, base_rate_hz, mean_lifetime_s, curve, budget_w)| TraceCase {
                seed,
                horizon_s,
                base_rate_hz,
                mean_lifetime_s,
                curve,
                budget_w,
            },
        )
}

/// One full event run over the case's workload trace; returns every
/// observable the replay property compares.
fn run_case(case: &TraceCase) -> (u64, u64, socrates::EventFleetStats, Option<u64>) {
    let trace = WorkloadTrace {
        seed: case.seed,
        horizon_s: case.horizon_s,
        base_rate_hz: case.base_rate_hz,
        mean_lifetime_s: case.mean_lifetime_s,
        curve: case.curve,
    };
    let mut fleet = EventFleet::new(event_config()).expect("valid fleet config");
    fleet
        .set_power_budget(case.budget_w)
        .expect("valid power budget");
    fleet
        .drive(&trace, enhanced(), &Rank::throughput_per_watt2())
        .expect("valid trace");
    fleet.run_until(case.horizon_s + 2.0);
    (
        fleet.event_digest(),
        fleet.events_processed(),
        fleet.stats(),
        fleet.knowledge_epoch(App::TwoMm),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the schedule — curve shape, arrival rate, lifetimes,
    /// power budget, churn — an event run is a pure function of its
    /// seed: re-running the same trace reproduces the same event
    /// stream bit for bit.
    #[test]
    fn seeded_event_schedules_replay_bit_identically(case in trace_case_strategy()) {
        let first = run_case(&case);
        let second = run_case(&case);
        prop_assert_eq!(&first, &second);
        // The digest folds every event's action, time and id — a
        // single reordered or perturbed event would flip it.
        prop_assert!(first.1 > 0, "the trace scheduled no events");
    }
}

/// Replays a churn-heavy join/retire trace against the sparse pool:
/// every handle handed out is distinct forever (a retired instance's
/// handle never aliases a later joiner), while the slot pool itself
/// stays bounded by the peak live count. Regression test for the
/// id-reuse bug class the generational slab exists to kill.
#[test]
fn churn_replay_never_reuses_handles() {
    let enhanced = enhanced();
    let rank = Rank::throughput_per_watt2();
    let mut fleet = EventFleet::new(event_config()).expect("valid fleet config");

    let mut issued = HashSet::new();
    let mut retired = Vec::new();
    let mut live = Vec::new();
    let mut peak_live = 0usize;
    // 12 waves of join/run/retire churn, retiring from alternating
    // ends so slot reuse interleaves with fresh allocation.
    for wave in 0..12u64 {
        let joiners = 2 + (wave % 3) as usize;
        for id in fleet.spawn(enhanced, &rank, 42, joiners) {
            assert!(
                issued.insert(id.raw()),
                "handle {id} was issued twice (wave {wave})"
            );
            live.push(id);
        }
        peak_live = peak_live.max(live.len());
        fleet.run_until(fleet.virtual_now_s() + 0.5);
        let drop_n = (wave % 2 + 1) as usize;
        for _ in 0..drop_n.min(live.len()) {
            let id = if wave % 2 == 0 {
                live.remove(0)
            } else {
                live.pop().expect("non-empty")
            };
            assert!(fleet.retire(id), "live handle {id} must retire");
            retired.push(id);
        }
        // Stale handles stay dead forever: re-retiring is a no-op,
        // and no stale handle ever reports live again.
        for id in &retired {
            assert!(!fleet.is_live(*id), "retired handle {id} came back");
            assert!(!fleet.retire(*id), "stale retire of {id} claimed success");
        }
    }
    let stats = fleet.stats();
    assert_eq!(stats.spawned as usize, issued.len());
    assert_eq!(stats.retired as usize, retired.len());
    assert!(
        stats.slots <= peak_live,
        "slot pool grew past the peak live count: {} slots > {} peak",
        stats.slots,
        peak_live
    );
    assert!(
        stats.slots < issued.len(),
        "no slot was ever reused across {} spawns",
        issued.len()
    );
}

fn unified_run(enhanced: &EnhancedApp, horizon_s: f64) -> Vec<u64> {
    let mut fleet = Fleet::new(FleetConfig::default()).expect("valid fleet config");
    fleet.spawn(enhanced, &Rank::throughput_per_watt2(), 2018, 3);
    fleet
        .set_power_budget(Some(3.0 * 90.0))
        .expect("valid power budget");
    fleet.run_until(horizon_s);
    (0..3).map(|id| trace_digest(&fleet.trace(id))).collect()
}

/// Per-instance trace digests of the retired `run_for(1.5)` round loop
/// over a 3-instance, 270 W fleet, one row per app in `App::ALL` order.
const LEGACY_DIGESTS: [[u64; 3]; 12] = [
    [
        0x54b0_c254_f0c6_a979,
        0x4b7b_2ad9_2aab_902a,
        0x0d00_d222_1493_fa2b,
    ],
    [
        0x874c_546f_cfb2_b74d,
        0x57eb_57e8_cc3f_7d17,
        0x693c_9ed0_96b6_048b,
    ],
    [
        0x0ab3_4f46_b44e_4d4f,
        0xdb23_bb07_f7d3_ff90,
        0x3eef_a648_28c3_fc79,
    ],
    [
        0x0314_3ad1_9448_e93b,
        0x770e_1a22_e304_5849,
        0xf74c_ab46_b26f_b21d,
    ],
    [
        0x8871_8872_b3d6_c23d,
        0xcec8_214f_2659_eece,
        0xd92f_d7bb_0fc2_bf2c,
    ],
    [
        0xbf51_d566_7a30_b503,
        0xc219_5cde_89e9_0063,
        0x8b44_a31c_88de_73ae,
    ],
    [
        0x867d_e8e6_ada9_6ab7,
        0x289e_f78c_d8b1_7667,
        0x76a4_328f_5bb3_89e1,
    ],
    [
        0x732c_5ddd_4649_601e,
        0x309b_1bd1_2446_fc4a,
        0xdcd9_3f6a_7aac_4bbe,
    ],
    [
        0xb755_5c1f_5594_507b,
        0x5fdd_df09_19a5_bc8e,
        0x0c23_3bf3_ce39_e515,
    ],
    [
        0xb431_b6e6_d0c2_553c,
        0x87ec_407a_dfc2_9c31,
        0x6f91_e7a4_311f_bfc9,
    ],
    [
        0x021d_b208_7670_ff24,
        0xbae1_7c11_3188_169b,
        0x09ba_427d_5037_8f88,
    ],
    [
        0x33c6_971c_2a50_e236,
        0x5056_d3e7_8a4c_cb2c,
        0x1aea_7e13_adb4_4e77,
    ],
];

/// `Schedule::Lockstep` under the unified [`FleetRuntime`] surface is
/// the retired round loop, bit for bit, on every polybench application.
#[test]
fn lockstep_runtime_matches_legacy_step_round_on_all_apps() {
    for (app, expected) in App::ALL.into_iter().zip(LEGACY_DIGESTS) {
        let enhanced = quick_enhanced(app);
        assert_eq!(
            unified_run(&enhanced, 1.5),
            expected,
            "{app:?}: unified FleetRuntime trace != legacy round-loop trace"
        );
    }
}

/// One seeded diurnal event run of 2mm, with or without a fleet power
/// budget: the event digest, the fleet counters, the knowledge epoch
/// and a content hash of the learned knowledge.
fn diurnal_run(budget_w: Option<f64>) -> (u64, socrates::EventFleetStats, Option<u64>, u64) {
    let trace = WorkloadTrace {
        seed: 2018,
        horizon_s: 6.0,
        base_rate_hz: 2.0,
        mean_lifetime_s: 3.0,
        curve: WorkloadCurve::Diurnal {
            period_s: 6.0,
            amplitude: 0.5,
        },
    };
    let mut fleet = EventFleet::new(event_config()).expect("valid fleet config");
    fleet
        .set_power_budget(budget_w)
        .expect("valid power budget");
    fleet
        .drive(&trace, enhanced(), &Rank::throughput_per_watt2())
        .expect("valid trace");
    fleet.run_until(trace.horizon_s + 2.0);
    let learned = fleet.learned_knowledge(App::TwoMm).expect("2mm pool");
    (
        fleet.event_digest(),
        fleet.stats(),
        fleet.knowledge_epoch(App::TwoMm),
        margot::shard_content_hash(learned.points().iter().enumerate()),
    )
}

/// The event runtime's merge-on-publish path pinned to constants: a
/// seeded diurnal run reproduces the recorded event stream, fleet
/// counters, knowledge epoch and learned knowledge, with and without
/// a binding power budget.
#[test]
fn seeded_diurnal_runs_match_pinned_constants() {
    let stats = |events| socrates::EventFleetStats {
        spawned: 9,
        active: 0,
        retired: 9,
        slots: 6,
        events,
        stale_dropped: 9,
    };
    assert_eq!(
        diurnal_run(None),
        (
            0x5034_3874_b982_130c,
            stats(436),
            Some(409),
            0x8f87_329e_9d8f_cd1c
        ),
        "unconstrained"
    );
    assert_eq!(
        diurnal_run(Some(300.0)),
        (
            0x197d_a3df_570a_3c65,
            stats(329),
            Some(302),
            0x037c_bf04_24bd_aaf7
        ),
        "300 W budget"
    );
}
