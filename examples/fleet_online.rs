//! The online fleet in action: eight adaptive instances deploy onto a
//! machine running hotter than the design-time platform, pool their
//! runtime observations in a shared knowledge base, sweep the design
//! space cooperatively, and converge onto the operating point that is
//! genuinely best on the drifted hardware — while a global power
//! budget is arbitrated across the fleet as instances leave.
//!
//! ```text
//! cargo run --example fleet_online --release
//! ```

use margot::Rank;
use polybench::{App, Dataset};
use socrates::{
    ArtifactStore, Fleet, FleetConfig, FleetEvent, FleetRuntime, SnapshotFingerprint, Toolchain,
};

fn main() {
    let toolchain = Toolchain {
        dataset: Dataset::Large,
        ..Toolchain::default()
    };
    let enhanced = toolchain.enhance(App::TwoMm).expect("toolchain");

    // Deployment drift: the deployed machine burns 40% more per-core
    // dynamic power than the platform the DSE profiled (the idle floor
    // is unchanged, so the drift re-orders the operating points).
    let drifted = enhanced.platform.hotter(1.4);

    // Builder-style construction: every knob is validated at the
    // setter that introduces it, and the global 880 W budget lands in
    // the config instead of a post-spawn mutation.
    let config = FleetConfig::builder()
        .power_budget_w(Some(8.0 * 110.0))
        .expect("a positive, finite budget")
        .build()
        .expect("valid fleet config");
    let mut fleet = Fleet::new(config).expect("valid fleet config");
    let rank = Rank::throughput_per_watt2();
    fleet.spawn_on(&enhanced, &rank, &drifted.machine(42), 8);

    // The runtime surface streams events; count the cooperative
    // exploration publishes as they happen.
    let publishes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen = std::sync::Arc::clone(&publishes);
    fleet.observe(Box::new(move |ev| {
        if matches!(ev, FleetEvent::Published { .. }) {
            seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }));

    println!("8-instance 2mm fleet on a hotter-than-profiled machine");
    println!("(energy-efficient policy, global 880 W budget)");
    println!();
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>10}",
        "t [s]", "epoch", "coverage", "power [W]", "exec [ms]"
    );

    for phase_end in [30.0, 60.0, 90.0, 120.0] {
        fleet.run_until(phase_end);
        let (covered, total) = fleet.exploration_coverage(App::TwoMm).expect("pool");
        // Fleet-wide means over the last 10 virtual seconds of planned
        // (non-exploration) invocations.
        let mut power = Vec::new();
        let mut exec = Vec::new();
        for id in 0..8 {
            for s in fleet.trace(id) {
                if s.t_start_s >= phase_end - 10.0 && !s.forced {
                    power.push(s.power_w);
                    exec.push(s.time_s);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "{:>8.0} {:>10} {:>7}/{:<4} {:>12.1} {:>10.1}",
            phase_end,
            fleet.knowledge_epoch(App::TwoMm).expect("pool"),
            covered,
            total,
            mean(&power),
            mean(&exec) * 1e3,
        );
    }

    // Half the fleet shuts down; the arbiter doubles the survivors'
    // power share and their operating points can stretch out.
    println!();
    println!("4 instances retire — power share doubles for the rest");
    for id in 0..4 {
        fleet.retire_instance(id);
    }
    fleet.run_until(150.0);
    let last = fleet.trace(7);
    let s = last.last().expect("instance 7 kept running");
    println!(
        "instance 7 now runs {} threads / {} at {:.1} W",
        s.config.tn, s.config.bp, s.power_w
    );
    println!(
        "{} knowledge publishes streamed to the observer",
        publishes.load(std::sync::atomic::Ordering::Relaxed)
    );

    // The fleet's learned knowledge outlives the deployment: ship it as
    // a snapshot the next deployment warm-starts from.
    let store = ArtifactStore::with_persist_dir(std::env::temp_dir().join("socrates-fleet"));
    let snapshot = fleet
        .knowledge_snapshot(App::TwoMm, SnapshotFingerprint::of(&toolchain, App::TwoMm))
        .expect("the fleet ran 2mm");
    let written = store
        .save_snapshot(&toolchain, App::TwoMm, &snapshot)
        .expect("persist");
    println!();
    println!("learned knowledge persisted to {}", written.display());
}
