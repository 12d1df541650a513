//! Regression tests pinning the DSE sweep's output: `dse::profile`'s
//! knowledge is pinned by content hash at three `(seed, repetitions)`
//! pairs and is a function of the machine seed alone. The hashes were
//! recorded while the sweep still fanned out over rayon, so they carry
//! that version's output forward as the reference.

use dse::{profile, DesignSpace};
use margot::Knowledge;
use platform_sim::{paper_cf_combos, KnobConfig, Machine, Topology, WorkloadProfile};

fn space() -> DesignSpace {
    DesignSpace::socrates(paper_cf_combos().to_vec(), &Topology::xeon_e5_2630_v3())
}

fn kernel() -> WorkloadProfile {
    WorkloadProfile::builder("2mm-like")
        .flops(2.5e9)
        .bytes(6e8)
        .parallel_fraction(0.995)
        .build()
}

/// FNV-1a over every metric of every point, by name and `to_bits`, in
/// point order.
fn knowledge_hash(k: &Knowledge<KnobConfig>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for p in k.points() {
        for (metric, value) in p.metrics.iter() {
            write(metric.as_str().as_bytes());
            write(&value.to_bits().to_le_bytes());
        }
    }
    h
}

/// The sweep's exact output, pinned: 96 sampled configurations at three
/// `(seed, repetitions)` pairs hash to the recorded values.
#[test]
fn profile_matches_pinned_hashes() {
    let configs = space().random_sample(96, 21);
    let pinned = [
        (0u64, 1u32, 0x11fd_eb9a_770b_810fu64),
        (7, 3, 0x279e_fa0c_82c2_b708),
        (12345, 5, 0x752f_bfe2_8366_fbe4),
    ];
    for (seed, repetitions, want) in pinned {
        let k = profile(
            &Machine::xeon_e5_2630_v3(seed),
            &kernel(),
            &configs,
            repetitions,
        );
        assert_eq!(k.len(), configs.len());
        let got = knowledge_hash(&k);
        assert_eq!(
            got, want,
            "seed {seed}, reps {repetitions}: hash {got:#018x}"
        );
    }
}

#[test]
fn profile_is_reproducible_across_calls() {
    let configs = space().random_sample(64, 3);
    let a = profile(&Machine::xeon_e5_2630_v3(11), &kernel(), &configs, 2);
    let b = profile(&Machine::xeon_e5_2630_v3(11), &kernel(), &configs, 2);
    assert_eq!(a, b);
}

#[test]
fn profiling_consumed_machines_stays_deterministic() {
    // A machine that has already executed kernels must still fork the
    // same per-config streams: profiling is a function of the seed, not
    // of the machine's consumed RNG state.
    let configs = space().random_sample(16, 8);
    let fresh = Machine::xeon_e5_2630_v3(33);
    let mut consumed = Machine::xeon_e5_2630_v3(33);
    let cfg = &configs[0];
    for _ in 0..5 {
        let _ = consumed.execute(&kernel(), cfg);
    }
    assert_eq!(
        profile(&fresh, &kernel(), &configs, 3),
        profile(&consumed, &kernel(), &configs, 3),
    );
}
