//! Snapshot artifact compatibility: the shippable knowledge-snapshot
//! format ([`socrates::KnowledgeSnapshot`] / [`socrates::SnapshotDelta`])
//! must stay **byte-identical** against the checked-in goldens under
//! `tests/golden/`, decode adversarial input to typed errors (never a
//! panic), and fast-forward a mid-run cut to bit-identity with the live
//! knowledge base it was taken from.
//!
//! Regenerate the goldens after an *intentional* format change with:
//!
//! ```sh
//! SOCRATES_REGEN_GOLDEN=1 cargo test -p socrates-suite --test snapshot_compat
//! ```

use margot::{KnowledgeDelta, Metric, MetricValues, OperatingPoint, SharedKnowledge};
use platform_sim::{BindingPolicy, CompilerFlag, CompilerOptions, KnobConfig, OptLevel};
use polybench::{App, Dataset};
use socrates::{
    KnowledgeSnapshot, SnapshotDelta, SnapshotFingerprint, SocratesError, Toolchain,
    SNAPSHOT_DELTA_MAGIC, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

fn sample_point(i: usize) -> OperatingPoint<KnobConfig> {
    let co = if i == 0 {
        CompilerOptions::level(OptLevel::O2)
    } else {
        CompilerOptions::with_flags(OptLevel::O3, [CompilerFlag::UnrollAllLoops])
    };
    let tn = 1u32 << i;
    OperatingPoint::new(
        KnobConfig::new(co, tn, BindingPolicy::Close),
        MetricValues::new()
            .with(Metric::exec_time(), 1.5 / f64::from(tn))
            .with(Metric::power(), 48.25 + f64::from(tn)),
    )
}

fn sample_fingerprint() -> SnapshotFingerprint {
    SnapshotFingerprint::new("2mm", "Medium", 0x0050_C7A7_E550_2055)
}

/// The pinned full-state snapshot: four points over three shards at a
/// mid-run epoch — a pure function of constants, so the golden bytes
/// cannot drift with unrelated library changes.
fn sample_snapshot() -> KnowledgeSnapshot {
    KnowledgeSnapshot {
        fingerprint: sample_fingerprint(),
        epoch: 5,
        shard_epochs: vec![2, 0, 3],
        knowledge: (0..4).map(sample_point).collect(),
    }
}

/// The pinned chain link: two changed points advancing epoch 5 → 8.
fn sample_delta() -> SnapshotDelta {
    SnapshotDelta {
        fingerprint: sample_fingerprint(),
        shard_epochs: vec![3, 0, 4],
        delta: KnowledgeDelta {
            from_epoch: 5,
            to_epoch: 8,
            changed: vec![(1, sample_point(1)), (3, sample_point(3))],
        },
    }
}

fn check_golden_bytes(name: &str, serialized: &[u8]) {
    let path = golden_path(name);
    if std::env::var("SOCRATES_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, serialized).expect("write golden");
        eprintln!(
            "regenerated {} ({} bytes)",
            path.display(),
            serialized.len()
        );
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with SOCRATES_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        serialized, golden,
        "{name}: artifact bytes drifted from the golden file"
    );
}

#[test]
fn snapshot_artifacts_are_byte_stable_against_the_golden_files() {
    check_golden_bytes(
        "knowledge_snapshot.bin",
        &sample_snapshot().to_bytes().unwrap(),
    );
    check_golden_bytes("snapshot_delta.bin", &sample_delta().to_bytes().unwrap());
}

#[test]
fn golden_artifacts_round_trip_byte_stably() {
    if std::env::var("SOCRATES_REGEN_GOLDEN").is_ok() {
        return; // the golden files are being rewritten concurrently
    }
    let golden = std::fs::read(golden_path("knowledge_snapshot.bin")).expect("golden present");
    let snap = KnowledgeSnapshot::from_bytes(&golden).expect("golden snapshot decodes");
    assert_eq!(snap, sample_snapshot(), "golden content drifted");
    assert_eq!(snap.to_bytes().unwrap(), golden, "encode(decode(x)) != x");

    let golden = std::fs::read(golden_path("snapshot_delta.bin")).expect("golden present");
    let link = SnapshotDelta::from_bytes(&golden).expect("golden delta decodes");
    assert_eq!(link, sample_delta(), "golden content drifted");
    assert_eq!(link.to_bytes().unwrap(), golden, "encode(decode(x)) != x");
}

/// Adversarial decoding: truncation at *every* byte boundary, a
/// trailing byte, and every single-byte corruption must come back as a
/// `Result` — a malformed artifact from disk or the wire must never
/// take the process down. Truncations and trailing bytes are always
/// errors; an interior bit-flip may decode to a (different) valid
/// artifact, which is fine — the test only demands control flow, not
/// detection of every flip.
#[test]
fn adversarial_snapshot_bytes_never_panic() {
    let snapshot = sample_snapshot().to_bytes().unwrap();
    let delta = sample_delta().to_bytes().unwrap();

    for (what, bytes) in [("snapshot", &snapshot), ("delta", &delta)] {
        for cut in 0..bytes.len() {
            assert!(
                decode_any(what, &bytes[..cut]).is_err(),
                "{what} truncated to {cut} bytes must not decode"
            );
        }
        let mut trailing = bytes.to_vec();
        trailing.push(0);
        let err = decode_any(what, &trailing).expect_err("trailing byte must not decode");
        assert!(matches!(err, SocratesError::Transport { .. }));

        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x40;
            let _ = decode_any(what, &flipped); // must return, Ok or Err
        }
    }
}

fn decode_any(what: &str, bytes: &[u8]) -> Result<(), SocratesError> {
    match what {
        "snapshot" => KnowledgeSnapshot::from_bytes(bytes).map(|_| ()),
        _ => SnapshotDelta::from_bytes(bytes).map(|_| ()),
    }
}

#[test]
fn version_skew_and_cross_magic_are_typed_errors() {
    // A future format version is refused outright — a build must never
    // misread an artifact written by a newer one.
    let mut future = sample_snapshot().to_bytes().unwrap();
    future[4..8].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
    let err = KnowledgeSnapshot::from_bytes(&future).unwrap_err();
    assert!(matches!(err, SocratesError::Transport { .. }));
    assert!(err
        .to_string()
        .contains("unsupported snapshot format version"));

    // Feeding a delta artifact to the snapshot decoder (and vice versa)
    // fails on the magic, not somewhere deep in the payload.
    let mut cross = sample_snapshot().to_bytes().unwrap();
    cross[..4].copy_from_slice(&SNAPSHOT_DELTA_MAGIC);
    let err = KnowledgeSnapshot::from_bytes(&cross).unwrap_err();
    assert!(err.to_string().contains("magic"), "unexpected error: {err}");
    let mut cross = sample_delta().to_bytes().unwrap();
    cross[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    let err = SnapshotDelta::from_bytes(&cross).unwrap_err();
    assert!(err.to_string().contains("magic"), "unexpected error: {err}");
}

/// The acceptance property of the whole snapshot subsystem: a snapshot
/// cut mid-run and fast-forwarded through the recorded delta chain —
/// with every artifact round-tripped through its binary encoding on
/// the way — reproduces the live [`SharedKnowledge`] **bit-identically**:
/// equal global epoch, equal per-shard epoch vectors and equal
/// per-shard content hashes.
#[test]
fn mid_run_cut_fast_forwards_to_bit_identity_with_the_live_base() {
    let enhanced = Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(App::TwoMm)
    .expect("enhance");
    let machine = enhanced.platform.machine(11);
    let fingerprint = SnapshotFingerprint::of(
        &Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            ..Toolchain::default()
        },
        App::TwoMm,
    );
    let shared = SharedKnowledge::new(enhanced.knowledge.clone(), 8).with_shards(4);
    let configs: Vec<KnobConfig> = enhanced
        .knowledge
        .points()
        .iter()
        .map(|p| p.config.clone())
        .collect();
    // Era boundaries: publish a slice of model-driven observations,
    // cut, repeat. The per-era stride varies which shards move.
    let publish_era = |era: usize| {
        for (i, config) in configs.iter().enumerate().skip(era * 7).step_by(era + 3) {
            let expected = machine.expected(&enhanced.profile, config);
            let wobble = 1.0 + (i % 5) as f64 * 0.01;
            assert!(shared.publish(
                config,
                &MetricValues::from_execution(expected.time_s * wobble, expected.power_w),
            ));
        }
    };

    publish_era(0);
    shared.drain_changes(); // the cut below owns the drain cursor
    let cut = KnowledgeSnapshot::capture(&shared, fingerprint.clone());
    let mut snap = KnowledgeSnapshot::from_bytes(&cut.to_bytes().unwrap())
        .expect("snapshot survives its encoding");
    assert_eq!(snap, cut);

    let mut chain = Vec::new();
    let mut from_epoch = snap.epoch;
    for era in 1..4 {
        publish_era(era);
        let link = SnapshotDelta::cut(&shared, fingerprint.clone(), from_epoch);
        from_epoch = link.delta.to_epoch;
        chain.push(
            SnapshotDelta::from_bytes(&link.to_bytes().unwrap()).expect("link survives encoding"),
        );
    }

    snap.fast_forward_chain(&chain).expect("chain applies");
    assert_eq!(snap.epoch, shared.epoch(), "global epoch");
    let live_epochs: Vec<u64> = (0..shared.shard_count())
        .map(|s| shared.shard_epoch(s))
        .collect();
    assert_eq!(snap.shard_epochs, live_epochs, "shard epoch vector");
    assert_eq!(snap.shard_hashes(), shared.shard_hashes(), "shard hashes");
    assert_eq!(snap.knowledge, shared.knowledge(), "effective knowledge");

    // A chain is not a grab bag: replaying the first link onto the
    // fast-forwarded snapshot no longer chains.
    let err = snap.fast_forward(&chain[0]).unwrap_err();
    assert!(err.to_string().contains("does not chain"));
}
