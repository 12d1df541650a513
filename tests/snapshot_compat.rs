//! Snapshot artifact compatibility: the shippable knowledge-snapshot
//! format ([`socrates::KnowledgeSnapshot`]) must stay
//! **byte-identical** against the checked-in golden under
//! `tests/golden/`, and decode adversarial input — a stale artifact of
//! the retired delta format included — to typed errors, never a panic.
//!
//! Regenerate the golden after an *intentional* format change with:
//!
//! ```sh
//! SOCRATES_REGEN_GOLDEN=1 cargo test -p socrates-suite --test snapshot_compat
//! ```

use margot::{Metric, MetricValues, OperatingPoint};
use platform_sim::{BindingPolicy, CompilerFlag, CompilerOptions, KnobConfig, OptLevel};
use socrates::{KnowledgeSnapshot, SnapshotFingerprint, SocratesError, SNAPSHOT_FORMAT_VERSION};
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
}

#[test]
fn golden_artifacts_round_trip_byte_stably() {
    if std::env::var("SOCRATES_REGEN_GOLDEN").is_ok() {
        return; // the golden file is being rewritten concurrently
    }
    let golden = std::fs::read(golden_path("knowledge_snapshot.bin")).expect("golden present");
    let snap = KnowledgeSnapshot::from_bytes(&golden).expect("golden snapshot decodes");
    assert_eq!(snap, sample_snapshot(), "golden content drifted");
    assert_eq!(snap.to_bytes().unwrap(), golden, "encode(decode(x)) != x");
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
    let bytes = sample_snapshot().to_bytes().unwrap();
    for cut in 0..bytes.len() {
        assert!(
            KnowledgeSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "snapshot truncated to {cut} bytes must not decode"
        );
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    let err = KnowledgeSnapshot::from_bytes(&trailing).expect_err("trailing byte must not decode");
    assert!(matches!(err, SocratesError::Transport { .. }));

    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x40;
        let _ = KnowledgeSnapshot::from_bytes(&flipped); // must return, Ok or Err
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

    // An artifact of the retired delta format (magic `SOCD`) fails on
    // the magic, not somewhere deep in the payload: a snapshot under
    // that magic, and a stale delta file as the last build to write
    // one left it.
    let mut cross = sample_snapshot().to_bytes().unwrap();
    cross[..4].copy_from_slice(b"SOCD");
    let stale = std::fs::read(golden_path("snapshot_delta.bin")).expect("stale delta present");
    assert_eq!(stale[..4], *b"SOCD");
    for bytes in [cross, stale] {
        let err = KnowledgeSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SocratesError::Transport { .. }));
        assert!(err.to_string().contains("magic"), "unexpected error: {err}");
    }
}
