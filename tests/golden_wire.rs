//! Golden wire-format regression: the distributed runtime's encoded
//! knowledge exchange — every [`socrates::transport::WireMessage`]
//! variant — must be **byte-identical** against the checked-in binary
//! file under `tests/golden/`, pinning the frame layout the runtime
//! ships through the transport byte-for-byte. The golden must also
//! decode back to exactly the in-memory messages it was written from.
//!
//! Regenerate after an *intentional* schema change with:
//!
//! ```sh
//! SOCRATES_REGEN_GOLDEN=1 cargo test -p socrates-suite --test golden_wire
//! ```

use margot::{Metric, MetricValues};
use platform_sim::{BindingPolicy, CompilerFlag, CompilerOptions, KnobConfig, OptLevel};
use socrates::transport::{Observation, WireMessage};
use socrates::{wire_from_bytes, wire_to_bytes};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

/// The configuration the pinned observation ran under.
fn sample_config() -> KnobConfig {
    KnobConfig::new(
        CompilerOptions::with_flags(OptLevel::O3, [CompilerFlag::UnrollAllLoops]),
        2,
        BindingPolicy::Close,
    )
}

/// One pinned message per [`WireMessage`] variant, covering the whole
/// protocol surface.
fn sample_messages() -> Vec<WireMessage> {
    vec![
        WireMessage::Join { node: 3 },
        WireMessage::Ops {
            ops: vec![Observation {
                origin: 1,
                seq: 4,
                round: 7,
                config: sample_config(),
                observed: MetricValues::new()
                    .with(Metric::exec_time(), 0.75)
                    .with(Metric::power(), 52.5),
            }],
        },
        WireMessage::Summary {
            counts: vec![(0, 3), (2, 1)],
            reply: true,
        },
        WireMessage::WelcomeLog { ops: Vec::new() },
    ]
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
        "{name}: wire bytes drifted from the golden file"
    );
}

/// The container layout of `wire_messages.bin`: frame count (u32 LE),
/// then each frame as byte length (u32 LE) ++ frame bytes.
fn pack_frames(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(
        &u32::try_from(frames.len())
            .expect("count fits u32")
            .to_le_bytes(),
    );
    for f in frames {
        out.extend_from_slice(
            &u32::try_from(f.len())
                .expect("frame fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(f);
    }
    out
}

fn unpack_frames(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let (count, mut rest) = bytes.split_at(4);
    for _ in 0..u32::from_le_bytes(count.try_into().expect("4")) {
        let (len, tail) = rest.split_at(4);
        let len = u32::from_le_bytes(len.try_into().expect("4")) as usize;
        frames.push(tail[..len].to_vec());
        rest = &tail[len..];
    }
    assert!(rest.is_empty(), "trailing bytes after the last frame");
    frames
}

#[test]
fn binary_wire_messages_are_byte_stable_against_the_golden_file() {
    let frames: Vec<Vec<u8>> = sample_messages()
        .iter()
        .map(|m| wire_to_bytes(m).expect("message encodes"))
        .collect();
    check_golden_bytes("wire_messages.bin", &pack_frames(&frames));
}

#[test]
fn golden_binary_messages_round_trip_byte_stably() {
    if std::env::var("SOCRATES_REGEN_GOLDEN").is_ok() {
        return; // the golden file is being rewritten concurrently
    }
    let golden = std::fs::read(golden_path("wire_messages.bin")).expect("golden bin present");
    let decoded: Vec<WireMessage> = unpack_frames(&golden)
        .iter()
        .map(|f| wire_from_bytes(f).expect("binary decodes"))
        .collect();
    assert_eq!(decoded, sample_messages(), "golden content drifted");
    let reencoded: Vec<Vec<u8>> = decoded
        .iter()
        .map(|m| wire_to_bytes(m).expect("encodes"))
        .collect();
    assert_eq!(pack_frames(&reencoded), golden, "encode(decode(x)) != x");
}
