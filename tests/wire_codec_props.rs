//! Property tests of the binary wire codec: **any** generated
//! [`WireMessage`] — every variant, arbitrary knob configurations and
//! arbitrary f64 *bit patterns* (subnormals, infinities, NaN payloads)
//! — must round-trip through `wire_to_bytes`/`wire_from_bytes`
//! bit-exactly. Bit-exactness is asserted on the *re-encoded frame*,
//! which covers NaN-carrying metric values that structural `==`
//! cannot compare, and structurally where `==` is meaningful.
//!
//! Decoding with a keep-predicate on `(round, origin)` — what a
//! receiver that already holds some observations runs — equals the
//! full decode filtered by that predicate, and rejects exactly the
//! frames the full decode rejects, truncated or corrupted.
//!
//! The by-reference frame writers (`write_ops_frame`,
//! `write_welcome_log_frame`), which senders use to frame observations
//! they hold without an owned message, write exactly the bytes
//! `wire_to_bytes` writes for that message.
//!
//! The companion compatibility property — the committed binary golden
//! decodes to exactly the messages it was written from — is pinned in
//! `tests/golden_wire.rs` against the checked-in file.

use margot::{Metric, MetricValues};
use platform_sim::{BindingPolicy, CompilerOptions, KnobConfig, OptLevel};
use proptest::prelude::*;
use socrates::transport::{Observation, WireMessage};
use socrates::{
    wire_from_bytes, wire_from_bytes_keeping, wire_to_bytes, write_ops_frame,
    write_welcome_log_frame,
};

fn config_strategy() -> impl Strategy<Value = KnobConfig> {
    (0usize..4, 0u8..64, any::<u32>(), 0usize..2).prop_map(|(level, mask, tn, bp)| {
        KnobConfig::new(
            CompilerOptions::from_mask(OptLevel::ALL[level], mask),
            tn,
            BindingPolicy::ALL[bp],
        )
    })
}

/// Arbitrary f64 *bit patterns*: the codec ships raw IEEE-754 bits, so
/// the property space deliberately includes non-finite values and NaN
/// payloads that the JSON layer cannot represent.
fn value_strategy() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn metrics_strategy() -> impl Strategy<Value = MetricValues> {
    prop::collection::vec(("\\PC{1,8}", value_strategy()), 0..4).prop_map(|pairs| {
        MetricValues::from_unvalidated(pairs.into_iter().map(|(name, v)| (Metric::custom(name), v)))
    })
}

fn observation_strategy() -> impl Strategy<Value = Observation> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        config_strategy(),
        metrics_strategy(),
    )
        .prop_map(|(origin, seq, round, config, observed)| Observation {
            origin,
            seq,
            round,
            config,
            observed,
        })
}

fn wire_strategy() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        any::<u32>().prop_map(|node| WireMessage::Join { node }),
        prop::collection::vec(observation_strategy(), 0..3)
            .prop_map(|ops| WireMessage::Ops { ops }),
        (
            prop::collection::vec((any::<u32>(), any::<u64>()), 0..4),
            any::<bool>(),
        )
            .prop_map(|(counts, reply)| WireMessage::Summary { counts, reply }),
        prop::collection::vec(observation_strategy(), 0..3)
            .prop_map(|ops| WireMessage::WelcomeLog { ops }),
    ]
}

/// Metric bundles whose names mix the well-known metrics with
/// arbitrary custom ones, over arbitrary f64 bit patterns.
fn named_metrics_strategy() -> impl Strategy<Value = MetricValues> {
    let name = prop_oneof![
        Just("exec_time_s".to_string()),
        Just("power_w".to_string()),
        Just("throughput".to_string()),
        Just("energy_j".to_string()),
        "\\PC{1,12}",
    ];
    prop::collection::vec((name, value_strategy()), 0..5).prop_map(|pairs| {
        MetricValues::from_unvalidated(pairs.into_iter().map(|(name, v)| (Metric::custom(name), v)))
    })
}

/// Observation frames whose `(round, origin)` ids come from a small
/// space, so that a frame repeats ids and predicates split it.
fn observation_frame_strategy() -> impl Strategy<Value = WireMessage> {
    let op = (
        0u32..4,
        any::<u64>(),
        0u64..4,
        config_strategy(),
        metrics_strategy(),
    )
        .prop_map(|(origin, seq, round, config, observed)| Observation {
            origin,
            seq,
            round,
            config,
            observed,
        });
    (prop::collection::vec(op, 0..6), any::<bool>()).prop_map(|(ops, welcome)| {
        if welcome {
            WireMessage::WelcomeLog { ops }
        } else {
            WireMessage::Ops { ops }
        }
    })
}

/// An arbitrary keep-predicate on `(round, origin)`: `(salt, modulus)`
/// keeps the ids whose salted hash is not a multiple of `modulus`, so
/// modulus 1 keeps none, and modulus 0 keeps every one.
fn keep_strategy() -> impl Strategy<Value = (u64, u64)> {
    (any::<u64>(), 0u64..5)
}

fn keeps((salt, modulus): (u64, u64), (round, origin): (u64, u32)) -> bool {
    let hash = round.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(origin) ^ salt;
    modulus == 0 || hash % modulus != 0
}

/// The full decode with the observations `keep` rejects removed.
fn filtered(msg: WireMessage, keep: (u64, u64)) -> WireMessage {
    let kept = |ops: Vec<Observation>| {
        ops.into_iter()
            .filter(|o| keeps(keep, o.op_id()))
            .collect::<Vec<_>>()
    };
    match msg {
        WireMessage::Ops { ops } => WireMessage::Ops { ops: kept(ops) },
        WireMessage::WelcomeLog { ops } => WireMessage::WelcomeLog { ops: kept(ops) },
        other => other,
    }
}

/// `true` when every metric value in the message is finite, i.e. when
/// structural `==` is a meaningful round-trip check.
fn all_finite(msg: &WireMessage) -> bool {
    match msg {
        WireMessage::Join { .. } | WireMessage::Summary { .. } => true,
        WireMessage::Ops { ops } | WireMessage::WelcomeLog { ops } => ops
            .iter()
            .all(|o| o.observed.iter().all(|(_, v)| v.is_finite())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → encode is the identity on frames: every
    /// variant, every f64 bit pattern.
    #[test]
    fn every_wire_message_round_trips_bit_exactly(msg in wire_strategy()) {
        let bytes = wire_to_bytes(&msg).expect("encoding is total");
        let back = wire_from_bytes(&bytes).expect("own encoding decodes");
        let reencoded = wire_to_bytes(&back).expect("re-encoding is total");
        prop_assert_eq!(&reencoded, &bytes, "frame changed across a round-trip");
        if all_finite(&msg) {
            prop_assert_eq!(back, msg);
        }
    }

    /// Truncating a valid frame anywhere must yield a decode error,
    /// never a panic or a silently different message, whatever the
    /// keep-predicate.
    #[test]
    fn truncated_frames_are_rejected(
        msg in prop_oneof![wire_strategy(), observation_frame_strategy()],
        cut in any::<u64>(),
        keep in keep_strategy(),
    ) {
        let bytes = wire_to_bytes(&msg).expect("encoding is total");
        let cut = (cut as usize) % bytes.len();
        prop_assert!(
            wire_from_bytes(&bytes[..cut]).is_err(),
            "truncated frame decoded"
        );
        prop_assert!(
            wire_from_bytes_keeping(&bytes[..cut], |id| keeps(keep, id)).is_err(),
            "truncated frame decoded under a predicate"
        );
    }
}

proptest! {
    // A corrupted byte lands on a skipped observation's checked field
    // in a few percent of the cases, so this property runs more of them.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Decoding with a keep-predicate is the full decode filtered by
    /// it, on valid frames and on frames with one byte set or flipped
    /// anywhere: the two decoders accept and reject the same bytes, and
    /// a skipped observation is checked like a kept one.
    #[test]
    fn keeping_decodes_are_filtered_full_decodes(
        msg in observation_frame_strategy(),
        keep in keep_strategy(),
        corrupt in prop::option::of((any::<u64>(), any::<u8>(), any::<bool>())),
    ) {
        let mut bytes = wire_to_bytes(&msg).expect("encoding is total");
        if let Some((at, byte, set)) = corrupt {
            let at = (at as usize) % bytes.len();
            if set {
                bytes[at] = byte;
            } else {
                bytes[at] ^= byte;
            }
        }
        let full = wire_from_bytes(&bytes);
        let kept = wire_from_bytes_keeping(&bytes, |id| keeps(keep, id));
        match (full, kept) {
            (Ok(full), Ok(kept)) => {
                // Compared as frames: NaN payloads survive bit-exactly.
                prop_assert_eq!(
                    wire_to_bytes(&kept).expect("encoding is total"),
                    wire_to_bytes(&filtered(full, keep)).expect("encoding is total")
                );
            }
            (Err(_), Err(_)) => prop_assert!(corrupt.is_some(), "a valid frame was rejected"),
            (full, kept) => prop_assert!(
                false,
                "full decode ok = {}, keeping decode ok = {}",
                full.is_ok(),
                kept.is_ok()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The by-reference writers are byte-identical to `wire_to_bytes` of
    /// the owned message, whatever the buffer held before: every f64 bit
    /// pattern, custom metric names, empty observation lists.
    #[test]
    fn frame_writers_match_the_owned_encoding(
        ops in prop::collection::vec(
            (
                any::<u32>(),
                any::<u64>(),
                any::<u64>(),
                config_strategy(),
                named_metrics_strategy(),
            )
                .prop_map(|(origin, seq, round, config, observed)| Observation {
                    origin,
                    seq,
                    round,
                    config,
                    observed,
                }),
            0..5,
        ),
        stale in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut out = stale;
        for ops in [&ops[..], &[]] {
            write_ops_frame(&mut out, ops).expect("encoding is total");
            let owned = WireMessage::Ops { ops: ops.to_vec() };
            prop_assert_eq!(&out, &wire_to_bytes(&owned).expect("encoding is total"));
            // The welcome log reads the observations from an iterator of
            // references, as a replica's log hands them out.
            write_welcome_log_frame(&mut out, ops.iter()).expect("encoding is total");
            let owned = WireMessage::WelcomeLog { ops: ops.to_vec() };
            prop_assert_eq!(&out, &wire_to_bytes(&owned).expect("encoding is total"));
        }
    }
}
