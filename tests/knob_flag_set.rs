//! The one-byte flag set against the list form it replaced.
//!
//! `CompilerOptions::flags` used to be a sorted, duplicate-free
//! `Vec<CompilerFlag>`. Shard assignment and content digests feed the
//! config's `Hash` to FNV, trace digests hash its `Debug` text,
//! snapshots serialise it, and the wire writes its bitmask. For every
//! level and every one of the 64 flag subsets, the configuration built
//! on the flag set must hash, order, print, serialise and encode
//! exactly as an oracle built here on the list form.

use margot::{shard_index, MetricValues};
use platform_sim::{BindingPolicy, CompilerFlag, CompilerOptions, KnobConfig, OptLevel};
use serde::Serialize;
use socrates::transport::{Observation, WireMessage};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// The former types, named as they were so their `Debug` text compares.
mod list {
    use platform_sim::{BindingPolicy, CompilerFlag, OptLevel};
    use serde::Serialize;
    use std::fmt;

    /// The former `CompilerOptions`.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
    pub struct CompilerOptions {
        pub level: OptLevel,
        pub flags: Vec<CompilerFlag>,
    }

    impl fmt::Display for CompilerOptions {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "-{}", self.level)?;
            for fl in &self.flags {
                write!(f, ",{fl}")?;
            }
            Ok(())
        }
    }

    /// The former `KnobConfig`.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
    pub struct KnobConfig {
        pub co: CompilerOptions,
        pub tn: u32,
        pub bp: BindingPolicy,
    }

    impl fmt::Display for KnobConfig {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "co={} tn={} bp={}", self.co, self.tn, self.bp)
        }
    }
}

/// Every `(flag set, list oracle)` pair: 4 levels × 64 subsets, with
/// thread counts and policies varied alongside.
fn pairs() -> Vec<(KnobConfig, list::KnobConfig)> {
    let mut out = Vec::new();
    for (l, level) in OptLevel::ALL.into_iter().enumerate() {
        for mask in 0u8..64 {
            let flags: Vec<CompilerFlag> = CompilerFlag::ALL
                .into_iter()
                .filter(|f| mask & (1 << f.bit()) != 0)
                .collect();
            let tn = 1 + (u32::from(mask) + 7 * l as u32) % 32;
            let bp = BindingPolicy::ALL[usize::from(mask) % 2];
            out.push((
                KnobConfig::new(CompilerOptions::from_mask(level, mask), tn, bp),
                list::KnobConfig {
                    co: list::CompilerOptions { level, flags },
                    tn,
                    bp,
                },
            ));
        }
    }
    out
}

/// Logs every byte a `Hash` impl feeds its hasher.
#[derive(Default)]
struct Recorder(Vec<u8>);

impl Hasher for Recorder {
    fn finish(&self) -> u64 {
        0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

fn hash_log(value: &impl Hash) -> Vec<u8> {
    let mut recorder = Recorder::default();
    value.hash(&mut recorder);
    recorder.0
}

#[test]
fn hashes_and_shards_match_the_list_form() {
    for (config, oracle) in pairs() {
        assert_eq!(hash_log(&config), hash_log(&oracle), "{config}");
        for shards in [1, 7, 16, 64, usize::MAX] {
            assert_eq!(
                shard_index(&config, shards),
                shard_index(&oracle, shards),
                "{config} over {shards} shards"
            );
        }
    }
}

#[test]
fn order_matches_the_list_form() {
    let pairs = pairs();
    for (a, oa) in &pairs {
        for (b, ob) in &pairs {
            let got: Ordering = a.cmp(b);
            assert_eq!(got, oa.cmp(ob), "{a} vs {b}");
            assert_eq!(a.partial_cmp(b), oa.partial_cmp(ob), "{a} vs {b}");
            assert_eq!(a == b, oa == ob, "{a} vs {b}");
        }
    }
}

#[test]
fn text_and_serde_forms_match_the_list_form() {
    for (config, oracle) in pairs() {
        assert_eq!(format!("{config:?}"), format!("{oracle:?}"));
        assert_eq!(format!("{config:#?}"), format!("{oracle:#?}"));
        assert_eq!(config.to_string(), oracle.to_string());
        assert_eq!(config.co.to_string(), oracle.co.to_string());
        assert_eq!(config.to_value(), oracle.to_value(), "{config}");
        let json = serde_json::to_string(&config).expect("serialises");
        assert_eq!(json, serde_json::to_string(&oracle).expect("serialises"));
        let back: KnobConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, config);
        let pragma: Vec<String> = std::iter::once(oracle.co.level.as_str())
            .chain(oracle.co.flags.iter().map(|f| f.as_str()))
            .map(str::to_string)
            .collect();
        assert_eq!(config.co.pragma_flags(), pragma);
    }
}

#[test]
fn wire_bytes_match_the_list_form() {
    let frame = |config: KnobConfig| {
        socrates::wire_to_bytes(&WireMessage::Ops {
            ops: vec![Observation {
                origin: 3,
                seq: 5,
                round: 8,
                config,
                observed: MetricValues::from_execution(0.25, 90.0),
            }],
        })
        .expect("encodes")
    };
    // A config's encoding: level index, flag mask, thread count (LE),
    // policy index; the mask of the list form is its flags' bits.
    let oracle_bytes = |o: &list::KnobConfig| {
        let mask = o.co.flags.iter().fold(0u8, |m, f| m | (1 << f.bit()));
        let mut bytes = vec![o.co.level as u8, mask];
        bytes.extend_from_slice(&o.tn.to_le_bytes());
        bytes.push(o.bp as u8);
        bytes
    };
    let pairs = pairs();
    // Locate the config inside a reference frame by a distinctive one.
    let (reference, reference_oracle) = pairs
        .iter()
        .find(|(c, _)| c.co.level == OptLevel::O3 && c.co.flag_mask() == 42)
        .expect("in the grid");
    let reference_frame = frame(reference.clone());
    let needle = oracle_bytes(reference_oracle);
    let at: Vec<usize> = reference_frame
        .windows(needle.len())
        .enumerate()
        .filter_map(|(i, w)| (w == needle.as_slice()).then_some(i))
        .collect();
    assert_eq!(at.len(), 1, "the reference config occurs once");
    let at = at[0];
    for (config, oracle) in &pairs {
        let mut expected = reference_frame[..at].to_vec();
        expected.extend(oracle_bytes(oracle));
        expected.extend_from_slice(&reference_frame[at + needle.len()..]);
        let bytes = frame(config.clone());
        assert_eq!(bytes, expected, "{config}");
        match socrates::wire_from_bytes(&bytes).expect("decodes") {
            WireMessage::Ops { ops } => assert_eq!(ops[0].config, *config),
            other => panic!("decoded {other:?}"),
        }
    }
}

#[test]
fn with_flags_canonicalises_any_order_and_repeats() {
    for level in OptLevel::ALL {
        for mask in 0u8..64 {
            let canonical = CompilerOptions::from_mask(level, mask);
            let mut flags: Vec<CompilerFlag> = canonical.flags.iter().collect();
            assert_eq!(CompilerOptions::with_flags(level, flags.clone()), canonical);
            flags.reverse();
            let doubled: Vec<CompilerFlag> = flags.iter().chain(&flags).copied().collect();
            let built = CompilerOptions::with_flags(level, doubled);
            assert_eq!(built, canonical);
            assert_eq!(built.flag_mask(), mask);
            assert_eq!(built.flags.len(), flags.len());
        }
    }
}
