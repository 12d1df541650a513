//! The binary knowledge codec and the atomic-write helper behind every
//! persisted artifact.
//!
//! [`wire_to_bytes`]/[`wire_from_bytes`] frame the messages of the
//! distributed knowledge exchange ([`crate::transport`]);
//! [`write_ops_frame`] and [`write_welcome_log_frame`] write the same
//! observation frames from references into a reused buffer, so a
//! sender needs no owned copies of what it sends. The same
//! length-prefixed primitives encode the shippable
//! [`crate::KnowledgeSnapshot`] artifacts, which land on disk through
//! [`write_atomic_bytes`]. Knowledge leaves a process in these two
//! forms only.
//!
//! Decode failures are transport-stage [`SocratesError`]s; file I/O
//! failures are persist-stage errors carrying the path.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::SocratesError;
use crate::transport::{NodeId, Observation, WireMessage};
use margot::{Knowledge, MetricValues, OperatingPoint};
use platform_sim::{BindingPolicy, CompilerOptions, KnobConfig, OptLevel};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide sequence number distinguishing concurrent temp files
/// aimed at the same destination (the pid distinguishes processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp-file path next to `path` that no other writer — thread *or*
/// process — is using: `.{name}.{pid}.{seq}.tmp`. A deterministic name
/// would let two concurrent writers clobber each other's staged bytes
/// mid-write (and fail the loser's rename).
fn unique_tmp(path: &Path) -> Result<PathBuf, SocratesError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| SocratesError::io(path, std::io::Error::other("path has no file name")))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    Ok(path.with_file_name(tmp_name))
}

/// Writes `contents` to `path` atomically: the bytes land in a
/// writer-unique temporary file in the *same* directory, which is then
/// renamed over the destination. A crash mid-save can therefore never
/// leave a truncated or unparseable file behind — readers see either
/// the old complete file or the new complete file — and concurrent
/// writers each land a complete copy (last rename wins).
pub(crate) fn write_atomic_bytes(path: &Path, contents: &[u8]) -> Result<(), SocratesError> {
    let tmp = unique_tmp(path)?;
    std::fs::write(&tmp, contents).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        SocratesError::io(&tmp, e)
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        SocratesError::io(path, e)
    })
}

// ---------------------------------------------------------------------------
// Binary wire codec
// ---------------------------------------------------------------------------
//
// The runtime wire format of the distributed knowledge exchange:
// everything that travels through [`crate::transport::SimNet`] is
// encoded with this length-prefixed binary codec.
//
// Format, all integers little-endian:
//
// * frame           = magic `b"SOC\x01"` ++ payload
// * u8/u32/u64      = fixed-width LE
// * f64             = raw IEEE-754 bits LE (`to_le_bytes`); NaN
//                     round-trips **bit-exactly**
// * bool            = u8 (0 / 1)
// * str             = u32 byte length ++ UTF-8 bytes
// * seq<T>          = u32 element count ++ elements
// * KnobConfig      = opt-level index into [`OptLevel::ALL`] (u8)
//                     ++ flag bitmask (u8, see
//                     [`CompilerOptions::flag_mask`]) ++ tn (u32)
//                     ++ binding index into [`BindingPolicy::ALL`] (u8)
// * MetricValues    = seq<(str, f64)> in metric order
// * OperatingPoint  = KnobConfig ++ MetricValues
// * Knowledge       = seq<OperatingPoint>
// * Observation     = origin (u32) ++ seq (u64) ++ round (u64)
//                     ++ KnobConfig ++ MetricValues
// * WireMessage     = variant tag (u8: Join = 0, Ops = 2, Summary = 7,
//                     WelcomeLog = 9) ++ variant fields in order; tags
//                     1, 3–6 and 8 belonged to the retired broker star
//                     and stay unassigned, so an old peer's frame is
//                     rejected, never misparsed
//
// Decoders are strict: unknown tags, out-of-range indices, truncated
// input and trailing bytes are all transport-stage errors.

/// Leading magic of every binary frame: `"SOC"` plus format version 1.
pub const WIRE_MAGIC: [u8; 4] = [b'S', b'O', b'C', 0x01];

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Writes a sequence length; one that does not fit the format's u32
/// count is a transport-stage error.
pub(crate) fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), SocratesError> {
    let len = u32::try_from(len).map_err(|_| {
        SocratesError::transport(format!(
            "sequence of {len} elements exceeds the u32 length of the wire format"
        ))
    })?;
    put_u32(out, len);
    Ok(())
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), SocratesError> {
    put_len(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

pub(crate) fn put_config(out: &mut Vec<u8>, cfg: &KnobConfig) {
    // Both enums declare their variants in `ALL` order, so the
    // discriminant is the index (pinned by a unit test below).
    put_u8(out, cfg.co.level as u8);
    put_u8(out, cfg.co.flag_mask());
    put_u32(out, cfg.tn);
    put_u8(out, cfg.bp as u8);
}

pub(crate) fn put_metrics(out: &mut Vec<u8>, mv: &MetricValues) -> Result<(), SocratesError> {
    put_len(out, mv.len())?;
    for (m, v) in mv.iter() {
        put_str(out, m.as_str())?;
        put_f64(out, v);
    }
    Ok(())
}

pub(crate) fn put_point(
    out: &mut Vec<u8>,
    p: &OperatingPoint<KnobConfig>,
) -> Result<(), SocratesError> {
    put_config(out, &p.config);
    put_metrics(out, &p.metrics)
}

pub(crate) fn put_knowledge(
    out: &mut Vec<u8>,
    k: &Knowledge<KnobConfig>,
) -> Result<(), SocratesError> {
    put_len(out, k.len())?;
    for p in k.points() {
        put_point(out, p)?;
    }
    Ok(())
}

/// Writes a sequence of observations from references, so a frame can
/// go out without an owned message holding copies of them.
fn put_observations<'a, I>(out: &mut Vec<u8>, ops: I) -> Result<(), SocratesError>
where
    I: IntoIterator<Item = &'a Observation>,
    I::IntoIter: ExactSizeIterator,
{
    let ops = ops.into_iter();
    put_len(out, ops.len())?;
    for o in ops {
        put_u32(out, o.origin);
        put_u64(out, o.seq);
        put_u64(out, o.round);
        put_config(out, &o.config);
        put_metrics(out, &o.observed)?;
    }
    Ok(())
}

pub(crate) fn put_versions(out: &mut Vec<u8>, versions: &[u64]) -> Result<(), SocratesError> {
    put_len(out, versions.len())?;
    for v in versions {
        put_u64(out, *v);
    }
    Ok(())
}

/// Variant tags of [`WireMessage`] frames.
const JOIN_TAG: u8 = 0;
const OPS_TAG: u8 = 2;
const SUMMARY_TAG: u8 = 7;
const WELCOME_LOG_TAG: u8 = 9;

fn put_wire(out: &mut Vec<u8>, msg: &WireMessage) -> Result<(), SocratesError> {
    match msg {
        WireMessage::Join { node } => {
            put_u8(out, JOIN_TAG);
            put_u32(out, *node);
        }
        WireMessage::Ops { ops } => {
            put_u8(out, OPS_TAG);
            put_observations(out, ops)?;
        }
        WireMessage::Summary { counts, reply } => {
            put_u8(out, SUMMARY_TAG);
            put_len(out, counts.len())?;
            for (node, count) in counts {
                put_u32(out, *node);
                put_u64(out, *count);
            }
            put_bool(out, *reply);
        }
        WireMessage::WelcomeLog { ops } => {
            put_u8(out, WELCOME_LOG_TAG);
            put_observations(out, ops)?;
        }
    }
    Ok(())
}

/// Clears `out` and starts a frame of the message tagged `tag`.
fn start_frame(out: &mut Vec<u8>, tag: u8) {
    out.clear();
    out.extend_from_slice(&WIRE_MAGIC);
    put_u8(out, tag);
}

/// A strict cursor over a binary frame; every read is bounds-checked
/// and decode failures are transport-stage [`SocratesError`]s.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn err(what: &str) -> SocratesError {
        SocratesError::transport(format!("malformed binary frame: {what}"))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SocratesError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.buf.len())
            .ok_or_else(|| Self::err("truncated input"))?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    /// The next `N` bytes as an array (the fixed-width reads).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SocratesError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or_else(|| Self::err("truncated input"))?;
        self.pos += N;
        Ok(*bytes)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SocratesError> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SocratesError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SocratesError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SocratesError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, SocratesError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Self::err(&format!("invalid bool byte {other}"))),
        }
    }

    pub(crate) fn len(&mut self) -> Result<usize, SocratesError> {
        let n = self.u32()? as usize;
        // Every encoded element takes at least one byte, so a count
        // beyond the remaining input is truncation — rejected before
        // the callers size an allocation by it.
        if n > self.buf.len() - self.pos {
            return Err(Self::err("truncated input"));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, SocratesError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| Self::err("invalid UTF-8 in string"))
    }

    pub(crate) fn magic(&mut self) -> Result<(), SocratesError> {
        if self.take(4)? == WIRE_MAGIC {
            Ok(())
        } else {
            Err(Self::err("bad frame magic"))
        }
    }

    pub(crate) fn finish(&self) -> Result<(), SocratesError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Self::err("trailing bytes after frame"))
        }
    }

    /// A knob configuration's checked fields: opt level, flag mask,
    /// thread count and binding policy.
    fn knobs(&mut self) -> Result<(OptLevel, u8, u32, BindingPolicy), SocratesError> {
        let level = *OptLevel::ALL
            .get(self.u8()? as usize)
            .ok_or_else(|| Self::err("opt-level index out of range"))?;
        let mask = self.u8()?;
        if mask >= 1 << 6 {
            return Err(Self::err("unknown compiler-flag bits in mask"));
        }
        let tn = self.u32()?;
        let bp = *BindingPolicy::ALL
            .get(self.u8()? as usize)
            .ok_or_else(|| Self::err("binding-policy index out of range"))?;
        Ok((level, mask, tn, bp))
    }

    pub(crate) fn config(&mut self) -> Result<KnobConfig, SocratesError> {
        let (level, mask, tn, bp) = self.knobs()?;
        Ok(KnobConfig::new(
            CompilerOptions::from_mask(level, mask),
            tn,
            bp,
        ))
    }

    /// One `(name, value)` pair of a metric bundle.
    fn metric(&mut self) -> Result<(&'a str, f64), SocratesError> {
        Ok((self.str()?, self.f64()?))
    }

    pub(crate) fn metrics(&mut self) -> Result<MetricValues, SocratesError> {
        let n = self.len()?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let (name, value) = self.metric()?;
            pairs.push((margot::Metric::custom(name), value));
        }
        // Wire ingress: finiteness is *not* validated here; non-finite
        // values are dropped-and-counted when they reach a sliding
        // window, mirroring `Monitor::push`. Encoders write bundles in
        // metric order, so the pairs become the bundle as they are.
        Ok(MetricValues::from_unvalidated(pairs))
    }

    pub(crate) fn point(&mut self) -> Result<OperatingPoint<KnobConfig>, SocratesError> {
        let config = self.config()?;
        let metrics = self.metrics()?;
        Ok(OperatingPoint::new(config, metrics))
    }

    pub(crate) fn knowledge(&mut self) -> Result<Knowledge<KnobConfig>, SocratesError> {
        let n = self.len()?;
        let mut k = Knowledge::new();
        for _ in 0..n {
            k.add(self.point()?);
        }
        Ok(k)
    }

    /// Reads a sequence of observations, materialising only those whose
    /// `(round, origin)` `keep` accepts. A skipped observation passes
    /// the same reads, so the same checks, as a kept one: a frame is
    /// rejected whatever `keep` says.
    fn observations(
        &mut self,
        keep: &mut impl FnMut((u64, NodeId)) -> bool,
    ) -> Result<Vec<Observation>, SocratesError> {
        let n = self.len()?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let origin = self.u32()?;
            let seq = self.u64()?;
            let round = self.u64()?;
            if keep((round, origin)) {
                ops.push(Observation {
                    origin,
                    seq,
                    round,
                    config: self.config()?,
                    observed: self.metrics()?,
                });
            } else {
                self.knobs()?;
                for _ in 0..self.len()? {
                    self.metric()?;
                }
            }
        }
        Ok(ops)
    }

    fn wire(
        &mut self,
        keep: &mut impl FnMut((u64, NodeId)) -> bool,
    ) -> Result<WireMessage, SocratesError> {
        match self.u8()? {
            JOIN_TAG => Ok(WireMessage::Join { node: self.u32()? }),
            OPS_TAG => Ok(WireMessage::Ops {
                ops: self.observations(keep)?,
            }),
            SUMMARY_TAG => {
                let n = self.len()?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    let node = self.u32()?;
                    counts.push((node, self.u64()?));
                }
                Ok(WireMessage::Summary {
                    counts,
                    reply: self.bool()?,
                })
            }
            WELCOME_LOG_TAG => Ok(WireMessage::WelcomeLog {
                ops: self.observations(keep)?,
            }),
            other => Err(Self::err(&format!("unknown wire message tag {other}"))),
        }
    }
}

/// Encodes a wire message as a binary frame (the [`crate::transport::SimNet`]
/// runtime encoding).
///
/// # Errors
///
/// Returns a transport-stage [`SocratesError`] when a sequence (a
/// message's elements, a metric name's bytes) is longer than the
/// format's u32 counts can say.
pub fn wire_to_bytes(msg: &WireMessage) -> Result<Vec<u8>, SocratesError> {
    let mut out = Vec::with_capacity(64);
    write_frame(&mut out, msg)?;
    Ok(out)
}

/// [`wire_to_bytes`] into `out`, which it clears first.
pub(crate) fn write_frame(out: &mut Vec<u8>, msg: &WireMessage) -> Result<(), SocratesError> {
    out.clear();
    out.extend_from_slice(&WIRE_MAGIC);
    put_wire(out, msg)
}

/// Writes the frame of `WireMessage::Ops { ops }` into `out`, which it
/// clears first, straight from references to the observations: the
/// bytes [`wire_to_bytes`] returns for the owned message, without the
/// copies that message would hold. Reusing `out` across frames reuses
/// its storage. On error `out` holds a partial frame.
///
/// # Errors
///
/// As [`wire_to_bytes`].
pub fn write_ops_frame<'a, I>(out: &mut Vec<u8>, ops: I) -> Result<(), SocratesError>
where
    I: IntoIterator<Item = &'a Observation>,
    I::IntoIter: ExactSizeIterator,
{
    start_frame(out, OPS_TAG);
    put_observations(out, ops)
}

/// [`write_ops_frame`] for `WireMessage::WelcomeLog { ops }`.
///
/// # Errors
///
/// As [`wire_to_bytes`].
pub fn write_welcome_log_frame<'a, I>(out: &mut Vec<u8>, ops: I) -> Result<(), SocratesError>
where
    I: IntoIterator<Item = &'a Observation>,
    I::IntoIter: ExactSizeIterator,
{
    start_frame(out, WELCOME_LOG_TAG);
    put_observations(out, ops)
}

/// Decodes a wire message from a binary frame.
///
/// # Errors
///
/// Returns a transport-stage [`SocratesError`] on bad magic, unknown
/// tags, out-of-range knob indices, truncated input or trailing bytes.
pub fn wire_from_bytes(bytes: &[u8]) -> Result<WireMessage, SocratesError> {
    wire_from_bytes_keeping(bytes, |_| true)
}

/// [`wire_from_bytes`] that materialises only the observations (of an
/// [`WireMessage::Ops`] or [`WireMessage::WelcomeLog`] frame) whose
/// `(round, origin)` `keep` accepts, in frame order: a receiver that
/// already holds an observation skips building it. Skipped
/// observations are checked like kept ones, so a frame
/// [`wire_from_bytes`] rejects is rejected here too, whatever `keep`
/// says.
///
/// # Errors
///
/// As [`wire_from_bytes`].
pub fn wire_from_bytes_keeping(
    bytes: &[u8],
    mut keep: impl FnMut((u64, NodeId)) -> bool,
) -> Result<WireMessage, SocratesError> {
    let mut r = ByteReader::new(bytes);
    r.magic()?;
    let msg = r.wire(&mut keep)?;
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StageId;
    use margot::{Metric, MetricValues, OperatingPoint};
    use platform_sim::{BindingPolicy, CompilerFlag, CompilerOptions, OptLevel};

    fn sample_knowledge() -> Knowledge<KnobConfig> {
        let mut k = Knowledge::new();
        for (i, tn) in [1u32, 8, 32].iter().enumerate() {
            let co = if i == 0 {
                CompilerOptions::level(OptLevel::O2)
            } else {
                CompilerOptions::with_flags(OptLevel::O3, [CompilerFlag::UnrollAllLoops])
            };
            k.add(OperatingPoint::new(
                KnobConfig::new(co, *tn, BindingPolicy::Close),
                MetricValues::new()
                    .with(Metric::exec_time(), 1.0 / f64::from(*tn))
                    .with(Metric::power(), 50.0 + f64::from(*tn)),
            ));
        }
        k
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "socrates-atomic-roundtrip-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.bin");
        let bytes = wire_to_bytes(&WireMessage::Summary {
            counts: vec![(0, 3), (2, 1)],
            reply: true,
        })
        .unwrap();
        write_atomic_bytes(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error_with_the_path() {
        let err = crate::KnowledgeSnapshot::load("/nonexistent/kb.bin").unwrap_err();
        assert!(matches!(err, SocratesError::Io { .. }));
        assert_eq!(err.stage(), StageId::Persist);
        assert!(err.to_string().contains("/nonexistent/kb.bin"));
    }

    #[test]
    fn save_leaves_no_temp_file_and_replaces_atomically() {
        let dir =
            std::env::temp_dir().join(format!("socrates-atomic-save-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.bin");
        std::fs::write(&path, "old contents").unwrap();
        let msg = WireMessage::Ops {
            ops: vec![sample_observation()],
        };
        write_atomic_bytes(&path, &wire_to_bytes(&msg).unwrap()).unwrap();
        assert_eq!(
            wire_from_bytes(&std::fs::read(&path).unwrap()).unwrap(),
            msg
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "kb.bin")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_to_one_path_never_clobber_each_other() {
        // Regression: with one deterministic `.name.tmp` staging name,
        // two simultaneous writers overwrite each other's staged bytes
        // and the loser's rename fails on the vanished temp file. Every
        // writer must succeed, and the surviving file must be one
        // writer's *complete* contents.
        let dir = std::env::temp_dir().join("socrates-concurrent-atomic-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.bin");
        let writers = 8;
        let rounds = 25;
        let payload = |w: usize| format!("writer-{w}-").repeat(200);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let path = path.clone();
                let contents = payload(w);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        write_atomic_bytes(&path, contents.as_bytes())
                            .expect("concurrent atomic write");
                    }
                });
            }
        });
        let last = std::fs::read_to_string(&path).unwrap();
        assert!(
            (0..writers).any(|w| last == payload(w)),
            "surviving file must be one writer's complete contents"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "kb.bin")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_observation() -> Observation {
        Observation {
            origin: 5,
            seq: 11,
            round: 4,
            config: sample_knowledge().points()[1].config.clone(),
            observed: MetricValues::from_execution(0.25, 80.0),
        }
    }

    fn sample_wire_messages() -> Vec<WireMessage> {
        vec![
            WireMessage::Join { node: 3 },
            WireMessage::Ops {
                ops: vec![sample_observation()],
            },
            WireMessage::Summary {
                counts: vec![(0, 3), (2, 1)],
                reply: true,
            },
            WireMessage::WelcomeLog {
                ops: vec![sample_observation()],
            },
        ]
    }

    #[test]
    fn every_wire_variant_round_trips_through_the_binary_codec() {
        for msg in sample_wire_messages() {
            let bytes = wire_to_bytes(&msg).unwrap();
            assert_eq!(bytes[..4], WIRE_MAGIC);
            let back = wire_from_bytes(&bytes).unwrap();
            assert_eq!(back, msg);
            // Re-encoding is byte-stable (the canonical-form check that
            // also covers NaN payloads, where `==` on messages can't).
            assert_eq!(wire_to_bytes(&back).unwrap(), bytes);
        }
    }

    #[test]
    fn non_finite_floats_round_trip_bit_exactly() {
        let msg = WireMessage::Ops {
            ops: vec![Observation {
                origin: 1,
                seq: 0,
                round: 0,
                config: sample_knowledge().points()[0].config.clone(),
                observed: MetricValues::from_unvalidated([
                    (Metric::power(), f64::NAN),
                    (Metric::exec_time(), f64::NEG_INFINITY),
                ]),
            }],
        };
        let bytes = wire_to_bytes(&msg).unwrap();
        let back = wire_from_bytes(&bytes).unwrap();
        let WireMessage::Ops { ops } = back else {
            panic!("wrong variant");
        };
        let power = ops[0].observed.get(&Metric::power()).unwrap();
        assert_eq!(power.to_bits(), f64::NAN.to_bits(), "NaN bits preserved");
        assert_eq!(
            ops[0].observed.get(&Metric::exec_time()),
            Some(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn knob_discriminants_are_their_all_indices() {
        for (i, level) in OptLevel::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(level as u8), i);
        }
        for (i, bp) in BindingPolicy::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(bp as u8), i);
        }
    }

    #[test]
    fn oversized_sequences_are_transport_errors() {
        let mut out = Vec::new();
        let err = put_len(&mut out, u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.stage(), StageId::Transport);
        assert!(out.is_empty(), "nothing written for a refused length");
        put_len(&mut out, u32::MAX as usize).unwrap();
        assert_eq!(out, u32::MAX.to_le_bytes());
    }

    #[test]
    fn malformed_binary_frames_are_transport_errors() {
        // Bad magic.
        let err = wire_from_bytes(b"NOPE").unwrap_err();
        assert!(matches!(err, SocratesError::Transport { .. }));
        assert_eq!(err.stage(), StageId::Transport);
        // Unknown variant tags, among them the six the retired broker
        // star used (1, 3, 4, 5, 6 and 8): a frame from an old peer is
        // rejected at its tag, whatever payload follows.
        for tag in [1u8, 3, 4, 5, 6, 8, 0xFF] {
            let mut bytes = WIRE_MAGIC.to_vec();
            put_u8(&mut bytes, tag);
            put_u64(&mut bytes, 7);
            let err = wire_from_bytes(&bytes).unwrap_err();
            assert_eq!(err.stage(), StageId::Transport);
            assert!(
                err.to_string()
                    .contains(&format!("unknown wire message tag {tag}")),
                "{err}"
            );
        }
        // Truncated payload.
        let good = wire_to_bytes(&WireMessage::Join { node: 7 }).unwrap();
        assert!(wire_from_bytes(&good[..good.len() - 1]).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(wire_from_bytes(&long).is_err());
        // Out-of-range knob index inside an observation frame: tag (1),
        // count (4), origin (4), seq (8) and round (8) after the 4-byte
        // magic put the opt-level index byte at offset 29.
        let mut bytes = wire_to_bytes(&WireMessage::Ops {
            ops: vec![sample_observation()],
        })
        .unwrap();
        assert!(wire_from_bytes(&bytes).is_ok());
        bytes[29] = 17;
        assert!(wire_from_bytes(&bytes).is_err());
    }
}
