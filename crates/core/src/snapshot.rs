//! Shippable knowledge snapshots: versioned, compact binary artifacts
//! that carry a [`margot::SharedKnowledge`]'s full effective state
//! between processes, deployments and apps.
//!
//! The production story (kubecl's autotune cache, ported to SOCRATES):
//! a fleet that has paid for online exploration persists a
//! [`KnowledgeSnapshot`]; the next deployment *ships the snapshot* and
//! boots with [`crate::FleetConfig::warm_start`], so its instances
//! start from the learned operating points instead of the design-time
//! predictions — time-to-oracle drops from hundreds of virtual seconds
//! to near zero (`warm_start_bench`, BENCH.md). A brand-new app with no
//! snapshot of its own seeds from its nearest MILEPOST-feature
//! neighbour instead ([`nearest_neighbour`], cosine distance over the
//! COBAYN feature vectors).
//!
//! # Format
//!
//! A snapshot reuses the little-endian length-prefixed primitives of
//! the binary wire codec (`crate::wire_to_bytes`); all integers LE,
//! strings `u32`-length-prefixed UTF-8, `f64` as raw IEEE-754 bits:
//!
//! * snapshot    = magic `b"SOCS"` ++ format version (u32)
//!   ++ fingerprint ++ epoch (u64) ++ `seq<u64>` shard epochs
//!   ++ Knowledge (`seq<OperatingPoint>`, position order)
//! * fingerprint = app (str) ++ dataset (str) ++ platform (u64)
//!
//! Decoders are strict: wrong magic (the retired `b"SOCD"` delta
//! artifacts included), a future format version, truncation and
//! trailing bytes are all typed transport-stage [`SocratesError`]s —
//! never a panic. File I/O failures are persist-stage errors carrying
//! the path.

use crate::error::SocratesError;
use crate::knowledge_io::{
    put_knowledge, put_str, put_u32, put_u64, put_versions, write_atomic_bytes, ByteReader,
};
use crate::toolchain::{fnv, Toolchain, FNV_OFFSET};
use margot::{Knowledge, SharedKnowledge};
use platform_sim::KnobConfig;
use polybench::App;
use std::collections::HashMap;
use std::path::Path;

/// Leading magic of a full-state snapshot artifact.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SOCS";

/// Snapshot format version written by this build; decoders reject
/// anything newer with a typed error instead of misreading it.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// What a snapshot was cut *from*: the app, the dataset it was profiled
/// on and a stable hash of the platform model. The artifact store
/// reloads cached design knowledge only under its own fingerprint;
/// warm-start adoption deliberately does **not** check it (cross-app
/// seeding applies a neighbour's snapshot to a different app's design
/// space).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFingerprint {
    /// Application name (`App::name`).
    pub app: String,
    /// Dataset label the knowledge was profiled/learned on.
    pub dataset: String,
    /// FNV-1a over the serialised platform model.
    pub platform: u64,
}

impl SnapshotFingerprint {
    /// Builds a fingerprint from explicit parts.
    pub fn new(app: impl Into<String>, dataset: impl Into<String>, platform: u64) -> Self {
        SnapshotFingerprint {
            app: app.into(),
            dataset: dataset.into(),
            platform,
        }
    }

    /// The fingerprint of `app` under `toolchain`: its name, the
    /// toolchain's dataset and a stable hash of the platform model
    /// (same FNV the artifact cache keys use).
    ///
    /// # Panics
    ///
    /// Panics if the platform cannot be serialised (never happens:
    /// every field is plain data).
    pub fn of(toolchain: &Toolchain, app: App) -> Self {
        let platform_json =
            serde_json::to_string(&toolchain.platform).expect("platform serialises");
        SnapshotFingerprint {
            app: app.name().to_string(),
            dataset: format!("{:?}", toolchain.dataset),
            platform: fnv(FNV_OFFSET, platform_json.as_bytes()),
        }
    }
}

/// A full-state knowledge snapshot: the effective knowledge of a
/// [`SharedKnowledge`] at one consistent `(epoch, shard epoch vector)`,
/// ready to ship with a deployment and adopt via
/// [`crate::FleetConfig::warm_start`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnowledgeSnapshot {
    /// Provenance: app, dataset, platform hash.
    pub fingerprint: SnapshotFingerprint,
    /// Global epoch the snapshot is consistent with.
    pub epoch: u64,
    /// Per-shard epoch vector at the cut (length = shard count).
    pub shard_epochs: Vec<u64>,
    /// The effective knowledge in position order.
    pub knowledge: Knowledge<KnobConfig>,
}

impl KnowledgeSnapshot {
    /// Cuts a snapshot from a live knowledge base: epoch, shard epoch
    /// vector and effective knowledge, read as one consistent triple.
    pub fn capture(shared: &SharedKnowledge<KnobConfig>, fingerprint: SnapshotFingerprint) -> Self {
        let (epoch, shard_epochs, knowledge) = shared.versioned_snapshot();
        KnowledgeSnapshot {
            fingerprint,
            epoch,
            shard_epochs,
            knowledge,
        }
    }

    /// Seeds a design-time knowledge base from this snapshot: every
    /// design point whose configuration the snapshot also holds gets
    /// the snapshot's metric values merged over its design metrics;
    /// configurations the snapshot does not know keep their design
    /// predictions untouched. This is the warm-start primitive — it
    /// works across apps (the CO × TN × BP configuration space is
    /// shared), which is exactly the cross-app seeding path.
    pub fn apply_to_design(&self, design: &Knowledge<KnobConfig>) -> Knowledge<KnobConfig> {
        let learned: HashMap<&KnobConfig, &margot::MetricValues> = self
            .knowledge
            .points()
            .iter()
            .map(|p| (&p.config, &p.metrics))
            .collect();
        design
            .points()
            .iter()
            .map(|p| {
                let mut metrics = p.metrics.clone();
                if let Some(values) = learned.get(&p.config) {
                    for (metric, value) in values.iter() {
                        metrics.insert(metric.clone(), value);
                    }
                }
                margot::OperatingPoint::new(p.config.clone(), metrics)
            })
            .collect()
    }

    /// Encodes the snapshot as a standalone binary artifact (format in
    /// the module docs).
    ///
    /// # Errors
    ///
    /// Returns a transport-stage [`SocratesError`] when a sequence is
    /// longer than the format's u32 counts can say.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SocratesError> {
        let mut out = Vec::with_capacity(64 + 32 * self.knowledge.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_FORMAT_VERSION);
        put_str(&mut out, &self.fingerprint.app)?;
        put_str(&mut out, &self.fingerprint.dataset)?;
        put_u64(&mut out, self.fingerprint.platform);
        put_u64(&mut out, self.epoch);
        put_versions(&mut out, &self.shard_epochs)?;
        put_knowledge(&mut out, &self.knowledge)?;
        Ok(out)
    }

    /// Decodes a snapshot artifact.
    ///
    /// # Errors
    ///
    /// Returns a transport-stage [`SocratesError`] on wrong magic, a
    /// format version newer than this build understands, truncated
    /// input, trailing bytes or any malformed payload field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SocratesError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SocratesError::transport(
                "malformed binary frame: bad knowledge snapshot magic",
            ));
        }
        let version = r.u32()?;
        if version > SNAPSHOT_FORMAT_VERSION {
            return Err(SocratesError::transport(format!(
                "unsupported snapshot format version {version} \
                 (this build reads up to {SNAPSHOT_FORMAT_VERSION})"
            )));
        }
        let fingerprint = SnapshotFingerprint {
            app: r.str()?.to_string(),
            dataset: r.str()?.to_string(),
            platform: r.u64()?,
        };
        let epoch = r.u64()?;
        let n = r.len()?;
        let mut shard_epochs = Vec::with_capacity(n);
        for _ in 0..n {
            shard_epochs.push(r.u64()?);
        }
        let knowledge = r.knowledge()?;
        r.finish()?;
        Ok(KnowledgeSnapshot {
            fingerprint,
            epoch,
            shard_epochs,
            knowledge,
        })
    }

    /// Writes the snapshot to `path` atomically (staged in a
    /// writer-unique temp file, renamed into place).
    ///
    /// # Errors
    ///
    /// Returns a persist-stage [`SocratesError`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SocratesError> {
        write_atomic_bytes(path.as_ref(), &self.to_bytes()?)
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns a persist-stage [`SocratesError`] on I/O failure and a
    /// transport-stage one on corrupt or version-skewed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SocratesError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| SocratesError::io(path, e))?;
        Self::from_bytes(&bytes)
    }
}

/// Cosine *distance* (`1 − cos θ`) between two feature vectors — the
/// COBAYN similarity measure over MILEPOST features. 0 means parallel
/// (maximally similar); a zero-norm vector is maximally distant from
/// everything (including another zero vector: no evidence of
/// similarity).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "feature vectors must have equal length");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot / (na.sqrt() * nb.sqrt())
}

/// Index of the candidate feature vector nearest to `target` by
/// [`cosine_distance`] — the cross-app snapshot-seeding rule: a target
/// app with no snapshot of its own warms up from its nearest
/// MILEPOST-feature neighbour's. Ties break to the lowest index;
/// returns `None` for an empty candidate set.
pub fn nearest_neighbour(target: &[f64], candidates: &[Vec<f64>]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (i, cosine_distance(target, c)))
        .fold(None, |best: Option<(usize, f64)>, (i, d)| match best {
            Some((_, bd)) if bd <= d => best,
            _ => Some((i, d)),
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use margot::{Metric, MetricValues, OperatingPoint};
    use platform_sim::{BindingPolicy, CompilerOptions, OptLevel};

    fn design() -> Knowledge<KnobConfig> {
        [1u32, 2, 4, 8]
            .into_iter()
            .map(|tn| {
                OperatingPoint::new(
                    KnobConfig::new(
                        CompilerOptions::level(OptLevel::O2),
                        tn,
                        BindingPolicy::Close,
                    ),
                    MetricValues::new()
                        .with(Metric::exec_time(), 1.0 / f64::from(tn))
                        .with(Metric::power(), 50.0 + f64::from(tn)),
                )
            })
            .collect()
    }

    fn fp() -> SnapshotFingerprint {
        SnapshotFingerprint::new("2mm", "Medium", 0xDEAD_BEEF)
    }

    fn observe(shared: &SharedKnowledge<KnobConfig>, tn: u32, time_s: f64, power_w: f64) {
        let config = KnobConfig::new(
            CompilerOptions::level(OptLevel::O2),
            tn,
            BindingPolicy::Close,
        );
        assert!(shared.publish(&config, &MetricValues::from_execution(time_s, power_w)));
    }

    #[test]
    fn snapshot_round_trips_through_bytes_and_files() {
        let shared = SharedKnowledge::new(design(), 4).with_shards(3);
        observe(&shared, 2, 0.4, 60.0);
        observe(&shared, 8, 0.1, 90.0);
        let snap = KnowledgeSnapshot::capture(&shared, fp());
        assert_eq!(snap.shard_epochs.len(), 3);
        assert_eq!(snap.epoch, shared.epoch());
        let bytes = snap.to_bytes().unwrap();
        assert_eq!(bytes[..4], SNAPSHOT_MAGIC);
        let back = KnowledgeSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(
            back.to_bytes().unwrap(),
            bytes,
            "re-encoding is byte-stable"
        );

        let dir = std::env::temp_dir().join("socrates-snapshot-roundtrip-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.snapshot.bin");
        snap.save(&path).unwrap();
        assert_eq!(KnowledgeSnapshot::load(&path).unwrap(), snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_to_design_merges_only_known_configs() {
        let shared = SharedKnowledge::new(design(), 4);
        observe(&shared, 2, 0.4, 60.0);
        let snap = KnowledgeSnapshot::capture(&shared, fp());
        // A *different* design space: one overlapping config, one new.
        let other: Knowledge<KnobConfig> = [2u32, 16]
            .into_iter()
            .map(|tn| {
                OperatingPoint::new(
                    KnobConfig::new(
                        CompilerOptions::level(OptLevel::O2),
                        tn,
                        BindingPolicy::Close,
                    ),
                    MetricValues::new()
                        .with(Metric::exec_time(), 9.0)
                        .with(Metric::power(), 9.0),
                )
            })
            .collect();
        let seeded = snap.apply_to_design(&other);
        assert_eq!(seeded.len(), 2);
        assert_eq!(seeded.points()[0].metric(&Metric::exec_time()), Some(0.4));
        assert_eq!(seeded.points()[0].metric(&Metric::power()), Some(60.0));
        // The config the snapshot never saw keeps its design metrics.
        assert_eq!(seeded.points()[1], other.points()[1]);
    }

    #[test]
    fn future_format_versions_and_bad_magic_are_typed_errors() {
        let snap = KnowledgeSnapshot::capture(&SharedKnowledge::new(design(), 4), fp());
        let mut bytes = snap.to_bytes().unwrap();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
        let err = KnowledgeSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SocratesError::Transport { .. }));
        assert!(err
            .to_string()
            .contains("unsupported snapshot format version"));

        // The retired delta artifact's magic is a wrong magic.
        let mut wrong_magic = snap.to_bytes().unwrap();
        wrong_magic[..4].copy_from_slice(b"SOCD");
        let err = KnowledgeSnapshot::from_bytes(&wrong_magic).unwrap_err();
        assert!(matches!(err, SocratesError::Transport { .. }));
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn cosine_nearest_neighbour_picks_the_aligned_vector() {
        let target = vec![1.0, 0.0, 2.0];
        let candidates = vec![
            vec![0.0, 5.0, 0.0], // orthogonal
            vec![2.0, 0.0, 4.0], // parallel
            vec![1.0, 1.0, 1.0], // in between
        ];
        assert_eq!(nearest_neighbour(&target, &candidates), Some(1));
        assert_eq!(nearest_neighbour(&target, &[]), None);
        assert!(cosine_distance(&[0.0; 3], &[1.0, 2.0, 3.0]) >= 1.0);
        let d = cosine_distance(&target, &candidates[1]);
        assert!(d.abs() < 1e-12, "parallel vectors have distance ~0: {d}");
    }
}
