//! The SOCRATES toolchain (paper Fig. 1): from the original application
//! source to the adaptive application, with zero manual intervention.
//!
//! Each step is one memoised [`ArtifactStore`] accessor, in order:
//!
//! 1. [`parsed`](ArtifactStore::parsed): the original C source
//!    (`minic`);
//! 2. [`kernel_features`](ArtifactStore::kernel_features): static kernel
//!    features (`milepost` ≙ GCC-Milepost);
//! 3. [`flag_predictions`](ArtifactStore::flag_predictions): COBAYN,
//!    trained on the *other* applications (leave-one-out over the
//!    shared training corpus), predicts the most promising flags;
//! 4. [`weaved`](ArtifactStore::weaved): `lara` weaves the
//!    `Multiversioning` strategy (clones per CO × BP, OpenMP pragmas,
//!    dispatch wrapper) and the `Autotuner` strategy (mARGOt glue);
//! 5. [`profiled_knowledge`](ArtifactStore::profiled_knowledge): the
//!    full-factorial design space profiled on the (simulated) platform
//!    gives the mARGOt application knowledge (`dse`).
//!
//! Each accessor builds its own inputs through the store on a miss, so
//! a rerun over a warm store is a pure cache walk.
//! [`Toolchain::enhance`] fetches the five artifacts of one application
//! and assembles the [`EnhancedApp`]; [`Toolchain::enhance_all`] fans a
//! whole benchmark suite out over rayon with one shared
//! [`ArtifactStore`], so the COBAYN corpus is built once instead of
//! once per target — bit-identical to the serial per-app path at any
//! thread count.

use crate::artifact::ArtifactStore;
use crate::error::SocratesError;
use crate::platform::Platform;
use lara::{Multiversioned, WeavingMetrics};
use margot::Knowledge;
use milepost::Features;
use minic::TranslationUnit;
use platform_sim::{
    BindingPolicy, CompilerOptions, KnobConfig, OptLevel, Topology, WorkloadProfile,
};
use polybench::{App, Dataset};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Toolchain configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Toolchain {
    /// Dataset size used for profiling and at runtime.
    pub dataset: Dataset,
    /// RNG seed for the profiling machine.
    pub seed: u64,
    /// Noisy profiling repetitions per configuration during the DSE.
    pub dse_repetitions: u32,
    /// Number of COBAYN-predicted flag combinations (the paper uses 4).
    pub cobayn_predictions: usize,
    /// Fraction of the flag space kept as "good" during the iterative
    /// compilation that generates COBAYN training data.
    pub training_top_fraction: f64,
    /// The deployment target the DSE profiles against (topology plus
    /// timing/power/noise models and the seed-to-machine factory).
    pub platform: Platform,
}

impl Default for Toolchain {
    fn default() -> Self {
        Toolchain {
            dataset: Dataset::Large,
            seed: 42,
            dse_repetitions: 3,
            cobayn_predictions: 4,
            training_top_fraction: 0.15,
            platform: Platform::xeon_e5_2630_v3(),
        }
    }
}

/// The product of the toolchain: everything the adaptive binary embeds.
#[derive(Debug, Clone, PartialEq)]
pub struct EnhancedApp {
    /// Which benchmark this is.
    pub app: App,
    /// The dataset the app was profiled on (functional kernel specs are
    /// derived from its dimensions, clamped to
    /// [`crate::FUNCTIONAL_DIM_CAP`]).
    pub dataset: Dataset,
    /// The weaved, adaptive program, shared with the artifact store it
    /// was woven into.
    pub weaved: Arc<TranslationUnit>,
    /// Table I metrics for this application.
    pub metrics: WeavingMetrics,
    /// Multiversioning artefacts (clone names, wrapper, control vars).
    pub multiversioned: Multiversioned,
    /// Version table: index = `__socrates_version` value.
    pub versions: Vec<(CompilerOptions, BindingPolicy)>,
    /// The kernel's static feature vector.
    pub features: Features,
    /// The COBAYN-predicted flag combinations (CF1..CF4).
    pub cobayn_flags: Vec<CompilerOptions>,
    /// The design-time knowledge from the DSE.
    pub knowledge: Knowledge<KnobConfig>,
    /// The kernel workload profile driving the platform model.
    pub profile: WorkloadProfile,
    /// The platform this app was profiled for (the runtime boots its
    /// machine from this).
    pub platform: Platform,
}

impl EnhancedApp {
    /// Maps a knob configuration to its clone version index.
    ///
    /// # Errors
    ///
    /// Returns a dispatch-stage [`SocratesError`] if the configuration's
    /// (CO, BP) pair is not in the version table — the knowledge and the
    /// table are built from the same space, so this indicates toolchain
    /// corruption.
    pub fn try_version_of(&self, config: &KnobConfig) -> Result<usize, SocratesError> {
        self.versions
            .iter()
            .position(|(co, bp)| *co == config.co && *bp == config.bp)
            .ok_or_else(|| SocratesError::unknown_version(self.app, config))
    }

    /// The weaved clone functional kernels enter through: the first
    /// version (`kernel_<app>_v0`; all clones share one body and differ
    /// only in pragma flags, so one functional artifact covers the
    /// version table), or the original kernel when there is none.
    pub fn kernel_entry(&self) -> String {
        kernel_entry(self.app, &self.multiversioned)
    }
}

/// [`EnhancedApp::kernel_entry`] over a weaved program's artifacts.
pub(crate) fn kernel_entry(app: App, multiversioned: &Multiversioned) -> String {
    multiversioned
        .version_functions
        .first()
        .cloned()
        .unwrap_or_else(|| app.kernel_name())
}

impl Toolchain {
    /// Enhances one benchmark with a private, throwaway artifact store.
    ///
    /// # Errors
    ///
    /// Returns a stage-tagged [`SocratesError`] if any step fails; with
    /// the bundled Polybench sources every step succeeds.
    pub fn enhance(&self, app: App) -> Result<EnhancedApp, SocratesError> {
        self.enhance_with_store(app, &ArtifactStore::new())
    }

    /// Enhances one benchmark against a caller-owned [`ArtifactStore`]:
    /// fetches its five artifacts once each, in toolchain order, and
    /// assembles them. Repeated calls (and calls for sibling apps) reuse
    /// every cached artifact.
    ///
    /// # Errors
    ///
    /// Returns a stage-tagged [`SocratesError`] if any step fails.
    pub fn enhance_with_store(
        &self,
        app: App,
        store: &ArtifactStore,
    ) -> Result<EnhancedApp, SocratesError> {
        // The parse only feeds the stages after it; fetching it here
        // keeps one store lookup per stage, in toolchain order.
        store.parsed(self, app)?;
        let features = store.kernel_features(self, app)?;
        let predictions = store.flag_predictions(self, app)?;
        let weaved = store.weaved(self, app)?;
        let profiled = store.profiled_knowledge(self, app)?;
        Ok(EnhancedApp {
            app,
            dataset: self.dataset,
            weaved: Arc::clone(&weaved.weaved),
            metrics: weaved.metrics,
            multiversioned: weaved.multiversioned.clone(),
            versions: weaved.versions.clone(),
            features: features.features.clone(),
            cobayn_flags: predictions.flags.clone(),
            knowledge: profiled.knowledge.clone(),
            profile: profiled.profile.clone(),
            platform: self.platform.clone(),
        })
    }

    /// Enhances a batch of applications with one shared artifact store,
    /// fanning targets out over rayon.
    ///
    /// The COBAYN training corpus (parse + features + iterative
    /// compilation per application) is built **once** and shared by
    /// every leave-one-out model, so a 12-app sweep is O(n) corpus
    /// work instead of the O(n²) of calling [`Toolchain::enhance`] in a
    /// loop. Per-app DSE machine seeds are derived deterministically
    /// from the app name, so the result is **bit-identical** to the
    /// serial per-app path at any thread count, in input order.
    ///
    /// # Errors
    ///
    /// Returns the first (in `apps` order) failing target's error.
    pub fn enhance_all(&self, apps: &[App]) -> Result<Vec<EnhancedApp>, SocratesError> {
        self.enhance_all_with_store(apps, &ArtifactStore::new())
    }

    /// [`Toolchain::enhance_all`] against a caller-owned store (e.g. one
    /// with a persistence directory).
    ///
    /// # Errors
    ///
    /// Returns the first (in `apps` order) failing target's error.
    pub fn enhance_all_with_store(
        &self,
        apps: &[App],
        store: &ArtifactStore,
    ) -> Result<Vec<EnhancedApp>, SocratesError> {
        if apps.is_empty() {
            return Ok(Vec::new());
        }
        // Deduplicate the targets so repeated entries neither race to
        // build the same per-target artifacts nor run them twice; `slot`
        // re-expands the output to the caller's order below.
        let mut unique: Vec<App> = Vec::new();
        let mut slot: Vec<usize> = Vec::with_capacity(apps.len());
        for &app in apps {
            slot.push(unique.iter().position(|&u| u == app).unwrap_or_else(|| {
                unique.push(app);
                unique.len() - 1
            }));
        }
        // Warm the shared artifacts first (race-free, in parallel):
        // every leave-one-out model draws on the same corpus entries.
        // The union of the targets' sibling sets is App::ALL as soon as
        // two distinct targets are batched; a single-target batch only
        // needs the target's siblings.
        let universe: Vec<App> = if unique.len() > 1 {
            App::ALL.to_vec()
        } else {
            App::ALL
                .iter()
                .copied()
                .filter(|&a| a != unique[0])
                .collect()
        };
        store.warm_corpus(self, &universe)?;
        let enhanced = unique
            .par_iter()
            .map(|&app| self.enhance_with_store(app, store))
            .collect::<Vec<Result<EnhancedApp, SocratesError>>>()
            .into_iter()
            .collect::<Result<Vec<EnhancedApp>, SocratesError>>()?;
        if unique.len() == apps.len() {
            // Duplicate-free (the common case): move, don't clone.
            return Ok(enhanced);
        }
        Ok(slot.iter().map(|&i| enhanced[i].clone()).collect())
    }

    /// The target platform topology (shorthand for
    /// `self.platform.topology`).
    pub fn topology(&self) -> Topology {
        self.platform.topology
    }

    /// A stable fingerprint over the whole configuration (dataset,
    /// seeds, hyper-parameters, platform); part of every artifact cache
    /// key.
    #[expect(
        clippy::expect_used,
        reason = "every field is plain data with a derived Serialize, so serialising cannot fail"
    )]
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("toolchain config serialises");
        fnv(FNV_OFFSET, json.as_bytes())
    }

    /// The static version table: (4 standard levels + predictions) × BP,
    /// in a deterministic order (CO-major, close before spread).
    pub fn version_table(
        &self,
        cobayn_flags: &[CompilerOptions],
    ) -> Vec<(CompilerOptions, BindingPolicy)> {
        let mut cos: Vec<CompilerOptions> = OptLevel::ALL
            .into_iter()
            .map(CompilerOptions::level)
            .collect();
        for co in cobayn_flags {
            if !cos.contains(co) {
                cos.push(co.clone());
            }
        }
        let mut table = Vec::with_capacity(cos.len() * 2);
        for co in cos {
            for bp in BindingPolicy::ALL {
                table.push((co.clone(), bp));
            }
        }
        table
    }
}

/// The FNV-1a offset basis: the digest of no bytes, where every
/// [`fnv`] fold starts.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a `digest`. The crate's one FNV-1a:
/// per-app machine seeds, config and platform fingerprints, trace
/// digests and the event runtime's event digest.
#[inline]
pub(crate) fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| {
        (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_toolchain() -> Toolchain {
        Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            ..Toolchain::default()
        }
    }

    #[test]
    fn enhance_2mm_produces_complete_artifacts() {
        let e = quick_toolchain().enhance(App::TwoMm).unwrap();
        // 16 static versions: 8 CO × 2 BP (4 std + 4 predicted, if all
        // distinct; at minimum 4 std × 2).
        assert!(
            e.versions.len() >= 8 && e.versions.len() <= 16,
            "{}",
            e.versions.len()
        );
        assert_eq!(e.multiversioned.version_functions.len(), e.versions.len());
        assert_eq!(e.cobayn_flags.len(), 4);
        // Knowledge covers the full-factorial space.
        assert_eq!(e.knowledge.len(), e.versions.len() / 2 * 32 * 2);
    }

    #[test]
    fn weaved_program_is_valid_and_instrumented() {
        let e = quick_toolchain().enhance(App::TwoMm).unwrap();
        let printed = minic::print(&e.weaved);
        let reparsed = minic::parse(&printed).expect("weaved program parses");
        assert_eq!(reparsed, e.weaved);
        assert!(printed.contains("margot_init()"));
        assert!(printed.contains("margot_update(&__socrates_version, &__socrates_num_threads)"));
        assert!(printed.contains("#pragma GCC optimize"));
        assert!(printed.contains("num_threads(__socrates_num_threads)"));
    }

    #[test]
    fn table_one_shape_for_2mm() {
        // Paper: W-LOC is about an order of magnitude above O-LOC.
        let e = quick_toolchain().enhance(App::TwoMm).unwrap();
        let m = e.metrics;
        assert!(m.weaved_loc > m.original_loc * 5, "{m}");
        assert!(m.attributes > 100, "{m}");
        assert!(m.actions > 50, "{m}");
        assert!(m.bloat() > 1.0, "{m}");
    }

    #[test]
    fn every_knowledge_config_has_a_version() {
        let e = quick_toolchain().enhance(App::Mvt).unwrap();
        for op in e.knowledge.points() {
            let v = e.try_version_of(&op.config).unwrap();
            assert!(v < e.versions.len());
        }
    }

    #[test]
    fn try_version_of_reports_unknown_configs() {
        let e = quick_toolchain().enhance(App::Mvt).unwrap();
        // A CO that is certainly not in the table: O1 plus every flag.
        let alien = CompilerOptions::with_flags(OptLevel::O1, platform_sim::CompilerFlag::ALL);
        let cfg = KnobConfig::new(alien, 1, BindingPolicy::Close);
        let err = e.try_version_of(&cfg).unwrap_err();
        assert_eq!(err.stage(), crate::error::StageId::Dispatch);
        assert!(err.to_string().contains("no compiled version"));
    }

    #[test]
    fn version_table_is_deterministic_and_unique() {
        let t = quick_toolchain();
        let flags = vec![CompilerOptions::level(OptLevel::O2)]; // duplicate of std
        let table = t.version_table(&flags);
        assert_eq!(table.len(), 8); // dedup: 4 std × 2 BP
        let set: std::collections::HashSet<_> = table.iter().collect();
        assert_eq!(set.len(), table.len());
    }

    #[test]
    fn enhance_over_a_warm_store_is_a_pure_cache_walk() {
        let t = Toolchain {
            dataset: Dataset::Small,
            ..quick_toolchain()
        };
        let store = ArtifactStore::new();
        let first = t.enhance_with_store(App::Atax, &store).unwrap();
        let cold = store.stats();
        let second = t.enhance_with_store(App::Atax, &store).unwrap();
        assert_eq!(first, second);
        let warm = store.stats();
        assert_eq!(
            warm.total_builds(),
            cold.total_builds(),
            "warm rerun must not rebuild anything"
        );
        assert_eq!(warm.hits, cold.hits + 5, "one lookup per artifact");
    }

    #[test]
    fn enhancement_is_reproducible() {
        let t = quick_toolchain();
        let a = t.enhance(App::Atax).unwrap();
        let b = t.enhance(App::Atax).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_apps_get_different_predictions() {
        // The whole premise: flag preferences are app-dependent.
        let t = quick_toolchain();
        let store = ArtifactStore::new();
        let gemm = t.enhance_with_store(App::TwoMm, &store).unwrap();
        let branchy = t.enhance_with_store(App::Nussinov, &store).unwrap();
        assert_ne!(gemm.cobayn_flags, branchy.cobayn_flags);
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let base = quick_toolchain();
        assert_eq!(base.fingerprint(), quick_toolchain().fingerprint());
        let other_seed = Toolchain {
            seed: base.seed + 1,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), other_seed.fingerprint());
        let other_platform = Toolchain {
            platform: Platform::with_topology(
                "mini",
                Topology {
                    sockets: 1,
                    cores_per_socket: 2,
                    smt: 1,
                },
            ),
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), other_platform.fingerprint());
    }
}
