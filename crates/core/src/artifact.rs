//! Typed stage artifacts and the shared [`ArtifactStore`].
//!
//! Every design-time step produces a typed artifact (a [`ParsedSource`],
//! [`KernelFeatures`], [`FlagPredictions`], [`WeavedProgram`] or
//! [`ProfiledKnowledge`]); the store memoises them under a key of
//! `(app, dataset, toolchain-config fingerprint)` so that a batch run
//! over many targets computes each shared artifact **once**.
//!
//! The big win is the COBAYN training corpus: the seed implementation
//! re-ran parse + feature extraction + iterative compilation over all
//! sibling applications for *every* target (O(n²) over a benchmark
//! suite). With the store, each application's [`cobayn::TrainingApp`]
//! corpus entry is built once per `(app, dataset)`, and leave-one-out
//! training is realised by *masking* the target's entry when assembling
//! a model's training set — never by rebuilding the corpus.
//!
//! All methods take `&self` and are safe to call from many threads at
//! once (this is what lets [`crate::Toolchain::enhance_all`] fan
//! targets out over rayon). Values are deterministic functions of the
//! key, so concurrent computation of the same key is harmless: the
//! first insert wins and every caller observes identical data.

use crate::engine::{CompiledKernel, KernelFamily};
use crate::error::SocratesError;
use crate::snapshot::{
    nearest_neighbour, KnowledgeSnapshot, SnapshotFingerprint, SNAPSHOT_FORMAT_VERSION,
};
use crate::toolchain::{fnv, kernel_entry, Toolchain};
use cobayn::{iterative_compilation, Cobayn, CobaynConfig, TrainingApp};
use lara::{Multiversioned, WeavingMetrics};
use margot::Knowledge;
use milepost::Features;
use minic::TranslationUnit;
use platform_sim::{BindingPolicy, CompilerOptions, KnobConfig, WorkloadProfile};
use polybench::{App, Dataset};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Stage 1 artifact: the parsed original application.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSource {
    /// Which benchmark this is.
    pub app: App,
    /// The original (pure functional) program.
    pub tu: TranslationUnit,
    /// Name of the kernel function.
    pub kernel: String,
}

/// Stage 2 artifact: the kernel's static Milepost feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFeatures {
    /// Which benchmark this is.
    pub app: App,
    /// The extracted feature vector.
    pub features: Features,
}

/// Stage 3 artifact: the COBAYN-predicted flag combinations (CF1..CFn).
#[derive(Debug, Clone, PartialEq)]
pub struct FlagPredictions {
    /// Which benchmark this is.
    pub app: App,
    /// Predicted combinations, most promising first.
    pub flags: Vec<CompilerOptions>,
}

/// Stage 4 artifact: the weaved adaptive program and its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct WeavedProgram {
    /// Which benchmark this is.
    pub app: App,
    /// The weaved, adaptive program, shared with the app's
    /// [`KernelFamily`].
    pub weaved: Arc<TranslationUnit>,
    /// Table I metrics for this application.
    pub metrics: WeavingMetrics,
    /// Multiversioning artefacts (clone names, wrapper, control vars).
    pub multiversioned: Multiversioned,
    /// Version table: index = `__socrates_version` value.
    pub versions: Vec<(CompilerOptions, BindingPolicy)>,
}

/// Stage 5 artifact: the design-time knowledge from the DSE.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledKnowledge {
    /// Which benchmark this is.
    pub app: App,
    /// The mARGOt application knowledge.
    pub knowledge: Knowledge<KnobConfig>,
    /// The kernel workload profile driving the platform model.
    pub profile: WorkloadProfile,
}

/// Version stamp of the persisted design-knowledge artifacts. The
/// config fingerprint only covers *configuration*; bump this whenever
/// the profiling semantics themselves change (DSE enumeration, platform
/// model, noise derivation), so stale on-disk files from older code
/// are treated as misses instead of silently reloaded.
pub const KNOWLEDGE_FORMAT_VERSION: u32 = 1;

/// Cache key: which application, which dataset, which toolchain
/// configuration (fingerprint over every knob that can change a stage
/// output, including the platform).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ArtifactKey {
    app: App,
    dataset: Dataset,
    config: u64,
}

/// Snapshot of the store's cache behaviour: how many lookups hit, and
/// how many artifacts each stage contributed. The equivalence tests
/// pin the O(n) corpus property with these counters.
///
/// A build (or a knowledge load) counts only when its insert wins. Two
/// threads that miss the same key concurrently may both run the stage;
/// the one whose insert loses the race returns the winner's artifact
/// and counts as a hit, so every lookup is exactly one build or one hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Parse stage executions.
    pub parse_builds: u64,
    /// Feature-extraction stage executions.
    pub feature_builds: u64,
    /// Corpus-entry constructions (parse + features + iterative
    /// compilation for one application).
    pub corpus_builds: u64,
    /// COBAYN model trainings (one per leave-one-out target).
    pub model_builds: u64,
    /// Flag-prediction stage executions.
    pub prediction_builds: u64,
    /// Weaving stage executions.
    pub weave_builds: u64,
    /// DSE profiling stage executions.
    pub knowledge_builds: u64,
    /// Knowledge artifacts loaded from the persistence directory
    /// instead of being re-profiled.
    pub knowledge_loads: u64,
    /// Kernel builds, one per `(app, dataset, config, threads)`: a fleet
    /// of instances sharing a configuration builds once, and profiling
    /// an app builds each of its thread counts once. Every build
    /// validates its spec; it lowers and runs only when the first kernel
    /// the app's [`KernelFamily`] ran would not lower the same under it,
    /// and otherwise shares that kernel's code and report. Each of the
    /// 12 Polybench apps lowers and runs once across its thread counts.
    pub kernel_builds: u64,
    /// Compiled-kernel lookups answered from cache (profiling looks up
    /// each thread count once, not each profiled configuration).
    pub kernel_hits: u64,
}

impl StoreStats {
    /// Total stage executions across all artifact kinds.
    pub fn total_builds(&self) -> u64 {
        self.parse_builds
            + self.feature_builds
            + self.corpus_builds
            + self.model_builds
            + self.prediction_builds
            + self.weave_builds
            + self.knowledge_builds
            + self.kernel_builds
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    parse: AtomicU64,
    features: AtomicU64,
    corpus: AtomicU64,
    model: AtomicU64,
    predictions: AtomicU64,
    weave: AtomicU64,
    knowledge: AtomicU64,
    knowledge_loads: AtomicU64,
    kernel: AtomicU64,
    kernel_hits: AtomicU64,
    kernel_compile_ns: AtomicU64,
}

/// Thread-safe cache of stage artifacts, shared across the targets of a
/// batch enhancement (and reusable across repeated single enhancements).
///
/// With a persistence directory ([`ArtifactStore::with_persist_dir`]),
/// profiled knowledge round-trips through disk as a
/// [`KnowledgeSnapshot`] at epoch 0: a cold store reloads previous DSE
/// results instead of re-profiling.
#[derive(Default)]
pub struct ArtifactStore {
    persist_dir: Option<PathBuf>,
    /// Memoised `(config, fingerprint)` of the last toolchain seen, so
    /// hot-path lookups don't re-serialise the config per call.
    fingerprint: Mutex<Option<(Toolchain, u64)>>,
    parsed: Mutex<HashMap<ArtifactKey, Arc<ParsedSource>>>,
    features: Mutex<HashMap<ArtifactKey, Arc<KernelFeatures>>>,
    corpus: Mutex<HashMap<ArtifactKey, Arc<TrainingApp>>>,
    models: Mutex<HashMap<ArtifactKey, Arc<Cobayn>>>,
    predictions: Mutex<HashMap<ArtifactKey, Arc<FlagPredictions>>>,
    weaved: Mutex<HashMap<ArtifactKey, Arc<WeavedProgram>>>,
    knowledge: Mutex<HashMap<ArtifactKey, Arc<ProfiledKnowledge>>>,
    kernels: Mutex<HashMap<(ArtifactKey, u32), Arc<CompiledKernel>>>,
    /// One kernel family per `(app, dataset, config)`: its thread counts
    /// share the family's one lowering and run.
    families: Mutex<HashMap<ArtifactKey, Arc<KernelFamily>>>,
    counters: Counters,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("persist_dir", &self.persist_dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ArtifactStore {
    /// An empty, in-memory store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// A store that persists profiled knowledge as snapshot files under
    /// `dir` (created on first save). Knowledge lookups check the
    /// directory before re-running the DSE.
    pub fn with_persist_dir(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            persist_dir: Some(dir.into()),
            ..ArtifactStore::default()
        }
    }

    /// The persistence directory, if configured.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StoreStats {
            hits: get(&c.hits),
            parse_builds: get(&c.parse),
            feature_builds: get(&c.features),
            corpus_builds: get(&c.corpus),
            model_builds: get(&c.model),
            prediction_builds: get(&c.predictions),
            weave_builds: get(&c.weave),
            knowledge_builds: get(&c.knowledge),
            knowledge_loads: get(&c.knowledge_loads),
            kernel_builds: get(&c.kernel),
            kernel_hits: get(&c.kernel_hits),
        }
    }

    /// Total wall-clock nanoseconds spent building kernels: every
    /// validation, plus the lowerings and runs the builds made (kept
    /// out of [`StoreStats`] so stats snapshots stay comparable with
    /// `==`).
    pub fn kernel_compile_ns(&self) -> u64 {
        self.counters.kernel_compile_ns.load(Ordering::Relaxed)
    }

    fn key(&self, toolchain: &Toolchain, app: App) -> ArtifactKey {
        let mut memo = lock(&self.fingerprint);
        let config = match memo.as_ref() {
            Some((cached, fp)) if cached == toolchain => *fp,
            _ => {
                let fp = toolchain.fingerprint();
                *memo = Some((toolchain.clone(), fp));
                fp
            }
        };
        ArtifactKey {
            app,
            dataset: toolchain.dataset,
            config,
        }
    }

    /// The parsed original source of `app`.
    ///
    /// # Errors
    ///
    /// Returns a parse-stage [`SocratesError`] on invalid source (never
    /// happens for the bundled Polybench programs).
    pub fn parsed(
        &self,
        toolchain: &Toolchain,
        app: App,
    ) -> Result<Arc<ParsedSource>, SocratesError> {
        get_or_build(
            &self.parsed,
            &self.counters.hits,
            &self.counters.parse,
            self.key(toolchain, app),
            || {
                let source = polybench::source(app, toolchain.dataset);
                let tu = minic::parse(&source).map_err(|e| SocratesError::parse(app, e))?;
                Ok(ParsedSource {
                    app,
                    tu,
                    kernel: app.kernel_name(),
                })
            },
        )
    }

    /// The Milepost feature vector of `app`'s kernel.
    ///
    /// # Errors
    ///
    /// Propagates parse errors; fails if the kernel function is absent.
    pub fn kernel_features(
        &self,
        toolchain: &Toolchain,
        app: App,
    ) -> Result<Arc<KernelFeatures>, SocratesError> {
        get_or_build(
            &self.features,
            &self.counters.hits,
            &self.counters.features,
            self.key(toolchain, app),
            || {
                let parsed = self.parsed(toolchain, app)?;
                let features = milepost::extract_function(&parsed.tu, &parsed.kernel)
                    .map_err(|e| SocratesError::features(app, e))?;
                Ok(KernelFeatures { app, features })
            },
        )
    }

    /// The COBAYN training-corpus entry for `app`: its features plus
    /// the good flag combinations found by iterative compilation
    /// (single-thread close binding, exactly COBAYN's setup).
    ///
    /// This is the expensive shared artifact — built once per
    /// `(app, dataset, config)` no matter how many leave-one-out
    /// targets consume it.
    ///
    /// # Errors
    ///
    /// Propagates parse and feature-extraction errors.
    pub fn training_app(
        &self,
        toolchain: &Toolchain,
        app: App,
    ) -> Result<Arc<TrainingApp>, SocratesError> {
        get_or_build(
            &self.corpus,
            &self.counters.hits,
            &self.counters.corpus,
            self.key(toolchain, app),
            || {
                let features = self.kernel_features(toolchain, app)?;
                let machine = toolchain.platform.machine(toolchain.seed).noiseless();
                let profile = app.profile(toolchain.dataset);
                let good = iterative_compilation(
                    |co| {
                        let cfg = KnobConfig::new(co.clone(), 1, BindingPolicy::Close);
                        1.0 / machine.expected(&profile, &cfg).time_s
                    },
                    toolchain.training_top_fraction,
                );
                Ok(TrainingApp {
                    features: features.features.clone(),
                    good,
                })
            },
        )
    }

    /// The COBAYN model for leave-one-out `target`: trained on the
    /// corpus entries of every *other* application (in [`App::ALL`]
    /// order), with `target`'s own entry masked out of the training set
    /// at query time.
    ///
    /// # Errors
    ///
    /// Propagates corpus errors; fails if training is impossible.
    pub fn cobayn_model(
        &self,
        toolchain: &Toolchain,
        target: App,
    ) -> Result<Arc<Cobayn>, SocratesError> {
        get_or_build(
            &self.models,
            &self.counters.hits,
            &self.counters.model,
            self.key(toolchain, target),
            || {
                let mut corpus = Vec::with_capacity(App::ALL.len() - 1);
                for other in App::ALL {
                    if other == target {
                        continue;
                    }
                    corpus.push(self.training_app(toolchain, other)?.as_ref().clone());
                }
                Cobayn::train(&corpus, CobaynConfig::default())
                    .map_err(|e| SocratesError::train(target, e))
            },
        )
    }

    /// The predicted flag combinations for `app`.
    ///
    /// # Errors
    ///
    /// Propagates feature and training errors.
    pub fn flag_predictions(
        &self,
        toolchain: &Toolchain,
        app: App,
    ) -> Result<Arc<FlagPredictions>, SocratesError> {
        get_or_build(
            &self.predictions,
            &self.counters.hits,
            &self.counters.predictions,
            self.key(toolchain, app),
            || {
                let features = self.kernel_features(toolchain, app)?;
                let model = self.cobayn_model(toolchain, app)?;
                Ok(FlagPredictions {
                    app,
                    flags: model.predict(&features.features, toolchain.cobayn_predictions),
                })
            },
        )
    }

    /// The weaved adaptive program for `app` (Multiversioning then
    /// Autotuner strategies).
    ///
    /// # Errors
    ///
    /// Propagates upstream errors; fails if a weaving strategy fails.
    pub fn weaved(
        &self,
        toolchain: &Toolchain,
        app: App,
    ) -> Result<Arc<WeavedProgram>, SocratesError> {
        get_or_build(
            &self.weaved,
            &self.counters.hits,
            &self.counters.weave,
            self.key(toolchain, app),
            || {
                let parsed = self.parsed(toolchain, app)?;
                let predictions = self.flag_predictions(toolchain, app)?;
                let versions = toolchain.version_table(&predictions.flags);
                let static_versions: Vec<lara::StaticVersion> = versions
                    .iter()
                    .map(|(co, bp)| lara::StaticVersion::new(co.pragma_flags(), bp.as_str()))
                    .collect();
                let mut weaver = lara::Weaver::new(parsed.tu.clone());
                let multiversioned =
                    lara::multiversioning(&mut weaver, &parsed.kernel, &static_versions)
                        .map_err(|e| SocratesError::weave(app, e))?;
                lara::autotuner(&mut weaver, &multiversioned, "main")
                    .map_err(|e| SocratesError::weave(app, e))?;
                let (weaved, metrics) = weaver.finish();
                Ok(WeavedProgram {
                    app,
                    weaved: Arc::new(weaved),
                    metrics,
                    multiversioned,
                    versions,
                })
            },
        )
    }

    /// The design-time knowledge of `app`: the full-factorial DSE over
    /// the SOCRATES space on the toolchain's platform, with a
    /// deterministic per-app machine seed.
    ///
    /// With a persistence directory, a miss first tries to reload the
    /// design-knowledge snapshot written by a previous run; a fresh
    /// profile is saved back to disk. Persistence is **best-effort** in
    /// both directions: unreadable, malformed or foreign files are
    /// treated as cache misses and save failures are ignored, so a
    /// broken cache directory degrades to re-profiling rather than
    /// erroring (use [`KnowledgeSnapshot::save`] directly when a
    /// persistence failure must be detected).
    ///
    /// # Errors
    ///
    /// Propagates upstream pipeline errors.
    pub fn profiled_knowledge(
        &self,
        toolchain: &Toolchain,
        app: App,
    ) -> Result<Arc<ProfiledKnowledge>, SocratesError> {
        let key = self.key(toolchain, app);
        if let Some(hit) = lock(&self.knowledge).get(&key) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        let profile = app.profile(toolchain.dataset);
        let (knowledge, counter) = match self.load_persisted(toolchain, app, key.config) {
            Some(knowledge) => (knowledge, &self.counters.knowledge_loads),
            None => {
                let predictions = self.flag_predictions(toolchain, app)?;
                let space = dse::DesignSpace::socrates(
                    predictions.flags.clone(),
                    &toolchain.platform.topology,
                );
                // Every profiled configuration must also run
                // functionally, and only its thread count reaches the
                // kernel: building each thread count of the space, in
                // order, makes an unbound pragma parameter surface here
                // as the lowest failing thread count's lowering error,
                // not deep inside a fleet run. The app's kernel family
                // lowers and runs its one program once (see
                // `compiled_kernel`). The sweep itself is the plain
                // analytic `dse::profile`.
                for &threads in &space.thread_counts {
                    self.compiled_kernel(toolchain, app, threads)?;
                }
                let machine = toolchain.platform.machine(toolchain.seed ^ fnv(app.name()));
                let knowledge = dse::profile(
                    &machine,
                    &profile,
                    &space.full_factorial(),
                    toolchain.dse_repetitions,
                );
                // Persistence is best-effort, symmetric with loading:
                // an unwritable cache directory must not discard a
                // successfully profiled result.
                self.save_persisted(toolchain, app, key.config, &knowledge)
                    .ok();
                (knowledge, &self.counters.knowledge)
            }
        };
        let value = ProfiledKnowledge {
            app,
            knowledge,
            profile,
        };
        Ok(insert_counted(
            &self.knowledge,
            &self.counters.hits,
            counter,
            key,
            value,
        ))
    }

    /// The lowered, config-specialized kernel of `app` for a given
    /// thread count.
    ///
    /// The kernel is the first weaved clone, lowered with the clamped
    /// functional dimensions, the baked entry arguments and the
    /// `__socrates_num_threads` pragma parameter as specialization
    /// constants. Built once per `(app, dataset, config, threads)` — a
    /// fleet of N instances sharing a configuration builds once — by
    /// the app's [`KernelFamily`]: every build validates its spec, and
    /// the family lowers and runs its program once for all the thread
    /// counts it lowers the same under.
    ///
    /// # Errors
    ///
    /// Propagates upstream errors; fails with a
    /// [`StageId::Lower`](crate::StageId::Lower) error if the kernel
    /// references an unbound pragma parameter or leaves the executable
    /// dialect.
    pub fn compiled_kernel(
        &self,
        toolchain: &Toolchain,
        app: App,
        threads: u32,
    ) -> Result<Arc<CompiledKernel>, SocratesError> {
        let key = self.key(toolchain, app);
        get_or_build(
            &self.kernels,
            &self.counters.kernel_hits,
            &self.counters.kernel,
            (key, threads),
            || {
                let kernel = self.kernel_family(toolchain, app, key)?.kernel(threads)?;
                self.counters
                    .kernel_compile_ns
                    .fetch_add(kernel.compile_ns, Ordering::Relaxed);
                Ok(kernel)
            },
        )
    }

    /// The kernel family of `app` under `key`: the weaved program and
    /// its first clone, created on first use.
    fn kernel_family(
        &self,
        toolchain: &Toolchain,
        app: App,
        key: ArtifactKey,
    ) -> Result<Arc<KernelFamily>, SocratesError> {
        if let Some(family) = lock(&self.families).get(&key) {
            return Ok(Arc::clone(family));
        }
        let weaved = self.weaved(toolchain, app)?;
        let family = KernelFamily::new(
            Arc::clone(&weaved.weaved),
            kernel_entry(app, &weaved.multiversioned),
            app,
            toolchain.dataset,
        );
        Ok(Arc::clone(
            lock(&self.families)
                .entry(key)
                .or_insert_with(|| Arc::new(family)),
        ))
    }

    /// Builds the corpus entries (and their parse/feature inputs) for
    /// every application in `universe`, in parallel. Called by
    /// [`crate::Toolchain::enhance_all`] before fanning targets out so
    /// the shared artifacts are computed exactly once, race-free.
    ///
    /// # Errors
    ///
    /// Returns the first (in `universe` order) failing entry's error.
    pub fn warm_corpus(
        &self,
        toolchain: &Toolchain,
        universe: &[App],
    ) -> Result<(), SocratesError> {
        use rayon::prelude::*;
        universe
            .par_iter()
            .map(|&app| self.training_app(toolchain, app).map(|_| ()))
            .collect::<Vec<Result<(), SocratesError>>>()
            .into_iter()
            .collect()
    }

    /// Persists `snapshot` as the shippable warm-start artifact for
    /// `(app, dataset, config)` under the persistence directory and
    /// returns the written path.
    ///
    /// Unlike the best-effort design-knowledge cache, snapshot
    /// persistence is **strict** in both directions: a deployment that
    /// ships a snapshot must know when the artifact could not be
    /// written, and a corrupt or version-skewed file on disk is a typed
    /// error rather than a silent miss.
    ///
    /// # Errors
    ///
    /// Fails with an invalid-config error when the store has no
    /// persistence directory, and with a persist-stage I/O error when
    /// the file cannot be written.
    pub fn save_snapshot(
        &self,
        toolchain: &Toolchain,
        app: App,
        snapshot: &KnowledgeSnapshot,
    ) -> Result<PathBuf, SocratesError> {
        let config = self.key(toolchain, app).config;
        let dir = self.persist_dir.as_deref().ok_or_else(|| {
            SocratesError::invalid_config(
                "snapshot persistence requires a store built with \
                 ArtifactStore::with_persist_dir",
            )
        })?;
        std::fs::create_dir_all(dir).map_err(|e| SocratesError::io(dir, e))?;
        let path = dir.join(snapshot_file(toolchain, app, config));
        snapshot.save(&path)?;
        Ok(path)
    }

    /// Loads the persisted snapshot for `(app, dataset, config)`, or
    /// `Ok(None)` when the store has no persistence directory or no
    /// snapshot file exists for the key.
    ///
    /// # Errors
    ///
    /// A present-but-corrupt or version-skewed file is a typed
    /// transport/persist error — never a panic, never a silent miss.
    pub fn load_snapshot(
        &self,
        toolchain: &Toolchain,
        app: App,
    ) -> Result<Option<KnowledgeSnapshot>, SocratesError> {
        let config = self.key(toolchain, app).config;
        let Some(dir) = &self.persist_dir else {
            return Ok(None);
        };
        let path = dir.join(snapshot_file(toolchain, app, config));
        if !path.exists() {
            return Ok(None);
        }
        KnowledgeSnapshot::load(&path).map(Some)
    }

    /// The warm-start seed for `app`: its own persisted snapshot when
    /// one exists, otherwise the snapshot of the nearest
    /// MILEPOST-feature neighbour (cosine distance over the COBAYN
    /// feature vectors) among the `universe` applications that have a
    /// snapshot on disk. Returns `Ok(None)` when no candidate exists.
    ///
    /// This is the cross-application transfer seed: the CO × TN × BP
    /// configuration space is shared across applications, so a
    /// feature-similar neighbour's learned knowledge is a far better
    /// starting point than the design-time estimates alone.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction errors and corrupt-snapshot
    /// errors from [`ArtifactStore::load_snapshot`].
    pub fn warm_start_snapshot(
        &self,
        toolchain: &Toolchain,
        app: App,
        universe: &[App],
    ) -> Result<Option<KnowledgeSnapshot>, SocratesError> {
        if let Some(own) = self.load_snapshot(toolchain, app)? {
            return Ok(Some(own));
        }
        let target = self.kernel_features(toolchain, app)?;
        let mut candidates = Vec::new();
        let mut vectors = Vec::new();
        for &other in universe {
            if other == app {
                continue;
            }
            let Some(snapshot) = self.load_snapshot(toolchain, other)? else {
                continue;
            };
            let features = self.kernel_features(toolchain, other)?;
            vectors.push(features.features.as_slice().to_vec());
            candidates.push(snapshot);
        }
        Ok(nearest_neighbour(target.features.as_slice(), &vectors)
            .map(|i| candidates.swap_remove(i)))
    }

    /// Tries to reload previously profiled knowledge; any unreadable,
    /// malformed or foreign file is treated as a miss (the DSE simply
    /// re-runs).
    fn load_persisted(
        &self,
        toolchain: &Toolchain,
        app: App,
        config: u64,
    ) -> Option<Knowledge<KnobConfig>> {
        let path = self
            .persist_dir
            .as_ref()?
            .join(design_file(toolchain, app, config));
        let snapshot = KnowledgeSnapshot::load(path).ok()?;
        (snapshot.fingerprint == SnapshotFingerprint::of(toolchain, app))
            .then_some(snapshot.knowledge)
    }

    fn save_persisted(
        &self,
        toolchain: &Toolchain,
        app: App,
        config: u64,
        knowledge: &Knowledge<KnobConfig>,
    ) -> Result<(), SocratesError> {
        let Some(dir) = self.persist_dir.as_deref() else {
            return Ok(());
        };
        std::fs::create_dir_all(dir).map_err(|e| SocratesError::io(dir, e))?;
        let path = dir.join(design_file(toolchain, app, config));
        // Design knowledge is the unlearned state: epoch 0, one shard.
        // `save` is atomic (stage + rename), so a crash mid-save can't
        // leave a truncated artifact that poisons the next warm start.
        KnowledgeSnapshot {
            fingerprint: SnapshotFingerprint::of(toolchain, app),
            epoch: 0,
            shard_epochs: vec![0],
            knowledge: knowledge.clone(),
        }
        .save(path)
    }
}

/// File name of the persisted snapshot artifact for `(app, dataset,
/// config)`. The name embeds [`SNAPSHOT_FORMAT_VERSION`] so artifacts
/// written by an older snapshot codec self-invalidate into misses; a
/// renamed or hand-corrupted file is still rejected by the in-band
/// header checks on load.
fn snapshot_file(toolchain: &Toolchain, app: App, config: u64) -> String {
    format!(
        "{}-{:?}-{config:016x}.v{SNAPSHOT_FORMAT_VERSION}.snapshot.bin",
        app.name(),
        toolchain.dataset
    )
}

/// File name of the persisted design knowledge for `(app, dataset,
/// config)`. The name embeds [`KNOWLEDGE_FORMAT_VERSION`] so files
/// written by older profiling semantics self-invalidate, and its
/// `.design` infix keeps it apart from the learned snapshot of
/// [`ArtifactStore::save_snapshot`].
fn design_file(toolchain: &Toolchain, app: App, config: u64) -> String {
    format!(
        "{}-{:?}-{config:016x}.v{KNOWLEDGE_FORMAT_VERSION}.design.snapshot.bin",
        app.name(),
        toolchain.dataset
    )
}

/// Locks one of the store's maps. A panic while the lock was held
/// leaves nothing half-done: every critical section is one lookup or
/// one insert of a finished artifact. So a poisoned lock is recovered,
/// not propagated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the cached artifact for `key`, or runs `build`, inserts and
/// returns it. The lock is *not* held while building (stages recurse
/// into the store for their inputs); concurrent builders of the same
/// key produce identical values and the first insert wins (see
/// [`insert_counted`]).
fn get_or_build<K: std::hash::Hash + Eq + Copy, T>(
    map: &Mutex<HashMap<K, Arc<T>>>,
    hits: &AtomicU64,
    builds: &AtomicU64,
    key: K,
    build: impl FnOnce() -> Result<T, SocratesError>,
) -> Result<Arc<T>, SocratesError> {
    if let Some(hit) = lock(map).get(&key) {
        hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(hit));
    }
    let value = build()?;
    Ok(insert_counted(map, hits, builds, key, value))
}

/// Inserts a freshly built `value` for `key` and returns the cached
/// artifact. Only the winning insert counts on `builds`; a build that
/// lost the race to a concurrent one returns the winner's artifact and
/// counts as a hit.
fn insert_counted<K: std::hash::Hash + Eq, T>(
    map: &Mutex<HashMap<K, Arc<T>>>,
    hits: &AtomicU64,
    builds: &AtomicU64,
    key: K,
    value: T,
) -> Arc<T> {
    let mut guard = lock(map);
    let counter = if guard.contains_key(&key) {
        hits
    } else {
        builds
    };
    counter.fetch_add(1, Ordering::Relaxed);
    Arc::clone(guard.entry(key).or_insert_with(|| Arc::new(value)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_toolchain() -> Toolchain {
        Toolchain {
            dataset: Dataset::Small,
            dse_repetitions: 1,
            ..Toolchain::default()
        }
    }

    #[test]
    fn repeated_lookups_hit_the_cache() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let a = store.parsed(&tc, App::TwoMm).unwrap();
        let b = store.parsed(&tc, App::TwoMm).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be the cached Arc");
        let stats = store.stats();
        assert_eq!(stats.parse_builds, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn kernel_features_build_only_parse_and_features() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let features = store.kernel_features(&tc, App::Mvt).unwrap();
        assert_eq!(features.app, App::Mvt);
        let stats = store.stats();
        assert_eq!((stats.parse_builds, stats.feature_builds), (1, 1));
        assert_eq!(stats.total_builds(), 2);
    }

    #[test]
    fn compiled_kernels_cache_per_thread_count_and_engine() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let a = store.compiled_kernel(&tc, App::TwoMm, 1).unwrap();
        let b = store.compiled_kernel(&tc, App::TwoMm, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same specialization must be cached");
        let c = store.compiled_kernel(&tc, App::TwoMm, 8).unwrap();
        assert_ne!(a.spec_fingerprint, c.spec_fingerprint);
        assert_eq!(a.report, c.report, "thread count is config, not data");
        assert!(
            Arc::ptr_eq(&a.code, &c.code),
            "both thread counts lower to one program, which ran once"
        );
        let stats = store.stats();
        assert_eq!(stats.kernel_builds, 2);
        assert_eq!(stats.kernel_hits, 1);
        assert!(store.kernel_compile_ns() > 0);

        // The cached bytecode reproduces the reference interpreter.
        let weaved = store.weaved(&tc, App::TwoMm).unwrap();
        let spec = crate::engine::functional_spec(App::TwoMm, tc.dataset, 1);
        let reference =
            minivm::interpret(&weaved.weaved, &a.entry, &spec).expect("interpreter runs");
        assert_eq!(a.report, reference, "engines must be bit-identical");
    }

    #[test]
    fn racing_builders_of_one_key_count_one_build() {
        // Every thread misses the cache and builds (the barrier holds
        // them all inside `build` until each has started), so exactly
        // one insert wins and the rest return its artifact.
        const THREADS: usize = 4;
        let map = Mutex::new(HashMap::new());
        let (hits, builds) = (AtomicU64::new(0), AtomicU64::new(0));
        let barrier = std::sync::Barrier::new(THREADS);
        let values: Vec<Arc<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (map, hits, builds, barrier) = (&map, &hits, &builds, &barrier);
                    scope.spawn(move || {
                        get_or_build(map, hits, builds, 7u32, || {
                            barrier.wait();
                            Ok(t)
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(hits.load(Ordering::Relaxed), THREADS as u64 - 1);
        assert!(
            values.iter().all(|v| Arc::ptr_eq(v, &values[0])),
            "every racer returns the winning insert"
        );
    }

    #[test]
    fn profiling_compiles_each_thread_count_once() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let pk = store.profiled_knowledge(&tc, App::Atax).unwrap();
        let stats = store.stats();
        // The profile sweep covers each tn many times (full factorial
        // over CO × TN × BP) but lowers one kernel per distinct tn and
        // looks none up twice.
        let distinct: std::collections::BTreeSet<u32> =
            pk.knowledge.points().iter().map(|p| p.config.tn).collect();
        assert_eq!(stats.kernel_builds, distinct.len() as u64);
        assert_eq!(stats.kernel_hits, 0);
        // Every thread count lowered to one program, which ran once.
        let kernels: Vec<Arc<CompiledKernel>> = distinct
            .iter()
            .map(|&tn| store.compiled_kernel(&tc, App::Atax, tn).unwrap())
            .collect();
        for k in &kernels {
            let spec = k.spec_fingerprint;
            assert!(Arc::ptr_eq(&k.code, &kernels[0].code), "spec {spec:x}");
            assert_eq!(k.report, kernels[0].report);
        }
        assert_eq!(store.stats().kernel_builds, distinct.len() as u64);
    }

    #[test]
    fn a_fresh_store_lowers_each_app_kernel_once_across_its_thread_counts() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let threads = tc.topology().logical_cpus();
        assert_eq!(threads, 32);
        for app in App::ALL {
            store.profiled_knowledge(&tc, app).unwrap();
        }
        let stats = store.stats();
        assert_eq!(
            stats.kernel_builds,
            App::ALL.len() as u64 * u64::from(threads)
        );
        assert_eq!(stats.kernel_hits, 0);
        let families = lock(&store.families);
        assert_eq!(families.len(), App::ALL.len());
        assert!(families.values().all(|family| family.lowerings() == 1));
    }

    #[test]
    fn racing_profiles_count_one_knowledge_build_and_one_kernel_build_per_thread_count() {
        // The barrier starts every lookup at once, so several racers
        // usually miss the map and profile concurrently. The counts
        // below hold under every interleaving: only the winning insert
        // counts as the build (or the load), each other racer as a hit.
        const THREADS: usize = 4;
        let race = |store: &ArtifactStore| -> Vec<Arc<ProfiledKnowledge>> {
            let tc = quick_toolchain();
            let barrier = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            store.profiled_knowledge(&tc, App::Atax).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        let dir = std::env::temp_dir().join(format!(
            "socrates-racing-profiles-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let store = ArtifactStore::with_persist_dir(&dir);
        let built = race(&store);
        let stats = store.stats();
        assert_eq!((stats.knowledge_builds, stats.knowledge_loads), (1, 0));
        let threads = built[0].knowledge.points().iter().map(|p| p.config.tn);
        let distinct: std::collections::BTreeSet<u32> = threads.collect();
        assert_eq!(stats.kernel_builds, distinct.len() as u64);
        assert!(built.iter().all(|k| Arc::ptr_eq(k, &built[0])));

        // A load has no nested lookups, so the three racers that did not
        // insert are exactly three hits.
        let cold = ArtifactStore::with_persist_dir(&dir);
        let loaded = race(&cold);
        let stats = cold.stats();
        assert_eq!((stats.knowledge_builds, stats.knowledge_loads), (0, 1));
        assert_eq!(stats.hits, THREADS as u64 - 1);
        assert!(loaded.iter().all(|k| Arc::ptr_eq(k, &loaded[0])));
        assert_eq!(loaded[0].knowledge, built[0].knowledge);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_configs_do_not_collide() {
        let tc1 = quick_toolchain();
        let tc2 = Toolchain {
            seed: tc1.seed + 1,
            ..quick_toolchain()
        };
        let store = ArtifactStore::new();
        store.training_app(&tc1, App::Atax).unwrap();
        store.training_app(&tc2, App::Atax).unwrap();
        assert_eq!(store.stats().corpus_builds, 2);
    }

    #[test]
    fn corpus_entries_are_shared_across_targets() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        store.cobayn_model(&tc, App::TwoMm).unwrap();
        store.cobayn_model(&tc, App::Mvt).unwrap();
        // Both models exist, but each sibling corpus entry was built
        // once: 12 distinct apps appear across the two 11-app masks.
        let stats = store.stats();
        assert_eq!(stats.model_builds, 2);
        assert_eq!(stats.corpus_builds, App::ALL.len() as u64);
    }

    #[test]
    fn leave_one_out_masks_the_target() {
        // The model for a target must differ from the model for another
        // target (different masked entries => different training sets).
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let a = store.cobayn_model(&tc, App::TwoMm).unwrap();
        let b = store.cobayn_model(&tc, App::Nussinov).unwrap();
        assert_ne!(a.as_ref(), b.as_ref());
    }

    #[test]
    fn stats_snapshots_are_non_destructive_reads() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        store.parsed(&tc, App::TwoMm).unwrap();
        store.parsed(&tc, App::TwoMm).unwrap();
        let a = store.stats();
        let b = store.stats();
        assert_eq!(a, b, "reading stats must not consume or reset counters");
        store.kernel_features(&tc, App::TwoMm).unwrap();
        let c = store.stats();
        assert_eq!(
            c.parse_builds, a.parse_builds,
            "unrelated counters untouched"
        );
        assert_eq!(c.feature_builds, a.feature_builds + 1);
        assert!(c.hits >= a.hits, "hit counter is monotonic");
    }

    #[test]
    fn snapshots_persist_reload_and_reject_corruption() {
        use crate::snapshot::{KnowledgeSnapshot, SnapshotFingerprint};
        let tc = quick_toolchain();
        let dir = std::env::temp_dir().join(format!(
            "socrates-snapshot-store-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_persist_dir(&dir);

        let pk = store.profiled_knowledge(&tc, App::TwoMm).unwrap();
        let shared = margot::SharedKnowledge::new(pk.knowledge.clone(), 8);
        let snapshot =
            KnowledgeSnapshot::capture(&shared, SnapshotFingerprint::of(&tc, App::TwoMm));
        let path = store.save_snapshot(&tc, App::TwoMm, &snapshot).unwrap();
        assert!(path.exists());

        let reloaded = store.load_snapshot(&tc, App::TwoMm).unwrap();
        assert_eq!(reloaded.as_ref(), Some(&snapshot));
        assert_eq!(
            store.load_snapshot(&tc, App::Mvt).unwrap(),
            None,
            "apps without a snapshot are a clean miss"
        );

        // A truncated file is a typed error, never a panic or a miss.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = store.load_snapshot(&tc, App::TwoMm).unwrap_err();
        assert!(
            matches!(err, SocratesError::Transport { .. }),
            "corruption must surface as a typed transport error, got {err}"
        );

        // A store without a persistence directory cannot ship snapshots
        // (strict error) but degrades to a clean miss on load.
        let bare = ArtifactStore::new();
        assert!(matches!(
            bare.save_snapshot(&tc, App::TwoMm, &snapshot),
            Err(SocratesError::InvalidConfig { .. })
        ));
        assert_eq!(bare.load_snapshot(&tc, App::TwoMm).unwrap(), None);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_prefers_own_snapshot_then_nearest_neighbour() {
        use crate::snapshot::{cosine_distance, KnowledgeSnapshot, SnapshotFingerprint};
        let tc = quick_toolchain();
        let dir =
            std::env::temp_dir().join(format!("socrates-warm-start-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_persist_dir(&dir);

        let target = App::TwoMm;
        let universe = [App::TwoMm, App::Mvt, App::Atax];
        for &sibling in &universe[1..] {
            let pk = store.profiled_knowledge(&tc, sibling).unwrap();
            let shared = margot::SharedKnowledge::new(pk.knowledge.clone(), 8);
            let snapshot =
                KnowledgeSnapshot::capture(&shared, SnapshotFingerprint::of(&tc, sibling));
            store.save_snapshot(&tc, sibling, &snapshot).unwrap();
        }

        // With no snapshot of its own, the target adopts the nearest
        // MILEPOST neighbour's snapshot.
        let seed = store
            .warm_start_snapshot(&tc, target, &universe)
            .unwrap()
            .expect("siblings have snapshots");
        let target_features = store.kernel_features(&tc, target).unwrap();
        let expected = universe[1..]
            .iter()
            .min_by(|&&a, &&b| {
                let fa = store.kernel_features(&tc, a).unwrap();
                let fb = store.kernel_features(&tc, b).unwrap();
                let da =
                    cosine_distance(target_features.features.as_slice(), fa.features.as_slice());
                let db =
                    cosine_distance(target_features.features.as_slice(), fb.features.as_slice());
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        assert_eq!(seed.fingerprint.app, expected.name());

        // Once the target has its own snapshot, it wins outright.
        let pk = store.profiled_knowledge(&tc, target).unwrap();
        let shared = margot::SharedKnowledge::new(pk.knowledge.clone(), 8);
        let own = KnowledgeSnapshot::capture(&shared, SnapshotFingerprint::of(&tc, target));
        store.save_snapshot(&tc, target, &own).unwrap();
        let seed = store
            .warm_start_snapshot(&tc, target, &universe)
            .unwrap()
            .unwrap();
        assert_eq!(seed.fingerprint.app, target.name());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn knowledge_persists_and_reloads() {
        let tc = quick_toolchain();
        let dir = std::env::temp_dir().join(format!(
            "socrates-artifact-store-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let warm = ArtifactStore::with_persist_dir(&dir);
        let fresh = warm.profiled_knowledge(&tc, App::Syrk).unwrap();
        assert_eq!(warm.stats().knowledge_builds, 1);
        assert_eq!(warm.stats().knowledge_loads, 0);

        // A cold store over the same directory reloads instead of
        // re-profiling.
        let cold = ArtifactStore::with_persist_dir(&dir);
        let reloaded = cold.profiled_knowledge(&tc, App::Syrk).unwrap();
        assert_eq!(cold.stats().knowledge_builds, 0);
        assert_eq!(cold.stats().knowledge_loads, 1);
        assert_eq!(fresh.knowledge, reloaded.knowledge);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_design_knowledge_degrades_to_a_reprofile() {
        let tc = quick_toolchain();
        let dir = std::env::temp_dir().join(format!(
            "socrates-artifact-truncated-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::with_persist_dir(&dir)
            .profiled_knowledge(&tc, App::Syrk)
            .unwrap();
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "one design-knowledge file: {files:?}");
        let bytes = std::fs::read(&files[0]).unwrap();
        std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();

        // The best-effort load treats the corrupt file as a miss.
        let cold = ArtifactStore::with_persist_dir(&dir);
        let reprofiled = cold.profiled_knowledge(&tc, App::Syrk).unwrap();
        assert_eq!(cold.stats().knowledge_loads, 0);
        assert_eq!(cold.stats().knowledge_builds, 1);
        let fresh = ArtifactStore::new()
            .profiled_knowledge(&tc, App::Syrk)
            .unwrap();
        assert_eq!(reprofiled.knowledge, fresh.knowledge);

        std::fs::remove_dir_all(&dir).ok();
    }
}
