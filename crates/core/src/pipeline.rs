//! The staged pipeline API: composable toolchain stages over the
//! shared [`ArtifactStore`].
//!
//! The paper's Fig. 1 toolchain is a pipeline of independent stages;
//! this module makes that structure explicit and composable:
//!
//! ```text
//! ParseStage ──► FeatureStage ──► PredictStage ──► WeaveStage ──► ProfileStage ──► AssembleStage
//! (minic)        (milepost)       (cobayn, LOO)    (lara)          (dse)            (EnhancedApp)
//! ```
//!
//! Each stage reads its inputs from and writes its output to the
//! [`ArtifactStore`], so re-running a pipeline over a warm store is a
//! pure cache walk, and a batch run shares every common artifact (most
//! importantly the COBAYN training corpus) across targets.
//!
//! ## Composing
//!
//! ```
//! use polybench::{App, Dataset};
//! use socrates::{ArtifactStore, Pipeline, StageContext, Toolchain};
//! use socrates::stages::{FeatureStage, ParseStage};
//!
//! let toolchain = Toolchain { dataset: Dataset::Small, ..Toolchain::default() };
//! let store = ArtifactStore::new();
//! let ctx = StageContext::new(&toolchain, &store, App::TwoMm);
//!
//! // A custom two-stage pipeline: parse, then extract features.
//! let front = Pipeline::new(ParseStage).then(FeatureStage);
//! assert_eq!(front.stage_names(), ["parse", "features"]);
//! let features = front.run(&ctx, ()).unwrap();
//! assert!(features.features.as_slice().iter().any(|&v| v > 0.0));
//! ```

use crate::artifact::{
    ArtifactStore, FlagPredictions, KernelFeatures, ParsedSource, ProfiledKnowledge, WeavedProgram,
};
use crate::error::SocratesError;
use crate::toolchain::{EnhancedApp, Toolchain};
use polybench::App;
use std::sync::Arc;

/// Everything a stage needs besides its typed input: the toolchain
/// configuration, the shared artifact store and the target application.
#[derive(Debug, Clone, Copy)]
pub struct StageContext<'a> {
    /// The toolchain configuration driving every stage.
    pub toolchain: &'a Toolchain,
    /// The shared artifact cache.
    pub store: &'a ArtifactStore,
    /// The application this pipeline run targets.
    pub app: App,
}

impl<'a> StageContext<'a> {
    /// Bundles a stage context.
    pub fn new(toolchain: &'a Toolchain, store: &'a ArtifactStore, app: App) -> Self {
        StageContext {
            toolchain,
            store,
            app,
        }
    }
}

/// One composable toolchain stage: a typed, deterministic function from
/// `Input` to `Output` under a [`StageContext`].
///
/// Implementations should route their computation through the
/// [`ArtifactStore`] so that composed pipelines share work. The
/// canonical stages in [`stages`] do exactly that: they are *memoised*
/// stages whose authoritative inputs live in the store, keyed by the
/// context — their `Input` value sequences the dependency but is not
/// re-read, so a custom stage that *transforms* an artifact must
/// produce its result under its own context/key (or do its own
/// downstream computation) rather than expect a canonical stage to
/// consume the modified value.
pub trait Stage: Send + Sync {
    /// What the stage consumes (the previous stage's output).
    type Input: Send;
    /// What the stage produces.
    type Output: Send;

    /// Short stage label (used in progress reporting and errors).
    fn name(&self) -> &'static str;

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Returns a stage-tagged [`SocratesError`] on failure.
    fn run(
        &self,
        ctx: &StageContext<'_>,
        input: Self::Input,
    ) -> Result<Self::Output, SocratesError>;
}

/// A composed chain of stages, built with [`Pipeline::new`] and
/// [`Pipeline::then`]. Running the pipeline threads each stage's output
/// into the next stage's input.
pub struct Pipeline<I, O> {
    #[allow(clippy::type_complexity)]
    run_fn: Box<dyn Fn(&StageContext<'_>, I) -> Result<O, SocratesError> + Send + Sync>,
    names: Vec<&'static str>,
}

impl<I: Send + 'static, O: Send + 'static> Pipeline<I, O> {
    /// A single-stage pipeline.
    pub fn new<S>(stage: S) -> Self
    where
        S: Stage<Input = I, Output = O> + 'static,
    {
        let name = stage.name();
        Pipeline {
            run_fn: Box::new(move |ctx, input| stage.run(ctx, input)),
            names: vec![name],
        }
    }

    /// Appends a stage whose input is this pipeline's output.
    ///
    /// Note that the canonical [`stages`] are store-backed: they read
    /// their authoritative inputs from the [`ArtifactStore`] under the
    /// context key, so inserting a custom *transforming* stage between
    /// them will not alter what the downstream canonical stage
    /// consumes (see [`Stage`]).
    pub fn then<S>(self, stage: S) -> Pipeline<I, S::Output>
    where
        S: Stage<Input = O> + 'static,
        S::Output: 'static,
    {
        let mut names = self.names;
        names.push(stage.name());
        let prev = self.run_fn;
        Pipeline {
            run_fn: Box::new(move |ctx, input| stage.run(ctx, prev(ctx, input)?)),
            names,
        }
    }

    /// The composed stage labels, in execution order.
    pub fn stage_names(&self) -> &[&'static str] {
        &self.names
    }

    /// Runs every stage in order.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage's [`SocratesError`].
    pub fn run(&self, ctx: &StageContext<'_>, input: I) -> Result<O, SocratesError> {
        (self.run_fn)(ctx, input)
    }
}

impl<I, O> std::fmt::Debug for Pipeline<I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("stages", &self.names)
            .finish()
    }
}

/// The canonical SOCRATES stages (paper Fig. 1), each a thin veneer
/// over the corresponding [`ArtifactStore`] accessor.
///
/// These stages are **store-backed and memoised**: each reads its real
/// inputs from the store under the [`StageContext`] key (computing and
/// caching them on a miss) and ignores the typed input value beyond
/// using it to order the chain. That is what makes a rerun over a warm
/// store a pure cache walk and lets a batch share artifacts across
/// targets; see [`Stage`] for the implications when composing custom
/// transforming stages.
pub mod stages {
    use super::*;

    /// Parses the original application source (`minic`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ParseStage;

    impl Stage for ParseStage {
        type Input = ();
        type Output = Arc<ParsedSource>;

        fn name(&self) -> &'static str {
            "parse"
        }

        fn run(
            &self,
            ctx: &StageContext<'_>,
            (): Self::Input,
        ) -> Result<Self::Output, SocratesError> {
            ctx.store.parsed(ctx.toolchain, ctx.app)
        }
    }

    /// Extracts the kernel's static Milepost features.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FeatureStage;

    impl Stage for FeatureStage {
        type Input = Arc<ParsedSource>;
        type Output = Arc<KernelFeatures>;

        fn name(&self) -> &'static str {
            "features"
        }

        fn run(
            &self,
            ctx: &StageContext<'_>,
            _parsed: Self::Input,
        ) -> Result<Self::Output, SocratesError> {
            ctx.store.kernel_features(ctx.toolchain, ctx.app)
        }
    }

    /// Predicts the most promising flag combinations with the
    /// leave-one-out COBAYN model (corpus shared through the store).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct PredictStage;

    impl Stage for PredictStage {
        type Input = Arc<KernelFeatures>;
        type Output = Arc<FlagPredictions>;

        fn name(&self) -> &'static str {
            "predict"
        }

        fn run(
            &self,
            ctx: &StageContext<'_>,
            _features: Self::Input,
        ) -> Result<Self::Output, SocratesError> {
            ctx.store.flag_predictions(ctx.toolchain, ctx.app)
        }
    }

    /// Weaves the Multiversioning and Autotuner strategies (`lara`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct WeaveStage;

    impl Stage for WeaveStage {
        type Input = Arc<FlagPredictions>;
        type Output = Arc<WeavedProgram>;

        fn name(&self) -> &'static str {
            "weave"
        }

        fn run(
            &self,
            ctx: &StageContext<'_>,
            _predictions: Self::Input,
        ) -> Result<Self::Output, SocratesError> {
            ctx.store.weaved(ctx.toolchain, ctx.app)
        }
    }

    /// Profiles the full-factorial design space on the platform (`dse`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ProfileStage;

    impl Stage for ProfileStage {
        type Input = Arc<WeavedProgram>;
        type Output = Arc<ProfiledKnowledge>;

        fn name(&self) -> &'static str {
            "profile"
        }

        fn run(
            &self,
            ctx: &StageContext<'_>,
            _weaved: Self::Input,
        ) -> Result<Self::Output, SocratesError> {
            ctx.store.profiled_knowledge(ctx.toolchain, ctx.app)
        }
    }

    /// Gathers every artifact from the store into an [`EnhancedApp`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct AssembleStage;

    impl Stage for AssembleStage {
        type Input = Arc<ProfiledKnowledge>;
        type Output = EnhancedApp;

        fn name(&self) -> &'static str {
            "assemble"
        }

        fn run(
            &self,
            ctx: &StageContext<'_>,
            knowledge: Self::Input,
        ) -> Result<Self::Output, SocratesError> {
            let parsed = ctx.store.parsed(ctx.toolchain, ctx.app)?;
            let features = ctx.store.kernel_features(ctx.toolchain, ctx.app)?;
            let predictions = ctx.store.flag_predictions(ctx.toolchain, ctx.app)?;
            let weaved = ctx.store.weaved(ctx.toolchain, ctx.app)?;
            Ok(EnhancedApp {
                app: ctx.app,
                dataset: ctx.toolchain.dataset,
                original: parsed.tu.clone(),
                weaved: minic::TranslationUnit::clone(&weaved.weaved),
                metrics: weaved.metrics,
                multiversioned: weaved.multiversioned.clone(),
                versions: weaved.versions.clone(),
                features: features.features.clone(),
                cobayn_flags: predictions.flags.clone(),
                knowledge: knowledge.knowledge.clone(),
                profile: knowledge.profile.clone(),
                platform: ctx.toolchain.platform.clone(),
            })
        }
    }
}

/// The canonical six-stage SOCRATES pipeline, from source to
/// [`EnhancedApp`]. `Toolchain::enhance` is a thin shim over this.
pub fn socrates_pipeline() -> Pipeline<(), EnhancedApp> {
    Pipeline::new(stages::ParseStage)
        .then(stages::FeatureStage)
        .then(stages::PredictStage)
        .then(stages::WeaveStage)
        .then(stages::ProfileStage)
        .then(stages::AssembleStage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polybench::Dataset;

    fn quick_toolchain() -> Toolchain {
        Toolchain {
            dataset: Dataset::Small,
            dse_repetitions: 1,
            ..Toolchain::default()
        }
    }

    #[test]
    fn canonical_pipeline_lists_its_stages() {
        let p = socrates_pipeline();
        assert_eq!(
            p.stage_names(),
            ["parse", "features", "predict", "weave", "profile", "assemble"]
        );
    }

    #[test]
    fn partial_pipelines_compose() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let ctx = StageContext::new(&tc, &store, App::Mvt);
        let front = Pipeline::new(stages::ParseStage).then(stages::FeatureStage);
        let features = front.run(&ctx, ()).unwrap();
        assert_eq!(features.app, App::Mvt);
        // The partial run only executed its own stages.
        let stats = store.stats();
        assert_eq!(stats.parse_builds, 1);
        assert_eq!(stats.feature_builds, 1);
        assert_eq!(stats.weave_builds, 0);
        assert_eq!(stats.knowledge_builds, 0);
    }

    #[test]
    fn full_pipeline_over_warm_store_is_a_pure_cache_walk() {
        let tc = quick_toolchain();
        let store = ArtifactStore::new();
        let ctx = StageContext::new(&tc, &store, App::Atax);
        let first = socrates_pipeline().run(&ctx, ()).unwrap();
        let builds_after_first = store.stats().total_builds();
        let second = socrates_pipeline().run(&ctx, ()).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            store.stats().total_builds(),
            builds_after_first,
            "warm rerun must not rebuild anything"
        );
    }
}
