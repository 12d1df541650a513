//! The unified, stage-tagged error type of the SOCRATES toolchain.
//!
//! Every failure anywhere in the toolchain or its runtimes — parsing,
//! feature extraction, COBAYN training, weaving, kernel lowering,
//! knowledge persistence or version dispatch — is a [`SocratesError`]. Each error knows which
//! [`StageId`] it originated from and carries human-readable context
//! (the application name, the file path, …), so a batch run over many
//! applications produces attributable diagnostics.

use polybench::App;
use std::fmt;
use std::path::PathBuf;

/// The toolchain step or runtime layer an error originated from (the
/// design-time steps are the [`ArtifactStore`](crate::ArtifactStore)
/// accessors [`Toolchain::enhance`](crate::Toolchain::enhance) walks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Source parsing (`minic`).
    Parse,
    /// Milepost feature extraction.
    Features,
    /// COBAYN corpus construction, training and flag prediction.
    Predict,
    /// LARA weaving (multiversioning + autotuner).
    Weave,
    /// Kernel lowering/compilation (minivm typed IR → bytecode).
    Lower,
    /// DSE profiling on the platform model.
    Profile,
    /// Artifact persistence (knowledge save/load).
    Persist,
    /// Runtime version dispatch (config → clone lookup).
    Dispatch,
    /// Deployment runtime (fleet orchestration, shared knowledge).
    Runtime,
    /// Distributed knowledge exchange (simulated links, broker
    /// reconciliation, drain).
    Transport,
}

impl StageId {
    /// Short lowercase stage label, as used in error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            StageId::Parse => "parse",
            StageId::Features => "features",
            StageId::Predict => "predict",
            StageId::Weave => "weave",
            StageId::Lower => "lower",
            StageId::Profile => "profile",
            StageId::Persist => "persist",
            StageId::Dispatch => "dispatch",
            StageId::Runtime => "runtime",
            StageId::Transport => "transport",
        }
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Anything that can go wrong in the SOCRATES pipeline, from source
/// parsing to knowledge persistence.
#[derive(Debug)]
pub enum SocratesError {
    /// The benchmark source failed to parse.
    Parse {
        /// Application whose source failed.
        app: String,
        /// Underlying parser diagnostic.
        source: minic::ParseError,
    },
    /// Feature extraction failed (kernel not found).
    Features {
        /// Application whose kernel was missing.
        app: String,
        /// Underlying extractor diagnostic.
        source: milepost::UnknownFunctionError,
    },
    /// COBAYN training failed.
    Train {
        /// Target application the model was being trained for.
        app: String,
        /// Underlying trainer diagnostic.
        source: cobayn::TrainError,
    },
    /// A weaving strategy failed.
    Weave {
        /// Application being weaved.
        app: String,
        /// Underlying weaver diagnostic.
        source: lara::WeaveError,
    },
    /// Lowering a weaved kernel to the execution engine failed (e.g. a
    /// pragma parameter referenced by the kernel is not bound in the
    /// configuration, or the program leaves the executable dialect).
    Lower {
        /// Application whose kernel failed to lower.
        app: String,
        /// Underlying engine diagnostic.
        source: minivm::EngineError,
    },
    /// Filesystem error while persisting or loading an artifact.
    Io {
        /// File involved.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// A knob configuration has no compiled clone version.
    UnknownVersion {
        /// Application whose version table was consulted.
        app: String,
        /// Display form of the offending configuration.
        config: String,
    },
    /// A runtime configuration (e.g. [`crate::FleetConfig`]) is
    /// invalid; rejected at construction instead of panicking deep
    /// inside the runtime.
    InvalidConfig {
        /// What is wrong and how to fix it.
        reason: String,
    },
    /// The distributed knowledge exchange failed (e.g. a drain that
    /// did not converge within its round budget).
    Transport {
        /// What went wrong on the wire or during reconciliation.
        reason: String,
    },
}

impl SocratesError {
    /// The pipeline stage this error originated from.
    pub fn stage(&self) -> StageId {
        match self {
            SocratesError::Parse { .. } => StageId::Parse,
            SocratesError::Features { .. } => StageId::Features,
            SocratesError::Train { .. } => StageId::Predict,
            SocratesError::Weave { .. } => StageId::Weave,
            SocratesError::Lower { .. } => StageId::Lower,
            SocratesError::Io { .. } => StageId::Persist,
            SocratesError::UnknownVersion { .. } => StageId::Dispatch,
            SocratesError::InvalidConfig { .. } => StageId::Runtime,
            SocratesError::Transport { .. } => StageId::Transport,
        }
    }

    /// Builds a parse-stage error for `app`.
    pub fn parse(app: App, source: minic::ParseError) -> Self {
        SocratesError::Parse {
            app: app.name().to_string(),
            source,
        }
    }

    /// Builds a feature-extraction error for `app`.
    pub fn features(app: App, source: milepost::UnknownFunctionError) -> Self {
        SocratesError::Features {
            app: app.name().to_string(),
            source,
        }
    }

    /// Builds a COBAYN-training error for target `app`.
    pub fn train(app: App, source: cobayn::TrainError) -> Self {
        SocratesError::Train {
            app: app.name().to_string(),
            source,
        }
    }

    /// Builds a weaving error for `app`.
    pub fn weave(app: App, source: lara::WeaveError) -> Self {
        SocratesError::Weave {
            app: app.name().to_string(),
            source,
        }
    }

    /// Builds a lowering error for `app`.
    pub fn lower(app: App, source: minivm::EngineError) -> Self {
        SocratesError::Lower {
            app: app.name().to_string(),
            source,
        }
    }

    /// Builds a persistence I/O error for `path`.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        SocratesError::Io {
            path: path.into(),
            source,
        }
    }

    /// Builds a dispatch error: `config` has no compiled version in
    /// `app`'s version table.
    pub fn unknown_version(app: App, config: impl fmt::Display) -> Self {
        SocratesError::UnknownVersion {
            app: app.name().to_string(),
            config: config.to_string(),
        }
    }

    /// Builds a runtime-configuration error; `reason` says what is
    /// wrong and how to fix it.
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        SocratesError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// Builds a transport-stage error; `reason` names the exchange or
    /// reconciliation step that failed.
    pub fn transport(reason: impl Into<String>) -> Self {
        SocratesError::Transport {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SocratesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.stage())?;
        match self {
            SocratesError::Parse { app, source } => {
                write!(f, "{app}: source parsing failed: {source}")
            }
            SocratesError::Features { app, source } => {
                write!(f, "{app}: feature extraction failed: {source}")
            }
            SocratesError::Train { app, source } => {
                write!(f, "{app}: COBAYN training failed: {source}")
            }
            SocratesError::Weave { app, source } => {
                write!(f, "{app}: weaving failed: {source}")
            }
            SocratesError::Lower { app, source } => {
                write!(f, "{app}: kernel lowering failed: {source}")
            }
            SocratesError::Io { path, source } => {
                write!(f, "{}: knowledge file I/O failed: {source}", path.display())
            }
            SocratesError::UnknownVersion { app, config } => {
                write!(f, "{app}: configuration {config} has no compiled version")
            }
            SocratesError::InvalidConfig { reason } => {
                write!(f, "invalid runtime configuration: {reason}")
            }
            SocratesError::Transport { reason } => {
                write!(f, "knowledge exchange failed: {reason}")
            }
        }
    }
}

impl std::error::Error for SocratesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SocratesError::Parse { source, .. } => Some(source),
            SocratesError::Features { source, .. } => Some(source),
            SocratesError::Train { source, .. } => Some(source),
            SocratesError::Weave { source, .. } => Some(source),
            SocratesError::Lower { source, .. } => Some(source),
            SocratesError::Io { source, .. } => Some(source),
            SocratesError::UnknownVersion { .. }
            | SocratesError::InvalidConfig { .. }
            | SocratesError::Transport { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_stage_and_context() {
        let e = SocratesError::weave(App::TwoMm, lara::WeaveError("kernel missing".into()));
        assert_eq!(e.stage(), StageId::Weave);
        assert!(e.to_string().starts_with("[weave] 2mm:"));
        assert!(e.to_string().contains("weaving failed"));
        assert!(e.to_string().contains("kernel missing"));
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e = SocratesError::features(App::Mvt, milepost::UnknownFunctionError("k".into()));
        assert!(e.source().is_some());
        assert_eq!(e.stage(), StageId::Features);
    }

    #[test]
    fn dispatch_errors_name_the_config() {
        let e = SocratesError::unknown_version(App::Atax, "cfg-label");
        assert_eq!(e.stage(), StageId::Dispatch);
        assert!(e.to_string().contains("cfg-label"));
        assert!(e.to_string().contains("no compiled version"));
    }

    #[test]
    fn lower_errors_carry_stage_and_chain_the_engine_diagnostic() {
        use std::error::Error;
        let e = SocratesError::lower(
            App::Syrk,
            minivm::EngineError::UnboundPragmaParam {
                function: "kernel_syrk_v0".into(),
                param: "__socrates_num_threads".into(),
            },
        );
        assert_eq!(e.stage(), StageId::Lower);
        assert!(e.to_string().starts_with("[lower] syrk:"));
        assert!(e.to_string().contains("__socrates_num_threads"));
        assert!(e.source().is_some());
    }

    #[test]
    fn every_stage_has_a_distinct_label() {
        let stages = [
            StageId::Parse,
            StageId::Features,
            StageId::Predict,
            StageId::Weave,
            StageId::Lower,
            StageId::Profile,
            StageId::Persist,
            StageId::Dispatch,
            StageId::Runtime,
            StageId::Transport,
        ];
        let set: std::collections::HashSet<_> = stages.iter().map(|s| s.as_str()).collect();
        assert_eq!(set.len(), stages.len());
    }
}
