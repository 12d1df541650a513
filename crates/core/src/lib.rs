//! # socrates — seamless online compiler and system-runtime autotuning
//!
//! Rust reproduction of **SOCRATES** (Gadioli et al., DATE 2018): a
//! framework that takes a plain C application and — with *no manual
//! intervention* — produces an adaptive binary that selects compiler
//! options (CO), OpenMP thread count (TN) and binding policy (BP) at
//! runtime, according to changeable energy/performance requirements.
//!
//! The design-time flow (paper Fig. 1) is a chain of memoised
//! [`ArtifactStore`] accessors, each building its inputs through the
//! store on a miss:
//!
//! 1. **parse** the original C source → [`ParsedSource`] ([`minic`]);
//! 2. **features**: GCC-Milepost static kernel counters →
//!    [`KernelFeatures`] ([`milepost`]);
//! 3. **predict**: COBAYN Bayesian-network flag prediction, trained
//!    leave-one-out over the shared corpus → [`FlagPredictions`]
//!    ([`cobayn`]);
//! 4. **weave**: LARA/MANET `Multiversioning` + `Autotuner` →
//!    [`WeavedProgram`] ([`lara`]);
//! 5. **profile**: full-factorial DSE on the configured [`Platform`] →
//!    [`ProfiledKnowledge`] ([`dse`]).
//!
//! [`Toolchain::enhance`] fetches the five artifacts of one application
//! and assembles them into an [`EnhancedApp`];
//! [`Toolchain::enhance_all`] batches a whole suite with one shared
//! store (the COBAYN corpus is built once, not once per target) and
//! fans targets out over rayon, bit-identical to the serial path. The
//! [`AdaptiveApplication`] then replays the weaved binary's MAPE-K loop
//! on the simulated NUMA platform ([`platform_sim`]), and a [`Fleet`]
//! steps many such instances in synchronized rounds while they share a
//! live, epoch-versioned knowledge base ([`margot::SharedKnowledge`]),
//! sweep the design space cooperatively and split a global power
//! budget — the paper's *online* loop at deployment scale. A
//! [`DistributedFleet`] takes the same loop across process
//! boundaries: instances exchange serialised knowledge deltas over a
//! deterministic simulated transport ([`transport`]) with seeded
//! latency, reordering, drop and duplication, reconciling via
//! per-shard epoch vectors until every node converges onto the same
//! effective knowledge.
//!
//! All three runtimes share one stepping surface, [`FleetRuntime`]
//! (`run_until` / `run_events` / event-stream observers). Under
//! [`Schedule::EventDriven`] the round loop gives way to a
//! discrete-event scheduler ([`EventFleet`]): instances are sparse
//! slab entries with never-reused generational handles
//! ([`InstanceId`]), knowledge merges per publish event instead of at
//! barriers, and seeded [`WorkloadTrace`]s drive arrivals and
//! retirements as events — a million concurrent instances in one
//! process, replayable bit-identically from their seeds.
//!
//! ## Example
//!
//! ```no_run
//! use socrates::{AdaptiveApplication, Toolchain};
//! use margot::{Metric, Rank};
//! use polybench::App;
//!
//! // Batch-enhance two apps; the COBAYN corpus is shared.
//! let enhanced = Toolchain::default()
//!     .enhance_all(&[App::TwoMm, App::Mvt])
//!     .unwrap();
//! println!("Table I row: {}", enhanced[0].metrics);
//!
//! let mut app = AdaptiveApplication::new(
//!     enhanced.into_iter().next().unwrap(),
//!     Rank::throughput_per_watt2(),
//!     42,
//! );
//! app.run_for(10.0); // ten virtual seconds of adaptive execution
//! app.set_rank(Rank::maximize(Metric::throughput()));
//! app.run_for(10.0);
//! ```

#![warn(missing_docs)]

mod artifact;
mod engine;
mod error;
mod events;
mod fleet;
mod fleet_dist;
mod fleet_events;
mod knowledge_io;
mod platform;
mod runtime;
mod snapshot;
mod toolchain;
mod trace;
pub mod transport;

pub use artifact::{
    ArtifactStore, FlagPredictions, KernelFeatures, ParsedSource, ProfiledKnowledge, StoreStats,
    WeavedProgram, KNOWLEDGE_FORMAT_VERSION,
};
pub use engine::{
    analysis_prune, analyze_kernel, analyze_kernel_for, compile_kernel, compile_kernel_for,
    functional_dims, functional_spec, CompiledKernel, KernelFamily, FUNCTIONAL_DIM_CAP,
};
pub use error::{SocratesError, StageId};
pub use events::{EventObserver, FleetEvent, FleetRuntime, InstanceId};
pub use fleet::{
    Fleet, FleetConfig, FleetConfigBuilder, FleetStats, Schedule, FLEET_POWER_PRIORITY,
};
pub use fleet_dist::{DistStats, DistributedFleet};
pub use fleet_events::{Arrival, EventFleet, EventFleetStats, WorkloadCurve, WorkloadTrace};
pub use knowledge_io::{
    delta_from_bytes, delta_to_bytes, wire_from_bytes, wire_to_bytes, WIRE_MAGIC,
};
pub use minivm::ExecutionReport;
pub use platform::Platform;
pub use runtime::{AdaptiveApplication, TraceSample};
pub use snapshot::{
    cosine_distance, nearest_neighbour, KnowledgeSnapshot, SnapshotDelta, SnapshotFingerprint,
    SNAPSHOT_DELTA_MAGIC, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
pub use toolchain::{EnhancedApp, Toolchain};
pub use trace::{trace_digest, windowed_stats, TraceStats};
pub use transport::{DistTopology, DistributedConfig, LinkConfig};
