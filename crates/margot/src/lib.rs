//! # margot — a dynamic application autotuner
//!
//! Rust reimplementation of the mARGOt autotuning framework as used by
//! SOCRATES (DATE 2018). mARGOt enhances an application with an
//! adaptation layer that monitors its extra-functional behaviour and
//! selects, at every kernel invocation, the most suitable software-knob
//! configuration according to the *current* application requirements.
//!
//! Architecture (mirroring the paper's description):
//!
//! - **Monitoring infrastructure** — [`Monitor`]: sliding-window
//!   statistics over runtime observations;
//! - **Application knowledge** — [`Knowledge`] of [`OperatingPoint`]s
//!   from design-time profiling (DSE), generic over the knob type `K`;
//! - **AS-RTM** — [`AsRtm`]: constrained multi-objective selection
//!   (prioritised [`Constraint`]s + a [`Rank`] such as the paper's
//!   Thr/W²), with runtime feedback folded in as per-metric
//!   observed/expected ratios. [`AsRtm::best`] has two paths with one
//!   result — the best adjusted rank value, the lowest knowledge
//!   position breaking ties. Without constraints, under a geometric or
//!   single-term linear rank, it plans from the [`RankIndex`] its
//!   knowledge carries for that rank and evaluates only the few points
//!   near the top; otherwise it scans every point;
//! - **Rank index** — [`RankIndex`]: a tournament tree over the points'
//!   unscaled rank values that travels with the [`Knowledge`] it
//!   indexes (shared by clones, re-keyed in O(log n) by
//!   [`Knowledge::patch_point`], ignored by equality and serde);
//! - **MAPE-K facade** — [`ApplicationManager`]: the `init` /
//!   `update` / `start`/`stop` API the LARA weaver injects;
//! - **Online knowledge** — [`SharedKnowledge`]: a single-owner,
//!   epoch-versioned knowledge base that merges runtime observations
//!   from many deployed instances (windowed means per point), the
//!   paper's online crowdsourcing loop. One columnar arena with dirty
//!   tracking, so coordinators refresh caches incrementally and ship
//!   [`KnowledgeDelta`]s instead of full clones; shards partition its
//!   snapshots, deltas and epoch vectors for the wire.
//!
//! ## Example
//!
//! ```
//! use margot::{
//!     ApplicationManager, Cmp, Constraint, Knowledge, Metric, MetricValues, OperatingPoint,
//!     Rank,
//! };
//!
//! let mut kb = Knowledge::new();
//! kb.add(OperatingPoint::new(
//!     "fast",
//!     MetricValues::new()
//!         .with(Metric::exec_time(), 0.1)
//!         .with(Metric::power(), 120.0),
//! ));
//! kb.add(OperatingPoint::new(
//!     "cool",
//!     MetricValues::new()
//!         .with(Metric::exec_time(), 0.4)
//!         .with(Metric::power(), 60.0),
//! ));
//!
//! let mut manager = ApplicationManager::new(kb, Rank::minimize(Metric::exec_time()));
//! manager.add_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 100.0, 10));
//! assert_eq!(manager.update(), Some("cool"));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod asrtm;
mod index;
mod knowledge;
mod manager;
mod metric;
mod monitor;
mod requirements;
mod shared;
mod states;

pub use asrtm::AsRtm;
pub use index::RankIndex;
pub use knowledge::{Knowledge, OperatingPoint};
pub use manager::{ApplicationManager, DEFAULT_MONITOR_WINDOW};
pub use metric::{Metric, MetricValues};
pub use monitor::Monitor;
pub use requirements::{Cmp, Constraint, Rank, RankDirection, RankKind};
pub use shared::{
    shard_content_hash, shard_index, KnowledgeDelta, PointState, SharedKnowledge, DEFAULT_SHARDS,
};
pub use states::{OptimizationState, StateRegistry, UnknownStateError};
