//! # polybench — the paper's benchmark suite
//!
//! The SOCRATES experimental campaign uses 12 applications from
//! Polybench/C. This crate provides, for each of them:
//!
//! - the original C source ([`source`]) in the `minic` dialect, which the
//!   SOCRATES toolchain parses, characterises (Milepost) and weaves
//!   (LARA Multiversioning + Autotuner), and which `minivm` runs: the
//!   source is the kernel's one functional implementation;
//! - its registry entry ([`App`]): dataset dimensions, kernel name and
//!   entry arguments;
//! - an analytic [`WorkloadProfile`](platform_sim::WorkloadProfile)
//!   ([`App::profile`]) that drives the simulated platform's timing/power
//!   response.
//!
//! ## Example
//!
//! ```
//! use polybench::{App, Dataset};
//!
//! let app = App::TwoMm;
//! let src = polybench::source(app, Dataset::Large);
//! let tu = minic::parse(&src).unwrap();
//! assert!(tu.function("kernel_2mm").is_some());
//!
//! let profile = app.profile(Dataset::Large);
//! assert!(profile.flops > 1e9);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod apps;
pub mod sources;

pub use apps::{App, Dataset, KernelArg, UnknownAppError};
pub use sources::source;
