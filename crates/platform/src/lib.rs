//! # platform-sim — the simulated SOCRATES testbed
//!
//! The SOCRATES paper (DATE 2018) evaluates on a dual-socket NUMA machine
//! (2× Intel Xeon E5-2630 v3, 16 cores / 32 hyper-threads, 128 GB DDR4)
//! with RAPL power measurement. This crate replaces that hardware with an
//! analytic model that reproduces the *mechanisms* behind the paper's
//! trade-off space:
//!
//! - [`Topology`] + [`BindingPolicy`]: OpenMP `OMP_PLACES=cores` placement
//!   under `proc_bind(close|spread)`, with SMT sharing past 16 threads;
//! - [`FlagEffectModel`]: feature-dependent compiler-flag speedups (what
//!   COBAYN learns to predict);
//! - [`TimingParams`]: roofline compute/memory balance, Amdahl + USL
//!   scaling, NUMA bandwidth vs. locality;
//! - [`PowerParams`]: RAPL-style machine power (idle floor, uncore, core
//!   dynamic power, SMT increments, DRAM power);
//! - [`Machine`]: the composed testbed with reproducible measurement noise;
//! - [`VirtualClock`] / [`EnergyMeter`]: virtual time and energy counters
//!   so 300-second traces replay in milliseconds.
//!
//! ## Example
//!
//! ```
//! use platform_sim::{
//!     BindingPolicy, CompilerOptions, KnobConfig, Machine, OptLevel, WorkloadProfile,
//! };
//!
//! let mut machine = Machine::xeon_e5_2630_v3(42);
//! let kernel = WorkloadProfile::builder("gemm")
//!     .flops(2.0e9)
//!     .bytes(4.0e8)
//!     .parallel_fraction(0.97)
//!     .build();
//!
//! let slow = machine.execute(
//!     &kernel,
//!     &KnobConfig::new(CompilerOptions::level(OptLevel::Os), 1, BindingPolicy::Close),
//! );
//! let fast = machine.execute(
//!     &kernel,
//!     &KnobConfig::new(CompilerOptions::level(OptLevel::O3), 32, BindingPolicy::Spread),
//! );
//! assert!(fast.time_s < slow.time_s);
//! assert!(fast.power_w > slow.power_w);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod config;
pub mod flags;
pub mod machine;
pub mod power;
pub mod timing;
pub mod topology;
pub mod workload;

pub use clock::{EnergyMeter, VirtualClock};
pub use config::{
    paper_cf_combos, BindingPolicy, CompilerFlag, CompilerOptions, FlagIter, FlagSet, KnobConfig,
    OptLevel, ParseConfigError,
};
pub use flags::FlagEffectModel;
pub use machine::{Execution, Machine, NoiseParams};
pub use power::PowerParams;
pub use timing::{TimingBreakdown, TimingParams};
pub use topology::{Placement, Topology};
pub use workload::{WorkloadProfile, WorkloadProfileBuilder};
