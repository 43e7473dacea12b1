//! Trace-driven cycle-level out-of-order core and full-system simulator.
//!
//! This crate assembles the substrates (`itpx-vm`, `itpx-mem`,
//! `itpx-trace`) and the policies (`itpx-policy`, `itpx-core`) into the
//! simulated machine of the paper's Table 1 and runs workloads through it:
//!
//! * [`config`] — [`SystemConfig::asplos25`] mirrors Table 1; every knob
//!   the sensitivity studies sweep (ITLB size, STLB size/organization,
//!   huge-page fractions) is a field.
//! * [`branch`] — a hashed-perceptron-style branch predictor driving the
//!   decoupled front end.
//! * [`system`] — the structural model: TLBs, page-structure caches,
//!   walker, per-thread page tables, cache hierarchy, and the iTP+xPTP
//!   monitor plumbing of Figure 7.
//! * [`engine`] — the timing model: a timestamp-dataflow out-of-order
//!   core (decoupled front end with FDIP, ROB occupancy, register
//!   dependencies, in-order retire) for one or two SMT threads, plus the
//!   tiered schedule that interleaves functional fast-forward with
//!   cycle-accurate measurement windows.
//! * [`functional`] — the timing-free functional machine: the difftest
//!   reference model, which also checks the residency the fast-forward
//!   warm path leaves in the cycle structures.
//! * [`sim`] — the [`Simulation`] facade used by examples and the
//!   experiment harness.
//!
//! # Example
//!
//! ```
//! use itpx_cpu::{Simulation, SystemConfig};
//! use itpx_core::Preset;
//! use itpx_trace::WorkloadSpec;
//!
//! let cfg = SystemConfig::asplos25();
//! let w = WorkloadSpec::server_like(1).instructions(5_000).warmup(1_000);
//! let out = Simulation::single_thread(&cfg, Preset::Lru, &w).run();
//! assert!(out.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod branch;
pub mod config;
pub mod engine;
pub mod functional;
pub mod output;
pub mod sim;
pub mod system;

pub use branch::HashedPerceptron;
pub use config::SystemConfig;
pub use engine::{Engine, Tier};
pub use functional::{FunctionalChain, FunctionalMachine, FunctionalPscs, FunctionalTlb};
pub use output::{LevelReport, SimulationOutput, ThreadOutput, WalkerSummary};
pub use sim::Simulation;
pub use system::System;
