//! # The ASPLOS'25 contribution: iTP, xPTP, and adaptive iTP+xPTP
//!
//! This crate implements the replacement policies proposed by
//! *"Instruction-Aware Cooperative TLB and Cache Replacement Policies"*
//! (Chasapis, Vavouliotis, Jiménez, Casas — ASPLOS 2025):
//!
//! * [`Itp`] — **Instruction Translation Prioritization**, an STLB
//!   replacement policy that keeps instruction translations near the top of
//!   the recency stack and lets data translations leave quickly
//!   (Section 4.1, Figure 5).
//! * [`Xptp`] — **extended Page Table Prioritization**, an L2-cache
//!   replacement policy that protects blocks holding *data* page-table
//!   entries, absorbing the extra data page walks iTP causes
//!   (Section 4.2, Figure 6).
//! * [`Xptp::adaptive`] + [`StlbPressureMonitor`] — the phase-adaptive
//!   scheme that enables xPTP only while the STLB is under pressure
//!   (Section 4.3.1, Figure 7 step 5): the same policy, with its steps
//!   a–d gated by the monitor's 1-bit [`XptpSwitch`].
//! * [`Preset`] — the policy/structure assignment matrix of the paper's
//!   Table 2, used by the evaluation harness.
//!
//! The policy *implementations* live in `itpx-policy` (so the statically
//! dispatched [`itpx_policy::engine`] enums can name them without a
//! dependency cycle); this crate re-exports them and owns the evaluation
//! matrix ([`Preset`]) and the [`registry`]. The policies plug into any
//! structure that speaks the [`itpx_policy::Policy`] trait — in this
//! workspace, the TLBs of `itpx-vm` and the caches of `itpx-mem`.
//!
//! # Examples
//!
//! Drive iTP by hand and watch it let data translations leave quickly:
//!
//! ```
//! use itpx_core::{Itp, ItpParams};
//! use itpx_policy::{Policy, TlbMeta};
//! use itpx_types::TranslationKind;
//!
//! let mut itp = Itp::new(1, 12, ItpParams::default());
//! // A data translation inserts at the very bottom of the stack...
//! itp.on_fill(0, 3, &TlbMeta::demand(100, TranslationKind::Data));
//! // ...so it is the next victim.
//! assert_eq!(itp.victim(0, &TlbMeta::demand(101, TranslationKind::Data)), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod presets;
pub mod registry;

pub use itpx_policy::{adaptive, itp, xptp};

pub use adaptive::{StlbPressureMonitor, XptpSwitch};
pub use itp::{Itp, ItpParams};
pub use presets::{LlcChoice, PolicyBundle, Preset};
pub use registry::{cache_policies, tlb_policies, PolicyEntry};
pub use xptp::{Xptp, XptpParams};
