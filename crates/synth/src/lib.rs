//! # minobs-synth — full-information protocols and mechanical bivalency
//!
//! The impossibility half of Theorem III.8 argues over *all* algorithms.
//! This crate makes that quantification finite and executable through the
//! classical full-information reduction:
//!
//! Any `k`-round algorithm's output is a function of the process's
//! *view* — its input plus the (recursively nested) views it received.
//! Conversely any assignment of outputs to views *is* an algorithm. So:
//!
//! > a scheme `L` admits an algorithm in which both processes decide at
//! > round `k` **iff** there is a decision map on round-`k` views that is
//! > constant on every execution-connected component and respects the
//! > validity pins.
//!
//! [`checker::check`] decides exactly that with a union-find over
//! interned views ([`views`]), enumerating `Pref_k(L)` level-
//! synchronously; [`checker::first_horizon`] sweeps `k` upward for the
//! first solvable horizon. Both take one [`checker::CheckOptions`] (a
//! [`checker::Budget`] and whether prefix viability runs on `rayon`) and
//! a recorder; `solvable_by`, `solvable_by_with_recorder` and
//! `first_solvable_horizon` are the same calls with default options.
//! When the answer is *no*, the check returns the **bivalency
//! chain**: the sequence of executions connecting the all-0 execution to
//! the all-1 execution through indistinguishable views — the
//! combinatorial skeleton of Section III-C's impossibility proof, and of
//! the "connected components of the configuration space" the paper's
//! conclusion alludes to.
//!
//! Two structural facts fall out and are tested:
//!
//! * the checker only sees `Pref_k(L)`, so the first solvable horizon
//!   equals the paper's round-complexity bound `p` of Corollary III.14 /
//!   Proposition III.15 whenever `p` exists, and is `∞` exactly when
//!   `Pref(L) = Γ*` (where only unbounded-round algorithms can exist);
//! * obstructions (R1, S2, the canonical minimal obstruction) stay
//!   unsolvable at *every* horizon, with ever-longer bivalency chains.
//!
//! ## Memory profile
//!
//! A check holds one round of work at a time, and decide needs less than
//! the last round's expansion:
//!
//! * **Frontier.** One 16-byte entry per (allowed prefix × input pair):
//!   prefix index, inputs, and the two current view ids. Prefixes are
//!   stored once, tree-encoded as (parent, letter), 8 bytes each.
//! * **Round-local intern table.** A round-`r` view is keyed by
//!   round-`(r−1)` ids, so [`views::ViewArena`] drops its table between
//!   rounds and sizes it for the round up front (12 bytes an entry).
//!   Ids keep counting, so every view gets the id a table over all
//!   rounds would have given it.
//! * **CSR decide.** Once the last round is interned only the view
//!   count is kept. Union-find and the pins are `Vec<u32>`s over view
//!   ids; the bivalency-chain search builds a CSR adjacency (view →
//!   executions, by counting sort) and runs its BFS over a `u32` parent
//!   array and queue.
//! * **Compact chain.** [`checker::Chain`] stores each step as (prefix
//!   index, inputs) next to the prefix store and rebuilds
//!   [`checker::ChainStep`]s as it is iterated.
//!
//! For R1 = `Γ^ω` at horizon 12 (2.1M executions, a chain of 1,062,883)
//! the process peaks at about 118 MB, during the last round's expansion.
//!
//! ```
//! use minobs_core::prelude::*;
//! use minobs_synth::checker::{gamma_alphabet, solvable_by, CheckResult};
//!
//! // Γω has no 2-round algorithm; the certificate is a 19-step chain of
//! // pairwise-indistinguishable executions connecting the all-0 run to
//! // the all-1 run.
//! let CheckResult::Unsolvable { chain } =
//!     solvable_by(&classic::r1(), 2, &gamma_alphabet())
//! else { panic!("Γω is an obstruction") };
//! assert_eq!(chain.len(), 19); // 2·3^k + 1 at horizon k = 2
//!
//! // S1 becomes solvable at exactly its round bound.
//! assert!(solvable_by(&classic::s1(), 2, &gamma_alphabet()).is_solvable());
//! ```

pub mod cache;
pub mod checker;
pub mod views;

pub use cache::{CacheAnswer, HorizonVerdicts, Merge};
pub use checker::{
    check, first_horizon, first_solvable_horizon, solvable_by, solvable_by_with_recorder, Budget,
    Chain, ChainStep, CheckOptions, CheckResult, HorizonOutcome,
};
pub use views::{ViewArena, ViewId};
