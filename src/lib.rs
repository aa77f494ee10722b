//! # hbtl — temporal logic predicate detection on the happened-before model
//!
//! A production-quality Rust implementation of Sen & Garg, *Detecting
//! Temporal Logic Predicates on the Happened-Before Model* (IPDPS 2002):
//! given a single recorded execution of a distributed program, decide CTL
//! properties of its lattice of consistent global states **without
//! building the lattice**, by exploiting the structure of the predicate.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! one roof and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`vclock`] | `hb-vclock` | vector and Lamport clocks |
//! | [`computation`] | `hb-computation` | events, traces, consistent cuts |
//! | [`lattice`] | `hb-lattice` | the explicit cut lattice, Birkhoff |
//! | [`predicates`] | `hb-predicates` | predicate classes and classifiers |
//! | [`detect`] | `hb-detect` | Algorithms A1/A2/A3 and friends |
//! | [`ctl`] | `hb-ctl` | formula language, parser, evaluator |
//! | [`slicer`] | `hb-slice` | computation slicing, offline and online |
//! | [`sim`] | `hb-sim` | protocol simulator, random traces |
//! | [`reduction`] | `hb-reduction` | the NP-hardness gadgets |
//! | [`tracefmt`] | `hb-tracefmt` | JSON/text trace interchange |
//! | [`sdk`] | `hb-sdk` | instrumentation SDK: tracers, traced channels, live streaming |
//!
//! # Quickstart
//!
//! ```
//! use hbtl::prelude::*;
//!
//! // Record (or simulate, or import) a computation…
//! let trace = hbtl::sim::protocols::token_ring_mutex(3, 2, 42);
//!
//! // …and check a property by formula:
//! let f = parse("AG(!(crit@0 = 1 & crit@1 = 1))").unwrap();
//! let result = evaluate(&trace.comp, &f).unwrap();
//! assert!(result.verdict); // token ring really is mutually exclusive
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hb_computation as computation;
pub use hb_ctl as ctl;
pub use hb_detect as detect;
pub use hb_lattice as lattice;
pub use hb_predicates as predicates;
pub use hb_reduction as reduction;
pub use hb_sdk as sdk;
pub use hb_sim as sim;
pub use hb_slice as slicer;
pub use hb_tracefmt as tracefmt;
pub use hb_vclock as vclock;

/// The most common imports in one line.
pub mod prelude {
    pub use hb_computation::{Computation, ComputationBuilder, Cut, EventId};
    pub use hb_ctl::{evaluate, parse, Engine};
    pub use hb_detect::{
        af_conjunctive, ag_linear, ef_linear, eg_conjunctive, eg_disjunctive,
        eu_conjunctive_linear, ModelChecker,
    };
    pub use hb_predicates::{Conjunctive, Disjunctive, LinearPredicate, LocalExpr, Predicate};
    pub use hb_vclock::{CausalOrd, VectorClock};
}
