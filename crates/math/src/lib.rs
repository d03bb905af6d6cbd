//! Probability tools, tail bounds, samplers, statistics and small linear
//! algebra used throughout the `popele` workspace.
//!
//! This crate implements, from scratch, the probabilistic toolkit of
//! Section 2.3 of *Near-Optimal Leader Election in Population Protocols on
//! Graphs* (PODC 2022):
//!
//! * [`bounds`] — the concentration inequalities of Lemmas 1–3 and the
//!   edge-sequence bound of Lemma 5, as directly evaluable functions;
//! * [`dist`] — exact samplers for geometric, Poisson and hypergeometric
//!   distributions (the workspace only depends on `rand` for raw uniform
//!   bits);
//! * [`stats`] — streaming summary statistics, quantiles and confidence
//!   intervals used by the experiment harness;
//! * [`fit`] — least-squares fitting, in particular log–log exponent fits
//!   used to verify asymptotic growth rates ("is this curve `Θ(n²)`?");
//! * [`linalg`] — a dense matrix with Gaussian elimination, used to compute
//!   exact hitting times of random walks on small graphs;
//! * [`rng`] — deterministic seed derivation so that every experiment is
//!   reproducible from a single master seed.
//!
//! # Examples
//!
//! ```
//! use popele_math::stats::Summary;
//!
//! let s: Summary = [1.0, 2.0, 3.0, 4.0].iter().copied().collect();
//! assert_eq!(s.mean(), 2.5);
//! ```

#![warn(missing_docs)]

pub mod bounds;
pub mod dist;
pub mod fit;
pub mod linalg;
pub mod rng;
pub mod stats;

pub use bounds::{chernoff_lower, chernoff_upper, geometric_sum_tail, poisson_tail};
pub use fit::PowerFit;
pub use stats::Summary;
