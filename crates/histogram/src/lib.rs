//! # sqe-histogram — histogram substrate for SITs
//!
//! Unidimensional histograms over `i64` attributes, matching the statistical
//! machinery the paper relies on:
//!
//! * **maxDiff** construction (Poosala et al. \[22\], the paper's choice for
//!   SITs, §5 "each SIT is a unidimensional maxDiff histogram with at most
//!   200 buckets"), plus equi-depth and equi-width baselines,
//! * selectivity estimation for range / equality / comparison predicates
//!   with continuous-value interpolation inside buckets,
//! * **histogram equi-join** (§3.3): joining `H1` and `H2` returns both the
//!   join selectivity *and* a result histogram `H3` describing the join
//!   attribute's distribution over the join output — the paper uses `H3` to
//!   estimate remaining predicates after a join,
//! * the **`diff` metric** of §3.5: the total variation distance
//!   `½·Σ_x |f(R,x)/|R| − f(T′,x)/|T′||` between a base-table distribution
//!   and the distribution over a query expression's result, computed either
//!   exactly from the two sides' sorted `(value, count)` lists
//!   ([`Frequencies`], which the builders read too) or approximately from a
//!   pair of histograms.
//!
//! Histograms track NULLs separately (`null_count`): NULL never satisfies a
//! predicate, so estimates are fractions of *all* rows (valid + NULL) while
//! bucket mass covers valid rows only.

pub mod build;
pub mod diff;
pub mod hist2d;
pub mod histogram;
mod kernels;
pub mod maintain;
pub mod sample;
pub mod wavelet;

pub use build::{
    build_equi_depth, build_equi_width, build_exact, build_maxdiff, BuilderKind, Frequencies,
};
pub use diff::{diff_exact, diff_from_histograms};
pub use hist2d::Hist2d;
pub use histogram::{Bucket, Histogram, JoinResult};
pub use maintain::merge_delta;
pub use sample::Sample;
pub use wavelet::WaveletSynopsis;

/// Default bucket budget used throughout the reproduction (the paper uses
/// "at most 200 buckets" per SIT).
pub const DEFAULT_BUCKETS: usize = 200;
