//! # onion-core
//!
//! Core abstractions and the **onion curve** from *Xu, Nguyen, Tirthapura,
//! "Onion Curve: A Space Filling Curve with Near-Optimal Clustering"*
//! (ICDE 2018).
//!
//! A space-filling curve (SFC) is a bijection `π : U → {0, …, n−1}` from a
//! discrete `D`-dimensional cube of `n` cells to a line. The onion curve
//! orders cells by increasing distance from the universe boundary ("layer by
//! layer"), which gives it provably near-optimal *clustering*: rectangular
//! queries decompose into few contiguous index runs, regardless of query
//! side length.
//!
//! This crate provides:
//! * [`Point`], [`Universe`] — the discrete grid model;
//! * [`SpaceFillingCurve`] — the object-safe curve trait, with curve walks
//!   and verification utilities;
//! * [`Onion2D`], [`Onion3D`] — the paper's curves, closed-form in both
//!   directions;
//! * [`OnionNd`] — the paper's proposed higher-dimensional extension.
//!
//! Baseline curves (Hilbert, Z/Morton, Gray-code, …) live in the
//! `sfc-baselines` crate; clustering analysis in `sfc-clustering`.
//!
//! ## Example
//!
//! ```
//! use onion_core::{Onion2D, Point, SpaceFillingCurve};
//!
//! let curve = Onion2D::new(8).unwrap();
//! let idx = curve.index_of(Point::new([3, 4])).unwrap();
//! assert_eq!(curve.point_of(idx).unwrap(), Point::new([3, 4]));
//! // The curve starts at the origin and spirals inward layer by layer.
//! assert_eq!(curve.start(), Point::new([0, 0]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod point;
mod universe;

pub mod curve;
pub mod fastmath;
pub mod onion2d;
pub mod onion3d;
pub mod onion_nd;

pub use curve::{edges, CurveStepper, CurveWalk, SpaceFillingCurve};
pub use error::SfcError;
pub use fastmath::{icbrt_fast, iroot_fast, isqrt_fast};
pub use onion2d::Onion2D;
pub use onion3d::{Onion3D, Segment3D};
pub use onion_nd::OnionNd;
pub use point::{NeighborIter, Point};
pub use universe::{CellIter, Universe};

/// Whether the `SFC_PORTABLE_KERNELS` environment variable (set to a
/// non-empty value other than `0`) pins every runtime-dispatched kernel to
/// its portable tier, whatever the CPU supports. The one parser of the
/// override: the bit kernels in `sfc-baselines` and the CRC-32 in
/// `sfc-index` each consult it once per process.
pub fn portable_kernels_forced() -> bool {
    std::env::var_os("SFC_PORTABLE_KERNELS").is_some_and(|v| !v.is_empty() && v != *"0")
}
