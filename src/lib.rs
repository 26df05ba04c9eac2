//! # onion-curve
//!
//! Facade crate for the Onion Curve workspace — a full reproduction of
//! *Xu, Nguyen, Tirthapura, "Onion Curve: A Space Filling Curve with
//! Near-Optimal Clustering"* (ICDE 2018).
//!
//! Re-exports the public API of every workspace crate:
//!
//! * [`core`](onion_core) — [`Onion2D`], [`Onion3D`], [`OnionNd`], the
//!   [`SpaceFillingCurve`] trait, points and universes;
//! * [`baselines`] — Hilbert, Z-order, Gray-code, row/column-major, snake;
//! * [`clustering`] — clustering numbers, exact averages, query generators;
//! * [`theory`] — the paper's closed-form bounds (Theorems 1–6);
//! * [`index`] — an SFC-keyed spatial index with seek accounting;
//! * [`engine`] — the concurrent serving layer: one verb set
//!   (`Request` → `Response`, answered by `Engine::execute`), epoch-batched
//!   writes, adaptive query planning;
//! * [`net`] — the wire protocol, blocking threaded server, TCP client,
//!   and epoch-streaming read replicas;
//! * [`workloads`] — deterministic spatial data generators and mixed
//!   read/write op streams.
//!
//! ## Quick start
//!
//! ```
//! use onion_curve::{Onion2D, Point, SpaceFillingCurve};
//! use onion_curve::clustering::{clustering_number, RectQuery};
//!
//! let onion = Onion2D::new(256).unwrap();
//! let query = RectQuery::new([100, 100], [40, 40]).unwrap();
//! let clusters = clustering_number(&onion, &query);
//! assert!(clusters >= 1);
//! ```

pub use onion_core::{
    edges, CurveWalk, Onion2D, Onion3D, OnionNd, Point, SfcError, SpaceFillingCurve, Universe,
};

/// Baseline curves (re-export of `sfc-baselines`).
pub mod baselines {
    pub use sfc_baselines::*;
}

/// Clustering analysis (re-export of `sfc-clustering`).
pub mod clustering {
    pub use sfc_clustering::*;
}

/// Closed-form bounds from the paper (re-export of `sfc-theory`).
pub mod theory {
    pub use sfc_theory::*;
}

/// SFC-backed spatial index (re-export of `sfc-index`).
pub mod index {
    pub use sfc_index::*;
}

/// Concurrent serving layer (re-export of `sfc-engine`).
pub mod engine {
    pub use sfc_engine::*;
}

/// Network layer: wire protocol, server, client, replicas (re-export of
/// `sfc-net`).
pub mod net {
    pub use sfc_net::*;
}

/// Spatial data generators (re-export of `sfc-workloads`).
pub mod workloads {
    pub use sfc_workloads::*;
}

pub use sfc_baselines::{GrayCode, Hilbert, Morton, RowMajor, Snake};
