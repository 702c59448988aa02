//! The paper's experiments, E1–E13, one table-returning function each.
//!
//! Each function rebuilds its scenario from fixed seeds and returns the
//! [`Table`] it measures. [`ALL`] lists them in E-order for the
//! `experiments` binary; `tests/paper_claims.rs` asserts each claim the
//! paper makes against its table, and pins every table but E1 (whose
//! stage costs are wall-clock sleeps) in `tests/golden/paper/<id>.md`.

mod cases;
mod continual;
mod io;
mod patterns;
mod scheduler;

pub use cases::{e13, e4, e7};
pub use continual::{e9, e9b};
pub use io::{e11a, e11b, e5, e5b, e6};
pub use patterns::{e1, e2a, e2b};
pub use scheduler::{e10, e12a, e12b, e3, e8};

use crate::table::Table;

/// An experiment: runs its scenario and returns its table.
pub type Experiment = fn() -> Table;

/// Every experiment table in E-order, by golden-file id.
pub const ALL: [(&str, Experiment); 18] = [
    ("e1", e1),
    ("e2a", e2a),
    ("e2b", e2b),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e5b", e5b),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e9b", e9b),
    ("e10", e10),
    ("e11a", e11a),
    ("e11b", e11b),
    ("e12a", e12a),
    ("e12b", e12b),
    ("e13", e13),
];
