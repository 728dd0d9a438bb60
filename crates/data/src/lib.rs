//! Synthetic datasets for the `dro-edge` experiments.
//!
//! The paper evaluates on real edge datasets that cannot be fetched in an
//! offline build, so this crate provides the documented substitution (see
//! DESIGN.md): parameterized synthetic task families exposing exactly the
//! axes the algorithm targets — few local samples, distribution shift at
//! test time, and heterogeneity across tasks — with known ground truth.
//!
//! * [`Dataset`] — features + `±1` labels with split/shuffle
//!   helpers;
//! * [`TaskFamily`] — the clustered-task generator matching the paper's DP
//!   modelling assumption: every device's true parameter `θ*` is drawn from
//!   a mixture over latent task clusters, and its data follow a logistic
//!   model at `θ*`;
//! * [`shift`] — covariate mean-shift/scaling and label noise applied at
//!   test time;
//! * [`digits`] — a deterministic 64-dimensional "synthetic digits"
//!   workload for higher-dimensional runs.
//!
//! # Example
//!
//! ```
//! use dre_data::{TaskFamily, TaskFamilyConfig};
//! use dre_prob::seeded_rng;
//!
//! let mut rng = seeded_rng(0);
//! let family = TaskFamily::generate(&TaskFamilyConfig::default(), &mut rng).unwrap();
//! let task = family.sample_task(&mut rng);
//! let data = task.generate(50, &mut rng);
//! assert_eq!(data.len(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod digits;
mod error;
pub mod shift;
mod tasks;

pub use dataset::Dataset;
pub use error::DataError;
pub use tasks::{TaskFamily, TaskFamilyConfig, TrueTask};

/// Convenience result alias for fallible data operations.
pub type Result<T> = std::result::Result<T, DataError>;
