//! Shared experiment plumbing: standard setups, the fleet harnesses, table
//! rendering and JSON result output.
//!
//! Every experiment binary (`e1_…` … `e16_…`) builds on these helpers so
//! setups stay comparable across experiments and EXPERIMENTS.md can be
//! regenerated mechanically. Results are printed as aligned text tables and
//! mirrored as JSON under `results/`. The fleet harnesses ([`degraded`] and
//! [`closed_loop`]) are also what the root integration suites run, so an
//! experiment and the test that pins it execute the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::Path;

use dre_bayes::MixturePrior;
use dre_data::{Dataset, TaskFamily, TaskFamilyConfig};
use dre_models::metrics;
use dre_prob::seeded_rng;
use dro_edge::{baselines, CloudKnowledge, EdgeLearner, EdgeLearnerConfig};
use rand::rngs::StdRng;

pub mod closed_loop;
pub mod degraded;
pub mod json;

/// The workspace-standard task family every experiment defaults to:
/// 5 features, 3 latent clusters, mild label noise.
pub fn standard_family_config() -> TaskFamilyConfig {
    TaskFamilyConfig {
        dim: 5,
        num_clusters: 3,
        cluster_separation: 4.0,
        within_cluster_std: 0.25,
        label_noise: 0.02,
        steepness: 3.0,
    }
}

/// Builds the standard family with a deterministic RNG; returns both.
///
/// # Panics
///
/// Panics only if the standard configuration were invalid (it is not).
pub fn standard_family(seed: u64) -> (TaskFamily, StdRng) {
    let mut rng = seeded_rng(seed);
    let family = TaskFamily::generate(&standard_family_config(), &mut rng)
        .expect("standard config is valid");
    (family, rng)
}

/// Builds cloud knowledge from the family with the experiment-standard
/// settings (`M` historical tasks, 400 samples each, Gibbs fit).
///
/// # Panics
///
/// Panics on pipeline failure — experiments treat that as fatal.
pub fn standard_cloud(
    family: &TaskFamily,
    num_tasks: usize,
    alpha: f64,
    rng: &mut StdRng,
) -> CloudKnowledge {
    CloudKnowledge::from_family(family, num_tasks, 400, alpha, rng)
        .expect("cloud pipeline failed")
}

/// The learner configuration the experiments sweep around.
pub fn standard_learner_config() -> EdgeLearnerConfig {
    EdgeLearnerConfig {
        epsilon: 0.1,
        kappa: 1.0,
        rho: 1.0,
        em_rounds: 15,
        em_tol: 1e-7,
        solver_iters: 200,
        multi_start: true,
    }
}

/// Ridge strength of the local-only ERM floor every fleet harness measures
/// against (and of the runtimes' terminal local fallback).
pub const FLOOR_ERM_LAMBDA: f64 = 1e-3;

/// The few-shot learner every fleet harness runs: three EM rounds of at
/// most 40 solver iterations from a single start, cheap enough to fit on
/// every device every round.
pub fn fleet_learner_config() -> EdgeLearnerConfig {
    EdgeLearnerConfig {
        em_rounds: 3,
        solver_iters: 40,
        multi_start: false,
        ..EdgeLearnerConfig::default()
    }
}

/// One prior-covered device: a fixed few-shot training set, a held-out
/// evaluation set, and two reference accuracies on it.
pub struct CoveredDevice {
    /// Few-shot training samples (12).
    pub train: Dataset,
    /// Held-out evaluation samples (300).
    pub test: Dataset,
    /// Held-out accuracy of local ERM on `train`: the floor.
    pub floor_acc: f64,
    /// Held-out accuracy of the [`fleet_learner_config`] fit on `train`
    /// under the reference prior the device was selected with.
    pub prior_acc: f64,
}

/// Rejection-samples `count` devices from `family` whose few-shot fit under
/// `prior` beats local ERM by more than a point.
///
/// The fleet harnesses measure the runtime and the learner, so devices are
/// drawn from tasks the prior actually helps (the paper's transfer
/// setting): on a task where the prior misleads the few-shot fit, "fresh
/// beats local" is not a property any runtime could restore. Each candidate
/// draws its training and evaluation sets from `rng` in that order.
///
/// # Panics
///
/// Panics if `20 · count` candidates do not yield `count` covered devices.
/// The draw is deterministic, so that is a programming error, not a flake.
pub fn covered_devices(
    family: &TaskFamily,
    prior: &MixturePrior,
    count: usize,
    rng: &mut StdRng,
) -> Vec<CoveredDevice> {
    let mut devices = Vec::with_capacity(count);
    for _ in 0..20 * count {
        if devices.len() == count {
            break;
        }
        let task = family.sample_task(rng);
        let train = task.generate(12, rng);
        let test = task.generate(300, rng);
        let erm = baselines::fit_local_erm(&train, FLOOR_ERM_LAMBDA).expect("erm fits");
        let floor_acc = metrics::accuracy(&erm, test.features(), test.labels()).expect("eval");
        let fit = EdgeLearner::new(fleet_learner_config(), prior.clone())
            .expect("valid learner")
            .fit(&train)
            .expect("fit succeeds");
        let prior_acc =
            metrics::accuracy(&fit.model, test.features(), test.labels()).expect("eval");
        if prior_acc > floor_acc + 0.01 {
            devices.push(CoveredDevice {
                train,
                test,
                floor_acc,
                prior_acc,
            });
        }
    }
    assert_eq!(devices.len(), count, "could not draw a prior-covered fleet");
    devices
}

/// An aligned text table with a JSON mirror.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. `"E1"`).
    pub id: String,
    /// One-line description of what the table shows.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (formatted values).
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout and mirrors it as
    /// `results/<id lowercase>.json` (directory created on demand; I/O
    /// failures are reported to stderr but do not abort the experiment).
    pub fn emit(&self) {
        print!("{}", self.render());
        let dir = Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create results dir: {e}");
            return;
        }
        let path = dir.join(format!("{}.json", self.id.to_lowercase()));
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    /// Serializes the table as pretty-printed JSON (same shape the old
    /// serde derive produced).
    pub fn to_json(&self) -> String {
        use crate::json::JsonValue;
        JsonValue::object([
            ("id", JsonValue::from(self.id.as_str())),
            ("title", JsonValue::from(self.title.as_str())),
            (
                "headers",
                JsonValue::array(self.headers.iter().map(|h| JsonValue::from(h.as_str()))),
            ),
            (
                "rows",
                JsonValue::array(self.rows.iter().map(|row| {
                    JsonValue::array(row.iter().map(|c| JsonValue::from(c.as_str())))
                })),
            ),
        ])
        .pretty()
    }
}

/// Concentration-scaled Wasserstein radius `ε_n = c / √n`.
///
/// Measure-concentration results for Wasserstein balls shrink the radius
/// needed to cover the true distribution as local data accumulates; the
/// sample-size sweeps use this schedule so the robust methods converge to
/// the oracle instead of paying a fixed conservatism premium forever.
pub fn concentration_radius(c: f64, n: usize) -> f64 {
    c / (n.max(1) as f64).sqrt()
}

/// Formats an accuracy ± stderr pair.
pub fn fmt_acc(mean: f64, se: f64) -> String {
    format!("{:.3}±{:.3}", mean, se)
}

/// Formats a float with 4 significant decimals.
pub fn fmt_f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("E0", "smoke", &["method", "acc"]);
        t.push_row(vec!["erm".into(), "0.81".into()]);
        t.push_row(vec!["dro+dp".into(), "0.93".into()]);
        let s = t.render();
        assert!(s.contains("E0"));
        assert!(s.contains("dro+dp"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("E0", "smoke", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn standard_setup_builds() {
        let (family, mut rng) = standard_family(7);
        assert_eq!(family.config().dim, 5);
        let task = family.sample_task(&mut rng);
        assert_eq!(task.dim(), 5);
        assert!(standard_learner_config().validate().is_ok());
        assert_eq!(fmt_acc(0.5, 0.01), "0.500±0.010");
        assert_eq!(fmt_f(1.23456), "1.2346");
    }
}
