//! E10 — Dirichlet-process clustering behaviour.
//!
//! Two views: (a) the prior's own law — occupied CRP tables grow like
//! `α·ln(1 + n/α)`; (b) the posterior — with data from a fixed number of
//! true clusters, both the Gibbs and variational fits should *saturate* at
//! the true count instead of following the prior's logarithmic growth.

use dre_bayes::Crp;
use dre_bench::{fmt_f, standard_family, Table};
use dro_edge::{CloudKnowledge, PriorFitMethod};

fn main() {
    // (a) Prior law: exact expectation vs. Monte Carlo.
    let mut prior_table = Table::new(
        "E10a",
        "CRP occupied tables: exact E[K_n] vs. Monte Carlo (α = 1)",
        &["n", "exact", "monte-carlo"],
    );
    let crp = Crp::new(1.0).expect("valid alpha");
    let mut rng = dre_prob::seeded_rng(1010);
    for n in [10usize, 50, 100, 500, 1000] {
        let exact = crp.expected_tables(n);
        let trials = 300;
        let mc: f64 = (0..trials)
            .map(|_| (crp.sample_partition(&mut rng, n).iter().max().unwrap() + 1) as f64)
            .sum::<f64>()
            / trials as f64;
        prior_table.push_row(vec![n.to_string(), fmt_f(exact), fmt_f(mc)]);
    }
    prior_table.emit();

    // (b) Posterior saturation: the family has exactly 3 true clusters.
    let (family, mut rng) = standard_family(1011);
    let mut posterior_table = Table::new(
        "E10b",
        "discovered parameter clusters vs. source tasks (3 true clusters)",
        &["M", "gibbs", "variational", "crp-prior-E[K]"],
    );
    for m in [6usize, 12, 24, 48, 96] {
        // Train source models once, fit both ways on the same parameters.
        let cloud_gibbs =
            CloudKnowledge::from_family(&family, m, 400, 1.0, &mut rng).expect("gibbs cloud");
        let cloud_vb = CloudKnowledge::from_source_models(
            cloud_gibbs.source_models().to_vec(),
            1.0,
            PriorFitMethod::Variational,
            &mut rng,
        )
        .expect("vb cloud");
        posterior_table.push_row(vec![
            m.to_string(),
            cloud_gibbs.discovered_clusters().to_string(),
            cloud_vb.discovered_clusters().to_string(),
            fmt_f(crp.expected_tables(m)),
        ]);
    }
    posterior_table.emit();
}
