//! Cloud-side deep dive: fit the DP prior with collapsed Gibbs and with
//! truncated variational EM, compare what they discover, and sweep the
//! concentration α.
//!
//! ```sh
//! cargo run -p dre-integration --example cloud_prior --release
//! ```

use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_prob::seeded_rng;
use dro_edge::{CloudKnowledge, PriorFitMethod};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded_rng(3030);
    let family = TaskFamily::generate(
        &TaskFamilyConfig {
            dim: 5,
            num_clusters: 3,
            cluster_separation: 4.0,
            within_cluster_std: 0.25,
            label_noise: 0.02,
            steepness: 3.0,
        },
        &mut rng,
    )?;

    // Train one shared pool of source models, fit it twice.
    let reference = CloudKnowledge::from_family(&family, 48, 400, 1.0, &mut rng)?;
    let thetas = reference.source_models().to_vec();

    println!("ground truth: 3 latent task clusters, 48 historical devices\n");
    for (name, method) in [
        ("collapsed Gibbs", PriorFitMethod::CollapsedGibbs),
        ("variational EM", PriorFitMethod::Variational),
    ] {
        let cloud = CloudKnowledge::from_source_models(thetas.clone(), 1.0, method, &mut rng)?;
        println!(
            "{name:>16}: {} clusters discovered, prior has {} components, {} bytes",
            cloud.discovered_clusters(),
            cloud.prior().num_components(),
            cloud.transfer_size_bytes(),
        );
        for (k, comp) in cloud.prior().components().iter().enumerate() {
            let head: Vec<String> = comp
                .mean()
                .iter()
                .take(3)
                .map(|v| format!("{v:+.2}"))
                .collect();
            println!(
                "        component {k}: weight {:.3}, mean ≈ [{} …]",
                comp.weight(),
                head.join(", "),
            );
        }
    }

    println!("\nconcentration sweep (Gibbs):");
    println!("{:>8}  {:>8}", "alpha", "clusters");
    for alpha in [0.1, 0.5, 1.0, 4.0, 16.0] {
        let cloud = CloudKnowledge::from_source_models(
            thetas.clone(),
            alpha,
            PriorFitMethod::CollapsedGibbs,
            &mut rng,
        )?;
        println!("{alpha:>8.1}  {:>8}", cloud.discovered_clusters());
    }
    Ok(())
}
