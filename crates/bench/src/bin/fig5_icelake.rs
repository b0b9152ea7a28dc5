//! **Fig. 5** — core location mapping of the third-generation (Ice Lake)
//! Xeon Gold 6354.
//!
//! Maps the OCI Ice Lake fleet (10 instances in the paper) and renders one
//! recovered map on the 6x8 tile grid; also reports the number of unique
//! patterns found, matching Sec. III-B ("out of the evaluated 10 CPU
//! instances, we found 6 unique core mapping patterns").

use coremap_bench::{map_fleet, Options};
use coremap_core::verify;
use coremap_fleet::render::render_floorplan;
use coremap_fleet::stats::PatternStats;
use coremap_fleet::{CloudFleet, CpuModel};

fn main() {
    let opts = Options::from_args();
    let fleet = CloudFleet::with_seed(opts.seed);
    let model = CpuModel::Gold6354;
    let count = opts.instances_for(model);
    eprintln!(
        "mapping {count} instances of {model} (Ice Lake reconstruction is the largest ILP)..."
    );
    let mapped = map_fleet(&fleet, model, count, opts.workers);

    println!("== Fig. 5: core location mapping example, {model} ==\n");
    let (instance, map) = &mapped[0];
    println!("recovered map of instance #0 (tiles: os_core/cha):");
    println!("{}", map.render());
    println!("ground truth:");
    println!("{}", render_floorplan(instance.floorplan()));

    let stats: PatternStats = mapped.iter().map(|(_, m)| m).collect();
    let verified = mapped
        .iter()
        .filter(|(i, m)| verify::matches_relative(m, i.floorplan()))
        .count();
    let mean_acc: f64 = mapped
        .iter()
        .map(|(i, m)| {
            let truth = i.floorplan();
            let positions: Vec<_> = truth.chas().map(|c| m.coord_of_cha(c)).collect();
            verify::pairwise_accuracy(&positions, truth)
        })
        .sum::<f64>()
        / count as f64;
    println!(
        "unique patterns across {count} instances: {} (paper: 6 of 10)",
        stats.unique_patterns()
    );
    println!(
        "ground-truth: {verified}/{count} exact relative matches, mean pairwise accuracy {mean_acc:.4}"
    );
    println!(
        "\nEvery recovered map explains all of its observations. The misses place\n\
         an LLC-only tile in a column that holds no core: it cannot sink\n\
         traffic, and the only vertical observation of it comes from the other\n\
         LLC-only tile there, which bounds its row without fixing it — the\n\
         Sec. II-D partial-observability family.\n\
         Note the Ice Lake CHA numbering (row-major) differs from the Skylake\n\
         generation's column-major rule — the paper's motivation for an\n\
         autonomous method over per-generation pattern rules."
    );
}
