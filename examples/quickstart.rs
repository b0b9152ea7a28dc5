//! Quickstart: rent a simulated bare-metal Xeon, recover its core map, and
//! catalogue it by PPIN.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use core_map::core::{verify, CoreMapper};
use core_map::fleet::{CloudFleet, CpuModel, FleetDb};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deterministic simulated cloud: instance 0 of the 24-core Cascade
    // Lake SKU the paper evaluates the covert channel on.
    let fleet = CloudFleet::with_seed(2022);
    let instance = fleet.instance(CpuModel::Platinum8259CL, 0)?;
    println!("booted {} (PPIN {})", instance.model(), instance.ppin());

    // Run the paper's three-step methodology: slice eviction sets, OS
    // core <-> CHA discovery, all-pairs traffic observation, ILP
    // reconstruction. Needs root for the MSRs - the machine grants it.
    let mut machine = instance.boot();
    let map = CoreMapper::new().map(&mut machine)?;

    println!("\nrecovered core map (os_core/cha per tile):");
    println!("{}", map.render());

    // The simulator knows the hidden truth, so we can check ourselves.
    let exact = verify::matches_exactly(&map, instance.floorplan());
    println!("matches hidden ground truth (up to mirror): {exact}");

    // The mapping requires root once per chip; the result is keyed by the
    // PPIN so later user-level tenancies can reuse it.
    let mut db = FleetDb::new();
    db.insert(map)?;
    let mut json = Vec::new();
    db.save(&mut json)?;
    println!(
        "fleet database entry persisted ({} bytes of JSON)",
        json.len()
    );
    Ok(())
}
