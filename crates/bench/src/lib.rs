//! Shared harness code for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the experiment index). The helpers here handle
//! argument parsing, fleet-wide mapping with a worker pool, and the
//! attacker-side placement logic that picks sender/receiver cores from a
//! *recovered* map (never from ground truth).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tool code: aborting on a broken invariant is acceptable here (see audit policy);
// panic-discipline applies to the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use coremap_core::{CoreMap, CoreMapper};
use coremap_fleet::{CloudFleet, CloudInstance, CpuModel, FleetRunner};
use coremap_mesh::{Direction, OsCoreId};
use coremap_obs as obs;
use coremap_thermal::power::ThermalNoise;
use coremap_thermal::{ThermalParams, ThermalSim};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Instances to map per CPU model (paper scale: 100 / 100 / 100 / 10).
    pub instances: Option<usize>,
    /// Payload bits per covert-channel measurement (paper scale: 10_000).
    pub bits: usize,
    /// Fleet / experiment seed.
    pub seed: u64,
    /// Worker threads for fleet mapping.
    pub workers: usize,
    /// Write pipeline metrics as JSON to this file (same
    /// `coremap-metrics/v1` shape as the CLI `--metrics` flag).
    pub metrics: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            instances: None,
            bits: 2_000,
            seed: 2022,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            metrics: None,
        }
    }
}

fn arg_value(args: &mut impl Iterator<Item = String>, name: &str) -> String {
    args.next()
        .unwrap_or_else(|| panic!("{name} requires an argument"))
}

fn arg_num(args: &mut impl Iterator<Item = String>, name: &str) -> usize {
    arg_value(args, name)
        .parse()
        .unwrap_or_else(|_| panic!("{name} requires a numeric argument"))
}

impl Options {
    /// Parses `--instances N`, `--bits N`, `--seed N`, `--workers N`,
    /// `--metrics FILE` and `--paper` (paper-scale defaults: all
    /// instances, 10 kbit payloads).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--instances" => opts.instances = Some(arg_num(&mut args, "--instances")),
                "--bits" => opts.bits = arg_num(&mut args, "--bits"),
                "--seed" => opts.seed = arg_num(&mut args, "--seed") as u64,
                "--workers" => opts.workers = arg_num(&mut args, "--workers"),
                "--metrics" => opts.metrics = Some(arg_value(&mut args, "--metrics")),
                "--paper" => {
                    opts.instances = None;
                    opts.bits = 10_000;
                }
                other => panic!(
                    "unknown argument {other}; supported: --instances N --bits N --seed N --workers N --metrics FILE --paper"
                ),
            }
        }
        opts
    }

    /// Installs a metrics registry when `--metrics` was given. Hold the
    /// returned sink for the duration of the experiment; dropping it
    /// exports the deterministic snapshot to the requested file.
    pub fn metrics_sink(&self) -> Option<MetricsSink> {
        self.metrics.as_ref().map(|path| MetricsSink::new(path))
    }

    /// Number of instances to map for `model`.
    pub fn instances_for(&self, model: CpuModel) -> usize {
        self.instances
            .unwrap_or(model.paper_population())
            .min(model.paper_population())
    }
}

/// Metrics collection scope for an experiment binary: installs a fresh
/// registry on construction and writes its deterministic JSON snapshot
/// (schema `coremap-metrics/v1`, the same shape the CLI `--metrics` flag
/// produces) to `path` on drop.
pub struct MetricsSink {
    reg: Arc<obs::Registry>,
    guard: Option<obs::InstallGuard>,
    path: String,
}

impl MetricsSink {
    /// Installs a fresh registry for the calling thread; the snapshot is
    /// written to `path` when the sink is dropped.
    pub fn new(path: &str) -> Self {
        let reg = Arc::new(obs::Registry::new());
        let guard = Some(obs::install(reg.clone()));
        Self {
            reg,
            guard,
            path: path.to_owned(),
        }
    }
}

impl Drop for MetricsSink {
    fn drop(&mut self) {
        self.guard.take();
        match std::fs::write(&self.path, self.reg.to_json(false)) {
            Ok(()) => eprintln!("metrics written: {}", self.path),
            Err(e) => eprintln!("failed to write metrics {}: {e}", self.path),
        }
    }
}

/// Maps `count` instances of `model` with the shared [`FleetRunner`] pool,
/// returning `(instance, recovered map)` pairs in instance order.
///
/// Instances that fail to map are skipped and counted on stderr — on the
/// quiet simulated fleet a non-zero count indicates a pipeline bug, but a
/// single bad instance no longer aborts a whole campaign.
pub fn map_fleet(
    fleet: &CloudFleet,
    model: CpuModel,
    count: usize,
    workers: usize,
) -> Vec<(CloudInstance, CoreMap)> {
    let outcome = FleetRunner::new(workers).map_instances(
        fleet,
        model,
        count,
        &CoreMapper::new(),
        CloudInstance::boot,
    );
    report_skipped(model, &outcome);
    outcome.into_successes()
}

/// Runs only step 1 of the methodology (eviction sets + CHA discovery) for
/// `count` instances — all that Table I needs, much cheaper than the full
/// pipeline. Failing instances are skipped and counted as for
/// [`map_fleet`].
pub fn cha_map_fleet(
    fleet: &CloudFleet,
    model: CpuModel,
    count: usize,
    workers: usize,
) -> Vec<(CloudInstance, coremap_core::cha_map::ChaMapping)> {
    let outcome = FleetRunner::new(workers).run(fleet, model, count, |instance| {
        let mut machine = instance.boot();
        let mut rng = ChaCha8Rng::seed_from_u64(0x6d61_7070);
        let sets = coremap_core::eviction::build_all_sets(&mut machine, &mut rng, 8)?;
        coremap_core::cha_map::discover(&mut machine, &sets, 3)
    });
    report_skipped(model, &outcome);
    outcome.into_successes()
}

fn report_skipped<T, E: std::fmt::Display>(
    model: CpuModel,
    outcome: &coremap_fleet::FleetOutcome<T, E>,
) {
    for (instance, error) in outcome.failures() {
        eprintln!("skipping {model} #{}: {error}", instance.index());
    }
    let skipped = outcome.failure_count();
    if skipped > 0 {
        eprintln!("{model}: {skipped} instance(s) skipped");
    }
}

/// Prints a monospace table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        println!("{s}");
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Finds, on a *recovered* map, a sender/receiver core pair `hops` tiles
/// apart along `axis` (vertical = same column, horizontal = same row).
/// Returns `None` if the map has no such pair.
pub fn pick_pair_at(map: &CoreMap, axis: Direction, hops: usize) -> Option<(OsCoreId, OsCoreId)> {
    all_pairs_at(map, axis, hops).into_iter().next()
}

/// All sender/receiver core pairs `hops` tiles apart along `axis` on the
/// recovered map (unordered pairs reported once, `tx < rx`).
pub fn all_pairs_at(map: &CoreMap, axis: Direction, hops: usize) -> Vec<(OsCoreId, OsCoreId)> {
    let cores: Vec<OsCoreId> = (0..map.core_count() as u16).map(OsCoreId::new).collect();
    let mut pairs = Vec::new();
    for &tx in &cores {
        for &rx in &cores {
            if tx >= rx {
                continue;
            }
            let a = map.coord_of_core(tx);
            let b = map.coord_of_core(rx);
            let matches = if axis.is_vertical() {
                a.col == b.col && a.row.abs_diff(b.row) == hops
            } else {
                a.row == b.row && a.col.abs_diff(b.col) == hops
            };
            if matches {
                pairs.push((tx, rx));
            }
        }
    }
    pairs
}

/// Senders surrounding a receiver on the recovered map, nearest (vertical)
/// first — the placement rule of the multi-sender experiment (Sec. V-B).
pub fn surrounding_senders(map: &CoreMap, receiver: OsCoreId, n: usize) -> Vec<OsCoreId> {
    let rc = map.coord_of_core(receiver);
    let mut candidates: Vec<(usize, usize, OsCoreId)> = (0..map.core_count() as u16)
        .map(OsCoreId::new)
        .filter(|&c| c != receiver)
        .map(|c| {
            let p = map.coord_of_core(c);
            let vertical_first = if p.col == rc.col { 0 } else { 1 };
            (p.hop_distance(rc), vertical_first, c)
        })
        .collect();
    candidates.sort();
    candidates.into_iter().take(n).map(|(_, _, c)| c).collect()
}

/// Builds the standard cloud-environment thermal simulation for an
/// instance.
pub fn thermal_sim(instance: &CloudInstance, seed: u64) -> ThermalSim {
    let plan = instance.floorplan().clone();
    let tiles = plan.dim().tile_count();
    ThermalSim::new(plan, ThermalParams::default(), seed).with_noise(ThermalNoise::cloud(tiles))
}

/// Deterministic random payload bits.
pub fn random_bits(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Deterministic ring-discipline report: runs topology hypothesis
/// selection over the builtin zoo against a synthetic trace of the
/// `ring-28` topology and renders the per-hypothesis verdicts. The
/// appendix of `results/ablate_ring.txt` pins this output byte-for-byte
/// (regression test `ablate_ring_regression`), so everything here must
/// stay free of timing and randomness.
pub fn ring_discipline_report() -> String {
    use std::fmt::Write;

    use coremap_core::topology_select;
    use coremap_core::ObservationSet;
    use coremap_mesh::{FloorplanBuilder, Topology};

    let ring = Topology::builtin("ring-28").expect("builtin ring topology");
    let plan = FloorplanBuilder::from_topology(ring.clone())
        .build()
        .expect("ring floorplan builds");
    let obs = ObservationSet::synthetic(&plan);
    let zoo: Vec<Topology> = Topology::builtins().iter().map(|&t| t.clone()).collect();
    let sel = topology_select::select(&obs, &zoo);

    let mut out = String::new();
    let _ = writeln!(out, "== Appendix: ring-discipline regression ==");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "hypothesis selection over the builtin zoo on a synthetic ring-28\n\
         trace ({} directed paths):",
        obs.paths.len()
    );
    for s in &sel.scores {
        match &s.eliminated_by {
            Some(why) => {
                let _ = writeln!(out, "  {:<20} eliminated: {why}", s.name);
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<20} fits (explains {:.0}% of paths)",
                    s.name,
                    s.explained * 100.0
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "winner: {}",
        sel.winner_name().unwrap_or("none (all eliminated)")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_sane() {
        let o = Options::default();
        assert!(o.workers >= 1);
        assert_eq!(o.bits, 2_000);
    }

    #[test]
    fn pick_pair_and_senders_on_recovered_map() {
        let fleet = CloudFleet::with_seed(7);
        let instance = fleet.instance(CpuModel::Platinum8124M, 0).unwrap();
        let mut machine = instance.boot();
        let map = CoreMapper::new().map(&mut machine).unwrap();
        let (tx, rx) = pick_pair_at(&map, Direction::Up, 1).expect("vertical pair");
        assert_eq!(map.hop_distance(tx, rx), 1);
        let senders = surrounding_senders(&map, rx, 4);
        assert_eq!(senders.len(), 4);
        assert!(senders.iter().all(|&s| s != rx));
    }

    #[test]
    fn map_fleet_returns_all_instances() {
        let fleet = CloudFleet::with_seed(3);
        let mapped = map_fleet(&fleet, CpuModel::Gold6354, 2, 2);
        assert_eq!(mapped.len(), 2);
        assert_eq!(mapped[0].0.index(), 0);
        assert_eq!(mapped[1].0.index(), 1);
    }

    #[test]
    fn metrics_sink_exports_campaign_counters() {
        let path = std::env::temp_dir().join("coremap-bench-metrics-sink-test.json");
        let path_str = path.to_str().expect("utf-8 temp path").to_owned();
        {
            let _sink = MetricsSink::new(&path_str);
            let fleet = CloudFleet::with_seed(3);
            let mapped = map_fleet(&fleet, CpuModel::Gold6354, 1, 1);
            assert_eq!(mapped.len(), 1);
        }
        let json = std::fs::read_to_string(&path).expect("sink wrote on drop");
        std::fs::remove_file(&path).ok();
        assert!(
            json.contains("\"schema\": \"coremap-metrics/v1\""),
            "{json}"
        );
        assert!(json.contains("\"core.eviction.samples\""), "{json}");
        assert!(json.contains("\"ilp.simplex.pivots\""), "{json}");
        assert!(json.contains("\"fleet.instances.ok\": 1"), "{json}");
    }
}
