//! Command implementations.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind};
use std::sync::Arc;

use coremap_core::{verify, CoreMapper, MapQuality};
use coremap_fleet::{
    run_campaign, CloudFleet, CloudInstance, CpuModel, FleetDb, FleetRunner, SurveyStats,
};
use coremap_mesh::{OsCoreId, Ppin, Topology};
use coremap_obs as obs;
use coremap_thermal::encoding::{bits_to_bytes, bytes_to_bits};
use coremap_thermal::power::ThermalNoise;
use coremap_thermal::{ChannelConfig, ThermalParams, ThermalSim};

use crate::args::{Command, USAGE};

type CliResult = Result<(), Box<dyn Error>>;

/// Dispatches a parsed command.
pub fn run(cmd: Command) -> CliResult {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Map {
            model,
            index,
            seed,
            db,
            metrics,
            harden,
            topology,
            topology_set,
        } => {
            let hypotheses = build_hypotheses(model, &topology, &topology_set)?;
            map(model, index, seed, db, metrics, harden, hypotheses)
        }
        Command::Show { db, ppin } => show(&db, ppin),
        Command::Fleet {
            model,
            instances,
            seed,
            workers,
            metrics,
            harden,
            topology,
            topology_set,
            db,
            resume,
        } => {
            let hypotheses = build_hypotheses(model, &topology, &topology_set)?;
            match db {
                Some(db_path) => fleet_campaign(
                    model, instances, seed, workers, metrics, harden, hypotheses, &db_path, resume,
                ),
                None => fleet_survey(model, instances, seed, workers, metrics, harden, hypotheses),
            }
        }
        Command::Serve {
            model,
            seed,
            socket,
            db,
            workers,
            metrics,
            harden,
        } => crate::serve::serve(
            model,
            seed,
            &socket,
            db.as_deref(),
            workers,
            metrics.as_deref(),
            harden,
            Vec::new(),
        ),
        Command::Channel {
            model,
            index,
            seed,
            message,
            rate,
            senders,
        } => channel(model, index, seed, &message, rate, senders),
        Command::Verify { model, index, seed } => verify_cmd(model, index, seed),
    }
}

/// Resolves one `--topology` operand: a builtin zoo name first, otherwise a
/// path to a `coremap-topology/v1` JSON file.
fn resolve_topology(spec: &str) -> Result<Topology, Box<dyn Error>> {
    if let Some(t) = Topology::builtin(spec) {
        return Ok(t.clone());
    }
    let json = std::fs::read_to_string(spec)
        .map_err(|e| format!("'{spec}' is neither a builtin topology nor a readable file: {e}"))?;
    Ok(Topology::from_json(&json)?)
}

/// Builds the hypothesis set from the `--topology`/`--topology-set` flags.
/// Empty means "paper-literal reconstruction on the model's own grid". The
/// `zoo` set lists the model's declared topology first so that perfect ties
/// (SKX vs CLX share a geometry) resolve to the declared die.
fn build_hypotheses(
    model: CpuModel,
    topology: &Option<String>,
    topology_set: &Option<String>,
) -> Result<Vec<Topology>, Box<dyn Error>> {
    match (topology, topology_set) {
        (Some(_), Some(_)) => Err("--topology and --topology-set are mutually exclusive".into()),
        (Some(one), None) => Ok(vec![resolve_topology(one)?]),
        (None, Some(set)) if set == "zoo" => {
            let declared = model.topology();
            let mut out = vec![declared.clone()];
            out.extend(
                Topology::builtins()
                    .iter()
                    .filter(|t| t.name() != declared.name())
                    .map(|t| (*t).clone()),
            );
            Ok(out)
        }
        (None, Some(set)) => set.split(',').map(|s| resolve_topology(s.trim())).collect(),
        (None, None) => Ok(Vec::new()),
    }
}

/// Prints the per-hypothesis verdict table of a selection run.
fn print_hypothesis_scores(quality: &MapQuality) {
    if quality.hypothesis_scores.is_empty() {
        return;
    }
    let eliminated = quality
        .hypothesis_scores
        .iter()
        .filter(|s| !s.survives())
        .count();
    println!(
        "topology hypotheses: {} tested, {eliminated} eliminated",
        quality.hypothesis_scores.len()
    );
    for s in &quality.hypothesis_scores {
        match &s.eliminated_by {
            Some(why) => println!("  {:<20} eliminated: {why}", s.name),
            None => println!(
                "  {:<20} fits (explains {:.0}% of paths, objective {:.1})",
                s.name,
                s.explained * 100.0,
                s.objective
            ),
        }
    }
    match &quality.winning_topology {
        Some(w) => println!("winning topology: {w}"),
        None => println!("winning topology: none (all hypotheses eliminated)"),
    }
}

pub(crate) fn mapper_for(harden: bool, hypotheses: Vec<Topology>) -> CoreMapper {
    let base = if harden {
        CoreMapper::hardened()
    } else {
        CoreMapper::new()
    };
    let mut cfg = base.config().clone();
    cfg.topology_hypotheses = hypotheses;
    CoreMapper::with_config(cfg)
}

fn map_instance(
    model: CpuModel,
    index: usize,
    seed: u64,
    harden: bool,
    hypotheses: Vec<Topology>,
) -> Result<(coremap_fleet::CloudInstance, coremap_core::CoreMap), Box<dyn Error>> {
    let fleet = CloudFleet::with_seed(seed);
    let instance = fleet.instance(model, index)?;
    eprintln!(
        "mapping {} instance #{index} (PPIN {})...",
        instance.model(),
        instance.ppin()
    );
    let mut machine = instance.boot();
    let (map, diag) = mapper_for(harden, hypotheses).map_with_diagnostics(&mut machine)?;
    print_hypothesis_scores(&diag.quality);
    // The die template drives IMC/SYS tiles in renderings; it only applies
    // when the map still lives on the model's own grid (a selection run can
    // legitimately land on a different geometry).
    let map = if map.dim() == model.template().dim() {
        map.with_template(model.template())
    } else {
        map
    };
    Ok((instance, map))
}

/// Opens a metrics scope when `--metrics` was given: installs a fresh
/// registry for the duration of the returned guard; [`write_metrics`]
/// exports it afterwards.
fn metrics_scope(path: &Option<String>) -> Option<(Arc<obs::Registry>, obs::InstallGuard)> {
    path.as_ref().map(|_| {
        let reg = Arc::new(obs::Registry::new());
        let guard = obs::install(reg.clone());
        (reg, guard)
    })
}

/// Writes the registry's deterministic metrics as JSON to `path`.
fn write_metrics(reg: &obs::Registry, path: &str) -> CliResult {
    std::fs::write(path, reg.to_json(false))?;
    eprintln!("metrics written: {path}");
    Ok(())
}

/// Opens the fleet database at `path`; `None` when no file exists there.
/// Any other failure (an unreadable path, a malformed or foreign-format
/// file) is an error naming the path, returned before any work starts.
pub(crate) fn open_db(path: &str) -> Result<Option<FleetDb>, Box<dyn Error>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{path}: {e}").into()),
    };
    let db = FleetDb::load(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some(db))
}

/// Saves `db` to `path` atomically: the JSON goes to `<path>.tmp` beside
/// it, is flushed and synced, and only then renamed over `path`, so a
/// failed or interrupted save leaves the previous file intact.
pub(crate) fn save_db(db: &FleetDb, path: &str) -> CliResult {
    let tmp = format!("{path}.tmp");
    let write = || -> CliResult {
        let mut out = BufWriter::new(File::create(&tmp)?);
        db.save(&mut out)?;
        out.into_inner()?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename itself is durable only once the directory is synced.
        #[cfg(unix)]
        {
            use std::path::Path;
            let dir = Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("{path}: {e}").into()
    })
}

fn map(
    model: CpuModel,
    index: usize,
    seed: u64,
    db_path: Option<String>,
    metrics: Option<String>,
    harden: bool,
    hypotheses: Vec<Topology>,
) -> CliResult {
    let mut db = match &db_path {
        Some(path) => open_db(path)?.unwrap_or_default(),
        None => FleetDb::new(),
    };
    let scope = metrics_scope(&metrics);
    let (_, map) = map_instance(model, index, seed, harden, hypotheses)?;
    println!("{}", map.render());
    if let Some(path) = db_path {
        db.insert(model.label_map(map))?;
        save_db(&db, &path)?;
        println!(
            "fleet database updated: {path} ({} chips sharing {} patterns, {} cached solves)",
            db.len(),
            db.pattern_count(),
            db.solve_count()
        );
    }
    if let (Some((reg, guard)), Some(path)) = (scope, metrics) {
        drop(guard);
        write_metrics(&reg, &path)?;
    }
    Ok(())
}

fn show(path: &str, ppin: Option<u64>) -> CliResult {
    let db = open_db(path)?.ok_or_else(|| format!("{path}: no such fleet database"))?;
    eprintln!(
        "fleet database: {} chips sharing {} patterns, {} cached solves",
        db.len(),
        db.pattern_count(),
        db.solve_count()
    );
    let maps: Vec<_> = match ppin {
        Some(wanted) => {
            let chip = Ppin::new(wanted);
            let map = db
                .get(chip)
                .ok_or_else(|| format!("no map stored for PPIN {wanted:#x}"))?;
            vec![(chip, map)]
        }
        None => db.iter().collect(),
    };
    if maps.is_empty() {
        println!("fleet database is empty");
    }
    for (chip, map) in maps {
        println!(
            "{chip}: {} cores / {} CHAs",
            map.core_count(),
            map.cha_count()
        );
        println!("{}", map.render());
    }
    Ok(())
}

fn fleet_survey(
    model: CpuModel,
    instances: usize,
    seed: u64,
    workers: Option<usize>,
    metrics: Option<String>,
    harden: bool,
    hypotheses: Vec<Topology>,
) -> CliResult {
    let fleet = CloudFleet::with_seed(seed);
    let count = instances.min(model.paper_population());
    let runner = workers.map(FleetRunner::new).unwrap_or_default();
    eprintln!(
        "surveying {count} {model} instances on {} worker(s)...",
        runner.workers()
    );
    let scope = metrics_scope(&metrics);
    let outcome = runner.map_instances(
        &fleet,
        model,
        count,
        &mapper_for(harden, hypotheses),
        CloudInstance::boot,
    );
    if let (Some((reg, guard)), Some(path)) = (scope, &metrics) {
        drop(guard);
        write_metrics(&reg, path)?;
    }
    for (instance, error) in outcome.failures() {
        eprintln!("  instance #{} failed to map: {error}", instance.index());
    }
    eprintln!("  {}", outcome.summary());
    let stats = SurveyStats::collect(&outcome);
    println!("{model}: {count} instances surveyed");
    println!(
        "  distinct location patterns: {}",
        stats.patterns.unique_patterns()
    );
    println!("  top frequencies: {:?}", stats.patterns.top_counts(4));
    println!("  distinct ID mappings: {}", stats.ids.unique_mappings());
    println!(
        "  exact relative matches vs ground truth: {}/{}",
        stats.verified, stats.mapped
    );
    if stats.failed > 0 {
        println!("  failed instances: {}", stats.failed);
    }
    Ok(())
}

/// The `fleet --db` path: a cached, resumable campaign against a
/// persistent fleet database. Unlike [`fleet_survey`], instance counts
/// beyond the paper's population scale the simulated fleet (patterns
/// cycle, PPINs stay unique), which is how the 10k-instance benchmarks
/// run.
#[allow(clippy::too_many_arguments)]
fn fleet_campaign(
    model: CpuModel,
    instances: usize,
    seed: u64,
    workers: Option<usize>,
    metrics: Option<String>,
    harden: bool,
    hypotheses: Vec<Topology>,
    db_path: &str,
    resume: bool,
) -> CliResult {
    let mut db = open_db(db_path)?.unwrap_or_default();
    let mut fleet = CloudFleet::with_seed(seed);
    if instances > model.paper_population() {
        fleet = fleet.with_population(instances);
    }
    let runner = workers.map(FleetRunner::new).unwrap_or_default();
    eprintln!(
        "campaigning over {instances} {model} instances on {} worker(s) (db: {db_path}, {} chips known)...",
        runner.workers(),
        db.len()
    );
    let scope = metrics_scope(&metrics);
    let mapper = mapper_for(harden, hypotheses);
    let report = run_campaign(&runner, &fleet, model, instances, resume, &mapper, &mut db)?;
    if let (Some((reg, guard)), Some(path)) = (scope, &metrics) {
        drop(guard);
        write_metrics(&reg, path)?;
    }
    for (idx, error) in &report.errors {
        eprintln!("  instance #{idx} failed to map: {error}");
    }
    eprintln!("  {}", report.summary());
    println!("{model}: {instances} instances surveyed");
    println!(
        "  cache hit rate over fresh instances: {:.1}% ({} solves)",
        report.hit_rate() * 100.0,
        report.solves()
    );
    println!(
        "  distinct location patterns: {}",
        report.stats.patterns.unique_patterns()
    );
    println!(
        "  top frequencies: {:?}",
        report.stats.patterns.top_counts(4)
    );
    println!(
        "  distinct ID mappings: {}",
        report.stats.ids.unique_mappings()
    );
    println!(
        "  exact relative matches vs ground truth: {}/{}",
        report.stats.verified, report.stats.mapped
    );
    if report.stats.failed > 0 {
        println!("  failed instances: {}", report.stats.failed);
    }
    save_db(&db, db_path)?;
    println!(
        "fleet database updated: {db_path} ({} chips sharing {} patterns, {} cached solves)",
        db.len(),
        db.pattern_count(),
        db.solve_count()
    );
    Ok(())
}

fn channel(
    model: CpuModel,
    index: usize,
    seed: u64,
    message: &str,
    rate: f64,
    senders: usize,
) -> CliResult {
    if rate <= 0.0 {
        return Err("--rate must be positive".into());
    }
    let (instance, map) = map_instance(model, index, seed, false, Vec::new())?;

    // Receiver with a vertical neighbour; extra senders by proximity.
    let (receiver, first_sender) = (0..map.core_count() as u16)
        .map(OsCoreId::new)
        .find_map(|rx| map.vertical_neighbor_cores(rx).first().map(|&tx| (rx, tx)))
        .ok_or("no vertically adjacent core pair on this map")?;
    let mut tx_set = vec![first_sender];
    let rc = map.coord_of_core(receiver);
    let mut others: Vec<(usize, OsCoreId)> = (0..map.core_count() as u16)
        .map(OsCoreId::new)
        .filter(|&c| c != receiver && c != first_sender)
        .map(|c| (map.coord_of_core(c).hop_distance(rc), c))
        .collect();
    others.sort();
    tx_set.extend(
        others
            .into_iter()
            .take(senders.saturating_sub(1))
            .map(|(_, c)| c),
    );

    let bits = bytes_to_bits(message.as_bytes());
    println!(
        "senders {:?} -> receiver cpu{} at {rate} bps ({} bits)...",
        tx_set.iter().map(|c| c.index()).collect::<Vec<_>>(),
        receiver.index(),
        bits.len()
    );
    let tiles = instance.floorplan().dim().tile_count();
    let mut sim = ThermalSim::new(instance.floorplan().clone(), ThermalParams::default(), seed)
        .with_noise(ThermalNoise::cloud(tiles));
    let report = ChannelConfig::new(tx_set, receiver, rate).transfer(&mut sim, &bits);
    println!(
        "received: {:?}",
        String::from_utf8_lossy(&bits_to_bytes(&report.decoded))
    );
    println!(
        "BER {:.4} ({} of {} bits), {:.0} s simulated",
        report.ber(),
        report.errors,
        report.bits,
        report.seconds
    );
    Ok(())
}

fn verify_cmd(model: CpuModel, index: usize, seed: u64) -> CliResult {
    let (instance, map) = map_instance(model, index, seed, false, Vec::new())?;
    let truth = instance.floorplan();
    let positions: Vec<_> = truth.chas().map(|c| map.coord_of_cha(c)).collect();
    println!("{}", map.render());
    println!(
        "exact (mirror-tolerant): {}",
        verify::matches_exactly(&map, truth)
    );
    println!(
        "relative match:          {}",
        verify::matches_relative(&map, truth)
    );
    println!(
        "pairwise accuracy:       {:.4}",
        verify::pairwise_accuracy(&positions, truth)
    );
    Ok(())
}
