//! The `core-map serve` command: a long-running map service over a
//! Unix-domain socket.
//!
//! Thin shell around [`coremap_fleet::serve`]: load (or create) the
//! backing fleet database, build the [`MapService`], listen until a
//! `shutdown` request arrives, then persist the database and optionally
//! the service metrics. All protocol and concurrency logic lives in the
//! library so it is testable without a socket.

use std::error::Error;
use std::path::Path;

use coremap_fleet::{CloudFleet, CpuModel, FleetDb, FleetRunner, MapService};
use coremap_mesh::Topology;

use crate::commands::{mapper_for, open_db, save_db};

type CliResult = Result<(), Box<dyn Error>>;

/// Runs the daemon until a `shutdown` request drains the listener.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    model: CpuModel,
    seed: u64,
    socket: &str,
    db_path: Option<&str>,
    workers: Option<usize>,
    metrics: Option<&str>,
    harden: bool,
    hypotheses: Vec<Topology>,
) -> CliResult {
    let db = match db_path {
        Some(path) => open_db(path)?.unwrap_or_default(),
        None => FleetDb::new(),
    };
    let workers = workers.unwrap_or(2);
    let fleet = CloudFleet::with_seed(seed);
    let mapper = mapper_for(harden, hypotheses);
    eprintln!(
        "serving {model} maps on {socket} with {workers} worker(s) ({} chips, {} solves warm)...",
        db.len(),
        db.solve_count()
    );
    let service = MapService::new(model, fleet, mapper, FleetRunner::new(workers), db);
    run_daemon(&service, Path::new(socket), workers)?;

    // Persist what the campaigns learned, then the service metrics.
    if let Some(path) = db_path {
        let db = service.db_snapshot();
        save_db(&db, path)?;
        eprintln!(
            "fleet database updated: {path} ({} chips sharing {} patterns, {} cached solves)",
            db.len(),
            db.pattern_count(),
            db.solve_count()
        );
    }
    if let Some(path) = metrics {
        std::fs::write(path, service.registry().to_json(false))?;
        eprintln!("metrics written: {path}");
    }
    let hits = service.registry().counter_value("serve.query.hits");
    let misses = service.registry().counter_value("serve.query.misses");
    eprintln!(
        "served {} queries ({hits} hits, {misses} misses), shut down cleanly",
        hits + misses
    );
    Ok(())
}

#[cfg(unix)]
fn run_daemon(service: &MapService, socket: &Path, workers: usize) -> CliResult {
    coremap_fleet::serve::serve_unix(service, socket, workers)?;
    Ok(())
}

#[cfg(not(unix))]
fn run_daemon(_service: &MapService, _socket: &Path, _workers: usize) -> CliResult {
    Err("`serve` requires Unix-domain sockets, which this platform lacks".into())
}
