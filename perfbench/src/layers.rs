//! The per-layer metrics, computed the same way on every workload.
//!
//! Timings come from the traced run's spans (self time, so a parent never
//! re-counts its children); counts come from the program's own `obs`
//! counters, read in a separate counted run that is never timed.

use std::collections::BTreeMap;
use std::sync::Arc;

use coremap_core::CoreMapper;
use coremap_fleet::{CloudFleet, CpuModel, FleetRunner};
use coremap_obs::Registry;

use crate::replica::{self, instance_span};
use crate::report::{median, percentile, Report};
use crate::trace::{Agg, Trace};
use crate::{Ctx, PAPER_FLEET_SEED};

/// Instances per SKU in the probe of SKUs a workload does not map.
const PROBE: usize = 2;

/// Traces the first [`PROBE`] paper instances of every SKU not in
/// `mapped`, on one worker, for the per-SKU metrics.
pub fn probe(
    r: &mut Report,
    mapped: &[CpuModel],
    mapper: &CoreMapper,
) -> Result<BTreeMap<&'static str, Agg>, String> {
    let trace = Trace::new();
    let paper = CloudFleet::with_seed(PAPER_FLEET_SEED);
    for &model in CpuModel::ALL.iter().filter(|m| !mapped.contains(m)) {
        let run = replica::survey(&trace, &FleetRunner::new(1), &paper, model, PROBE, mapper)?;
        r.check(
            run.failed.is_empty(),
            "probe",
            format!("{model} probe failed: {:?}", run.failed),
        );
    }
    Ok(trace.aggregate())
}

/// Writes the traced run's spans as JSON lines.
pub fn write_spans(ctx: &Ctx, r: &mut Report, trace: &Trace) -> Result<(), String> {
    let path = ctx.spans_path();
    std::fs::write(&path, trace.to_jsonl())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    r.info(format!("spans written to {}", path.display()));
    Ok(())
}

/// The registries of one counted run (one per campaign call).
#[derive(Default)]
pub struct Counts {
    pub registries: Vec<Arc<Registry>>,
}

impl Counts {
    /// Sum of a deterministic counter over every registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.registries.iter().map(|r| r.counter_value(name)).sum()
    }

    /// The deterministic export of every registry, for the identity check.
    pub fn export(&self) -> String {
        self.registries.iter().map(|r| r.to_json(false)).collect()
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Span aggregates of the traced run.
    pub spans: &'a BTreeMap<&'static str, Agg>,
    /// Span aggregates of the per-SKU probe, for SKUs the workload does
    /// not map itself.
    pub probe: &'a BTreeMap<&'static str, Agg>,
    /// The counted run and the instances it mapped.
    pub counts: &'a Counts,
    pub counted_instances: usize,
    /// Whether the workload's campaigns go through the solve cache.
    pub cached: bool,
    /// Instances the traced run mapped, and the path observations they made.
    pub traced_instances: usize,
    pub traced_paths: usize,
    /// Worker threads of the traced runner.
    pub workers: usize,
    pub db_bytes_per_chip: f64,
    /// Mean length of a `map-by-ppin` reply, in bytes.
    pub reply_bytes: f64,
    /// Traced wall time over timed wall time for the same work.
    pub overhead_ratio: f64,
}

fn agg<'a>(spans: &'a BTreeMap<&'static str, Agg>, name: &str) -> Option<&'a Agg> {
    spans.get(name).filter(|a| a.count > 0)
}

fn mean_ns(a: Option<&Agg>) -> f64 {
    a.map_or(0.0, |a| a.total_ns as f64 / a.count as f64)
}

fn durations(a: Option<&Agg>) -> Vec<f64> {
    a.map_or_else(Vec::new, |a| {
        a.durations_ns.iter().map(|&d| d as f64).collect()
    })
}

pub fn report(r: &mut Report, x: &LayerInputs<'_>) {
    let inst = x.traced_instances.max(1) as f64;
    let counted = x.counted_instances.max(1) as f64;
    let self_ms = |name: &str| agg(x.spans, name).map_or(0.0, |a| a.self_ns as f64 / inst / 1e6);
    let ops = |name: &str| agg(x.spans, name).map_or(0.0, |a| a.ops as f64 / inst);
    let per_instance = |name: &str| x.counts.counter(name) as f64 / counted;
    let n_inst = format!("mean over {} traced instances", x.traced_instances);

    // Measurement stages over the simulated uncore.
    for stage in ["eviction", "cha_map", "traffic"] {
        r.metric(
            &format!("{stage}.ms"),
            self_ms(stage),
            "ms",
            n_inst.as_str(),
        );
        r.metric(
            &format!("{stage}.ops"),
            ops(stage),
            "ops",
            "machine ops per instance",
        );
    }
    let samples = x.counts.counter("core.eviction.samples");
    let redundant = x.counts.counter("core.eviction.redundant");
    r.metric(
        "eviction.useful_ratio",
        (samples - redundant) as f64 / samples.max(1) as f64,
        "ratio",
        format!(
            "{} of {samples} probed lines joined a set",
            samples - redundant
        ),
    );
    r.metric(
        "cha_map.tests",
        per_instance("core.cha_map.tests"),
        "count",
        "per instance",
    );
    r.metric(
        "traffic.paths",
        x.traced_paths as f64 / inst,
        "count",
        "observed paths per instance",
    );
    r.metric(
        "uncore.msr_reads",
        per_instance("uncore.msr.reads"),
        "count",
        "per instance",
    );
    r.metric(
        "uncore.msr_writes",
        per_instance("uncore.msr.writes"),
        "count",
        "per instance",
    );
    r.metric(
        "uncore.pmon_samples",
        per_instance("uncore.pmon.samples"),
        "count",
        "per instance",
    );
    let measure_ns: u64 = ["eviction", "cha_map", "traffic"]
        .iter()
        .filter_map(|s| agg(x.spans, s))
        .map(|a| a.self_ns)
        .sum();
    let measure_ops: u64 = ["eviction", "cha_map", "traffic"]
        .iter()
        .filter_map(|s| agg(x.spans, s))
        .map(|a| a.ops)
        .sum();
    r.metric(
        "uncore.ns_per_op",
        measure_ns as f64 / measure_ops.max(1) as f64,
        "ns",
        "measurement-stage time per machine op",
    );
    r.metric(
        "signature.us",
        mean_ns(agg(x.spans, "signature")) / 1e3,
        "us",
        "",
    );

    // Solve cache.
    let hits = x.counts.counter("fleet.cache.hits");
    let misses = x.counts.counter("fleet.cache.misses");
    r.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        if x.cached {
            format!("{hits} hits, {misses} solves")
        } else {
            "workload bypasses the cache".to_owned()
        },
    );
    let instance_ns: u64 = CpuModel::ALL
        .iter()
        .filter_map(|&m| agg(x.spans, instance_span(m)))
        .map(|a| a.total_ns)
        .sum();
    let ilp_ns = agg(x.spans, "ilp").map_or(0, |a| a.total_ns);
    r.info(format!(
        "instance time split: measurement stages {:.1}%, reconstruct_degrading {:.1}%",
        100.0 * measure_ns as f64 / instance_ns.max(1) as f64,
        100.0 * ilp_ns as f64 / instance_ns.max(1) as f64,
    ));
    r.metric(
        "cache.wait_share",
        agg(x.spans, "cache.acquire").map_or(0.0, |a| a.total_ns as f64)
            / instance_ns.max(1) as f64,
        "ratio",
        "share of instance time in SolveCache::acquire",
    );

    // Reconstruction solves.
    let solves = durations(agg(x.spans, "ilp"));
    let counted_solves = if x.cached {
        misses
    } else {
        x.counted_instances as u64
    };
    let per_solve = |name: &str| x.counts.counter(name) as f64 / counted_solves.max(1) as f64;
    let n_solves = format!("n={}", solves.len());
    r.metric(
        "ilp.ms_p50",
        percentile(&solves, 0.50) / 1e6,
        "ms",
        n_solves.as_str(),
    );
    r.metric(
        "ilp.ms_p99",
        percentile(&solves, 0.99) / 1e6,
        "ms",
        n_solves.as_str(),
    );
    r.metric(
        "ilp.solves_per_instance",
        solves.len() as f64 / inst,
        "ratio",
        "",
    );
    r.metric(
        "ilp.bb_nodes",
        per_solve("ilp.bb.nodes"),
        "count",
        "per solve",
    );
    r.metric(
        "ilp.pivots",
        per_solve("ilp.simplex.pivots"),
        "count",
        "per solve",
    );
    r.metric(
        "ilp.refactorizations",
        per_solve("ilp.simplex.refactorizations"),
        "count",
        "per solve",
    );

    // Runner pool: instance time over worker time.
    let runner_ns = agg(x.spans, "runner").map_or(0, |a| a.total_ns);
    r.metric(
        "runner.busy_ratio",
        instance_ns as f64 / (runner_ns as f64 * x.workers as f64).max(1.0),
        "ratio",
        format!("{} workers", x.workers),
    );

    // Fleet database.
    r.metric(
        "db.insert_us",
        mean_ns(agg(x.spans, "db.insert")) / 1e3,
        "us",
        "",
    );
    r.metric("db.get_us", mean_ns(agg(x.spans, "db.get")) / 1e3, "us", "");
    r.metric(
        "db.save_ms",
        mean_ns(agg(x.spans, "db.save")) / 1e6,
        "ms",
        "",
    );
    r.metric(
        "db.load_ms",
        mean_ns(agg(x.spans, "db.load")) / 1e6,
        "ms",
        "",
    );
    r.metric("db.bytes_per_chip", x.db_bytes_per_chip, "bytes", "");

    // Serve layer: time inside MapService::handle_line.
    let handle = durations(agg(x.spans, "serve.read"));
    let n_handle = format!("n={}", handle.len());
    r.metric(
        "serve.handle_us_p50",
        percentile(&handle, 0.50) / 1e3,
        "us",
        n_handle.as_str(),
    );
    r.metric(
        "serve.handle_us_p99",
        percentile(&handle, 0.99) / 1e3,
        "us",
        n_handle.as_str(),
    );
    r.metric(
        "serve.reply_bytes",
        x.reply_bytes,
        "bytes",
        "mean map-by-ppin reply",
    );
    let campaigns = durations(agg(x.spans, "serve.campaign"));
    r.metric(
        "serve.campaign_ms",
        median(&campaigns) / 1e6,
        "ms",
        format!("median of n={}", campaigns.len()),
    );

    // Per SKU: the workload's own instances, else the probe's.
    for model in CpuModel::ALL {
        let name = instance_span(model);
        let (a, source) = match agg(x.spans, name) {
            Some(a) => (Some(a), "workload"),
            None => (agg(x.probe, name), "probe"),
        };
        let metric = format!("sku.{}.instance_ms", name.trim_start_matches("instance."));
        let note = format!("{source}, n={}", a.map_or(0, |a| a.count));
        r.metric(&metric, mean_ns(a) / 1e6, "ms", note);
    }

    r.metric(
        "trace.overhead_ratio",
        x.overhead_ratio,
        "ratio",
        "traced wall / timed wall",
    );
}
