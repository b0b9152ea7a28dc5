//! The campaign workloads, `paper-fleet-cold` and `icx-survey`.
//!
//! Both run rounds of the same work in three modes that never mix: timed
//! (no `obs` registry, the end-to-end numbers), counted (a registry per
//! campaign call, the deterministic counters) and traced (the stage
//! replica with spans, the per-layer times). Every mode's product — the
//! saved database bytes, or the survey's maps — must be identical.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coremap_core::{CoreMap, CoreMapper};
use coremap_fleet::{
    run_campaign, CloudFleet, CloudInstance, CpuModel, FleetDb, FleetRunner, MapService,
    SurveyStats,
};
use coremap_mesh::Ppin;
use coremap_obs::{self as obs, Registry};
use serde::{Serialize, Value};

use crate::layers::{self, Counts, LayerInputs};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::service::{campaign_line, expected_reply, read_back, reply_fields, ReadBack};
use crate::trace::{time_if, Trace};
use crate::{err, replica, Ctx, Res, PAPER_FLEET_SEED, WORKERS};

/// Set-ups per timed run; `setup_s` is their median (a set-up takes
/// milliseconds, so many repetitions are cheap).
const SETUP_REPS: usize = 21;
/// In-process `map-by-ppin` reads after each timed campaign call; the read
/// percentiles are the median over the batches of each batch's percentile.
const READ_BATCH: usize = 2_000;
/// In-process `map-by-ppin` reads on the traced read path.
const READS: usize = 20_000;
/// Gold 6354 instances per `icx-survey` round: the paper's ten layouts,
/// cycled four times.
const ICX_ROUND: usize = 40;

pub enum Mode<'a> {
    Timed,
    Counted(&'a mut Counts),
    Traced(&'a Trace),
}

/// One round of a campaign workload.
#[derive(Default)]
pub struct Round {
    pub wall_s: f64,
    pub attempted: usize,
    pub verified: usize,
    pub errors: Vec<String>,
    /// Canonical bytes of what the round produced.
    pub product: Vec<u8>,
    /// Every mapped chip, by PPIN.
    pub maps: BTreeMap<u64, CoreMap>,
    /// Machine ops per chip: the replica's (traced) or `FleetRunner`'s
    /// gauge (counted).
    pub ops: BTreeMap<u64, u64>,
    /// Path observations over all chips (traced).
    pub paths: usize,
}

pub fn save(db: &FleetDb, path: &Path) -> Res<()> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| err("create db", e))?);
    db.save(&mut w).map_err(|e| err("save db", e))?;
    w.flush().map_err(|e| err("flush db", e))
}

pub fn load(path: &Path) -> Res<FleetDb> {
    let f = File::open(path).map_err(|e| err("open db", e))?;
    FleetDb::load(BufReader::new(f)).map_err(|e| err("load db", e))
}

/// `FleetRunner`'s per-instance machine-op gauge in `reg`.
fn gauge_ops(reg: &Registry, index: usize) -> Option<u64> {
    reg.gauge_value(&format!("fleet.instance.{index:04}.ops"))
        .map(|v| v as u64)
}

/// What a campaign workload provides to the shared phases.
trait Campaign {
    fn fleet(&self) -> &CloudFleet;
    fn mapper(&self) -> &CoreMapper;
    /// The SKUs the workload maps.
    fn models(&self) -> &'static [CpuModel];
    /// Whether its campaigns go through the solve cache.
    fn cached(&self) -> bool;
    /// The SKU and instance count of a campaign request on the read path.
    fn service_campaign(&self) -> (CpuModel, usize);
    /// Set-up: materializes every chip the workload maps.
    fn setup(&self) -> Res<Vec<Ppin>>;
    /// One round; `between` runs after each campaign call and its time is
    /// not part of the round's wall time.
    fn round(&self, mode: Mode<'_>, between: &mut dyn FnMut()) -> Res<Round>;
    /// The database the read path serves, as the daemon would load it,
    /// and its saved size in bytes.
    fn read_db(&self, round: &Round, trace: Option<&Trace>) -> Res<(FleetDb, usize)>;
}

/// `paper-fleet-cold`: `core-map fleet --db` over the Sec. III fleet.
struct PaperFleet {
    fleet: CloudFleet,
    runner: FleetRunner,
    mapper: CoreMapper,
    db_path: PathBuf,
}

impl Campaign for PaperFleet {
    fn fleet(&self) -> &CloudFleet {
        &self.fleet
    }

    fn mapper(&self) -> &CoreMapper {
        &self.mapper
    }

    fn models(&self) -> &'static [CpuModel] {
        &CpuModel::ALL
    }

    fn cached(&self) -> bool {
        true
    }

    fn service_campaign(&self) -> (CpuModel, usize) {
        let model = CpuModel::Platinum8259CL;
        (model, model.paper_population())
    }

    fn setup(&self) -> Res<Vec<Ppin>> {
        let mut ppins = Vec::new();
        for model in CpuModel::ALL {
            for i in 0..model.paper_population() {
                let instance = self
                    .fleet
                    .instance(model, i)
                    .map_err(|e| err("instance", e))?;
                ppins.push(instance.ppin());
            }
        }
        Ok(ppins)
    }

    fn round(&self, mut mode: Mode<'_>, between: &mut dyn FnMut()) -> Res<Round> {
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let mut db = FleetDb::new();
        let mut round = Round::default();
        for model in CpuModel::ALL {
            let count = model.paper_population();
            round.attempted += count;
            let report = match &mut mode {
                Mode::Timed => run_campaign(
                    &self.runner,
                    &self.fleet,
                    model,
                    count,
                    false,
                    &self.mapper,
                    &mut db,
                ),
                Mode::Counted(counts) => {
                    let reg = Arc::new(Registry::new());
                    let report = {
                        let _scope = obs::install(reg.clone());
                        run_campaign(
                            &self.runner,
                            &self.fleet,
                            model,
                            count,
                            false,
                            &self.mapper,
                            &mut db,
                        )
                    };
                    for i in 0..count {
                        let ppin = self
                            .fleet
                            .instance(model, i)
                            .map_err(|e| err("instance", e))?
                            .ppin();
                        if let Some(ops) = gauge_ops(&reg, i) {
                            round.ops.insert(ppin.value(), ops);
                        }
                    }
                    counts.registries.push(reg);
                    report
                }
                Mode::Traced(trace) => {
                    let run = replica::campaign(
                        trace,
                        &self.runner,
                        &self.fleet,
                        model,
                        count,
                        &self.mapper,
                        &mut db,
                    )?;
                    for r in run.mapped {
                        let ppin = r.map.ppin().map_or(0, Ppin::value);
                        round.ops.insert(ppin, r.ops);
                        round.paths += r.paths;
                    }
                    round.verified += run.stats.verified;
                    round.errors.extend(
                        run.failed
                            .into_iter()
                            .map(|(i, e)| format!("{model} #{i}: {e}")),
                    );
                    continue;
                }
            }
            .map_err(|e| err("campaign", e))?;
            round.verified += report.stats.verified;
            round.errors.extend(
                report
                    .errors
                    .into_iter()
                    .map(|(i, e)| format!("{model} #{i}: {e}")),
            );
            let pause = Instant::now();
            between();
            paused += pause.elapsed();
        }
        let trace = match &mode {
            Mode::Traced(trace) => Some(*trace),
            _ => None,
        };
        time_if(trace, "db.save", 0, || save(&db, &self.db_path))?;
        round.wall_s = (start.elapsed() - paused).as_secs_f64();
        round.product = std::fs::read(&self.db_path).map_err(|e| err("read db", e))?;
        round.maps = db.iter().map(|(p, m)| (p.value(), m)).collect();
        Ok(round)
    }

    fn read_db(&self, round: &Round, trace: Option<&Trace>) -> Res<(FleetDb, usize)> {
        // The file on disk is the last round's, and every round's bytes are
        // checked equal.
        let db = time_if(trace, "db.load", 0, || load(&self.db_path))?;
        Ok((db, round.product.len()))
    }
}

/// `icx-survey`: the plain `core-map fleet` path over Gold 6354 chips.
struct IcxSurvey {
    fleet: CloudFleet,
    runner: FleetRunner,
    mapper: CoreMapper,
    db_path: PathBuf,
}

impl Campaign for IcxSurvey {
    fn fleet(&self) -> &CloudFleet {
        &self.fleet
    }

    fn mapper(&self) -> &CoreMapper {
        &self.mapper
    }

    fn models(&self) -> &'static [CpuModel] {
        &[CpuModel::Gold6354]
    }

    fn cached(&self) -> bool {
        false
    }

    fn service_campaign(&self) -> (CpuModel, usize) {
        (CpuModel::Gold6354, ICX_ROUND)
    }

    fn setup(&self) -> Res<Vec<Ppin>> {
        (0..ICX_ROUND)
            .map(|i| {
                self.fleet
                    .instance(CpuModel::Gold6354, i)
                    .map(|inst| inst.ppin())
                    .map_err(|e| err("instance", e))
            })
            .collect()
    }

    fn round(&self, mode: Mode<'_>, between: &mut dyn FnMut()) -> Res<Round> {
        let model = CpuModel::Gold6354;
        let start = Instant::now();
        let mut round = Round {
            attempted: ICX_ROUND,
            ..Round::default()
        };
        let survey = || {
            self.runner.map_instances(
                &self.fleet,
                model,
                ICX_ROUND,
                &self.mapper,
                CloudInstance::boot,
            )
        };
        match mode {
            Mode::Timed | Mode::Counted(_) => {
                let reg = matches!(mode, Mode::Counted(_)).then(|| Arc::new(Registry::new()));
                let outcome = {
                    let _scope = reg.clone().map(obs::install);
                    survey()
                };
                round.verified = SurveyStats::collect(&outcome).verified;
                for (instance, e) in outcome.failures() {
                    round
                        .errors
                        .push(format!("{model} #{}: {e}", instance.index()));
                }
                for (instance, map) in outcome.successes() {
                    round.maps.insert(instance.ppin().value(), map.clone());
                    if let Some(ops) = reg.as_ref().and_then(|r| gauge_ops(r, instance.index())) {
                        round.ops.insert(instance.ppin().value(), ops);
                    }
                }
                if let (Mode::Counted(counts), Some(reg)) = (mode, reg) {
                    counts.registries.push(reg);
                }
            }
            Mode::Traced(trace) => {
                let run = replica::survey(
                    trace,
                    &self.runner,
                    &self.fleet,
                    model,
                    ICX_ROUND,
                    &self.mapper,
                )?;
                for r in run.mapped {
                    let ppin = r.map.ppin().map_or(0, Ppin::value);
                    round.ops.insert(ppin, r.ops);
                    round.paths += r.paths;
                    round.maps.insert(ppin, r.map);
                }
                round.verified = run.stats.verified;
                round.errors.extend(
                    run.failed
                        .into_iter()
                        .map(|(i, e)| format!("{model} #{i}: {e}")),
                );
            }
        }
        round.wall_s = start.elapsed().as_secs_f64();
        between();
        let maps: Vec<Value> = round.maps.values().map(Serialize::to_value).collect();
        round.product = serde_json::to_string(&Value::Seq(maps))
            .map_err(|e| err("render maps", e))?
            .into_bytes();
        Ok(round)
    }

    fn read_db(&self, round: &Round, trace: Option<&Trace>) -> Res<(FleetDb, usize)> {
        let mut db = FleetDb::new();
        for (&ppin, map) in &round.maps {
            time_if(trace, "db.insert", ppin, || db.insert(map.clone()))
                .map_err(|e| err("insert", e))?;
        }
        time_if(trace, "db.save", 0, || save(&db, &self.db_path))?;
        let loaded = time_if(trace, "db.load", 0, || load(&self.db_path))?;
        let bytes = std::fs::metadata(&self.db_path)
            .map_err(|e| err("stat db", e))?
            .len();
        Ok((loaded, bytes as usize))
    }
}

pub fn paper_fleet_cold(ctx: &Ctx, r: &mut Report) -> Res<()> {
    let w = PaperFleet {
        fleet: CloudFleet::with_seed(PAPER_FLEET_SEED),
        runner: FleetRunner::new(WORKERS),
        mapper: crate::mapper(ctx.seed),
        db_path: ctx.run_dir.join("fleet.db.json"),
    };
    run(ctx, r, &w)
}

pub fn icx_survey(ctx: &Ctx, r: &mut Report) -> Res<()> {
    let w = IcxSurvey {
        fleet: CloudFleet::with_seed(PAPER_FLEET_SEED).with_population(ICX_ROUND),
        runner: FleetRunner::new(WORKERS),
        mapper: crate::mapper(ctx.seed),
        db_path: ctx.run_dir.join("icx.db.json"),
    };
    run(ctx, r, &w)
}

fn run(ctx: &Ctx, r: &mut Report, w: &dyn Campaign) -> Res<()> {
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut chips = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        chips = w.setup()?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    r.info(format!(
        "set-up done {:.4} s after start; {} chips",
        ctx.started.elapsed().as_secs_f64(),
        chips.len()
    ));
    if ctx.trace {
        traced(ctx, r, w)
    } else {
        timed(ctx, r, w, &chips, median(&setup_s), reps)
    }
}

fn read_service(w: &dyn Campaign, db: FleetDb) -> MapService {
    let (model, _) = w.service_campaign();
    MapService::new(
        model,
        w.fleet().clone(),
        w.mapper().clone(),
        FleetRunner::new(WORKERS),
        db,
    )
}

fn expected_replies(round: &Round) -> Vec<(Ppin, String)> {
    round
        .maps
        .iter()
        .map(|(&p, map)| (Ppin::new(p), expected_reply(Ppin::new(p), map)))
        .collect()
}

fn timed(
    ctx: &Ctx,
    r: &mut Report,
    w: &dyn Campaign,
    chips: &[Ppin],
    setup_s: f64,
    reps: usize,
) -> Res<()> {
    // Rounds until one more typical round would pass `seconds` (at least
    // one). Once the first round has saved its database, a batch of reads
    // over it follows every campaign call, so the read path is sampled
    // across the whole run; the batches are not part of the rounds' time.
    let start = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut first: Option<Round> = None;
    let mut reader: Option<(MapService, Vec<(Ppin, String)>)> = None;
    let mut batches: Vec<ReadBack> = Vec::new();
    loop {
        let round = {
            let mut between = || {
                if let Some((service, expected)) = &reader {
                    let seed = ctx.seed + batches.len() as u64;
                    batches.push(read_back(service, expected, READ_BATCH, seed, None));
                }
            };
            w.round(Mode::Timed, &mut between)?
        };
        walls.push(round.wall_s);
        rates.push(round.maps.len() as f64 / round.wall_s);
        r.attempted += round.attempted as u64;
        r.failed += round.errors.len() as u64;
        for e in round.errors.iter().take(3) {
            r.info(format!("  instance failed: {e}"));
        }
        if reader.is_none() {
            let (db, _) = w.read_db(&round, None)?;
            reader = Some((read_service(w, db), expected_replies(&round)));
        }
        match &first {
            None => first = Some(round),
            Some(f) => r.check(
                f.product == round.product,
                "product-identical",
                format!("round {} output differs from round 1", walls.len()),
            ),
        }
        if start.elapsed().as_secs_f64() + median(&walls) > ctx.seconds {
            break;
        }
    }
    if let (true, Some((service, expected))) = (batches.is_empty(), &reader) {
        batches.push(read_back(service, expected, READ_BATCH, ctx.seed, None));
    }
    let wrong: usize = batches.iter().map(|b| b.wrong).sum();
    r.check(
        wrong == 0,
        "read-returns-stored-map",
        format!("{wrong} of {} replies wrong", READ_BATCH * batches.len()),
    );
    r.attempted += (READ_BATCH * batches.len()) as u64;
    r.failed += wrong as u64;
    let p50s: Vec<f64> = batches
        .iter()
        .map(|b| percentile(&b.latency_us, 0.50))
        .collect();
    let p99s: Vec<f64> = batches
        .iter()
        .map(|b| percentile(&b.latency_us, 0.99))
        .collect();
    let first = first.ok_or("no round ran")?;
    let rss = peak_rss_mb();
    let missing = chips
        .iter()
        .filter(|p| !first.maps.contains_key(&p.value()))
        .count();
    r.check(
        missing == first.errors.len(),
        "every-chip-mapped",
        format!("{missing} chips absent, {} failed", first.errors.len()),
    );

    // Machine ops are a deterministic counter: read them from a separate
    // counted run, never from the timed one.
    let mut counts = Counts::default();
    let counted = w.round(Mode::Counted(&mut counts), &mut || {})?;
    r.check(
        counted.product == first.product,
        "counted-product",
        "counted run's output differs from the timed run's",
    );
    let machine_ops = counts.counter("core.machine.ops") as f64 / counted.maps.len().max(1) as f64;

    let mapped = first.maps.len();
    r.info(format!("round rates (instances/s): {rates:.1?}"));
    r.metric("setup_s", setup_s, "s", format!("median of {reps} set-ups"));
    r.metric(
        "instances_per_s",
        median(&rates),
        "1/s",
        format!("median of {} rounds of {mapped} instances", rates.len()),
    );
    r.metric(
        "machine_ops_per_instance",
        machine_ops,
        "ops",
        "counted run",
    );
    r.metric(
        "maps_exact_ratio",
        first.verified as f64 / mapped.max(1) as f64,
        "ratio",
        format!(
            "{}/{mapped} match ground truth up to relative placement",
            first.verified
        ),
    );
    r.metric(
        "ok_ratio",
        1.0 - r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
        format!("{} of {} instances and reads failed", r.failed, r.attempted),
    );
    r.metric("peak_rss_mb", rss, "MB", "after the timed rounds");
    let note = format!(
        "median over {} batches of n={READ_BATCH}, in-process closed loop over {} chips",
        p99s.len(),
        first.maps.len()
    );
    r.metric("read_us_p50", median(&p50s), "us", note.as_str());
    r.metric("read_us_p99", median(&p99s), "us", note.as_str());
    Ok(())
}

fn traced(ctx: &Ctx, r: &mut Report, w: &dyn Campaign) -> Res<()> {
    // The first counted run also warms the process up. Timed and traced
    // rounds then alternate, so both see the same machine state and their
    // wall-time ratio is the tracing overhead.
    let mut c1 = Counts::default();
    let k1 = w.round(Mode::Counted(&mut c1), &mut || {})?;
    let trace = Trace::new();
    let start = Instant::now();
    let (mut timed_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut pairs: Option<(Round, Round)> = None;
    loop {
        let timed = w.round(Mode::Timed, &mut || {})?;
        let traced = w.round(Mode::Traced(&trace), &mut || {})?;
        timed_walls.push(timed.wall_s);
        traced_walls.push(traced.wall_s);
        r.attempted += traced.attempted as u64;
        r.failed += traced.errors.len() as u64;
        r.check(
            traced.product == timed.product,
            "replica-product",
            "the traced replica's output differs from the timed run's",
        );
        if let Some((first, _)) = &pairs {
            r.check(
                first.product == timed.product,
                "product-identical",
                "a later round's output differs",
            );
        } else {
            pairs = Some((timed, traced));
        }
        if start.elapsed().as_secs_f64() + median(&timed_walls) + median(&traced_walls)
            > ctx.seconds
        {
            break;
        }
    }
    let (timed, traced) = pairs.ok_or("no round ran")?;
    // Span aggregates cover every traced round; each maps the same chips.
    let traced_rounds = traced_walls.len();
    let diverged: Vec<String> = timed
        .maps
        .iter()
        .filter(|(p, m)| traced.maps.get(p) != Some(m))
        .map(|(p, _)| Ppin::new(*p).to_string())
        .collect();
    r.check(
        diverged.is_empty(),
        "replica-guard-maps",
        format!(
            "{} chips map differently under the replica, e.g. {:?}",
            diverged.len(),
            diverged.first()
        ),
    );

    let mut c2 = Counts::default();
    let k2 = w.round(Mode::Counted(&mut c2), &mut || {})?;
    r.check(
        c1.export() == c2.export(),
        "counted-identical",
        "two counted runs gave different counts",
    );
    r.check(
        k1.product == timed.product && k2.product == timed.product,
        "counted-product",
        "a counted run's output differs from the timed run's",
    );
    let ops_diverged = traced
        .ops
        .iter()
        .filter(|(p, ops)| k1.ops.get(p) != Some(ops))
        .count();
    r.check(
        ops_diverged == 0 && k1.ops.len() == traced.ops.len(),
        "replica-guard-ops",
        format!(
            "{ops_diverged} of {} chips issue a different machine-op count under the replica",
            traced.ops.len()
        ),
    );
    r.info(format!(
        "replica guard: {} traced instances checked against CoreMapper's maps and machine ops",
        traced.ops.len()
    ));

    // The read path over the workload's database, traced.
    let (db, bytes) = w.read_db(&timed, Some(&trace))?;
    for &ppin in timed.maps.keys() {
        trace.time("db.get", ppin, || db.get(Ppin::new(ppin)));
    }
    let chips = db.len();
    let service = read_service(w, db);
    let expected = expected_replies(&timed);
    let rb = read_back(&service, &expected, READS, ctx.seed, Some(&trace));
    r.check(
        rb.wrong == 0,
        "read-returns-stored-map",
        format!("{} of {READS} replies wrong", rb.wrong),
    );
    let (model, population) = w.service_campaign();
    let reply = trace.time("serve.campaign", 0, || {
        service.handle_line(&campaign_line(population))
    });
    r.check(
        reply_fields(&reply, &["resumed", "mapped"]) == Some(vec![population as u64; 2]),
        "resume-campaign",
        format!("{model} resume over {population} chips replied {reply}"),
    );

    let probe = layers::probe(r, w.models(), w.mapper())?;
    layers::write_spans(ctx, r, &trace)?;
    let spans = trace.aggregate();
    layers::report(
        r,
        &LayerInputs {
            spans: &spans,
            probe: &probe,
            counts: &c1,
            counted_instances: k1.maps.len(),
            cached: w.cached(),
            traced_instances: traced.maps.len() * traced_rounds,
            traced_paths: traced.paths * traced_rounds,
            workers: WORKERS,
            db_bytes_per_chip: bytes as f64 / chips.max(1) as f64,
            reply_bytes: rb.reply_bytes,
            overhead_ratio: median(&traced_walls) / median(&timed_walls),
        },
    );
    Ok(())
}
