//! `serve-mixed`: `map-by-ppin` reads beside `campaign` writes on one
//! `FleetDb`, through the daemon's Unix socket.
//!
//! Connection one sends an open loop of reads at a fixed rate, each timed
//! from when it was due, so the wait a campaign imposes on the reads that
//! fall due while it holds the database mutex is counted in full.
//! Connection two sends a `resume` campaign every [`CAMPAIGN_PERIOD_MS`]
//! that adds [`CAMPAIGN_STEP`] new chips. Load comes from two generator
//! threads (the calling thread sends; one thread reads the read replies) on
//! two connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coremap_core::CoreMapper;
use coremap_fleet::serve::serve_unix;
use coremap_fleet::{run_campaign, CloudFleet, CpuModel, FleetDb, FleetRunner, MapService};
use coremap_mesh::Ppin;
use coremap_obs::{self as obs, Registry};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::campaign::{load, save};
use crate::layers::{self, Counts, LayerInputs};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::service::{campaign_line, expected_reply, read_line, reply_fields};
use crate::trace::Trace;
use crate::{err, replica, Ctx, Res, PAPER_FLEET_SEED, WORKERS};

const MODEL: CpuModel = CpuModel::Platinum8259CL;
/// The paper's 8259CL population, mapped in set-up.
const WARM_CHIPS: usize = 100;
/// Open-loop read rate on connection one.
const READS_PER_S: u64 = 2_000;
/// New chips per campaign request on connection two, and the period of
/// those requests. A 16-chip campaign holds the database for about a
/// quarter of the period, so most reads see no campaign and the median
/// read stays the uncontended one.
const CAMPAIGN_STEP: usize = 16;
const CAMPAIGN_PERIOD_MS: u64 = 2_000;
/// Acceptor threads of the daemon (the CLI's default).
const ACCEPTORS: usize = 2;
/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reads written to the socket but not yet answered, at most. Each write is
/// one kernel buffer of several hundred bytes, so an unbounded backlog
/// while a campaign holds the database would block the generator's
/// writes; reads beyond this wait in the generator's own queue instead,
/// and their latency still counts from when they were due.
const IN_FLIGHT: usize = 64;
/// A run is invalid when the generator's p99 lateness exceeds this share
/// of the gap between two reads: the offered load was then not the
/// stated rate. While a campaign's two workers saturate both cores, the
/// generator waits for a time slice; 40 gaps (20 ms) is still an order of
/// magnitude below the campaign wait that sets the read p99.
const LATENESS_LIMIT: f64 = 40.0;

/// What connection one and two send, and when (offsets from the start).
struct Plan {
    reads: Vec<(Duration, usize)>,
    campaigns: Vec<(Duration, usize)>,
}

impl Plan {
    fn new(seed: u64, seconds: f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let gap = Duration::from_nanos(1_000_000_000 / READS_PER_S);
        let reads = (0..(seconds * READS_PER_S as f64) as u32)
            .map(|i| (gap * i, rng.gen_range(0..WARM_CHIPS)))
            .collect();
        let period = Duration::from_millis(CAMPAIGN_PERIOD_MS);
        let campaigns = (0..((seconds / period.as_secs_f64()) as usize).max(1))
            .map(|j| {
                (
                    period / 2 + period * j as u32,
                    WARM_CHIPS + CAMPAIGN_STEP * (j + 1),
                )
            })
            .collect();
        Self { reads, campaigns }
    }

    fn gap_us(&self) -> f64 {
        1e6 / READS_PER_S as f64
    }

    /// Splits per-read values into one group per campaign period, by each
    /// read's due time.
    fn windows(&self, per_read: &[f64]) -> Vec<Vec<f64>> {
        let period = Duration::from_millis(CAMPAIGN_PERIOD_MS);
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); self.campaigns.len()];
        for (&(due, _), &v) in self.reads.iter().zip(per_read) {
            let w = (due.as_nanos() / period.as_nanos()) as usize;
            if let Some(group) = out.get_mut(w) {
                group.push(v);
            }
        }
        out
    }
}

struct CampaignOut {
    wall_s: f64,
    reply: String,
}

/// What the generator observed during the serve phase.
struct Phase {
    /// Per read, from when it was due to its reply.
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    wrong_reads: usize,
    reply_bytes: f64,
    campaigns: Vec<CampaignOut>,
    /// From starting the listener to both connections established.
    ready_s: f64,
    socket_removed: bool,
}

pub fn serve_mixed(ctx: &Ctx, r: &mut Report) -> Res<()> {
    let plan = Plan::new(ctx.seed, ctx.seconds);
    let w = Serve {
        fleet: CloudFleet::with_seed(PAPER_FLEET_SEED)
            .with_population(WARM_CHIPS + CAMPAIGN_STEP * plan.campaigns.len()),
        runner: FleetRunner::new(WORKERS),
        mapper: crate::mapper(ctx.seed),
        db_path: ctx.run_dir.join("serve.db.json"),
        socket: ctx.run_dir.join("s.sock"),
        plan,
    };
    if ctx.trace {
        w.traced(ctx, r)
    } else {
        w.timed(r)
    }
}

struct Serve {
    plan: Plan,
    fleet: CloudFleet,
    runner: FleetRunner,
    mapper: CoreMapper,
    db_path: PathBuf,
    socket: PathBuf,
}

impl Serve {
    /// The warm-up campaign over the paper's 8259CL chips, saved to the
    /// database file as `core-map fleet --db` does. Returns the database,
    /// its exact-map count and the wall time.
    fn warm(&self, reg: Option<Arc<Registry>>) -> Res<(FleetDb, usize, f64)> {
        let start = Instant::now();
        let mut db = FleetDb::new();
        let report = {
            let _scope = reg.map(obs::install);
            run_campaign(
                &self.runner,
                &self.fleet,
                MODEL,
                WARM_CHIPS,
                false,
                &self.mapper,
                &mut db,
            )
        }
        .map_err(|e| err("warm-up campaign", e))?;
        if !report.errors.is_empty() {
            return Err(format!("warm-up campaign failed: {:?}", report.errors));
        }
        save(&db, &self.db_path)?;
        Ok((db, report.stats.verified, start.elapsed().as_secs_f64()))
    }

    fn service(&self, db: FleetDb) -> MapService {
        MapService::new(
            MODEL,
            self.fleet.clone(),
            self.mapper.clone(),
            FleetRunner::new(WORKERS),
            db,
        )
    }

    fn saved_bytes(&self) -> Res<Vec<u8>> {
        std::fs::read(&self.db_path).map_err(|e| err("read db", e))
    }

    fn timed(&self, r: &mut Report) -> Res<()> {
        // Set-up as `core-map fleet --db` then `core-map serve --db` do it.
        let mut setup_s = Vec::new();
        let mut warmed = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let (db, verified, _) = self.warm(None)?;
            let loaded = load(&self.db_path)?;
            r.check(
                loaded == db,
                "db-round-trip",
                "the loaded warm database differs from the saved one",
            );
            let service = self.service(loaded);
            setup_s.push(start.elapsed().as_secs_f64());
            warmed = Some((db, verified, service));
        }
        let (db, verified, service) = warmed.ok_or("no set-up ran")?;
        let phase = serve_phase(
            &service,
            &self.socket,
            &self.plan,
            &expected_replies(&db),
            None,
        )?;
        let rss = peak_rss_mb();
        let (fresh, fresh_verified) = check_phase(r, &service, &self.plan, &phase, verified);
        let walls: Vec<f64> = phase.campaigns.iter().map(|c| c.wall_s).collect();
        r.info(format!("campaign walls (s): {walls:.3?}"));
        let rates: Vec<f64> = walls.iter().map(|w| CAMPAIGN_STEP as f64 / w).collect();
        // The service records campaign counters into its own registry, as
        // the daemon always does.
        let ops = service.registry().counter_value("core.machine.ops");

        r.metric(
            "setup_s",
            median(&setup_s) + phase.ready_s,
            "s",
            format!("median of {SETUP_REPS} set-ups, plus bind and connect"),
        );
        r.metric(
            "instances_per_s",
            median(&rates),
            "1/s",
            format!(
                "median over {} campaigns of {CAMPAIGN_STEP} chips",
                rates.len()
            ),
        );
        r.metric(
            "machine_ops_per_instance",
            ops as f64 / fresh.max(1) as f64,
            "ops",
            "service registry",
        );
        r.metric(
            "maps_exact_ratio",
            fresh_verified as f64 / fresh.max(1) as f64,
            "ratio",
            format!("{fresh_verified}/{fresh} campaign-mapped chips"),
        );
        r.metric(
            "ok_ratio",
            1.0 - r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
            format!(
                "{} of {} reads and campaign chips failed",
                r.failed, r.attempted
            ),
        );
        r.metric("peak_rss_mb", rss, "MB", "after the serve phase");
        // Percentiles per campaign period (each holds one campaign), then
        // the median over periods: one slow spell of the machine moves one
        // period, not the result.
        let windows = self.plan.windows(&phase.latency_us);
        let per = |q: f64| median(&windows.iter().map(|w| percentile(w, q)).collect::<Vec<_>>());
        let note = format!(
            "median over {} periods of n={}, open loop at {READS_PER_S}/s from scheduled send",
            windows.len(),
            windows.first().map_or(0, Vec::len)
        );
        r.metric("read_us_p50", per(0.50), "us", note.as_str());
        r.metric("read_us_p99", per(0.99), "us", note.as_str());
        Ok(())
    }

    /// The warm-up campaign is the counted, timed and traced work (the
    /// first counted run also warms the process up); the serve phase runs
    /// behind a front end that times each `handle_line` call.
    fn traced(&self, ctx: &Ctx, r: &mut Report) -> Res<()> {
        let mut counts = Vec::new();
        let mut counted = || -> Res<()> {
            let reg = Arc::new(Registry::new());
            self.warm(Some(reg.clone()))?;
            counts.push((
                Counts {
                    registries: vec![reg],
                },
                self.saved_bytes()?,
            ));
            Ok(())
        };
        counted()?;
        let (timed_db, verified, timed_wall) = self.warm(None)?;
        let timed_bytes = self.saved_bytes()?;
        let trace = Trace::new();
        let start = Instant::now();
        let mut db = FleetDb::new();
        let run = replica::campaign(
            &trace,
            &self.runner,
            &self.fleet,
            MODEL,
            WARM_CHIPS,
            &self.mapper,
            &mut db,
        )?;
        trace.time("db.save", 0, || save(&db, &self.db_path))?;
        let traced_wall = start.elapsed().as_secs_f64();
        let traced_bytes = self.saved_bytes()?;
        counted()?;
        r.attempted += WARM_CHIPS as u64;
        r.failed += run.failed.len() as u64;
        r.check(
            traced_bytes == timed_bytes,
            "replica-product",
            "the traced replica's database differs",
        );
        let diverged = run
            .mapped
            .iter()
            .filter(|m| m.map.ppin().and_then(|p| timed_db.get(p)).as_ref() != Some(&m.map))
            .count();
        r.check(
            diverged == 0,
            "replica-guard-maps",
            format!("{diverged} chips map differently"),
        );
        r.check(
            counts.iter().all(|(_, bytes)| *bytes == timed_bytes),
            "counted-product",
            "a counted run's database differs",
        );
        r.check(
            counts[0].0.export() == counts[1].0.export(),
            "counted-identical",
            "two counted runs gave different counts",
        );
        let reg = &counts[0].0.registries[0];
        let ops_diverged = run
            .mapped
            .iter()
            .filter(|m| {
                reg.gauge_value(&format!("fleet.instance.{:04}.ops", m.index)) != Some(m.ops as f64)
            })
            .count();
        r.check(
            ops_diverged == 0,
            "replica-guard-ops",
            format!("{ops_diverged} chips issue a different machine-op count under the replica"),
        );
        r.info(format!(
            "replica guard: {} traced instances checked against CoreMapper's maps and machine ops",
            run.mapped.len()
        ));

        let loaded = trace.time("db.load", 0, || load(&self.db_path))?;
        let expected = expected_replies(&loaded);
        let service = self.service(loaded);
        let phase = serve_phase(&service, &self.socket, &self.plan, &expected, Some(&trace))?;
        check_phase(r, &service, &self.plan, &phase, verified);
        let snapshot = service.db_snapshot();
        for (ppin, _) in snapshot.iter() {
            trace.time("db.get", ppin.value(), || snapshot.get(ppin));
        }

        let spans = trace.aggregate();
        if let Some(handle) = spans.get("serve.read") {
            // One thread serves connection one in order, so the i-th read
            // span is the i-th read.
            let rest: Vec<f64> = phase
                .latency_us
                .iter()
                .zip(&handle.durations_ns)
                .map(|(l, &h)| l - h as f64 / 1e3)
                .collect();
            r.info(format!(
                "read latency outside handle_line: p50 {:.1} us, p99 {:.1} us (n={})",
                percentile(&rest, 0.50),
                percentile(&rest, 0.99),
                rest.len()
            ));
        }
        let probe = layers::probe(r, &[MODEL], &self.mapper)?;
        layers::write_spans(ctx, r, &trace)?;
        layers::report(
            r,
            &LayerInputs {
                spans: &spans,
                probe: &probe,
                counts: &counts[0].0,
                counted_instances: WARM_CHIPS,
                cached: true,
                traced_instances: run.mapped.len(),
                traced_paths: run.mapped.iter().map(|m| m.paths).sum(),
                workers: WORKERS,
                db_bytes_per_chip: timed_bytes.len() as f64 / WARM_CHIPS as f64,
                reply_bytes: phase.reply_bytes,
                overhead_ratio: traced_wall / timed_wall,
            },
        );
        Ok(())
    }
}

fn expected_replies(db: &FleetDb) -> Vec<(Ppin, String)> {
    db.iter()
        .map(|(p, map)| (p, expected_reply(p, &map)))
        .collect()
}

/// Checks the serve phase's outputs and counts its attempts and failures;
/// returns the chips the campaigns mapped and how many of those match
/// ground truth.
fn check_phase(
    r: &mut Report,
    service: &MapService,
    plan: &Plan,
    phase: &Phase,
    warm_verified: usize,
) -> (usize, usize) {
    r.attempted += phase.latency_us.len() as u64;
    r.failed += phase.wrong_reads as u64;
    r.check(
        phase.wrong_reads == 0,
        "read-returns-stored-map",
        format!(
            "{} of {} replies wrong",
            phase.wrong_reads,
            phase.latency_us.len()
        ),
    );
    let (mut fresh, mut fresh_verified) = (0usize, 0usize);
    let (mut chips, mut verified) = (WARM_CHIPS as u64, warm_verified as u64);
    for c in &phase.campaigns {
        r.attempted += CAMPAIGN_STEP as u64;
        // `mapped` and `verified` count the resumed chips too.
        match reply_fields(&c.reply, &["resumed", "mapped", "failed", "verified"]).as_deref() {
            Some(&[resumed, mapped, failed, v])
                if resumed == chips
                    && (mapped + failed).checked_sub(resumed) == Some(CAMPAIGN_STEP as u64) =>
            {
                r.failed += failed;
                fresh += (mapped - resumed) as usize;
                fresh_verified += v.saturating_sub(verified) as usize;
                (chips, verified) = (mapped, v);
            }
            _ => {
                r.failed += CAMPAIGN_STEP as u64;
                r.check(
                    false,
                    "campaign-adds-chips",
                    format!("after {chips} chips: {}", c.reply),
                );
            }
        }
    }
    let expected_chips = WARM_CHIPS + CAMPAIGN_STEP * plan.campaigns.len();
    r.check(
        phase.campaigns.len() == plan.campaigns.len()
            && service.db_snapshot().len() == expected_chips,
        "db-grew",
        format!(
            "database holds {} chips, expected {expected_chips}",
            service.db_snapshot().len()
        ),
    );
    let lateness = percentile(&phase.lateness_us, 0.99);
    r.info(format!(
        "generator lateness p50 {:.1} us, p99 {lateness:.1} us (n={}, limit {:.0} us = {LATENESS_LIMIT} x the {:.0} us gap); available_parallelism {}",
        percentile(&phase.lateness_us, 0.50),
        phase.lateness_us.len(),
        LATENESS_LIMIT * plan.gap_us(),
        plan.gap_us(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    r.check(
        lateness <= LATENESS_LIMIT * plan.gap_us(),
        "generator-lateness",
        format!("p99 lateness {lateness:.1} us: the offered load fell behind its schedule"),
    );
    r.check(
        phase.socket_removed,
        "socket-removed",
        "the daemon left its socket behind",
    );
    (fresh, fresh_verified)
}

fn connect(socket: &Path) -> Res<UnixStream> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() > deadline => return Err(err("connect", e)),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Runs the daemon (or, with a trace, the traced front end) and the
/// generator until every planned request has its reply, then stops the
/// daemon and waits for it.
fn serve_phase(
    service: &MapService,
    socket: &Path,
    plan: &Plan,
    expected: &[(Ppin, String)],
    trace: Option<&Trace>,
) -> Res<Phase> {
    let replied = &AtomicUsize::new(0);
    std::thread::scope(|s| {
        let ready = Instant::now();
        let server = s.spawn(move || match trace {
            None => serve_unix(service, socket, ACCEPTORS),
            Some(t) => traced_front(service, socket, t),
        });
        let result = (|| -> Res<Phase> {
            let reads = connect(socket)?;
            let campaigns = connect(socket)?;
            let ready_s = ready.elapsed().as_secs_f64();
            let epoch = Instant::now();
            let reader_conn = reads.try_clone().map_err(|e| err("clone", e))?;
            let reader = s.spawn(move || read_replies(reader_conn, plan, expected, epoch, replied));
            let sent = generate(&reads, &campaigns, plan, expected, epoch, replied);
            let replies = reader
                .join()
                .map_err(|_| "reply reader panicked".to_owned())?;
            let (lateness_us, campaign_outs) = sent?;
            let (latency_us, wrong_reads, reply_bytes) = replies?;
            if trace.is_none() {
                shutdown(&campaigns)?;
            }
            Ok(Phase {
                latency_us,
                lateness_us,
                wrong_reads,
                reply_bytes,
                campaigns: campaign_outs,
                ready_s,
                socket_removed: false,
            })
        })();
        if result.is_err() {
            // Unblock whatever the server waits on so the scope can end.
            service.request_shutdown();
            for _ in 0..ACCEPTORS {
                let _ = UnixStream::connect(socket);
            }
        }
        let served = server.join().map_err(|_| "server panicked".to_owned())?;
        let mut phase = result?;
        served.map_err(|e| err("serve", e))?;
        phase.socket_removed = !socket.exists();
        Ok(phase)
    })
}

/// Sends every read when it falls due on connection one, and each
/// campaign on connection two once it is due and the previous one has
/// replied. A read's lateness is how long after its due time the generator
/// issued it; reads issued while [`IN_FLIGHT`] others await replies queue
/// here. Returns each read's lateness and each campaign's outcome.
fn generate(
    reads: &UnixStream,
    campaigns: &UnixStream,
    plan: &Plan,
    expected: &[(Ppin, String)],
    epoch: Instant,
    replied: &AtomicUsize,
) -> Res<(Vec<f64>, Vec<CampaignOut>)> {
    campaigns
        .set_nonblocking(true)
        .map_err(|e| err("nonblocking", e))?;
    let mut lateness = Vec::with_capacity(plan.reads.len());
    let mut outs = Vec::new();
    let (mut next_read, mut next_campaign, mut written) = (0, 0, 0);
    let mut queued: VecDeque<String> = VecDeque::new();
    let mut in_flight: Option<Duration> = None;
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let now = epoch.elapsed();
        while let Some(&(due, chip)) = plan.reads.get(next_read).filter(|(due, _)| *due <= now) {
            queued.push_back(read_line(expected[chip].0) + "\n");
            lateness.push(epoch.elapsed().saturating_sub(due).as_nanos() as f64 / 1e3);
            next_read += 1;
        }
        let room = IN_FLIGHT.saturating_sub(written - replied.load(Ordering::Relaxed));
        if room > 0 && !queued.is_empty() {
            let batch: String = queued.drain(..room.min(queued.len())).collect();
            written += batch.matches('\n').count();
            (&*reads)
                .write_all(batch.as_bytes())
                .map_err(|e| err("send read", e))?;
        }
        if let Some(sent) = in_flight {
            match (&*campaigns).read(&mut buf) {
                Ok(0) => return Err("campaign connection closed".to_owned()),
                Ok(n) => pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(err("campaign reply", e)),
            }
            if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                let reply = String::from_utf8_lossy(&pending[..pos]).into_owned();
                pending.drain(..=pos);
                outs.push(CampaignOut {
                    wall_s: (epoch.elapsed() - sent).as_secs_f64(),
                    reply,
                });
                in_flight = None;
            }
        }
        if in_flight.is_none() {
            if let Some(&(_, instances)) = plan
                .campaigns
                .get(next_campaign)
                .filter(|(due, _)| *due <= now)
            {
                send_all(campaigns, (campaign_line(instances) + "\n").as_bytes())?;
                in_flight = Some(epoch.elapsed());
                next_campaign += 1;
            }
        }
        let reads_done = next_read == plan.reads.len() && queued.is_empty();
        if reads_done && next_campaign == plan.campaigns.len() && in_flight.is_none() {
            return Ok((lateness, outs));
        }
        let mut wake = plan.reads.get(next_read).map_or(Duration::MAX, |r| r.0);
        if in_flight.is_some() || !queued.is_empty() {
            wake = wake.min(epoch.elapsed() + Duration::from_millis(1));
        } else if let Some(c) = plan.campaigns.get(next_campaign) {
            wake = wake.min(c.0);
        }
        if let Some(sleep) = wake.checked_sub(epoch.elapsed()) {
            std::thread::sleep(sleep);
        }
    }
}

/// `write_all` on a non-blocking socket.
fn send_all(conn: &UnixStream, mut bytes: &[u8]) -> Res<()> {
    while !bytes.is_empty() {
        match (&*conn).write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(err("send campaign", e)),
        }
    }
    Ok(())
}

/// Reads one reply per planned read, in order, timing each from when its
/// read was due and checking it is exactly the stored map. Returns the
/// latencies, the wrong replies and the mean reply size.
fn read_replies(
    conn: UnixStream,
    plan: &Plan,
    expected: &[(Ppin, String)],
    epoch: Instant,
    replied: &AtomicUsize,
) -> Res<(Vec<f64>, usize, f64)> {
    let mut reader = BufReader::new(conn);
    let mut latency = Vec::with_capacity(plan.reads.len());
    let (mut wrong, mut bytes) = (0usize, 0usize);
    let mut line = String::new();
    for &(due, chip) in &plan.reads {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| err("read reply", e))?;
        if n == 0 {
            return Err(format!("connection closed after {} replies", latency.len()));
        }
        latency.push(epoch.elapsed().saturating_sub(due).as_nanos() as f64 / 1e3);
        replied.fetch_add(1, Ordering::Relaxed);
        let reply = line.trim_end();
        bytes += reply.len();
        wrong += usize::from(reply != expected[chip].1);
    }
    Ok((
        latency,
        wrong,
        bytes as f64 / plan.reads.len().max(1) as f64,
    ))
}

/// Asks the daemon to stop and waits for its acknowledgement.
fn shutdown(conn: &UnixStream) -> Res<()> {
    conn.set_nonblocking(false)
        .map_err(|e| err("blocking", e))?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| err("timeout", e))?;
    (&*conn)
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .map_err(|e| err("send shutdown", e))?;
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .map_err(|e| err("shutdown reply", e))?;
    Ok(())
}

/// The traced front end: the same service behind one thread per
/// connection (the daemon's two acceptors), with every `handle_line` call
/// recorded as a `serve.read` or `serve.campaign` span.
fn traced_front(service: &MapService, socket: &Path, trace: &Trace) -> std::io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    let result = std::thread::scope(|s| {
        for _ in 0..ACCEPTORS {
            let (stream, _) = listener.accept()?;
            s.spawn(move || -> std::io::Result<()> {
                let mut reader = BufReader::new(stream.try_clone()?);
                let mut writer = BufWriter::new(stream);
                let mut line = String::new();
                for seq in 0u64.. {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 || service.is_shutdown() {
                        break;
                    }
                    let request = line.trim_end();
                    let name = if request.contains("\"campaign\"") {
                        "serve.campaign"
                    } else {
                        "serve.read"
                    };
                    let reply = trace.time(name, seq, || service.handle_line(request));
                    writer.write_all(reply.as_bytes())?;
                    writer.write_all(b"\n")?;
                    writer.flush()?;
                }
                Ok(())
            });
        }
        Ok(())
    });
    let _ = std::fs::remove_file(socket);
    result
}
