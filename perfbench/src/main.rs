//! `coremap-perfbench`: the repository's end-to-end and per-layer
//! benchmark. See `README.md` beside this package for the workloads, the
//! metrics and why each exists.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-fleet-cold|icx-survey|serve-mixed|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace
//! 1` prints the per-layer metrics of the traced and counted runs. The
//! last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! names the workload and the check and makes the exit code non-zero.

mod campaign;
mod layers;
mod replica;
mod report;
mod serve;
mod service;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use coremap_core::{CoreMapper, MapperConfig};

use report::Report;

/// The fleet every workload maps: the Sec. III populations at the seed
/// whose layouts reproduce the paper's Tables I and II. The workload seed
/// varies the measurement, not the layouts (see `README.md`).
pub const PAPER_FLEET_SEED: u64 = 2022;
/// Campaign worker threads (`FleetRunner::new`): the machine has two cores.
pub const WORKERS: usize = 2;

const WORKLOADS: [&str; 3] = ["paper-fleet-cold", "icx-survey", "serve-mixed"];

const USAGE: &str =
    "usage: coremap-perfbench --workload <paper-fleet-cold|icx-survey|serve-mixed|all> \
[--seed N (default 2022)] [--seconds S (default 10)] [--trace 0|1 (default 0)]";

/// Errors are messages: a failed run reports them as the `run` check.
pub type Res<T> = Result<T, String>;

pub fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// The pipeline configuration of every campaign: the CLI's default mapper,
/// with the workload seed driving its random line sampling.
pub fn mapper(seed: u64) -> CoreMapper {
    CoreMapper::with_config(MapperConfig {
        seed,
        ..MapperConfig::default()
    })
}

/// One workload run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub started: Instant,
    /// Scratch directory of this run (database files, the socket),
    /// relative to the working directory so the socket path stays short.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// Where the traced run's spans are written.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

/// Output directory (spans) and parent of the per-run scratch directories.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2022,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && s.is_finite())
                    .ok_or_else(|| bad("a number of seconds >= 1"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match WORKLOADS.iter().find(|w| **w == args.workload) {
        Some(w) => run_one(w, &args, started),
        None => run_all(&args),
    }
}

fn run_one(workload: &'static str, args: &Args, started: Instant) -> ExitCode {
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        started,
        run_dir: PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())),
    };
    let mut report = Report::new(workload);
    report.info(format!(
        "perfbench {workload}: seed {}, {} s, trace {}, {WORKERS} campaign workers, available_parallelism {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let result = std::fs::create_dir_all(&ctx.run_dir)
        .map_err(|e| format!("create {}: {e}", ctx.run_dir.display()))
        .and_then(|()| match workload {
            "paper-fleet-cold" => campaign::paper_fleet_cold(&ctx, &mut report),
            "icx-survey" => campaign::icx_survey(&ctx, &mut report),
            _ => serve::serve_mixed(&ctx, &mut report),
        });
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    if let Err(e) = result {
        report.check(false, "run", e);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload untraced and traced, each in its own process (set-up
/// time and peak memory are per process), and prints every metric as
/// `<workload>/<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            let stdout = match out {
                Ok(o) => {
                    correct &= o.status.success();
                    String::from_utf8_lossy(&o.stdout).into_owned()
                }
                Err(e) => {
                    eprintln!("perfbench: {workload}: {e}");
                    correct = false;
                    continue;
                }
            };
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            match serde_json::from_str::<serde::Value>(last) {
                Ok(serde::Value::Map(fields)) => {
                    for (key, value) in fields {
                        match (key.as_str(), value) {
                            ("correct", serde::Value::Bool(ok)) => correct &= ok,
                            ("attempted", serde::Value::U64(n)) => attempted += n,
                            ("failed", serde::Value::U64(n)) => failed += n,
                            ("metrics", serde::Value::Map(m)) => metrics.extend(
                                m.into_iter()
                                    .map(|(name, v)| (format!("{workload}/{name}"), v)),
                            ),
                            _ => {}
                        }
                    }
                }
                _ => {
                    eprintln!("perfbench: {workload}: no result line");
                    correct = false;
                }
            }
        }
    }
    let metrics = serde::Value::Map(metrics);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        serde_json::to_string(&metrics).unwrap_or_default()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
