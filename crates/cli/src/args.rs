//! Hand-rolled argument parsing for the `core-map` CLI.

use coremap_fleet::CpuModel;

/// Top-level usage text.
pub const USAGE: &str = "\
core-map — physically locate Xeon cores on the tile grid (DATE'22 reproduction)

USAGE:
    core-map <COMMAND> [OPTIONS]

COMMANDS:
    map       Map one fleet instance and print/store its core map
    show      Render maps stored in a fleet database
    fleet     Survey a fleet model: pattern and ID-mapping statistics
    serve     Long-running map service on a Unix-domain socket
    channel   Send a message over the thermal covert channel
    verify    Map an instance and check it against hidden ground truth
    help      Print this help

COMMON OPTIONS:
    --model <8124m|8175m|8259cl|6354>   CPU model        [default: 8259cl]
    --index <N>                         instance index   [default: 0]
    --seed <N>                          fleet seed       [default: 2022]

COMMAND OPTIONS:
    map:      --db <FILE>           store the result in a fleet database
                                    (created if missing), keyed by PPIN
              --metrics <FILE>      write pipeline metrics as JSON
              --harden              aggressive fault tolerance (MSR retry,
                                    median-of-3 counters, degradation)
              --topology <N|FILE>   reconstruct under one topology hypothesis:
                                    a builtin name (e.g. skylake-xcc) or a
                                    coremap-topology/v1 JSON file
              --topology-set <SET>  test a hypothesis set and keep the best
                                    fit: 'zoo' (all builtins) or a comma list
                                    of names/files
    show:     --db <FILE>           fleet database to read (required)
              --ppin <HEX>          render only this chip
    fleet:    --instances <N>       instances to survey [default: 10, > 0]
              --workers <N>         mapping worker threads [default: all cores]
              --metrics <FILE>      write campaign metrics as JSON
              --harden              aggressive fault tolerance per instance
              --topology <N|FILE>   per-instance topology hypothesis
              --topology-set <SET>  per-instance hypothesis selection
              --db <FILE>           persistent fleet database: solves are
                                    cached by observation signature and maps
                                    dedup'd by pattern, keyed by PPIN
              --resume              with --db: skip instances whose PPIN the
                                    database already maps
    serve:    --socket <PATH>       Unix socket to listen on (required)
              --db <FILE>           fleet database backing the service; loaded
                                    at start (cache warmed from its solves)
                                    and saved back on shutdown
              --workers <N>         concurrent client connections served
                                    [default: 2]; campaign requests also run
                                    on this many mapping workers
              --metrics <FILE>      write service metrics as JSON on shutdown
              --harden              aggressive fault tolerance per instance
              (protocol: one JSON request per line — {\"cmd\":\"map-by-ppin\",
              \"ppin\":\"0x…\"}, map-by-signature, campaign, stats, shutdown —
              one {\"ok\":…} JSON reply line each)
    channel:  --message <TEXT>      payload              [default: hello]
              --rate <BPS>          bit rate             [default: 2]
              --senders <N>         sender count         [default: 1]
";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Map one instance.
    Map {
        model: CpuModel,
        index: usize,
        seed: u64,
        db: Option<String>,
        metrics: Option<String>,
        harden: bool,
        topology: Option<String>,
        topology_set: Option<String>,
    },
    /// Render the maps stored in a fleet database.
    Show { db: String, ppin: Option<u64> },
    /// Fleet survey.
    Fleet {
        model: CpuModel,
        instances: usize,
        seed: u64,
        workers: Option<usize>,
        metrics: Option<String>,
        harden: bool,
        topology: Option<String>,
        topology_set: Option<String>,
        db: Option<String>,
        resume: bool,
    },
    /// Long-running map service on a Unix-domain socket.
    Serve {
        model: CpuModel,
        seed: u64,
        socket: String,
        db: Option<String>,
        workers: Option<usize>,
        metrics: Option<String>,
        harden: bool,
    },
    /// Thermal covert channel transfer.
    Channel {
        model: CpuModel,
        index: usize,
        seed: u64,
        message: String,
        rate: f64,
        senders: usize,
    },
    /// Map + ground-truth verification.
    Verify {
        model: CpuModel,
        index: usize,
        seed: u64,
    },
    /// Print usage.
    Help,
}

fn parse_model(s: &str) -> Result<CpuModel, String> {
    match s.to_ascii_lowercase().as_str() {
        "8124m" | "8124" => Ok(CpuModel::Platinum8124M),
        "8175m" | "8175" => Ok(CpuModel::Platinum8175M),
        "8259cl" | "8259" => Ok(CpuModel::Platinum8259CL),
        "6354" | "icelake" | "icx" => Ok(CpuModel::Gold6354),
        other => Err(format!("unknown model '{other}'")),
    }
}

/// Parses a numeric flag value that must be at least one: a zero here
/// (`--instances 0`, `--workers 0`) used to slip through to runtime as an
/// empty campaign or a clamped pool — now it is a usage error at parse
/// time.
fn parse_positive(flag: &str, raw: &str) -> Result<usize, String> {
    let n: usize = raw
        .parse()
        .map_err(|_| format!("{flag} must be a number"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

struct Opts<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Opts<'a> {
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.pos += 1;
        self.args
            .get(self.pos)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    }
}

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let mut model = CpuModel::Platinum8259CL;
    let mut index = 0usize;
    let mut seed = 2022u64;
    let mut metrics: Option<String> = None;
    let mut ppin: Option<u64> = None;
    let mut instances = 10usize;
    let mut workers: Option<usize> = None;
    let mut message = "hello".to_owned();
    let mut rate = 2.0f64;
    let mut senders = 1usize;
    let mut harden = false;
    let mut topology: Option<String> = None;
    let mut topology_set: Option<String> = None;
    let mut db: Option<String> = None;
    let mut resume = false;
    let mut socket: Option<String> = None;

    let mut o = Opts { args, pos: 0 };
    while o.pos + 1 < args.len() {
        o.pos += 1;
        let flag = args[o.pos].clone();
        match flag.as_str() {
            "--model" => model = parse_model(&o.value("--model")?)?,
            "--index" => {
                index = o
                    .value("--index")?
                    .parse()
                    .map_err(|_| "--index must be a number".to_string())?
            }
            "--seed" => {
                seed = o
                    .value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a number".to_string())?
            }
            "--metrics" => metrics = Some(o.value("--metrics")?),
            "--ppin" => {
                let raw = o.value("--ppin")?;
                let raw = raw.trim_start_matches("0x");
                ppin = Some(
                    u64::from_str_radix(raw, 16)
                        .map_err(|_| "--ppin must be a hex number".to_string())?,
                );
            }
            "--instances" => instances = parse_positive("--instances", &o.value("--instances")?)?,
            "--workers" => workers = Some(parse_positive("--workers", &o.value("--workers")?)?),
            // Boolean flags: consume no value.
            "--harden" => harden = true,
            "--resume" => resume = true,
            "--topology" => topology = Some(o.value("--topology")?),
            "--topology-set" => topology_set = Some(o.value("--topology-set")?),
            "--db" => db = Some(o.value("--db")?),
            "--socket" => socket = Some(o.value("--socket")?),
            "--message" => message = o.value("--message")?,
            "--rate" => {
                rate = o
                    .value("--rate")?
                    .parse()
                    .map_err(|_| "--rate must be a number".to_string())?
            }
            "--senders" => {
                senders = o
                    .value("--senders")?
                    .parse()
                    .map_err(|_| "--senders must be a number".to_string())?
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }

    match cmd.as_str() {
        "map" => Ok(Command::Map {
            model,
            index,
            seed,
            db,
            metrics,
            harden,
            topology,
            topology_set,
        }),
        "show" => {
            let Some(db) = db else {
                return Err("show requires --db <FILE>".into());
            };
            Ok(Command::Show { db, ppin })
        }
        "fleet" => {
            if resume && db.is_none() {
                return Err("--resume requires --db <FILE>".into());
            }
            Ok(Command::Fleet {
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
            })
        }
        "serve" => {
            let Some(socket) = socket else {
                return Err("serve requires --socket <PATH>".into());
            };
            Ok(Command::Serve {
                model,
                seed,
                socket,
                db,
                workers,
                metrics,
                harden,
            })
        }
        "channel" => Ok(Command::Channel {
            model,
            index,
            seed,
            message,
            rate,
            senders,
        }),
        "verify" => Ok(Command::Verify { model, index, seed }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_map_with_defaults() {
        let cmd = parse(&argv("map")).unwrap();
        assert_eq!(
            cmd,
            Command::Map {
                model: CpuModel::Platinum8259CL,
                index: 0,
                seed: 2022,
                db: None,
                metrics: None,
                harden: false,
                topology: None,
                topology_set: None
            }
        );
    }

    #[test]
    fn harden_flag_parses_without_a_value() {
        let cmd = parse(&argv("map --harden --index 2")).unwrap();
        assert!(matches!(
            cmd,
            Command::Map {
                harden: true,
                index: 2,
                ..
            }
        ));
        let cmd = parse(&argv("fleet --harden --instances 3")).unwrap();
        assert!(matches!(
            cmd,
            Command::Fleet {
                harden: true,
                instances: 3,
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("map")).unwrap(),
            Command::Map { harden: false, .. }
        ));
    }

    #[test]
    fn metrics_flag_parses_on_map_and_fleet() {
        let cmd = parse(&argv("map --metrics out.json")).unwrap();
        assert!(matches!(
            cmd,
            Command::Map { metrics: Some(ref f), .. } if f == "out.json"
        ));
        let cmd = parse(&argv("fleet --instances 2 --metrics m.json")).unwrap();
        assert!(matches!(
            cmd,
            Command::Fleet { metrics: Some(ref f), instances: 2, .. } if f == "m.json"
        ));
        assert!(parse(&argv("map --metrics")).is_err());
    }

    #[test]
    fn parses_full_channel_command() {
        let cmd = parse(&argv(
            "channel --model 8124m --index 3 --message hi --rate 4 --senders 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Channel {
                model: CpuModel::Platinum8124M,
                index: 3,
                seed: 2022,
                message: "hi".into(),
                rate: 4.0,
                senders: 2
            }
        );
    }

    #[test]
    fn show_requires_db() {
        assert_eq!(
            parse(&argv("show")).unwrap_err(),
            "show requires --db <FILE>"
        );
        assert_eq!(
            parse(&argv("show --db fleet.json")).unwrap(),
            Command::Show {
                db: "fleet.json".into(),
                ppin: None
            }
        );
    }

    #[test]
    fn map_parses_db() {
        assert!(matches!(
            parse(&argv("map --model 6354 --index 3 --db fleet.json")).unwrap(),
            Command::Map { db: Some(ref d), index: 3, .. } if d == "fleet.json"
        ));
    }

    #[test]
    fn registry_flag_is_gone() {
        for cmd in ["map", "show --db fleet.json"] {
            let err = parse(&argv(&format!("{cmd} --registry maps.json"))).unwrap_err();
            assert_eq!(err, "unknown option '--registry'");
        }
    }

    #[test]
    fn ppin_parses_hex() {
        let cmd = parse(&argv("show --db f.json --ppin 0xABC")).unwrap();
        assert_eq!(
            cmd,
            Command::Show {
                db: "f.json".into(),
                ppin: Some(0xABC)
            }
        );
    }

    #[test]
    fn fleet_parses_workers() {
        let cmd = parse(&argv("fleet --model 6354 --instances 4 --workers 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Fleet {
                model: CpuModel::Gold6354,
                instances: 4,
                seed: 2022,
                workers: Some(3),
                metrics: None,
                harden: false,
                topology: None,
                topology_set: None,
                db: None,
                resume: false
            }
        );
        assert!(matches!(
            parse(&argv("fleet")).unwrap(),
            Command::Fleet { workers: None, .. }
        ));
    }

    #[test]
    fn fleet_parses_db_and_resume() {
        assert!(matches!(
            parse(&argv("fleet --db fleet.json --resume --instances 5")).unwrap(),
            Command::Fleet { db: Some(ref d), resume: true, instances: 5, .. }
                if d == "fleet.json"
        ));
        assert!(matches!(
            parse(&argv("fleet --db fleet.json")).unwrap(),
            Command::Fleet {
                db: Some(_),
                resume: false,
                ..
            }
        ));
        assert!(
            parse(&argv("fleet --resume")).is_err(),
            "--resume without --db is a usage error"
        );
        assert!(parse(&argv("fleet --db")).is_err());
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        // Regression: these used to parse and fall through to runtime — an
        // empty survey or a silently clamped worker pool.
        assert!(parse(&argv("fleet --instances 0")).is_err());
        assert!(parse(&argv("fleet --workers 0")).is_err());
        assert!(parse(&argv("fleet --instances 1 --workers 1")).is_ok());
        assert!(parse(&argv("fleet --instances -3")).is_err());
        assert!(parse(&argv("fleet --instances nope")).is_err());
    }

    #[test]
    fn ilp_workers_flag_is_gone() {
        for cmd in ["map", "fleet", "serve --socket s.sock"] {
            let err = parse(&argv(&format!("{cmd} --ilp-workers 2"))).unwrap_err();
            assert_eq!(err, "unknown option '--ilp-workers'");
        }
    }

    #[test]
    fn topology_flags_parse_on_map_and_fleet() {
        assert!(matches!(
            parse(&argv("map --topology skylake-xcc")).unwrap(),
            Command::Map { topology: Some(ref t), topology_set: None, .. } if t == "skylake-xcc"
        ));
        assert!(matches!(
            parse(&argv("map --topology-set zoo")).unwrap(),
            Command::Map { topology: None, topology_set: Some(ref s), .. } if s == "zoo"
        ));
        assert!(matches!(
            parse(&argv("fleet --topology-set zoo --instances 2")).unwrap(),
            Command::Fleet { topology_set: Some(ref s), instances: 2, .. } if s == "zoo"
        ));
        assert!(matches!(
            parse(&argv("fleet --topology custom.json")).unwrap(),
            Command::Fleet { topology: Some(ref t), .. } if t == "custom.json"
        ));
        assert!(parse(&argv("map --topology")).is_err());
        assert!(parse(&argv("map --topology-set")).is_err());
    }

    #[test]
    fn serve_requires_socket_and_parses_options() {
        assert!(
            parse(&argv("serve")).is_err(),
            "--socket is mandatory for serve"
        );
        let cmd = parse(&argv(
            "serve --socket /tmp/coremap.sock --model 6354 --db fleet.json --workers 4",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                model: CpuModel::Gold6354,
                seed: 2022,
                socket: "/tmp/coremap.sock".into(),
                db: Some("fleet.json".into()),
                workers: Some(4),
                metrics: None,
                harden: false,
            }
        );
        assert!(matches!(
            parse(&argv("serve --socket s.sock --metrics m.json --harden")).unwrap(),
            Command::Serve {
                metrics: Some(_),
                harden: true,
                db: None,
                workers: None,
                ..
            }
        ));
        assert!(parse(&argv("serve --socket")).is_err());
        assert!(parse(&argv("serve --socket s.sock --workers 0")).is_err());
    }

    #[test]
    fn rejects_unknown_command_and_flag() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("map --what 3")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn model_aliases() {
        assert_eq!(parse_model("ICX").unwrap(), CpuModel::Gold6354);
        assert_eq!(parse_model("8175").unwrap(), CpuModel::Platinum8175M);
        assert!(parse_model("9999").is_err());
    }
}
