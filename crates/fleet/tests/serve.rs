//! End-to-end daemon tests over a real Unix-domain socket: concurrent
//! clients, campaign determinism, hit accounting and clean shutdown.

#![cfg(unix)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Barrier;

use coremap_core::CoreMapper;
use coremap_fleet::serve::serve_unix;
use coremap_fleet::{CloudFleet, CpuModel, FleetDb, FleetRunner, MapService};

fn service(workers: usize) -> MapService {
    MapService::new(
        CpuModel::Gold6354,
        CloudFleet::with_seed(2022),
        CoreMapper::new(),
        FleetRunner::new(workers),
        FleetDb::new(),
    )
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "coremap-serve-test-{}-{tag}.sock",
        std::process::id()
    ))
}

/// Sends one request line and reads one reply line.
fn roundtrip(stream: &mut UnixStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    reply.trim().to_owned()
}

/// Connects, retrying briefly while the daemon binds the socket.
fn connect(path: &std::path::Path) -> UnixStream {
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("daemon never bound {}", path.display());
}

/// The deterministic metrics export after serving `requests_per_client`
/// campaign requests from `clients` concurrent connections.
fn serve_campaigns(clients: usize, requests_per_client: &[&str]) -> (String, FleetDb) {
    let svc = service(2);
    let path = socket_path(&format!("camp{clients}-{}", requests_per_client.len()));
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve_unix(&svc, &path, clients.max(2)));
        let client_handles: Vec<_> = (0..clients)
            .map(|_| {
                let (path, requests) = (&path, requests_per_client);
                scope.spawn(move || {
                    let mut stream = connect(path);
                    for request in requests {
                        let reply = roundtrip(&mut stream, request);
                        assert!(
                            reply.contains(r#""ok":true"#),
                            "request {request} failed: {reply}"
                        );
                    }
                })
            })
            .collect();
        for h in client_handles {
            h.join().unwrap();
        }
        let mut stream = connect(&path);
        let reply = roundtrip(&mut stream, r#"{"cmd":"shutdown"}"#);
        assert!(reply.contains("shutting_down"), "{reply}");
        daemon.join().unwrap().unwrap();
    });
    assert!(!path.exists(), "socket file must be removed on shutdown");
    (svc.registry().to_json(false), svc.db_snapshot())
}

#[test]
fn concurrent_clients_produce_byte_identical_campaign_metrics() {
    let campaign = r#"{"cmd":"campaign","instances":4}"#;
    // Two clients racing the same campaign request...
    let (concurrent, db_concurrent) = serve_campaigns(2, &[campaign]);
    // ...must leave exactly the metrics of one client issuing it twice
    // sequentially: campaigns serialize under the db mutex and all
    // deterministic accounting is instance-ordered.
    let (sequential, db_sequential) = serve_campaigns(1, &[campaign, campaign]);
    assert_eq!(
        concurrent, sequential,
        "deterministic metrics must not depend on client interleaving"
    );
    // The learned databases agree byte-for-byte too.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    db_concurrent.save(&mut a).unwrap();
    db_sequential.save(&mut b).unwrap();
    assert_eq!(a, b);
}

/// Warms a service with a three-chip campaign, then has `clients`
/// concurrent connections (one acceptor each) query every mapped chip.
fn warm_queries_hit_from_every_client(clients: usize) {
    let svc = service(2);
    let reply = svc.handle_line(r#"{"cmd":"campaign","instances":3}"#);
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    let db = svc.db_snapshot();
    assert_eq!(db.len(), 3);
    let nodes = svc.registry().counter_value("ilp.bb.nodes");
    assert!(nodes > 0, "the campaign itself must have solved");

    let path = socket_path(&format!("warm{clients}"));
    let start = Barrier::new(clients);
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve_unix(&svc, &path, clients));
        let client_handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream = connect(&path);
                    start.wait();
                    for (ppin, _) in db.iter() {
                        let request =
                            format!(r#"{{"cmd":"map-by-ppin","ppin":"{:x}"}}"#, ppin.value());
                        let reply = roundtrip(&mut stream, &request);
                        assert!(reply.contains(r#""ok":true"#), "{ppin}: {reply}");
                        assert!(reply.contains(&ppin.to_string()), "{reply}");
                    }
                })
            })
            .collect();
        for h in client_handles {
            h.join().unwrap();
        }
        let hits = 3 * clients as u64;
        assert_eq!(svc.registry().counter_value("serve.query.hits"), hits);
        assert_eq!(svc.registry().counter_value("serve.query.misses"), 0);
        assert_eq!(
            svc.registry().counter_value("ilp.bb.nodes"),
            nodes,
            "queries must never trigger ILP solves"
        );

        // Unknown chip: a miss, an error reply, no crash.
        let mut stream = connect(&path);
        let reply = roundtrip(&mut stream, r#"{"cmd":"map-by-ppin","ppin":"0xffff"}"#);
        assert!(reply.contains(r#""ok":false"#), "{reply}");

        let stats = roundtrip(&mut stream, r#"{"cmd":"stats"}"#);
        assert!(stats.contains(&format!(r#""hits":{hits}"#)), "{stats}");
        assert!(stats.contains(r#""misses":1"#), "{stats}");
        assert!(stats.contains("latency_p99_us"), "{stats}");

        let reply = roundtrip(&mut stream, r#"{"cmd":"shutdown"}"#);
        assert!(reply.contains("shutting_down"), "{reply}");
        daemon.join().unwrap().unwrap();
    });
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

#[test]
fn warmed_daemon_serves_queries_with_full_hit_rate() {
    for clients in [1, 4] {
        warm_queries_hit_from_every_client(clients);
    }
}

#[test]
fn malformed_lines_only_fail_their_own_request() {
    let svc = service(1);
    let path = socket_path("garbage");
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve_unix(&svc, &path, 1));
        let mut stream = connect(&path);
        let reply = roundtrip(&mut stream, "this is not json");
        assert!(reply.contains(r#""ok":false"#), "{reply}");
        // The connection (and daemon) survive; a valid request still works.
        let reply = roundtrip(&mut stream, r#"{"cmd":"stats"}"#);
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        roundtrip(&mut stream, r#"{"cmd":"shutdown"}"#);
        daemon.join().unwrap().unwrap();
    });
}
