//! Integration tests for the CLI command layer (exercised through the
//! binary, since the command functions live in the binary crate).

// Test/bench harness: unwraps abort the harness, which is the desired failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // target/<profile>/core-map relative to this test binary.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push("core-map");
    p
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("channel"));
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("USAGE"));
}

/// A fresh scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coremap-cli-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn map_verify_and_db_round_trip() {
    let dir = scratch_dir("map");
    let db = dir.join("fleet.json");
    let db_str = db.to_str().expect("utf8 path");

    let (ok, stdout, stderr) = run(&["map", "--model", "8124m", "--db", db_str]);
    assert!(ok, "map failed: {stderr}");
    assert!(stdout.contains("IMC"), "rendered grid expected: {stdout}");
    assert!(stdout.contains("fleet database updated"), "{stdout}");
    assert!(db.exists());
    assert!(
        !dir.join("fleet.json.tmp").exists(),
        "save leaves no temp file"
    );

    let (ok, stdout, _) = run(&["show", "--db", db_str]);
    assert!(ok);
    assert!(stdout.contains("18 cores"));

    let (ok, _, stderr) = run(&["show", "--db", db_str, "--ppin", "0xdead"]);
    assert!(!ok, "unknown PPIN must fail");
    assert!(stderr.contains("no map stored"));

    let missing = dir.join("missing.json");
    let (ok, _, stderr) = run(&["show", "--db", missing.to_str().unwrap()]);
    assert!(!ok, "show of a missing database must fail");
    assert!(stderr.contains("missing.json"), "{stderr}");

    let (ok, stdout, _) = run(&["verify", "--model", "8124m"]);
    assert!(ok);
    assert!(stdout.contains("pairwise accuracy"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unusable_db_path_fails_before_the_campaign_and_names_the_path() {
    let dir = scratch_dir("plainfile");
    let plain = dir.join("plainfile");
    std::fs::write(&plain, "not a directory").unwrap();
    let db = plain.join("db.json");
    let db_str = db.to_str().expect("utf8 path");

    let (ok, stdout, stderr) = run(&["fleet", "--model", "8124m", "--db", db_str]);
    assert!(!ok, "a db path under a plain file must fail");
    assert!(!stderr.contains("campaigning over"), "{stderr}");
    assert!(!stdout.contains("instances surveyed"), "{stdout}");
    assert!(
        stderr.contains(db_str),
        "error must name the path: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_chip_map_dedups_onto_the_campaign_db() {
    let dir = scratch_dir("dedup");
    let db = dir.join("db.json");
    let db_str = db.to_str().expect("utf8 path");
    let tmp = dir.join("db.json.tmp");

    let campaign = ["fleet", "--model", "8124m", "--instances", "3"];
    let (ok, _, stderr) = run(&[&campaign[..], &["--db", db_str]].concat());
    assert!(ok, "fleet --db failed: {stderr}");
    assert!(!tmp.exists(), "save leaves no temp file");
    let before = std::fs::read(&db).unwrap();

    // Chip #1 is already mapped: its labelled map is the stored pattern,
    // so the save rewrites the file with the same bytes.
    let (ok, _, stderr) = run(&["map", "--model", "8124m", "--index", "1", "--db", db_str]);
    assert!(ok, "map --db failed: {stderr}");
    assert!(!tmp.exists(), "save leaves no temp file");
    assert_eq!(std::fs::read(&db).unwrap(), before);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn channel_transfers_a_short_message() {
    let (ok, stdout, stderr) = run(&["channel", "--message", "ok", "--rate", "4"]);
    assert!(ok, "channel failed: {stderr}");
    assert!(stdout.contains("received:"), "{stdout}");
    assert!(stdout.contains("BER"));
}
