//! The serve protocol as the benchmark speaks it: request lines, the exact
//! reply a stored map must produce, and the in-process read path.

use std::time::Instant;

use coremap_core::CoreMap;
use coremap_fleet::MapService;
use coremap_mesh::Ppin;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};

use crate::trace::{time_if, Trace};

pub fn read_line(ppin: Ppin) -> String {
    format!(
        "{{\"cmd\":\"map-by-ppin\",\"ppin\":\"{:#x}\"}}",
        ppin.value()
    )
}

pub fn campaign_line(instances: usize) -> String {
    format!("{{\"cmd\":\"campaign\",\"instances\":{instances},\"resume\":true}}")
}

/// The exact `map-by-ppin` reply for a stored map.
pub fn expected_reply(ppin: Ppin, map: &CoreMap) -> String {
    let reply = Value::Map(vec![
        ("ok".to_owned(), Value::Bool(true)),
        ("ppin".to_owned(), Value::Str(ppin.to_string())),
        ("map".to_owned(), map.to_value()),
    ]);
    serde_json::to_string(&reply).unwrap_or_default()
}

/// The integer fields of a successful reply (`None` for an error reply or
/// malformed JSON).
pub fn reply_fields(reply: &str, names: &[&str]) -> Option<Vec<u64>> {
    let value: Value = serde_json::from_str(reply).ok()?;
    let entries = value.as_map()?;
    let field = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    if field("ok") != Some(&Value::Bool(true)) {
        return None;
    }
    names
        .iter()
        .map(|n| match field(n) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        })
        .collect()
}

/// Closed-loop `map-by-ppin` reads answered in-process by `handle_line`.
pub struct ReadBack {
    pub latency_us: Vec<f64>,
    pub reply_bytes: f64,
    pub wrong: usize,
}

/// Sends `reads` reads over chips drawn uniformly from `expected` (chip,
/// exact reply) with a seeded generator, checking every reply. With a
/// trace, each `handle_line` call is a `serve.read` span.
pub fn read_back(
    service: &MapService,
    expected: &[(Ppin, String)],
    reads: usize,
    seed: u64,
    trace: Option<&Trace>,
) -> ReadBack {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut latency_us = Vec::with_capacity(reads);
    let (mut bytes, mut wrong) = (0usize, 0usize);
    for i in 0..reads {
        let (ppin, want) = &expected[rng.gen_range(0..expected.len())];
        let line = read_line(*ppin);
        let start = Instant::now();
        let reply = time_if(trace, "serve.read", i as u64, || service.handle_line(&line));
        latency_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        bytes += reply.len();
        wrong += usize::from(reply != *want);
    }
    ReadBack {
        latency_us,
        reply_bytes: bytes as f64 / reads.max(1) as f64,
        wrong,
    }
}
