//! determinism-taint: volatile metric names must not flow into the
//! deterministic export.
//!
//! The obs registry records every metric twice-scoped: deterministic
//! recorders (`add`, `inc`, `set_gauge`, `observe`) land in the
//! byte-identical JSON export that CI diffs; volatile recorders
//! (`add_volatile`, `set_gauge_volatile`, `observe_volatile`) carry
//! wall-clock and schedule-dependent values (`fleet.worker.*.jobs`,
//! `serve.query.latency_us`) and are excluded from it. The invariant is
//! that one *name* never crosses scopes: a name recorded volatile
//! anywhere and deterministic anywhere else would make the deterministic
//! export depend on thread timing the moment the two sites both run.
//!
//! This lint collects every recorder call site in library code, resolves
//! the metric-name argument (string literal, `format!` pattern with
//! `{...}` interpolations widened to a `*` wildcard, or a same-workspace
//! `const NAME: &str = "...";`), and reports every deterministic site
//! whose name pattern can overlap a volatile one.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::lints::Violation;
use crate::policy;
use crate::source::SourceFile;

/// Recorder methods that land in the deterministic export.
const DETERMINISTIC_RECORDERS: [&str; 4] = ["add", "inc", "set_gauge", "observe"];

/// Recorder methods that land in the volatile scope.
const VOLATILE_RECORDERS: [&str; 3] = ["add_volatile", "set_gauge_volatile", "observe_volatile"];

/// One resolved recorder call site.
#[derive(Debug)]
struct Site {
    file: String,
    line: u32,
    /// The metric-name pattern, `{...}` interpolations widened to `*`.
    pattern: String,
    /// The recorder method called.
    recorder: &'static str,
}

/// Runs the determinism-taint lint over the whole source set.
pub fn lint_determinism_taint(files: &[SourceFile<'_>], out: &mut Vec<Violation>) {
    let consts = collect_str_consts(files);
    let mut volatile: Vec<Site> = Vec::new();
    let mut deterministic: Vec<Site> = Vec::new();
    for file in files {
        if !policy::taint_applies(&file.path) {
            continue;
        }
        collect_sites(file, &consts, &mut volatile, &mut deterministic);
    }
    for det in &deterministic {
        if let Some(vol) = volatile
            .iter()
            .find(|v| patterns_overlap(&det.pattern, &v.pattern))
        {
            out.push(Violation {
                file: det.file.clone(),
                line: det.line,
                lint: "determinism-taint",
                message: format!(
                    "metric name `{}` recorded deterministically via `{}` here \
                     can collide with the volatile name `{}` recorded via `{}` \
                     at {}:{} — a volatile name in the deterministic JSON \
                     export makes it schedule-dependent; rename one side or \
                     use the matching volatile recorder",
                    det.pattern, det.recorder, vol.pattern, vol.recorder, vol.file, vol.line
                ),
            });
        }
    }
}

/// Workspace-wide `const NAME: &str = "...";` table (library files).
fn collect_str_consts(files: &[SourceFile<'_>]) -> BTreeMap<String, String> {
    let mut consts = BTreeMap::new();
    for file in files {
        if !policy::taint_applies(&file.path) {
            continue;
        }
        let code: Vec<_> = file.code_tokens().collect();
        for i in 0..code.len() {
            if code[i].ident() != Some("const") {
                continue;
            }
            let Some(name) = code.get(i + 1).and_then(|t| t.ident()) else {
                continue;
            };
            // Scan forward a few tokens for `= "..."`.
            for j in i + 2..(i + 10).min(code.len()) {
                if code[j].is_punct(';') {
                    break;
                }
                if !code[j].is_punct('=') {
                    continue;
                }
                if let Some(TokenKind::Str(s)) = code.get(j + 1).map(|t| &t.kind) {
                    consts.insert(name.to_string(), strip_quotes(s).to_string());
                }
                break;
            }
        }
    }
    consts
}

/// Collects resolved recorder sites in one file, skipping test regions.
fn collect_sites(
    file: &SourceFile<'_>,
    consts: &BTreeMap<String, String>,
    volatile: &mut Vec<Site>,
    deterministic: &mut Vec<Site>,
) {
    let code: Vec<_> = file.code_tokens().collect();
    for (i, tok) in code.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        if file.in_test_region(tok.line) {
            continue;
        }
        let det = DETERMINISTIC_RECORDERS.iter().find(|r| **r == id);
        let vol = VOLATILE_RECORDERS.iter().find(|r| **r == id);
        let recorder = match det.or(vol) {
            Some(r) => *r,
            None => continue,
        };
        if !code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // `add` / `observe` are common words: require a call shape with a
        // resolvable name argument; sites passing a runtime `&str`
        // parameter are the registry plumbing itself and carry no name.
        let Some(pattern) = first_arg_pattern(&code, i + 2, consts) else {
            continue;
        };
        let site = Site {
            file: file.path.clone(),
            line: tok.line,
            pattern,
            recorder,
        };
        if det.is_some() {
            deterministic.push(site);
        } else {
            volatile.push(site);
        }
    }
}

/// Resolves the first argument at `arg_start` (the token after the call's
/// `(`) into a name pattern, if it is a string literal, a `format!`
/// string, or a known string const. `&` borrows are skipped.
fn first_arg_pattern(
    code: &[&crate::lexer::Token<'_>],
    arg_start: usize,
    consts: &BTreeMap<String, String>,
) -> Option<String> {
    let mut i = arg_start;
    while code.get(i).is_some_and(|t| t.is_punct('&')) {
        i += 1;
    }
    let tok = code.get(i)?;
    if let TokenKind::Str(s) = &tok.kind {
        return Some(widen(strip_quotes(s)));
    }
    if tok.ident() == Some("format")
        && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
        && code.get(i + 2).is_some_and(|t| t.is_punct('('))
    {
        if let Some(TokenKind::Str(s)) = code.get(i + 3).map(|t| &t.kind) {
            return Some(widen(strip_quotes(s)));
        }
    }
    if let Some(name) = tok.ident() {
        if let Some(value) = consts.get(name) {
            return Some(widen(value));
        }
    }
    None
}

/// Strips the surrounding quotes (and a raw-string prefix) off a string
/// literal token's text.
fn strip_quotes(s: &str) -> &str {
    let s = s.trim_start_matches(['r', 'b', '#']).trim_matches('#');
    s.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(s)
}

/// Widens `{...}` interpolations into `*` wildcards; `{{`/`}}` escapes
/// become literal braces.
fn widen(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                out.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                out.push('}');
            }
            '{' => {
                for inner in chars.by_ref() {
                    if inner == '}' {
                        break;
                    }
                }
                out.push('*');
            }
            c => out.push(c),
        }
    }
    out
}

/// Whether two `*`-wildcard patterns can match the same concrete string.
pub fn patterns_overlap(a: &str, b: &str) -> bool {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (la, lb) = (a.len(), b.len());
    // dp[i][j]: can a[i..] and b[j..] both match some common string.
    let mut dp = vec![vec![false; lb + 1]; la + 1];
    dp[la][lb] = true;
    for i in (0..=la).rev() {
        for j in (0..=lb).rev() {
            if i == la && j == lb {
                continue;
            }
            let mut ok = false;
            if i < la && a[i] == '*' {
                ok |= dp[i + 1][j]; // `*` matches empty
                if j < lb {
                    ok |= dp[i][j + 1]; // `*` consumes one of b's chars
                }
            }
            if !ok && j < lb && b[j] == '*' {
                ok |= dp[i][j + 1];
                if i < la {
                    ok |= dp[i + 1][j];
                }
            }
            if !ok && i < la && j < lb && a[i] == b[j] && a[i] != '*' {
                ok = dp[i + 1][j + 1];
            }
            dp[i][j] = ok;
        }
    }
    dp[0][0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let parsed: Vec<SourceFile<'_>> =
            files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        let mut out = Vec::new();
        lint_determinism_taint(&parsed, &mut out);
        out
    }

    #[test]
    fn wildcard_overlap_matrix() {
        assert!(patterns_overlap(
            "fleet.worker.*.steals",
            "fleet.worker.03.steals"
        ));
        assert!(patterns_overlap(
            "fleet.worker.*.steals",
            "fleet.worker.*.steals"
        ));
        assert!(!patterns_overlap(
            "fleet.worker.*.steals",
            "fleet.worker.*.jobs"
        ));
        assert!(!patterns_overlap("*.us", "serve.query.latency_us"));
        assert!(patterns_overlap("*.us", "span.total.us"));
        assert!(!patterns_overlap("*.calls", "*.us"));
        assert!(patterns_overlap("a.*", "*.b"));
        assert!(!patterns_overlap("fleet.cache.hits", "fleet.cache.misses"));
    }

    #[test]
    fn volatile_name_reused_deterministically_is_flagged_at_the_det_site() {
        let v = run(&[
            (
                "crates/fleet/src/runner.rs",
                "fn a(r: &Registry, w: usize) { r.add_volatile(&format!(\"fleet.worker.{w:02}.steals\"), 1); }\n",
            ),
            (
                "crates/fleet/src/campaign.rs",
                "fn b(r: &Registry) { r.add(\"fleet.worker.00.steals\", 1); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "determinism-taint");
        assert_eq!(v[0].file, "crates/fleet/src/campaign.rs");
        assert!(v[0].message.contains("runner.rs"), "{}", v[0].message);
    }

    #[test]
    fn const_names_resolve_across_files() {
        let v = run(&[
            (
                "crates/fleet/src/serve.rs",
                "const LATENCY_METRIC: &str = \"serve.query.latency_us\";\nfn a(r: &Registry) { r.observe_volatile(LATENCY_METRIC, 9); }\n",
            ),
            (
                "crates/obs/src/json.rs",
                "fn b(r: &Registry) { r.observe(\"serve.query.latency_us\", 9); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/obs/src/json.rs");
    }

    #[test]
    fn disjoint_names_and_test_regions_are_clean() {
        let v = run(&[(
            "crates/fleet/src/runner.rs",
            "fn a(r: &Registry) { r.add_volatile(\"fleet.worker.00.steals\", 1); r.add(\"fleet.cache.hits\", 1); }\n#[cfg(test)]\nmod tests { fn t(r: &Registry) { r.add(\"x\", 1); r.add_volatile(\"x\", 1); } }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unresolvable_runtime_names_are_skipped() {
        // The registry plumbing forwards `name: &str` parameters; those
        // sites carry no literal and must not explode into wildcards.
        let v = run(&[(
            "crates/obs/src/registry.rs",
            "impl R { fn add(&self, name: &str, n: u64) { self.record(name, n); }\n fn add_volatile(&self, name: &str, n: u64) { self.record(name, n); } }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
