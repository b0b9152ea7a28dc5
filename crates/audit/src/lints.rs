//! The lint registry and the lints themselves.
//!
//! Each lint scans a [`SourceFile`]'s token stream under the path policy
//! and yields candidate violations. The driver ([`audit_file`]) then
//! applies `// audit: allow(<lint>): <justification>` suppressions and
//! turns malformed or unused annotations into violations of their own, so
//! the suppression mechanism cannot rot silently.

use crate::policy;
use crate::source::SourceFile;

/// A finding: one invariant broken at one source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name (stable identifier, also the `allow(...)` key).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Name and one-line rationale of every lint, for `--list-lints` and docs.
pub const LINTS: [(&str, &str); 9] = [
    (
        "determinism",
        "HashMap/HashSet and wall-clock reads are forbidden on deterministic \
         paths (solver, geometry, metrics export, replay): iteration order and \
         time break byte-identical record->replay and run-to-run exports",
    ),
    (
        "backend-discipline",
        "raw MSR/PMON register-map tokens are confined to crates/uncore; every \
         other layer must reach the machine through the MachineBackend trait",
    ),
    (
        "panic-safety",
        "unwrap()/expect()/panic! are forbidden in library code outside tests; \
         return typed errors, and take locks through the poison-tolerant helpers",
    ),
    (
        "unsafe-audit",
        "every `unsafe` keyword requires an adjacent `// SAFETY:` comment \
         (same line or at most three lines above)",
    ),
    (
        "lock-order",
        "the workspace-wide held->acquired mutex relation must be acyclic: \
         two threads entering a cycle from different ends deadlock; derived \
         from the cross-file call graph, so a cycle split between crates is \
         still visible",
    ),
    (
        "condvar-discipline",
        "every Condvar::wait sits inside a predicate loop (spurious wakeups \
         return with the predicate stale) and every notify_* follows a \
         guarded-state mutation earlier in the same function",
    ),
    (
        "determinism-taint",
        "metric names recorded through volatile recorders (wall-clock, \
         per-worker job counts) must never also be recorded \
         deterministically: one name in both scopes makes the \
         byte-identical JSON export schedule-dependent",
    ),
    (
        "malformed-suppression",
        "audit: allow(...) annotations must name a known lint and carry a \
         non-empty justification after the closing parenthesis",
    ),
    (
        "unused-suppression",
        "an allow annotation that no longer suppresses anything must be \
         removed, so stale exemptions cannot hide future violations",
    ),
];

/// Whether `name` names a registered lint.
pub fn is_known_lint(name: &str) -> bool {
    LINTS.iter().any(|(n, _)| *n == name)
}

/// Raw MSR/PMON register-map tokens. Mentioning one outside
/// `crates/uncore/src` (or a test) means a layer is addressing PMON banks
/// directly instead of going through `MachineBackend`.
const RAW_BACKEND_TOKENS: [&str; 14] = [
    "counter_ctl",
    "MSR_PPIN",
    "CHA_MSR_BASE",
    "CHA_MSR_STRIDE",
    "CHA_UNIT_CTL",
    "CHA_CTL0",
    "CHA_CTR0",
    "CHA_COUNTERS",
    "UNIT_CTL_RESET",
    "UNIT_CTL_FREEZE",
    "decode_cha_msr",
    "ChaRegister",
    "ChaPmonBox",
    "unit_ctl",
];

/// Runs the per-file lints on one file and applies the suppression
/// policy.
///
/// Returns `(violations, suppressed_count)`: surviving violations in
/// source order, and how many candidates a well-formed annotation waived.
/// The cross-file lints (`lock-order`, `condvar-discipline`,
/// `determinism-taint`) need the whole source set and run through
/// [`crate::audit_sources`], which merges their candidates into the same
/// suppression pass.
pub fn audit_file(file: &SourceFile<'_>) -> (Vec<Violation>, usize) {
    let candidates = file_candidates(file);
    apply_suppressions(file, candidates)
}

/// The per-file lint candidates for `file`, before suppression.
pub fn file_candidates(file: &SourceFile<'_>) -> Vec<Violation> {
    let mut candidates = Vec::new();
    if policy::code_kind(&file.path) == policy::CodeKind::Fixture {
        return candidates;
    }
    lint_determinism(file, &mut candidates);
    lint_backend_discipline(file, &mut candidates);
    lint_panic_safety(file, &mut candidates);
    lint_unsafe_audit(file, &mut candidates);
    candidates
}

/// Applies `file`'s suppression annotations to `candidates` (per-file
/// and cross-file alike) and appends the suppression meta-lints.
pub fn apply_suppressions(
    file: &SourceFile<'_>,
    candidates: Vec<Violation>,
) -> (Vec<Violation>, usize) {
    if policy::code_kind(&file.path) == policy::CodeKind::Fixture {
        return (Vec::new(), 0);
    }
    // Apply suppressions, tracking which annotations earned their keep.
    let mut used = vec![false; file.suppressions.len()];
    let mut suppressed = 0usize;
    let mut violations: Vec<Violation> = Vec::new();
    for v in candidates {
        let hit = file
            .suppressions
            .iter()
            .position(|s| s.well_formed && s.lint == v.lint && covers(s.line, v.line));
        match hit {
            Some(idx) => {
                used[idx] = true;
                suppressed += 1;
            }
            None => violations.push(v),
        }
    }

    // Meta-lints on the annotations themselves. These cannot be
    // suppressed: a suppression of the suppression police is no police.
    for (idx, s) in file.suppressions.iter().enumerate() {
        if !s.well_formed || !is_known_lint(&s.lint) {
            violations.push(Violation {
                file: file.path.clone(),
                line: s.line,
                lint: "malformed-suppression",
                message: if s.lint.is_empty() || !is_known_lint(&s.lint) {
                    format!(
                        "allow annotation names unknown lint `{}`; known lints: {}",
                        s.lint,
                        LINTS.map(|(n, _)| n).join(", ")
                    )
                } else {
                    format!(
                        "allow({}) is missing its justification — write \
                         `// audit: allow({}): <why this site is exempt>`",
                        s.lint, s.lint
                    )
                },
            });
        } else if !used[idx] {
            violations.push(Violation {
                file: file.path.clone(),
                line: s.line,
                lint: "unused-suppression",
                message: format!(
                    "allow({}) suppresses nothing on line {} or {} — remove it",
                    s.lint,
                    s.line,
                    s.line + 1
                ),
            });
        }
    }

    violations.sort();
    (violations, suppressed)
}

/// Whether an annotation on `ann_line` covers a violation on `line`
/// (its own line, or the line directly below).
fn covers(ann_line: u32, line: u32) -> bool {
    ann_line == line || ann_line + 1 == line
}

fn push(
    out: &mut Vec<Violation>,
    file: &SourceFile<'_>,
    line: u32,
    lint: &'static str,
    msg: String,
) {
    out.push(Violation {
        file: file.path.clone(),
        line,
        lint,
        message: msg,
    });
}

/// determinism: no hash-order iteration or wall-clock reads on paths whose
/// output must be reproducible.
fn lint_determinism(file: &SourceFile<'_>, out: &mut Vec<Violation>) {
    if !policy::is_deterministic_path(&file.path) {
        return;
    }
    let code: Vec<_> = file.code_tokens().collect();
    for (i, tok) in code.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        if file.in_test_region(tok.line) {
            continue;
        }
        match id {
            "HashMap" | "HashSet" => push(
                out,
                file,
                tok.line,
                "determinism",
                format!(
                    "`{id}` on a deterministic path: iteration order varies \
                     per process — use `BTree{}` or sort before iterating",
                    &id[4..]
                ),
            ),
            "thread_rng" => push(
                out,
                file,
                tok.line,
                "determinism",
                "`thread_rng` on a deterministic path: use a seeded \
                 `ChaCha8Rng` threaded through the caller"
                    .into(),
            ),
            "Instant" | "SystemTime" => {
                // Only the *reads* are nondeterministic; storing a time
                // type someone else produced is fine.
                let calls_now = code[i + 1..]
                    .iter()
                    .take(3)
                    .filter_map(|t| t.ident())
                    .any(|m| m == "now");
                if calls_now {
                    push(
                        out,
                        file,
                        tok.line,
                        "determinism",
                        format!(
                            "`{id}::now()` on a deterministic path: wall-clock \
                             values differ per run — count operations instead, \
                             or record the value as a volatile metric"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// backend-discipline: raw register-map tokens stay inside the backend
/// owner; other layers go through `MachineBackend`.
fn lint_backend_discipline(file: &SourceFile<'_>, out: &mut Vec<Violation>) {
    if policy::is_backend_owner(&file.path)
        || policy::code_kind(&file.path) == policy::CodeKind::TestOrHarness
    {
        return;
    }
    for tok in file.code_tokens() {
        let Some(id) = tok.ident() else { continue };
        if file.in_test_region(tok.line) {
            continue;
        }
        if RAW_BACKEND_TOKENS.contains(&id) {
            push(
                out,
                file,
                tok.line,
                "backend-discipline",
                format!(
                    "raw MSR/PMON token `{id}` outside crates/uncore: access \
                     the machine through the MachineBackend trait"
                ),
            );
        }
    }
}

/// panic-safety: library code returns errors instead of aborting, and
/// fleet locks go through the poison-tolerant helpers.
fn lint_panic_safety(file: &SourceFile<'_>, out: &mut Vec<Violation>) {
    if !policy::panic_safety_applies(&file.path) {
        return;
    }
    let code: Vec<_> = file.code_tokens().collect();
    for (i, tok) in code.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        if file.in_test_region(tok.line) {
            continue;
        }
        let method_call =
            i > 0 && code[i - 1].is_punct('.') && code.get(i + 1).is_some_and(|t| t.is_punct('('));
        match id {
            "unwrap" | "expect" if method_call => {
                // `.lock().unwrap()` gets the sharper message: the
                // workspace has a poison-tolerant helper for exactly this.
                let after_lock = i >= 4
                    && code[i - 4].ident() == Some("lock")
                    && code[i - 3].is_punct('(')
                    && code[i - 2].is_punct(')');
                let msg = if after_lock {
                    format!(
                        "`.lock().{id}()` in library code: a panicked sibling \
                         poisons the mutex and this call then aborts — use the \
                         poison-tolerant lock helper (`lock_clean`)"
                    )
                } else {
                    format!(
                        "`.{id}()` in library code: return a typed error, or \
                         justify with `// audit: allow(panic-safety): <why \
                         infallible>`"
                    )
                };
                push(out, file, tok.line, "panic-safety", msg);
            }
            "panic" if code.get(i + 1).is_some_and(|t| t.is_punct('!')) => {
                push(
                    out,
                    file,
                    tok.line,
                    "panic-safety",
                    "`panic!` in library code: return a typed error, or justify \
                     a documented contract panic with an allow annotation"
                        .into(),
                );
            }
            _ => {}
        }
    }
}

/// unsafe-audit: every `unsafe` keyword carries a nearby `// SAFETY:`
/// comment. Applies everywhere, tests included — a test exercising unsafe
/// code needs the argument just as much.
fn lint_unsafe_audit(file: &SourceFile<'_>, out: &mut Vec<Violation>) {
    let has_safety_near = |line: u32| {
        file.tokens.iter().any(|t| {
            t.comment().is_some_and(|c| c.contains("SAFETY:"))
                && t.line + 3 >= line
                && t.line <= line
        })
    };
    for tok in file.code_tokens() {
        if tok.ident() == Some("unsafe") && !has_safety_near(tok.line) {
            push(
                out,
                file,
                tok.line,
                "unsafe-audit",
                "`unsafe` without an adjacent `// SAFETY:` comment: state the \
                 invariant that makes this sound (same line or up to three \
                 lines above)"
                    .into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> (Vec<Violation>, usize) {
        let f = SourceFile::parse(path, src);
        audit_file(&f)
    }

    #[test]
    fn hashmap_on_deterministic_path_is_flagged_with_location() {
        let (v, _) = run(
            "crates/ilp/src/presolve.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        assert_eq!(v.len(), 3, "{v:?}");
        assert_eq!(v[0].lint, "determinism");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        assert!(v[0].message.contains("BTreeMap"));
    }

    #[test]
    fn hashmap_off_deterministic_path_is_clean() {
        let (v, _) = run(
            "crates/core/src/eviction.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn instant_now_flagged_but_stored_instant_is_not() {
        let (v, _) = run(
            "crates/obs/src/span.rs",
            "use std::time::Instant;\nfn f(s: Instant) -> u64 { s.elapsed().as_micros() as u64 }\nfn g() { let t = Instant::now(); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn test_region_is_exempt_from_determinism() {
        let (v, _) = run(
            "crates/ilp/src/presolve.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_msr_token_outside_uncore_is_flagged() {
        let (v, _) = run(
            "crates/core/src/mapper.rs",
            "use coremap_uncore::msr::{unit_ctl, UNIT_CTL_FREEZE};\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.lint == "backend-discipline"));
    }

    #[test]
    fn raw_msr_token_in_driver_paths_is_fine() {
        // The PMON programming layer and the backend wrappers are the
        // designated consumers of the register map.
        for path in [
            "crates/core/src/monitor.rs",
            "crates/core/src/backend/replay.rs",
        ] {
            let (v, _) = run(path, "fn f() { let a = UNIT_CTL_FREEZE; }\n");
            assert!(v.is_empty(), "{path}: {v:?}");
        }
    }

    #[test]
    fn raw_msr_token_inside_uncore_is_fine() {
        let (v, _) = run(
            "crates/uncore/src/machine.rs",
            "fn f() { let a = UNIT_CTL_FREEZE; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn library_unwrap_flagged_binary_unwrap_not() {
        let src = "fn f() { std::fs::read(\"x\").unwrap(); }\n";
        let (v, _) = run("crates/core/src/mapper.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "panic-safety");
        let (v, _) = run("crates/cli/src/main.rs", src);
        assert!(v.is_empty());
    }

    #[test]
    fn lock_unwrap_gets_the_poison_message() {
        let (v, _) = run(
            "crates/fleet/src/runner.rs",
            "fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("lock_clean"), "{}", v[0].message);
    }

    #[test]
    fn unwrap_or_else_and_unwrap_or_default_are_not_unwrap() {
        let (v, _) = run(
            "crates/fleet/src/runner.rs",
            "fn f(m: std::sync::Mutex<u32>) -> u32 { m.into_inner().unwrap_or_else(|e| e.into_inner()) }\nfn g(o: Option<u32>) -> u32 { o.unwrap_or_default() }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let (v, _) = run(
            "crates/core/src/mapper.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "unsafe-audit");
    }

    #[test]
    fn unsafe_with_safety_comment_is_fine() {
        let (v, _) = run(
            "crates/core/src/mapper.rs",
            "// SAFETY: p is non-null and points into the pinned buffer.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn well_formed_suppression_waives_and_counts() {
        let (v, suppressed) = run(
            "crates/ilp/src/presolve.rs",
            "// audit: allow(determinism): scratch map, drained via sorted keys below\nuse std::collections::HashMap;\n",
        );
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn suppression_without_justification_is_malformed_and_waives_nothing() {
        let (v, suppressed) = run(
            "crates/ilp/src/presolve.rs",
            "use std::collections::HashMap; // audit: allow(determinism)\n",
        );
        assert_eq!(suppressed, 0);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.lint == "determinism"));
        assert!(v.iter().any(|x| x.lint == "malformed-suppression"));
    }

    #[test]
    fn unknown_lint_name_is_malformed() {
        let (v, _) = run(
            "crates/ilp/src/presolve.rs",
            "fn f() {} // audit: allow(determinizm): typo\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "malformed-suppression");
        assert!(v[0].message.contains("determinizm"));
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let (v, _) = run(
            "crates/ilp/src/presolve.rs",
            "fn f() {} // audit: allow(determinism): left over from a refactor\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "unused-suppression");
    }

    #[test]
    fn suppression_of_wrong_lint_does_not_waive() {
        let (v, _) = run(
            "crates/ilp/src/presolve.rs",
            "use std::collections::HashMap; // audit: allow(panic-safety): wrong lint\n",
        );
        // The determinism hit survives AND the annotation is unused.
        assert!(v.iter().any(|x| x.lint == "determinism"), "{v:?}");
        assert!(v.iter().any(|x| x.lint == "unused-suppression"), "{v:?}");
    }

    #[test]
    fn fixtures_are_never_linted() {
        let (v, _) = run(
            "crates/audit/tests/fixtures/bad.rs",
            "use std::collections::HashMap;\nfn f() { x.unwrap(); unsafe {} }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_order_allow_waives_an_injected_cross_file_candidate() {
        // The cross-file pass injects its candidates before
        // `apply_suppressions`; an `allow(lock-order)` covering the
        // flagged line must waive it like any per-file lint.
        let src = "fn f(a: &A) {\n    // audit: allow(lock-order): replay shows these serialize\n    a.hot.lock();\n}\n";
        let file = SourceFile::parse("crates/fleet/src/x.rs", src);
        let mut candidates = file_candidates(&file);
        candidates.push(Violation {
            file: "crates/fleet/src/x.rs".to_owned(),
            line: 3,
            lint: "lock-order",
            message: "lock-order cycle: synthetic".to_owned(),
        });
        let (v, suppressed) = apply_suppressions(&file, candidates);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unused_lock_order_allow_fails_the_unused_suppression_meta_lint() {
        let (v, suppressed) = run(
            "crates/fleet/src/x.rs",
            "// audit: allow(lock-order): speculative, nothing flagged here\nfn quiet() {}\n",
        );
        assert_eq!(suppressed, 0);
        assert!(
            v.iter()
                .any(|x| x.lint == "unused-suppression" && x.message.contains("lock-order")),
            "{v:?}"
        );
    }
}
