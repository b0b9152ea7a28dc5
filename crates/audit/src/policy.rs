//! Path policy: which lints apply where.
//!
//! Every lint is scoped: determinism matters on the paths whose output
//! must be byte-identical across runs (the solver, the geometry layer,
//! the metrics export, replay), backend discipline matters everywhere
//! *except* the crate that owns the raw machine model, panic-safety
//! matters in library code that production callers link against. This
//! module is the single source of truth for those scopes — changing a
//! policy is a one-line diff reviewed like any other invariant change.

/// How a file participates in the build, coarse-grained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeKind {
    /// Library code production callers link against.
    Library,
    /// Binary / tool / experiment-harness code.
    Binary,
    /// Integration tests (`tests/`), benches, examples.
    TestOrHarness,
    /// Audit fixtures: never linted as workspace code.
    Fixture,
}

/// The workspace crates whose `src/` is library code for panic-safety
/// purposes. `cli`, `bench` and `audit` are tools: a tool may abort on a
/// broken invariant, a library must return an error.
const LIBRARY_CRATES: [&str; 7] = ["mesh", "obs", "uncore", "ilp", "thermal", "core", "fleet"];

/// Paths whose non-test code must be deterministic: byte-identical
/// record→replay and run-to-run metric exports depend on them. Matched by
/// prefix against `/`-separated workspace-relative paths.
///
/// * `crates/ilp/src` — the solver: constraint order decides pivot order.
/// * `crates/mesh/src` — geometry and ID types used in solver keys.
/// * `crates/core/src/ilp_model.rs` — constraint emission (PR 3 bug class).
/// * `crates/obs/src` — the deterministic metrics export itself.
/// * `crates/core/src/backend/replay.rs`, `trace.rs` — replay must issue
///   the recorded operations in the recorded order.
/// * `crates/core/src/topology_select.rs` — hypothesis scoring order and
///   tie-breaking decide which topology a fleet record reports.
/// * `crates/core/src/signature.rs` — the content address of a campaign:
///   any nondeterminism here silently splits or merges cache entries.
/// * `crates/fleet/src/cache.rs`, `db.rs`, `campaign.rs` — the
///   single-flight cache, the persistent database (byte-identical
///   save→load→save) and the campaign's instance-order accounting behind
///   the `fleet.cache.*` metrics.
/// * `crates/fleet/src/runner.rs` — the worker pool: results must merge
///   in instance order whatever the schedule; per-worker job counts are
///   volatile-only, so any new wall-clock or ordering leak here needs a
///   justified annotation.
/// * `crates/fleet/src/serve.rs` — the daemon: campaign accounting under
///   concurrent clients must stay byte-identical; request latency is
///   volatile-only by design.
const DETERMINISTIC_PATHS: [&str; 13] = [
    "crates/ilp/src",
    "crates/mesh/src",
    "crates/core/src/ilp_model.rs",
    "crates/core/src/signature.rs",
    "crates/obs/src",
    "crates/core/src/backend/replay.rs",
    "crates/core/src/backend/trace.rs",
    "crates/core/src/topology_select.rs",
    "crates/fleet/src/cache.rs",
    "crates/fleet/src/db.rs",
    "crates/fleet/src/campaign.rs",
    "crates/fleet/src/runner.rs",
    "crates/fleet/src/serve.rs",
];

/// The crate owning the raw MSR/PMON machine model. Only files under this
/// prefix may mention raw register-map tokens without an annotation.
const BACKEND_OWNER: &str = "crates/uncore/src";

/// Driver-layer paths sitting *at or below* the `MachineBackend` seam.
/// These are the designated consumers of the raw register map — the PMON
/// programming layer that turns symbolic events into control-register
/// writes, and the backend wrappers (record/replay/fault) that implement
/// the trait itself and must decode the operations they intercept. Raw
/// MSR/PMON tokens here are the mechanism working as designed, not a
/// discipline leak; everywhere else they need a justified annotation.
const BACKEND_DRIVER_PATHS: [&str; 2] = ["crates/core/src/monitor.rs", "crates/core/src/backend/"];

/// Classifies a workspace-relative path.
pub fn code_kind(path: &str) -> CodeKind {
    if path.split('/').any(|seg| seg == "fixtures") {
        return CodeKind::Fixture;
    }
    if path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
    {
        return CodeKind::TestOrHarness;
    }
    for name in LIBRARY_CRATES {
        if path.starts_with(&format!("crates/{name}/src")) {
            return CodeKind::Library;
        }
    }
    if path.starts_with("src/") && !path.starts_with("src/bin") {
        // The umbrella `core-map` library crate at the workspace root.
        return CodeKind::Library;
    }
    CodeKind::Binary
}

/// Whether the determinism lint applies to `path`.
pub fn is_deterministic_path(path: &str) -> bool {
    DETERMINISTIC_PATHS.iter().any(|p| path.starts_with(p))
}

/// Whether `path` belongs to the backend-owner crate (raw MSR/PMON tokens
/// allowed) or a designated driver path at the `MachineBackend` seam.
pub fn is_backend_owner(path: &str) -> bool {
    path.starts_with(BACKEND_OWNER) || BACKEND_DRIVER_PATHS.iter().any(|p| path.starts_with(p))
}

/// Whether the panic-safety lint applies to `path` (library code only;
/// test regions are excluded separately, per line).
pub fn panic_safety_applies(path: &str) -> bool {
    code_kind(path) == CodeKind::Library
}

/// Whether the cross-file concurrency lints (`lock-order`,
/// `condvar-discipline`) extract functions from `path`. Library code
/// only: tools and harnesses may serialize however they like — only the
/// lock graph production callers link against must be cycle-free.
pub fn concurrency_applies(path: &str) -> bool {
    code_kind(path) == CodeKind::Library
}

/// Whether the `determinism-taint` lint collects recorder sites from
/// `path`. Library code only, same scope as the concurrency lints: the
/// volatile/deterministic metric split is a library-level contract.
pub fn taint_applies(path: &str) -> bool {
    code_kind(path) == CodeKind::Library
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_vs_tool_vs_test_classification() {
        assert_eq!(code_kind("crates/core/src/mapper.rs"), CodeKind::Library);
        assert_eq!(code_kind("crates/fleet/src/runner.rs"), CodeKind::Library);
        assert_eq!(code_kind("src/lib.rs"), CodeKind::Library);
        assert_eq!(code_kind("crates/cli/src/main.rs"), CodeKind::Binary);
        assert_eq!(
            code_kind("crates/bench/src/bin/robustness.rs"),
            CodeKind::Binary
        );
        assert_eq!(code_kind("crates/audit/src/lints.rs"), CodeKind::Binary);
        assert_eq!(
            code_kind("crates/core/tests/reconstruction_props.rs"),
            CodeKind::TestOrHarness
        );
        assert_eq!(code_kind("tests/end_to_end.rs"), CodeKind::TestOrHarness);
        assert_eq!(
            code_kind("crates/audit/tests/fixtures/bad.rs"),
            CodeKind::Fixture
        );
    }

    #[test]
    fn deterministic_scope_covers_solver_metrics_replay() {
        assert!(is_deterministic_path("crates/ilp/src/presolve.rs"));
        assert!(is_deterministic_path("crates/mesh/src/ids.rs"));
        assert!(is_deterministic_path("crates/core/src/ilp_model.rs"));
        assert!(is_deterministic_path("crates/obs/src/json.rs"));
        assert!(is_deterministic_path("crates/core/src/backend/replay.rs"));
        assert!(is_deterministic_path("crates/core/src/topology_select.rs"));
        // The fleet runner and the serve daemon joined the scope when
        // their deterministic accounting guarantees landed.
        assert!(is_deterministic_path("crates/fleet/src/runner.rs"));
        assert!(is_deterministic_path("crates/fleet/src/serve.rs"));
        assert!(!is_deterministic_path("crates/core/src/mapper.rs"));
        assert!(!is_deterministic_path("crates/uncore/src/machine.rs"));
    }

    #[test]
    fn backend_owner_is_uncore_src_plus_driver_paths() {
        assert!(is_backend_owner("crates/uncore/src/msr.rs"));
        assert!(!is_backend_owner("crates/uncore/tests/msr_fuzz.rs"));
        // The PMON programming layer and the trait-implementing wrappers
        // are designated drivers.
        assert!(is_backend_owner("crates/core/src/monitor.rs"));
        assert!(is_backend_owner("crates/core/src/backend/replay.rs"));
        assert!(is_backend_owner("crates/core/src/backend/record.rs"));
        // The mapping pipeline proper is not.
        assert!(!is_backend_owner("crates/core/src/mapper.rs"));
        assert!(!is_backend_owner("crates/fleet/src/runner.rs"));
    }
}
