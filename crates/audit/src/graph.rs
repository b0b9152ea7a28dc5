//! Cross-file concurrency extraction: function items, lock / wait /
//! notify events, and the workspace-wide lock-order graph built on them.
//!
//! This pass stays at the token level (the [`crate::lexer`] stream) like
//! every other audit lint — it is *not* a type checker. It recognizes the
//! workspace's own locking idioms:
//!
//! * raw `mutex.lock()` sites, and the poison-tolerant guard-returning
//!   helpers (the free functions `lock_clean` and `lock_db`, the method
//!   `Registry::lock`): any same-file `fn` whose name contains `lock` and
//!   whose body takes a lock on `self.<field>` or on a parameter is
//!   treated as a helper, so *calling* it acquires the underlying mutex;
//! * guard bindings (`let g = lock_clean(&self.state);`) hold to the end
//!   of the enclosing block, to an explicit `drop(g)`, or to rebinding;
//!   `match` / `if let` / `while let` scrutinee guards hold to the end of
//!   the construct (edition-2021 temporary lifetime extension); bare
//!   expression statements hold only to the `;`;
//! * `Condvar` `wait*()` / `notify_*()` sites, with their loop context
//!   and whether an acquisition precedes the notify.
//!
//! From the per-function event streams it computes each function's
//! *transitive* concrete lock set (a call-graph fixpoint) and emits
//! held→acquired [`LockEdge`]s; cycles in that edge set — including
//! self-edges — are the `lock-order` lint's findings.
//!
//! Three deliberate precision rules keep the pass quiet on correct code:
//! method calls whose receiver is a *held guard binding* are skipped
//! (operating on guarded data is not a second acquisition), calls to the
//! enclosing function's own name are skipped (`Registry::merge` calling
//! `Histogram::merge` is dispatch, not recursion into the lock), and
//! callee names with more than [`MAX_CALLEE_DEFS`] definitions in the
//! workspace (`new`, `len`, ...) are never resolved — a union over every
//! `fn new` would manufacture edges no execution can take.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Token, TokenKind};
use crate::policy;
use crate::source::SourceFile;

/// A concrete lock identity: the mutex-bearing field (or static / local
/// receiver), keyed by the file that acquires it. Token-level analysis
/// cannot see types, so "same field name in the same file" is the
/// identity — which matches the workspace, where every mutex is a named
/// struct field acquired through its own module.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockId {
    /// Workspace-relative path of the acquiring module.
    pub file: String,
    /// The receiver field / binding the mutex lives in.
    pub field: String,
}

impl LockId {
    /// Short display form: `cache.rs::state`.
    pub fn short(&self) -> String {
        let file = self.file.rsplit('/').next().unwrap_or(&self.file);
        format!("{file}::{}", self.field)
    }
}

/// One concurrency-relevant event inside a function body, in token order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A lock acquisition (raw `.lock()` or a guard-returning helper).
    Acquire {
        /// 1-based source line of the acquisition.
        line: u32,
        /// Concrete locks taken here (empty when the mutex is an
        /// unresolvable parameter — the hold is still tracked).
        locks: Vec<LockId>,
        /// Concrete locks already held when this acquisition runs.
        held: Vec<LockId>,
    },
    /// A call to another workspace function, with the holds at the site.
    Call {
        /// 1-based source line of the call.
        line: u32,
        /// Callee name (resolved by name against the workspace).
        callee: String,
        /// Concrete locks held across the call.
        held: Vec<LockId>,
    },
    /// A `Condvar::wait*` site.
    Wait {
        /// 1-based source line.
        line: u32,
        /// Whether the wait sits inside a `loop` / `while` / `for` body.
        in_loop: bool,
    },
    /// A `Condvar::notify_one` / `notify_all` site.
    Notify {
        /// 1-based source line.
        line: u32,
        /// Which notify method was called.
        method: String,
    },
}

/// One function item with its extracted event stream.
#[derive(Debug)]
pub struct FnInfo {
    /// The function's name (no path qualification — resolution is by
    /// name with an ambiguity cap).
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Concurrency events in body token order.
    pub events: Vec<Event>,
    /// Transitive concrete locks this function may acquire (filled by
    /// the call-graph fixpoint in [`WorkspaceGraph::build`]).
    pub acquires: BTreeSet<LockId>,
}

/// A held→acquired edge in the lock-order graph, with its source site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The lock already held.
    pub from: LockId,
    /// The lock acquired while `from` is held.
    pub to: LockId,
    /// File of the acquiring site.
    pub file: String,
    /// 1-based line of the acquiring site.
    pub line: u32,
    /// The callee that performs the acquisition, when the edge flows
    /// through a call rather than a direct `.lock()`.
    pub via: Option<String>,
}

/// The workspace concurrency graph: every library function's event
/// stream plus the derived lock-order edges.
#[derive(Debug, Default)]
pub struct WorkspaceGraph {
    /// Extracted functions (library code outside test regions only).
    pub fns: Vec<FnInfo>,
    /// Lock-order edges, deduplicated and sorted.
    pub edges: Vec<LockEdge>,
}

/// Callee names with more definitions than this are never resolved.
pub const MAX_CALLEE_DEFS: usize = 2;

/// Keywords that can precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "fn", "move", "ref", "mut",
];

/// Std iterator / collection / Option methods that are never treated as
/// workspace dispatch when called with method syntax: `span.map(..)` is
/// `Iterator::map`, not whichever workspace fn happens to be named
/// `map`. Resolving these by bare name fabricates call edges.
const STD_METHODS: [&str; 52] = [
    "all",
    "and_then",
    "any",
    "chain",
    "clone",
    "cloned",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "or_else",
    "parse",
    "peek",
    "peekable",
    "pop",
    "position",
    "push",
    "remove",
    "retain",
    "rev",
    "skip",
    "sort",
    "take",
    "unwrap_or",
    "values",
    "zip",
];

/// How a guard-returning lock helper maps a call to a mutex.
#[derive(Debug, Clone)]
enum HelperKind {
    /// Always locks one concrete mutex (e.g. `Registry::lock` →
    /// `self.metrics`).
    Concrete(LockId),
    /// Locks whichever mutex is passed at this parameter position
    /// (e.g. `lock_clean(&self.state)`).
    Param(usize),
}

impl WorkspaceGraph {
    /// Builds the graph over `files`. Only files in
    /// [`policy::concurrency_applies`] scope contribute functions; test
    /// regions inside them are skipped.
    pub fn build(files: &[SourceFile<'_>]) -> Self {
        let mut fns = Vec::new();
        for file in files {
            if !policy::concurrency_applies(&file.path) {
                continue;
            }
            extract_file(file, &mut fns);
        }

        // Name → definition indices, for by-name call resolution.
        let mut defs: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            defs.entry(f.name.clone()).or_default().push(i);
        }

        // Fixpoint: each function's transitive concrete lock set.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..fns.len() {
                let mut gained: Vec<LockId> = Vec::new();
                for ev in &fns[i].events {
                    match ev {
                        Event::Acquire { locks, .. } => {
                            gained.extend(locks.iter().cloned());
                        }
                        Event::Call { callee, .. } => {
                            if let Some(targets) = resolvable(&defs, callee) {
                                gained.extend(must_acquire(&fns, targets));
                            }
                        }
                        _ => {}
                    }
                }
                for l in gained {
                    changed |= fns[i].acquires.insert(l);
                }
            }
        }

        // Edge emission: every (held, acquired) pair at its site.
        let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
        for f in &fns {
            for ev in &f.events {
                match ev {
                    Event::Acquire { line, locks, held } => {
                        for from in held {
                            for to in locks {
                                edges.insert(LockEdge {
                                    from: from.clone(),
                                    to: to.clone(),
                                    file: f.file.clone(),
                                    line: *line,
                                    via: None,
                                });
                            }
                        }
                    }
                    Event::Call { line, callee, held } => {
                        if held.is_empty() {
                            continue;
                        }
                        let Some(targets) = resolvable(&defs, callee) else {
                            continue;
                        };
                        let acquired = must_acquire(&fns, targets);
                        for from in held {
                            for to in &acquired {
                                edges.insert(LockEdge {
                                    from: from.clone(),
                                    to: to.clone(),
                                    file: f.file.clone(),
                                    line: *line,
                                    via: Some(callee.clone()),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        Self {
            fns,
            edges: edges.into_iter().collect(),
        }
    }

    /// Edges that participate in a lock-order cycle (including
    /// self-edges), each paired with a human-readable cycle description.
    pub fn cycle_edges(&self) -> Vec<(&LockEdge, String)> {
        // Adjacency over lock nodes.
        let mut adj: BTreeMap<&LockId, BTreeSet<&LockId>> = BTreeMap::new();
        for e in &self.edges {
            adj.entry(&e.from).or_default().insert(&e.to);
        }
        let mut out = Vec::new();
        for e in &self.edges {
            if e.from == e.to {
                out.push((
                    e,
                    format!(
                        "{0} -> {0} (re-acquired while already held)",
                        e.from.short()
                    ),
                ));
                continue;
            }
            // The edge closes a cycle iff `from` is reachable from `to`.
            if let Some(path) = shortest_path(&adj, &e.to, &e.from) {
                let mut desc: Vec<String> = std::iter::once(e.from.short())
                    .chain(path.iter().map(|l| l.short()))
                    .collect();
                desc.push(e.from.short());
                out.push((e, desc.join(" -> ")));
            }
        }
        out
    }
}

/// Resolves `callee` to definition indices unless absent or too
/// ambiguous to trust.
fn resolvable<'d>(defs: &'d BTreeMap<String, Vec<usize>>, callee: &str) -> Option<&'d Vec<usize>> {
    defs.get(callee).filter(|v| v.len() <= MAX_CALLEE_DEFS)
}

/// Locks a call to any of `targets` must acquire: the *intersection*
/// over the candidate definitions. With an ambiguous (2-def) name the
/// union would charge the caller with locks only one candidate takes —
/// `sol.stats()` is not the daemon's db-locking `stats` — while the
/// intersection is sound whichever definition the call dispatches to.
fn must_acquire(fns: &[FnInfo], targets: &[usize]) -> Vec<LockId> {
    let mut iter = targets.iter().map(|&t| &fns[t].acquires);
    let Some(first) = iter.next() else {
        return Vec::new();
    };
    let mut inter: Vec<LockId> = first.iter().cloned().collect();
    for set in iter {
        inter.retain(|l| set.contains(l));
    }
    inter
}

/// BFS shortest path from `start` to `goal`; returns the node list
/// `start..=goal` when reachable.
fn shortest_path<'g>(
    adj: &BTreeMap<&'g LockId, BTreeSet<&'g LockId>>,
    start: &'g LockId,
    goal: &LockId,
) -> Option<Vec<&'g LockId>> {
    let mut prev: BTreeMap<&LockId, &LockId> = BTreeMap::new();
    let mut queue: VecDeque<&LockId> = VecDeque::new();
    queue.push_back(start);
    let mut seen: BTreeSet<&LockId> = BTreeSet::new();
    seen.insert(start);
    while let Some(node) = queue.pop_front() {
        if node == goal {
            let mut path = vec![node];
            let mut cur = node;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(node).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// A function item's token-range skeleton, pre-extraction.
struct FnItem {
    name: String,
    line: u32,
    params: Vec<String>,
    /// Code-token index of the body `{`; `None` for bodyless decls.
    body: Option<(usize, usize)>,
    /// Code-token index of the `fn` keyword (for nested-fn skipping).
    kw: usize,
}

/// An active guard at a point in the linear scan.
struct Hold {
    locks: Vec<LockId>,
    /// Code-token index past which the guard is dead.
    end: usize,
    /// Binding name, when the guard was bound (`let g = ...`).
    guard: Option<String>,
}

fn ident_at<'a>(code: &[&Token<'a>], i: usize) -> Option<&'a str> {
    code.get(i).and_then(|t| t.ident())
}

fn punct_at(code: &[&Token<'_>], i: usize, c: char) -> bool {
    code.get(i).is_some_and(|t| t.is_punct(c))
}

/// Ident-or-number text, for receiver chains like `self.0.lock()`.
fn chain_part<'a>(t: &Token<'a>) -> Option<&'a str> {
    match t.kind {
        TokenKind::Ident(s) | TokenKind::Number(s) => Some(s),
        _ => None,
    }
}

/// Extracts every non-test function of `file` into `fns`.
fn extract_file(file: &SourceFile<'_>, fns: &mut Vec<FnInfo>) {
    let code: Vec<&Token<'_>> = file.code_tokens().collect();
    let items = find_fn_items(&code);
    let (brace_open, brace_close) = match_pairs(&code, '{', '}');
    let (paren_close, _) = match_pairs(&code, '(', ')');

    // Guard-returning helper table: same-file `fn *lock*` whose body
    // locks `self.<field>` or a parameter.
    let mut helpers: BTreeMap<&str, HelperKind> = BTreeMap::new();
    for item in &items {
        if !item.name.contains("lock") {
            continue;
        }
        let Some((b0, b1)) = item.body else { continue };
        for i in b0..b1 {
            if ident_at(&code, i) != Some("lock")
                || !punct_at(&code, i - 1, '.')
                || !punct_at(&code, i + 1, '(')
            {
                continue;
            }
            let chain = receiver_chain(&code, i - 1);
            match chain.as_slice() {
                [receiver, field] if receiver == "self" => {
                    helpers.insert(
                        item.name.as_str(),
                        HelperKind::Concrete(LockId {
                            file: file.path.clone(),
                            field: field.clone(),
                        }),
                    );
                }
                [p] => {
                    if let Some(pos) = item.params.iter().position(|q| q == p) {
                        helpers.insert(item.name.as_str(), HelperKind::Param(pos));
                    }
                }
                _ => {}
            }
            break;
        }
    }

    // Nested-fn skip list: body token ranges of every item, so an outer
    // item's scan can jump over inner `fn` definitions.
    let nested: Vec<(usize, usize)> = items
        .iter()
        .filter_map(|it| it.body.map(|(_, b1)| (it.kw, b1)))
        .collect();

    for item in &items {
        if file.in_test_region(item.line) || helpers.contains_key(item.name.as_str()) {
            continue;
        }
        let Some((b0, b1)) = item.body else { continue };
        let events = extract_events(ExtractCtx {
            file,
            code: &code,
            brace_open: &brace_open,
            brace_close: &brace_close,
            paren_close: &paren_close,
            helpers: &helpers,
            nested: &nested,
            item,
            body: (b0, b1),
        });
        fns.push(FnInfo {
            name: item.name.clone(),
            file: file.path.clone(),
            line: item.line,
            events,
            acquires: BTreeSet::new(),
        });
    }
}

/// Everything [`extract_events`] needs about the surrounding file.
struct ExtractCtx<'c, 'a> {
    file: &'c SourceFile<'a>,
    code: &'c [&'c Token<'a>],
    brace_open: &'c BTreeMap<usize, usize>,
    brace_close: &'c BTreeMap<usize, usize>,
    paren_close: &'c BTreeMap<usize, usize>,
    helpers: &'c BTreeMap<&'c str, HelperKind>,
    nested: &'c [(usize, usize)],
    item: &'c FnItem,
    body: (usize, usize),
}

/// Finds `fn` items: name, parameter names, and body token range.
fn find_fn_items(code: &[&Token<'_>]) -> Vec<FnItem> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if ident_at(code, i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(code, i + 1) else {
            i += 1; // `fn(...)` pointer type
            continue;
        };
        let line = code[i].line;
        let kw = i;
        let mut j = i + 2;
        // Skip generic parameters `<...>`.
        if punct_at(code, j, '<') {
            let mut depth = 0i32;
            while j < code.len() {
                if punct_at(code, j, '<') {
                    depth += 1;
                } else if punct_at(code, j, '>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !punct_at(code, j, '(') {
            i = j;
            continue;
        }
        // Parameter list: split at top-level commas; each segment's
        // first ident that is not `mut` is the binding name.
        let open = j;
        let mut depth = 0i32;
        let mut params = Vec::new();
        let mut seg_named = false;
        while j < code.len() {
            let t = code[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
                depth -= 1;
                if depth == 0 && t.is_punct(')') {
                    break;
                }
            } else if t.is_punct(',') && depth == 1 {
                seg_named = false;
            } else if depth == 1 && !seg_named {
                if let Some(id) = t.ident() {
                    if id != "mut" {
                        params.push(id.to_string());
                        seg_named = true;
                    }
                }
            }
            j += 1;
        }
        let close = j;
        // Body: first `{` before any `;` after the signature.
        let mut k = close + 1;
        let mut body = None;
        while k < code.len() {
            if punct_at(code, k, '{') {
                // Matching close via a local scan (the global map is
                // built by the caller; keep this self-contained).
                let mut d = 0i32;
                let mut m = k;
                while m < code.len() {
                    if punct_at(code, m, '{') {
                        d += 1;
                    } else if punct_at(code, m, '}') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                body = Some((k, m));
                break;
            }
            if punct_at(code, k, ';') {
                break;
            }
            k += 1;
        }
        items.push(FnItem {
            name: name.to_string(),
            line,
            params,
            body,
            kw,
        });
        i = open + 1;
    }
    items
}

/// Open→close and close→open match maps for one bracket pair.
fn match_pairs(
    code: &[&Token<'_>],
    open: char,
    close: char,
) -> (BTreeMap<usize, usize>, BTreeMap<usize, usize>) {
    let mut stack = Vec::new();
    let mut fwd = BTreeMap::new();
    let mut back = BTreeMap::new();
    for (i, t) in code.iter().enumerate() {
        if t.is_punct(open) {
            stack.push(i);
        } else if t.is_punct(close) {
            if let Some(o) = stack.pop() {
                fwd.insert(o, i);
                back.insert(i, o);
            }
        }
    }
    (fwd, back)
}

/// Walks the receiver chain ending at the `.` at `dot`: for
/// `self.ready.wait(g)` with `dot` on the final `.`, returns
/// `["self", "ready"]`. Returns an empty vec when the receiver is a call
/// result or otherwise not a plain ident chain.
fn receiver_chain(code: &[&Token<'_>], dot: usize) -> Vec<String> {
    let mut parts = Vec::new();
    let mut i = dot;
    loop {
        let Some(part) = code.get(i.wrapping_sub(1)).and_then(|t| chain_part(t)) else {
            return Vec::new(); // `foo().bar()` — receiver is a temporary
        };
        parts.push(part.to_string());
        if i >= 3 && punct_at(code, i - 2, '.') {
            i -= 2;
        } else {
            break;
        }
    }
    parts.reverse();
    parts
}

/// Statement-start index: the token after the nearest `;`, `{` or `}`
/// at or before `i`.
fn stmt_start(code: &[&Token<'_>], body_start: usize, i: usize) -> usize {
    let mut j = i;
    while j > body_start {
        let t = code[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return j;
        }
        j -= 1;
    }
    body_start + 1
}

/// Whether the `{` at `open` opens a loop body (`loop` / `while` /
/// `for` reached scanning back, skipping balanced parens).
fn brace_is_loop(
    code: &[&Token<'_>],
    paren_back: &BTreeMap<usize, usize>,
    body_start: usize,
    open: usize,
) -> bool {
    let mut j = open;
    let mut steps = 0;
    while j > body_start && steps < 64 {
        steps += 1;
        let k = j - 1;
        let t = code[k];
        if t.is_punct(')') {
            match paren_back.get(&k) {
                Some(&o) => {
                    j = o;
                    continue;
                }
                None => return false,
            }
        }
        if t.is_punct(';')
            || t.is_punct('{')
            || t.is_punct('}')
            || t.is_punct(',')
            || t.is_punct('(')
        {
            return false;
        }
        if matches!(t.ident(), Some("loop" | "while" | "for")) {
            return true;
        }
        j = k;
    }
    false
}

/// Scans one function body into its event stream.
#[allow(clippy::too_many_lines)]
fn extract_events(ctx: ExtractCtx<'_, '_>) -> Vec<Event> {
    let ExtractCtx {
        file,
        code,
        brace_open,
        brace_close,
        paren_close,
        helpers,
        nested,
        item,
        body: (b0, b1),
    } = ctx;
    // paren close→open map for the loop-classification back-scan.
    let paren_back: BTreeMap<usize, usize> = paren_close.iter().map(|(&o, &c)| (c, o)).collect();
    let mut events = Vec::new();
    let mut holds: Vec<Hold> = Vec::new();
    let mut open_stack: Vec<(usize, bool)> = vec![(b0, false)];
    let mut i = b0 + 1;
    while i < b1 {
        // Jump over nested fn items.
        if let Some(&(_, end)) = nested.iter().find(|&&(kw, _)| kw == i) {
            if i != item.kw {
                i = end + 1;
                continue;
            }
        }
        holds.retain(|h| h.end > i);
        let t = code[i];
        if t.is_punct('{') {
            let is_loop = brace_is_loop(code, &paren_back, b0, i);
            open_stack.push((i, is_loop));
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if open_stack.len() > 1 {
                open_stack.pop();
            }
            i += 1;
            continue;
        }
        let Some(id) = t.ident() else {
            i += 1;
            continue;
        };
        // `ident!(...)` macros are not calls.
        if punct_at(code, i + 1, '!') {
            i += 2;
            continue;
        }
        // `drop(g)` releases a guard early.
        if id == "drop" && punct_at(code, i + 1, '(') {
            if let Some(name) = ident_at(code, i + 2) {
                if punct_at(code, i + 3, ')') {
                    holds.retain(|h| h.guard.as_deref() != Some(name));
                }
            }
            i += 1;
            continue;
        }
        let is_call = punct_at(code, i + 1, '(');
        if !is_call {
            i += 1;
            continue;
        }
        let method = punct_at(code, i.wrapping_sub(1), '.');
        let held_now = |holds: &[Hold]| -> Vec<LockId> {
            let set: BTreeSet<LockId> =
                holds.iter().flat_map(|h| h.locks.iter().cloned()).collect();
            set.into_iter().collect()
        };

        // Condvar sites.
        if method && (id == "wait" || id.starts_with("wait_")) {
            if !item.name.starts_with("wait") {
                // A fn *named* wait* is a condvar wrapper: its callers
                // carry the loop obligation instead.
                events.push(Event::Wait {
                    line: t.line,
                    in_loop: open_stack.iter().any(|&(_, l)| l),
                });
            }
            i += 2;
            continue;
        }
        if method && (id == "notify_all" || id == "notify_one") {
            events.push(Event::Notify {
                line: t.line,
                method: id.to_string(),
            });
            i += 2;
            continue;
        }

        // Lock acquisitions: raw `.lock(` or a same-file helper call.
        let helper_call = helpers.get(id).filter(|_| id != item.name);
        let raw_lock = method && id == "lock";
        if raw_lock || helper_call.is_some() {
            let locks = if raw_lock {
                // Precedence: an explicit `self.<field>` receiver names
                // the mutex directly; only a non-self receiver defers to
                // a same-file `fn lock` helper; a bare parameter is
                // opaque (held, but carries no identity); otherwise the
                // last receiver ident is a best-effort identity.
                let chain = receiver_chain(code, i - 1);
                match (chain.as_slice(), helper_call) {
                    ([recv, rest @ ..], _) if recv == "self" && !rest.is_empty() => {
                        vec![LockId {
                            file: file.path.clone(),
                            field: rest.join("."),
                        }]
                    }
                    // `self.lock()` / chainless `.lock()` on a same-file
                    // guard-returning helper: resolve through the helper.
                    ([recv], Some(h)) if recv == "self" => {
                        helper_locks(file, code, paren_close, i, h, &item.params)
                    }
                    ([], Some(h)) => helper_locks(file, code, paren_close, i, h, &item.params),
                    ([p], _) if item.params.iter().any(|q| q == p) => Vec::new(),
                    ([.., last], _) => vec![LockId {
                        file: file.path.clone(),
                        field: last.clone(),
                    }],
                    ([], None) => Vec::new(),
                }
            } else if let Some(h) = helper_call {
                helper_locks(file, code, paren_close, i, h, &item.params)
            } else {
                Vec::new()
            };
            events.push(Event::Acquire {
                line: t.line,
                locks: locks.clone(),
                held: held_now(&holds),
            });
            let (end, guard) = hold_extent(
                code,
                brace_open,
                brace_close,
                paren_close,
                &open_stack,
                b0,
                b1,
                i,
            );
            if end > i {
                // Rebinding a live guard name replaces the old hold.
                if let Some(name) = &guard {
                    holds.retain(|h| h.guard.as_deref() != Some(name));
                }
                holds.push(Hold { locks, end, guard });
            }
            i += 2;
            continue;
        }

        // Plain calls.
        if !method && NON_CALL_KEYWORDS.contains(&id) {
            i += 1;
            continue;
        }
        if id == item.name {
            i += 2; // self-recursion / sibling dispatch of the same name
            continue;
        }
        if method {
            let chain = receiver_chain(code, i - 1);
            // A temporary receiver (`lock_db(&self.db).get(..)`,
            // `.iter().collect()`) is a guard or adapter chain, not
            // cross-file dispatch: resolving `.get`/`.map`/`.collect` by
            // bare name to whichever workspace fn shares it fabricates
            // edges. Accept the false negative for precision.
            if chain.is_empty() {
                i += 2;
                continue;
            }
            if STD_METHODS.contains(&id) {
                i += 2; // `xs.map(..)` is Iterator::map, not workspace dispatch
                continue;
            }
            let on_guard = chain.first().is_some_and(|first| {
                holds
                    .iter()
                    .any(|h| h.guard.as_deref() == Some(first.as_str()))
            });
            if on_guard {
                i += 2; // operating on guarded data, not a new acquisition
                continue;
            }
        }
        events.push(Event::Call {
            line: t.line,
            callee: id.to_string(),
            held: held_now(&holds),
        });
        i += 2;
    }
    events
}

/// Resolves a helper call's locks: concrete helpers name their mutex,
/// param helpers take it from the argument at their position.
fn helper_locks(
    file: &SourceFile<'_>,
    code: &[&Token<'_>],
    paren_close: &BTreeMap<usize, usize>,
    call: usize,
    kind: &HelperKind,
    params: &[String],
) -> Vec<LockId> {
    match kind {
        HelperKind::Concrete(id) => vec![id.clone()],
        HelperKind::Param(pos) => {
            let open = call + 1;
            let Some(&close) = paren_close.get(&open) else {
                return Vec::new();
            };
            // Split the argument list at top-level commas.
            let mut depth = 0i32;
            let mut arg = 0usize;
            let mut seg: Vec<usize> = Vec::new();
            let mut found: Option<Vec<usize>> = None;
            for (j, &t) in code.iter().enumerate().take(close).skip(open + 1) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    if arg == *pos {
                        found = Some(seg.clone());
                        break;
                    }
                    arg += 1;
                    seg.clear();
                    continue;
                }
                seg.push(j);
            }
            if found.is_none() && arg == *pos {
                found = Some(seg);
            }
            let Some(arg_tokens) = found else {
                return Vec::new();
            };
            // `&self.state` → self.state; `&shards[worker]` → shards;
            // `m` (a parameter of the enclosing fn) → opaque.
            let idents: Vec<&str> = arg_tokens
                .iter()
                .filter_map(|&j| chain_part(code[j]))
                .collect();
            match idents.as_slice() {
                [recv, rest @ ..] if *recv == "self" && !rest.is_empty() => vec![LockId {
                    file: file.path.clone(),
                    field: rest.join("."),
                }],
                [p] if params.iter().any(|q| q == p) => Vec::new(),
                [first, ..] => vec![LockId {
                    file: file.path.clone(),
                    field: (*first).to_string(),
                }],
                [] => Vec::new(),
            }
        }
    }
}

/// Computes how long the guard from the acquisition at `site` lives:
/// `(end_token_index, binding_name)`.
#[allow(clippy::too_many_arguments)]
fn hold_extent(
    code: &[&Token<'_>],
    brace_open: &BTreeMap<usize, usize>,
    _brace_close: &BTreeMap<usize, usize>,
    paren_close: &BTreeMap<usize, usize>,
    open_stack: &[(usize, bool)],
    b0: usize,
    b1: usize,
    site: usize,
) -> (usize, Option<String>) {
    let start = stmt_start(code, b0, site);
    let head: Vec<&str> = code[start..site.min(start + 6)]
        .iter()
        .filter_map(|t| t.ident())
        .collect();
    let next_semi = |from: usize| -> usize {
        let mut d = 0i32;
        for (j, &t) in code.iter().enumerate().take(b1).skip(from) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d -= 1;
                if d < 0 {
                    return j;
                }
            } else if t.is_punct(';') && d == 0 {
                return j;
            }
        }
        b1
    };
    // `match` / `if let` / `while let` scrutinee: the guard temporary
    // lives to the end of the construct (edition-2021 rules).
    let scrutinee = head.first() == Some(&"match")
        || (head.first() == Some(&"if") && head.get(1) == Some(&"let"))
        || (head.first() == Some(&"while") && head.get(1) == Some(&"let"));
    if scrutinee {
        for (j, t) in code.iter().enumerate().take(b1).skip(site + 1) {
            if t.is_punct('{') {
                let end = brace_open.get(&j).copied().unwrap_or(b1);
                return (end, None);
            }
        }
        return (next_semi(site), None);
    }
    // Binding statements: `let [mut] NAME = ...` or `NAME = ...`.
    let binding = if code.get(start).and_then(|t| t.ident()) == Some("let") {
        let mut k = start + 1;
        if ident_at(code, k) == Some("mut") {
            k += 1;
        }
        code.get(k)
            .and_then(|t| t.ident())
            .filter(|_| punct_at(code, k + 1, '='))
    } else {
        code.get(start)
            .and_then(|t| t.ident())
            .filter(|_| punct_at(code, start + 1, '=') && !punct_at(code, start + 2, '='))
    };
    if let Some(name) = binding {
        if name == "_" {
            return (site, None); // `let _ = lock()` drops immediately
        }
        // Walk past the call and any poison adapters that still return
        // the guard; if the chain then continues with `.method()`, the
        // guard is a temporary for this statement only.
        let mut j = site + 1; // the `(`
        loop {
            let Some(&close) = paren_close.get(&j) else {
                return (next_semi(site), None);
            };
            if punct_at(code, close + 1, '.')
                && matches!(
                    ident_at(code, close + 2),
                    Some("unwrap" | "expect" | "unwrap_or_else")
                )
                && punct_at(code, close + 3, '(')
            {
                j = close + 3;
                continue;
            }
            if punct_at(code, close + 1, ';') {
                // A real guard binding: lives to the end of the
                // innermost enclosing block.
                let scope_open = open_stack.last().map_or(b0, |&(o, _)| o);
                let end = brace_open.get(&scope_open).copied().unwrap_or(b1);
                return (end, Some(name.to_string()));
            }
            return (next_semi(site), None);
        }
    }
    // Bare expression statement / condition: temporary to the `;` (or
    // the enclosing delimiter).
    (next_semi(site), None)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> WorkspaceGraph {
        let parsed: Vec<SourceFile<'_>> =
            files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        WorkspaceGraph::build(&parsed)
    }

    fn fn_named<'g>(g: &'g WorkspaceGraph, name: &str) -> &'g FnInfo {
        g.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn direct_nested_locks_emit_an_edge() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X { fn f(&self) { let g = self.a.lock(); self.b.lock(); } }\n",
        )]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].from.field, "a");
        assert_eq!(g.edges[0].to.field, "b");
    }

    #[test]
    fn drop_releases_the_guard_before_the_second_lock() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X { fn f(&self) { let g = self.a.lock(); drop(g); self.b.lock(); } }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn block_scope_ends_the_hold() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X { fn f(&self) { { let g = self.a.lock(); } self.b.lock(); } }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn temporary_lock_does_not_hold_across_statements() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X { fn f(&self) { self.a.lock().push(1); self.b.lock(); } }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn match_scrutinee_guard_holds_through_the_arms() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X { fn f(&self) { match self.a.lock().get() { Some(_) => { self.b.lock(); } None => {} } } }\n",
        )]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].from.field, "a");
    }

    #[test]
    fn cross_file_cycle_is_detected_through_calls() {
        let g = graph_of(&[
            (
                "crates/fleet/src/a.rs",
                "impl Alpha {\n fn go(&self, b: &Beta) { let g = self.m.lock(); poke_beta(b); }\n fn jab(&self) { let _g = self.m.lock(); }\n}\n",
            ),
            (
                "crates/obs/src/b.rs",
                "impl Beta {\n fn back(&self, a: &Alpha) { let g = self.n.lock(); jab_alpha(a); }\n}\nfn poke_beta(b: &Beta) { let _g = b.n.lock(); }\nfn jab_alpha(a: &Alpha) { a.jab(); }\n",
            ),
        ]);
        let cycles = g.cycle_edges();
        assert!(!cycles.is_empty(), "edges: {:?}", g.edges);
        assert!(
            cycles
                .iter()
                .any(|(e, _)| e.from.field == "m" || e.from.field == "n"),
            "{cycles:?}"
        );
    }

    #[test]
    fn guard_receiver_method_calls_are_not_reacquisitions() {
        // `g.is_empty()` where g guards self.state must not union the
        // unrelated `is_empty` below into a state->state self-loop.
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X {\n fn is_empty(&self) -> bool { let g = self.state.lock(); g.is_empty() }\n}\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert!(g.cycle_edges().is_empty());
    }

    #[test]
    fn same_name_dispatch_is_not_recursion_into_the_lock() {
        // Registry::merge holds `metrics` and calls Histogram::merge —
        // same name, different type. No metrics->metrics self-edge.
        let g = graph_of(&[(
            "crates/obs/src/r.rs",
            "impl Registry {\n fn merge(&self, other: &Registry) {\n  let mut map = self.metrics.lock();\n  a.merge(b);\n }\n}\nimpl Histogram { fn merge(&mut self, o: &H) { } }\n",
        )]);
        assert!(g.cycle_edges().is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn ambiguous_callee_names_are_not_resolved() {
        // Three `fn new` definitions, one of which locks: calling `new`
        // under a hold must not import its lock set.
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl A { fn new() -> A { A } }\nimpl B { fn new() -> B { B } }\nimpl C { fn new(&self) { self.q.lock(); } }\nimpl D { fn f(&self) { let g = self.p.lock(); new(); } }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn param_helper_substitutes_the_argument_mutex() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "fn lock_clean(m: &Mutex<u32>) -> MutexGuard<'_, u32> { m.lock().unwrap_or_else(|e| e.into_inner()) }\nimpl X { fn f(&self) { let g = lock_clean(&self.state); lock_clean(&self.other); } }\n",
        )]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].from.field, "state");
        assert_eq!(g.edges[0].to.field, "other");
    }

    #[test]
    fn method_helper_resolves_to_its_concrete_field() {
        let g = graph_of(&[(
            "crates/obs/src/r.rs",
            "impl R {\n fn lock(&self) -> G { self.metrics.lock().unwrap_or_else(|e| e.into_inner()) }\n fn f(&self) { let m = self.lock(); self.aux.lock(); }\n}\n",
        )]);
        assert_eq!(g.edges.len(), 1, "{:?}", g.edges);
        assert_eq!(g.edges[0].from.field, "metrics");
        assert_eq!(g.edges[0].to.field, "aux");
    }

    #[test]
    fn wait_sites_record_loop_context() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X {\n fn ok(&self) { let mut g = self.state.lock(); loop { g = self.cv.wait(g); } }\n fn bad(&self) { let g = self.state.lock(); let _ = self.cv.wait(g); }\n}\n",
        )]);
        let ok = fn_named(&g, "ok");
        assert!(ok
            .events
            .iter()
            .any(|e| matches!(e, Event::Wait { in_loop: true, .. })));
        let bad = fn_named(&g, "bad");
        assert!(bad
            .events
            .iter()
            .any(|e| matches!(e, Event::Wait { in_loop: false, .. })));
    }

    #[test]
    fn wait_wrapper_fns_are_exempt_and_callers_checked() {
        let g = graph_of(&[(
            "crates/ilp/src/x.rs",
            "impl S {\n fn wait(&self, g: G) -> G { self.cv.wait(g) }\n fn caller(&self) { let mut g = self.inner.lock(); while g.empty { g = spec.wait(g); } }\n}\n",
        )]);
        let wrapper = fn_named(&g, "wait");
        assert!(
            !wrapper
                .events
                .iter()
                .any(|e| matches!(e, Event::Wait { .. })),
            "wrapper body exempt"
        );
        let caller = fn_named(&g, "caller");
        assert!(caller
            .events
            .iter()
            .any(|e| matches!(e, Event::Wait { in_loop: true, .. })));
    }

    #[test]
    fn notify_and_acquire_events_are_ordered() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X { fn publish(&self) { self.state.lock().insert(1); self.cv.notify_all(); } }\n",
        )]);
        let f = fn_named(&g, "publish");
        let acq = f
            .events
            .iter()
            .position(|e| matches!(e, Event::Acquire { .. }));
        let not = f
            .events
            .iter()
            .position(|e| matches!(e, Event::Notify { .. }));
        assert!(acq.unwrap() < not.unwrap(), "{:?}", f.events);
    }

    #[test]
    fn test_regions_and_non_library_files_are_skipped() {
        let g = graph_of(&[
            (
                "crates/fleet/src/x.rs",
                "#[cfg(test)]\nmod tests { fn f(a: &A) { let g = a.m.lock(); a.n.lock(); } }\n",
            ),
            (
                "crates/cli/src/main.rs",
                "fn f(a: &A) { let g = a.m.lock(); a.n.lock(); }\n",
            ),
        ]);
        assert!(g.fns.is_empty(), "{:?}", g.fns);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn self_edge_is_reported_as_a_cycle() {
        let g = graph_of(&[(
            "crates/fleet/src/x.rs",
            "impl X { fn f(&self) { let g = self.a.lock(); self.a.lock(); } }\n",
        )]);
        let cycles = g.cycle_edges();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].1.contains("re-acquired"));
    }

    #[test]
    fn rebinding_a_guard_replaces_the_old_hold() {
        // worker-loop idiom: drop, then re-arm the same binding.
        let g = graph_of(&[(
            "crates/ilp/src/x.rs",
            "impl S { fn f(&self) { let mut g = self.inner.lock(); drop(g); step(); g = self.inner.lock(); } }\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }
}
