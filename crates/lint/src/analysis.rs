//! Function-level analysis: tokenizing scanned code, tracking lock-guard
//! liveness through each function body, propagating may-acquire /
//! may-do-I/O facts across same-file calls, and building the workspace
//! lock-order graph.
//!
//! This backs rules **HL003** (guards held across file I/O or across a
//! second lock acquisition, plus lock-order cycle detection), **HL004**
//! (panic-capable operations while a guard is live, which would poison
//! a `std::sync` lock), and **HL006** (a condvar `wait`/`wait_timeout`
//! must sit inside a loop that re-checks its predicate and must rebind
//! the reacquired guard — spurious-wakeup discipline).
//!
//! Approximations (documented in README): calls are resolved to
//! functions *in the same file* by name (method receivers are not
//! typed); a handful of ubiquitous collection-method names are never
//! resolved; `match` scrutinee temporaries are considered dead at the
//! opening brace. All approximations favor silence over noise — the
//! fixture tests pin the behaviors we rely on.

use std::collections::{BTreeMap, BTreeSet};

use crate::report::Finding;
use crate::scanner::ScannedFile;

/// One code token: an identifier/number or a single punctuation char.
#[derive(Debug, Clone)]
pub struct Tok {
    pub text: String,
    pub line: usize, // 1-based
}

impl Tok {
    fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// A function extracted from a scanned file: its body tokens plus the
/// signature facts the interprocedural pass needs.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    pub file: String,
    pub start_line: usize,
    /// Body tokens (between the outer braces, exclusive).
    pub body: Vec<Tok>,
    /// Parameter names (excluding `self`).
    pub params: Vec<String>,
    /// The declared return type mentions a guard type
    /// (`MutexGuard`/`RwLockReadGuard`/...), so a call site holds a live
    /// guard for as long as it keeps the returned value.
    pub returns_guard: bool,
}

/// Per-function facts propagated over the same-file call graph.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    pub acquires: BTreeSet<String>,
    pub does_io: bool,
    pub returns_guard: bool,
    /// The function's single direct acquisition is on one of its own
    /// parameters (`fn recover(lock: &Mutex<T>)`), so call sites should
    /// re-derive the lock's name from their argument.
    pub param_lock: bool,
}

/// Method names never resolved to same-file functions: they collide
/// with ubiquitous std collection/iterator methods.
const CALL_DENYLIST: &[&str] = &[
    "insert",
    "remove",
    "get",
    "get_mut",
    "push",
    "pop",
    "clear",
    "len",
    "is_empty",
    "new",
    "default",
    "clone",
    "iter",
    "iter_mut",
    "drain",
    "entry",
    "extend",
    "take",
    "contains",
    "contains_key",
    "next",
    "join", // str/slice `join` would resolve to a `JoinHandle::join`
    "wait",
    "notify_all",
    "notify_one",
    "fmt",
    "drop",
    "write",
    "read",
    "lock",
    "map",
    "and_then",
    "store",
    "load",
    "swap",
];

/// Identifiers that signal file-system / blocking I/O.
const IO_IDENTS: &[&str] = &[
    "remove_file",
    "remove_dir_all",
    "rename",
    "create_dir",
    "create_dir_all",
    "read_to_string",
    "read_dir",
    "sync_all",
    "sync_data",
    "write_all",
    "read_exact",
    "OpenOptions",
    "File",
    // hddm_core::record's durable write: the summaries above are per
    // file, so a callee in another crate has to be named.
    "write_atomic",
];

/// Macro names that can panic at runtime (debug_assert* excluded: they
/// compile out of release builds, which is what serving runs).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Tokenizes the non-test code lines of a scanned file.
pub fn tokenize(file: &ScannedFile) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                });
            } else {
                toks.push(Tok {
                    text: c.to_string(),
                    line: lineno,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Extracts top-level and impl-level functions (nested fns are absorbed
/// into their parent's body — they execute as part of it anyway).
pub fn extract_functions(file: &ScannedFile) -> Vec<FnInfo> {
    let toks = tokenize(file);
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is("fn") && i + 1 < toks.len() {
            let name = toks[i + 1].text.clone();
            let start_line = toks[i].line;
            // Scan the signature for the body `{` or a trait-decl `;`,
            // tracking paren/bracket depth so `fn f(x: fn() -> T)` works.
            let mut j = i + 2;
            let mut pdepth = 0i64;
            let mut returns_guard = false;
            let mut body_start = None;
            let mut params = Vec::new();
            let mut prev = String::new();
            while j < toks.len() {
                let t = &toks[j].text;
                match t.as_str() {
                    "(" | "[" | "<" => pdepth += 1,
                    ")" | "]" | ">" => pdepth -= 1,
                    "{" if pdepth <= 0 => {
                        body_start = Some(j + 1);
                        break;
                    }
                    ";" if pdepth <= 0 => break,
                    _ => {
                        if t.contains("Guard") {
                            returns_guard = true;
                        }
                        // A parameter name: ident right after `(`, `,`
                        // or `mut` at paren depth 1, followed by `:`.
                        if pdepth == 1
                            && (prev == "(" || prev == "," || prev == "mut")
                            && toks.get(j + 1).is_some_and(|n| n.is(":"))
                            && t != "self"
                        {
                            params.push(t.clone());
                        }
                    }
                }
                prev = t.clone();
                j += 1;
            }
            let Some(bs) = body_start else {
                i = j + 1;
                continue;
            };
            let mut depth = 1i64;
            let mut k = bs;
            while k < toks.len() && depth > 0 {
                match toks[k].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            fns.push(FnInfo {
                name,
                file: file.path.clone(),
                start_line,
                body: toks[bs..k.saturating_sub(1)].to_vec(),
                params,
                returns_guard,
            });
            i = k;
        } else {
            i += 1;
        }
    }
    fns
}

/// Type names with an `impl` block in this token stream. Used to gate
/// `Type::fn(...)` call resolution: `Store::open` in `cache.rs` must
/// not resolve to `SurfaceCache::open` just because the names match.
pub fn impl_types(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is("impl") {
            let mut j = i + 1;
            // Skip the generics group directly after `impl`.
            if toks.get(j).is_some_and(|t| t.is("<")) {
                let mut d = 0i64;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "<" => d += 1,
                        ">" => {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Walk to the body `{`, remembering the last path ident seen
            // at angle-depth 0 — for `impl Trait for Type` that is
            // `Type`; for `impl Type<T>` the `<` stops the update.
            let mut candidate = None;
            let mut angle = 0i64;
            let mut in_where = false;
            while j < toks.len() {
                let t = &toks[j].text;
                match t.as_str() {
                    "{" | ";" if angle <= 0 => break,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "where" => in_where = true,
                    s if angle <= 0
                        && !in_where
                        && s != "for"
                        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) =>
                    {
                        candidate = Some(s.to_string());
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(c) = candidate {
                out.insert(c);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// True when the call at ident index `i` may resolve to a same-file
/// function: unqualified, method-style, or qualified by `Self`/a type
/// implemented in this file.
fn call_resolvable(body: &[Tok], i: usize, impls: &BTreeSet<String>) -> bool {
    if i == 0 || !body[i - 1].is(":") {
        return true;
    }
    if i >= 3 && body[i - 2].is(":") {
        let ty = &body[i - 3].text;
        return ty == "Self" || impls.contains(ty);
    }
    false
}

fn file_stem(path: &str) -> String {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base).to_string()
}

/// Walks backwards from the `.` of a `.lock()/.read()/.write()` chain to
/// name the receiver: the nearest identifier, skipping one trailing
/// index/call group (`shards[i].read()` → `shards`).
fn receiver_name(body: &[Tok], dot: usize) -> String {
    let mut i = dot as i64 - 1;
    let mut skips = 0;
    while i >= 0 && skips < 4 {
        match body[i as usize].text.as_str() {
            ")" | "]" => {
                // Skip the balanced group.
                let close = body[i as usize].text.clone();
                let open = if close == ")" { "(" } else { "[" };
                let mut d = 1;
                i -= 1;
                while i >= 0 && d > 0 {
                    let t = &body[i as usize].text;
                    if *t == close {
                        d += 1;
                    } else if t == open {
                        d -= 1;
                    }
                    i -= 1;
                }
                skips += 1;
            }
            "." | ":" => i -= 1,
            t if t
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_') =>
            {
                if t == "self" {
                    return "self".into();
                }
                return t.to_string();
            }
            _ => break,
        }
    }
    "anon".into()
}

/// A live lock guard during simulation.
#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    binding: Option<String>,
    birth_depth: i64,
    temp: bool,
}

/// Pushes a finding unless an identical detail was already reported for
/// this function (dedup keeps the report and baseline stable).
#[allow(clippy::too_many_arguments)]
fn emit(
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<String>,
    rule: &str,
    file: &str,
    function: &str,
    line: usize,
    detail: String,
) {
    if seen.insert(detail.clone()) {
        findings.push(Finding {
            rule: rule.into(),
            file: file.into(),
            function: function.into(),
            line,
            detail,
        });
    }
}

/// Context shared by the whole-workspace pass.
pub struct Workspace {
    /// Same-file summaries: file path → fn name → merged summary.
    pub summaries: BTreeMap<String, BTreeMap<String, FnSummary>>,
    /// Lock-order edges with one example site each.
    pub edges: BTreeMap<(String, String), (String, String, usize)>,
}

/// Runs the full HL003/HL004 analysis over all files. Returns findings.
pub fn analyze(files: &[ScannedFile]) -> Vec<Finding> {
    let per_file: Vec<Vec<FnInfo>> = files.iter().map(extract_functions).collect();
    let per_file_impls: Vec<BTreeSet<String>> =
        files.iter().map(|f| impl_types(&tokenize(f))).collect();

    // Seed summaries with direct facts, then propagate to fixpoint.
    let mut ws = Workspace {
        summaries: BTreeMap::new(),
        edges: BTreeMap::new(),
    };
    for (file, fns) in files.iter().zip(&per_file) {
        let map: &mut BTreeMap<String, FnSummary> =
            ws.summaries.entry(file.path.clone()).or_default();
        for f in fns {
            let entry = map.entry(f.name.clone()).or_default();
            entry.returns_guard |= f.returns_guard;
            let (acq, io) = direct_facts(f);
            entry.param_lock |= acq.len() == 1
                && acq.iter().next().is_some_and(|lock| {
                    lock.split_once('.')
                        .is_some_and(|(_, recv)| f.params.iter().any(|p| p == recv))
                });
            entry.acquires.extend(acq);
            entry.does_io |= io;
        }
    }
    loop {
        let mut changed = false;
        for ((file, fns), impls) in files.iter().zip(&per_file).zip(&per_file_impls) {
            for f in fns {
                let callees = same_file_calls(f, &ws.summaries[&file.path], impls);
                let mut add_acq = BTreeSet::new();
                let mut add_io = false;
                for callee in &callees {
                    let s = &ws.summaries[&file.path][callee];
                    add_acq.extend(s.acquires.iter().cloned());
                    add_io |= s.does_io;
                }
                let entry = ws
                    .summaries
                    .get_mut(&file.path)
                    .unwrap()
                    .get_mut(&f.name)
                    .unwrap();
                let before = (entry.acquires.len(), entry.does_io);
                entry.acquires.extend(add_acq);
                entry.does_io |= add_io;
                if (entry.acquires.len(), entry.does_io) != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Simulate every function with the converged summaries.
    let mut findings = Vec::new();
    for (fns, impls) in per_file.iter().zip(&per_file_impls) {
        for f in fns {
            simulate(f, impls, &mut ws, &mut findings);
            hl006_wait_discipline(f, &mut findings);
        }
    }

    // Lock-order cycles over the merged cross-crate edge set.
    findings.extend(detect_cycles(&ws.edges));
    findings
}

/// Direct (non-interprocedural) facts: locks acquired and I/O performed
/// syntactically inside this body.
fn direct_facts(f: &FnInfo) -> (BTreeSet<String>, bool) {
    let stem = file_stem(&f.file);
    let mut acquires = BTreeSet::new();
    let mut io = false;
    let body = &f.body;
    for i in 0..body.len() {
        if let Some(kind) = acquisition_at(body, i) {
            match kind {
                AcqKind::Lock => {
                    acquires.insert(format!("{stem}.{}", receiver_name(body, i)));
                }
                AcqKind::Io => io = true,
            }
        }
        let t = &body[i].text;
        if IO_IDENTS.contains(&t.as_str())
            || (t == "fs" && body.get(i + 1).is_some_and(|n| n.is(":")))
        {
            io = true;
        }
    }
    (acquires, io)
}

enum AcqKind {
    /// `.lock()` / `.read()` / `.write()` with no arguments.
    Lock,
    /// `.read(buf)` / `.write(buf)` — std::io, not a lock.
    Io,
}

/// Classifies token position `i` (must be a `.`) as a lock acquisition
/// or an I/O call, if it heads `.lock(/.read(/.write(`.
fn acquisition_at(body: &[Tok], i: usize) -> Option<AcqKind> {
    if !body[i].is(".") {
        return None;
    }
    let m = body.get(i + 1)?;
    if !(m.is("lock") || m.is("read") || m.is("write")) {
        return None;
    }
    if !body.get(i + 2)?.is("(") {
        return None;
    }
    if body.get(i + 3)?.is(")") {
        Some(AcqKind::Lock)
    } else if m.is("read") || m.is("write") {
        Some(AcqKind::Io)
    } else {
        None
    }
}

/// Same-file callees of `f` (denylist filtered, impl-type gated).
fn same_file_calls(
    f: &FnInfo,
    file_fns: &BTreeMap<String, FnSummary>,
    impls: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let body = &f.body;
    for i in 0..body.len() {
        let t = &body[i].text;
        if body.get(i + 1).is_some_and(|n| n.is("("))
            && file_fns.contains_key(t)
            && !CALL_DENYLIST.contains(&t.as_str())
            && !(i > 0 && body[i - 1].is("fn"))
            && call_resolvable(body, i, impls)
        {
            out.insert(t.clone());
        }
    }
    out
}

/// Skips a balanced `( ... )` group starting at `open` (which must be a
/// `(`); returns the index just past the matching `)`.
fn skip_group(body: &[Tok], open: usize) -> usize {
    let mut d = 0i64;
    let mut i = open;
    while i < body.len() {
        match body[i].text.as_str() {
            "(" => d += 1,
            ")" => {
                d -= 1;
                if d == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    body.len()
}

/// If the tokens at `i` start a poisoning-recovery idiom chained
/// directly on an acquisition — `.unwrap()`, `.expect(..)`,
/// `.unwrap_or_else(..)` — returns the index just past it.
fn skip_unwrap_idiom(body: &[Tok], i: usize) -> Option<usize> {
    if !body.get(i)?.is(".") {
        return None;
    }
    let m = body.get(i + 1)?;
    if !(m.is("unwrap") || m.is("expect") || m.is("unwrap_or_else")) {
        return None;
    }
    if !body.get(i + 2)?.is("(") {
        return None;
    }
    Some(skip_group(body, i + 2))
}

/// Simulates `f`, emitting HL003/HL004 findings and lock-order edges.
fn simulate(f: &FnInfo, impls: &BTreeSet<String>, ws: &mut Workspace, findings: &mut Vec<Finding>) {
    let stem = file_stem(&f.file);
    let body = &f.body;
    let file_summaries = ws.summaries[&f.file].clone();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    let mut let_binding: Option<String> = None;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    // Index of the `)` that closed the most recent lock acquisition —
    // used to catch indexing chained straight onto a fresh guard.
    let mut last_acq_close: Option<usize> = None;

    let mut i = 0usize;
    while i < body.len() {
        let t = body[i].text.clone();
        let line = body[i].line;
        match t.as_str() {
            "{" => {
                guards.retain(|g| !(g.temp && g.birth_depth >= depth));
                depth += 1;
                let_binding = None;
                i += 1;
            }
            "}" => {
                depth -= 1;
                guards.retain(|g| g.birth_depth <= depth);
                let_binding = None;
                i += 1;
            }
            ";" => {
                guards.retain(|g| !(g.temp && g.birth_depth >= depth));
                let_binding = None;
                i += 1;
            }
            "let" => {
                let_binding = pattern_binding(body, i + 1);
                i += 1;
            }
            "drop" if body.get(i + 1).is_some_and(|n| n.is("(")) => {
                if let Some(victim) = body.get(i + 2).map(|v| v.text.clone()) {
                    guards.retain(|g| g.binding.as_deref() != Some(victim.as_str()));
                }
                i = skip_group(body, i + 1);
            }
            "." => {
                match acquisition_at(body, i) {
                    Some(AcqKind::Lock) => {
                        let lock = format!("{stem}.{}", receiver_name(body, i));
                        record_nesting(
                            &guards, &lock, &f.name, &f.file, line, ws, findings, &mut seen,
                        );
                        let close = i + 3;
                        let after = skip_unwrap_idiom(body, close + 1).unwrap_or(close + 1);
                        push_guard(&mut guards, body, after, lock, &let_binding, depth);
                        last_acq_close = Some(after - 1);
                        i = after;
                        continue;
                    }
                    Some(AcqKind::Io) => {
                        io_check(
                            &guards,
                            "io read/write",
                            &f.name,
                            &f.file,
                            line,
                            findings,
                            &mut seen,
                        );
                        i += 2;
                        continue;
                    }
                    None => {}
                }
                // `.unwrap()` / `.expect(..)` mid-chain (the direct
                // on-acquisition idiom was consumed above).
                if let Some(m) = body.get(i + 1) {
                    if (m.is("unwrap") || m.is("expect"))
                        && body.get(i + 2).is_some_and(|n| n.is("("))
                    {
                        for g in guards.clone() {
                            emit(
                                findings,
                                &mut seen,
                                "HL004",
                                &f.file,
                                &f.name,
                                line,
                                format!("`{}` while guard on `{}` is live", m.text, g.lock),
                            );
                        }
                    }
                }
                i += 1;
            }
            "[" => {
                let on_guard = i > 0
                    && (last_acq_close == Some(i - 1)
                        || guards
                            .iter()
                            .any(|g| g.binding.as_deref() == Some(body[i - 1].text.as_str())));
                if on_guard {
                    if let Some(g) = guards.last().cloned() {
                        emit(
                            findings,
                            &mut seen,
                            "HL004",
                            &f.file,
                            &f.name,
                            line,
                            format!("indexing while guard on `{}` is live", g.lock),
                        );
                    }
                }
                i += 1;
            }
            _ => {
                // Panic-capable macro?
                if PANIC_MACROS.contains(&t.as_str()) && body.get(i + 1).is_some_and(|n| n.is("!"))
                {
                    for g in guards.clone() {
                        emit(
                            findings,
                            &mut seen,
                            "HL004",
                            &f.file,
                            &f.name,
                            line,
                            format!("`{t}!` while guard on `{}` is live", g.lock),
                        );
                    }
                }
                // I/O identifier?
                if IO_IDENTS.contains(&t.as_str())
                    || (t == "fs" && body.get(i + 1).is_some_and(|n| n.is(":")))
                {
                    io_check(&guards, &t, &f.name, &f.file, line, findings, &mut seen);
                }
                // Same-file call?
                if body.get(i + 1).is_some_and(|n| n.is("("))
                    && !CALL_DENYLIST.contains(&t.as_str())
                    && !(i > 0 && body[i - 1].is("fn"))
                    && call_resolvable(body, i, impls)
                {
                    if let Some(s) = file_summaries.get(&t) {
                        // A helper that takes the lock as a parameter
                        // (`recover(&self.slot.0)`) names it after the
                        // parameter; re-derive the name from the
                        // call-site argument so distinct locks stay
                        // distinct in the order graph.
                        let call_locks: Vec<String> = if s.param_lock
                            && s.acquires.len() == 1
                            && body.get(i + 2).map(|n| !n.is(")")).unwrap_or(false)
                        {
                            arg_lock_name(body, i + 1)
                                .map(|n| vec![format!("{stem}.{n}")])
                                .unwrap_or_else(|| s.acquires.iter().cloned().collect())
                        } else {
                            s.acquires.iter().cloned().collect()
                        };
                        for lock in &call_locks {
                            record_nesting(
                                &guards, lock, &f.name, &f.file, line, ws, findings, &mut seen,
                            );
                        }
                        if s.does_io {
                            io_check(
                                &guards,
                                &format!("call to `{t}`"),
                                &f.name,
                                &f.file,
                                line,
                                findings,
                                &mut seen,
                            );
                        }
                        if s.returns_guard && !s.acquires.is_empty() {
                            let after = skip_group(body, i + 1);
                            for lock in &call_locks {
                                push_guard(
                                    &mut guards,
                                    body,
                                    after,
                                    lock.clone(),
                                    &let_binding,
                                    depth,
                                );
                            }
                            last_acq_close = Some(after - 1);
                            i += 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
        }
    }
}

/// Loop classification for HL006: what the innermost enclosing loop
/// guarantees about predicate re-checking after a spurious wakeup.
#[derive(Clone, Copy, PartialEq)]
enum LoopKind {
    /// Not a loop (`if`, `match`, plain block, closure body, ...).
    Block,
    /// `while cond { ... }`: the predicate is re-tested at the top.
    While,
    /// `loop`/`for`: nothing is re-tested unless the body exits
    /// explicitly (`break`/`return`/`continue`) before re-waiting.
    Bare,
}

/// **HL006** — condvar spurious-wakeup discipline. A
/// `.wait(guard)`/`.wait_timeout(guard, ..)` call (recognized by its
/// non-empty argument list; zero-argument `wait()`s — barriers,
/// tickets, join handles — are a different API and out of scope) must:
///
/// 1. sit inside a loop that re-checks the predicate: a `while` loop,
///    or a bare `loop` that tests an exit before reaching the wait
///    (the `loop { if done { return } g = cv.wait(g) }` idiom);
/// 2. rebind the reacquired guard (`g = cv.wait(g)`).
fn hl006_wait_discipline(f: &FnInfo, findings: &mut Vec<Finding>) {
    let body = &f.body;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    // Brace-frame stack: (loop kind, saw an exit before this token).
    let mut frames: Vec<(LoopKind, bool)> = Vec::new();
    let mut pending: Option<LoopKind> = None;
    for i in 0..body.len() {
        match body[i].text.as_str() {
            "while" => pending = Some(LoopKind::While),
            "loop" | "for" => pending = Some(LoopKind::Bare),
            ";" => pending = None,
            "{" => frames.push((pending.take().unwrap_or(LoopKind::Block), false)),
            "}" => {
                frames.pop();
            }
            "break" | "return" | "continue" => {
                // Every frame currently open encloses this exit, so the
                // wait-site check below sees it iff it came first.
                for fr in frames.iter_mut() {
                    fr.1 = true;
                }
            }
            "." => {
                let Some(m) = body.get(i + 1) else { continue };
                if !(m.is("wait") || m.is("wait_timeout")) {
                    continue;
                }
                if !body.get(i + 2).is_some_and(|n| n.is("(")) {
                    continue;
                }
                if body.get(i + 3).map(|n| n.is(")")).unwrap_or(true) {
                    continue; // zero-argument wait: not a condvar
                }
                let line = body[i].line;
                let method = m.text.clone();
                match frames.iter().rev().find(|(k, _)| *k != LoopKind::Block) {
                    None => emit(
                        findings,
                        &mut seen,
                        "HL006",
                        &f.file,
                        &f.name,
                        line,
                        format!(
                            "`{method}` outside a loop — a spurious wakeup \
                             proceeds without the predicate re-checked"
                        ),
                    ),
                    Some((LoopKind::Bare, false)) => emit(
                        findings,
                        &mut seen,
                        "HL006",
                        &f.file,
                        &f.name,
                        line,
                        format!(
                            "`{method}` in a bare `loop` with no exit test \
                             before it — the predicate is never re-checked"
                        ),
                    ),
                    _ => {}
                }
                let mut rebound = false;
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    match body[j].text.as_str() {
                        ";" | "{" | "}" => break,
                        "=" => {
                            rebound = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if !rebound {
                    emit(
                        findings,
                        &mut seen,
                        "HL006",
                        &f.file,
                        &f.name,
                        line,
                        format!(
                            "`{method}` result discarded — rebind the \
                             reacquired guard (`g = cv.{method}(g, ..)`)"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Creates a guard whose scope depends on what follows the acquisition
/// chain at `after`: `;` → let-bound at this depth; `{` → let-bound
/// inside the upcoming block (`if let`/`while let`); anything else →
/// statement temporary (the bound value is some projection, not the
/// guard itself — e.g. `let n = m.lock().len();`).
fn push_guard(
    guards: &mut Vec<Guard>,
    body: &[Tok],
    after: usize,
    lock: String,
    let_binding: &Option<String>,
    depth: i64,
) {
    let next = body.get(after).map(|t| t.text.as_str());
    let (temp, birth_depth, binding) = match next {
        Some(";") if let_binding.is_some() => (false, depth, let_binding.clone()),
        Some("{") if let_binding.is_some() => (false, depth + 1, let_binding.clone()),
        _ => (true, depth, let_binding.clone()),
    };
    guards.push(Guard {
        lock,
        binding,
        birth_depth,
        temp,
    });
}

/// Derives a lock name from a call's first argument: the last
/// identifier at bracket-depth zero (`&self.shards[idx]` → `shards`,
/// `&self.queue.0` → `queue`).
fn arg_lock_name(body: &[Tok], open: usize) -> Option<String> {
    let mut depth = 0i64;
    let mut name: Option<String> = None;
    let mut i = open;
    while i < body.len() {
        let t = &body[i].text;
        match t.as_str() {
            "(" | "[" => {
                depth += 1;
            }
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => break,
            s if depth == 1
                && s != "self"
                && s.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_') =>
            {
                name = Some(s.to_string());
            }
            _ => {}
        }
        i += 1;
    }
    name
}

/// First concrete identifier of a `let` pattern: skips `mut`, descends
/// through constructor patterns (`Some(x)`, `Ok(g)`) and tuple opens.
fn pattern_binding(body: &[Tok], mut i: usize) -> Option<String> {
    let mut hops = 0;
    while hops < 6 {
        let t = body.get(i)?;
        hops += 1;
        match t.text.as_str() {
            "mut" | "(" | "&" => i += 1,
            s if s
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_') =>
            {
                if body.get(i + 1).is_some_and(|n| n.is("(")) {
                    // Constructor pattern: descend.
                    i += 2;
                } else {
                    return Some(s.to_string());
                }
            }
            _ => return None,
        }
    }
    None
}

/// On acquiring `lock` with guards live: HL003 nesting finding per held
/// guard plus a lock-order edge.
#[allow(clippy::too_many_arguments)]
fn record_nesting(
    guards: &[Guard],
    lock: &str,
    function: &str,
    file: &str,
    line: usize,
    ws: &mut Workspace,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<String>,
) {
    for g in guards {
        let detail = format!("guard on `{}` held across acquisition of `{lock}`", g.lock);
        if seen.insert(detail.clone()) {
            findings.push(Finding {
                rule: "HL003".into(),
                file: file.into(),
                function: function.into(),
                line,
                detail,
            });
        }
        ws.edges
            .entry((g.lock.clone(), lock.to_string()))
            .or_insert_with(|| (file.to_string(), function.to_string(), line));
    }
}

/// On an I/O site with guards live: HL003 finding per held guard.
fn io_check(
    guards: &[Guard],
    what: &str,
    function: &str,
    file: &str,
    line: usize,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<String>,
) {
    for g in guards {
        let detail = format!("guard on `{}` held across file I/O ({what})", g.lock);
        if seen.insert(detail.clone()) {
            findings.push(Finding {
                rule: "HL003".into(),
                file: file.into(),
                function: function.into(),
                line,
                detail,
            });
        }
    }
}

/// DFS cycle detection over the lock-order edge set. Each distinct
/// cycle (canonicalized by rotation) yields one finding.
fn detect_cycles(edges: &BTreeMap<(String, String), (String, String, usize)>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default();
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // Bounded DFS from each node looking for a path back to itself.
        let mut stack = vec![(start, vec![start.to_string()])];
        while let Some((node, path)) = stack.pop() {
            for &next in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
                if next == start {
                    // Canonicalize by rotating the smallest element first.
                    let mut cyc = path.clone();
                    let min_idx = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, s)| s)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cyc.rotate_left(min_idx);
                    cycles.insert(cyc);
                } else if !path.iter().any(|p| p == next) && path.len() < 8 {
                    let mut p = path.clone();
                    p.push(next.to_string());
                    stack.push((next, p));
                }
            }
        }
    }
    cycles
        .into_iter()
        .map(|cyc| {
            let mut route = cyc.join(" -> ");
            route.push_str(" -> ");
            route.push_str(&cyc[0]);
            let (file, function, line) = cyc
                .first()
                .and_then(|a| {
                    let b = if cyc.len() > 1 { &cyc[1] } else { &cyc[0] };
                    edges.get(&(a.clone(), b.clone())).cloned()
                })
                .unwrap_or_else(|| ("(workspace)".into(), "(lock-order)".into(), 0));
            Finding {
                rule: "HL003".into(),
                file,
                function,
                line,
                detail: format!("lock-order cycle: {route}"),
            }
        })
        .collect()
}
