//! Per-rule fixture tests: every rule must fire on a known-bad source
//! and stay silent on the corresponding known-good source. The sources
//! are deliberately small — each isolates exactly the pattern the rule
//! exists for, so a scanner or analysis regression shows up as a named
//! rule failure rather than a diff in workspace findings.

use hddm_lint::lint_sources;
use hddm_lint::report::Finding;

fn lint_one(src: &str) -> Vec<Finding> {
    lint_sources(&[("crates/x/src/lib.rs".to_string(), src.to_string())])
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

// ----- HL001: unsafe without SAFETY --------------------------------------

#[test]
fn hl001_fires_on_bare_unsafe() {
    let findings = lint_one("pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
    assert_eq!(rules_of(&findings), ["HL001"], "{findings:?}");
    assert_eq!(findings[0].line, 2);
}

#[test]
fn hl001_silent_with_safety_comment_above() {
    let findings = lint_one(
        "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl001_silent_with_trailing_safety_comment() {
    let findings = lint_one(
        "// SAFETY: no shared mutation; rows are disjoint.\nunsafe impl Sync for X {}\nstruct X;\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl001_comment_block_may_include_attributes() {
    let findings = lint_one(
        "// SAFETY: feature detected by the caller.\n#[target_feature(enable = \"avx2\")]\nunsafe fn g() {}\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl001_ignores_unsafe_in_strings_comments_and_tests() {
    let findings = lint_one(concat!(
        "pub const DOC: &str = \"unsafe code is scary\";\n",
        "// unsafe in a comment is fine\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() {\n",
        "        unsafe { std::hint::unreachable_unchecked() }\n",
        "    }\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

// ----- HL002: Ordering without ORDERING ----------------------------------

#[test]
fn hl002_fires_on_unjustified_relaxed() {
    let findings = lint_one(
        "fn f(a: &std::sync::atomic::AtomicU64) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n",
    );
    assert_eq!(rules_of(&findings), ["HL002"], "{findings:?}");
}

#[test]
fn hl002_silent_with_ordering_comment() {
    let findings = lint_one(
        "fn f(a: &std::sync::atomic::AtomicU64) {\n    // ORDERING: Relaxed — tally, no ordering dependency.\n    a.fetch_add(1, Ordering::Relaxed);\n}\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl002_seqcst_needs_to_be_named() {
    // A generic justification does not excuse SeqCst; the comment must
    // name it.
    let vague = lint_one(
        "fn f(a: &std::sync::atomic::AtomicU64) {\n    // ORDERING: needed for the handshake.\n    a.store(1, Ordering::SeqCst);\n}\n",
    );
    assert_eq!(rules_of(&vague), ["HL002"], "{vague:?}");
    assert!(vague[0].detail.contains("SeqCst"), "{vague:?}");

    let named = lint_one(
        "fn f(a: &std::sync::atomic::AtomicU64) {\n    // ORDERING: SeqCst — total order against flag B is load-bearing.\n    a.store(1, Ordering::SeqCst);\n}\n",
    );
    assert!(named.is_empty(), "{named:?}");
}

#[test]
fn hl002_ignores_cmp_ordering() {
    // `std::cmp::Ordering` variants (Less/Equal/Greater) share the type
    // name; only atomic variants are in scope.
    let findings = lint_one(
        "fn f(a: i32) -> std::cmp::Ordering {\n    a.cmp(&0)\n}\nfn g() -> Ordering { Ordering::Less }\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ----- HL003: guard across I/O / second lock, lock-order cycles ----------

#[test]
fn hl003_fires_on_guard_across_file_io() {
    // Regression fixture for the persist-store eviction defect this
    // linter caught in review: deleting files while the index guard is
    // held blocks every reader on disk I/O.
    let findings = lint_one(concat!(
        "struct S { index: std::sync::Mutex<Vec<String>> }\n",
        "impl S {\n",
        "    fn evict(&self) {\n",
        "        let mut index = self.index.lock().unwrap();\n",
        "        let gone = index.remove(0);\n",
        "        let _ = std::fs::remove_file(&gone);\n",
        "    }\n",
        "}\n",
    ));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "HL003" && f.detail.contains("remove_file")),
        "{findings:?}"
    );
}

#[test]
fn hl003_silent_when_guard_dropped_before_io() {
    let findings = lint_one(concat!(
        "struct S { index: std::sync::Mutex<Vec<String>> }\n",
        "impl S {\n",
        "    fn evict(&self) {\n",
        "        let gone = {\n",
        "            let mut index = self.index.lock().unwrap();\n",
        "            index.remove(0)\n",
        "        };\n",
        "        let _ = std::fs::remove_file(&gone);\n",
        "    }\n",
        "}\n",
    ));
    assert!(findings.iter().all(|f| f.rule != "HL003"), "{findings:?}");
}

#[test]
fn hl003_fires_on_nested_locks_and_reports_order() {
    let findings = lint_one(concat!(
        "struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n",
        "impl S {\n",
        "    fn f(&self) {\n",
        "        let ga = self.a.lock().unwrap();\n",
        "        let gb = self.b.lock().unwrap();\n",
        "        drop(gb);\n",
        "        drop(ga);\n",
        "    }\n",
        "}\n",
    ));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "HL003" && f.detail.contains("held across acquisition")),
        "{findings:?}"
    );
}

#[test]
fn hl003_detects_lock_order_cycle_across_functions() {
    let findings = lint_one(concat!(
        "struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n",
        "impl S {\n",
        "    fn ab(&self) {\n",
        "        let ga = self.a.lock().unwrap();\n",
        "        let gb = self.b.lock().unwrap();\n",
        "        drop(gb);\n",
        "        drop(ga);\n",
        "    }\n",
        "    fn ba(&self) {\n",
        "        let gb = self.b.lock().unwrap();\n",
        "        let ga = self.a.lock().unwrap();\n",
        "        drop(ga);\n",
        "        drop(gb);\n",
        "    }\n",
        "}\n",
    ));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "HL003" && f.detail.contains("cycle")),
        "{findings:?}"
    );
}

#[test]
fn hl003_sees_io_through_a_same_file_call() {
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<u32> }\n",
        "impl S {\n",
        "    fn persist(&self) {\n",
        "        let _ = std::fs::write(\"x\", b\"y\");\n",
        "    }\n",
        "    fn f(&self) {\n",
        "        let g = self.m.lock().unwrap();\n",
        "        self.persist();\n",
        "        drop(g);\n",
        "    }\n",
        "}\n",
    ));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "HL003" && f.detail.contains("persist")),
        "{findings:?}"
    );
}

// ----- HL004: panics while a guard is live -------------------------------

#[test]
fn hl004_fires_on_unwrap_under_guard() {
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<Vec<u32>> }\n",
        "impl S {\n",
        "    fn f(&self) -> u32 {\n",
        "        let g = self.m.lock().unwrap();\n",
        "        let v = g.first().unwrap();\n",
        "        *v\n",
        "    }\n",
        "}\n",
    ));
    assert_eq!(rules_of(&findings), ["HL004"], "{findings:?}");
    assert!(findings[0].detail.contains("unwrap"), "{findings:?}");
}

#[test]
fn hl004_acquisition_unwrap_is_the_poisoning_idiom_not_a_hit() {
    // `.lock().unwrap()` / `.lock().expect(...)` is how std mutexes are
    // taken; the panic there happens *before* the guard exists.
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<u32> }\n",
        "impl S {\n",
        "    fn f(&self) -> u32 {\n",
        "        let g = self.m.lock().expect(\"poisoned\");\n",
        "        *g\n",
        "    }\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl004_fires_on_panic_macro_and_indexing_under_guard() {
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<Vec<u32>> }\n",
        "impl S {\n",
        "    fn f(&self, i: usize) -> u32 {\n",
        "        let g = self.m.lock().unwrap();\n",
        "        if g.is_empty() {\n",
        "            panic!(\"empty\");\n",
        "        }\n",
        "        g[i]\n",
        "    }\n",
        "}\n",
    ));
    let details: Vec<&str> = findings.iter().map(|f| f.detail.as_str()).collect();
    assert!(details.iter().any(|d| d.contains("panic!")), "{findings:?}");
    assert!(
        details.iter().any(|d| d.contains("indexing")),
        "{findings:?}"
    );
}

#[test]
fn hl004_silent_after_guard_dropped() {
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<Vec<u32>> }\n",
        "impl S {\n",
        "    fn f(&self) -> u32 {\n",
        "        let g = self.m.lock().unwrap();\n",
        "        let v = g.first().copied();\n",
        "        drop(g);\n",
        "        v.unwrap()\n",
        "    }\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

// ----- HL005: determinism ------------------------------------------------

#[test]
fn hl005_fires_on_hashmap_iteration_into_serialization() {
    let findings = lint_one(concat!(
        "use std::collections::HashMap;\n",
        "fn dump(m: &HashMap<String, u32>) -> String {\n",
        "    let counts: HashMap<String, u32> = m.clone();\n",
        "    let mut out = String::new();\n",
        "    for (k, v) in counts.iter() {\n",
        "        out.push_str(&format!(\"{k}={v}\\n\"));\n",
        "    }\n",
        "    out\n",
        "}\n",
    ));
    assert_eq!(rules_of(&findings), ["HL005"], "{findings:?}");
}

#[test]
fn hl005_silent_when_sorted_first() {
    let findings = lint_one(concat!(
        "use std::collections::HashMap;\n",
        "fn dump(counts: &HashMap<String, u32>) -> String {\n",
        "    let mut rows: Vec<_> = counts.iter().collect();\n",
        "    rows.sort();\n",
        "    let mut out = String::new();\n",
        "    for (k, v) in rows {\n",
        "        out.push_str(&format!(\"{k}={v}\\n\"));\n",
        "    }\n",
        "    out\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl005_fires_on_misnamed_counter() {
    let findings = lint_one(
        "fn f(r: &Registry) {\n    let c = r.counter(\"hddm_solver_iterations\");\n    c.inc();\n}\n",
    );
    assert_eq!(rules_of(&findings), ["HL005"], "{findings:?}");
    assert!(findings[0].detail.contains("_total"), "{findings:?}");
}

#[test]
fn hl005_counter_and_histogram_schemes_pass() {
    let findings = lint_one(concat!(
        "fn f(r: &Registry) {\n",
        "    let c = r.counter(\"hddm_solver_iterations_total\");\n",
        "    let h = r.histogram(\"hddm_solver_step_seconds\");\n",
        "    let g = r.gauge(\"hddm_cache_entries\");\n",
        "    c.inc();\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl005_fires_on_bad_charset_and_gauge_suffix() {
    let charset = lint_one("fn f(r: &Registry) {\n    r.counter(\"hddm_Solver_total\");\n}\n");
    assert_eq!(rules_of(&charset), ["HL005"], "{charset:?}");

    let gauge = lint_one("fn f(r: &Registry) {\n    r.gauge(\"hddm_cache_entries_total\");\n}\n");
    assert_eq!(rules_of(&gauge), ["HL005"], "{gauge:?}");
}

#[test]
fn hl003_str_join_does_not_resolve_to_a_join_method() {
    // `parts.join(", ")` is the ubiquitous str/slice method; it must
    // not resolve to a same-file `fn join` that takes locks (the
    // JoinHandle::join name collision).
    let findings = lint_one(concat!(
        "struct H { slot: std::sync::Mutex<Option<u32>> }\n",
        "impl H {\n",
        "    fn join(&self) -> Option<u32> {\n",
        "        self.slot.lock().unwrap().take()\n",
        "    }\n",
        "}\n",
        "struct S { m: std::sync::Mutex<Vec<String>> }\n",
        "impl S {\n",
        "    fn f(&self) -> String {\n",
        "        let parts = self.m.lock().unwrap();\n",
        "        parts.join(\", \")\n",
        "    }\n",
        "}\n",
    ));
    assert!(findings.iter().all(|f| f.rule != "HL003"), "{findings:?}");
}

// ----- HL006: condvar spurious-wakeup discipline -------------------------

#[test]
fn hl006_fires_on_if_guarded_wait() {
    // An `if` is not a loop: a spurious wakeup falls straight through
    // with the predicate unchecked.
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<bool>, cv: std::sync::Condvar }\n",
        "impl S {\n",
        "    fn f(&self) {\n",
        "        let mut g = self.m.lock().unwrap();\n",
        "        if !*g {\n",
        "            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());\n",
        "        }\n",
        "        drop(g);\n",
        "    }\n",
        "}\n",
    ));
    assert_eq!(rules_of(&findings), ["HL006"], "{findings:?}");
    assert!(
        findings[0].detail.contains("outside a loop"),
        "{findings:?}"
    );
}

#[test]
fn hl006_fires_on_bare_loop_waiting_before_any_exit_test() {
    // `loop { wait; check }` waits first: the initial iteration (and
    // every spurious wakeup) blocks before the predicate is consulted.
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<bool>, cv: std::sync::Condvar }\n",
        "impl S {\n",
        "    fn f(&self) {\n",
        "        let mut g = self.m.lock().unwrap();\n",
        "        loop {\n",
        "            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());\n",
        "            if *g {\n",
        "                break;\n",
        "            }\n",
        "        }\n",
        "        drop(g);\n",
        "    }\n",
        "}\n",
    ));
    assert_eq!(rules_of(&findings), ["HL006"], "{findings:?}");
    assert!(findings[0].detail.contains("bare `loop`"), "{findings:?}");
}

#[test]
fn hl006_fires_on_discarded_wait_result() {
    // The reacquired guard is dropped on the spot; the next iteration
    // re-locks and the wait provides no mutual exclusion at all.
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<bool>, cv: std::sync::Condvar }\n",
        "impl S {\n",
        "    fn done(&self) -> bool {\n",
        "        true\n",
        "    }\n",
        "    fn f(&self) {\n",
        "        while !self.done() {\n",
        "            self.cv.wait(self.m.lock().unwrap());\n",
        "        }\n",
        "    }\n",
        "}\n",
    ));
    assert_eq!(rules_of(&findings), ["HL006"], "{findings:?}");
    assert!(
        findings[0].detail.contains("result discarded"),
        "{findings:?}"
    );
}

#[test]
fn hl006_silent_on_while_loop_rebind() {
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<bool>, cv: std::sync::Condvar }\n",
        "impl S {\n",
        "    fn f(&self) {\n",
        "        let mut g = self.m.lock().unwrap();\n",
        "        while !*g {\n",
        "            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());\n",
        "        }\n",
        "        drop(g);\n",
        "    }\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl006_silent_on_loop_with_exit_before_wait() {
    // The `loop { if let Some(v) = take() { return v } wait }` idiom
    // (Ticket::wait): the predicate is tested before every wait.
    let findings = lint_one(concat!(
        "struct S { m: std::sync::Mutex<Option<u32>>, cv: std::sync::Condvar }\n",
        "impl S {\n",
        "    fn f(&self) -> u32 {\n",
        "        let mut g = self.m.lock().unwrap();\n",
        "        loop {\n",
        "            if let Some(v) = g.take() {\n",
        "                return v;\n",
        "            }\n",
        "            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());\n",
        "        }\n",
        "    }\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hl006_ignores_zero_argument_waits() {
    // Barriers, tickets and join handles expose argument-free `wait()`
    // methods; only the guard-passing condvar form is in scope.
    let findings = lint_one(concat!(
        "fn f(b: &std::sync::Barrier, t: &Ticket) -> u32 {\n",
        "    b.wait();\n",
        "    t.wait()\n",
        "}\n",
    ));
    assert!(findings.is_empty(), "{findings:?}");
}

// ----- cross-cutting -----------------------------------------------------

#[test]
fn findings_are_sorted_and_stable() {
    let src = concat!(
        "pub fn f(p: *const u8) -> u8 {\n",
        "    unsafe { *p }\n",
        "}\n",
        "fn g(a: &std::sync::atomic::AtomicU64) {\n",
        "    a.fetch_add(1, Ordering::Relaxed);\n",
        "}\n",
    );
    let a = lint_one(src);
    let b = lint_one(src);
    assert_eq!(a, b);
    assert_eq!(rules_of(&a), ["HL001", "HL002"], "{a:?}");
}
