//! Line-based rules:
//!
//! - **HL001** every `unsafe` block/fn/impl must carry a `// SAFETY:`
//!   comment (same line, or in the contiguous comment/attribute block
//!   directly above).
//! - **HL002** every atomic `Ordering::*` use outside the allow-list
//!   must carry a `// ORDERING:` justification; `SeqCst` additionally
//!   needs the justification to name `SeqCst` explicitly (it is the
//!   expensive default people reach for without cause).
//! - **HL005** determinism: `HashMap` iteration feeding a
//!   serialization/hashing sink (snapshots, manifests and records must
//!   stay bit-identical), and `hddm_*` instrument-name literals must
//!   follow the `hddm_<subsystem>_<what>[_total|_seconds]` scheme that
//!   `metrics-check` enforces dynamically.

use std::collections::BTreeSet;

use crate::report::Finding;
use crate::scanner::{ScannedFile, ScannedLine};

/// Module paths (substring match on the workspace-relative file path)
/// exempt from HL002. Deliberately empty: every Ordering in this
/// workspace is expected to justify itself.
const ORDERING_ALLOWED_MODULES: &[&str] = &[];

const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs HL001/HL002/HL005 over one scanned file.
pub fn line_rules(file: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    hl001_unsafe(file, &mut findings);
    hl002_ordering(file, &mut findings);
    hl005_hashmap_iteration(file, &mut findings);
    hl005_instrument_names(file, &mut findings);
    findings
}

/// True if `needle` occurs in `code` as a standalone word.
fn has_word(code: &str, needle: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre = start
            .checked_sub(1)
            .map(|i| bytes[i] as char)
            .filter(|c| c.is_ascii_alphanumeric() || *c == '_');
        let post = bytes
            .get(end)
            .map(|&b| b as char)
            .filter(|c| c.is_ascii_alphanumeric() || *c == '_');
        if pre.is_none() && post.is_none() {
            return true;
        }
        from = end;
    }
    false
}

/// The justification comments covering line `idx`: its own comment plus
/// the contiguous run of comment-only / attribute-only lines above.
fn covering_comments(file: &ScannedFile, idx: usize) -> String {
    let mut text = file.lines[idx].comment.clone();
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l: &ScannedLine = &file.lines[i];
        let code = l.code.trim();
        let aux = code.is_empty() || (code.starts_with("#[") && code.ends_with(']'));
        if !aux {
            break;
        }
        if code.is_empty() && l.comment.is_empty() && l.strings.is_empty() {
            // A truly blank line ends the contiguous block.
            break;
        }
        text.push('\n');
        text.push_str(&l.comment);
    }
    text
}

fn snippet(code: &str) -> String {
    let t = code.trim();
    let mut s: String = t.chars().take(48).collect();
    if t.chars().count() > 48 {
        s.push('…');
    }
    s
}

fn hl001_unsafe(file: &ScannedFile, findings: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !has_word(&line.code, "unsafe") {
            continue;
        }
        let comments = covering_comments(file, idx);
        if !comments.contains("SAFETY:") {
            findings.push(Finding {
                rule: "HL001".into(),
                file: file.path.clone(),
                function: "-".into(),
                line: idx + 1,
                detail: format!(
                    "`unsafe` without a SAFETY comment: `{}`",
                    snippet(&line.code)
                ),
            });
        }
    }
}

fn hl002_ordering(file: &ScannedFile, findings: &mut Vec<Finding>) {
    if ORDERING_ALLOWED_MODULES
        .iter()
        .any(|m| file.path.contains(m))
    {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut variants: BTreeSet<&str> = BTreeSet::new();
        for v in ATOMIC_VARIANTS {
            if line.code.contains(&format!("Ordering::{v}")) {
                variants.insert(v);
            }
        }
        if variants.is_empty() {
            continue;
        }
        let comments = covering_comments(file, idx);
        let justified = comments.contains("ORDERING:");
        for v in variants {
            if !justified {
                findings.push(Finding {
                    rule: "HL002".into(),
                    file: file.path.clone(),
                    function: "-".into(),
                    line: idx + 1,
                    detail: format!("unjustified `Ordering::{v}` (no ORDERING comment)"),
                });
            } else if v == "SeqCst" && !comments.contains("SeqCst") {
                findings.push(Finding {
                    rule: "HL002".into(),
                    file: file.path.clone(),
                    function: "-".into(),
                    line: idx + 1,
                    detail: "gratuitous `Ordering::SeqCst` (justification does not name SeqCst)"
                        .into(),
                });
            }
        }
    }
}

/// Identifiers that mark a statement as feeding serialization or
/// hashing — the sinks where `HashMap` iteration order becomes
/// observable in bytes.
const SINK_IDENTS: &[&str] = &[
    "serialize",
    "serialize_json",
    "to_json",
    "json",
    "hash",
    "hasher",
    "Hasher",
    "write_u64",
    "write_u32",
    "write_all",
    "push_str",
    "encode",
    "to_le_bytes",
];

/// Order-restoring markers that silence the rule on a line.
const ORDER_OK: &[&str] = &[
    "sort",
    "sorted",
    "sort_by",
    "sort_unstable",
    "BTreeMap",
    "BTreeSet",
];

fn hl005_hashmap_iteration(file: &ScannedFile, findings: &mut Vec<Finding>) {
    // Pass 1: names declared as HashMap in this file (fields or locals).
    let mut maps: BTreeSet<String> = BTreeSet::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut from = 0;
        while let Some(pos) = code[from..].find("HashMap") {
            let start = from + pos;
            let prefix = code[..start].trim_end();
            if let Some(rest) = prefix.strip_suffix([':', '=']) {
                let name: String = rest
                    .trim_end()
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty() && !name.chars().next().unwrap().is_ascii_digit() {
                    maps.insert(name);
                }
            }
            from = start + "HashMap".len();
        }
    }
    if maps.is_empty() {
        return;
    }
    // Pass 2: iteration over a known map with a sink in reach — on the
    // same line (`m.iter().map(..).collect::<String>()` chains) or
    // within the next few lines (a `for` header whose body serializes).
    // An order-restoring marker anywhere in the window silences it.
    const WINDOW: usize = 8;
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for name in &maps {
            let iterated = ["iter", "keys", "values", "drain"]
                .iter()
                .any(|m| code.contains(&format!("{name}.{m}()")))
                || code.contains(&format!("in &{name}"))
                || code.contains(&format!("in {name}"));
            if !iterated {
                continue;
            }
            let window = file.lines[idx..file.lines.len().min(idx + WINDOW)]
                .iter()
                .take_while(|l| !l.in_test);
            let mut sunk = false;
            for w in window {
                if ORDER_OK.iter().any(|ok| has_word(&w.code, ok)) {
                    sunk = false;
                    break;
                }
                sunk = sunk || SINK_IDENTS.iter().any(|s| has_word(&w.code, s));
            }
            if sunk {
                findings.push(Finding {
                    rule: "HL005".into(),
                    file: file.path.clone(),
                    function: "-".into(),
                    line: idx + 1,
                    detail: format!(
                        "`HashMap` `{name}` iteration feeds a serialization/hashing sink"
                    ),
                });
            }
        }
    }
}

/// Registry call tokens on a line decide the required suffix of any
/// `hddm_*` instrument-name literal on that line.
fn hl005_instrument_names(file: &ScannedFile, findings: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for s in &line.strings {
            // A bare `hddm_` is the scheme prefix itself (e.g. a
            // `starts_with` check), not an instrument name.
            if !s.starts_with("hddm_") || s.len() == "hddm_".len() {
                continue;
            }
            let mut problems: Vec<String> = Vec::new();
            let charset_ok = s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                && !s.contains("__")
                && !s.ends_with('_');
            if !charset_ok {
                problems.push(format!(
                    "instrument name `{s}` violates the hddm_* naming charset"
                ));
            }
            let code = &line.code;
            let is_counter = has_word(code, "counter");
            let is_histogram = has_word(code, "histogram") || has_word(code, "span");
            let is_gauge = has_word(code, "gauge");
            if is_counter && !s.ends_with("_total") {
                problems.push(format!("counter name `{s}` must end `_total`"));
            }
            if is_histogram && !s.ends_with("_seconds") {
                problems.push(format!("histogram/span name `{s}` must end `_seconds`"));
            }
            if is_gauge && (s.ends_with("_total") || s.ends_with("_seconds")) {
                problems.push(format!(
                    "gauge name `{s}` must not use a counter/histogram suffix"
                ));
            }
            for detail in problems {
                findings.push(Finding {
                    rule: "HL005".into(),
                    file: file.path.clone(),
                    function: "-".into(),
                    line: idx + 1,
                    detail,
                });
            }
        }
    }
}
