//! Shape guards: each holds a shape of the code base that a past change
//! paid for — one batch walk, one multiply-add per kernel, one Newton
//! schedule, the dependency direction between crates — by reading the
//! sources, so a change that brings a removed shape back fails the tests.
//!
//! One `#[test]` per guard. The sources are read with `std::fs` from this
//! package's directory, the workspace root. "Non-test code" is a file read
//! up to its first `#[cfg(test)]` line. A failure message names what came
//! back and where the shape lives now.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The file at `path` (relative to the root).
fn read(path: &str) -> String {
    let full = root().join(path);
    fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {}: {e}", full.display()))
}

/// `text` up to its first line that names `#[cfg(test)]`.
fn live(text: &str) -> String {
    text.lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The entries of the directory `path` but hidden ones, sorted bytewise
/// (`ls | LC_ALL=C sort`).
fn entries(path: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join(path))
        .unwrap_or_else(|e| panic!("list {path}: {e}"))
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .filter(|name| !name.starts_with('.'))
        .collect();
    names.sort();
    names
}

/// Every `.rs` file under the directory `path`, at any depth, as paths
/// relative to the root, sorted.
fn rust_files(path: &str) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root().join(path), &mut files);
    let mut names: Vec<String> = files
        .iter()
        .map(|p| {
            p.strip_prefix(root())
                .expect("under the root")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// The lines of `text` that `hit` accepts, as `file:line: text`.
fn hits(file: &str, text: &str, hit: impl Fn(&str) -> bool) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| hit(line))
        .map(|(n, line)| format!("{file}:{}: {line}", n + 1))
        .collect()
}

/// Whether `c` is a word character (`grep -w`, `\b`).
fn is_word(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Whether `line` names `word` with no word character after it (`word\b`).
fn ends_word(line: &str, word: &str) -> bool {
    line.match_indices(word)
        .any(|(at, _)| !is_word(line[at + word.len()..].chars().next()))
}

/// Whether `line` names `word` with no word character on either side
/// (`grep -w`).
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !is_word(line[..at].chars().next_back()) && !is_word(line[at + word.len()..].chars().next())
    })
}

/// The non-test lines of `files` that `hit` accepts, as `file:line: text`.
fn live_hits(files: &[String], hit: impl Fn(&str) -> bool) -> Vec<String> {
    files
        .iter()
        .flat_map(|f| hits(f, &live(&read(f)), &hit))
        .collect()
}

/// `found`, followed by the message `fail` if it holds any line.
fn flag(mut found: Vec<String>, fail: impl Into<String>) -> Vec<String> {
    if !found.is_empty() {
        found.push(fail.into());
    }
    found
}

/// Panics with `failures` (found lines and `FAIL:` messages) if there are any.
fn pass(failures: Vec<String>) {
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

// Six shims, each for a crate the workspace cannot do without. The pool,
// the communicator's locks and the perf harness are std and benchmark/:
// an imitation of a crate for one caller does not come back through the
// lock file or the shims directory.
#[test]
fn no_deque_lock_or_bench_harness_shim() {
    let found = hits("Cargo.lock", &read("Cargo.lock"), |line| {
        ["criterion", "crossbeam-deque", "parking_lot"]
            .iter()
            .any(|name| line.starts_with(&format!("name = \"{name}\"")))
    });
    let mut failures = flag(found, "FAIL: Cargo.lock names a deleted shim");
    let want = "README.md proptest rand rand_chacha serde serde_derive serde_json";
    let have = entries("shims").join(" ");
    if have != want {
        failures.push(format!("FAIL: shims/ holds '{have}', expected '{want}'"));
    }
    pass(failures);
}

// A residual row's transcendental budget is one `pow` (`K'^θ`), and so is
// a Jacobian row's (its price slopes come from the same `K'^θ`, `u''` from
// `u'`); both are kept in economy.rs (`PriceBasis::at`, `inverse_power`):
// the round itself, residuals and Jacobians, never names libm.
#[test]
fn no_libm_in_the_residual_round() {
    let file = "crates/olg/src/model.rs";
    let found = hits(file, &read(file), |l| {
        l.contains("powf") || l.contains("powi")
    });
    let fail = format!("FAIL: {file} calls pow; the budget is kept in economy.rs");
    pass(flag(found, fail));
}

// Hierarchization is a precomputed stencil (`Stencil::of`: endpoints found
// once per grid, then one flat loop per apply); the per-call hash-map
// bucketing it replaced does not come back.
#[test]
fn no_hash_map_in_the_hierarchization() {
    let file = "crates/asg/src/hierarchize.rs";
    let found = hits(file, &live(&read(file)), |l| l.contains("HashMap"));
    let fail = format!("FAIL: {file} uses a HashMap outside its tests; build a Stencil");
    pass(flag(found, fail));
}

// The batch walk is one chunk walk (`BlockJob`): a value-only evaluation is
// the walk with no gradient points. Each vector kernel compiles it, and its
// single-point kernel, in one `#[target_feature]` entry generic over the
// job, stamped out by one macro line; a second walk, or a second entry per
// kernel, does not come back.
#[test]
fn one_batch_walk() {
    let file = "crates/kernels/src/batch.rs";
    let code = live(&read(file));
    let count = |s: &str| code.lines().filter(|l| l.contains(s)).count();
    let (entries, walks) = (count("#[target_feature(enable"), count("fn walk"));
    let mut failures = hits(file, &code, |l| l.contains("span_gradient"));
    if entries > 1 || walks > 1 || !failures.is_empty() {
        failures.push(format!(
            "FAIL: {file} has {entries} #[target_feature] lines and {walks} walk functions; \
             keep one walk and one entry per kernel"
        ));
    }
    pass(failures);
}

// A chain's products are formed lane by lane on the value lanes of its
// column-mask bound, and each lane's alive bit is set as its product is
// formed: no dense product loop over the chunk and no second alive pass
// over the products come back.
#[test]
fn chain_products_on_live_lanes() {
    let file = "crates/kernels/src/batch.rs";
    let found = hits(file, &live(&read(file)), |l| {
        l.contains("alive(buf.temps)") || l.contains("buf.temps.iter_mut()")
    });
    let fail = format!(
        "FAIL: {file} forms chain products densely or re-scans them for alive lanes; \
         multiply on the bound's lanes only"
    );
    pass(flag(found, fail));
}

// The single-point kernel forms every chain's product without a branch and
// compacts the survivors (`compact` in `batch.rs`): the early-exit product
// it replaced does not come back, and the one row prefetch is the
// survivor list's, in `batch.rs`.
#[test]
fn single_point_walk_without_a_branch() {
    let mut failures = Vec::new();
    for file in rust_files("crates/kernels/src") {
        let code = live(&read(&file));
        failures.extend(hits(&file, &code, |l| l.contains("fn chain_product")));
        if !file.ends_with("/batch.rs") {
            failures.extend(hits(&file, &code, |l| l.contains("_mm_prefetch")));
        }
    }
    pass(flag(
        failures,
        "FAIL: crates/kernels/src declares chain_product or prefetches outside batch.rs; the \
         single-point walk is `compact`, and its prefetch is PointJob's",
    ));
}

// Each compressed kernel's row multiply-add is defined once (its `Simd`
// impl and the portable accumulator of its class in `batch.rs`) and
// serves its single-point kernel, its batch walk and its portable
// fallback: no second set of intrinsics, portable lane copy or ISA enum
// comes back, and `hddm-compress` carries no interpolant of its own (the
// `x86` kernel is the scalar one).
#[test]
fn one_multiply_add_per_kernel() {
    let files = rust_files("crates/kernels/src");
    let code: String = files.iter().map(|f| live(&read(f))).collect();
    let sites = |s: &str| code.matches(s).count();
    let mut failures = Vec::new();
    if sites("_mm256_fmadd_pd(") > 1 || sites("_mm256_mul_pd(") > 1 || sites("_mm512_fmadd_pd(") > 2
    {
        failures.push(
            "FAIL: crates/kernels/src issues a vector multiply-add at a second site; \
             each kernel's is its Simd impl in batch.rs"
                .into(),
        );
    }
    let found = live_hits(&files, |l| {
        l.contains("fn select_axpy") || l.contains("enum VectorIsa")
    });
    if root().join("crates/kernels/src/lanes.rs").exists() || !found.is_empty() {
        failures.extend(found);
        failures.push(
            "FAIL: crates/kernels/src has lanes.rs, select_axpy or VectorIsa; \
             KernelKind::native() is the one detection and the fallback is the kernel's own \
             arithmetic"
                .into(),
        );
    }
    let found = live_hits(&rust_files("crates/compress/src"), |l| {
        l.contains("fn interpolate_scalar") || l.contains("fn fill_xpv")
    });
    failures.extend(flag(
        found,
        "FAIL: crates/compress/src declares a scalar interpolant; the x86 kernel is the one",
    ));
    pass(failures);
}

// The fused kernels round by one rule (`FUSED_BLOCK` in `batch.rs`): every
// element of a row but the last `n % 4` fuses, whatever the register
// width, so `avx2` ≡ `avx512`. A per-kernel tail rounding does not come
// back.
#[test]
fn one_rounding_rule_for_the_fused_kernels() {
    let found = live_hits(&rust_files("crates/kernels/src"), |l| {
        l.contains("FUSED_TAIL")
    });
    pass(flag(
        found,
        "FAIL: crates/kernels/src names FUSED_TAIL outside its tests; the fused kernels share \
         one rounding rule, FUSED_BLOCK",
    ));
}

/// The names of the `pub` fields of `pub struct name` in the non-test code
/// of `file`, as declared at the struct's top indentation.
fn fields(file: &str, name: &str) -> Vec<String> {
    let head = format!("pub struct {name} {{");
    live(&read(file))
        .lines()
        .skip_while(|l| !l.starts_with(&head))
        .skip(1)
        .take_while(|l| !l.starts_with('}'))
        .filter_map(|l| {
            let rest = l.strip_prefix("    pub ")?;
            let field = &rest[..rest.find(':')?];
            let ok = !field.is_empty()
                && field
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
            ok.then(|| field.to_string())
        })
        .collect()
}

// Newton's schedule is measured and fixed (the constants in `newton.rs`;
// full Newton was slower), so `NewtonOptions` is the iteration budget
// alone. A setting production gives one value is a constant or derived:
// the driver names its refinement norm, and the executor takes the
// driver's kernel and the cache's registry.
#[test]
fn one_newton_schedule() {
    let mut failures = Vec::new();
    let newton: String = fields("crates/solver/src/newton.rs", "NewtonOptions")
        .iter()
        .map(|f| format!("{f} "))
        .collect();
    if newton != "max_iterations " {
        failures.push(format!(
            "FAIL: NewtonOptions declares pub fields '{newton}'; only max_iterations is settable"
        ));
    }
    let driver = fields("crates/core/src/driver.rs", "DriverConfig");
    if driver.iter().any(|f| f == "refine_norm") {
        failures.push(
            "FAIL: DriverConfig has refine_norm again; the driver refines by SurplusNorm::MaxAbs"
                .into(),
        );
    }
    let executor = fields("crates/scenarios/src/executor.rs", "ExecutorConfig");
    if executor.iter().any(|f| f == "kernel" || f == "telemetry") {
        failures.push(
            "FAIL: ExecutorConfig has kernel or telemetry again; the executor takes the driver's \
             kernel and the cache's registry"
                .into(),
        );
    }
    pass(failures);
}

// Broyden runs in product form: a system keeps the LU of its last true
// Jacobian and one rank-1 factor per accepted step since, so no `n × n`
// approximation is updated or refactored, and the matrix kernels for one
// stay test-side references.
#[test]
fn one_factorization_per_jacobian() {
    let mut failures = Vec::new();
    for f in rust_files("crates/solver/src") {
        let found = hits(&f, &live(&read(&f)), |l| {
            has_word(l, "rank1_update") || has_word(l, "matvec")
        });
        failures.extend(flag(
            found,
            format!(
                "FAIL: {f} names rank1_update or matvec outside its tests; Broyden stays in \
                 product form"
            ),
        ));
    }
    let file = "crates/solver/src/newton.rs";
    let calls = live(&read(file))
        .lines()
        .filter(|l| l.contains("lu_factor("))
        .count();
    if calls != 1 {
        failures.push(format!(
            "FAIL: {file} calls lu_factor {calls} times outside its tests; factor only the Jacobian"
        ));
    }
    pass(failures);
}

// One process is a world of one rank, so there is one time-iteration step:
// `TimeIteration::step` over a `Comm`. No second step or run loop comes
// back beside it, and the level loop (`build_state`) has that step as its
// one caller.
#[test]
fn one_time_iteration_step() {
    let mut failures = Vec::new();
    for f in rust_files("crates/core/src") {
        let found = hits(&f, &live(&read(&f)), |l| {
            ["distributed_step", "distributed_run", "is_group_leader"]
                .iter()
                .any(|name| ends_word(l, &format!("fn {name}")))
        });
        failures.extend(flag(
            found,
            format!(
                "FAIL: {f} declares a second time-iteration step; TimeIteration::step over a Comm \
                 is the one step"
            ),
        ));
    }
    let calls: usize = rust_files("crates")
        .iter()
        .filter(|f| f.contains("/src/"))
        .map(|f| {
            live(&read(f))
                .lines()
                .filter(|l| !l.trim_start_matches(' ').starts_with("//"))
                .filter(|l| l.contains("build_state("))
                .count()
        })
        .sum();
    if calls != 1 {
        failures.push(format!(
            "FAIL: build_state( is called from {calls} non-test sites; only TimeIteration::step \
             builds a state"
        ));
    }
    pass(failures);
}

// A time-iteration run builds what its steps share once: the start grid,
// its stencil, its compression and the workers' buffers come from the
// run's kit (`RunKit` in `driver.rs`), whose pool lends a buffer set to
// every frontier solve, warm-start evaluation and hierarchization. Every
// policy on the start grid — the step-0 policy, a warm start's projection
// — is hierarchized by the kit's stencil, never by the free
// `hierarchize(`. No step builds them again beside it, and neither does
// the scenario engine or the serving front-end: a warm start is
// `TimeIteration::warm`.
#[test]
fn one_kit_per_run() {
    let file = "crates/core/src/driver.rs";
    let code = live(&read(file));
    let head = "impl RunKit {";
    let mut in_kit = false;
    let outside: String = code
        .lines()
        .map(|line| {
            in_kit |= line == head;
            let blank = in_kit;
            in_kit &= line != "}";
            if blank {
                "\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    // A call of the free function, not the stencil's method.
    let free_hierarchize = |l: &str| {
        l.match_indices("hierarchize(").any(|(at, _)| {
            let before = l[..at].chars().next_back();
            before != Some('.') && !is_word(before)
        })
    };
    let mut failures = flag(
        hits(file, &outside, |l| {
            ["regular_grid(", "Stencil::of(", "Scratch::default()"]
                .iter()
                .any(|call| l.contains(call))
                || free_hierarchize(l)
        }),
        format!(
            "FAIL: {file} builds a start grid, a stencil or worker buffers, or hierarchizes \
             without the kit's stencil, outside `{head}`; a step borrows them from the run's kit"
        ),
    );
    if !code.lines().any(|l| l == head) {
        failures.push(format!("FAIL: {file} has no run kit (`{head}`)"));
    }
    let engines = [
        rust_files("crates/scenarios/src"),
        rust_files("crates/serve/src"),
    ]
    .concat();
    failures.extend(flag(
        live_hits(&engines, |l| {
            [
                "regular_grid(",
                "Stencil::of(",
                "CompressedGrid::build(",
                "Scratch::default()",
            ]
            .iter()
            .any(|call| l.contains(call))
        }),
        "FAIL: the scenario engine or the serving front-end builds a start grid, a stencil, a \
         compression or worker buffers; a warm start is `TimeIteration::warm`, on the run's kit",
    ));
    pass(failures);
}

// The surface cache writes one format, `HDDMSURF` record frames, and those
// files seed its catalogue: no JSON codec comes back into the store.
#[test]
fn no_json_in_the_surface_store() {
    let file = "crates/scenarios/src/persist.rs";
    let found = hits(file, &read(file), |l| l.contains("serde"));
    pass(flag(
        found,
        format!("FAIL: {file} names serde; the record files seed the catalogue"),
    ));
}

// Every durable frame (`HDDMSURF` cache records, `HDDMCKPT` checkpoints) is
// verified by one checksum, `checksum` in `record.rs`, a word per step: the
// byte-at-a-time FNV-1a it replaced does not come back, and no second frame
// checksum (a function named for one, or a second multiply chain) sits
// beside it.
#[test]
fn one_frame_checksum() {
    let file = "crates/core/src/record.rs";
    let code = live(&read(file));
    let declared = hits(file, &code, |l| {
        let l = l.trim_start();
        let l = l
            .strip_prefix("pub(crate) ")
            .or(l.strip_prefix("pub "))
            .unwrap_or(l);
        l.strip_prefix("fn ").is_some_and(|rest| {
            let name: String = rest.chars().take_while(|&c| is_word(Some(c))).collect();
            ["checksum", "fnv", "crc", "hash", "digest"]
                .iter()
                .any(|k| name.contains(k))
        })
    });
    let multiplies = hits(file, &code, |l| l.contains("wrapping_mul"));
    let mut failures = Vec::new();
    if declared.len() > 1 || multiplies.len() > 1 || declared.iter().any(|l| l.contains("fn fnv64"))
    {
        failures.extend(declared);
        failures.extend(multiplies);
        failures.push(format!(
            "FAIL: {file} declares fnv64 or more than one frame checksum; frames share one, \
             `checksum`"
        ));
    }
    pass(failures);
}

// A deposit reaches the cache directory one way: the group commit of the
// cache's write-behind stage (`StageShared::commit_group` in `cache.rs`),
// one directory fsync per group. No inline write path comes back beside it
// — a `store.insert`, a composed `write_atomic` or a `Store::commit` on a
// deposit's own thread — and the store composes no `write_atomic` of its
// own (checkpoints keep that call).
#[test]
fn one_durable_write_path() {
    let file = "crates/scenarios/src/cache.rs";
    let code = live(&read(file));
    let head = "    fn commit_group(";
    let mut in_stage = false;
    let outside: String = code
        .lines()
        .map(|line| {
            in_stage |= line.starts_with(head);
            let blank = in_stage;
            in_stage &= line != "    }";
            if blank {
                "\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let mut failures = flag(
        hits(file, &outside, |l| {
            ["store.insert(", "write_atomic(", ".commit(", "sync_dir("]
                .iter()
                .any(|call| l.contains(call))
        }),
        format!(
            "FAIL: {file} writes a record outside the commit stage; deposits enqueue, and \
             `commit_group` commits"
        ),
    );
    if !code.contains(head) {
        failures.push(format!(
            "FAIL: {file} has no commit stage (`{}`)",
            head.trim()
        ));
    }
    let store = "crates/scenarios/src/persist.rs";
    failures.extend(flag(
        hits(store, &live(&read(store)), |l| {
            l.contains("write_atomic(") || l.contains("fn insert(")
        }),
        format!("FAIL: {store} writes a record with its own directory fsync"),
    ));
    pass(failures);
}

// The surface cache has one catalogue: the shards in `cache.rs` list every
// surface it knows, and the store keeps the record files, not a second
// index behind a lock of its own. Every nearest-neighbour decision (warm
// lookup, near-miss probe) is one scan, so one function measures a
// fingerprint distance.
#[test]
fn one_catalogue() {
    let store = "crates/scenarios/src/persist.rs";
    let mut failures = flag(
        hits(store, &code_only(&live(&read(store))), |l| {
            has_word(l, "RwLock") || has_word(l, "Mutex")
        }),
        format!("FAIL: {store} names a lock; the store keeps the files, the cache's shards the catalogue"),
    );
    let mut callers = BTreeSet::new();
    for file in rust_files("crates/scenarios/src") {
        let mut within = String::new();
        for line in code_only(&live(&read(&file))).lines() {
            let starts = |at: usize| !is_word(line[..at].chars().next_back());
            if let Some((at, _)) = line.match_indices("fn ").find(|&(at, _)| starts(at)) {
                within = line[at + 3..]
                    .chars()
                    .take_while(|&c| is_word(Some(c)))
                    .collect();
            }
            let calls = line
                .match_indices("fingerprint_distance(")
                .any(|(at, _)| starts(at) && !line[..at].trim_end().ends_with("fn"));
            if calls {
                callers.insert(format!("{file}: fn {within}"));
            }
        }
    }
    if callers.len() != 1 {
        failures.extend(callers.iter().cloned());
        failures.push(format!(
            "FAIL: {} non-test functions of crates/scenarios/src call fingerprint_distance; \
             every nearest-neighbour decision is one scan of the catalogue",
            callers.len()
        ));
    }
    pass(failures);
}

/// `text` with its line comments, its string and char literals and every
/// other non-ASCII character blanked, each character to one space; a
/// newline stays a newline, so a byte offset of the result has the line
/// number it had in `text`. A lifetime (`'a`) is code.
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(chars.len());
    let mut i = 0;
    while i < chars.len() {
        let next = chars.get(i + 1).copied();
        let end = match chars[i] {
            '/' if next == Some('/') => (i..chars.len()).find(|&j| chars[j] == '\n'),
            '"' => {
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += if chars[j] == '\\' { 2 } else { 1 };
                }
                Some(j + 1)
            }
            '\'' if next == Some('\\') => (i + 3..chars.len())
                .find(|&j| chars[j] == '\'')
                .map(|j| j + 1),
            '\'' if chars.get(i + 2) == Some(&'\'') => Some(i + 3),
            c if !c.is_ascii() => Some(i + 1),
            c => {
                out.push(c);
                i += 1;
                continue;
            }
        };
        let end = end.unwrap_or(chars.len()).min(chars.len());
        out.extend(
            chars[i..end]
                .iter()
                .map(|&c| if c == '\n' { c } else { ' ' }),
        );
        i = end;
    }
    out
}

/// The identifier that ends at byte `end` of `code`.
fn ident_before(code: &str, end: usize) -> &str {
    let start = code[..end]
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |at| at + 1);
    &code[start..end]
}

/// The lock an acquisition starting at byte `at` of `code` takes:
/// `.shard_read(`/`.shard_write(` a catalogue shard, and `.lock(x)` or
/// `recover(x)` the lock `x` names (its last named field: `&self.slot.0` is
/// `slot`).
fn acquisition(code: &str, at: usize) -> Option<String> {
    let rest = &code[at..];
    if rest.starts_with(".shard_read(") || rest.starts_with(".shard_write(") {
        return Some("shard".to_string());
    }
    let args = if let Some(args) = rest.strip_prefix(".lock(") {
        args
    } else if !is_word(code[..at].chars().next_back()) {
        rest.strip_prefix("recover(")?
    } else {
        return None;
    };
    let path: String = args
        .trim_start_matches('&')
        .chars()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        .collect();
    path.split('.')
        .rev()
        .find(|field| field.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .map(str::to_string)
}

/// The function a `let` initializer ends in a call of, looking through a
/// trailing `.unwrap_or_else(…)`: the call whose value is bound.
fn bound_call(init: &str) -> Option<&str> {
    let mut s = init.trim_end();
    loop {
        if !s.ends_with(')') {
            return None;
        }
        let mut depth = 0usize;
        let open = s.char_indices().rev().find_map(|(at, c)| {
            match c {
                ')' => depth += 1,
                '(' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(at)
        })?;
        let callee = ident_before(s, open);
        if callee != "unwrap_or_else" {
            return Some(callee);
        }
        s = s[..open - callee.len()].strip_suffix('.')?.trim_end();
    }
}

/// A `let`-bound lock guard in scope.
struct Guard {
    name: String,
    lock: String,
    /// The brace depth of its `let`: the guard lives until that block closes.
    depth: usize,
    line: usize,
}

/// A `let` whose `;` has not been reached.
struct Binding {
    name: String,
    start: usize,
    braces: usize,
    parens: usize,
}

/// The faults of `text`'s non-test code as `file:line:` messages, and the
/// locks whose guards it binds. A guard is a `let` whose initializer ends
/// in an acquisition ([`acquisition`]) or in a `wait_while` handed a live
/// guard; it lives until its block closes or it is `drop`ped. A fault is a
/// call of `calls` while a guard lives, or a second acquisition of a lock
/// while a guard of it lives. The scan reads one function at a time: a
/// call that takes a lock inside another function is not followed.
fn lock_faults(file: &str, text: &str, calls: &[&str]) -> (Vec<String>, BTreeSet<String>) {
    let code = code_only(&live(text));
    let line = |at: usize| code[..at].matches('\n').count() + 1;
    let (mut guards, mut bindings): (Vec<Guard>, Vec<Binding>) = (Vec::new(), Vec::new());
    let (mut braces, mut parens) = (0usize, 0usize);
    let (mut faults, mut locks) = (Vec::new(), BTreeSet::new());
    for (at, c) in code.char_indices() {
        let rest = &code[at..];
        let starts_word = !is_word(code[..at].chars().next_back());
        if let Some(lock) = acquisition(&code, at) {
            if let Some(g) = guards.iter().find(|g| g.lock == lock) {
                faults.push(format!(
                    "{file}:{}: `{lock}` acquired again while `{}` (l. {}) holds it",
                    line(at),
                    g.name,
                    g.line
                ));
            }
        }
        if let Some(g) = guards.first() {
            for call in calls {
                if rest.starts_with(call) && (call.starts_with('.') || starts_word) {
                    faults.push(format!(
                        "{file}:{}: `{call}` while `{}` (l. {}) holds `{}`",
                        line(at),
                        g.name,
                        g.line,
                        g.lock
                    ));
                }
            }
        }
        if starts_word {
            if let Some(after) = rest.strip_prefix("let ") {
                let before = code[..at].trim_end();
                if !before.ends_with("if") && !before.ends_with("while") {
                    let after = after.trim_start().trim_start_matches("mut ");
                    let name = &after[..after
                        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .unwrap_or(after.len())];
                    bindings.push(Binding {
                        name: name.to_string(),
                        start: at,
                        braces,
                        parens,
                    });
                }
            }
            if let Some(args) = rest.strip_prefix("drop(") {
                let name = &args[..args.find(')').unwrap_or(0)];
                guards.retain(|g| g.name != name.trim());
            }
        }
        match c {
            '{' => braces += 1,
            '}' => {
                braces -= 1;
                guards.retain(|g| g.depth <= braces);
            }
            '(' | '[' => parens += 1,
            ')' | ']' => parens -= 1,
            ';' if bindings
                .last()
                .is_some_and(|b| (b.braces, b.parens) == (braces, parens)) =>
            {
                let b = bindings.pop().expect("a pending let");
                let statement = &code[b.start..at];
                let Some((_, init)) = statement.split_once(" = ") else {
                    continue;
                };
                let guarded = [
                    "shard_read",
                    "shard_write",
                    "lock",
                    "recover",
                    "wait_while",
                    "wait_timeout_while",
                ];
                if !bound_call(init).is_some_and(|call| guarded.contains(&call)) {
                    continue;
                }
                let handed = guards
                    .iter()
                    .find(|g| init.contains("wait_while") && has_word(init, &g.name))
                    .map(|g| g.lock.clone());
                let acquired = (0..init.len()).find_map(|i| acquisition(init, i));
                if let Some(lock) = handed.or(acquired) {
                    locks.insert(lock.clone());
                    guards.push(Guard {
                        name: b.name,
                        lock,
                        depth: b.braces,
                        line: line(b.start),
                    });
                }
            }
            _ => {}
        }
    }
    (faults, locks)
}

// No record or directory I/O while a lock is held, and no lock taken twice:
// the cache's readers must never wait on a disk, and the serving queue is
// never held across a solve. `lock_faults` reads the cache, whose shards
// and commit stage hold the persisted cache's locks, the store,
// which holds none, and the serving queue. It is a scan of each function's
// text: a lock taken inside a called function (the serving queue answering
// a waiter's slot, `Group::shed_expired`) is not seen.
#[test]
fn no_record_io_under_a_lock() {
    let io = [
        "fs::",
        "record::",
        ".commit(",
        ".read_record(",
        ".remove_record(",
        ".sync_dir(",
    ];
    let mut failures = Vec::new();
    for (file, solve, want) in [
        (
            "crates/scenarios/src/cache.rs",
            &[][..],
            &["backlog", "shard", "writer"][..],
        ),
        ("crates/scenarios/src/persist.rs", &[], &[]),
        (
            "crates/serve/src/service.rs",
            &["dispatch(", "run_batch("],
            &["queue"],
        ),
    ] {
        let calls: Vec<&str> = io.iter().chain(solve).copied().collect();
        let (faults, locks) = lock_faults(file, &read(file), &calls);
        failures.extend(flag(
            faults,
            format!("FAIL: {file} does I/O or takes a lock again under a lock guard"),
        ));
        for lock in want {
            if !locks.contains(*lock) {
                failures.push(format!(
                    "FAIL: {file} binds no guard of `{lock}`; the scan no longer sees its lock"
                ));
            }
        }
    }
    for (what, seed) in [
        (
            "an eviction under a shard guard",
            "fn evict(&self) {\n    let mut shard = self.catalogue.shard_write(i);\n    self.store.remove_record(hash);\n}\n",
        ),
        (
            "a read guard upgraded",
            "fn loaded(&self) {\n    let shard = self.shard_read(i);\n    let mut upgraded = self.shard_write(i);\n}\n",
        ),
    ] {
        if lock_faults("seed", seed, &io).0.is_empty() {
            failures.push(format!("FAIL: the scan misses {what}"));
        }
    }
    pass(failures);
}

// Each cache entry restores its surface once through its own slot, a
// `OnceLock`: no side table of hashes in flight, no claim to re-check. One
// function reads a record file, and it runs only inside a slot's
// `get_or_init`, so concurrent readers of one hash share one read.
#[test]
fn one_restore_slot() {
    let file = "crates/scenarios/src/cache.rs";
    let code = code_only(&live(&read(file)));
    let mut failures = flag(
        hits(file, &code, |l| {
            has_word(l, "inflight") || has_word(l, "HashSet")
        }),
        format!("FAIL: {file} keeps a set of restores in flight; the entry's slot is the claim"),
    );
    // The functions that read a record file: each line counts toward the
    // free function or method it lies in, not a function nested in one (a
    // guard's `drop`).
    let mut readers = BTreeSet::new();
    let mut within = "";
    for line in code.lines() {
        let item = ["fn ", "    fn ", "pub fn ", "    pub fn "]
            .iter()
            .find_map(|head| line.strip_prefix(head));
        if let Some(name) = item {
            within = &name[..name.find(|c| !is_word(Some(c))).unwrap_or(name.len())];
        }
        if line.contains(".read_record(") {
            readers.insert(within);
        }
    }
    let [reader] = Vec::from_iter(&readers)[..] else {
        failures.push(format!(
            "FAIL: {file}: {} functions read a record file ({readers:?}); one restore reads it",
            readers.len()
        ));
        return pass(failures);
    };
    // The byte ranges of the arguments of each `get_or_init(` call.
    let inits: Vec<(usize, usize)> = code
        .match_indices("get_or_init(")
        .map(|(at, head)| {
            let start = at + head.len();
            let mut depth = 0usize;
            let end = code[start..].char_indices().find_map(|(i, c)| {
                match c {
                    '(' => depth += 1,
                    ')' if depth == 0 => return Some(start + i),
                    ')' => depth -= 1,
                    _ => {}
                }
                None
            });
            (start, end.unwrap_or(code.len()))
        })
        .collect();
    let call = format!(".{reader}(");
    let calls: Vec<usize> = code.match_indices(&call).map(|(at, _)| at).collect();
    let outside: Vec<String> = calls
        .iter()
        .filter(|&&at| !inits.iter().any(|&(start, end)| (start..end).contains(&at)))
        .map(|&at| format!("{file}:{}: `{call}`", code[..at].matches('\n').count() + 1))
        .collect();
    if calls.is_empty() || !outside.is_empty() {
        failures.extend(outside);
        failures.push(format!(
            "FAIL: {file}: `{reader}` must be called, and only inside a slot's `get_or_init(` closure"
        ));
    }
    pass(failures);
}

// A scenario batch runs on the thread that calls `run_batch`: the pool
// starts from it and hands each result to the caller's callback, so the
// executor starts no batch thread and passes no results over a channel.
// The serving front-end starts its dispatchers in `ScenarioService::spawn`
// and no thread anywhere else; a dispatcher runs its batches itself.
#[test]
fn a_batch_runs_on_its_callers_thread() {
    let spawns = |l: &str| {
        ["thread::spawn", "thread::scope", "thread::Builder"]
            .iter()
            .any(|call| l.contains(call))
    };
    let executor = "crates/scenarios/src/executor.rs";
    let mut failures = flag(
        hits(executor, &code_only(&live(&read(executor))), |l| {
            spawns(l) || has_word(l, "mpsc") || l.contains("channel(") || l.contains("channel::<")
        }),
        format!(
            "FAIL: {executor} starts a thread or opens a channel; a batch runs on its \
             caller's thread and hands results to its callback"
        ),
    );
    let service = "crates/serve/src/service.rs";
    let code = code_only(&live(&read(service)));
    let head = "    fn spawn(";
    let mut in_spawn = false;
    let outside: String = code
        .lines()
        .map(|line| {
            in_spawn |= line.starts_with(head);
            let blank = in_spawn;
            in_spawn &= line != "    }";
            if blank {
                "\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    failures.extend(flag(
        hits(service, &outside, spawns),
        format!(
            "FAIL: {service} starts a thread outside `ScenarioService::spawn`; a dispatcher \
             runs its batch through `run_batch` on its own thread"
        ),
    ));
    if !code.lines().any(|l| l.starts_with(head)) {
        failures.push(format!("FAIL: {service} has no `ScenarioService::spawn`"));
    }
    pass(failures);
}

// Every library but hddm-kernels forbids `unsafe`: the kernels' intrinsics
// are the one place it is needed, and each of their blocks states its
// contract (clippy `undocumented_unsafe_blocks`).
#[test]
fn only_the_kernels_are_unsafe() {
    let mut libs = vec!["src/lib.rs".to_string()];
    for krate in entries("crates") {
        let lib = format!("crates/{krate}/src/lib.rs");
        if krate != "kernels" && root().join(&lib).is_file() {
            libs.push(lib);
        }
    }
    pass(
        libs.iter()
            .filter(|lib| {
                !read(lib)
                    .lines()
                    .any(|line| line.trim() == "#![forbid(unsafe_code)]")
            })
            .map(|lib| {
                format!("FAIL: {lib} lacks `#![forbid(unsafe_code)]`; only hddm-kernels is unsafe")
            })
            .collect(),
    );
}

/// `[[:space:]]`.
fn space(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\n' | '\x0B' | '\x0C' | '\r')
}

/// `line` with every string literal that closes on it blanked to `""`; a
/// quote that does not close is kept and the scan goes on after it.
fn blank_strings(line: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '"' {
            let mut j = i + 1;
            let close = loop {
                match chars.get(j) {
                    None => break None,
                    Some('"') => break Some(j),
                    Some('\\') if j + 1 < chars.len() => j += 2,
                    Some('\\') => break None,
                    Some(_) => j += 1,
                }
            };
            if let Some(j) = close {
                out.push_str("\"\"");
                i = j + 1;
                continue;
            }
        }
        out.push(chars[i]);
        i += 1;
    }
    out
}

/// Whether `code` calls `.lock()`, `.read()` or `.write()`, then
/// `.unwrap()` or `.expect(` after optional space.
fn unwrapped_lock(code: &str) -> bool {
    [".lock()", ".read()", ".write()"].iter().any(|call| {
        code.match_indices(call).any(|(at, _)| {
            let rest = code[at + call.len()..].trim_start_matches(space);
            rest.starts_with(".unwrap()") || rest.starts_with(".expect(")
        })
    })
}

// Three conventions clippy does not know, over the code (string literals
// blanked) of every non-test line (a file is read up to its
// `#[cfg(test)]`):
// - an atomic `Ordering::*` says why in an `ORDERING:` comment on its line
//   or in the comment block directly above, and `SeqCst` is named there;
// - a lock is never `.unwrap()`ed or `.expect(…)`ed: it recovers from
//   poison (`unwrap_or_else(PoisonError::into_inner)` or the crate's
//   `recover`), so one panic under a guard cannot cascade;
// - no guard-passing `Condvar::wait`/`wait_timeout`: `wait_while` and
//   `wait_timeout_while` own the spurious-wakeup loop.
#[test]
fn conventions_in_non_test_code() {
    let mut files = rust_files("src");
    for krate in entries("crates") {
        let src = format!("crates/{krate}/src");
        if root().join(&src).is_dir() {
            files.extend(rust_files(&src));
        }
    }
    let orderings = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let mut failures = Vec::new();
    for file in &files {
        let (mut above, mut prev) = (String::new(), String::new());
        for (n, line) in read(file).lines().enumerate() {
            if line.trim_start_matches(space).starts_with("#[cfg(test)]") {
                break;
            }
            let at = format!("{file}:{}: ", n + 1);
            let mut code = blank_strings(line);
            let mut note = String::new();
            if let Some(c) = code.find("//") {
                note = code[c..].to_string();
                code.truncate(c);
            }
            if orderings
                .iter()
                .any(|o| code.contains(&format!("Ordering::{o}")))
            {
                let why = format!("{above}{note}");
                if !why.contains("ORDERING:") {
                    failures.push(format!("{at}Ordering without an ORDERING: comment"));
                } else if code.contains("Ordering::SeqCst") && !why.contains("SeqCst") {
                    failures.push(format!("{at}ORDERING: comment does not name SeqCst"));
                }
            }
            let continued = [".lock()", ".read()", ".write()"]
                .iter()
                .any(|call| prev.trim_end_matches(space).ends_with(call));
            let leading = code.trim_start_matches(space);
            if unwrapped_lock(&code)
                || continued
                    && (leading.starts_with(".unwrap()") || leading.starts_with(".expect("))
            {
                failures.push(format!("{at}lock unwrapped: recover from poison instead"));
            }
            let waits = code
                .match_indices(".wait(")
                .any(|(i, _)| !code[i + 6..].starts_with(')'));
            if waits || code.contains(".wait_timeout(") {
                failures.push(format!("{at}guard-passing wait: use wait_while"));
            }
            let bare: String = code.chars().filter(|&c| !space(c)).collect();
            let attribute = bare.len() >= 3 && bare.starts_with("#[") && bare.ends_with(']');
            above = if (bare.is_empty() && !note.is_empty()) || attribute {
                format!("{above}\n{note}")
            } else {
                String::new()
            };
            prev = code;
        }
    }
    pass(failures);
}

/// Every package of the workspace (the root, `crates/*` and `shims/*`) by
/// name, with the names its `[dependencies]` tables declare — the normal
/// edges `cargo tree -e normal` walks; dev- and build-dependencies are not
/// among them.
fn dependency_graph() -> Vec<(String, BTreeSet<String>)> {
    let mut manifests = vec!["Cargo.toml".to_string()];
    for dir in ["crates", "shims"] {
        for entry in entries(dir) {
            let manifest = format!("{dir}/{entry}/Cargo.toml");
            if root().join(&manifest).is_file() {
                manifests.push(manifest);
            }
        }
    }
    manifests
        .iter()
        .map(|manifest| {
            let (mut name, mut deps, mut table) = (String::new(), BTreeSet::new(), String::new());
            for line in read(manifest).lines() {
                let line = line.trim();
                if line.starts_with('[') {
                    table = line.to_string();
                    if let Some(dep) = table.strip_prefix("[dependencies.") {
                        deps.insert(dep.trim_end_matches(']').trim_matches('"').to_string());
                    }
                    continue;
                }
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let key: String = line
                    .chars()
                    .take_while(|&c| c != '=' && c != '.' && !space(c))
                    .collect();
                let value = line.split_once('=').map_or("", |(_, v)| v.trim());
                if table == "[package]" && key == "name" {
                    name = value.trim_matches('"').to_string();
                }
                let normal = table == "[dependencies]"
                    || table.starts_with("[target.") && table.ends_with(".dependencies]");
                if normal {
                    // A renamed dependency is the package it names.
                    let package = value
                        .split_once("package")
                        .and_then(|(_, rest)| rest.trim_start().strip_prefix('='))
                        .and_then(|rest| rest.trim_start().strip_prefix('"'))
                        .and_then(|rest| rest.split('"').next());
                    deps.insert(package.unwrap_or(&key).to_string());
                }
            }
            (name, deps)
        })
        .collect()
}

/// The direct normal dependencies of the package `name`.
fn direct(graph: &[(String, BTreeSet<String>)], name: &str) -> BTreeSet<String> {
    graph
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no workspace package named {name}"))
        .1
        .clone()
}

/// Every package the package `name` reaches over normal dependencies.
fn closure(graph: &[(String, BTreeSet<String>)], name: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut todo = vec![name.to_string()];
    while let Some(next) = todo.pop() {
        if let Some((_, deps)) = graph.iter().find(|(n, _)| *n == next) {
            for dep in deps {
                if seen.insert(dep.clone()) {
                    todo.push(dep.clone());
                }
            }
        }
    }
    seen
}

// The driver and the scenario engine name `ExecutionBackend` from
// hddm-kernels; the device model observes that crate, not they it. The
// scenario engine and the serving facade run on the real pool: neither
// names the communicator (hddm-core below them does, for `Comm` — hence
// direct edges only). hddm-cluster is the communicator and its rank-group
// assignment, what hddm-core and the driver call; the Fig. 7/8 machine
// models live in hddm-bench with their figures. A stored policy has one
// byte form, `hddm_core::record`; hddm-core carries no serializer a second
// checkpoint format could come back through, and hddm-olg none an
// economy's JSON form could.
#[test]
fn dependency_direction() {
    let mut failures = Vec::new();
    let want = "assign.rs comm.rs lib.rs";
    let have = entries("crates/cluster/src").join(" ");
    if have != want {
        failures.push(format!(
            "FAIL: crates/cluster/src holds '{have}', expected '{want}'"
        ));
    }
    let graph = dependency_graph();
    for krate in ["hddm-core", "hddm-scenarios"] {
        if closure(&graph, krate).contains("hddm-gpu") {
            failures.push(format!("FAIL: {krate} depends on hddm-gpu"));
        }
    }
    for krate in ["hddm-scenarios", "hddm-serve"] {
        if direct(&graph, krate).contains("hddm-cluster") {
            failures.push(format!("FAIL: {krate} depends on hddm-cluster directly"));
        }
    }
    for krate in ["hddm-core", "hddm-olg"] {
        let deps = direct(&graph, krate);
        if deps.contains("serde") || deps.contains("serde_json") {
            failures.push(format!(
                "FAIL: {krate} depends on serde or serde_json directly"
            ));
        }
    }
    pass(failures);
}
