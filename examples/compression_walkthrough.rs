//! A guided walk through the ASG index-compression pipeline of Sec. IV-B,
//! printing every intermediate object of Figs. 3–4 on a small grid so the
//! scheme can be inspected by eye:
//!
//! 1. `Ξ̃` → pre-scaling `(l,i) ↦ (ł,í) = (2^{l−1}, i)` → zero elimination
//!    (Fig. 3: level-1 coordinates become the `(0,0)` pairs that make `Ξ`
//!    ~96.8% zeros);
//! 2. decomposition into `ξ_freq` matrices, at most one non-zero per
//!    original row each (Fig. 4);
//! 3. per-frequency renumbering + transition matrices `T_freq`;
//! 4. deduplication into the global `xps` array with lookup vectors;
//! 5. chain construction (Algorithm 2) + the surplus reordering;
//! 6. a compressed interpolation (the `x86` kernel) compared against the
//!    dense `gold` kernel.
//!
//! ```text
//! cargo run --release --example compression_walkthrough [dim] [level]
//! ```

use hddm::asg::{hierarchize, regular_grid, tabulate};
use hddm::compress::{decompose, unique_elements, CompressedGrid, XiSparse};
use hddm::kernels::{gold, CompressedState, DenseState, KernelKind, Scratch};

fn main() {
    let dim: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let level: u8 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let grid = regular_grid(dim, level);
    println!(
        "Sparse grid: d = {dim}, level {level}, nno = {} points\n",
        grid.len()
    );

    // --- Step 1: Ξ̃ → Ξ (pre-scaling + zero elimination, Fig. 3).
    let xi = XiSparse::from_grid(&grid);
    println!(
        "Ξ zero elimination: {:.1}% of the dense {}×{} pair matrix is (0,0)",
        100.0 * xi.zero_fraction(),
        grid.len(),
        dim
    );
    println!("first rows of the zero-eliminated Ξ (dim:(ł,í) per non-zero):");
    for (p, row) in xi.rows.iter().enumerate().take(8) {
        let cells: Vec<String> = row
            .iter()
            .map(|e| format!("{}:({},{})", e.dim, e.l, e.i))
            .collect();
        println!("  point {p:>3}: [{}]", cells.join(" "));
    }

    // --- Step 2: ξ_freq decomposition (Fig. 4).
    let mats = decompose(&xi);
    println!("\nnfreq = {} ξ-matrices:", mats.len());
    for (k, m) in mats.iter().enumerate() {
        println!(
            "  ξ_{k}: {} elements in {} ragged rows × {} columns",
            m.len(),
            m.nrows(),
            m.columns.len()
        );
    }

    // --- Steps 3–4: uniques + lookups.
    let unique = unique_elements(&mats);
    println!(
        "\nxps: {} unique 1-D basis evaluations (sentinel included) — Table I's \"xps/state\"",
        unique.xps.len()
    );
    for (id, e) in unique.xps.iter().enumerate().take(10) {
        println!("  xps[{id}] = dim {} (ł,í) = ({},{})", e.index, e.l, e.i);
    }

    // --- Step 5: the final compressed structure.
    let cg = CompressedGrid::build(&grid);
    println!(
        "\nchains: {} × nfreq {} (0-terminated xps ids per point; complexity\nfalls from nno×d = {} to nno×nfreq = {}):",
        cg.nno(),
        cg.nfreq(),
        cg.nno() * dim,
        cg.nno() * cg.nfreq()
    );
    for (p, chain) in cg.chains().chunks_exact(cg.nfreq()).enumerate().take(8) {
        println!(
            "  chain {p:>3}: {:?}  (grid point {})",
            chain,
            cg.order()[p]
        );
    }
    let stats = cg.stats();
    println!(
        "\nmemory: compressed {} B vs dense {} B ({:.1}x smaller)",
        stats.compressed_bytes,
        stats.dense_bytes,
        stats.dense_bytes as f64 / stats.compressed_bytes as f64
    );

    // --- Step 6: equivalence with the dense gold kernel.
    let ndofs = 3;
    let mut surplus = tabulate(&grid, ndofs, |x, out| {
        for (k, o) in out.iter_mut().enumerate() {
            *o = x
                .iter()
                .enumerate()
                .map(|(t, &v)| ((t + k + 1) as f64 * v).sin())
                .sum();
        }
    });
    hierarchize(&grid, &mut surplus, ndofs);
    let dense = DenseState::new(&grid, surplus.clone(), ndofs);
    let reordered = cg.reorder_rows(&surplus, ndofs);
    let compressed = CompressedState::from_parts(cg, reordered, ndofs);
    let mut scratch = Scratch::default();
    let mut want = vec![0.0; ndofs];
    let mut got = vec![0.0; ndofs];
    let mut worst = 0.0f64;
    for s in 0..100 {
        let x: Vec<f64> = (0..dim)
            .map(|t| ((s * 13 + t * 7) as f64 * 0.0619 + 0.005) % 1.0)
            .collect();
        gold::interpolate(&dense, &x, &mut want);
        KernelKind::X86.evaluate_compressed(&compressed, &x, &mut scratch, &mut got);
        for k in 0..ndofs {
            worst = worst.max((got[k] - want[k]).abs());
        }
    }
    println!("\nequivalence vs gold over 100 random points: max |Δ| = {worst:.2e}");
    assert!(worst < 1e-12);
    println!("compressed interpolation reproduces the dense baseline exactly. ✓");
}
