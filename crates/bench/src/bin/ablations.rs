//! Ablation studies for the paper's design choices:
//!
//! 1. **Storage scheme** — dense matrix (`gold`, [23]) vs hash table
//!    ([22]) vs the paper's compressed chains, the three ASG storage
//!    options Sec. IV-B opens with.
//! 2. **Surplus matrix reordering** — chains with reordered (streaming)
//!    surplus rows vs the same chains gathering rows in original grid
//!    order.
//! 3. **Zero-skip early exit** — the `goto zero` shortcut of Fig. 5 on/off.
//! 4. **GPU launch geometry** — block-size sweep around the paper's 128
//!    and shared-memory vs global-memory `xpv` staging: `price_block` over
//!    the counts of one walk (modeled; the options never change values).
//!
//! ```text
//! cargo run -p hddm-bench --release --bin ablations [points-per-case]
//! ```

use hddm_bench::ablation::{interpolate_no_skip, interpolate_unordered};
use hddm_bench::hashtab::{self, HashState};
use hddm_bench::{random_points, synthetic_surpluses, time_avg, KernelCase, NDOFS};
use hddm_compress::CompressedGrid;
use hddm_gpu::{price_block, Device, LaunchOptions};
use hddm_kernels::batch::interpolate_batch;
use hddm_kernels::{gold, x86, CompressedState, KernelKind, PointBlock, Scratch};

fn main() {
    let points: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);

    println!("Ablation studies (ndofs = {NDOFS}, avg over {points} random points)");

    for (name, level) in [("7k", 3u8), ("300k", 4u8)] {
        println!("\nbuilding \"{name}\" case (level {level})...");
        let case = KernelCase::build(name, level, NDOFS);
        let surplus = synthetic_surpluses(&case.grid, NDOFS, 0xA5A5 + level as u64);
        let hashed = HashState::new(&case.grid, &surplus, NDOFS);
        let cg = CompressedGrid::build(&case.grid);
        let xs = random_points(59, points, 0xBEEF);
        let mut out = vec![0.0; NDOFS];
        let mut scratch = Scratch::default();

        println!(
            "  \"{name}\": {} points, {} level sets, nfreq {}",
            case.grid.len(),
            hashed.num_level_sets(),
            cg.nfreq()
        );

        // --- Ablation 1: storage scheme.
        let mut iter = xs.chunks_exact(59).cycle();
        let t_gold = time_avg(points, || {
            gold::interpolate(&case.dense, iter.next().unwrap(), &mut out);
        });
        let mut iter = xs.chunks_exact(59).cycle();
        let t_hash = time_avg(points, || {
            hashtab::interpolate(&hashed, iter.next().unwrap(), &mut out);
        });
        let mut iter = xs.chunks_exact(59).cycle();
        let t_chain = time_avg(points, || {
            x86::interpolate(
                &case.compressed,
                iter.next().unwrap(),
                &mut scratch,
                &mut out,
            );
        });
        println!("\n  storage scheme              time [sec]    vs dense");
        for (label, t) in [
            ("dense matrix (gold, [23])", t_gold),
            ("hash table ([22])", t_hash),
            ("compressed chains (ours)", t_chain),
        ] {
            println!("  {label:<27} {t:>10.6}   {:>6.2}x", t_gold / t);
        }

        // --- Ablation 2: surplus reordering.
        let reordered =
            CompressedState::from_parts(cg.clone(), cg.reorder_rows(&surplus, NDOFS), NDOFS);
        let mut iter = xs.chunks_exact(59).cycle();
        let t_ordered = time_avg(points, || {
            x86::interpolate(&reordered, iter.next().unwrap(), &mut scratch, &mut out);
        });
        let mut iter = xs.chunks_exact(59).cycle();
        let t_gather = time_avg(points, || {
            interpolate_unordered(
                &cg,
                &surplus,
                NDOFS,
                iter.next().unwrap(),
                &mut scratch,
                &mut out,
            );
        });
        println!("\n  surplus rows                time [sec]");
        println!("  reordered (streaming)       {t_ordered:>10.6}");
        println!(
            "  grid order (gathered)       {t_gather:>10.6}   reordering gain: {:.2}x",
            t_gather / t_ordered
        );

        // --- Ablation 3: zero-skip early exit.
        let mut iter = xs.chunks_exact(59).cycle();
        let t_skip = time_avg(points, || {
            x86::interpolate(
                &case.compressed,
                iter.next().unwrap(),
                &mut scratch,
                &mut out,
            );
        });
        let mut iter = xs.chunks_exact(59).cycle();
        let t_noskip = time_avg(points, || {
            interpolate_no_skip(
                &case.compressed,
                iter.next().unwrap(),
                &mut scratch,
                &mut out,
            );
        });
        println!("\n  chain walk                  time [sec]");
        println!("  with zero-skip (Fig. 5)     {t_skip:>10.6}");
        println!(
            "  without early exit          {t_noskip:>10.6}   skip gain: {:.2}x",
            t_noskip / t_skip
        );

        // --- Ablation 4: GPU launch geometry (roofline model). The
        // one-point block is walked once; every option prices its counts.
        println!("\n  GPU launch (P100 model)     modeled [sec]     flops      dram [MB]  blocks");
        let counts = interpolate_batch(
            KernelKind::Avx2,
            &case.compressed,
            &PointBlock::from_rows(59, &xs[..59]),
            &mut scratch,
            &mut out,
        );
        for (label, opts) in [
            (
                "block  32, shared xpv",
                LaunchOptions {
                    block_size: 32,
                    stage_xpv_shared: true,
                },
            ),
            ("block 128, shared xpv", LaunchOptions::default()),
            (
                "block 256, shared xpv",
                LaunchOptions {
                    block_size: 256,
                    stage_xpv_shared: true,
                },
            ),
            (
                "block 512, shared xpv",
                LaunchOptions {
                    block_size: 512,
                    stage_xpv_shared: true,
                },
            ),
            (
                "block 128, global xpv",
                LaunchOptions {
                    block_size: 128,
                    stage_xpv_shared: false,
                },
            ),
        ] {
            let t = price_block(&Device::p100(), &opts, &case.compressed, &counts).expect("launch");
            println!(
                "  {label:<27} {:>10.6}   {:>10.3e}  {:>8.2}  {:>6}",
                t.modeled_seconds,
                t.flops,
                t.dram_bytes / 1e6,
                t.blocks
            );
        }
    }

    println!("\nReading: the compressed chains beat both incumbent storage schemes, and");
    println!("the Fig. 5 zero-skip early exit is the dominant share of the chain-walk win.");
    println!("The surplus reordering shows little effect on this single-socket host —");
    println!("its target is the many-thread / GPU memory systems of the paper's nodes,");
    println!("where scattered row gathers serialize on DRAM (cf. the global-xpv row of");
    println!("the device model, which re-streams its basis columns from DRAM).");
}
