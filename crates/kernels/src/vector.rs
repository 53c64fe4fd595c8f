//! The full `avx512` kernel of Sec. V-A: the single-point `avx512` kernel
//! with the paper's intra-kernel thread parallelization, whose partial
//! vector sums with no contribution "initiate no actual memory flow"
//! ([`interpolate_avx512_mt`]).
//!
//! The vector kernels themselves are [`KernelKind`] variants, each
//! evaluated through [`KernelKind::evaluate_compressed`]. They share the
//! `x86` kernel's xpv fill and branch-free chain walk, which forms every
//! chain's product and compacts the survivors (the crate doc gives the
//! reason and the measured split), and differ in the
//! instructions of the accumulation (`value[dof] += temp · surplus(i,
//! dof)`, the only loop with enough arithmetic density to vectorize):
//!
//! * **avx** — 4-wide `vmulpd`/`vaddpd` (no FMA, Sandy/Ivy Bridge);
//! * **avx2** — 4-wide `vfmadd231pd` (Haswell/Broadwell);
//! * **avx512** — 8-wide `vfmadd231pd` on zmm registers.
//!
//! They round by one rule, in two classes: `avx` multiplies, then adds, as
//! `x86` does, and `avx2` and `avx512` fuse every element of a row but its
//! last `n % 4`, which multiply, then add. So `x86` ≡ `avx` and `avx2` ≡
//! `avx512` bit for bit, on every host, and a kernel's width is a speed
//! choice only (the crate doc says where the rule lives).

use crate::data::{CompressedState, Scratch};
use crate::{batch, KernelKind};

/// The full `avx512` kernel of Sec. V-A: the chain rows are split across
/// `threads` workers, each running the `avx512` single-point kernel over
/// its range into a partial vector sum; partials that received no
/// contribution are skipped in the reduction ("handled specially to
/// initiate no actual memory flow").
pub fn interpolate_avx512_mt(state: &CompressedState, x: &[f64], threads: usize, out: &mut [f64]) {
    let ndofs = state.ndofs;
    assert_eq!(x.len(), state.grid.dim());
    assert_eq!(out.len(), ndofs);
    let threads = threads.max(1);
    let nno = state.grid.nno();
    if threads == 1 || nno < 4 * threads {
        KernelKind::Avx512.evaluate_compressed(state, x, &mut Scratch::default(), out);
        return;
    }

    // Each worker fills its own (small, L1-resident) xpv, as each GPU
    // block stages it in its shared memory.
    let chunk = nno.div_ceil(threads);
    let partials: Vec<(bool, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let points = (w * chunk).min(nno)..((w + 1) * chunk).min(nno);
                scope.spawn(move || {
                    let mut partial = vec![0.0f64; ndofs];
                    let mut scratch = Scratch::default();
                    let touched = batch::point(
                        KernelKind::Avx512,
                        state,
                        x,
                        &mut scratch,
                        points,
                        &mut partial,
                    );
                    (touched, partial)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("avx512 worker panicked"))
            .collect()
    });

    out.fill(0.0);
    for (touched, partial) in &partials {
        if !*touched {
            continue; // zero partial: no memory traffic
        }
        for (o, p) in out.iter_mut().zip(partial) {
            *o += p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    fn make_state(dim: usize, n: u8, ndofs: usize) -> CompressedState {
        let grid = regular_grid(dim, n);
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = x
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| ((t + k + 1) as f64 * v).cos())
                    .product();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        CompressedState::new(&grid, &surplus, ndofs)
    }

    fn probe_points(dim: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|s| {
                (0..dim)
                    .map(|t| ((s * 31 + t * 17) as f64 * 0.02347 + 0.005) % 1.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_vector_kernels_match_scalar() {
        // ndofs = 118 exercises the AVX-512 tail (118 = 14·8 + 6, a fused
        // 4-wide register and two unfused elements) and the 4-wide
        // remainder path (118 = 29·4 + 2).
        let state = make_state(4, 3, 118);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; 118];
        let mut got = vec![0.0; 118];
        for x in probe_points(4, 25) {
            KernelKind::X86.evaluate_compressed(&state, &x, &mut scratch, &mut want);
            for kernel in [KernelKind::Avx, KernelKind::Avx2, KernelKind::Avx512] {
                kernel.evaluate_compressed(&state, &x, &mut scratch, &mut got);
                for k in 0..118 {
                    assert!(
                        (got[k] - want[k]).abs() < 1e-12,
                        "dof {k}: {} vs {}",
                        got[k],
                        want[k]
                    );
                }
            }
        }
    }

    #[test]
    fn multithreaded_avx512_matches_single() {
        let state = make_state(3, 4, 7);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; 7];
        let mut got = vec![0.0; 7];
        for x in probe_points(3, 10) {
            KernelKind::Avx512.evaluate_compressed(&state, &x, &mut scratch, &mut want);
            for threads in [1usize, 2, 3, 8] {
                interpolate_avx512_mt(&state, &x, threads, &mut got);
                for k in 0..7 {
                    assert!(
                        (got[k] - want[k]).abs() < 1e-12,
                        "threads={threads} dof {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn isa_detection_is_consistent() {
        // On any host, native() must at least not panic; on x86_64 with
        // AVX2, AVX is implied.
        let avx = KernelKind::Avx.native();
        let avx2 = KernelKind::Avx2.native();
        if avx2 {
            assert!(avx, "AVX2 implies AVX");
        }
    }
}
