//! The manually vectorized compressed-format kernels: `avx`, `avx2` and
//! `avx512` (Sec. V-A).
//!
//! All three share the `x86` kernel's xpv fill and early-exit chain walk
//! and differ in the instructions of the accumulation (`value[dof] += temp
//! · surplus(i, dof)`, the only loop with enough arithmetic density to
//! vectorize):
//!
//! * **avx** — 4-wide `vmulpd`/`vaddpd` (no FMA, Sandy/Ivy Bridge);
//! * **avx2** — 4-wide `vfmadd231pd` (Haswell/Broadwell), scalar
//!   multiply-then-add tail;
//! * **avx512** — 8-wide `vfmadd231pd` on zmm registers with a masked
//!   fused tail, plus the paper's intra-kernel thread parallelization with
//!   partial vector sums whose zero contributions "initiate no actual
//!   memory flow" ([`interpolate_avx512_mt`]).
//!
//! Each kernel's multiply-add is defined once, in [`crate::batch`], and
//! serves its single-point kernel here, its batch walk and its portable
//! fallback: on a host without the instruction set the kernel runs
//! portable code (`f64::mul_add` where it fuses, a multiply then an add
//! where it does not) that gives the native kernel's values bit for bit.

use crate::data::{CompressedState, Scratch};
use crate::{batch, KernelKind};

/// The `avx` kernel: 4-wide multiply + add.
pub fn interpolate_avx(state: &CompressedState, x: &[f64], scratch: &mut Scratch, out: &mut [f64]) {
    KernelKind::Avx.evaluate_compressed(state, x, scratch, out)
}

/// The `avx2` kernel: 4-wide FMA.
pub fn interpolate_avx2(
    state: &CompressedState,
    x: &[f64],
    scratch: &mut Scratch,
    out: &mut [f64],
) {
    KernelKind::Avx2.evaluate_compressed(state, x, scratch, out)
}

/// The `avx512` kernel (single-threaded core): 8-wide FMA on zmm registers.
pub fn interpolate_avx512(
    state: &CompressedState,
    x: &[f64],
    scratch: &mut Scratch,
    out: &mut [f64],
) {
    KernelKind::Avx512.evaluate_compressed(state, x, scratch, out)
}

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
        let mut scratch = Scratch::default();
        interpolate_avx512(state, x, &mut scratch, out);
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
        // ndofs = 118 exercises the masked AVX-512 tail (118 = 14·8 + 6)
        // and the 4-wide remainder path (118 = 29·4 + 2).
        let state = make_state(4, 3, 118);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; 118];
        let mut got = vec![0.0; 118];
        for x in probe_points(4, 25) {
            crate::x86::interpolate(&state, &x, &mut scratch, &mut want);
            for kernel in [interpolate_avx, interpolate_avx2, interpolate_avx512] {
                kernel(&state, &x, &mut scratch, &mut got);
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
            interpolate_avx512(&state, &x, &mut scratch, &mut want);
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
