//! Checkpoint / restart of a time-iteration run.
//!
//! The paper's production runs are staged: Sec. V-C restarts the level-4
//! benchmark "from a sparse grid of level 2", and footnote 12 describes
//! the ε-continuation protocol — iterate at a fixed refinement threshold
//! until the error stalls, write the solution out, restart with a smaller
//! ε. This module provides that restart surface: the complete solver state
//! between two time steps is the policy set (one compressed interpolant
//! per discrete state, chain-ordered surpluses) plus the step counter, and
//! that is exactly what a [`Checkpoint`] holds.
//!
//! On disk a checkpoint is one [`crate::record`] frame — magic
//! `HDDMCKPT`, the step counter, the policy's shape and the policy body
//! every stored policy shares — so surpluses survive the file bit for bit
//! and a resumed run continues **bit-identically**. It is written through
//! [`write_atomic`]: a crash mid-save leaves the previous checkpoint of
//! an ε-continuation stage in place, and a truncated or damaged file is an
//! [`io::Error`] at [`Checkpoint::load`], never a panic.

use std::fs;
use std::io;
use std::path::Path;

use crate::driver::{DriverConfig, StepModel, TimeIteration};
use crate::policy::PolicySet;
use crate::record::{write_atomic, Reader, Writer};

/// Magic bytes opening every checkpoint file.
const CHECKPOINT_MAGIC: [u8; 8] = *b"HDDMCKPT";

/// Current version of the checkpoint payload. Version 2 frames checksum a
/// word at a time; a version-1 file is refused as another format version.
const CHECKPOINT_VERSION: u32 = 2;

/// A complete snapshot of the solver state between time steps.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Time-iteration steps already executed.
    pub step: usize,
    /// The policy `p` after `step` steps.
    pub policy: PolicySet,
}

impl Checkpoint {
    /// Captures the current solver state of a driver.
    pub fn capture<M: StepModel>(ti: &TimeIteration<M>) -> Checkpoint {
        Checkpoint {
            step: ti.step_index(),
            policy: ti.policy.clone(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        w.u64(self.step as u64);
        w.u64(self.policy.domain.dim() as u64);
        w.u64(self.policy.states.ndofs() as u64);
        w.u64(self.policy.states.num_states() as u64);
        w.policy(&self.policy);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        let mut r = Reader::open(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes)?;
        let step = r.usize()?;
        let (dim, ndofs, num_states) = (r.usize()?, r.usize()?, r.usize()?);
        let policy = r.policy(dim, ndofs, num_states)?;
        r.finish()?;
        Ok(Checkpoint { step, policy })
    }

    /// Writes the checkpoint to `path`, atomically and durably: an
    /// existing file at `path` is replaced only once the new one is
    /// complete on disk.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        write_atomic(path.as_ref(), &self.encode())
    }

    /// Loads and fully validates a checkpoint file.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Checkpoint> {
        let bytes = fs::read(&path)?;
        Checkpoint::decode(&bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint {}: {e}", path.as_ref().display()),
            )
        })
    }
}

impl<M: StepModel> TimeIteration<M> {
    /// Resumes a run from a checkpoint: the policy set and step counter
    /// are restored, the model and config are supplied fresh (they are
    /// code + calibration, not solver state). Panics if the model shape
    /// does not match the checkpoint.
    pub fn resume(model: M, config: DriverConfig, checkpoint: &Checkpoint) -> Self {
        assert_eq!(
            model.ndofs(),
            checkpoint.policy.states.ndofs(),
            "model ndofs mismatch"
        );
        TimeIteration::with_policy(model, config, checkpoint.policy.clone(), checkpoint.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverConfig;
    use crate::olg_step::OlgStep;
    use hddm_asg::{basis, ActiveCoord, BoxDomain, NodeKey, SparseGrid};
    use hddm_kernels::{CompressedState, KernelKind};
    use hddm_olg::{Calibration, OlgModel, PolicyOracle};
    use hddm_sched::PoolConfig;
    use proptest::prelude::*;

    fn config(max_steps: usize) -> DriverConfig {
        DriverConfig {
            kernel: KernelKind::X86,
            start_level: 2,
            max_steps,
            tolerance: 0.0,
            pool: PoolConfig {
                threads: 1,
                grain: 4,
            },
            ..Default::default()
        }
    }

    fn probe(ti: &TimeIteration<OlgStep>, x: &[f64], ndofs: usize) -> Vec<Vec<f64>> {
        let mut oracle = ti.policy.oracle(KernelKind::X86);
        (0..ti.model.num_states())
            .map(|z| {
                let mut row = vec![0.0; ndofs];
                oracle.eval(z, x, &mut row);
                row
            })
            .collect()
    }

    /// A scratch directory of this test process.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hddm_checkpoint_test_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn capture_restore_roundtrip_is_bitwise() {
        let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));
        let x = model.steady.state_vector();
        let mut ti = TimeIteration::new(OlgStep::new(model), config(3));
        ti.run();
        let restored = Checkpoint::decode(&Checkpoint::capture(&ti).encode()).unwrap();
        assert_eq!(restored.step, 3);
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        let mut oa = ti.policy.oracle(KernelKind::X86);
        let mut ob = restored.policy.oracle(KernelKind::X86);
        for z in 0..2 {
            oa.eval(z, &x, &mut a);
            ob.eval(z, &x, &mut b);
            assert_eq!(a, b, "state {z}");
        }
    }

    #[test]
    fn file_roundtrip_resumes_bit_identically() {
        // 4 straight steps vs 2 steps + save/load + 2 steps: the resumed
        // run must continue exactly where the uninterrupted one goes.
        let make_model = || OlgModel::new(Calibration::small(5, 3, 2, 0.03));
        let x = make_model().steady.state_vector();

        let mut straight = TimeIteration::new(OlgStep::new(make_model()), config(4));
        straight.run();
        let want = probe(&straight, &x, 8);

        let mut first = TimeIteration::new(OlgStep::new(make_model()), config(2));
        first.run();
        let dir = scratch_dir("resume");
        let path = dir.join("ck.bin");
        Checkpoint::capture(&first).save(&path).unwrap();

        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.step, 2);
        let mut resumed = TimeIteration::resume(OlgStep::new(make_model()), config(2), &loaded);
        resumed.run();
        assert_eq!(resumed.step_index(), 4);
        let got = probe(&resumed, &x, 8);
        assert_eq!(got, want, "resumed run diverged from straight run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_the_previous_checkpoint_atomically_and_damage_is_an_error() {
        let model = OlgModel::new(Calibration::deterministic(4, 3));
        let mut ti = TimeIteration::new(OlgStep::new(model), config(1));
        let dir = scratch_dir("atomic");
        let path = dir.join("stage.bin");
        Checkpoint::capture(&ti).save(&path).unwrap();
        ti.run();
        Checkpoint::capture(&ti).save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().step, 1);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["stage.bin"], "the target and no temp file");

        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let mut flipped = good.clone();
        flipped[good.len() - 1] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let model = OlgModel::new(Calibration::deterministic(4, 3));
        let ti = TimeIteration::new(OlgStep::new(model), config(0));
        let good = Checkpoint::capture(&ti).encode();
        let dir = scratch_dir("version");
        let path = dir.join("bad_version.bin");
        // Version 1 is the byte-wise FNV-1a frame: the version is read
        // before either checksum, so it is reported as old, not damaged.
        for version in [1u32, 99] {
            let mut bytes = good.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            let want = format!("version {version} (expected {CHECKPOINT_VERSION})");
            assert!(err.to_string().contains(&want), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_model() {
        let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));
        let ti = TimeIteration::new(OlgStep::new(model), config(0));
        let ck = Checkpoint::capture(&ti);
        let other = OlgModel::new(Calibration::small(6, 4, 2, 0.03));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TimeIteration::resume(OlgStep::new(other), config(1), &ck)
        }));
        assert!(result.is_err(), "dimension mismatch must panic");
    }

    // ----- the decoder against damaged input ---------------------------

    const DIM: usize = 3;
    const NDOFS: usize = 2;

    /// Strategy: a random ancestor-closed adaptive grid with at least one
    /// refined node, so `xps` holds more than the sentinel.
    fn adaptive_grid() -> impl Strategy<Value = SparseGrid> {
        let coords = prop::collection::vec((0..DIM as u16, 2u8..=4u8, any::<u32>()), 1..10);
        coords.prop_map(|raw| {
            let mut grid = SparseGrid::new(DIM);
            grid.insert(NodeKey::root());
            for nodes in raw.chunks(2) {
                let mut active: Vec<ActiveCoord> = Vec::new();
                for &(dim, level, pick) in nodes {
                    let indices = basis::level_indices(level);
                    let index = indices[pick as usize % indices.len()];
                    if active.iter().all(|c| c.dim != dim) {
                        active.push(ActiveCoord { dim, level, index });
                    }
                }
                grid.insert_closed(NodeKey::from_coords(active));
            }
            grid
        })
    }

    fn adaptive_checkpoint(grids: &[SparseGrid], seed: u64) -> Checkpoint {
        let mut state = seed | 1;
        let states = grids
            .iter()
            .map(|grid| {
                let surplus: Vec<f64> = (0..grid.len() * NDOFS)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                    })
                    .collect();
                CompressedState::new(grid, &surplus, NDOFS)
            })
            .collect();
        Checkpoint {
            step: 7,
            policy: PolicySet::new(states, BoxDomain::new(vec![-1.0; DIM], vec![2.0; DIM])),
        }
    }

    /// Byte offsets of state 0's sections in an encoded checkpoint.
    struct Offsets {
        num_states: usize,
        xps: usize,
        chains: usize,
        order: usize,
        nfreq: usize,
        surplus_len: usize,
        surplus_end: usize,
    }

    fn offsets(ck: &Checkpoint) -> Offsets {
        let state = ck.policy.states.state(0);
        let u32s = |n: usize| 8 + 4 * (n + n % 2);
        let xps_len = 40 + 4 * 8 + 2 * (8 + 8 * DIM);
        let chains_len = xps_len + 8 + 8 * state.grid.xps().len();
        let order_len = chains_len + u32s(state.grid.chains().len());
        let nfreq = order_len + u32s(state.grid.order().len());
        Offsets {
            num_states: 40 + 3 * 8,
            xps: xps_len + 8,
            chains: chains_len + 8,
            order: order_len + 8,
            nfreq,
            surplus_len: nfreq + 8,
            surplus_end: nfreq + 16 + 8 * state.surplus.len(),
        }
    }

    /// `bytes` is refused — as an `Err` naming `invariant`, in memory and
    /// through a file — instead of panicking or being accepted.
    fn assert_refused(bytes: &[u8], invariant: &str, path: &Path) {
        let err = Checkpoint::decode(bytes).expect_err(invariant);
        assert!(
            err.contains(invariant),
            "{err:?} does not name {invariant:?}"
        );
        std::fs::write(path, bytes).unwrap();
        let err = Checkpoint::load(path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    proptest! {
        // Cases and RNG seed pinned: the identical population every run.
        #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0x5EC0_DE20))]

        /// Every truncation and every single-byte flip of an encoded
        /// adaptive policy is an error: the frame's checksums see it.
        #[test]
        fn truncated_and_flipped_records_are_errors(
            a in adaptive_grid(),
            b in adaptive_grid(),
            seed in any::<u64>(),
        ) {
            let good = adaptive_checkpoint(&[a, b], seed).encode();
            prop_assert!(Checkpoint::decode(&good).is_ok());
            let dir = scratch_dir("damage");
            let path = dir.join("damaged.bin");
            for cut in 0..good.len() {
                prop_assert!(Checkpoint::decode(&good[..cut]).is_err(), "cut at {}", cut);
            }
            let mut bytes = good.clone();
            for at in 0..good.len() {
                bytes[at] ^= 1 << (at % 8);
                prop_assert!(Checkpoint::decode(&bytes).is_err(), "flip at {}", at);
                if at % 101 == 0 {
                    std::fs::write(&path, &bytes).unwrap();
                    prop_assert!(Checkpoint::load(&path).is_err(), "flip at {} on disk", at);
                    std::fs::write(&path, &good[..at]).unwrap();
                    prop_assert!(Checkpoint::load(&path).is_err(), "cut at {} on disk", at);
                }
                bytes[at] = good[at];
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// With the checksums re-stamped the damage reaches the validator:
        /// each broken invariant is an `Err` naming it — never a panic,
        /// never an allocation sized by a damaged length.
        #[test]
        fn restamped_structural_damage_is_named_not_panicked(
            a in adaptive_grid(),
            b in adaptive_grid(),
            seed in any::<u64>(),
        ) {
            let ck = adaptive_checkpoint(&[a, b], seed);
            let good = ck.encode();
            let at = offsets(&ck);
            let dir = scratch_dir("restamped");
            let path = dir.join("damaged.bin");
            let damaged = |edit: &dyn Fn(&mut Vec<u8>)| {
                let mut bytes = good.clone();
                edit(&mut bytes);
                crate::record::stamp(&mut bytes);
                bytes
            };
            let put = |bytes: &mut [u8], at: usize, v: &[u8]| bytes[at..at + v.len()].copy_from_slice(v);

            // Re-stamping an undamaged record changes nothing.
            prop_assert_eq!(&damaged(&|_| {}), &good);

            let twice = damaged(&|b| b.copy_within(at.order + 4..at.order + 8, at.order));
            assert_refused(&twice, "order is not a permutation", &path);
            let dangling = damaged(&|b| put(b, at.chains, &u32::MAX.to_le_bytes()));
            assert_refused(&dangling, "out of xps range", &path);
            let no_sentinel = damaged(&|b| put(b, at.xps + 4, &2u16.to_le_bytes()));
            assert_refused(&no_sentinel, "xps[0] must be the sentinel", &path);
            let level_one = damaged(&|b| put(b, at.xps + 8 + 4, &1u16.to_le_bytes()));
            assert_refused(&level_one, "invalid xps entry", &path);
            let beyond_d = damaged(&|b| put(b, at.xps + 8, &(DIM as u32).to_le_bytes()));
            assert_refused(&beyond_d, "invalid xps entry", &path);
            let no_stride = damaged(&|b| put(b, at.nfreq, &0u64.to_le_bytes()));
            assert_refused(&no_stride, "nfreq must be positive", &path);
            let rows = ck.policy.states.state(0).surplus.len() / NDOFS;
            let row_short = damaged(&|b| {
                b.drain(at.surplus_end - 8 * NDOFS..at.surplus_end);
                put(b, at.surplus_len, &(((rows - 1) * NDOFS) as u64).to_le_bytes());
            });
            assert_refused(&row_short, "surplus length", &path);
            let one_more = damaged(&|b| put(b, at.num_states, &3u64.to_le_bytes()));
            assert_refused(&one_more, "state 2: truncated record", &path);
            let many_more = damaged(&|b| put(b, at.num_states, &(1u64 << 40).to_le_bytes()));
            assert_refused(&many_more, "discrete states exceed the payload", &path);
            let huge_section = damaged(&|b| put(b, at.xps - 8, &u64::MAX.to_le_bytes()));
            assert_refused(&huge_section, "exceeds the", &path);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
