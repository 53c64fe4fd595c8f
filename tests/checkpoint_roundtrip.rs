//! Checkpoint/restart round trip through the facade: a `TimeIteration`
//! interrupted mid-run, saved to a checkpoint file, reloaded, and resumed
//! must land **bit-identically** on the policy of an uninterrupted run —
//! the paper's ε-continuation restart protocol (Sec. V-C, footnote 12)
//! depends on exactly this property. A checkpoint holds the Jacobian
//! factors the run carries into its next step, so a resume in the tail,
//! where every settled node starts from its factor, continues exactly too.

use hddm::core::{Checkpoint, DriverConfig, FactorStore, OlgStep, StepReport, TimeIteration};
use hddm::kernels::KernelKind;
use hddm::olg::{Calibration, OlgModel, PolicyOracle};
use hddm::sched::PoolConfig;
use hddm::telemetry::Registry;

fn config(max_steps: usize) -> DriverConfig {
    DriverConfig {
        kernel: KernelKind::Avx2,
        start_level: 2,
        max_steps,
        tolerance: 0.0, // run exactly max_steps
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        ..Default::default()
    }
}

fn make_model() -> OlgModel {
    OlgModel::new(Calibration::small(5, 3, 2, 0.03))
}

/// Per-process scratch dir so concurrent `cargo test` invocations on one
/// machine cannot race on the checkpoint files.
fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hddm_roundtrip_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Interpolates every discrete state's policy at several probe points and
/// returns the raw f64 bits, so equality means bitwise equality.
fn probe_bits_of(ti: &TimeIteration<OlgStep>, model: &OlgModel) -> Vec<u64> {
    let ndofs = model.ndofs();
    let base = model.steady.state_vector();
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let mut bits = Vec::new();
    for z in 0..model.num_states() {
        for scale in [1.0, 0.9, 1.15] {
            let x: Vec<f64> = base.iter().map(|v| v * scale).collect();
            let mut row = vec![0.0; ndofs];
            oracle.eval(z, &x, &mut row);
            bits.extend(row.iter().map(|v| v.to_bits()));
        }
    }
    bits
}

fn probe_bits(ti: &TimeIteration<OlgStep>) -> Vec<u64> {
    probe_bits_of(ti, &make_model())
}

#[test]
fn mid_run_file_checkpoint_resumes_bit_identically() {
    // Reference: four uninterrupted steps.
    let mut straight = TimeIteration::new(OlgStep::new(make_model()), config(4));
    straight.run();
    let want = probe_bits(&straight);

    // Interrupted: two steps, save, drop everything, load, two more.
    let path = scratch_dir().join("mid_run.bin");
    {
        let mut first_half = TimeIteration::new(OlgStep::new(make_model()), config(2));
        first_half.run();
        Checkpoint::capture(&first_half).save(&path).unwrap();
    }
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.step, 2);
    let mut resumed = TimeIteration::resume(OlgStep::new(make_model()), config(2), &loaded);
    resumed.run();
    assert_eq!(resumed.step_index(), 4);

    let got = probe_bits(&resumed);
    assert_eq!(
        got, want,
        "resumed policy diverged bitwise from the uninterrupted run"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_load_save_is_textually_stable() {
    // A checkpoint that goes through a file and back must serialize to the
    // identical bytes: surpluses and structure arrays survive exactly.
    // (The name dates from the JSON form.)
    let mut ti = TimeIteration::new(OlgStep::new(make_model()), config(2));
    ti.run();

    let dir = scratch_dir();
    let path = dir.join("stable.bin");
    Checkpoint::capture(&ti).save(&path).unwrap();
    let first_bytes = std::fs::read(&path).unwrap();

    let reloaded = Checkpoint::load(&path).unwrap();
    let path2 = dir.join("stable2.bin");
    reloaded.save(&path2).unwrap();
    let second_bytes = std::fs::read(&path2).unwrap();

    assert!(first_bytes == second_bytes, "round trip not stable");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

#[test]
fn checkpoint_resume_with_refinement_enabled() {
    // The restart surface must also carry adaptively refined grids: run
    // with refinement on (small 3-D model so CI stays fast), checkpoint,
    // resume, and compare against the uninterrupted refined run.
    let small = || OlgModel::new(Calibration::small(4, 3, 2, 0.08));
    let mut cfg = config(3);
    cfg.refine_epsilon = Some(5e-4);
    cfg.max_level = 4;

    let mut straight = TimeIteration::new(OlgStep::new(small()), cfg.clone());
    straight.run();
    let want = probe_bits_of(&straight, &small());

    let mut cfg_half = cfg.clone();
    cfg_half.max_steps = 2;
    let mut first_half = TimeIteration::new(OlgStep::new(small()), cfg_half);
    first_half.run();
    let ck = Checkpoint::capture(&first_half);

    let mut cfg_rest = cfg;
    cfg_rest.max_steps = 1;
    let mut resumed = TimeIteration::resume(OlgStep::new(small()), cfg_rest, &ck);
    resumed.run();
    assert_eq!(resumed.step_index(), 3);

    let got = probe_bits_of(&resumed, &small());
    assert_eq!(
        got, want,
        "refined resumed policy diverged bitwise from the uninterrupted run"
    );
}

/// The systems a registry has seen start from a carried factor.
fn carried(registry: &Registry) -> u64 {
    let snapshot = registry.snapshot();
    snapshot
        .counter("hddm_solve_jacobians_carried_total")
        .expect("registered by the solve")
}

#[test]
fn a_checkpoint_in_the_tail_resumes_its_carried_factors_bit_identically() {
    // Eight steps straight, against six + save/load + two: the first six
    // settle the policy, so nodes carry factors into the last two, and
    // the resumed run must start from the same factors to match.
    let traced = |steps: usize, registry: &Registry| DriverConfig {
        telemetry: Some(registry.clone()),
        ..config(steps)
    };
    let bits = |reports: &[StepReport]| {
        let changes = reports.iter().map(|r| [r.sup_change, r.l2_change]);
        changes.flatten().map(f64::to_bits).collect::<Vec<_>>()
    };
    let whole = Registry::new();
    let mut straight = TimeIteration::new(OlgStep::new(make_model()), traced(8, &whole));
    let straight_reports = straight.run();

    let path = scratch_dir().join("tail.bin");
    let head = Registry::new();
    {
        let mut first = TimeIteration::new(OlgStep::new(make_model()), traced(6, &head));
        first.run();
        Checkpoint::capture(&first).save(&path).unwrap();
    }
    assert!(carried(&head) > 0, "the first six steps carry no factor");
    let loaded = Checkpoint::load(&path).unwrap();
    let stored: usize = loaded.factors.iter().map(FactorStore::carried).sum();
    assert!(stored > 0, "the checkpoint holds no factor");

    let tail = Registry::new();
    let mut resumed = TimeIteration::resume(OlgStep::new(make_model()), traced(2, &tail), &loaded);
    let resumed_reports = resumed.run();
    assert_eq!(resumed.step_index(), 8);
    assert!(carried(&tail) > 0, "the resumed steps carry no factor");
    assert_eq!(carried(&head) + carried(&tail), carried(&whole));
    assert_eq!(bits(&resumed_reports), bits(&straight_reports[6..]));
    assert_eq!(
        probe_bits(&resumed),
        probe_bits(&straight),
        "resumed policy diverged bitwise from the uninterrupted run"
    );
    std::fs::remove_file(&path).ok();
}
