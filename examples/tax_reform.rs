//! Counterfactual tax-policy analysis — the economics the paper's
//! introduction motivates ("optimal taxation and the optimal design of
//! public pension systems"; social security reform à la Krueger–Kubler).
//!
//! Two economies identical up to the pay-as-you-go system's size (labor
//! tax 20% vs 32%) are each solved to a recursive equilibrium with the
//! full stack (time iteration on adaptive sparse grids, compressed
//! kernels). The solved policies are then simulated to compare long-run
//! aggregates, with Euler errors as the quality gate.
//!
//! ```text
//! cargo run --release --example tax_reform
//! ```

use hddm::core::{DriverConfig, OlgStep, TimeIteration};
use hddm::kernels::KernelKind;
use hddm::olg::{euler_errors_on_path, simulate, Calibration, OlgModel};
use hddm::sched::PoolConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Lifespan of the example economies (laptop scale; the headline model
/// uses A = 60 — same code path).
const A: usize = 6;
const WORK: usize = 4;
const STATES: usize = 2;

fn reform(labor_tax: f64) -> Calibration {
    let mut cal = Calibration::small(A, WORK, STATES, 0.04);
    for regime in cal.regimes.iter_mut() {
        regime.labor_tax = labor_tax;
    }
    cal.validate();
    cal
}

struct Outcome {
    capital: f64,
    capital_sd: f64,
    output: f64,
    consumption: f64,
    pension_rate: f64,
    euler_mean_log10: f64,
}

fn solve_and_evaluate(label: &str, labor_tax: f64) -> Outcome {
    println!("solving \"{label}\" (τ_l = {:.0}%)...", 100.0 * labor_tax);
    let cal = reform(labor_tax);
    let model = OlgModel::new(cal);
    let eval_model = model.clone();
    let mut ti = TimeIteration::new(
        OlgStep::new(model),
        DriverConfig {
            kernel: KernelKind::Avx2,
            start_level: 2,
            refine_epsilon: Some(1e-2),
            max_level: 4,
            max_steps: 60,
            tolerance: 1e-6,
            pool: PoolConfig {
                threads: 2,
                grain: 4,
            },
            ..Default::default()
        },
    );
    let reports = ti.run();
    println!(
        "  converged in {} steps (‖Δp‖∞ = {:.2e}, {}..{} points/state)",
        reports.len(),
        reports.last().unwrap().sup_change,
        reports
            .last()
            .unwrap()
            .points_per_state
            .iter()
            .min()
            .unwrap(),
        reports
            .last()
            .unwrap()
            .points_per_state
            .iter()
            .max()
            .unwrap(),
    );

    // Quality gate: Euler errors along the simulated path.
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let accuracy = euler_errors_on_path(&eval_model, &mut oracle, 300, 30, &mut rng);

    // Ergodic aggregates under the solved policy.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let sim = simulate(&eval_model, &mut oracle, 2000, 200, &mut rng);

    let p_bar = hddm::olg::prices(&eval_model.cal, 0, sim.mean(|p| p.capital));
    Outcome {
        capital: sim.mean(|p| p.capital),
        capital_sd: sim.std(|p| p.capital),
        output: sim.mean(|p| p.output),
        consumption: sim.mean(|p| p.consumption),
        pension_rate: p_bar.pension,
        euler_mean_log10: accuracy.mean_log10,
    }
}

fn main() {
    println!("Social-security reform experiment (A = {A}, Ns = {STATES})\n");
    let low = solve_and_evaluate("small PAYG", 0.20);
    let high = solve_and_evaluate("large PAYG", 0.32);

    println!("\n                         small PAYG   large PAYG     change");
    let row = |name: &str, a: f64, b: f64| {
        println!(
            "  {name:<22} {a:>10.4}  {b:>11.4}   {:>+7.2}%",
            100.0 * (b / a - 1.0)
        );
    };
    row("mean capital K", low.capital, high.capital);
    row("sd(K)", low.capital_sd, high.capital_sd);
    row("mean output Y", low.output, high.output);
    row("mean consumption C", low.consumption, high.consumption);
    row("pension per retiree", low.pension_rate, high.pension_rate);
    println!(
        "  {:<22} {:>10.1}  {:>11.1}   (log10 mean Euler error)",
        "solution quality", low.euler_mean_log10, high.euler_mean_log10
    );
    println!(
        "\nmechanism: the larger pension crowds out private saving (K falls {:.1}%),\n\
         lowering wages; the gain is old-age insurance — the classic trade-off the\n\
         stochastic-OLG literature quantifies.",
        100.0 * (1.0 - high.capital / low.capital)
    );
}
