//! Every input the workloads feed the program, as a pure function of
//! `--seed`. The program under test receives only what is generated here.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm::asg::SparseGrid;
use hddm::olg::Calibration;
use hddm::scenarios::{Knob, Scenario, ScenarioSet};
use hddm::serve::ScenarioRequest;

/// Independent stream `stream` of the run's seed (SplitMix64 finalizer, so
/// neighbouring seeds and streams do not share a prefix).
fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
}

// ----- interp_* ----------------------------------------------------------

/// Table I "7k": `regular_grid(59, 3)`, 118 coefficients per point.
pub const INTERP_DIM: usize = 59;
pub const INTERP_NDOFS: usize = 118;
pub const INTERP_POINTS: usize = 2048;

/// Synthetic surpluses with the decay of a smooth function
/// (`|α| ~ 4^-excess`), so the kernels see realistic zero/non-zero chains.
/// Same construction as `hddm_bench::synthetic_surpluses`, which this
/// package must not depend on.
pub fn synthetic_surpluses(grid: &SparseGrid, ndofs: usize, seed: u64) -> Vec<f64> {
    let mut rng = rng(seed, 1);
    let dim = grid.dim();
    let mut out = Vec::with_capacity(grid.len() * ndofs);
    for node in grid.nodes() {
        let excess = node.level_sum(dim) - dim as u32;
        let scale = 0.25f64.powi(excess as i32);
        for _ in 0..ndofs {
            out.push(scale * (rng.gen::<f64>() - 0.5));
        }
    }
    out
}

/// `n` uniform points of the unit cube, point-major `n × dim`.
pub fn uniform_points(dim: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rng(seed, 2);
    (0..n * dim).map(|_| rng.gen::<f64>()).collect()
}

// ----- solve_cold --------------------------------------------------------

/// The cold-solve economy: 5 generations, 2 shock states (d = 4).
pub fn solve_calibration() -> Calibration {
    Calibration::small(5, 3, 2, 0.04)
}

// ----- sweep_warm --------------------------------------------------------

pub const SWEEP_SCENARIOS: usize = 32;

/// 32 Monte-Carlo draws around the 10-generation, 4-state economy (d = 9)
/// on its regular level-2 grid.
pub fn sweep_set(seed: u64) -> ScenarioSet {
    let base = Scenario::from_calibration("sweep", Calibration::small(10, 7, 4, 0.04));
    ScenarioSet::monte_carlo(
        &base,
        SWEEP_SCENARIOS,
        seed,
        &[
            (Knob::Beta, 0.004),
            (Knob::Depreciation, 0.004),
            (Knob::LaborTaxShift, 0.01),
        ],
    )
    .expect("every draw this close to the base calibration is admissible")
}

// ----- serve_mixed -------------------------------------------------------

pub const SERVE_POOL: usize = 64;
/// Share of requests that name a scenario of the pre-filled pool.
pub const SERVE_EXACT_SHARE: f64 = 0.8;
const SERVE_BETA: (f64, f64) = (0.94, 0.96);

/// The demo economy: 18 grid points, a solve of about a millisecond — so
/// cache, persistence and queueing are the bulk of a served miss.
fn serve_base() -> Scenario {
    Scenario::from_calibration("serve", Calibration::small(5, 3, 2, 0.03))
}

fn with_beta(name: String, beta: f64) -> Scenario {
    let mut scenario = serve_base();
    scenario.name = name;
    scenario.calibration.beta = beta;
    scenario
}

/// The 64 scenarios the cache is pre-filled with.
pub fn serve_pool(seed: u64) -> ScenarioSet {
    let mut rng = rng(seed, 3);
    ScenarioSet {
        scenarios: (0..SERVE_POOL)
            .map(|i| {
                with_beta(
                    format!("serve/pool{i:02}"),
                    rng.gen_range(SERVE_BETA.0..SERVE_BETA.1),
                )
            })
            .collect(),
    }
}

/// What a generated request is meant to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intent {
    /// Names a pool scenario: must be served as an exact hit.
    Exact,
    /// A new β, warm start allowed: solved from the nearest surface.
    Warm,
    /// A new β with a capital-span box reform, `cold_only`: solved cold.
    Cold,
}

pub struct PlannedRequest {
    pub intent: Intent,
    pub request: ScenarioRequest,
}

/// Requests per block of the trace: every block holds exactly
/// `1 − SERVE_EXACT_SHARE` misses, so the offered write load does not wander
/// within a run or between seeds.
const SERVE_BLOCK: usize = 100;

/// The intents of one block: the misses at seeded places, the rest exact
/// hits.
fn serve_block(rng: &mut ChaCha8Rng) -> Vec<bool> {
    let misses = ((1.0 - SERVE_EXACT_SHARE) * SERVE_BLOCK as f64).round() as usize;
    let mut is_miss = vec![false; SERVE_BLOCK];
    // A partial Fisher-Yates shuffle over slot indices picks the miss slots.
    let mut order: Vec<usize> = (0..SERVE_BLOCK).collect();
    for k in 0..misses {
        let swap = rng.gen_range(k..SERVE_BLOCK);
        order.swap(k, swap);
        is_miss[order[k]] = true;
    }
    is_miss
}

/// The open-loop request trace of one rung: `n` requests, 80 % exact hits
/// drawn uniformly from the pool, 20 % new scenarios, alternately
/// warm-allowed and cold-only. `rung` separates the traces of the rungs of
/// one run.
pub fn serve_requests(seed: u64, rung: u64, pool: &ScenarioSet, n: usize) -> Vec<PlannedRequest> {
    let mut rng = rng(seed, 16 + rung);
    let mut block = Vec::new();
    let mut misses = 0;
    (0..n)
        .map(|i| {
            if i % SERVE_BLOCK == 0 {
                block = serve_block(&mut rng);
            }
            if !block[i % SERVE_BLOCK] {
                let pick = rng.gen_range(0..pool.scenarios.len());
                return PlannedRequest {
                    intent: Intent::Exact,
                    request: ScenarioRequest::new(pool.scenarios[pick].clone()),
                };
            }
            let beta = rng.gen_range(SERVE_BETA.0..SERVE_BETA.1);
            let mut scenario = with_beta(format!("serve/r{rung}/new{i:05}"), beta);
            misses += 1;
            if misses % 2 == 1 {
                PlannedRequest {
                    intent: Intent::Warm,
                    request: ScenarioRequest::new(scenario),
                }
            } else {
                scenario.box_policy.capital_span = rng.gen_range(0.31..0.35);
                PlannedRequest {
                    intent: Intent::Cold,
                    request: ScenarioRequest::cold_only(scenario),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm::scenarios::scenario_hash;

    fn trace_key(seed: u64) -> Vec<(Intent, u64, bool)> {
        let pool = serve_pool(seed);
        serve_requests(seed, 0, &pool, 400)
            .iter()
            .map(|p| {
                (
                    p.intent,
                    scenario_hash(&p.request.scenario),
                    p.request.allow_warm,
                )
            })
            .collect()
    }

    #[test]
    fn request_trace_is_a_pure_function_of_the_seed() {
        assert_eq!(trace_key(7), trace_key(7));
        assert_ne!(trace_key(7), trace_key(8));
        // Rungs of one run get different traces over the same pool.
        let pool = serve_pool(7);
        let hashes = |rung| -> Vec<u64> {
            serve_requests(7, rung, &pool, 50)
                .iter()
                .map(|p| scenario_hash(&p.request.scenario))
                .collect()
        };
        assert_ne!(hashes(0), hashes(1));
    }

    #[test]
    fn request_mix_is_eighty_twenty_and_intents_are_what_they_say() {
        let pool = serve_pool(3);
        let pool_hashes: Vec<u64> = pool.scenarios.iter().map(scenario_hash).collect();
        let plan = serve_requests(3, 0, &pool, 1500);
        // Every block holds exactly 20 misses, half warm and half cold, and
        // not in the same slots as the block before.
        let slots = |block: &[PlannedRequest]| -> Vec<bool> {
            block.iter().map(|p| p.intent != Intent::Exact).collect()
        };
        for block in plan.chunks(SERVE_BLOCK) {
            let count = |intent| block.iter().filter(|p| p.intent == intent).count();
            assert_eq!(
                (
                    count(Intent::Exact),
                    count(Intent::Warm),
                    count(Intent::Cold)
                ),
                (80, 10, 10)
            );
        }
        assert_ne!(slots(&plan[..100]), slots(&plan[100..200]));
        for p in &plan {
            let in_pool = pool_hashes.contains(&scenario_hash(&p.request.scenario));
            assert_eq!(in_pool, p.intent == Intent::Exact);
            assert_eq!(p.request.allow_warm, p.intent != Intent::Cold);
            assert!(p.request.scenario.validate().is_ok());
        }
        // Misses are new scenarios every time.
        let mut misses: Vec<u64> = plan
            .iter()
            .filter(|p| p.intent != Intent::Exact)
            .map(|p| scenario_hash(&p.request.scenario))
            .collect();
        misses.sort_unstable();
        misses.dedup();
        assert_eq!(misses.len(), 300);
    }

    #[test]
    fn point_sets_and_surpluses_are_a_pure_function_of_the_seed() {
        assert_eq!(uniform_points(5, 16, 1), uniform_points(5, 16, 1));
        assert_ne!(uniform_points(5, 16, 1), uniform_points(5, 16, 2));
        assert!(uniform_points(5, 16, 1)
            .iter()
            .all(|x| (0.0..1.0).contains(x)));
        let grid = hddm::asg::regular_grid(4, 3);
        let a = synthetic_surpluses(&grid, 3, 9);
        assert_eq!(a, synthetic_surpluses(&grid, 3, 9));
        assert_ne!(a, synthetic_surpluses(&grid, 3, 10));
        assert_eq!(a.len(), grid.len() * 3);
        // The root carries the largest scale; level-3 nodes are ≤ 1/16 of it.
        assert!(a[3..].iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn sweep_set_is_a_pure_function_of_the_seed() {
        let key = |seed| -> Vec<u64> {
            sweep_set(seed)
                .scenarios
                .iter()
                .map(scenario_hash)
                .collect()
        };
        assert_eq!(key(5), key(5));
        assert_ne!(key(5), key(6));
        assert_eq!(key(5).len(), SWEEP_SCENARIOS);
    }
}
