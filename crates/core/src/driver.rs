//! The parallel time-iteration driver — Algorithm 1 of the paper, with the
//! per-step structure of Fig. 2: the world's ranks share out the discrete
//! states, each state's ASG is built level by level (solve the frontier,
//! hierarchize, refine), interpolating next-period policies `pnext`
//! through the compressed kernels, and the ranks exchange the new
//! interpolants; then iterate to convergence. One process is a world of
//! one rank.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use hddm_telemetry::{Counter, Histogram, Registry};

use hddm_asg::{
    refine_frontier, regular_grid, BoxDomain, RefineConfig, SparseGrid, Stencil, SurplusNorm,
};
use hddm_cluster::{Comm, SerialComm};
use hddm_compress::CompressedGrid;
use hddm_kernels::{
    CompressedState, ExecutionBackend, KernelKind, PointBlock, Scratch, BATCH_CHUNK,
};
use hddm_olg::{PointScratch, PolicyOracle};
use hddm_sched::{parallel_for_init, PoolConfig};
use hddm_solver::SolverError;

use crate::distributed::{decode_state, encode_state, records, Share};
use crate::policy::{AsgOracle, PolicySet};

/// What the driver needs from an economic model: the state-space shape and
/// a per-point solve. Implemented for [`hddm_olg::OlgModel`] via
/// [`crate::olg_step::OlgStep`], and by toy contraction maps in tests.
pub trait StepModel: Sync {
    /// Continuous state dimensionality `d`.
    fn dim(&self) -> usize;
    /// Coefficients per grid point.
    fn ndofs(&self) -> usize;
    /// Number of discrete states `Ns`.
    fn num_states(&self) -> usize;
    /// The physical box `B` (lower, upper bounds).
    fn bounds(&self) -> (Vec<f64>, Vec<f64>);
    /// The constant initial policy guess `p⁰`.
    fn initial_row(&self) -> Vec<f64>;
    /// Solves the point problem at `(z, x_phys)` with warm start `warm`
    /// (the previous policy at this point), interpolating next-period
    /// policies through `oracle`. Returns the solved dof row.
    fn solve_point_row(
        &self,
        z: usize,
        x_phys: &[f64],
        warm: &[f64],
        oracle: &mut dyn PolicyOracle,
    ) -> Result<Vec<f64>, SolverError>;

    /// Solves the point problems of a block of states of `z` together:
    /// `xs_phys` is `npts × dim`, `warm` one warm-start row per point
    /// (`npts × ndofs`). Point `i`'s solved row is written to row `i` of
    /// `rows` where entry `i` of the result is `Ok`; both must be exactly
    /// what [`Self::solve_point_row`] gives for the point alone. The
    /// provided implementation loops it; a model whose point solver can
    /// advance many points in lockstep overrides this so `oracle` sees
    /// wide blocks. `scratch` is the calling worker's, reused from block
    /// to block.
    fn solve_point_rows(
        &self,
        z: usize,
        xs_phys: &[f64],
        warm: &[f64],
        oracle: &mut dyn PolicyOracle,
        _scratch: &mut PointScratch,
        rows: &mut [f64],
    ) -> Vec<Result<(), SolverError>> {
        let dim = self.dim();
        let ndofs = self.ndofs();
        let points = xs_phys.chunks_exact(dim).zip(warm.chunks_exact(ndofs));
        points
            .zip(rows.chunks_exact_mut(ndofs))
            .map(|((x, warm), row)| {
                let solved = self.solve_point_row(z, x, warm, oracle)?;
                row.copy_from_slice(&solved);
                Ok(())
            })
            .collect()
    }
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Interpolation kernel for `pnext` evaluations.
    pub kernel: KernelKind,
    /// Which engine evaluates batched `PointBlock` calls: the blocks of
    /// the point solver's Newton rounds (the interpolation the paper
    /// offloads), warm-start frontier evaluation and incremental
    /// hierarchization. Every backend runs `kernel`'s batch
    /// walk; [`ExecutionBackend::Observed`] also reports each block to
    /// its observer (the simulated device prices it). A model that solves
    /// its points one at a time (the provided
    /// [`StepModel::solve_point_rows`]) makes single-point oracle calls,
    /// which are never observed.
    pub backend: ExecutionBackend,
    /// Regular sparse-grid level every step starts from (the paper
    /// restarts from level 2).
    pub start_level: u8,
    /// Adaptive refinement threshold ε; `None` keeps the regular
    /// `start_level` grid (the strong-scaling benchmark configuration).
    pub refine_epsilon: Option<f64>,
    /// Maximum refinement level `Lmax` (paper: 6).
    pub max_level: u8,
    /// Intra-step thread pool.
    pub pool: PoolConfig,
    /// Stop after this many time-iteration steps.
    pub max_steps: usize,
    /// Convergence tolerance on the sup policy change.
    pub tolerance: f64,
    /// Telemetry registry receiving per-phase span timings
    /// (`hddm_solve_*_seconds`), the point solver's oracle traffic
    /// (`hddm_solve_oracle_{blocks,points,walks}_total`) and its work
    /// (`hddm_solve_{residual_rows,jacobians,newton_iterations}_total`);
    /// `None` disables all of it.
    pub telemetry: Option<Registry>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            kernel: KernelKind::Avx2,
            backend: ExecutionBackend::Cpu,
            start_level: 2,
            refine_epsilon: None,
            max_level: 6,
            pool: PoolConfig::default(),
            max_steps: 100,
            tolerance: 1e-6,
            telemetry: None,
        }
    }
}

/// The driver's instruments, resolved from the registry once per step:
/// the phase spans of the level loop and of compression (named by the
/// `hddm_solve_<phase>_seconds` scheme documented in the README) and the
/// frontier solves' work counters.
struct PhaseSpans {
    policy_update: Arc<Histogram>,
    hierarchize: Arc<Histogram>,
    refine: Arc<Histogram>,
    compress: Arc<Histogram>,
    work: WorkCounters,
}

impl PhaseSpans {
    fn resolve(registry: &Registry) -> PhaseSpans {
        PhaseSpans {
            policy_update: registry.histogram("hddm_solve_policy_update_seconds"),
            hierarchize: registry.histogram("hddm_solve_hierarchize_seconds"),
            refine: registry.histogram("hddm_solve_refine_seconds"),
            compress: registry.histogram("hddm_solve_compress_seconds"),
            work: WorkCounters {
                blocks: registry.counter("hddm_solve_oracle_blocks_total"),
                points: registry.counter("hddm_solve_oracle_points_total"),
                walks: registry.counter("hddm_solve_oracle_walks_total"),
                residual_rows: registry.counter("hddm_solve_residual_rows_total"),
                jacobians: registry.counter("hddm_solve_jacobians_total"),
                newton_iterations: registry.counter("hddm_solve_newton_iterations_total"),
            },
        }
    }
}

/// What every state's level loop of one step shares, built once per step:
/// the start-level regular grid, its hierarchization stencil and the
/// driver's instruments.
struct StepShared {
    grid: SparseGrid,
    stencil: Stencil,
    spans: Option<PhaseSpans>,
}

impl StepShared {
    fn new(dim: usize, config: &DriverConfig) -> StepShared {
        let grid = regular_grid(dim, config.start_level);
        StepShared {
            stencil: Stencil::of(&grid),
            grid,
            spans: config.telemetry.as_ref().map(PhaseSpans::resolve),
        }
    }
}

/// Runs `f`, recording its wall time into `hist` when spans are enabled.
fn timed<T>(hist: Option<&Arc<Histogram>>, f: impl FnOnce() -> T) -> T {
    match hist {
        Some(hist) => {
            let start = Instant::now();
            let out = f();
            hist.record(start.elapsed().as_secs_f64());
            out
        }
        None => f(),
    }
}

/// Per-step diagnostics (the raw material of Fig. 9).
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step index (0-based).
    pub step: usize,
    /// `‖p − pnext‖_∞` over grid points (savings dofs, relative).
    pub sup_change: f64,
    /// RMS policy change.
    pub l2_change: f64,
    /// Grid points per discrete state after refinement (`M_z`).
    pub points_per_state: Vec<usize>,
    /// New points per refinement level, per state (Fig. 8's level split).
    pub level_points: Vec<Vec<usize>>,
    /// Point solves that fell back after solver failure.
    pub solver_failures: usize,
    /// Wall-clock seconds for the step.
    pub wall_seconds: f64,
}

/// The time-iteration state machine, run over the world `C` (Fig. 2):
/// every step splits the world into a rank group per discrete state (or
/// multiplexes states onto ranks when there are fewer ranks than states),
/// builds this rank's states and exchanges them, so every rank ends the
/// step with the same policy. The default world, [`SerialComm`], is one
/// process: it builds every state and exchanges nothing.
pub struct TimeIteration<M: StepModel, C: Comm = SerialComm> {
    /// The economic model being solved.
    pub model: M,
    /// Driver configuration.
    pub config: DriverConfig,
    /// The current policy guess `pnext`.
    pub policy: PolicySet,
    step: usize,
    world: C,
}

/// Builds the step-0 policy: the constant row `p⁰ = initial_row` on the
/// start-level regular grid, one interpolant per discrete state. Pure
/// function of the model and `start_level`, so every rank of a world
/// constructs an identical copy without communication.
pub(crate) fn initial_policy<M: StepModel>(model: &M, start_level: u8) -> PolicySet {
    let (lo, hi) = model.bounds();
    let domain = BoxDomain::new(lo, hi);
    let ndofs = model.ndofs();
    let row = model.initial_row();
    assert_eq!(row.len(), ndofs);
    let grid = regular_grid(model.dim(), start_level);
    // A constant function hierarchizes to a single root surplus; build
    // it directly.
    let mut values = vec![0.0; grid.len() * ndofs];
    for chunk in values.chunks_exact_mut(ndofs) {
        chunk.copy_from_slice(&row);
    }
    hddm_asg::hierarchize(&grid, &mut values, ndofs);
    // One compression serves every state: the start-level grid is shared.
    let cg = CompressedGrid::build(&grid);
    let chain_order = cg.reorder_rows(&values, ndofs);
    let states = (0..model.num_states())
        .map(|_| CompressedState::from_parts(cg.clone(), chain_order.clone(), ndofs))
        .collect();
    PolicySet::new(states, domain)
}

impl<M: StepModel> TimeIteration<M> {
    /// Initializes a single-process driver with the constant policy
    /// `p⁰ = initial_row` on the start-level regular grid.
    pub fn new(model: M, config: DriverConfig) -> Self {
        TimeIteration::over(SerialComm, model, config)
    }

    /// Rebuilds a single-process driver around an existing policy (the
    /// checkpoint-resume path): no initial-guess construction, the supplied
    /// policy *is* the current `pnext` and `step` continues the original
    /// counter.
    pub fn with_policy(model: M, config: DriverConfig, policy: PolicySet, step: usize) -> Self {
        assert_eq!(
            policy.domain.dim(),
            model.dim(),
            "policy/model dim mismatch"
        );
        assert_eq!(
            policy.states.num_states(),
            model.num_states(),
            "policy/model state count mismatch"
        );
        TimeIteration {
            model,
            config,
            policy,
            step,
            world: SerialComm,
        }
    }
}

impl<M: StepModel, C: Comm> TimeIteration<M, C> {
    /// Initializes this rank's driver of a run over `world` with the
    /// constant policy `p⁰`; every rank of the world must make one.
    pub fn over(world: C, model: M, config: DriverConfig) -> Self {
        let policy = initial_policy(&model, config.start_level);
        TimeIteration {
            model,
            config,
            policy,
            step: 0,
            world,
        }
    }

    /// Number of time-iteration steps executed so far.
    #[inline]
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// Executes one time-iteration step (Fig. 2), replacing the policy.
    /// Every rank of the world returns the same report and holds the same
    /// policy after it.
    pub fn step(&mut self) -> StepReport {
        let start = Instant::now();
        let (model, config, policy, world) = (&self.model, &self.config, &self.policy, &self.world);
        let ns = model.num_states();
        let ndofs = model.ndofs();
        let shared = StepShared::new(model.dim(), config);
        let mut totals = StepTotals::default();
        // A state is compressed as soon as this rank holds it, built or
        // received; only the compressed form and its level sizes are kept.
        let compress =
            |built: BuiltState| (built.compress(shared.spans.as_ref(), ndofs), built.levels);
        let mut held: Vec<Option<(CompressedState, Vec<usize>)>> = (0..ns).map(|_| None).collect();

        let share = Share::of(world, &policy.points_per_state());
        let mut outgoing = Vec::new();
        for &z in &share.states {
            let built = build_state(
                model,
                policy,
                config,
                &shared,
                z,
                share.group.as_ref(),
                &mut totals,
            );
            if share.publishes {
                encode_state(z, &built, ndofs, &mut outgoing);
            }
            held[z] = Some(compress(built));
        }
        // The world exchange: each rank decodes the states it lacks.
        for flat in world.allgather(&outgoing) {
            for (z, record) in records(&flat) {
                if held[z].is_none() {
                    held[z] = Some(compress(decode_state(record, model.dim(), ndofs)));
                }
            }
        }

        let mut maxbuf = [totals.sup];
        world.allreduce_max(&mut maxbuf);
        let mut sumbuf = [totals.sum_sq, totals.count as f64, totals.failures as f64];
        world.allreduce_sum(&mut sumbuf);

        let mut new_states = Vec::with_capacity(ns);
        let mut level_points: Vec<Vec<usize>> = Vec::new();
        for (z, slot) in held.into_iter().enumerate() {
            let (state, levels) = slot.unwrap_or_else(|| panic!("state {z} missing from exchange"));
            if level_points.len() < levels.len() {
                level_points.resize(levels.len(), vec![0; ns]);
            }
            for (l, &count) in levels.iter().enumerate() {
                level_points[l][z] = count;
            }
            new_states.push(state);
        }

        let report = StepReport {
            step: self.step,
            sup_change: maxbuf[0],
            l2_change: (sumbuf[0] / sumbuf[1].max(1.0)).sqrt(),
            points_per_state: new_states.iter().map(|s| s.grid.nno()).collect(),
            level_points,
            solver_failures: sumbuf[2] as usize,
            wall_seconds: start.elapsed().as_secs_f64(),
        };
        self.policy = PolicySet::new(new_states, self.policy.domain.clone());
        self.step += 1;
        report
    }

    /// Runs until `‖p − pnext‖_∞ < tolerance` or `max_steps`, the ranks
    /// meeting at a barrier after each step.
    pub fn run(&mut self) -> Vec<StepReport> {
        let mut reports = Vec::new();
        for _ in 0..self.config.max_steps {
            let report = self.step();
            let done = report.sup_change < self.config.tolerance;
            reports.push(report);
            self.world.barrier();
            if done {
                break;
            }
        }
        reports
    }
}

/// What one rank accumulates over a step: the policy change against
/// `pnext` at the points it solved, and the solves that fell back. The
/// step reduces these world-wide.
#[derive(Default)]
struct StepTotals {
    /// Largest relative change of a coefficient.
    sup: f64,
    /// Sum of squared relative changes.
    sum_sq: f64,
    /// Coefficients compared.
    count: usize,
    /// Points whose warm-started solve failed.
    failures: usize,
}

impl StepTotals {
    /// Folds in one frontier solve: its fallbacks, and the relative
    /// difference between its new rows and `pnext` at the same points.
    /// The solve's squared sum is formed on its own and then added — the
    /// summation order the bitwise `StepReport` checks pin.
    fn add(&mut self, solved: &FrontierSolve) {
        let mut sum_sq = 0.0;
        for (new, old) in solved.rows.iter().zip(&solved.warm) {
            let delta = (new - old).abs() / (1.0 + old.abs());
            self.sup = self.sup.max(delta);
            sum_sq += delta * delta;
        }
        self.sum_sq += sum_sq;
        self.count += solved.rows.len();
        self.failures += solved.failures;
    }
}

/// One state's finished grid of this step, before compression: the step's
/// shared start grid while no refinement has run, a copy after.
pub(crate) struct BuiltState<'g> {
    pub grid: Cow<'g, SparseGrid>,
    /// Surplus rows in grid order.
    pub surpluses: Vec<f64>,
    /// Frontier size per refinement level.
    pub levels: Vec<usize>,
}

impl BuiltState<'_> {
    /// Runs the compression pipeline on the finished grid — once per state
    /// per step on each rank — under the `hddm_solve_compress_seconds`
    /// span.
    fn compress(&self, spans: Option<&PhaseSpans>, ndofs: usize) -> CompressedState {
        timed(spans.map(|s| &s.compress), || {
            let cg = CompressedGrid::build(&self.grid);
            let chain_order = cg.reorder_rows(&self.surpluses, ndofs);
            CompressedState::from_parts(cg, chain_order, ndofs)
        })
    }
}

/// The level loop of Fig. 2 for one discrete state: solve the frontier
/// against `policy` (= `pnext`), measure the policy change there,
/// hierarchize the new rows against this step's partial interpolant,
/// refine, repeat. Every rank runs this one loop for each state it
/// builds, starting from the step's `shared` start grid: the first level
/// is hierarchized with its stencil, and the grid is copied when this
/// state first refines.
///
/// With a `group`, each level's frontier is dealt round-robin across the
/// group's ranks and the solved rows are merged by an allgather, so every
/// rank hierarchizes and refines the same rows; `totals` then covers this
/// rank's share only. `None` solves the whole frontier here.
fn build_state<'g, M: StepModel, C: Comm>(
    model: &M,
    policy: &PolicySet,
    config: &DriverConfig,
    shared: &'g StepShared,
    z: usize,
    group: Option<&C>,
    totals: &mut StepTotals,
) -> BuiltState<'g> {
    let dim = model.dim();
    let ndofs = model.ndofs();
    let spans = shared.spans.as_ref();
    let work = spans.map(|s| &s.work);

    let mut grid = Cow::Borrowed(&shared.grid);
    let mut frontier: Vec<u32> = (0..grid.len() as u32).collect();
    let mut surpluses: Vec<f64> = Vec::new();
    let mut levels = Vec::new();
    let mut hier =
        IncrementalHierarchizer::with_backend(config.kernel, config.backend.clone(), dim, ndofs);

    loop {
        levels.push(frontier.len());

        // A group deals the frontier round-robin: this rank solves every
        // `size`-th point and the level is merged across the group.
        let share = group.map(|g| (g, (g.rank()..frontier.len()).step_by(g.size())));
        let mine: Cow<[u32]> = match &share {
            Some((_, positions)) => positions.clone().map(|i| frontier[i]).collect(),
            None => Cow::Borrowed(&frontier),
        };
        let solved = timed(spans.map(|s| &s.policy_update), || {
            solve_frontier(model, policy, config, z, &grid, &mine, work)
        });
        totals.add(&solved);
        let solved = match share {
            Some((g, positions)) => merge_level(g, positions, &solved.rows, frontier.len(), ndofs),
            None => solved.rows,
        };

        // Hierarchize the new rows against the partial interpolant of
        // *this* step (coarser levels already done); the hierarchizer
        // extends its compressed state in place. Deterministic, so a
        // group's ranks stay in agreement.
        let new_surpluses = timed(spans.map(|s| &s.hierarchize), || {
            if levels.len() == 1 {
                hier.start(&grid, &shared.stencil, &solved)
            } else {
                hier.extend(&grid, &frontier, &solved)
            }
        });
        surpluses.extend_from_slice(&new_surpluses);

        let Some(epsilon) = config.refine_epsilon else {
            break;
        };
        let refine_config = RefineConfig {
            epsilon,
            max_level: config.max_level,
            norm: SurplusNorm::MaxAbs,
        };
        let report = timed(spans.map(|s| &s.refine), || {
            refine_frontier(grid.to_mut(), &surpluses, ndofs, &frontier, &refine_config)
        });
        if report.new_nodes.is_empty() {
            break;
        }
        frontier = report.new_nodes;
    }

    BuiltState {
        grid,
        surpluses,
        levels,
    }
}

/// Merges one level across a rank group: every rank contributes the rows
/// it solved, tagged with their frontier `positions`, and gets back all
/// `len` rows in frontier order.
fn merge_level<C: Comm>(
    group: &C,
    positions: impl Iterator<Item = usize>,
    rows: &[f64],
    len: usize,
    ndofs: usize,
) -> Vec<f64> {
    let stride = 1 + ndofs;
    let mut flat = Vec::with_capacity(rows.len() / ndofs * stride);
    for (i, row) in positions.zip(rows.chunks_exact(ndofs)) {
        flat.push(i as f64);
        flat.extend_from_slice(row);
    }
    let mut merged = vec![0.0; len * ndofs];
    let mut seen = vec![false; len];
    for contribution in &group.allgather(&flat) {
        assert_eq!(contribution.len() % stride, 0, "ragged merge payload");
        for rec in contribution.chunks_exact(stride) {
            let i = rec[0] as usize;
            merged[i * ndofs..(i + 1) * ndofs].copy_from_slice(&rec[1..]);
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "merge missed frontier points");
    merged
}

/// The unit-cube coordinates of grid nodes `points`, point-major.
fn unit_rows(grid: &SparseGrid, points: &[u32]) -> Vec<f64> {
    let dim = grid.dim();
    let mut unit = vec![0.0; dim];
    let mut rows = Vec::with_capacity(points.len() * dim);
    for &p in points {
        grid.unit_point_of(p as usize, &mut unit);
        rows.extend_from_slice(&unit);
    }
    rows
}

/// `pnext(z)` at the unit-cube points `unit_rows`, as one batched
/// evaluation through the backend.
fn evaluate_pnext(
    policy: &PolicySet,
    config: &DriverConfig,
    z: usize,
    unit_rows: &[f64],
) -> Vec<f64> {
    let state = policy.states.state(z);
    let block = PointBlock::from_rows(policy.domain.dim(), unit_rows);
    let mut out = vec![0.0; block.len() * state.ndofs];
    config.backend.evaluate_batch(
        config.kernel,
        state,
        &block,
        &mut Scratch::default(),
        &mut out,
    );
    out
}

/// What [`solve_frontier`] returns.
struct FrontierSolve {
    /// The solved dof rows, in the order of the requested points.
    rows: Vec<f64>,
    /// `pnext(z)` at the same points — the warm starts the solves began
    /// from, and the rows the policy change is measured against.
    warm: Vec<f64>,
    /// Points whose warm-started solve failed (each was retried cold).
    failures: usize,
}

/// The frontier solve of the level loop: solves the point problems of
/// state `z` at grid nodes `points` against `policy` (= `pnext`).
///
/// Warm starts — `pnext(z)` at every point — are ONE batched evaluation
/// before dispatch. The points then go to the pool in slices of at most
/// [`BATCH_CHUNK`], each solved as a block
/// ([`StepModel::solve_point_rows`]) so the oracle sees wide blocks; the
/// points of a slice that fail are retried together from the cold
/// constant guess, and keep their warm-start row if they fail again.
/// Point problems are independent, so neither the slicing nor the thread
/// count changes a row.
fn solve_frontier<M: StepModel>(
    model: &M,
    policy: &PolicySet,
    config: &DriverConfig,
    z: usize,
    grid: &SparseGrid,
    points: &[u32],
    work: Option<&WorkCounters>,
) -> FrontierSolve {
    let ndofs = model.ndofs();
    let dim = model.dim();
    let units = unit_rows(grid, points);
    let warm_rows = evaluate_pnext(policy, config, z, &units);
    let mut rows = vec![0.0; points.len() * ndofs];
    let failure_count = AtomicUsize::new(0);

    // Every thread gets work on small frontiers; no slice is wider than
    // the kernels' chunk or, where the frontier allows, narrower than the
    // pool's grain.
    let threads = config.pool.threads.max(1);
    let slice = points
        .len()
        .div_ceil(threads)
        .max(config.pool.grain)
        .clamp(1, BATCH_CHUNK);
    let pool = PoolConfig { threads, grain: 1 };
    // One handle per slice: the pool runs each slice exactly once, so a
    // lock is taken once and never waited on.
    let slices: Vec<Mutex<&mut [f64]>> = rows.chunks_mut(slice * ndofs).map(Mutex::new).collect();

    parallel_for_init(
        points.len().div_ceil(slice),
        &pool,
        || SliceWorker {
            oracle: policy.oracle_on(config.kernel, config.backend.clone()),
            scratch: PointScratch::default(),
            phys: Vec::new(),
            retry_phys: Vec::new(),
            retry_rows: Vec::new(),
        },
        |worker, t| {
            let lo = t * slice;
            let hi = (lo + slice).min(points.len());
            let warm = &warm_rows[lo * ndofs..hi * ndofs];
            worker.phys.resize((hi - lo) * dim, 0.0);
            for (unit, phys) in units[lo * dim..hi * dim]
                .chunks_exact(dim)
                .zip(worker.phys.chunks_exact_mut(dim))
            {
                policy.domain.from_unit(unit, phys);
            }
            let mut solved = slices[t].lock().unwrap_or_else(PoisonError::into_inner);
            let results = model.solve_point_rows(
                z,
                &worker.phys,
                warm,
                &mut worker.oracle,
                &mut worker.scratch,
                &mut solved,
            );

            let failed: Vec<usize> = (0..hi - lo).filter(|&i| results[i].is_err()).collect();
            if !failed.is_empty() {
                // ORDERING: Relaxed — retry tally summed after the
                // parallel loop joins; atomicity suffices.
                failure_count.fetch_add(failed.len(), Ordering::Relaxed);
                // Retry from the cold constant guess as a second block;
                // fall back to the warm-start row where that fails too.
                let cold = model.initial_row();
                worker.retry_phys.clear();
                for &i in &failed {
                    let x = &worker.phys[i * dim..(i + 1) * dim];
                    worker.retry_phys.extend_from_slice(x);
                }
                worker.retry_rows.resize(failed.len() * ndofs, 0.0);
                let retried = model.solve_point_rows(
                    z,
                    &worker.retry_phys,
                    &cold.repeat(failed.len()),
                    &mut worker.oracle,
                    &mut worker.scratch,
                    &mut worker.retry_rows,
                );
                for (j, &i) in failed.iter().enumerate() {
                    let row = match retried[j] {
                        Ok(()) => &worker.retry_rows[j * ndofs..(j + 1) * ndofs],
                        Err(_) => &warm[i * ndofs..(i + 1) * ndofs],
                    };
                    solved[i * ndofs..(i + 1) * ndofs].copy_from_slice(row);
                }
            }
            if let Some(counters) = work {
                let traffic = worker.oracle.take_traffic();
                counters.blocks.add(traffic.blocks);
                counters.points.add(traffic.points);
                counters.walks.add(traffic.walks);
                let tally = worker.scratch.take_tally();
                counters.residual_rows.add(tally.residual_rows);
                counters.jacobians.add(tally.jacobians);
                counters.newton_iterations.add(tally.newton_iterations);
            }
        },
    );
    drop(slices);
    FrontierSolve {
        rows,
        warm: warm_rows,
        // ORDERING: Relaxed — `parallel_for_init` has joined its workers,
        // so this is a single-threaded read-out of the tally.
        failures: failure_count.load(Ordering::Relaxed),
    }
}

/// Per-worker state of [`solve_frontier`], built once per worker and
/// reused from slice to slice.
struct SliceWorker<'a> {
    oracle: AsgOracle<'a>,
    scratch: PointScratch,
    /// The slice's physical points.
    phys: Vec<f64>,
    /// Points and solved rows of the cold retry.
    retry_phys: Vec<f64>,
    retry_rows: Vec<f64>,
}

/// The registry's counters of a frontier's work — oracle traffic and the
/// point solver's tally.
struct WorkCounters {
    blocks: Arc<Counter>,
    points: Arc<Counter>,
    walks: Arc<Counter>,
    residual_rows: Arc<Counter>,
    jacobians: Arc<Counter>,
    newton_iterations: Arc<Counter>,
}

/// Incremental hierarchization of one state's grid within one
/// time-iteration step. The first batch is the whole start grid:
/// [`Self::start`] hierarchizes it with the grid's precomputed
/// [`Stencil`] (the driver builds it once per step, for every state) and
/// starts the partial interpolant from it. Each later batch is a
/// refinement frontier: [`Self::extend`] computes its surpluses relative
/// to the partial interpolant built so far
/// (`α_p = f(x_p) − u_partial(x_p)`) and **extends** that interpolant in
/// place, so the compressed structure is never rebuilt per level — the
/// per-step compression pipeline runs exactly once, on the finished grid
/// (asserted against [`hddm_compress::builds_total`] in
/// `tests/compression_count.rs`).
///
/// Ancestor closure can mix level sums within one refinement batch, and
/// a coarser new node contributes to a finer new node's interpolant — so
/// each later batch is processed in ascending-`|ľ|₁` groups, evaluating
/// every group against the partial interpolant as **one batched kernel
/// call** ([`ExecutionBackend::evaluate_batch`]) and folding it in via
/// [`CompressedState::append_rows`] before the next (within a
/// group, cross terms vanish at grid points; see `hddm-asg`).
/// Deterministic, so every rank of a group hierarchizing the same rows
/// gets bitwise identical surpluses.
pub(crate) struct IncrementalHierarchizer {
    kernel: KernelKind,
    backend: ExecutionBackend,
    ndofs: usize,
    /// The partial interpolant built so far (kernel-ready; covers every
    /// frontier folded in to date).
    state: CompressedState,
    scratch: Scratch,
}

impl IncrementalHierarchizer {
    /// A fresh hierarchizer for one `(state, step)` grid construction,
    /// whose group evaluations dispatch through `backend`.
    pub(crate) fn with_backend(
        kernel: KernelKind,
        backend: ExecutionBackend,
        dim: usize,
        ndofs: usize,
    ) -> Self {
        IncrementalHierarchizer {
            kernel,
            backend,
            ndofs,
            state: CompressedState::empty(dim, ndofs),
            scratch: Scratch::default(),
        }
    }

    /// Hierarchizes the first batch — `solved` holds one row per node of
    /// the start grid `grid`, in grid order — with `stencil`, the grid's
    /// [`Stencil`]; returns the surplus rows and starts the partial
    /// interpolant from them.
    pub(crate) fn start(
        &mut self,
        grid: &SparseGrid,
        stencil: &Stencil,
        solved: &[f64],
    ) -> Vec<f64> {
        assert_eq!(
            self.state.grid.nno(),
            0,
            "the first batch starts the interpolant"
        );
        let mut values = solved.to_vec();
        stencil.hierarchize(&mut values, self.ndofs);
        let nodes: Vec<u32> = (0..grid.len() as u32).collect();
        self.state.append_rows(grid, &nodes, &values);
        values
    }

    /// Hierarchizes a later batch, the refinement frontier `frontier`:
    /// returns the new surplus rows in frontier order and extends the
    /// partial interpolant.
    pub(crate) fn extend(
        &mut self,
        grid: &SparseGrid,
        frontier: &[u32],
        solved: &[f64],
    ) -> Vec<f64> {
        let ndofs = self.ndofs;
        assert_eq!(solved.len(), frontier.len() * ndofs, "ragged solved rows");
        let dim = grid.dim();

        // Group frontier positions by level sum, ascending.
        let mut order: Vec<usize> = (0..frontier.len()).collect();
        let level_of = |pos: usize| grid.node(frontier[pos] as usize).level_sum(dim);
        order.sort_by_key(|&pos| level_of(pos));

        let mut unit = vec![0.0; dim];
        let mut out = vec![0.0; frontier.len() * ndofs];
        let mut point_rows: Vec<f64> = Vec::new();
        let mut interp: Vec<f64> = Vec::new();
        let mut group_ids: Vec<u32> = Vec::new();
        let mut group_rows: Vec<f64> = Vec::new();

        let mut at = 0usize;
        while at < order.len() {
            let group_level = level_of(order[at]);
            let group_end = order[at..]
                .iter()
                .position(|&pos| level_of(pos) != group_level)
                .map(|offset| at + offset)
                .unwrap_or(order.len());
            let group = &order[at..group_end];

            // One batched evaluation of the whole group against the
            // interpolant over everything strictly processed so far
            // (rows gathered point-major, transposed to SoA in one pass).
            point_rows.clear();
            for &pos in group {
                grid.unit_point_of(frontier[pos] as usize, &mut unit);
                point_rows.extend_from_slice(&unit);
            }
            let block = PointBlock::from_rows(dim, &point_rows);
            interp.clear();
            interp.resize(group.len() * ndofs, 0.0);
            self.backend.evaluate_batch(
                self.kernel,
                &self.state,
                &block,
                &mut self.scratch,
                &mut interp,
            );

            group_ids.clear();
            group_rows.clear();
            for (g, &pos) in group.iter().enumerate() {
                let row = &solved[pos * ndofs..(pos + 1) * ndofs];
                let ev = &interp[g * ndofs..(g + 1) * ndofs];
                for k in 0..ndofs {
                    out[pos * ndofs + k] = row[k] - ev[k];
                }
                group_ids.push(frontier[pos]);
                group_rows.extend_from_slice(&out[pos * ndofs..(pos + 1) * ndofs]);
            }
            // Fold the group into the partial interpolant (append-only —
            // no recompression, no surplus permutation).
            self.state.append_rows(grid, &group_ids, &group_rows);
            at = group_end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A contraction toy model: the solved row is
    /// `0.5·mean_z'(pnext(z', x)) + g(x)` with additive-linear `g`, whose
    /// recursive fixed point is `p*(x) = 2·g(x)` — exactly representable
    /// on the level-2 sparse grid, so the driver must converge to it
    /// geometrically (rate ½).
    struct Contraction {
        dim: usize,
        states: usize,
    }

    impl Contraction {
        fn g(&self, x: &[f64]) -> f64 {
            0.3 + x
                .iter()
                .enumerate()
                .map(|(t, &v)| (t as f64 + 1.0) * 0.1 * v)
                .sum::<f64>()
        }
    }

    impl StepModel for Contraction {
        fn dim(&self) -> usize {
            self.dim
        }
        fn ndofs(&self) -> usize {
            1
        }
        fn num_states(&self) -> usize {
            self.states
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; self.dim], vec![1.0; self.dim])
        }
        fn initial_row(&self) -> Vec<f64> {
            vec![0.0]
        }
        fn solve_point_row(
            &self,
            _z: usize,
            x: &[f64],
            _warm: &[f64],
            oracle: &mut dyn PolicyOracle,
        ) -> Result<Vec<f64>, SolverError> {
            let mut acc = 0.0;
            let mut out = [0.0];
            for z_next in 0..self.states {
                oracle.eval(z_next, x, &mut out);
                acc += out[0];
            }
            Ok(vec![0.5 * acc / self.states as f64 + self.g(x)])
        }
    }

    #[test]
    fn contraction_converges_to_fixed_point() {
        let model = Contraction { dim: 3, states: 2 };
        let config = DriverConfig {
            start_level: 2,
            max_steps: 60,
            tolerance: 1e-10,
            pool: PoolConfig {
                threads: 2,
                grain: 4,
            },
            ..Default::default()
        };
        let mut ti = TimeIteration::new(model, config);
        let reports = ti.run();
        assert!(
            reports.last().unwrap().sup_change < 1e-10,
            "final change {}",
            reports.last().unwrap().sup_change
        );
        // Geometric decay at rate ~1/2.
        assert!(reports.len() > 5);
        for pair in reports.windows(2).take(20) {
            if pair[0].sup_change > 1e-8 {
                let rate = pair[1].sup_change / pair[0].sup_change;
                assert!(rate < 0.75, "rate {rate}");
            }
        }
        // Fixed point = 2·g at an interior probe.
        let mut oracle = ti.policy.oracle(KernelKind::X86);
        let model = Contraction { dim: 3, states: 2 };
        let probe = [0.25, 0.5, 0.75];
        let mut out = [0.0];
        oracle.eval(0, &probe, &mut out);
        assert!(
            (out[0] - 2.0 * model.g(&probe)).abs() < 1e-7,
            "{} vs {}",
            out[0],
            2.0 * model.g(&probe)
        );
    }

    #[test]
    fn adaptive_refinement_grows_grids_when_needed() {
        let config = DriverConfig {
            start_level: 2,
            refine_epsilon: Some(1e-3),
            max_level: 7,
            max_steps: 1,
            ..Default::default()
        };
        let mut ti = TimeIteration::new(Kinked, config);
        let report = ti.step();
        let level2_size = hddm_asg::regular_grid_size(2, 2) as usize;
        assert!(
            report.points_per_state[0] > level2_size,
            "no refinement happened: {:?}",
            report.points_per_state
        );
        assert!(report.level_points.len() > 1);
    }

    /// Fixed point has a kink → adaptivity adds points.
    struct Kinked;
    impl StepModel for Kinked {
        fn dim(&self) -> usize {
            2
        }
        fn ndofs(&self) -> usize {
            1
        }
        fn num_states(&self) -> usize {
            1
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 2], vec![1.0; 2])
        }
        fn initial_row(&self) -> Vec<f64> {
            vec![0.0]
        }
        fn solve_point_row(
            &self,
            _z: usize,
            x: &[f64],
            _warm: &[f64],
            _oracle: &mut dyn PolicyOracle,
        ) -> Result<Vec<f64>, SolverError> {
            Ok(vec![(x[0] - 0.3).abs() + 0.2 * x[1]])
        }
    }

    #[test]
    fn incremental_hierarchizer_matches_full_rebuild() {
        use hddm_asg::{refine_frontier, RefineConfig, SurplusNorm};
        // Grow a grid level by level with a kinked target function; the
        // extended state must interpolate exactly like a from-scratch
        // compression of the final grid + surpluses.
        let dim = 2;
        let ndofs = 2;
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = (x[0] - 0.3).abs() + 0.2 * x[1];
            out[1] = x[0] * x[1] + 0.1;
        };
        let mut grid = regular_grid(dim, 2);
        let mut frontier: Vec<u32> = (0..grid.len() as u32).collect();
        let mut surpluses: Vec<f64> = Vec::new();
        let mut hier = IncrementalHierarchizer::with_backend(
            KernelKind::Avx2,
            ExecutionBackend::Cpu,
            dim,
            ndofs,
        );
        let stencil = Stencil::of(&grid);
        let mut unit = vec![0.0; dim];
        for level in 0..4 {
            let mut solved = vec![0.0; frontier.len() * ndofs];
            for (i, &p) in frontier.iter().enumerate() {
                grid.unit_point_of(p as usize, &mut unit);
                f(&unit, &mut solved[i * ndofs..(i + 1) * ndofs]);
            }
            let new = if level == 0 {
                hier.start(&grid, &stencil, &solved)
            } else {
                hier.extend(&grid, &frontier, &solved)
            };
            surpluses.extend_from_slice(&new);
            if level == 3 {
                // Last pass: stop before refining again, so every grid
                // node has been folded into the hierarchizer.
                break;
            }
            let report = refine_frontier(
                &mut grid,
                &surpluses,
                ndofs,
                &frontier,
                &RefineConfig {
                    epsilon: 1e-3,
                    max_level: 6,
                    norm: SurplusNorm::MaxAbs,
                },
            );
            if report.new_nodes.is_empty() {
                break;
            }
            frontier = report.new_nodes;
        }
        assert_eq!(hier.state.grid.nno(), grid.len());
        // Reference: full pipeline compression of the final surpluses.
        let rebuilt = CompressedState::new(&grid, &surpluses, ndofs);
        let mut scratch = Scratch::default();
        let mut a = vec![0.0; ndofs];
        let mut b = vec![0.0; ndofs];
        for s in 0..60 {
            let x = [
                ((s * 13 + 5) as f64 * 0.0137) % 1.0,
                ((s * 7 + 11) as f64 * 0.0231) % 1.0,
            ];
            KernelKind::X86.evaluate_compressed(&hier.state, &x, &mut scratch, &mut a);
            KernelKind::X86.evaluate_compressed(&rebuilt, &x, &mut scratch, &mut b);
            for k in 0..ndofs {
                assert!((a[k] - b[k]).abs() < 1e-12, "dof {k} at {x:?}");
            }
        }
        // Exact at every grid point (interpolation property).
        let mut want = vec![0.0; ndofs];
        for i in 0..grid.len() {
            grid.unit_point_of(i, &mut unit);
            f(&unit, &mut want);
            KernelKind::X86.evaluate_compressed(&hier.state, &unit, &mut scratch, &mut a);
            for k in 0..ndofs {
                assert!((a[k] - want[k]).abs() < 1e-10, "grid point {i} dof {k}");
            }
        }
    }

    #[test]
    fn solver_failures_fall_back_gracefully() {
        /// Fails at every point on the first call, succeeds on retry.
        struct Flaky;
        impl StepModel for Flaky {
            fn dim(&self) -> usize {
                1
            }
            fn ndofs(&self) -> usize {
                1
            }
            fn num_states(&self) -> usize {
                1
            }
            fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
                (vec![0.0], vec![1.0])
            }
            fn initial_row(&self) -> Vec<f64> {
                vec![42.0] // the cold guess marks the retry path
            }
            fn solve_point_row(
                &self,
                _z: usize,
                _x: &[f64],
                warm: &[f64],
                _oracle: &mut dyn PolicyOracle,
            ) -> Result<Vec<f64>, SolverError> {
                if warm[0] == 42.0 {
                    Ok(vec![7.0])
                } else {
                    Err(SolverError::MaxIterations { residual: 1.0 })
                }
            }
        }
        let mut ti = TimeIteration::new(
            Flaky,
            DriverConfig {
                start_level: 2,
                max_steps: 1,
                ..Default::default()
            },
        );
        let report = ti.step();
        // First step: warm start comes from the constant 42 policy, so the
        // solves succeed without failures...
        assert_eq!(report.solver_failures, 0);
        let report2 = ti.step();
        // ...second step: warm starts are now 7.0, every point fails once
        // and succeeds on the cold retry (initial_row = 42).
        assert!(report2.solver_failures > 0);
    }
}
