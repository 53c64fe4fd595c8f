//! The parallel time-iteration driver — Algorithm 1 of the paper, with the
//! per-step structure of Fig. 2: the world's ranks share out the discrete
//! states, each state's ASG is built level by level (solve the frontier,
//! hierarchize, refine), interpolating next-period policies `pnext`
//! through the compressed kernels, and the ranks exchange the new
//! interpolants; then iterate to convergence. One process is a world of
//! one rank.
//!
//! A run builds what every step shares once (`RunKit`): the start-level
//! regular grid every state restarts from, its hierarchization stencil
//! and its compression, the driver's instruments, and a pool of worker
//! buffers — the oracle's kernel scratch and block, the point solver's
//! Newton workspace — that every frontier solve, warm-start evaluation
//! and hierarchization borrows and gives back. A state that never leaves
//! the start grid is compressed by putting its rows in the kit's chain
//! order, and so is every policy built on the start grid: the step-0
//! policy and a warm start's ([`TimeIteration::warm`]). A step still
//! builds what refinement makes new: each refined grid, its incremental
//! hierarchization and its compression.
//!
//! A run also carries one [`FactorStore`] per state from step to step: the
//! LU of the last Jacobian each settled grid node's point solve took, which
//! that node's solve of the next step starts from ([`crate::factors`]).

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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
use hddm_solver::{Factors, SolverError};

use crate::distributed::{decode_state, encode_state, records, Share};
use crate::factors::{found, settled, Entries, FactorStore, Matcher};
use crate::policy::{OracleBuffers, PolicySet};

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

    /// The unknowns of a point's Newton system, whose Jacobian factors the
    /// driver carries from step to step ([`Self::solve_point_rows`]'s
    /// `factors`); 0, the provided value, for a model that carries none,
    /// whose stores then hold no entry. The driver sizes a state's store
    /// before a level's solves write their factors into it, so it takes
    /// `n` from here and not from the first factor a solve returns.
    fn unknowns(&self) -> usize {
        0
    }

    /// Solves the point problems of a block of states of `z` together:
    /// `xs_phys` is `npts × dim`, `warm` one warm-start row per point
    /// (`npts × ndofs`). Point `i`'s solved row is written to row `i` of
    /// `rows` where entry `i` of the result is `Ok`; both must be exactly
    /// what [`Self::solve_point_row`] gives for the point alone when its
    /// slot in `factors` is empty. `factors` holds one slot per point of
    /// [`Self::unknowns`] unknowns: a point whose slot holds the LU of its
    /// previous step's Jacobian starts its Newton from it, and the slot
    /// leaves holding the LU of the point's last Jacobian
    /// ([`hddm_solver::Factors`]). The provided implementation loops
    /// `solve_point_row` and leaves `factors` alone; a model whose point
    /// solver can advance many points in lockstep overrides this so
    /// `oracle` sees wide blocks. `scratch` is the calling worker's,
    /// reused from block to block.
    #[allow(clippy::too_many_arguments)]
    fn solve_point_rows(
        &self,
        z: usize,
        xs_phys: &[f64],
        warm: &[f64],
        oracle: &mut dyn PolicyOracle,
        _scratch: &mut PointScratch,
        _factors: &mut Factors,
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
    /// (`hddm_solve_{residual_rows,jacobians,newton_iterations}_total`,
    /// `hddm_solve_jacobians_carried_total`,
    /// `hddm_solve_jacobian_refreshes_total`); `None` disables all of it.
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

/// The driver's instruments, resolved from the registry once per run:
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
                carried: registry.counter("hddm_solve_jacobians_carried_total"),
                refreshes: registry.counter("hddm_solve_jacobian_refreshes_total"),
                newton_iterations: registry.counter("hddm_solve_newton_iterations_total"),
            },
        }
    }

    /// Whether these spans were resolved from `registry`.
    fn of(&self, registry: &Registry) -> bool {
        Arc::ptr_eq(
            &self.compress,
            &registry.histogram("hddm_solve_compress_seconds"),
        )
    }
}

/// What every step of a run shares, built once per run and owned by its
/// [`TimeIteration`]: the start-level regular grid every state restarts
/// from (Algorithm 1, Fig. 2), its compression and hierarchization
/// stencil, the driver's instruments, and a pool of worker buffers.
///
/// The grid is built with the driver; the rest when it is first needed.
/// A policy built on the start grid ([`RunKit::policy`]: the step-0
/// policy, a warm start's projection) builds the stencil and the
/// compression; a driver resumed around a policy builds the stencil at
/// its first step and the compression only for a state that never
/// refines. The pool holds as many buffer sets as were ever out at once.
/// `config` is public, so a step checks that the kit still fits it: a
/// new start level (or model dimension) rebuilds the kit, a new registry
/// re-resolves the spans.
pub(crate) struct RunKit {
    start_level: u8,
    grid: SparseGrid,
    compressed: OnceLock<CompressedGrid>,
    stencil: OnceLock<Stencil>,
    spans: Option<PhaseSpans>,
    pool: Mutex<Vec<WorkerBuffers>>,
}

impl RunKit {
    /// A kit over the level-`start_level` regular grid in `dim`
    /// dimensions; builds the grid alone.
    fn new(dim: usize, start_level: u8) -> RunKit {
        RunKit {
            start_level,
            grid: regular_grid(dim, start_level),
            compressed: OnceLock::new(),
            stencil: OnceLock::new(),
            spans: None,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The kit made fit for a step of `config` over `dim` dimensions:
    /// kept while its start level and dimension match (replaced by a new
    /// one otherwise), its spans resolved from `config`'s registry.
    fn fit(&mut self, dim: usize, config: &DriverConfig) -> &RunKit {
        if self.start_level != config.start_level || self.grid.dim() != dim {
            *self = RunKit::new(dim, config.start_level);
        }
        let current = match (&self.spans, &config.telemetry) {
            (Some(spans), Some(registry)) => spans.of(registry),
            (spans, registry) => spans.is_none() && registry.is_none(),
        };
        if !current {
            self.spans = config.telemetry.as_ref().map(PhaseSpans::resolve);
        }
        self
    }

    /// The start grid's compression, built at the first call.
    fn compressed(&self) -> &CompressedGrid {
        self.compressed
            .get_or_init(|| CompressedGrid::build(&self.grid))
    }

    /// The start grid's hierarchization stencil, built at the first call.
    fn stencil(&self) -> &Stencil {
        self.stencil.get_or_init(|| Stencil::of(&self.grid))
    }

    /// The policy over `domain` on the start grid whose states take
    /// `values`, one item per state of `ndofs` values per grid node in
    /// grid order: hierarchized with the kit's stencil, its rows put in
    /// the chain order of the kit's compression, which every state shares.
    fn policy(
        &self,
        domain: BoxDomain,
        ndofs: usize,
        values: impl Iterator<Item = Vec<f64>>,
    ) -> PolicySet {
        let cg = self.compressed();
        let states = values
            .map(|mut rows| {
                self.stencil().hierarchize(&mut rows, ndofs);
                let chain_order = cg.reorder_rows(&rows, ndofs);
                CompressedState::from_parts(cg.clone(), chain_order, ndofs)
            })
            .collect();
        PolicySet::new(states, domain)
    }

    /// `state` at the unit-cube points `unit_rows`, as one batched
    /// evaluation with `kernel` through `backend` in a lent buffer set.
    fn evaluate(
        &self,
        kernel: KernelKind,
        backend: &ExecutionBackend,
        state: &CompressedState,
        unit_rows: &[f64],
    ) -> Vec<f64> {
        let block = PointBlock::from_rows(self.grid.dim(), unit_rows);
        let mut out = vec![0.0; block.len() * state.ndofs];
        let scratch = &mut self.lend().buffers.oracle.scratch;
        backend.evaluate_batch(kernel, state, &block, scratch, &mut out);
        out
    }

    /// Projects the cached surface `cached` onto the box `lo`–`hi` on the
    /// start grid: the cached interpolant, clamped into its own box (the
    /// paper's domain truncation), evaluated at every grid node as one
    /// batch per state (an observing backend re-uses the surface's device
    /// residency across states), then made a policy on the kit.
    fn project(
        &self,
        cached: &PolicySet,
        lo: &[f64],
        hi: &[f64],
        kernel: KernelKind,
        backend: &ExecutionBackend,
    ) -> Result<PolicySet, ProjectionError> {
        let dim = cached.domain.dim();
        if [lo.len(), hi.len(), self.grid.dim()] != [dim; 3] {
            return Err(ProjectionError::DimensionMismatch {
                cached: dim,
                target_lo: lo.len(),
                target_hi: hi.len(),
            });
        }
        let target = BoxDomain::new(lo.to_vec(), hi.to_vec());
        // Start grid → target box → clamped into the cached box → the
        // cached surface's unit cube.
        let nodes: Vec<u32> = (0..self.grid.len() as u32).collect();
        let mut rows = unit_rows(&self.grid, &nodes);
        let mut phys = vec![0.0; dim];
        for unit in rows.chunks_exact_mut(dim) {
            target.from_unit(unit, &mut phys);
            cached.domain.clamp(&mut phys);
            cached.domain.to_unit(&phys, unit);
        }
        let values = cached.states.states().iter();
        let values = values.map(|state| self.evaluate(kernel, backend, state, &rows));
        Ok(self.policy(target, cached.states.ndofs(), values))
    }

    /// Lends a buffer set from the pool — a fresh one when every set is
    /// out. It goes back when the loan drops.
    fn lend(&self) -> Loan<'_> {
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        Loan {
            pool: &self.pool,
            buffers: pooled.unwrap_or_default(),
        }
    }
}

/// One worker's buffers: the policy oracle's (whose kernel [`Scratch`]
/// also serves the warm-start evaluation and the hierarchization) and the
/// point solver's, with its block of factor slots. They carry capacity
/// only from one use to the next.
#[derive(Default)]
struct WorkerBuffers {
    oracle: OracleBuffers,
    point: PointScratch,
    factors: Factors,
}

/// A buffer set lent by [`RunKit::lend`], given back to the pool on drop.
struct Loan<'k> {
    pool: &'k Mutex<Vec<WorkerBuffers>>,
    buffers: WorkerBuffers,
}

impl Drop for Loan<'_> {
    fn drop(&mut self) {
        let buffers = std::mem::take(&mut self.buffers);
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(buffers);
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
    /// What every step shares.
    kit: RunKit,
    /// The carried Jacobian factors, one store per state.
    pub(crate) factors: Vec<FactorStore>,
}

/// Why a cached surface could not be projected onto a target domain box.
/// Surfaces arriving from a persistent directory are data, not code:
/// incompatibilities must surface as errors a caller can catch (and fall
/// back to a cold start), never as panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProjectionError {
    /// The target box dimensionality differs from the cached surface's.
    DimensionMismatch {
        /// Dimensionality of the cached surface's domain.
        cached: usize,
        /// Dimensionality of the requested target box (lo/hi lengths).
        target_lo: usize,
        /// Length of the target upper-bound vector.
        target_hi: usize,
    },
}

impl std::fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionMismatch {
                cached,
                target_lo,
                target_hi,
            } => write!(
                f,
                "projection dimension mismatch: cached surface is {cached}-dimensional, \
                 target box is {target_lo}/{target_hi}"
            ),
        }
    }
}

impl std::error::Error for ProjectionError {}

/// Projects a cached policy surface onto the box `target_lo`–`target_hi`
/// on the level-`start_level` regular grid, with `kernel` through
/// `backend`: the warm-start `p⁰` of [`TimeIteration::warm`], built on a
/// kit of its own.
pub fn project_policy_with(
    cached: &PolicySet,
    target_lo: &[f64],
    target_hi: &[f64],
    start_level: u8,
    kernel: KernelKind,
    backend: &ExecutionBackend,
) -> Result<PolicySet, ProjectionError> {
    let kit = RunKit::new(cached.domain.dim(), start_level);
    kit.project(cached, target_lo, target_hi, kernel, backend)
}

impl<M: StepModel> TimeIteration<M> {
    /// Initializes a single-process driver with the constant policy
    /// `p⁰ = initial_row` on the start-level regular grid.
    pub fn new(model: M, config: DriverConfig) -> Self {
        TimeIteration::over(SerialComm, model, config)
    }

    /// Starts a single-process driver from a cached policy surface: its
    /// step-0 policy is `cached` projected onto the model's box on the
    /// start grid, with `config`'s kernel and backend, on the run's own
    /// kit. A surface whose dimension is not the model's is an error.
    pub fn warm(
        model: M,
        config: DriverConfig,
        cached: &PolicySet,
    ) -> Result<Self, ProjectionError> {
        let kit = RunKit::new(model.dim(), config.start_level);
        let (lo, hi) = model.bounds();
        let policy = kit.project(cached, &lo, &hi, config.kernel, &config.backend)?;
        Ok(TimeIteration {
            factors: vec![FactorStore::default(); model.num_states()],
            model,
            config,
            policy,
            step: 0,
            world: SerialComm,
            kit,
        })
    }

    /// Rebuilds a single-process driver around an existing policy (the
    /// checkpoint-resume path): no initial-guess construction, the supplied
    /// policy *is* the current `pnext` and `step` continues the original
    /// counter. No factor is carried into its first step
    /// ([`TimeIteration::resume`] restores a checkpoint's).
    pub fn with_policy(model: M, config: DriverConfig, policy: PolicySet, step: usize) -> Self {
        assert_eq!(
            (policy.domain.dim(), policy.states.num_states()),
            (model.dim(), model.num_states()),
            "policy/model (dim, state count) mismatch"
        );
        let kit = RunKit::new(model.dim(), config.start_level);
        TimeIteration {
            factors: vec![FactorStore::default(); model.num_states()],
            model,
            config,
            policy,
            step,
            world: SerialComm,
            kit,
        }
    }
}

impl<M: StepModel, C: Comm> TimeIteration<M, C> {
    /// Initializes this rank's driver of a run over `world` with the
    /// constant policy `p⁰ = initial_row` on the start grid; every rank
    /// of the world must make one. It is a pure function of the model
    /// and the start level, so the ranks agree without communication.
    pub fn over(world: C, model: M, config: DriverConfig) -> Self {
        let kit = RunKit::new(model.dim(), config.start_level);
        let (lo, hi) = model.bounds();
        let row = model.initial_row();
        assert_eq!(row.len(), model.ndofs());
        let values = (0..model.num_states()).map(|_| row.repeat(kit.grid.len()));
        let policy = kit.policy(BoxDomain::new(lo, hi), row.len(), values);
        TimeIteration {
            factors: vec![FactorStore::default(); model.num_states()],
            model,
            config,
            policy,
            step: 0,
            world,
            kit,
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
        let kit = self.kit.fit(self.model.dim(), &self.config);
        let (model, config, policy, world) = (&self.model, &self.config, &self.policy, &self.world);
        let ns = model.num_states();
        let ndofs = model.ndofs();
        let mut totals = StepTotals::default();
        // A state is compressed as soon as this rank holds it, built or
        // received; only the compressed form and its level sizes are kept.
        let compress = |built: BuiltState| (built.compress(kit, ndofs), built.levels);
        let mut held: Vec<Option<(CompressedState, Vec<usize>)>> = (0..ns).map(|_| None).collect();

        let factors = &mut self.factors;
        let share = Share::of(world, &policy.points_per_state());
        let mut outgoing = Vec::new();
        for &z in &share.states {
            let built = build_state(
                model,
                policy,
                config,
                kit,
                z,
                share.group.as_ref(),
                &mut totals,
                &mut factors[z],
            );
            if share.publishes {
                encode_state(z, &built, &factors[z], ndofs, &mut outgoing);
            }
            held[z] = Some(compress(built));
        }
        // The world exchange: each rank decodes the states it lacks, with
        // their factors.
        for flat in world.allgather(&outgoing) {
            for (z, record) in records(&flat) {
                if held[z].is_none() {
                    let (built, store) = decode_state(record, &kit.grid, ndofs);
                    factors[z] = store;
                    held[z] = Some(compress(built));
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

/// One state's finished grid of this step, before compression: the run's
/// start grid while no refinement has run, a copy after.
pub(crate) struct BuiltState<'g> {
    pub grid: Cow<'g, SparseGrid>,
    /// Surplus rows in grid order.
    pub surpluses: Vec<f64>,
    /// Frontier size per refinement level.
    pub levels: Vec<usize>,
}

impl BuiltState<'_> {
    /// Compresses the finished grid under the `hddm_solve_compress_seconds`
    /// span, once per state per step on each rank: a grid that never left
    /// the start grid takes the kit's compression and only puts its rows
    /// in chain order; any other runs the compression pipeline.
    fn compress(&self, kit: &RunKit, ndofs: usize) -> CompressedState {
        timed(kit.spans.as_ref().map(|s| &s.compress), || {
            let cg = match &self.grid {
                Cow::Borrowed(_) => kit.compressed().clone(),
                Cow::Owned(grid) => CompressedGrid::build(grid),
            };
            let chain_order = cg.reorder_rows(&self.surpluses, ndofs);
            CompressedState::from_parts(cg, chain_order, ndofs)
        })
    }
}

/// The level loop of Fig. 2 for one discrete state: solve the frontier
/// against `policy` (= `pnext`), measure the policy change there,
/// hierarchize the new rows against this step's partial interpolant,
/// refine, repeat. Every rank runs this one loop for each state it
/// builds, starting from the `kit`'s start grid: the first level is
/// hierarchized with its stencil, and the grid is copied when this state
/// first refines.
///
/// With a `group`, each level's frontier is dealt round-robin across the
/// group's ranks and the solved rows are merged by an allgather, so every
/// rank hierarchizes and refines the same rows; `totals` then covers this
/// rank's share only. `None` solves the whole frontier here.
///
/// `store` is the state's carried factors, keyed by its grid of the last
/// step. Each level's solves start from them and write their new factors
/// (merged across a group with the rows) to a new store in the order of
/// the grid this call builds, which replaces `store` at the end.
#[allow(clippy::too_many_arguments)]
fn build_state<'k, M: StepModel, C: Comm>(
    model: &M,
    policy: &PolicySet,
    config: &DriverConfig,
    kit: &'k RunKit,
    z: usize,
    group: Option<&C>,
    totals: &mut StepTotals,
    store: &mut FactorStore,
) -> BuiltState<'k> {
    let ndofs = model.ndofs();
    let spans = kit.spans.as_ref();
    let unknowns = carried_unknowns(model);
    let old = std::mem::take(store);
    let old_grid = &policy.states.state(z).grid;
    let mut matcher = Matcher::new(old_grid, &old, unknowns);
    // A settled grid keeps its size, so its new store never moves.
    let mut new = FactorStore::with_room(unknowns, old_grid.nno().max(kit.grid.len()));

    let mut grid = Cow::Borrowed(&kit.grid);
    let mut frontier: Vec<u32> = (0..grid.len() as u32).collect();
    let mut surpluses: Vec<f64> = Vec::new();
    let mut levels = Vec::new();
    let mut hier: Option<IncrementalHierarchizer> = None;

    loop {
        levels.push(frontier.len());

        // A group deals the frontier round-robin: this rank solves every
        // `size`-th point and the level is merged across the group.
        let share = group.map(|g| (g, (g.rank()..frontier.len()).step_by(g.size())));
        let mine: Cow<[u32]> = match &share {
            Some((_, positions)) => positions.clone().map(|i| frontier[i]).collect(),
            None => Cow::Borrowed(&frontier),
        };
        // The frontier is the grid's newest nodes: alone, each solve
        // writes its new factor to its node's entry of the new store; in
        // a group, to this rank's share of the level, merged below.
        let from = grid.len() - frontier.len();
        let previous = matcher.level(&grid, from);
        new.grow(grid.len());
        let (previous, mut level) = match &share {
            Some((_, positions)) => {
                let previous = positions.clone().map(|i| previous[i]).collect();
                (previous, Some(FactorStore::empty(unknowns, mine.len())))
            }
            None => (previous, None),
        };
        let out = match &mut level {
            Some(level) => level.entries(0..mine.len()),
            None => new.entries(from..grid.len()),
        };
        let carried = Carried {
            old: &old,
            previous: &previous,
        };
        let solved = timed(spans.map(|s| &s.policy_update), || {
            solve_frontier(model, policy, config, kit, z, &grid, &mine, carried, out)
        });
        totals.add(&solved);
        let solved = match share {
            Some((g, positions)) => {
                let level = level.expect("a group solves into a level store");
                let out = new.entries(from..grid.len());
                merge_level(
                    g,
                    positions,
                    &solved.rows,
                    &level,
                    out,
                    frontier.len(),
                    ndofs,
                )
            }
            None => solved.rows,
        };

        // Hierarchize: the start grid with its stencil, a refinement
        // level against the partial interpolant of *this* step (coarser
        // levels already done), which the hierarchizer starts from the
        // start grid's surpluses at the first refinement level and then
        // extends in place. Deterministic, so a group's ranks stay in
        // agreement.
        timed(spans.map(|s| &s.hierarchize), || {
            if levels.len() == 1 {
                surpluses = solved;
                kit.stencil().hierarchize(&mut surpluses, ndofs);
            } else {
                let hier = hier.get_or_insert_with(|| {
                    IncrementalHierarchizer::start(config, &grid, &surpluses, ndofs)
                });
                let mut loan = kit.lend();
                let scratch = &mut loan.buffers.oracle.scratch;
                let new_surpluses = hier.extend(&grid, &frontier, &solved, scratch);
                surpluses.extend_from_slice(&new_surpluses);
            }
        });

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
    *store = new;

    BuiltState {
        grid,
        surpluses,
        levels,
    }
}

/// The unknowns of `model`'s point systems whose factors a run carries: 0
/// (none) for a model that carries none or whose pivots do not fit a byte.
fn carried_unknowns<M: StepModel>(model: &M) -> usize {
    Some(model.unknowns())
        .filter(|&n| n < u8::MAX as usize)
        .unwrap_or(0)
}

/// Merges one level across a rank group: every rank contributes the rows
/// it solved and their factors, tagged with their frontier `positions`,
/// and gets back all `len` rows in frontier order, their factors written
/// to `out` (one entry per frontier point).
fn merge_level<C: Comm>(
    group: &C,
    positions: impl Iterator<Item = usize>,
    rows: &[f64],
    factors: &FactorStore,
    mut out: Entries<'_>,
    len: usize,
    ndofs: usize,
) -> Vec<f64> {
    let n = factors.unknowns();
    let entry = n * n + n;
    let stride = 1 + ndofs + entry;
    let mut flat = Vec::with_capacity(rows.len() / ndofs * stride);
    for (j, (i, row)) in positions.zip(rows.chunks_exact(ndofs)).enumerate() {
        flat.push(i as f64);
        flat.extend_from_slice(row);
        if n > 0 {
            factors.extend_words(j, &mut flat);
        }
    }
    let mut merged = vec![0.0; len * ndofs];
    let mut seen = vec![false; len];
    for contribution in &group.allgather(&flat) {
        assert_eq!(contribution.len() % stride, 0, "ragged merge payload");
        for rec in contribution.chunks_exact(stride) {
            let i = rec[0] as usize;
            merged[i * ndofs..(i + 1) * ndofs].copy_from_slice(&rec[1..1 + ndofs]);
            if n > 0 {
                out.set_words(i, &rec[1 + ndofs..]);
            }
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

/// Where the points of a frontier solve find their carried factors: point
/// `i` at node `previous[i]` of `old` ([`Matcher::level`]), or nowhere.
#[derive(Clone, Copy)]
struct Carried<'a> {
    old: &'a FactorStore,
    previous: &'a [u32],
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
/// A point starts from its `carried` factor where it has one, and its
/// entry of `out` (one per requested point) leaves holding its last LU
/// where it converged and its row moved by less than
/// [`hddm_solver::CARRY_LIMIT`] ([`settled`]), and no factor elsewhere.
/// Point problems are independent, so neither the slicing nor the thread
/// count changes a row or a factor. Each worker borrows a buffer set from
/// `kit` for the whole solve.
#[allow(clippy::too_many_arguments)]
fn solve_frontier<M: StepModel>(
    model: &M,
    policy: &PolicySet,
    config: &DriverConfig,
    kit: &RunKit,
    z: usize,
    grid: &SparseGrid,
    points: &[u32],
    carried: Carried<'_>,
    out: Entries<'_>,
) -> FrontierSolve {
    let work = kit.spans.as_ref().map(|s| &s.work);
    let ndofs = model.ndofs();
    let dim = model.dim();
    let units = unit_rows(grid, points);
    let state = policy.states.state(z);
    let warm_rows = kit.evaluate(config.kernel, &config.backend, state, &units);
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
    // One handle per slice, its rows and its factors: the pool runs each
    // slice exactly once, so a lock is taken once and never waited on.
    let n = out.unknowns();
    let slices: Vec<Mutex<_>> = rows
        .chunks_mut(slice * ndofs)
        .zip(out.runs(slice))
        .map(Mutex::new)
        .collect();

    parallel_for_init(
        points.len().div_ceil(slice),
        &pool,
        || SliceWorker {
            loan: kit.lend(),
            phys: Vec::new(),
            retry_phys: Vec::new(),
            retry_rows: Vec::new(),
        },
        |worker, t| {
            let buffers = &mut worker.loan.buffers;
            let lent = std::mem::take(&mut buffers.oracle);
            let mut oracle = policy.oracle_on(config.kernel, config.backend.clone(), lent);
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
            let mut guard = slices[t].lock().unwrap_or_else(PoisonError::into_inner);
            let (solved, kept) = &mut *guard;
            buffers.factors.clear(hi - lo, n);
            for (i, &previous) in carried.previous[lo..hi].iter().enumerate() {
                if let Some(node) = found(previous) {
                    carried.old.load(node, &mut buffers.factors, i);
                }
            }
            let results = model.solve_point_rows(
                z,
                &worker.phys,
                warm,
                &mut oracle,
                &mut buffers.point,
                &mut buffers.factors,
                solved,
            );
            if n > 0 {
                for (i, result) in results.iter().enumerate() {
                    let row = &solved[i * ndofs..(i + 1) * ndofs];
                    let keep = result.is_ok() && settled(row, &warm[i * ndofs..(i + 1) * ndofs]);
                    let factor = buffers.factors.get(i).filter(|_| keep);
                    kept.keep(i, factor);
                }
            }

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
                buffers.factors.clear(failed.len(), n);
                let retried = model.solve_point_rows(
                    z,
                    &worker.retry_phys,
                    &cold.repeat(failed.len()),
                    &mut oracle,
                    &mut buffers.point,
                    &mut buffers.factors,
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
            // The tally is taken whether or not it is counted: a pooled
            // scratch carries no work into a later solve.
            let tally = buffers.point.take_tally();
            if let Some(counters) = work {
                let traffic = oracle.take_traffic();
                counters.blocks.add(traffic.blocks);
                counters.points.add(traffic.points);
                counters.walks.add(traffic.walks);
                counters.residual_rows.add(tally.residual_rows);
                counters.jacobians.add(tally.jacobians);
                counters.carried.add(tally.carried);
                counters.refreshes.add(tally.refreshes);
                counters.newton_iterations.add(tally.newton_iterations);
            }
            buffers.oracle = oracle.into_buffers();
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
/// reused from slice to slice: the buffer set it borrows from the kit,
/// which an oracle over the policy works in for one slice at a time.
struct SliceWorker<'k> {
    loan: Loan<'k>,
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
    carried: Arc<Counter>,
    refreshes: Arc<Counter>,
    newton_iterations: Arc<Counter>,
}

/// Incremental hierarchization of one state's grid within one
/// time-iteration step. The first batch is the whole start grid, which
/// the driver hierarchizes with the grid's precomputed [`Stencil`] (built
/// once per run, for every state); only a state that refines needs the
/// partial interpolant, so [`Self::start`] starts it from those surpluses
/// at the first refinement level. Each later batch is a refinement
/// frontier: [`Self::extend`] computes its surpluses relative to the
/// partial interpolant built so far
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
}

impl IncrementalHierarchizer {
    /// A hierarchizer for one `(state, step)` grid construction whose
    /// group evaluations dispatch through `config`'s kernel and backend:
    /// its partial interpolant starts from `start`, the surplus rows of
    /// the first nodes of `grid` in grid order (the start grid's).
    pub(crate) fn start(
        config: &DriverConfig,
        grid: &SparseGrid,
        start: &[f64],
        ndofs: usize,
    ) -> Self {
        let mut state = CompressedState::empty(grid.dim(), ndofs);
        let nodes: Vec<u32> = (0..(start.len() / ndofs) as u32).collect();
        state.append_rows(grid, &nodes, start);
        IncrementalHierarchizer {
            kernel: config.kernel,
            backend: config.backend.clone(),
            ndofs,
            state,
        }
    }

    /// Hierarchizes a later batch, the refinement frontier `frontier`:
    /// returns the new surplus rows in frontier order and extends the
    /// partial interpolant. `scratch` is the kernels' buffers for its
    /// evaluations.
    pub(crate) fn extend(
        &mut self,
        grid: &SparseGrid,
        frontier: &[u32],
        solved: &[f64],
        scratch: &mut Scratch,
    ) -> Vec<f64> {
        let ndofs = self.ndofs;
        assert_eq!(solved.len(), frontier.len() * ndofs, "ragged solved rows");
        let dim = grid.dim();

        // Group frontier positions by level sum, ascending.
        let mut order: Vec<usize> = (0..frontier.len()).collect();
        let level_of = |pos: usize| grid.node(frontier[pos] as usize).level_sum(dim);
        order.sort_by_key(|&pos| level_of(pos));

        let mut out = vec![0.0; frontier.len() * ndofs];
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
            group_ids.clear();
            group_ids.extend(group.iter().map(|&pos| frontier[pos]));
            let block = PointBlock::from_rows(dim, &unit_rows(grid, &group_ids));
            interp.clear();
            interp.resize(group.len() * ndofs, 0.0);
            self.backend
                .evaluate_batch(self.kernel, &self.state, &block, scratch, &mut interp);

            group_rows.clear();
            for (g, &pos) in group.iter().enumerate() {
                let row = &solved[pos * ndofs..(pos + 1) * ndofs];
                let ev = &interp[g * ndofs..(g + 1) * ndofs];
                for k in 0..ndofs {
                    out[pos * ndofs + k] = row[k] - ev[k];
                }
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
        let mut hier: Option<IncrementalHierarchizer> = None;
        let config = DriverConfig::default();
        let stencil = Stencil::of(&grid);
        let mut scratch = Scratch::default();
        let mut unit = vec![0.0; dim];
        for level in 0..4 {
            let mut solved = vec![0.0; frontier.len() * ndofs];
            for (i, &p) in frontier.iter().enumerate() {
                grid.unit_point_of(p as usize, &mut unit);
                f(&unit, &mut solved[i * ndofs..(i + 1) * ndofs]);
            }
            if level == 0 {
                stencil.hierarchize(&mut solved, ndofs);
                surpluses = solved;
            } else {
                let hier = hier.get_or_insert_with(|| {
                    IncrementalHierarchizer::start(&config, &grid, &surpluses, ndofs)
                });
                let new = hier.extend(&grid, &frontier, &solved, &mut scratch);
                surpluses.extend_from_slice(&new);
            }
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
        let hier = hier.expect("the grid refined");
        assert_eq!(hier.state.grid.nno(), grid.len());
        // Reference: full pipeline compression of the final surpluses.
        let rebuilt = CompressedState::new(&grid, &surpluses, ndofs);
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

    /// A one-state policy set interpolating `f(x_phys) = a·x₀ + b·x₁`
    /// over `domain`, built without a kit.
    fn linear_policy(domain: &BoxDomain, a: f64, b: f64) -> PolicySet {
        let grid = regular_grid(2, 3);
        let mut phys = vec![0.0; 2];
        let mut values = hddm_asg::tabulate(&grid, 1, |unit, out| {
            domain.from_unit(unit, &mut phys);
            out[0] = a * phys[0] + b * phys[1];
        });
        hddm_asg::hierarchize(&grid, &mut values, 1);
        let cg = CompressedGrid::build(&grid);
        let reordered = cg.reorder_rows(&values, 1);
        PolicySet::new(
            vec![CompressedState::from_parts(cg, reordered, 1)],
            domain.clone(),
        )
    }

    #[test]
    fn projection_reproduces_the_surface_on_an_overlapping_box() {
        // Cached: linear surface on [0,1]². Target: the sub-box
        // [0.2,0.8]×[0.1,0.9]. A piecewise-linear interpolant of a linear
        // function is exact, so the projection must reproduce the
        // function on the whole target box.
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let cached = linear_policy(&domain, 2.0, -1.0);
        let projected = project_policy_with(
            &cached,
            &[0.2, 0.1],
            &[0.8, 0.9],
            3,
            KernelKind::X86,
            &ExecutionBackend::Cpu,
        )
        .unwrap();
        let mut oracle = projected.oracle(KernelKind::X86);
        let mut out = [0.0];
        for probe in [[0.25, 0.3], [0.5, 0.5], [0.75, 0.85]] {
            oracle.eval(0, &probe, &mut out);
            let want = 2.0 * probe[0] - probe[1];
            assert!(
                (out[0] - want).abs() < 1e-10,
                "probe {probe:?}: {} vs {want}",
                out[0]
            );
        }
    }

    #[test]
    fn projection_rejects_incompatible_surfaces_without_panicking() {
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let cached = linear_policy(&domain, 1.0, 0.0);
        // Wrong target dimensionality: typed error, no assert.
        let project = |lo: &[f64], hi: &[f64]| {
            project_policy_with(&cached, lo, hi, 3, KernelKind::X86, &ExecutionBackend::Cpu)
        };
        let err = project(&[0.2], &[0.8]).unwrap_err();
        assert_eq!(
            err,
            ProjectionError::DimensionMismatch {
                cached: 2,
                target_lo: 1,
                target_hi: 1
            }
        );
        // Mismatched lo/hi lengths are caught too (previously an assert
        // inside BoxDomain).
        let err = project(&[0.2, 0.1], &[0.8]).unwrap_err();
        assert!(matches!(err, ProjectionError::DimensionMismatch { .. }));
        // A warm start of a model of another dimension is refused the
        // same way.
        let model = Contraction { dim: 3, states: 1 };
        let warm = TimeIteration::warm(model, DriverConfig::default(), &cached);
        assert_eq!(
            warm.err(),
            Some(ProjectionError::DimensionMismatch {
                cached: 2,
                target_lo: 3,
                target_hi: 3
            })
        );
        assert!(err.to_string().contains("dimension mismatch"));
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
