//! The trial engine: layout search, independent routing trials, and
//! post-selection behind one API.
//!
//! The paper's configuration (§V): 20 independent layout trials, each
//! refined by 4 forward–backward routing passes (SABRE layout), then
//! independent routing runs whose best result is kept. MIRAGE changes the
//! post-selection metric from *fewest SWAPs* to *shortest duration-weighted
//! critical path* (§IV-B) and spreads routing trials across aggression
//! levels 5% / 45% / 45% / 5% (§IV-C). On calibrated targets a third
//! metric, [`Metric::EstimatedSuccess`], post-selects on the predicted
//! success probability instead — the quantity the paper compares on real
//! hardware.
//!
//! [`TrialEngine`] owns the whole loop — seed-layout generation through the
//! pluggable strategies of [`crate::placement`] (budget split by
//! [`TrialOptions::strategy_mix`], mirroring the aggression mix), SABRE
//! refinement, routing trials, and post-selection — and is the one consumer
//! `transpile`, the bench harness, and `mirage-cli` all sit on.

use crate::layout::Layout;
use crate::pipeline::{require_connected, TranspileError};
use crate::placement::{LayoutStrategy, PlacementContext, StrategyKind, Vf2Embed};
use crate::pricing::{ClassId, Classes, PriceTable};
use crate::router::{
    absorb_swaps, materialize, route_trace, Aggression, Op, RouteCounts, RouteDag, RoutedCircuit,
    RouterConfig, RouterScratch,
};
use crate::target::Target;
use mirage_circuit::Circuit;
use mirage_math::mat4::MatrixMemo;
use mirage_math::Rng;
use mirage_weyl::coords::coords_of;
use std::borrow::Cow;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Post-selection metric across routing trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fewest SWAPs inserted (the Qiskit/SABRE baseline metric).
    SwapCount,
    /// Shortest duration-weighted critical path (MIRAGE-Depth, §IV-B).
    Depth,
    /// Highest estimated success probability under the target's
    /// [`Calibration`](crate::calibration::Calibration): the log-fidelity
    /// product over every routed gate (edge errors priced per basis
    /// application, so SWAPs pay 3 CNOTs / 3 √iSWAPs and accepted mirrors
    /// only their own cost) plus readout on the logical qubits' final
    /// homes. The noise-aware analogue of the paper's Table III hardware
    /// comparison.
    EstimatedSuccess,
}

/// Trial-loop configuration.
#[derive(Debug, Clone)]
pub struct TrialOptions {
    /// Independent initial layouts.
    pub layout_trials: usize,
    /// Forward–backward refinement passes per layout.
    pub fwd_bwd_iters: usize,
    /// Independent final routing runs per layout.
    pub routing_trials: usize,
    /// Post-selection metric.
    pub metric: Metric,
    /// Fraction of routing trials at each aggression level (A0..A3);
    /// ignored by the SABRE baseline. Must sum to ~1.0
    /// (see [`TrialOptions::validate`]).
    pub aggression_mix: [f64; 4],
    /// Fraction of layout trials seeded by each [`StrategyKind`] (lane
    /// order [`StrategyKind::ALL`]: random, noise-aware, degree-noise,
    /// vf2). Must sum to ~1.0. The default gives random seeding the whole
    /// budget — the paper's configuration.
    pub strategy_mix: [f64; crate::placement::N_STRATEGIES],
    /// Base RNG seed.
    pub seed: u64,
    /// Workers for the trial loop: `0` is the host's available
    /// parallelism, `1` runs every task inline on the calling thread,
    /// `n` uses `n` workers. The available parallelism is queried once per
    /// calling thread, on its first `threads = 0` run, and kept: the query
    /// costs about 20 µs (a syscall and cgroup reads), a few percent of a
    /// small transpile, and a later change of the thread's CPU affinity
    /// goes unseen. Capped at `layout_trials × routing_trials`,
    /// the number of route tasks, so even one layout trial can spread its
    /// routing trials over several workers. Never affects results, only
    /// wall-clock: seeds come from the pre-split [`SeedSchedule`] and the
    /// winner is reduced in `(trial, routing trial)` order (see
    /// [`TrialEngine::run_detailed`]).
    pub threads: usize,
    /// Override for the mirror-decision weight λ (None = engine default).
    pub mirror_lambda: Option<f64>,
}

/// The pre-split per-trial seed schedule: a pure function of
/// `(master seed, trial index)`.
///
/// Every layout trial draws all of its randomness — strategy proposal,
/// refinement passes, and the `spawn()`ed routing-trial streams — from one
/// [`Rng`] seeded by [`SeedSchedule::trial_seed`]. Because the seed
/// depends on nothing but the master seed and the trial's own index,
/// adding, removing, or reordering *other* trials (or running trials on
/// any number of threads, in any completion order) can never shift a
/// trial's stream. This is the first half of the engine's determinism
/// contract; the second is the fixed trial-index reduction order in
/// [`TrialEngine::run_detailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSchedule {
    master: u64,
}

impl SeedSchedule {
    /// The schedule rooted at `master` (normally [`TrialOptions::seed`]).
    pub fn new(master: u64) -> SeedSchedule {
        SeedSchedule { master }
    }

    /// The RNG seed for layout trial `trial`. The offset keeps trial 0
    /// distinct from the master seed itself and the stride keeps
    /// neighboring trials' seeds far apart in the SplitMix64 expansion
    /// ([`Rng::new`] hashes the seed, so any injective map suffices —
    /// this one is pinned by a regression test and must never change:
    /// every golden trials fingerprint depends on it).
    pub fn trial_seed(&self, trial: usize) -> u64 {
        self.master ^ (0x9E37 + trial as u64 * 0x100_0000)
    }
}

impl TrialOptions {
    /// The paper's full configuration (expensive; use in benches).
    pub fn paper(metric: Metric, seed: u64) -> TrialOptions {
        TrialOptions {
            layout_trials: 20,
            fwd_bwd_iters: 4,
            routing_trials: 20,
            metric,
            aggression_mix: [0.05, 0.45, 0.45, 0.05],
            strategy_mix: StrategyKind::Random.one_hot(),
            seed,
            threads: 0,
            mirror_lambda: None,
        }
    }

    /// A light configuration for tests and examples (trials on every
    /// core, like [`TrialOptions::paper`]).
    pub fn quick(metric: Metric, seed: u64) -> TrialOptions {
        TrialOptions {
            layout_trials: 4,
            fwd_bwd_iters: 2,
            routing_trials: 4,
            metric,
            aggression_mix: [0.05, 0.45, 0.45, 0.05],
            strategy_mix: StrategyKind::Random.one_hot(),
            seed,
            threads: 0,
            mirror_lambda: None,
        }
    }

    /// The worker count a run uses: `threads`, or the host's available
    /// parallelism when `threads == 0` (1 if the host won't say), capped
    /// at `layout_trials × routing_trials` — more workers than route tasks
    /// would be pure overhead. The host is asked only when more than one
    /// task could use the answer, and only once per thread.
    fn workers(&self) -> usize {
        thread_local! {
            static PARALLELISM: usize = std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get);
        }
        let n = self.layout_trials.saturating_mul(self.routing_trials);
        match self.threads {
            0 if n > 1 => PARALLELISM.with(|&p| p).min(n),
            0 => 1,
            t => t.min(n),
        }
    }

    /// Give one strategy the whole layout budget (builder style).
    #[must_use]
    pub fn with_strategy(mut self, kind: StrategyKind) -> TrialOptions {
        self.strategy_mix = kind.one_hot();
        self
    }

    /// Check that there is at least one layout and one routing trial, and
    /// that both trial mixes are well-formed: every share finite and
    /// non-negative, and each mix summing to 1 (±1e-6). Mis-normalized
    /// mixes would silently re-allocate the trial budget, so the pipeline
    /// rejects them up front.
    ///
    /// # Errors
    ///
    /// [`TranspileError::NoTrials`] naming a zero trial count, or
    /// [`TranspileError::InvalidTrialMix`] naming the offending mix.
    pub fn validate(&self) -> Result<(), TranspileError> {
        for (which, count) in [
            ("layout_trials", self.layout_trials),
            ("routing_trials", self.routing_trials),
        ] {
            if count == 0 {
                return Err(TranspileError::NoTrials { which });
            }
        }
        validate_mix("aggression_mix", &self.aggression_mix)?;
        validate_mix("strategy_mix", &self.strategy_mix)?;
        Ok(())
    }
}

fn validate_mix(which: &'static str, mix: &[f64]) -> Result<(), TranspileError> {
    for &share in mix {
        if !share.is_finite() || share < 0.0 {
            return Err(TranspileError::InvalidTrialMix {
                which,
                detail: format!("share {share} is not a finite non-negative fraction"),
            });
        }
    }
    let sum: f64 = mix.iter().sum();
    if (sum - 1.0).abs() > 1e-6 {
        return Err(TranspileError::InvalidTrialMix {
            which,
            detail: format!("shares sum to {sum}, expected 1.0"),
        });
    }
    Ok(())
}

/// A routed candidate before it is a [`Circuit`]: its op trace, layouts
/// and counters.
struct Traced {
    ops: Vec<Op>,
    initial_layout: Layout,
    final_layout: Layout,
    counts: RouteCounts,
}

/// The post-selection score of a traced candidate on `n_qubits` physical
/// qubits (lower is better), read from the run's price table through the
/// trace's class ids.
fn score(t: &Traced, metric: Metric, prices: &PriceTable, n_qubits: usize) -> f64 {
    let items = || t.ops.iter().map(|op| (op.operands(), op.class));
    match metric {
        Metric::SwapCount => t.counts.swaps_inserted as f64,
        Metric::Depth => prices.depth_of(n_qubits, items()),
        // Trials minimize the score, so the negated log-success ranks the
        // most-likely-to-succeed candidate first.
        Metric::EstimatedSuccess => {
            -prices.log_success_of(items(), t.final_layout.real_assignment())
        }
    }
}

/// The first minimum of `items` under `score`, which is evaluated exactly
/// once per item (ties keep the earliest item, as `Iterator::min_by`
/// does). `None` when `items` is empty.
fn first_min<T>(items: Vec<T>, score: impl FnMut(&T) -> f64) -> Option<T> {
    let scores: Vec<f64> = items.iter().map(score).collect();
    let best = (0..scores.len()).min_by(|&a, &b| scores[a].total_cmp(&scores[b]))?;
    items.into_iter().nth(best)
}

/// Trial counts per mix lane for `total` trials. Every lane with a nonzero
/// share gets **at least one** trial — in particular A0 (the mirror-free
/// safety net of the aggression mix) is always in the candidate pool, so
/// depth post-selection can never do worse than the baseline plus trial
/// noise. Shared by the aggression bands and the layout-strategy lanes.
///
/// # Panics
///
/// Panics when `mix` is empty but `total > 0` (no lane to assign to).
pub fn mix_counts(total: usize, mix: &[f64]) -> Vec<usize> {
    let lanes = mix.len();
    let mut counts = vec![0usize; lanes];
    let mut assigned = 0usize;
    for (i, &share) in mix.iter().enumerate() {
        if share > 0.0 {
            counts[i] = ((share * total as f64).floor() as usize).max(1);
            assigned += counts[i];
        }
    }
    // Reconcile to exactly `total`: trim the largest shares first while
    // they have spares, then drop the smallest shares entirely (with fewer
    // trials than configured lanes, some lane must lose its slot).
    while assigned > total {
        let i = (0..lanes)
            .filter(|&i| counts[i] > 1)
            .max_by(|&a, &b| mix[a].total_cmp(&mix[b]))
            .or_else(|| {
                (0..lanes)
                    .filter(|&i| counts[i] > 0)
                    .min_by(|&a, &b| mix[a].total_cmp(&mix[b]))
            })
            .expect("assigned > 0 implies a nonzero count");
        counts[i] -= 1;
        assigned -= 1;
    }
    while assigned < total {
        let i = (0..lanes)
            .max_by(|&a, &b| {
                let da = mix[a] * total as f64 - counts[a] as f64;
                let db = mix[b] * total as f64 - counts[b] as f64;
                da.total_cmp(&db)
            })
            .expect("nonempty mix");
        counts[i] += 1;
        assigned += 1;
    }
    counts
}

/// Trial counts per aggression level for `total` routing trials under the
/// mix (the four-lane view of [`mix_counts`]).
pub fn aggression_counts(total: usize, mix: &[f64; 4]) -> [usize; 4] {
    let counts = mix_counts(total, mix);
    [counts[0], counts[1], counts[2], counts[3]]
}

/// Assign an aggression level to routing-trial `t` of `total` according to
/// the mix (via [`aggression_counts`], so every configured level appears).
pub fn aggression_for_trial(t: usize, total: usize, mix: &[f64; 4]) -> Aggression {
    let counts = aggression_counts(total.max(1), mix);
    let mut upto = 0usize;
    for (band, &n) in counts.iter().enumerate() {
        upto += n;
        if t < upto {
            return match band {
                0 => Aggression::A0,
                1 => Aggression::A1,
                2 => Aggression::A2,
                _ => Aggression::A3,
            };
        }
    }
    Aggression::A3
}

/// One routed candidate of a trial run.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The routed circuit.
    pub routed: RoutedCircuit,
    /// The [`ClassId`] of every instruction of `routed.circuit`, priced by
    /// the run's [`PriceTable`].
    pub classes: Vec<ClassId>,
}

/// Every routed candidate of one run, in trial-index order, with the
/// run's price table.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// Layout trials × routing trials candidates, in trial-index order.
    pub candidates: Vec<Candidate>,
    /// The prices (and calibration snapshot) the whole run used.
    pub prices: PriceTable,
}

/// The routing result of a full trial run, with provenance.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The best routed candidate under the configured metric.
    pub best: RoutedCircuit,
    /// Total routed candidates scored (layout trials × routing trials).
    pub candidates: usize,
    /// The [`ClassId`] of every instruction of `best.circuit`.
    pub classes: Vec<ClassId>,
    /// The prices (and calibration snapshot) the whole run used.
    pub prices: PriceTable,
}

/// The routing precompute: the compact forward and backward DAGs (the
/// forward DAG's ops name their instructions by index; the backward DAG
/// routes the reversed instruction list). Built lazily — a transpile that takes the VF2 fast
/// path never routes, so it never pays for this.
#[derive(Debug)]
struct RoutingState {
    fwd: RouteDag,
    bwd: RouteDag,
}

/// What one run shares across its layout trials.
struct Run<'r, 'a> {
    /// The placement context under the run's calibration snapshot: the
    /// engine's own when the snapshot is the one it was built under.
    ctx: Cow<'r, PlacementContext<'a>>,
    prices: PriceTable,
    /// The router settings every router run of the loop uses (λ from
    /// [`TrialOptions::mirror_lambda`]); each run sets its own aggression.
    base: RouterConfig,
}

/// What a layout trial's refine task hands its route tasks.
struct Refined {
    /// The mirror-free refinement.
    plain: Layout,
    /// The mirror-aware refinement (MIRAGE only).
    mirrored: Option<Layout>,
    /// One RNG stream per routing trial, spawned from the trial's stream
    /// after both refinements, in routing-trial order.
    streams: Vec<Rng>,
}

/// One unit of the trial loop's work.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// Seed and refine layout trial `trial`.
    Refine(usize),
    /// Routing trial `t` of layout trial `trial`.
    Route { trial: usize, t: usize },
}

/// The claim state of one run's tasks, behind [`Board`]'s mutex.
struct Claims {
    /// The lowest layout trial whose refine task is unclaimed.
    next_refine: usize,
    /// Per layout trial: its refine task has finished.
    refined: Vec<bool>,
    /// Per layout trial: the lowest routing trial not yet claimed.
    next_route: Vec<usize>,
    /// Route tasks not yet claimed.
    routes_left: usize,
    /// A task panicked: workers stop claiming.
    poisoned: bool,
}

/// The trial loop's task board: workers claim refine tasks in trial order
/// first, then ready route tasks in `(trial, t)` order, and wait on the
/// condvar while every unclaimed route task still waits for its refine.
struct Board {
    routing_trials: usize,
    claims: Mutex<Claims>,
    ready: Condvar,
}

impl Board {
    fn new(layout_trials: usize, routing_trials: usize) -> Board {
        Board {
            routing_trials,
            claims: Mutex::new(Claims {
                next_refine: 0,
                refined: vec![false; layout_trials],
                next_route: vec![0; layout_trials],
                routes_left: layout_trials * routing_trials,
                poisoned: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// The claim state. A panic never happens while the lock is held (tasks
    /// run unlocked), so a poisoned lock still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, Claims> {
        self.claims.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next task for a worker, blocking while none is ready; `None`
    /// once every task is claimed or a task panicked.
    fn claim(&self) -> Option<Task> {
        let mut c = self.lock();
        loop {
            if c.poisoned {
                return None;
            }
            if c.next_refine < c.refined.len() {
                c.next_refine += 1;
                return Some(Task::Refine(c.next_refine - 1));
            }
            if c.routes_left == 0 {
                return None;
            }
            let ready = (0..c.refined.len())
                .find(|&trial| c.refined[trial] && c.next_route[trial] < self.routing_trials);
            if let Some(trial) = ready {
                let t = c.next_route[trial];
                c.next_route[trial] += 1;
                c.routes_left -= 1;
                return Some(Task::Route { trial, t });
            }
            c = self.ready.wait(c).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark layout trial `trial`'s route tasks ready.
    fn refined(&self, trial: usize) {
        self.lock().refined[trial] = true;
        self.ready.notify_all();
    }
}

/// Held while a task runs: if the task panics, the guard poisons the board
/// on unwind and wakes every waiting worker, so the panic reaches the
/// caller instead of leaving workers blocked on a refine that never ends.
struct PanicGuard<'b>(&'b Board);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().poisoned = true;
            self.0.ready.notify_all();
        }
    }
}

/// The unified trial engine: one object owning layout generation (via the
/// [`crate::placement`] strategies), SABRE forward–backward refinement,
/// independent routing trials, and metric post-selection.
///
/// The circuit's coordinate classes and the forward/backward DAGs are
/// computed once, on first use. Each run takes one calibration snapshot
/// and prices every class once into its [`PriceTable`]. The engine
/// borrows its circuit and [`Target`]; reusing one target keeps the
/// coordinate cost cache warm across engines.
#[derive(Debug)]
pub struct TrialEngine<'a> {
    target: &'a Target,
    ctx: PlacementContext<'a>,
    /// The circuit's coordinate classes and the class id of each of its
    /// instructions.
    classes: OnceLock<(Classes, Vec<ClassId>)>,
    routing: OnceLock<RoutingState>,
    /// `Vf2Embed` is deterministic per engine, so its (possibly absent)
    /// proposal is computed once and shared by the pre-pass and every
    /// vf2-lane layout trial.
    vf2: std::sync::OnceLock<Option<Layout>>,
    /// Fault injection for the scheduler tests: this layout trial's refine
    /// task panics.
    #[cfg(test)]
    panic_in_refine: Option<usize>,
}

impl<'a> TrialEngine<'a> {
    /// Build an engine for routing `circuit` (already consolidated) onto
    /// `target`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the device (the pipeline
    /// rejects this case with a clean error before constructing engines).
    pub fn new(circuit: &'a Circuit, target: &'a Target) -> TrialEngine<'a> {
        TrialEngine {
            target,
            ctx: PlacementContext::new(circuit, target),
            classes: OnceLock::new(),
            routing: OnceLock::new(),
            vf2: std::sync::OnceLock::new(),
            #[cfg(test)]
            panic_in_refine: None,
        }
    }

    /// Override the VF2 search-node budget used by the [`Vf2Embed`]
    /// strategy (builder style).
    #[must_use]
    pub fn with_vf2_budget(mut self, budget: usize) -> TrialEngine<'a> {
        self.ctx = self.ctx.with_vf2_budget(budget);
        self
    }

    /// The placement context the engine hands to layout strategies.
    pub fn context(&self) -> &PlacementContext<'a> {
        &self.ctx
    }

    /// The SWAP-free VF2 placement, when one exists — the pipeline's
    /// pre-pass: a circuit that embeds directly needs no routing at all.
    /// Ties between embeddings break by estimated success (see
    /// [`Vf2Embed`]). The search runs once per engine; repeated calls
    /// (and vf2-lane layout trials) reuse the cached answer.
    pub fn vf2_layout(&self) -> Option<Layout> {
        self.vf2
            // Vf2Embed is deterministic; the RNG is unused by it.
            .get_or_init(|| Vf2Embed.propose(&self.ctx, &mut Rng::new(0)))
            .clone()
    }

    /// The lazily-built class precompute: the circuit's coordinate
    /// classes (one `coords_of` per distinct two-qubit matrix, ever) and
    /// the class id of each instruction.
    fn class_state(&self) -> &(Classes, Vec<ClassId>) {
        self.classes.get_or_init(|| {
            let mut memo = MatrixMemo::default();
            let coords: Vec<_> = self
                .ctx
                .circuit()
                .instructions
                .iter()
                .map(|i| {
                    i.gate
                        .is_two_qubit()
                        .then(|| memo.get_or_insert_with(&i.gate.matrix2(), coords_of))
                })
                .collect();
            Classes::build(&coords)
        })
    }

    /// The class id of every instruction of the engine's circuit (and so
    /// of any placement of it: [`crate::placement::apply_layout`] maps
    /// instructions one to one).
    pub(crate) fn circuit_classes(&self) -> &[ClassId] {
        &self.class_state().1
    }

    /// Price the circuit's classes under `snapshot`.
    pub(crate) fn price_table(
        &self,
        snapshot: Arc<crate::pricing::CalibrationSnapshot>,
    ) -> PriceTable {
        PriceTable::new(self.target, &self.class_state().0, snapshot)
    }

    /// The lazily-built routing precompute.
    fn routing_state(&self) -> &RoutingState {
        self.routing.get_or_init(|| {
            let circuit = self.ctx.circuit();
            let gates = circuit
                .instructions
                .iter()
                .zip(self.circuit_classes())
                .map(|(i, &k)| (&i.qubits[..], &i.gate, k));
            // The backward DAG's source `i` is instruction `len - 1 - i`.
            RoutingState {
                fwd: RouteDag::new(circuit.n_qubits, gates.clone()),
                bwd: RouteDag::new(circuit.n_qubits, gates.rev()),
            }
        })
    }

    /// SABRE layout refinement: route forward, then backward over the
    /// reversed circuit, feeding each final layout into the next pass. Only
    /// the final layouts are read; the traces are left in the scratch.
    /// Prices come from the run's table; working storage from the caller's
    /// scratch.
    fn refine_layout(
        &self,
        config: &RouterConfig,
        mut layout: Layout,
        iters: usize,
        rng: &mut Rng,
        prices: &PriceTable,
        scratch: &mut RouterScratch,
    ) -> Layout {
        let state = self.routing_state();
        let topo = self.target.topology();
        for _ in 0..iters {
            for dag in [&state.fwd, &state.bwd] {
                route_trace(dag, topo, prices, &mut layout, config, rng, scratch);
            }
        }
        layout
    }

    /// Layout trial `trial`'s refine task: seed a layout via the
    /// mix-selected strategy, refine it, and spawn one RNG stream per
    /// routing trial. The trial's entire stream of randomness comes from
    /// its [`SeedSchedule`] seed and [`Rng::choose`] draws once per SWAP
    /// step, so this chain is sequential; the result is a pure function of
    /// `(trial, mirage, opts)` — the caller-provided scratch is working
    /// storage only.
    fn refine_trial(
        &self,
        trial: usize,
        mirage: bool,
        opts: &TrialOptions,
        run: &Run<'_, 'a>,
        scratch: &mut RouterScratch,
    ) -> Refined {
        #[cfg(test)]
        assert_ne!(self.panic_in_refine, Some(trial), "injected refine panic");
        let mut rng = Rng::new(SeedSchedule::new(opts.seed).trial_seed(trial));
        let kind = StrategyKind::for_trial(trial, opts.layout_trials, &opts.strategy_mix);
        let ctx: &PlacementContext<'a> = &run.ctx;
        // Only Vf2Embed can decline (no embedding); fall back to random
        // seeding so the trial budget is never wasted. Under the engine's
        // own snapshot, Vf2Embed proposals go through the engine-level
        // cache — the strategy is deterministic, so per-trial re-searches
        // would be pure waste.
        let proposed = match (kind, &run.ctx) {
            (StrategyKind::Vf2Embed, Cow::Borrowed(_)) => self.vf2_layout(),
            _ => kind.strategy().propose(ctx, &mut rng),
        };
        let layout =
            proposed.unwrap_or_else(|| Layout::random(ctx.n_logical(), ctx.n_physical(), &mut rng));
        let prices = &run.prices;

        // Two refinements per layout trial: a mirror-free one (placements
        // that suit the A0 safety net and conservative trials) and, for
        // MIRAGE, a mirror-aware one (the paper runs MIRAGE inside
        // SABRELayout). Ablations show each wins on different circuits —
        // qft-family placements improve markedly under mirror-aware
        // refinement while ripple-adder placements degrade — so routing
        // trials are spread over both and post-selection arbitrates.
        // Every router run of the trial, refinement included, prices
        // mirrors with the same λ.
        let plain = self.refine_layout(
            &run.base,
            layout.clone(),
            opts.fwd_bwd_iters,
            &mut rng,
            prices,
            scratch,
        );
        let mirrored = mirage.then(|| {
            self.refine_layout(
                &RouterConfig {
                    aggression: Some(Aggression::A1),
                    ..run.base
                },
                layout,
                opts.fwd_bwd_iters,
                &mut rng,
                prices,
                scratch,
            )
        });
        let streams = (0..opts.routing_trials).map(|_| rng.spawn()).collect();
        Refined {
            plain,
            mirrored,
            streams,
        }
    }

    /// Routing trial `t` of a refined layout trial: route from one of the
    /// refinements on the trial's pre-spawned stream `t`, then absorb
    /// leftover SWAPs. A pure function of `(refined, t, mirage, opts)`.
    fn route_trial(
        &self,
        refined: &Refined,
        t: usize,
        mirage: bool,
        opts: &TrialOptions,
        run: &Run<'_, 'a>,
        scratch: &mut RouterScratch,
    ) -> Traced {
        let aggression =
            mirage.then(|| aggression_for_trial(t, opts.routing_trials, &opts.aggression_mix));
        let config = RouterConfig {
            aggression,
            ..run.base
        };
        // A0 trials anchor on the mirror-free placement; the rest
        // alternate between the two refinements.
        let start = match &refined.mirrored {
            Some(mirrored) if aggression != Some(Aggression::A0) && t % 2 == 1 => mirrored,
            _ => &refined.plain,
        };
        let topo = self.target.topology();
        let prices = &run.prices;
        let mut final_layout = start.clone();
        let mut counts = route_trace(
            &self.routing_state().fwd,
            topo,
            prices,
            &mut final_layout,
            &config,
            &mut refined.streams[t].clone(),
            scratch,
        );
        let mut ops = scratch.trace().to_vec();
        if mirage && aggression != Some(Aggression::A0) {
            // Mirage-SWAP absorption: fold leftover SWAPs that sit next to
            // a same-pair gate into mirror blocks.
            let fused = absorb_swaps(&mut ops, topo.n_qubits(), |k| prices.mirror(k));
            counts.absorb(fused);
        }
        Traced {
            ops,
            initial_layout: start.clone(),
            final_layout,
            counts,
        }
    }

    /// Materialize a traced candidate from the engine's circuit (forward
    /// source `i` is instruction `i`).
    fn candidate(&self, t: Traced) -> Candidate {
        let gates = &self.ctx.circuit().instructions;
        let (circuit, classes) = materialize(&t.ops, self.target.n_qubits(), |i| &gates[i].gate);
        Candidate {
            routed: t.counts.routed(circuit, t.initial_layout, t.final_layout),
            classes,
        }
    }

    /// Route every candidate of the trial loop without post-selecting:
    /// layout trials in index order, each contributing its routing trials
    /// in order, all priced by one [`PriceTable`] under one calibration
    /// snapshot taken when the run starts. Every candidate is materialized
    /// into a [`Circuit`] — the only path that builds the ones
    /// post-selection would discard.
    ///
    /// # Errors
    ///
    /// [`TranspileError::NoTrials`] or [`TranspileError::InvalidTrialMix`]
    /// when `opts` fails [`TrialOptions::validate`], and
    /// [`TranspileError::DisconnectedTopology`] on a split coupling map.
    pub fn run_candidates(
        &self,
        mirage: bool,
        opts: &TrialOptions,
    ) -> Result<TrialRun, TranspileError> {
        let (traced, prices) = self.run_traces(mirage, opts)?;
        Ok(TrialRun {
            candidates: traced.into_iter().map(|t| self.candidate(t)).collect(),
            prices,
        })
    }

    /// Route every candidate of the trial loop as a trace, with the run's
    /// price table (see [`TrialEngine::run_candidates`]).
    fn run_traces(
        &self,
        mirage: bool,
        opts: &TrialOptions,
    ) -> Result<(Vec<Traced>, PriceTable), TranspileError> {
        opts.validate()?;
        require_connected(self.target)?;
        let snapshot = self.target.calibration_snapshot();
        // Placement sees the run's snapshot too: the engine's own context
        // when nothing was swapped since it was built, a re-based copy
        // otherwise.
        let ctx = if Arc::ptr_eq(&snapshot, self.ctx.snapshot()) {
            Cow::Borrowed(&self.ctx)
        } else {
            Cow::Owned(self.ctx.clone().with_snapshot(Arc::clone(&snapshot)))
        };
        let mut base = RouterConfig::default();
        if let Some(lambda) = opts.mirror_lambda {
            base.mirror_heuristic_weight = lambda;
        }
        let run = Run {
            ctx,
            prices: self.price_table(snapshot),
            base,
        };
        let routing_trials = opts.routing_trials;
        let board = Board::new(opts.layout_trials, routing_trials);
        let refined: Vec<OnceLock<Refined>> =
            (0..opts.layout_trials).map(|_| OnceLock::new()).collect();
        // One worker: claim tasks until none are left. One scratch per
        // worker for its whole run of tasks; scratches carry only buffer
        // capacity, never routing or cost state.
        let work = || {
            let mut scratch = RouterScratch::new();
            let mut local = Vec::new();
            while let Some(task) = board.claim() {
                let _guard = PanicGuard(&board);
                match task {
                    Task::Refine(trial) => {
                        let r = self.refine_trial(trial, mirage, opts, &run, &mut scratch);
                        assert!(refined[trial].set(r).is_ok(), "one refine per trial");
                        board.refined(trial);
                    }
                    Task::Route { trial, t } => {
                        let r = refined[trial]
                            .get()
                            .expect("route tasks wait for their refine");
                        let traced = self.route_trial(r, t, mirage, opts, &run, &mut scratch);
                        local.push((trial * routing_trials + t, traced));
                    }
                }
            }
            local
        };
        // The caller is worker 0; only `workers - 1` helpers are spawned.
        // The lazy precomputes are `OnceLock`s, so whichever worker needs
        // them first builds them and the others wait. A helper's panic is
        // re-raised on the caller with its own payload.
        let per_worker: Vec<Vec<(usize, Traced)>> = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..opts.workers()).map(|_| s.spawn(work)).collect();
            let mut per_worker = vec![work()];
            for h in helpers {
                per_worker.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            per_worker
        });
        // `(trial, t)`-indexed result slots: whatever order workers finish
        // in, they are read back in trial order, routing trials in order.
        let mut slots: Vec<Option<Traced>> = (0..opts.layout_trials * routing_trials)
            .map(|_| None)
            .collect();
        for (k, traced) in per_worker.into_iter().flatten() {
            slots[k] = Some(traced);
        }
        let traced = slots
            .into_iter()
            .map(|slot| slot.expect("every route task was claimed by a worker"))
            .collect();
        Ok((traced, run.prices))
    }

    /// Run the full trial loop and return the best routed circuit under
    /// the metric, with how many candidates were scored, the winner's
    /// class ids and the run's prices (`transpile` reads its metrics from
    /// them). `mirage = false` gives the SABRE baseline (no mirrors; the
    /// metric should be [`Metric::SwapCount`] for a faithful baseline).
    ///
    /// # Determinism
    ///
    /// Results are bit-identical at every thread count, the inline
    /// `threads = 1` run included. The loop is split into tasks: one
    /// *refine* task per layout trial (strategy proposal, both
    /// refinements, then one RNG stream spawned per routing trial, in
    /// routing-trial order) and one *route* task per routing trial, ready
    /// once its trial's refine task is done. The calling thread is worker 0
    /// and `min(threads, layout_trials × routing_trials) - 1` scoped
    /// helpers join it; every worker claims refine tasks in trial order
    /// first, then ready route tasks in `(trial, t)` order, and waits on a
    /// condvar while none is ready. A panicking task poisons the board and
    /// wakes every waiter, so the panic reaches the caller. Two invariants
    /// make the result independent of who ran what:
    ///
    /// 1. **Pre-split seeds.** Each layout trial's randomness is a pure
    ///    function of `(opts.seed, trial index)` via [`SeedSchedule`], and
    ///    a refine task consumes it sequentially ([`Rng::choose`] draws
    ///    once per SWAP step). Routing trial `t` routes on the `t`-th
    ///    stream its refine task pre-spawned — the stream the sequential
    ///    loop spawned right before routing it — so neither the worker
    ///    that runs a task nor when can influence any stream.
    /// 2. **Fixed reduction order.** Results land in `(trial, t)`-indexed
    ///    slots and are flattened in that order; post-selection scores
    ///    each candidate's op trace exactly once and keeps the *first* of
    ///    equal minima, so ties break by index, never by completion order
    ///    or pool size. Only the winner is materialized into a circuit.
    ///
    /// # Errors
    ///
    /// [`TranspileError::NoTrials`] or [`TranspileError::InvalidTrialMix`]
    /// when `opts` fails [`TrialOptions::validate`], and
    /// [`TranspileError::DisconnectedTopology`] on a split coupling map.
    pub fn run_detailed(
        &self,
        mirage: bool,
        opts: &TrialOptions,
    ) -> Result<TrialOutcome, TranspileError> {
        let (traced, prices) = self.run_traces(mirage, opts)?;
        let n = traced.len();
        let n_qubits = self.target.n_qubits();
        let best = first_min(traced, |t| score(t, opts.metric, &prices, n_qubits))
            .expect("at least one trial ran");
        let best = self.candidate(best);
        Ok(TrialOutcome {
            best: best.routed,
            candidates: n,
            classes: best.classes,
            prices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_routed;
    use mirage_circuit::consolidate::consolidate;
    use mirage_circuit::generators::two_local_full;
    use mirage_topology::CouplingMap;

    const PAPER_MIX: [f64; 4] = [0.05, 0.45, 0.45, 0.05];

    /// The winner of one engine run.
    fn best_route(
        c: &Circuit,
        target: &Target,
        mirage: bool,
        opts: &TrialOptions,
    ) -> RoutedCircuit {
        TrialEngine::new(c, target)
            .run_detailed(mirage, opts)
            .expect("valid options")
            .best
    }

    #[test]
    fn aggression_mix_banding() {
        let total = 20;
        let counts = (0..total).fold([0usize; 4], |mut acc, t| {
            match aggression_for_trial(t, total, &PAPER_MIX) {
                Aggression::A0 => acc[0] += 1,
                Aggression::A1 => acc[1] += 1,
                Aggression::A2 => acc[2] += 1,
                Aggression::A3 => acc[3] += 1,
            }
            acc
        });
        assert_eq!(counts, [1, 9, 9, 1], "paper's 5/45/45/5 on 20 trials");
        // Small trial counts still include every configured level.
        let counts8 = aggression_counts(8, &PAPER_MIX);
        assert!(counts8.iter().all(|&c| c >= 1), "{counts8:?}");
        assert_eq!(counts8.iter().sum::<usize>(), 8);
    }

    #[test]
    fn aggression_counts_single_trial_with_paper_mix() {
        // total = 1 with four nonzero shares: every level first claims its
        // at-least-one slot (assigned = 4), then reconciliation must shed
        // three without panicking; the surviving slot belongs to a main
        // strategy, not the 5% tails.
        let counts = aggression_counts(1, &PAPER_MIX);
        assert_eq!(counts.iter().sum::<usize>(), 1, "{counts:?}");
        assert_eq!(counts[1] + counts[2], 1, "tails dropped first: {counts:?}");
        // And the trial-to-level map agrees with the counts.
        let level = aggression_for_trial(0, 1, &PAPER_MIX);
        assert!(matches!(level, Aggression::A1 | Aggression::A2));
    }

    #[test]
    fn aggression_counts_two_trials_with_paper_mix() {
        let counts = aggression_counts(2, &PAPER_MIX);
        assert_eq!(counts.iter().sum::<usize>(), 2, "{counts:?}");
        // The small shares (A0/A3) are dropped before the main strategies.
        assert_eq!(counts[1] + counts[2], 2, "{counts:?}");
    }

    #[test]
    fn aggression_counts_all_zero_mix() {
        // A degenerate all-zero mix must still produce exactly `total`
        // trials (no level gets the at-least-one guarantee, so the
        // surplus-distribution loop alone fills the bands).
        for total in [1usize, 2, 7, 20] {
            let counts = aggression_counts(total, &[0.0; 4]);
            assert_eq!(counts.iter().sum::<usize>(), total, "{counts:?}");
        }
        // The trial mapper stays total as well.
        let _ = aggression_for_trial(0, 1, &[0.0; 4]);
        let _ = aggression_for_trial(19, 20, &[0.0; 4]);
    }

    #[test]
    fn mix_counts_generalizes_beyond_four_lanes() {
        let counts = mix_counts(10, &[0.5, 0.25, 0.25]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts[0], 5);
        assert!(counts[1].min(counts[2]) == 2 && counts[1].max(counts[2]) == 3);
        let counts = mix_counts(3, &[0.9, 0.05, 0.03, 0.01, 0.01]);
        assert_eq!(counts.iter().sum::<usize>(), 3, "{counts:?}");
        assert!(counts[0] >= 1);
    }

    #[test]
    fn invalid_mixes_rejected_with_clean_errors() {
        let mut opts = TrialOptions::quick(Metric::Depth, 1);
        opts.aggression_mix = [0.5, 0.5, 0.5, 0.5];
        let err = opts.validate().unwrap_err();
        assert!(matches!(
            err,
            TranspileError::InvalidTrialMix {
                which: "aggression_mix",
                ..
            }
        ));
        assert!(err.to_string().contains("sum to 2"), "{err}");

        let mut opts = TrialOptions::quick(Metric::Depth, 1);
        opts.strategy_mix = [1.5, -0.5, 0.0, 0.0];
        let err = opts.validate().unwrap_err();
        assert!(matches!(
            err,
            TranspileError::InvalidTrialMix {
                which: "strategy_mix",
                ..
            }
        ));

        let mut opts = TrialOptions::quick(Metric::Depth, 1);
        opts.strategy_mix = [f64::NAN, 0.5, 0.5, 0.0];
        assert!(opts.validate().is_err());

        // The engine surfaces the same error instead of mis-allocating.
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let c = consolidate(&two_local_full(4, 1, 7));
        let mut opts = TrialOptions::quick(Metric::Depth, 1);
        opts.aggression_mix = [0.0; 4];
        let engine = TrialEngine::new(&c, &target);
        assert!(engine.run_detailed(true, &opts).is_err());

        // And slight float noise passes.
        let mut opts = TrialOptions::quick(Metric::Depth, 1);
        opts.aggression_mix = [0.1, 0.2, 0.3, 0.4 + 1e-9];
        opts.validate().unwrap();
    }

    #[test]
    fn zero_trials_rejected_before_any_work() {
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let c = consolidate(&two_local_full(4, 1, 7));
        let engine = TrialEngine::new(&c, &target);
        for which in ["layout_trials", "routing_trials"] {
            let mut opts = TrialOptions::quick(Metric::Depth, 1);
            if which == "layout_trials" {
                opts.layout_trials = 0;
            } else {
                opts.routing_trials = 0;
            }
            assert_eq!(opts.validate(), Err(TranspileError::NoTrials { which }));
            let err = engine.run_detailed(true, &opts).unwrap_err();
            assert_eq!(err, TranspileError::NoTrials { which });
            assert!(err.to_string().contains(which), "{err}");
        }
        // Zero refinement passes is a valid budget.
        let mut opts = TrialOptions::quick(Metric::Depth, 1);
        opts.fwd_bwd_iters = 0;
        engine.run_detailed(true, &opts).unwrap();
    }

    #[test]
    fn post_selection_scores_each_candidate_exactly_once() {
        let scores = [3.0, 1.0, 2.0, 1.0, f64::NAN];
        let mut calls = 0;
        let best = first_min((0..scores.len()).collect(), |&i| {
            calls += 1;
            scores[i]
        });
        assert_eq!(calls, scores.len(), "one score per candidate");
        assert_eq!(best, Some(1), "first of equal minima, NaN never wins");
        assert_eq!(first_min(Vec::<usize>::new(), |_| 0.0), None);
    }

    #[test]
    fn trials_return_valid_routing() {
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let c = consolidate(&two_local_full(4, 1, 7));
        let r = best_route(&c, &target, true, &TrialOptions::quick(Metric::Depth, 1));
        assert!(verify_routed(&c, &r, &target));
    }

    #[test]
    fn depth_metric_never_worse_than_random_trial() {
        let target = Target::sqrt_iswap(CouplingMap::line(5));
        let c = consolidate(&two_local_full(5, 2, 8));
        let best = best_route(&c, &target, true, &TrialOptions::quick(Metric::Depth, 2));
        // The selected candidate's depth must be ≤ a fresh single trial's.
        let single = best_route(
            &c,
            &target,
            true,
            &TrialOptions {
                layout_trials: 1,
                routing_trials: 1,
                ..TrialOptions::quick(Metric::Depth, 3)
            },
        );
        let d_best = target.depth_estimate(&best.circuit);
        let d_single = target.depth_estimate(&single.circuit);
        assert!(d_best <= d_single + 1e-9, "{d_best} vs {d_single}");
    }

    #[test]
    fn parallel_matches_serial() {
        // Exhaustive thread sweep: every pool size — the host default and
        // more workers than trials included — must reproduce the inline
        // result bit for bit.
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let c = consolidate(&two_local_full(4, 1, 9));
        let mut serial_opts = TrialOptions::quick(Metric::SwapCount, 5);
        serial_opts.threads = 1;
        let a = best_route(&c, &target, false, &serial_opts);
        for threads in [0, 2, 4, 8] {
            let mut parallel_opts = serial_opts.clone();
            parallel_opts.threads = threads;
            let b = best_route(&c, &target, false, &parallel_opts);
            assert_eq!(
                a.circuit, b.circuit,
                "{threads} threads must not change results"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_with_mixed_strategies() {
        // Strategy selection is by trial index, so threading must not
        // change which strategy seeds which trial (or the result) — at
        // any pool size.
        let topo = CouplingMap::grid(2, 3);
        let cal = crate::calibration::Calibration::synthetic(&topo, &mut Rng::new(0xABC));
        let target = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let c = consolidate(&two_local_full(5, 1, 8));
        let mut opts = TrialOptions::quick(Metric::EstimatedSuccess, 5);
        opts.strategy_mix = [0.4, 0.2, 0.2, 0.2];
        opts.layout_trials = 5;
        opts.threads = 1;
        let engine = TrialEngine::new(&c, &target);
        let serial = engine.run_detailed(true, &opts).unwrap();
        assert_eq!(serial.candidates, 5 * opts.routing_trials);
        for threads in [0, 2, 4, 8] {
            opts.threads = threads;
            let parallel = engine.run_detailed(true, &opts).unwrap();
            assert_eq!(serial.best.circuit, parallel.best.circuit);
            assert_eq!(serial.candidates, parallel.candidates);
        }
    }

    /// Every candidate of a run, as comparable values.
    fn candidate_keys(run: &TrialRun) -> Vec<(u64, Layout, Layout, usize, usize)> {
        run.candidates
            .iter()
            .map(|c| {
                let r = &c.routed;
                (
                    r.circuit.fingerprint(),
                    r.initial_layout.clone(),
                    r.final_layout.clone(),
                    r.swaps_inserted,
                    r.mirrors_accepted,
                )
            })
            .collect()
    }

    #[test]
    fn route_tasks_match_inline_at_every_pool_shape() {
        // Shapes the layout-trial pool never had: one layout trial whose
        // routing trials spread over several workers, and an odd number
        // of layout trials with more route tasks than workers. Every
        // candidate, in order, must equal the inline run's.
        let topo = CouplingMap::grid(2, 3);
        let cal = crate::calibration::Calibration::synthetic(&topo, &mut Rng::new(0x3A5));
        let target = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let c = consolidate(&two_local_full(6, 1, 12));
        let engine = TrialEngine::new(&c, &target);
        for (layout_trials, routing_trials, pools) in
            [(1, 4, &[1usize, 2, 3, 4][..]), (3, 5, &[2, 3, 8][..])]
        {
            for mirage in [true, false] {
                let mut opts = TrialOptions::quick(Metric::Depth, 17);
                opts.layout_trials = layout_trials;
                opts.routing_trials = routing_trials;
                opts.threads = 1;
                let inline = candidate_keys(&engine.run_candidates(mirage, &opts).unwrap());
                assert_eq!(inline.len(), layout_trials * routing_trials);
                for &threads in pools {
                    opts.threads = threads;
                    let pooled = candidate_keys(&engine.run_candidates(mirage, &opts).unwrap());
                    assert_eq!(
                        inline, pooled,
                        "{layout_trials} x {routing_trials} (mirage {mirage}) at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn panicking_task_panics_the_call_instead_of_deadlocking() {
        // The last layout trial's refine task panics. Workers without a
        // refine task wait for its route tasks, which never become ready;
        // they must be released and the call must panic.
        let target = Arc::new(Target::sqrt_iswap(CouplingMap::grid(2, 3)));
        let c = Arc::new(consolidate(&two_local_full(6, 1, 12)));
        for (layout_trials, threads) in [(1, 1), (1, 2), (1, 4), (2, 3), (4, 4)] {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let (target, c) = (Arc::clone(&target), Arc::clone(&c));
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    let mut opts = TrialOptions::quick(Metric::Depth, 1);
                    opts.layout_trials = layout_trials;
                    opts.threads = threads;
                    let mut engine = TrialEngine::new(&c, &target);
                    engine.panic_in_refine = Some(layout_trials - 1);
                    let _ = engine.run_detailed(true, &opts);
                });
                let _ = done_tx.send(outcome.is_err());
            });
            let shape = format!("{layout_trials} layout trials on {threads} threads");
            let panicked = done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{shape}: the trial loop deadlocked"));
            assert!(panicked, "{shape}: the call returned normally");
        }
    }

    #[test]
    fn split_map_is_a_typed_error_not_a_panic() {
        // Two disjoint 3-qubit lines and a 6-qubit GHZ chain: every
        // placement splits the chain across the components, so no route
        // could finish.
        let topo = CouplingMap::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)], "split");
        let target = Target::sqrt_iswap(topo);
        let c = consolidate(&mirage_circuit::generators::ghz(6));
        let engine = TrialEngine::new(&c, &target);
        for threads in [1, 4] {
            let mut opts = TrialOptions::quick(Metric::Depth, 1);
            opts.threads = threads;
            for mirage in [true, false] {
                let detailed = engine.run_detailed(mirage, &opts).map(|_| ());
                let candidates = engine.run_candidates(mirage, &opts).map(|_| ());
                for got in [detailed, candidates] {
                    assert_eq!(
                        got,
                        Err(TranspileError::DisconnectedTopology),
                        "{threads} threads, mirage {mirage}"
                    );
                }
            }
        }
    }

    #[test]
    fn mirror_lambda_reaches_the_mirror_aware_refinement() {
        // Odd routing trials start from the mirror-aware (A1) refinement,
        // so with an A1-only mix candidate 1's initial layout is that
        // refinement's output, and λ must be able to move it.
        let target = Target::sqrt_iswap(CouplingMap::grid(2, 3));
        let c = consolidate(&mirage_circuit::generators::qft(6, false));
        let engine = TrialEngine::new(&c, &target);
        let start = |lambda: f64| {
            let mut opts = TrialOptions::quick(Metric::Depth, 11);
            opts.layout_trials = 1;
            opts.routing_trials = 2;
            opts.aggression_mix = [0.0, 1.0, 0.0, 0.0];
            opts.mirror_lambda = Some(lambda);
            let run = engine.run_candidates(true, &opts).unwrap();
            run.candidates[1].routed.initial_layout.clone()
        };
        let starts: Vec<Layout> = [0.0, 0.5, 2.0, 8.0].into_iter().map(start).collect();
        assert!(
            starts.iter().any(|l| *l != starts[0]),
            "mirrored-start layout ignores λ: {starts:?}"
        );
    }

    #[test]
    fn seed_schedule_is_a_pure_function_of_master_and_index() {
        // Pure in the strongest sense: recomputing any (master, trial)
        // pair — in any order, interleaved with other queries — always
        // returns the same seed, and distinct trial indices never
        // collide. Inserting or reordering trials therefore cannot shift
        // another trial's stream.
        let masters = [0u64, 1, 0x5EED, u64::MAX, 0xDEADBEEF];
        for &m in &masters {
            let schedule = SeedSchedule::new(m);
            let forward: Vec<u64> = (0..64).map(|t| schedule.trial_seed(t)).collect();
            let backward: Vec<u64> = (0..64).rev().map(|t| schedule.trial_seed(t)).collect();
            for (t, (&f, &b)) in forward.iter().zip(backward.iter().rev()).enumerate() {
                assert_eq!(f, b, "master {m:#X} trial {t}: query order leaked in");
                assert_eq!(
                    f,
                    SeedSchedule::new(m).trial_seed(t),
                    "fresh schedule instance must agree"
                );
            }
            let mut sorted = forward.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), forward.len(), "seed collision under {m:#X}");
        }
        // Distinct masters produce distinct schedules (XOR is injective
        // in the master for a fixed trial).
        assert_ne!(
            SeedSchedule::new(1).trial_seed(0),
            SeedSchedule::new(2).trial_seed(0)
        );
    }

    #[test]
    fn seed_schedule_pinned_for_known_master() {
        // Regression pin: this exact derivation feeds every golden trials
        // fingerprint in tests/golden_routing.rs. If this test fails, the
        // goldens are about to fail too — do not re-pin one without the
        // other.
        let schedule = SeedSchedule::new(0xDEADBEEF);
        let expected: [u64; 4] = [0xDEAD20D8, 0xDFAD20D8, 0xDCAD20D8, 0xDDAD20D8];
        for (t, &want) in expected.iter().enumerate() {
            assert_eq!(schedule.trial_seed(t), want, "trial {t}");
        }
    }

    #[test]
    fn estimated_success_metric_post_selects() {
        let topo = CouplingMap::line(5);
        let cal = crate::calibration::Calibration::synthetic(&topo, &mut Rng::new(0x5EED));
        let target = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let c = consolidate(&two_local_full(5, 1, 8));
        let best = best_route(
            &c,
            &target,
            true,
            &TrialOptions::quick(Metric::EstimatedSuccess, 3),
        );
        assert!(verify_routed(&c, &best, &target));
        let s = best.estimated_success(&target);
        assert!(s > 0.0 && s < 1.0, "noisy device: 0 < {s} < 1");
        // Post-selection must beat (or tie) a single fresh trial.
        let single = best_route(
            &c,
            &target,
            true,
            &TrialOptions {
                layout_trials: 1,
                routing_trials: 1,
                ..TrialOptions::quick(Metric::EstimatedSuccess, 4)
            },
        );
        assert!(
            best.log_success(&target) >= single.log_success(&target) - 1e-9,
            "{} vs {}",
            best.log_success(&target),
            single.log_success(&target)
        );
    }

    #[test]
    fn zero_error_calibration_gives_certain_success() {
        // Uniform (zero-error) calibration: EstimatedSuccess degenerates to
        // probability 1 for every candidate, and routing still verifies.
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let c = consolidate(&two_local_full(4, 1, 7));
        let r = best_route(
            &c,
            &target,
            true,
            &TrialOptions::quick(Metric::EstimatedSuccess, 5),
        );
        assert!(verify_routed(&c, &r, &target));
        assert_eq!(r.estimated_success(&target), 1.0);
    }

    #[test]
    fn sabre_baseline_accepts_no_mirrors() {
        let target = Target::sqrt_iswap(CouplingMap::line(4));
        let c = consolidate(&two_local_full(4, 1, 10));
        let r = best_route(
            &c,
            &target,
            false,
            &TrialOptions::quick(Metric::SwapCount, 6),
        );
        assert_eq!(r.mirrors_accepted, 0);
        assert_eq!(r.mirror_candidates, 0);
    }

    #[test]
    fn every_strategy_routes_verifiably() {
        // Each one-hot strategy mix produces a valid routed circuit.
        let topo = CouplingMap::grid(2, 3);
        let cal = crate::calibration::Calibration::synthetic(&topo, &mut Rng::new(0x717));
        let target = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let c = consolidate(&two_local_full(4, 1, 7));
        let engine = TrialEngine::new(&c, &target);
        for kind in StrategyKind::ALL {
            let opts = TrialOptions::quick(Metric::EstimatedSuccess, 9).with_strategy(kind);
            let outcome = engine.run_detailed(true, &opts).unwrap();
            assert!(
                verify_routed(&c, &outcome.best, &target),
                "{} routed invalidly",
                kind.name()
            );
        }
    }
}
