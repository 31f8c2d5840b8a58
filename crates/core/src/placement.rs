//! Initial placement: pluggable layout-seeding strategies.
//!
//! The paper's trial loop (§V) starts every layout trial from a uniformly
//! random placement and lets SABRE-style refinement plus post-selection do
//! the rest. That is one point in a design space this module makes
//! explicit: a [`LayoutStrategy`] proposes the *seed* layout of a trial,
//! and the [`TrialEngine`](crate::trials::TrialEngine) spreads its layout
//! budget across strategies via [`TrialOptions::strategy_mix`] — the same
//! shape as the aggression mix of §IV-C.
//!
//! Strategies:
//!
//! * [`Random`] — the paper's uniform seeding ([`Layout::random`]).
//! * [`NoiseAware`] — grows a low-error region of the device (ranked by
//!   [`Target::qubit_quality`]) and places the circuit inside it; on a
//!   uniform calibration there is nothing to rank, so it falls back to
//!   [`Random`].
//! * [`DegreeNoise`] — degree-greedy assignment seeded into a low-error
//!   region (with head-room), so hubs land on well-connected seats *of the
//!   quiet part* of the device; on a uniform calibration the whole device
//!   is the region.
//! * [`Vf2Embed`] — exact subgraph embedding (the `VF2Layout` pre-pass of
//!   §V, extracted from the pipeline), breaking ties between embeddings by
//!   [`Metric::EstimatedSuccess`](crate::trials::Metric::EstimatedSuccess)
//!   on calibrated targets.
//!
//! `layout_strategies` (in `mirage-bench`) measures each lane against
//! [`Random`] on the paper suite and pins its output.
//!
//! Every strategy receives a [`PlacementContext`] (circuit interaction
//! weights + the [`Target`]) and a seeded [`Rng`], and must return a valid
//! bijection (see [`Layout`]) or `None` when it cannot place the circuit
//! (only [`Vf2Embed`], when no embedding exists); callers fall back to
//! [`Random`], which always succeeds.
//!
//! [`TrialOptions::strategy_mix`]: crate::trials::TrialOptions::strategy_mix

use crate::calibration::Calibration;
use crate::layout::Layout;
use crate::pricing::{ln_survival, CalibrationSnapshot};
use crate::target::Target;
use crate::trials::mix_counts;
use mirage_circuit::Circuit;
use mirage_math::Rng;
use mirage_topology::vf2::{find_embeddings, InteractionGraph};
use std::sync::Arc;

/// Everything a layout strategy may consult: the (consolidated) circuit,
/// the device, the calibration snapshot to rank seats under, and
/// precomputed interaction statistics.
#[derive(Debug, Clone)]
pub struct PlacementContext<'a> {
    circuit: &'a Circuit,
    target: &'a Target,
    /// The calibration every calibration-aware proposal reads, taken once
    /// so one placement never mixes two calibrations.
    snapshot: Arc<CalibrationSnapshot>,
    /// Interacting logical pairs with their two-qubit gate counts.
    interactions: Vec<((usize, usize), f64)>,
    /// Per-logical-qubit sum of interaction weights.
    weighted_degree: Vec<f64>,
    vf2_budget: usize,
}

/// Default VF2 search-node budget for placement contexts built without an
/// explicit one (matches `TranspileOptions::quick`).
pub const DEFAULT_VF2_BUDGET: usize = 200_000;

impl<'a> PlacementContext<'a> {
    /// Build a context for placing `circuit` onto `target`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the device.
    pub fn new(circuit: &'a Circuit, target: &'a Target) -> PlacementContext<'a> {
        assert!(
            circuit.n_qubits <= target.n_qubits(),
            "circuit wider than device"
        );
        let mut weights = std::collections::BTreeMap::new();
        let mut weighted_degree = vec![0.0; circuit.n_qubits];
        for instr in &circuit.instructions {
            if instr.gate.is_two_qubit() {
                let (a, b) = (instr.qubits[0], instr.qubits[1]);
                *weights.entry((a.min(b), a.max(b))).or_insert(0.0) += 1.0;
                weighted_degree[a] += 1.0;
                weighted_degree[b] += 1.0;
            }
        }
        PlacementContext {
            circuit,
            target,
            snapshot: target.calibration_snapshot(),
            interactions: weights.into_iter().collect(),
            weighted_degree,
            vf2_budget: DEFAULT_VF2_BUDGET,
        }
    }

    /// Override the VF2 search-node budget (builder style).
    #[must_use]
    pub fn with_vf2_budget(mut self, budget: usize) -> PlacementContext<'a> {
        self.vf2_budget = budget;
        self
    }

    /// The circuit being placed.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Re-base the context on another calibration snapshot (builder
    /// style): a trial-engine run places under the snapshot it prices
    /// under.
    #[must_use]
    pub(crate) fn with_snapshot(mut self, snapshot: Arc<CalibrationSnapshot>) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// The device being placed onto.
    pub fn target(&self) -> &Target {
        self.target
    }

    /// The calibration snapshot proposals rank seats under (taken from the
    /// target when the context was built).
    pub(crate) fn snapshot(&self) -> &Arc<CalibrationSnapshot> {
        &self.snapshot
    }

    /// The calibration proposals rank seats under (taken from the target
    /// when the context was built).
    pub fn calibration(&self) -> &Calibration {
        self.snapshot.calibration()
    }

    /// Number of real (circuit) logical qubits.
    pub fn n_logical(&self) -> usize {
        self.circuit.n_qubits
    }

    /// Number of device qubits.
    pub fn n_physical(&self) -> usize {
        self.target.n_qubits()
    }

    /// Interacting logical pairs (normalized `lo < hi`) with the number of
    /// two-qubit gates on each pair.
    pub fn interactions(&self) -> &[((usize, usize), f64)] {
        &self.interactions
    }

    /// Sum of interaction weights touching logical qubit `q`.
    pub fn weighted_degree(&self, q: usize) -> f64 {
        self.weighted_degree[q]
    }

    /// Per-logical adjacency: `(partner, weight)` lists.
    fn partner_lists(&self) -> Vec<Vec<(usize, f64)>> {
        let mut partners = vec![Vec::new(); self.n_logical()];
        for &((a, b), w) in &self.interactions {
            partners[a].push((b, w));
            partners[b].push((a, w));
        }
        partners
    }
}

/// Re-apply a placement: rewrite every instruction of `circuit` onto the
/// physical qubits `layout` assigns, widening to the device register.
pub fn apply_layout(circuit: &Circuit, layout: &Layout) -> Circuit {
    let mut placed = Circuit::new(layout.n_physical());
    for instr in &circuit.instructions {
        let qubits: Vec<usize> = instr.qubits.iter().map(|&q| layout.phys(q)).collect();
        placed.push(instr.gate.clone(), &qubits);
    }
    placed
}

/// A pluggable initial-layout generator. Implementations must be cheap
/// relative to a routing trial and deterministic given the `rng` state.
pub trait LayoutStrategy: Send + Sync {
    /// Short stable identifier (CLI values, table headers).
    fn name(&self) -> &'static str;

    /// Propose a seed layout, or `None` when the strategy cannot place
    /// this circuit (callers fall back to [`Random`]).
    fn propose(&self, ctx: &PlacementContext<'_>, rng: &mut Rng) -> Option<Layout>;
}

/// The paper's uniform seeding: a fresh [`Layout::random`] per trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct Random;

impl LayoutStrategy for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose(&self, ctx: &PlacementContext<'_>, rng: &mut Rng) -> Option<Layout> {
        Some(Layout::random(ctx.n_logical(), ctx.n_physical(), rng))
    }
}

/// Calibration-aware seeding: rank physical qubits by
/// [`Target::qubit_quality`], grow a connected low-error region from a
/// randomly chosen high-quality start seat, and place the circuit inside
/// it (interaction-heavy logical qubits onto the quietest seats). On a
/// uniform calibration every seat scores identically, so the strategy
/// falls back to [`Random`] rather than manufacturing fake preferences.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseAware;

impl LayoutStrategy for NoiseAware {
    fn name(&self) -> &'static str {
        "noise-aware"
    }

    fn propose(&self, ctx: &PlacementContext<'_>, rng: &mut Rng) -> Option<Layout> {
        let target = ctx.target();
        let cal = ctx.calibration();
        if cal.is_uniform() {
            return Random.propose(ctx, rng);
        }
        let quality: Vec<f64> = (0..ctx.n_physical())
            .map(|q| target.qubit_quality_with(cal, q))
            .collect();
        let region = grow_low_error_region(ctx, cal, &quality, ctx.n_logical(), rng);
        Some(greedy_assign(ctx, &region, &|p| quality[p], rng))
    }
}

/// Grow a connected region of `size` physical qubits, preferring quiet
/// seats reached through quiet couplers. `cal` is the caller's calibration
/// snapshot (the same one that ranked `quality`, so one proposal never
/// mixes two calibrations). The start seat is drawn from the best quartile
/// (randomized, so the trial loop explores several regions of a patchy
/// device). Shared by [`NoiseAware`] and [`DegreeNoise`].
fn grow_low_error_region(
    ctx: &PlacementContext<'_>,
    cal: &Calibration,
    quality: &[f64],
    size: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    let target = ctx.target();
    let n_phys = ctx.n_physical();
    let mut ranked: Vec<usize> = (0..n_phys).collect();
    ranked.sort_by(|&a, &b| quality[b].total_cmp(&quality[a]));
    let pool = ranked.len().div_ceil(4).max(1);
    let start = ranked[rng.below(pool)];

    let topo = target.topology();
    let mut in_region = vec![false; n_phys];
    let mut region = vec![start];
    in_region[start] = true;
    while region.len() < size.min(n_phys) {
        // Deduplicated frontier (ordered, so the random tie-break is
        // one fair draw per candidate regardless of how many region
        // members it touches).
        let frontier: std::collections::BTreeSet<usize> = region
            .iter()
            .flat_map(|&member| topo.neighbors(member).iter().copied())
            .filter(|&q| !in_region[q])
            .collect();
        let mut best: Option<(f64, f64, usize)> = None;
        for q in frontier {
            let links: Vec<f64> = topo
                .neighbors(q)
                .iter()
                .filter(|&&nb| in_region[nb])
                .map(|&nb| ln_survival(cal.edge_or_nominal(q, nb).error_2q))
                .collect();
            let bonus = links.iter().sum::<f64>() / links.len().max(1) as f64;
            let key = (quality[q] + bonus, rng.uniform(), q);
            if best.map_or(true, |b| (key.0, key.1).gt(&(b.0, b.1))) {
                best = Some(key);
            }
        }
        match best {
            Some((_, _, q)) => {
                in_region[q] = true;
                region.push(q);
            }
            // Disconnected device (transpile rejects these, but stay
            // total): take the best remaining seat outright.
            None => {
                let q = ranked
                    .iter()
                    .copied()
                    .find(|&q| !in_region[q])
                    .expect("size <= n_physical");
                in_region[q] = true;
                region.push(q);
            }
        }
    }
    region
}

/// Degree-greedy placement seeded **into** a low-error region: grow a
/// connected low-error region (like [`NoiseAware`]) with head-room beyond
/// the circuit width, then run the interaction-weighted greedy assignment
/// *restricted to that region*, tie-breaking toward well-connected seats.
/// On a uniform calibration there is no noise signal, so the whole device
/// is the region and ties go to hardware degree alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeNoise;

impl DegreeNoise {
    /// Extra seats grown beyond the circuit width, as a fraction of it:
    /// the slack gives the degree-greedy core real seat choices inside the
    /// quiet region (a region of exactly circuit width would make the
    /// assignment order irrelevant).
    pub const REGION_SLACK: f64 = 0.5;

    /// Region size for a circuit of `n_logical` qubits on a device with
    /// `n_physical` seats.
    fn region_size(n_logical: usize, n_physical: usize) -> usize {
        let slack = ((n_logical as f64 * Self::REGION_SLACK).ceil() as usize).max(1);
        (n_logical + slack).min(n_physical)
    }
}

impl LayoutStrategy for DegreeNoise {
    fn name(&self) -> &'static str {
        "degree-noise"
    }

    fn propose(&self, ctx: &PlacementContext<'_>, rng: &mut Rng) -> Option<Layout> {
        let target = ctx.target();
        let topo = target.topology();
        let cal = ctx.calibration();
        if cal.is_uniform() {
            let allowed: Vec<usize> = (0..ctx.n_physical()).collect();
            let degree = |p: usize| topo.neighbors(p).len() as f64;
            return Some(greedy_assign(ctx, &allowed, &degree, rng));
        }
        let quality: Vec<f64> = (0..ctx.n_physical())
            .map(|q| target.qubit_quality_with(cal, q))
            .collect();
        let size = Self::region_size(ctx.n_logical(), ctx.n_physical());
        let region = grow_low_error_region(ctx, cal, &quality, size, rng);
        // Degree dominates the tie-break inside the quiet region; quality
        // (a small negative log-survival) orders seats of equal degree.
        let seat_quality = |p: usize| topo.neighbors(p).len() as f64 + quality[p].clamp(-0.9, 0.0);
        Some(greedy_assign(ctx, &region, &seat_quality, rng))
    }
}

/// The `VF2Layout` pre-pass as a strategy: an exact SWAP-free embedding of
/// the interaction graph when one exists (then routing has nothing to do).
/// Up to [`Vf2Embed::MAX_CANDIDATES`] embeddings are enumerated and ties
/// are broken by the estimated success probability of the placed circuit —
/// on a calibrated device, embeddings avoiding lossy couplers and bad
/// readout win; on a uniform device every embedding scores 1.0 and the
/// first (the classic single-result VF2 answer) is kept.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vf2Embed;

impl Vf2Embed {
    /// How many embeddings the tie-break considers.
    pub const MAX_CANDIDATES: usize = 8;
}

impl LayoutStrategy for Vf2Embed {
    fn name(&self) -> &'static str {
        "vf2"
    }

    fn propose(&self, ctx: &PlacementContext<'_>, _rng: &mut Rng) -> Option<Layout> {
        let pairs = ctx.interactions().iter().map(|&((a, b), _)| (a, b));
        let g = InteractionGraph::new(ctx.n_logical(), pairs);
        let topo = ctx.target().topology();
        let candidates = if ctx.calibration().is_uniform() {
            find_embeddings(&g, topo, ctx.vf2_budget, 1)
        } else {
            find_embeddings(&g, topo, ctx.vf2_budget, Self::MAX_CANDIDATES)
        };
        let mut best: Option<(f64, Layout)> = None;
        for embedding in candidates {
            let layout = Layout::from_assignment(&embedding, topo.n_qubits());
            let placed = apply_layout(ctx.circuit(), &layout);
            let success = ctx
                .target()
                .log_success_under(ctx.snapshot(), &placed, layout.real_assignment())
                .exp();
            // Strict improvement only: ties keep the earliest embedding,
            // so uniform targets reproduce the single-result VF2 pass.
            if best.as_ref().map_or(true, |(s, _)| success > *s) {
                best = Some((success, layout));
            }
        }
        best.map(|(_, layout)| layout)
    }
}

/// The built-in strategies, addressable for mixes and CLI flags. The
/// order defines the lanes of
/// [`TrialOptions::strategy_mix`](crate::trials::TrialOptions::strategy_mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// [`Random`].
    Random,
    /// [`NoiseAware`].
    NoiseAware,
    /// [`DegreeNoise`].
    DegreeNoise,
    /// [`Vf2Embed`].
    Vf2Embed,
}

/// Number of strategy lanes — the width of
/// [`TrialOptions::strategy_mix`](crate::trials::TrialOptions::strategy_mix).
pub const N_STRATEGIES: usize = 4;

impl StrategyKind {
    /// Every strategy, in mix-lane order.
    pub const ALL: [StrategyKind; N_STRATEGIES] = [
        StrategyKind::Random,
        StrategyKind::NoiseAware,
        StrategyKind::DegreeNoise,
        StrategyKind::Vf2Embed,
    ];

    /// The strategy object.
    pub fn strategy(self) -> &'static dyn LayoutStrategy {
        match self {
            StrategyKind::Random => &Random,
            StrategyKind::NoiseAware => &NoiseAware,
            StrategyKind::DegreeNoise => &DegreeNoise,
            StrategyKind::Vf2Embed => &Vf2Embed,
        }
    }

    /// Short stable identifier (same as the strategy object's name).
    pub fn name(self) -> &'static str {
        self.strategy().name()
    }

    /// A mix giving this strategy the whole layout budget.
    pub fn one_hot(self) -> [f64; N_STRATEGIES] {
        let mut mix = [0.0; N_STRATEGIES];
        mix[self as usize] = 1.0;
        mix
    }

    /// The strategy seeding layout trial `t` of `total` under `mix`
    /// (mirrors [`aggression_for_trial`](crate::trials::aggression_for_trial):
    /// every strategy with a nonzero share gets at least one trial).
    pub fn for_trial(t: usize, total: usize, mix: &[f64; N_STRATEGIES]) -> StrategyKind {
        let counts = mix_counts(total.max(1), mix);
        let mut upto = 0usize;
        for (lane, &n) in counts.iter().enumerate() {
            upto += n;
            if t < upto {
                return StrategyKind::ALL[lane];
            }
        }
        StrategyKind::Vf2Embed
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<StrategyKind, String> {
        StrategyKind::ALL
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("unknown layout strategy '{s}'"))
    }
}

/// Shared greedy placement core: take logical qubits in descending
/// interaction order and put each on the free seat from `allowed`
/// minimizing the interaction-weighted distance to its placed partners;
/// ties go to the seat with the higher `seat_quality`, then randomly.
fn greedy_assign(
    ctx: &PlacementContext<'_>,
    allowed: &[usize],
    seat_quality: &dyn Fn(usize) -> f64,
    rng: &mut Rng,
) -> Layout {
    let n_logical = ctx.n_logical();
    assert!(allowed.len() >= n_logical, "region smaller than circuit");
    let partners = ctx.partner_lists();
    let topo = ctx.target().topology();

    // Random jitter decides equal-interaction orderings per trial.
    let mut order: Vec<(f64, f64, usize)> = (0..n_logical)
        .map(|l| (ctx.weighted_degree(l), rng.uniform(), l))
        .collect();
    order.sort_by(|a, b| (b.0, b.1).partial_cmp(&(a.0, a.1)).expect("finite keys"));

    let mut seat_of = vec![usize::MAX; n_logical];
    let mut taken = vec![false; ctx.n_physical()];
    for &(_, _, l) in &order {
        let mut best: Option<(f64, f64, f64, usize)> = None;
        for &p in allowed {
            if taken[p] {
                continue;
            }
            let mut cost = 0.0;
            for &(partner, w) in &partners[l] {
                if seat_of[partner] != usize::MAX {
                    cost += w * f64::from(topo.distance(p, seat_of[partner]));
                }
            }
            let key = (cost, -seat_quality(p), rng.uniform(), p);
            let better = best.map_or(true, |b| {
                (key.0, key.1, key.2)
                    .partial_cmp(&(b.0, b.1, b.2))
                    .expect("finite keys")
                    .is_lt()
            });
            if better {
                best = Some(key);
            }
        }
        let (_, _, _, p) = best.expect("free seat exists");
        seat_of[l] = p;
        taken[p] = true;
    }
    Layout::from_assignment(&seat_of, ctx.n_physical())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{Calibration, EdgeCalibration, QubitCalibration};
    use mirage_circuit::generators::{ghz, qft, two_local_full};
    use mirage_topology::CouplingMap;

    fn assert_valid_bijection(layout: &Layout, n_logical: usize, n_physical: usize) {
        assert_eq!(layout.n_logical(), n_logical);
        assert_eq!(layout.n_physical(), n_physical);
        assert!(layout.is_bijective());
    }

    #[test]
    fn every_strategy_emits_valid_bijections_on_ragged_sizes() {
        // Seeded sweep over n_logical < n_physical on three topologies.
        let mut rng = Rng::new(0x9A9);
        for topo in [
            CouplingMap::line(9),
            CouplingMap::grid(3, 4),
            CouplingMap::heavy_hex(3),
        ] {
            for n_logical in [2usize, 3, 5, 7] {
                let circ = two_local_full(n_logical, 1, 7);
                let cal = Calibration::synthetic(&topo, &mut Rng::new(0xBAD));
                let target = Target::sqrt_iswap(topo.clone())
                    .with_calibration(cal)
                    .unwrap();
                let ctx = PlacementContext::new(&circ, &target);
                for kind in StrategyKind::ALL {
                    for _ in 0..4 {
                        if let Some(layout) = kind.strategy().propose(&ctx, &mut rng) {
                            assert_valid_bijection(&layout, n_logical, topo.n_qubits());
                        } else {
                            assert_eq!(
                                kind,
                                StrategyKind::Vf2Embed,
                                "only VF2 may decline to place"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degree_noise_puts_hub_on_high_degree_seat_on_uniform() {
        // A 5-qubit star circuit on a uniform 3x3 grid: with no noise to
        // rank, the hub interacts with everyone and must land on the
        // center (the only degree-4 seat).
        let mut circ = Circuit::new(5);
        for leaf in 1..5 {
            circ.cx(0, leaf);
        }
        let target = Target::sqrt_iswap(CouplingMap::grid(3, 3));
        let ctx = PlacementContext::new(&circ, &target);
        for seed in 0..5 {
            let layout = DegreeNoise
                .propose(&ctx, &mut Rng::new(seed))
                .expect("always places");
            assert_eq!(layout.phys(0), 4, "hub on the grid center");
            // Leaves sit adjacent to the hub.
            for leaf in 1..5 {
                assert!(target.topology().are_adjacent(layout.phys(leaf), 4));
            }
        }
    }

    #[test]
    fn noise_aware_prefers_the_quiet_region_and_falls_back_on_uniform() {
        // Left half of a 2x4 grid is clean, right half noisy.
        let topo = CouplingMap::grid(2, 4);
        let mut cal = Calibration::uniform(&topo);
        for q in [2, 3, 6, 7] {
            cal.set_qubit(
                q,
                QubitCalibration {
                    duration_1q: 0.0,
                    error_1q: 5e-3,
                    readout_error: 0.08,
                },
            )
            .unwrap();
        }
        for &(a, b) in topo.edges() {
            if a.max(b) % 4 >= 2 {
                cal.set_edge(
                    a,
                    b,
                    EdgeCalibration {
                        duration_factor: 1.0,
                        error_2q: 0.04,
                    },
                )
                .unwrap();
            }
        }
        let target = Target::sqrt_iswap(topo.clone())
            .with_calibration(cal)
            .unwrap();
        let circ = ghz(4);
        let ctx = PlacementContext::new(&circ, &target);
        for seed in 0..6 {
            let layout = NoiseAware
                .propose(&ctx, &mut Rng::new(seed))
                .expect("always places");
            let seats: Vec<usize> = layout.assignment();
            // The clean 2x2 block is columns 0-1: qubits {0, 1, 4, 5}.
            for &p in &seats {
                assert!(
                    [0usize, 1, 4, 5].contains(&p),
                    "seed {seed}: seat {p} outside the quiet region ({seats:?})"
                );
            }
        }
        // Uniform calibration: noise-aware must be exactly random seeding.
        let uniform = Target::sqrt_iswap(CouplingMap::grid(2, 4));
        let uctx = PlacementContext::new(&circ, &uniform);
        let a = NoiseAware.propose(&uctx, &mut Rng::new(42)).unwrap();
        let b = Random.propose(&uctx, &mut Rng::new(42)).unwrap();
        assert_eq!(a, b, "uniform targets degrade to Random");
    }

    #[test]
    fn vf2_embed_breaks_ties_by_estimated_success() {
        // One CNOT on a 3-line whose (0,1) coupler is lossy: several
        // embeddings exist, and the strategy must pick one on (1,2).
        let topo = CouplingMap::line(3);
        let mut cal = Calibration::uniform(&topo);
        cal.set_edge(
            0,
            1,
            EdgeCalibration {
                duration_factor: 1.0,
                error_2q: 0.1,
            },
        )
        .unwrap();
        cal.set_edge(
            1,
            2,
            EdgeCalibration {
                duration_factor: 1.0,
                error_2q: 1e-4,
            },
        )
        .unwrap();
        let target = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
        let circ = ghz(2);
        let ctx = PlacementContext::new(&circ, &target);
        let layout = Vf2Embed
            .propose(&ctx, &mut Rng::new(0))
            .expect("a 2-line embeds into a 3-line");
        let mut seats = layout.assignment();
        seats.sort_unstable();
        assert_eq!(seats, vec![1, 2], "must avoid the lossy (0,1) coupler");
        // And it declines when no embedding exists (full graph on a line).
        let heavy = two_local_full(4, 1, 7);
        let line = Target::sqrt_iswap(CouplingMap::line(4));
        let no_embed = PlacementContext::new(&heavy, &line);
        assert!(Vf2Embed.propose(&no_embed, &mut Rng::new(0)).is_none());
    }

    #[test]
    fn strategy_kind_round_trips_names_and_mixes() {
        for kind in StrategyKind::ALL {
            assert_eq!(kind.name().parse::<StrategyKind>().unwrap(), kind);
            let mix = kind.one_hot();
            assert_eq!(mix.iter().sum::<f64>(), 1.0);
            for t in 0..7 {
                assert_eq!(StrategyKind::for_trial(t, 7, &mix), kind);
            }
        }
        // A split mix reaches every lane on a paper-size budget.
        let mix = [0.4, 0.3, 0.2, 0.1];
        let hit: std::collections::BTreeSet<&str> = (0..20)
            .map(|t| StrategyKind::for_trial(t, 20, &mix).name())
            .collect();
        assert_eq!(hit.len(), N_STRATEGIES, "{hit:?}");
    }

    #[test]
    fn strategy_names_have_one_spelling() {
        for other in [
            "wibble",
            "noise",
            "degree",
            "hybrid",
            "degree-matched",
            "mixed",
        ] {
            assert!(other.parse::<StrategyKind>().is_err(), "{other}");
        }
        let err = "Random".parse::<StrategyKind>().unwrap_err();
        assert_eq!(err, "unknown layout strategy 'Random'");
    }

    #[test]
    fn degree_noise_keeps_the_hub_on_a_well_connected_quiet_seat() {
        // Left half of a 2x4 grid is clean, right half noisy (same device
        // as the NoiseAware test). A 4-qubit star circuit: the strategy
        // must stay inside the clean block AND put the hub on one of its
        // two degree-3 seats, rather than chase the device's degree-3
        // seats regardless of noise.
        let topo = CouplingMap::grid(2, 4);
        let mut cal = Calibration::uniform(&topo);
        for q in [2, 3, 6, 7] {
            cal.set_qubit(
                q,
                QubitCalibration {
                    duration_1q: 0.0,
                    error_1q: 5e-3,
                    readout_error: 0.08,
                },
            )
            .unwrap();
        }
        for &(a, b) in topo.edges() {
            if a.max(b) % 4 >= 2 {
                cal.set_edge(
                    a,
                    b,
                    EdgeCalibration {
                        duration_factor: 1.0,
                        error_2q: 0.04,
                    },
                )
                .unwrap();
            }
        }
        let target = Target::sqrt_iswap(topo.clone())
            .with_calibration(cal)
            .unwrap();
        let mut circ = Circuit::new(4);
        for leaf in 1..4 {
            circ.cx(0, leaf);
        }
        let ctx = PlacementContext::new(&circ, &target);
        // Region size: 4 logical + ceil(4 * 0.5) slack = 6 seats.
        assert_eq!(DegreeNoise::region_size(4, 8), 6);
        for seed in 0..6 {
            let layout = DegreeNoise
                .propose(&ctx, &mut Rng::new(seed))
                .expect("always places");
            let hub = layout.phys(0);
            // The clean columns are 0-1 ({0, 1, 4, 5}); with slack the
            // region can reach into column 2, but never the far noisy
            // column {3, 7} — and the hub must sit on a degree-3 seat of
            // the quiet side.
            assert!(
                [1usize, 5].contains(&hub),
                "seed {seed}: hub on {hub}, expected a quiet degree-3 seat"
            );
            let adjacent = (1..4)
                .filter(|&leaf| target.topology().are_adjacent(layout.phys(leaf), hub))
                .count();
            assert!(adjacent >= 2, "seed {seed}: only {adjacent} leaves by hub");
            for leaf in 0..4 {
                let p = layout.phys(leaf);
                assert!(
                    ![3usize, 7].contains(&p),
                    "seed {seed}: seat {p} in the far noisy column"
                );
            }
        }
    }

    #[test]
    fn apply_layout_relabels_wires() {
        let circ = qft(3, false);
        let layout = Layout::from_assignment(&[2, 0, 3], 4);
        let placed = apply_layout(&circ, &layout);
        assert_eq!(placed.n_qubits, 4);
        assert_eq!(placed.gate_count(), circ.gate_count());
        for (orig, moved) in circ.instructions.iter().zip(&placed.instructions) {
            for (&q, &p) in orig.qubits.iter().zip(&moved.qubits) {
                assert_eq!(layout.phys(q), p);
            }
        }
    }
}
