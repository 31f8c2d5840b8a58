//! The routing engine: SABRE with MIRAGE's intermediate layer.
//!
//! One code path serves both transpilers. With `aggression = None` the
//! engine is a faithful SABRE: front layer + lookahead window + decay,
//! inserting SWAPs until every two-qubit gate sits on a coupled pair. With
//! an aggression level set, every two-qubit gate passing from the execute
//! layer to the mapped layer goes through the **intermediate layer**
//! (paper Fig. 7): the engine compares the cost of the gate against its
//! mirror `SWAP·U` — decomposition cost from the coverage set plus the
//! lookahead distance heuristic — and accepts the mirror per Algorithm 2.
//!
//! # The hot path
//!
//! The router core runs once per refinement pass and routing trial of
//! every layout trial (~45 times per quick MIRAGE call), and only one of
//! those routes is ever output. So the core **routes without building a
//! circuit**:
//!
//! * It walks a `RouteDag`: per node two `u32` operands, a class id and
//!   an in-degree, with successors in one CSR array. The engine builds its
//!   forward and backward `RouteDag` once; the large [`Dag`] nodes (gate
//!   plus three `Vec`s) never enter the loop.
//! * It writes an **op trace** (`Op`): per emitted gate the node it came
//!   from (or a SWAP sentinel), its physical operands, its class id and its
//!   count of mirror steps. No `Gate` clone, no matrix product, no
//!   per-instruction `Vec`. Refinement reads only the final layout;
//!   routing trials keep their traces, SWAP absorption (`absorb_swaps`)
//!   and the class-priced post-selection run on traces, and
//!   `materialize` turns only the winner into a [`Circuit`].
//! * All working storage lives in a reusable [`RouterScratch`]
//!   (front/extended-set/candidate/entry buffers, the decay table, the
//!   trace). [`route_with_scratch`] threads one through repeated calls;
//!   [`crate::trials::TrialEngine`] gives each trial worker one for its
//!   run.
//! * Candidate SWAPs are ranked by **delta scoring**: the per-node
//!   residual distances of the front and extended sets are computed once
//!   per SWAP step, and each candidate re-prices only the nodes whose
//!   operands sit on the two swapped physical qubits. The extended set is
//!   reused across consecutive SWAP-only steps (front and `done` do not
//!   change between them); everything else is rebuilt every step, which
//!   at ~12 candidates and ~21 entries per step costs no more than
//!   carrying it. Only the BFS seen-marks are epoch-stamped: clearing
//!   them would cost O(DAG) per lookahead.
//! * The mirror decision reads a per-run [`PriceTable`]: pricing the gate
//!   and its mirror on the executing coupler is
//!   `class_cost[k] * edge_factor[e]`. At A0 and A3, whose acceptance
//!   ignores the costs, the lookahead is skipped altogether.
//!
//! Outputs are **bit-identical** to the pre-optimization router (kept as a
//! test-only `legacy` fixture): residual distances are small integers, so
//! front/extended sums are exact in `f64` regardless of summation order,
//! the score expressions reproduce the original floating-point operations,
//! and `materialize` applies `SWAP·` once per mirror step in the order
//! the old per-route circuits did. The golden tests
//! (`tests/golden_routing.rs`) and a randomized `route == legacy::route`
//! sweep pin this.

use crate::layout::Layout;
use crate::pricing::{ClassId, Classes, Operands, PriceTable, NO_CLASS};
use crate::target::Target;
use mirage_circuit::{Circuit, Dag, Gate, Instruction};
use mirage_math::{Mat4, Rng};
use mirage_topology::CouplingMap;
use mirage_weyl::coords::{coords_of, WeylCoord};
use std::collections::VecDeque;

/// Mirror-acceptance aggression levels (paper Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggression {
    /// Never accept a mirror.
    A0,
    /// Accept when the mirror strictly lowers the cost.
    A1,
    /// Accept when the mirror lowers or maintains the cost.
    A2,
    /// Always accept.
    A3,
}

impl Aggression {
    /// Algorithm 2: should the mirror be accepted?
    pub fn accept(self, cost_current: f64, cost_trial: f64) -> bool {
        const EPS: f64 = 1e-9;
        match self {
            Aggression::A0 => false,
            Aggression::A1 => cost_trial < cost_current - EPS,
            Aggression::A2 => cost_trial <= cost_current + EPS,
            Aggression::A3 => true,
        }
    }
}

/// Lookahead window size `|E|` of the swap ranker (the paper's stated
/// SABRE configuration).
const EXTENDED_SET_SIZE: usize = 20;
/// Lookahead weight `W_E`.
const EXTENDED_SET_WEIGHT: f64 = 0.5;
/// Decay increment per SWAP on a qubit.
const DECAY_RATE: f64 = 0.001;
/// Decay resets after this many consecutive SWAPs (and on every gate
/// mapping).
const DECAY_RESET: usize = 5;
/// Lookahead window size for the mirror decision: deeper than the swap
/// ranker's, because mirrors are rarer, higher-stakes moves.
const MIRROR_LOOKAHEAD: usize = 40;

/// The routing engine's settings that callers vary. The SABRE constants
/// (`|E| = 20`, `W_E = 0.5`, decay 0.001 with a reset every five steps or
/// gate mapping, and the mirror decision's 40-node lookahead) are fixed.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Mirror aggression; `None` = plain SABRE (no intermediate layer).
    pub aggression: Option<Aggression>,
    /// Weight coupling the distance heuristic into the mirror decision
    /// (decomposition cost is in duration units, distance in hops). The
    /// shipped default (2.0) comes from the `paper` bin's `lambda` case
    /// (`BENCH_paper.json`): past λ = 2 no circuit's depth moves.
    pub mirror_heuristic_weight: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            aggression: None,
            mirror_heuristic_weight: 2.0,
        }
    }
}

/// Output of one routing run.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The routed circuit on *physical* qubits (`topo.n_qubits()` wide).
    pub circuit: Circuit,
    /// Layout at circuit start.
    pub initial_layout: Layout,
    /// Layout at circuit end (routing and mirrors permute qubits).
    pub final_layout: Layout,
    /// SWAP gates inserted.
    pub swaps_inserted: usize,
    /// Mirror gates accepted (MIRAGE only).
    pub mirrors_accepted: usize,
    /// Two-qubit gates that went through the intermediate layer.
    pub mirror_candidates: usize,
}

impl RoutedCircuit {
    /// Mirror acceptance rate in `[0, 1]`.
    pub fn mirror_rate(&self) -> f64 {
        if self.mirror_candidates == 0 {
            0.0
        } else {
            self.mirrors_accepted as f64 / self.mirror_candidates as f64
        }
    }

    /// Natural log of the estimated success probability under the target's
    /// calibration: per-application edge errors over every routed gate plus
    /// readout errors on the final physical homes of the logical qubits
    /// (`final_layout.assignment()`). This is the quantity
    /// [`crate::trials::Metric::EstimatedSuccess`] post-selects on (higher
    /// is better).
    pub fn log_success(&self, target: &Target) -> f64 {
        target.log_success_under(
            &target.calibration_snapshot(),
            &self.circuit,
            self.final_layout.real_assignment(),
        )
    }

    /// `exp` of [`RoutedCircuit::log_success`]: the estimated probability
    /// that the whole routed circuit, including readout, succeeds.
    pub fn estimated_success(&self, target: &Target) -> f64 {
        self.log_success(target).exp()
    }
}

/// Pre-computed per-node canonical coordinates for the two-qubit nodes of a
/// DAG (1Q nodes get `None`).
pub fn node_coords(dag: &Dag) -> Vec<Option<WeylCoord>> {
    dag.nodes
        .iter()
        .map(|n| {
            if n.gate.is_two_qubit() {
                Some(coords_of(&n.gate.matrix2()))
            } else {
                None
            }
        })
        .collect()
}

/// The second operand of a single-qubit node or op.
pub(crate) const NO_QUBIT: u32 = u32::MAX;

/// The [`Op::source`] of a bare SWAP: one the router inserted, or a DAG
/// node whose gate is [`Gate::Swap`].
pub(crate) const SWAP_OP: u32 = u32::MAX;

/// The trace source of gate `i`: [`SWAP_OP`] when the gate is a bare SWAP,
/// which absorption then treats like an inserted one.
fn source(gate: &Gate, i: usize) -> u32 {
    if matches!(gate, Gate::Swap) {
        SWAP_OP
    } else {
        u32::try_from(i).expect("gate index fits u32")
    }
}

/// One [`RouteDag`] node: what the router reads of a gate.
#[derive(Debug, Clone, Copy)]
struct RouteNode {
    /// Logical operands; `[q, NO_QUBIT]` for a single-qubit gate.
    qubits: [u32; 2],
    /// Coordinate class ([`NO_CLASS`] for a single-qubit gate).
    class: ClassId,
    /// The [`Op::source`] the node emits: its id, or [`SWAP_OP`].
    source: u32,
    /// Number of predecessors.
    indeg: u32,
}

/// The router's compact view of a circuit DAG: per node its operands,
/// class id and in-degree, and the successor lists in one CSR array.
#[derive(Debug, Clone)]
pub(crate) struct RouteDag {
    n_qubits: usize,
    nodes: Vec<RouteNode>,
    /// Node `i`'s successors are `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
}

impl RouteDag {
    /// The compact form of `dag`, whose node `i` has class `classes[i]`.
    ///
    /// # Panics
    ///
    /// Panics on a gate of more than two qubits.
    pub(crate) fn new(dag: &Dag, classes: &[ClassId]) -> RouteDag {
        assert_eq!(dag.len(), classes.len(), "one class id per node");
        let index = |x: usize| u32::try_from(x).expect("DAG fits u32 indices");
        let mut nodes = Vec::with_capacity(dag.len());
        let mut succ_start = Vec::with_capacity(dag.len() + 1);
        let mut succ = Vec::new();
        succ_start.push(0);
        for (n, &class) in dag.nodes.iter().zip(classes) {
            let qubits = match n.qubits[..] {
                [a] => [index(a), NO_QUBIT],
                [a, b] => [index(a), index(b)],
                _ => panic!("the router handles one- and two-qubit gates only"),
            };
            nodes.push(RouteNode {
                qubits,
                class,
                source: source(&n.gate, n.id),
                indeg: index(n.preds.len()),
            });
            succ.extend(n.succs.iter().map(|&s| index(s)));
            succ_start.push(index(succ.len()));
        }
        RouteDag {
            n_qubits: dag.n_qubits,
            nodes,
            succ_start,
            succ,
        }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn succs(&self, id: usize) -> &[u32] {
        &self.succ[self.succ_start[id] as usize..self.succ_start[id + 1] as usize]
    }

    fn is_2q(&self, id: usize) -> bool {
        self.nodes[id].qubits[1] != NO_QUBIT
    }

    /// The physical homes of a two-qubit node's operands under `layout`.
    fn homes(&self, id: usize, layout: &Layout) -> (usize, usize) {
        let [a, b] = self.nodes[id].qubits;
        (layout.phys(a as usize), layout.phys(b as usize))
    }
}

/// One gate of a routed circuit, before it is a [`Circuit`] instruction.
///
/// [`materialize`] builds the instruction: the source gate (or `SWAP` for
/// [`SWAP_OP`]) with `SWAP·` applied `mirrors` times, on `qubits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    /// Index of the source gate, or [`SWAP_OP`].
    pub(crate) source: u32,
    /// Physical operands; `[p, NO_QUBIT]` for a single-qubit gate.
    pub(crate) qubits: [u32; 2],
    /// Coordinate class of the emitted gate ([`NO_CLASS`] for 1Q).
    pub(crate) class: ClassId,
    /// Mirror steps: the router's accepted mirror, then one per SWAP
    /// absorbed into the gate.
    pub(crate) mirrors: u32,
}

impl Op {
    fn new(source: u32, (a, b): Operands, class: ClassId) -> Op {
        let q = |x: usize| u32::try_from(x).expect("device fits u32 indices");
        Op {
            source,
            qubits: [q(a), b.map_or(NO_QUBIT, q)],
            class,
            mirrors: 0,
        }
    }

    /// The op's operands, as the scorers read them.
    pub(crate) fn operands(&self) -> Operands {
        let [a, b] = self.qubits;
        (a as usize, (b != NO_QUBIT).then_some(b as usize))
    }
}

/// Counters of one routing run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RouteCounts {
    pub(crate) swaps_inserted: usize,
    pub(crate) mirrors_accepted: usize,
    pub(crate) mirror_candidates: usize,
}

impl RouteCounts {
    /// Book `fused` SWAPs absorbed into mirror blocks.
    pub(crate) fn absorb(&mut self, fused: usize) {
        self.swaps_inserted -= fused;
        self.mirrors_accepted += fused;
        self.mirror_candidates += fused;
    }

    /// The routed circuit these counts describe.
    pub(crate) fn routed(
        self,
        circuit: Circuit,
        initial_layout: Layout,
        final_layout: Layout,
    ) -> RoutedCircuit {
        RoutedCircuit {
            circuit,
            initial_layout,
            final_layout,
            swaps_inserted: self.swaps_inserted,
            mirrors_accepted: self.mirrors_accepted,
            mirror_candidates: self.mirror_candidates,
        }
    }
}

/// One scored node of the current SWAP step: its operands' physical homes
/// and residual distance under the current layout, tagged front/extended.
#[derive(Debug, Clone, Copy)]
struct ScoreEntry {
    pa: usize,
    pb: usize,
    dist: i64,
    in_front: bool,
}

/// Reusable working storage for [`route_with_scratch`].
///
/// A scratch grows to the high-water mark of the DAGs and devices it has
/// routed and never shrinks; reusing one across calls makes the router's
/// steady state allocation-free. Scratches carry **no routing state and no
/// cost state** between calls — only buffer capacity; every price comes
/// from the caller's [`PriceTable`] — so reuse can never change results.
/// Every buffer is refilled per call or per SWAP step. Only the BFS
/// seen-marks are epoch-stamped (bumping a counter invalidates them in
/// O(1)), because clearing them would cost O(DAG) on every lookahead.
///
/// [`crate::trials::TrialEngine`] gives each trial worker one for its
/// whole run; standalone callers can hold one per thread. A scratch
/// is cheap to create (`Default`), so the convenience wrapper [`route`]
/// simply brings a fresh one.
#[derive(Debug, Default)]
pub struct RouterScratch {
    // The op trace of the latest route.
    trace: Vec<Op>,
    // Per-route bookkeeping (cleared and refilled each call).
    indeg: Vec<u32>,
    done: Vec<bool>,
    front: Vec<usize>,
    // Per-qubit decay, refilled with 1.0 on every reset.
    decay: Vec<f64>,
    // Mirror-decision probe front and the shared extended-set BFS.
    probe: Vec<usize>,
    ext: Vec<usize>,
    queue: VecDeque<usize>,
    node_mark: Vec<u64>,
    node_epoch: u64,
    // Per-SWAP-step candidates, score entries and the phys→entry inverted
    // index, all rebuilt every step.
    candidates: Vec<(usize, usize)>,
    entries: Vec<ScoreEntry>,
    touch: Vec<Vec<u32>>,
    // Score-tie buffer fed to the RNG.
    best: Vec<(usize, usize)>,
}

impl RouterScratch {
    /// A fresh scratch (no capacity reserved yet; buffers grow on first
    /// use and are retained across calls).
    pub fn new() -> RouterScratch {
        RouterScratch::default()
    }

    /// The op trace of the latest route.
    pub(crate) fn trace(&self) -> &[Op] {
        &self.trace
    }

    /// Grow the per-node and per-qubit arrays to fit a routing problem.
    fn prepare(&mut self, n_nodes: usize, n_phys: usize) {
        if self.node_mark.len() < n_nodes {
            self.node_mark.resize(n_nodes, 0);
        }
        if self.touch.len() < n_phys {
            self.touch.resize_with(n_phys, Vec::new);
        }
    }
}

/// The lookahead window: up to `limit` unexecuted two-qubit descendants of
/// `seeds`, breadth-first, into the reusable `out` buffer. Identical
/// traversal (and therefore output order) to the seed implementation's
/// `HashSet`/`VecDeque` version; the seen-set is an epoch-stamped array.
#[allow(clippy::too_many_arguments)]
fn extended_set_into(
    dag: &RouteDag,
    seeds: &[usize],
    done: &[bool],
    limit: usize,
    node_mark: &mut [u64],
    node_epoch: &mut u64,
    queue: &mut VecDeque<usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    queue.clear();
    *node_epoch += 1;
    let ep = *node_epoch;
    for &id in seeds {
        node_mark[id] = ep;
        queue.push_back(id);
    }
    while let Some(id) = queue.pop_front() {
        if out.len() >= limit {
            break;
        }
        for &s in dag.succs(id) {
            let s = s as usize;
            if node_mark[s] != ep {
                node_mark[s] = ep;
                if !done[s] {
                    if dag.is_2q(s) {
                        out.push(s);
                        if out.len() >= limit {
                            break;
                        }
                    }
                    queue.push_back(s);
                }
            }
        }
    }
}

/// Where physical qubit `x` ends up if the occupants of `p1` and `p2`
/// trade places. The single remap every delta computation goes through —
/// the convention must stay identical everywhere or the bit-identity
/// contract breaks.
#[inline]
fn swapped_home(x: usize, p1: usize, p2: usize) -> usize {
    if x == p1 {
        p2
    } else if x == p2 {
        p1
    } else {
        x
    }
}

/// One pass over `ids`: the summed residual distances (hops beyond
/// adjacency) of their 2Q nodes under `layout`, plus the delta that
/// swapping the occupants of `p1`/`p2` would apply — accumulated only over
/// the nodes whose operands sit on `p1` or `p2` (a node with *both*
/// operands there keeps its distance; [`swapped_home`] handles that
/// naturally). 1Q nodes contribute nothing, matching the legacy
/// `lookahead_sum`'s zero-distance convention. Sums are exact integers,
/// so `sum` and `sum + delta` reproduce two full walks bit-for-bit.
fn sum_and_swap_delta(
    dag: &RouteDag,
    ids: &[usize],
    layout: &Layout,
    topo: &CouplingMap,
    p1: usize,
    p2: usize,
) -> (i64, i64) {
    let mut sum = 0i64;
    let mut delta = 0i64;
    for &nid in ids {
        if !dag.is_2q(nid) {
            continue;
        }
        let (pa, pb) = dag.homes(nid, layout);
        let d = i64::from(topo.distance(pa, pb).saturating_sub(1));
        sum += d;
        if pa == p1 || pa == p2 || pb == p1 || pb == p2 {
            let dm = i64::from(
                topo.distance(swapped_home(pa, p1, p2), swapped_home(pb, p1, p2))
                    .saturating_sub(1),
            );
            delta += dm - d;
        }
    }
    (sum, delta)
}

/// Route a circuit DAG onto `target` starting from `layout`.
///
/// `coords` holds the Weyl coordinates of every node (`None` for 1Q
/// nodes, see [`node_coords`]); the mirror decision prices them under the
/// target's current calibration. `rng` only breaks score ties, so two runs
/// with equal seeds are identical.
///
/// Allocates a fresh [`RouterScratch`] per call; hot loops should hold one
/// and call [`route_with_scratch`] instead.
pub fn route(
    dag: &Dag,
    coords: &[Option<WeylCoord>],
    target: &Target,
    layout: Layout,
    config: &RouterConfig,
    rng: &mut Rng,
) -> RoutedCircuit {
    route_with_scratch(
        dag,
        coords,
        target,
        layout,
        config,
        rng,
        &mut RouterScratch::new(),
    )
}

/// [`route`] with caller-provided working storage. Results are
/// independent of the scratch's history (see [`RouterScratch`]).
///
/// A thin wrapper: it interns `coords` into classes, prices them in a
/// fresh [`PriceTable`] under the target's current calibration, builds the
/// `RouteDag`, routes, and materializes the trace from `dag`'s gates.
/// [`crate::trials::TrialEngine`] builds its classes and DAGs once per
/// engine and its table once per run instead.
pub fn route_with_scratch(
    dag: &Dag,
    coords: &[Option<WeylCoord>],
    target: &Target,
    layout: Layout,
    config: &RouterConfig,
    rng: &mut Rng,
    scratch: &mut RouterScratch,
) -> RoutedCircuit {
    let (classes, node_classes) = Classes::build(coords);
    let prices = PriceTable::new(target, &classes, target.calibration_snapshot());
    let route_dag = RouteDag::new(dag, &node_classes);
    let mut final_layout = layout.clone();
    let counts = route_trace(
        &route_dag,
        target.topology(),
        &prices,
        &mut final_layout,
        config,
        rng,
        scratch,
    );
    let (circuit, _) = materialize(scratch.trace(), target.n_qubits(), |i| &dag.nodes[i].gate);
    counts.routed(circuit, layout, final_layout)
}

/// The router core: route `dag` onto `topo` from `layout` (updated in
/// place to the final layout), pricing the mirror decision from `prices`.
/// The op trace lands in [`RouterScratch::trace`]; nothing else is built.
pub(crate) fn route_trace(
    dag: &RouteDag,
    topo: &CouplingMap,
    prices: &PriceTable,
    layout: &mut Layout,
    config: &RouterConfig,
    rng: &mut Rng,
    scratch: &mut RouterScratch,
) -> RouteCounts {
    let n_phys = topo.n_qubits();
    assert!(dag.n_qubits <= n_phys, "circuit larger than device");

    scratch.prepare(dag.len(), n_phys);
    let RouterScratch {
        trace,
        indeg,
        done,
        front,
        decay,
        probe,
        ext,
        queue,
        node_mark,
        node_epoch,
        candidates,
        entries,
        touch,
        best,
    } = scratch;

    trace.clear();
    indeg.clear();
    indeg.extend(dag.nodes.iter().map(|n| n.indeg));
    done.clear();
    done.resize(dag.len(), false);
    front.clear();
    front.extend((0..dag.len()).filter(|&id| indeg[id] == 0));
    decay.clear();
    decay.resize(n_phys, 1.0);
    let mut counts = RouteCounts::default();
    let mut swaps_since_reset = 0usize;
    let mut stall_swaps = 0usize;
    // `ext` holds the swap ranker's extended set of the current front
    // until a gate executes (front and `done` are unchanged until then).
    let mut ext_current = false;

    // Upper bound to catch non-termination bugs early (generously above any
    // legitimate routing length).
    let swap_budget = 64 + 16 * n_phys * dag.len().max(1);

    while !front.is_empty() {
        // --- Execute layer: run everything executable. ---
        let mut executed_any = false;
        let mut i = 0;
        while i < front.len() {
            let id = front[i];
            let node = dag.nodes[id];
            let pair = if node.qubits[1] == NO_QUBIT {
                None
            } else {
                let (p1, p2) = dag.homes(id, layout);
                if !topo.are_adjacent(p1, p2) {
                    i += 1;
                    continue;
                }
                Some((p1, p2))
            };
            front.swap_remove(i);
            done[id] = true;

            if let Some((p1, p2)) = pair {
                let k = node.class;
                let mut op = Op::new(node.source, (p1, Some(p2)), k);
                if let Some(aggr) = config.aggression {
                    counts.mirror_candidates += 1;
                    let accepted = match aggr {
                        // Acceptance ignores the costs at these levels.
                        Aggression::A0 => false,
                        Aggression::A3 => true,
                        Aggression::A1 | Aggression::A2 => {
                            let km = prices.mirror(k);
                            // Price both options on the edge the gate
                            // executes on: a calibrated slow coupler scales
                            // dc and dcm alike, which amplifies their
                            // *difference* against the hop-denominated
                            // routing term — on expensive edges the
                            // decomposition delta dominates, exactly the
                            // effect the calibration-skew experiment sweeps.
                            let dc = prices.edge_cost(k, p1, p2);
                            let dcm = prices.edge_cost(km, p1, p2);

                            // Lookahead impact: the *remaining* front plus
                            // the successors this gate would release
                            // (exactly one predecessor left — this node
                            // still counts).
                            probe.clear();
                            probe.extend_from_slice(front);
                            for &s in dag.succs(id) {
                                let s = s as usize;
                                if !done[s] && indeg[s] == 1 {
                                    probe.push(s);
                                }
                            }
                            // The mirror decision looks deeper than the
                            // swap ranker: mirrors are rarer, higher-stakes
                            // moves.
                            extended_set_into(
                                dag,
                                probe,
                                done,
                                MIRROR_LOOKAHEAD,
                                node_mark,
                                node_epoch,
                                queue,
                                ext,
                            );
                            // The mirror decision uses *summed* distances,
                            // not the swap-ranking average: the
                            // decomposition-cost delta is an absolute
                            // duration, so the routing term must be
                            // absolute too. Both sums are computed in one
                            // pass: residual distances are integers (exact
                            // in f64), so "current sum" plus "delta over the
                            // nodes touching p1/p2 under the mirrored
                            // mapping" reproduces the two-walk result
                            // bit-for-bit.
                            let (f_sum, f_delta) =
                                sum_and_swap_delta(dag, probe, layout, topo, p1, p2);
                            let (e_sum, e_delta) =
                                sum_and_swap_delta(dag, ext, layout, topo, p1, p2);
                            let h_plain = f_sum as f64 + EXTENDED_SET_WEIGHT * e_sum as f64;
                            let h_mirror = (f_sum + f_delta) as f64
                                + EXTENDED_SET_WEIGHT * ((e_sum + e_delta) as f64);

                            let lambda = config.mirror_heuristic_weight;
                            let cost_current = dc + lambda * h_plain;
                            let cost_trial = dcm + lambda * h_mirror;
                            aggr.accept(cost_current, cost_trial)
                        }
                    };
                    if accepted {
                        counts.mirrors_accepted += 1;
                        op.class = prices.mirror(k);
                        op.mirrors = 1;
                        layout.swap_physical(p1, p2);
                    }
                }
                trace.push(op);
            } else {
                let p = layout.phys(node.qubits[0] as usize);
                trace.push(Op::new(node.source, (p, None), NO_CLASS));
            }

            // Release successors into the front layer.
            for &s in dag.succs(id) {
                let s = s as usize;
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    front.push(s);
                }
            }
            executed_any = true;
            ext_current = false;
            // "Reset after every five steps or gate mapping."
            decay.fill(1.0);
            swaps_since_reset = 0;
            stall_swaps = 0;
            i = 0; // restart scan: new nodes may be executable
        }
        if front.is_empty() {
            break;
        }
        if executed_any {
            continue;
        }

        // --- SWAP insertion: no gate is executable. ---
        assert!(
            counts.swaps_inserted < swap_budget,
            "routing exceeded its swap budget — probable non-termination"
        );

        if !ext_current {
            extended_set_into(
                dag,
                front,
                done,
                EXTENDED_SET_SIZE,
                node_mark,
                node_epoch,
                queue,
                ext,
            );
            ext_current = true;
        }

        // Base scores for this step, computed once: per-node residual
        // distances over the front's 2Q nodes and the extended set, plus a
        // phys→entry inverted index so each candidate re-prices only the
        // nodes whose operands sit on its two qubits. Distances are
        // integers, so base-plus-delta sums are exact — each candidate's
        // score is bit-identical to a full re-walk under the trial layout.
        // The candidate SWAPs are the coupling edges incident to the home
        // of any front 2Q operand, sorted and deduplicated (the order the
        // seed's `BTreeSet` produced).
        candidates.clear();
        entries.clear();
        touch.iter_mut().for_each(Vec::clear);
        let mut n_f = 0usize;
        let mut f_base = 0i64;
        let mut e_base = 0i64;
        let front_2q = front.iter().copied().filter(|&id| dag.is_2q(id));
        for (in_front, id) in front_2q
            .map(|id| (true, id))
            .chain(ext.iter().map(|&id| (false, id)))
        {
            let (pa, pb) = dag.homes(id, layout);
            let d = i64::from(topo.distance(pa, pb).saturating_sub(1));
            if in_front {
                n_f += 1;
                f_base += d;
                for p in [pa, pb] {
                    candidates.extend(topo.neighbors(p).iter().map(|&q| (p.min(q), p.max(q))));
                }
            } else {
                e_base += d;
            }
            let ei = entries.len() as u32;
            entries.push(ScoreEntry {
                pa,
                pb,
                dist: d,
                in_front,
            });
            touch[pa].push(ei);
            touch[pb].push(ei);
        }
        candidates.sort_unstable();
        candidates.dedup();
        debug_assert!(
            !candidates.is_empty(),
            "connected topology yields candidates"
        );
        let n_e = ext.len();

        best.clear();
        let mut best_score = f64::INFINITY;
        for &(p1, p2) in candidates.iter() {
            // An entry sits in both lists only when its operands are
            // exactly {p1, p2}; the SWAP keeps its distance, so its two
            // visits each add a zero delta.
            let mut df = 0i64;
            let mut de = 0i64;
            for &ei in touch[p1].iter().chain(&touch[p2]) {
                let e = entries[ei as usize];
                let pa = swapped_home(e.pa, p1, p2);
                let pb = swapped_home(e.pb, p1, p2);
                let delta = i64::from(topo.distance(pa, pb).saturating_sub(1)) - e.dist;
                if e.in_front {
                    df += delta;
                } else {
                    de += delta;
                }
            }
            let f_term = if n_f == 0 {
                0.0
            } else {
                (f_base + df) as f64 / n_f as f64
            };
            let e_term = if n_e == 0 {
                0.0
            } else {
                (e_base + de) as f64 / n_e as f64
            };
            let h = f_term + EXTENDED_SET_WEIGHT * e_term;
            let score = h * decay[p1].max(decay[p2]);
            if score < best_score - 1e-12 {
                best_score = score;
                best.clear();
                best.push((p1, p2));
            } else if (score - best_score).abs() <= 1e-12 {
                best.push((p1, p2));
            }
        }
        let &(p1, p2) = rng.choose(best);

        // Anti-livelock: after long swap droughts, force progress along the
        // shortest path of the first front gate.
        stall_swaps += 1;
        let (p1, p2) = if stall_swaps > 8 * n_phys + 32 {
            force_step(dag, front, layout, topo)
        } else {
            (p1, p2)
        };

        trace.push(Op::new(SWAP_OP, (p1, Some(p2)), Classes::SWAP));
        layout.swap_physical(p1, p2);
        counts.swaps_inserted += 1;
        decay[p1] += DECAY_RATE;
        decay[p2] += DECAY_RATE;
        swaps_since_reset += 1;
        if swaps_since_reset >= DECAY_RESET {
            decay.fill(1.0);
            swaps_since_reset = 0;
        }
    }
    counts
}

/// Build the circuit an op trace describes on `n_qubits` physical qubits,
/// with the class id of every instruction. `gate(i)` is the gate of
/// source `i`; [`SWAP_OP`] ops start from [`Gate::Swap`]. An op with
/// mirror steps becomes `Unitary2(SWAP·…·SWAP·U)`, one `SWAP·` per step
/// applied left to right — the exact products the router's mirror and
/// each absorbed SWAP used to compute one at a time.
pub(crate) fn materialize<'g>(
    ops: &[Op],
    n_qubits: usize,
    gate: impl Fn(usize) -> &'g Gate,
) -> (Circuit, Vec<ClassId>) {
    let instructions = ops
        .iter()
        .map(|op| {
            let source = if op.source == SWAP_OP {
                &Gate::Swap
            } else {
                gate(op.source as usize)
            };
            let gate = if op.mirrors == 0 {
                source.clone()
            } else {
                let mut u = source.matrix2();
                for _ in 0..op.mirrors {
                    u = Mat4::swap().mul(&u);
                }
                Gate::Unitary2(u)
            };
            let qubits = match op.operands() {
                (a, None) => vec![a],
                (a, Some(b)) => vec![a, b],
            };
            Instruction { gate, qubits }
        })
        .collect();
    let circuit = Circuit {
        n_qubits,
        instructions,
    };
    (circuit, ops.iter().map(|op| op.class).collect())
}

/// Peephole "mirage SWAP" absorption on an op trace over `n_qubits`
/// physical qubits (paper §I: a SWAP absorbed into an adjacent
/// computational gate during decomposition). Whenever a bare SWAP on
/// `(p,q)` immediately follows a two-qubit gate on the same pair (no
/// intervening gate touching `p` or `q`), the SWAP becomes one more mirror
/// step of that gate, whose class moves to `mirror(class)`; chains fuse
/// too, since the fused gate remains the latest on the pair. In the
/// √iSWAP basis this is always a win: any fused block costs at most 3
/// applications while the separate pair costs at least 1 + 3.
///
/// One forward pass compacting `ops` in place: fusing only removes a SWAP
/// and rewrites an earlier op, which can never create a new adjacency for
/// an earlier op, so a single pass reaches the fixpoint
/// (`legacy::absorb_adjacent_swaps` is kept to prove the equivalence).
/// Returns the number of SWAPs absorbed. The rewrite is local — wire
/// semantics are unchanged, so layouts need no adjustment.
pub(crate) fn absorb_swaps(
    ops: &mut Vec<Op>,
    n_qubits: usize,
    mirror: impl Fn(ClassId) -> ClassId,
) -> usize {
    const NONE: usize = usize::MAX;
    // last[q] = index (into the kept prefix) of the latest op on q.
    let mut last = vec![NONE; n_qubits];
    let mut kept = 0usize;
    for i in 0..ops.len() {
        let op = ops[i];
        if op.source == SWAP_OP && op.mirrors == 0 {
            let a = last[op.qubits[0] as usize];
            // The latest op on both p and q touches both, so it is a
            // two-qubit gate on exactly this pair.
            if a != NONE && a == last[op.qubits[1] as usize] {
                let prev = &mut ops[a];
                prev.mirrors += 1;
                prev.class = mirror(prev.class);
                continue;
            }
        }
        for q in op.qubits.into_iter().filter(|&q| q != NO_QUBIT) {
            last[q as usize] = kept;
        }
        ops[kept] = op;
        kept += 1;
    }
    let fused = ops.len() - kept;
    ops.truncate(kept);
    fused
}

/// Peephole "mirage SWAP" absorption on a circuit (paper §I): every SWAP
/// that immediately follows a two-qubit gate on the same pair fuses into
/// it as the mirror block `SWAP·U`; chains fuse too. Returns the rewritten
/// circuit and the number of SWAPs absorbed.
///
/// The engine's trace absorption, run on the trace whose op `i` is
/// instruction `i` and materialized from the circuit's own gates.
pub fn absorb_adjacent_swaps(c: &Circuit) -> (Circuit, usize) {
    let mut ops: Vec<Op> = c
        .instructions
        .iter()
        .enumerate()
        .map(|(i, instr)| Op::new(source(&instr.gate, i), instr.operands(), NO_CLASS))
        .collect();
    let fused = absorb_swaps(&mut ops, c.n_qubits, |k| k);
    let (circuit, _) = materialize(&ops, c.n_qubits, |i| &c.instructions[i].gate);
    (circuit, fused)
}

/// Deterministic progress step: the first SWAP along the shortest path
/// between the operands of the first front-layer 2Q gate.
fn force_step(
    dag: &RouteDag,
    front: &[usize],
    layout: &Layout,
    topo: &CouplingMap,
) -> (usize, usize) {
    let id = front
        .iter()
        .copied()
        .find(|&id| dag.is_2q(id))
        .expect("stalled front contains a 2Q gate");
    let (src, dst) = dag.homes(id, layout);
    // First hop of a BFS shortest path from src toward dst.
    let next = topo
        .neighbors(src)
        .iter()
        .copied()
        .min_by_key(|&nb| topo.distance(nb, dst))
        .expect("connected topology");
    (src.min(next), src.max(next))
}

/// The pre-optimization router, kept verbatim as a **test-only** reference
/// fixture.
///
/// `legacy::route` clones the full [`Layout`] and re-scores the entire
/// front and extended set for every candidate SWAP, rebuilds
/// `HashSet`/`VecDeque`/`BTreeSet` scratch on every step, and walks the
/// mirror decision's lookahead twice; `legacy::absorb_adjacent_swaps`
/// re-scans the instruction list inside a fixpoint loop. After three
/// re-anchor cycles of golden fingerprints carried the equivalence proof,
/// the module was compiled out of production builds; the randomized
/// `route_matches_legacy_*` sweeps below keep the bit-identity property
/// under test, and `tests/golden_routing.rs` pins the outputs across
/// releases.
#[cfg(test)]
pub mod legacy {
    use super::*;
    use mirage_weyl::mirror::mirror_coord;

    /// The pre-optimization [`super::route`]: per-candidate layout clones,
    /// full re-scoring, per-step scratch allocation. Bit-identical output,
    /// several times slower; see the [module docs](self).
    pub fn route(
        dag: &Dag,
        coords: &[Option<WeylCoord>],
        target: &Target,
        layout: Layout,
        config: &RouterConfig,
        rng: &mut Rng,
    ) -> RoutedCircuit {
        let topo = target.topology();
        let n_phys = topo.n_qubits();
        assert!(dag.n_qubits <= n_phys, "circuit larger than device");
        let initial_layout = layout.clone();
        let mut layout = layout;
        let mut out = Circuit::new(n_phys);

        let mut indeg = dag.indegrees();
        let mut front: Vec<usize> = dag.front_layer();
        let mut done = vec![false; dag.len()];
        let mut decay = vec![1.0f64; n_phys];
        let mut swaps_since_reset = 0usize;
        let mut swaps_inserted = 0usize;
        let mut mirrors_accepted = 0usize;
        let mut mirror_candidates = 0usize;
        let mut stall_swaps = 0usize;

        let swap_budget = 64 + 16 * n_phys * dag.len().max(1);

        while !front.is_empty() {
            // --- Execute layer: run everything executable. ---
            let mut executed_any = false;
            let mut i = 0;
            while i < front.len() {
                let id = front[i];
                let node = &dag.nodes[id];
                let executable = match node.qubits.len() {
                    1 => true,
                    2 => {
                        let p1 = layout.phys(node.qubits[0]);
                        let p2 = layout.phys(node.qubits[1]);
                        topo.are_adjacent(p1, p2)
                    }
                    _ => unreachable!(),
                };
                if !executable {
                    i += 1;
                    continue;
                }
                front.swap_remove(i);
                done[id] = true;

                match node.qubits.len() {
                    1 => {
                        out.push(node.gate.clone(), &[layout.phys(node.qubits[0])]);
                    }
                    2 => {
                        let (l1, l2) = (node.qubits[0], node.qubits[1]);
                        let (p1, p2) = (layout.phys(l1), layout.phys(l2));
                        let mut accepted = false;
                        if let Some(aggr) = config.aggression {
                            mirror_candidates += 1;
                            let w = coords[id].expect("2Q node has coords");
                            let wm = mirror_coord(&w);
                            let factor =
                                target.calibration().edge_or_nominal(p1, p2).duration_factor;
                            let dc = target.gate_cost(&w) * factor;
                            let dcm = target.gate_cost(&wm) * factor;

                            let mut probe = front.clone();
                            release_successors(dag, id, &indeg, &mut probe, &done);
                            let ext = extended_set(dag, &probe, &done, MIRROR_LOOKAHEAD);
                            let h_plain = lookahead_sum(&probe, &ext, dag, &layout, topo);
                            let mut mirrored = layout.clone();
                            mirrored.swap_physical(p1, p2);
                            let h_mirror = lookahead_sum(&probe, &ext, dag, &mirrored, topo);

                            let lambda = config.mirror_heuristic_weight;
                            let cost_current = dc + lambda * h_plain;
                            let cost_trial = dcm + lambda * h_mirror;
                            if aggr.accept(cost_current, cost_trial) {
                                accepted = true;
                                mirrors_accepted += 1;
                                let u = node.gate.matrix2();
                                out.push(Gate::Unitary2(Mat4::swap().mul(&u)), &[p1, p2]);
                                layout.swap_physical(p1, p2);
                            }
                        }
                        if !accepted {
                            out.push(node.gate.clone(), &[p1, p2]);
                        }
                    }
                    _ => unreachable!(),
                }

                for &s in &dag.nodes[id].succs {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        front.push(s);
                    }
                }
                executed_any = true;
                decay.iter_mut().for_each(|d| *d = 1.0);
                swaps_since_reset = 0;
                stall_swaps = 0;
                i = 0;
            }
            if front.is_empty() {
                break;
            }
            if executed_any {
                continue;
            }

            // --- SWAP insertion: no gate is executable. ---
            assert!(
                swaps_inserted < swap_budget,
                "routing exceeded its swap budget — probable non-termination"
            );

            let ext = extended_set(dag, &front, &done, EXTENDED_SET_SIZE);
            let candidates = candidate_swaps(dag, &front, &layout, topo);
            debug_assert!(
                !candidates.is_empty(),
                "connected topology yields candidates"
            );

            let mut best: Vec<(usize, usize)> = Vec::new();
            let mut best_score = f64::INFINITY;
            for &(p1, p2) in &candidates {
                let mut trial = layout.clone();
                trial.swap_physical(p1, p2);
                let h = heuristic(&front, &ext, dag, &trial, topo);
                let score = h * decay[p1].max(decay[p2]);
                if score < best_score - 1e-12 {
                    best_score = score;
                    best.clear();
                    best.push((p1, p2));
                } else if (score - best_score).abs() <= 1e-12 {
                    best.push((p1, p2));
                }
            }
            let &(p1, p2) = rng.choose(&best);

            stall_swaps += 1;
            let (p1, p2) = if stall_swaps > 8 * n_phys + 32 {
                force_step(dag, &front, &layout, topo)
            } else {
                (p1, p2)
            };

            out.push(Gate::Swap, &[p1, p2]);
            layout.swap_physical(p1, p2);
            swaps_inserted += 1;
            decay[p1] += DECAY_RATE;
            decay[p2] += DECAY_RATE;
            swaps_since_reset += 1;
            if swaps_since_reset >= DECAY_RESET {
                decay.iter_mut().for_each(|d| *d = 1.0);
                swaps_since_reset = 0;
            }
        }

        RoutedCircuit {
            circuit: out,
            initial_layout,
            final_layout: layout,
            swaps_inserted,
            mirrors_accepted,
            mirror_candidates,
        }
    }

    /// The pre-optimization [`super::absorb_adjacent_swaps`]: fixpoint loop
    /// over the whole instruction list with per-instruction clones.
    pub fn absorb_adjacent_swaps(c: &Circuit) -> (Circuit, usize) {
        let mut instrs: Vec<Option<Instruction>> =
            c.instructions.iter().cloned().map(Some).collect();
        let mut fused = 0usize;
        loop {
            let mut changed = false;
            let mut last_touch: Vec<Option<usize>> = vec![None; c.n_qubits];
            for i in 0..instrs.len() {
                let Some(instr) = instrs[i].clone() else {
                    continue;
                };
                if matches!(instr.gate, Gate::Swap) {
                    let (p, q) = (instr.qubits[0], instr.qubits[1]);
                    if let (Some(a), Some(b)) = (last_touch[p], last_touch[q]) {
                        if a == b {
                            if let Some(prev) = instrs[a].clone() {
                                if prev.gate.is_two_qubit() {
                                    let same_pair = (prev.qubits[0] == p && prev.qubits[1] == q)
                                        || (prev.qubits[0] == q && prev.qubits[1] == p);
                                    if same_pair {
                                        let u = prev.gate.matrix2();
                                        instrs[a] = Some(Instruction {
                                            gate: Gate::Unitary2(Mat4::swap().mul(&u)),
                                            qubits: prev.qubits.clone(),
                                        });
                                        instrs[i] = None;
                                        fused += 1;
                                        changed = true;
                                        continue;
                                    }
                                }
                            }
                        }
                    }
                }
                for &qb in &instr.qubits {
                    last_touch[qb] = Some(i);
                }
            }
            if !changed {
                break;
            }
        }
        let out = Circuit {
            n_qubits: c.n_qubits,
            instructions: instrs.into_iter().flatten().collect(),
        };
        (out, fused)
    }

    /// The pre-optimization progress step, on the full [`Dag`].
    pub(super) fn force_step(
        dag: &Dag,
        front: &[usize],
        layout: &Layout,
        topo: &CouplingMap,
    ) -> (usize, usize) {
        let id = front
            .iter()
            .copied()
            .find(|&id| dag.nodes[id].qubits.len() == 2)
            .expect("stalled front contains a 2Q gate");
        let n = &dag.nodes[id];
        let src = layout.phys(n.qubits[0]);
        let dst = layout.phys(n.qubits[1]);
        let next = topo
            .neighbors(src)
            .iter()
            .copied()
            .min_by_key(|&nb| topo.distance(nb, dst))
            .expect("connected topology");
        (src.min(next), src.max(next))
    }

    /// Pretend `id` completed: extend `probe` with its newly released 2Q
    /// successors.
    fn release_successors(
        dag: &Dag,
        id: usize,
        indeg: &[usize],
        probe: &mut Vec<usize>,
        done: &[bool],
    ) {
        for &s in &dag.nodes[id].succs {
            // `id` still counts toward the successor's in-degree at this
            // point, so "released by id" means exactly one remaining
            // predecessor.
            if !done[s] && indeg[s] == 1 {
                probe.push(s);
            }
        }
    }

    /// The lookahead window, allocating fresh set/queue/output per call.
    fn extended_set(dag: &Dag, front: &[usize], done: &[bool], limit: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(limit);
        let mut queue: std::collections::VecDeque<usize> = front.iter().copied().collect();
        let mut seen: std::collections::HashSet<usize> = front.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if out.len() >= limit {
                break;
            }
            for &s in &dag.nodes[id].succs {
                if seen.insert(s) && !done[s] {
                    if dag.nodes[s].qubits.len() == 2 {
                        out.push(s);
                        if out.len() >= limit {
                            break;
                        }
                    }
                    queue.push_back(s);
                }
            }
        }
        out
    }

    /// The SABRE distance heuristic over front and extended sets.
    fn heuristic(
        front: &[usize],
        ext: &[usize],
        dag: &Dag,
        layout: &Layout,
        topo: &CouplingMap,
    ) -> f64 {
        let dist = |id: usize| -> f64 {
            let n = &dag.nodes[id];
            if n.qubits.len() != 2 {
                return 0.0;
            }
            let p1 = layout.phys(n.qubits[0]);
            let p2 = layout.phys(n.qubits[1]);
            f64::from(topo.distance(p1, p2).saturating_sub(1))
        };
        let front_2q: Vec<usize> = front
            .iter()
            .copied()
            .filter(|&id| dag.nodes[id].qubits.len() == 2)
            .collect();
        let f_term = if front_2q.is_empty() {
            0.0
        } else {
            front_2q.iter().map(|&id| dist(id)).sum::<f64>() / front_2q.len() as f64
        };
        let e_term = if ext.is_empty() {
            0.0
        } else {
            ext.iter().map(|&id| dist(id)).sum::<f64>() / ext.len() as f64
        };
        f_term + EXTENDED_SET_WEIGHT * e_term
    }

    /// Absolute lookahead score for the mirror decision: *summed* residual
    /// distances over the front layer plus the weighted extended set.
    fn lookahead_sum(
        front: &[usize],
        ext: &[usize],
        dag: &Dag,
        layout: &Layout,
        topo: &CouplingMap,
    ) -> f64 {
        let dist = |id: usize| -> f64 {
            let n = &dag.nodes[id];
            if n.qubits.len() != 2 {
                return 0.0;
            }
            let p1 = layout.phys(n.qubits[0]);
            let p2 = layout.phys(n.qubits[1]);
            f64::from(topo.distance(p1, p2).saturating_sub(1))
        };
        let f_term: f64 = front.iter().map(|&id| dist(id)).sum();
        let e_term: f64 = ext.iter().map(|&id| dist(id)).sum();
        f_term + EXTENDED_SET_WEIGHT * e_term
    }

    /// Candidate SWAPs through `BTreeSet` collection.
    fn candidate_swaps(
        dag: &Dag,
        front: &[usize],
        layout: &Layout,
        topo: &CouplingMap,
    ) -> Vec<(usize, usize)> {
        let mut homes: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for &id in front {
            let n = &dag.nodes[id];
            if n.qubits.len() == 2 {
                homes.insert(layout.phys(n.qubits[0]));
                homes.insert(layout.phys(n.qubits[1]));
            }
        }
        let mut out: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
        for &p in &homes {
            for &q in topo.neighbors(p) {
                out.insert((p.min(q), p.max(q)));
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_routed;
    use mirage_circuit::consolidate::consolidate;
    use mirage_circuit::generators::{ghz, qft, two_local_full};

    fn target(topo: CouplingMap) -> Target {
        Target::sqrt_iswap(topo)
    }

    fn route_simple(
        c: &Circuit,
        target: &Target,
        aggression: Option<Aggression>,
        seed: u64,
    ) -> RoutedCircuit {
        let cc = consolidate(c);
        let dag = Dag::from_circuit(&cc);
        let coords = node_coords(&dag);
        let config = RouterConfig {
            aggression,
            ..RouterConfig::default()
        };
        let mut rng = Rng::new(seed);
        route(
            &dag,
            &coords,
            target,
            Layout::trivial(c.n_qubits, target.n_qubits()),
            &config,
            &mut rng,
        )
    }

    #[test]
    fn already_routable_needs_no_swaps() {
        let t = target(CouplingMap::line(3));
        let c = ghz(3);
        let r = route_simple(&c, &t, None, 1);
        assert_eq!(r.swaps_inserted, 0);
        assert!(verify_routed(&c, &r, &t));
    }

    #[test]
    fn sabre_inserts_swaps_on_line() {
        let t = target(CouplingMap::line(4));
        let c = two_local_full(4, 1, 7);
        let r = route_simple(&c, &t, None, 2);
        assert!(r.swaps_inserted > 0, "full entanglement on a line swaps");
        assert_eq!(r.mirrors_accepted, 0);
        // Every 2Q gate must land on a coupled pair.
        for instr in &r.circuit.instructions {
            if instr.gate.is_two_qubit() {
                assert!(t.topology().are_adjacent(instr.qubits[0], instr.qubits[1]));
            }
        }
        assert!(verify_routed(&c, &r, &t));
    }

    #[test]
    fn mirage_preserves_semantics() {
        let t = target(CouplingMap::line(4));
        let c = two_local_full(4, 1, 7);
        for (seed, aggr) in [
            (3, Aggression::A1),
            (4, Aggression::A2),
            (5, Aggression::A3),
        ] {
            let r = route_simple(&c, &t, Some(aggr), seed);
            assert!(
                verify_routed(&c, &r, &t),
                "aggression {aggr:?} broke semantics"
            );
        }
    }

    #[test]
    fn mirage_a0_equals_sabre() {
        let t = target(CouplingMap::line(4));
        let c = two_local_full(4, 1, 9);
        let a0 = route_simple(&c, &t, Some(Aggression::A0), 6);
        let sabre = route_simple(&c, &t, None, 6);
        assert_eq!(a0.swaps_inserted, sabre.swaps_inserted);
        assert_eq!(a0.mirrors_accepted, 0);
        assert_eq!(a0.circuit, sabre.circuit);
    }

    #[test]
    fn mirage_accepts_mirrors_on_constrained_topology() {
        let t = target(CouplingMap::line(4));
        let c = two_local_full(4, 2, 11);
        let r = route_simple(&c, &t, Some(Aggression::A2), 7);
        assert!(
            r.mirrors_accepted > 0,
            "expected mirror acceptances, got 0 of {}",
            r.mirror_candidates
        );
        assert!(verify_routed(&c, &r, &t));
    }

    #[test]
    fn mirrors_reduce_swaps_or_depth() {
        let t = target(CouplingMap::line(5));
        let c = two_local_full(5, 2, 13);
        let sabre = route_simple(&c, &t, None, 8);
        let mirage = route_simple(&c, &t, Some(Aggression::A1), 8);
        assert!(
            mirage.swaps_inserted <= sabre.swaps_inserted,
            "mirage {} vs sabre {}",
            mirage.swaps_inserted,
            sabre.swaps_inserted
        );
    }

    #[test]
    fn routing_on_grid() {
        let t = target(CouplingMap::grid(3, 3));
        let c = two_local_full(6, 1, 17);
        let r = route_simple(&c, &t, Some(Aggression::A2), 9);
        for instr in &r.circuit.instructions {
            if instr.gate.is_two_qubit() {
                assert!(t.topology().are_adjacent(instr.qubits[0], instr.qubits[1]));
            }
        }
        assert!(verify_routed(&c, &r, &t));
    }

    #[test]
    fn aggression_accept_semantics() {
        assert!(!Aggression::A0.accept(1.0, 0.0));
        assert!(Aggression::A1.accept(1.0, 0.5));
        assert!(!Aggression::A1.accept(1.0, 1.0));
        assert!(Aggression::A2.accept(1.0, 1.0));
        assert!(!Aggression::A2.accept(1.0, 1.5));
        assert!(Aggression::A3.accept(0.0, 99.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let t = target(CouplingMap::line(5));
        let c = two_local_full(5, 1, 21);
        let a = route_simple(&c, &t, Some(Aggression::A2), 10);
        let b = route_simple(&c, &t, Some(Aggression::A2), 10);
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.swaps_inserted, b.swaps_inserted);
    }

    #[test]
    fn routing_in_cnot_basis() {
        // The mirror decision prices gates in whatever basis the target
        // declares — a CNOT-basis device must still route correctly.
        let t = Target::cnot(CouplingMap::line(4));
        let c = two_local_full(4, 1, 19);
        for aggr in [None, Some(Aggression::A2)] {
            let r = route_simple(&c, &t, aggr, 12);
            assert!(
                verify_routed(&c, &r, &t),
                "{aggr:?} broke CNOT-basis routing"
            );
        }
    }

    #[test]
    fn random_initial_layout_verifies() {
        let t = target(CouplingMap::grid(3, 3));
        let c = ghz(5);
        let cc = consolidate(&c);
        let dag = Dag::from_circuit(&cc);
        let coords = node_coords(&dag);
        let mut rng = Rng::new(33);
        let layout = Layout::random(c.n_qubits, t.n_qubits(), &mut rng);
        let r = route(
            &dag,
            &coords,
            &t,
            layout,
            &RouterConfig {
                aggression: Some(Aggression::A2),
                ..RouterConfig::default()
            },
            &mut rng,
        );
        assert!(verify_routed(&c, &r, &t));
    }

    /// The bit-identity contract: the optimized hot path must reproduce
    /// the legacy router's output exactly — same instructions, same
    /// layouts, same counters — across circuits, topologies, aggression
    /// levels, calibrations, and seeds. The 16-qubit cases give long SWAP
    /// runs (decay resets mid-run) and score entries on both swapped
    /// qubits.
    #[test]
    fn route_matches_legacy_bit_for_bit() {
        let topos = [
            (CouplingMap::line(6), 6),
            (CouplingMap::grid(2, 3), 6),
            (CouplingMap::ring(6), 6),
            (CouplingMap::heavy_hex(3), 6),
            (CouplingMap::grid(4, 4), 16),
            (CouplingMap::heavy_hex(3), 16),
        ];
        let mut case = 0u64;
        for (topo, n) in topos {
            let skew = crate::calibration::Calibration::skewed(
                &topo,
                &mut Rng::new(0xD00D ^ topo.n_qubits() as u64),
                3e-3,
                0.3,
                10.0,
            )
            .unwrap();
            for calibrated in [false, true] {
                let t = if calibrated {
                    Target::sqrt_iswap(topo.clone())
                        .with_calibration(skew.clone())
                        .unwrap()
                } else {
                    Target::sqrt_iswap(topo.clone())
                };
                for circuit in [qft(n, false), two_local_full(n, 1, 0xF0 + case)] {
                    let cc = consolidate(&circuit);
                    let dag = Dag::from_circuit(&cc);
                    let coords = node_coords(&dag);
                    for aggression in [
                        None,
                        Some(Aggression::A0),
                        Some(Aggression::A1),
                        Some(Aggression::A2),
                        Some(Aggression::A3),
                    ] {
                        case += 1;
                        let config = RouterConfig {
                            aggression,
                            ..RouterConfig::default()
                        };
                        let mut rng_a = Rng::new(0xBEEF + case);
                        let layout = Layout::random(cc.n_qubits, t.n_qubits(), &mut rng_a);
                        let mut rng_b = rng_a.clone();
                        let new = route(&dag, &coords, &t, layout.clone(), &config, &mut rng_a);
                        let old = legacy::route(&dag, &coords, &t, layout, &config, &mut rng_b);
                        assert_eq!(new.circuit, old.circuit, "case {case} diverged");
                        assert_eq!(new.final_layout, old.final_layout);
                        assert_eq!(new.swaps_inserted, old.swaps_inserted);
                        assert_eq!(new.mirrors_accepted, old.mirrors_accepted);
                        assert_eq!(new.mirror_candidates, old.mirror_candidates);
                        // And the RNGs advanced in lockstep (same number of
                        // tie-breaks, same draws).
                        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
                    }
                }
            }
        }
        assert!(case >= 80, "sweep shrank: {case} cases");
    }

    /// The anti-livelock step moves a stalled gate's operands one hop
    /// closer along a coupled pair, and agrees with the legacy step.
    #[test]
    fn force_step_moves_operands_one_hop_closer() {
        for topo in [CouplingMap::line(8), CouplingMap::grid(3, 3)] {
            let n = topo.n_qubits();
            let mut stalled = 0;
            for a in 0..n {
                for b in (0..n).filter(|&b| topo.distance(a, b) >= 3) {
                    // A 1Q front gate ahead of the 2Q one: the step must
                    // skip it.
                    let spectator = (0..n).find(|&q| q != a && q != b).unwrap();
                    let mut c = Circuit::new(n);
                    c.h(spectator).cx(a, b);
                    let dag = Dag::from_circuit(&c);
                    let (_, node_classes) = Classes::build(&node_coords(&dag));
                    let route_dag = RouteDag::new(&dag, &node_classes);
                    let front = dag.front_layer();
                    let layout = Layout::trivial(n, n);
                    let (p1, p2) = force_step(&route_dag, &front, &layout, &topo);
                    assert_eq!(
                        (p1, p2),
                        legacy::force_step(&dag, &front, &layout, &topo),
                        "{a}-{b} on {n} qubits"
                    );
                    assert!(topo.are_adjacent(p1, p2), "({p1}, {p2}) is not coupled");
                    let mut moved = layout.clone();
                    moved.swap_physical(p1, p2);
                    assert_eq!(
                        topo.distance(moved.phys(a), moved.phys(b)) + 1,
                        topo.distance(a, b),
                        "{a}-{b}: ({p1}, {p2}) is not one hop closer"
                    );
                    stalled += 1;
                }
            }
            assert!(stalled > 0, "no pair at distance >= 3 on {n} qubits");
        }
    }

    /// Scratch reuse across different DAGs, devices, and configs must not
    /// leak state between calls.
    #[test]
    fn scratch_reuse_is_stateless() {
        let mut scratch = RouterScratch::new();
        let jobs = [
            (CouplingMap::heavy_hex(3), qft(8, false), 31u64),
            (CouplingMap::line(5), two_local_full(5, 2, 3), 32),
            (CouplingMap::grid(3, 3), qft(6, true), 33),
            (CouplingMap::line(4), two_local_full(4, 1, 4), 34),
        ];
        for (topo, circuit, seed) in jobs {
            let t = target(topo);
            let cc = consolidate(&circuit);
            let dag = Dag::from_circuit(&cc);
            let coords = node_coords(&dag);
            let config = RouterConfig {
                aggression: Some(Aggression::A2),
                ..RouterConfig::default()
            };
            let mut rng_a = Rng::new(seed);
            let layout = Layout::random(cc.n_qubits, t.n_qubits(), &mut rng_a);
            let mut rng_b = rng_a.clone();
            let reused = route_with_scratch(
                &dag,
                &coords,
                &t,
                layout.clone(),
                &config,
                &mut rng_a,
                &mut scratch,
            );
            let fresh = route(&dag, &coords, &t, layout, &config, &mut rng_b);
            assert_eq!(reused.circuit, fresh.circuit, "scratch history leaked");
            assert!(verify_routed(&circuit, &reused, &t));
        }
    }

    /// Both absorption entry points against the legacy fixpoint: the
    /// public circuit wrapper, and the engine's path — absorb on the trace,
    /// then materialize — against `legacy::absorb_adjacent_swaps` of the
    /// materialized route. The engine path's class ids must also be the
    /// classes of the materialized matrices.
    #[test]
    fn absorb_matches_legacy_on_routed_circuits() {
        let t = target(CouplingMap::line(5));
        let n = t.n_qubits();
        let mut total_fused = 0;
        for seed in 0..8u64 {
            let c = two_local_full(5, 2, 100 + seed);
            // A0 keeps explicit SWAPs in the output, giving the absorber
            // real work.
            let r = route_simple(&c, &t, Some(Aggression::A0), seed);
            let (new_c, new_fused) = absorb_adjacent_swaps(&r.circuit);
            let (old_c, old_fused) = legacy::absorb_adjacent_swaps(&r.circuit);
            assert_eq!(new_c, old_c, "seed {seed} diverged");
            assert_eq!(new_fused, old_fused);

            for circuit in [c, qft(5, false)] {
                let cc = consolidate(&circuit);
                let dag = Dag::from_circuit(&cc);
                let (classes, node_classes) = Classes::build(&node_coords(&dag));
                let prices = PriceTable::new(&t, &classes, t.calibration_snapshot());
                let route_dag = RouteDag::new(&dag, &node_classes);
                let gate = |i: usize| &dag.nodes[i].gate;
                for aggression in [Aggression::A0, Aggression::A2] {
                    let config = RouterConfig {
                        aggression: Some(aggression),
                        ..RouterConfig::default()
                    };
                    let mut rng = Rng::new(seed);
                    let mut layout = Layout::random(cc.n_qubits, n, &mut rng);
                    let mut scratch = RouterScratch::new();
                    route_trace(
                        &route_dag,
                        t.topology(),
                        &prices,
                        &mut layout,
                        &config,
                        &mut rng,
                        &mut scratch,
                    );
                    let (routed, _) = materialize(scratch.trace(), n, gate);
                    let mut ops = scratch.trace().to_vec();
                    let fused = absorb_swaps(&mut ops, n, |k| prices.mirror(k));
                    let (absorbed, ks) = materialize(&ops, n, gate);
                    let (old_c, old_fused) = legacy::absorb_adjacent_swaps(&routed);
                    assert_eq!(absorbed, old_c, "seed {seed} {aggression:?} diverged");
                    assert_eq!(fused, old_fused);
                    total_fused += fused;
                    for (instr, &k) in absorbed.instructions.iter().zip(&ks) {
                        if instr.gate.is_two_qubit() {
                            let w = coords_of(&instr.gate.matrix2());
                            assert_eq!(classes.key(k), w.quantized(), "seed {seed}");
                        } else {
                            assert_eq!(k, NO_CLASS);
                        }
                    }
                }
            }
        }
        assert!(total_fused > 0, "the sweep must absorb some SWAPs");
    }

    #[test]
    fn absorb_fuses_gate_then_swap_chains() {
        // U(0,1) · SWAP(0,1) fuses; a second SWAP fuses into the fused
        // block again (SWAP·SWAP·U = U).
        let mut c = Circuit::new(2);
        c.cx(0, 1).swap(0, 1).swap(0, 1);
        let (fused, n) = absorb_adjacent_swaps(&c);
        assert_eq!(n, 2);
        assert_eq!(fused.instructions.len(), 1);
        let m = fused.instructions[0].gate.matrix2();
        let cx = Gate::Cx.matrix2();
        for i in 0..4 {
            for j in 0..4 {
                assert!((m.e[i][j].re - cx.e[i][j].re).abs() < 1e-12);
                assert!((m.e[i][j].im - cx.e[i][j].im).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn absorb_respects_intervening_gates() {
        // A 1Q gate on either wire between U and the SWAP blocks fusion.
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(0).swap(0, 1);
        let (fused, n) = absorb_adjacent_swaps(&c);
        assert_eq!(n, 0);
        assert_eq!(fused.instructions.len(), 3);
        // Gates on other wires don't block it.
        let mut c = Circuit::new(3);
        c.cx(0, 1).h(2).swap(0, 1);
        let (fused, n) = absorb_adjacent_swaps(&c);
        assert_eq!(n, 1);
        assert_eq!(fused.instructions.len(), 2);
    }
}
