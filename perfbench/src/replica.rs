//! The stage-trace replica of `mirage_core::transpile`.
//!
//! The library has no timers inside it, so the traced run replays each
//! compile call here, stage by stage, through the same public functions
//! `transpile` and `TrialEngine::run_detailed` call, in the same order and
//! with the same `SeedSchedule` and `Rng::spawn` streams — and times a span
//! around each. The replica is only trustworthy while it computes exactly
//! what `transpile` computes, so every replayed call returns the output
//! fingerprint and the caller compares it with the untraced call's: a
//! mismatch marks the whole traced run incorrect (it never touches the
//! end-to-end numbers). When the engine changes shape, this file must
//! follow it.

use crate::report::{self, Outcome};
use mirage_circuit::consolidate::consolidate;
use mirage_circuit::{passes, Circuit, Dag};
use mirage_core::placement::{self, StrategyKind};
use mirage_core::router::{
    absorb_adjacent_swaps, node_coords, route_with_scratch, Aggression, RoutedCircuit,
    RouterConfig, RouterScratch,
};
use mirage_core::trials::{aggression_for_trial, Metric, SeedSchedule};
use mirage_core::{Layout, Target, TranspileError, TranspileOptions, TrialEngine};
use mirage_math::Rng;
use mirage_weyl::coords::WeylCoord;
use std::hint::black_box;
use std::time::Instant;

/// Span totals (seconds) and stage counts summed over replayed calls.
#[derive(Debug, Default)]
pub struct StageTrace {
    /// Replayed calls.
    pub calls: usize,
    /// Wall time of the replayed calls, spans and glue together.
    pub call_s: f64,
    clean_s: f64,
    consolidate_s: f64,
    precompute_s: f64,
    vf2_s: f64,
    propose_s: f64,
    refine_s: f64,
    route_s: f64,
    absorb_s: f64,
    postselect_s: f64,
    metrics_s: f64,
    ir_ops: usize,
    vf2_hits: usize,
    route_calls: usize,
    route_nodes: usize,
    swaps: usize,
    mirrors_accepted: usize,
    mirror_candidates: usize,
    fused: usize,
    score_calls: usize,
    candidates: usize,
}

impl StageTrace {
    fn spans_s(&self) -> f64 {
        self.clean_s
            + self.consolidate_s
            + self.precompute_s
            + self.vf2_s
            + self.propose_s
            + self.refine_s
            + self.route_s
            + self.absorb_s
            + self.postselect_s
            + self.metrics_s
    }
}

fn span<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let value = f();
    *total += t.elapsed().as_secs_f64();
    value
}

/// Replay one `transpile(circuit, target, opts)` call stage by stage and
/// return the fingerprint of its output circuit.
///
/// # Errors
///
/// The same errors `transpile` returns.
pub fn replay(
    circuit: &Circuit,
    target: &Target,
    opts: &TranspileOptions,
    trace: &mut StageTrace,
) -> Result<u64, TranspileError> {
    let t = Instant::now();
    let result = replay_call(circuit, target, opts, trace);
    trace.call_s += t.elapsed().as_secs_f64();
    trace.calls += 1;
    result
}

fn replay_call(
    circuit: &Circuit,
    target: &Target,
    opts: &TranspileOptions,
    trace: &mut StageTrace,
) -> Result<u64, TranspileError> {
    opts.trials.validate()?;
    let topo = target.topology();
    if circuit.n_qubits > topo.n_qubits() {
        return Err(TranspileError::CircuitTooLarge {
            circuit: circuit.n_qubits,
            device: topo.n_qubits(),
        });
    }
    if !topo.is_connected() {
        return Err(TranspileError::DisconnectedTopology);
    }

    let (elided, wire_perm) = span(&mut trace.clean_s, || {
        let cleaned = passes::clean(circuit);
        passes::elide_swaps(&cleaned)
    });
    let consolidated = span(&mut trace.consolidate_s, || consolidate(&elided));
    trace.ir_ops += consolidated.instructions.len();
    let engine = span(&mut trace.precompute_s, || {
        TrialEngine::new(&consolidated, target).with_vf2_budget(opts.vf2_budget)
    });

    if opts.use_vf2 {
        if let Some(layout) = span(&mut trace.vf2_s, || engine.vf2_layout()) {
            trace.vf2_hits += 1;
            let placed = span(&mut trace.metrics_s, || {
                let placed = placement::apply_layout(&consolidated, &layout);
                let final_assignment: Vec<usize> = (0..circuit.n_qubits)
                    .map(|w| layout.phys(wire_perm[w]))
                    .collect();
                let final_layout = Layout::from_assignment(&final_assignment, topo.n_qubits());
                black_box((
                    target.depth_estimate(&placed),
                    target.total_gate_cost(&placed),
                    placed.two_qubit_gate_count(),
                    target.estimated_success(&placed, final_layout.real_assignment()),
                ));
                placed
            });
            return Ok(placed.fingerprint());
        }
    }

    let mut best = run_trials(&engine, &consolidated, target, opts, trace);
    span(&mut trace.metrics_s, || {
        let adjusted: Vec<usize> = (0..circuit.n_qubits)
            .map(|w| best.final_layout.phys(wire_perm[w]))
            .collect();
        best.final_layout = Layout::from_assignment(&adjusted, topo.n_qubits());
        black_box((
            target.depth_estimate(&best.circuit),
            target.total_gate_cost(&best.circuit),
            best.circuit.two_qubit_gate_count(),
            best.mirror_rate(),
            best.estimated_success(target),
        ));
    });
    Ok(best.circuit.fingerprint())
}

/// The serial path of `TrialEngine::run_detailed`: layout trials in index
/// order, each refining its proposal and running its routing trials, then
/// the first-of-equal-minima post-selection.
fn run_trials(
    engine: &TrialEngine<'_>,
    consolidated: &Circuit,
    target: &Target,
    opts: &TranspileOptions,
    trace: &mut StageTrace,
) -> RoutedCircuit {
    let trials = &opts.trials;
    let mirage = opts.router.uses_mirrors();
    let (dag_fwd, dag_bwd, coords_fwd, coords_bwd) = span(&mut trace.precompute_s, || {
        let dag_fwd = Dag::from_circuit(consolidated);
        let dag_bwd = Dag::from_circuit(&consolidated.reversed());
        let coords_fwd = node_coords(&dag_fwd);
        let coords_bwd = node_coords(&dag_bwd);
        (dag_fwd, dag_bwd, coords_fwd, coords_bwd)
    });
    let dags = Dags {
        fwd: (&dag_fwd, &coords_fwd),
        bwd: (&dag_bwd, &coords_bwd),
    };
    let ctx = engine.context();
    let mut scratch = RouterScratch::new();
    let mut candidates = Vec::new();
    for trial in 0..trials.layout_trials {
        let mut rng = Rng::new(SeedSchedule::new(trials.seed).trial_seed(trial));
        let kind = StrategyKind::for_trial(trial, trials.layout_trials, &trials.strategy_mix);
        let layout = span(&mut trace.propose_s, || {
            let proposed = if kind == StrategyKind::Vf2Embed {
                engine.vf2_layout()
            } else {
                kind.strategy().propose(ctx, &mut rng)
            };
            proposed.unwrap_or_else(|| Layout::random(ctx.n_logical(), ctx.n_physical(), &mut rng))
        });
        let mut router = Router {
            target,
            scratch: &mut scratch,
            trace: &mut *trace,
        };
        let plain = router.refine(
            &dags,
            &RouterConfig::default(),
            layout.clone(),
            trials.fwd_bwd_iters,
            &mut rng,
        );
        let mirrored = if mirage {
            let config = RouterConfig {
                aggression: Some(Aggression::A1),
                ..RouterConfig::default()
            };
            router.refine(&dags, &config, layout, trials.fwd_bwd_iters, &mut rng)
        } else {
            plain.clone()
        };
        for t in 0..trials.routing_trials {
            let aggression = mirage
                .then(|| aggression_for_trial(t, trials.routing_trials, &trials.aggression_mix));
            let mut config = RouterConfig {
                aggression,
                ..RouterConfig::default()
            };
            if let Some(lambda) = trials.mirror_lambda {
                config.mirror_heuristic_weight = lambda;
            }
            let mut trial_rng = rng.spawn();
            let start = if aggression == Some(Aggression::A0) || t % 2 == 0 {
                plain.clone()
            } else {
                mirrored.clone()
            };
            let mut routed = router.route(dags.fwd, start, &config, &mut trial_rng, false);
            if mirage && aggression != Some(Aggression::A0) {
                let (fused_circuit, fused) = span(&mut router.trace.absorb_s, || {
                    absorb_adjacent_swaps(&routed.circuit)
                });
                router.trace.fused += fused;
                routed.circuit = fused_circuit;
                routed.swaps_inserted -= fused;
                routed.mirrors_accepted += fused;
                routed.mirror_candidates += fused;
            }
            candidates.push(routed);
        }
    }
    trace.candidates += candidates.len();
    let mut score_calls = 0usize;
    let best = span(&mut trace.postselect_s, || {
        candidates
            .into_iter()
            .min_by(|a, b| {
                score_calls += 2;
                score(a, trials.metric, target).total_cmp(&score(b, trials.metric, target))
            })
            .expect("at least one trial ran")
    });
    trace.score_calls += score_calls;
    best
}

/// The post-selection score `TrialEngine` minimizes.
fn score(r: &RoutedCircuit, metric: Metric, target: &Target) -> f64 {
    match metric {
        Metric::SwapCount => r.swaps_inserted as f64,
        Metric::Depth => target.depth_estimate(&r.circuit),
        Metric::EstimatedSuccess => -r.log_success(target),
    }
}

type Routable<'a> = (&'a Dag, &'a [Option<WeylCoord>]);

struct Dags<'a> {
    fwd: Routable<'a>,
    bwd: Routable<'a>,
}

/// `route_with_scratch` with a span and counts around every call.
struct Router<'a> {
    target: &'a Target,
    scratch: &'a mut RouterScratch,
    trace: &'a mut StageTrace,
}

impl Router<'_> {
    fn route(
        &mut self,
        (dag, coords): Routable<'_>,
        layout: Layout,
        config: &RouterConfig,
        rng: &mut Rng,
        refining: bool,
    ) -> RoutedCircuit {
        let t = Instant::now();
        let routed =
            route_with_scratch(dag, coords, self.target, layout, config, rng, self.scratch);
        let dt = t.elapsed().as_secs_f64();
        let trace = &mut *self.trace;
        if refining {
            trace.refine_s += dt;
        } else {
            trace.route_s += dt;
        }
        trace.route_calls += 1;
        trace.route_nodes += dag.len();
        trace.swaps += routed.swaps_inserted;
        trace.mirrors_accepted += routed.mirrors_accepted;
        trace.mirror_candidates += routed.mirror_candidates;
        routed
    }

    /// SABRE forward–backward refinement, as `TrialEngine` runs it.
    fn refine(
        &mut self,
        dags: &Dags<'_>,
        config: &RouterConfig,
        mut layout: Layout,
        iters: usize,
        rng: &mut Rng,
    ) -> Layout {
        for _ in 0..iters {
            let fwd = self.route(dags.fwd, layout, config, rng, true);
            let bwd = self.route(dags.bwd, fwd.final_layout, config, rng, true);
            layout = bwd.final_layout;
        }
        layout
    }
}

/// Per-call layer metrics from a finished trace. `untraced_s` is the
/// summed wall time of the same calls in the untraced run.
pub fn report(trace: &StageTrace, untraced_s: f64, out: &mut Outcome) {
    let n = trace.calls as f64;
    let us = |s: f64| report::ratio(s * 1e6, n);
    let ms = |s: f64| report::ratio(s * 1e3, n);
    let per_call = |x: usize| report::ratio(x as f64, n);
    out.set("passes.clean_us", us(trace.clean_s));
    out.set("consolidate_us", us(trace.consolidate_s));
    out.set("consolidate.ir_ops", per_call(trace.ir_ops));
    out.set("trials.precompute_us", us(trace.precompute_s));
    out.set("placement.vf2_us", us(trace.vf2_s));
    out.set("placement.vf2_hits", per_call(trace.vf2_hits));
    out.set("placement.propose_us", us(trace.propose_s));
    out.set("router.refine_ms", ms(trace.refine_s));
    out.set("router.route_ms", ms(trace.route_s));
    out.set("router.calls", per_call(trace.route_calls));
    out.set(
        "router.gates_per_s",
        report::ratio(trace.route_nodes as f64, trace.refine_s + trace.route_s),
    );
    out.set(
        "router.swaps_per_call",
        report::ratio(trace.swaps as f64, trace.route_calls as f64),
    );
    out.set(
        "router.mirror_accept_ratio",
        report::ratio(
            trace.mirrors_accepted as f64,
            trace.mirror_candidates as f64,
        ),
    );
    out.set("absorb_us", us(trace.absorb_s));
    out.set("absorb.fused", per_call(trace.fused));
    out.set("postselect_ms", ms(trace.postselect_s));
    out.set("postselect.score_calls", per_call(trace.score_calls));
    out.set("postselect.candidates", per_call(trace.candidates));
    out.set("target.metrics_us", us(trace.metrics_s));
    out.set(
        "trace.unattributed_frac",
        report::ratio(trace.call_s - trace.spans_s(), trace.call_s),
    );
    out.set(
        "trace.overhead_frac",
        report::ratio(trace.call_s - untraced_s, untraced_s),
    );
    out.samples("trace.calls", trace.calls);
}

/// Median wall time of decoding the stock √iSWAP coverage atlas, the load
/// every `Target::sqrt_iswap` process pays once.
pub fn atlas_load_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(mirage_coverage::atlas::stock_set("sqrt_iswap"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report::quantile(&times, 0.5)
}
