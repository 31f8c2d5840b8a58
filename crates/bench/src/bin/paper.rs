//! The paper's evaluation, recorded and gated: Tables I–II (Haar scores),
//! Figs. 8–12 (routing), the mirror-weight (λ) ablation behind the
//! router's default, and a calibration-skew sweep.
//!
//! Each figure is one function returning its cases and their pins. Where
//! the paper quotes a number, the case's `paper` object holds it beside
//! `ours`, under the same key. `--quick` runs [`TranspileOptions::quick`]
//! at seed 0 with fewer Monte Carlo samples; the full run uses
//! [`TranspileOptions::paper`] at seeds 0–2 and writes `BENCH_paper.json`.
//! Reductions are percent of the SABRE baseline's geo-mean (positive =
//! MIRAGE is lower). The gates (nonzero exit on failure):
//!
//! * **Pins** — every routing case matches [`SANITY`] (FNV-1a fold of its
//!   output fingerprints, SWAP and mirror totals), every table case
//!   [`SCORES`] (FNV-1a fold of its score bits).
//! * **Fig. 12 direction** — MIRAGE's geo-mean depth is below SABRE's on
//!   both devices at every seed.
//! * **Floors** — in full mode every seed's Fig. 11/12 reduction is at or
//!   above its [`FLOORS`] entry: the worst seed when cut, minus the spread;
//!   in quick mode each Fig. 12 SWAP reduction is at or above its
//!   [`QUICK_SWAP_FLOORS`] entry.
//!
//! Checked elsewhere: Figs. 1, 3, 4 and 6 by `tests/paper_anchors.rs`;
//! Fig. 5's end points are Tables I–II's ∜iSWAP rows; Table III's gate
//! counts by the generator tests; Fig. 13b's QFT runtime axis by
//! `routing_runtime`.
//!
//! Usage: `paper [--quick] [--out PATH] [--print-fingerprints]`

use mirage_bench::report::{self, hex, num, Args, Cli, Json, Pin, Sanity, Verdict};
use mirage_bench::{coverage_for, geo_mean, pct_improvement};
use mirage_circuit::consolidate::consolidate;
use mirage_circuit::generators::{
    bv, cuccaro_adder, paper_suite, portfolio_qaoa, qft, seca, swap_test, two_local_full, wstate,
};
use mirage_circuit::{Circuit, Dag};
use mirage_core::calibration::Calibration;
use mirage_core::layout::Layout;
use mirage_core::pipeline::TranspiledCircuit as Transpiled;
use mirage_core::router::{node_coords, route, Aggression, RouterConfig};
use mirage_core::trials::Metric;
use mirage_core::{transpile, RouterKind, Target, TranspileOptions};
use mirage_coverage::approx::approx_gate_costs;
use mirage_coverage::haar::{haar_score, FidelityModel};
use mirage_coverage::set::CoverageSet;
use mirage_math::hash::Fnv1a;
use mirage_math::{Mat4, Rng};
use mirage_synth::decompose::{fit_fidelity, DecompOptions};
use mirage_synth::fidelity::pulse_duration;
use mirage_synth::translate::translate_circuit;
use mirage_topology::CouplingMap;
use std::ops::Range;
use std::process::ExitCode;
use std::sync::Arc;

/// `"{mode} {case}"`: FNV-1a fold of the output fingerprints, total SWAPs
/// and mirrors. Re-pin with `--print-fingerprints` after an intended change.
#[rustfmt::skip]
const SANITY: &[(&str, Sanity)] = &[
    ("quick fig8 sabre", (0x7F89075950440211, 3, 0)),
    ("quick fig8 mirage", (0xD03872FD000D9E5E, 0, 5)),
    ("quick fig9", (0x69FA4518ACF31119, 1, 9)),
    ("quick fig10 wstate_n27", (0xF499DC6631E84C6F, 52, 57)),
    ("quick fig10 bigadder_n18", (0xE1C95AE0B75D4F4C, 203, 149)),
    ("quick fig10 qft_n18", (0x03A17A84CFEBE740, 498, 286)),
    ("quick fig10 bv_n30", (0xBB84BA9293AB1EA1, 61, 27)),
    ("quick fig11 mirage-swaps", (0x56D2A3B48580B850, 1518, 955)),
    ("quick fig12 heavy-hex", (0xAF8C1079C3D3C38A, 2574, 929)),
    ("quick fig12 grid", (0x262745CAB534A619, 1632, 658)),
    ("quick lambda qft_n18", (0x395B90C30290A9F3, 506, 409)),
    ("quick lambda seca_n11", (0x884F43D98D570B96, 146, 75)),
    ("quick lambda portfolioqaoa_n16", (0xF1944D2F619C9E83, 949, 1045)),
    ("quick lambda swap_test_n25", (0x9CC3A47AD70246E9, 195, 100)),
    ("quick skew line", (0xEDD472115B90F064, 122, 140)),
    ("quick skew grid", (0x3D780D41BF161BFF, 60, 44)),
    ("quick skew heavy-hex", (0x40EED18F342D1921, 143, 106)),
    ("full fig8 sabre", (0xFF9CB5088077A377, 9, 0)),
    ("full fig8 mirage", (0x11D25FED1ACF8CE9, 0, 15)),
    ("full fig9", (0x5773D687E7B307AD, 3, 27)),
    ("full fig10 wstate_n27", (0xFFFACC86B702F432, 72, 158)),
    ("full fig10 bigadder_n18", (0x2C87742C98EF7D7C, 506, 462)),
    ("full fig10 qft_n18", (0x57CA1608692A20B9, 1094, 899)),
    ("full fig10 bv_n30", (0xACE446EFA3F7273A, 122, 81)),
    ("full fig11 mirage-swaps", (0xF5E5BA67EB67DDB3, 3696, 2907)),
    ("full fig12 heavy-hex", (0x7E1855E68A765C56, 6387, 3049)),
    ("full fig12 grid", (0xA33443CDE6177892, 3911, 2661)),
    ("full lambda qft_n18", (0xEE6B56B2D220F378, 1094, 1653)),
    ("full lambda seca_n11", (0x89F97CE5FD774D5E, 400, 220)),
    ("full lambda portfolioqaoa_n16", (0x8B7C81DE9C9E4634, 2061, 4435)),
    ("full lambda swap_test_n25", (0x64FB64A28B8DEFCB, 414, 312)),
    ("full skew line", (0x3549977B9D100E20, 360, 361)),
    ("full skew grid", (0x000C8EAC76825429, 149, 164)),
    ("full skew heavy-hex", (0x9B057280139F980D, 268, 399)),
];

/// `"{mode} {case}"` for Tables I–II: FNV-1a fold of the case's four score
/// bit patterns.
#[rustfmt::skip]
const SCORES: &[(&str, u64)] = &[
    ("quick table1 sqrt-iswap", 0x123B68D06806DFD1),
    ("quick table1 cbrt-iswap", 0x71B52E809BE17E40),
    ("quick table1 4th-root-iswap", 0x8CC7A689A4DBE0BB),
    ("quick table2 sqrt-iswap", 0xB7DE614AEA34DCC2),
    ("quick table2 cbrt-iswap", 0x3356DCBF5E11FFE1),
    ("quick table2 4th-root-iswap", 0x4E37BE2F29A69A9F),
    ("full table1 sqrt-iswap", 0x1E5C395ACBB87C6A),
    ("full table1 cbrt-iswap", 0xF68500F64624278A),
    ("full table1 4th-root-iswap", 0x5712240FC127E586),
    ("full table2 sqrt-iswap", 0x50B2D424312876DF),
    ("full table2 cbrt-iswap", 0x763EA90890D1A73D),
    ("full table2 4th-root-iswap", 0xE498850432942B8C),
];

/// Full-mode floors on the Fig. 11/12 reductions (percent; depth, gate
/// cost, SWAPs): the worst seed when cut, minus the seed spread, and never
/// below the floor it replaced. Re-cut when the router began routing the
/// two-qubit skeleton.
const FLOORS: &[(&str, [f64; 3])] = &[
    ("fig11 mirage-swaps", [6.19, 3.92, 33.80]),
    ("fig12 heavy-hex", [15.03, 3.46, 15.64]),
    ("fig12 grid", [16.66, 0.63, 24.12]),
];

/// Quick-mode floors on the Fig. 12 SWAP reductions (percent). Quick mode
/// runs one seed and is deterministic, so each is the reduction when cut,
/// rounded down to a whole percent: a routing change that gives SWAP
/// reduction back fails CI's `paper --quick` step even when it re-pins.
const QUICK_SWAP_FLOORS: &[(&str, f64)] = &[("fig12 heavy-hex", 22.0), ("fig12 grid", 12.0)];

const CLI: Cli = Cli {
    bin: "paper",
    default_out: "BENCH_paper.json",
    switches: &["--print-fingerprints"],
    valued: &[],
};

/// Quick or full: the trial budget, the seeds and the Monte Carlo samples.
struct Mode {
    quick: bool,
}

impl Mode {
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    fn seeds(&self) -> Range<u64> {
        self.pick(0..1, 0..3)
    }

    /// Table I's Haar samples and Table II's approximation samples.
    fn samples(&self) -> [usize; 2] {
        self.pick([2_000, 40], [20_000, 400])
    }

    fn options(&self, router: RouterKind, seed: u64) -> TranspileOptions {
        let quick = TranspileOptions::quick(router, seed);
        self.pick(quick, TranspileOptions::paper(router, seed))
    }

    /// [`Mode::options`] with the VF2 pre-pass off, for the figures about
    /// routing decisions rather than embedding.
    fn routed(&self, router: RouterKind, seed: u64) -> TranspileOptions {
        let mut opts = self.options(router, seed);
        opts.use_vf2 = false;
        opts
    }
}

/// What a figure hands back: its cases and their pins, by case name.
#[derive(Default)]
struct Figure {
    cases: Vec<Json>,
    sanity: Vec<(String, Sanity)>,
    scores: Vec<(String, u64)>,
}

impl Figure {
    /// A routing case: `fields`, then the tally's pin fields.
    fn routed(&mut self, name: &str, mut fields: Vec<(&'static str, Json)>, tally: &Tally) {
        fields.insert(0, ("case", name.into()));
        fields.extend([
            ("swaps", tally.swaps.into()),
            ("mirrors", tally.mirrors.into()),
            ("fingerprint", hex(tally.fold.finish())),
        ]);
        self.cases.push(Json::Obj(fields));
        self.sanity.push((name.to_owned(), tally.sanity()));
    }
}

/// The FNV-1a fold of a case's output fingerprints plus its SWAP and
/// mirror totals.
#[derive(Default)]
struct Tally {
    fold: Fnv1a,
    swaps: usize,
    mirrors: usize,
}

impl Tally {
    fn add(&mut self, (fingerprint, swaps, mirrors): Sanity) {
        self.fold.write_u64(fingerprint);
        self.swaps += swaps;
        self.mirrors += mirrors;
    }

    /// Transpile, tally the output and return it.
    fn run(&mut self, circuit: &Circuit, target: &Target, opts: &TranspileOptions) -> Transpiled {
        let out = transpile(circuit, target, opts).expect("every paper case transpiles");
        let m = &out.metrics;
        let pin = (
            out.circuit.fingerprint(),
            m.swaps_inserted,
            m.mirrors_accepted,
        );
        self.add(pin);
        out
    }

    fn sanity(&self) -> Sanity {
        (self.fold.finish(), self.swaps, self.mirrors)
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// `keys` zipped with `values`, as an object of numbers with `decimals`.
fn obj(keys: &[&'static str], values: impl IntoIterator<Item = f64>, decimals: usize) -> Json {
    let fields = keys.iter().zip(values).map(|(&k, x)| (k, num(x, decimals)));
    Json::Obj(fields.collect())
}

/// One basis's (score, fidelity), plain and with mirrors.
type Scores = [f64; 4];

/// The keys of [`Scores`].
const SCORE_KEYS: [&str; 4] = ["haar", "fidelity", "mirror_haar", "mirror_fidelity"];

/// The three bases of Tables I–II: label, `n` of `iSWAP^(1/n)`, the
/// deepest coverage level built, and the paper's Table I and II rows.
#[rustfmt::skip]
const BASES: [(&str, u32, usize, [Scores; 2]); 3] = [
    ("sqrt-iswap", 2, 4, [[1.105, 0.9890, 1.029, 0.9897], [1.031, 0.9895, 0.9950, 0.9899]]),
    ("cbrt-iswap", 3, 5, [[0.9907, 0.9901, 0.9545, 0.9904], [0.9433, 0.9904, 0.8900, 0.9908]]),
    ("4th-root-iswap", 4, 7, [[0.9599, 0.9904, 0.8997, 0.9910], [0.9165, 0.9906, 0.8453, 0.9913]]),
];

/// One of Tables I–II: per basis, `score(set, n)` on its plain and mirror
/// sets beside the paper's row, pinned by the score bits.
fn table(
    table: usize,
    sets: &[[CoverageSet; 2]],
    score: impl Fn(&CoverageSet, u32) -> [f64; 2],
) -> Figure {
    let mut figure = Figure::default();
    for (&(label, n, _, paper), sets) in BASES.iter().zip(sets) {
        let ours: Vec<f64> = sets.iter().flat_map(|set| score(set, n)).collect();
        let mut fold = Fnv1a::new();
        ours.iter().for_each(|&x| fold.write_f64(x));
        let name = format!("table{} {label}", table + 1);
        figure.cases.push(Json::Obj(vec![
            ("case", name.as_str().into()),
            ("ours", obj(&SCORE_KEYS, ours, 4)),
            ("paper", obj(&SCORE_KEYS, paper[table], 4)),
            ("fingerprint", hex(fold.finish())),
        ]));
        figure.scores.push((name, fold.finish()));
    }
    figure
}

/// Plain and mirror coverage sets for each of [`BASES`].
fn table_sets() -> Vec<[CoverageSet; 2]> {
    let sets = |&(_, n, k, _): &(_, _, _, _)| [false, true].map(|m| coverage_for(n, m, k));
    BASES.iter().map(sets).collect()
}

/// **Table I**: Haar scores and average fidelities, exact decomposition.
fn table1(mode: &Mode, sets: &[[CoverageSet; 2]]) -> Figure {
    let model = FidelityModel::paper_default();
    table(0, sets, |set, n| {
        let h = haar_score(set, &model, mode.samples()[0], 0xAB0 + u64::from(n));
        [h.score, h.avg_fidelity]
    })
}

/// **Table II**: Haar scores with approximate decomposition (paper
/// Algorithm 1), the oracle being `mirage-synth`'s numerical fit.
fn table2(mode: &Mode, sets: &[[CoverageSet; 2]]) -> Figure {
    let model = FidelityModel::paper_default();
    table(1, sets, |set, n| {
        let opts = DecompOptions {
            restarts: 3,
            evals_per_restart: 3000,
            infidelity_target: 1e-7,
            seed: 0x7AB2 + u64::from(n),
        };
        let basis = set.basis.unitary;
        let oracle = |target: &Mat4, k: usize| Some(fit_fidelity(target, &basis, k, &opts));
        let seed = 0xAB2 + u64::from(n);
        let a = approx_gate_costs(set, &model, mode.samples()[1], seed, &oracle);
        [a.score, a.avg_fidelity]
    })
}

/// **Figure 8**: TwoLocal (full entanglement, 4 qubits) routed on a
/// 4-qubit line and translated to √iSWAP pulses: the count and the
/// critical path, means over seeds. Paper: the baseline needs 16 pulses
/// and 3 SWAPs, MIRAGE 10 pulses and none.
fn fig8(mode: &Mode) -> Figure {
    let circuit = two_local_full(4, 1, 0xF18);
    let cov = Arc::new(coverage_for(2, false, 3));
    let target = Target::with_coverage(CouplingMap::line(4), cov.clone());
    let dopts = DecompOptions {
        restarts: 8,
        evals_per_restart: 8000,
        infidelity_target: 1e-9,
        seed: 0x918,
    };
    let keys = ["pulses", "route_swaps", "pulse_path"];
    let mut figure = Figure::default();
    for (label, router, paper) in [
        ("sabre", RouterKind::Sabre, [16.0, 3.0]),
        ("mirage", RouterKind::Mirage, [10.0, 0.0]),
    ] {
        let mut tally = Tally::default();
        let mut ours = Vec::new();
        for seed in mode.seeds() {
            let out = tally.run(&circuit, &target, &mode.routed(router, seed));
            let (pulsed, stats) = translate_circuit(&out.circuit, &cov, &dopts);
            let path = pulse_duration(&pulsed).expect("translated to the basis") / 0.5;
            tally.fold.write_u64(stats.pulses as u64);
            ours.push([stats.pulses as f64, out.metrics.swaps_inserted as f64, path]);
        }
        let ours = (0..3).map(|i| mean(&ours.iter().map(|o| o[i]).collect::<Vec<_>>()));
        let fields = vec![
            ("ours", obj(&keys, ours, 1)),
            ("paper", obj(&keys, paper, 0)),
        ];
        figure.routed(&format!("fig8 {label}"), fields, &tally);
    }
    figure
}
/// **Figure 9**: greedy local minima. From the trivial layout, Fig. 8's
/// routes at fixed aggression A1 and A2 end at different depths (pulses on
/// the critical path). Paper: the greedy-optimal first choice dead-ends at
/// 7 pulses; a sub-optimal one reaches the 6-pulse optimum.
fn fig9(mode: &Mode) -> Figure {
    let dag = Dag::from_circuit(&consolidate(&two_local_full(4, 1, 0xF18)));
    let coords = node_coords(&dag);
    let cov = Arc::new(coverage_for(2, false, 3));
    let target = Target::with_coverage(CouplingMap::line(4), cov);
    let mut tally = Tally::default();
    let mut depths = Vec::new();
    for aggression in [Aggression::A1, Aggression::A2] {
        let config = RouterConfig {
            aggression: Some(aggression),
            ..RouterConfig::default()
        };
        for seed in mode.seeds() {
            let layout = Layout::trivial(4, 4);
            let r = route(&dag, &coords, &target, layout, &config, &mut Rng::new(seed));
            let pin = (
                r.circuit.fingerprint(),
                r.swaps_inserted,
                r.mirrors_accepted,
            );
            tally.add(pin);
            depths.push(target.depth_estimate(&r.circuit) / 0.5);
        }
    }
    let best = depths.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = depths.iter().copied().fold(0.0, f64::max);
    let keys = ["best", "worst"];
    let fields = vec![
        ("ours", obj(&keys, [best, worst], 1)),
        ("paper", obj(&keys, [6.0, 7.0], 0)),
    ];
    let mut figure = Figure::default();
    figure.routed("fig9", fields, &tally);
    figure
}

/// A configuration compared against the others: the SABRE baseline, or
/// MIRAGE at one fixed aggression level or mirror weight λ.
#[derive(Clone, Copy)]
enum Variant {
    Sabre,
    Level(usize),
    Lambda(f64),
}

/// Mean depth over the seeds of each variant (keyed by its case field),
/// per circuit, on the 6×6 lattice with the VF2 pre-pass off; `best` names
/// the lowest (the first, on a tie).
fn compare(
    mode: &Mode,
    figure: &str,
    circuits: &[(&str, Circuit)],
    variants: &[(&'static str, Variant)],
) -> Figure {
    let target = Target::sqrt_iswap(CouplingMap::grid(6, 6));
    let mut out = Figure::default();
    for (name, circuit) in circuits {
        let mut tally = Tally::default();
        let mut fields = Vec::new();
        let mut best = ("", f64::INFINITY);
        for &(key, variant) in variants {
            let router = match variant {
                Variant::Sabre => RouterKind::Sabre,
                _ => RouterKind::Mirage,
            };
            let mut depths = Vec::new();
            for seed in mode.seeds() {
                let mut opts = mode.routed(router, seed);
                match variant {
                    Variant::Sabre => {}
                    Variant::Level(a) => {
                        opts.trials.aggression_mix = [0.0; 4];
                        opts.trials.aggression_mix[a] = 1.0;
                    }
                    Variant::Lambda(lambda) => opts.trials.mirror_lambda = Some(lambda),
                }
                depths.push(tally.run(circuit, &target, &opts).metrics.depth_estimate);
            }
            let depth = mean(&depths);
            if depth < best.1 {
                best = (key, depth);
            }
            fields.push((key, num(depth, 1)));
        }
        fields.push(("best", best.0.into()));
        out.routed(&format!("{figure} {name}"), fields, &tally);
    }
    out
}

/// **Figure 10**: MIRAGE at each *fixed* aggression level against the
/// SABRE baseline. No level wins everywhere, which is why trials mix them
/// 5/45/45/5.
fn fig10(mode: &Mode) -> Figure {
    let circuits = [
        ("wstate_n27", wstate(27)),
        ("bigadder_n18", cuccaro_adder(8)),
        ("qft_n18", qft(18, false)),
        ("bv_n30", bv(30, 18)),
    ];
    let levels = [
        ("sabre", Variant::Sabre),
        ("a0", Variant::Level(0)),
        ("a1", Variant::Level(1)),
        ("a2", Variant::Level(2)),
        ("a3", Variant::Level(3)),
    ];
    compare(mode, "fig10", &circuits, &levels)
}

/// The mirror-decision weight λ against the SABRE baseline. The router
/// ships λ = 2; past it no circuit's depth moves.
fn lambda(mode: &Mode) -> Figure {
    let circuits = [
        ("qft_n18", qft(18, false)),
        ("seca_n11", seca()),
        ("portfolioqaoa_n16", portfolio_qaoa(16, 3, 99)),
        ("swap_test_n25", swap_test(25)),
    ];
    let lambdas = [
        ("sabre", Variant::Sabre),
        ("lambda_0.5", Variant::Lambda(0.5)),
        ("lambda_1", Variant::Lambda(1.0)),
        ("lambda_2", Variant::Lambda(2.0)),
        ("lambda_4", Variant::Lambda(4.0)),
        ("lambda_8", Variant::Lambda(8.0)),
    ];
    compare(mode, "lambda", &circuits, &lambdas)
}

/// Geo-mean depth, gate cost and SWAPs over the 13-circuit routing suite
/// (Table III without wstate and bv), one triple per seed.
struct SuiteRun {
    per_seed: Vec<[f64; 3]>,
    tally: Tally,
}

fn run_suite(target: &Target, router: RouterKind, mode: &Mode) -> SuiteRun {
    let mut suite = paper_suite();
    suite.retain(|(name, _)| !name.starts_with("wstate") && !name.starts_with("bv"));
    let mut tally = Tally::default();
    let mut per_seed = Vec::new();
    for seed in mode.seeds() {
        let opts = mode.options(router, seed);
        let mut columns: [Vec<f64>; 3] = Default::default();
        for (_, circuit) in &suite {
            let m = tally.run(circuit, target, &opts).metrics;
            columns[0].push(m.depth_estimate);
            columns[1].push(m.total_gate_cost);
            columns[2].push(m.swaps_inserted.max(1) as f64);
        }
        per_seed.push(columns.map(|c| geo_mean(&c)));
    }
    SuiteRun { per_seed, tally }
}

/// The keys of a reduction triple.
const REDUCTIONS: [&str; 3] = ["depth_pct", "cost_pct", "swaps_pct"];

/// Per-seed reductions of each Fig. 11/12 case, by case name.
type Reductions = Vec<(String, Vec<[f64; 3]>)>;

/// A reduction case: `new` against `base`, overall and per seed, beside
/// the paper's figures (the first `paper.len()` of [`REDUCTIONS`]). The
/// per-seed reductions go to `reductions` for the gates.
fn reduction_case(
    (figure, reductions): (&mut Figure, &mut Reductions),
    name: String,
    [base, new]: [&SuiteRun; 2],
    paper: &[f64],
) {
    let reduce = |b: &[f64; 3], n: &[f64; 3]| -> [f64; 3] {
        std::array::from_fn(|m| pct_improvement(b[m], n[m]))
    };
    let per_seed: Vec<[f64; 3]> = (base.per_seed.iter().zip(&new.per_seed))
        .map(|(b, n)| reduce(b, n))
        .collect();
    let overall = |run: &SuiteRun| -> [f64; 3] {
        std::array::from_fn(|m| geo_mean(&run.per_seed.iter().map(|s| s[m]).collect::<Vec<_>>()))
    };
    let (b, n) = (overall(base), overall(new));
    let seeds = per_seed.iter().map(|&r| obj(&REDUCTIONS, r, 2));
    let mut fields = vec![
        ("sabre_depth", num(b[0], 1)),
        ("depth", num(n[0], 1)),
        ("ours", obj(&REDUCTIONS, reduce(&b, &n), 2)),
        ("paper", obj(&REDUCTIONS, paper.iter().copied(), 2)),
        ("seeds", Json::Arr(seeds.collect())),
    ];
    if let Some((_, floor)) = FLOORS.iter().find(|(n, _)| *n == name) {
        fields.push(("floor", obj(&REDUCTIONS, *floor, 2)));
    }
    let mut tally = Tally::default();
    tally.add(base.tally.sanity());
    tally.add(new.tally.sanity());
    figure.routed(&name, fields, &tally);
    reductions.push((name, per_seed));
}

/// **Figure 11**: MIRAGE post-selecting its trials on fewest SWAPs
/// instead of estimated depth, against the SABRE baseline on the 6×6
/// lattice. Paper: −24.1% depth. Its depth-metric bar (−29.5% depth at
/// +0.4% gate count) is the 6×6 case of [`fig12`].
fn fig11(mode: &Mode, reductions: &mut Reductions) -> Figure {
    let target = Target::sqrt_iswap(CouplingMap::grid(6, 6));
    let sabre = run_suite(&target, RouterKind::Sabre, mode);
    let swaps = run_suite(&target, RouterKind::MirageSwaps, mode);
    let mut figure = Figure::default();
    let name = "fig11 mirage-swaps".to_owned();
    reduction_case((&mut figure, reductions), name, [&sabre, &swaps], &[24.1]);
    figure
}

/// **Figure 12**: MIRAGE against the SABRE baseline on the 57-qubit
/// heavy-hex and the 6×6 lattice. Paper: heavy-hex −31.19% depth,
/// −16.97% gates, −56.19% SWAPs; lattice −29.58%, −10.25%, −59.86%.
fn fig12(mode: &Mode, reductions: &mut Reductions) -> Figure {
    let mut figure = Figure::default();
    for (device, topo, paper) in [
        (
            "heavy-hex",
            CouplingMap::heavy_hex(5),
            [31.19, 16.97, 56.19],
        ),
        ("grid", CouplingMap::grid(6, 6), [29.58, 10.25, 59.86]),
    ] {
        let target = Target::sqrt_iswap(topo);
        let sabre = run_suite(&target, RouterKind::Sabre, mode);
        let mirage = run_suite(&target, RouterKind::Mirage, mode);
        let name = format!("fig12 {device}");
        reduction_case((&mut figure, reductions), name, [&sabre, &mirage], &paper);
    }
    figure
}

/// Calibration skew: MIRAGE post-selecting on estimated success against
/// SABRE (its native SWAP-count metric) as a quarter of the edges grow 1×,
/// 3× and 10× noisier (base 2Q error 0.5% per application). The same
/// quarter is degraded at every factor. Per factor: geo-mean predicted
/// success over three 6-qubit circuits and the seeds, and MIRAGE's mean
/// mirror acceptance.
fn skew(mode: &Mode) -> Figure {
    let circuits = [
        qft(6, false),
        two_local_full(6, 1, 7),
        portfolio_qaoa(6, 1, 7),
    ];
    let factors = [
        (1.0, ["sabre_1x", "mirage_1x", "mirrors_1x"]),
        (3.0, ["sabre_3x", "mirage_3x", "mirrors_3x"]),
        (10.0, ["sabre_10x", "mirage_10x", "mirrors_10x"]),
    ];
    let mut figure = Figure::default();
    for (device, topo) in [
        ("line", CouplingMap::line(8)),
        ("grid", CouplingMap::grid(4, 4)),
        ("heavy-hex", CouplingMap::heavy_hex(3)),
    ] {
        let mut tally = Tally::default();
        let mut fields = Vec::new();
        for (factor, keys) in factors {
            let cal = Calibration::skewed(&topo, &mut Rng::new(0xCA11B), 5e-3, 0.25, factor);
            let cal = cal.expect("base error and factor are in range");
            let target = Target::sqrt_iswap(topo.clone()).with_calibration(cal);
            let target = target.expect("skewed calibration covers the topology");
            let [mut sabre, mut mirage, mut rates] = [(); 3].map(|()| Vec::new());
            for seed in mode.seeds() {
                let sabre_opts = mode.routed(RouterKind::Sabre, seed);
                let mirage_opts = mode.routed(RouterKind::Mirage, seed);
                let mirage_opts = mirage_opts.with_metric(Metric::EstimatedSuccess);
                for circuit in &circuits {
                    let s = tally.run(circuit, &target, &sabre_opts).metrics;
                    let m = tally.run(circuit, &target, &mirage_opts).metrics;
                    sabre.push(s.estimated_success);
                    mirage.push(m.estimated_success);
                    rates.push(m.mirror_rate);
                }
            }
            let values = [geo_mean(&sabre), geo_mean(&mirage), mean(&rates)];
            fields.extend(keys.iter().zip(values).map(|(&k, x)| (k, num(x, 3))));
        }
        figure.routed(&format!("skew {device}"), fields, &tally);
    }
    figure
}

/// The gates on the Fig. 11/12 reductions: MIRAGE's Fig. 12 depth below
/// SABRE's at every seed, and every seed at or above its floor (full
/// mode), or the Fig. 12 SWAP reductions at or above theirs (quick mode).
fn gate_reductions(mode: &Mode, reductions: &Reductions, verdict: &mut Verdict) {
    let mut gate = |ok: bool, line: String| {
        println!("{line} -> {}", if ok { "ok" } else { "FAIL" });
        verdict.require(ok, line);
    };
    for (name, per_seed) in reductions {
        if name.starts_with("fig12") {
            let line = format!("{name}: MIRAGE depth below SABRE at every seed");
            gate(per_seed.iter().all(|r| r[0] > 0.0), line);
        }
        if mode.quick {
            if let Some((_, floor)) = QUICK_SWAP_FLOORS.iter().find(|(n, _)| n == name) {
                let swaps = per_seed.iter().map(|r| r[2]).fold(f64::INFINITY, f64::min);
                let line = format!("{name}: SWAP reduction {swaps:.2}, quick floor {floor:.2}");
                gate(swaps >= *floor, line);
            }
            continue;
        }
        let Some((_, floor)) = FLOORS.iter().find(|(n, _)| n == name) else {
            gate(false, format!("FLOORS: no entry for {name}"));
            continue;
        };
        let worst: [f64; 3] =
            std::array::from_fn(|m| per_seed.iter().map(|r| r[m]).fold(f64::INFINITY, f64::min));
        let line = format!("{name}: worst seed {worst:.2?}, floor {floor:.2?}");
        gate((0..3).all(|m| worst[m] >= floor[m]), line);
    }
}

/// Key `got` by `"{mode} {case}"`, then print it as pin-table source if
/// asked, else hold it to `pinned`.
fn check_pins<'a, P: Pin + 'a>(
    (args, verdict): (&Args, &mut Verdict),
    table: &str,
    pinned: &[(&str, P)],
    got: impl Iterator<Item = &'a (String, P)>,
) {
    let got: Vec<(String, P)> = got
        .map(|(n, p)| (format!("{} {n}", args.mode()), *p))
        .collect();
    let got: Vec<(&str, P)> = got.iter().map(|(n, p)| (n.as_str(), *p)).collect();
    if args.switch("--print-fingerprints") {
        report::print_pins(table, &got);
    } else {
        verdict.pins(table, pinned, &got);
    }
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    let mode = Mode { quick: args.quick };
    println!(
        "paper — Tables I–II, Figs. 8–12, λ ablation, calibration skew; seeds {:?} ({}, {} threads)\n",
        mode.seeds(),
        args.mode(),
        report::host_cores()
    );

    let sets = table_sets();
    let mut reductions = Reductions::new();
    let figures = [
        table1(&mode, &sets),
        table2(&mode, &sets),
        fig8(&mode),
        fig9(&mode),
        fig10(&mode),
        fig11(&mode, &mut reductions),
        fig12(&mode, &mut reductions),
        lambda(&mode),
        skew(&mode),
    ];

    let mut verdict = Verdict::default();
    let sanity = figures.iter().flat_map(|f| &f.sanity);
    check_pins((&args, &mut verdict), "SANITY", SANITY, sanity);
    let scores = figures.iter().flat_map(|f| &f.scores);
    check_pins((&args, &mut verdict), "SCORES", SCORES, scores);
    if args.switch("--print-fingerprints") {
        return ExitCode::SUCCESS;
    }
    for figure in &figures {
        report::print_cases(&figure.cases);
        println!();
    }
    gate_reductions(&mode, &reductions, &mut verdict);

    let [haar, approx] = mode.samples();
    let config = Json::Obj(vec![
        ("trials", mode.pick("quick", "paper").into()),
        ("seeds", Json::Arr(mode.seeds().map(Json::from).collect())),
        ("haar_samples", haar.into()),
        ("approx_samples", approx.into()),
    ]);
    let cases = figures.into_iter().flat_map(|f| f.cases).collect();
    let doc = report::document(CLI.bin, &args, config, cases, Vec::new());
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
