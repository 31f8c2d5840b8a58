//! Placement shootout at paper scale: does calibration-aware seeding beat
//! the paper's uniform-random layout trials on a noisy device?
//!
//! The Table III suite is transpiled with MIRAGE onto `grid(6,6)` and
//! `heavy_hex(5)`, each under a [`Calibration::skewed`] device (10×
//! noisier outlier couplers on a random quarter of the edges) and a
//! [`Calibration::synthetic`] one, post-selecting on
//! [`Metric::EstimatedSuccess`] with the VF2 pre-pass on. Every layout
//! trial of a run is seeded by one lane: `random` (the paper's setup),
//! `noise-aware`, `degree-noise` or `vf2`. `--quick` runs
//! [`TranspileOptions::quick`] at seed 0; the full run uses
//! [`TranspileOptions::paper`] at seeds 0–2.
//!
//! Each (device, calibration, lane) cell reports the geo-mean estimated
//! success over the suite, overall and for its worst and best seed, and is
//! pinned per mode by the FNV-1a fold of its output fingerprints plus its
//! SWAP and mirror totals. The gates (nonzero exit on failure):
//!
//! * **Pins** — every cell matches [`SANITY`].
//! * **Keep rule** — each calibration-aware lane beats `random` beyond the
//!   seed spread (its worst seed above random's best) on at least one
//!   (device, calibration) pair.
//! * **Per pair** — on every (device, calibration) pair, the better of
//!   `noise-aware` and `degree-noise` is no worse than `random`.
//!
//! Usage: `layout_strategies [--quick] [--out PATH] [--print-fingerprints]`

use mirage_bench::geo_mean;
use mirage_bench::report::{self, hex, num, Cli, Json, Sanity, Verdict};
use mirage_circuit::generators::paper_suite;
use mirage_core::calibration::Calibration;
use mirage_core::trials::Metric;
use mirage_core::{transpile, RouterKind, StrategyKind, Target, TranspileOptions};
use mirage_math::hash::Fnv1a;
use mirage_math::Rng;
use mirage_topology::CouplingMap;
use std::ops::Range;
use std::process::ExitCode;

/// The compared seeding lanes; `random` is the baseline.
const LANES: [StrategyKind; 4] = [
    StrategyKind::Random,
    StrategyKind::NoiseAware,
    StrategyKind::DegreeNoise,
    StrategyKind::Vf2Embed,
];

/// The lanes the keep rule holds to beating `random`.
const AWARE: [StrategyKind; 2] = [StrategyKind::NoiseAware, StrategyKind::DegreeNoise];

const BASE_ERROR: f64 = 5e-3;
const OUTLIER_FRACTION: f64 = 0.25;
const SKEW_FACTOR: f64 = 10.0;
const CALIBRATION_SEED: u64 = 0xCA11B;

/// `"{mode} {device} {calibration} {lane}"`: FNV-1a fold of the output
/// fingerprints (seed-major, suite order), total SWAPs, total mirrors.
/// Regenerate with `--print-fingerprints` after an intentional behaviour
/// change.
#[rustfmt::skip]
const SANITY: &[(&str, Sanity)] = &[
    ("quick grid skewed random", (0xEB46235428AD0CF7, 699, 709)),
    ("quick grid skewed noise-aware", (0x178D48AC40776E1E, 791, 597)),
    ("quick grid skewed degree-noise", (0xBA7D9FDA7AFD27AA, 752, 664)),
    ("quick grid skewed vf2", (0xEB46235428AD0CF7, 699, 709)),
    ("quick grid synthetic random", (0xE43AED143F181C36, 669, 515)),
    ("quick grid synthetic noise-aware", (0xCC5B9CF9C50F9601, 675, 659)),
    ("quick grid synthetic degree-noise", (0xD9A79E97861BCBA1, 636, 630)),
    ("quick grid synthetic vf2", (0xE43AED143F181C36, 669, 515)),
    ("quick heavy-hex skewed random", (0x60CA5187AC3791D1, 1121, 731)),
    ("quick heavy-hex skewed noise-aware", (0xC6986327663A2E74, 1504, 427)),
    ("quick heavy-hex skewed degree-noise", (0x4C00EBEE4204483C, 1473, 539)),
    ("quick heavy-hex skewed vf2", (0x60CA5187AC3791D1, 1121, 731)),
    ("quick heavy-hex synthetic random", (0xA019F7859A15E363, 1364, 702)),
    ("quick heavy-hex synthetic noise-aware", (0x60F51E1F4F00AB5C, 1100, 1047)),
    ("quick heavy-hex synthetic degree-noise", (0xF60DB93C258EE0DB, 1267, 676)),
    ("quick heavy-hex synthetic vf2", (0xA019F7859A15E363, 1364, 702)),
    ("full grid skewed random", (0xA3A27A1C5AB4BAC3, 2140, 1841)),
    ("full grid skewed noise-aware", (0x52062342A54B58D4, 1954, 2184)),
    ("full grid skewed degree-noise", (0x38420F904293A979, 2129, 1988)),
    ("full grid skewed vf2", (0xA3A27A1C5AB4BAC3, 2140, 1841)),
    ("full grid synthetic random", (0x690CDE1EB581E901, 1619, 2200)),
    ("full grid synthetic noise-aware", (0xBE952F7E43CE3350, 1665, 2127)),
    ("full grid synthetic degree-noise", (0x59E8C3C9544D9238, 1640, 1937)),
    ("full grid synthetic vf2", (0x690CDE1EB581E901, 1619, 2200)),
    ("full heavy-hex skewed random", (0x8B06E103AFF4B854, 3427, 2466)),
    ("full heavy-hex skewed noise-aware", (0x01A6DA3615D32685, 3076, 2793)),
    ("full heavy-hex skewed degree-noise", (0x23DEDB9978DAE549, 3361, 2348)),
    ("full heavy-hex skewed vf2", (0x8B06E103AFF4B854, 3427, 2466)),
    ("full heavy-hex synthetic random", (0x581A6FC0849C24AC, 2622, 2718)),
    ("full heavy-hex synthetic noise-aware", (0x5C703D1A7812BAE4, 2727, 2754)),
    ("full heavy-hex synthetic degree-noise", (0x5B65FD9AF091F858, 2794, 2709)),
    ("full heavy-hex synthetic vf2", (0x581A6FC0849C24AC, 2622, 2718)),
];

const CLI: Cli = Cli {
    bin: "layout_strategies",
    default_out: "BENCH_placement.json",
    switches: &["--print-fingerprints"],
    valued: &[],
};

/// One (device, calibration, lane) cell over every seed and circuit.
struct Cell {
    name: String,
    lane: StrategyKind,
    /// Geo-mean estimated success over the suite, one per seed.
    per_seed: Vec<f64>,
    swaps: usize,
    mirrors: usize,
    fold: Fnv1a,
}

impl Cell {
    fn run(
        name: String,
        target: &Target,
        lane: StrategyKind,
        seeds: Range<u64>,
        quick: bool,
    ) -> Cell {
        let mut cell = Cell {
            name,
            lane,
            per_seed: Vec::new(),
            swaps: 0,
            mirrors: 0,
            fold: Fnv1a::new(),
        };
        for seed in seeds {
            let opts = if quick {
                TranspileOptions::quick(RouterKind::Mirage, seed)
            } else {
                TranspileOptions::paper(RouterKind::Mirage, seed)
            };
            let mut opts = opts.with_metric(Metric::EstimatedSuccess);
            opts.trials = opts.trials.with_strategy(lane);
            let mut successes = Vec::new();
            for (circuit_name, circuit) in paper_suite() {
                let out = transpile(&circuit, target, &opts)
                    .unwrap_or_else(|e| panic!("{circuit_name} ({}): {e}", cell.name));
                cell.fold.write_u64(out.circuit.fingerprint());
                cell.swaps += out.metrics.swaps_inserted;
                cell.mirrors += out.metrics.mirrors_accepted;
                successes.push(out.metrics.estimated_success);
            }
            cell.per_seed.push(geo_mean(&successes));
        }
        cell
    }

    fn success(&self) -> f64 {
        geo_mean(&self.per_seed)
    }

    fn worst(&self) -> f64 {
        self.per_seed.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn best(&self) -> f64 {
        self.per_seed.iter().copied().fold(0.0, f64::max)
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("cell", self.name.as_str().into()),
            ("success", num(self.success(), 4)),
            ("seed_min", num(self.worst(), 4)),
            ("seed_max", num(self.best(), 4)),
            ("swaps", self.swaps.into()),
            ("mirrors", self.mirrors.into()),
            ("fingerprint", hex(self.fold.finish())),
        ])
    }
}

fn lane_of(cells: &[Cell], lane: StrategyKind) -> &Cell {
    cells
        .iter()
        .find(|c| c.lane == lane)
        .expect("every lane runs in every group")
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    let seeds = if args.quick { 0..1 } else { 0..3 };
    println!(
        "layout_strategies — paper suite, mirage, estimated success, seeds {seeds:?} ({}, {} threads)\n",
        args.mode(),
        report::host_cores()
    );

    // One group of cells, one per lane, for each (device, calibration).
    let mut groups: Vec<(String, Vec<Cell>)> = Vec::new();
    for (device, topo) in [
        ("grid", CouplingMap::grid(6, 6)),
        ("heavy-hex", CouplingMap::heavy_hex(5)),
    ] {
        let rng = || Rng::new(CALIBRATION_SEED);
        let skewed =
            Calibration::skewed(&topo, &mut rng(), BASE_ERROR, OUTLIER_FRACTION, SKEW_FACTOR)
                .expect("base error and factor are in range");
        let synthetic = Calibration::synthetic(&topo, &mut rng());
        for (calibration, cal) in [("skewed", skewed), ("synthetic", synthetic)] {
            let target = Target::sqrt_iswap(topo.clone())
                .with_calibration(cal)
                .expect("calibration covers the topology");
            let group = format!("{device} {calibration}");
            let cells = LANES
                .map(|lane| {
                    let name = format!("{} {group} {}", args.mode(), lane.name());
                    Cell::run(name, &target, lane, seeds.clone(), args.quick)
                })
                .into();
            groups.push((group, cells));
        }
    }

    let cells: Vec<&Cell> = groups.iter().flat_map(|(_, cells)| cells).collect();
    let pins: Vec<(&str, Sanity)> = cells
        .iter()
        .map(|c| (c.name.as_str(), (c.fold.finish(), c.swaps, c.mirrors)))
        .collect();
    if args.switch("--print-fingerprints") {
        report::print_pins("SANITY", &pins);
        return ExitCode::SUCCESS;
    }
    let cases: Vec<Json> = cells.iter().map(|c| c.json()).collect();
    report::print_cases(&cases);

    let mut verdict = Verdict::default();
    verdict.pins("SANITY", SANITY, &pins);
    println!();
    for (group, cells) in &groups {
        let random = lane_of(cells, StrategyKind::Random).success();
        let best = AWARE.map(|lane| lane_of(cells, lane).success());
        let best = best[0].max(best[1]);
        let ok = best >= random;
        let line = format!("{group}: best aware lane {best:.4} vs random {random:.4}");
        println!("{line} -> {}", if ok { "ok" } else { "FAIL" });
        verdict.require(ok, line);
    }
    let mut keep = Vec::new();
    for lane in AWARE {
        let wins: Vec<&str> = groups
            .iter()
            .filter(|(_, cells)| {
                lane_of(cells, lane).worst() > lane_of(cells, StrategyKind::Random).best()
            })
            .map(|(group, _)| group.as_str())
            .collect();
        let ok = !wins.is_empty();
        let line = format!(
            "keep {}: beats random beyond the seed spread on {wins:?}",
            lane.name()
        );
        println!("{line} -> {}", if ok { "ok" } else { "FAIL" });
        verdict.require(ok, line);
        let wins = Json::Arr(wins.into_iter().map(Json::from).collect());
        keep.push(Json::Obj(vec![
            ("lane", lane.name().into()),
            ("wins", wins),
        ]));
    }

    let config = Json::Obj(vec![
        ("router", "mirage".into()),
        ("metric", "estimated-success".into()),
        (
            "trials",
            (if args.quick { "quick" } else { "paper" }).into(),
        ),
        ("seeds", Json::Arr(seeds.map(Json::from).collect())),
    ]);
    let doc = report::document(
        CLI.bin,
        &args,
        config,
        cases,
        vec![("keep_rule", Json::Arr(keep))],
    );
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
