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
    ("quick grid skewed random", (0x9F4AA31ABE2324C7, 964, 713)),
    ("quick grid skewed noise-aware", (0xA4310A751EE4BA3B, 779, 604)),
    ("quick grid skewed degree-noise", (0x4E9664CAF9993097, 833, 499)),
    ("quick grid skewed vf2", (0x9F4AA31ABE2324C7, 964, 713)),
    ("quick grid synthetic random", (0x4D3E199ED6ADBC5A, 704, 555)),
    ("quick grid synthetic noise-aware", (0xD5E558627DDE5067, 738, 574)),
    ("quick grid synthetic degree-noise", (0xC240B2B0967AFB78, 700, 493)),
    ("quick grid synthetic vf2", (0x4D3E199ED6ADBC5A, 704, 555)),
    ("quick heavy-hex skewed random", (0x9268149BD689A3C5, 1296, 742)),
    ("quick heavy-hex skewed noise-aware", (0x03460C2A4F375FCA, 1303, 711)),
    ("quick heavy-hex skewed degree-noise", (0xB7FE394E351185B4, 1491, 579)),
    ("quick heavy-hex skewed vf2", (0x9268149BD689A3C5, 1296, 742)),
    ("quick heavy-hex synthetic random", (0xC14E1A79F78689AB, 1295, 715)),
    ("quick heavy-hex synthetic noise-aware", (0x4AC4C66614FACB78, 1298, 548)),
    ("quick heavy-hex synthetic degree-noise", (0xA961B35D48011771, 1329, 737)),
    ("quick heavy-hex synthetic vf2", (0xC14E1A79F78689AB, 1295, 715)),
    ("full grid skewed random", (0xC97826612D41E1A2, 2234, 1899)),
    ("full grid skewed noise-aware", (0xB0C800BEE8DEA126, 2308, 1955)),
    ("full grid skewed degree-noise", (0xD70800490F610D89, 2189, 2066)),
    ("full grid skewed vf2", (0xC97826612D41E1A2, 2234, 1899)),
    ("full grid synthetic random", (0x26815DDA8DF21590, 1918, 1861)),
    ("full grid synthetic noise-aware", (0x5DC93DA438DA9CA4, 1908, 1799)),
    ("full grid synthetic degree-noise", (0xECE3FF2E9041CF6F, 1946, 1523)),
    ("full grid synthetic vf2", (0x26815DDA8DF21590, 1918, 1861)),
    ("full heavy-hex skewed random", (0x1463DB78384E6AE2, 3250, 2425)),
    ("full heavy-hex skewed noise-aware", (0x54358C84A2CE2327, 3306, 2464)),
    ("full heavy-hex skewed degree-noise", (0x05753FC9E690EA8D, 3376, 2657)),
    ("full heavy-hex skewed vf2", (0x1463DB78384E6AE2, 3250, 2425)),
    ("full heavy-hex synthetic random", (0xECFEAA3A20721145, 2836, 2704)),
    ("full heavy-hex synthetic noise-aware", (0xF80F66A17084C415, 2839, 2715)),
    ("full heavy-hex synthetic degree-noise", (0xED46E48E330345B5, 3008, 2494)),
    ("full heavy-hex synthetic vf2", (0xECFEAA3A20721145, 2836, 2704)),
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
