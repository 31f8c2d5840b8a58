//! The coverage-geometry perf gate: a session that loads the checked-in
//! atlas against one that builds the coverage set fresh.
//!
//! For each stock basis (√iSWAP, CNOT, CZ — see `stock_specs`) this bin
//! builds the coverage set, decodes its checked-in atlas, collects three
//! query suites —
//!
//! - **hit**: points inside the depth-1 region (jittered gate-class
//!   coordinates), answered after one polytope's rows;
//! - **miss**: genuine depth-2 products, the cheapest voluminous level;
//! - **deep-miss**: Haar points at k ≥ 3 (or uncovered), walking every
//!   non-full level before the terminal full one —
//!
//! and times `CoverageSet::min_k` over each suite, best-of-3, reporting
//! ns/query. Every collected point is first asserted to give the same
//! `min_k` and bit-identical `cost_or_max` on the atlas-loaded set as on
//! the fresh build, so a stale atlas can never hide behind a fast load.
//!
//! **The gated metric is session query throughput.** A *session* is the
//! setup a fresh process pays before its first query plus the sweep's own
//! query volume (`target_queries` per basis), the same shape as a
//! transpile/serve process: setup once, then a stream of cost-cache-miss
//! queries. The fresh session pays `CoverageSet::build` (sampling +
//! quickhull, ~150 ms); the atlas session decodes the checked-in bytes
//! instead (~0.01 ms). Both answer the queries on the same walk.
//!
//! Hard gates (nonzero exit): atlas/fresh answer mismatch, pinned atlas
//! fingerprint drift, and aggregate session throughput below 2×.
//!
//! Usage: `coverage_runtime [--quick] [--out PATH] [--regen-atlases]`
//!
//! `--regen-atlases` rebuilds the stock sets and rewrites the checked-in
//! atlas files (run after an intentional geometry change, then update
//! `ATLAS_FNV` below from its output).

use mirage_bench::print_table;
use mirage_bench::report::{self, hex, num, Cli, Json, Verdict};
use mirage_coverage::atlas::{encode, fnv1a, load_stock, stock_atlas_bytes, stock_specs};
use mirage_coverage::set::{BasisGate, CoverageOptions, CoverageSet};
use mirage_gates::{haar_1q, haar_2q};
use mirage_math::{Mat4, Rng};
use mirage_weyl::coords::{coords_of, WeylCoord};
use std::process::ExitCode;
use std::time::Instant;

const POINT_SEED: u64 = 0xC07E;
const BEST_OF: usize = 3;
/// Haar samples drawn before giving up on filling a rare suite.
const MAX_DRAWS: usize = 200_000;

/// Pinned FNV-1a fingerprints of the checked-in atlas files. `--quick`
/// fails on drift; regenerate with `--regen-atlases` after an intentional
/// geometry or format change.
const ATLAS_FNV: &[(&str, u64)] = &[
    ("sqrt_iswap", 0x6B4813656F018AEE),
    ("cnot", 0x73D34D4A088658C0),
    ("cz", 0x123F5E69DD3B2397),
];

const CLI: Cli = Cli {
    bin: "coverage_runtime",
    default_out: "BENCH_coverage.json",
    switches: &["--regen-atlases"],
    valued: &[],
};

struct Suite {
    name: &'static str,
    points: Vec<WeylCoord>,
}

struct SuiteTiming {
    name: &'static str,
    points: usize,
    query_ns: f64,
}

struct Measured {
    basis: String,
    build_ms: f64,
    atlas_load_ms: f64,
    atlas_fingerprint: u64,
    /// Query volume a session is modeled to serve (per basis).
    target_queries: usize,
    suites: Vec<SuiteTiming>,
}

impl Measured {
    /// Time to answer the session's query volume at the point-weighted
    /// mean ns/query across this basis's suites.
    fn queries_ms(&self) -> f64 {
        let ns: f64 = self
            .suites
            .iter()
            .map(|s| s.query_ns * s.points as f64)
            .sum();
        let n: usize = self.suites.iter().map(|s| s.points).sum();
        self.target_queries as f64 * ns / n.max(1) as f64 / 1e6
    }

    /// Fresh-process session: build the set, then answer the volume.
    fn fresh_session_ms(&self) -> f64 {
        self.build_ms + self.queries_ms()
    }

    /// Atlas session: decode the checked-in atlas, then answer the volume.
    fn atlas_session_ms(&self) -> f64 {
        self.atlas_load_ms + self.queries_ms()
    }

    fn session_speedup(&self) -> f64 {
        self.fresh_session_ms() / self.atlas_session_ms()
    }

    fn json(&self) -> Json {
        let suites = self
            .suites
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("suite", t.name.into()),
                    ("points", t.points.into()),
                    ("query_ns", num(t.query_ns, 1)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("name", self.basis.as_str().into()),
            ("build_ms", num(self.build_ms, 3)),
            ("atlas_load_ms", num(self.atlas_load_ms, 3)),
            ("atlas_fingerprint", hex(self.atlas_fingerprint)),
            ("target_queries", self.target_queries.into()),
            ("fresh_session_ms", num(self.fresh_session_ms(), 3)),
            ("atlas_session_ms", num(self.atlas_session_ms(), 3)),
            ("session_speedup", num(self.session_speedup(), 1)),
            ("suites", Json::Arr(suites)),
        ])
    }
}

/// Collect the hit / miss / deep-miss suites for one coverage set.
fn collect_suites(set: &CoverageSet, basis: &BasisGate, per_suite: usize) -> Vec<Suite> {
    let mut rng = Rng::new(POINT_SEED ^ fnv1a(basis.name.as_bytes()));
    // Keep the first `per_suite` drawn points whose depth `wanted` accepts.
    let mut collect =
        |name, draw: &dyn Fn(&mut Rng) -> WeylCoord, wanted: fn(Option<usize>) -> bool| {
            let points: Vec<WeylCoord> = (0..MAX_DRAWS)
                .map(|_| draw(&mut rng))
                .filter(|w| wanted(set.min_k(w)))
                .take(per_suite)
                .collect();
            assert!(
                !points.is_empty(),
                "{}: could not collect any '{name}' points in {MAX_DRAWS} draws",
                basis.name
            );
            Suite { name, points }
        };
    let c = basis.coord;
    let j = 2e-10;
    vec![
        // Hits: the depth-1 region degenerates to the gate class itself (a
        // single-vertex polytope), so Haar sampling would never land there —
        // jitter the gate coordinate *below* the query tolerance instead, the
        // same perturbation a consolidated-but-numerically-noisy gate carries.
        collect(
            "hit",
            &|rng| {
                WeylCoord::canonicalize(
                    c.a + rng.uniform_range(-j, j),
                    c.b + rng.uniform_range(-j, j),
                    c.c + rng.uniform_range(-j, j),
                )
            },
            |k| k == Some(1),
        ),
        // Misses: genuine depth-2 products `B·(l₁⊗l₂)·B` — the k = 2 region
        // can be measure-zero under Haar (two CNOTs reach only the z = 0
        // plane), so these are synthesized rather than rejection-sampled.
        collect(
            "miss",
            &|rng| {
                let l = Mat4::kron(&haar_1q(rng), &haar_1q(rng));
                coords_of(&basis.unitary.mul(&l).mul(&basis.unitary))
            },
            |k| k == Some(2),
        ),
        // Deep misses come from genuine Haar samples: almost all of the
        // chamber needs k ≥ 3 (or falls off the sampled hulls entirely).
        collect("deep-miss", &|rng| coords_of(&haar_2q(rng)), |k| {
            k.map_or(true, |k| k >= 3)
        }),
    ]
}

/// The atlas-loaded set must answer exactly like the fresh build on every
/// collected point before any timing counts.
fn assert_identical(fresh: &CoverageSet, loaded: &CoverageSet, suites: &[Suite]) {
    let basis = &fresh.basis.name;
    for s in suites {
        for w in &s.points {
            assert_eq!(
                loaded.min_k(w),
                fresh.min_k(w),
                "{basis}/{}: min_k diverged at ({}, {}, {})",
                s.name,
                w.a,
                w.b,
                w.c
            );
            let (cl, cf) = (loaded.cost_or_max(w), fresh.cost_or_max(w));
            assert!(
                cl.to_bits() == cf.to_bits(),
                "{basis}/{name}: cost_or_max diverged ({cl} vs {cf})",
                name = s.name
            );
        }
    }
}

/// Best-of-`BEST_OF` ns/query over `reps` passes of the whole suite.
fn time_queries(points: &[WeylCoord], reps: usize, mut f: impl FnMut(&WeylCoord) -> usize) -> f64 {
    let ms = report::best_ms(BEST_OF, || {
        let mut acc = 0usize;
        for _ in 0..reps {
            for w in points {
                acc = acc.wrapping_add(f(w));
            }
        }
        acc
    });
    ms * 1e6 / (reps * points.len()) as f64
}

fn measure(basis: &BasisGate, opts: &CoverageOptions, quick: bool) -> Measured {
    let t0 = Instant::now();
    let fresh = CoverageSet::build(basis.clone(), opts);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let bytes = stock_atlas_bytes(&basis.name)
        .unwrap_or_else(|| panic!("{}: no embedded atlas", basis.name));
    let t0 = Instant::now();
    let loaded = load_stock(basis, opts).unwrap_or_else(|| {
        panic!(
            "{}: embedded atlas failed to decode (run --regen-atlases)",
            basis.name
        )
    });
    let atlas_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        loaded.levels == fresh.levels,
        "{}: atlas-loaded levels differ from the freshly built set",
        basis.name
    );

    let per_suite = if quick { 60 } else { 200 };
    let target_queries = if quick { 20_000 } else { 100_000 };
    let suites = collect_suites(&fresh, basis, per_suite);
    assert_identical(&fresh, &loaded, &suites);

    let timings = suites
        .iter()
        .map(|s| {
            let reps = (target_queries / s.points.len()).max(1);
            SuiteTiming {
                name: s.name,
                points: s.points.len(),
                query_ns: time_queries(&s.points, reps, |w| loaded.min_k(w).unwrap_or(99)),
            }
        })
        .collect();

    Measured {
        basis: basis.name.clone(),
        build_ms,
        atlas_load_ms,
        atlas_fingerprint: fnv1a(bytes),
        target_queries,
        suites: timings,
    }
}

/// The gated number: total session time (setup + query volume) across all
/// stock bases, fresh build over atlas load.
fn aggregate_session_speedup(rows: &[Measured]) -> f64 {
    let fresh: f64 = rows.iter().map(Measured::fresh_session_ms).sum();
    let atlas: f64 = rows.iter().map(Measured::atlas_session_ms).sum();
    fresh / atlas
}

fn regen_atlases() {
    for (basis, opts) in stock_specs() {
        let t0 = Instant::now();
        let set = CoverageSet::build(basis.clone(), &opts);
        let bytes = encode(&set, &opts);
        let path = format!(
            "{}/../coverage/atlases/{}.atlas",
            env!("CARGO_MANIFEST_DIR"),
            basis.name
        );
        std::fs::write(&path, &bytes).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "    (\"{}\", 0x{:016X}), // {} bytes, built in {:.1}s",
            basis.name,
            fnv1a(&bytes),
            bytes.len(),
            t0.elapsed().as_secs_f64()
        );
    }
    println!("atlases rewritten; update ATLAS_FNV with the lines above");
}

fn main() -> ExitCode {
    let args = CLI.parse_env();
    if args.switch("--regen-atlases") {
        regen_atlases();
        return ExitCode::SUCCESS;
    }
    println!(
        "coverage_runtime — atlas load vs fresh build, best-of-{BEST_OF} ({})\n",
        args.mode()
    );

    let rows: Vec<Measured> = stock_specs()
        .iter()
        .map(|(basis, opts)| measure(basis, opts, args.quick))
        .collect();

    let mut table: Vec<Vec<String>> = Vec::new();
    for r in &rows {
        for t in &r.suites {
            table.push(vec![
                format!("{}/{}", r.basis, t.name),
                t.points.to_string(),
                format!("{:.1}", t.query_ns),
            ]);
        }
    }
    print_table(&["case", "points", "query ns"], &table);

    println!();
    let cases: Vec<Json> = rows.iter().map(Measured::json).collect();
    report::print_cases(&cases);

    let agg = aggregate_session_speedup(&rows);
    let mut verdict = Verdict::default();
    println!();
    verdict.at_least("session throughput speedup", agg, 2.0);
    let pins: Vec<_> = rows
        .iter()
        .map(|r| (r.basis.as_str(), r.atlas_fingerprint))
        .collect();
    verdict.pins("ATLAS_FNV", ATLAS_FNV, &pins);

    let config = Json::Obj(vec![
        ("seed", POINT_SEED.into()),
        ("best_of", BEST_OF.into()),
    ]);
    let extra = vec![("session_speedup", num(agg, 1))];
    let doc = report::document(CLI.bin, &args, config, cases, extra);
    report::finish(CLI.bin, &args.out, &doc, verdict)
}
