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
use mirage_coverage::atlas::{encode, fnv1a, load_stock, stock_atlas_bytes, stock_specs};
use mirage_coverage::set::{BasisGate, CoverageOptions, CoverageSet};
use mirage_gates::{haar_1q, haar_2q};
use mirage_math::{Mat4, Rng};
use mirage_weyl::coords::{coords_of, WeylCoord};
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
}

/// Collect the hit / miss / deep-miss suites for one coverage set.
fn collect_suites(set: &CoverageSet, basis: &BasisGate, per_suite: usize) -> Vec<Suite> {
    let mut rng = Rng::new(POINT_SEED ^ fnv1a(basis.name.as_bytes()));
    let mut hit = Vec::new();
    let mut miss = Vec::new();
    let mut deep = Vec::new();

    // Hits: the depth-1 region degenerates to the gate class itself (a
    // single-vertex polytope), so Haar sampling would never land there —
    // jitter the gate coordinate *below* the query tolerance instead, the
    // same perturbation a consolidated-but-numerically-noisy gate carries.
    let c = basis.coord;
    let mut draws = 0usize;
    while hit.len() < per_suite && draws < MAX_DRAWS {
        draws += 1;
        let j = 2e-10;
        let w = WeylCoord::canonicalize(
            c.a + rng.uniform_range(-j, j),
            c.b + rng.uniform_range(-j, j),
            c.c + rng.uniform_range(-j, j),
        );
        if set.min_k(&w) == Some(1) {
            hit.push(w);
        }
    }

    // Misses: genuine depth-2 products `B·(l₁⊗l₂)·B` — the k = 2 region
    // can be measure-zero under Haar (two CNOTs reach only the z = 0
    // plane), so these are synthesized rather than rejection-sampled.
    let mut draws = 0usize;
    while miss.len() < per_suite && draws < MAX_DRAWS {
        draws += 1;
        let l = Mat4::kron(&haar_1q(&mut rng), &haar_1q(&mut rng));
        let u = basis.unitary.mul(&l).mul(&basis.unitary);
        let w = coords_of(&u);
        if set.min_k(&w) == Some(2) {
            miss.push(w);
        }
    }

    // Deep misses come from genuine Haar samples: almost all of the
    // chamber needs k ≥ 3 (or falls off the sampled hulls entirely).
    let mut draws = 0usize;
    while deep.len() < per_suite && draws < MAX_DRAWS {
        draws += 1;
        let w = coords_of(&haar_2q(&mut rng));
        match set.min_k(&w) {
            Some(k) if k >= 3 => deep.push(w),
            None => deep.push(w),
            _ => {}
        }
    }

    let suites = vec![
        Suite {
            name: "hit",
            points: hit,
        },
        Suite {
            name: "miss",
            points: miss,
        },
        Suite {
            name: "deep-miss",
            points: deep,
        },
    ];
    for s in &suites {
        assert!(
            !s.points.is_empty(),
            "{}: could not collect any '{}' points in {MAX_DRAWS} draws",
            basis.name,
            s.name
        );
    }
    suites
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
    let mut best = f64::INFINITY;
    for _ in 0..BEST_OF {
        let t0 = Instant::now();
        let mut acc = 0usize;
        for _ in 0..reps {
            for w in points {
                acc = acc.wrapping_add(f(w));
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        best = best.min(dt * 1e9 / (reps * points.len()) as f64);
    }
    best
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

fn check_atlas_pins(rows: &[Measured]) -> bool {
    let mut ok = true;
    for row in rows {
        let pinned = ATLAS_FNV.iter().find(|(n, _)| *n == row.basis);
        let got = row.atlas_fingerprint;
        match pinned {
            Some(&(_, want)) if want != got => {
                eprintln!(
                    "ATLAS DRIFT {}: fingerprint 0x{got:016X}, pinned 0x{want:016X}",
                    row.basis
                );
                ok = false;
            }
            Some(_) => {}
            None => {
                eprintln!("ATLAS: no pinned fingerprint for {}", row.basis);
                ok = false;
            }
        }
    }
    ok
}

/// The gated number: total session time (setup + query volume) across all
/// stock bases, fresh build over atlas load.
fn aggregate_session_speedup(rows: &[Measured]) -> f64 {
    let fresh: f64 = rows.iter().map(Measured::fresh_session_ms).sum();
    let atlas: f64 = rows.iter().map(Measured::atlas_session_ms).sum();
    fresh / atlas
}

fn write_json(path: &str, mode: &str, rows: &[Measured]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"coverage_runtime\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!(
        "  \"config\": {{\"seed\": {POINT_SEED}, \"best_of\": {BEST_OF}}},\n"
    ));
    s.push_str("  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"build_ms\": {:.3}, \"atlas_load_ms\": {:.3}, \
             \"atlas_fingerprint\": \"0x{:016X}\", \"target_queries\": {}, \
             \"fresh_session_ms\": {:.3}, \"atlas_session_ms\": {:.3}, \
             \"session_speedup\": {:.1}, \"suites\": [",
            r.basis,
            r.build_ms,
            r.atlas_load_ms,
            r.atlas_fingerprint,
            r.target_queries,
            r.fresh_session_ms(),
            r.atlas_session_ms(),
            r.session_speedup()
        ));
        for (j, t) in r.suites.iter().enumerate() {
            s.push_str(&format!(
                "{{\"suite\": \"{}\", \"points\": {}, \"query_ns\": {:.1}}}{}",
                t.name,
                t.points,
                t.query_ns,
                if j + 1 == r.suites.len() { "" } else { ", " }
            ));
        }
        s.push_str(&format!(
            "]}}{}",
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"session_speedup\": {:.1}\n",
        aggregate_session_speedup(rows)
    ));
    s.push_str("}\n");
    std::fs::write(path, s)
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--regen-atlases") {
        regen_atlases();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_coverage.json".to_owned());

    let mode = if quick { "quick" } else { "full" };
    println!("coverage_runtime — atlas load vs fresh build, best-of-{BEST_OF} ({mode})\n");

    let rows: Vec<Measured> = stock_specs()
        .iter()
        .map(|(basis, opts)| measure(basis, opts, quick))
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
    let session: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.basis.clone(),
                format!("{:.1}", r.build_ms),
                format!("{:.3}", r.atlas_load_ms),
                r.target_queries.to_string(),
                format!("{:.1}", r.fresh_session_ms()),
                format!("{:.1}", r.atlas_session_ms()),
                format!("{:.0}x", r.session_speedup()),
            ]
        })
        .collect();
    print_table(
        &[
            "basis",
            "build ms",
            "atlas ms",
            "queries",
            "fresh session ms",
            "atlas session ms",
            "speedup",
        ],
        &session,
    );

    let agg = aggregate_session_speedup(&rows);
    println!("\nsession throughput speedup (gated, >= 2x): {agg:.1}x");

    let pins_ok = check_atlas_pins(&rows);
    match write_json(&out_path, mode, &rows) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    if !pins_ok {
        eprintln!("coverage_runtime: atlas fingerprints drifted from the pins");
        std::process::exit(1);
    }
    if agg < 2.0 {
        eprintln!("coverage_runtime: session throughput speedup {agg:.2}x is below the 2x gate");
        std::process::exit(1);
    }
}
