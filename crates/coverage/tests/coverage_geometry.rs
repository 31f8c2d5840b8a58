//! Property suite for the coverage geometry: pinned fingerprints of the
//! query answers (`min_k`, `cost_or_max`, `level_distance`, down to the
//! last bit) over adversarial points, atlas round-trips, the checked-in
//! atlases against a fresh build, and shared-set queries across threads.
//!
//! Points come from three adversarial families: Haar-random coordinates
//! (volume coverage), sub-tolerance jitter around the basis gate class (the
//! degenerate depth-1 point regions), and jitter straddling region facets at
//! scales from well inside to well outside the tolerance (where a
//! misrounded membership test would first diverge).
//!
//! `concurrent_queries_consistent` honors `MIRAGE_TEST_THREADS` (default 4)
//! like the golden-routing suite: shared-set queries from `n` threads must
//! equal the serial answers.

use mirage_coverage::atlas::{decode, encode, load_stock, stock_atlas_bytes, stock_specs};
use mirage_coverage::set::{alcove_rep, BasisGate, CoverageOptions, CoverageSet};
use mirage_gates::haar_2q;
use mirage_math::hash::fnv1a;
use mirage_math::Rng;
use mirage_weyl::coords::{coords_of, WeylCoord};

const SEED: u64 = 0x6E0;

/// Pinned FNV-1a fingerprints of the checked-in atlas files — must match
/// the `ATLAS_FNV` table in `coverage_runtime`. A drift here means the
/// atlases were regenerated without updating the pins (or vice versa).
const ATLAS_FNV: &[(&str, u64)] = &[
    ("sqrt_iswap", 0x6B4813656F018AEE),
    ("cnot", 0x73D34D4A088658C0),
    ("cz", 0x123F5E69DD3B2397),
];

fn haar_points(rng: &mut Rng, n: usize) -> Vec<WeylCoord> {
    (0..n).map(|_| coords_of(&haar_2q(rng))).collect()
}

/// Jittered copies of `w` at the given per-axis scale (canonicalized back
/// into the chamber, so both query paths see identical coordinates).
fn jitter(rng: &mut Rng, w: [f64; 3], scale: f64, n: usize) -> Vec<WeylCoord> {
    (0..n)
        .map(|_| {
            WeylCoord::canonicalize(
                w[0] + rng.uniform_range(-scale, scale),
                w[1] + rng.uniform_range(-scale, scale),
                w[2] + rng.uniform_range(-scale, scale),
            )
        })
        .collect()
}

/// The adversarial point families for one coverage set: Haar volume
/// samples, sub-tolerance gate-class jitter, and facet-straddling jitter at
/// scales bracketing the membership tolerance.
fn adversarial_points(set: &CoverageSet, rng: &mut Rng, haar_n: usize) -> Vec<WeylCoord> {
    let mut pts = haar_points(rng, haar_n);
    let c = set.basis.coord;
    for scale in [1e-13, 1e-10, 1e-8, 1e-5] {
        pts.extend(jitter(rng, [c.a, c.b, c.c], scale, 12));
    }
    // Facet straddlers: project a Haar point onto each region, then jitter
    // around the projection at scales from far inside the tolerance (1e-13)
    // to far outside it (1e-5). The projection sits exactly on the nearest
    // facet, so these probe the contains/excess rounding on both sides.
    let anchors = haar_points(rng, 4);
    for level in &set.levels {
        for region in &level.regions {
            for w in &anchors {
                let q = region.nearest_point(alcove_rep(w));
                for scale in [1e-13, 1e-10, 1e-8, 1e-5] {
                    pts.extend(jitter(rng, q, scale, 3));
                }
            }
        }
    }
    pts
}

/// The dense mirror-inclusive custom configuration: more levels and more
/// regions than any stock set.
fn dense_custom_spec() -> (BasisGate, CoverageOptions) {
    let opts = CoverageOptions {
        max_k: 4,
        samples_per_k: 800,
        inflation: 0.02,
        mirrors: true,
        seed: 0xD05E,
    };
    (BasisGate::iswap_root(2), opts)
}

/// Pinned FNV-1a fingerprints of the query answers over each set's
/// adversarial points: `(set, [min_k, cost_or_max bits, level_distance
/// bits])`. The stock rows use the stock specs; `dense` is
/// [`dense_custom_spec`]. Any change to a query's answer on any point,
/// down to the last bit of a distance, moves a pin.
const QUERY_FNV: &[(&str, [u64; 3])] = &[
    (
        "sqrt_iswap",
        [0x4DCE5326333D2F84, 0x35351CC60084DEAD, 0x281FF075F6A216C1],
    ),
    (
        "cnot",
        [0x8342D0AC2CED0E04, 0xE3C7174F515E88DD, 0xFD2A6E81CAE53A8C],
    ),
    (
        "cz",
        [0x3FE3072897F93BC4, 0x6AE2FDCDA77F07BD, 0xBCF1334EB827E2EE],
    ),
    (
        "dense",
        [0x4843A8966EA6B465, 0xDA339CB0ECDE8F85, 0xAED8DB34918FC14D],
    ),
];

/// Fold `min_k`, `cost_or_max` and `level_distance` (every built level
/// plus one past the deepest, which must answer `None`) over the set's
/// adversarial points into three FNV-1a fingerprints. The point stream is
/// seeded per set label, so each row is independent of the others.
fn query_fingerprints(label: &str, set: &CoverageSet) -> [u64; 3] {
    let mut rng = Rng::new(SEED ^ fnv1a(label.as_bytes()));
    let pts = adversarial_points(set, &mut rng, 2000);
    let (mut mk, mut cost, mut dist) = (Vec::new(), Vec::new(), Vec::new());
    for w in &pts {
        let k = set.min_k(w).map_or(u64::MAX, |k| k as u64);
        mk.extend_from_slice(&k.to_le_bytes());
        cost.extend_from_slice(&set.cost_or_max(w).to_bits().to_le_bytes());
        for k in 1..=set.levels.len() + 1 {
            let d = set.level_distance(k, w).map(f64::to_bits);
            dist.extend_from_slice(&d.unwrap_or(u64::MAX).to_le_bytes());
        }
    }
    [fnv1a(&mk), fnv1a(&cost), fnv1a(&dist)]
}

#[test]
fn query_answers_match_pins() {
    let mut sets: Vec<(String, CoverageSet)> = stock_specs()
        .into_iter()
        .map(|(basis, opts)| {
            let set = load_stock(&basis, &opts)
                .unwrap_or_else(|| panic!("{}: embedded atlas failed to decode", basis.name));
            (basis.name, set)
        })
        .collect();
    let (basis, opts) = dense_custom_spec();
    sets.push(("dense".to_owned(), CoverageSet::build(basis, &opts)));
    let mut drift = Vec::new();
    for (label, set) in &sets {
        let got = query_fingerprints(label, set);
        let pin = QUERY_FNV
            .iter()
            .find(|p| p.0 == label.as_str())
            .map(|p| p.1);
        if pin != Some(got) {
            drift.push(format!(
                "    (\"{label}\", [0x{:016X}, 0x{:016X}, 0x{:016X}]),",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "query fingerprints drifted from the pins; current values:\n{}",
        drift.join("\n")
    );
    assert_eq!(QUERY_FNV.len(), sets.len(), "a pinned set has no query row");
}

/// Encode → decode reproduces the exact set (same levels, tolerance and
/// mirror flag) for every stock spec and for the dense multi-region set.
#[test]
fn atlas_round_trip_is_exact() {
    for (basis, opts) in stock_specs().into_iter().chain([dense_custom_spec()]) {
        let set = CoverageSet::build(basis.clone(), &opts);
        let bytes = encode(&set, &opts);
        let decoded = decode(&bytes, &basis, &opts)
            .unwrap_or_else(|| panic!("{}: round-trip decode failed", basis.name));
        assert_eq!(decoded.levels, set.levels, "{}: levels drifted", basis.name);
        assert!(decoded.tol.to_bits() == set.tol.to_bits());
        assert_eq!(decoded.mirrors, set.mirrors);
    }
}

/// The checked-in atlas files decode, match their pinned fingerprints, and
/// reproduce a fresh build exactly — `Target`'s stock sets load, never
/// rebuild, and lose nothing by it.
#[test]
fn stock_atlases_match_pins_and_fresh_build() {
    for (basis, opts) in stock_specs() {
        let bytes = stock_atlas_bytes(&basis.name)
            .unwrap_or_else(|| panic!("{}: no embedded atlas", basis.name));
        let &(_, pin) = ATLAS_FNV
            .iter()
            .find(|(n, _)| *n == basis.name)
            .unwrap_or_else(|| panic!("{}: no pinned fingerprint", basis.name));
        assert_eq!(
            fnv1a(bytes),
            pin,
            "{}: atlas fingerprint drifted from the pin (regen + update pins)",
            basis.name
        );
        let loaded = load_stock(&basis, &opts)
            .unwrap_or_else(|| panic!("{}: embedded atlas failed to decode", basis.name));
        let fresh = CoverageSet::build(basis.clone(), &opts);
        assert_eq!(loaded.levels, fresh.levels, "{}: levels", basis.name);
    }
}

/// Atlas loading is fail-safe: any identity or integrity mismatch falls
/// back to `None` (callers rebuild) rather than loading wrong geometry.
#[test]
fn atlas_decode_rejects_corruption_and_mismatch() {
    let (basis, opts) = &stock_specs()[0];
    let set = CoverageSet::build(basis.clone(), opts);
    let bytes = encode(&set, opts);

    let mut other_opts = opts.clone();
    other_opts.inflation += 1e-3;
    assert!(
        decode(&bytes, basis, &other_opts).is_none(),
        "decode must reject mismatched build options"
    );

    let other_basis = BasisGate::cnot();
    assert!(
        decode(&bytes, &other_basis, opts).is_none(),
        "decode must reject a different basis identity"
    );

    assert!(
        decode(&bytes[..bytes.len() - 1], basis, opts).is_none(),
        "decode must reject truncation"
    );

    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(
        decode(&flipped, basis, opts).is_none(),
        "decode must reject a flipped payload byte (checksum)"
    );
}

/// Shared-set queries from `MIRAGE_TEST_THREADS` threads (default 4) give
/// exactly the serial answers — the query path is read-only and `Sync`.
#[test]
fn concurrent_queries_consistent() {
    let threads: usize = std::env::var("MIRAGE_TEST_THREADS")
        .ok()
        .map(|s| s.parse().expect("MIRAGE_TEST_THREADS must be an integer"))
        .unwrap_or(4);
    for (basis, opts) in [stock_specs()[0].clone(), dense_custom_spec()] {
        let set = CoverageSet::build(basis, &opts);
        let mut rng = Rng::new(SEED ^ 4);
        let pts = haar_points(&mut rng, 2000);
        let serial: Vec<Option<usize>> = pts.iter().map(|w| set.min_k(w)).collect();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (set, pts, serial) = (&set, &pts, &serial);
                scope.spawn(move || {
                    for (i, w) in pts.iter().enumerate().skip(t).step_by(threads) {
                        assert_eq!(
                            set.min_k(w),
                            serial[i],
                            "{}: thread {t} diverged from serial at point {i}",
                            set.basis.name
                        );
                    }
                });
            }
        });
    }
}
