//! Coverage sets: per-depth reachable regions of the Weyl chamber for a
//! given basis gate, in standard and mirror-inclusive flavors.
//!
//! The region reachable by `k` applications of a basis gate `B` interleaved
//! with arbitrary single-qubit gates is a convex polytope in canonical
//! coordinates (the monodromy polytope). We construct it by *sampling* the
//! ansatz — random interleaved local gates plus a systematic enumeration of
//! Pauli interleavings (which land on the polytope's extreme points) — and
//! hulling the resulting coordinates. A small outward inflation compensates
//! the residual inward bias of a finite sample.
//!
//! The **mirror-inclusive** variant (paper §III-B) additionally contains the
//! mirror image of every reachable point: `P ∪ mirror(P)`. The mirror map
//! (Eq. 1) is piecewise affine, so the image splits into at most two convex
//! pieces, which we keep as separate polytopes — the union is generally
//! *not* convex.
//!
//! # Coordinate representation
//!
//! Internally, regions live in the *alcove* representation
//! `(x, y, z)` with `π/4 ≥ x ≥ y ≥ |z|` (`z` signed), related to the
//! paper-chamber point `(a, b, c)` by `x = a, z = c` when `a ≤ π/4` and
//! `x = π/2 − a, z = −c` otherwise. Reachable sets are convex there;
//! in the paper chamber the base-plane fold (`(a,b,0) ≡ (π/2−a,b,0)`)
//! tears near-identity regions into two far-apart lobes, which a single
//! convex hull would spuriously bridge. Because every reachable set is
//! closed under complex conjugation (`z → −z`), regions are built
//! z-symmetrically, which also absorbs the `x = π/4` boundary seam.

use crate::geom::ConvexPolytope;
use mirage_gates::{haar_1q, iswap_alpha, oneq};
use mirage_math::{Mat4, Rng, PI_2, PI_4};
use mirage_weyl::coords::{coords_of, WeylCoord};
#[cfg(test)]
use mirage_weyl::mirror::mirror_coord;

/// Volume of the full Weyl chamber tetrahedron, `π³/192`.
pub const CHAMBER_VOLUME: f64 = {
    let pi = std::f64::consts::PI;
    pi * pi * pi / 192.0
};

/// Convert a canonical paper-chamber point into the alcove representation
/// `(x, y, z)` with `π/4 ≥ x ≥ y ≥ |z|` (see the module docs).
#[inline(always)]
pub fn alcove_rep(w: &WeylCoord) -> [f64; 3] {
    // Select form: the fold test `a > π/4` is a coin flip on Haar inputs,
    // so both arms are computed and picked per component (LLVM emits a
    // conditional move, not a branch) — bit-identical to the branchy fold.
    let flip = w.a > PI_4;
    let x = if flip { PI_2 - w.a } else { w.a };
    let z = if flip { -w.c } else { w.c };
    [x, w.b, z]
}

/// A basis gate with its normalized time cost.
///
/// The paper normalizes `iSWAP` to unit duration with 99% fidelity;
/// fractional `iSWAP^α` gates have duration `α`.
#[derive(Debug, Clone)]
pub struct BasisGate {
    /// Human-readable name, e.g. `"sqrt_iswap"`.
    pub name: String,
    /// The gate matrix.
    pub unitary: Mat4,
    /// Normalized duration of one application (iSWAP = 1.0).
    pub duration: f64,
    /// Canonical coordinates of the gate.
    pub coord: WeylCoord,
}

impl BasisGate {
    /// The `iSWAP^(1/n)` basis gate (duration `1/n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn iswap_root(n: u32) -> BasisGate {
        assert!(n > 0, "iswap_root requires n ≥ 1");
        let alpha = 1.0 / f64::from(n);
        let u = iswap_alpha(alpha);
        BasisGate {
            name: match n {
                1 => "iswap".to_owned(),
                2 => "sqrt_iswap".to_owned(),
                _ => format!("iswap_1_{n}"),
            },
            unitary: u,
            duration: alpha,
            coord: WeylCoord::iswap_alpha(alpha),
        }
    }

    /// The CNOT basis gate (unit duration).
    pub fn cnot() -> BasisGate {
        BasisGate {
            name: "cnot".to_owned(),
            unitary: mirage_gates::cnot(),
            duration: 1.0,
            coord: WeylCoord::CNOT,
        }
    }

    /// The CZ basis gate (unit duration; same canonical class as CNOT).
    pub fn cz() -> BasisGate {
        BasisGate {
            name: "cz".to_owned(),
            unitary: mirage_gates::cz(),
            duration: 1.0,
            coord: WeylCoord::CNOT,
        }
    }
}

/// The coverage region for a fixed number of basis-gate applications.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageLevel {
    /// Number of basis-gate applications.
    pub k: usize,
    /// Union of convex pieces forming the reachable region.
    pub regions: Vec<ConvexPolytope>,
    /// Circuit cost of this level: `k × basis duration`.
    pub cost: f64,
    /// True when this level covers the entire chamber.
    pub full: bool,
}

impl CoverageLevel {
    /// Membership query with tolerance.
    pub fn contains(&self, w: &WeylCoord, tol: f64) -> bool {
        if self.full {
            return true;
        }
        let p = alcove_rep(w);
        self.regions.iter().any(|r| r.contains(p, tol))
    }

    /// Euclidean distance from the point to the region (0 when inside).
    pub fn distance(&self, w: &WeylCoord) -> f64 {
        if self.full {
            return 0.0;
        }
        let p = alcove_rep(w);
        self.regions
            .iter()
            .map(|r| r.distance(p))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Options controlling coverage-set construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageOptions {
    /// Maximum ansatz depth to build.
    pub max_k: usize,
    /// Random interleaved-local samples per depth.
    pub samples_per_k: usize,
    /// Outward inflation applied to each hull (radians).
    pub inflation: f64,
    /// Include mirror images (paper §III-B).
    pub mirrors: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CoverageOptions {
    fn default() -> Self {
        CoverageOptions {
            max_k: 4,
            samples_per_k: 4000,
            inflation: 0.01,
            mirrors: false,
            seed: 0x5EED,
        }
    }
}

/// Per-depth coverage regions for a basis gate.
///
/// `levels` is the whole geometry: every query (`min_k`, `min_cost`,
/// `cost_or_max`, `level_distance`, `haar_coverage`) walks the per-level
/// polytopes through [`CoverageLevel::contains`] and
/// [`CoverageLevel::distance`], so there is no derived state to keep in
/// sync with it.
#[derive(Debug, Clone)]
pub struct CoverageSet {
    /// The basis gate this set describes.
    pub basis: BasisGate,
    /// Levels in ascending `k`, starting at `k = 1`.
    pub levels: Vec<CoverageLevel>,
    /// Whether mirror images were included.
    pub mirrors: bool,
    /// Membership tolerance used by cost queries.
    pub tol: f64,
}

impl CoverageSet {
    /// Build the coverage set for `basis` under the given options.
    pub fn build(basis: BasisGate, opts: &CoverageOptions) -> CoverageSet {
        let mut rng = Rng::new(opts.seed);
        let mut levels = Vec::with_capacity(opts.max_k);
        let probes = chamber_probes();
        for k in 1..=opts.max_k {
            let pts = sample_ansatz_coords(&basis.unitary, k, opts.samples_per_k, &mut rng);
            let regions = build_regions(&pts, opts.inflation, opts.mirrors);
            let level_tmp = CoverageLevel {
                k,
                regions,
                cost: k as f64 * basis.duration,
                full: false,
            };
            let full = probes.iter().all(|w| level_tmp.contains(w, 1e-9));
            let mut level = level_tmp;
            level.full = full;
            let is_full = level.full;
            levels.push(level);
            if is_full {
                break;
            }
        }
        CoverageSet {
            basis,
            levels,
            mirrors: opts.mirrors,
            tol: 1e-9,
        }
    }

    /// Minimum number of applications whose region contains `w`, or `None`
    /// if no built level reaches it. Levels are monotone in `k`, so the
    /// first containing level is the answer.
    pub fn min_k(&self, w: &WeylCoord) -> Option<usize> {
        self.levels
            .iter()
            .find(|l| l.contains(w, self.tol))
            .map(|l| l.k)
    }

    /// Minimum circuit cost (duration) to reach `w`; `None` if unreachable
    /// within the built depth.
    pub fn min_cost(&self, w: &WeylCoord) -> Option<f64> {
        self.min_k(w).map(|k| k as f64 * self.basis.duration)
    }

    /// Minimum cost with a worst-case fallback: unreachable coordinates are
    /// charged one application beyond the deepest built level. Keeps router
    /// cost functions total.
    pub fn cost_or_max(&self, w: &WeylCoord) -> f64 {
        self.min_cost(w)
            .unwrap_or((self.levels.len() as f64 + 1.0) * self.basis.duration)
    }

    /// Euclidean distance from `w` to level `k`'s region (0 inside, `None`
    /// when no such level was built).
    pub fn level_distance(&self, k: usize, w: &WeylCoord) -> Option<f64> {
        self.levels.iter().find(|l| l.k == k).map(|l| l.distance(w))
    }

    /// The deepest built level.
    pub fn max_level(&self) -> &CoverageLevel {
        self.levels.last().expect("at least one level is built")
    }

    /// Fraction of `n` Haar-random gates whose coordinates land in level
    /// `k`'s region (Haar-weighted coverage volume of that level).
    pub fn haar_coverage(&self, k: usize, n: usize, seed: u64) -> f64 {
        let Some(level) = self.levels.iter().find(|l| l.k == k) else {
            return 0.0;
        };
        let mut rng = Rng::new(seed);
        let mut hits = 0usize;
        for _ in 0..n {
            let w = coords_of(&mirage_gates::haar_2q(&mut rng));
            if level.contains(&w, self.tol) {
                hits += 1;
            }
        }
        hits as f64 / n as f64
    }
}

/// Sample canonical coordinates of the depth-`k` ansatz
/// `B · L₁ · B · L₂ ⋯ B` (exterior locals do not move the coordinates).
fn sample_ansatz_coords(basis: &Mat4, k: usize, samples: usize, rng: &mut Rng) -> Vec<[f64; 3]> {
    let mut pts: Vec<[f64; 3]> = Vec::with_capacity(samples + 64);

    // Exact vertex seeding via Clifford interleavings. Conjugating a
    // canonical gate by single-qubit Cliffords realizes every signed axis
    // permutation of its interaction vector, and the canonical generators
    // XX/YY/ZZ commute, so a depth-k ansatz with Clifford locals reaches
    // exactly `canonicalize(Σᵢ Pᵢ·v)` where `v` is the basis gate's
    // interaction vector and each `Pᵢ` is a signed permutation. Enumerating
    // those sums in coordinate space lands on the polytope's lattice
    // vertices (SWAP, CNOT, iSWAP, …) that random sampling can never hit
    // exactly.
    let v0 = coords_of(basis);
    for s in signed_perm_sums(&[v0.a, v0.b, v0.c], k) {
        let w = WeylCoord::canonicalize(s[0], s[1], s[2]);
        push_symmetric(&mut pts, &w);
    }

    // Random Haar interleavings fill in the bulk.
    for _ in 0..samples {
        let mut u = *basis;
        for _ in 1..k {
            let l = Mat4::kron(&haar_1q(rng), &haar_1q(rng));
            u = u.mul(&l).mul(basis);
        }
        let w = coords_of(&u);
        push_symmetric(&mut pts, &w);
    }

    // Support-direction optimization pins the polytope's extreme points
    // (vertices like SWAP are measure-zero under random sampling). For a
    // set of directions d, maximize d·coords over the interleaved local
    // parameters with Nelder–Mead; the optima are support points of the
    // convex reachable region.
    if k >= 2 {
        let dirs = support_directions(rng, 60);
        for d in dirs {
            let x0: Vec<f64> = (0..6 * (k - 1))
                .map(|_| rng.uniform_range(0.0, std::f64::consts::TAU))
                .collect();
            let objective = |x: &[f64]| {
                let w = ansatz_coords(basis, k, x);
                let p = alcove_rep(&w);
                -(d[0] * p[0] + d[1] * p[1] + d[2] * p[2])
            };
            let r = mirage_math::optimize::nelder_mead(
                objective,
                &x0,
                &mirage_math::optimize::NmOptions {
                    max_evals: 420,
                    f_tol: 1e-10,
                    step: 0.9,
                },
            );
            let w = ansatz_coords(basis, k, &r.x);
            push_symmetric(&mut pts, &w);
        }
    }
    pts
}

/// All sums of `k` signed-permutation images of the vector `v`, enumerated
/// as multisets (the canonical generators commute, so order is irrelevant).
fn signed_perm_sums(v: &[f64; 3], k: usize) -> Vec<[f64; 3]> {
    // Distinct signed permutations of v (typically 12 for (t,t,0), 6 for
    // (t,0,0), up to 48 in general).
    let mut images: Vec<[f64; 3]> = Vec::new();
    let perms: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for p in perms {
        for sx in [-1.0, 1.0] {
            for sy in [-1.0, 1.0] {
                for sz in [-1.0, 1.0] {
                    let cand = [sx * v[p[0]], sy * v[p[1]], sz * v[p[2]]];
                    if !images.iter().any(|q| {
                        (q[0] - cand[0]).abs() + (q[1] - cand[1]).abs() + (q[2] - cand[2]).abs()
                            < 1e-12
                    }) {
                        images.push(cand);
                    }
                }
            }
        }
    }

    // Multisets of size k: combinations with repetition, with a guard on
    // the total count (C(k + m − 1, m − 1) can explode for large k).
    let mut out: Vec<[f64; 3]> = Vec::new();
    let mut stack: Vec<(usize, usize, [f64; 3])> = vec![(0, k, [0.0; 3])];
    while let Some((start, left, acc)) = stack.pop() {
        if left == 0 {
            out.push(acc);
            continue;
        }
        if out.len() > 400_000 {
            break; // safety valve for pathological inputs
        }
        for (i, img) in images.iter().enumerate().skip(start) {
            stack.push((
                i,
                left - 1,
                [acc[0] + img[0], acc[1] + img[1], acc[2] + img[2]],
            ));
        }
    }
    out
}

/// Coordinates of the ansatz with explicit interleaved ZYZ parameters
/// (`6·(k−1)` values: two locals of three Euler angles per gap).
fn ansatz_coords(basis: &Mat4, k: usize, params: &[f64]) -> WeylCoord {
    let mut u = *basis;
    for g in 1..k {
        let o = 6 * (g - 1);
        let hi = oneq::u_zyz(params[o], params[o + 1], params[o + 2]);
        let lo = oneq::u_zyz(params[o + 3], params[o + 4], params[o + 5]);
        u = u.mul(&Mat4::kron(&hi, &lo)).mul(basis);
    }
    coords_of(&u)
}

/// A spread of unit directions: the chamber's own symmetry axes plus random
/// ones.
fn support_directions(rng: &mut Rng, extra: usize) -> Vec<[f64; 3]> {
    let mut dirs: Vec<[f64; 3]> = vec![
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [0.577, 0.577, 0.577],
        [-0.577, -0.577, -0.577],
        [0.707, 0.707, 0.0],
        [0.707, 0.0, 0.707],
        [0.0, 0.707, 0.707],
        [0.577, 0.577, -0.577],
    ];
    for _ in 0..extra {
        let v = [rng.gaussian(), rng.gaussian(), rng.gaussian()];
        let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        if n > 1e-9 {
            dirs.push([v[0] / n, v[1] / n, v[2] / n]);
        }
    }
    dirs
}

/// Push the alcove representation of `w` and its conjugate image
/// (`z → −z`); reachable sets are closed under conjugation, and the
/// symmetric cloud also absorbs the `x = π/4` seam.
fn push_symmetric(pts: &mut Vec<[f64; 3]>, w: &WeylCoord) {
    let p = alcove_rep(w);
    pts.push(p);
    if p[2].abs() > 1e-12 {
        pts.push([p[0], p[1], -p[2]]);
    }
}

/// Hull the base points; with mirrors, add the (≤2 convex pieces of the)
/// mirrored cloud.
fn build_regions(pts: &[[f64; 3]], inflation: f64, mirrors: bool) -> Vec<ConvexPolytope> {
    let mut regions = Vec::new();
    if let Some(mut base) = ConvexPolytope::from_points(pts) {
        base.inflate(inflation);
        regions.push(base);
    }
    if mirrors {
        // Mirror every point through Eq. 1. In the alcove representation
        // the map is affine on each side of z = 0:
        //   z ≥ 0: (x,y,z) → (π/4−z, π/4−y, x−π/4)
        //   z ≤ 0: (x,y,z) → (π/4+z, π/4−y, π/4−x)
        // so each side's image is convex; hull them separately.
        let mut lobe_neg = Vec::new();
        let mut lobe_pos = Vec::new();
        for &p in pts {
            if p[2] >= -1e-12 {
                lobe_neg.push([PI_4 - p[2], PI_4 - p[1], p[0] - PI_4]);
            }
            if p[2] <= 1e-12 {
                lobe_pos.push([PI_4 + p[2], PI_4 - p[1], PI_4 - p[0]]);
            }
        }
        for side in [lobe_neg, lobe_pos] {
            if !side.is_empty() {
                if let Some(mut hull) = ConvexPolytope::from_points(&side) {
                    hull.inflate(inflation);
                    regions.push(hull);
                }
            }
        }
    }
    regions
}

/// A deterministic grid of probe points spread through the chamber, used to
/// detect full coverage.
fn chamber_probes() -> Vec<WeylCoord> {
    let mut probes = Vec::new();
    let n = 8;
    for i in 0..=n {
        for j in 0..=i.min(n / 2) {
            for l in 0..=j {
                let a = PI_2 * i as f64 / n as f64;
                let b = PI_2 * j as f64 / n as f64;
                let c = PI_2 * l as f64 / n as f64;
                let w = WeylCoord::canonicalize(a, b, c);
                if w.in_chamber(1e-12) {
                    probes.push(w);
                }
            }
        }
    }
    probes.push(WeylCoord::SWAP);
    probes.push(WeylCoord::ISWAP);
    probes.push(WeylCoord::CNOT);
    probes.push(WeylCoord::B_GATE);
    probes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sqrt_iswap_set(mirrors: bool) -> CoverageSet {
        let opts = CoverageOptions {
            max_k: 3,
            samples_per_k: 1200,
            inflation: 0.012,
            mirrors,
            seed: 42,
        };
        CoverageSet::build(BasisGate::iswap_root(2), &opts)
    }

    #[test]
    fn sqrt_iswap_k1_is_the_gate_itself() {
        let set = sqrt_iswap_set(false);
        let k1 = &set.levels[0];
        // Single application: only the gate's own class (a point/degenerate
        // region — zero volume).
        assert!(k1.contains(&WeylCoord::iswap_alpha(0.5), 1e-6));
        assert!(!k1.contains(&WeylCoord::CNOT, 1e-6));
        assert!(!k1.contains(&WeylCoord::SWAP, 1e-6));
    }

    #[test]
    fn sqrt_iswap_k2_contains_cnot_iswap_b() {
        let set = sqrt_iswap_set(false);
        let k2 = &set.levels[1];
        assert!(k2.contains(&WeylCoord::CNOT, 1e-6), "CNOT must need k=2");
        assert!(k2.contains(&WeylCoord::ISWAP, 1e-6), "iSWAP must need k=2");
        assert!(k2.contains(&WeylCoord::B_GATE, 1e-6), "B gate needs k=2");
        assert!(!k2.contains(&WeylCoord::SWAP, 1e-6), "SWAP needs k=3");
    }

    #[test]
    fn sqrt_iswap_k3_is_full() {
        let set = sqrt_iswap_set(false);
        assert_eq!(set.levels.len(), 3);
        assert!(set.levels[2].full, "3 √iSWAPs cover the whole chamber");
        assert_eq!(set.min_k(&WeylCoord::SWAP), Some(3));
    }

    #[test]
    fn sqrt_iswap_min_costs() {
        let set = sqrt_iswap_set(false);
        assert_eq!(set.min_k(&WeylCoord::CNOT), Some(2));
        assert_eq!(set.min_k(&WeylCoord::ISWAP), Some(2));
        assert!((set.min_cost(&WeylCoord::CNOT).unwrap() - 1.0).abs() < 1e-12);
        assert!((set.min_cost(&WeylCoord::SWAP).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sqrt_iswap_k2_haar_coverage_near_79_percent() {
        // Paper: "the √iSWAP gate in its standard form covers 79.0% of the
        // Haar-weighted volume". Sampled-hull construction lands within a
        // few points of that.
        let set = sqrt_iswap_set(false);
        let cov = set.haar_coverage(2, 4000, 7);
        assert!(
            (cov - 0.79).abs() < 0.05,
            "Haar coverage of k=2 was {cov:.3}, expected ≈0.79"
        );
    }

    #[test]
    fn sqrt_iswap_mirror_k2_haar_coverage_near_94_percent() {
        // Paper: "increases to 94.4% when mirror gates are utilized".
        let set = sqrt_iswap_set(true);
        let cov = set.haar_coverage(2, 4000, 7);
        assert!(
            (cov - 0.944).abs() < 0.05,
            "mirror Haar coverage of k=2 was {cov:.3}, expected ≈0.944"
        );
    }

    #[test]
    fn mirror_set_contains_mirrors_of_members() {
        let set = sqrt_iswap_set(true);
        let k2 = &set.levels[1];
        // CNOT ∈ k2 implies iSWAP (its mirror) is too; additionally the mirror of
        // any contained CPHASE must be contained.
        let w = WeylCoord::cphase(1.2);
        if k2.contains(&w, 1e-6) {
            assert!(k2.contains(&mirror_coord(&w), 1e-6));
        }
        // SWAP = mirror of identity; identity is reachable at k=2
        // (B·B† patterns), so the mirror set must contain SWAP.
        assert!(k2.contains(&WeylCoord::SWAP, 1e-6));
    }

    #[test]
    fn cnot_k2_region_is_planar() {
        let opts = CoverageOptions {
            max_k: 2,
            samples_per_k: 800,
            inflation: 0.005,
            mirrors: false,
            seed: 9,
        };
        let set = CoverageSet::build(BasisGate::cnot(), &opts);
        let k2 = &set.levels[1];
        // Two CNOTs reach exactly the c = 0 plane portion: rank-2 region.
        assert!(k2.regions.iter().all(|r| r.rank <= 2));
        assert!(k2.contains(&WeylCoord::CNOT, 1e-6));
        assert!(k2.contains(&WeylCoord::ISWAP, 1e-6));
        assert!(!k2.contains(&WeylCoord::SWAP, 1e-6));
        // Haar coverage of a planar slice is 0.
        let cov = set.haar_coverage(2, 500, 3);
        assert!(cov < 0.01, "planar region got Haar coverage {cov}");
    }

    #[test]
    fn cnot_k3_is_full() {
        let opts = CoverageOptions {
            max_k: 3,
            samples_per_k: 1200,
            inflation: 0.012,
            mirrors: false,
            seed: 10,
        };
        let set = CoverageSet::build(BasisGate::cnot(), &opts);
        assert!(set.levels[2].full, "3 CNOTs cover the whole chamber");
    }

    #[test]
    fn quarter_iswap_needs_deeper_levels() {
        let opts = CoverageOptions {
            max_k: 8,
            samples_per_k: 900,
            inflation: 0.012,
            mirrors: false,
            seed: 11,
        };
        let set = CoverageSet::build(BasisGate::iswap_root(4), &opts);
        // SWAP requires k = 6 quarter-iSWAPs without mirrors (paper §III-B).
        let k_swap = set.min_k(&WeylCoord::SWAP).expect("reachable");
        assert_eq!(k_swap, 6, "SWAP should need 6 ∜iSWAPs");
        // CNOT requires 1/α = 4 applications.
        let k_cnot = set.min_k(&WeylCoord::CNOT).expect("reachable");
        assert_eq!(k_cnot, 4, "CNOT should need 4 ∜iSWAPs");
    }

    #[test]
    fn quarter_iswap_mirror_caps_at_k4() {
        // Paper: "with mirroring, the depth never exceeds k = 4" for ∜iSWAP.
        let opts = CoverageOptions {
            max_k: 6,
            samples_per_k: 1500,
            inflation: 0.015,
            mirrors: true,
            seed: 12,
        };
        let set = CoverageSet::build(BasisGate::iswap_root(4), &opts);
        let full_at = set
            .levels
            .iter()
            .find(|l| l.full)
            .map(|l| l.k)
            .expect("mirror set reaches full coverage");
        assert!(full_at <= 4, "mirror ∜iSWAP full coverage at k={full_at}");
    }

    #[test]
    fn cost_or_max_total() {
        let opts = CoverageOptions {
            max_k: 1,
            samples_per_k: 200,
            inflation: 0.01,
            mirrors: false,
            seed: 13,
        };
        let set = CoverageSet::build(BasisGate::iswap_root(2), &opts);
        // SWAP unreachable at k=1: falls back to (1+1)·0.5.
        assert!((set.cost_or_max(&WeylCoord::SWAP) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chamber_volume_constant() {
        let pi = std::f64::consts::PI;
        assert!((CHAMBER_VOLUME - pi.powi(3) / 192.0).abs() < 1e-15);
    }

    #[test]
    fn basis_gate_constructors() {
        let b = BasisGate::iswap_root(2);
        assert_eq!(b.name, "sqrt_iswap");
        assert!((b.duration - 0.5).abs() < 1e-12);
        let c = BasisGate::cnot();
        assert!((c.duration - 1.0).abs() < 1e-12);
        assert!(c.coord.approx_eq(&WeylCoord::CNOT, 1e-9));
    }

    #[test]
    #[should_panic(expected = "n ≥ 1")]
    fn iswap_root_zero_panics() {
        BasisGate::iswap_root(0);
    }
}
