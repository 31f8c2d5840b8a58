//! 3D computational geometry: convex hulls and halfspace polytopes.
//!
//! Coverage regions live in the Weyl chamber, a subset of `[0, π/2]³`, so a
//! small, robust, fixed-dimension toolkit suffices:
//!
//! * [`ConvexPolytope::from_points`] — convex hull with graceful handling of
//!   degenerate point sets (a point, a segment, a planar polygon): the
//!   CNOT-family coverage regions are genuinely planar (paper: "planar
//!   slices contribute 0% volume"), so rank-deficient polytopes are a
//!   first-class case, not an error.
//! * membership ([`ConvexPolytope::contains`]), Euclidean projection
//!   ([`ConvexPolytope::nearest_point`], Dykstra's algorithm), geometric
//!   volume, and outward inflation (used to absorb the inward bias of
//!   sampled hulls).

/// A closed halfspace `{ x : n·x ≤ d }` with unit normal `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Halfspace {
    /// Outward unit normal.
    pub n: [f64; 3],
    /// Offset: the plane is `n·x = d`.
    pub d: f64,
    /// True when this halfspace is half of an equality pair pinning a
    /// degenerate (rank < 3) polytope to its affine hull. Equality pairs are
    /// exempt from [`ConvexPolytope::inflate`] — inflating them would give a
    /// planar region spurious volume.
    pub equality: bool,
}

impl Halfspace {
    /// Signed distance of `p` from the bounding plane (positive = outside).
    pub fn excess(&self, p: [f64; 3]) -> f64 {
        dot(self.n, p) - self.d
    }

    /// True when `p` lies inside (or within `tol` outside of) the halfspace.
    pub fn contains(&self, p: [f64; 3], tol: f64) -> bool {
        self.excess(p) <= tol
    }
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn add(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn scale(a: [f64; 3], k: f64) -> [f64; 3] {
    [a[0] * k, a[1] * k, a[2] * k]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: [f64; 3]) -> f64 {
    dot(a, a).sqrt()
}

fn normalize(a: [f64; 3]) -> Option<[f64; 3]> {
    let n = norm(a);
    if n < 1e-12 {
        None
    } else {
        Some(scale(a, 1.0 / n))
    }
}

/// A convex polytope given by both vertices and bounding halfspaces.
///
/// `rank` is the affine dimension of the vertex set: 3 for a solid, 2 for a
/// polygon, 1 for a segment, 0 for a point. Halfspaces are arranged so that
/// [`ConvexPolytope::contains`] works uniformly across ranks (degenerate
/// directions contribute opposing halfspace pairs).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexPolytope {
    /// Extreme points of the polytope.
    pub vertices: Vec<[f64; 3]>,
    /// Bounding halfspaces (`n·x ≤ d` each).
    pub halfspaces: Vec<Halfspace>,
    /// Affine dimension of the vertex set (0–3).
    pub rank: usize,
}

/// Numerical tolerance for hull construction plane tests.
const HULL_EPS: f64 = 1e-9;

impl ConvexPolytope {
    /// Build the convex hull of a point cloud.
    ///
    /// Handles every affine rank; returns `None` only for an empty input.
    pub fn from_points(points: &[[f64; 3]]) -> Option<ConvexPolytope> {
        if points.is_empty() {
            return None;
        }
        // Deduplicate (coarse grid) to keep quickhull fast on dense clouds.
        let mut pts: Vec<[f64; 3]> = Vec::with_capacity(points.len());
        {
            let mut seen = std::collections::HashSet::new();
            for &p in points {
                let key = (
                    (p[0] * 1e7).round() as i64,
                    (p[1] * 1e7).round() as i64,
                    (p[2] * 1e7).round() as i64,
                );
                if seen.insert(key) {
                    pts.push(p);
                }
            }
        }

        // Affine rank via Gram–Schmidt over displacement vectors.
        let p0 = pts[0];
        let mut basis: Vec<[f64; 3]> = Vec::new();
        for &p in &pts[1..] {
            if basis.len() == 3 {
                break;
            }
            let mut v = sub(p, p0);
            for b in &basis {
                let c = dot(v, *b);
                v = sub(v, scale(*b, c));
            }
            if norm(v) > 1e-7 {
                basis.push(normalize(v).expect("norm checked above"));
            }
        }

        match basis.len() {
            0 => Some(Self::from_single_point(p0)),
            1 => Some(Self::from_segment(&pts, p0, basis[0])),
            2 => Some(Self::from_planar(&pts, p0, basis[0], basis[1])),
            _ => Self::from_solid(&pts),
        }
    }

    fn from_single_point(p: [f64; 3]) -> ConvexPolytope {
        let mut halfspaces = Vec::with_capacity(6);
        for axis in 0..3 {
            let mut n = [0.0; 3];
            n[axis] = 1.0;
            halfspaces.push(Halfspace {
                n,
                d: p[axis],
                equality: true,
            });
            n[axis] = -1.0;
            halfspaces.push(Halfspace {
                n,
                d: -p[axis],
                equality: true,
            });
        }
        ConvexPolytope {
            vertices: vec![p],
            halfspaces,
            rank: 0,
        }
    }

    fn from_segment(pts: &[[f64; 3]], p0: [f64; 3], u: [f64; 3]) -> ConvexPolytope {
        let mut tmin = f64::INFINITY;
        let mut tmax = f64::NEG_INFINITY;
        for &p in pts {
            let t = dot(sub(p, p0), u);
            tmin = tmin.min(t);
            tmax = tmax.max(t);
        }
        let a = add(p0, scale(u, tmin));
        let b = add(p0, scale(u, tmax));
        // Two perpendicular directions complete the halfspace description.
        let v = perpendicular(u);
        let w = cross(u, v);
        let mut halfspaces = vec![
            Halfspace {
                n: u,
                d: dot(u, b),
                equality: false,
            },
            Halfspace {
                n: scale(u, -1.0),
                d: -dot(u, a),
                equality: false,
            },
        ];
        for dir in [v, w] {
            let d = dot(dir, p0);
            halfspaces.push(Halfspace {
                n: dir,
                d,
                equality: true,
            });
            halfspaces.push(Halfspace {
                n: scale(dir, -1.0),
                d: -d,
                equality: true,
            });
        }
        ConvexPolytope {
            vertices: vec![a, b],
            halfspaces,
            rank: 1,
        }
    }

    fn from_planar(pts: &[[f64; 3]], p0: [f64; 3], u: [f64; 3], v: [f64; 3]) -> ConvexPolytope {
        let w = normalize(cross(u, v)).expect("u ⊥ v are unit vectors");
        // Project into the plane.
        let proj: Vec<(f64, f64)> = pts
            .iter()
            .map(|&p| {
                let d = sub(p, p0);
                (dot(d, u), dot(d, v))
            })
            .collect();
        let hull2 = hull_2d(&proj);
        let vertices: Vec<[f64; 3]> = hull2
            .iter()
            .map(|&(x, y)| add(p0, add(scale(u, x), scale(v, y))))
            .collect();

        let mut halfspaces = Vec::new();
        // Plane equality as an opposing pair.
        let dw = dot(w, p0);
        halfspaces.push(Halfspace {
            n: w,
            d: dw,
            equality: true,
        });
        halfspaces.push(Halfspace {
            n: scale(w, -1.0),
            d: -dw,
            equality: true,
        });
        // Edge halfspaces (2D hull is counter-clockwise).
        let m = hull2.len();
        for i in 0..m {
            let (x1, y1) = hull2[i];
            let (x2, y2) = hull2[(i + 1) % m];
            let (ex, ey) = (x2 - x1, y2 - y1);
            let len = (ex * ex + ey * ey).sqrt();
            if len < 1e-12 {
                continue;
            }
            // Outward normal of a CCW edge is (ey, -ex).
            let (nx, ny) = (ey / len, -ex / len);
            let n3 = add(scale(u, nx), scale(v, ny));
            let d = dot(n3, vertices[i]);
            halfspaces.push(Halfspace {
                n: n3,
                d,
                equality: false,
            });
        }
        ConvexPolytope {
            vertices,
            halfspaces,
            rank: 2,
        }
    }

    fn from_solid(pts: &[[f64; 3]]) -> Option<ConvexPolytope> {
        let faces = quickhull3(pts)?;
        // Collect unique vertices and deduplicated halfspaces.
        let mut vert_set: Vec<[f64; 3]> = Vec::new();
        let mut halfspaces: Vec<Halfspace> = Vec::new();
        let mut hs_keys = std::collections::HashSet::new();
        for f in &faces {
            for &vi in &[f.a, f.b, f.c] {
                let p = pts[vi];
                if !vert_set.iter().any(|q| norm(sub(*q, p)) < 1e-9) {
                    vert_set.push(p);
                }
            }
            let key = (
                (f.n[0] * 1e6).round() as i64,
                (f.n[1] * 1e6).round() as i64,
                (f.n[2] * 1e6).round() as i64,
                (f.d * 1e6).round() as i64,
            );
            if hs_keys.insert(key) {
                halfspaces.push(Halfspace {
                    n: f.n,
                    d: f.d,
                    equality: false,
                });
            }
        }
        Some(ConvexPolytope {
            vertices: vert_set,
            halfspaces,
            rank: 3,
        })
    }

    /// True when `p` lies inside the polytope, allowing `tol` of slack
    /// outside each bounding plane.
    pub fn contains(&self, p: [f64; 3], tol: f64) -> bool {
        self.halfspaces.iter().all(|h| h.contains(p, tol))
    }

    /// Push every bounding plane outward by `delta` (used to compensate the
    /// inward bias of hulls built from finite samples of a convex region).
    pub fn inflate(&mut self, delta: f64) {
        for h in self.halfspaces.iter_mut() {
            if !h.equality {
                h.d += delta;
            }
        }
    }

    /// Euclidean projection of `p` onto the polytope via Dykstra's
    /// alternating-projection algorithm. Exact for `p` inside (returns `p`).
    pub fn nearest_point(&self, p: [f64; 3]) -> [f64; 3] {
        if self.contains(p, 0.0) {
            return p;
        }
        let m = self.halfspaces.len();
        let mut x = p;
        let mut corrections = vec![[0.0f64; 3]; m];
        for _pass in 0..256 {
            let mut moved = 0.0f64;
            for (i, h) in self.halfspaces.iter().enumerate() {
                let y = add(x, corrections[i]);
                // Project y onto halfspace i.
                let ex = dot(h.n, y) - h.d;
                let proj = if ex > 0.0 { sub(y, scale(h.n, ex)) } else { y };
                corrections[i] = sub(y, proj);
                moved = moved.max(norm(sub(proj, x)));
                x = proj;
            }
            if moved < 1e-12 {
                break;
            }
        }
        x
    }

    /// Euclidean distance from `p` to the polytope (0 inside).
    pub fn distance(&self, p: [f64; 3]) -> f64 {
        norm(sub(p, self.nearest_point(p)))
    }

    /// Geometric (Lebesgue) volume. Zero for rank < 3.
    pub fn volume(&self) -> f64 {
        if self.rank < 3 || self.vertices.is_empty() {
            return 0.0;
        }
        // Fan of tetrahedra from the centroid over each facet triangle.
        // Rebuild facet triangles by re-hulling the vertices (cheap: vertex
        // count is small).
        let faces = match quickhull3(&self.vertices) {
            Some(f) => f,
            None => return 0.0,
        };
        let mut centroid = [0.0f64; 3];
        for v in &self.vertices {
            centroid = add(centroid, *v);
        }
        centroid = scale(centroid, 1.0 / self.vertices.len() as f64);
        let mut vol = 0.0;
        for f in &faces {
            let a = sub(f.pa, centroid);
            let b = sub(f.pb, centroid);
            let c = sub(f.pc, centroid);
            vol += dot(a, cross(b, c)).abs() / 6.0;
        }
        vol
    }
}

/// Any unit vector perpendicular to `u`.
fn perpendicular(u: [f64; 3]) -> [f64; 3] {
    let trial = if u[0].abs() < 0.9 {
        [1.0, 0.0, 0.0]
    } else {
        [0.0, 1.0, 0.0]
    };
    normalize(cross(u, trial)).expect("u is a unit vector, trial not parallel")
}

/// 2D convex hull (Andrew's monotone chain), counter-clockwise output.
///
/// Sorts an index vector (`sort_unstable_by`) rather than shuffling the
/// coordinate pairs themselves; output is identical because ties are exact
/// duplicates and the approximate dedup keeps the first of each run either
/// way.
fn hull_2d(pts: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut idx: Vec<u32> = (0..pts.len() as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        pts[a as usize]
            .partial_cmp(&pts[b as usize])
            .expect("finite coordinates")
    });
    let mut p: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
    for &i in &idx {
        let pt = pts[i as usize];
        match p.last() {
            Some(&last) if (last.0 - pt.0).abs() < 1e-12 && (last.1 - pt.1).abs() < 1e-12 => {}
            _ => p.push(pt),
        }
    }
    if p.len() <= 2 {
        return p;
    }
    let cross2 = |o: (f64, f64), a: (f64, f64), b: (f64, f64)| {
        (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0)
    };
    let mut lower: Vec<(f64, f64)> = Vec::new();
    for &pt in &p {
        while lower.len() >= 2
            && cross2(lower[lower.len() - 2], lower[lower.len() - 1], pt) <= 1e-14
        {
            lower.pop();
        }
        lower.push(pt);
    }
    let mut upper: Vec<(f64, f64)> = Vec::new();
    for &pt in p.iter().rev() {
        while upper.len() >= 2
            && cross2(upper[upper.len() - 2], upper[upper.len() - 1], pt) <= 1e-14
        {
            upper.pop();
        }
        upper.push(pt);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);
    lower
}

/// A hull facet: vertex indices plus the outward plane `n·x ≤ d`.
struct Face {
    a: usize,
    b: usize,
    c: usize,
    pa: [f64; 3],
    pb: [f64; 3],
    pc: [f64; 3],
    n: [f64; 3],
    d: f64,
}

/// Incremental quickhull in 3D. Returns the facet list, or `None` when the
/// points are not full-dimensional (caller falls back to lower-rank paths).
fn quickhull3(pts: &[[f64; 3]]) -> Option<Vec<Face>> {
    let n = pts.len();
    if n < 4 {
        return None;
    }

    // Initial simplex: extremes along x, then farthest from the line, then
    // farthest from the plane.
    let mut i0 = 0;
    let mut i1 = 0;
    for (i, p) in pts.iter().enumerate() {
        if p[0] < pts[i0][0] {
            i0 = i;
        }
        if p[0] > pts[i1][0] {
            i1 = i;
        }
    }
    if i0 == i1 {
        // Degenerate along x; try other axes via generic farthest pair.
        for (i, p) in pts.iter().enumerate() {
            if norm(sub(*p, pts[i0])) > norm(sub(pts[i1], pts[i0])) {
                i1 = i;
            }
        }
        if norm(sub(pts[i1], pts[i0])) < 1e-9 {
            return None;
        }
    }
    let u = normalize(sub(pts[i1], pts[i0]))?;
    let mut i2 = usize::MAX;
    let mut best = 1e-9;
    for (i, p) in pts.iter().enumerate() {
        let d = sub(*p, pts[i0]);
        let perp = sub(d, scale(u, dot(d, u)));
        let dist = norm(perp);
        if dist > best {
            best = dist;
            i2 = i;
        }
    }
    if i2 == usize::MAX {
        return None;
    }
    let plane_n = normalize(cross(sub(pts[i1], pts[i0]), sub(pts[i2], pts[i0])))?;
    let mut i3 = usize::MAX;
    let mut best = 1e-8;
    for (i, p) in pts.iter().enumerate() {
        let dist = dot(sub(*p, pts[i0]), plane_n).abs();
        if dist > best {
            best = dist;
            i3 = i;
        }
    }
    if i3 == usize::MAX {
        return None;
    }

    let interior = scale(add(add(pts[i0], pts[i1]), add(pts[i2], pts[i3])), 0.25);

    let mk_face = |a: usize, b: usize, c: usize| -> Face {
        let mut nrm =
            normalize(cross(sub(pts[b], pts[a]), sub(pts[c], pts[a]))).unwrap_or([0.0, 0.0, 1.0]);
        let mut d = dot(nrm, pts[a]);
        if dot(nrm, interior) > d {
            nrm = scale(nrm, -1.0);
            d = -d;
        }
        Face {
            a,
            b,
            c,
            pa: pts[a],
            pb: pts[b],
            pc: pts[c],
            n: nrm,
            d,
        }
    };

    let mut faces: Vec<Face> = vec![
        mk_face(i0, i1, i2),
        mk_face(i0, i1, i3),
        mk_face(i0, i2, i3),
        mk_face(i1, i2, i3),
    ];

    // Conflict lists.
    let mut outside: Vec<Vec<usize>> = vec![Vec::new(); faces.len()];
    for (i, p) in pts.iter().enumerate() {
        for (fi, f) in faces.iter().enumerate() {
            if dot(f.n, *p) - f.d > HULL_EPS {
                outside[fi].push(i);
                break;
            }
        }
    }

    // Per-call scratch, reused across refinement steps: the loop used to
    // allocate a visible list, a hash-set, an edge-count hash-map, a horizon
    // list, an orphan list, and two rebuilt face/outside vectors on every
    // iteration. Sorted-run edge counting replaces the hash map (the horizon
    // comes out already sorted), a boolean mark vector replaces the set, and
    // visible faces are compacted in place.
    let mut visible: Vec<usize> = Vec::new();
    let mut visible_mark: Vec<bool> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut horizon: Vec<(usize, usize)> = Vec::new();
    let mut orphans: Vec<usize> = Vec::new();

    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 100_000 {
            break; // safety valve; hull is still valid, slightly coarse
        }
        // Pick a face with outstanding points.
        let Some(fi) = outside.iter().position(|o| !o.is_empty()) else {
            break;
        };
        // Farthest point from that face.
        let &far = outside[fi]
            .iter()
            .max_by(|&&x, &&y| {
                let dx = dot(faces[fi].n, pts[x]) - faces[fi].d;
                let dy = dot(faces[fi].n, pts[y]) - faces[fi].d;
                dx.total_cmp(&dy)
            })
            .expect("non-empty outside set");
        let fp = pts[far];

        // Visible faces.
        visible.clear();
        visible.extend((0..faces.len()).filter(|&i| dot(faces[i].n, fp) - faces[i].d > HULL_EPS));
        if visible.is_empty() {
            // Numerical edge: drop the point.
            outside[fi].retain(|&x| x != far);
            continue;
        }
        visible_mark.clear();
        visible_mark.resize(faces.len(), false);
        for &vi in &visible {
            visible_mark[vi] = true;
        }

        // Horizon: undirected edges appearing in exactly one visible face.
        // Counting over a sorted edge list yields the same `count == 1`
        // filter as a hash map, with the horizon emerging already sorted.
        edges.clear();
        for &vi in &visible {
            let f = &faces[vi];
            for (x, y) in [(f.a, f.b), (f.b, f.c), (f.c, f.a)] {
                edges.push((x.min(y), x.max(y)));
            }
        }
        edges.sort_unstable();
        horizon.clear();
        let mut i = 0;
        while i < edges.len() {
            let mut j = i + 1;
            while j < edges.len() && edges[j] == edges[i] {
                j += 1;
            }
            if j - i == 1 {
                horizon.push(edges[i]);
            }
            i = j;
        }

        // Gather orphaned points.
        orphans.clear();
        for &vi in &visible {
            orphans.append(&mut outside[vi]);
        }
        orphans.retain(|&x| x != far);

        // Compact away visible faces in place, preserving the relative
        // order of survivors (and their outside lists).
        let mut w = 0usize;
        for i in 0..faces.len() {
            if !visible_mark[i] {
                faces.swap(w, i);
                outside.swap(w, i);
                w += 1;
            }
        }
        faces.truncate(w);
        outside.truncate(w);

        // New faces from the horizon to the far point.
        for &(x, y) in &horizon {
            let f = mk_face(x, y, far);
            faces.push(f);
            outside.push(Vec::new());
        }

        // Reassign orphans.
        for &oi in &orphans {
            let p = pts[oi];
            for (fi2, f) in faces.iter().enumerate() {
                if dot(f.n, p) - f.d > HULL_EPS {
                    outside[fi2].push(oi);
                    break;
                }
            }
        }
    }

    Some(faces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_math::Rng;

    fn unit_cube_points() -> Vec<[f64; 3]> {
        let mut v = Vec::new();
        for x in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for z in [0.0, 1.0] {
                    v.push([x, y, z]);
                }
            }
        }
        v
    }

    #[test]
    fn cube_hull_basics() {
        let p = ConvexPolytope::from_points(&unit_cube_points()).unwrap();
        assert_eq!(p.rank, 3);
        assert_eq!(p.vertices.len(), 8);
        assert!((p.volume() - 1.0).abs() < 1e-9, "volume = {}", p.volume());
    }

    #[test]
    fn cube_membership() {
        let p = ConvexPolytope::from_points(&unit_cube_points()).unwrap();
        assert!(p.contains([0.5, 0.5, 0.5], 1e-12));
        assert!(p.contains([0.0, 0.0, 0.0], 1e-9)); // vertex
        assert!(p.contains([1.0, 0.5, 0.5], 1e-9)); // face
        assert!(!p.contains([1.2, 0.5, 0.5], 1e-9));
        assert!(!p.contains([-0.1, 0.0, 0.0], 1e-9));
    }

    #[test]
    fn cube_with_interior_noise() {
        let mut pts = unit_cube_points();
        let mut rng = Rng::new(5);
        for _ in 0..2000 {
            pts.push([rng.uniform(), rng.uniform(), rng.uniform()]);
        }
        let p = ConvexPolytope::from_points(&pts).unwrap();
        assert_eq!(p.vertices.len(), 8);
        assert!((p.volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tetrahedron_volume() {
        let pts = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        let p = ConvexPolytope::from_points(&pts).unwrap();
        assert!((p.volume() - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(p.halfspaces.len(), 4);
    }

    #[test]
    fn planar_square() {
        let pts = vec![
            [0.0, 0.0, 0.5],
            [1.0, 0.0, 0.5],
            [1.0, 1.0, 0.5],
            [0.0, 1.0, 0.5],
            [0.5, 0.5, 0.5],
        ];
        let p = ConvexPolytope::from_points(&pts).unwrap();
        assert_eq!(p.rank, 2);
        assert_eq!(p.volume(), 0.0);
        assert!(p.contains([0.5, 0.5, 0.5], 1e-9));
        assert!(p.contains([0.99, 0.01, 0.5], 1e-9));
        assert!(!p.contains([0.5, 0.5, 0.6], 1e-6));
        assert!(!p.contains([1.5, 0.5, 0.5], 1e-6));
    }

    #[test]
    fn segment_polytope() {
        let pts = vec![[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]];
        let p = ConvexPolytope::from_points(&pts).unwrap();
        assert_eq!(p.rank, 1);
        assert_eq!(p.vertices.len(), 2);
        assert!(p.contains([0.25, 0.25, 0.25], 1e-9));
        assert!(!p.contains([0.25, 0.3, 0.25], 1e-6));
        assert!(!p.contains([1.1, 1.1, 1.1], 1e-6));
    }

    #[test]
    fn point_polytope() {
        let pts = vec![[0.3, 0.4, 0.5]];
        let p = ConvexPolytope::from_points(&pts).unwrap();
        assert_eq!(p.rank, 0);
        assert!(p.contains([0.3, 0.4, 0.5], 1e-9));
        assert!(p.contains([0.3 + 1e-10, 0.4, 0.5], 1e-9));
        assert!(!p.contains([0.31, 0.4, 0.5], 1e-6));
    }

    #[test]
    fn empty_input() {
        assert!(ConvexPolytope::from_points(&[]).is_none());
    }

    #[test]
    fn nearest_point_inside_is_identity() {
        let p = ConvexPolytope::from_points(&unit_cube_points()).unwrap();
        let x = [0.3, 0.7, 0.5];
        assert_eq!(p.nearest_point(x), x);
    }

    #[test]
    fn nearest_point_face_projection() {
        let p = ConvexPolytope::from_points(&unit_cube_points()).unwrap();
        let x = p.nearest_point([0.5, 0.5, 2.0]);
        assert!(norm(sub(x, [0.5, 0.5, 1.0])) < 1e-6, "{x:?}");
        assert!((p.distance([0.5, 0.5, 2.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nearest_point_corner_projection() {
        let p = ConvexPolytope::from_points(&unit_cube_points()).unwrap();
        let x = p.nearest_point([2.0, 2.0, 2.0]);
        assert!(norm(sub(x, [1.0, 1.0, 1.0])) < 1e-5, "{x:?}");
    }

    #[test]
    fn inflate_grows_membership() {
        let mut p = ConvexPolytope::from_points(&unit_cube_points()).unwrap();
        assert!(!p.contains([1.005, 0.5, 0.5], 1e-9));
        p.inflate(0.01);
        assert!(p.contains([1.005, 0.5, 0.5], 1e-9));
    }

    #[test]
    fn random_hull_contains_all_inputs() {
        let mut rng = Rng::new(11);
        let pts: Vec<[f64; 3]> = (0..500)
            .map(|_| [rng.gaussian(), rng.gaussian() * 0.5, rng.gaussian() * 2.0])
            .collect();
        let p = ConvexPolytope::from_points(&pts).unwrap();
        for &pt in &pts {
            assert!(p.contains(pt, 1e-7), "{pt:?} escaped its own hull");
        }
    }

    #[test]
    fn hull_volume_of_simplex_cloud() {
        // Points uniform in the standard simplex: hull volume → 1/6.
        let mut rng = Rng::new(13);
        let mut pts = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        for _ in 0..300 {
            let mut x = [rng.uniform(), rng.uniform(), rng.uniform()];
            while x[0] + x[1] + x[2] > 1.0 {
                x = [rng.uniform(), rng.uniform(), rng.uniform()];
            }
            pts.push(x);
        }
        let p = ConvexPolytope::from_points(&pts).unwrap();
        assert!((p.volume() - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn hull_2d_square() {
        let h = hull_2d(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (0.0, 1.0),
            (0.5, 0.5),
            (0.2, 0.8),
        ]);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn halfspace_excess_sign() {
        let h = Halfspace {
            n: [0.0, 0.0, 1.0],
            d: 1.0,
            equality: false,
        };
        assert!(h.excess([0.0, 0.0, 2.0]) > 0.0);
        assert!(h.excess([0.0, 0.0, 0.5]) < 0.0);
        assert!(h.contains([0.0, 0.0, 1.0], 1e-12));
    }
}
