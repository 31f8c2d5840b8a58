//! Hardware coupling topologies and the VF2 layout check.
//!
//! The paper evaluates MIRAGE on the two production topologies —
//! IBM-style **heavy-hex** (57 qubits at distance 5) and a **6×6 square
//! lattice** — plus small lines and all-to-all graphs for the
//! decomposition studies.
//!
//! * [`CouplingMap`] — an undirected connectivity graph with all-pairs
//!   shortest-path distances (BFS), residual distances and edge ids
//!   (edges numbered in sorted order) for the router's hot path.
//! * [`vf2::find_embedding`] — subgraph-monomorphism search used as the
//!   `VF2Layout` pre-pass: when a circuit's interaction graph embeds
//!   directly into the hardware graph, no routing is needed and the
//!   transpilers are bypassed (paper §V).
//!
//! ---
//! **Owns:** [`CouplingMap`] (line/ring/grid/heavy-hex/all-to-all),
//! [`vf2::find_embedding`].
//! **Paper:** §V topologies — the 57-qubit heavy-hex and 6×6 lattice of
//! Fig. 12 — and the VF2 layout pre-pass.

pub mod vf2;

/// An undirected hardware connectivity graph.
///
/// ```
/// use mirage_topology::CouplingMap;
/// let grid = CouplingMap::grid(6, 6);
/// assert_eq!(grid.n_qubits(), 36);
/// assert_eq!(grid.distance(0, 35), 10); // Manhattan corner-to-corner
/// ```
#[derive(Debug, Clone)]
pub struct CouplingMap {
    n: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    /// All-pairs hop distances, row-major `n × n`.
    dist: Vec<u32>,
    /// `dist − 1` (saturating), row-major `n × n`: see
    /// [`CouplingMap::residual`].
    residual: Vec<u32>,
    /// Edge id of every ordered pair, row-major `n × n` (`u32::MAX`
    /// off-edge): see [`CouplingMap::edge_id`].
    edge_ids: Vec<u32>,
    /// The edges in id order: sorted `(min, max)` pairs.
    sorted_edges: Vec<(usize, usize)>,
    /// Per qubit, a bitset over edge ids of its incident edges
    /// (`n_edges.div_ceil(64)` words each, row-major): see
    /// [`CouplingMap::incident`].
    incident: Vec<u64>,
    name: String,
}

impl CouplingMap {
    /// Build from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn from_edges(n: usize, raw_edges: &[(usize, usize)], name: &str) -> CouplingMap {
        let mut adjacency = vec![Vec::new(); n];
        let mut edges = Vec::with_capacity(raw_edges.len());
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in raw_edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for n={n}");
            assert_ne!(a, b, "self-loop at {a}");
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                edges.push(key);
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
        for adj in adjacency.iter_mut() {
            adj.sort_unstable();
        }
        let dist = all_pairs_bfs(n, &adjacency);
        let residual = dist.iter().map(|d| d.saturating_sub(1)).collect();
        let mut sorted_edges = edges.clone();
        sorted_edges.sort_unstable();
        let mut edge_ids = vec![u32::MAX; n * n];
        let words = sorted_edges.len().div_ceil(64);
        let mut incident = vec![0u64; n * words];
        for (id, &(a, b)) in sorted_edges.iter().enumerate() {
            for q in [a, b] {
                incident[q * words + id / 64] |= 1 << (id % 64);
            }
            let id = u32::try_from(id).expect("edge count fits u32");
            edge_ids[a * n + b] = id;
            edge_ids[b * n + a] = id;
        }
        CouplingMap {
            n,
            edges,
            adjacency,
            dist,
            residual,
            edge_ids,
            sorted_edges,
            incident,
            name: name.to_owned(),
        }
    }

    /// A 1D line of `n` qubits.
    pub fn line(n: usize) -> CouplingMap {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingMap::from_edges(n, &edges, &format!("line-{n}"))
    }

    /// A ring of `n` qubits.
    pub fn ring(n: usize) -> CouplingMap {
        let mut edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        if n > 2 {
            edges.push((n - 1, 0));
        }
        CouplingMap::from_edges(n, &edges, &format!("ring-{n}"))
    }

    /// A `rows × cols` square lattice (the paper's 6×6 topology).
    pub fn grid(rows: usize, cols: usize) -> CouplingMap {
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        CouplingMap::from_edges(rows * cols, &edges, &format!("grid-{rows}x{cols}"))
    }

    /// All-to-all connectivity on `n` qubits.
    pub fn all_to_all(n: usize) -> CouplingMap {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        CouplingMap::from_edges(n, &edges, &format!("a2a-{n}"))
    }

    /// IBM-style heavy-hex lattice at code distance `d` (odd):
    /// `n = (5d² − 2d − 1)/2` qubits — `d = 5` gives the paper's 57-qubit
    /// device.
    ///
    /// The construction follows the IBM layout: `d` rows of `d`-qubit data
    /// chains joined by bridge qubits; each unit row has `2d − 1` "row"
    /// qubits connected in a line, and `(d+1)/2` bridge qubits hang between
    /// consecutive rows, alternating column parity.
    ///
    /// # Panics
    ///
    /// Panics if `d` is even or `d < 3`.
    pub fn heavy_hex(d: usize) -> CouplingMap {
        assert!(d >= 3 && d % 2 == 1, "heavy-hex needs odd d ≥ 3");
        let row_len = 2 * d - 1;
        let bridges_per_gap = d.div_ceil(2);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut next = 0usize;

        // Row qubits, row by row, with bridge qubits between rows.
        let mut row_start = Vec::new();
        for _r in 0..d {
            row_start.push(next);
            next += row_len;
        }
        // Lines within each row.
        for &start in &row_start {
            for i in 0..row_len - 1 {
                edges.push((start + i, start + i + 1));
            }
        }
        // Bridges between consecutive rows: row r connects to row r+1
        // through bridge qubits at columns 0, 4, 8, … for even gaps and
        // 2, 6, 10, … for odd gaps (alternating, the heavy-hex signature).
        for gap in 0..d - 1 {
            let offset = if gap % 2 == 0 { 0 } else { 2 };
            let mut used_cols = std::collections::HashSet::new();
            for b in 0..bridges_per_gap {
                // Clamp the last bridge of an offset gap to the row end so
                // every gap carries (d+1)/2 bridges (keeping the lattice at
                // its (5d²−2d−1)/2 qubit count) while the degree stays ≤ 3.
                let col = (offset + 4 * b).min(row_len - 1);
                if !used_cols.insert(col) {
                    continue;
                }
                let bridge = next;
                next += 1;
                edges.push((row_start[gap] + col, bridge));
                edges.push((bridge, row_start[gap + 1] + col));
            }
        }
        let expected = (5 * d * d - 2 * d - 1) / 2;
        debug_assert_eq!(next, expected, "heavy-hex qubit count mismatch");
        CouplingMap::from_edges(next, &edges, &format!("heavy-hex-{d}"))
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The normalized undirected edge list (`lo < hi`), in construction
    /// order (calibrations draw per-edge values in this order).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of (deduplicated) edges.
    pub fn n_edges(&self) -> usize {
        self.sorted_edges.len()
    }

    /// The id of the edge `{a, b}`, or `u32::MAX` when `a` and `b` are not
    /// coupled: one read of a dense `n × n` table. Ids run
    /// `0..n_edges()` over the edges in sorted `(min, max)` order, so
    /// walking ids in increasing order visits the edges in sorted order;
    /// [`CouplingMap::edge`] inverts the map.
    pub fn edge_id(&self, a: usize, b: usize) -> u32 {
        debug_assert!(b < self.n, "qubit {b} out of range for n={}", self.n);
        self.edge_ids[a * self.n + b]
    }

    /// The `(min, max)` endpoints of edge `id`.
    pub fn edge(&self, id: u32) -> (usize, usize) {
        self.sorted_edges[id as usize]
    }

    /// The edges incident to qubit `q`, as a bitset over edge ids: bit
    /// `id % 64` of word `id / 64` is set when edge `id` has `q` as an
    /// endpoint. Every qubit's slice has `n_edges().div_ceil(64)` words, so
    /// ORing slices builds the incident-edge set of several qubits.
    pub fn incident(&self, q: usize) -> &[u64] {
        let words = self.n_edges().div_ceil(64);
        &self.incident[q * words..(q + 1) * words]
    }

    /// The residual distance `distance(a, b) − 1` (saturating, so `0` on
    /// the diagonal): the hops a gate on `a` and `b` still needs before it
    /// can execute. One read of a precomputed `n × n` table, with no range
    /// check in release builds — the router's hot path reads it for every
    /// score.
    pub fn residual(&self, a: usize, b: usize) -> u32 {
        debug_assert!(b < self.n, "qubit {b} out of range for n={}", self.n);
        self.residual[a * self.n + b]
    }

    /// Neighbors of a qubit (sorted).
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// True when `a` and `b` are directly coupled (one hop apart: the map
    /// has no self-loops).
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.distance(a, b) == 1
    }

    /// Shortest-path distance in hops (`u32::MAX` when disconnected).
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        assert!(b < self.n, "qubit {b} out of range for n={}", self.n);
        self.dist[a * self.n + b]
    }

    /// The topology's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True when every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        self.dist[..self.n].iter().all(|&d| d != u32::MAX)
    }

    /// Graph degree statistics `(min, max)`.
    pub fn degree_range(&self) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0;
        for adj in &self.adjacency {
            lo = lo.min(adj.len());
            hi = hi.max(adj.len());
        }
        if self.n == 0 {
            (0, 0)
        } else {
            (lo, hi)
        }
    }
}

fn all_pairs_bfs(n: usize, adjacency: &[Vec<usize>]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; n * n];
    let mut queue = std::collections::VecDeque::new();
    for (s, row) in dist.chunks_exact_mut(n.max(1)).enumerate() {
        row[s] = 0;
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in &adjacency[u] {
                if row[v] == u32::MAX {
                    row[v] = row[u] + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances() {
        let m = CouplingMap::line(5);
        assert_eq!(m.n_qubits(), 5);
        assert_eq!(m.edges().len(), 4);
        assert_eq!(m.distance(0, 4), 4);
        assert!(m.are_adjacent(1, 2));
        assert!(!m.are_adjacent(0, 2));
    }

    #[test]
    fn ring_wraps() {
        let m = CouplingMap::ring(6);
        assert_eq!(m.distance(0, 5), 1);
        assert_eq!(m.distance(0, 3), 3);
    }

    #[test]
    fn grid_structure() {
        let m = CouplingMap::grid(6, 6);
        assert_eq!(m.n_qubits(), 36);
        assert_eq!(m.edges().len(), 60); // 2·6·5
        assert_eq!(m.distance(0, 35), 10);
        let (lo, hi) = m.degree_range();
        assert_eq!((lo, hi), (2, 4));
        assert!(m.is_connected());
    }

    #[test]
    fn all_to_all_distance_one() {
        let m = CouplingMap::all_to_all(5);
        assert_eq!(m.edges().len(), 10);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(m.distance(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn heavy_hex_d5_is_57_qubits() {
        let m = CouplingMap::heavy_hex(5);
        assert_eq!(m.n_qubits(), 57, "paper's 57Q heavy-hex");
        assert!(m.is_connected());
        // Heavy-hex degree is at most 3 — that is the whole point of the
        // lattice (crosstalk reduction).
        let (lo, hi) = m.degree_range();
        assert!(lo >= 1);
        assert!(hi <= 3, "heavy-hex max degree = {hi}");
    }

    #[test]
    fn heavy_hex_d3() {
        let m = CouplingMap::heavy_hex(3);
        assert_eq!(m.n_qubits(), (5 * 9 - 6 - 1) / 2); // 19
        assert!(m.is_connected());
        assert!(m.degree_range().1 <= 3);
    }

    #[test]
    #[should_panic(expected = "odd d")]
    fn heavy_hex_even_panics() {
        let _ = CouplingMap::heavy_hex(4);
    }

    #[test]
    fn from_edges_dedups() {
        let m = CouplingMap::from_edges(3, &[(0, 1), (1, 0), (1, 2)], "t");
        assert_eq!(m.edges().len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = CouplingMap::from_edges(3, &[(1, 1)], "t");
    }

    #[test]
    fn disconnected_detected() {
        let m = CouplingMap::from_edges(4, &[(0, 1), (2, 3)], "t");
        assert!(!m.is_connected());
        assert_eq!(m.distance(0, 2), u32::MAX);
    }

    /// Edge ids are symmetric, number the edges in sorted `(min, max)`
    /// order, and are `u32::MAX` exactly off the edges.
    #[test]
    fn edge_ids_follow_sorted_order() {
        for m in [
            CouplingMap::line(7),
            CouplingMap::grid(4, 5),
            CouplingMap::heavy_hex(5),
            CouplingMap::all_to_all(6),
            CouplingMap::from_edges(4, &[(3, 2), (1, 0), (2, 0), (0, 1)], "t"),
        ] {
            let n = m.n_qubits();
            let mut sorted = m.edges().to_vec();
            sorted.sort_unstable();
            assert_eq!(m.n_edges(), sorted.len(), "{}", m.name());
            for (id, &(a, b)) in sorted.iter().enumerate() {
                assert_eq!(m.edge_id(a, b), id as u32, "{}: ({a}, {b})", m.name());
                assert_eq!(m.edge(id as u32), (a, b));
            }
            for a in 0..n {
                for b in 0..n {
                    let id = m.edge_id(a, b);
                    assert_eq!(id, m.edge_id(b, a), "{}: symmetric", m.name());
                    assert_eq!(id != u32::MAX, m.are_adjacent(a, b), "{}", m.name());
                    assert_eq!(m.residual(a, b), m.distance(a, b).saturating_sub(1));
                }
            }
        }
    }

    /// Each qubit's incident mask holds exactly the ids of its edges,
    /// across one-word maps and the multi-word grid(9,9) (144 edges) and
    /// heavy_hex(7).
    #[test]
    fn incident_masks_match_edges() {
        for m in [
            CouplingMap::line(7),
            CouplingMap::grid(4, 5),
            CouplingMap::heavy_hex(5),
            CouplingMap::all_to_all(6),
            CouplingMap::grid(9, 9),
            CouplingMap::heavy_hex(7),
        ] {
            let words = m.n_edges().div_ceil(64);
            for q in 0..m.n_qubits() {
                let mask = m.incident(q);
                assert_eq!(mask.len(), words, "{}", m.name());
                let ids: Vec<u32> = (0..m.n_edges() as u32)
                    .filter(|&id| mask[id as usize / 64] >> (id % 64) & 1 == 1)
                    .collect();
                let mut expected: Vec<u32> =
                    m.neighbors(q).iter().map(|&p| m.edge_id(q, p)).collect();
                expected.sort_unstable();
                assert_eq!(ids, expected, "{}: qubit {q}", m.name());
                let spare = (words * 64 - m.n_edges()) as u32;
                if spare > 0 {
                    assert!(mask[words - 1].leading_zeros() >= spare, "spare bits set");
                }
            }
        }
        assert_eq!(CouplingMap::grid(9, 9).n_edges().div_ceil(64), 3);
    }

    #[test]
    fn grid_adjacency_no_wraparound() {
        let m = CouplingMap::grid(3, 3);
        // Qubit 2 (row 0, col 2) must not neighbor qubit 3 (row 1, col 0).
        assert!(!m.are_adjacent(2, 3));
        assert!(m.are_adjacent(2, 5));
    }
}
