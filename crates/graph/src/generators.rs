//! Seeded, deterministic graph generators.
//!
//! Every generator takes an explicit `seed` (where randomness is involved)
//! and is fully deterministic given its arguments, so experiments are
//! reproducible across machines. The families here are the workloads of the
//! experiment index in `DESIGN.md`:
//!
//! * [`erdos_renyi_gnp`] / [`erdos_renyi_gnm`] — the default random family;
//!   sweeping `p` sweeps the max degree `Δ`.
//! * [`random_regular`] — uniform degree, isolates the `Δ` dependence.
//! * [`barabasi_albert`] and [`chung_lu_power_law`] — heavy-tailed degrees;
//!   exercise the super-heavy machinery of §2.3.
//! * [`disjoint_cliques`] — the classic hard instance where `Δ` is large but
//!   the MIS is tiny (one vertex per clique).
//! * [`kronecker`] — GAPBS-style R-MAT/Kronecker graphs; the synthetic
//!   scale-free family for large batch workloads (`2^16+` nodes).
//! * structured families ([`cycle`], [`path`], [`complete`], [`star`],
//!   [`grid`], [`balanced_tree`], [`caterpillar`], [`complete_bipartite`],
//!   [`planted_independent_set`]) for unit tests and edge cases.

use crate::rng::{mix3, SplitMix64};
use crate::{Graph, GraphBuilder, NodeId};

/// Stream tag separating Kronecker edge draws from every other consumer of
/// the counter-based [`mix3`] domain (ASCII `"KRON"`).
const KRONECKER_STREAM: u64 = 0x4B52_4F4E;

/// Kronecker (R-MAT) graph in the style of the GAP Benchmark Suite /
/// Graph500: `n = 2^scale` vertices and about `edge_factor · n` undirected
/// edges (self-loops dropped, duplicates merged), drawn with the standard
/// quadrant probabilities `A = 0.57`, `B = 0.19`, `C = 0.19`, `D = 0.05`.
///
/// Each candidate edge `e` is drawn from its own counter-based stream
/// `SplitMix64::new(mix3(seed, e, KRON))`, so the edge list is a pure
/// function of `(scale, edge_factor, seed)` — independent of evaluation
/// order, like the simulators' per-`(node, round)` coins. Vertex labels are
/// *not* scrambled (unlike GAPBS's optional permutation): low-numbered
/// vertices are the heavy hitters, which the heavy-tail tests rely on.
///
/// # Panics
///
/// Panics if `scale >= 32` (node ids are `u32`).
///
/// # Example
///
/// ```
/// use cc_mis_graph::generators::kronecker;
/// let g = kronecker(8, 4, 42);
/// assert_eq!(g.node_count(), 256);
/// assert_eq!(g, kronecker(8, 4, 42)); // deterministic per (scale, ef, seed)
/// ```
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    assert!(scale < 32, "scale = {scale} must be < 32 (u32 node ids)");
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let n = 1usize << scale;
    let draws = (n as u64) * (edge_factor as u64);
    // Each kept edge as one key `(u << 32) | v` with `u < v`: the keys sort
    // in the lexicographic edge order `from_sorted_unique_edges` expects.
    let mut keys: Vec<u64> = Vec::with_capacity(edge_factor * n);
    for e in 0..draws {
        // conform: allow(R11) -- counter-based keying: mix3(seed, e, stream) derives an independent substream per candidate edge, the sanctioned alternative to re-seeding
        let mut rng = SplitMix64::new(mix3(seed, e, KRONECKER_STREAM));
        let (mut src, mut dst) = (0u32, 0u32);
        // One quadrant choice per bit of the address space, most significant
        // bit first (the recursive R-MAT descent, unrolled). The quadrant
        // bits are the descent's comparisons taken as values, not branches:
        // `r` is uniform, so a branch on it would be mispredicted at random.
        for _ in 0..scale {
            let r = rng.next_f64();
            src = (src << 1) | u32::from(r >= A + B);
            dst = (dst << 1) | u32::from((A..A + B).contains(&r) | (r >= A + B + C));
        }
        if src != dst {
            let (u, v) = order_pair((src, dst));
            keys.push(u64::from(u) << 32 | u64::from(v));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    Graph::from_sorted_unique_edges(n, keys.iter().map(|&k| ((k >> 32) as u32, k as u32)))
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` possible edges appears
/// independently with probability `p`.
///
/// Uses geometric skipping, so generation costs `O(n + m)` rather than
/// `O(n^2)` for small `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is NaN.
///
/// # Example
///
/// ```
/// use cc_mis_graph::generators::erdos_renyi_gnp;
/// let g = erdos_renyi_gnp(100, 0.1, 7);
/// assert_eq!(g.node_count(), 100);
/// // Expected m = p * n(n-1)/2 = 495; very loose bounds:
/// assert!(g.edge_count() > 200 && g.edge_count() < 900);
/// ```
pub fn erdos_renyi_gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    if n == 0 || p == 0.0 {
        return Graph::empty(n);
    }
    if p >= 1.0 {
        return complete(n);
    }
    let mut rng = SplitMix64::new(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Iterate over the linearized strictly-upper-triangular index space,
    // jumping ahead by geometric gaps.
    let total: u64 = (n as u64) * (n as u64 - 1) / 2;
    let log_q = (1.0 - p).ln();
    let mut idx: u64 = 0;
    loop {
        // Geometric(p) gap: floor(ln(U) / ln(1-p)).
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        let gap = (u.ln() / log_q).floor() as u64;
        idx = match idx.checked_add(gap) {
            Some(i) => i,
            None => break,
        };
        if idx >= total {
            break;
        }
        edges.push(unrank_edge(idx, n as u64));
        idx += 1;
    }
    Graph::from_sorted_unique_edges(n, edges.iter().copied())
}

/// Maps a linear index in `[0, n(n-1)/2)` to the corresponding edge `(u, v)`
/// with `u < v`, in row-major upper-triangular order.
fn unrank_edge(idx: u64, n: u64) -> (u32, u32) {
    // Row u owns (n-1-u) entries. Solve for the row via the quadratic
    // formula, then fix up any off-by-one from floating point.
    let total = n * (n - 1) / 2;
    debug_assert!(idx < total);
    let rev = total - 1 - idx; // index from the end
                               // rev falls in the triangle of size k(k+1)/2 for row n-2-...; invert:
    let k = (((8.0 * rev as f64 + 1.0).sqrt() - 1.0) / 2.0).floor() as u64;
    let mut k = k.min(n - 2);
    while k < n - 2 && (k + 1) * (k + 2) / 2 <= rev {
        k += 1;
    }
    while k * (k + 1) / 2 > rev {
        k -= 1;
    }
    let u = n - 2 - k;
    let offset = rev - k * (k + 1) / 2; // position from the row's end
    let v = n - 1 - offset;
    debug_assert!(u < v && v < n);
    (u as u32, v as u32)
}

/// Erdős–Rényi `G(n, m)`: a graph drawn uniformly among those with exactly
/// `m` edges.
///
/// # Panics
///
/// Panics if `m` exceeds `n(n-1)/2`.
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Graph {
    let total = n as u64 * (n as u64).saturating_sub(1) / 2;
    assert!(
        (m as u64) <= total,
        "m = {m} exceeds the maximum {total} edges on {n} vertices"
    );
    let mut rng = SplitMix64::new(seed);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < m {
        chosen.insert(rng.next_below(total));
    }
    let edges: Vec<(u32, u32)> = chosen
        .into_iter()
        .map(|i| unrank_edge(i, n as u64))
        .collect();
    Graph::from_sorted_unique_edges(n, edges.iter().copied())
}

/// A random `d`-regular graph via the configuration model with restarts.
///
/// Each vertex gets `d` stubs; stubs are paired uniformly at random. Pairings
/// that create self-loops or multi-edges are retried (whole-pairing restart,
/// up to an internal attempt limit, then a local-repair pass). For `d ≪ n`
/// the restart succeeds quickly with high probability.
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n`.
///
/// # Example
///
/// ```
/// use cc_mis_graph::generators::random_regular;
/// let g = random_regular(50, 4, 3);
/// assert!(g.nodes().all(|v| g.degree(v) == 4));
/// ```
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even (n={n}, d={d})");
    assert!(d < n, "degree d={d} must be < n={n}");
    if d == 0 {
        return Graph::empty(n);
    }
    let mut rng = SplitMix64::new(seed);
    // A uniformly paired configuration is simple with probability
    // ≈ e^{-(d²-1)/4}, so whole-pairing restarts are only worth attempting
    // for small d; beyond that, go straight to edge-swap repair.
    let attempts = if d <= 4 { 50 } else { 3 };
    for _attempt in 0..attempts {
        if let Some(g) = try_configuration_pairing(n, d, &mut rng) {
            return g;
        }
    }
    // Pairing with edge-swap repair; this keeps determinism and always
    // terminates, at the cost of slight nonuniformity (documented).
    configuration_with_repair(n, d, &mut rng)
}

fn try_configuration_pairing(n: usize, d: usize, rng: &mut SplitMix64) -> Option<Graph> {
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    rng.shuffle(&mut stubs);
    let mut b = GraphBuilder::new(n);
    for pair in stubs.chunks(2) {
        let (u, v) = (pair[0], pair[1]);
        if u == v {
            return None;
        }
        match b.add_edge(NodeId::new(u), NodeId::new(v)) {
            Ok(true) => {}
            _ => return None, // duplicate edge
        }
    }
    Some(b.build())
}

fn configuration_with_repair(n: usize, d: usize, rng: &mut SplitMix64) -> Graph {
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    rng.shuffle(&mut stubs);
    let mut pairs: Vec<(u32, u32)> = stubs.chunks(2).map(|c| (c[0], c[1])).collect();
    // Repair loop: swap endpoints of conflicting pairs with random partners
    // until the multigraph is simple.
    let mut guard = 0usize;
    loop {
        let mut seen = std::collections::BTreeSet::new();
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let key = if u < v { (u, v) } else { (v, u) };
            if u == v || !seen.insert(key) {
                bad.push(i);
            }
        }
        if bad.is_empty() {
            break;
        }
        guard += 1;
        assert!(guard < 100_000, "regular-graph repair failed to converge");
        for i in bad {
            let j = rng.next_below(pairs.len() as u64) as usize;
            let (a, b2) = pairs[i];
            let (c, e) = pairs[j];
            pairs[i] = (a, e);
            pairs[j] = (c, b2);
        }
    }
    let mut b = GraphBuilder::new(n);
    for (u, v) in pairs {
        b.add_edge(NodeId::new(u), NodeId::new(v))
            .expect("repaired pairing is simple");
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m0 = m + 1` vertices, then each new vertex attaches to `m` existing
/// vertices chosen proportionally to degree.
///
/// Produces a heavy-tailed degree distribution with `Δ ≈ n^{1/2}`.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m > 0, "m must be positive");
    assert!(n > m, "need n >= m+1 (n={n}, m={m})");
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new(n);
    // Degree-proportional sampling via the repeated-endpoints trick.
    let mut endpoints: Vec<u32> = Vec::with_capacity(4 * n * m);
    let m0 = m + 1;
    for u in 0..m0 as u32 {
        for v in (u + 1)..m0 as u32 {
            b.add_edge(NodeId::new(u), NodeId::new(v))
                .expect("clique edge");
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in m0 as u32..n as u32 {
        let mut targets = std::collections::BTreeSet::new();
        let mut guard = 0;
        while targets.len() < m {
            let t = endpoints[rng.next_below(endpoints.len() as u64) as usize];
            targets.insert(t);
            guard += 1;
            if guard > 100 * m + 1000 {
                // Extremely unlikely; fall back to uniform fill.
                for u in 0..v {
                    if targets.len() >= m {
                        break;
                    }
                    targets.insert(u);
                }
            }
        }
        for &t in &targets {
            b.add_edge(NodeId::new(v), NodeId::new(t)).expect("BA edge");
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Chung–Lu power-law graph: vertex `i` gets weight `w_i ∝ (i+1)^{-1/(β-1)}`
/// scaled to the target average degree, and edge `{i, j}` appears with
/// probability `min(1, w_i w_j / Σw)`.
///
/// `beta` is the power-law exponent (typically `2 < β < 3`).
///
/// # Panics
///
/// Panics if `beta <= 1` or `avg_degree <= 0`.
pub fn chung_lu_power_law(n: usize, beta: f64, avg_degree: f64, seed: u64) -> Graph {
    assert!(beta > 1.0, "beta must exceed 1, got {beta}");
    assert!(avg_degree > 0.0, "avg_degree must be positive");
    if n == 0 {
        return Graph::empty(0);
    }
    let mut rng = SplitMix64::new(seed);
    let gamma = 1.0 / (beta - 1.0);
    let mut w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-gamma)).collect();
    let sum_w: f64 = w.iter().sum();
    let scale = avg_degree * n as f64 / sum_w;
    for wi in &mut w {
        *wi *= scale;
    }
    let total_w: f64 = w.iter().sum();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let p = (w[i] * w[j] / total_w).min(1.0);
            if p > 0.0 && rng.next_bool(p) {
                b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))
                    .expect("CL edge");
            }
        }
    }
    b.build()
}

/// The cycle `C_n`.
///
/// # Example
///
/// ```
/// use cc_mis_graph::generators::cycle;
/// let g = cycle(5);
/// assert_eq!(g.edge_count(), 5);
/// assert_eq!(g.max_degree(), 2);
/// ```
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return path(n);
    }
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .map(|i| (i, (i + 1) % n as u32))
        .map(order_pair)
        .collect();
    Graph::from_edges(n, edges).expect("cycle edges are valid")
}

/// The path `P_n` on `n` vertices (`n-1` edges).
pub fn path(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, edges).expect("path edges are valid")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            edges.push((u, v));
        }
    }
    Graph::from_sorted_unique_edges(n, edges.iter().copied())
}

/// The complete bipartite graph `K_{a,b}`: sides `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a as u32 {
        for v in 0..b as u32 {
            edges.push((u, a as u32 + v));
        }
    }
    Graph::from_sorted_unique_edges(a + b, edges.iter().copied())
}

/// The star `S_n`: center `0`, leaves `1..n`. Total `n` vertices.
///
/// The extreme instance for local complexity: the center has degree `n-1`
/// while all leaves have degree 1.
pub fn star(n: usize) -> Graph {
    Graph::from_sorted_unique_edges(n, (1..n as u32).map(|v| (0, v)))
}

/// The `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_sorted_unique_edges(rows * cols, edges.iter().copied())
}

/// A complete `arity`-ary tree of the given `depth` (depth 0 = single root).
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity >= 1, "arity must be at least 1");
    let mut edges = Vec::new();
    let mut level: Vec<u32> = vec![0];
    let mut next_id: u32 = 1;
    for _ in 0..depth {
        let mut next_level = Vec::with_capacity(level.len() * arity);
        for &parent in &level {
            for _ in 0..arity {
                edges.push((parent, next_id));
                next_level.push(next_id);
                next_id += 1;
            }
        }
        level = next_level;
    }
    Graph::from_sorted_unique_edges(next_id as usize, edges.iter().copied())
}

/// A caterpillar: a spine path of `spine` vertices, each with `legs` pendant
/// leaves.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut edges = Vec::new();
    for i in 1..spine as u32 {
        edges.push((i - 1, i));
    }
    let mut next = spine as u32;
    for s in 0..spine as u32 {
        for _ in 0..legs {
            edges.push((s, next));
            next += 1;
        }
    }
    edges.sort_unstable();
    Graph::from_sorted_unique_edges(n, edges.iter().copied())
}

/// `k` disjoint cliques of `size` vertices each.
///
/// The adversarial instance for degree-based bounds: `Δ = size - 1` while the
/// unique-per-clique MIS has exactly `k` vertices.
pub fn disjoint_cliques(k: usize, size: usize) -> Graph {
    let mut edges = Vec::new();
    for c in 0..k {
        let base = (c * size) as u32;
        for u in 0..size as u32 {
            for v in (u + 1)..size as u32 {
                edges.push((base + u, base + v));
            }
        }
    }
    Graph::from_sorted_unique_edges(k * size, edges.iter().copied())
}

/// `G(n, p)` with a planted independent set: vertices `0..is_size` get no
/// internal edges; all other pairs appear with probability `p`.
///
/// Useful for checking that MIS algorithms do not merely find *some*
/// independent set but a *maximal* one (the planted set need not be returned,
/// but whatever is returned must dominate it).
pub fn planted_independent_set(n: usize, p: f64, is_size: usize, seed: u64) -> Graph {
    assert!(is_size <= n, "planted set larger than the graph");
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let both_planted = (u as usize) < is_size && (v as usize) < is_size;
            if !both_planted && rng.next_bool(p) {
                b.add_edge(NodeId::new(u), NodeId::new(v))
                    .expect("valid edge");
            }
        }
    }
    b.build()
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex
/// connects to its `k/2` nearest neighbors on each side, with every edge
/// rewired (its far endpoint resampled uniformly) with probability `beta`.
///
/// `beta = 0` is the pure lattice; `beta = 1` approaches `G(n, k/n)`.
///
/// # Panics
///
/// Panics if `k` is odd, `k >= n`, or `beta ∉ [0, 1]`.
///
/// # Example
///
/// ```
/// use cc_mis_graph::generators::watts_strogatz;
/// let lattice = watts_strogatz(30, 4, 0.0, 1);
/// assert!(lattice.nodes().all(|v| lattice.degree(v) == 4));
/// ```
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(k.is_multiple_of(2), "k must be even, got {k}");
    assert!(k < n, "k = {k} must be < n = {n}");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            let mut w = (v + j) % n as u32;
            if beta > 0.0 && rng.next_bool(beta) {
                // Rewire: pick a uniform non-self target; skip on the rare
                // duplicate rather than retry forever (keeps determinism
                // simple; degree stays ≈ k).
                w = rng.next_below(n as u64) as u32;
                if w == v {
                    w = (v + j) % n as u32;
                }
            }
            if w != v {
                let _ = b.add_edge(NodeId::new(v), NodeId::new(w));
            }
        }
    }
    b.build()
}

/// Random geometric graph: `n` points uniform in the unit square, an edge
/// between every pair within Euclidean distance `radius`.
///
/// The standard model for wireless/beeping networks (the §2.2 algorithm's
/// natural habitat per [Cornejo–Kuhn]).
///
/// # Example
///
/// ```
/// use cc_mis_graph::generators::random_geometric;
/// let g = random_geometric(100, 0.15, 3);
/// assert_eq!(g.node_count(), 100);
/// ```
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(radius >= 0.0, "radius must be nonnegative");
    let mut rng = SplitMix64::new(seed);
    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(NodeId::new(i as u32), NodeId::new(j as u32))
                    .expect("geometric edge");
            }
        }
    }
    b.build()
}

/// A random bipartite graph: sides `0..a` and `a..a+b`, each cross pair kept
/// with probability `p`.
pub fn random_bipartite(a: usize, b: usize, p: f64, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a as u32 {
        for v in 0..b as u32 {
            if rng.next_bool(p) {
                builder
                    .add_edge(NodeId::new(u), NodeId::new(a as u32 + v))
                    .expect("valid edge");
            }
        }
    }
    builder.build()
}

fn order_pair((u, v): (u32, u32)) -> (u32, u32) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_extremes() {
        assert_eq!(erdos_renyi_gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(erdos_renyi_gnp(10, 1.0, 1).edge_count(), 45);
        assert_eq!(erdos_renyi_gnp(0, 0.5, 1).node_count(), 0);
        assert_eq!(erdos_renyi_gnp(1, 0.5, 1).edge_count(), 0);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = erdos_renyi_gnp(64, 0.2, 42);
        let b = erdos_renyi_gnp(64, 0.2, 42);
        let c = erdos_renyi_gnp(64, 0.2, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 200;
        let p = 0.1;
        let g = erdos_renyi_gnp(n, p, 5);
        let expected = p * (n * (n - 1) / 2) as f64;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < 0.25 * expected,
            "m={m} expected≈{expected}"
        );
    }

    #[test]
    fn unrank_edge_is_bijective_small() {
        for n in 2..=12u64 {
            let total = n * (n - 1) / 2;
            let mut seen = std::collections::BTreeSet::new();
            for idx in 0..total {
                let (u, v) = unrank_edge(idx, n);
                assert!(u < v && (v as u64) < n, "bad edge ({u},{v}) for n={n}");
                assert!(seen.insert((u, v)), "duplicate edge for idx {idx}, n={n}");
            }
            assert_eq!(seen.len() as u64, total);
        }
    }

    #[test]
    fn gnm_exact_edge_count() {
        let g = erdos_renyi_gnm(30, 100, 9);
        assert_eq!(g.edge_count(), 100);
        assert_eq!(g.node_count(), 30);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum")]
    fn gnm_rejects_too_many_edges() {
        erdos_renyi_gnm(4, 7, 0);
    }

    #[test]
    fn regular_graph_has_uniform_degree() {
        for (n, d) in [(20, 3), (31, 4), (50, 6), (10, 0)] {
            let g = random_regular(n, d, 77);
            assert_eq!(g.node_count(), n);
            for v in g.nodes() {
                assert_eq!(g.degree(v), d, "vertex {v} in {n}-node {d}-regular");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn regular_rejects_odd_total() {
        random_regular(5, 3, 0);
    }

    #[test]
    fn barabasi_albert_degrees() {
        let g = barabasi_albert(100, 3, 4);
        assert_eq!(g.node_count(), 100);
        // Every non-seed vertex has degree >= m.
        for v in g.nodes().skip(4) {
            assert!(g.degree(v) >= 3);
        }
        // Edge count: C(4,2) + 96*3 = 6 + 288.
        assert_eq!(g.edge_count(), 6 + 96 * 3);
    }

    #[test]
    fn chung_lu_produces_heavy_head() {
        let g = chung_lu_power_law(300, 2.5, 6.0, 8);
        assert_eq!(g.node_count(), 300);
        // Vertex 0 has the largest weight; its degree should be well above
        // the average.
        let d0 = g.degree(NodeId::new(0));
        assert!(
            d0 as f64 > g.average_degree(),
            "d0={d0} avg={}",
            g.average_degree()
        );
    }

    #[test]
    fn structured_families_basic_counts() {
        assert_eq!(cycle(6).edge_count(), 6);
        assert_eq!(cycle(2).edge_count(), 1); // degenerates to path
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(complete(5).edge_count(), 10);
        assert_eq!(complete_bipartite(3, 4).edge_count(), 12);
        assert_eq!(star(10).edge_count(), 9);
        assert_eq!(star(10).max_degree(), 9);
        assert_eq!(grid(3, 4).node_count(), 12);
        assert_eq!(grid(3, 4).edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(balanced_tree(2, 3).node_count(), 15);
        assert_eq!(balanced_tree(2, 3).edge_count(), 14);
        assert_eq!(caterpillar(4, 2).node_count(), 12);
        assert_eq!(caterpillar(4, 2).edge_count(), 3 + 8);
        assert_eq!(disjoint_cliques(3, 4).edge_count(), 3 * 6);
        assert_eq!(disjoint_cliques(3, 4).max_degree(), 3);
    }

    #[test]
    fn kronecker_is_deterministic_and_sized() {
        let a = kronecker(7, 8, 11);
        let b = kronecker(7, 8, 11);
        let c = kronecker(7, 8, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.node_count(), 128);
        // Self-loop drops and dedup only ever shrink the edge list.
        assert!(a.edge_count() <= 8 * 128);
        assert!(a.edge_count() > 128, "ef = 8 should survive dedup");
    }

    #[test]
    fn kronecker_has_a_heavy_tail() {
        let g = kronecker(10, 8, 3);
        // R-MAT without label scrambling concentrates degree on vertex 0.
        assert!(
            g.degree(NodeId::new(0)) as f64 > 4.0 * g.average_degree(),
            "d0 = {} avg = {}",
            g.degree(NodeId::new(0)),
            g.average_degree()
        );
    }

    #[test]
    fn kronecker_scales_past_2_16() {
        let g = kronecker(16, 2, 9);
        assert_eq!(g.node_count(), 1 << 16);
        assert!(g.edge_count() > 1 << 14);
    }

    #[test]
    #[should_panic(expected = "must be < 32")]
    fn kronecker_rejects_scale_32() {
        kronecker(32, 1, 0);
    }

    #[test]
    fn watts_strogatz_lattice_and_rewired() {
        let lattice = watts_strogatz(40, 6, 0.0, 1);
        assert!(lattice.nodes().all(|v| lattice.degree(v) == 6));
        assert!(lattice.has_edge(NodeId::new(0), NodeId::new(3)));
        assert!(!lattice.has_edge(NodeId::new(0), NodeId::new(4)));

        let rewired = watts_strogatz(40, 6, 0.5, 1);
        assert_ne!(rewired, lattice, "beta = 0.5 should rewire something");
        // Edge count stays close to n·k/2 (duplicates may drop a few).
        assert!(rewired.edge_count() > 40 * 3 - 20);
        assert!(rewired.edge_count() <= 40 * 3);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn watts_strogatz_rejects_odd_k() {
        watts_strogatz(10, 3, 0.1, 0);
    }

    #[test]
    fn random_geometric_radius_extremes() {
        let none = random_geometric(30, 0.0, 2);
        assert_eq!(none.edge_count(), 0);
        let all = random_geometric(30, 1.5, 2); // √2 < 1.5 covers the square
        assert_eq!(all.edge_count(), 30 * 29 / 2);
        // Determinism.
        assert_eq!(random_geometric(30, 0.2, 7), random_geometric(30, 0.2, 7));
    }

    #[test]
    fn planted_set_is_independent() {
        let g = planted_independent_set(50, 0.3, 10, 3);
        for u in 0..10u32 {
            for v in (u + 1)..10u32 {
                assert!(!g.has_edge(NodeId::new(u), NodeId::new(v)));
            }
        }
    }

    #[test]
    fn random_bipartite_has_no_internal_edges() {
        let g = random_bipartite(10, 12, 0.5, 6);
        for u in 0..10u32 {
            for v in (u + 1)..10u32 {
                assert!(!g.has_edge(NodeId::new(u), NodeId::new(v)));
            }
        }
        for u in 10..22u32 {
            for v in (u + 1)..22u32 {
                assert!(!g.has_edge(NodeId::new(u), NodeId::new(v)));
            }
        }
        assert!(g.edge_count() > 20, "p=0.5 should keep many cross edges");
    }

    #[test]
    fn bipartite_complete_structure() {
        let g = complete_bipartite(2, 3);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.degree(NodeId::new(0)), 3);
        assert_eq!(g.degree(NodeId::new(4)), 2);
    }
}
