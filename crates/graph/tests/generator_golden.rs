//! Golden bytes for every public generator.
//!
//! Each case pins the edge count and an FNV-1a hash of the CSR adjacency
//! (node count, then every node's degree and sorted neighbour list), so a
//! generator rewrite that changes a single edge, or the order of a single
//! adjacency list, fails here. The values were computed before the
//! `kronecker` draw, sort and CSR fill were rewritten, and every rewrite
//! since must reproduce them.
//!
//! A failing test prints every mismatched case as a ready-to-paste table
//! row; re-pin only for a change that is meant to alter the graphs.

use cc_mis_graph::generators::{
    balanced_tree, barabasi_albert, caterpillar, chung_lu_power_law, complete, complete_bipartite,
    cycle, disjoint_cliques, erdos_renyi_gnm, erdos_renyi_gnp, grid, kronecker, path,
    planted_independent_set, random_bipartite, random_geometric, random_regular, star,
    watts_strogatz,
};
use cc_mis_graph::Graph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over the node count and, per node in id order, its degree and
/// its neighbours, all little-endian.
fn adjacency_hash(g: &Graph) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, &(g.node_count() as u64).to_le_bytes());
    for v in g.nodes() {
        hash = fnv1a(hash, &(g.degree(v) as u64).to_le_bytes());
        for &u in g.neighbors(v) {
            hash = fnv1a(hash, &u.raw().to_le_bytes());
        }
    }
    hash
}

/// Checks every `(expression, edge_count, hash)` case and panics with the
/// full list of mismatches.
fn check(cases: Vec<(&str, Graph, usize, u64)>) {
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(label, g, edges, hash)| {
            let got = (g.edge_count(), adjacency_hash(&g));
            (got != (edges, hash)).then(|| format!("{label} => ({}, {:#018x}),", got.0, got.1))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "generator output changed:\n{}",
        mismatches.join("\n")
    );
}

/// `generator(args) => (edge_count, adjacency_hash),` rows.
macro_rules! pinned {
    ($($generator:expr => ($edges:expr, $hash:expr),)*) => {
        check(vec![$((stringify!($generator), $generator, $edges, $hash)),*])
    };
}

#[test]
fn kronecker_is_pinned() {
    pinned! {
        kronecker(16, 8, 1) => (477_906, 0xc6a624adb5fb2962),
        kronecker(16, 8, 2) => (477_310, 0xc2cb375734ce619c),
        kronecker(16, 8, 3) => (477_381, 0x720ce92329bdb95b),
        kronecker(0, 4, 1) => (0, 0x392209f14dea4c24),
        kronecker(5, 0, 1) => (0, 0x64e91293934489a5),
        kronecker(11, 8, 1) => (12_733, 0x70802484b00b3d91),
        kronecker(11, 8, 7) => (12_806, 0xae8b5a013a947a0a),
        kronecker(7, 8, 11) => (586, 0xb952e8925b3ce52c),
    }
}

#[test]
fn random_families_are_pinned() {
    pinned! {
        erdos_renyi_gnp(200, 0.05, 1) => (939, 0x686fd4ae2d71da65),
        erdos_renyi_gnp(64, 0.2, 42) => (408, 0x5720e185508405f9),
        erdos_renyi_gnp(1000, 0.01, 3) => (4990, 0x4d44287a40c18d1b),
        erdos_renyi_gnm(30, 100, 9) => (100, 0x2cc87022cb12a93d),
        erdos_renyi_gnm(200, 500, 4) => (500, 0xc80f7b2d5da35162),
        random_regular(50, 4, 3) => (100, 0x878951ba261bb567),
        random_regular(512, 4, 7) => (1024, 0x36192991d9257f8b),
        random_regular(100, 6, 5) => (300, 0xca4302b9ea906ee1),
        barabasi_albert(100, 3, 4) => (294, 0x314f15b87f91bd66),
        barabasi_albert(500, 2, 9) => (997, 0x68e4cfe810b85e0e),
        chung_lu_power_law(300, 2.5, 6.0, 8) => (874, 0x33caff3073879d31),
        chung_lu_power_law(500, 2.1, 4.0, 2) => (932, 0x267e089db358878b),
        planted_independent_set(50, 0.3, 10, 3) => (370, 0x670de382c333a2c3),
        planted_independent_set(120, 0.1, 30, 5) => (656, 0xffc38b526deb7101),
        watts_strogatz(40, 6, 0.0, 1) => (120, 0xf6da537b79cfb9ed),
        watts_strogatz(40, 6, 0.5, 1) => (116, 0x5157187f397758e5),
        watts_strogatz(200, 4, 0.1, 9) => (399, 0x10a735a6a7a91733),
        random_geometric(100, 0.15, 3) => (323, 0x2ef6bdcbf2e1bbcb),
        random_geometric(400, 0.08, 2) => (1516, 0x69ede231e38a43a0),
        random_bipartite(10, 12, 0.5, 6) => (64, 0xcdc45fdc1418dcc0),
        random_bipartite(40, 30, 0.1, 2) => (118, 0xb67eb158cece5309),
    }
}

#[test]
fn structured_families_are_pinned() {
    pinned! {
        cycle(2) => (1, 0x4a465f318e546bd6),
        cycle(6) => (6, 0xcff1133cac3fae13),
        cycle(100) => (100, 0xdda9611e6678b481),
        path(1) => (0, 0x392209f14dea4c24),
        path(5) => (4, 0xbf98e68832b37316),
        path(50) => (49, 0xcb51c4e9d6123e56),
        complete(5) => (10, 0x40d62fbfe8ebcba4),
        complete(30) => (435, 0x739f07486e69218a),
        complete_bipartite(2, 3) => (6, 0x10f6291675d10a33),
        complete_bipartite(10, 17) => (170, 0xd6ef07b17ecba8f5),
        star(1) => (0, 0x392209f14dea4c24),
        star(10) => (9, 0x236af47b07911d96),
        grid(1, 5) => (4, 0xbf98e68832b37316),
        grid(3, 4) => (17, 0x6abe3302a8d894aa),
        grid(12, 12) => (264, 0x8da4811fca6fed75),
        balanced_tree(1, 5) => (5, 0xaec1b8bd12684bb6),
        balanced_tree(2, 3) => (14, 0xe06b711e548b9297),
        balanced_tree(3, 4) => (120, 0xfd6a55dc23361c12),
        caterpillar(1, 4) => (4, 0x36532d5e2e383300),
        caterpillar(4, 2) => (11, 0xe27103f0462405da),
        caterpillar(10, 3) => (39, 0x7568f7f2b2052ef4),
        disjoint_cliques(3, 4) => (18, 0xd4fffd5bfce514e9),
        disjoint_cliques(5, 7) => (105, 0xf85ff997d9214a30),
    }
}
