//! The load-bearing property of §2.4: under a shared seed, the
//! congested-clique simulation reproduces the direct sparsified execution
//! **bit for bit** — same joins at the same iterations, same removal
//! times, same probability exponents, and (with the shared clean-up rule)
//! the same final MIS.
//!
//! This is deliberately tested across graph families, phase lengths, and
//! truncated final phases, because each stresses a different part of the
//! simulation: super-heavy commitment vectors, the sampled-set superset
//! property, replay depth (radius 2P), and watcher reconstruction.

use clique_mis::algorithms::clique_mis::{run_clique_mis, CliqueMisParams};
use clique_mis::algorithms::sparsified::{
    run_sparsified, run_sparsified_with_cleanup, SparsifiedParams,
};
use clique_mis::graph::{generators, Graph};

fn assert_equivalent(name: &str, g: &Graph, params: SparsifiedParams, seed: u64) {
    let direct = run_sparsified(g, &params, seed);
    let sim = run_clique_mis(
        g,
        &CliqueMisParams {
            sparsified: Some(params),
            skip_cleanup: true,
        },
        seed,
    );
    assert_eq!(
        direct.joined_at, sim.joined_at,
        "{name} P={} seed={seed}: join trajectories diverge",
        params.phase_len
    );
    assert_eq!(
        direct.removed_at, sim.removed_at,
        "{name} P={} seed={seed}: removal trajectories diverge",
        params.phase_len
    );
    assert_eq!(direct.mis, sim.mis, "{name}: MIS diverges");
    for i in 0..g.node_count() {
        if direct.removed_at[i].is_none() {
            assert_eq!(
                direct.pexp[i], sim.pexp[i],
                "{name} node {i}: probability exponent diverges"
            );
        }
    }
}

#[test]
fn equivalence_across_families_and_phase_lengths() {
    let families: Vec<(&str, Graph)> = vec![
        ("gnp", generators::erdos_renyi_gnp(150, 0.07, 31)),
        ("regular", generators::random_regular(120, 6, 32)),
        ("star", generators::star(200)),
        ("cliques", generators::disjoint_cliques(8, 10)),
        ("ba", generators::barabasi_albert(100, 4, 33)),
        ("bipartite", generators::complete_bipartite(10, 80)),
        ("grid", generators::grid(10, 10)),
    ];
    for (name, g) in &families {
        for phase_len in [1usize, 2, 3] {
            let params = SparsifiedParams {
                phase_len,
                super_heavy_log2: (2 * phase_len) as u32,
                max_iterations: 14,
            };
            for seed in 0..3 {
                assert_equivalent(name, g, params, seed);
            }
        }
    }
}

#[test]
fn equivalence_with_truncated_final_phase() {
    // max_iterations not a multiple of P stresses the shortened-phase
    // sampling multiplier 2^len.
    let g = generators::erdos_renyi_gnp(120, 0.08, 41);
    for max_iterations in [1u64, 2, 5, 7, 11] {
        let params = SparsifiedParams {
            phase_len: 3,
            super_heavy_log2: 6,
            max_iterations,
        };
        assert_equivalent("truncated", &g, params, 5);
    }
}

#[test]
fn equivalence_with_decoupled_threshold() {
    // The ablation knob: thresholds that are not 2^{2P} must still
    // simulate exactly (correctness is parameter-independent).
    let g = generators::erdos_renyi_gnp(100, 0.1, 51);
    for sh in [1u32, 3, 8] {
        let params = SparsifiedParams {
            phase_len: 2,
            super_heavy_log2: sh,
            max_iterations: 12,
        };
        assert_equivalent("threshold", &g, params, 2);
    }
}

#[test]
fn full_pipeline_with_cleanup_agrees() {
    // With the shared greedy clean-up rule, the *complete* MIS agrees too.
    let g = generators::erdos_renyi_gnp(200, 0.05, 61);
    let params = SparsifiedParams {
        phase_len: 2,
        super_heavy_log2: 4,
        max_iterations: 10,
    };
    for seed in 0..3 {
        let direct = run_sparsified_with_cleanup(&g, &params, seed);
        let sim = run_clique_mis(
            &g,
            &CliqueMisParams {
                sparsified: Some(params),
                skip_cleanup: false,
            },
            seed,
        );
        assert_eq!(direct.mis, sim.mis, "seed {seed}: full MIS diverges");
    }
}
