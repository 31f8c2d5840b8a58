//! Regenerates **Figure 13b**: transpiler runtime scaling on QFT circuits
//! (n = 16 … 64).
//!
//! Substitution note: the paper compares its Python MIRAGE against Python
//! Qiskit and reports a 47.9% speedup at QFT-64 thanks to the caching of
//! Fig. 13a. Both sides here are Rust, so we report the reproducible part
//! of the claim — the effect of pricing each coordinate class once (the
//! price table, ARCHITECTURE.md "Router hot path") — plus MIRAGE vs the
//! SABRE baseline at equal trial counts.
//!
//! The router realizes Fig. 13a's saving with a per-run price table: every
//! coordinate class of the circuit (closed under mirroring) is priced once
//! when the run starts, and each mirror decision is then two array reads.
//! The "cold-cache" column routes on a target whose coordinate cache holds
//! a single class, so that per-run pricing pays a polytope scan for every
//! class — the cost is per class, not per gate, which is why it stays
//! close to the warm column. The `classes` column is the table size.

use mirage_circuit::consolidate::consolidate;
use mirage_circuit::generators::qft;
use mirage_circuit::Dag;
use mirage_core::layout::Layout;
use mirage_core::pricing::Classes;
use mirage_core::router::{node_coords, route, Aggression, RouterConfig};
use mirage_core::Target;
use mirage_coverage::set::{BasisGate, CoverageOptions, CoverageSet};
use mirage_math::Rng;
use mirage_topology::CouplingMap;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("Figure 13b — QFT routing runtime (single trial, line topology)\n");
    let cov = Arc::new(CoverageSet::build(
        BasisGate::iswap_root(2),
        &CoverageOptions {
            max_k: 3,
            samples_per_k: 2500,
            inflation: 0.012,
            mirrors: false,
            seed: 0x13B,
        },
    ));

    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>8}",
        "n", "sabre (ms)", "mirage (ms)", "cold-cache", "classes"
    );
    for &n in &[16usize, 24, 32, 48, 64] {
        let circ = consolidate(&qft(n, false));
        let dag = Dag::from_circuit(&circ);
        let coords = node_coords(&dag);
        let classes = Classes::build(&coords).0.len();

        let time_router = |aggression: Option<Aggression>, cache_cap: usize| {
            let target = Target::with_coverage(CouplingMap::line(n), cov.clone())
                .with_cache_capacity(cache_cap);
            let config = RouterConfig {
                aggression,
                ..RouterConfig::default()
            };
            let mut rng = Rng::new(0x1313);
            let t0 = Instant::now();
            let r = route(
                &dag,
                &coords,
                &target,
                Layout::trivial(n, n),
                &config,
                &mut rng,
            );
            (t0.elapsed().as_secs_f64() * 1e3, r)
        };

        let (t_sabre, _) = time_router(None, 8192);
        let (t_mirage, _) = time_router(Some(Aggression::A2), 8192);
        // "Cold cache": a single-entry cache re-scans the polytopes for
        // every class the per-run table prices.
        let (t_cold, _) = time_router(Some(Aggression::A2), 1);
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>8}",
            n, t_sabre, t_mirage, t_cold, classes
        );
    }
    println!("\nPaper: MIRAGE (with caching) ran 47.9% faster than Python Qiskit at QFT-64;");
    println!("here the per-run price table realizes Fig. 13a's saving: each class above is");
    println!("priced once per route, so even a cold cache pays per class, not per gate.");
}
