//! Micro-benchmark for the Fig. 13a caching design: coordinate cost
//! lookups uncached, through the single-threaded LRU, and through the
//! shared cache a `Target` carries; plus block consolidation with
//! exterior-1Q stripping.
//!
//! Run with `cargo bench --bench caching`.

use mirage_bench::timing::bench;
use mirage_circuit::consolidate::consolidate;
use mirage_circuit::generators::qft;
use mirage_coverage::cache::{CostCache, SharedCostCache};
use mirage_coverage::set::{BasisGate, CoverageOptions, CoverageSet};
use mirage_weyl::coords::{coords_of, WeylCoord};
use std::hint::black_box;

fn build_set() -> CoverageSet {
    CoverageSet::build(
        BasisGate::iswap_root(2),
        &CoverageOptions {
            max_k: 3,
            samples_per_k: 1500,
            inflation: 0.012,
            mirrors: false,
            seed: 0xCAC4E,
        },
    )
}

fn main() {
    let set = build_set();
    let coords: Vec<WeylCoord> = consolidate(&qft(12, false))
        .instructions
        .iter()
        .filter(|i| i.gate.is_two_qubit())
        .map(|i| coords_of(&i.gate.matrix2()))
        .collect();

    bench("cost_lookup/uncached", || {
        let mut total = 0.0;
        for w in &coords {
            total += set.cost_or_max(black_box(w));
        }
        total
    });

    let mut cache = CostCache::new(4096);
    bench("cost_lookup/lru_cached", || {
        let mut total = 0.0;
        for w in &coords {
            total += cache.get_or_insert_with(black_box(w), || set.cost_or_max(w));
        }
        total
    });

    let shared = SharedCostCache::new(4096);
    bench("cost_lookup/shared", || {
        let mut total = 0.0;
        for w in &coords {
            total += shared.get_or_insert_with(black_box(w), || set.cost_or_max(w));
        }
        total
    });

    let circ = qft(16, true);
    bench("consolidate/qft16", || consolidate(black_box(&circ)));

    let u = mirage_gates::cns();
    bench("coords_of/cns", || coords_of(black_box(&u)));
}
