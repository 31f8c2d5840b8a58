//! Ablation harness: sweep the mirror-decision weight λ (how strongly the
//! lookahead distance term counts against the decomposition-cost delta) and
//! the front-term normalization, printing depth/SWAPs/acceptance for
//! representative circuits. Used to pick the shipped default (the mirror
//! decision is described in ARCHITECTURE.md, "Router hot path").

use mirage_bench::eval_options;
use mirage_circuit::generators::{portfolio_qaoa, qft, seca, swap_test};
use mirage_core::{transpile, RouterKind, Target};
use mirage_topology::CouplingMap;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "square".into());
    let target = Target::sqrt_iswap(if which == "heavy-hex" {
        CouplingMap::heavy_hex(5)
    } else {
        CouplingMap::grid(6, 6)
    });
    let circuits = vec![
        ("qft_n18", qft(18, false)),
        ("seca_n11", seca()),
        ("portfolioqaoa_n16", portfolio_qaoa(16, 3, 99)),
        ("swap_test_n25", swap_test(25)),
    ];
    println!(
        "{:<20} {:>7} {:>9} {:>7} {:>8}",
        "circuit", "lambda", "depth", "swaps", "mirror%"
    );
    for (name, circ) in &circuits {
        // Baseline.
        let mut opts = eval_options(RouterKind::Sabre, 0x7E57);
        opts.use_vf2 = false;
        let base = transpile(circ, &target, &opts).unwrap();
        println!(
            "{:<20} {:>7} {:>9.1} {:>7} {:>8}",
            name, "sabre", base.metrics.depth_estimate, base.metrics.swaps_inserted, "-"
        );
        for lambda in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
            let mut opts = eval_options(RouterKind::Mirage, 0x7E57);
            opts.use_vf2 = false;
            opts.trials.mirror_lambda = Some(lambda);
            let out = transpile(circ, &target, &opts).unwrap();
            println!(
                "{:<20} {:>7.1} {:>9.1} {:>7} {:>7.1}%",
                name,
                lambda,
                out.metrics.depth_estimate,
                out.metrics.swaps_inserted,
                100.0 * out.metrics.mirror_rate
            );
        }
        println!();
    }
}
