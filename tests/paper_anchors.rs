//! Anchor tests pinning the reproduction to the paper's published numbers
//! (tolerances documented inline). The full comparison, each reproduced
//! number beside the paper's, is `BENCH_paper.json`, written by the
//! `paper` bin (`crates/bench/src/bin/paper.rs`).

use mirage::coverage::haar::{haar_score, FidelityModel};
use mirage::coverage::set::{BasisGate, CoverageOptions, CoverageSet};
use mirage::weyl::coords::WeylCoord;
use mirage::weyl::mirror::mirror_coord;

fn set(n: u32, mirrors: bool, max_k: usize, seed: u64) -> CoverageSet {
    CoverageSet::build(
        BasisGate::iswap_root(n),
        &CoverageOptions {
            max_k,
            samples_per_k: 2000,
            inflation: 0.012,
            mirrors,
            seed,
        },
    )
}

#[test]
fn fig1_cnot_and_cns_cost_the_same() {
    // The paper's central observation (Fig. 1): in the √iSWAP basis, CNOT
    // and CNS = CNOT+SWAP have identical decomposition cost (k = 2).
    let s = set(2, false, 3, 1);
    assert_eq!(s.min_k(&WeylCoord::CNOT), Some(2));
    assert_eq!(s.min_k(&mirror_coord(&WeylCoord::CNOT)), Some(2));
}

#[test]
fn cnot_basis_does_not_get_free_mirrors() {
    // In the CNOT basis, mirroring a CNOT (→ iSWAP class) *doubles* its
    // cost (k = 1 → k = 2), whereas in the √iSWAP basis both cost k = 2.
    // That asymmetry is why the mirror trick favors the iSWAP family.
    let s = CoverageSet::build(
        BasisGate::cnot(),
        &CoverageOptions {
            max_k: 3,
            samples_per_k: 2000,
            inflation: 0.012,
            mirrors: false,
            seed: 2,
        },
    );
    assert_eq!(s.min_k(&WeylCoord::CNOT), Some(1));
    assert_eq!(s.min_k(&WeylCoord::ISWAP), Some(2));
    assert_eq!(s.min_k(&WeylCoord::SWAP), Some(3));
}

#[test]
fn fig3_cnot_k2_coverage_is_planar() {
    // Paper Fig. 3: the CNOT k = 2 regions are planar, so they hold 0% of
    // the Haar volume, with or without mirrors.
    for mirrors in [false, true] {
        let s = CoverageSet::build(
            BasisGate::cnot(),
            &CoverageOptions {
                max_k: 2,
                samples_per_k: 2000,
                inflation: 0.012,
                mirrors,
                seed: 3,
            },
        );
        let coverage = s.haar_coverage(2, 6000, 33);
        assert!(coverage < 0.001, "mirrors {mirrors}: {coverage:.4}");
    }
}

#[test]
fn fig3_sqrt_iswap_coverage_fractions() {
    // Paper: 79.0% standard, 94.4% mirror at k = 2 (±5 points for the
    // sampled-hull construction and Monte Carlo volume).
    let plain = set(2, false, 3, 3);
    let mirror = set(2, true, 3, 3);
    let c_plain = plain.haar_coverage(2, 6000, 33);
    let c_mirror = mirror.haar_coverage(2, 6000, 33);
    assert!(
        (c_plain - 0.790).abs() < 0.05,
        "standard coverage {c_plain:.3}"
    );
    assert!(
        (c_mirror - 0.944).abs() < 0.05,
        "mirror coverage {c_mirror:.3}"
    );
}

#[test]
fn table1_sqrt_iswap_haar_scores() {
    // Paper Table I: 1.105 / 0.9890 standard; 1.029 / 0.9897 mirror.
    let model = FidelityModel::paper_default();
    let hs_plain = haar_score(&set(2, false, 3, 4), &model, 6000, 44);
    let hs_mirror = haar_score(&set(2, true, 3, 4), &model, 6000, 44);
    assert!(
        (hs_plain.score - 1.105).abs() < 0.035,
        "{:.4}",
        hs_plain.score
    );
    assert!((hs_plain.avg_fidelity - 0.9890).abs() < 0.001);
    assert!(
        (hs_mirror.score - 1.029).abs() < 0.035,
        "{:.4}",
        hs_mirror.score
    );
    assert!((hs_mirror.avg_fidelity - 0.9897).abs() < 0.001);
}

#[test]
fn fig4_quarter_iswap_depth_caps() {
    // Paper: ∜iSWAP needs up to k = 6 standard; with mirrors the depth
    // never exceeds k = 4.
    let plain = set(4, false, 8, 5);
    assert_eq!(plain.min_k(&WeylCoord::SWAP), Some(6));
    let mirror = set(4, true, 6, 5);
    let full_at = mirror
        .levels
        .iter()
        .find(|l| l.full)
        .map(|l| l.k)
        .expect("mirror set covers the chamber");
    assert!(full_at <= 4, "full coverage at k = {full_at}");
}

#[test]
fn fig6_cphase_in_pswap_out() {
    // Paper Fig. 6: CPHASE gates live inside the √iSWAP k=2 region, their
    // pSWAP mirrors outside (except the iSWAP endpoint).
    let s = set(2, false, 3, 6);
    for theta in [0.4, 0.9, 1.6, 2.2] {
        let w = WeylCoord::cphase(theta);
        assert_eq!(s.min_k(&w), Some(2), "CPHASE({theta}) should be k=2");
        let m = mirror_coord(&w);
        assert_eq!(s.min_k(&m), Some(3), "pSWAP({theta}) should be k=3");
    }
    // Endpoint: CPHASE(π) = CZ mirrors to iSWAP, still k = 2.
    let endpoint = mirror_coord(&WeylCoord::cphase(std::f64::consts::PI));
    assert_eq!(s.min_k(&endpoint), Some(2));
}

#[test]
fn eq1_worked_examples() {
    // The named examples around Eq. 1.
    assert!(mirror_coord(&WeylCoord::CNOT).approx_eq(&WeylCoord::ISWAP, 1e-9));
    assert!(mirror_coord(&WeylCoord::ISWAP).approx_eq(&WeylCoord::CNOT, 1e-9));
    assert!(mirror_coord(&WeylCoord::SWAP).approx_eq(&WeylCoord::IDENTITY, 1e-9));
    assert!(mirror_coord(&WeylCoord::B_GATE).approx_eq(&WeylCoord::B_GATE, 1e-9));
}

#[test]
fn fidelity_model_normalization() {
    // iSWAP: duration 1.0 at 99% fidelity (paper §III-C).
    let m = FidelityModel::paper_default();
    assert!((m.gate_fidelity(1.0) - 0.99).abs() < 1e-12);
    // √iSWAP halves the exposure.
    assert!((m.gate_fidelity(0.5).powi(2) - 0.99).abs() < 1e-12);
}
