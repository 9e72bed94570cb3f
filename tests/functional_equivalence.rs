//! Cross-substrate functional validation: the CIM bit-serial datapath, the
//! systolic cycle-level simulator, and a plain integer reference must all
//! compute the same matrices.

use cimtpu::cim::bitserial::BitSerialMacUnit;
use cimtpu::cim::fp::{Bf16, FpCimPipeline};
use cimtpu::systolic::cycle_sim::{matmul_reference, CycleSim};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Both hardware datapaths compute the same random matrices.
#[test]
fn cim_and_systolic_agree_on_random_matrices() {
    let mut rng = StdRng::seed_from_u64(0xC1A0);
    for _ in 0..25 {
        let m = rng.gen_range(1..=12usize);
        let k = rng.gen_range(1..=16usize);
        let n = rng.gen_range(1..=16usize);
        let a: Vec<Vec<i32>> = (0..m)
            .map(|_| {
                (0..k)
                    .map(|_| i32::from(rng.gen_range(-128i8..=127)))
                    .collect()
            })
            .collect();
        let w: Vec<Vec<i32>> = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| i32::from(rng.gen_range(-128i8..=127)))
                    .collect()
            })
            .collect();

        // Systolic cycle-level result.
        let systolic = CycleSim::new(k, n)
            .expect("valid dims")
            .run(&a, &w)
            .expect("valid operands");

        // CIM bit-serial result, row by row of the activation matrix.
        let unit = BitSerialMacUnit::new(128);
        let w_i8: Vec<Vec<i8>> = w
            .iter()
            .map(|row| row.iter().map(|&x| x as i8).collect())
            .collect();
        let cim: Vec<Vec<i32>> = a
            .iter()
            .map(|row| {
                let row_i8: Vec<i8> = row.iter().map(|&x| x as i8).collect();
                unit.matvec(&row_i8, &w_i8).expect("valid shapes")
            })
            .collect();

        let reference = matmul_reference(&a, &w);
        assert_eq!(
            systolic.result(),
            reference.as_slice(),
            "systolic {m}x{k}x{n}"
        );
        assert_eq!(cim, reference, "cim {m}x{k}x{n}");
    }
}

/// The FP-CIM pipeline tracks an f64 GEMV reference within BF16 error.
#[test]
fn fp_pipeline_tracks_reference_on_gemv() {
    let mut rng = StdRng::seed_from_u64(0xBF16);
    let pipeline = FpCimPipeline::default();
    for _ in 0..20 {
        let k = rng.gen_range(1..=128usize);
        let a: Vec<Bf16> = (0..k)
            .map(|_| Bf16::from_f32(rng.gen_range(-8.0..8.0)))
            .collect();
        let w: Vec<Bf16> = (0..k)
            .map(|_| Bf16::from_f32(rng.gen_range(-8.0..8.0)))
            .collect();
        let got = f64::from(pipeline.dot(&a, &w).expect("finite operands").to_f32());
        let want = FpCimPipeline::dot_reference(&a, &w);
        let scale: f64 = a
            .iter()
            .zip(&w)
            .map(|(x, y)| (f64::from(x.to_f32()) * f64::from(y.to_f32())).abs())
            .sum::<f64>()
            .max(1e-3);
        assert!(
            (got - want).abs() <= scale * 0.02,
            "k={k}: got {got}, want {want}"
        );
    }
}

/// Narrower aligners lose more small products — the error is monotone in
/// the aligner width.
#[test]
fn aligner_width_controls_error() {
    let k = 64;
    let mut rng = StdRng::seed_from_u64(7);
    let a: Vec<Bf16> = (0..k)
        .map(|_| Bf16::from_f32(rng.gen_range(-100.0..100.0)))
        .collect();
    let w: Vec<Bf16> = (0..k)
        .map(|_| Bf16::from_f32(rng.gen_range(-100.0..100.0)))
        .collect();
    let want = FpCimPipeline::dot_reference(&a, &w);
    let err = |bits: u32| -> f64 {
        let p = FpCimPipeline::new(bits).expect("valid width");
        (f64::from(p.dot(&a, &w).expect("finite").to_f32()) - want).abs()
    };
    // A 32-bit aligner is at least as accurate as an 8-bit one.
    assert!(
        err(32) <= err(8) + 1e-9,
        "wide {} vs narrow {}",
        err(32),
        err(8)
    );
}

/// The engine-level timing models and the functional datapaths agree on
/// *what* is computed: MAC counts match the shape arithmetic.
#[test]
fn timing_macs_match_functional_work() {
    use cimtpu::prelude::*;
    let shape = GemmShape::new(7, 96, 33).expect("valid");
    // 7*96*33 MACs, exactly what the functional test above would execute.
    assert_eq!(shape.macs(), 7 * 96 * 33);
    let engine = MatrixEngine::from_kind(TpuConfig::cim_base().mxu()).expect("valid");
    // The engine never reports a utilization implying more work than macs.
    let cycles = engine.gemm_cycles(shape, DataType::Int8);
    let implied = cycles.get() * engine.peak_macs_per_cycle();
    assert!(implied >= shape.macs());
}
