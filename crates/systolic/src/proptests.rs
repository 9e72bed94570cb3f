//! Property-based tests of the systolic substrate.

#![cfg(test)]

use proptest::prelude::*;

use cimtpu_units::{DataType, GemmShape};

use crate::cycle_sim::{matmul_reference, CycleSim};
use crate::cycle_sim_os::OsCycleSim;
use crate::{Dataflow, SystolicArray, SystolicConfig};

fn shape_strategy() -> impl Strategy<Value = GemmShape> {
    (1u64..2048, 1u64..4096, 1u64..4096)
        .prop_map(|(m, k, n)| GemmShape::new(m, k, n).expect("non-zero dims"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every dataflow accounts for at least the ideal MAC count.
    #[test]
    fn all_dataflows_conserve_work(
        shape in shape_strategy(),
        dataflow_idx in 0usize..3,
    ) {
        let dataflow = [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
        ][dataflow_idx];
        let array = SystolicArray::new(SystolicConfig::new(128, 128, dataflow))
            .expect("valid config");
        let t = array.gemm_timing(shape, DataType::Int8);
        prop_assert!(t.utilization() <= 1.0 + 1e-12, "{shape} on {dataflow:?}");
        prop_assert!(t.total().get() >= shape.macs().div_ceil(128 * 128));
    }

    /// Double buffering never hurts.
    #[test]
    fn double_buffering_never_hurts(shape in shape_strategy()) {
        let with = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).expect("valid");
        let without = SystolicArray::new(
            SystolicConfig::tpuv4i_mxu().with_weight_double_buffering(false),
        )
        .expect("valid");
        prop_assert!(
            with.gemm_timing(shape, DataType::Int8).total()
                <= without.gemm_timing(shape, DataType::Int8).total()
        );
    }

    /// SRAM traffic at least covers each operand once.
    #[test]
    fn traffic_lower_bounds(shape in shape_strategy()) {
        let array = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).expect("valid");
        let t = array.gemm_traffic(shape, DataType::Int8);
        prop_assert!(t.weight_reads() >= shape.weight_bytes(DataType::Int8));
        prop_assert!(t.activation_reads() >= shape.activation_bytes(DataType::Int8));
        prop_assert!(t.output_writes().get() >= shape.m() * shape.n());
    }

    /// The WS and OS cycle-level simulators agree with each other and the
    /// integer reference on random small matrices.
    #[test]
    fn cycle_sims_agree(
        m in 1usize..10,
        k in 1usize..12,
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 15) as i32 - 7
        };
        let a: Vec<Vec<i32>> = (0..m).map(|_| (0..k).map(|_| next()).collect()).collect();
        let w: Vec<Vec<i32>> = (0..k).map(|_| (0..n).map(|_| next()).collect()).collect();

        let reference = matmul_reference(&a, &w);
        let ws = CycleSim::new(k, n).expect("dims").run(&a, &w).expect("operands");
        let os = OsCycleSim::new(m, n).expect("dims").run(&a, &w).expect("operands");
        prop_assert_eq!(ws.result(), reference.as_slice());
        prop_assert_eq!(os.result(), reference.as_slice());
    }

    /// Energy totals are positive and monotone in the MAC count.
    #[test]
    fn energy_positive_and_monotone(shape in shape_strategy()) {
        let array = SystolicArray::new(SystolicConfig::tpuv4i_mxu()).expect("valid");
        let e = array.gemm_energy(shape, DataType::Int8);
        prop_assert!(e.mac().get() > 0.0);
        let doubled = shape.with_m(shape.m() * 2).expect("non-zero");
        let e2 = array.gemm_energy(doubled, DataType::Int8);
        prop_assert!(e2.mac() > e.mac());
    }
}
