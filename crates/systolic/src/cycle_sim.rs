//! Cycle-level functional simulator for small weight-stationary arrays.
//!
//! Unlike the analytical model, this simulator actually moves operands
//! through per-PE registers cycle by cycle, producing both the numeric
//! result and the exact cycle count. It exists to *validate* the analytical
//! equations (the two must agree for single-tile weight-stationary GEMMs)
//! and the numerical correctness of the dataflow.
//!
//! It is deliberately restricted to operand matrices that fit a single
//! weight tile (`k ≤ rows`, `n ≤ cols`) — multi-tile behaviour is pure
//! repetition and is covered by the analytical model.
//!
//! # Examples
//!
//! ```
//! use cimtpu_systolic::cycle_sim::CycleSim;
//!
//! let a = vec![vec![1i32, 2], vec![3, 4]]; // 2x2 activations
//! let w = vec![vec![5i32, 6], vec![7, 8]]; // 2x2 weights
//! let run = CycleSim::new(2, 2)?.run(&a, &w)?;
//! assert_eq!(run.result(), &[vec![19, 22], vec![43, 50]]);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

use cimtpu_units::{Cycles, Error, Result};

/// A small weight-stationary systolic array simulated at cycle granularity.
#[derive(Debug, Clone)]
pub struct CycleSim {
    rows: usize,
    cols: usize,
}

/// Result of one [`CycleSim::run`]: the output matrix plus cycle counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSimRun {
    result: Vec<Vec<i32>>,
    load_cycles: Cycles,
    compute_cycles: Cycles,
}

impl CycleSimRun {
    /// The computed `[m × n]` output matrix.
    pub fn result(&self) -> &[Vec<i32>] {
        &self.result
    }

    /// Cycles from first activation entering to last output leaving.
    #[cfg(test)]
    pub(crate) fn compute_cycles(&self) -> Cycles {
        self.compute_cycles
    }

    /// Total cycles (load + compute).
    #[cfg(test)]
    pub(crate) fn total_cycles(&self) -> Cycles {
        self.load_cycles + self.compute_cycles
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Pe {
    weight: i32,
    /// Activation register (flows left → right).
    act: Option<i32>,
    /// Partial-sum register (flows top → bottom).
    psum: Option<i32>,
}

impl CycleSim {
    /// Creates a simulator for an `rows × cols` array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero dimensions or arrays larger
    /// than 256×256 (the simulator is meant for validation, not scale).
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(Error::invalid_config(
                "cycle sim dimensions must be non-zero",
            ));
        }
        if rows > 256 || cols > 256 {
            return Err(Error::invalid_config(
                "cycle sim is limited to arrays of at most 256x256",
            ));
        }
        Ok(CycleSim { rows, cols })
    }

    /// Runs `activations [m × k] · weights [k × n]` through the array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if the operands are empty, ragged, or
    /// exceed a single weight tile (`k > rows` or `n > cols`).
    pub fn run(&self, activations: &[Vec<i32>], weights: &[Vec<i32>]) -> Result<CycleSimRun> {
        let m = activations.len();
        let k = weights.len();
        let n = weights.first().map_or(0, Vec::len);
        if m == 0 || k == 0 || n == 0 {
            return Err(Error::invalid_shape("cycle sim operands must be non-empty"));
        }
        if activations.iter().any(|r| r.len() != k) || weights.iter().any(|r| r.len() != n) {
            return Err(Error::invalid_shape(
                "cycle sim operands must be rectangular and conformable",
            ));
        }
        if k > self.rows || n > self.cols {
            return Err(Error::invalid_shape(format!(
                "operands [{m} x {k}] . [{k} x {n}] exceed one {}x{} weight tile",
                self.rows, self.cols
            )));
        }

        // Phase 1: weight load. Weights shift in row by row from the top:
        // `rows` cycles for a full array (we charge the full array height,
        // matching the analytical model's R-cycle load phase).
        let mut pes = vec![vec![Pe::default(); self.cols]; self.rows];
        for (r, w_row) in weights.iter().enumerate() {
            for (c, &w) in w_row.iter().enumerate() {
                pes[r][c].weight = w;
            }
        }
        let load_cycles = Cycles::new(self.rows as u64);

        // Phase 2: skewed activation streaming. Activation row i enters PE
        // row r at cycle i + r; partial sums flow down one row per cycle and
        // exit below row `k-1`. Column c is additionally skewed by c cycles.
        let mut result = vec![vec![0i32; n]; m];
        let mut done = 0usize;
        let mut cycle: u64 = 0;
        // Upper bound keeps the loop finite even under a modeling bug.
        let bound = (m + self.rows + self.cols + 4) as u64 * 4;

        while done < m * n {
            // PEs update back-to-front so a value moves one hop per cycle.
            // 1. Collect outputs leaving the bottom of each used column.
            for c in 0..n {
                if let Some(psum) = pes[k - 1][c].psum.take() {
                    // Output for activation row: derive from timing: the
                    // psum that exits column c at this cycle belongs to the
                    // activation row that entered at cycle (cycle - (k-1) - c).
                    let row = cycle as i64 - (k as i64 - 1) - c as i64 - 1;
                    debug_assert!(row >= 0 && (row as usize) < m, "psum exit out of range");
                    result[row as usize][c] = psum;
                    done += 1;
                }
            }
            if done == m * n {
                break;
            }
            // 2. Shift psums down and activations right (bottom-up, right-left).
            for r in (0..k).rev() {
                for c in (0..n).rev() {
                    // Activation arriving from the left neighbour (or input edge).
                    let act_in = if c == 0 {
                        // Row r receives activation element a[i][r] at cycle i + r.
                        let i = cycle as i64 - r as i64;
                        if i >= 0 && (i as usize) < m {
                            Some(activations[i as usize][r])
                        } else {
                            None
                        }
                    } else {
                        pes[r][c - 1].act
                    };
                    // Partial sum arriving from above (or zero at the top edge).
                    let psum_in = if r == 0 {
                        act_in.map(|_| 0)
                    } else {
                        pes[r - 1][c].psum
                    };
                    pes[r][c].psum = match (act_in, psum_in) {
                        (Some(a), Some(p)) => Some(p + a * pes[r][c].weight),
                        _ => None,
                    };
                    pes[r][c].act = act_in;
                }
            }
            cycle += 1;
            if cycle > bound {
                return Err(Error::invalid_shape(
                    "cycle sim failed to drain within its cycle bound",
                ));
            }
        }

        Ok(CycleSimRun {
            result,
            load_cycles,
            compute_cycles: Cycles::new(cycle),
        })
    }
}

/// Reference matrix multiply used by tests.
pub fn matmul_reference(a: &[Vec<i32>], w: &[Vec<i32>]) -> Vec<Vec<i32>> {
    let m = a.len();
    let k = w.len();
    let n = w.first().map_or(0, Vec::len);
    let mut out = vec![vec![0i32; n]; m];
    for (i, a_row) in a.iter().enumerate() {
        for (j, out_ij) in out[i].iter_mut().enumerate() {
            *out_ij = (0..k).map(|x| a_row[x] * w[x][j]).sum();
        }
        let _ = i;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(m: usize, n: usize, seed: &mut u64) -> Vec<Vec<i32>> {
        // Small xorshift so the test has no external deps.
        let mut next = || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            (*seed % 17) as i32 - 8
        };
        (0..m).map(|_| (0..n).map(|_| next()).collect()).collect()
    }

    #[test]
    fn small_known_product() {
        let a = vec![vec![1, 0], vec![0, 1], vec![2, 3]];
        let w = vec![vec![4, 5], vec![6, 7]];
        let run = CycleSim::new(2, 2).unwrap().run(&a, &w).unwrap();
        assert_eq!(run.result(), matmul_reference(&a, &w).as_slice());
    }

    #[test]
    fn randomized_products_match_reference() {
        let mut seed = 0x1234_5678_9abc_def0;
        for (m, k, n) in [(1, 4, 4), (5, 3, 2), (8, 8, 8), (16, 7, 5), (3, 1, 1)] {
            let a = rand_mat(m, k, &mut seed);
            let w = rand_mat(k, n, &mut seed);
            let run = CycleSim::new(k.max(1), n.max(1))
                .unwrap()
                .run(&a, &w)
                .unwrap();
            assert_eq!(
                run.result(),
                matmul_reference(&a, &w).as_slice(),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn cycle_count_matches_analytical_single_tile() {
        use crate::{analytical, config::SystolicConfig, Dataflow};
        use cimtpu_units::{DataType, GemmShape};

        let mut seed = 42;
        for (m, k, n) in [(4usize, 8usize, 8usize), (1, 8, 8), (10, 8, 8)] {
            let a = rand_mat(m, k, &mut seed);
            let w = rand_mat(k, n, &mut seed);
            let run = CycleSim::new(8, 8).unwrap().run(&a, &w).unwrap();

            let cfg = SystolicConfig::new(8, 8, Dataflow::WeightStationary)
                .with_weight_double_buffering(false);
            let t = analytical::gemm_timing(
                &cfg,
                GemmShape::new(m as u64, 8, 8).unwrap(),
                DataType::Int8,
            );
            // Analytical compute phase is m + R + C - 2; the cycle-level sim
            // must agree exactly when the tile fully occupies the array.
            assert_eq!(
                run.compute_cycles().get(),
                m as u64 + 8 + 8 - 2,
                "compute cycles for m={m}"
            );
            assert_eq!(run.total_cycles(), t.total(), "total for m={m}");
        }
    }

    #[test]
    fn rejects_ragged_and_oversized() {
        let sim = CycleSim::new(2, 2).unwrap();
        assert!(sim
            .run(&[vec![1, 2], vec![3]], &[vec![1, 2], vec![3, 4]])
            .is_err());
        assert!(sim
            .run(&[vec![1, 2, 3]], &[vec![1], vec![2], vec![3]])
            .is_err());
        assert!(CycleSim::new(0, 4).is_err());
        assert!(CycleSim::new(300, 4).is_err());
    }
}
