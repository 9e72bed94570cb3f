//! Cycle-level functional simulator for output-stationary arrays.
//!
//! Complements [`cycle_sim`](crate::cycle_sim) (weight-stationary): here
//! each PE *owns one output element*; activations stream in from the left,
//! weights from the top, and the operands for `c[i][j] += a[i][t]·w[t][j]`
//! meet at PE `(i, j)` at cycle `t + i + j`. After the streaming phase the
//! accumulated outputs drain down the columns.
//!
//! Used to validate the [`Dataflow::OutputStationary`] analytical equation
//! (`k + R + C − 2` streaming + `R` drain per tile) and the numerical
//! correctness of the dataflow.
//!
//! [`Dataflow::OutputStationary`]: crate::Dataflow::OutputStationary
//!
//! # Examples
//!
//! ```
//! use cimtpu_systolic::cycle_sim_os::OsCycleSim;
//!
//! let a = vec![vec![1i32, 2], vec![3, 4]];
//! let w = vec![vec![5i32, 6], vec![7, 8]];
//! let run = OsCycleSim::new(2, 2)?.run(&a, &w)?;
//! assert_eq!(run.result(), &[vec![19, 22], vec![43, 50]]);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

use cimtpu_units::{Cycles, Error, Result};

/// A small output-stationary systolic array simulated at cycle granularity.
#[derive(Debug, Clone)]
pub struct OsCycleSim {
    rows: usize,
    cols: usize,
}

/// Result of one [`OsCycleSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsCycleSimRun {
    result: Vec<Vec<i32>>,
    stream_cycles: Cycles,
    drain_cycles: Cycles,
}

impl OsCycleSimRun {
    /// The computed `[m × n]` output matrix.
    pub fn result(&self) -> &[Vec<i32>] {
        &self.result
    }

    /// Total cycles.
    #[cfg(test)]
    pub(crate) fn total_cycles(&self) -> Cycles {
        self.stream_cycles + self.drain_cycles
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct OsPe {
    acc: i32,
    /// Activation register (flows left → right).
    act: Option<i32>,
    /// Weight register (flows top → bottom).
    weight: Option<i32>,
}

impl OsCycleSim {
    /// Creates a simulator for an `rows × cols` array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero dimensions or arrays larger
    /// than 256×256.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(Error::invalid_config(
                "OS cycle sim dimensions must be non-zero",
            ));
        }
        if rows > 256 || cols > 256 {
            return Err(Error::invalid_config(
                "OS cycle sim is limited to arrays of at most 256x256",
            ));
        }
        Ok(OsCycleSim { rows, cols })
    }

    /// Runs `activations [m × k] · weights [k × n]` through the array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if operands are empty, ragged, or
    /// exceed one output tile (`m > rows` or `n > cols`).
    pub fn run(&self, activations: &[Vec<i32>], weights: &[Vec<i32>]) -> Result<OsCycleSimRun> {
        let m = activations.len();
        let k = weights.len();
        let n = weights.first().map_or(0, Vec::len);
        if m == 0 || k == 0 || n == 0 {
            return Err(Error::invalid_shape(
                "OS cycle sim operands must be non-empty",
            ));
        }
        if activations.iter().any(|r| r.len() != k) || weights.iter().any(|r| r.len() != n) {
            return Err(Error::invalid_shape(
                "OS cycle sim operands must be rectangular and conformable",
            ));
        }
        if m > self.rows || n > self.cols {
            return Err(Error::invalid_shape(format!(
                "outputs [{m} x {n}] exceed one {}x{} output tile",
                self.rows, self.cols
            )));
        }

        // Phase 1: skewed streaming. Operands physically hop one PE per
        // cycle; PE (i, j) multiplies whenever both registers are full.
        let mut pes = vec![vec![OsPe::default(); n]; m];
        let stream_total = k + m + n - 2;
        for cycle in 0..stream_total as i64 {
            // Back-to-front so values move one hop per cycle.
            for i in (0..m).rev() {
                for j in (0..n).rev() {
                    let act_in = if j == 0 {
                        // Row i receives a[i][t] at cycle t + i.
                        let t = cycle - i as i64;
                        if t >= 0 && (t as usize) < k {
                            Some(activations[i][t as usize])
                        } else {
                            None
                        }
                    } else {
                        pes[i][j - 1].act
                    };
                    let w_in = if i == 0 {
                        // Column j receives w[t][j] at cycle t + j.
                        let t = cycle - j as i64;
                        if t >= 0 && (t as usize) < k {
                            Some(weights[t as usize][j])
                        } else {
                            None
                        }
                    } else {
                        pes[i - 1][j].weight
                    };
                    if let (Some(a), Some(w)) = (act_in, w_in) {
                        pes[i][j].acc += a * w;
                    }
                    pes[i][j].act = act_in;
                    pes[i][j].weight = w_in;
                }
            }
        }

        // Phase 2: drain accumulators down the columns (one hop per cycle;
        // the full array height is charged, matching the analytical model).
        let result: Vec<Vec<i32>> = pes
            .iter()
            .map(|row| row.iter().map(|pe| pe.acc).collect())
            .collect();
        Ok(OsCycleSimRun {
            result,
            stream_cycles: Cycles::new(stream_total as u64),
            drain_cycles: Cycles::new(self.rows as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_sim::matmul_reference;

    fn rand_mat(m: usize, n: usize, seed: &mut u64) -> Vec<Vec<i32>> {
        let mut next = || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            (*seed % 19) as i32 - 9
        };
        (0..m).map(|_| (0..n).map(|_| next()).collect()).collect()
    }

    #[test]
    fn known_product() {
        let a = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let w = vec![vec![7, 8], vec![9, 10], vec![11, 12]];
        let run = OsCycleSim::new(2, 2).unwrap().run(&a, &w).unwrap();
        assert_eq!(run.result(), matmul_reference(&a, &w).as_slice());
    }

    #[test]
    fn randomized_products_match_reference() {
        let mut seed = 0xfeed_beef_cafe_d00d;
        for (m, k, n) in [(1, 1, 1), (4, 9, 3), (8, 8, 8), (12, 5, 7), (16, 32, 16)] {
            let a = rand_mat(m, k, &mut seed);
            let w = rand_mat(k, n, &mut seed);
            let run = OsCycleSim::new(m, n).unwrap().run(&a, &w).unwrap();
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

        let mut seed = 99;
        for (m, k, n) in [(8usize, 16usize, 8usize), (8, 1, 8), (8, 100, 8)] {
            let a = rand_mat(m, k, &mut seed);
            let w = rand_mat(k, n, &mut seed);
            let run = OsCycleSim::new(8, 8).unwrap().run(&a, &w).unwrap();
            let cfg = SystolicConfig::new(8, 8, Dataflow::OutputStationary);
            let t = analytical::gemm_timing(
                &cfg,
                GemmShape::new(m as u64, k as u64, n as u64).unwrap(),
                DataType::Int8,
            );
            // Full-occupancy tile: analytical = k + R + C - 2 + R.
            assert_eq!(run.total_cycles(), t.total(), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn rejects_bad_operands() {
        let sim = OsCycleSim::new(2, 2).unwrap();
        assert!(sim.run(&[], &[vec![1]]).is_err());
        assert!(sim
            .run(&[vec![1, 2], vec![3, 4], vec![5, 6]], &[vec![1], vec![2]])
            .is_err()); // m > rows
        assert!(OsCycleSim::new(0, 2).is_err());
        assert!(OsCycleSim::new(2, 300).is_err());
    }
}
