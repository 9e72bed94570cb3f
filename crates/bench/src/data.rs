//! Static datasets reproduced from the paper's survey figures.

use serde::Serialize;

/// One published design in the Fig. 1 evolution survey.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct CimDesign {
    /// Publication venue and year.
    pub venue: &'static str,
    /// Reference number in the paper.
    pub reference: &'static str,
    /// Peak INT performance in TOPS (0 when unpublished).
    pub tops: f64,
    /// Peak FP performance in TFLOPS (0 when integer-only).
    pub tflops: f64,
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Process node label.
    pub node: &'static str,
    /// Whether the design uses compute-in-memory.
    pub cim: bool,
}

/// The Fig. 1 dataset: evolution of CIM-based designs vs. established
/// accelerators.
pub(crate) fn cim_evolution() -> Vec<CimDesign> {
    vec![
        CimDesign {
            venue: "ISSCC'19",
            reference: "[7]",
            tops: 0.0177,
            tflops: 0.0,
            area_mm2: 0.003,
            node: "65nm",
            cim: true,
        },
        CimDesign {
            venue: "ISSCC'20",
            reference: "[8]",
            tops: 0.4551,
            tflops: 0.0,
            area_mm2: 0.0032,
            node: "7nm",
            cim: true,
        },
        CimDesign {
            venue: "ISSCC'22",
            reference: "[9]",
            tops: 1.35,
            tflops: 1.08,
            area_mm2: 0.94,
            node: "28nm",
            cim: true,
        },
        CimDesign {
            venue: "ISSCC'23",
            reference: "[10]",
            tops: 5.52,
            tflops: 1.25,
            area_mm2: 4.54,
            node: "28nm",
            cim: true,
        },
        CimDesign {
            venue: "ISSCC'24",
            reference: "[11]",
            tops: 52.4,
            tflops: 0.0,
            area_mm2: 6.5,
            node: "12nm",
            cim: true,
        },
        CimDesign {
            venue: "NVIDIA A100",
            reference: "[4]",
            tops: 624.0,
            tflops: 312.0,
            area_mm2: 826.0,
            node: "7nm",
            cim: false,
        },
        CimDesign {
            venue: "Google TPUv4",
            reference: "[6]",
            tops: 275.0,
            tflops: 275.0,
            area_mm2: 780.0,
            node: "7nm",
            cim: false,
        },
    ]
}

/// The paper's Fig. 2d reference breakdown (measured on A100 GPUs),
/// used to compare our simulated fractions against.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct Fig2dRow {
    /// Model name.
    pub model: &'static str,
    /// Layer-group name.
    pub layer: &'static str,
    /// Latency in milliseconds as reported.
    pub latency_ms: f64,
    /// Fraction of total inference time as reported.
    pub fraction: f64,
}

/// Paper-reported Fig. 2d rows.
pub(crate) fn fig2d_reference() -> Vec<Fig2dRow> {
    vec![
        Fig2dRow {
            model: "Llama2-13B",
            layer: "Token Embedding",
            latency_ms: 0.41,
            fraction: 0.0070,
        },
        Fig2dRow {
            model: "Llama2-13B",
            layer: "Transformer Layers",
            latency_ms: 57.91,
            fraction: 0.9835,
        },
        Fig2dRow {
            model: "Llama2-13B",
            layer: "Prediction Head",
            latency_ms: 0.56,
            fraction: 0.0095,
        },
        Fig2dRow {
            model: "DiT-XL/2",
            layer: "Pre-Process",
            latency_ms: 1.18,
            fraction: 0.0035,
        },
        Fig2dRow {
            model: "DiT-XL/2",
            layer: "DiT Blocks",
            latency_ms: 338.10,
            fraction: 0.9931,
        },
        Fig2dRow {
            model: "DiT-XL/2",
            layer: "Post-Process",
            latency_ms: 1.15,
            fraction: 0.0034,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evolution_spans_five_orders_of_magnitude() {
        let designs = cim_evolution();
        let min = designs.iter().map(|d| d.tops).fold(f64::MAX, f64::min);
        let max = designs.iter().map(|d| d.tops).fold(0.0, f64::max);
        assert!(max / min > 1e4);
        assert!(designs.iter().any(|d| !d.cim));
    }

    #[test]
    fn fig2d_fractions_sum_to_one_per_model() {
        for model in ["Llama2-13B", "DiT-XL/2"] {
            let sum: f64 = fig2d_reference()
                .iter()
                .filter(|r| r.model == model)
                .map(|r| r.fraction)
                .sum();
            assert!((sum - 1.0).abs() < 0.01, "{model}: {sum}");
        }
    }
}
