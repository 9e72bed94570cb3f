//! Diffusion Transformer (DiT) workloads (Peebles & Xie, Fig. 2c).

use serde::{Deserialize, Serialize};

use cimtpu_units::{Error, GemmShape, Result};

use crate::op::{Op, OpCategory, OpInstance};
use crate::phase::Phase;
use crate::transformer::TransformerConfig;
use crate::workload::Workload;

/// Geometry of a Diffusion Transformer.
///
/// A DiT block is a Transformer layer augmented with adaLN conditioning
/// (an MLP that regresses per-block shift/scale/gate parameters from the
/// timestep + label embedding) and shift & scale modulation around the
/// attention and MLP sub-blocks.
///
/// # Examples
///
/// ```
/// use cimtpu_models::DitConfig;
/// let dit = DitConfig::xl_2()?;
/// assert_eq!(dit.tokens_for_resolution(512)?, 1024);
/// let block = dit.block(8, 512)?;
/// assert!(block.total_macs() > 0);
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DitConfig {
    transformer: TransformerConfig,
    patch: u64,
    latent_channels: u64,
    /// VAE spatial down-sampling factor (8 for SD-style latent diffusion).
    vae_factor: u64,
}

impl DitConfig {
    /// Creates a DiT configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on zero patch size / channels or an
    /// invalid underlying Transformer geometry.
    pub(crate) fn new(
        transformer: TransformerConfig,
        patch: u64,
        latent_channels: u64,
    ) -> Result<Self> {
        if patch == 0 || latent_channels == 0 {
            return Err(Error::invalid_config(
                "patch size and channels must be non-zero",
            ));
        }
        Ok(DitConfig {
            transformer,
            patch,
            latent_channels,
            vae_factor: 8,
        })
    }

    /// DiT-XL/2: 28 blocks, 16 heads, d_model 1152, patch 2 (Table III).
    ///
    /// # Errors
    ///
    /// Never fails for the built-in geometry; the `Result` mirrors `DitConfig::new`.
    pub fn xl_2() -> Result<Self> {
        let t = TransformerConfig::new("DiT-XL/2", 28, 16, 1152, 4 * 1152)?;
        DitConfig::new(t, 2, 4)
    }

    /// The underlying Transformer geometry.
    pub fn transformer(&self) -> &TransformerConfig {
        &self.transformer
    }

    /// Number of DiT blocks.
    pub fn blocks(&self) -> u64 {
        self.transformer.layers()
    }

    /// Token count for a square image of `resolution` pixels: the VAE
    /// downsamples by 8×, then patchify groups `patch×patch` latent pixels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `resolution` is not divisible by
    /// `vae_factor × patch`.
    pub fn tokens_for_resolution(&self, resolution: u64) -> Result<u64> {
        let down = self.vae_factor * self.patch;
        if resolution == 0 || !resolution.is_multiple_of(down) {
            return Err(Error::invalid_shape(format!(
                "resolution {resolution} not divisible by {down}"
            )));
        }
        let side = resolution / down;
        Ok(side * side)
    }

    /// Builds **one DiT block** for `batch` images at `resolution`
    /// (Fig. 2c): conditioning MLP, modulated attention, modulated MLP.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the resolution or batch size.
    pub fn block(&self, batch: u64, resolution: u64) -> Result<Workload> {
        if batch == 0 {
            return Err(Error::invalid_shape("batch must be non-zero"));
        }
        let tokens = self.tokens_for_resolution(resolution)?;
        let t = &self.transformer;
        let d = t.d_model();
        let dtype = t.dtype();
        let rows = batch * tokens;
        let mut w = Workload::new(format!(
            "{} block (B={batch}, {resolution}x{resolution})",
            t.name()
        ));

        // adaLN conditioning: per-image MLP d -> 6d producing shift/scale/gate
        // for both sub-blocks.
        w.begin_segment("conditioning", Phase::Conditioning);
        w.push(OpInstance::new(
            "Conditioning MLP",
            OpCategory::Conditioning,
            Op::Gemm {
                shape: GemmShape::new(batch, d, 6 * d)?,
                dtype,
            },
        ));
        w.begin_segment("attention", Phase::Prefill);
        w.push(OpInstance::new(
            "LayerNorm (attn)",
            OpCategory::LayerNorm,
            Op::LayerNorm { rows, d },
        ));
        w.push(OpInstance::new(
            "Shift & Scale (attn)",
            OpCategory::Conditioning,
            Op::Elementwise {
                elems: rows * d,
                ops_per_elem: 2,
            },
        ));
        w.push(OpInstance::new(
            "QKV Gen",
            OpCategory::QkvGen,
            Op::Gemm {
                shape: GemmShape::new(rows, d, 3 * d)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "Q x K^T",
            OpCategory::Attention,
            Op::BatchedMatmul {
                batch: batch * t.heads(),
                shape: GemmShape::new(tokens, t.d_head(), tokens)?,
                dtype,
                static_weights: false,
            },
        ));
        w.push(OpInstance::new(
            "Softmax",
            OpCategory::Attention,
            Op::Softmax {
                rows: batch * t.heads() * tokens,
                cols: tokens,
            },
        ));
        w.push(OpInstance::new(
            "S x V",
            OpCategory::Attention,
            Op::BatchedMatmul {
                batch: batch * t.heads(),
                shape: GemmShape::new(tokens, tokens, t.d_head())?,
                dtype,
                static_weights: false,
            },
        ));
        w.push(OpInstance::new(
            "Proj",
            OpCategory::Projection,
            Op::Gemm {
                shape: GemmShape::new(rows, d, d)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "Scale + Residual (attn)",
            OpCategory::Conditioning,
            Op::Elementwise {
                elems: rows * d,
                ops_per_elem: 2,
            },
        ));
        w.begin_segment("mlp", Phase::Prefill);
        w.push(OpInstance::new(
            "LayerNorm (MLP)",
            OpCategory::LayerNorm,
            Op::LayerNorm { rows, d },
        ));
        w.push(OpInstance::new(
            "Shift & Scale (MLP)",
            OpCategory::Conditioning,
            Op::Elementwise {
                elems: rows * d,
                ops_per_elem: 2,
            },
        ));
        w.push(OpInstance::new(
            "FFN1",
            OpCategory::Ffn1,
            Op::Gemm {
                shape: GemmShape::new(rows, d, t.d_ff())?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "GeLU",
            OpCategory::Gelu,
            Op::Gelu {
                elems: rows * t.d_ff(),
            },
        ));
        w.push(OpInstance::new(
            "FFN2",
            OpCategory::Ffn2,
            Op::Gemm {
                shape: GemmShape::new(rows, t.d_ff(), d)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "Scale + Residual (MLP)",
            OpCategory::Conditioning,
            Op::Elementwise {
                elems: rows * d,
                ops_per_elem: 2,
            },
        ));
        Ok(w)
    }

    /// Builds the full DiT forward pass for one diffusion step: patchify +
    /// timestep/label embedding, all blocks, final LayerNorm + linear +
    /// unpatchify (Fig. 2c, used for the Fig. 2d breakdown).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the resolution or batch size.
    pub fn full_forward(&self, batch: u64, resolution: u64) -> Result<Workload> {
        let tokens = self.tokens_for_resolution(resolution)?;
        let t = &self.transformer;
        let d = t.d_model();
        let dtype = t.dtype();
        let rows = batch * tokens;
        let patch_in = self.patch * self.patch * self.latent_channels;
        let mut w = Workload::new(format!(
            "{} full forward (B={batch}, {resolution}x{resolution})",
            t.name()
        ));

        // Pre-process: patchify projection + timestep/label embedding MLPs.
        w.begin_segment("pre-process", Phase::PrePost);
        w.push(OpInstance::new(
            "Patchify",
            OpCategory::Embedding,
            Op::Gemm {
                shape: GemmShape::new(rows, patch_in, d)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "Timestep/Label embed",
            OpCategory::Embedding,
            Op::Gemm {
                shape: GemmShape::new(batch, d, d)?,
                dtype,
            },
        ));

        let block = self.block(batch, resolution)?;
        w.extend_repeated(&block, self.blocks());

        // Post-process: final adaLN + linear back to patch pixels + reshape.
        w.begin_segment("post-process", Phase::PrePost);
        w.push(OpInstance::new(
            "Final LayerNorm",
            OpCategory::Head,
            Op::LayerNorm { rows, d },
        ));
        w.push(OpInstance::new(
            "Linear & Reshape",
            OpCategory::Head,
            // Predicts noise (and variance): 2x latent channels per pixel.
            Op::Gemm {
                shape: GemmShape::new(rows, d, 2 * patch_in)?,
                dtype,
            },
        ));
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xl2_matches_table3() {
        let dit = DitConfig::xl_2().unwrap();
        assert_eq!(dit.blocks(), 28);
        assert_eq!(dit.transformer().heads(), 16);
        assert_eq!(dit.transformer().d_model(), 1152);
    }

    #[test]
    fn token_counts() {
        let dit = DitConfig::xl_2().unwrap();
        assert_eq!(dit.tokens_for_resolution(256).unwrap(), 256);
        assert_eq!(dit.tokens_for_resolution(512).unwrap(), 1024);
        assert!(dit.tokens_for_resolution(500).is_err());
        assert!(dit.tokens_for_resolution(0).is_err());
    }

    #[test]
    fn block_contains_conditioning() {
        let w = DitConfig::xl_2().unwrap().block(8, 512).unwrap();
        assert!(w.macs_in(OpCategory::Conditioning) > 0);
        assert!(w.categories().contains(&OpCategory::Conditioning));
    }

    #[test]
    fn block_and_full_forward_are_phase_segmented() {
        let dit = DitConfig::xl_2().unwrap();
        let block = dit.block(8, 512).unwrap();
        let names: Vec<&str> = block.segments().map(|s| s.name()).collect();
        assert_eq!(names, vec!["conditioning", "attention", "mlp"]);
        assert_eq!(block.phases(), vec![Phase::Conditioning, Phase::Prefill]);
        assert_eq!(
            block.macs_in_phase(Phase::Conditioning) + block.macs_in_phase(Phase::Prefill),
            block.total_macs()
        );

        let full = dit.full_forward(8, 256).unwrap();
        let first = full.segments().next().unwrap();
        assert_eq!(
            (first.name(), first.phase()),
            ("pre-process", Phase::PrePost)
        );
        let last = full.segments().last().unwrap();
        assert_eq!(
            (last.name(), last.phase()),
            ("post-process", Phase::PrePost)
        );
        let seg_bytes: u64 = full.segments().map(|s| s.main_memory_bytes().get()).sum();
        assert_eq!(seg_bytes, full.main_memory_bytes().get());
    }

    #[test]
    fn block_gemm_macs_match_closed_form() {
        let dit = DitConfig::xl_2().unwrap();
        let (b, res) = (8, 512);
        let tokens = dit.tokens_for_resolution(res).unwrap();
        let t = dit.transformer();
        let (d, dff) = (t.d_model(), t.d_ff());
        let rows = b * tokens;
        let expected = b * d * 6 * d // conditioning MLP
            + rows * d * 3 * d
            + rows * d * d
            + 2 * rows * d * dff
            + 2 * b * t.heads() * tokens * tokens * t.d_head();
        assert_eq!(dit.block(b, res).unwrap().total_macs(), expected);
    }

    #[test]
    fn full_forward_dominated_by_blocks() {
        let dit = DitConfig::xl_2().unwrap();
        let full = dit.full_forward(8, 512).unwrap();
        let block = dit.block(8, 512).unwrap();
        let blocks_macs = block.total_macs() * dit.blocks();
        let frac = blocks_macs as f64 / full.total_macs() as f64;
        assert!(frac > 0.98, "blocks are {frac:.4} of total MACs");
    }
}
