//! Model presets: the evaluated configurations of Table III and Fig. 2d.

use crate::dit::DitConfig;
use crate::llm::LlmModelConfig;
use crate::transformer::TransformerConfig;

/// GPT-3-30B Transformer layers (Table III: 48 layers, 56 heads, d 7168).
///
/// # Examples
///
/// ```
/// let cfg = cimtpu_models::presets::gpt3_30b();
/// assert_eq!((cfg.layers(), cfg.heads(), cfg.d_model()), (48, 56, 7168));
/// ```
pub fn gpt3_30b() -> TransformerConfig {
    TransformerConfig::new("GPT3-30B", 48, 56, 7168, 4 * 7168).expect("static preset is valid")
}

/// GPT-3-30B with embedding table and prediction head (vocab 50257).
pub fn gpt3_30b_full() -> LlmModelConfig {
    LlmModelConfig::new(gpt3_30b(), 50257).expect("static preset is valid")
}

/// GPT-3-175B layers (96 layers, 96 heads, d 12288) for scaling studies.
pub fn gpt3_175b() -> TransformerConfig {
    TransformerConfig::new("GPT3-175B", 96, 96, 12288, 4 * 12288).expect("static preset is valid")
}

/// GPT-3-6.7B layers (32 layers, 32 heads, d 4096) for scaling studies.
pub fn gpt3_6_7b() -> TransformerConfig {
    TransformerConfig::new("GPT3-6.7B", 32, 32, 4096, 4 * 4096).expect("static preset is valid")
}

/// Llama2-13B layers (40 layers, 40 heads, d 5120, FFN 13824), used for the
/// Fig. 2d runtime-breakdown analysis.
pub fn llama2_13b() -> TransformerConfig {
    TransformerConfig::new("Llama2-13B", 40, 40, 5120, 13824).expect("static preset is valid")
}

/// Llama2-13B with embedding table and head (vocab 32000).
pub fn llama2_13b_full() -> LlmModelConfig {
    LlmModelConfig::new(llama2_13b(), 32000).expect("static preset is valid")
}

/// Llama2-70B layers (80 layers, 64 heads, d 8192, FFN 28672) with
/// grouped-query attention (8 KV heads) — exercises the GQA path.
pub fn llama2_70b() -> TransformerConfig {
    TransformerConfig::new("Llama2-70B", 80, 64, 8192, 28672)
        .and_then(|t| t.with_kv_heads(8))
        .expect("static preset is valid")
}

/// DiT-XL/2 (Table III: 28 blocks, 16 heads, d 1152, patch 2).
///
/// # Examples
///
/// ```
/// let dit = cimtpu_models::presets::dit_xl_2();
/// assert_eq!(dit.blocks(), 28);
/// ```
pub fn dit_xl_2() -> DitConfig {
    DitConfig::xl_2().expect("static preset is valid")
}

/// DiT-L/2 (24 blocks, 16 heads, d 1024) for scaling studies.
pub fn dit_l_2() -> DitConfig {
    let t =
        TransformerConfig::new("DiT-L/2", 24, 16, 1024, 4 * 1024).expect("static preset is valid");
    DitConfig::new(t, 2, 4).expect("static preset is valid")
}

/// DiT-B/2 (12 blocks, 12 heads, d 768) for scaling studies.
pub fn dit_b_2() -> DitConfig {
    let t =
        TransformerConfig::new("DiT-B/2", 12, 12, 768, 4 * 768).expect("static preset is valid");
    DitConfig::new(t, 2, 4).expect("static preset is valid")
}

/// Looks a preset up by name (case-insensitive).
///
/// Recognized LLM names: `gpt3-30b`, `gpt3-175b`, `gpt3-6.7b`,
/// `llama2-13b`, `llama2-70b`.
///
/// # Errors
///
/// Returns [`cimtpu_units::Error::UnknownPreset`] for unknown names.
pub fn transformer_by_name(name: &str) -> cimtpu_units::Result<TransformerConfig> {
    match name.to_ascii_lowercase().as_str() {
        "gpt3-30b" => Ok(gpt3_30b()),
        "gpt3-175b" => Ok(gpt3_175b()),
        "gpt3-6.7b" => Ok(gpt3_6_7b()),
        "llama2-13b" => Ok(llama2_13b()),
        "llama2-70b" => Ok(llama2_70b()),
        other => Err(cimtpu_units::Error::unknown_preset(other.to_owned())),
    }
}

/// Looks a DiT preset up by name (case-insensitive).
///
/// Recognized names: `dit-xl/2`, `dit-l/2`, `dit-b/2`.
///
/// # Errors
///
/// Returns [`cimtpu_units::Error::UnknownPreset`] for unknown names.
pub fn dit_by_name(name: &str) -> cimtpu_units::Result<DitConfig> {
    match name.to_ascii_lowercase().as_str() {
        "dit-xl/2" => Ok(dit_xl_2()),
        "dit-l/2" => Ok(dit_l_2()),
        "dit-b/2" => Ok(dit_b_2()),
        other => Err(cimtpu_units::Error::unknown_preset(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_configs() {
        let g = gpt3_30b();
        assert_eq!((g.layers(), g.heads(), g.d_model()), (48, 56, 7168));
        let d = dit_xl_2();
        assert_eq!(
            (
                d.blocks(),
                d.transformer().heads(),
                d.transformer().d_model()
            ),
            (28, 16, 1152)
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(transformer_by_name("GPT3-30B").unwrap().d_model(), 7168);
        assert_eq!(dit_by_name("dit-xl/2").unwrap().blocks(), 28);
        assert!(transformer_by_name("bert").is_err());
        assert!(dit_by_name("unet").is_err());
    }

    #[test]
    fn head_dims_are_sane() {
        assert_eq!(gpt3_30b().d_head(), 128);
        assert_eq!(gpt3_175b().d_head(), 128);
        assert_eq!(llama2_13b().d_head(), 128);
        assert_eq!(dit_xl_2().transformer().d_head(), 72);
    }
}
