//! Generative-model workload definitions.
//!
//! This crate describes *what* the TPU must execute, independent of *how*
//! fast any particular hardware executes it:
//!
//! - [`Op`] — the operator IR: GEMMs with resident weights, batched
//!   attention matmuls (whose "weights" are activations/KV-cache with no
//!   reuse), and the vector-unit operators (softmax, LayerNorm, GeLU,
//!   elementwise);
//! - [`OpInstance`] / [`Workload`] — named, categorized, counted operator
//!   lists matching the layer categories of the paper's Fig. 6
//!   (QKV Gen, Attention, Proj, FFN1, FFN2, LayerNorm, GeLU, Conditioning);
//! - [`Phase`] / [`Segment`] — the serving-level structure: every workload
//!   partitions into named segments tagged Prefill / Decode / Conditioning /
//!   PrePost / Collective, the granularity at which a request-level
//!   scheduler batches work (the flat [`Workload::ops`] view is preserved);
//! - [`TransformerConfig`] — Transformer-layer geometry with
//!   [prefill](TransformerConfig::prefill_layer) and
//!   [decode](TransformerConfig::decode_layer) builders and KV-cache
//!   accounting;
//! - [`DitConfig`] — Diffusion-Transformer blocks with adaLN conditioning
//!   and shift/scale modulation (Fig. 2c);
//! - [`presets`] — the evaluated models of Table III (GPT-3-30B, DiT-XL/2)
//!   plus Llama2-13B (Fig. 2d) and size variants.
//!
//! # Examples
//!
//! ```
//! use cimtpu_models::presets;
//!
//! let gpt3 = presets::gpt3_30b();
//! let layer = gpt3.prefill_layer(8, 1024)?; // batch 8, 1024 tokens
//! assert!(layer.ops().iter().any(|op| op.name() == "QKV Gen"));
//! // Decode emits GEMV-shaped matmuls with far fewer MACs:
//! let decode = gpt3.decode_layer(8, 1280)?;
//! assert!(decode.total_macs() < layer.total_macs() / 100);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dit;
mod llm;
mod moe;
mod op;
mod phase;
pub mod presets;
mod transformer;
mod workload;

pub use dit::DitConfig;
pub use llm::{LlmInferenceSpec, LlmModelConfig};
pub use moe::MoeConfig;
pub use op::{Op, OpCategory, OpInstance};
pub use phase::Phase;
pub use transformer::TransformerConfig;
pub use workload::{Segment, Workload};
