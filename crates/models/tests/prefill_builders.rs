//! Pins the operator lists of the two prefill builders.
//!
//! `TransformerConfig::prefill_layer(b, s)` is `prefill_chunk_layer(b, s,
//! 0)`; both feed every priced prefill in the serving stack, so their
//! exact output (names, operators, segments, and the zero-input errors)
//! is pinned here by digest across commits, the way the cluster crate
//! pins trace exports.

use std::fmt::Write;

use cimtpu_models::{presets, TransformerConfig};

/// The five transformer presets.
fn presets() -> [TransformerConfig; 5] {
    [
        presets::gpt3_30b(),
        presets::gpt3_175b(),
        presets::gpt3_6_7b(),
        presets::llama2_13b(),
        presets::llama2_70b(),
    ]
}

const BATCHES: [u64; 3] = [0, 1, 3];
const CHUNKS: [u64; 4] = [0, 1, 64, 257];
const PASTS: [u64; 3] = [0, 1, 512];

/// 64-bit FNV-1a digest and byte length of `text`.
fn digest(text: &str) -> (u64, usize) {
    let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (fnv1a, text.len())
}

#[test]
fn prefill_layer_is_the_zero_past_chunk() {
    for cfg in presets() {
        for batch in BATCHES {
            for seq in CHUNKS {
                assert_eq!(
                    cfg.prefill_layer(batch, seq),
                    cfg.prefill_chunk_layer(batch, seq, 0),
                    "{} B={batch} L={seq}",
                    cfg.name()
                );
            }
        }
    }
}

#[test]
fn prefill_builder_outputs_are_pinned() {
    let mut text = String::new();
    for cfg in presets() {
        for batch in BATCHES {
            for chunk in CHUNKS {
                writeln!(text, "{:?}", cfg.prefill_layer(batch, chunk)).unwrap();
                for past in PASTS {
                    writeln!(text, "{:?}", cfg.prefill_chunk_layer(batch, chunk, past)).unwrap();
                }
            }
        }
    }
    assert_eq!(
        digest(&text),
        (0x357e_b250_1e8c_34fd, 238_314),
        "prefill builder output moved"
    );
}
