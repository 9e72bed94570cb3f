//! A named list of operators, structured into phase-tagged segments.

use serde::{Deserialize, Serialize};

use cimtpu_units::Bytes;

use crate::op::OpInstance;
use crate::phase::Phase;

/// Boundary record of one segment: ops `[start, end)` of the flat list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SegmentMeta {
    name: String,
    phase: Phase,
    start: usize,
    end: usize,
}

/// A borrowed view of one workload segment: a named, phase-tagged run of
/// consecutive operators.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    name: &'a str,
    phase: Phase,
    ops: &'a [OpInstance],
}

impl<'a> Segment<'a> {
    /// The segment name (e.g. `"attention"`).
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The serving phase this segment belongs to.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The segment's operators, in execution order.
    pub fn ops(&self) -> &'a [OpInstance] {
        self.ops
    }

    /// Total MACs across the segment's operators and repetitions.
    pub fn total_macs(&self) -> u64 {
        self.ops.iter().map(OpInstance::total_macs).sum()
    }

    /// Total unique main-memory traffic of the segment.
    pub fn main_memory_bytes(&self) -> Bytes {
        self.ops
            .iter()
            .map(|i| i.op().main_memory_bytes() * i.count())
            .sum()
    }

    /// Total operator executions (repetitions included).
    pub fn op_executions(&self) -> u64 {
        self.ops.iter().map(OpInstance::count).sum()
    }
}

/// A workload: an ordered list of [`OpInstance`]s, partitioned into named
/// segments tagged with a serving [`Phase`].
///
/// The flat operator list is the single source of truth — [`ops`](Workload::ops)
/// returns exactly the same slice whether or not the builder opened
/// segments, so per-operator simulation is unaffected by segmentation.
/// Segments are contiguous, non-overlapping, and cover the whole list;
/// operators pushed before the first [`begin_segment`](Workload::begin_segment)
/// call land in an implicit `"main"` segment of phase [`Phase::PrePost`].
///
/// # Examples
///
/// ```
/// use cimtpu_models::{presets, Phase};
/// let w = presets::dit_xl_2().block(8, 512)?;
/// assert!(w.total_macs() > 0);
/// assert!(w.ops().len() > 10);
/// // Segment totals partition the flat totals exactly.
/// let seg_macs: u64 = w.segments().map(|s| s.total_macs()).sum();
/// assert_eq!(seg_macs, w.total_macs());
/// assert!(w.phases().contains(&Phase::Conditioning));
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    name: String,
    ops: Vec<OpInstance>,
    segments: Vec<SegmentMeta>,
}

impl Workload {
    /// Creates an empty workload.
    pub fn new(name: impl Into<String>) -> Self {
        Workload {
            name: name.into(),
            ops: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operators in execution order (flat view across all segments).
    pub fn ops(&self) -> &[OpInstance] {
        &self.ops
    }

    /// Opens a new segment; subsequently pushed operators belong to it.
    ///
    /// An immediately re-opened (empty) segment is dropped rather than
    /// recorded.
    pub fn begin_segment(&mut self, name: impl Into<String>, phase: Phase) {
        self.drop_empty_tail();
        let at = self.ops.len();
        self.segments.push(SegmentMeta {
            name: name.into(),
            phase,
            start: at,
            end: at,
        });
    }

    /// Appends an operator to the current (or implicit `"main"`) segment.
    pub fn push(&mut self, op: OpInstance) {
        if self.segments.is_empty() {
            self.begin_segment("main", Phase::PrePost);
        }
        self.ops.push(op);
        self.segments.last_mut().expect("segment opened above").end = self.ops.len();
    }

    /// Appends an operator, builder style.
    #[must_use]
    pub fn with(mut self, op: OpInstance) -> Self {
        self.push(op);
        self
    }

    /// Appends `other`'s ops with their counts multiplied by `times`
    /// (e.g. one Transformer layer × 48), carrying its segments over.
    pub(crate) fn extend_repeated(&mut self, other: &Workload, times: u64) {
        self.append_segments_of(other);
        for op in &other.ops {
            self.ops.push(op.clone().repeated(op.count() * times));
        }
        self.close_open_segment();
    }

    /// Copies `other`'s segment boundaries, shifted to this workload's
    /// current end. Ops outside any segment of `other` (possible only for
    /// workloads built before segmentation existed) fall into the segment
    /// open at the call site.
    fn append_segments_of(&mut self, other: &Workload) {
        let shift = self.ops.len();
        for meta in &other.segments {
            self.drop_empty_tail();
            self.segments.push(SegmentMeta {
                name: meta.name.clone(),
                phase: meta.phase,
                start: meta.start + shift,
                end: meta.end + shift,
            });
        }
    }

    /// Discards a trailing segment that never received an op, so opening
    /// segments back to back does not accumulate empties.
    fn drop_empty_tail(&mut self) {
        if self
            .segments
            .last()
            .is_some_and(|last| last.start == last.end)
        {
            self.segments.pop();
        }
    }

    /// After a bulk append, makes sure the trailing segment covers every
    /// op (ops appended past the last recorded boundary join it).
    fn close_open_segment(&mut self) {
        match self.segments.last_mut() {
            Some(last) => last.end = self.ops.len(),
            None if !self.ops.is_empty() => {
                self.segments.push(SegmentMeta {
                    name: "main".to_owned(),
                    phase: Phase::PrePost,
                    start: 0,
                    end: self.ops.len(),
                });
            }
            None => {}
        }
    }

    /// Iterator over the workload's segments, in execution order.
    ///
    /// Every op belongs to exactly one segment, so segment totals
    /// partition the flat totals.
    pub fn segments(&self) -> impl Iterator<Item = Segment<'_>> {
        self.segments
            .iter()
            .filter(|m| m.start < m.end)
            .map(|m| Segment {
                name: &m.name,
                phase: m.phase,
                ops: &self.ops[m.start..m.end],
            })
    }

    /// Number of non-empty segments.
    pub fn segment_count(&self) -> usize {
        self.segments.iter().filter(|m| m.start < m.end).count()
    }

    /// Distinct phases present, in first-seen order.
    pub fn phases(&self) -> Vec<Phase> {
        let mut seen = Vec::new();
        for seg in self.segments() {
            if !seen.contains(&seg.phase()) {
                seen.push(seg.phase());
            }
        }
        seen
    }

    /// MACs restricted to segments of one phase.
    #[cfg(test)]
    pub(crate) fn macs_in_phase(&self, phase: Phase) -> u64 {
        self.segments()
            .filter(|s| s.phase() == phase)
            .map(|s| s.total_macs())
            .sum()
    }

    /// Total MACs across all operators and repetitions.
    pub fn total_macs(&self) -> u64 {
        self.ops.iter().map(OpInstance::total_macs).sum()
    }

    /// Total unique main-memory traffic (weights + KV + embeddings).
    pub fn main_memory_bytes(&self) -> Bytes {
        self.ops
            .iter()
            .map(|i| i.op().main_memory_bytes() * i.count())
            .sum()
    }

    /// MACs restricted to one reporting category.
    #[cfg(test)]
    pub(crate) fn macs_in(&self, category: crate::op::OpCategory) -> u64 {
        self.ops
            .iter()
            .filter(|i| i.category() == category)
            .map(OpInstance::total_macs)
            .sum()
    }

    /// Iterator over the distinct categories present, in first-seen order.
    #[cfg(test)]
    pub(crate) fn categories(&self) -> Vec<crate::op::OpCategory> {
        let mut seen = Vec::new();
        for op in &self.ops {
            if !seen.contains(&op.category()) {
                seen.push(op.category());
            }
        }
        seen
    }
}

impl Extend<OpInstance> for Workload {
    fn extend<T: IntoIterator<Item = OpInstance>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpCategory};
    use cimtpu_units::{DataType, GemmShape};

    fn gemm(name: &str, m: u64) -> OpInstance {
        OpInstance::new(
            name,
            OpCategory::QkvGen,
            Op::Gemm {
                shape: GemmShape::new(m, 16, 16).unwrap(),
                dtype: DataType::Int8,
            },
        )
    }

    #[test]
    fn aggregates_sum_over_ops() {
        let mut w = Workload::new("t");
        w.push(gemm("a", 2));
        w.push(gemm("b", 3).repeated(4));
        assert_eq!(w.total_macs(), 2 * 256 + 4 * 3 * 256);
        assert_eq!(w.macs_in(OpCategory::QkvGen), w.total_macs());
        assert_eq!(w.macs_in(OpCategory::Gelu), 0);
    }

    #[test]
    fn extend_repeated_multiplies_counts() {
        let layer = Workload::new("layer").with(gemm("a", 1).repeated(2));
        let mut model = Workload::new("model");
        model.extend_repeated(&layer, 48);
        assert_eq!(model.ops()[0].count(), 96);
    }

    #[test]
    fn categories_preserve_first_seen_order() {
        let mut w = Workload::new("t");
        w.push(gemm("a", 1));
        w.push(OpInstance::new(
            "s",
            OpCategory::Attention,
            Op::Softmax { rows: 1, cols: 1 },
        ));
        w.push(gemm("b", 1));
        assert_eq!(
            w.categories(),
            vec![OpCategory::QkvGen, OpCategory::Attention]
        );
    }

    #[test]
    fn implicit_segment_covers_untagged_ops() {
        let mut w = Workload::new("t");
        w.push(gemm("a", 1));
        w.push(gemm("b", 1));
        let segs: Vec<_> = w.segments().collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].name(), "main");
        assert_eq!(segs[0].phase(), Phase::PrePost);
        assert_eq!(segs[0].ops().len(), 2);
    }

    #[test]
    fn segments_partition_the_flat_list() {
        let mut w = Workload::new("t");
        w.begin_segment("attn", Phase::Prefill);
        w.push(gemm("a", 1));
        w.push(gemm("b", 2));
        w.begin_segment("ffn", Phase::Prefill);
        w.push(gemm("c", 3).repeated(2));
        assert_eq!(w.segment_count(), 2);
        let seg_macs: u64 = w.segments().map(|s| s.total_macs()).sum();
        assert_eq!(seg_macs, w.total_macs());
        let seg_ops: usize = w.segments().map(|s| s.ops().len()).sum();
        assert_eq!(seg_ops, w.ops().len());
        assert_eq!(w.macs_in_phase(Phase::Prefill), w.total_macs());
        assert_eq!(w.macs_in_phase(Phase::Decode), 0);
    }

    #[test]
    fn empty_segments_are_dropped() {
        let mut w = Workload::new("t");
        w.begin_segment("empty", Phase::Prefill);
        w.begin_segment("real", Phase::Decode);
        w.push(gemm("a", 1));
        assert_eq!(w.segment_count(), 1);
        assert_eq!(w.segments().next().unwrap().name(), "real");
    }

    #[test]
    fn extend_repeated_carries_segments() {
        let mut layer = Workload::new("layer");
        layer.begin_segment("attn", Phase::Decode);
        layer.push(gemm("a", 1));
        layer.begin_segment("ffn", Phase::Decode);
        layer.push(gemm("b", 1));

        let mut model = Workload::new("model");
        model.begin_segment("embed", Phase::PrePost);
        model.push(gemm("e", 1));
        model.extend_repeated(&layer, 48);
        model.begin_segment("head", Phase::PrePost);
        model.push(gemm("h", 1));

        let names: Vec<&str> = model.segments().map(|s| s.name()).collect();
        assert_eq!(names, vec!["embed", "attn", "ffn", "head"]);
        assert_eq!(model.phases(), vec![Phase::PrePost, Phase::Decode]);
        // Counts multiplied inside the carried segments.
        let attn = model.segments().find(|s| s.name() == "attn").unwrap();
        assert_eq!(attn.ops()[0].count(), 48);
        assert_eq!(attn.op_executions(), 48);
    }

    #[test]
    fn extend_trait_routes_through_segments() {
        let mut w = Workload::new("t");
        w.begin_segment("s", Phase::Decode);
        w.extend(vec![gemm("a", 1), gemm("b", 1)]);
        assert_eq!(w.segments().next().unwrap().ops().len(), 2);
    }
}
