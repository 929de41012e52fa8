//! The Kernighan–Lin pass bounds a candidate swap by a delta of its
//! round's summarised sets. The delta must be exact: for any set, any
//! position and any incoming function, the summary's makespan lower bound
//! equals [`StaggeredSet::makespan_lower_bound`] recomputed from scratch.

use chiron_model::{FunctionId, FunctionSpec, Segment, SimDuration, SyscallKind, Workflow};
use chiron_predict::{SegmentCatalog, StaggeredSet, StaggeredSummary};
use chiron_profiler::Profiler;
use proptest::prelude::*;

/// A catalog of functions mixing CPU-only and IO-punctuated profiles;
/// `(kind, ms, lead)` triples repeat freely, so distinct functions can
/// share content.
fn catalog(parts: &[(u8, u64, u64)]) -> SegmentCatalog {
    let fns: Vec<FunctionSpec> = parts
        .iter()
        .enumerate()
        .map(|(i, &(kind, ms, lead))| {
            let segments = if kind == 0 {
                vec![Segment::cpu_ms(ms)]
            } else {
                vec![
                    Segment::cpu_ms(lead),
                    Segment::Block {
                        kind: SyscallKind::DiskIo,
                        dur: SimDuration::from_millis(ms),
                    },
                    Segment::cpu_ms(lead),
                ]
            };
            FunctionSpec::new(format!("f{i:02}"), segments)
        })
        .collect();
    let all: Vec<u32> = (0..fns.len() as u32).collect();
    let wf = Workflow::new("delta", fns, vec![all]).unwrap();
    SegmentCatalog::new(&Profiler::default().profile_workflow(&wf))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn swap_delta_matches_recomputation(
        parts in prop::collection::vec((0u8..2, 1u64..30, 1u64..4), 2..10),
        picks in prop::collection::vec(0usize..1000, 1..12),
        pos_pick in 0usize..1000,
        incoming_pick in 0usize..1000,
        spacing_us in 0u64..400,
        base_us in 0u64..300,
    ) {
        let catalog = catalog(&parts);
        let n = parts.len();
        let mut set: Vec<FunctionId> =
            picks.iter().map(|&p| FunctionId((p % n) as u32)).collect();
        let pos = pos_pick % set.len();
        let incoming = FunctionId((incoming_pick % n) as u32);
        let spacing = SimDuration::from_micros(spacing_us);
        let base = SimDuration::from_micros(base_us);

        let mut summary = StaggeredSummary::default();
        summary.rebuild(&StaggeredSet { set: &set, catalog: &catalog, spacing, base });
        let bound = summary.lower_bound_with(&catalog, pos, incoming);

        set[pos] = incoming;
        let swapped = StaggeredSet { set: &set, catalog: &catalog, spacing, base };
        prop_assert_eq!(bound, swapped.makespan_lower_bound());
    }
}
