//! The per-layer metrics a traced run reports.

use std::collections::BTreeMap;

use fusion_core::SimResult;

use crate::spans::{self_ms, total_ms, Span};

/// Per-layer values of one traced repetition, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("workloads.refs", "count"),
    ("accel.decode_ms", "ms"),
    ("accel.analysis_ms", "ms"),
    ("accel.encode_ms", "ms"),
    ("replay.sc_ms", "ms"),
    ("replay.sh_ms", "ms"),
    ("replay.fu_ms", "ms"),
    ("replay.fu-dx_ms", "ms"),
    ("replay.sc_mrefs_s", "Mrefs/s"),
    ("replay.sh_mrefs_s", "Mrefs/s"),
    ("replay.fu_mrefs_s", "Mrefs/s"),
    ("replay.fu-dx_mrefs_s", "Mrefs/s"),
    ("replay.fft_mrefs_s", "Mrefs/s"),
    ("replay.disp_mrefs_s", "Mrefs/s"),
    ("replay.track_mrefs_s", "Mrefs/s"),
    ("replay.adpcm_mrefs_s", "Mrefs/s"),
    ("replay.susan_mrefs_s", "Mrefs/s"),
    ("replay.filt_mrefs_s", "Mrefs/s"),
    ("replay.hist_mrefs_s", "Mrefs/s"),
    ("replay.refs", "count"),
    ("replay.ns_per_event", "ns"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.fallbacks", "count"),
    ("memo.hit_rate", "ratio"),
    ("memo.splice_ms", "ms"),
    ("memo.refs_spliced", "count"),
    ("memo.key_ms", "ms"),
    ("sweep.queue_ms", "ms"),
    ("sweep.overhead_ms", "ms"),
    ("sweep.retries", "count"),
    ("journal.append_ms", "ms"),
    ("journal.append_p50_ms", "ms"),
    ("journal.row_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("journal.read_ms", "ms"),
    ("journal.plan_ms", "ms"),
    ("journal.rows_ok", "count"),
    ("tiles.pass_ms", "ms"),
    ("tiles.seq_pass_ms", "ms"),
    ("tiles.speedup", "ratio"),
    ("tiles.refs", "count"),
    ("verify.states", "count"),
    ("verify.transitions", "count"),
    ("verify.depth", "count"),
    ("verify.explore_ms", "ms"),
    ("hw.cycles", "cycles"),
    ("hw.sim_events", "count"),
    ("hw.l2_accesses", "count"),
    ("hw.dma_blocks", "count"),
    ("hw.l0x_fwd_blocks", "count"),
    ("hw.axtlb_lookups", "count"),
    ("hw.axrmap_lookups", "count"),
    ("hw.host_forwards", "count"),
    ("self.workload_ms", "ms"),
    ("self.setup_ms", "ms"),
    ("self.sweep_ms", "ms"),
    ("self.sweep_job_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("host.probe_ms", "ms"),
];

/// Simulated totals over `results`; they must repeat exactly.
pub fn hw_totals<'a>(results: impl IntoIterator<Item = &'a SimResult>, layers: &mut Layers) {
    let mut t = [0u64; 8];
    for r in results {
        let fwd = r.tile.map_or(0, |s| s.fwd_l0_to_l0);
        let v = [
            r.total_cycles,
            r.total_sim_events(),
            r.l2_accesses,
            r.dma_blocks,
            fwd,
            r.ax_tlb_lookups,
            r.ax_rmap_lookups,
            r.host_forwards,
        ];
        for (acc, x) in t.iter_mut().zip(v) {
            *acc += x;
        }
    }
    let names = [
        "hw.cycles",
        "hw.sim_events",
        "hw.l2_accesses",
        "hw.dma_blocks",
        "hw.l0x_fwd_blocks",
        "hw.axtlb_lookups",
        "hw.axrmap_lookups",
        "hw.host_forwards",
    ];
    for (name, v) in names.into_iter().zip(t) {
        layers.insert(name.to_string(), v as f64);
    }
}

/// The span-derived metrics every workload shares.
pub fn from_spans(spans: &[Span], layers: &mut Layers) {
    for (metric, span) in [
        ("workloads.build_ms", "workloads.build_suite"),
        ("accel.decode_ms", "accel.decode"),
        ("accel.analysis_ms", "accel.analysis"),
        ("accel.encode_ms", "accel.encode"),
        ("memo.splice_ms", "memo.splice"),
        ("memo.key_ms", "memo.key"),
        ("journal.append_ms", "journal.append"),
        ("journal.row_ms", "journal.row"),
        ("journal.read_ms", "journal.read"),
        ("journal.plan_ms", "journal.plan"),
    ] {
        layers.insert(metric.to_string(), total_ms(spans, span));
    }
    for (metric, span) in [
        ("self.workload_ms", "workload"),
        ("self.setup_ms", "setup"),
        ("self.sweep_ms", "sweep"),
        ("self.sweep_job_ms", "sweep.job"),
    ] {
        layers.insert(metric.to_string(), self_ms(spans, span));
    }
    layers.insert("trace.spans".to_string(), spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let listed = per_layer.matches("\"name\"").count();
        assert_eq!(listed, PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                per_layer.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
    }
}
