//! Metric names and units, and what a run reports.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! lists exactly these names (a unit test compares them), and later
//! issues refer to them.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{self, Summary};

/// A metric of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("query_qps", "1/s", "higher"),
    m("query_p50_ms", "ms", "lower"),
    m("pages_per_query", "pages", "lower"),
    m("write_ops_per_s", "1/s", "higher"),
    m("write_p50_ms", "ms", "lower"),
    m("space_bytes_per_tuple", "B", "lower"),
];

/// End-to-end metrics that are counts made by the program: with the same
/// seed they repeat exactly, so `compare` treats any change as a finding.
pub const EXACT: &[&str] = &["pages_per_query", "space_bytes_per_tuple"];

/// Single layers, named after this repository's modules. A traced run
/// reports every one; a layer that is not on a workload's path reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("geometry.refine_us_per_query", "us", "lower"),
    m("geometry.refine_ns_per_candidate", "ns", "lower"),
    m("geometry.decode_us_per_query", "us", "lower"),
    m("geometry.false_hit_ratio", "ratio", "lower"),
    m("geometry.dual_key_ns", "ns", "lower"),
    m("storage.heap.fetch_us_per_query", "us", "lower"),
    m("storage.pager.heap_reads_per_query", "pages", "lower"),
    m("storage.pager.index_reads_per_query", "pages", "lower"),
    m("storage.pager.read_ns", "ns", "lower"),
    m("storage.wal.sync_us", "us", "lower"),
    m("storage.wal.records_per_sync", "count", "higher"),
    m("storage.wal.bytes_per_op", "B", "lower"),
    m("storage.file.checkpoint_ms", "ms", "lower"),
    m(
        "storage.file.pages_written_per_checkpoint",
        "pages",
        "lower",
    ),
    m("storage.file.write_amp", "ratio", "lower"),
    m("storage.epoch.quarantine_pages", "pages", "lower"),
    m("btree.insert_us_per_key", "us", "lower"),
    m("btree.sweep_us_per_leaf", "us", "lower"),
    m("rplustree.pages_per_query", "pages", "lower"),
    m("rplustree.query_us", "us", "lower"),
    m("core.index.self_us_per_query", "us", "lower"),
    m("core.index.candidates_per_query", "count", "lower"),
    m("core.index.accepted_by_key_ratio", "ratio", "higher"),
    m("core.index.duplicates_per_query", "count", "lower"),
    m("core.plan.choose_us", "us", "lower"),
    m("core.sql.overhead_us_per_query", "us", "lower"),
    m("core.exec.pipeline_us_per_query", "us", "lower"),
    m("core.exec.batch_speedup_2t", "ratio", "higher"),
    m("core.db.insert_us", "us", "lower"),
    m("core.db.delete_us", "us", "lower"),
    m("core.db.snapshot_us", "us", "lower"),
    m("core.db.query_p99_ms", "ms", "lower"),
    m("core.db.write_p99_ms", "ms", "lower"),
    m("core.db.reopen_ms", "ms", "lower"),
    m("core.db.replayed_records", "count", "lower"),
    m("net.proto.encode_request_ns", "ns", "lower"),
    m("net.proto.decode_request_ns", "ns", "lower"),
    m("net.proto.encode_response_ns", "ns", "lower"),
    m("net.proto.decode_response_ns", "ns", "lower"),
    m("net.proto.response_bytes_per_query", "B", "lower"),
    m("net.client.ping_rtt_us", "us", "lower"),
    m("net.client.query_p99_ms", "ms", "lower"),
    m("net.client.write_p99_ms", "ms", "lower"),
    m("net.wire_tax_us_per_query", "us", "lower"),
    m("net.server.read_p99_under_write_ratio", "ratio", "lower"),
    m("net.server.group_commit_batch", "count", "higher"),
    m("workload.generate_s", "s", "lower"),
    m("workload.calibrate_s", "s", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// What one run of one workload measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries and mutations) and how many failed:
    /// an error, an answer other than the oracle's, or an acknowledged
    /// mutation missing afterwards.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample and work counts behind the metrics.
    pub counts: BTreeMap<&'static str, u64>,
    /// Remarks a reader of the numbers needs (an unsupported percentile,
    /// a self-time sum that does not close).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.insert(name, value);
    }

    /// Records rate, median and sample count of the selections.
    pub fn set_queries(&mut self, s: &Summary) {
        self.set("query_qps", s.per_s);
        self.set("query_p50_ms", s.p50_ms);
        self.count("query_samples", s.count as u64);
    }

    /// Records rate, median and sample count of the writes.
    pub fn set_writes(&mut self, s: &Summary) {
        self.set("write_ops_per_s", s.per_s);
        self.set("write_p50_ms", s.p50_ms);
        self.count("write_samples", s.count as u64);
    }

    /// Records the nearest-rank 99th percentile of `latencies_s` (seconds)
    /// as the layer metric `name` (milliseconds), noting when fewer than
    /// ten of the samples ranked lie beyond it.
    pub fn set_p99(&mut self, name: &'static str, latencies_s: &[f64]) {
        let lat = stats::sorted(latencies_s.to_vec());
        self.set(name, stats::percentile(&lat, 0.99) * 1e3);
        if !stats::supports(lat.len(), 0.99) {
            self.notes.push(format!(
                "{name}: only {} samples, fewer than ten lie beyond p99",
                lat.len()
            ));
        }
    }

    /// The metrics of `defs` as `{name: {value, unit}}`. A per-layer metric
    /// the run did not touch is 0; a missing end-to-end metric is a bug.
    pub fn metrics_json(&self, defs: &[MetricDef], default_zero: bool) -> Json {
        Json::obj(defs.iter().map(|d| {
            let value = match self.metrics.get(d.name) {
                Some(v) => *v,
                None if default_zero => 0.0,
                None => panic!("workload did not report {}", d.name),
            };
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        }))
    }

    /// The last line of standard output the driver reads.
    pub fn driver_line(&self, traced: bool) -> String {
        let metrics = if traced {
            self.metrics_json(PER_LAYER, true)
        } else {
            self.metrics_json(END_TO_END, false)
        };
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// Human-readable listing: every metric by name with its unit.
    pub fn print(&self, title: &str, defs: &[MetricDef], default_zero: bool) {
        println!("{title}");
        for d in defs {
            let v = self
                .metrics
                .get(d.name)
                .copied()
                .or(default_zero.then_some(0.0));
            if let Some(v) = v {
                println!("  {:<44} {:>16.4} {}", d.name, v, d.unit);
            }
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<44} {:>16.4} ratio  ({} failed of {} attempted)",
            "ops_failed_ratio", ratio, self.failed, self.attempted
        );
        for (name, n) in &self.counts {
            println!("  {:<44} {:>16} count", name, n);
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter().map(|d| d.name).collect()
    }

    /// `BENCHMARK.json` and the tables above must name the same metrics,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(j.get("better").and_then(Json::as_str), Some(d.better));
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_exact_metrics_exist() {
        let mut all = names(END_TO_END);
        all.extend(names(PER_LAYER));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        for e in EXACT {
            assert!(names(END_TO_END).contains(e));
        }
    }

    /// The ten-samples rule is applied to the population the percentile
    /// ranks, not to some larger count behind it.
    #[test]
    fn p99_is_noted_when_its_own_samples_are_too_few() {
        let mut o = Outcome::default();
        let lat: Vec<f64> = (1..=1000).map(|i| i as f64 / 1e3).collect();
        o.set_p99("core.db.query_p99_ms", &lat);
        assert_eq!(o.metrics["core.db.query_p99_ms"], 990.0);
        assert!(o.notes.is_empty());
        o.set_p99("core.db.write_p99_ms", &lat[..999]);
        assert_eq!(o.notes.len(), 1);
        assert!(o.notes[0].contains("999 samples"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        for d in END_TO_END {
            o.set(d.name, 1.5);
        }
        let line = o.driver_line(false);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // A traced line lists every layer, untouched ones as 0.
        let traced = Json::parse(&o.driver_line(true)).unwrap();
        let layers = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(layers[0].1.get("value"), Some(&Json::Num(0.0)));
    }
}
