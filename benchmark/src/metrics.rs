//! The benchmark's metric names and units, and the result line the driver
//! reads. `BENCHMARK.json` carries the same names with their direction
//! and regression bound; a unit test keeps the two in step.

use serde_json::{json, Map, Value};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("epoch_wall_s", "s"),
    m("time_to_target_loss_s", "s"),
    m("peak_device_bytes", "bytes"),
    m("final_loss_share", "ratio"),
];

/// Single layers, from the traced run. The prefix is the crate.
pub const PER_LAYER: &[MetricDef] = &[
    m("graph.sample_s", "s"),
    m("graph.sample_edges", "count"),
    m("graph.batch_input_nodes", "count"),
    m("graph.reg_build_s", "s"),
    m("graph.reg_nnz", "count"),
    m("graph.restrict_s", "s"),
    m("partition.cut_s", "s"),
    m("partition.edge_cut_weight", "count"),
    m("partition.balance", "ratio"),
    m("partition.input_redundancy_ratio", "ratio"),
    m("partition.redundancy_saved_per_ms", "1/ms"),
    m("core.plan_s", "s"),
    m("core.plan_probes", "count"),
    m("core.k_chosen", "count"),
    m("core.plan_share", "ratio"),
    m("core.train_s", "s"),
    m("core.steps", "count"),
    m("core.step_overhead_s", "s"),
    m("core.fullbatch_peak_ratio", "ratio"),
    m("core.epoch_wall_tail_s", "s"),
    m("core.epoch_wall_samples", "count"),
    m("core.unaccounted_share", "ratio"),
    m("core.trace_overhead_share", "ratio"),
    m("core.eval_wall_s", "s"),
    m("core.train_nodes_per_s", "1/s"),
    m("device.estimate_s", "s"),
    m("device.estimated_peak_bytes", "bytes"),
    m("device.estimator_drift", "ratio"),
    m("device.transfer_bytes", "bytes"),
    m("device.sim_transfer_hidden_share", "ratio"),
    m("data.gather_s", "s"),
    m("data.gather_rows", "count"),
    m("data.feature_hit_rate", "ratio"),
    m("data.pages_in", "count"),
    m("data.page_in_bytes", "bytes"),
    m("data.read_amplification", "ratio"),
    m("nn.forward_s", "s"),
    m("nn.backward_s", "s"),
    m("nn.optimizer_s", "s"),
    m("nn.layer0_forward_s", "s"),
    m("nn.layer1_forward_s", "s"),
    m("nn.layer_last_forward_s", "s"),
    m("nn.probe_vs_compute_ratio", "ratio"),
    m("nn.param_count", "count"),
    m("tensor.matmul_gflops", "gflop/s"),
    m("tensor.segment_reduce_gbps", "gb/s"),
    m("tensor.adam_step_gbps", "gb/s"),
    m("tensor.pool_hit_rate", "ratio"),
    m("tensor.pool_bytes_recycled", "bytes"),
    m("runtime.cpu_util", "cores"),
    m("runtime.sys_cpu_share", "ratio"),
    m("runtime.cpu_s_per_epoch", "s"),
    m("runtime.threaded_epoch_ratio", "ratio"),
    m("runtime.host_peak_rss_bytes", "bytes"),
];

/// One output check: a property of the program's outputs that must hold
/// for the run's numbers to mean anything.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Stable check name.
    pub name: &'static str,
    /// Whether the property held.
    pub ok: bool,
    /// The values compared, for the log.
    pub detail: String,
}

impl Check {
    /// A check with its evidence.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Epochs started, warm-up included.
    pub attempted: usize,
    /// Epochs that returned an error or panicked.
    pub failed: usize,
    /// Metric values, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Vec<Check>,
}

impl RunRecord {
    /// The metric table this record answers to.
    pub fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The unit the table gives `name` (empty for a name it lacks, which
    /// `table_mismatches` reports).
    fn unit_of(&self, name: &str) -> &'static str {
        self.table()
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit)
    }

    /// No epoch failed and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Names the table lists that the record lacks, or the reverse, or
    /// values JSON cannot carry. Empty for a well-formed record.
    pub fn table_mismatches(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let table = self.table();
        for def in table {
            match self.metrics.iter().filter(|(n, _)| *n == def.name).count() {
                1 => {}
                n => problems.push(format!("metric {} reported {n} times", def.name)),
            }
        }
        for (name, value) in &self.metrics {
            if !table.iter().any(|d| d.name == *name) {
                problems.push(format!("metric {name} is not in the table"));
            }
            if !value.is_finite() {
                problems.push(format!("metric {name} is {value}"));
            }
        }
        problems
    }

    /// `{"name": {"value": v, "unit": u}, …}` in the driver's format.
    fn metrics_json(&self) -> Value {
        let map: Map<String, Value> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = self.unit_of(name);
                ((*name).to_owned(), json!({ "value": *value, "unit": unit }))
            })
            .collect();
        Value::Object(map)
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(),
        });
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The full record, checks included, for `--out` and the suite.
    pub fn to_json(&self) -> Value {
        let checks: Map<String, Value> = self
            .checks
            .iter()
            .map(|c| (c.name.to_owned(), json!({ "ok": c.ok, "detail": c.detail })))
            .collect();
        let metrics: Map<String, Value> = self
            .metrics
            .iter()
            .map(|(n, v)| ((*n).to_owned(), Value::Number(*v)))
            .collect();
        json!({
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
            "checks": Value::Object(checks),
        })
    }

    /// Every metric by name with its unit, then every check, for people.
    pub fn human_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let unit = self.unit_of(name);
            out.push_str(&format!("metric {:<40} {value:>16.6} {unit}\n", name));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            out.push_str(&format!(
                "check  {:<40} {verdict:<6} {}\n",
                c.name, c.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_f64, as_str, get, parse};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        match get(doc, key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| {
                    (
                        get(i, "name").and_then(as_str).unwrap().to_owned(),
                        get(i, "unit").and_then(as_str).unwrap().to_owned(),
                    )
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = crate::workloads::benchmark_dir().join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned()))
                .collect();
            assert_eq!(listed(&doc, key), ours, "{key} differs from BENCHMARK.json");
        }
        let workloads: Vec<String> = match get(&doc, "workloads") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| get(i, "name").and_then(as_str).unwrap().to_owned())
                .collect(),
            _ => panic!("no workloads"),
        };
        let ours: Vec<String> = crate::workloads::all()
            .iter()
            .map(|w| w.name.to_owned())
            .collect();
        assert_eq!(workloads, ours);
        assert!(get(&doc, "run_seconds").and_then(as_f64).unwrap() >= 1.0);
    }

    fn record() -> RunRecord {
        RunRecord {
            workload: "w".into(),
            seed: 3,
            traced: false,
            attempted: 7,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name, 1.5 + i as f64))
                .collect(),
            checks: vec![Check::new("loss_decreased", true, "5 -> 3")],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let rec = record();
        assert!(rec.table_mismatches().is_empty());
        let doc = parse(&rec.result_line()).unwrap();
        let Value::Object(map) = &doc else { panic!() };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(get(&doc, "correct"), Some(&Value::Bool(true)));
        let setup = get(get(&doc, "metrics").unwrap(), "setup_s").unwrap();
        assert_eq!(get(setup, "value").and_then(as_f64), Some(1.5));
        assert_eq!(get(setup, "unit").and_then(as_str), Some("s"));
        assert!(!rec.result_line().contains('\n'));
    }

    #[test]
    fn a_failed_check_or_epoch_makes_the_run_incorrect() {
        let mut rec = record();
        rec.checks
            .push(Check::new("peak_within_capacity", false, "9 > 8"));
        assert!(!rec.correct());
        let mut rec = record();
        rec.failed = 1;
        assert!(!rec.correct());
    }

    #[test]
    fn table_mismatches_are_named() {
        let mut rec = record();
        rec.metrics.pop();
        rec.metrics.push(("bogus", f64::NAN));
        let problems = rec.table_mismatches().join("; ");
        assert!(
            problems.contains("final_loss_share reported 0 times"),
            "{problems}"
        );
        assert!(problems.contains("bogus is not in the table"), "{problems}");
        assert!(problems.contains("bogus is NaN"), "{problems}");
    }
}
