//! What one run measured, and how it is printed: a human-readable table,
//! then the result object as the last line of standard output.

use crate::common::{median, quantile, Cfg, Digest, Radio};
use crate::probe::Counters;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("query_epochs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("radio_tx_packets_per_qe", "count"),
    ("radio_tx_bytes_per_qe", "B"),
    ("radio_energy_mj_per_qe", "mJ"),
    ("sim_response_s_mean", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.topology_tree_ms", "ms"),
    ("sim.ns_per_node_event", "ns"),
    ("sim.stats.collection_bytes_per_qe", "B"),
    ("sim.stats.collection_packets_per_qe", "count"),
    ("sim.stats.filter_bytes_per_qe", "B"),
    ("sim.stats.filter_packets_per_qe", "count"),
    ("sim.stats.final_bytes_per_qe", "B"),
    ("sim.stats.final_packets_per_qe", "count"),
    ("sim.allocs_per_op", "count"),
    ("field.resample_ms", "ms"),
    ("field.allocs_per_op", "count"),
    ("query.compile_ms", "ms"),
    ("query.allocs_per_op", "count"),
    ("core.sensjoin.execute_ms", "ms"),
    ("core.sensjoin.in_network_ms", "ms"),
    ("core.sensjoin.allocs_per_op", "count"),
    ("core.engine.space_build_ms", "ms"),
    ("core.engine.prejoin_ms", "ms"),
    ("core.engine.exact_join_ms", "ms"),
    ("core.engine.population_cells", "count"),
    ("core.engine.filter_cells", "count"),
    ("core.engine.filter_precision", "ratio"),
    ("core.engine.allocs_per_op", "count"),
    ("core.continuous.round_ms", "ms"),
    ("core.continuous.allocs_per_op", "count"),
    ("core.ingest.apply_batch_ms", "ms"),
    ("core.ingest.candidates_per_round", "count"),
    ("core.ingest.rows_changed_per_candidate", "ratio"),
    ("core.ingest.allocs_per_op", "count"),
    ("core.persist.wal_append_us", "us"),
    ("core.persist.snapshot_encode_ms", "ms"),
    ("core.persist.snapshot_write_ms", "ms"),
    ("core.persist.snapshot_bytes", "B"),
    ("core.persist.recover_ms", "ms"),
    ("core.persist.allocs_per_op", "count"),
    ("serve.admit_ms", "ms"),
    ("serve.tick_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.admitted", "count"),
    ("serve.refused", "count"),
    ("serve.sim_epoch_latency_ms_p99", "ms"),
    ("serve.allocs_per_op", "count"),
    ("trace.op_ms_p50_traced", "ms"),
    ("trace.op_ms_p50_untraced", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Everything one run measured.
pub struct Outcome {
    pub workload: &'static str,
    pub setup_s: Vec<f64>,
    /// Untraced op times (every op when tracing is off).
    pub op_ms: Vec<f64>,
    pub op_ms_traced: Vec<f64>,
    /// Sum of all op times.
    pub timed_s: f64,
    /// Query-epochs completed (and verified) by the timed ops.
    pub qe: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Query-epochs refused at admission, counted per tick they would have
    /// run in (serving only).
    pub refused_qe: u64,
    /// Radio cost over the digest prefix.
    pub radio: Radio,
    pub prefix_ops: usize,
    pub sim_response_s: f64,
    /// VmHWM when the timed ops end, before any end-of-run check.
    pub peak_rss_mib: f64,
    pub digest: u64,
    /// Correctness problems; any makes the run fail.
    pub problems: Vec<String>,
    pub layers: BTreeMap<String, f64>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            op_ms_traced: Vec::new(),
            timed_s: 0.0,
            qe: 0,
            attempted: 0,
            failed: 0,
            refused_qe: 0,
            radio: Radio::default(),
            prefix_ops: 0,
            sim_response_s: 0.0,
            peak_rss_mib: f64::NAN,
            digest: 0,
            problems: Vec::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn record_op(&mut self, ms: f64, traced: bool) {
        self.timed_s += ms / 1e3;
        if traced {
            self.op_ms_traced.push(ms);
        } else {
            self.op_ms.push(ms);
        }
    }

    /// A failed op.
    pub fn fail(&mut self, op: usize, why: String) {
        self.failed += 1;
        self.problem(format!("op {op}: {why}"));
    }

    /// A correctness problem outside any single op.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Records the digest and radio cost of the first `ops` ops, whose
    /// inputs depend on the seed alone.
    pub fn finish_prefix(&mut self, digest: Digest, radio: Radio, response_us: u64, ops: usize) {
        self.digest = digest.value();
        self.sim_response_s = response_us as f64 / 1e6 / radio.qe.max(1) as f64;
        self.radio = radio;
        self.prefix_ops = ops;
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Flags end-to-end metrics the run could not measure.
    pub fn check_end_to_end(&mut self) {
        for (name, v, _) in self.end_to_end() {
            if !v.is_finite() {
                self.problem(format!("end-to-end metric {name} was not measured"));
            }
        }
    }

    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let values = [
            median(&self.setup_s),
            quantile(&self.op_ms, 0.5),
            quantile(&self.op_ms, 0.9),
            self.qe as f64 / self.timed_s.max(1e-9),
            self.peak_rss_mib,
            self.radio.per_qe(self.radio.packets as f64),
            self.radio.per_qe(self.radio.bytes as f64),
            self.radio.per_qe(self.radio.energy_uj) / 1e3,
            self.sim_response_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// Derives the per-layer metrics from the spans and counters.
    pub fn layers_from(&mut self, tr: &Tracer, c: &Counters) {
        let ms = |name: &str| median(&tr.per_op_ms(name).into_values().collect::<Vec<_>>());
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        let execute = tr.per_op_ms("core.sensjoin.execute");
        let engine: Vec<_> = [
            "core.engine.space_build",
            "core.engine.prejoin",
            "core.engine.exact_join",
        ]
        .iter()
        .map(|n| tr.per_op_ms(n))
        .collect();
        // Every op that re-runs the engine calls each of them, and execute,
        // once, so the difference is one execution's in-network time.
        let in_network: Vec<f64> = execute
            .iter()
            .filter(|(op, _)| engine.iter().all(|e| e.contains_key(op)))
            .map(|(op, ms)| ms - engine.iter().map(|e| e[op]).sum::<f64>())
            .collect();
        let execute_ms = ms("core.sensjoin.execute");
        m.insert("sim.topology_tree_ms".into(), ms("sim.topology_tree"));
        m.insert(
            "sim.ns_per_node_event".into(),
            execute_ms * 1e6 / (3 * c.exec_nodes.max(1)) as f64,
        );
        let r = &c.radio;
        for (k, phase) in ["collection", "filter", "final"].iter().enumerate() {
            let p = r.phases[k];
            m.insert(
                format!("sim.stats.{phase}_bytes_per_qe"),
                r.per_qe(p.bytes as f64),
            );
            m.insert(
                format!("sim.stats.{phase}_packets_per_qe"),
                r.per_qe(p.packets as f64),
            );
        }
        m.insert("field.resample_ms".into(), ms("field.resample"));
        m.insert("query.compile_ms".into(), ms("query.compile"));
        m.insert("core.sensjoin.execute_ms".into(), execute_ms);
        m.insert("core.sensjoin.in_network_ms".into(), median(&in_network));
        m.insert(
            "core.engine.space_build_ms".into(),
            ms("core.engine.space_build"),
        );
        m.insert("core.engine.prejoin_ms".into(), ms("core.engine.prejoin"));
        m.insert(
            "core.engine.exact_join_ms".into(),
            ms("core.engine.exact_join"),
        );
        m.insert(
            "core.engine.population_cells".into(),
            median(&c.population_cells),
        );
        m.insert("core.engine.filter_cells".into(), median(&c.filter_cells));
        m.insert(
            "core.engine.filter_precision".into(),
            c.contributors as f64 / c.shipped.max(1) as f64,
        );
        m.insert(
            "core.continuous.round_ms".into(),
            ms("core.continuous.round"),
        );
        m.insert(
            "core.ingest.apply_batch_ms".into(),
            ms("core.ingest.apply_batch"),
        );
        let candidates: Vec<f64> = c.ingest.iter().map(|&(cand, _)| cand as f64).collect();
        let (cand_sum, rows_sum) = c
            .ingest
            .iter()
            .fold((0u64, 0u64), |(a, b), &(cand, rows)| (a + cand, b + rows));
        m.insert(
            "core.ingest.candidates_per_round".into(),
            median(&candidates),
        );
        m.insert(
            "core.ingest.rows_changed_per_candidate".into(),
            rows_sum as f64 / cand_sum.max(1) as f64,
        );
        m.insert(
            "core.persist.wal_append_us".into(),
            ms("core.persist.wal_append") * 1e3,
        );
        m.insert(
            "core.persist.snapshot_encode_ms".into(),
            ms("core.persist.snapshot_encode"),
        );
        m.insert(
            "core.persist.snapshot_write_ms".into(),
            ms("core.persist.snapshot_write"),
        );
        m.insert(
            "core.persist.snapshot_bytes".into(),
            median(&c.snapshot_bytes),
        );
        m.insert("core.persist.recover_ms".into(), ms("core.persist.recover"));
        m.insert("serve.admit_ms".into(), ms("serve.admit"));
        m.insert("serve.tick_ms".into(), ms("serve.tick"));
        let s = c.serve.unwrap_or_default();
        m.insert("serve.cache_hit_rate".into(), s.cache_hit_rate);
        m.insert("serve.admitted".into(), s.admitted as f64);
        m.insert("serve.refused".into(), s.refused as f64);
        m.insert(
            "serve.sim_epoch_latency_ms_p99".into(),
            s.epoch_latency_p99_ms,
        );
        let layers = tr.layers();
        for (name, _) in PER_LAYER {
            if let Some(layer) = name.strip_suffix(".allocs_per_op") {
                let v = layers.get(layer).map_or(f64::NAN, |t| t.allocs_per_op());
                m.insert(name.into(), v);
            }
        }
        let traced = median(&self.op_ms_traced);
        let untraced = median(&self.op_ms);
        m.insert("trace.op_ms_p50_traced".into(), traced);
        m.insert("trace.op_ms_p50_untraced".into(), untraced);
        m.insert("trace.overhead_ratio".into(), traced / untraced.max(1e-9));

        let mut table =
            String::from("  layer             calls   ops   incl_ms    self_ms  allocs/op\n");
        for (layer, t) in &layers {
            writeln!(
                table,
                "  {layer:<16} {:>6} {:>5} {:>9.1} {:>10.1} {:>10.0}",
                t.calls,
                t.ops,
                t.incl_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.allocs_per_op()
            )
            .expect("writing to a String cannot fail");
        }
        self.notes.push(format!(
            "per-layer self time (traced ops and re-runs):\n{table}"
        ));
        for (name, _) in PER_LAYER {
            let v = m.get(name).copied().unwrap_or(f64::NAN);
            if !v.is_finite() {
                self.problem(format!("per-layer metric {name} was not measured"));
            }
        }
        self.layers = m;
    }

    /// Writes the spans to `<out_dir>/trace-<workload>-<seed>.jsonl`.
    pub fn write_trace(&mut self, cfg: &Cfg, tr: &Tracer) {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", self.workload, cfg.seed));
        match std::fs::write(&path, tr.to_jsonl()) {
            Ok(()) => self.notes.push(format!(
                "{} spans written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => self.notes.push(format!("trace not written: {e}")),
        }
    }

    /// Prints the report; the result object is the last line.
    pub fn print(&self, cfg: &Cfg) {
        println!(
            "workload {} seed {} seconds {} trace {}",
            self.workload,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        );
        let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            self.end_to_end()
        };
        let ops = self.op_ms.len() + self.op_ms_traced.len();
        for (name, v, unit) in &metrics {
            let note = match *name {
                "op_ms_p50" | "op_ms_p90" => format!("  (n = {} ops)", self.op_ms.len()),
                "setup_s" => format!("  (median of {} set-ups)", self.setup_s.len()),
                n if n.starts_with("radio_") || n.starts_with("sim_response") => {
                    format!("  (first {} ops, {} qe)", self.prefix_ops, self.radio.qe)
                }
                _ => String::new(),
            };
            println!("  {name:<40} {v:>14.4} {unit}{note}");
        }
        println!(
            "  {:<40} {:>14.4} ratio  ({} of {} ops)",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        if self.refused_qe > 0 {
            println!(
                "  {:<40} {:>14} count  (refused at admission, expected by the oracle)",
                "refused_qe", self.refused_qe
            );
        }
        println!(
            "  digest {:016x} over the first {} ops; {} ops in {:.2} s timed",
            self.digest, self.prefix_ops, ops, self.timed_s
        );
        for n in &self.notes {
            println!("  {n}");
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}
