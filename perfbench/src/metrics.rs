//! Metric values, their sample counts, and the JSON the benchmark
//! prints.

use std::collections::BTreeMap;

/// Every end-to-end metric, with its unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("spectrum_s", "s"),
    ("spectra_per_s", "1/s"),
    ("result_dev", "rel"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that only `sweep_serve` has.  They go into the
/// record line, not the result line (see README.md).
pub const SWEEP_ONLY: &[(&str, &str)] = &[("spectrum_s.p90", "s"), ("shard_s", "s")];

/// Every per-layer metric, with its unit, in print order.  A layer a
/// workload never calls reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ctx.build_s", "s"),
    ("ctx.rebuilds", "count"),
    ("ctx.prefetch_builds", "count"),
    ("evolve.busy_s", "s"),
    ("evolve.mode_s.max", "s"),
    ("evolve.rhs_evals", "count"),
    ("evolve.steps_accepted", "count"),
    ("evolve.steps_rejected", "count"),
    ("evolve.rhs_gflop", "Gflop"),
    ("evolve.stepper_gflop", "Gflop"),
    ("evolve.gflops", "Gflop/s"),
    ("los.table_s", "s"),
    ("los.project_s", "s"),
    ("los.spectrum_s", "s"),
    ("cl.assemble_s", "s"),
    ("farm.job_s", "s"),
    ("farm.idle_s", "s"),
    ("farm.efficiency", "ratio"),
    ("farm.scaling_eff", "ratio"),
    ("farm.bytes", "count"),
    ("farm.messages", "count"),
    ("service.hit_s", "s"),
    ("service.miss_overhead_s", "s"),
    ("service.hit_ratio", "ratio"),
    ("service.cache_mb", "MB"),
    ("service.shard_s", "s"),
    ("service.miss_p90_s", "s"),
    ("share.ctx", "ratio"),
    ("share.evolve", "ratio"),
    ("share.los", "ratio"),
    ("share.farm", "ratio"),
    ("share.service", "ratio"),
    ("trace.spectrum_s", "s"),
    ("trace.record_s", "s"),
];

/// Measured values by name, each with the number of samples behind it
/// (1 for a count or a single measurement).
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    /// Median of `values`; skipped when there are none.
    pub fn median(&mut self, name: &'static str, values: &[f64]) {
        if !values.is_empty() {
            self.put(name, median(values), values.len());
        }
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, 1);
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `table`, with 0 for
    /// names nothing measured.
    pub fn values_json(&self, table: &[(&str, &str)]) -> String {
        let rows: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.0.get(name).map_or(0.0, |v| v.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(v)
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// `{"name": samples, …}` over `table`.
    pub fn samples_json(&self, table: &[(&str, &str)]) -> String {
        let rows: Vec<String> = table
            .iter()
            .map(|(name, _)| format!("\"{name}\": {}", self.0.get(name).map_or(0, |v| v.1)))
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

/// A JSON number with every digit Rust keeps (shortest round-trip).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
