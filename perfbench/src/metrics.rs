//! The metric catalogue (names and units) and the result line.

/// End-to-end metrics, reported with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "jobs/s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MiB"),
    ("power_3p_over_ff", "ratio"),
    ("regs_3p_over_ms", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run: (name, unit). Every
/// `.ms`/`_ms` value is a per-job median of the layer's summed spans.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sim.equiv_ms", "ms"),
    ("sim.ms", "ms"),
    ("sim.ns_per_gate_cycle", "ns"),
    ("pnr.ms", "ms"),
    ("pnr.trial_ms", "ms"),
    ("pnr.ns_per_move", "ns"),
    ("timing.ms", "ms"),
    ("dfa.ms", "ms"),
    ("activity.ms", "ms"),
    ("activity.static_share", "ratio"),
    ("retime.ms", "ms"),
    ("ilp.ms", "ms"),
    ("ilp.flow_share", "ratio"),
    ("ilp.convert_share", "ratio"),
    ("ilp.optimal_share", "ratio"),
    ("preprocess.ms", "ms"),
    ("convert.ms", "ms"),
    ("clockgate.ms", "ms"),
    ("lint.ms", "ms"),
    ("power.ms", "ms"),
    ("netlist.ms", "ms"),
    ("convert.repeatable_share", "ratio"),
    ("par.fanout_ms", "ms"),
    ("par.fanout_busy_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.shed_rate", "ratio"),
    ("serve.cold_ms", "ms"),
    ("serve.identical_ms", "ms"),
    ("serve.eco_ms", "ms"),
    ("memo.report_hit_rate", "ratio"),
    ("memo.stage_hit_rate", "ratio"),
    ("memo.evictions", "count"),
    ("journal.bytes_per_job", "B/job"),
    ("proto.encode_ms", "ms"),
    ("proto.decode_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// A finished run.
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed, were refused, or returned a wrong output.
    pub failed: usize,
    /// (name, value) for every metric of the run's catalogue.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Render the result line for `catalogue`, checking that the run
/// produced exactly its metrics, each a finite number.
///
/// # Errors
///
/// A missing, extra or non-finite metric.
pub fn result_line(out: &Outcome, catalogue: &[(&str, &str)]) -> Result<String, String> {
    if out.metrics.len() != catalogue.len() {
        return Err(format!(
            "run produced {} metrics, the catalogue has {}",
            out.metrics.len(),
            catalogue.len()
        ));
    }
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("run did not produce {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_has_a_valid_unique_name_and_a_unit() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
            assert_eq!(all.iter().filter(|(n, _)| n == name).count(), 1, "{name}");
        }
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let doc = triphase_serve::Json::parse(json).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(triphase_serve::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| {
                            m.get(k)
                                .and_then(triphase_serve::Json::as_str)
                                .unwrap_or("")
                        };
                        (s("name").to_owned(), s("unit").to_owned())
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect(),
        };
        let line = result_line(&out, &END_TO_END).expect("complete");
        let doc = triphase_serve::Json::parse(&line).expect("valid JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(
                m.get("unit").and_then(triphase_serve::Json::as_str),
                Some(unit)
            );
            assert_eq!(
                m.get("value").and_then(triphase_serve::Json::as_f64),
                Some(1.25)
            );
        }
        let short = Outcome {
            metrics: Vec::new(),
            ..out
        };
        assert!(result_line(&short, &END_TO_END).is_err());
    }
}
