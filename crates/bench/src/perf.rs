//! Read-merge-write helpers for the machine-readable perf report
//! `results/BENCH_sim.json`.
//!
//! Several binaries contribute sections to the same file (`sim_perf`
//! writes kernel throughput and thread-scaling curves, `runtime_report`
//! writes the flow runtime decomposition, the `sim_throughput` bench
//! writes its raw measurements), so each merges its own top-level key and
//! leaves the others intact. A corrupt or missing file is replaced with a
//! fresh object rather than failing the run.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::microbench::Measurement;

/// Environment variable overriding the report directory (default
/// `results/`).
pub const RESULTS_DIR_ENV: &str = "TRIPHASE_RESULTS_DIR";

/// Path of the shared perf report. Without the env override, anchors at
/// the workspace root (nearest ancestor holding `Cargo.lock`) so bins run
/// from the repo root and benches run by cargo from the package directory
/// write the **same** `results/BENCH_sim.json`.
pub fn report_path() -> PathBuf {
    if let Ok(dir) = std::env::var(RESULTS_DIR_ENV) {
        return Path::new(&dir).join("BENCH_sim.json");
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("results").join("BENCH_sim.json");
        }
        if !dir.pop() {
            return Path::new("results").join("BENCH_sim.json");
        }
    }
}

/// Merge `section` into the report at `path`: existing top-level keys are
/// preserved, `section` is inserted or replaced, and the file rewritten
/// pretty-printed. Returns the path written.
pub fn merge_section_at(path: &Path, section: &str, value: Json) -> std::io::Result<PathBuf> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).unwrap_or_else(|_| Json::obj()),
        Err(_) => Json::obj(),
    };
    if !matches!(doc, Json::Obj(_)) {
        doc = Json::obj();
    }
    doc.set(section, value);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, doc.to_pretty())?;
    Ok(path.to_owned())
}

/// [`merge_section_at`] targeting [`report_path`].
pub fn merge_section(section: &str, value: Json) -> std::io::Result<PathBuf> {
    merge_section_at(&report_path(), section, value)
}

/// JSON record for one [`Measurement`]: name, median/best seconds,
/// sample count, and — for throughput measurements — elements (simulated
/// cycles), ns/element, and elements/sec.
pub fn measurement_json(m: &Measurement) -> Json {
    let mut rec = Json::obj();
    rec.set("name", m.name.as_str().into());
    rec.set("median_secs", m.median_secs.into());
    rec.set("best_secs", m.best_secs.into());
    rec.set("samples", m.samples.into());
    if let Some(elements) = m.elements {
        rec.set("cycles", elements.into());
        rec.set("ns_per_cycle", m.ns_per_element().into());
        rec.set("cycles_per_sec", m.elements_per_sec().into());
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("triphase-perf-{}", std::process::id()));
        let path = dir.join("BENCH_sim.json");
        let mut a = Json::obj();
        a.set("x", 1u64.into());
        merge_section_at(&path, "alpha", a.clone()).unwrap();
        let mut b = Json::obj();
        b.set("y", 2u64.into());
        merge_section_at(&path, "beta", b.clone()).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("alpha"), Some(&a));
        assert_eq!(doc.get("beta"), Some(&b));

        // Corrupt file: replaced, not fatal.
        std::fs::write(&path, "not json").unwrap();
        merge_section_at(&path, "alpha", a.clone()).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("alpha"), Some(&a));
        assert_eq!(doc.get("beta"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measurement_json_mirrors_derived_figures() {
        let m = Measurement {
            name: "compiled".into(),
            median_secs: 0.5,
            best_secs: 0.4,
            samples: 5,
            elements: Some(1000),
        };
        let rec = measurement_json(&m);
        assert_eq!(rec.get("cycles").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            rec.get("cycles_per_sec").and_then(Json::as_f64),
            Some(m.elements_per_sec())
        );
        assert_eq!(
            rec.get("ns_per_cycle").and_then(Json::as_f64),
            Some(m.ns_per_element())
        );
    }
}
