//! Shared read-merge-write handle for the machine-readable
//! `results/BENCH_*.json` reports.
//!
//! Every campaign binary (`sim_perf`, `fault_campaign`, `fuzz`, `dfa`)
//! contributes sections to its own report file next to `BENCH_sim.json`.
//! [`ReportFile`] centralizes the convention the binaries used to repeat
//! by hand: anchor the file in the same `results/` directory as
//! [`crate::perf::report_path`] (honoring `TRIPHASE_RESULTS_DIR`), then
//! merge each top-level section while preserving the others, so a quick
//! run refreshes only its own sections and full-campaign rows survive.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::perf;

/// Version of the section shapes the campaign binaries write, stamped
/// as a `schema_version` field into every top-level object section (via
/// [`section`]) so downstream consumers of `results/BENCH_*.json` can
/// detect format drift. Bump when any binary changes a section's shape.
pub const SCHEMA_VERSION: u64 = 3;

/// A fresh section object pre-stamped with [`SCHEMA_VERSION`]. The
/// campaign binaries build their top-level sections from this instead
/// of a bare [`Json::obj`].
pub fn section() -> Json {
    let mut o = Json::obj();
    o.set("schema_version", SCHEMA_VERSION.into());
    o
}

/// Handle on one `results/BENCH_*.json` report file.
#[derive(Debug, Clone)]
pub struct ReportFile {
    path: PathBuf,
}

impl ReportFile {
    /// Handle on `results/<file_name>`, anchored exactly like
    /// [`crate::perf::report_path`] (workspace root or the
    /// `TRIPHASE_RESULTS_DIR` override).
    pub fn new(file_name: &str) -> ReportFile {
        ReportFile {
            path: perf::report_path().with_file_name(file_name),
        }
    }

    /// Handle on an explicit path (tests, ad-hoc output directories).
    pub fn at(path: PathBuf) -> ReportFile {
        ReportFile { path }
    }

    /// The file this handle writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Merge `section` into the report: existing top-level keys are
    /// preserved, `section` is inserted or replaced, the file rewritten
    /// pretty-printed (parent directories are created as needed).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub fn merge(&self, section: &str, value: Json) -> std::io::Result<PathBuf> {
        perf::merge_section_at(&self.path, section, value)
    }

    /// [`ReportFile::merge`], exiting the process with status `1` on I/O
    /// failure — the campaign binaries' shared convention (a report that
    /// cannot be written is a failed run, not a usage error).
    pub fn merge_or_exit(&self, section: &str, value: Json) {
        if let Err(e) = self.merge(section, value) {
            eprintln!("failed to write {}: {e}", self.path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_anchors_next_to_the_sim_report() {
        let f = ReportFile::new("BENCH_static.json");
        assert_eq!(
            f.path().file_name().and_then(|n| n.to_str()),
            Some("BENCH_static.json")
        );
        assert_eq!(f.path().parent(), perf::report_path().parent());
    }

    #[test]
    fn section_is_stamped_with_the_schema_version() {
        let s = section();
        assert_eq!(
            s.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
    }

    #[test]
    fn merge_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("triphase-report-{}", std::process::id()));
        let f = ReportFile::at(dir.join("BENCH_x.json"));
        let mut a = Json::obj();
        a.set("x", 1u64.into());
        f.merge("alpha", a.clone()).unwrap();
        let mut b = Json::obj();
        b.set("y", 2u64.into());
        f.merge("beta", b.clone()).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(f.path()).unwrap()).unwrap();
        assert_eq!(doc.get("alpha"), Some(&a));
        assert_eq!(doc.get("beta"), Some(&b));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
