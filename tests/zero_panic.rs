//! Zero-panic policy gate for the analysis crates.
//!
//! The lint, timing, ILP, dataflow, activity, and power crates are run
//! by the flow as checkpoints/estimators over arbitrary (possibly
//! seeded-defective) netlists — an analysis must report findings or
//! return `Err`, never abort the process. This test scans their
//! non-test sources for panicking constructs so a regression fails CI
//! instead of a fuzz campaign.

use std::fs;
use std::path::Path;

const CRATES: &[&str] = &[
    "crates/lint",
    "crates/timing",
    "crates/ilp",
    "crates/dfa",
    "crates/activity",
    "crates/power",
    "crates/serve",
];
const FORBIDDEN: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unimplemented!(",
    "todo!(",
    "panic_any(",
];

/// Strip `#[cfg(test)] mod … { … }` blocks (panics in tests are fine).
fn strip_test_modules(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        let tail = &rest[at..];
        // Skip to the block's opening brace, then to its matching close.
        let Some(open) = tail.find('{') else {
            rest = "";
            break;
        };
        let mut depth = 0usize;
        let mut end = tail.len();
        for (i, ch) in tail[open..].char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Strip `//` line comments (doc examples may legitimately mention them).
fn strip_line_comments(src: &str) -> String {
    src.lines()
        .map(|l| l.split("//").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

fn scan_dir(dir: &Path, violations: &mut Vec<String>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            scan_dir(&path, violations);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let src = fs::read_to_string(&path).unwrap_or_default();
        let code = strip_line_comments(&strip_test_modules(&src));
        for (lineno, line) in code.lines().enumerate() {
            for pat in FORBIDDEN {
                if line.contains(pat) {
                    violations.push(format!(
                        "{}:{}: `{}` in non-test code: {}",
                        path.display(),
                        lineno + 1,
                        pat,
                        line.trim()
                    ));
                }
            }
        }
    }
}

/// The compiled-simulation subtree (`triphase-sim`'s lowering passes and
/// bytecode VM) is held to the same standard: it executes machine-built
/// programs over arbitrary netlists inside the flow's hot path, so any
/// invariant violation must surface as a typed error or an `assert`
/// with a message — never an `unwrap`/`expect`/`panic!`. (The rest of
/// the sim crate predates the policy and keeps its documented asserts.)
#[test]
fn compiled_sim_module_has_no_panicking_constructs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = root.join("crates/sim/src/compile");
    assert!(src.is_dir(), "missing {}", src.display());
    let mut violations = Vec::new();
    scan_dir(&src, &mut violations);
    assert!(
        violations.is_empty(),
        "panicking constructs in the compiled-sim module:\n{}",
        violations.join("\n")
    );
}

#[test]
fn analysis_crates_have_no_panicking_constructs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    for krate in CRATES {
        let src = root.join(krate).join("src");
        assert!(src.is_dir(), "missing {}", src.display());
        scan_dir(&src, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "panicking constructs in analysis crates (report a Diagnostic or \
         return Err instead):\n{}",
        violations.join("\n")
    );
}
