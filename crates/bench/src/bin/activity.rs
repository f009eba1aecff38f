//! Static switching-activity CLI: cross-validate the `triphase-activity`
//! probability/density propagation against the compiled simulator over the
//! registered benchmark generators.
//!
//! ```text
//! activity                 # compare static vs simulated on every benchmark
//! activity s5378           # compare one benchmark by name
//! activity --json [...]    # print machine-readable JSON rows
//! activity --quick         # restrict to the quick suite
//! activity --certify       # full campaign -> results/BENCH_activity.json
//! ```
//!
//! Per benchmark the compiled simulator runs the row's own stimulus style
//! and the static model is seeded from the measured boundary profile —
//! every primary input *and* every storage output gets its empirical
//! (probability, density) pair, then a single topological pass
//! propagates through the combinational network. The comparison
//! therefore isolates *propagation* error from stimulus-model and
//! state-space mismatch: what is measured is exactly the engine the
//! flow trusts (supergate collapsing, boolean-difference density,
//! correlation flagging), not the uninformative-prior seed.
//!
//! `--certify` runs four sub-campaigns and merges them into
//! `results/BENCH_activity.json`:
//!
//! 1. **cross_validation** — per-benchmark relative-error distribution of
//!    static density vs measured toggle rate on flag-free combinational
//!    nets, plus analysis-vs-simulation wall time (the speedup claim);
//! 2. **exact_zero** — the reconvergence cases (`XOR(a,a)`, `AND(a,!a)`)
//!    must resolve to exactly zero density, and a beyond-budget cut must
//!    raise the correlation flag instead of guessing;
//! 3. **scaling** — [`Recipe`]-generated netlists of growing size, the
//!    analysis runtime curve;
//! 4. **ab_flow** — the full flow with the static model on vs off: the
//!    post-conversion 3-phase power must be no worse (within 0.5%) on
//!    all but two suite rows.
//!
//! Exit codes (stable): `0` comparison clean / certification passed,
//! `1` excessive error or certification failed, `2` usage error.

use std::process::ExitCode;
use std::time::Instant;

use triphase_activity::{analyze, AnalysisOptions};
use triphase_bench::json::Json;
use triphase_bench::report::{section, ReportFile};
use triphase_bench::{
    benchmarks, drive_stimulus, mean, profile_stimulus, quick_benchmarks, Benchmark, Scale,
};
use triphase_cells::{CellKind, Library};
use triphase_core::{ActivityCfg, FlowConfig, FlowReport};
use triphase_netlist::gen::Recipe;
use triphase_netlist::Netlist;
use triphase_power::estimate_power;
use triphase_sim::{data_inputs, run_random};

/// Nets quieter than this (toggles/cycle, measured) are compared on a
/// floored denominator: a handful of boundary toggles on a near-silent
/// net would otherwise read as a huge *relative* error while being
/// irrelevant to power.
const DENSITY_FLOOR: f64 = 0.01;

/// Aggregate speedup the certification demands of the static analysis
/// over the scalar reference simulation.
const MIN_SPEEDUP: f64 = 50.0;

/// Density-weighted mean relative error a benchmark may show on its
/// flag-free combinational nets before the comparison is reported
/// dirty. Weighting by measured density makes this the power-relevant
/// aggregate `sum |static - measured| / sum measured`: a handful of
/// boundary toggles on a near-silent net cannot dominate the score the
/// way it would in an unweighted per-net mean (which is still reported
/// via the p95/max columns).
const MAX_MEAN_REL_ERR: f64 = 0.15;

/// Per-row cap for the plain (non-certify) comparison: individual rows
/// vary around the suite mean — a single benchmark is reported dirty
/// only when clearly out of family.
const ROW_MAX_REL_ERR: f64 = 0.25;

/// A/B power tolerance: static-guided selection counts as "no worse"
/// when the 3-phase total stays within this factor of the measured run.
const AB_TOLERANCE: f64 = 1.005;

/// Held-out evaluation depth for the flow A/B: both arms' converted
/// netlists are re-simulated with a fresh stimulus seed over this many
/// cycles, so neither arm is scored by the short window it selected
/// its clock gates on.
const AB_EVAL_CYCLES: u64 = 4096;

/// Seed perturbation for the held-out A/B stimulus.
const AB_EVAL_SEED: u64 = 0x5eed;

struct Options {
    json: bool,
    quick: bool,
    certify: bool,
    names: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        quick: false,
        certify: false,
        names: Vec::new(),
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--quick" => opts.quick = true,
            "--certify" => opts.certify = true,
            "--help" | "-h" => {
                return Err("usage: activity [--json] [--quick] [--certify] [NAME...]".to_owned())
            }
            name if name.starts_with('-') => return Err(format!("unknown flag {name:?}")),
            name => opts.names.push(name.to_owned()),
        }
    }
    Ok(opts)
}

/// One benchmark's static-vs-simulated comparison.
struct Comparison {
    name: &'static str,
    /// Flag-free combinational nets entering the error distribution.
    nets_compared: usize,
    /// Correlation-flagged share of combinational nets.
    correlation_rate: f64,
    /// Density-weighted mean relative error (see [`MAX_MEAN_REL_ERR`]).
    mean_rel_err: f64,
    /// Unweighted per-net tail statistics.
    p95_rel_err: f64,
    max_rel_err: f64,
    static_seconds: f64,
    /// Compiled (up to 64-lane) truth-run wall time.
    sim_seconds: f64,
    /// Scalar reference-simulator wall time over the same cycle count —
    /// the conventional simulation cost the static analysis replaces.
    scalar_seconds: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        if self.static_seconds > 0.0 {
            self.scalar_seconds / self.static_seconds
        } else {
            f64::INFINITY
        }
    }

    fn clean(&self) -> bool {
        self.mean_rel_err <= ROW_MAX_REL_ERR
    }

    fn to_json(&self) -> Json {
        let mut row = Json::obj();
        row.set("nets_compared", self.nets_compared.into());
        row.set("correlation_rate", Json::Num(self.correlation_rate));
        row.set("mean_rel_err", Json::Num(self.mean_rel_err));
        row.set("p95_rel_err", Json::Num(self.p95_rel_err));
        row.set("max_rel_err", Json::Num(self.max_rel_err));
        row.set("static_seconds", Json::Num(self.static_seconds));
        row.set("sim_seconds", Json::Num(self.sim_seconds));
        row.set("scalar_sim_seconds", Json::Num(self.scalar_seconds));
        row.set("speedup", Json::Num(self.speedup()));
        row.set("clean", self.clean().into());
        row
    }
}

/// Simulation depth of the cross-validation: long enough that the
/// measured toggle rates themselves have converged (the paper's
/// methodology simulates full testbench programs), and the honest
/// baseline for the speedup claim — this is what a simulation-based
/// power estimate actually costs.
fn validation_cycles(quick: bool) -> u64 {
    if quick {
        1 << 14
    } else {
        1 << 15
    }
}

/// Run one benchmark: measured profile via the row's own stimulus, the
/// static model seeded with the empirical (probability, density) of
/// every primary input and storage output, one topological propagation
/// pass, then the per-net relative-error distribution over flag-free
/// combinational nets.
fn compare(b: &Benchmark, cycles: u64) -> Result<Comparison, String> {
    let nl = b.build();

    let t0 = Instant::now();
    let profile =
        profile_stimulus(&nl, cycles, b.seed(), b.stimulus()).map_err(|e| e.to_string())?;
    let sim_seconds = t0.elapsed().as_secs_f64();

    // Boundary seed: primary inputs and storage outputs carry their
    // measured statistics, so the single pass validates combinational
    // propagation rather than the sequential fixpoint's prior.
    let mut overrides: Vec<(triphase_netlist::NetId, f64, f64)> = data_inputs(&nl)
        .into_iter()
        .map(|p| nl.port(p).net)
        .chain(
            nl.cells()
                .filter(|(_, c)| c.kind.is_storage())
                .map(|(_, c)| c.output()),
        )
        .map(|net| (net, profile.probability(net), profile.density(net)))
        .collect();
    overrides.sort_by_key(|&(net, _, _)| net.index());
    overrides.dedup_by_key(|&mut (net, _, _)| net.index());
    let opts = AnalysisOptions {
        overrides,
        max_iterations: 1,
        ..AnalysisOptions::default()
    };
    let t1 = Instant::now();
    let model = analyze(&nl, &opts).map_err(|e| e.to_string())?;
    let static_seconds = t1.elapsed().as_secs_f64();

    // Scalar reference baseline: same cycle count through the
    // conventional one-value-per-net simulator.
    let t2 = Instant::now();
    run_random(&nl, b.seed(), cycles).map_err(|e| e.to_string())?;
    let scalar_seconds = t2.elapsed().as_secs_f64();

    let mut errs: Vec<f64> = Vec::new();
    let mut abs_sum = 0.0f64;
    let mut den_sum = 0.0f64;
    for (_, cell) in nl.cells() {
        if !cell.kind.is_comb() {
            continue;
        }
        let net = cell.output();
        if model.correlated(net) {
            continue;
        }
        let m = profile.density(net);
        let s = model.density(net);
        errs.push((s - m).abs() / m.max(DENSITY_FLOOR));
        abs_sum += (s - m).abs();
        den_sum += m.max(DENSITY_FLOOR);
    }
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p95 = if errs.is_empty() {
        0.0
    } else {
        errs[(errs.len() * 95) / 100..][0]
    };
    Ok(Comparison {
        name: b.name,
        nets_compared: errs.len(),
        correlation_rate: model.correlation_rate(),
        mean_rel_err: if den_sum > 0.0 {
            abs_sum / den_sum
        } else {
            0.0
        },
        p95_rel_err: p95,
        max_rel_err: errs.last().copied().unwrap_or(0.0),
        static_seconds,
        sim_seconds,
        scalar_seconds,
    })
}

/// Exact-zero / correlation-flag spot checks, mirrored from the
/// `triphase-activity` regression suite: a certification run must prove
/// the installed binary still resolves reconvergence exactly.
fn exact_zero_cases() -> Vec<(&'static str, bool)> {
    let mut cases = Vec::new();

    let mut nl = Netlist::new("xaa");
    let (_, a) = nl.add_input("a");
    let x = nl.add_net("x");
    nl.add_cell("u", CellKind::Xor(2), vec![a, a, x]);
    nl.add_output("x", x);
    let ok = analyze(&nl, &AnalysisOptions::default())
        .map(|m| m.density(x) == 0.0 && m.probability(x) == 0.0 && !m.correlated(x))
        .unwrap_or(false);
    cases.push(("xor_a_a_exact_zero", ok));

    let mut nl = Netlist::new("ana");
    let (_, a) = nl.add_input("a");
    let na = nl.add_net("na");
    let x = nl.add_net("x");
    nl.add_cell("u_inv", CellKind::Inv, vec![a, na]);
    nl.add_cell("u_and", CellKind::And(2), vec![a, na, x]);
    nl.add_output("x", x);
    let ok = analyze(&nl, &AnalysisOptions::default())
        .map(|m| m.density(x) == 0.0 && m.probability(x) == 0.0 && !m.correlated(x))
        .unwrap_or(false);
    cases.push(("and_a_not_a_exact_zero", ok));

    // Beyond-budget reconvergence must flag, never silently guess.
    let mut nl = Netlist::new("cut");
    let (_, a) = nl.add_input("a");
    let (_, b) = nl.add_input("b");
    let (_, c) = nl.add_input("c");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    let z = nl.add_net("z");
    nl.add_cell("u_and", CellKind::And(2), vec![a, b, x]);
    nl.add_cell("u_or", CellKind::Or(2), vec![b, c, y]);
    nl.add_cell("u_xor", CellKind::Xor(2), vec![x, y, z]);
    nl.add_output("z", z);
    let tight = AnalysisOptions {
        cut_budget: 2,
        ..AnalysisOptions::default()
    };
    let ok = analyze(&nl, &tight)
        .map(|m| m.correlated(z))
        .unwrap_or(false);
    cases.push(("beyond_budget_cut_flagged", ok));

    cases
}

/// Analysis-runtime curve over recipe-generated netlists of growing
/// size: near-linear growth is the design claim (topological pass plus
/// a bounded fixpoint).
fn scaling_series(quick: bool) -> Json {
    let sizes: &[(usize, usize)] = if quick {
        &[(16, 8), (48, 12), (96, 16)]
    } else {
        &[(16, 8), (48, 12), (96, 16), (160, 24), (240, 32)]
    };
    let mut rows = Vec::new();
    for (i, &(max_ops, max_width)) in sizes.iter().enumerate() {
        // One recipe per size bucket; the tag pins the stream.
        let recipe = &Recipe::stream(0xAC71 + i as u64, 1, max_ops, max_width)[0];
        let nl = recipe.build();
        let t0 = Instant::now();
        let model = analyze(&nl, &AnalysisOptions::default());
        let seconds = t0.elapsed().as_secs_f64();
        let mut row = Json::obj();
        row.set("max_ops", max_ops.into());
        row.set("max_width", max_width.into());
        row.set("cells", nl.stats().cells.into());
        match model {
            Ok(m) => {
                row.set("comb_nets", m.comb_nets.into());
                row.set("flagged_nets", m.flagged_nets.into());
                row.set("iterations", m.iterations.into());
                row.set("converged", m.converged.into());
            }
            Err(e) => row.set("error", e.to_string().as_str().into()),
        }
        row.set("seconds", Json::Num(seconds));
        rows.push(row);
    }
    let mut out = section();
    out.set("series", Json::Arr(rows));
    out
}

/// Held-out power score of one flow arm: re-simulate the converted
/// design with a fresh stimulus seed over [`AB_EVAL_CYCLES`] cycles and
/// estimate power from *that* profile. The in-flow power number scores
/// each arm with the same short window it selected its clock gates on,
/// which makes the measured arm's selections look perfect by
/// construction; the held-out window is the fair test.
fn ab_eval_power(b: &Benchmark, lib: &Library, report: &FlowReport) -> Result<f64, String> {
    let tp = &report.three_phase.netlist;
    let activity = drive_stimulus(tp, AB_EVAL_CYCLES, b.seed() ^ AB_EVAL_SEED, b.stimulus())
        .map_err(|e| e.to_string())?;
    estimate_power(tp, lib, &activity, None)
        .map(|p| p.total_mw())
        .map_err(|e| e.to_string())
}

/// A/B the end-to-end flow: static activity model on (the default)
/// versus off (measured fallback). Selection driven by the static model
/// must not cost power under the held-out evaluation: the 3-phase total
/// stays within [`AB_TOLERANCE`] on all but two suite rows.
fn ab_flow(suite: &[Benchmark], lib: &Library) -> (Json, bool) {
    let rows = triphase_par::par_map(&suite.iter().collect::<Vec<_>>(), |b| {
        let nl = b.build();
        // Quick-scale flow configs keep the 2x18-run sweep tractable;
        // the A/B question is about *selection decisions*, which the
        // quick stimulus already exercises.
        let cfg_on = b.flow_config(Scale::Quick);
        let cfg_off = FlowConfig {
            activity: ActivityCfg {
                enabled: false,
                ..ActivityCfg::default()
            },
            ..b.flow_config(Scale::Quick)
        };
        let t0 = Instant::now();
        let result = b
            .run_netlist_with_config(&nl, lib, &cfg_on)
            .map_err(|e| e.to_string())
            .and_then(|on| {
                let off = b
                    .run_netlist_with_config(&nl, lib, &cfg_off)
                    .map_err(|e| e.to_string())?;
                let p_on = ab_eval_power(b, lib, &on)?;
                let p_off = ab_eval_power(b, lib, &off)?;
                Ok((on, p_on, p_off))
            });
        match &result {
            Ok((on, p_on, p_off)) => eprintln!(
                "[ab] {:>8} ... static {p_on:.3} mW vs measured {p_off:.3} mW ({}) in {:.1}s",
                b.name,
                on.activity_source,
                t0.elapsed().as_secs_f64()
            ),
            Err(e) => eprintln!("[ab] {:>8} ... FAILED: {e}", b.name),
        }
        result
    });

    let mut out = section();
    out.set("eval_cycles", AB_EVAL_CYCLES.into());
    let mut no_worse = 0usize;
    let mut failures = 0usize;
    for (b, result) in suite.iter().zip(rows) {
        let mut row = Json::obj();
        match result {
            Ok((on, p_on, p_off)) => {
                let ok = p_on <= p_off * AB_TOLERANCE;
                row.set("power_static_mw", Json::Num(p_on));
                row.set("power_measured_mw", Json::Num(p_off));
                row.set("activity_source", on.activity_source.into());
                if let Some(rate) = on.activity_correlation_rate {
                    row.set("correlation_rate", Json::Num(rate));
                }
                row.set("equiv_3p", on.equiv_3p.unwrap_or(false).into());
                row.set("no_worse", ok.into());
                no_worse += usize::from(ok);
            }
            Err(e) => {
                row.set("error", e.as_str().into());
                failures += 1;
            }
        }
        out.set(b.name, row);
    }
    let passed = failures == 0 && no_worse + 2 >= suite.len();
    out.set("no_worse", no_worse.into());
    out.set("required", suite.len().saturating_sub(2).into());
    out.set("passed", passed.into());
    (out, passed)
}

/// The full certification campaign, merged into
/// `results/BENCH_activity.json`. Returns `true` when every gate held.
fn certify(suite: &[Benchmark], lib: &Library, quick: bool) -> Result<bool, String> {
    let cycles = validation_cycles(quick);

    // 1. Cross-validation sweep (parallel across rows).
    let rows = triphase_par::par_map(&suite.iter().collect::<Vec<_>>(), |b| {
        let result = compare(b, cycles);
        match &result {
            Ok(c) => eprintln!(
                "[xval] {:>8} ... mean {:.1}% p95 {:.1}% on {} nets, {:.0}x speedup",
                b.name,
                c.mean_rel_err * 100.0,
                c.p95_rel_err * 100.0,
                c.nets_compared,
                c.speedup()
            ),
            Err(e) => eprintln!("[xval] {:>8} ... FAILED: {e}", b.name),
        }
        result
    });
    let mut xval = section();
    xval.set("cycles", cycles.into());
    let mut means = Vec::new();
    let mut scalar_total = 0.0;
    let mut static_total = 0.0;
    let mut xval_failures = Vec::new();
    for (b, result) in suite.iter().zip(rows) {
        match result {
            Ok(c) => {
                means.push(c.mean_rel_err);
                scalar_total += c.scalar_seconds;
                static_total += c.static_seconds;
                xval.set(b.name, c.to_json());
            }
            Err(e) => xval_failures.push(format!("{}: {e}", b.name)),
        }
    }
    let mean_err = mean(&means);
    let speedup = if static_total > 0.0 {
        scalar_total / static_total
    } else {
        f64::INFINITY
    };
    let xval_ok =
        xval_failures.is_empty() && mean_err <= MAX_MEAN_REL_ERR && speedup >= MIN_SPEEDUP;
    eprintln!(
        "[xval] suite mean rel err {:.1}% (cap {:.0}%), \
         aggregate speedup {speedup:.0}x (floor {MIN_SPEEDUP:.0}x)",
        mean_err * 100.0,
        MAX_MEAN_REL_ERR * 100.0
    );

    // 2. Exact-zero / correlation-flag spot checks.
    let mut zero = section();
    let mut zero_ok = true;
    for (name, detected) in exact_zero_cases() {
        eprintln!(
            "[zero] {name:>28} ... {}",
            if detected { "exact" } else { "MISSED" }
        );
        zero.set(name, detected.into());
        zero_ok &= detected;
    }

    // 3. Scaling series.
    let scaling = scaling_series(quick);

    // 4. Flow A/B.
    let (ab, ab_ok) = ab_flow(suite, lib);

    let certified = xval_ok && zero_ok && ab_ok;
    let mut summary = section();
    summary.set("benchmarks", suite.len().into());
    summary.set("mean_rel_err", Json::Num(mean_err));
    summary.set("speedup", Json::Num(speedup));
    summary.set("cross_validation_ok", xval_ok.into());
    summary.set("exact_zero_ok", zero_ok.into());
    summary.set("ab_flow_ok", ab_ok.into());
    summary.set("certified", certified.into());
    if !xval_failures.is_empty() {
        summary.set(
            "failures",
            Json::Arr(xval_failures.iter().map(|f| f.as_str().into()).collect()),
        );
    }

    let out = ReportFile::new("BENCH_activity.json");
    out.merge_or_exit("cross_validation", xval);
    out.merge_or_exit("exact_zero", zero);
    out.merge_or_exit("scaling", scaling);
    out.merge_or_exit("ab_flow", ab);
    out.merge_or_exit("summary", summary);
    println!(
        "activity: {} benchmarks, mean rel err {:.1}%, speedup {:.0}x, A/B {} -> {}",
        suite.len(),
        mean_err * 100.0,
        speedup,
        if ab_ok { "ok" } else { "FAILED" },
        out.path().display()
    );
    Ok(certified)
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    let lib = Library::synthetic_28nm();
    let all = if opts.quick {
        quick_benchmarks()
    } else {
        benchmarks()
    };
    let selected: Vec<Benchmark> = if opts.names.is_empty() {
        all
    } else {
        opts.names
            .iter()
            .map(|n| {
                all.iter().find(|b| b.name == n).cloned().ok_or_else(|| {
                    let known: Vec<_> = all.iter().map(|b| b.name).collect();
                    format!("unknown benchmark {n:?}; known: {known:?}")
                })
            })
            .collect::<Result<_, String>>()?
    };

    if opts.certify {
        return certify(&selected, &lib, opts.quick);
    }

    let cycles = validation_cycles(opts.quick);
    let results = triphase_par::par_map(&selected, |b| compare(b, cycles));
    let mut clean = true;
    for (b, result) in selected.iter().zip(results) {
        let c = result?;
        if opts.json {
            let mut row = c.to_json();
            row.set("name", b.name.into());
            println!("{}", row.to_pretty());
        } else {
            println!(
                "{:>8}: mean {:.1}% p95 {:.1}% max {:.1}% on {} flag-free nets \
                 (corr {:.1}%), static {:.3}s vs sim {:.3}s ({:.0}x)",
                c.name,
                c.mean_rel_err * 100.0,
                c.p95_rel_err * 100.0,
                c.max_rel_err * 100.0,
                c.nets_compared,
                c.correlation_rate * 100.0,
                c.static_seconds,
                c.sim_seconds,
                c.speedup()
            );
        }
        clean &= c.clean();
    }
    Ok(clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
