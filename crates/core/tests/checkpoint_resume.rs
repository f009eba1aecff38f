//! Kill-and-resume certification for the directory-backed stage store.
//!
//! A flow run through [`run_flow_memo`] over a [`CheckpointDir`] banks
//! each stage on disk before the stage's fault site fires. The flow is
//! killed (via an injected panic) right after the retime stage becomes
//! durable, then rerun over the same directory in a fresh configuration.
//! The resumed report must be bit-exact against an uninterrupted run —
//! and the resume must actually *skip* the banked stages, which is proven
//! by arming the phase solver with a numeric fault in the resume
//! configuration: had the ILP stage re-run, the fallback chain would have
//! answered from the greedy rung.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use triphase_cells::Library;
use triphase_circuits::pipeline::linear_pipeline;
use triphase_core::{
    run_flow, run_flow_memo, stage_data_from_text, CheckpointDir, Error, FlowConfig, FlowReport,
    Result, Stage, StageObservation,
};
use triphase_fault::{Fault, FaultPlan};
use triphase_ilp::{PhaseConfig, SolveRung};
use triphase_netlist::Netlist;
use triphase_pnr::PnrOptions;

fn quick_cfg() -> FlowConfig {
    FlowConfig {
        sim_cycles: 48,
        equiv_cycles: 96,
        pnr: PnrOptions {
            moves_per_cell: 4,
            ..PnrOptions::default()
        },
        ..FlowConfig::default()
    }
}

/// A fresh, empty directory for one test.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("triphase_ckpt_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The solver config whose every exact rung fails numerically: a run
/// that really solves lands on the greedy rung.
fn armed_solver() -> PhaseConfig {
    PhaseConfig {
        hook: Some(FaultPlan::new(1).inject("phase.", Fault::Numeric).shared()),
        ..PhaseConfig::default()
    }
}

/// Run the flow over the store in `dir`, returning the result and each
/// observed stage with its hit flag.
fn run_in(dir: &Path, nl: &Netlist, cfg: &FlowConfig) -> (Result<FlowReport>, Vec<(Stage, bool)>) {
    let mut seen = Vec::new();
    let result = run_flow_memo(
        nl,
        &Library::synthetic_28nm(),
        cfg,
        &CheckpointDir::new(dir),
        &mut |o: StageObservation| {
            seen.push((o.stage, o.hit));
            ControlFlow::Continue(())
        },
    );
    (result, seen)
}

/// The stage entry files in `dir` whose name starts with `stage`.
fn entries(dir: &Path, stage: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with(stage) && name.ends_with(".stage")
        })
        .collect();
    found.sort();
    found
}

fn assert_bit_exact(a: &FlowReport, b: &FlowReport) {
    for (va, vb, name) in [
        (&a.ff, &b.ff, "ff"),
        (&a.ms, &b.ms, "ms"),
        (&a.three_phase, &b.three_phase, "3p"),
    ] {
        assert_eq!(
            va.power.total_mw().to_bits(),
            vb.power.total_mw().to_bits(),
            "{name} total power"
        );
        assert_eq!(
            va.power.clock.total().to_bits(),
            vb.power.clock.total().to_bits(),
            "{name} clock power"
        );
        assert_eq!(va.area_um2.to_bits(), vb.area_um2.to_bits(), "{name} area");
        assert_eq!(va.stats, vb.stats, "{name} stats");
        assert_eq!(
            va.wirelength_um.to_bits(),
            vb.wirelength_um.to_bits(),
            "{name} wirelength"
        );
    }
    assert_eq!(a.ilp_cost, b.ilp_cost);
    assert_eq!(a.ilp_optimal, b.ilp_optimal);
    assert_eq!(a.convert, b.convert);
    assert_eq!(a.cg, b.cg);
    assert_eq!(a.equiv_3p, b.equiv_3p);
    assert_eq!(a.equiv_ms, b.equiv_ms);
}

const ALL: [Stage; 4] = [
    Stage::Preprocess,
    Stage::Convert,
    Stage::Retime,
    Stage::ClockGate,
];

/// `ALL` paired with the given hit flags.
fn hits(flags: [bool; 4]) -> Vec<(Stage, bool)> {
    ALL.into_iter().zip(flags).collect()
}

#[test]
fn kill_after_retime_then_resume_reproduces_bit_exact_report() {
    let nl = linear_pipeline(4, 4, 1, 900.0);
    let dir = tmp_dir("kill_retime");

    // Reference: uninterrupted run, no store at all.
    let reference = run_flow(&nl, &Library::synthetic_28nm(), &quick_cfg()).unwrap();

    // Crashing run: dies right after the retime entry is durable.
    let crash_cfg = FlowConfig {
        fault: Some(
            FaultPlan::new(11)
                .inject("flow.stage.retime", Fault::Panic)
                .shared(),
        ),
        ..quick_cfg()
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| run_in(&dir, &nl, &crash_cfg)));
    assert!(crashed.is_err(), "the injected crash must fire");
    for stage in ["preprocess", "convert", "retime"] {
        assert_eq!(
            entries(&dir, stage).len(),
            1,
            "{stage} durable before the crash"
        );
    }
    assert!(entries(&dir, "clockgate").is_empty(), "clockgate never ran");

    // Resume run: the phase solver is armed with a numeric fault. If the
    // ILP stage were re-executed, the fallback chain would degrade to
    // the greedy rung — so an `Exact` rung in the resumed report proves
    // the stage was genuinely skipped.
    let resume_cfg = FlowConfig {
        phase_cfg: armed_solver(),
        ..quick_cfg()
    };
    let (resumed, seen) = run_in(&dir, &nl, &resume_cfg);
    let resumed = resumed.unwrap();
    assert_eq!(seen, hits([true, true, true, false]));
    assert_eq!(
        resumed.ilp_rung,
        SolveRung::Exact,
        "resume must skip the solved ILP stage (a re-run would have \
         fallen back to the greedy rung under the armed numeric fault)"
    );
    assert_eq!(resumed.ilp_fallbacks, 0);
    assert_bit_exact(&reference, &resumed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_solver_budget_recomputes_from_the_convert_stage() {
    let nl = linear_pipeline(3, 3, 1, 900.0);
    let dir = tmp_dir("stale_key");
    run_in(&dir, &nl, &quick_cfg()).0.unwrap();

    // Same store, a different ILP budget: the convert key moves, the
    // preprocess key does not. The armed numeric fault proves the
    // solver really re-ran. (Later stages may replay: their keys depend
    // only on the convert output, which the greedy rung may reproduce.)
    let mut cfg = quick_cfg();
    cfg.phase_cfg = PhaseConfig {
        ilp_max_vars: cfg.phase_cfg.ilp_max_vars + 1,
        ..armed_solver()
    };
    let (report, seen) = run_in(&dir, &nl, &cfg);
    let report = report.unwrap();
    assert_eq!(
        seen[..2],
        [(Stage::Preprocess, true), (Stage::Convert, false)]
    );
    assert_eq!(
        report.ilp_rung,
        SolveRung::Greedy,
        "a stale convert entry must not be adopted"
    );
    assert_eq!(report.equiv_3p, Some(true), "greedy result is still valid");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_checkpoint_resume_skips_everything_and_stays_bit_exact() {
    // Resume from a *complete* store (all four stages durable): all
    // transform stages replay, validation re-runs, report identical.
    let nl = linear_pipeline(3, 4, 1, 900.0);
    let dir = tmp_dir("full");

    let (first, seen) = run_in(&dir, &nl, &quick_cfg());
    let first = first.unwrap();
    assert_eq!(seen, hits([false; 4]));
    let (second, seen) = run_in(&dir, &nl, &quick_cfg());
    let second = second.unwrap();
    assert_eq!(seen, hits([true; 4]));
    assert_bit_exact(&first, &second);
    assert_eq!(first.lint.len(), second.lint.len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_store_is_a_typed_checkpoint_error() {
    // A regular file where the directory should be: no process, root
    // included, can create the store.
    let dir = tmp_dir("unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();

    let nl = linear_pipeline(3, 3, 1, 900.0);
    let (result, seen) = run_in(&blocker.join("store"), &nl, &quick_cfg());
    let err = result.unwrap_err();
    assert!(matches!(err, Error::Checkpoint(_)), "{err}");
    assert!(seen.is_empty(), "no stage is observed before it is banked");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_recomputed_not_adopted() {
    let nl = linear_pipeline(3, 3, 1, 900.0);
    let dir = tmp_dir("torn");
    let first = run_in(&dir, &nl, &quick_cfg()).0.unwrap();

    // Tear the convert entry as a crash mid-write without the atomic
    // rename would.
    let found = entries(&dir, "convert");
    let [path] = found.as_slice() else {
        panic!("one convert entry: {found:?}");
    };
    let whole = std::fs::read(path).unwrap();
    std::fs::write(path, &whole[..whole.len() / 2]).unwrap();

    // Convert recomputes bit-identically, so the later keys still match.
    let (second, seen) = run_in(&dir, &nl, &quick_cfg());
    let second = second.unwrap();
    assert_eq!(seen, hits([true, false, true, true]));
    assert_bit_exact(&first, &second);
    let rebanked = std::fs::read_to_string(path).unwrap();
    assert!(
        stage_data_from_text(&rebanked).is_some(),
        "the recomputed entry is banked whole again"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observer_break_is_a_typed_cancel_and_keeps_the_observed_stage() {
    let nl = linear_pipeline(3, 3, 1, 900.0);
    let dir = tmp_dir("cancel");
    let lib = Library::synthetic_28nm();

    let mut seen = Vec::new();
    let err = run_flow_memo(
        &nl,
        &lib,
        &quick_cfg(),
        &CheckpointDir::new(&dir),
        &mut |o: StageObservation| {
            seen.push(o.stage);
            if o.stage == Stage::Convert {
                ControlFlow::Break("cancelled")
            } else {
                ControlFlow::Continue(())
            }
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            Error::Cancelled {
                reason: "cancelled",
                last_banked: Some(Stage::Convert)
            }
        ),
        "{err}"
    );
    assert!(
        err.to_string().contains("last banked stage: convert"),
        "{err}"
    );
    assert_eq!(seen, [Stage::Preprocess, Stage::Convert]);

    // The rerun replays exactly the banked prefix.
    let (report, seen) = run_in(&dir, &nl, &quick_cfg());
    report.unwrap();
    assert_eq!(seen, hits([true, true, false, false]));

    let _ = std::fs::remove_dir_all(&dir);
}
