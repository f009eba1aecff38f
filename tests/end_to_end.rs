//! Cross-crate integration tests: full flows over the facade crate.

use triphase::pnr::PnrOptions;
use triphase::prelude::*;

fn quick_cfg() -> FlowConfig {
    FlowConfig {
        sim_cycles: 48,
        equiv_cycles: 96,
        pnr: PnrOptions {
            moves_per_cell: 2,
            ..PnrOptions::default()
        },
        ..FlowConfig::default()
    }
}

#[test]
fn pipeline_flow_produces_paper_shape() {
    let lib = Library::synthetic_28nm();
    let nl = linear_pipeline(6, 8, 2, 900.0);
    let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
    // Validation gates.
    assert_eq!(report.equiv_ms, Some(true));
    assert_eq!(report.equiv_3p, Some(true));
    // Table I shape: 3-phase beats master-slave on registers and area.
    assert!(report.three_phase.registers() < report.ms.registers());
    assert!(report.reg_saving_vs_2ff() > 15.0);
    assert!(report.three_phase.area_um2 < report.ms.area_um2 * 1.05);
    // Table II shape: master-slave clock power is the worst of the three.
    assert!(report.ms.power.clock.total() > report.three_phase.power.clock.total());
}

#[test]
fn real_s27_full_flow() {
    let lib = Library::synthetic_28nm();
    let nl = s27(1000.0);
    let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
    assert_eq!(report.equiv_3p, Some(true), "real ISCAS circuit converts");
    assert!(report.ilp_optimal);
}

#[test]
fn iscas_row_lands_on_calibrated_saving() {
    // s1423's profile is calibrated to the paper's 9.9% register saving.
    let lib = Library::synthetic_28nm();
    let profile = iscas_profiles()
        .into_iter()
        .find(|p| p.name == "s1423")
        .unwrap();
    let nl = generate_iscas(&profile, 42);
    let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
    assert_eq!(report.equiv_3p, Some(true));
    assert!(
        (report.reg_saving_vs_2ff() - 9.9).abs() < 3.0,
        "saving {:.1}% vs paper 9.9%",
        report.reg_saving_vs_2ff()
    );
}

#[test]
fn control_dominated_circuit_shows_no_benefit() {
    // The paper's s1488 observation.
    let lib = Library::synthetic_28nm();
    let profile = iscas_profiles()
        .into_iter()
        .find(|p| p.name == "s1488")
        .unwrap();
    let nl = generate_iscas(&profile, 42);
    let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
    assert_eq!(report.convert.singles, 0);
    assert!(report.reg_saving_vs_2ff() <= 0.5);
    assert_eq!(report.equiv_3p, Some(true));
}

#[test]
fn des3_core_full_flow_equivalent() {
    let lib = Library::synthetic_28nm();
    let spec = Des3Spec::new(7);
    let nl = des3_core(&spec, 2000.0);
    let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
    assert_eq!(report.equiv_3p, Some(true), "real Feistel core converts");
    assert!(
        report.reg_saving_vs_2ff() > 5.0,
        "bus-attached core saves latches"
    );
}

#[test]
fn cpu_flow_under_both_workloads() {
    use triphase::sim::{data_inputs, Stream};
    let lib = Library::synthetic_28nm();
    let mut cfg = m0_like();
    cfg.chain_regs = 4; // keep the test light
    let (nl, _) = build_cpu(&cfg, 11);
    for workload in [Workload::DhrystoneLike, Workload::CoremarkLike] {
        let report = run_flow_with(&nl, &lib, &quick_cfg(), &move |n, cycles| {
            let inputs = data_inputs(n);
            let mode = n.find_port("mode");
            let mut sim = Simulator::new(n)?;
            sim.reset_zero();
            let mut stream = Stream::new(5);
            for _ in 0..cycles {
                for &p in &inputs {
                    let v = if Some(p) == mode {
                        Logic::from_bool(workload.mode_bit())
                    } else {
                        Logic::from_bool(stream.next_bit())
                    };
                    sim.set_input(p, v);
                }
                sim.step_cycle();
            }
            Ok(sim.activity().clone())
        })
        .unwrap();
        assert_eq!(report.equiv_3p, Some(true), "{workload:?}");
        assert!(
            report.reg_saving_vs_2ff() > 20.0,
            "pipelined CPUs convert well"
        );
    }
}

#[test]
fn converted_design_roundtrips_through_verilog() {
    use triphase::netlist::verilog;
    let lib = Library::synthetic_28nm();
    let nl = linear_pipeline(4, 4, 1, 900.0);
    let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
    let text = verilog::to_verilog(&report.three_phase.netlist);
    let back = verilog::from_verilog(&text).unwrap();
    assert_eq!(
        back.stats(),
        report.three_phase.netlist.stats(),
        "3-phase netlist (latches + ICG variants) survives Verilog IO"
    );
    let _ = lib;
}

#[test]
fn smo_timing_clean_on_converted_designs() {
    let lib = Library::synthetic_28nm();
    let nl = linear_pipeline(5, 6, 1, 900.0);
    let report = run_flow(&nl, &lib, &quick_cfg()).unwrap();
    assert!(
        report.three_phase.worst_setup_slack_ps > f64::NEG_INFINITY,
        "SMO analysis ran"
    );
    assert!(
        report.three_phase.worst_hold_slack_ps >= 0.0,
        "3-phase conversion is hold-safe by construction (no direct p3->p1 paths)"
    );
}

/// Converting the same design with the same phase assignment yields the
/// same netlist, byte for byte: duplicated clock gates and primary-input
/// latches are inserted in cell and port order, so P&R and power see
/// one design per input.
#[test]
fn reconverting_gated_s5378_is_bit_identical() {
    let profile = iscas_profiles()
        .into_iter()
        .find(|p| p.name == "s5378")
        .unwrap();
    let mut ff = generate_iscas(&profile, 42);
    gated_clock_style(&mut ff, 32).unwrap();
    let idx = ff.index();
    let graph = extract_ff_graph(&ff, &idx).unwrap();
    let assignment = assign_phases(&graph, &PhaseConfig::default());
    let convert =
        || triphase::netlist::snapshot::to_text(&to_three_phase(&ff, &assignment).unwrap().0);
    let first = convert();
    for run in 1..4 {
        assert!(
            convert() == first,
            "reconversion {run} differs from the first"
        );
    }
}
