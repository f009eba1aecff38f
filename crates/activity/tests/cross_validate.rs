//! Cross-validation against the simulator on a correlation-free chain
//! circuit, where the independence assumption is exact: static density
//! must equal the measured toggle rate *exactly* (same f64). The
//! simulator runs 64 lanes (one machine word) of `cycles / 64` cycles
//! each.

use triphase_activity::{analyze, AnalysisOptions};
use triphase_netlist::{CellKind, ClockSpec, Netlist};
use triphase_sim::{run_random_compiled, Activity, LANES};

/// PI → buffer chain (plus a side register so the clocked simulator is
/// happy). Every chain net carries exactly the PI's transitions — an
/// inverting chain would add one reset-boundary toggle per lane when the
/// simulator's forced-zero reset state flips to the evaluated complement.
fn chain(len: usize) -> (Netlist, Vec<triphase_netlist::NetId>) {
    let mut nl = Netlist::new("chain");
    let (ckp, ck) = nl.add_input("ck");
    let (_, a) = nl.add_input("a");
    let mut nets = vec![a];
    let mut prev = a;
    for i in 0..len {
        let n = nl.add_net(format!("n{i}"));
        nl.add_cell(format!("u{i}"), CellKind::Buf, vec![prev, n]);
        nets.push(n);
        prev = n;
    }
    nl.add_output("y", prev);
    let q = nl.add_net("q");
    nl.add_cell("ff", CellKind::Dff, vec![a, ck, q]);
    nl.add_output("q", q);
    nl.clock = Some(ClockSpec::single(ckp, 1000.0));
    (nl, nets)
}

/// `cycles` total cycles of random stimulus over [`LANES`] lanes.
fn measure(nl: &Netlist, seed: u64, cycles: u64) -> Activity {
    let per_lane = cycles / LANES as u64;
    run_random_compiled(nl, seed, per_lane, LANES)
        .unwrap()
        .activity()
}

#[test]
fn static_density_equals_measured_rate_exactly_on_a_chain() {
    let (nl, nets) = chain(12);
    let cycles: u64 = 1024; // dyadic, so toggles/cycles is exact in f64
    let activity = measure(&nl, 7, cycles);
    let a = nets[0];
    let measured_pi = activity.net_toggles[a.index()] as f64 / activity.cycles as f64;
    assert!(measured_pi > 0.0, "stimulus must toggle the input");

    // Seed the static model's input from the measured profile; the
    // chain then has zero correlation and zero modeling slack, so every
    // downstream net must match the simulator bit-for-bit.
    let opts = AnalysisOptions {
        overrides: vec![(a, 0.5, measured_pi)],
        ..AnalysisOptions::default()
    };
    let model = analyze(&nl, &opts).unwrap();
    for &net in &nets {
        let measured = activity.net_toggles[net.index()] as f64 / activity.cycles as f64;
        let s = model.net(net);
        assert!(!s.correlated, "chain is correlation-free");
        assert_eq!(
            s.density, measured,
            "static == measured must hold exactly on net {net:?}"
        );
    }
}

#[test]
fn registered_chain_matches_within_one_boundary_toggle() {
    // Through a flip-flop the toggle stream is delayed one cycle, so
    // counts may differ by the window boundary — but no more.
    let (nl, _) = chain(4);
    let cycles: u64 = 2048;
    let activity = measure(&nl, 11, cycles);
    let a = nl.find_port("a").map(|p| nl.port(p).net).unwrap();
    let q = nl.find_port("q").map(|p| nl.port(p).net).unwrap();
    let measured_pi = activity.net_toggles[a.index()] as f64 / activity.cycles as f64;
    let opts = AnalysisOptions {
        overrides: vec![(a, 0.5, measured_pi)],
        ..AnalysisOptions::default()
    };
    let model = analyze(&nl, &opts).unwrap();
    let measured_q = activity.net_toggles[q.index()] as f64 / activity.cycles as f64;
    let lanes_slack = LANES as f64 / cycles as f64; // one boundary toggle per lane
    assert!(
        (model.net(q).density - measured_q).abs() <= lanes_slack,
        "static {} vs measured {}",
        model.net(q).density,
        measured_q
    );
}
