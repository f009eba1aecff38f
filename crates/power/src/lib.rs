//! Activity-based power estimation with the paper's Clock/Seq/Comb
//! grouping (Table II).
//!
//! Power is computed per net and per cell from simulation toggle counts
//! ([`triphase_sim::Activity`]), library capacitances/energies, and
//! (optionally) post-P&R wire capacitance and clock trees from
//! [`triphase_pnr::Layout`]:
//!
//! - **switching**: `½ · C · V² · α · f` per net, where `C` is wire plus
//!   sink pin capacitance;
//! - **internal**: per-toggle cell energy (plus per-clock-edge energy for
//!   sequential and clock-gating cells);
//! - **leakage**: static per-cell power.
//!
//! Group attribution follows sign-off convention: clock nets (everything
//! driven by a clock phase port, clock buffer, or ICG) and the virtual CTS
//! buffers belong to **Clock**; storage cells' internal/output power to
//! **Seq**; the rest to **Comb**.
//!
//! # Examples
//!
//! ```
//! use triphase_netlist::{Netlist, Builder, ClockSpec};
//! use triphase_cells::Library;
//! use triphase_sim::run_random;
//! use triphase_power::estimate_power;
//!
//! let mut nl = Netlist::new("d");
//! let mut b = Builder::new(&mut nl, "u");
//! let (ckp, ck) = b.netlist().add_input("ck");
//! let (_, d) = b.netlist().add_input("d");
//! let q = b.dff(d, ck);
//! b.netlist().add_output("q", q);
//! nl.clock = Some(ClockSpec::single(ckp, 1000.0));
//! let lib = Library::synthetic_28nm();
//! let sim = run_random(&nl, 7, 64).unwrap();
//! let report = estimate_power(&nl, &lib, sim.activity(), None)?;
//! assert!(report.total_mw() > 0.0);
//! # Ok::<(), triphase_power::Error>(())
//! ```

use std::fmt;
use triphase_cells::{CellKind, Library, VDD};
use triphase_netlist::{NetId, Netlist};
use triphase_pnr::Layout;
use triphase_sim::Activity;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by power estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The netlist has no clock specification (no frequency).
    NoClock,
    /// The activity profile covers no cycles.
    NoActivity,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoClock => write!(f, "netlist has no clock specification"),
            Error::NoActivity => write!(f, "activity profile has zero cycles"),
        }
    }
}

impl std::error::Error for Error {}

/// Power of one group (mW).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupPower {
    /// Net switching power.
    pub switching_mw: f64,
    /// Cell-internal power.
    pub internal_mw: f64,
    /// Leakage power.
    pub leakage_mw: f64,
}

impl GroupPower {
    /// Group total (mW).
    pub fn total(&self) -> f64 {
        self.switching_mw + self.internal_mw + self.leakage_mw
    }

    fn add(&mut self, other: GroupPower) {
        self.switching_mw += other.switching_mw;
        self.internal_mw += other.internal_mw;
        self.leakage_mw += other.leakage_mw;
    }
}

/// Grouped power report (mW), matching the paper's Table II columns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerReport {
    /// Clock network: clock nets, tree buffers, clock-gating cells.
    pub clock: GroupPower,
    /// Sequential cells (FFs/latches): internal + output switching.
    pub seq: GroupPower,
    /// Combinational logic and data nets.
    pub comb: GroupPower,
}

impl PowerReport {
    /// Total power (mW).
    pub fn total_mw(&self) -> f64 {
        self.clock.total() + self.seq.total() + self.comb.total()
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clock {:.3} mW, seq {:.3} mW, comb {:.3} mW, total {:.3} mW",
            self.clock.total(),
            self.seq.total(),
            self.comb.total(),
            self.total_mw()
        )
    }
}

/// Percentage saving of `new` vs `base` (positive = `new` is lower), the
/// paper's "Save (%)" convention.
pub fn percent_saving(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Clock,
    Seq,
    Comb,
}

/// Per-net toggle-rate source for the dynamic power term.
///
/// [`ActivitySource::Measured`] is the classic simulation-backed path.
/// [`ActivitySource::Static`] is the zero-simulation fast path: a per-net
/// transition-density vector (toggles/cycle, indexed by `NetId`), e.g.
/// `ActivityModel::densities()` from `triphase-activity`. Leakage and
/// capacitance terms are identical either way; only where `α` comes from
/// differs.
#[derive(Debug, Clone, Copy)]
pub enum ActivitySource<'a> {
    /// Toggle counts from a simulation.
    Measured(&'a Activity),
    /// Static per-net transition densities (toggles/cycle).
    Static(&'a [f64]),
}

/// Power-model options.
#[derive(Debug, Clone, Copy)]
pub struct PowerOptions {
    /// Estimate glitch power from input-arrival *depth spread* per
    /// combinational cell: a cycle-accurate simulator only sees final
    /// transitions, but real gates with unequal input arrival depths
    /// produce spurious transitions first. Extra transitions per output
    /// toggle are `glitch_beta × (max input depth − min input depth)` —
    /// the mechanism behind the paper's observation that latch-based
    /// designs (whose retimed half-stages are shallower) "often have less
    /// glitching" than FF designs.
    pub glitch_beta: f64,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions { glitch_beta: 0.25 }
    }
}

/// Estimate grouped power with default options (glitch model on).
///
/// `layout` supplies post-P&R wire capacitance and virtual clock-tree
/// buffers; without it, wire capacitance is zero (pre-layout estimate).
///
/// # Errors
///
/// [`Error::NoClock`] without a clock spec; [`Error::NoActivity`] if the
/// activity covers zero cycles.
pub fn estimate_power(
    nl: &Netlist,
    lib: &Library,
    activity: &Activity,
    layout: Option<&Layout>,
) -> Result<PowerReport> {
    estimate_power_with(nl, lib, activity, layout, &PowerOptions::default())
}

/// [`estimate_power`] with explicit [`PowerOptions`].
///
/// # Errors
///
/// Same as [`estimate_power`].
pub fn estimate_power_with(
    nl: &Netlist,
    lib: &Library,
    activity: &Activity,
    layout: Option<&Layout>,
    opts: &PowerOptions,
) -> Result<PowerReport> {
    estimate_power_from(nl, lib, ActivitySource::Measured(activity), layout, opts)
}

/// [`estimate_power_with`] over an explicit [`ActivitySource`]: the
/// entry point that selects between measured toggle counts and the
/// static zero-simulation density vector.
///
/// # Errors
///
/// [`Error::NoClock`] without a clock spec; [`Error::NoActivity`] for a
/// zero-cycle measured profile or an empty static density vector.
pub fn estimate_power_from(
    nl: &Netlist,
    lib: &Library,
    source: ActivitySource<'_>,
    layout: Option<&Layout>,
    opts: &PowerOptions,
) -> Result<PowerReport> {
    let clock = nl.clock.as_ref().ok_or(Error::NoClock)?;
    match source {
        ActivitySource::Measured(a) if a.cycles == 0 => return Err(Error::NoActivity),
        ActivitySource::Static([]) => return Err(Error::NoActivity),
        _ => {}
    }
    let period_ps = clock.period_ps;
    let idx = nl.index();

    // Classify each net by its driver.
    let clock_ports: Vec<NetId> = clock.phases.iter().map(|p| nl.port(p.port).net).collect();
    let group_of_net = |net: NetId| -> Group {
        if clock_ports.contains(&net) {
            return Group::Clock;
        }
        match idx.driver(net) {
            Some(drv) => {
                let kind = nl.cell(drv.cell).kind;
                if kind.is_clock_gate() || kind == CellKind::ClkBuf {
                    Group::Clock
                } else if kind.is_storage() {
                    Group::Seq
                } else {
                    Group::Comb
                }
            }
            None => Group::Comb, // PI-driven data nets
        }
    };

    let toggles = |net: NetId| -> f64 {
        match source {
            ActivitySource::Measured(a) => {
                a.net_toggles.get(net.index()).copied().unwrap_or(0) as f64 / a.cycles as f64
            }
            ActivitySource::Static(d) => d.get(net.index()).copied().unwrap_or(0.0),
        }
    };

    let mut report = PowerReport::default();
    let add = |report: &mut PowerReport, group: Group, p: GroupPower| match group {
        Group::Clock => report.clock.add(p),
        Group::Seq => report.seq.add(p),
        Group::Comb => report.comb.add(p),
    };

    // Glitch factor per net: extra transitions caused by unequal input
    // arrival depths at the driving cell (zero for sequential/clock
    // drivers and when the model is disabled).
    let glitch = glitch_factors(nl, &idx, opts.glitch_beta);

    // Net switching.
    for (net, _) in nl.nets() {
        let alpha = toggles(net) * (1.0 + glitch[net.index()]);
        if alpha == 0.0 {
            continue;
        }
        let mut cap = layout
            .map(|l| l.net_wire_cap.get(net.index()).copied().unwrap_or(0.0))
            .unwrap_or(0.0);
        for pin in idx.loads(net) {
            cap += lib.cell(nl.cell(pin.cell).kind).pin_cap(pin.pin);
        }
        let energy_fj = 0.5 * cap * VDD * VDD * alpha;
        add(
            &mut report,
            group_of_net(net),
            GroupPower {
                switching_mw: energy_fj / period_ps,
                ..GroupPower::default()
            },
        );
    }

    // Virtual CTS buffers: input caps + internal energy on each clock edge.
    if let Some(layout) = layout {
        let buf = lib.cell(CellKind::ClkBuf);
        for tree in &layout.clock_trees {
            let alpha = toggles(tree.net);
            let nbuf = tree.buffers as f64;
            let cap_fj = 0.5 * nbuf * buf.input_cap_ff * VDD * VDD * alpha;
            let int_fj = nbuf * buf.internal_energy_fj * alpha;
            add(
                &mut report,
                Group::Clock,
                GroupPower {
                    switching_mw: cap_fj / period_ps,
                    internal_mw: int_fj / period_ps,
                    leakage_mw: nbuf * buf.leakage_nw * 1e-6,
                },
            );
        }
    }

    // Cell internal + leakage.
    for (_, cell) in nl.cells() {
        let lc = lib.cell(cell.kind);
        let group = if cell.kind.is_storage() {
            Group::Seq
        } else if cell.kind.is_clock_gate() || cell.kind == CellKind::ClkBuf {
            Group::Clock
        } else {
            Group::Comb
        };
        let out_alpha = toggles(cell.output()) * (1.0 + glitch[cell.output().index()]);
        let mut internal_fj = lc.internal_energy_fj * out_alpha;
        if let Some(ckpin) = cell.kind.clock_pin() {
            let ck_alpha = toggles(cell.pin(ckpin));
            internal_fj += lc.clock_energy_fj * ck_alpha;
        }
        add(
            &mut report,
            group,
            GroupPower {
                switching_mw: 0.0,
                internal_mw: internal_fj / period_ps,
                leakage_mw: lc.leakage_nw * 1e-6,
            },
        );
    }

    Ok(report)
}

/// Per-net glitch factor: `beta × (max input depth − min input depth)`
/// of the driving combinational cell, in topological order.
fn glitch_factors(nl: &Netlist, idx: &triphase_netlist::ConnIndex, beta: f64) -> Vec<f64> {
    let mut factor = vec![0.0f64; nl.net_capacity()];
    if beta <= 0.0 {
        return factor;
    }
    let Ok(order) = triphase_netlist::graph::comb_topo_order(nl, idx) else {
        return factor;
    };
    let mut depth = vec![0.0f64; nl.net_capacity()];
    for id in order {
        let cell = nl.cell(id);
        let mut dmax = 0.0f64;
        let mut dmin = f64::INFINITY;
        for &input in cell.inputs() {
            let d = depth[input.index()];
            dmax = dmax.max(d);
            dmin = dmin.min(d);
        }
        if !dmin.is_finite() {
            dmin = 0.0;
        }
        let out = cell.output();
        depth[out.index()] = dmax + 1.0;
        factor[out.index()] = beta * (dmax - dmin);
    }
    factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_netlist::{Builder, ClockSpec, Netlist};
    use triphase_pnr::{place_and_route, PnrOptions};
    use triphase_sim::run_random;

    fn ff_bank(n: usize, gated: bool) -> Netlist {
        let mut nl = Netlist::new("bank");
        let mut b = Builder::new(&mut nl, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let ck_eff = if gated {
            let (_, en) = b.netlist().add_input("en");
            let gck = b.net("gck");
            b.netlist()
                .add_cell("icg", CellKind::Icg, vec![en, ck, gck]);
            gck
        } else {
            ck
        };
        let d = b.word_input("d", n);
        let q = b.dff_word(&d, ck_eff);
        b.word_output("q", &q);
        nl.clock = Some(ClockSpec::single(ckp, 1000.0));
        nl
    }

    #[test]
    fn zero_cycle_activity_is_rejected() {
        // Regression: estimating power over an activity with no simulated
        // cycles must be a typed error, not a divide-by-zero NaN report.
        let nl = ff_bank(4, false);
        let lib = Library::synthetic_28nm();
        let empty = triphase_sim::Activity {
            cycles: 0,
            net_toggles: vec![0; nl.net_capacity()],
        };
        assert!(matches!(
            estimate_power(&nl, &lib, &empty, None),
            Err(Error::NoActivity)
        ));
    }

    #[test]
    fn groups_are_populated() {
        let nl = ff_bank(8, false);
        let lib = Library::synthetic_28nm();
        let sim = run_random(&nl, 3, 64).unwrap();
        let r = estimate_power(&nl, &lib, sim.activity(), None).unwrap();
        assert!(r.clock.total() > 0.0, "clock pins toggle");
        assert!(r.seq.total() > 0.0);
        assert!(r.comb.total() > 0.0, "input nets switch");
        assert!(r.total_mw() > 0.0);
        assert!(r.to_string().contains("total"));
    }

    #[test]
    fn layout_increases_power() {
        let nl = ff_bank(16, false);
        let lib = Library::synthetic_28nm();
        let sim = run_random(&nl, 3, 64).unwrap();
        let bare = estimate_power(&nl, &lib, sim.activity(), None).unwrap();
        let layout = place_and_route(&nl, &lib, &PnrOptions::default()).unwrap();
        let routed = estimate_power(&nl, &lib, sim.activity(), Some(&layout)).unwrap();
        assert!(
            routed.total_mw() > bare.total_mw(),
            "wire caps and CTS buffers add power"
        );
        assert!(routed.clock.total() > bare.clock.total());
    }

    #[test]
    fn gating_reduces_clock_power() {
        // Same FF bank; with EN=0 the gated design's clock subtree is
        // silent, so clock power must drop.
        let lib = Library::synthetic_28nm();
        let free = ff_bank(16, false);
        let sim_free = run_random(&free, 3, 64).unwrap();
        let p_free = estimate_power(&free, &lib, sim_free.activity(), None).unwrap();

        let gated = ff_bank(16, true);
        let mut sim = triphase_sim::Simulator::new(&gated).unwrap();
        sim.reset_zero();
        let en = gated.find_port("en").unwrap();
        for _ in 0..64 {
            sim.set_input(en, triphase_sim::Logic::Zero);
            sim.step_cycle();
        }
        let p_gated = estimate_power(&gated, &lib, sim.activity(), None).unwrap();
        assert!(
            p_gated.clock.total() < p_free.clock.total() * 0.7,
            "gated {} vs free {}",
            p_gated.clock.total(),
            p_free.clock.total()
        );
    }

    #[test]
    fn higher_frequency_higher_power() {
        let lib = Library::synthetic_28nm();
        let mut slow = ff_bank(8, false);
        let fast = ff_bank(8, false);
        slow.clock.as_mut().unwrap().period_ps = 4000.0;
        let sim_slow = run_random(&slow, 3, 64).unwrap();
        let sim_fast = run_random(&fast, 3, 64).unwrap();
        let p_slow = estimate_power(&slow, &lib, sim_slow.activity(), None).unwrap();
        let p_fast = estimate_power(&fast, &lib, sim_fast.activity(), None).unwrap();
        assert!(p_fast.total_mw() > p_slow.total_mw() * 2.0);
    }

    #[test]
    fn latch_bank_cheaper_clock_than_ff_bank() {
        // The library premise: latch clock pins cost about half an FF's.
        let lib = Library::synthetic_28nm();
        let nl_ff = ff_bank(16, false);
        let sim_ff = run_random(&nl_ff, 3, 64).unwrap();
        let p_ff = estimate_power(&nl_ff, &lib, sim_ff.activity(), None).unwrap();

        let mut nl_lat = Netlist::new("latbank");
        let mut b = Builder::new(&mut nl_lat, "u");
        let (ckp, ck) = b.netlist().add_input("ck");
        let d = b.word_input("d", 16);
        let q: Vec<_> = d
            .bits()
            .iter()
            .enumerate()
            .map(|(i, &bit)| {
                let qn = b.net(&format!("q{i}"));
                let name = format!("lat{i}");
                b.netlist()
                    .add_cell(name, CellKind::LatchH, vec![bit, ck, qn]);
                qn
            })
            .collect();
        b.word_output("q", &triphase_netlist::Word(q));
        nl_lat.clock = Some(ClockSpec::single(ckp, 1000.0));
        let sim_lat = run_random(&nl_lat, 3, 64).unwrap();
        let p_lat = estimate_power(&nl_lat, &lib, sim_lat.activity(), None).unwrap();
        assert!(
            p_lat.clock.total() < p_ff.clock.total() * 0.75,
            "latch clock {} vs FF clock {}",
            p_lat.clock.total(),
            p_ff.clock.total()
        );
    }

    #[test]
    fn static_source_matches_measured_on_identical_rates() {
        // The static fast path must reproduce the measured estimate
        // exactly when fed the same per-net rates — only the source of
        // alpha differs, never the model.
        let nl = ff_bank(8, false);
        let lib = Library::synthetic_28nm();
        let sim = run_random(&nl, 5, 64).unwrap();
        let a = sim.activity();
        let rates: Vec<f64> = a
            .net_toggles
            .iter()
            .map(|&t| t as f64 / a.cycles as f64)
            .collect();
        let measured = estimate_power(&nl, &lib, a, None).unwrap();
        let opts = PowerOptions::default();
        let statics =
            estimate_power_from(&nl, &lib, ActivitySource::Static(&rates), None, &opts).unwrap();
        assert!((measured.total_mw() - statics.total_mw()).abs() < 1e-12);
        assert!((measured.clock.total() - statics.clock.total()).abs() < 1e-12);
        assert!(matches!(
            estimate_power_from(&nl, &lib, ActivitySource::Static(&[]), None, &opts),
            Err(Error::NoActivity)
        ));
    }

    #[test]
    fn percent_saving_convention() {
        assert_eq!(percent_saving(2.0, 1.0), 50.0);
        assert_eq!(percent_saving(1.0, 2.0), -100.0);
        assert_eq!(percent_saving(0.0, 1.0), 0.0);
    }

    #[test]
    fn errors() {
        let nl = ff_bank(2, false);
        let lib = Library::synthetic_28nm();
        let empty = Activity::default();
        assert!(matches!(
            estimate_power(&nl, &lib, &empty, None),
            Err(Error::NoActivity)
        ));
        let mut noclk = ff_bank(2, false);
        noclk.clock = None;
        let sim = run_random(&nl, 3, 8).unwrap();
        assert!(matches!(
            estimate_power(&noclk, &lib, sim.activity(), None),
            Err(Error::NoClock)
        ));
    }
}
