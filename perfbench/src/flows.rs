//! The two flow workloads: seeded inputs, the untimed correctness check,
//! and the traced replay of `run_flow_with`'s public calls.

use triphase_activity::AnalysisOptions;
use triphase_bench::{benchmarks, drive_stimulus, Scale, Stimulus};
use triphase_cells::Library;
use triphase_circuits::cpu;
use triphase_circuits::iscas::{generate_iscas, iscas_profiles};
use triphase_core::{
    apply_ddcg_placed, apply_ddcg_static, apply_m2, assign_phases, assign_phases_weighted,
    extract_ff_graph, gate_p2_common_enable, gated_clock_style, retime_three_phase, run_flow_with,
    to_master_slave, to_three_phase, CgReport, ConvertReport, FlowConfig, FlowReport,
};
use triphase_lint::{LintStage, Linter};
use triphase_netlist::{snapshot, Netlist};
use triphase_pnr::place_and_route;
use triphase_sim::{Activity, LANES, MAX_STREAMS};

use crate::stats::mix;
use crate::trace::JobTrace;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `flow_iscas`: s9234-profile ISCAS designs, random stimulus, two
    /// clients.
    Iscas,
    /// `flow_cores`: ArmM0-class cores, CPU stimulus, one client.
    Cores,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Iscas, Workload::Cores];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Iscas => "flow_iscas",
            Workload::Cores => "flow_cores",
        }
    }

    /// The percentile reported as `latency_tail_ms`: the highest of
    /// p50/p75/p90/p95/p99 that has at least ten samples beyond it at
    /// this workload's sample count per run (NOTES.md records the
    /// counts).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Iscas => 90.0,
            Workload::Cores => 50.0,
        }
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::Iscas => 2,
            Workload::Cores => 1,
        }
    }

    /// Distinct designs generated per run; jobs take them in order and
    /// wrap around. Enough that a run's figures average over many
    /// designs, few enough that the inputs stay a small share of the
    /// process's memory.
    fn designs(self) -> u64 {
        match self {
            Workload::Iscas => 64,
            Workload::Cores => 24,
        }
    }

    /// The paper-table row whose flow settings and stimulus style apply.
    fn row(self) -> &'static str {
        match self {
            Workload::Iscas => "s9234",
            Workload::Cores => "ArmM0",
        }
    }

    /// The seeded jobs of one run.
    pub fn jobs(self, seed: u64) -> Vec<FlowJob> {
        let row = benchmarks()
            .into_iter()
            .find(|b| b.name == self.row())
            .expect("the row is in the paper suite");
        let profile = iscas_profiles()
            .into_iter()
            .find(|p| p.name == "s9234")
            .expect("s9234 profile exists");
        (0..self.designs())
            .map(|i| {
                let job_seed = mix(seed, i);
                let nl = match self {
                    Workload::Iscas => generate_iscas(&profile, job_seed),
                    Workload::Cores => cpu::build_cpu(&cpu::m0_like(), job_seed).0,
                };
                let mut cfg = row.flow_config(Scale::Full);
                cfg.seed = job_seed;
                cfg.pnr.seed = job_seed;
                FlowJob {
                    nl,
                    cfg,
                    stim: Some(row.stimulus()),
                }
            })
            .collect()
    }
}

/// One flow job: a design, its settings and its stimulus.
pub struct FlowJob {
    /// The design.
    pub nl: Netlist,
    /// Flow settings.
    pub cfg: FlowConfig,
    /// Stimulus style for activity collection; `None` is the flow's own
    /// random stimulus on `cfg.sim_backend`, as the daemon runs it.
    pub stim: Option<Stimulus>,
}

impl FlowJob {
    fn drive(&self) -> impl Fn(&Netlist, u64) -> triphase_sim::Result<Activity> + Sync {
        let (seed, stim, backend) = (self.cfg.seed, self.stim, self.cfg.sim_backend);
        move |n: &Netlist, cycles: u64| match stim {
            Some(stim) => drive_stimulus(n, cycles, seed, stim),
            None => backend.collect(n, seed, cycles),
        }
    }

    /// Gate-cycles one activity drive of `nl` simulates: the cycles are
    /// split across up to [`LANES`] lanes for benchmark stimuli and up to
    /// [`MAX_STREAMS`] for the flow's own.
    fn gate_cycles(&self, nl: &Netlist, cycles: u64) -> f64 {
        let max = if self.stim.is_some() {
            LANES
        } else {
            MAX_STREAMS
        };
        let lanes = cycles.clamp(1, max as u64);
        (nl.stats().cells as u64 * lanes * cycles.div_ceil(lanes)) as f64
    }

    /// The job as a user runs it.
    ///
    /// # Errors
    ///
    /// Any flow failure.
    pub fn run(&self, lib: &Library) -> triphase_core::Result<FlowReport> {
        run_flow_with(&self.nl, lib, &self.cfg, &self.drive())
    }
}

/// The two QoR ratios of one finished job.
#[derive(Debug, Clone, Copy)]
pub struct Qor {
    /// 3-phase ÷ FF total power (paper Table II).
    pub power_3p_over_ff: f64,
    /// 3-phase ÷ master-slave register count (paper Table I).
    pub regs_3p_over_ms: f64,
}

/// Check a flow report and extract its QoR: both stream equivalences
/// must have run and passed, and every power and register count must be
/// a positive finite number.
///
/// # Errors
///
/// What is wrong with the report.
pub fn check(r: &FlowReport) -> Result<Qor, String> {
    if r.equiv_ms != Some(true) || r.equiv_3p != Some(true) {
        return Err(format!(
            "{}: equivalence ms {:?}, 3p {:?}",
            r.name, r.equiv_ms, r.equiv_3p
        ));
    }
    let power = [&r.ff, &r.ms, &r.three_phase].map(|v| v.power.total_mw());
    let regs = [&r.ff, &r.ms, &r.three_phase].map(|v| v.registers());
    if power.iter().any(|p| !p.is_finite() || *p <= 0.0) || regs.contains(&0) {
        return Err(format!("{}: power {power:?}, registers {regs:?}", r.name));
    }
    Ok(Qor {
        power_3p_over_ff: power[2] / power[0],
        regs_3p_over_ms: regs[2] as f64 / regs[1] as f64,
    })
}

/// What the traced replay of one job computed, for the per-layer
/// metrics and the drift guard.
#[derive(Debug, Default)]
pub struct Replay {
    /// ILP objective.
    pub ilp_cost: usize,
    /// Whether the ILP was solved to proven optimality.
    pub ilp_optimal: bool,
    /// Whether the static activity model was accepted.
    pub static_ok: bool,
    /// Whether two `to_three_phase` calls gave identical netlists.
    pub repeatable: bool,
    /// Conversion statistics.
    pub convert: ConvertReport,
    /// Clock-gating statistics.
    pub cg: CgReport,
    /// Registers of the FF, M-S and 3-phase variants.
    pub registers: [usize; 3],
    /// Total power of the FF, M-S and 3-phase variants, mW.
    pub power_mw: [f64; 3],
    /// Σ cells × moves per cell over every P&R call.
    pub pnr_moves: f64,
    /// Σ cells × lanes × cycles per lane over every activity drive.
    pub sim_gate_cycles: f64,
}

impl Replay {
    /// Whether the conversion cannot depend on map order: the two map
    /// walks in `to_three_phase` (clock gates serving both phases, and
    /// flagged primary inputs) only reorder the netlist when they insert
    /// two or more cells. Two calls can agree by chance otherwise.
    pub fn order_free(&self) -> bool {
        self.convert.icgs_duplicated <= 1 && self.convert.pi_latches <= 1
    }
}

fn err<E: std::fmt::Display>(layer: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{layer}: {e}")
}

/// One variant evaluation's outputs.
struct Variant {
    registers: usize,
    power_mw: f64,
    pnr_moves: f64,
    sim_gate_cycles: f64,
}

/// Replay the public calls `run_flow_with` makes for `job`, in its order
/// and with its arguments, timing each layer into `t`.
///
/// # Errors
///
/// The first failing call, prefixed with its layer.
pub fn replay(job: &FlowJob, lib: &Library, t: &JobTrace) -> Result<Replay, String> {
    let (nl, cfg) = (&job.nl, &job.cfg);
    let drive = job.drive();
    let moves = cfg.pnr.moves_per_cell as f64;
    let mut out = Replay::default();
    t.span("flow", None, |root| {
        let root = Some(root);
        nl.validate().map_err(err("netlist"))?;
        let linter = Linter::new();
        let lint = |n: &Netlist, stage| t.span("lint", root, |_| drop(linter.run(n, stage)));

        // 1. Preprocess, lint, dfa const.
        let pre = t.span("preprocess", root, |_| {
            let mut p = nl.clone();
            gated_clock_style(&mut p, cfg.cg_max_fanout).map(|_| p.compact())
        });
        let pre = pre.map_err(err("preprocess"))?;
        lint(&pre, LintStage::Preprocess);
        t.span("dfa", root, |_| {
            triphase_dfa::const_report(&pre, &pre.index(), Some("preprocess"))
        })
        .map_err(err("dfa"))?;

        // 2. Master-slave baseline, static activity.
        let ms_nl = t
            .span("convert", root, |_| to_master_slave(&pre))
            .map_err(err("convert"))?;
        let opts = AnalysisOptions {
            cut_budget: cfg.activity.cut_budget,
            ..AnalysisOptions::default()
        };
        let max_rate = cfg.activity.max_correlation_rate;
        let static_pre = t.span("activity", root, |_| {
            cfg.activity
                .enabled
                .then(|| triphase_activity::analyze(&pre, &opts).ok())
                .flatten()
                .filter(|m| m.converged)
        });
        out.static_ok = static_pre
            .as_ref()
            .is_some_and(|m| m.correlation_rate() <= max_rate);

        // 3. ILP, conversion (twice, for the repeatability check), lint.
        let a = t.span("ilp", root, |_| {
            let graph = extract_ff_graph(&pre, &pre.index())?;
            Ok::<_, triphase_core::Error>(match static_pre.as_ref().filter(|_| out.static_ok) {
                Some(model) => assign_phases_weighted(&graph, &cfg.phase_cfg, &pre, model),
                None => assign_phases(&graph, &cfg.phase_cfg),
            })
        });
        let a = a.map_err(err("ilp"))?;
        out.ilp_cost = a.cost;
        out.ilp_optimal = a.optimal;
        let (mut tp, convert) = t
            .span("convert", root, |_| to_three_phase(&pre, &a))
            .map_err(err("convert"))?;
        out.convert = convert;
        out.repeatable = t
            .span("convert.repeat", root, |_| to_three_phase(&pre, &a))
            .map(|(again, _)| snapshot::to_text(&again) == snapshot::to_text(&tp))
            .map_err(err("convert"))?;
        lint(&tp, LintStage::Convert);

        // 4. Retime, lint.
        if cfg.retime {
            tp = t
                .span("retime", root, |_| {
                    retime_three_phase(&tp, lib, cfg.retime_target_ratio)
                })
                .map_err(err("retime"))?
                .0;
            lint(&tp, LintStage::Retime);
        }

        // 5. Common-enable gating, M2, trial P&R, activity, DDCG.
        t.span("clockgate", root, |_| {
            if cfg.common_enable_cg {
                let r = gate_p2_common_enable(&mut tp, cfg.cg_max_fanout)?;
                out.cg.common_enable_gated = r.common_enable_gated;
                out.cg.m1_cells = r.m1_cells;
            }
            if cfg.m2 {
                out.cg.m2_replaced = apply_m2(&mut tp)?;
            }
            Ok::<_, triphase_core::Error>(())
        })
        .map_err(err("clockgate"))?;
        if cfg.ddcg {
            let trial = t
                .span("pnr.trial", root, |_| place_and_route(&tp, lib, &cfg.pnr))
                .map_err(err("pnr"))?;
            out.pnr_moves += tp.stats().cells as f64 * moves;
            let static_tp = out
                .static_ok
                .then(|| t.span("activity", root, |_| triphase_activity::analyze(&tp, &opts)))
                .and_then(Result::ok)
                .filter(|m| m.converged && m.correlation_rate() <= max_rate);
            let positions = Some(&trial.positions[..]);
            let r = match &static_tp {
                Some(model) => t.span("clockgate", root, |_| {
                    apply_ddcg_static(
                        &mut tp,
                        model,
                        cfg.ddcg_threshold,
                        cfg.cg_max_fanout,
                        positions,
                    )
                }),
                None => {
                    let activity = t
                        .span("sim", root, |_| drive(&tp, cfg.sim_cycles))
                        .map_err(err("sim"))?;
                    out.sim_gate_cycles += job.gate_cycles(&tp, cfg.sim_cycles);
                    t.span("clockgate", root, |_| {
                        apply_ddcg_placed(
                            &mut tp,
                            &activity,
                            cfg.ddcg_threshold,
                            cfg.cg_max_fanout,
                            positions,
                        )
                    })
                }
            };
            let r = r.map_err(err("clockgate"))?;
            out.cg.ddcg_groups = r.ddcg_groups;
            out.cg.ddcg_gated = r.ddcg_gated;
        }
        let tp = t.span("clockgate", root, |_| tp.compact());

        // 6. Lint, C2, dfa const/reset/race.
        lint(&tp, LintStage::ClockGate);
        let (tp_idx, c2) = t
            .span("timing", root, |_| {
                let idx = tp.index();
                triphase_timing::check_c2(&tp, lib, &idx).map(|c2| (idx, c2))
            })
            .map_err(err("timing"))?;
        if !c2.is_empty() {
            return Err(format!("timing: {} C2 violations", c2.len()));
        }
        t.span("dfa", root, |_| {
            triphase_dfa::const_report(&tp, &tp_idx, Some("clockgate"))?;
            triphase_dfa::reset_report(
                &pre,
                &tp,
                triphase_dfa::DEFAULT_RESET_CYCLES,
                Some("clockgate"),
            )?;
            triphase_dfa::race_report(&tp, lib, &tp_idx, Some("clockgate"))
        })
        .map_err(err("dfa"))?;

        // 7. Stream equivalence, M-S then 3-phase.
        if cfg.equiv_cycles > 0 {
            let warmup = if cfg.retime { 16 } else { 0 };
            for (dut, warm) in [(&ms_nl, 0), (&tp, warmup)] {
                let r = t
                    .span("sim.equiv", root, |_| {
                        triphase_sim::equiv_stream_warmup(
                            &pre,
                            dut,
                            cfg.seed,
                            cfg.equiv_cycles,
                            warm,
                        )
                    })
                    .map_err(err("sim"))?;
                if !r.equivalent() {
                    return Err(format!("sim: {} diverged", dut.name));
                }
            }
        }

        // 8. The three variant evaluations on the pool, as the flow runs them.
        let mut slots: [Option<Result<Variant, String>>; 3] = [None, None, None];
        t.span("par.fanout", root, |fan| {
            triphase_par::scope(|s| {
                for (nl, slot) in [pre, ms_nl, tp].into_iter().zip(slots.iter_mut()) {
                    let drive = &drive;
                    s.spawn(move || {
                        *slot = Some(t.span("variant", Some(fan), |v| {
                            evaluate(nl, job, lib, drive, t, v)
                        }));
                    });
                }
            });
        });
        for (i, slot) in slots.into_iter().enumerate() {
            let v = slot.expect("the scope joined every variant")?;
            out.registers[i] = v.registers;
            out.power_mw[i] = v.power_mw;
            out.pnr_moves += v.pnr_moves;
            out.sim_gate_cycles += v.sim_gate_cycles;
        }
        Ok(())
    })?;
    Ok(out)
}

/// Optimize, compact, P&R, drive, power, then STA — one variant, as the
/// flow's `evaluate` does it.
fn evaluate(
    nl: Netlist,
    job: &FlowJob,
    lib: &Library,
    drive: &(dyn Fn(&Netlist, u64) -> triphase_sim::Result<Activity> + Sync),
    t: &JobTrace,
    parent: usize,
) -> Result<Variant, String> {
    let (p, cfg) = (Some(parent), &job.cfg);
    let nl = t.span("netlist", p, |_| {
        let mut nl = nl;
        triphase_netlist::opt::optimize(&mut nl);
        nl.compact()
    });
    let layout = t
        .span("pnr", p, |_| place_and_route(&nl, lib, &cfg.pnr))
        .map_err(err("pnr"))?;
    let activity = t
        .span("sim", p, |_| drive(&nl, cfg.sim_cycles))
        .map_err(err("sim"))?;
    let power = t
        .span("power", p, |_| {
            triphase_power::estimate_power(&nl, lib, &activity, Some(&layout))
        })
        .map_err(err("power"))?;
    t.span("timing", p, |_| {
        let idx = nl.index();
        drop(triphase_timing::analyze_smo(
            &nl,
            lib,
            &idx,
            Some(&layout.net_wire_cap),
        ));
    });
    let stats = nl.stats();
    Ok(Variant {
        registers: stats.registers(),
        power_mw: power.total_mw(),
        pnr_moves: stats.cells as f64 * cfg.pnr.moves_per_cell as f64,
        sim_gate_cycles: job.gate_cycles(&nl, cfg.sim_cycles),
    })
}

/// The drift guard: the first layer at which a replay disagrees with
/// the report `run_flow_with` produced for the same job, or `None`.
pub fn first_divergence(r: &FlowReport, x: &Replay) -> Option<&'static str> {
    let variants = [&r.ff, &r.ms, &r.three_phase];
    if r.ilp_cost != x.ilp_cost {
        Some("ilp")
    } else if r.convert != x.convert {
        Some("convert")
    } else if r.cg != x.cg {
        Some("clockgate")
    } else if variants.map(|v| v.registers()) != x.registers {
        Some("netlist")
    } else if variants.map(|v| v.power.total_mw().to_bits()) != x.power_mw.map(f64::to_bits) {
        Some("power")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        for kind in Workload::ALL {
            let text = |seed| -> Vec<String> {
                let jobs = kind.jobs(seed);
                jobs.iter()
                    .take(2)
                    .map(|j| snapshot::to_text(&j.nl))
                    .collect()
            };
            let a = text(5);
            assert_eq!(a, text(5), "{kind:?}");
            assert_ne!(a, text(6), "{kind:?}");
        }
    }

    #[test]
    fn replay_matches_the_flow_where_conversion_is_order_free() {
        let lib = Library::synthetic_28nm();
        let mut checked = 0;
        for mut job in Workload::Iscas.jobs(11).into_iter().take(8) {
            job.cfg.sim_cycles = 48;
            job.cfg.equiv_cycles = 64;
            job.cfg.pnr.moves_per_cell = 2;
            let report = job.run(&lib).expect("flow runs");
            check(&report).expect("report checks");
            let t = JobTrace::new(0, std::time::Instant::now());
            let x = replay(&job, &lib, &t).expect("replay runs");
            let spans = t.into_spans();
            for layer in [
                "preprocess",
                "ilp",
                "convert",
                "pnr",
                "sim",
                "power",
                "variant",
            ] {
                assert!(spans.iter().any(|s| s.layer == layer), "{layer}");
            }
            if x.order_free() {
                assert!(x.repeatable);
                assert_eq!(first_divergence(&report, &x), None);
                checked += 1;
            }
        }
        assert!(checked > 0, "no order-free design among the first eight");
    }
}
