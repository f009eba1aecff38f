//! Stage replay: the memoization key of each flow stage, the exact text
//! form of a stage's artifacts, and [`CheckpointDir`], a directory of
//! those artifacts that makes a flow resumable.
//!
//! The flow resolves its four transform stages (preprocess, convert,
//! retime, clock gating — the same sites as the lint checkpoints)
//! through a [`StageMemo`] keyed by [`stage_key`]: the stage's input
//! netlist plus the configuration fields it reads. A rerun over the same
//! store adopts every stage whose key matches and recomputes only from
//! the first divergent one. Lint, formal-equivalence, and
//! stream-validation checkpoints always re-run (they are cheap and
//! deterministic given the replayed netlists), so a resumed
//! [`crate::FlowReport`] is bit-identical to an uninterrupted one in
//! everything but wall-clock timings.
//!
//! [`CheckpointDir`] keeps one `<stage>-<key>.stage` file per recorded
//! stage, written atomically (temp file + rename). A truncated or
//! malformed file reads as a miss — resume never adopts a torn entry.

use crate::clockgate::CgReport;
use crate::convert::ConvertReport;
use crate::error::{Error, Result};
use crate::flow::{FlowConfig, StageData, StageMemo};
use crate::preprocess::PreprocessReport;
use crate::retiming::RetimeReport;
use std::path::PathBuf;
use std::str::Lines;
use std::sync::atomic::{AtomicU64, Ordering};
use triphase_fault::fnv1a64;
use triphase_ilp::{SolveRung, Status};
use triphase_netlist::{snapshot, Netlist};

/// The flow stages that checkpoint, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Gated-clock preprocessing done (`pre` netlist final).
    Preprocess,
    /// Phase assignment + FF-to-latch conversion done.
    Convert,
    /// Modified retiming done.
    Retime,
    /// Clock gating done (final 3-phase netlist).
    ClockGate,
}

impl Stage {
    /// Stable lower-case name (used in filenames and fault sites).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Preprocess => "preprocess",
            Stage::Convert => "convert",
            Stage::Retime => "retime",
            Stage::ClockGate => "clockgate",
        }
    }
}

/// Summary of the phase-assignment solve carried by the convert stage's
/// [`StageData::Convert`] entry (public because stage memos hold it).
#[derive(Debug, Clone)]
pub struct IlpOutcome {
    /// ILP objective value (p2 insertions).
    pub cost: usize,
    /// Whether the solve reached proven optimality.
    pub optimal: bool,
    /// Solve wall-clock (s) — replayed verbatim on memo hits so
    /// the reported solver time is the time actually spent solving.
    pub seconds: f64,
    /// Which rung of the ILP → exact → greedy chain answered.
    pub rung: SolveRung,
    /// Solver termination status.
    pub status: Status,
    /// Rungs that failed before `rung` produced the answer.
    pub fallbacks: usize,
}

/// Fingerprint of the flow input: the exact netlist snapshot plus every
/// configuration field that influences a stage artifact. Policies
/// (lint/equiv), validation cycle counts, and the fault hook are
/// deliberately excluded — they never change stage artifacts.
///
/// Exported as `flow_fingerprint`: services key whole-report caches on
/// it (extended with the excluded fields that shape the report), because
/// two runs with equal fingerprints produce bit-identical stage
/// artifacts.
pub fn fingerprint(nl: &Netlist, cfg: &FlowConfig) -> u64 {
    use std::fmt::Write;
    let mut s = snapshot::to_text(nl);
    let time_ns = cfg.phase_cfg.time_limit.map_or(u128::MAX, |d| d.as_nanos());
    let _ = write!(
        s,
        "cfg {} {} {} {:016x} {} {} {} {:016x} {} {} {} {:016x} {} {:016x} {:016x} {} {} {:032x} {} {} {:016x}",
        cfg.seed,
        cfg.sim_cycles,
        cfg.retime as u8,
        cfg.retime_target_ratio.to_bits(),
        cfg.common_enable_cg as u8,
        cfg.m2 as u8,
        cfg.ddcg as u8,
        cfg.ddcg_threshold.to_bits(),
        cfg.cg_max_fanout,
        cfg.pnr.seed,
        cfg.pnr.moves_per_cell,
        cfg.pnr.utilization.to_bits(),
        cfg.pnr.cts_max_fanout,
        cfg.pnr.wire_cap_per_um.to_bits(),
        cfg.pnr.clock_wire_cap_per_um.to_bits(),
        cfg.phase_cfg.max_nodes,
        cfg.phase_cfg.ilp_max_vars,
        time_ns,
        cfg.activity.enabled as u8,
        cfg.activity.cut_budget,
        cfg.activity.max_correlation_rate.to_bits(),
    );
    fnv1a64(s.as_bytes())
}

/// Memoization key for one flow stage: the exact snapshot of the stage's
/// *input* netlist plus only the configuration fields that stage reads.
///
/// This is deliberately finer-grained than [`fingerprint`]: an edit that
/// only perturbs downstream logic leaves upstream stage keys unchanged,
/// so an incremental (ECO-style) resubmission re-runs exactly the stages
/// at/after the first divergent key. The per-stage field subsets:
///
/// - **Preprocess** (input: the source netlist): `cg_max_fanout` — the
///   ICG fan-out cap used when rewriting enable muxes to gated clocks.
/// - **Convert** (input: the preprocessed netlist): the ILP budget
///   (`phase_cfg.max_nodes` / `ilp_max_vars` / `time_limit`) and the
///   static-activity knobs that select and parameterize the weighted
///   objective (`activity.*`).
/// - **Retime** (input: the pristine 3-phase netlist):
///   `retime_target_ratio`.
/// - **ClockGate** (input: the retimed netlist): every gating flag and
///   threshold, the P&R options (DDCG runs a trial placement), the
///   stimulus seed + cycle count (the measured-activity fallback), the
///   `activity.*` knobs, and `extra` — the caller passes the flow's
///   `static_ok` decision bit, which is computed on the *preprocessed*
///   netlist and therefore not derivable from this stage's input alone.
///
/// `extra` is reserved-zero for the other three stages.
pub fn stage_key(stage: Stage, input: &Netlist, cfg: &FlowConfig, extra: u64) -> u64 {
    use std::fmt::Write;
    let mut s = snapshot::to_text(input);
    let _ = write!(s, "stage {} extra {:016x} ", stage.name(), extra);
    match stage {
        Stage::Preprocess => {
            let _ = write!(s, "{}", cfg.cg_max_fanout);
        }
        Stage::Convert => {
            let time_ns = cfg.phase_cfg.time_limit.map_or(u128::MAX, |d| d.as_nanos());
            let _ = write!(
                s,
                "{} {} {:032x} {} {} {:016x}",
                cfg.phase_cfg.max_nodes,
                cfg.phase_cfg.ilp_max_vars,
                time_ns,
                cfg.activity.enabled as u8,
                cfg.activity.cut_budget,
                cfg.activity.max_correlation_rate.to_bits(),
            );
        }
        Stage::Retime => {
            let _ = write!(s, "{:016x}", cfg.retime_target_ratio.to_bits());
        }
        Stage::ClockGate => {
            let _ = write!(
                s,
                "{} {} {} {:016x} {} {} {} {:016x} {} {:016x} {:016x} {} {} {} {} {:016x}",
                cfg.common_enable_cg as u8,
                cfg.m2 as u8,
                cfg.ddcg as u8,
                cfg.ddcg_threshold.to_bits(),
                cfg.cg_max_fanout,
                cfg.pnr.seed,
                cfg.pnr.moves_per_cell,
                cfg.pnr.utilization.to_bits(),
                cfg.pnr.cts_max_fanout,
                cfg.pnr.wire_cap_per_um.to_bits(),
                cfg.pnr.clock_wire_cap_per_um.to_bits(),
                cfg.seed,
                cfg.sim_cycles,
                cfg.activity.enabled as u8,
                cfg.activity.cut_budget,
                cfg.activity.max_correlation_rate.to_bits(),
            );
        }
    }
    fnv1a64(s.as_bytes())
}

/// A directory-backed [`StageMemo`]: the durable store a library caller
/// hands to [`crate::run_flow_memo`] to make a flow resumable. A killed
/// run leaves its completed stages on disk; a rerun over the same
/// directory replays them and recomputes from the first missing stage.
///
/// Each record is one `<stage>-<key>.stage` file holding the
/// [`stage_data_to_text`] payload, written to a temp file and renamed
/// into place, so a reader sees a whole entry or none. A file that does
/// not parse (torn, truncated, or foreign) reads as a miss.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    /// A store in `dir` (created on the first record).
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointDir {
        CheckpointDir { dir: dir.into() }
    }

    fn path(&self, stage: Stage, key: u64) -> PathBuf {
        self.dir.join(format!("{}-{key:016x}.stage", stage.name()))
    }
}

impl StageMemo for CheckpointDir {
    fn lookup(&self, stage: Stage, key: u64) -> Option<StageData> {
        stage_data_from_text(&std::fs::read_to_string(self.path(stage, key)).ok()?)
    }

    /// # Errors
    ///
    /// [`Error::Checkpoint`] on any I/O failure (unwritable directory,
    /// full disk, rename failure).
    fn record(&self, stage: Stage, key: u64, data: &StageData) -> Result<()> {
        // A temp name per write: concurrent writers never share one.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let io =
            |e: std::io::Error| Error::Checkpoint(format!("write {}: {e}", self.dir.display()));
        std::fs::create_dir_all(&self.dir).map_err(io)?;
        let path = self.path(stage, key);
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}.{n}.tmp", std::process::id()));
        std::fs::write(&tmp, stage_data_to_text(data)).map_err(io)?;
        std::fs::rename(&tmp, &path).map_err(io)
    }
}

fn push_netlist(out: &mut String, section: &str, nl: &Netlist) {
    let text = snapshot::to_text(nl);
    out.push_str(&format!("netlist {section} {}\n", text.lines().count()));
    out.push_str(&text);
    if !text.ends_with('\n') {
        out.push('\n');
    }
}

fn parse_netlist(r: &mut Lines<'_>, section: &str) -> Option<Netlist> {
    let header = r.next()?;
    let rest = header.strip_prefix("netlist ")?;
    let rest = rest.strip_prefix(section)?;
    let n_lines: usize = rest.trim().parse().ok()?;
    let mut text = String::new();
    for _ in 0..n_lines {
        text.push_str(r.next()?);
        text.push('\n');
    }
    snapshot::from_text(&text).ok()
}

fn parse_bool(s: &str) -> Option<bool> {
    match s {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn parse_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn rung_from(s: &str) -> Option<SolveRung> {
    Some(match s {
        "ilp" => SolveRung::Ilp,
        "exact" => SolveRung::Exact,
        "greedy" => SolveRung::Greedy,
        _ => return None,
    })
}

fn status_from(s: &str) -> Option<Status> {
    Some(match s {
        "optimal" => Status::Optimal,
        "feasible" => Status::Feasible,
        "node-limit" => Status::NodeLimit,
        "time-limit" => Status::TimeLimit,
        "infeasible" => Status::Infeasible,
        "unbounded" => Status::Unbounded,
        "aborted" => Status::Aborted,
        _ => return None,
    })
}

/// Serialize one stage entry to its exact text form — the payload of
/// [`CheckpointDir`] files and of `triphase-serve`'s job journal. Floats
/// are written as bit patterns and netlists as exact snapshot text, so a
/// replayed entry is byte-identical to the value the original run
/// recorded.
pub fn stage_data_to_text(data: &StageData) -> String {
    let mut s = String::new();
    s.push_str("triphase stagedata v1\n");
    match data {
        StageData::Preprocess(nl, rep) => {
            s.push_str(&format!(
                "preprocess {} {}\n",
                rep.converted_ffs, rep.icgs_inserted
            ));
            push_netlist(&mut s, "data", nl);
        }
        StageData::Convert {
            ilp,
            netlist,
            report,
        } => {
            s.push_str(&format!(
                "ilp {} {} {:016x} {} {} {}\n",
                ilp.cost,
                ilp.optimal as u8,
                ilp.seconds.to_bits(),
                ilp.rung.name(),
                ilp.status.name(),
                ilp.fallbacks
            ));
            s.push_str(&format!(
                "convert {} {} {} {}\n",
                report.singles, report.back_to_back, report.pi_latches, report.icgs_duplicated
            ));
            push_netlist(&mut s, "data", netlist);
        }
        StageData::Retime(nl, rep) => {
            s.push_str(&format!(
                "retime {} {} {:016x} {:016x} {} {} {} {}\n",
                rep.ran as u8,
                rep.fell_back as u8,
                rep.original_ps.to_bits(),
                rep.achieved_ps.to_bits(),
                rep.met_target as u8,
                rep.movable,
                rep.pinned,
                rep.p2_after
            ));
            push_netlist(&mut s, "data", nl);
        }
        StageData::ClockGate(nl, rep, secs) => {
            s.push_str(&format!(
                "clockgate {} {} {} {} {} {:016x}\n",
                rep.common_enable_gated,
                rep.m1_cells,
                rep.m2_replaced,
                rep.ddcg_groups,
                rep.ddcg_gated,
                secs.to_bits()
            ));
            push_netlist(&mut s, "data", nl);
        }
    }
    s.push_str("end\n");
    s
}

/// Parse a [`stage_data_to_text`] payload. Returns `None` on any
/// truncation or field corruption — a store or journal replaying entries
/// through this function drops torn records instead of adopting them.
pub fn stage_data_from_text(text: &str) -> Option<StageData> {
    let mut r = text.lines();
    if r.next()? != "triphase stagedata v1" {
        return None;
    }
    let head = r.next()?;
    let data = if let Some(rest) = head.strip_prefix("preprocess ") {
        let mut f = rest.split(' ');
        let rep = PreprocessReport {
            converted_ffs: f.next()?.parse().ok()?,
            icgs_inserted: f.next()?.parse().ok()?,
        };
        StageData::Preprocess(parse_netlist(&mut r, "data")?, rep)
    } else if let Some(rest) = head.strip_prefix("ilp ") {
        let mut f = rest.split(' ');
        let ilp = IlpOutcome {
            cost: f.next()?.parse().ok()?,
            optimal: parse_bool(f.next()?)?,
            seconds: parse_f64(f.next()?)?,
            rung: rung_from(f.next()?)?,
            status: status_from(f.next()?)?,
            fallbacks: f.next()?.parse().ok()?,
        };
        let mut c = r.next()?.strip_prefix("convert ")?.split(' ');
        let report = ConvertReport {
            singles: c.next()?.parse().ok()?,
            back_to_back: c.next()?.parse().ok()?,
            pi_latches: c.next()?.parse().ok()?,
            icgs_duplicated: c.next()?.parse().ok()?,
        };
        StageData::Convert {
            ilp,
            netlist: parse_netlist(&mut r, "data")?,
            report,
        }
    } else if let Some(rest) = head.strip_prefix("retime ") {
        let mut f = rest.split(' ');
        let rep = RetimeReport {
            ran: parse_bool(f.next()?)?,
            fell_back: parse_bool(f.next()?)?,
            original_ps: parse_f64(f.next()?)?,
            achieved_ps: parse_f64(f.next()?)?,
            met_target: parse_bool(f.next()?)?,
            movable: f.next()?.parse().ok()?,
            pinned: f.next()?.parse().ok()?,
            p2_after: f.next()?.parse().ok()?,
        };
        StageData::Retime(parse_netlist(&mut r, "data")?, rep)
    } else if let Some(rest) = head.strip_prefix("clockgate ") {
        let mut f = rest.split(' ');
        let rep = CgReport {
            common_enable_gated: f.next()?.parse().ok()?,
            m1_cells: f.next()?.parse().ok()?,
            m2_replaced: f.next()?.parse().ok()?,
            ddcg_groups: f.next()?.parse().ok()?,
            ddcg_gated: f.next()?.parse().ok()?,
        };
        let secs = parse_f64(f.next()?)?;
        StageData::ClockGate(parse_netlist(&mut r, "data")?, rep, secs)
    } else {
        return None;
    };
    if r.next()? != "end" {
        return None;
    }
    Some(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_circuits::pipeline::linear_pipeline;

    #[test]
    fn stage_data_round_trips_and_rejects_truncation() {
        let nl = linear_pipeline(3, 2, 1, 900.0);
        let entries = [
            StageData::Preprocess(
                nl.clone(),
                PreprocessReport {
                    converted_ffs: 3,
                    icgs_inserted: 1,
                },
            ),
            StageData::Convert {
                ilp: IlpOutcome {
                    cost: 4,
                    optimal: false,
                    seconds: 0.25,
                    rung: SolveRung::Ilp,
                    status: Status::Feasible,
                    fallbacks: 0,
                },
                netlist: nl.clone(),
                report: ConvertReport {
                    singles: 2,
                    back_to_back: 1,
                    pi_latches: 0,
                    icgs_duplicated: 1,
                },
            },
            StageData::Retime(
                nl.clone(),
                RetimeReport {
                    ran: true,
                    fell_back: false,
                    original_ps: 612.5,
                    achieved_ps: 450.0,
                    met_target: true,
                    movable: 2,
                    pinned: 1,
                    p2_after: 3,
                },
            ),
            StageData::ClockGate(
                nl.clone(),
                CgReport {
                    common_enable_gated: 1,
                    m1_cells: 1,
                    m2_replaced: 0,
                    ddcg_groups: 1,
                    ddcg_gated: 2,
                },
                1.5,
            ),
        ];
        for entry in &entries {
            let text = stage_data_to_text(entry);
            let back = stage_data_from_text(&text).expect("round-trips");
            assert_eq!(back.stage(), entry.stage());
            assert_eq!(stage_data_to_text(&back), text, "byte-identical replay");
            // Any truncation must be rejected, never half-adopted.
            for frac in [10, 40, 70, 95] {
                let cut = text.len() * frac / 100;
                assert!(
                    stage_data_from_text(&text[..cut]).is_none(),
                    "{} cut at {frac}%",
                    entry.stage().name()
                );
            }
        }
    }

    #[test]
    fn fingerprint_tracks_config_and_input() {
        let nl = linear_pipeline(3, 2, 1, 900.0);
        let cfg = FlowConfig::default();
        let a = fingerprint(&nl, &cfg);
        assert_eq!(a, fingerprint(&nl, &cfg.clone()), "deterministic");
        let mut c2 = cfg.clone();
        c2.seed = 999;
        assert_ne!(a, fingerprint(&nl, &c2), "seed is load-bearing");
        let mut c3 = cfg.clone();
        c3.ddcg_threshold += 0.01;
        assert_ne!(a, fingerprint(&nl, &c3));
        let other = linear_pipeline(4, 2, 1, 900.0);
        assert_ne!(a, fingerprint(&other, &cfg));
        // Policies and fault hooks are not fingerprinted.
        let mut c4 = cfg.clone();
        c4.lint = crate::LintPolicy::Deny;
        c4.fault = Some(triphase_fault::FaultPlan::new(7).shared());
        assert_eq!(a, fingerprint(&nl, &c4));
    }
}
