//! Differential fuzz campaign over the conversion pipeline (the `fuzz`
//! bin; report section `fuzz_campaign` in `results/BENCH_fuzz.json`).
//!
//! Three phases, all deterministic from one seed and independent of
//! `TRIPHASE_THREADS` (cases fan out over the work-stealing pool but
//! every case derives its own [`SplitMix64`] stream):
//!
//! 1. **differential** — recipe-generated netlists ([`Recipe`]) run
//!    through a stack of cross-checking oracles: structural validation,
//!    Verilog round-trip (stats + streamed equivalence), compiled-VM vs
//!    scalar-interpreter value and toggle exactness, and FF → 3-phase
//!    conversion proven both by input streaming and by the SAT checker.
//!    Any disagreement is a failure of the *tools*, not the input.
//! 2. **mutation** — adversarial structural mutants (stripped clocks,
//!    dangling nets, rewired pins, deleted cells, zeroed clock periods)
//!    and textual mutants (truncated/corrupted Verilog) are pushed
//!    through the same pipeline. Every mutant must end in `Ok` or a
//!    typed error — a panic is a certification failure. A mutant that
//!    stays structurally valid must still convert equivalently.
//! 3. **sabotage** — a semantic bug (gate-kind swap) is seeded into the
//!    *converted* design; when streaming finds a real output mismatch,
//!    the SAT checker must refuse to prove equivalence. A false proof is
//!    a failure. Detected cases are shrunk (greedy op removal while the
//!    detection persists) and the golden/mutant pair is persisted to the
//!    corpus directory for replay. Sabotage runs are intentional bugs:
//!    they are counted in their own section, never in the differential
//!    pass total.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use triphase_core::{assign_phases, extract_ff_graph, gated_clock_style, to_three_phase};
use triphase_equiv::{check_conversion, Options, Verdict};
use triphase_ilp::PhaseConfig;
use triphase_netlist::gen::Recipe;
use triphase_netlist::{verilog, CellKind, Netlist, SplitMix64};
use triphase_sim::{equiv_stream, run_random, run_random_compiled};

use crate::json::Json;

/// Campaign configuration (echoed into the report for reproducibility).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every phase derives its streams from it.
    pub seed: u64,
    /// Differential cases (phase 1).
    pub cases: usize,
    /// Adversarial mutants (phase 2, half structural / half textual).
    pub mutants: usize,
    /// Sabotage runs (phase 3).
    pub sabotage: usize,
    /// Maximum recipe length (exclusive).
    pub max_ops: usize,
    /// Maximum word width (exclusive).
    pub max_width: usize,
    /// Where shrunk sabotage reproducers are written (`None` skips
    /// persistence — unit tests).
    pub corpus_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// The reference campaign (the committed `results/BENCH_fuzz.json`).
    pub fn full(seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            cases: 600,
            mutants: 300,
            sabotage: 40,
            max_ops: 12,
            max_width: 8,
            corpus_dir: None,
        }
    }

    /// Reduced configuration for the CI `fuzz-smoke` job.
    pub fn quick(seed: u64) -> FuzzConfig {
        FuzzConfig {
            cases: 60,
            mutants: 40,
            sabotage: 6,
            ..FuzzConfig::full(seed)
        }
    }
}

/// One certification failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Phase that failed (`differential` / `mutation` / `sabotage`).
    pub phase: &'static str,
    /// Case index within the phase.
    pub case: usize,
    /// Recipe that produced the failure (hex op string).
    pub recipe: String,
    /// What went wrong.
    pub detail: String,
}

/// A shrunk, persisted sabotage reproducer.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// Sabotage case index.
    pub case: usize,
    /// Shrunk recipe ops (hex).
    pub ops_hex: String,
    /// Recipe word width.
    pub width: usize,
    /// Recipe stimulus seed.
    pub seed: u64,
    /// Ops before shrinking.
    pub ops_before: usize,
    /// Ops after shrinking.
    pub ops_after: usize,
    /// Name of the sabotaged cell in the converted design.
    pub cell: String,
    /// The seeded bug (e.g. `And2->Or2`).
    pub mutation: String,
    /// How the checker rejected it (`refuted` / `unknown`).
    pub verdict: String,
    /// First observed divergence.
    pub mismatch: String,
    /// Corpus files written (empty when persistence is off).
    pub files: Vec<String>,
}

/// Aggregated campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Configuration the campaign ran under.
    pub config: FuzzConfig,
    /// Differential cases that passed every oracle.
    pub passed: usize,
    /// Mutants that stayed valid through the whole pipeline.
    pub survived: usize,
    /// Mutants rejected with a typed error (the expected adversarial
    /// outcome).
    pub typed_errors: usize,
    /// First few typed rejection messages (audit sample).
    pub rejections: Vec<String>,
    /// Sabotage mutations with no observable behaviour change.
    pub benign: usize,
    /// Sabotage bugs caught by the checker.
    pub detected: usize,
    /// Sabotage bugs the checker wrongly proved equivalent (must be 0).
    pub false_proofs: usize,
    /// All certification failures, in phase/case order.
    pub failures: Vec<Failure>,
    /// Shrunk reproducers for every detected sabotage case.
    pub reproducers: Vec<Reproducer>,
    /// Corpus files written.
    pub corpus_entries: usize,
    /// Wall-clock seconds per phase.
    pub seconds: [f64; 3],
    /// Determinism fingerprint over all outcome data (timings excluded).
    pub fingerprint: u64,
}

impl CampaignReport {
    /// `true` when the campaign certifies: no failures, no false proofs,
    /// every differential case passed, and the sabotage leg demonstrated
    /// at least one detection (a campaign that never catches a seeded
    /// bug proves nothing).
    pub fn certified(&self) -> bool {
        self.failures.is_empty()
            && self.false_proofs == 0
            && self.passed == self.config.cases
            && self.detected > 0
    }

    /// Render the `fuzz_campaign` report section.
    pub fn to_json(&self) -> Json {
        let mut doc = crate::report::section();
        doc.set("generated_by", "fuzz".into());
        doc.set(
            "commit",
            match git_commit() {
                Some(c) => Json::Str(c),
                None => Json::Str("unknown".into()),
            },
        );
        let mut cfg = Json::obj();
        cfg.set("seed", format!("{:#x}", self.config.seed).into());
        cfg.set("cases", self.config.cases.into());
        cfg.set("mutants", self.config.mutants.into());
        cfg.set("sabotage", self.config.sabotage.into());
        cfg.set("max_ops", self.config.max_ops.into());
        cfg.set("max_width", self.config.max_width.into());
        doc.set("config", cfg);

        let failures = |phase: &str| -> Json {
            Json::Arr(
                self.failures
                    .iter()
                    .filter(|f| f.phase == phase)
                    .map(|f| {
                        let mut row = Json::obj();
                        row.set("case", f.case.into());
                        row.set("recipe", f.recipe.as_str().into());
                        row.set("detail", f.detail.as_str().into());
                        row
                    })
                    .collect(),
            )
        };

        let mut diff = Json::obj();
        diff.set("cases", self.config.cases.into());
        diff.set("passed", self.passed.into());
        diff.set("seconds", self.seconds[0].into());
        diff.set("failures", failures("differential"));
        doc.set("differential", diff);

        let mut mutation = Json::obj();
        mutation.set("mutants", self.config.mutants.into());
        mutation.set("survived", self.survived.into());
        mutation.set("typed_errors", self.typed_errors.into());
        mutation.set(
            "sample_rejections",
            Json::Arr(self.rejections.iter().map(|r| r.as_str().into()).collect()),
        );
        mutation.set("seconds", self.seconds[1].into());
        mutation.set("failures", failures("mutation"));
        doc.set("mutation", mutation);

        let mut sab = Json::obj();
        sab.set("runs", self.config.sabotage.into());
        sab.set("detected", self.detected.into());
        sab.set("benign", self.benign.into());
        sab.set("false_proofs", self.false_proofs.into());
        sab.set("seconds", self.seconds[2].into());
        sab.set(
            "reproducers",
            Json::Arr(
                self.reproducers
                    .iter()
                    .map(|r| {
                        let mut row = Json::obj();
                        row.set("case", r.case.into());
                        row.set("ops", r.ops_hex.as_str().into());
                        row.set("width", r.width.into());
                        row.set("seed", r.seed.into());
                        row.set("ops_before", r.ops_before.into());
                        row.set("ops_after", r.ops_after.into());
                        row.set("cell", r.cell.as_str().into());
                        row.set("mutation", r.mutation.as_str().into());
                        row.set("verdict", r.verdict.as_str().into());
                        row.set("mismatch", r.mismatch.as_str().into());
                        row.set(
                            "files",
                            Json::Arr(r.files.iter().map(|f| f.as_str().into()).collect()),
                        );
                        row
                    })
                    .collect(),
            ),
        );
        sab.set("failures", failures("sabotage"));
        doc.set("sabotage", sab);

        doc.set("corpus_entries", self.corpus_entries.into());
        doc.set("fingerprint", format!("{:016x}", self.fingerprint).into());
        doc.set("certified", self.certified().into());
        doc
    }
}

/// The flow's preprocessing + conversion, kept in lockstep with
/// `run_flow_with` and the `equiv` bin: gated-clock style, compact,
/// phase assignment, 3-phase conversion.
fn prepare(nl: &Netlist) -> Result<(Netlist, Netlist), String> {
    let mut pre = nl.clone();
    gated_clock_style(&mut pre, 32).map_err(|e| e.to_string())?;
    let pre = pre.compact();
    let idx = pre.index();
    let graph = extract_ff_graph(&pre, &idx).map_err(|e| e.to_string())?;
    let assignment = assign_phases(&graph, &PhaseConfig::default());
    let (tp, _) = to_three_phase(&pre, &assignment).map_err(|e| e.to_string())?;
    Ok((pre, tp))
}

/// Phase-1 oracle stack for one recipe.
fn differential_case(r: &Recipe) -> Result<(), String> {
    let nl = r.build();
    nl.validate().map_err(|e| format!("validate: {e}"))?;

    // Verilog round-trip: identical stats and streamed equivalence.
    // Structural Verilog carries no clock spec, so re-attach the
    // original one before streaming (else `ck` looks like a data input).
    let text = verilog::to_verilog(&nl);
    let mut back = verilog::from_verilog(&text).map_err(|e| format!("verilog parse: {e}"))?;
    if back.stats() != nl.stats() {
        return Err("verilog round-trip changed stats".into());
    }
    if let (Some(spec), Some(port)) = (nl.clock.as_ref(), back.find_port("ck")) {
        back.clock = Some(triphase_netlist::ClockSpec::single(port, spec.period_ps));
    }
    let rt = equiv_stream(&nl, &back, r.seed, 32).map_err(|e| format!("round-trip equiv: {e}"))?;
    if let Some(m) = rt.mismatch {
        return Err(format!(
            "verilog round-trip mismatch at cycle {} port {}",
            m.cycle, m.port
        ));
    }

    // Compiled bytecode VM vs the scalar interpreter: single-lane
    // toggles bit-exact, and the multi-word path's lane 0 must replay
    // the identical trajectory value for value.
    let scalar = run_random(&nl, r.seed, 24).map_err(|e| format!("scalar sim: {e}"))?;
    let compiled =
        run_random_compiled(&nl, r.seed, 24, 1).map_err(|e| format!("compiled sim: {e}"))?;
    if compiled.activity().net_toggles != scalar.activity().net_toggles {
        return Err("compiled VM toggles diverge from scalar interpreter".into());
    }
    let wide =
        run_random_compiled(&nl, r.seed, 24, 96).map_err(|e| format!("compiled wide sim: {e}"))?;
    for (net, _) in nl.nets() {
        if wide.net_value_lane(net, 0) != scalar.net_value(net) {
            return Err(format!(
                "compiled multi-word lane 0 diverges from scalar on net {net:?}"
            ));
        }
    }

    // FF -> 3-phase conversion: streamed and SAT-proven equivalent.
    let (pre, tp) = prepare(&nl)?;
    let sim = equiv_stream(&pre, &tp, r.seed, 48).map_err(|e| format!("conversion stream: {e}"))?;
    if let Some(m) = sim.mismatch {
        return Err(format!(
            "conversion sim mismatch at cycle {} port {}",
            m.cycle, m.port
        ));
    }
    let conv = check_conversion(&pre, &tp, &Options::default())
        .map_err(|e| format!("check_conversion: {e}"))?;
    match conv.verdict {
        Verdict::Equivalent { .. } => Ok(()),
        Verdict::NotEquivalent { mismatch, .. } => Err(format!(
            "conversion refuted: cycle {} port {}",
            mismatch.cycle, mismatch.port
        )),
        Verdict::Unknown { reason, .. } => Err(format!("conversion unproven: {reason}")),
    }
}

/// Full pipeline on a (possibly mutated) netlist: `Ok(())` when the
/// design converts and both conversion proofs hold, `Err` for a typed
/// rejection anywhere along the way. A mutant that *converts* but fails
/// its own equivalence proof is reported distinctly — that is a tool
/// bug, not an input problem.
fn pipeline_outcome(nl: &Netlist, seed: u64) -> Result<(), PipelineReject> {
    nl.validate()
        .map_err(|e| PipelineReject::Typed(format!("validate: {e}")))?;
    let (pre, tp) = prepare(nl).map_err(PipelineReject::Typed)?;
    let sim = equiv_stream(&pre, &tp, seed, 16)
        .map_err(|e| PipelineReject::Typed(format!("equiv stream: {e}")))?;
    if let Some(m) = sim.mismatch {
        return Err(PipelineReject::ToolBug(format!(
            "conversion of valid mutant mismatches at cycle {} port {}",
            m.cycle, m.port
        )));
    }
    Ok(())
}

enum PipelineReject {
    /// Expected adversarial outcome: a typed error.
    Typed(String),
    /// The pipeline accepted the mutant but produced a wrong design.
    ToolBug(String),
}

/// Swap a combinational cell kind for its dual (a guaranteed-local,
/// usually behaviour-changing edit). Storage, clock-tree, and constant
/// cells are left alone.
fn swapped_kind(kind: CellKind) -> Option<(CellKind, &'static str)> {
    match kind {
        CellKind::And(n) => Some((CellKind::Or(n), "And->Or")),
        CellKind::Or(n) => Some((CellKind::And(n), "Or->And")),
        CellKind::Xor(n) => Some((CellKind::Xnor(n), "Xor->Xnor")),
        CellKind::Xnor(n) => Some((CellKind::Xor(n), "Xnor->Xor")),
        CellKind::Nand(n) => Some((CellKind::Nor(n), "Nand->Nor")),
        CellKind::Nor(n) => Some((CellKind::Nand(n), "Nor->Nand")),
        CellKind::Inv => Some((CellKind::Buf, "Inv->Buf")),
        CellKind::Buf => Some((CellKind::Inv, "Buf->Inv")),
        _ => None,
    }
}

/// Apply 1–3 structural mutations; returns a description.
fn mutate_structural(nl: &mut Netlist, rng: &mut SplitMix64) -> String {
    let count = rng.range(1, 4);
    let mut desc = Vec::new();
    for _ in 0..count {
        match rng.below(6) {
            0 => {
                nl.clock = None;
                desc.push("strip-clock".to_string());
            }
            1 => {
                let nets: Vec<_> = nl.nets().map(|(id, _)| id).collect();
                if !nets.is_empty() {
                    nl.remove_net(nets[rng.below(nets.len())]);
                    desc.push("remove-net".to_string());
                }
            }
            2 => {
                let cells: Vec<_> = nl
                    .cells()
                    .filter(|(_, c)| !c.inputs().is_empty())
                    .map(|(id, _)| id)
                    .collect();
                let nets: Vec<_> = nl.nets().map(|(id, _)| id).collect();
                if !cells.is_empty() && !nets.is_empty() {
                    let cell = cells[rng.below(cells.len())];
                    let pin = rng.below(nl.cell(cell).inputs().len());
                    let net = nets[rng.below(nets.len())];
                    nl.set_pin(cell, pin, net);
                    desc.push("rewire-pin".to_string());
                }
            }
            3 => {
                let cells: Vec<_> = nl
                    .cells()
                    .filter_map(|(id, c)| swapped_kind(c.kind).map(|(k, d)| (id, k, d)))
                    .collect();
                if !cells.is_empty() {
                    let (id, kind, d) = cells[rng.below(cells.len())];
                    let pins = nl.cell(id).pins().to_vec();
                    nl.replace_cell(id, kind, pins);
                    desc.push(d.to_string());
                }
            }
            4 => {
                let cells: Vec<_> = nl.cells().map(|(id, _)| id).collect();
                if !cells.is_empty() {
                    nl.remove_cell(cells[rng.below(cells.len())]);
                    desc.push("remove-cell".to_string());
                }
            }
            _ => {
                if let Some(c) = nl.clock.as_mut() {
                    c.period_ps = 0.0;
                    desc.push("zero-period".to_string());
                }
            }
        }
    }
    desc.join("+")
}

/// Corrupt Verilog text: truncate, flip a character, or drop/duplicate a
/// line.
fn mutate_text(text: &str, rng: &mut SplitMix64) -> String {
    match rng.below(4) {
        0 => {
            let mut at = rng.below(text.len().max(1));
            while at > 0 && !text.is_char_boundary(at) {
                at -= 1;
            }
            text[..at].to_string()
        }
        1 => {
            let mut bytes: Vec<u8> = text.bytes().collect();
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] = b' ' + (rng.next_u64() % 94) as u8; // printable ASCII
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        2 => {
            let lines: Vec<&str> = text.lines().collect();
            let drop = rng.below(lines.len().max(1));
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>()
                .join("\n")
        }
        _ => {
            let lines: Vec<&str> = text.lines().collect();
            let dup = rng.below(lines.len().max(1));
            let mut out: Vec<&str> = Vec::new();
            for (i, l) in lines.iter().enumerate() {
                out.push(l);
                if i == dup {
                    out.push(l);
                }
            }
            out.join("\n")
        }
    }
}

/// Outcome of one sabotage case.
enum SabotageOutcome {
    /// The converted design had no swappable combinational cell.
    NoTarget,
    /// The swap changed nothing observable within the stream window.
    Benign,
    /// Streaming found a mismatch and the checker rejected the design.
    Detected {
        cell: String,
        mutation: String,
        verdict: String,
        mismatch: String,
    },
    /// Streaming found a mismatch but the checker proved equivalence.
    FalseProof(String),
    /// The pipeline errored before the oracle could run.
    Error(String),
}

/// Build the golden/mutant pair for a sabotage case. `pick` selects the
/// target cell deterministically (`pick % targets`), so the same raw
/// draw re-selects a comparable target as the recipe shrinks.
fn sabotage_pair(
    r: &Recipe,
    pick: u64,
) -> Result<Option<(Netlist, Netlist, String, String)>, String> {
    let nl = r.build();
    let (pre, tp) = prepare(&nl)?;
    let targets: Vec<_> = tp
        .cells()
        .filter_map(|(id, c)| swapped_kind(c.kind).map(|(k, d)| (id, k, d)))
        .collect();
    if targets.is_empty() {
        return Ok(None);
    }
    let (id, kind, desc) = targets[(pick % targets.len() as u64) as usize];
    let cell = tp.cell(id).name.clone();
    let pins = tp.cell(id).pins().to_vec();
    let mut mutant = tp;
    mutant.replace_cell(id, kind, pins);
    Ok(Some((pre, mutant, cell, desc.to_string())))
}

/// Run one sabotage case end to end.
fn sabotage_case(r: &Recipe, pick: u64) -> SabotageOutcome {
    let (pre, mutant, cell, mutation) = match sabotage_pair(r, pick) {
        Err(e) => return SabotageOutcome::Error(e),
        Ok(None) => return SabotageOutcome::NoTarget,
        Ok(Some(pair)) => pair,
    };
    let sim = match equiv_stream(&pre, &mutant, r.seed, 128) {
        Err(e) => return SabotageOutcome::Error(format!("sabotage stream: {e}")),
        Ok(sim) => sim,
    };
    let Some(mm) = sim.mismatch else {
        return SabotageOutcome::Benign;
    };
    let conv = match check_conversion(&pre, &mutant, &Options::default()) {
        Err(e) => return SabotageOutcome::Error(format!("sabotage check: {e}")),
        Ok(conv) => conv,
    };
    match conv.verdict {
        Verdict::Equivalent { .. } => SabotageOutcome::FalseProof(format!(
            "checker proved sabotaged cell {cell} ({mutation}) equivalent despite \
             sim mismatch at cycle {} port {}",
            mm.cycle, mm.port
        )),
        Verdict::NotEquivalent { mismatch, .. } => SabotageOutcome::Detected {
            cell,
            mutation,
            verdict: "refuted".into(),
            mismatch: format!("cycle {} port {}", mismatch.cycle, mismatch.port),
        },
        Verdict::Unknown { reason, .. } => SabotageOutcome::Detected {
            cell,
            mutation,
            verdict: "unknown".into(),
            mismatch: format!("sim cycle {} port {} ({reason})", mm.cycle, mm.port),
        },
    }
}

/// Greedy shrink: drop recipe ops left to right while the sabotage bug
/// stays detected (same raw `pick`, re-applied to the smaller design).
fn shrink(r: &Recipe, pick: u64) -> Recipe {
    let mut cur = r.clone();
    let mut i = 0;
    while i < cur.ops.len() && cur.ops.len() > 1 {
        let mut trial = cur.clone();
        trial.ops.remove(i);
        if matches!(
            sabotage_case(&trial, pick),
            SabotageOutcome::Detected { .. }
        ) {
            cur = trial;
        } else {
            i += 1;
        }
    }
    cur
}

fn ops_hex(ops: &[u8]) -> String {
    ops.iter().map(|b| format!("{b:02x}")).collect()
}

fn panic_detail(task: &str, payload: Box<dyn std::any::Any + Send>) -> String {
    triphase_core::Error::from_panic(task, payload).to_string()
}

fn mix(h: &mut u64, v: u64) {
    *h = SplitMix64::new(*h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
}

fn mix_str(h: &mut u64, s: &str) {
    mix(h, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut v = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            v |= (b as u64) << (8 * i);
        }
        mix(h, v);
    }
}

/// Best-effort commit id for provenance: walk up to `.git`, chase `HEAD`.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim().to_string();
            return match text.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(dir.join(".git").join(r))
                    .ok()
                    .map(|s| s.trim().to_string()),
                None => Some(text),
            };
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Run the full campaign. `progress` prints per-phase summaries to
/// stderr.
pub fn run_campaign(cfg: &FuzzConfig, progress: bool) -> CampaignReport {
    let mut failures: Vec<Failure> = Vec::new();

    // Phase 1: differential oracles.
    let t0 = Instant::now();
    let recipes = Recipe::stream(cfg.seed, cfg.cases, cfg.max_ops, cfg.max_width);
    let results = triphase_par::par_map(&recipes, |r| {
        catch_unwind(AssertUnwindSafe(|| differential_case(r)))
            .unwrap_or_else(|p| Err(panic_detail("fuzz.differential", p)))
    });
    let mut passed = 0usize;
    for (i, (r, res)) in recipes.iter().zip(results).enumerate() {
        match res {
            Ok(()) => passed += 1,
            Err(detail) => failures.push(Failure {
                phase: "differential",
                case: i,
                recipe: format!("ops {} width {} seed {}", ops_hex(&r.ops), r.width, r.seed),
                detail,
            }),
        }
    }
    let s0 = t0.elapsed().as_secs_f64();
    if progress {
        eprintln!(
            "[fuzz] differential: {passed}/{} passed in {s0:.1}s",
            cfg.cases
        );
    }

    // Phase 2: adversarial mutants (even index structural, odd textual).
    let t1 = Instant::now();
    let bases = Recipe::stream(
        cfg.seed.wrapping_add(1),
        cfg.mutants,
        cfg.max_ops,
        cfg.max_width,
    );
    let indexed: Vec<(usize, &Recipe)> = bases.iter().enumerate().collect();
    let outcomes = triphase_par::par_map(&indexed, |&(i, r)| {
        let mut rng = SplitMix64::new(cfg.seed ^ (0xB0B0_0000 + i as u64));
        let structural = i % 2 == 0;
        let run = catch_unwind(AssertUnwindSafe(|| {
            if structural {
                let mut nl = r.build();
                let desc = mutate_structural(&mut nl, &mut rng);
                (desc, pipeline_outcome(&nl, r.seed))
            } else {
                let text = mutate_text(&verilog::to_verilog(&r.build()), &mut rng);
                let desc = "verilog-corruption".to_string();
                match verilog::from_verilog(&text) {
                    Err(e) => (desc, Err(PipelineReject::Typed(format!("parse: {e}")))),
                    Ok(nl) => (desc, pipeline_outcome(&nl, r.seed)),
                }
            }
        }));
        match run {
            Err(p) => Err((String::new(), panic_detail("fuzz.mutation", p))),
            Ok((desc, Ok(()))) => Ok((desc, None)),
            Ok((desc, Err(PipelineReject::Typed(msg)))) => Ok((desc, Some(msg))),
            Ok((desc, Err(PipelineReject::ToolBug(msg)))) => Err((desc, msg)),
        }
    });
    let mut survived = 0usize;
    let mut typed_errors = 0usize;
    let mut rejections: Vec<String> = Vec::new();
    for ((i, r), out) in indexed.iter().zip(outcomes) {
        match out {
            Ok((_, None)) => survived += 1,
            Ok((desc, Some(msg))) => {
                typed_errors += 1;
                if rejections.len() < 5 {
                    rejections.push(format!("{desc}: {msg}"));
                }
            }
            Err((desc, detail)) => failures.push(Failure {
                phase: "mutation",
                case: *i,
                recipe: format!(
                    "ops {} width {} seed {} mutation {desc}",
                    ops_hex(&r.ops),
                    r.width,
                    r.seed
                ),
                detail,
            }),
        }
    }
    let s1 = t1.elapsed().as_secs_f64();
    if progress {
        eprintln!(
            "[fuzz] mutation: {survived} survived, {typed_errors} typed errors, \
             {} failures in {s1:.1}s",
            failures.iter().filter(|f| f.phase == "mutation").count()
        );
    }

    // Phase 3: sabotage. Draw extra candidates so recipes whose
    // conversion has no swappable cell can be skipped deterministically.
    let t2 = Instant::now();
    let candidates = Recipe::stream(
        cfg.seed.wrapping_add(2),
        cfg.sabotage * 4,
        cfg.max_ops,
        cfg.max_width,
    );
    let mut picks = SplitMix64::new(cfg.seed.wrapping_add(3));
    let runs: Vec<(Recipe, u64)> = candidates
        .into_iter()
        .map(|r| {
            let pick = picks.next_u64();
            (r, pick)
        })
        .filter(|(r, pick)| !matches!(sabotage_case_is_targetless(r, *pick), Some(true)))
        .take(cfg.sabotage)
        .collect();
    let outcomes = triphase_par::par_map(&runs, |(r, pick)| {
        catch_unwind(AssertUnwindSafe(|| sabotage_case(r, *pick)))
            .unwrap_or_else(|p| SabotageOutcome::Error(panic_detail("fuzz.sabotage", p)))
    });
    let mut benign = 0usize;
    let mut detected = 0usize;
    let mut false_proofs = 0usize;
    let mut reproducers: Vec<Reproducer> = Vec::new();
    let mut corpus_entries = 0usize;
    if let Some(dir) = &cfg.corpus_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    for (i, ((r, pick), out)) in runs.iter().zip(outcomes).enumerate() {
        match out {
            SabotageOutcome::NoTarget | SabotageOutcome::Benign => benign += 1,
            SabotageOutcome::Error(detail) => failures.push(Failure {
                phase: "sabotage",
                case: i,
                recipe: format!("ops {} width {} seed {}", ops_hex(&r.ops), r.width, r.seed),
                detail,
            }),
            SabotageOutcome::FalseProof(detail) => {
                false_proofs += 1;
                failures.push(Failure {
                    phase: "sabotage",
                    case: i,
                    recipe: format!("ops {} width {} seed {}", ops_hex(&r.ops), r.width, r.seed),
                    detail,
                });
            }
            SabotageOutcome::Detected { .. } => {
                detected += 1;
                let small = shrink(r, *pick);
                // Re-derive the detection details on the shrunk recipe.
                let SabotageOutcome::Detected {
                    cell,
                    mutation,
                    verdict,
                    mismatch,
                } = sabotage_case(&small, *pick)
                else {
                    unreachable!("shrink preserves detection");
                };
                let mut files = Vec::new();
                if let Some(dir) = &cfg.corpus_dir {
                    if let Ok(Some((pre, mutant, _, _))) = sabotage_pair(&small, *pick) {
                        for (suffix, nl) in [("golden", &pre), ("mutant", &mutant)] {
                            let name = format!("sabotage_{i:03}_{suffix}.v");
                            if std::fs::write(dir.join(&name), verilog::to_verilog(nl)).is_ok() {
                                files.push(name);
                                corpus_entries += 1;
                            }
                        }
                    }
                }
                reproducers.push(Reproducer {
                    case: i,
                    ops_hex: ops_hex(&small.ops),
                    width: small.width,
                    seed: small.seed,
                    ops_before: r.ops.len(),
                    ops_after: small.ops.len(),
                    cell,
                    mutation,
                    verdict,
                    mismatch,
                    files,
                });
            }
        }
    }
    let s2 = t2.elapsed().as_secs_f64();
    if progress {
        eprintln!(
            "[fuzz] sabotage: {detected} detected ({} shrunk reproducers), {benign} benign, \
             {false_proofs} false proofs in {s2:.1}s",
            reproducers.len()
        );
    }

    // Determinism fingerprint over every outcome (timings excluded).
    let mut h = cfg.seed;
    for v in [
        passed,
        survived,
        typed_errors,
        benign,
        detected,
        false_proofs,
    ] {
        mix(&mut h, v as u64);
    }
    for f in &failures {
        mix_str(&mut h, f.phase);
        mix(&mut h, f.case as u64);
        mix_str(&mut h, &f.recipe);
        mix_str(&mut h, &f.detail);
    }
    for r in &rejections {
        mix_str(&mut h, r);
    }
    for r in &reproducers {
        mix(&mut h, r.case as u64);
        mix_str(&mut h, &r.ops_hex);
        mix(&mut h, r.width as u64);
        mix(&mut h, r.seed);
        mix_str(&mut h, &r.cell);
        mix_str(&mut h, &r.mutation);
        mix_str(&mut h, &r.verdict);
        mix_str(&mut h, &r.mismatch);
    }

    CampaignReport {
        config: cfg.clone(),
        passed,
        survived,
        typed_errors,
        rejections,
        benign,
        detected,
        false_proofs,
        failures,
        reproducers,
        corpus_entries,
        seconds: [s0, s1, s2],
        fingerprint: h,
    }
}

/// Cheap targetless pre-check used when selecting sabotage candidates:
/// `Some(true)` when the recipe's conversion definitely has no swappable
/// cell, `Some(false)` when it has one, `None` when the pipeline errors
/// (kept as a run so the error is reported, not silently dropped).
fn sabotage_case_is_targetless(r: &Recipe, pick: u64) -> Option<bool> {
    match sabotage_pair(r, pick) {
        Ok(None) => Some(true),
        Ok(Some(_)) => Some(false),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzConfig {
        FuzzConfig {
            seed: 9,
            cases: 6,
            mutants: 6,
            sabotage: 2,
            max_ops: 8,
            max_width: 4,
            corpus_dir: None,
        }
    }

    #[test]
    fn tiny_campaign_is_deterministic_and_clean() {
        let a = run_campaign(&tiny(), false);
        let b = run_campaign(&tiny(), false);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.false_proofs, 0);
        assert_eq!(a.passed, 6);
    }

    #[test]
    fn sabotage_is_detected_on_some_early_case() {
        // At least one of the first few sabotage candidates must be a
        // genuine, formally-refuted bug — otherwise the campaign's
        // sensitivity claim is vacuous.
        let mut picks = SplitMix64::new(9u64.wrapping_add(3));
        let mut hit = false;
        for r in Recipe::stream(9u64.wrapping_add(2), 8, 8, 4) {
            let pick = picks.next_u64();
            if let SabotageOutcome::Detected { verdict, .. } = sabotage_case(&r, pick) {
                assert_eq!(verdict, "refuted");
                hit = true;
                break;
            }
        }
        assert!(hit, "no sabotage case detected among the first 8");
    }

    #[test]
    fn shrink_preserves_detection_and_reduces_ops() {
        let mut picks = SplitMix64::new(9u64.wrapping_add(3));
        for r in Recipe::stream(9u64.wrapping_add(2), 8, 8, 4) {
            let pick = picks.next_u64();
            if matches!(sabotage_case(&r, pick), SabotageOutcome::Detected { .. }) {
                let small = shrink(&r, pick);
                assert!(small.ops.len() <= r.ops.len());
                assert!(matches!(
                    sabotage_case(&small, pick),
                    SabotageOutcome::Detected { .. }
                ));
                return;
            }
        }
        panic!("no detected case to shrink");
    }

    #[test]
    fn report_json_has_schema_keys_and_roundtrips() {
        let report = run_campaign(&tiny(), false);
        let json = report.to_json();
        for key in [
            "generated_by",
            "commit",
            "config",
            "differential",
            "mutation",
            "sabotage",
            "corpus_entries",
            "fingerprint",
            "certified",
        ] {
            assert!(json.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            json.get("generated_by").and_then(Json::as_str),
            Some("fuzz")
        );
        let parsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(parsed, json);
    }

    #[test]
    fn structural_mutants_reject_or_survive_without_panic() {
        // Direct regression for the no-panic contract, independent of the
        // campaign driver.
        for (i, r) in Recipe::stream(77, 12, 8, 4).iter().enumerate() {
            let mut rng = SplitMix64::new(0xDEAD ^ i as u64);
            let mut nl = r.build();
            let desc = mutate_structural(&mut nl, &mut rng);
            let out = catch_unwind(AssertUnwindSafe(|| pipeline_outcome(&nl, r.seed)));
            match out {
                Err(p) => panic!("mutant {desc} panicked: {}", panic_detail("test", p)),
                Ok(Err(PipelineReject::ToolBug(msg))) => panic!("mutant {desc}: {msg}"),
                Ok(_) => {}
            }
        }
    }
}
