//! Simulation-backend performance report: scalar reference vs compiled
//! bytecode VM throughput (with a lane-width sweep W=1/2/4/8), the VM's
//! per-cycle dispatch counts, thread-scaling of the work-stealing pool,
//! and determinism checks (results must not depend on the thread count,
//! and the compiled VM at 64 lanes must reproduce the sum of the 64
//! per-seed scalar runs).
//!
//! Writes the `compiled_vm` and `thread_scaling` sections of
//! `results/BENCH_sim.json` (see `triphase_bench::perf`); other sections
//! of the file are preserved. `--quick` (or `TRIPHASE_SCALE=quick`) runs
//! a reduced configuration.
//!
//! Exit codes (stable): `0` report written, `1` determinism /
//! certification / speedup-floor check or report write failed, `2`
//! internal error (flow/simulation failure).

use triphase_bench::json::Json;
use triphase_bench::microbench::{samples, time_throughput};
use triphase_bench::perf::measurement_json;
use triphase_bench::report::{section, ReportFile};
use triphase_circuits::iscas::{generate_iscas, iscas_profiles};
use triphase_core::{assign_phases, extract_ff_graph, gated_clock_style, to_three_phase};
use triphase_ilp::PhaseConfig;
use triphase_netlist::Netlist;
use triphase_par::ThreadPool;
use triphase_sim::{lane_seeds, run_random, run_random_compiled, Activity, CompiledAny, LANES};

/// Regression floor for compiled x512 per-cycle throughput over the
/// scalar reference on the smoke circuit: 1.5× the 192× that the 64-lane
/// packed kernel (the fast path before the compiled VM) reached over
/// scalar, so the gate is no looser than the old "1.5× packed" floor.
/// Deliberately conservative: full and `--quick` runs measure over 1000×.
const COMPILED_SPEEDUP_FLOOR: f64 = 289.0;

/// Build the s5378 FF design and its converted 3-phase twin — the same
/// pair the `sim_throughput` bench times.
fn build_s5378() -> (Netlist, Netlist) {
    let profile = iscas_profiles()
        .into_iter()
        .find(|p| p.name == "s5378")
        .expect("s5378 profile");
    let mut ff_design = generate_iscas(&profile, 42);
    gated_clock_style(&mut ff_design, 32).expect("clock gating");
    let idx = ff_design.index();
    let graph = extract_ff_graph(&ff_design, &idx).expect("FF graph");
    let assignment = assign_phases(&graph, &PhaseConfig::default());
    let (latch_design, _) = to_three_phase(&ff_design, &assignment).expect("conversion");
    (ff_design, latch_design)
}

/// FNV-1a over an activity's cycle count and toggle vector: a stable
/// fingerprint for the determinism check.
fn activity_hash(a: &Activity) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(a.cycles);
    for &t in &a.net_toggles {
        mix(t);
    }
    h
}

/// Toggle totals of the 64 per-seed scalar runs that the lanes of a
/// [`LANES`]-wide compiled run replay (lane `l` is `run_random` with
/// `lane_seeds(seed, LANES)[l]`), summed the way a multi-lane run counts
/// them.
fn scalar_lane_sum(nl: &Netlist, seed: u64, cycles: u64) -> Activity {
    let runs = triphase_par::par_map(&lane_seeds(seed, LANES), |&s| {
        run_random(nl, s, cycles)
            .expect("scalar reference run")
            .activity()
            .clone()
    });
    let mut sum = Activity {
        cycles: 0,
        net_toggles: vec![0; nl.net_capacity()],
    };
    for run in &runs {
        sum.cycles += run.cycles;
        for (total, t) in sum.net_toggles.iter_mut().zip(&run.net_toggles) {
            *total += t;
        }
    }
    sum
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("TRIPHASE_SCALE").is_ok_and(|v| v == "quick");
    let cycles: u64 = if quick { 32 } else { 256 };
    let n_samples = samples(5);

    let (ff_design, latch_design) = build_s5378();

    println!("== scalar reference (cycles: {cycles}) ==");
    let scalar_base = time_throughput("s5378/ff_design/scalar", n_samples, cycles, || {
        run_random(&ff_design, 1, cycles)
            .expect("scalar run")
            .cycles()
    });

    // Compiled VM: lane-width sweep W=1/2/4/8 (64..512 streams/pass) on
    // the FF design, per-cycle speedups against the scalar reference.
    println!("== compiled VM lane sweep (per-lane cycles: {cycles}) ==");
    let mut sweep = Vec::new();
    let mut widest_vs_scalar = 0.0f64;
    for width in [1usize, 2, 4, 8] {
        let lanes = 64 * width;
        let total = cycles * lanes as u64;
        let m = time_throughput(
            &format!("s5378/compiled x{lanes}"),
            n_samples,
            total,
            || {
                run_random_compiled(&ff_design, 1, cycles, lanes)
                    .expect("compiled run")
                    .activity()
                    .cycles
            },
        );
        let vs_scalar = scalar_base.ns_per_element() / m.ns_per_element();
        println!("compiled W={width} ({lanes:>3} streams)   vs scalar {vs_scalar:>8.1}x");
        let mut rec = Json::obj();
        rec.set("width_words", width.into());
        rec.set("lanes", lanes.into());
        rec.set("compiled", measurement_json(&m));
        rec.set("speedup_vs_scalar", vs_scalar.into());
        sweep.push(rec);
        if width == 8 {
            widest_vs_scalar = vs_scalar;
        }
    }

    // Certification: the compiled VM's 64-lane toggle totals must equal
    // the sum of the 64 per-seed scalar runs its lanes replay (values
    // feed toggles, so matching toggle vectors over both circuits is a
    // deep trajectory check), and its own wide run must be reproducible.
    let mut certified = true;
    let mut cert_fps = Vec::new();
    for (label, nl) in [
        ("s5378/ff_design", &ff_design),
        ("s5378/three_phase", &latch_design),
    ] {
        let s = activity_hash(&scalar_lane_sum(nl, 11, cycles));
        let c = activity_hash(
            &run_random_compiled(nl, 11, cycles, LANES)
                .expect("compiled cert run")
                .activity(),
        );
        let w1 = activity_hash(
            &run_random_compiled(nl, 11, cycles, 512)
                .expect("compiled wide run")
                .activity(),
        );
        let w2 = activity_hash(
            &run_random_compiled(nl, 11, cycles, 512)
                .expect("compiled wide rerun")
                .activity(),
        );
        let ok = s == c && w1 == w2;
        certified &= ok;
        println!(
            "certify {label:<22} scalar lanes=={}compiled {:016x}  wide deterministic: {}",
            if s == c { "" } else { "!" },
            c,
            w1 == w2
        );
        let mut rec = Json::obj();
        rec.set("name", label.into());
        rec.set("fingerprint_x64", format!("{c:016x}").into());
        rec.set("fingerprint_x512", format!("{w1:016x}").into());
        rec.set("matches_scalar", (s == c).into());
        cert_fps.push(rec);
    }

    let stats = CompiledAny::new(&ff_design, 512)
        .expect("compiled build")
        .lower_stats();

    // Dispatch counts at the equivalence check's width: comb passes and
    // units run per cycle, against the full walk (every serial word on
    // every pass) that dispatching without the pending set would cost.
    // Deterministic: same design, seed and lane count.
    let dispatch_run = run_random_compiled(&ff_design, 1, cycles, LANES).expect("compiled run");
    let counts = dispatch_run.vm_counts();
    let per_cycle = |n: u64| n as f64 / cycles as f64;
    let passes_per_cycle = per_cycle(counts.passes);
    let dispatched_per_cycle = per_cycle(counts.dispatched);
    let full_walk_per_cycle = passes_per_cycle * stats.serial_words as f64;
    println!(
        "dispatch x{LANES}: {passes_per_cycle:.2} passes/cycle, {dispatched_per_cycle:.0} \
         dispatched/cycle of a {full_walk_per_cycle:.0}-word full walk"
    );
    let mut lower = Json::obj();
    lower.set("gates", stats.gates.into());
    lower.set("serial_words", stats.serial_words.into());
    lower.set("const_folded", stats.const_folded.into());
    lower.set("chains_collapsed", stats.chains_collapsed.into());
    lower.set("deduped", stats.deduped.into());
    lower.set("fused_pairs", stats.fused_pairs.into());
    lower.set("levels", stats.levels.into());

    let mut compiled_section = section();
    compiled_section.set("generated_by", "sim_perf".into());
    compiled_section.set("per_lane_cycles", cycles.into());
    compiled_section.set("scalar", measurement_json(&scalar_base));
    compiled_section.set("lane_sweep", Json::Arr(sweep));
    compiled_section.set("certification", Json::Arr(cert_fps));
    compiled_section.set("certified", certified.into());
    compiled_section.set("speedup_floor_vs_scalar", COMPILED_SPEEDUP_FLOOR.into());
    compiled_section.set("widest_speedup_vs_scalar", widest_vs_scalar.into());
    compiled_section.set("lower_stats", lower);
    compiled_section.set("dispatch_lanes", LANES.into());
    compiled_section.set("passes_per_cycle", passes_per_cycle.into());
    compiled_section.set("dispatched_per_cycle", dispatched_per_cycle.into());
    compiled_section.set("full_walk_per_cycle", full_walk_per_cycle.into());

    // Thread scaling: independent compiled x64 activity collections fanned out
    // through explicit pools of 1/2/4/8 workers. The fingerprints of the
    // results must match across thread counts (deterministic scheduling-
    // independent output); wall-clock per pool size gives the curve.
    let tasks: u64 = if quick { 4 } else { 16 };
    let task_cycles: u64 = if quick { 8 } else { 32 };
    let seeds: Vec<u64> = (0..tasks).collect();
    println!("== thread scaling ({tasks} tasks, {task_cycles} cycles x {LANES} lanes each) ==");
    let run_tasks = |pool: &ThreadPool| -> Vec<u64> {
        pool.par_map(&seeds, |&seed| {
            let sim = run_random_compiled(&ff_design, seed, task_cycles, LANES)
                .expect("thread-scaling run");
            activity_hash(&sim.activity())
        })
    };
    let mut curve = Vec::new();
    let mut baseline: Option<(f64, Vec<u64>)> = None;
    let mut deterministic = true;
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let t0 = std::time::Instant::now();
        let hashes = run_tasks(&pool);
        let secs = t0.elapsed().as_secs_f64();
        let speedup_vs_1t = match &baseline {
            Some((base, base_hashes)) => {
                if *base_hashes != hashes {
                    deterministic = false;
                }
                if secs > 0.0 {
                    base / secs
                } else {
                    0.0
                }
            }
            None => {
                baseline = Some((secs, hashes.clone()));
                1.0
            }
        };
        println!(
            "threads {threads:>2}  {:>9.3} ms  speedup vs 1t {speedup_vs_1t:>6.2}x",
            secs * 1e3
        );
        let mut point = Json::obj();
        point.set("threads", threads.into());
        point.set("secs", secs.into());
        point.set("speedup_vs_1t", speedup_vs_1t.into());
        curve.push(point);
    }
    let fingerprint = baseline
        .as_ref()
        .map(|(_, hashes)| {
            hashes
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| h.rotate_left(7) ^ v)
        })
        .unwrap_or(0);
    println!(
        "deterministic across thread counts: {deterministic}  (fingerprint {fingerprint:016x})"
    );

    let mut scaling = section();
    scaling.set("tasks", tasks.into());
    scaling.set("lanes", LANES.into());
    scaling.set("per_task_cycles", task_cycles.into());
    scaling.set("deterministic", deterministic.into());
    scaling.set("fingerprint", format!("{fingerprint:016x}").into());
    scaling.set("curve", Json::Arr(curve));

    let out = ReportFile::new("BENCH_sim.json");
    let write = |section: &str, value: Json| {
        out.merge_or_exit(section, value);
        println!("wrote section {section:?} -> {}", out.path().display());
    };
    write("compiled_vm", compiled_section);
    write("thread_scaling", scaling);

    if !deterministic {
        eprintln!("error: results varied with thread count");
        std::process::exit(1);
    }
    if !certified {
        eprintln!("error: compiled VM fingerprints diverged from the scalar reference");
        std::process::exit(1);
    }
    if widest_vs_scalar < COMPILED_SPEEDUP_FLOOR {
        eprintln!(
            "error: compiled x512 speedup vs scalar {widest_vs_scalar:.1}x \
             below floor {COMPILED_SPEEDUP_FLOOR}x"
        );
        std::process::exit(1);
    }
}
