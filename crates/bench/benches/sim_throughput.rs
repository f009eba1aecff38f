//! Gate-level simulation throughput (cycles/second) on an ISCAS-class
//! circuit, FF-based vs converted 3-phase (three clock events per cycle),
//! scalar interpreter vs the compiled VM at 64 lanes (one machine word).
//!
//! Besides the human summary lines, the measurements are merged into the
//! `sim_throughput` section of `results/BENCH_sim.json`.

use triphase_bench::json::Json;
use triphase_bench::microbench::{samples, time_throughput};
use triphase_bench::perf::{measurement_json, merge_section};
use triphase_circuits::iscas::{generate_iscas, iscas_profiles};
use triphase_core::{assign_phases, extract_ff_graph, gated_clock_style, to_three_phase};
use triphase_ilp::PhaseConfig;
use triphase_sim::{run_random, run_random_compiled, LANES};

fn main() {
    let profile = iscas_profiles()
        .into_iter()
        .find(|p| p.name == "s5378")
        .unwrap();
    let mut ff_design = generate_iscas(&profile, 42);
    gated_clock_style(&mut ff_design, 32).unwrap();
    let idx = ff_design.index();
    let graph = extract_ff_graph(&ff_design, &idx).unwrap();
    let assignment = assign_phases(&graph, &PhaseConfig::default());
    let (latch_design, _) = to_three_phase(&ff_design, &assignment).unwrap();

    const CYCLES: u64 = 64;
    let n_samples = samples(10);
    let mut measured = Vec::new();
    for (label, nl) in [
        ("sim_s5378/ff_design", &ff_design),
        ("sim_s5378/three_phase", &latch_design),
    ] {
        let scalar = time_throughput(label, n_samples, CYCLES, || {
            run_random(nl, 1, CYCLES).unwrap().cycles()
        });
        let compiled = time_throughput(
            &format!("{label} compiled x{LANES}"),
            n_samples,
            CYCLES * LANES as u64,
            || {
                run_random_compiled(nl, 1, CYCLES, LANES)
                    .unwrap()
                    .activity()
                    .cycles
            },
        );
        measured.push((scalar, compiled));
    }

    let mut rows = Vec::new();
    for (scalar, compiled) in &measured {
        let speedup = if compiled.ns_per_element() > 0.0 {
            scalar.ns_per_element() / compiled.ns_per_element()
        } else {
            0.0
        };
        let mut rec = Json::obj();
        rec.set("name", scalar.name.as_str().into());
        rec.set("scalar", measurement_json(scalar));
        rec.set("compiled", measurement_json(compiled));
        rec.set("speedup", speedup.into());
        rows.push(rec);
    }
    let mut section = Json::obj();
    section.set("generated_by", "sim_throughput".into());
    section.set("lanes", LANES.into());
    section.set("rows", Json::Arr(rows));
    match merge_section("sim_throughput", section) {
        Ok(path) => println!("wrote section \"sim_throughput\" -> {}", path.display()),
        Err(e) => eprintln!("sim_throughput section not written: {e}"),
    }
}
