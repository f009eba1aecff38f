//! Regenerates the paper's §V **runtime discussion**: the ILP is a tiny
//! fraction of the flow (the paper: ≤ 27 s, < 1% overall), while the
//! 3-phase design's place-and-route — three clock trees — dominates the
//! extra runtime (~3× CTS, ~35% more routing, 204%/44% more total runtime
//! vs FF/M-S).

use triphase_bench::json::Json;
use triphase_bench::perf::merge_section;
use triphase_bench::report::section as report_section;
use triphase_bench::{mean, run_suite, Scale};

fn main() {
    let scale = Scale::from_env();
    let rows = run_suite(scale).unwrap_or_else(|e| {
        eprintln!("flow failed: {e}");
        std::process::exit(1);
    });
    println!("Flow runtime decomposition (seconds)");
    println!(
        "{:<9} | {:>8} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8} {:>8}",
        "Design", "ILP", "ILP opt?", "convert", "pnr(FF)", "pnr(M-S)", "pnr(3P)", "3P/FF", "ILP %"
    );
    let mut ratios = Vec::new();
    let mut ilp_fracs = Vec::new();
    for (b, r) in &rows {
        let pnr_ff = r.ff.pnr_seconds;
        let pnr_ms = r.ms.pnr_seconds;
        let pnr_tp = r.three_phase.pnr_seconds;
        let total_3p = r.ilp_seconds + r.convert_seconds + pnr_tp + r.three_phase.sim_seconds;
        let ratio = if pnr_ff > 0.0 { pnr_tp / pnr_ff } else { 0.0 };
        let ilp_frac = if total_3p > 0.0 {
            r.ilp_seconds / total_3p * 100.0
        } else {
            0.0
        };
        println!(
            "{:<9} | {:>8.3} {:>9} {:>9.3} | {:>9.3} {:>9.3} {:>9.3} | {:>8.2} {:>8.2}",
            b.name,
            r.ilp_seconds,
            r.ilp_optimal,
            r.convert_seconds,
            pnr_ff,
            pnr_ms,
            pnr_tp,
            ratio,
            ilp_frac
        );
        ratios.push(ratio);
        ilp_fracs.push(ilp_frac);
    }
    println!();
    println!(
        "Average 3-phase P&R runtime ratio vs FF: {:.2}x (paper: ~3x CTS, +35% routing)",
        mean(&ratios)
    );
    println!(
        "Average ILP share of the 3-phase flow:   {:.2}% (paper: < 1%, max 27 s)",
        mean(&ilp_fracs)
    );
    let max_ilp = rows
        .iter()
        .map(|(_, r)| r.ilp_seconds)
        .fold(0.0f64, f64::max);
    println!("Max ILP solve time across the suite:    {max_ilp:.3} s");

    // Machine-readable mirror of the table above, merged into the shared
    // perf report next to the compiled-VM sections from `sim_perf`.
    let mut benchmarks = Vec::new();
    for (b, r) in &rows {
        let mut rec = Json::obj();
        rec.set("name", b.name.into());
        rec.set("ilp_seconds", r.ilp_seconds.into());
        rec.set("ilp_optimal", r.ilp_optimal.into());
        rec.set("convert_seconds", r.convert_seconds.into());
        rec.set("pnr_ff_seconds", r.ff.pnr_seconds.into());
        rec.set("pnr_ms_seconds", r.ms.pnr_seconds.into());
        rec.set("pnr_3p_seconds", r.three_phase.pnr_seconds.into());
        rec.set("sim_ff_seconds", r.ff.sim_seconds.into());
        rec.set("sim_ms_seconds", r.ms.sim_seconds.into());
        rec.set("sim_3p_seconds", r.three_phase.sim_seconds.into());
        benchmarks.push(rec);
    }
    let mut section = report_section();
    section.set("generated_by", "runtime_report".into());
    section.set(
        "scale",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
        .into(),
    );
    section.set("pnr_3p_over_ff_avg", mean(&ratios).into());
    section.set("ilp_share_pct_avg", mean(&ilp_fracs).into());
    section.set("ilp_seconds_max", max_ilp.into());
    section.set("benchmarks", Json::Arr(benchmarks));
    match merge_section("flow_runtime", section) {
        Ok(path) => println!("wrote section \"flow_runtime\" -> {}", path.display()),
        Err(e) => {
            eprintln!("flow runtime report not written: {e}");
            std::process::exit(1);
        }
    }
}
