//! Consistency certification of the compiled simulator against the
//! scalar reference: for every registered benchmark, the compiled
//! bytecode VM must be **bit-exact** with the scalar interpreter —
//! identical per-net values and identical toggle counts — over seeded
//! random stimulus starting from `reset_zero` (which exercises
//! X-propagation out of the all-X reset state).
//!
//! Coverage:
//! - single-lane compiled vs scalar on all 18 benchmarks: full net-value
//!   sweep and full per-net toggle-count vector equality;
//! - 64-lane compiled vs the 64 per-lane-seeded scalar runs: toggle
//!   totals equal the sum of the scalar runs, and on sampled lanes
//!   (0 / 17 / 63) every net value equals that lane's scalar run;
//! - multi-word compiled lanes (`W > 1`, 320 streams) vs per-seed scalar
//!   runs on lanes above 64 (`lane_seeds` is count-independent);
//! - 64- and 128-lane toggle totals = sum of the scalar runs on the
//!   smallest ISCAS circuit;
//! - clock-gated (`Icg`) and converted 3-phase (`IcgM1` + latch)
//!   variants of s5378, covering gated-clock X and enable-latch
//!   semantics.
//!
//! `TRIPHASE_SCALE=quick` trims cycle counts for smoke runs.

use triphase_bench::benchmarks;
use triphase_core::{assign_phases, extract_ff_graph, gated_clock_style, to_three_phase};
use triphase_ilp::PhaseConfig;
use triphase_netlist::Netlist;
use triphase_sim::{lane_seeds, run_random, run_random_compiled, Activity, Logic, LANES};

fn quick() -> bool {
    std::env::var("TRIPHASE_SCALE").is_ok_and(|v| v == "quick")
}

/// Run the per-seed scalar reference of every lane of a `lanes`-wide
/// run (fanned out over the pool). Returns their activity summed the way
/// a multi-lane run counts it, and the final value of every net in each
/// lane listed in `keep`, in lane order.
fn scalar_lanes(
    nl: &Netlist,
    seed: u64,
    cycles: u64,
    lanes: usize,
    keep: &[usize],
) -> (Activity, Vec<Vec<Logic>>) {
    let seeds: Vec<(usize, u64)> = lane_seeds(seed, lanes).into_iter().enumerate().collect();
    let runs = triphase_par::par_map(&seeds, |&(lane, lane_seed)| {
        let run = run_random(nl, lane_seed, cycles).unwrap();
        let values = keep
            .contains(&lane)
            .then(|| nl.nets().map(|(net, _)| run.net_value(net)).collect());
        (run.activity().clone(), values)
    });
    let mut sum = Activity {
        cycles: 0,
        net_toggles: vec![0; nl.net_capacity()],
    };
    for (activity, _) in &runs {
        sum.cycles += activity.cycles;
        for (total, t) in sum.net_toggles.iter_mut().zip(&activity.net_toggles) {
            *total += t;
        }
    }
    let values = runs.into_iter().filter_map(|(_, v)| v).collect();
    (sum, values)
}

/// Assert the compiled VM and the scalar reference agree on every net
/// value and every toggle count for the same seed/cycles: single-lane
/// against the scalar run itself, at `LANES` lanes against the per-lane-
/// seeded scalar runs (toggle totals and sampled-lane values), then at a
/// multi-word width on lanes past 64.
fn assert_consistent(name: &str, nl: &Netlist, seed: u64, cycles: u64) {
    // Single lane: bit-identical activity (cycles + full toggle vector)
    // and values.
    let scalar = run_random(nl, seed, cycles).unwrap();
    let compiled1 = run_random_compiled(nl, seed, cycles, 1).unwrap();
    let ca = compiled1.activity();
    assert_eq!(ca.cycles, scalar.activity().cycles, "{name}: cycles");
    assert_eq!(
        ca.net_toggles,
        scalar.activity().net_toggles,
        "{name}: single-lane toggle counts diverge"
    );
    for (net, _) in nl.nets() {
        assert_eq!(
            compiled1.net_value_lane(net, 0),
            scalar.net_value(net),
            "{name}: single-lane value of net {net:?}"
        );
    }

    // 64 lanes: the toggle totals equal the sum of the 64 scalar runs
    // with the lanes' seeds (lane 0 is the historical stream), and the
    // sampled lanes match their scalar run net for net.
    let sampled = [0usize, 17, LANES - 1];
    let compiled = run_random_compiled(nl, seed, cycles, LANES).unwrap();
    let (summed, reference) = scalar_lanes(nl, seed, cycles, LANES, &sampled);
    assert_eq!(compiled.activity().cycles, summed.cycles, "{name}: cycles");
    assert_eq!(
        compiled.activity().net_toggles,
        summed.net_toggles,
        "{name}: 64-lane toggle totals != sum of scalar lanes"
    );
    for (lane, values) in sampled.iter().zip(&reference) {
        for ((net, _), &want) in nl.nets().zip(values) {
            assert_eq!(
                compiled.net_value_lane(net, *lane),
                want,
                "{name}: lane {lane} value of net {net:?}"
            );
        }
    }

    // Multi-word width (W = 8, 320 streams): lanes past the first word
    // still replay their per-seed scalar run exactly.
    let wide_lanes = 320;
    let wide = run_random_compiled(nl, seed, cycles, wide_lanes).unwrap();
    let wide_seeds = lane_seeds(seed, wide_lanes);
    for lane in [64usize, 200, wide_lanes - 1] {
        let reference = run_random(nl, wide_seeds[lane], cycles).unwrap();
        for (net, _) in nl.nets() {
            assert_eq!(
                wide.net_value_lane(net, lane),
                reference.net_value(net),
                "{name}: compiled wide lane {lane} value of net {net:?}"
            );
        }
    }
}

/// Compiled toggle totals at one and two words (64 and 128 lanes) equal
/// the sum of the per-seed scalar runs on the cheapest circuit.
#[test]
fn toggle_totals_sum_over_lanes() {
    let all = benchmarks();
    let smallest = all
        .iter()
        .min_by_key(|b| b.build().net_count())
        .expect("non-empty registry");
    let nl = smallest.build();
    let cycles = if quick() { 8 } else { 24 };
    for lanes in [64, 128] {
        let compiled = run_random_compiled(&nl, 7, cycles, lanes).unwrap();
        let (summed, _) = scalar_lanes(&nl, 7, cycles, lanes, &[]);
        assert_eq!(
            compiled.activity().net_toggles,
            summed.net_toggles,
            "{}: {lanes}-lane toggle totals != sum of scalar lanes",
            smallest.name
        );
    }
}

#[test]
fn compiled_matches_scalar_on_all_benchmarks() {
    let q = quick();
    for b in benchmarks() {
        let nl = b.build();
        // AES is by far the largest circuit; trim its window so the
        // full-registry sweep stays tractable on one core.
        let big = nl.net_count() > 20_000;
        let cycles = match (q, big) {
            (true, _) => 6,
            (false, true) => 12,
            (false, false) => 32,
        };
        assert_consistent(b.name, &nl, 11, cycles);
    }
}

/// Clock-gated and converted 3-phase variants: `Icg` enable latches,
/// `IcgM1` gating of the P3 clock, and transparent-latch storage all go
/// through the compiled clock-network path.
#[test]
fn compiled_matches_scalar_on_gated_and_three_phase() {
    let all = benchmarks();
    let b = all.iter().find(|b| b.name == "s5378").expect("s5378 row");
    let mut pre = b.build();
    gated_clock_style(&mut pre, 32).unwrap();
    let pre = pre.compact();
    let cycles = if quick() { 8 } else { 32 };
    assert_consistent("s5378+icg", &pre, 11, cycles);

    let idx = pre.index();
    let graph = extract_ff_graph(&pre, &idx).unwrap();
    let assignment = assign_phases(&graph, &PhaseConfig::default());
    let (tp, _) = to_three_phase(&pre, &assignment).unwrap();
    assert_consistent("s5378+3phase", &tp, 11, cycles);
}
