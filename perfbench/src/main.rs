//! Benchmark of the triphase conversion flow and its daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_iscas|flow_cores --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets the workload up several times (reporting the median
//! set-up time), then drives the program in a closed loop for `S`
//! seconds and checks every output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` replays the same inputs through each layer's
//! public functions, then drives the daemon's job mix for a few seconds,
//! and reports per-layer metrics, writing every span to
//! `perfbench/out/`. The last line of standard output is the result as
//! one JSON object. See `perfbench/NOTES.md` for the workloads.

mod flows;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use triphase_cells::Library;

use flows::{FlowJob, Qor, Replay, Workload};
use metrics::{Outcome, END_TO_END, PER_LAYER};
use serve::Daemon;
use stats::{geomean, median, ms, percentile, ratio};
use trace::{layer_ms, JobTrace, Span};

const USAGE: &str = "usage: triphase-perfbench --workload flow_iscas|flow_cores \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per run; the median is reported as `setup_s`. A set-up takes
/// well under a second, so several cost little and steady the median.
const SETUP_REPS: usize = 9;

/// Connections of the daemon's load generator.
const SERVE_CLIENTS: usize = 2;

/// Seconds of the daemon's job mix that each traced run adds, so that
/// the serve layers are measured (NOTES.md says why the mix is not a
/// workload of its own).
const SERVE_LAYER_SECONDS: f64 = 5.0;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where traces and the daemon's journal go.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run `make` [`SETUP_REPS`] times, dropping each result but the last
/// outside the timed interval. Returns the last result and the median
/// set-up time in seconds.
fn set_up<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// What a closed-loop phase measured.
struct Phase<T> {
    recs: Vec<T>,
    wall_s: f64,
    cpu_s: f64,
}

/// Drive `step` in a closed loop on one thread per client state for
/// `seconds`: a client issues its next job only when the previous one
/// has finished, and none starts after the deadline. The phase ends
/// when the last job in flight finishes.
fn closed_loop<S: Send, T: Send>(
    states: Vec<S>,
    seconds: f64,
    step: impl Fn(&mut S) -> T + Sync,
) -> Phase<T> {
    let cpu0 = stats::process_cpu_s();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let step = &step;
    let recs: Vec<Vec<T>> = std::thread::scope(|s| {
        let clients: Vec<_> = states
            .into_iter()
            .map(|mut st| {
                s.spawn(move || {
                    let mut recs = Vec::new();
                    while Instant::now() < deadline {
                        recs.push(step(&mut st));
                    }
                    recs
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    Phase {
        recs: recs.into_iter().flatten().collect(),
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: stats::process_cpu_s() - cpu0,
    }
}

/// The end-to-end metrics of a phase whose successful jobs took
/// `latencies_ms` and produced `qor`.
fn end_to_end<T>(
    w: Workload,
    phase: &Phase<T>,
    latencies_ms: &[f64],
    qor: &[Qor],
    setup_s: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("latency_p50_ms", median(latencies_ms)),
        (
            "latency_tail_ms",
            percentile(latencies_ms, w.tail_percentile()).unwrap_or(0.0),
        ),
        ("throughput_per_s", latencies_ms.len() as f64 / phase.wall_s),
        ("cpu_s_per_job", ratio(phase.cpu_s, phase.recs.len() as f64)),
        ("peak_rss_mb", stats::peak_rss_mib()),
        (
            "power_3p_over_ff",
            geomean(&qor.iter().map(|q| q.power_3p_over_ff).collect::<Vec<_>>()),
        ),
        (
            "regs_3p_over_ms",
            geomean(&qor.iter().map(|q| q.regs_3p_over_ms).collect::<Vec<_>>()),
        ),
        ("setup_s", setup_s),
    ]
}

/// One flow job run as a user runs it: latency and checked QoR.
fn flow_job(job: &FlowJob, lib: &Library) -> (f64, Result<Qor, String>) {
    let t0 = Instant::now();
    let report = job.run(lib);
    let elapsed = ms(t0.elapsed());
    (
        elapsed,
        report
            .map_err(|e| e.to_string())
            .and_then(|r| flows::check(&r)),
    )
}

/// A traced flow job: its spans and what the replay computed.
struct TracedJob {
    spans: Vec<Span>,
    /// Replay wall time without the repeatability check, ms.
    replay_ms: f64,
    replay: Replay,
}

/// Replay `job` under a fresh trace.
fn traced_replay(
    job: &FlowJob,
    lib: &Library,
    id: usize,
    epoch: Instant,
) -> Result<TracedJob, String> {
    let t = JobTrace::new(id, epoch);
    let replay = flows::replay(job, lib, &t)?;
    let spans = t.into_spans();
    let replay_ms = layer_ms(&spans, "flow") - layer_ms(&spans, "convert.repeat");
    Ok(TracedJob {
        spans,
        replay_ms,
        replay,
    })
}

/// Per-layer metrics of the flow layers over traced jobs.
fn flow_layer_metrics(jobs: &[TracedJob]) -> Vec<(&'static str, f64)> {
    let per = |f: &dyn Fn(&TracedJob) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let layer = |name: &'static str| per(&|j| layer_ms(&j.spans, name));
    let share = |f: fn(&Replay) -> bool| {
        ratio(
            jobs.iter().filter(|j| f(&j.replay)).count() as f64,
            jobs.len() as f64,
        )
    };
    let ilp = |j: &TracedJob| layer_ms(&j.spans, "ilp");
    vec![
        ("sim.equiv_ms", layer("sim.equiv")),
        ("sim.ms", layer("sim")),
        (
            "sim.ns_per_gate_cycle",
            per(&|j| layer_ms(&j.spans, "sim") * 1e6 / j.replay.sim_gate_cycles),
        ),
        ("pnr.ms", layer("pnr")),
        ("pnr.trial_ms", layer("pnr.trial")),
        (
            "pnr.ns_per_move",
            per(&|j| {
                (layer_ms(&j.spans, "pnr") + layer_ms(&j.spans, "pnr.trial")) * 1e6
                    / j.replay.pnr_moves
            }),
        ),
        ("timing.ms", layer("timing")),
        ("dfa.ms", layer("dfa")),
        ("activity.ms", layer("activity")),
        ("activity.static_share", share(|r| r.static_ok)),
        ("retime.ms", layer("retime")),
        ("ilp.ms", layer("ilp")),
        ("ilp.flow_share", per(&|j| ilp(j) / j.replay_ms)),
        (
            "ilp.convert_share",
            per(&|j| ilp(j) / (ilp(j) + layer_ms(&j.spans, "convert"))),
        ),
        ("ilp.optimal_share", share(|r| r.ilp_optimal)),
        ("preprocess.ms", layer("preprocess")),
        ("convert.ms", layer("convert")),
        ("clockgate.ms", layer("clockgate")),
        ("lint.ms", layer("lint")),
        ("power.ms", layer("power")),
        ("netlist.ms", layer("netlist")),
        ("convert.repeatable_share", share(|r| r.repeatable)),
        ("par.fanout_ms", layer("par.fanout")),
        ("par.fanout_busy_ms", layer("variant")),
    ]
}

fn write_trace(a: &Args, jobs: &[TracedJob]) -> Result<(), String> {
    let path = out_dir().join(format!("spans-{}-{}.jsonl", a.workload.name(), a.seed));
    let spans: Vec<Vec<Span>> = jobs.iter().map(|j| j.spans.clone()).collect();
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {}", path.display());
    Ok(())
}

fn run(a: &Args) -> Result<Outcome, String> {
    // No warm-up job: its cost would depend on which design the seed
    // puts first (model accepted or not, map-order conversion).
    let ((lib, jobs), setup_s) = set_up(|| (Library::synthetic_28nm(), a.workload.jobs(a.seed)));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let take = || {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (i, &jobs[i % jobs.len()])
    };
    let clients = vec![(); a.workload.clients()];
    if !a.trace {
        let phase = closed_loop(clients, a.seconds as f64, |_| flow_job(take().1, &lib));
        let ok: Vec<(f64, Qor)> = phase
            .recs
            .iter()
            .filter_map(|(lat, r)| r.as_ref().ok().map(|q| (*lat, *q)))
            .collect();
        for (_, r) in &phase.recs {
            if let Err(e) = r {
                eprintln!("failed job: {e}");
            }
        }
        let (lat, qor): (Vec<f64>, Vec<Qor>) = ok.into_iter().unzip();
        return Ok(Outcome {
            attempted: phase.recs.len(),
            failed: phase.recs.len() - lat.len(),
            metrics: end_to_end(a.workload, &phase, &lat, &qor, setup_s),
        });
    }

    // Traced: every job runs as the user runs it and as a replay, in
    // alternating order so neither side always runs on warm caches. On
    // jobs whose conversion cannot depend on map order, the drift guard
    // compares the two.
    let epoch = Instant::now();
    let phase = closed_loop(clients, a.seconds as f64, |_| {
        let (i, job) = take();
        let run = || {
            let t0 = Instant::now();
            let report = job.run(&lib);
            (ms(t0.elapsed()), report)
        };
        let replay = || traced_replay(job, &lib, i, epoch);
        let ((flow_ms, report), traced) = if i % 2 == 0 {
            let f = run();
            (f, replay())
        } else {
            let r = replay();
            (run(), r)
        };
        (i, flow_ms, report, traced)
    });
    let mut traced = Vec::new();
    let (mut flow_ms, mut failed) = (Vec::new(), 0);
    for (i, ms, report, replayed) in phase.recs {
        let name = &jobs[i % jobs.len()].nl.name;
        let t = replayed.map_err(|e| format!("job {i} ({name}): replay failed in {e}"))?;
        match report
            .map_err(|e| e.to_string())
            .and_then(|r| flows::check(&r).map(|_| r))
        {
            Ok(report) => {
                flow_ms.push(ms);
                let drift = flows::first_divergence(&report, &t.replay);
                if let (true, Some(layer)) = (t.replay.order_free(), drift) {
                    return Err(format!(
                        "drift guard: job {i} ({name}): the replay first diverges from \
                         run_flow_with at layer {layer}"
                    ));
                }
            }
            Err(e) => {
                eprintln!("failed job {i}: {e}");
                failed += 1;
            }
        }
        traced.push(t);
    }
    write_trace(a, &traced)?;
    let overhead = ratio(
        median(&traced.iter().map(|t| t.replay_ms).collect::<Vec<_>>()),
        median(&flow_ms),
    );
    let serve = serve_layers(a.seed)?;
    let mut metrics = flow_layer_metrics(&traced);
    metrics.extend(serve.metrics);
    metrics.push(("trace.overhead_ratio", overhead));
    Ok(Outcome {
        attempted: traced.len() + serve.attempted,
        failed: failed + serve.failed,
        metrics,
    })
}

/// Drive the daemon's job mix traced for [`SERVE_LAYER_SECONDS`] on a
/// fresh, warmed-up daemon, then stop it. Returns the serve layers'
/// metrics with the jobs attempted and failed.
fn serve_layers(seed: u64) -> Result<Outcome, String> {
    let daemon = Daemon::start(&out_dir())?;
    let clients = daemon.connect(seed, SERVE_CLIENTS, SERVE_LAYER_SECONDS)?;
    daemon.warm_up(seed)?;
    let (ev0, j0) = (daemon.evictions(), daemon.journal_bytes());
    let phase = closed_loop(clients, SERVE_LAYER_SECONDS, serve::step);
    let (ev, jb) = (daemon.evictions() - ev0, daemon.journal_bytes() - j0);
    daemon.stop();
    let mut failed = 0;
    for r in &phase.recs {
        if let Err(e) = &r.outcome {
            eprintln!("failed serve job ({:?}): {e}", r.class);
            failed += 1;
        }
    }
    Ok(Outcome {
        attempted: phase.recs.len(),
        failed,
        metrics: serve::layer_metrics(&phase.recs, ev, jb),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = run(&args).and_then(|out| {
        for (name, unit) in catalogue {
            if let Some((_, v)) = out.metrics.iter().find(|(n, _)| n == name) {
                println!("{name:<26} {v:>14.6} {unit}");
            }
        }
        println!(
            "{:<26} {:>14.6} ratio ({} of {} jobs failed)",
            "error_rate",
            ratio(out.failed as f64, out.attempted as f64),
            out.failed,
            out.attempted
        );
        metrics::result_line(&out, catalogue)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("triphase-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let ok = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = ok("--workload flow_cores --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Cores, 3, 10, true)
        );
        assert!(ok("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload flow_iscas --seed 3 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload flow_iscas --seed 3 --trace 0").is_err());
        assert!(ok("--workload flow_iscas --seed 3 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn short_runs_of_every_workload_have_no_errors() {
        for w in Workload::ALL {
            let out = run(&args(w, false)).expect("run completes");
            assert!(out.attempted > 0, "{w:?}");
            assert_eq!(out.failed, 0, "{w:?}: error_rate must be 0");
            metrics::result_line(&out, &END_TO_END).expect("every end-to-end metric");
        }
    }

    #[test]
    fn traced_runs_write_every_per_layer_metric() {
        let out = run(&args(Workload::Iscas, true)).expect("traced run completes");
        assert_eq!(out.failed, 0);
        metrics::result_line(&out, &PER_LAYER).expect("every per-layer metric");
    }
}
