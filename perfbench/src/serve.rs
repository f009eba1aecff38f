//! The daemon's job mix, driven by the traced runs to measure the serve
//! layers: an in-process daemon with a durable journal, driven over two
//! connections by a seeded mix of cold, identical and ECO resubmissions,
//! with a client-side timestamp at every event.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use triphase_core::FlowConfig;
use triphase_netlist::gen::Recipe;
use triphase_netlist::{Netlist, SplitMix64};
use triphase_serve::{strip_timings, Client, ClientError, Json, Server, ServerOptions};

use crate::stats::{median, mix, ms, percentile, ratio};

/// A job's class in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A netlist the daemon has not seen.
    Cold,
    /// A resubmission of a finished job: answered from the report tier.
    Identical,
    /// The same netlist with `ddcg_threshold` changed: preprocess,
    /// convert and retime replay from the stage memo.
    Eco,
}

/// Class weights of the mix. Identical jobs take about a tenth of a
/// cold or ECO job, so they stay a minority: the median then falls
/// inside the cold/ECO mode instead of in the gap between the modes.
const WEIGHTS: [(Class, f64); 3] = [
    (Class::Cold, 0.4),
    (Class::Identical, 0.2),
    (Class::Eco, 0.4),
];

/// Recent cold designs per client that identical and ECO jobs pick
/// from. Two clients' windows hold a few hundred memo entries, well
/// inside the default budget, so resubmissions never miss for lack of
/// room even while older designs are evicted.
const WINDOW: usize = 32;

/// Cold designs generated per client and per measured second in set-up.
/// Past this, a client generates more on demand.
const COLD_PER_SECOND: usize = 80;

/// One job's inputs.
#[derive(Clone)]
pub struct Design {
    /// Job name.
    pub name: String,
    /// The netlist.
    pub nl: Netlist,
    /// Flow settings.
    pub cfg: FlowConfig,
}

/// Seeded [`Recipe`] designs at `loadgen`'s full-mix sizing and job
/// settings, keeping those with flip-flops whose cell count lies in
/// [`CELLS`]. `stream` separates the clients' sequences.
pub fn designs(seed: u64, stream: u64) -> impl Iterator<Item = Design> + Send {
    (0u64..)
        .flat_map(move |batch| Recipe::stream(mix(seed, stream << 32 | batch), 64, 20, 8))
        .filter_map(|recipe| {
            let nl = recipe.build();
            let cells = nl.stats().cells;
            let fits = nl.validate().is_ok() && nl.stats().ffs > 0 && CELLS.contains(&cells);
            fits.then(|| {
                let mut cfg = FlowConfig {
                    seed: recipe.seed + 1,
                    sim_cycles: 128,
                    equiv_cycles: 256,
                    ..FlowConfig::default()
                };
                cfg.pnr.moves_per_cell = 2;
                Design {
                    name: nl.name.clone(),
                    nl,
                    cfg,
                }
            })
        })
}

/// Cell-count band of the cold designs: the middle of the full mix
/// (about its 50th to 90th percentile), so that cold jobs have about the
/// same size.
const CELLS: std::ops::RangeInclusive<usize> = 64..=160;

/// A finished cold job a client may resubmit.
struct Banked {
    design: Design,
    /// Its report with timings stripped: what an identical resubmission
    /// must return.
    report: String,
}

/// One closed-loop client: its connection, its seeded class sequence,
/// its fresh designs and its window of finished cold jobs.
pub struct ClientState {
    client: Client,
    rng: SplitMix64,
    fresh: VecDeque<Design>,
    more: Box<dyn Iterator<Item = Design> + Send>,
    window: VecDeque<Banked>,
    ecos: u64,
}

impl ClientState {
    fn pick(&mut self) -> Class {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if self.window.is_empty() {
            return Class::Cold;
        }
        let mut acc = 0.0;
        for (class, w) in WEIGHTS {
            acc += w;
            if u < acc {
                return class;
            }
        }
        Class::Cold
    }
}

/// Client-side timestamps of one job.
#[derive(Debug, Clone, Default)]
pub struct JobTimes {
    /// Building the `submit` frame.
    pub encode_ms: f64,
    /// Submit sent → `ack` (admission plus the journal's fsync).
    pub admit_ms: f64,
    /// `ack` → first `stage` event.
    pub queue_wait_ms: f64,
    /// `Json::parse` of the `done` event.
    pub decode_ms: f64,
    /// Report-tier outcome, when the daemon reported one.
    pub report_hit: Option<bool>,
    /// Stage-tier hits.
    pub stage_hits: u32,
    /// Stage-tier misses.
    pub stage_misses: u32,
}

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobRec {
    /// Its class.
    pub class: Class,
    /// Submit → `done`, ms.
    pub ms: f64,
    /// `Ok` for a correct, successful job; the failure otherwise.
    pub outcome: Result<(), String>,
    /// Whether the daemon shed it as `overloaded`.
    pub shed: bool,
    /// Timestamps; `None` when the transport failed.
    pub times: Option<JobTimes>,
}

/// [`Client::convert`] with a timestamp at every event.
fn convert_traced(client: &mut Client, d: &Design) -> Result<(Json, JobTimes), ClientError> {
    let t0 = Instant::now();
    let req = Client::submit_request(&[(&d.name, &d.nl, &d.cfg)]);
    let mut times = JobTimes {
        encode_ms: ms(t0.elapsed()),
        ..JobTimes::default()
    };
    let sent = Instant::now();
    client.send(&req)?;
    let (mut acked, mut staged) = (None, None);
    loop {
        let event = client.recv()?;
        let now = Instant::now();
        match event.get("event").and_then(Json::as_str) {
            Some("ack") => acked = Some(now),
            Some("stage") => {
                staged.get_or_insert(now);
                let hit = event.get("cache").and_then(Json::as_str) == Some("hit");
                if event.get("stage").and_then(Json::as_str) == Some("report") {
                    times.report_hit = Some(hit);
                } else if hit {
                    times.stage_hits += 1;
                } else {
                    times.stage_misses += 1;
                }
            }
            Some("done") => {
                let text = event.to_pretty();
                let t = Instant::now();
                let parsed = Json::parse(&text).map_err(ClientError::BadFrame)?;
                times.decode_ms = ms(t.elapsed());
                std::hint::black_box(parsed);
                let acked = acked.unwrap_or(now);
                times.admit_ms = ms(acked - sent);
                times.queue_wait_ms = ms(staged.unwrap_or(now).saturating_duration_since(acked));
                return Ok((event, times));
            }
            Some("error") => return Err(ClientError::BadFrame(event.to_pretty())),
            _ => {}
        }
    }
}

/// The number at `path` in `v`, or NaN.
fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Check a `done` event (both equivalences proven, positive finite QoR)
/// and return its report with timings stripped.
fn check_done(done: &Json) -> Result<String, String> {
    if done.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "job failed: {}",
            done.get("message").and_then(Json::as_str).unwrap_or("?")
        ));
    }
    let mut report = done.get("report").cloned().ok_or("done without a report")?;
    for key in ["equiv_ms", "equiv_3p"] {
        if report.get(key) != Some(&Json::Bool(true)) {
            return Err(format!("{key} is not true"));
        }
    }
    let power = num(&report, &["three_phase", "power", "total_mw"])
        / num(&report, &["ff", "power", "total_mw"]);
    let regs = num(&report, &["three_phase", "registers"]) / num(&report, &["ms", "registers"]);
    if !(power.is_finite() && power > 0.0 && regs.is_finite() && regs > 0.0) {
        return Err(format!("QoR power {power}, registers {regs}"));
    }
    strip_timings(&mut report);
    Ok(report.to_pretty())
}

/// One closed-loop step: pick a class, submit, wait for `done`, check.
pub fn step(st: &mut ClientState) -> JobRec {
    let class = st.pick();
    let (design, banked) = match class {
        Class::Cold => {
            let next = st.fresh.pop_front().or_else(|| st.more.next());
            (next.expect("the design stream is endless"), None)
        }
        Class::Identical | Class::Eco => {
            let i = st.rng.next_u64() as usize % st.window.len();
            let b = &st.window[i];
            let mut design = b.design.clone();
            if class == Class::Eco {
                // A threshold no earlier job of this client used, so the
                // report tier misses and only clock gating reruns; the
                // steps stay small so that ECO jobs keep their character
                // through the run.
                st.ecos += 1;
                design.cfg.ddcg_threshold += 1e-6 * st.ecos as f64;
            }
            (design, Some(b.report.clone()))
        }
    };
    let t0 = Instant::now();
    let answer = convert_traced(&mut st.client, &design);
    let elapsed = ms(t0.elapsed());
    let (done, times) = match answer {
        Ok(a) => a,
        Err(e) => {
            return JobRec {
                class,
                ms: elapsed,
                outcome: Err(format!("transport: {e}")),
                shed: false,
                times: None,
            }
        }
    };
    let shed = done.get("code").and_then(Json::as_str) == Some("overloaded");
    let outcome = check_done(&done).and_then(|report| {
        match (class, banked) {
            (Class::Cold, _) => {
                st.window.push_back(Banked { design, report });
                if st.window.len() > WINDOW {
                    st.window.pop_front();
                }
            }
            (Class::Identical, Some(expected)) if expected != report => {
                return Err("identical resubmission returned another report".into());
            }
            (Class::Identical, _) if done.get("cached_report") != Some(&Json::Bool(true)) => {
                return Err("identical resubmission missed the report tier".into());
            }
            _ => {}
        }
        Ok(())
    });
    JobRec {
        class,
        ms: elapsed,
        outcome,
        shed,
        times: Some(times),
    }
}

/// A started daemon with its journal directory.
pub struct Daemon {
    server: Server,
    dir: PathBuf,
    journal: PathBuf,
}

impl Daemon {
    /// Start a daemon with default options and a durable journal in a
    /// fresh directory under `out`.
    ///
    /// # Errors
    ///
    /// Directory creation or daemon start failures.
    pub fn start(out: &Path) -> Result<Daemon, String> {
        static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out.join(format!("serve-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let journal = dir.join("jobs.journal");
        let server = Server::start(ServerOptions {
            journal: Some(journal.clone()),
            ..ServerOptions::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        Ok(Daemon {
            server,
            dir,
            journal,
        })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(self.server.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Connect `clients` clients with their seeded mixes and enough fresh
    /// designs for `seconds` of load.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(
        &self,
        seed: u64,
        clients: usize,
        seconds: f64,
    ) -> Result<Vec<ClientState>, String> {
        (0..clients as u64)
            .map(|c| -> Result<ClientState, String> {
                let mut more = designs(seed, c);
                let stock = (COLD_PER_SECOND as f64 * seconds.max(1.0)) as usize;
                let fresh = more.by_ref().take(stock).collect();
                Ok(ClientState {
                    client: self.client()?,
                    rng: SplitMix64::new(mix(seed, 0x5e5e + c)),
                    fresh,
                    more: Box::new(more),
                    window: VecDeque::new(),
                    ecos: 0,
                })
            })
            .collect()
    }

    /// Warm the daemon up on a connection of its own: one design outside
    /// every client's stream, run cold, then identically, then as an ECO.
    ///
    /// # Errors
    ///
    /// Connection failures and failed or wrong jobs.
    pub fn warm_up(&self, seed: u64) -> Result<(), String> {
        let design = designs(seed, u64::from(u32::MAX))
            .next()
            .expect("endless stream");
        let mut client = self.client()?;
        for bump in [0.0, 0.0, 1e-3] {
            let mut d = design.clone();
            d.cfg.ddcg_threshold += bump;
            let (_, done) = client
                .convert(&d.name, &d.nl, &d.cfg)
                .map_err(|e| format!("warm-up: {e}"))?;
            check_done(&done).map_err(|e| format!("warm-up {}: {e}", d.name))?;
        }
        Ok(())
    }

    /// Bytes in the journal file.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }

    /// Memo evictions so far, both tiers.
    pub fn evictions(&self) -> u64 {
        let (stage, report) = self.server.memo_stats();
        stage.evictions + report.evictions
    }

    /// Drain the daemon, join its threads and delete the journal
    /// directory. Clients must have disconnected.
    pub fn stop(self) {
        self.server.stop();
        self.server.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The serve layer's per-layer metrics over traced jobs.
pub fn layer_metrics(
    recs: &[JobRec],
    evictions: u64,
    journal_bytes: u64,
) -> Vec<(&'static str, f64)> {
    let times: Vec<&JobTimes> = recs.iter().filter_map(|r| r.times.as_ref()).collect();
    let of = |f: fn(&JobTimes) -> f64| median(&times.iter().map(|t| f(t)).collect::<Vec<_>>());
    let class_p50 = |c: Class| {
        let v: Vec<f64> = recs.iter().filter(|r| r.class == c).map(|r| r.ms).collect();
        percentile(&v, 50.0).unwrap_or(0.0)
    };
    let reports: Vec<bool> = times.iter().filter_map(|t| t.report_hit).collect();
    let hits = reports.iter().filter(|h| **h).count();
    let stage_hits: u32 = times.iter().map(|t| t.stage_hits).sum();
    let stage_all: u32 = times.iter().map(|t| t.stage_hits + t.stage_misses).sum();
    let n = recs.len() as f64;
    vec![
        ("serve.admit_ms", of(|t| t.admit_ms)),
        ("serve.queue_wait_ms", of(|t| t.queue_wait_ms)),
        (
            "serve.shed_rate",
            ratio(recs.iter().filter(|r| r.shed).count() as f64, n),
        ),
        ("serve.cold_ms", class_p50(Class::Cold)),
        ("serve.identical_ms", class_p50(Class::Identical)),
        ("serve.eco_ms", class_p50(Class::Eco)),
        (
            "memo.report_hit_rate",
            ratio(hits as f64, reports.len() as f64),
        ),
        (
            "memo.stage_hit_rate",
            ratio(f64::from(stage_hits), f64::from(stage_all)),
        ),
        ("memo.evictions", evictions as f64),
        ("journal.bytes_per_job", ratio(journal_bytes as f64, n)),
        ("proto.encode_ms", of(|t| t.encode_ms)),
        ("proto.decode_ms", of(|t| t.decode_ms)),
    ]
}
