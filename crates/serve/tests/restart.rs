//! Crash-recovery integration tests: a daemon with a journal is stopped
//! (or never finishes a job), a second daemon opens the same journal,
//! and the service contract survives the restart — banked stages replay
//! from disk, acknowledged jobs resume, and reports stay bit-exact.

use std::path::PathBuf;

use triphase_cells::Library;
use triphase_circuits::pipeline::linear_pipeline;
use triphase_core::{run_flow, FlowConfig};
use triphase_fault::{Fault, FaultPlan};
use triphase_netlist::snapshot;
use triphase_serve::{
    proto, report_json, strip_timings, AcceptRecord, Client, Journal, Json, Server, ServerOptions,
};

fn quick_cfg() -> FlowConfig {
    let mut cfg = FlowConfig {
        sim_cycles: 16,
        equiv_cycles: 32,
        ..FlowConfig::default()
    };
    cfg.pnr.moves_per_cell = 2;
    cfg
}

fn stage_names(events: &[Json]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| e.get("stage").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

fn caches(events: &[Json]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| e.get("cache").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("triphase_restart_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(journal: PathBuf) -> ServerOptions {
    ServerOptions {
        workers: 1,
        journal: Some(journal),
        ..ServerOptions::default()
    }
}

/// The PR-9 kill-resume contract, now across a **full daemon restart**:
/// a job killed mid-flow in daemon #1 resumes from its last journaled
/// stage in daemon #2 — same replayed prefix, same bit-exact report a
/// single live daemon would have produced.
#[test]
fn killed_job_resumes_from_journal_across_daemon_restart() {
    let dir = journal_dir("kill");
    let journal = dir.join("jobs.journal");
    let design = linear_pipeline(3, 4, 1, 900.0);
    let cfg = quick_cfg();

    // Daemon #1: a fault kills the job inside the retime stage's fault
    // site — which fires *after* retime's journal/memo record, so the
    // journal holds preprocess, convert, and retime when the job dies.
    let fault = FaultPlan::new(1)
        .inject("flow.stage.retime", Fault::Panic)
        .shared();
    let server = Server::start(ServerOptions {
        fault: Some(fault),
        ..opts(journal.clone())
    })
    .expect("bind #1");
    let mut client = Client::connect(server.addr()).expect("connect #1");
    let (stages, done) = client.convert("pipe", &design, &cfg).expect("killed flow");
    assert_eq!(done.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(done.get("code").and_then(Json::as_str), Some("panic"));
    assert_eq!(
        stage_names(&stages),
        ["report", "preprocess", "convert", "retime"]
    );
    server.stop();
    server.wait();

    // Daemon #2: fresh process state, same journal, no fault. The
    // resubmission must replay every stage daemon #1 banked before
    // dying and only compute clockgate (and the variants) fresh.
    let server = Server::start(opts(journal)).expect("bind #2");
    assert_eq!(server.resumed_jobs(), 0, "the job completed (as a panic)");
    let mut client = Client::connect(server.addr()).expect("connect #2");
    let (stages, done) = client.convert("pipe", &design, &cfg).expect("resumed flow");
    assert_eq!(
        done.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        done.to_pretty()
    );
    assert_eq!(
        stage_names(&stages),
        ["report", "preprocess", "convert", "retime", "clockgate"]
    );
    assert_eq!(caches(&stages), ["miss", "hit", "hit", "hit", "miss"]);

    let direct = run_flow(&design, &Library::synthetic_28nm(), &cfg).expect("direct flow");
    let mut served = done.get("report").cloned().expect("report");
    let mut expected = report_json(&direct);
    strip_timings(&mut served);
    strip_timings(&mut expected);
    assert_eq!(served, expected, "resumed report bit-matches a direct run");
    server.stop();
    server.wait();
}

/// An acknowledged job whose daemon died before *any* terminal event is
/// re-enqueued at startup and driven to completion — the journal's
/// accept record alone is enough to reconstruct and finish it.
#[test]
fn acknowledged_pending_job_is_resumed_and_finished_after_restart() {
    let dir = journal_dir("pending");
    let path = dir.join("jobs.journal");
    let design = linear_pipeline(2, 3, 1, 900.0);
    let cfg = quick_cfg();
    // Simulate the instant after `accept` hit the disk and the ack hit
    // the wire, with the daemon SIGKILL'd before the job ran: the
    // journal holds the accept record and nothing else.
    {
        let j = Journal::open(&path).expect("open journal");
        j.append_accept(&AcceptRecord {
            id: 41,
            name: "orphan".into(),
            netlist_text: snapshot::to_text(&design),
            config: proto::config_json(&cfg),
            return_netlist: false,
            deadline_ms: None,
        })
        .expect("journal accept");
    }

    let server = Server::start(opts(path)).expect("bind");
    assert_eq!(server.resumed_jobs(), 1, "the orphan is re-enqueued");
    let mut client = Client::connect(server.addr()).expect("connect");
    // The orphan's submitter is gone; watch it finish through status.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        client
            .send(&Json::parse("{\"kind\": \"status\"}").expect("status req"))
            .expect("send");
        let status = client.recv().expect("status");
        let done = status
            .get("jobs_done")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if done >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphan never finished: {}",
            status.to_pretty()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // Its report landed in the cache under the same key a resubmission
    // computes — the reconnecting client's retry is a pure cache hit,
    // and new ids keep counting past the journaled one.
    let (stages, done) = client.convert("orphan", &design, &cfg).expect("resubmit");
    assert_eq!(done.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(done.get("cached_report"), Some(&Json::Bool(true)));
    assert_eq!(stage_names(&stages), ["report"]);
    assert!(
        done.get("job").and_then(Json::as_f64).unwrap_or(0.0) as u64 > 41,
        "fresh ids continue past the journaled id space"
    );
    server.stop();
    server.wait();
}

/// A journal can hold an acknowledged job whose config names a backend
/// this daemon no longer has (`"packed"`, accepted by earlier daemons).
/// On restart the job cannot be rebuilt: it is journaled as done with
/// `bad_config` (so no later restart retries it), it is not counted as
/// resumed, and the daemon keeps serving.
#[test]
fn journaled_job_naming_a_retired_backend_is_closed_as_bad_config() {
    let dir = journal_dir("retired_backend");
    let path = dir.join("jobs.journal");
    let design = linear_pipeline(2, 3, 1, 900.0);
    let cfg = quick_cfg();
    let mut config = proto::config_json(&cfg);
    config.set("sim_backend", Json::Str("packed".into()));
    {
        let j = Journal::open(&path).expect("open journal");
        j.append_accept(&AcceptRecord {
            id: 7,
            name: "retired".into(),
            netlist_text: snapshot::to_text(&design),
            config,
            return_netlist: false,
            deadline_ms: None,
        })
        .expect("journal accept");
    }

    let server = Server::start(opts(path.clone())).expect("bind");
    assert_eq!(
        server.resumed_jobs(),
        0,
        "an unparsable config is not resumed"
    );
    let text = std::fs::read_to_string(&path).expect("read journal");
    assert!(
        text.contains("job 7\nstatus bad_config\n"),
        "job 7 closed as bad_config:\n{text}"
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    let (_, done) = client
        .convert("later", &design, &cfg)
        .expect("later submit");
    assert_eq!(
        done.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        done.to_pretty()
    );
    server.stop();
    server.wait();
    let (_, replay) = Journal::open_replay(&path).expect("replay");
    assert!(replay.pending.is_empty(), "nothing left to resume");
}
