//! Overload, deadline, cancellation, and drain behavior over real
//! sockets: the daemon sheds excess load with typed `overloaded` +
//! `retry_after_ms`, aborts past-deadline jobs with the last banked
//! stage named, kills queued and running jobs on `cancel`, and keeps
//! serving after a contained worker panic.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use triphase_circuits::pipeline::linear_pipeline;
use triphase_core::FlowConfig;
use triphase_fault::{Fault, FaultPlan, Injector};
use triphase_netlist::{snapshot, Netlist};
use triphase_serve::{Client, Json, Server, ServerOptions};

fn quick_cfg() -> FlowConfig {
    let mut cfg = FlowConfig {
        sim_cycles: 16,
        equiv_cycles: 32,
        ..FlowConfig::default()
    };
    cfg.pnr.moves_per_cell = 2;
    cfg
}

fn tiny_server(queue_depth: usize) -> Server {
    Server::start(ServerOptions {
        workers: 1,
        queue_depth,
        ..ServerOptions::default()
    })
    .expect("bind")
}

/// Build a submit frame with per-job extras (deadline etc.) the plain
/// [`Client::submit_request`] helper does not set.
fn submit_with(name: &str, nl: &Netlist, cfg: &FlowConfig, deadline_ms: Option<u64>) -> Json {
    let mut j = Json::obj();
    j.set("name", Json::Str(name.into()));
    j.set("netlist", Json::Str(snapshot::to_text(nl)));
    j.set("config", triphase_serve::proto::config_json(cfg));
    if let Some(ms) = deadline_ms {
        j.set("deadline_ms", Json::Num(ms as f64));
    }
    let mut req = Json::obj();
    req.set("kind", Json::Str("submit".into()));
    req.set("jobs", Json::Arr(vec![j]));
    req
}

/// The `done` events of `ids`, in `ids` order, whatever order they
/// arrive in.
fn recv_dones(client: &mut Client, ids: &[u64]) -> Vec<Json> {
    let mut dones = HashMap::new();
    while ids.iter().any(|id| !dones.contains_key(id)) {
        let ev = client.recv().expect("event");
        if ev.get("event").and_then(Json::as_str) == Some("done") {
            let job = ev.get("job").and_then(Json::as_f64).expect("job id");
            dones.insert(job as u64, ev);
        }
    }
    ids.iter().filter_map(|id| dones.remove(id)).collect()
}

/// An injector that holds every flow at the preprocess stage's fault
/// site until the test opens it, so "the job is running" is a state the
/// test controls rather than a race against the flow.
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.opened.notify_all();
    }
}

impl Injector for Gate {
    fn fault_at(&self, site: &str) -> Option<Fault> {
        if site == "flow.stage.preprocess" {
            let open = self.open.lock().expect("gate lock");
            // Bounded, so a failed test cannot wedge its server forever.
            let _ = self
                .opened
                .wait_timeout_while(open, Duration::from_secs(60), |open| !*open);
        }
        None
    }
}

fn acked_ids(ack: &Json) -> Vec<u64> {
    let Some(Json::Arr(ids)) = ack.get("jobs") else {
        panic!("ack without ids: {}", ack.to_pretty());
    };
    ids.iter()
        .filter_map(Json::as_f64)
        .map(|f| f as u64)
        .collect()
}

#[test]
fn overload_sheds_with_retry_hint_and_recovers_after_drain() {
    let server = tiny_server(1);
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let design = linear_pipeline(3, 4, 1, 900.0);

    // A 6-job batch against a depth-1 queue: every reservation happens
    // before any commit, so exactly one job is admitted and five shed.
    let jobs: Vec<(&str, &Netlist, &FlowConfig)> =
        (0..6).map(|_| ("burst", &design, &cfg)).collect();
    client.send(&Client::submit_request(&jobs)).expect("submit");
    let ack = client.recv().expect("ack");
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("ack"));
    let ids = acked_ids(&ack);
    assert_eq!(ids.len(), 6, "ack names every job, shed or not");

    let (mut served, mut shed) = (Vec::new(), Vec::new());
    while served.len() + shed.len() < 6 {
        let ev = client.recv().expect("event");
        if ev.get("event").and_then(Json::as_str) != Some("done") {
            continue;
        }
        if ev.get("ok") == Some(&Json::Bool(true)) {
            served.push(ev);
        } else {
            assert_eq!(
                ev.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "{}",
                ev.to_pretty()
            );
            let hint = ev
                .get("retry_after_ms")
                .and_then(Json::as_f64)
                .expect("retry hint present") as u64;
            assert!((25..=30_000).contains(&hint), "hint in bounds: {hint}");
            shed.push(ev);
        }
    }
    assert_eq!((served.len(), shed.len()), (1, 5));

    // The queue drained: an immediate resubmit is admitted and served
    // (from the report cache, even).
    let (_, done) = client.convert("retry", &design, &cfg).expect("resubmit");
    assert_eq!(done.get("ok"), Some(&Json::Bool(true)));
    server.stop();
    server.wait();
}

#[test]
fn expired_deadline_is_a_typed_error_naming_the_banked_prefix() {
    let server = tiny_server(8);
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let blocker = linear_pipeline(3, 4, 1, 900.0);
    let hurried = linear_pipeline(2, 5, 1, 900.0);

    // Occupy the single worker, then submit a job whose 1 ms deadline
    // is long gone by the time a worker picks it up.
    client
        .send(&Client::submit_request(&[("blocker", &blocker, &cfg)]))
        .expect("submit blocker");
    client
        .send(&submit_with("hurried", &hurried, &cfg, Some(1)))
        .expect("submit hurried");
    let ack1 = client.recv().expect("ack 1");
    let blocker_id = acked_ids(&ack1)[0];
    let mut hurried_id = None;
    let mut blocker_done = None;
    // The second ack and the blocker's done arrive interleaved with the
    // hurried job's events; collect both while waiting.
    let hurried_done = loop {
        let ev = client.recv().expect("event");
        match ev.get("event").and_then(Json::as_str) {
            Some("ack") => hurried_id = Some(acked_ids(&ev)[0]),
            Some("done") => {
                let job = ev.get("job").and_then(Json::as_f64).map(|f| f as u64);
                if job == Some(blocker_id) {
                    blocker_done = Some(ev);
                } else if job == hurried_id {
                    break ev;
                }
            }
            _ => {}
        }
    };
    assert_eq!(
        hurried_done.get("code").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{}",
        hurried_done.to_pretty()
    );
    let msg = hurried_done
        .get("message")
        .and_then(Json::as_str)
        .expect("message");
    assert!(
        msg.contains("last banked stage: none"),
        "aborted before any stage banked: {msg}"
    );
    // The blocker itself was unaffected (its done landed first — the
    // single worker ran it to completion before even looking at the
    // hurried job).
    let blocker_done = blocker_done.expect("blocker finished before the hurried job");
    assert_eq!(blocker_done.get("ok"), Some(&Json::Bool(true)));
    server.stop();
    server.wait();
}

#[test]
fn cancel_kills_queued_jobs_and_running_jobs_at_stage_boundaries() {
    // The running job is held just after banking its first stage until
    // both cancels have been answered, so neither cancel races the flow.
    let gate = Arc::new(Gate::default());
    let server = Server::start(ServerOptions {
        workers: 1,
        queue_depth: 8,
        fault: Some(gate.clone()),
        ..ServerOptions::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let big = linear_pipeline(3, 4, 1, 900.0);
    let small = linear_pipeline(2, 3, 1, 900.0);

    client
        .send(&Client::submit_request(&[("big", &big, &cfg)]))
        .expect("submit big");
    let big_id = acked_ids(&client.recv().expect("ack"))[0];
    client
        .send(&Client::submit_request(&[("small", &small, &cfg)]))
        .expect("submit small");

    // Cancel the queued job: its done is typed `cancelled`, and the
    // canceller hears which state the cancel hit. The two dones may
    // arrive in either order.
    let mut small_id = None;
    let mut dones = 0;
    let mut saw_cancelled_queued = false;
    let mut saw_cancelled_running = false;
    let mut big_started = false;
    loop {
        let ev = client.recv().expect("event");
        match ev.get("event").and_then(Json::as_str) {
            Some("ack") => {
                small_id = Some(acked_ids(&ev)[0]);
                let mut req = Json::obj();
                req.set("kind", Json::Str("cancel".into()));
                req.set("job", Json::Num(acked_ids(&ev)[0] as f64));
                client.send(&req).expect("cancel queued");
            }
            Some("cancelled") => {
                let job = ev.get("job").and_then(Json::as_f64).map(|f| f as u64);
                let state = ev.get("state").and_then(Json::as_str);
                if job == small_id {
                    assert_eq!(state, Some("queued"), "{}", ev.to_pretty());
                    saw_cancelled_queued = true;
                } else {
                    assert_eq!(job, Some(big_id));
                    assert_eq!(state, Some("running"), "{}", ev.to_pretty());
                    saw_cancelled_running = true;
                }
                if saw_cancelled_queued && saw_cancelled_running {
                    gate.open();
                }
            }
            Some("stage")
                if !big_started
                    && ev.get("job").and_then(Json::as_f64) == Some(big_id as f64)
                    && ev.get("stage").and_then(Json::as_str) == Some("preprocess") =>
            {
                // The big job banked preprocess and passed its cancel
                // check; it now waits at the gate: cancel it too.
                big_started = true;
                let mut req = Json::obj();
                req.set("kind", Json::Str("cancel".into()));
                req.set("job", Json::Num(big_id as f64));
                client.send(&req).expect("cancel running");
            }
            Some("done") => {
                let job = ev.get("job").and_then(Json::as_f64).map(|f| f as u64);
                if job == small_id {
                    dones += 1;
                    assert_eq!(
                        ev.get("code").and_then(Json::as_str),
                        Some("cancelled"),
                        "{}",
                        ev.to_pretty()
                    );
                } else if job == Some(big_id) {
                    dones += 1;
                    assert_eq!(
                        ev.get("code").and_then(Json::as_str),
                        Some("cancelled"),
                        "{}",
                        ev.to_pretty()
                    );
                    // The cancel landed at the first boundary after the
                    // gate: convert was recorded, then observed.
                    let msg = ev.get("message").and_then(Json::as_str).expect("msg");
                    assert!(msg.contains("last banked stage: convert"), "{msg}");
                }
            }
            _ => {}
        }
        if dones == 2 {
            break;
        }
    }
    assert!(saw_cancelled_queued);

    // Cancelling an unknown id is answered, not ignored.
    let mut req = Json::obj();
    req.set("kind", Json::Str("cancel".into()));
    req.set("job", Json::Num(99_999.0));
    client.send(&req).expect("cancel unknown");
    let ev = client.recv().expect("cancelled event");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("cancelled"));
    assert_eq!(ev.get("state").and_then(Json::as_str), Some("unknown"));
    server.stop();
    server.wait();
}

#[test]
fn queue_keeps_serving_after_a_contained_worker_panic() {
    let fault = FaultPlan::new(1)
        .inject("flow.stage.retime", Fault::Panic)
        .shared();
    let server = Server::start(ServerOptions {
        workers: 1,
        fault: Some(fault),
        ..ServerOptions::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let cfg = quick_cfg();
    let design = linear_pipeline(3, 4, 1, 900.0);

    let (_, done) = client.convert("victim", &design, &cfg).expect("first run");
    assert_eq!(done.get("code").and_then(Json::as_str), Some("panic"));

    // The daemon survived its worker's panic: control plane still
    // answers, and the resubmission is served to completion (the banked
    // prefix replays; retime's fault site is skipped on a cache hit).
    client
        .send(&Json::parse("{\"kind\": \"ping\"}").expect("ping"))
        .expect("send ping");
    assert_eq!(
        client
            .recv()
            .expect("pong")
            .get("event")
            .and_then(Json::as_str),
        Some("pong")
    );
    let (_, done2) = client.convert("victim", &design, &cfg).expect("second run");
    assert_eq!(
        done2.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        done2.to_pretty()
    );
    server.stop();
    server.wait();
}

#[test]
fn drain_shutdown_finishes_queued_work_before_stopping() {
    let server = tiny_server(8);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let cfg = quick_cfg();
    let designs = [
        linear_pipeline(3, 4, 1, 900.0),
        linear_pipeline(2, 5, 1, 900.0),
    ];
    let jobs: Vec<(&str, &Netlist, &FlowConfig)> =
        designs.iter().map(|nl| ("drainee", nl, &cfg)).collect();
    client.send(&Client::submit_request(&jobs)).expect("submit");
    let ids = acked_ids(&client.recv().expect("ack"));

    // Shutdown in drain mode from a second connection: the bye echoes
    // the mode, and every already-admitted job still completes.
    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .send(&Json::parse("{\"kind\": \"shutdown\", \"mode\": \"drain\"}").expect("req"))
        .expect("send shutdown");
    let bye = admin.recv().expect("bye");
    assert_eq!(bye.get("event").and_then(Json::as_str), Some("bye"));
    assert_eq!(bye.get("mode").and_then(Json::as_str), Some("drain"));

    for done in recv_dones(&mut client, &ids) {
        assert_eq!(
            done.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            done.to_pretty()
        );
    }
    server.wait();
}
