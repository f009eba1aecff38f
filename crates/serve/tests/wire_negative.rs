//! Wire-format negative corpus: malformed, truncated, oversized, and
//! hostile frames must come back as typed protocol errors — and the
//! daemon must survive every one of them.

use std::io::Write;
use std::net::TcpStream;

use triphase_serve::{Client, Json, Server, ServerOptions};

fn expect_error(client: &mut Client, payload: &str, code: &str) {
    client.send_raw(payload).expect("send");
    let ev = client.recv().expect("error frame");
    assert_eq!(
        ev.get("event").and_then(Json::as_str),
        Some("error"),
        "for {payload:?}: {}",
        ev.to_pretty()
    );
    assert_eq!(
        ev.get("code").and_then(Json::as_str),
        Some(code),
        "for {payload:?}: {}",
        ev.to_pretty()
    );
}

fn assert_alive(client: &mut Client) {
    client
        .send(&{
            let mut r = Json::obj();
            r.set("kind", Json::Str("ping".into()));
            r
        })
        .expect("ping");
    let ev = client.recv().expect("pong");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("pong"));
}

#[test]
fn malformed_request_corpus_returns_typed_errors_and_keeps_serving() {
    let server = Server::start(ServerOptions::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let corpus: &[(&str, &str)] = &[
        ("", "bad_json"),
        ("not json at all", "bad_json"),
        ("{\"kind\": \"submit\"", "bad_json"),
        ("[1, 2, 3]", "bad_request"),
        ("42", "bad_request"),
        ("{}", "bad_request"),
        ("{\"kind\": 7}", "bad_request"),
        ("{\"kind\": \"warp\"}", "unknown_kind"),
        (
            "{\"kind\": \"shutdown\", \"mode\": \"eventually\"}",
            "bad_request",
        ),
        ("{\"kind\": \"submit\"}", "bad_request"),
        ("{\"kind\": \"submit\", \"jobs\": []}", "bad_request"),
        ("{\"kind\": \"submit\", \"jobs\": [{}]}", "bad_request"),
        (
            "{\"kind\": \"submit\", \"jobs\": [{\"netlist\": \"gibberish ][\"}]}",
            "bad_netlist",
        ),
    ];
    // An empty-but-valid snapshot, to reach the config parser.
    let empty = "netlist v1\\nname x\\nnets 0\\ncells 0\\nports 0\\nclock none\\nend\\n";
    let config_corpus = [
        (
            format!(
                "{{\"kind\": \"submit\", \"jobs\": [{{\"netlist\": \"{empty}\", \
                 \"config\": {{\"frobnicate\": 1}}}}]}}"
            ),
            "bad_config",
        ),
        (
            format!(
                "{{\"kind\": \"submit\", \"jobs\": [{{\"netlist\": \"{empty}\", \
                 \"config\": {{\"seed\": \"abc\"}}}}]}}"
            ),
            "bad_config",
        ),
        (
            format!(
                "{{\"kind\": \"submit\", \"jobs\": [{{\"netlist\": \"{empty}\", \
                 \"config\": {{\"sim_backend\": \"quantum\"}}}}]}}"
            ),
            "bad_config",
        ),
        // A retired backend is an unknown value like any other.
        (
            format!(
                "{{\"kind\": \"submit\", \"jobs\": [{{\"netlist\": \"{empty}\", \
                 \"config\": {{\"sim_backend\": \"packed\"}}}}]}}"
            ),
            "bad_config",
        ),
    ];
    for (payload, code) in corpus
        .iter()
        .map(|(p, c)| ((*p).to_owned(), *c))
        .chain(config_corpus.iter().map(|(p, c)| (p.clone(), *c)))
    {
        expect_error(&mut client, &payload, code);
        // The error is per-frame: the same connection keeps working.
        assert_alive(&mut client);
    }

    server.stop();
    server.wait();
}

/// A pathologically nested payload trips the parser's depth cap as a
/// typed `bad_json` instead of blowing the reader thread's stack.
#[test]
fn deeply_nested_payload_is_rejected_by_the_depth_cap() {
    let server = Server::start(ServerOptions::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // 4096 nesting levels — far past the cap of 128, far short of any
    // frame-size limit (8 KiB of brackets).
    let bomb = format!("{}{}", "[".repeat(4096), "]".repeat(4096));
    expect_error(&mut client, &bomb, "bad_json");
    assert_alive(&mut client);

    // The object-form bomb takes the other recursion path.
    let bomb = format!("{}1{}", "{\"a\": ".repeat(4096), "}".repeat(4096));
    expect_error(&mut client, &bomb, "bad_json");
    assert_alive(&mut client);

    server.stop();
    server.wait();
}

/// A client speaking a different protocol version gets a typed
/// `bad_request` that names the version the server does speak, and the
/// connection survives to renegotiate.
#[test]
fn protocol_version_mismatch_names_the_supported_version() {
    let server = Server::start(ServerOptions::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    client
        .send_raw("{\"kind\": \"ping\", \"proto\": 1}")
        .expect("send v1 ping");
    let ev = client.recv().expect("error frame");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(ev.get("code").and_then(Json::as_str), Some("bad_request"));
    let msg = ev.get("message").and_then(Json::as_str).expect("message");
    assert!(
        msg.contains("version 1") && msg.contains("version 2"),
        "names both versions: {msg}"
    );

    // Matching version (and the implicit no-version form) still served.
    client
        .send_raw("{\"kind\": \"ping\", \"proto\": 2}")
        .expect("send v2 ping");
    let ev = client.recv().expect("pong");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("pong"));
    assert_alive(&mut client);

    server.stop();
    server.wait();
}

#[test]
fn truncated_frame_drops_connection_but_not_the_server() {
    let server = Server::start(ServerOptions::default()).expect("bind");

    // A header promising 100 bytes, then only 3, then a hangup.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&100u32.to_be_bytes()).expect("header");
    raw.write_all(b"abc").expect("partial payload");
    drop(raw);

    // And a bare header with no payload at all.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&[0, 0]).expect("half a header");
    drop(raw);

    let mut client = Client::connect(server.addr()).expect("connect after torn peers");
    assert_alive(&mut client);
    server.stop();
    server.wait();
}

#[test]
fn oversized_frame_is_refused_before_buffering() {
    let server = Server::start(ServerOptions {
        max_frame: 1024,
        ..ServerOptions::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    client.send_raw(&"x".repeat(2048)).expect("send oversized");
    let ev = client.recv().expect("error frame");
    assert_eq!(
        ev.get("code").and_then(Json::as_str),
        Some("frame_too_large")
    );

    // The stream can no longer be framed, so the server hangs up —
    // but a fresh connection works.
    let mut fresh = Client::connect(server.addr()).expect("reconnect");
    assert_alive(&mut fresh);
    server.stop();
    server.wait();
}

#[test]
fn non_utf8_payload_is_typed_and_stream_stays_aligned() {
    let server = Server::start(ServerOptions::default()).expect("bind");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");

    raw.write_all(&2u32.to_be_bytes()).expect("header");
    raw.write_all(&[0xff, 0xfe]).expect("hostile payload");
    raw.flush().expect("flush");

    let ev = Json::parse(
        &triphase_serve::read_frame(&mut raw, triphase_serve::MAX_FRAME_DEFAULT).expect("frame"),
    )
    .expect("error event parses");
    assert_eq!(ev.get("code").and_then(Json::as_str), Some("bad_frame"));

    // Same connection, next frame: still served.
    triphase_serve::write_frame(&mut raw, "{\"kind\": \"ping\"}").expect("ping");
    let ev = Json::parse(
        &triphase_serve::read_frame(&mut raw, triphase_serve::MAX_FRAME_DEFAULT).expect("frame"),
    )
    .expect("pong parses");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("pong"));

    server.stop();
    server.wait();
}
