//! End-to-end socket tests for `amnesiac serve` with the real handler:
//! the wire payloads must mirror the typed `run()` core (and therefore
//! the CLI's `--json` artifacts), and the service semantics — deadlines,
//! backpressure, drain-on-shutdown — must hold under the real workload
//! costs, not just the toy handler `amnesiac-serve` tests with.

use std::time::Duration;

use amnesiac_cli::{execute, parse_args, run, serve_handler, Response};
use amnesiac_serve::{code, Client, ClientConfig, Request, Server, ServerConfig};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn start(workers: usize, backlog: usize, timeout_ms: u64) -> Server {
    let config = ServerConfig {
        port: 0,
        workers,
        backlog,
        timeout_ms,
        ..ServerConfig::default()
    };
    Server::start(config, serve_handler()).expect("server starts")
}

#[test]
fn socket_payload_equals_the_cli_json_artifact() {
    let dir = std::env::temp_dir().join("amnesiac-serve-parity-test");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_string_lossy().into_owned();

    // CLI side: `amnesiac compile bench:is --json <dir>` writes compile.json.
    let cmd = parse_args(&args(&["compile", "bench:is", "--json", &dir_str])).unwrap();
    execute(&cmd).unwrap();
    let on_disk =
        amnesiac_telemetry::parse(&std::fs::read_to_string(dir.join("compile.json")).unwrap())
            .unwrap();

    // Wire side: the same verb over the socket answers the same document
    // (the two calls below travel different connections and must still
    // agree).
    let server = start(2, 16, 120_000);
    let connector = ClientConfig::new()
        .attempts(3)
        .backoff(Duration::from_millis(5), Duration::from_millis(50))
        .read_timeout(Some(Duration::from_secs(120)));
    let mut clients = [
        connector.connect(server.addr()).unwrap(),
        connector.connect(server.addr()).unwrap(),
    ];
    let response = clients[0]
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_id(1u64),
        )
        .unwrap();
    assert!(response.is_ok(), "error: {:?}", response.error());
    assert_eq!(response.payload().unwrap(), &on_disk);

    // Same story for verify (a different payload family).
    let cmd = parse_args(&args(&["verify", "bench:is", "--json", &dir_str])).unwrap();
    execute(&cmd).unwrap();
    let on_disk =
        amnesiac_telemetry::parse(&std::fs::read_to_string(dir.join("verify.json")).unwrap())
            .unwrap();
    let response = clients[1]
        .call(&Request::new("verify").with_target("bench:is").with_id(2u64))
        .unwrap();
    assert!(response.is_ok());
    assert_eq!(response.payload().unwrap(), &on_disk);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eight_concurrent_clients_complete_a_mixed_batch_without_mismatches() {
    // serve-smoke IS the acceptance harness: 8 concurrent clients, a
    // mixed pipelined batch each, every payload checked against the
    // typed core, plus stats and unknown-verb probes.
    let cmd = parse_args(&args(&["serve-smoke", "--workers", "4"])).unwrap();
    match run(&cmd).unwrap() {
        Response::ServeSmoke {
            checks, failures, ..
        } => {
            assert!(failures.is_empty(), "smoke failures: {failures:#?}");
            // 8 clients x 5 cases + stats + unknown-verb probe
            // + 3 cache probes (byte-identity, hit count, mutation miss)
            assert_eq!(checks, 8 * 5 + 2 + 3);
        }
        other => panic!("expected ServeSmoke, got {other:?}"),
    }
}

#[test]
fn expired_deadline_is_a_structured_timeout_error() {
    // A 1 ms deadline is far below what the suite costs, so the request
    // must come back as a structured timeout, not a hang or a drop.
    let server = start(1, 8, 1);
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let response = client
        .call(&Request::new("experiments").with_id("slow"))
        .unwrap();
    let error = response.error().expect("timed out, not answered");
    assert_eq!(error.code, code::TIMEOUT);
    server.stop();
}

#[test]
fn overflowing_the_backlog_is_a_structured_overloaded_error() {
    // One worker, a backlog of one: the first slow request occupies the
    // only slot, so a burst behind it must be refused with `overloaded`
    // (and the refusals must not poison the connection).
    let server = start(1, 1, 300_000);
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let mut requests = vec![Request::new("experiments").with_id("occupant")];
    for i in 0..4 {
        requests.push(
            Request::new("compile")
                .with_target("bench:is")
                .with_id(i as u64),
        );
    }
    let responses = client.batch(&requests).unwrap();
    assert_eq!(responses.len(), requests.len(), "no response was dropped");
    assert!(responses[0].is_ok(), "occupant: {:?}", responses[0].error());
    let overloaded = responses[1..]
        .iter()
        .filter(|r| r.error().is_some_and(|e| e.code == code::OVERLOADED))
        .count();
    assert!(overloaded >= 1, "burst was never refused: {responses:#?}");
    server.stop();
}

#[test]
fn malformed_requests_get_structured_errors_not_drops() {
    let server = start(1, 8, 120_000);
    let mut client = Client::connect(server.addr()).unwrap();
    // unknown scale value
    let response = client
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_scale("huge")
                .with_id(1u64),
        )
        .unwrap();
    assert_eq!(response.error().unwrap().code, code::BAD_REQUEST);
    // missing target on a verb that needs one
    let response = client.call(&Request::new("compile").with_id(2u64)).unwrap();
    assert_eq!(response.error().unwrap().code, code::BAD_REQUEST);
    // tool-level failure surfaces the CLI's stable error code
    let response = client
        .call(
            &Request::new("simulate")
                .with_target("bench:nope")
                .with_id(3u64),
        )
        .unwrap();
    assert_eq!(response.error().unwrap().code, code::TOOL);
    server.stop();
}

#[test]
fn shutdown_drains_the_in_flight_request_then_refuses_new_work() {
    let server = start(1, 8, 300_000);
    let addr = server.addr();
    let mut worker = Client::connect(addr).unwrap();
    worker
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    worker
        .send(&Request::new("experiments").with_id("draining"))
        .unwrap();

    // Only admitted requests drain, and `send` returns once the bytes are
    // written, not once the server has admitted them: wait for the
    // admission counter (`stats` bypasses the backlog) before `shutdown`.
    let mut admin = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = admin.call(&Request::new("stats")).unwrap();
        let inflight = stats
            .payload()
            .and_then(|p| p.get("inflight").and_then(amnesiac_telemetry::Json::as_f64))
            .unwrap();
        if inflight >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the in-flight request was never admitted"
        );
    }
    let response = admin.call(&Request::new("shutdown")).unwrap();
    assert!(response.is_ok());

    // New work is refused while draining...
    let refused = admin
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_id(9u64),
        )
        .unwrap();
    assert_eq!(refused.error().unwrap().code, code::SHUTTING_DOWN);

    // ...but the in-flight suite still completes and is delivered.
    let drained = worker.recv().unwrap();
    assert!(
        drained.is_ok(),
        "in-flight request was dropped: {drained:#?}"
    );

    drop(worker);
    drop(admin);
    server.stop();
}
