//! End-to-end tests for the cluster topology: the real router over real
//! `amnesiac serve` worker *processes* (spawned from the built binary),
//! not in-process toy servers. The kill test is the accounting proof in
//! miniature: a worker dies mid-batch and every request still gets
//! exactly one response.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use amnesiac_serve::{ClientConfig, Request, Router, RouterConfig};

/// The built CLI binary — both the workers here and the children of the
/// `cluster` verb run it.
const BIN: &str = env!("CARGO_BIN_EXE_amnesiac");

/// Spawns one single-threaded worker on an ephemeral port and parses its
/// listen line.
fn spawn_worker() -> (Child, SocketAddr) {
    let mut child = Command::new(BIN)
        .args(["serve", "--port", "0", "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("worker listen line");
    // keep draining so the worker never blocks on a full pipe
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    let addr = parse_listen_addr(&line)
        .unwrap_or_else(|| panic!("no listen address in `{}`", line.trim()));
    (child, addr)
}

fn parse_listen_addr(line: &str) -> Option<SocketAddr> {
    line.split("listening on ")
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn kill(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn connector() -> ClientConfig {
    ClientConfig::new()
        .attempts(5)
        .backoff(Duration::from_millis(10), Duration::from_millis(100))
        .read_timeout(Some(Duration::from_secs(120)))
}

#[test]
fn router_speaks_v1_and_v2_over_real_worker_processes() {
    let (worker_a, addr_a) = spawn_worker();
    let (worker_b, addr_b) = spawn_worker();
    let router = Router::start(RouterConfig::default(), &[addr_a, addr_b]).unwrap();

    // Two connections: consecutive calls alternate between them.
    let mut clients = [
        connector().connect(router.addr()).unwrap(),
        connector().connect(router.addr()).unwrap(),
    ];

    // A v1 request round-trips byte-compatibly: ok payload, no meta.
    let v1 = clients[0]
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_id("v1"),
        )
        .unwrap();
    assert!(v1.is_ok(), "v1 compile failed: {:?}", v1.error());
    assert!(v1.meta.is_none(), "v1 response grew a meta block");

    // A v2 request gets the routing envelope: key echo and per-hop
    // timings through the router to a worker.
    let v2 = clients[1]
        .call(
            &Request::new("disasm")
                .with_target("bench:cg")
                .with_id("v2")
                .with_proto(2)
                .with_routing_key("some-key"),
        )
        .unwrap();
    assert!(v2.is_ok(), "v2 disasm failed: {:?}", v2.error());
    let meta = v2.meta.as_ref().expect("v2 response carries meta");
    assert_eq!(meta.routing_key, "some-key");
    assert_eq!(meta.rerouted, 0);
    assert_eq!(meta.hops.first().map(|(n, _)| n.as_str()), Some("router"));
    assert!(meta.hops.iter().any(|(n, _)| n.starts_with('w')));

    // The router's stats sweep aggregates both workers.
    let stats = clients[0]
        .call(&Request::new("stats").with_id("stats"))
        .unwrap()
        .result
        .expect("stats payload");
    assert_eq!(
        stats.get("role").and_then(|v| v.as_str()),
        Some("router"),
        "stats: {}",
        stats.compact()
    );
    assert_eq!(
        stats.get("workers_total").and_then(|v| v.as_f64()),
        Some(2.0)
    );
    assert_eq!(stats.get("workers_up").and_then(|v| v.as_f64()), Some(2.0));

    router.stop();
    kill(worker_a);
    kill(worker_b);
}

#[test]
fn killing_a_worker_mid_batch_loses_and_duplicates_nothing() {
    let mut fleet = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..3 {
        let (child, addr) = spawn_worker();
        fleet.push(Some(child));
        addrs.push(addr);
    }
    let router = Router::start(RouterConfig::default(), &addrs).unwrap();
    let mut client = connector().connect(router.addr()).unwrap();

    // Discover which worker the pinned key lands on; worker ids follow
    // the order the addresses were passed in, so hop `w<i>` is fleet[i].
    let probe = client
        .call(
            &Request::new("disasm")
                .with_target("bench:cg")
                .with_id("probe")
                .with_proto(2)
                .with_routing_key("victim-pin"),
        )
        .unwrap();
    let victim: usize = probe
        .meta
        .as_ref()
        .and_then(|m| m.hops.iter().find(|(n, _)| n.starts_with('w')).cloned())
        .and_then(|(label, _)| label[1..].parse().ok())
        .expect("victim discovered");

    // Pipeline six distinct compiles pinned to the (single-threaded)
    // victim — they queue behind each other — plus two spread requests.
    let targets = [
        "bench:mcf",
        "bench:sx",
        "bench:ca",
        "bench:fs",
        "bench:fe",
        "bench:rt",
    ];
    let mut requests: Vec<Request> = targets
        .iter()
        .enumerate()
        .map(|(i, target)| {
            Request::new("compile")
                .with_target(*target)
                .with_id(format!("p{i}"))
                .with_proto(2)
                .with_routing_key("victim-pin")
        })
        .collect();
    for i in 0..2 {
        requests.push(
            Request::new("disasm")
                .with_target("bench:cg")
                .with_id(format!("m{i}"))
                .with_proto(2)
                .with_routing_key(format!("spread-{i}")),
        );
    }
    let generation_before = router.generation();
    for request in &requests {
        client.send(request).unwrap();
    }
    // After the first response the victim still owes five — kill it.
    let first = client.recv().unwrap();
    if let Some(child) = fleet[victim].take() {
        kill(child);
    }
    let mut responses = vec![first];
    for _ in 1..requests.len() {
        responses.push(client.recv().expect("a response was lost"));
    }

    // Exactly one response per request, in order, all answered ok, and
    // the rerouting is visible in the metadata.
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(response.id, request.id, "response order broke");
        assert!(
            response.is_ok(),
            "`{}` answered {:?}",
            request.id.compact(),
            response.error()
        );
    }
    let rerouted: u64 = responses
        .iter()
        .filter_map(|r| r.meta.as_ref())
        .map(|m| m.rerouted)
        .sum();
    assert!(rerouted >= 1, "no response recorded the reroute");

    // No duplicates: the wire is silent once the batch is answered.
    client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    assert!(
        client.recv().is_err(),
        "a duplicate response arrived after the batch"
    );

    // The membership view advanced past the loss.
    assert!(router.generation() > generation_before);

    router.stop();
    for child in fleet.into_iter().flatten() {
        kill(child);
    }
}

#[test]
fn the_cluster_verb_boots_serves_and_drains_on_shutdown() {
    // The full `amnesiac cluster` process: it self-spawns its workers
    // (no env override needed — the children run the same binary),
    // serves requests, and exits zero once a shutdown drains the fleet.
    let mut cluster = Command::new(BIN)
        .args(["cluster", "--workers", "2", "--port", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("cluster spawns");
    let stdout = cluster.stdout.take().expect("cluster stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("cluster listen line");
    let addr = parse_listen_addr(&line)
        .unwrap_or_else(|| panic!("no listen address in `{}`", line.trim()));
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });

    let mut client = connector().connect(addr).unwrap();
    let response = client
        .call(
            &Request::new("compile")
                .with_target("bench:is")
                .with_id("via-cluster"),
        )
        .unwrap();
    assert!(
        response.is_ok(),
        "compile via cluster: {:?}",
        response.error()
    );
    let bye = client
        .call(&Request::new("shutdown").with_id("bye"))
        .unwrap();
    assert!(bye.is_ok());
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match cluster.try_wait().expect("wait on cluster") {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => {
                kill(cluster);
                panic!("cluster did not exit after shutdown");
            }
        }
    };
    assert!(status.success(), "cluster exited with {status}");
}
