//! Chaos end-to-end suite: a seeded [`FaultPlan`] injecting connection
//! drops, frame delays, frame corruption, and scripted worker panics
//! while a fleet of retrying [`Client`]s drives the daemon — every
//! accepted request must eventually be answered correctly, byte-for-byte
//! identical to a fault-free run; plus crash-safe snapshot coverage
//! (kill-and-restart warm start, corrupt/truncated snapshots as logged
//! cold starts).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use vtrain::client::{Client, ClientConfig};
use vtrain::prelude::*;
use vtrain::serve::{Server, ServerConfig};

/// The same small sweep the serve e2e tests use: a 16-GPU megatron-1.7B
/// design space of a few candidates — real lowering and profiling, but
/// fast enough to run dozens of times per test.
const SCENARIO: &str = r#"{
    "model": { "preset": "megatron-1.7B" },
    "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
    "sweep": { "global_batch": 16,
               "limits": { "max_tensor": 2, "max_data": 2,
                           "max_pipeline": 2, "max_micro_batch": 1 } }
}"#;

fn scenario() -> Scenario {
    Scenario::from_json(SCENARIO).expect("fixture parses")
}

fn spawn_server(mut config: ServerConfig) -> (SocketAddr, thread::JoinHandle<()>) {
    config.addr = "127.0.0.1:0".to_owned();
    let server = Server::bind(config).expect("ephemeral bind succeeds");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run().expect("serve loop")))
}

fn retrying_client(addr: SocketAddr, seed: u64) -> Client {
    Client::new(ClientConfig {
        addr: addr.to_string(),
        max_attempts: 16,
        base_backoff_ms: 2,
        max_backoff_ms: 100,
        deadline: None,
        seed,
    })
}

/// The stable response bytes of `ids` against a fault-free daemon — the
/// ground truth the chaos run must reproduce exactly.
fn fault_free_bytes(ids: &[String]) -> BTreeMap<String, String> {
    let (addr, daemon) =
        spawn_server(ServerConfig { workers: 2, threads: Some(1), ..ServerConfig::default() });
    let mut client = retrying_client(addr, 0);
    let mut bytes = BTreeMap::new();
    for id in ids {
        let response = client.sweep(id.clone(), scenario()).expect("fault-free sweep settles");
        assert!(
            matches!(response.outcome, Outcome::Ok(Report::Sweep(_))),
            "fault-free sweep succeeds: {response:?}"
        );
        bytes.insert(id.clone(), response.to_json());
    }
    client.shutdown().expect("fault-free daemon drains");
    daemon.join().expect("fault-free daemon thread");
    bytes
}

#[test]
fn chaos_fleet_settles_to_fault_free_bytes() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 3;
    let ids: Vec<String> = (0..CLIENTS)
        .flat_map(|c| (0..REQUESTS_PER_CLIENT).map(move |r| format!("chaos-{c}-{r}")))
        .collect();
    let expected = fault_free_bytes(&ids);

    let plan = FaultPlan {
        seed: 0xC4A05,
        drop_response: 0.15,
        delay_response: 0.2,
        max_delay_ms: 5,
        corrupt_response: 0.1,
        panic_on_requests: vec![2, 5, 9],
    };
    let (addr, daemon) = spawn_server(ServerConfig {
        workers: 2,
        threads: Some(1),
        fault_plan: Some(plan),
        ..ServerConfig::default()
    });

    let fleet: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ids: Vec<String> =
                (0..REQUESTS_PER_CLIENT).map(|r| format!("chaos-{c}-{r}")).collect();
            thread::spawn(move || {
                let mut client = retrying_client(addr, c as u64);
                let mut got = Vec::new();
                for id in ids {
                    let response =
                        client.sweep(id.clone(), scenario()).expect("chaos sweep settles");
                    got.push((id, response, client.last_attempts()));
                }
                got
            })
        })
        .collect();
    let mut attempts_total = 0;
    for worker in fleet {
        for (id, response, attempts) in worker.join().expect("chaos client thread") {
            assert!(
                matches!(response.outcome, Outcome::Ok(Report::Sweep(_))),
                "{id} must settle to success through retries: {response:?}"
            );
            assert_eq!(
                response.to_json(),
                expected[&id],
                "{id}: the settled response must be byte-identical to the fault-free run"
            );
            attempts_total += attempts;
        }
    }

    // The daemon survived every injected fault: the scripted panics all
    // fired (answered `Internal`, worker respawned), the fleet's retries
    // were observed, and the daemon still drains cleanly.
    let mut control = retrying_client(addr, 99);
    let stats = control.stats().expect("daemon still answers stats");
    assert_eq!(stats.panics, 3, "every scripted panic fired exactly once");
    assert!(
        stats.retries_observed >= 3,
        "the three panicked requests alone force three retries, observed {}",
        stats.retries_observed
    );
    assert!(
        attempts_total >= (CLIENTS * REQUESTS_PER_CLIENT + 3) as u64,
        "retries actually happened (attempts {attempts_total})"
    );
    control.shutdown().expect("chaos daemon drains");
    daemon.join().expect("chaos daemon thread");
}

#[test]
fn oversized_frames_bounce_but_the_connection_survives() {
    let (addr, daemon) = spawn_server(ServerConfig {
        workers: 1,
        threads: Some(1),
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // An oversized line — far past the bound — bounces as BadRequest...
    let huge = format!("{}\n", "x".repeat(8 * 1024));
    stream.write_all(huge.as_bytes()).expect("write oversized frame");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read bounce");
    let bounce: Response = serde_json::from_str(line.trim()).expect("bounce parses");
    match bounce.outcome {
        Outcome::Err(body) => {
            assert_eq!(body.code, ErrorCode::BadRequest);
            assert!(body.message.contains("1024-byte limit"), "{}", body.message);
        }
        other => panic!("oversized frame must bounce, got {other:?}"),
    }

    // ...and the same connection keeps working.
    stream
        .write_all(b"{\"v\":1,\"id\":\"still-alive\",\"kind\":\"Stats\"}\n")
        .expect("write stats");
    line.clear();
    reader.read_line(&mut line).expect("read stats");
    let stats: Response = serde_json::from_str(line.trim()).expect("stats parses");
    assert_eq!(stats.id, "still-alive");
    assert!(matches!(stats.outcome, Outcome::Ok(Report::Stats(_))));

    let mut control = retrying_client(addr, 0);
    control.shutdown().expect("daemon drains");
    daemon.join().expect("daemon thread");
}

#[test]
fn nesting_bomb_frames_are_classified_and_the_daemon_survives() {
    // 400 KB of `[` fits the frame bound; parsed without a nesting
    // limit it would overflow the stack and abort the whole daemon.
    let (addr, daemon) =
        spawn_server(ServerConfig { workers: 1, threads: Some(1), ..ServerConfig::default() });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let bomb = format!("{}\n", "[".repeat(400_000));
    stream.write_all(bomb.as_bytes()).expect("write bomb frame");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read bomb answer");
    let answer: Response = serde_json::from_str(line.trim()).expect("answer parses");
    match answer.outcome {
        Outcome::Err(body) => {
            assert_eq!(body.code, ErrorCode::BadRequest);
            assert!(body.message.contains("recursion limit exceeded"), "{}", body.message);
            assert_eq!((body.line, body.column), (Some(1), Some(129)), "{}", body.message);
        }
        other => panic!("a nesting bomb must be rejected, got {other:?}"),
    }

    // The daemon, and this connection, still answer the next valid frame.
    stream.write_all(b"{\"v\":1,\"id\":\"after-bomb\",\"kind\":\"Stats\"}\n").expect("write stats");
    line.clear();
    reader.read_line(&mut line).expect("read stats");
    let stats: Response = serde_json::from_str(line.trim()).expect("stats parses");
    assert_eq!(stats.id, "after-bomb");
    assert!(matches!(stats.outcome, Outcome::Ok(Report::Stats(_))));

    let mut control = retrying_client(addr, 0);
    control.shutdown().expect("daemon drains");
    daemon.join().expect("daemon thread");
}

fn temp_snapshot(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("vtrain-chaos-{tag}-{}.snapshot", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn snapshot_warm_restart_after_a_kill() {
    let path = temp_snapshot("kill");
    let snapshotting = || ServerConfig {
        workers: 2,
        threads: Some(1),
        snapshot: Some(path.clone()),
        snapshot_every: 1,
        ..ServerConfig::default()
    };

    // First life: populate the cache; `snapshot_every: 1` persists after
    // the completion. Then *abandon* the daemon without draining it —
    // the crash case; only the periodic snapshot survives.
    let (addr, abandoned) = spawn_server(snapshotting());
    let mut client = retrying_client(addr, 0);
    let response = client.sweep("warmup", scenario()).expect("warmup sweep settles");
    assert!(matches!(response.outcome, Outcome::Ok(Report::Sweep(_))));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats during first life");
        if stats.snapshot_saves >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "snapshot save never happened");
        thread::sleep(Duration::from_millis(20));
    }
    drop(abandoned); // detach: the "killed" daemon never drains

    // Second life: a fresh daemon on a fresh port warm-restores, and the
    // first batch runs almost entirely out of the restored cache.
    let (addr, daemon) = spawn_server(snapshotting());
    let mut client = retrying_client(addr, 1);
    let before = client.stats().expect("stats after restart");
    assert_eq!(before.snapshot_loads, 1, "restart must warm-restore the snapshot");
    assert_eq!(before.snapshot_load_failures, 0);
    assert!(before.cache_entries > 0, "restored entries are visible");
    let response = client.sweep("warm-batch", scenario()).expect("warm sweep settles");
    assert!(matches!(response.outcome, Outcome::Ok(Report::Sweep(_))));
    let after = client.stats().expect("stats after warm batch");
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        hit_rate > 0.9,
        "first post-restart batch must run out of the restored cache \
         (hit rate {hit_rate:.4}, {hits} hits / {misses} misses)"
    );
    client.shutdown().expect("restarted daemon drains");
    daemon.join().expect("restarted daemon thread");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_or_truncated_snapshots_cold_start_without_crashing() {
    let path = temp_snapshot("corrupt");
    let snapshotting = || ServerConfig {
        workers: 1,
        threads: Some(1),
        snapshot: Some(path.clone()),
        snapshot_every: 1,
        ..ServerConfig::default()
    };

    // Produce a valid snapshot, then mutilate it three ways. Every
    // restart must come up cold — counted, not crashed — and still
    // serve.
    let (addr, daemon) = spawn_server(snapshotting());
    let mut client = retrying_client(addr, 0);
    client.sweep("seed-cache", scenario()).expect("seeding sweep settles");
    client.shutdown().expect("seed daemon drains");
    daemon.join().expect("seed daemon thread");
    let valid = std::fs::read_to_string(&path).expect("snapshot was persisted");
    assert!(!valid.is_empty());

    let mutilations: [(&str, String); 3] = [
        ("truncated", valid[..valid.len() / 2].to_owned()),
        ("corrupted", {
            let mut bytes = valid.clone().into_bytes();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            String::from_utf8_lossy(&bytes).into_owned()
        }),
        ("garbage", "not a snapshot at all\n".to_owned()),
    ];
    for (tag, contents) in mutilations {
        std::fs::write(&path, contents).expect("write mutilated snapshot");
        let (addr, daemon) = spawn_server(snapshotting());
        let mut client = retrying_client(addr, 0);
        let stats = client.stats().expect("daemon answers after cold start");
        assert_eq!(stats.snapshot_loads, 0, "{tag}: must not count as a load");
        assert_eq!(stats.snapshot_load_failures, 1, "{tag}: must count the rejected restore");
        assert_eq!(stats.cache_entries, 0, "{tag}: the cache starts cold");
        let response = client.sweep("after-cold-start", scenario()).expect("cold sweep settles");
        assert!(
            matches!(response.outcome, Outcome::Ok(Report::Sweep(_))),
            "{tag}: a cold daemon still serves"
        );
        client.shutdown().expect("cold daemon drains");
        daemon.join().expect("cold daemon thread");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn degraded_mode_answers_from_the_floor_instead_of_shedding() {
    // High-water 0: every sweep is answered from the analytic floor —
    // the deterministic way to pin the degraded path end-to-end.
    let (addr, daemon) = spawn_server(ServerConfig {
        workers: 1,
        threads: Some(1),
        degrade: Some(DegradeMode::BoundOnly),
        degrade_high_water: Some(0),
        ..ServerConfig::default()
    });
    let mut client = retrying_client(addr, 0);
    let response = client.sweep("degraded-1", scenario()).expect("degraded sweep settles");
    match response.outcome {
        Outcome::Ok(Report::Sweep(report)) => {
            assert!(report.degraded, "the report must be flagged degraded");
            assert!(!report.variants.is_empty());
            assert!(!report.variants[0].points.is_empty(), "floors are still full answers");
        }
        other => panic!("degraded sweep must succeed, got {other:?}"),
    }
    // Predict is not degraded even at high water.
    let response = client.predict("predict-1", scenario_with_plan()).expect("predict settles");
    assert!(matches!(response.outcome, Outcome::Ok(Report::Predict(_))));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.degraded_responses, 1, "exactly the sweep was degraded");
    client.shutdown().expect("degraded daemon drains");
    daemon.join().expect("degraded daemon thread");
}

fn scenario_with_plan() -> Scenario {
    Scenario::from_json(
        r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
            "parallelism": { "tensor": 2, "data": 2, "pipeline": 2,
                             "micro_batch": 1, "global_batch": 8 }
        }"#,
    )
    .expect("plan fixture parses")
}
