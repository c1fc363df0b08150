//! Wire-API contract tests: the CLI's `--json` output is pinned
//! byte-identical to the serve daemon's response for the same scenario,
//! the stable-JSON serialization of the result types round-trips, and
//! the CLI honors the one exit-code table.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command;
use std::thread;

use vtrain::api::{self, Outcome, Report, Request, RequestKind, Response};
use vtrain::prelude::*;
use vtrain::serve::{Server, ServerConfig};

const SCENARIO: &str = r#"{
    "model": { "preset": "megatron-1.7B" },
    "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
    "sweep": { "global_batch": 16,
               "limits": { "max_tensor": 2, "max_data": 2,
                           "max_pipeline": 2, "max_micro_batch": 1 } }
}"#;

/// Writes a scenario to a unique temp file and returns its path.
fn scenario_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("vtrain-api-test-{name}-{}.json", std::process::id()));
    std::fs::write(&path, contents).expect("write scenario fixture");
    path
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vtrain"))
}

#[test]
fn cli_json_is_byte_identical_to_the_server_response() {
    let path = scenario_file("pin", SCENARIO);
    let output = cli().arg("sweep").arg(&path).arg("--json").output().expect("run CLI");
    assert!(output.status.success(), "CLI --json sweep succeeds: {output:?}");
    let cli_line = String::from_utf8(output.stdout).expect("utf8 stdout");
    let cli_line = cli_line.trim_end_matches('\n');

    // The same scenario through the daemon, with the CLI's request id.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: Some(2),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let daemon = thread::spawn(move || server.run().expect("serve loop"));
    let scenario = Scenario::from_json(SCENARIO).expect("fixture parses");
    let request = Request::new("cli", RequestKind::Sweep, scenario);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.to_frame().as_bytes()).expect("send request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut server_line = String::new();
    reader.read_line(&mut server_line).expect("read response");
    stream.write_all(b"{\"v\":1,\"id\":\"bye\",\"kind\":\"Shutdown\"}\n").expect("send shutdown");
    daemon.join().expect("daemon thread");

    // The tentpole pin: one schema, one serializer, identical bytes —
    // tooling may treat CLI output and server frames interchangeably.
    assert_eq!(
        cli_line,
        server_line.trim_end_matches('\n'),
        "CLI --json and server response must be byte-identical"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn stable_json_round_trips_the_result_types() {
    let scenario = Scenario::from_json(SCENARIO).expect("fixture parses");
    let run = scenario.sweep().expect("sweep builds").threads(1).run();

    // SweepRun: stable bytes re-parse to the same points.
    let json = api::to_stable_json(&run);
    let back: SweepRun = serde_json::from_str(&json).expect("SweepRun round-trips");
    assert_eq!(back.outcome().points, run.outcome().points);
    assert_eq!(api::to_stable_json(&back), json, "re-serialization is a fixed point");

    // DesignPoint: sorted keys, stable bytes, value-preserving.
    let point = &run.outcome().points[0];
    let json = api::to_stable_json(point);
    let back: DesignPoint = serde_json::from_str(&json).expect("DesignPoint round-trips");
    assert_eq!(back, *point);
    let estimate = json.find("\"estimate\":").expect("estimate field");
    let plan = json.find("\"plan\":").expect("plan field");
    assert!(estimate < plan, "keys sorted: {json}");

    // SimReport (lower + replay the winner's plan): round-trips as well.
    let estimator = scenario.estimator().expect("estimator builds");
    let graph = estimator.lower(&scenario.model().expect("model"), &run.outcome().points[0].plan);
    let report = estimator.simulate(&graph, SimMode::Predicted);
    let json = api::to_stable_json(&report);
    let back: SimReport = serde_json::from_str(&json).expect("SimReport round-trips");
    assert_eq!(back, report);
}

#[test]
fn result_types_reject_unknown_fields() {
    let scenario = Scenario::from_json(SCENARIO).expect("fixture parses");
    let run = scenario.sweep().expect("sweep builds").threads(1).run();
    let point_json = api::to_stable_json(&run.outcome().points[0]);

    // A tampered field must fail the parse, not silently drop.
    let tampered = point_json.replacen("\"estimate\":", "\"estimate_\":", 1);
    assert!(serde_json::from_str::<DesignPoint>(&tampered).is_err());
    let extended = format!("{}{}", &point_json[..point_json.len() - 1], ",\"extra\":1}");
    assert!(serde_json::from_str::<DesignPoint>(&extended).is_err());

    let outcome_json = api::to_stable_json(run.outcome());
    let extended = format!("{}{}", &outcome_json[..outcome_json.len() - 1], ",\"extra\":1}");
    assert!(serde_json::from_str::<SweepOutcome>(&extended).is_err());
}

#[test]
fn capacity_one_cache_keeps_sweep_results_bit_identical() {
    use std::sync::Arc;

    // A pathological one-entry cache thrashes on every signature, but
    // profiling is deterministic: eviction may only cost time, never
    // change a single byte of the result.
    let scenario = Scenario::from_json(SCENARIO).expect("fixture parses");
    let unbounded = scenario
        .sweep()
        .expect("sweep builds")
        .cache(Arc::new(ProfileCache::new()))
        .threads(2)
        .run();
    let thrashing_cache = Arc::new(ProfileCache::with_capacity(1));
    let thrashing = scenario
        .sweep()
        .expect("sweep builds")
        .cache(Arc::clone(&thrashing_cache))
        .threads(2)
        .run();
    assert_eq!(
        api::to_stable_json(&unbounded.outcome().points),
        api::to_stable_json(&thrashing.outcome().points),
        "cache eviction must be invisible in the results"
    );
    assert!(
        thrashing_cache.evictions() > 0,
        "a capacity-1 cache under a multi-signature sweep must evict"
    );
    assert!(thrashing_cache.len() <= 1, "capacity bound holds after the run");
}

#[test]
fn cli_exit_codes_follow_the_table() {
    // Exit 2: invalid scenario (unknown field).
    let bad = scenario_file("bad", &SCENARIO.replace("\"sweep\"", "\"sweeep\""));
    let output = cli().arg("validate").arg(&bad).output().expect("run CLI");
    assert_eq!(output.status.code(), Some(2), "bad input exits 2: {output:?}");
    let _ = std::fs::remove_file(bad);

    // Exit 2 with --json: the same classification inside the envelope.
    let bad = scenario_file("bad-json", "{ not json");
    let output = cli().arg("validate").arg(&bad).arg("--json").output().expect("run CLI");
    assert_eq!(output.status.code(), Some(2));
    let response: Response =
        serde_json::from_str(String::from_utf8_lossy(&output.stdout).trim()).expect("envelope");
    assert_eq!(response.id, "cli");
    match response.outcome {
        Outcome::Err(body) => {
            assert_eq!(body.code, api::ErrorCode::BadRequest);
            assert!(body.line.is_some(), "parse errors carry line context");
        }
        Outcome::Ok(_) => panic!("malformed JSON must fail"),
    }
    let _ = std::fs::remove_file(bad);

    // Exit 4: the sweep blows its point budget (human mode and --json).
    let path = scenario_file("budget", SCENARIO);
    for json_flag in [false, true] {
        let mut cmd = cli();
        cmd.arg("sweep").arg(&path).arg("--max-points").arg("1");
        if json_flag {
            cmd.arg("--json");
        }
        let output = cmd.output().expect("run CLI");
        assert_eq!(
            output.status.code(),
            Some(4),
            "deadline exits 4 (json={json_flag}): {output:?}"
        );
    }

    // Exit 0 and a Validate report on the happy path.
    let output = cli().arg("validate").arg(&path).arg("--json").output().expect("run CLI");
    assert_eq!(output.status.code(), Some(0));
    let response: Response =
        serde_json::from_str(String::from_utf8_lossy(&output.stdout).trim()).expect("envelope");
    assert!(matches!(response.outcome, Outcome::Ok(Report::Validate(_))));
    let _ = std::fs::remove_file(path);

    // Budget flags without --json only make sense for sweep.
    let path = scenario_file("misuse", SCENARIO);
    let output =
        cli().arg("validate").arg(&path).arg("--max-points").arg("1").output().expect("run CLI");
    assert_eq!(output.status.code(), Some(2), "budget flags misuse is a usage error");
    let _ = std::fs::remove_file(path);
}

#[test]
fn cli_rejects_a_nesting_bomb_with_its_position() {
    // 400 KB of `[`: parsed without a nesting limit it would overflow the
    // stack and abort the CLI.
    let bomb = scenario_file("bomb", &"[".repeat(400_000));
    let output = cli().arg("validate").arg(&bomb).output().expect("run CLI");
    assert_eq!(output.status.code(), Some(2), "a nesting bomb is bad input: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
    assert!(stderr.contains("line 1 column 129"), "{stderr}");

    let output = cli().arg("validate").arg(&bomb).arg("--json").output().expect("run CLI");
    assert_eq!(output.status.code(), Some(2));
    let response: Response =
        serde_json::from_str(String::from_utf8_lossy(&output.stdout).trim()).expect("envelope");
    match response.outcome {
        Outcome::Err(body) => {
            assert_eq!(body.code, api::ErrorCode::BadRequest);
            assert_eq!((body.line, body.column), (Some(1), Some(129)), "{}", body.message);
        }
        Outcome::Ok(_) => panic!("a nesting bomb must fail"),
    }
    let _ = std::fs::remove_file(bomb);
}
