//! Integration tests of the `diaspec-gen` command line.

use std::path::PathBuf;
use std::process::Command;

fn gen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_diaspec-gen"))
}

fn spec_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name)
}

#[test]
fn generates_rust_framework_to_directory() {
    let out = std::env::temp_dir().join("diaspec-gen-cli-rust");
    let _ = std::fs::remove_dir_all(&out);
    let status = gen()
        .arg(spec_path("cooker.spec"))
        .args(["--language", "rust", "--out"])
        .arg(&out)
        .status()
        .expect("binary runs");
    assert!(status.success());
    let framework = std::fs::read_to_string(out.join("framework.rs")).unwrap();
    assert!(framework.contains("pub trait AlertImpl"));
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn generates_java_framework_to_directory() {
    let out = std::env::temp_dir().join("diaspec-gen-cli-java");
    let _ = std::fs::remove_dir_all(&out);
    let status = gen()
        .arg(spec_path("parking.spec"))
        .args(["--language", "java", "--out"])
        .arg(&out)
        .status()
        .expect("binary runs");
    assert!(status.success());
    assert!(out.join("AbstractParkingAvailability.java").exists());
    assert!(out.join("MapReduce.java").exists());
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn dot_flag_prints_a_digraph() {
    let output = gen()
        .arg(spec_path("cooker.spec"))
        .arg("--dot")
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.starts_with("digraph \"cooker\""), "{stdout}");
    assert!(stdout.contains("cluster_contexts"));
}

#[test]
fn chains_flag_prints_functional_chains() {
    let output = gen()
        .arg(spec_path("cooker.spec"))
        .arg("--chains")
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        stdout.contains("Clock.tickSecond -> [Alert] -> (Notify) -> TvPrompter.askQuestion()"),
        "{stdout}"
    );
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
}

#[test]
fn report_flag_prints_json() {
    let output = gen()
        .arg(spec_path("homeassist.spec"))
        .arg("--report")
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let report: serde_json::Value =
        serde_json::from_slice(&output.stdout).expect("valid JSON report");
    assert!(report["total_loc"].as_u64().unwrap() > 100);
    assert!(report["abstract_methods"].as_u64().unwrap() >= 2);
}

#[test]
fn invalid_spec_fails_with_diagnostics() {
    let dir = std::env::temp_dir().join("diaspec-gen-cli-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.spec");
    std::fs::write(&bad, "device D extends Ghost { }").unwrap();
    let output = gen()
        .arg(&bad)
        .arg("--report")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("E0202"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_file_and_bad_flags_are_reported() {
    let output = gen().arg("/nonexistent/x.spec").output().expect("runs");
    assert!(!output.status.success());

    let output = gen()
        .arg(spec_path("cooker.spec"))
        .args(["--language", "cobol"])
        .output()
        .expect("runs");
    assert!(!output.status.success());
    assert!(String::from_utf8(output.stderr)
        .unwrap()
        .contains("unknown language"));

    let output = gen().arg("--bogus-flag").output().expect("runs");
    assert!(!output.status.success());
}

#[test]
fn help_prints_usage() {
    let output = gen().arg("--help").output().expect("runs");
    assert!(output.status.success());
    assert!(String::from_utf8(output.stdout).unwrap().contains("usage:"));
}

#[test]
fn deploy_subcommand_writes_only_the_manifest() {
    let out = std::env::temp_dir().join("diaspec-gen-cli-deploy");
    let _ = std::fs::remove_dir_all(&out);
    let output = gen()
        .arg("deploy")
        .arg(spec_path("parking.spec"))
        .args(["--edges", "2", "--port-base", "7171", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let manifest = std::fs::read_to_string(out.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"design\": \"parking\""));
    assert!(manifest.contains("\"ParkingLotEnum\""));
    assert!(manifest.contains("127.0.0.1:7172"));
    // The manifest is the deployment unit: nothing else is written.
    let written: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(written, ["manifest.json"]);
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("1 coordinator + 2 edge node(s)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn deploy_without_out_prints_the_manifest() {
    let output = gen()
        .arg("deploy")
        .arg(spec_path("parking.spec"))
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let manifest: serde_json::Value = serde_json::from_str(&stdout).unwrap();
    assert_eq!(
        manifest["coordinator"]["name"].as_str(),
        Some("coordinator")
    );
    assert_eq!(
        manifest["shard"]["enumeration"].as_str(),
        Some("ParkingLotEnum")
    );
}

#[test]
fn deploy_rejects_an_unshardable_design() {
    let output = gen()
        .arg("deploy")
        .arg(spec_path("cooker.spec"))
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("enumeration"), "{stderr}");
}

/// `edge1` would listen on 65536: refused by name — a wrapping add would
/// write `127.0.0.1:0` into the manifest.
#[test]
fn deploy_rejects_a_port_base_that_runs_past_65535() {
    let output = gen()
        .arg("deploy")
        .arg(spec_path("parking.spec"))
        .args(["--edges", "2", "--port-base", "65535"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("edge1 would need port 65536"), "{stderr}");
}

/// `--shards` configured the retired delivery shard pool; a script still
/// passing it must fail, not deploy as if the flag had been honoured.
#[test]
fn deploy_rejects_the_retired_shards_flag() {
    let output = gen()
        .arg("deploy")
        .arg(spec_path("parking.spec"))
        .args(["--shards", "2"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("unexpected argument `--shards`"),
        "{stderr}"
    );
}

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diaspec-gen-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// §VI extraction: the three periodic contracts on `PresenceSensor` (10
/// min, 1 hr, 10 min) cost 6 + 1 + 6 messages an hour per sensor.
#[test]
fn requirements_flag_reports_periodic_rate_per_entity() {
    let output = gen()
        .arg(spec_path("parking.spec"))
        .arg("--requirements")
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let req: serde_json::Value = serde_json::from_slice(&output.stdout).expect("valid JSON");
    assert_eq!(
        req["devices"]["PresenceSensor"]["periodic_msgs_per_entity_hour"].as_f64(),
        Some(13.0)
    );
}

/// The parking city's entities, with a network capacity and a number of
/// workers, as an infrastructure description for `lint --match`.
fn city(dir: &std::path::Path, name: &str, capacity: &str, workers: u32) -> PathBuf {
    let infra = dir.join(name);
    std::fs::write(
        &infra,
        format!(
            r#"{{"entities": {{"PresenceSensor": 4000, "ParkingEntrancePanel": 8,
                "CityEntrancePanel": 4, "Messenger": 1}},
               "msgs_per_hour_capacity": {capacity}, "parallel_workers": {workers}}}"#
        ),
    )
    .unwrap();
    infra
}

/// §VI matching: 4 000 sensors x 13 msg/h = 52 000 msg/h does not fit a
/// 30 000 msg/h network (E0604), and the error fails the lint (exit 2)
/// in every format.
#[test]
fn match_flag_refuses_an_undersized_network() {
    let dir = scratch("match");
    let infra = city(&dir, "lora.json", "30000.0", 4);
    let spec = spec_path("parking.spec");
    let lint = |format: &str| {
        gen()
            .arg("lint")
            .arg(&spec)
            .arg("--match")
            .arg(&infra)
            .args(["--format", format])
            .output()
            .expect("binary runs")
    };
    let output = lint("human");
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8(output.stdout).unwrap();
    // One error diagnostic at the first periodic context, then the
    // file's summary.
    assert_eq!(
        stdout,
        format!(
            "error[E0604]: periodic contracts need ~52000 msgs/hour but the network provides 30000 at 41:9\n  \
             41 | context AverageOccupancy as ParkingOccupancy[] {{\n     \
             |         ^^^^^^^^^^^^^^^^\n\
             {}: 1 error(s), 0 warning(s)\n",
            spec.display()
        )
    );
    for format in ["json", "sarif"] {
        let output = lint(format);
        assert_eq!(output.status.code(), Some(2), "{format}");
        let text = String::from_utf8(output.stdout).unwrap();
        let _: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(text.contains("\"E0604\""), "{format}: {text}");
        assert!(text.contains("need ~52000 msgs/hour"), "{format}: {text}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A warning alone (MapReduce on one worker, W0607) leaves the design
/// deployable: the lint succeeds, and `--allow W0607` drops the finding.
#[test]
fn match_flag_passes_a_design_with_warnings_only() {
    let dir = scratch("match-tight");
    let infra = city(&dir, "one-worker.json", "null", 1);
    let lint = |extra: &[&str]| {
        let output = gen()
            .arg("lint")
            .arg(spec_path("parking.spec"))
            .arg("--match")
            .arg(&infra)
            .args(extra)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(output.status.success(), "{stdout}");
        stdout
    };
    let stdout = lint(&[]);
    assert!(stdout.starts_with("warning[W0607]: "), "{stdout}");
    assert!(
        stdout.ends_with("parking.spec: 0 error(s), 1 warning(s)\n"),
        "{stdout}"
    );
    let stdout = lint(&["--allow", "W0607"]);
    assert!(
        stdout.ends_with("parking.spec: 0 error(s), 0 warning(s)\n"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn match_flag_names_a_malformed_infrastructure_file() {
    let dir = scratch("match-bad");
    let infra = dir.join("broken.json");
    std::fs::write(&infra, "{ \"entities\": ").unwrap();
    let output = gen()
        .arg("lint")
        .arg(spec_path("parking.spec"))
        .arg("--match")
        .arg(&infra)
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("invalid infrastructure JSON"), "{stderr}");
    assert!(stderr.contains(&infra.display().to_string()), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The infrastructure is the run's one count source, for one design:
/// `--match` with a fleet, a capacity report, a manifest or a second
/// design is a usage error (exit 1) that names both, and generation has
/// no `--match`.
#[test]
fn match_flag_lints_one_design_alone() {
    let dir = scratch("match-alone");
    let infra = city(&dir, "one-worker.json", "null", 1);
    let parking = spec_path("parking.spec");
    let cooker = spec_path("cooker.spec");
    let manifest = dir.join("manifest.json");
    for (extra, named) in [
        (vec!["--fleet".into(), "10".into()], "--fleet"),
        (vec!["--capacity".into()], "--capacity"),
        (
            vec!["--manifest".into(), manifest.into_os_string()],
            "--manifest",
        ),
        (vec![cooker.into_os_string()], "a second <SPEC.spec>"),
    ] {
        let output = gen()
            .arg("lint")
            .arg(&parking)
            .arg("--match")
            .arg(&infra)
            .args(&extra)
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(1), "{named}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains("--match"), "{stderr}");
        assert!(stderr.contains(named), "{stderr}");
    }
    let output = gen()
        .arg(&parking)
        .arg("--match")
        .arg(&infra)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// EXPERIMENTS.md E19: the parking design under a 10 000-device
/// hypothesis.
#[test]
fn lint_capacity_scales_with_the_fleet_flag() {
    let output = gen()
        .arg("lint")
        .arg(spec_path("parking.spec"))
        .args(["--capacity", "--fleet", "10000"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        stdout.contains("capacity report (fleet hypothesis: 10000 devices per family)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("total known: 250440.7 msg/h, 0 edge(s) unknown"),
        "{stdout}"
    );
}
