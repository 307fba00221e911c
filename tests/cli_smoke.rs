//! Smoke tests of the `diq` binary and its scheme registry: every label the
//! CLI advertises must round-trip through `scheme_by_name`, and the compiled
//! binary itself must list exactly those labels (so `cargo test` exercises
//! the bin target, not just the library).

use diq::cli::{known_schemes, scheme_by_name, SCHEME_LABELS};
use std::process::Command;

#[test]
fn every_advertised_label_round_trips() {
    for label in SCHEME_LABELS {
        let scheme = scheme_by_name(label)
            .unwrap_or_else(|| panic!("`{label}` is advertised but not resolvable"));
        assert_eq!(scheme.label(), label, "label must round-trip");
    }
}

#[test]
fn labels_match_known_schemes_in_order() {
    let labels: Vec<String> = known_schemes().iter().map(|s| s.label()).collect();
    assert_eq!(labels, SCHEME_LABELS);
}

#[test]
fn unknown_scheme_is_rejected() {
    assert!(scheme_by_name("IQ_9000").is_none());
    assert!(scheme_by_name("").is_none());
}

#[test]
fn diq_list_prints_every_scheme_and_benchmark() {
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .arg("list")
        .output()
        .expect("run `diq list`");
    assert!(out.status.success(), "`diq list` failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    for label in SCHEME_LABELS {
        assert!(stdout.contains(label), "`diq list` is missing `{label}`");
        // And what the binary prints must be resolvable right back.
        assert!(scheme_by_name(label).is_some());
    }
    for bench in diq::workload::suite::all() {
        assert!(
            stdout.contains(&bench.name),
            "`diq list` is missing benchmark `{}`",
            bench.name
        );
    }
}

#[test]
fn diq_without_arguments_exits_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .output()
        .expect("run `diq`");
    assert_eq!(out.status.code(), Some(2), "usage exit code");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("usage"), "stderr should show usage");
}

#[test]
fn diq_trace_record_info_run_round_trip() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("diqt-cli-{}.diqt", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args([
            "trace",
            "record",
            "profile:gzip/adversarial@5",
            "-n",
            "2k",
            "-o",
        ])
        .arg(&trace_path)
        .output()
        .expect("run `diq trace record`");
    assert!(out.status.success(), "record failed: {out:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["trace", "info"])
        .arg(&trace_path)
        .arg("--json")
        .output()
        .expect("run `diq trace info`");
    assert!(out.status.success(), "info failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"instructions\":2000"), "{stdout}");
    assert!(
        stdout.contains("\"name\":\"gzip/adversarial@5\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"content\":\""), "{stdout}");

    // The recorded trace replays through `diq run` by URI.
    let uri = format!("trace:{}", trace_path.display());
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["run", "MB_distr", &uri, "2000"])
        .output()
        .expect("run `diq run trace:`");
    assert!(out.status.success(), "replay failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("gzip/adversarial@5"), "{stdout}");

    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn diq_trace_ingest_accepts_csv() {
    let dir = std::env::temp_dir();
    let csv_path = dir.join(format!("diqt-cli-in-{}.csv", std::process::id()));
    let trace_path = dir.join(format!("diqt-cli-in-{}.diqt", std::process::id()));
    std::fs::write(
        &csv_path,
        "pc,op,dst,src1,src2,addr,size,taken,target\n\
         0x1000,alu,r1,r2,r3,,,,\n\
         0x1004,load,r4,r1,,0x2000,8,,\n\
         0x1008,br,,r4,,,,1,0x1000\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["trace", "ingest"])
        .arg(&csv_path)
        .arg("-o")
        .arg(&trace_path)
        .output()
        .expect("run `diq trace ingest`");
    assert!(out.status.success(), "ingest failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ingested 3 instrs"), "{stdout}");
    let _ = std::fs::remove_file(csv_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn diq_run_resolves_workload_uris() {
    for uri in ["kernel:gzip", "profile:swim/stress", "gzip/expected@2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_diq"))
            .args(["run", "MB_distr", uri, "500"])
            .output()
            .expect("run `diq run`");
        assert!(out.status.success(), "`diq run {uri}` failed: {out:?}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["run", "MB_distr", "trace:/nonexistent.diqt", "500"])
        .output()
        .expect("run `diq run`");
    assert!(!out.status.success(), "missing trace must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error"), "{stderr}");
}

/// `diq figure` against a fresh store under the temp dir.
fn diq_figure(id: &str, store: &std::path::Path, instrs: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["figure", id, "--store"])
        .arg(store)
        .env("DIQ_INSTRS", instrs)
        .output()
        .expect("run `diq figure`")
}

#[test]
fn bad_diq_instrs_is_an_error_not_a_panic() {
    let store = std::env::temp_dir().join(format!("diq-cli-instrs-{}", std::process::id()));
    for bad in ["12kb", "0", "lots"] {
        let out = diq_figure("fig7", &store, bad);
        assert_eq!(out.status.code(), Some(1), "DIQ_INSTRS={bad}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("error: DIQ_INSTRS=") && !stderr.contains("panicked"),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn unknown_figure_lists_the_registry() {
    let store = std::env::temp_dir().join(format!("diq-cli-unknown-{}", std::process::id()));
    let out = diq_figure("fig5", &store, "300");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure `fig5`"), "{stderr}");
    for artifact in &diq::sim::figures::REGISTRY {
        assert!(
            stderr.contains(artifact.id),
            "{stderr} misses {}",
            artifact.id
        );
    }
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn doctored_store_record_is_an_error_naming_figure_scheme_and_benchmark() {
    let store = std::env::temp_dir().join(format!("diq-cli-doctored-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let out = diq_figure("fig7", &store, "300");
    assert!(out.status.success(), "cold fig7: {out:?}");

    // Hand-edit MB_distr's gzip record to an IPC of 0: the harmonic mean
    // is undefined.
    let path = store.join("store.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let doctored: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.contains(r#""scheme":"MB_distr","benchmark":"gzip""#) {
                return line.to_string();
            }
            let at = line.find(r#""ipc":"#).expect("ipc field") + r#""ipc":"#.len();
            let end = at + line[at..].find(',').unwrap();
            format!("{}0.0{}", &line[..at], &line[end..])
        })
        .collect();
    assert_ne!(doctored.join("\n") + "\n", text, "no MB_distr/gzip record");
    std::fs::write(&path, doctored.join("\n") + "\n").unwrap();

    let out = diq_figure("fig7", &store, "300");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error: fig7: stored record for MB_distr on gzip: ipc 0"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(store);
}
