//! `faultcamp` end to end: a campaign in which a run did not complete
//! must fail, however its completed runs were classified.

use std::process::{Command, Output};

use vpdift_fleet::{parse_record, render_record, JobResult, JobStatus};

fn faultcamp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faultcamp")).args(args).output().expect("faultcamp runs")
}

#[test]
fn a_run_that_did_not_complete_fails_the_campaign() {
    let journal =
        std::env::temp_dir().join(format!("faultcamp-incomplete-{}.jsonl", std::process::id()));
    let journal_arg = journal.to_str().unwrap();
    let args = ["--seed", "7", "--runs", "2", "--journal", journal_arg];

    let clean = faultcamp(&args);
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));

    // Journal run 1 the way the executor records a panicking session.
    let crashed = JobResult {
        job_id: 1,
        status: JobStatus::Crashed,
        attempts: 1,
        payload: None,
        counts: Vec::new(),
        detail: Some("injected panic".into()),
        elapsed_us: 0,
    };
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<String> = text
        .lines()
        .filter(|line| parse_record(line).is_none_or(|r| r.job_id != 1))
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 2, "the header and run 0 remain");
    lines.push(render_record(&crashed));
    std::fs::write(&journal, lines.join("\n") + "\n").unwrap();

    let resumed = faultcamp(&[&args[..], &["--resume"]].concat());
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stdout.contains(r#"{"run":1,"failed":"crashed"}"#), "{stdout}");
    assert!(stderr.contains("run 1 did not complete: crashed"), "{stderr}");
    assert_eq!(resumed.status.code(), Some(1), "an incomplete campaign fails: {stderr}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn json_writes_only_the_file_it_names() {
    let dir = std::env::temp_dir().join(format!("faultcamp-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("camp.json");
    let out = Command::new(env!("CARGO_BIN_EXE_faultcamp"))
        .args(["--seed", "7", "--runs", "1", "--json", json.to_str().unwrap()])
        .current_dir(&dir)
        .env_remove("BENCH_TRAJECTORY")
        .output()
        .expect("faultcamp runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(json.exists(), "the bench JSON is written");
    assert!(
        !dir.join("BENCH_trajectory.jsonl").exists(),
        "no trajectory line is appended in the working directory"
    );
    std::fs::remove_dir_all(&dir).ok();
}
