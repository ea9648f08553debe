//! Multi-process sharding, tested with real `segsim` processes:
//! hand-run `--shard I/M` workers plus a rerun without `--shard` must
//! converge to output byte-identical to a single-process sweep —
//! including after a worker was killed mid-write.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const SEGSIM: &str = env!("CARGO_BIN_EXE_segsim");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("segsim_shard_integration")
        .join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The sweep flags shared by every invocation of one scenario.
fn sweep_flags(out: &Path) -> Vec<String> {
    [
        "--side",
        "24",
        "--horizon",
        "1",
        "--tau",
        "0.4,0.45",
        "--variant",
        "paper,noise:0.02",
        "--replicas",
        "2",
        "--seed",
        "11",
        "--max-events",
        "400",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--out".to_string(), out.display().to_string()])
    .collect()
}

fn run(mode: &str, extra: &[String]) -> std::process::Output {
    let out = Command::new(SEGSIM)
        .arg(mode)
        .args(extra)
        .output()
        .expect("spawn segsim");
    assert!(
        out.status.success(),
        "segsim {mode} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Runs `--shard 0/2` and `--shard 1/2` workers over one checkpoint,
/// optionally tears shard 0's journal as a worker killed mid-append
/// would leave it, then merges by rerunning without `--shard` and
/// requires the merged output to equal a single-process sweep.
fn shard_then_merge_matches_single_process(tag: &str, ext: &str, killed: bool) {
    let dir = tmp_dir(tag);
    let single = dir.join(format!("single.{ext}"));
    let merged = dir.join(format!("merged.{ext}"));
    run("sweep", &sweep_flags(&single));
    let ck = dir.join("ck.jsonl");
    // what two hosts sharing a checkpoint directory would run
    for shard in ["0/2", "1/2"] {
        let mut flags = sweep_flags(&dir.join(format!("ignored-{}.{ext}", &shard[..1])));
        flags.extend([
            "--shard".to_string(),
            shard.to_string(),
            "--checkpoint".to_string(),
            ck.display().to_string(),
        ]);
        let out = run("sweep", &flags);
        let stdout = String::from_utf8_lossy(&out.stdout);
        // the first worker cannot see the second's records
        if shard == "0/2" {
            assert!(
                stdout.contains("partial result"),
                "no partial note:\n{stdout}"
            );
        }
    }
    if killed {
        // fabricate the aftermath of a worker killed mid-append: its
        // journal holds a valid header, one record... and a torn
        // half-line
        let shard0 = dir.join("ck.shard0of2.jsonl");
        let text = fs::read_to_string(&shard0).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.truncate(2); // header + first record
        let mut torn = lines.join("\n");
        torn.push('\n');
        torn.push_str("{\"kind\":\"record\",\"task\":2,\"events\":9,\"met");
        fs::write(&shard0, torn).unwrap();
    }
    // the merge step is the same command without --shard; it reruns
    // whatever a killed worker lost
    let mut flags = sweep_flags(&merged);
    flags.extend(["--checkpoint".to_string(), ck.display().to_string()]);
    run("sweep", &flags);
    assert_eq!(
        fs::read(&single).unwrap(),
        fs::read(&merged).unwrap(),
        "{tag}: merged output differs from the single-process output"
    );
}

#[test]
fn hand_run_workers_then_unsharded_merge_match_single_process() {
    shard_then_merge_matches_single_process("manual_workers", "jsonl", false);
}

/// The unsharded rerun is the coordinator: after a worker died mid-write
/// it resumes the torn journal, reruns the lost replicas and still emits
/// identical bytes.
#[test]
fn coordinator_converges_after_a_worker_died_mid_write() {
    shard_then_merge_matches_single_process("dead_worker", "csv", true);
}

#[test]
fn removed_shard_mode_is_a_usage_error() {
    let out = Command::new(SEGSIM)
        .args(["shard", "--workers", "2", "--side", "24"])
        .output()
        .expect("spawn segsim");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("unknown mode shard\nusage:"),
        "unexpected stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "segsim panicked:\n{stderr}");
}

#[test]
fn streamed_jsonl_matches_buffered_and_survives_kills() {
    let dir = tmp_dir("stream");
    let fresh = dir.join("fresh.jsonl");
    let resumed = dir.join("resumed.jsonl");
    run("sweep", &sweep_flags(&fresh));
    // a fresh run against a checkpointed one, whose rerun resumes the
    // journal and so appends to --out after its last complete row
    let mut flags = sweep_flags(&resumed);
    flags.extend([
        "--checkpoint".to_string(),
        dir.join("stream-ck.jsonl").display().to_string(),
    ]);
    run("sweep", &flags);
    assert_eq!(fs::read(&fresh).unwrap(), fs::read(&resumed).unwrap());
    // tear the file the way a kill mid-append would, and resume
    let text = fs::read_to_string(&resumed).unwrap();
    let cut = text.len() - 17;
    fs::write(&resumed, &text[..cut]).unwrap();
    run("sweep", &flags);
    assert_eq!(
        fs::read(&fresh).unwrap(),
        fs::read(&resumed).unwrap(),
        "resumed JSONL differs from the fresh run's"
    );
}
