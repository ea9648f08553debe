//! `segsim`'s exit codes, from real processes: a refused flag is a usage
//! error (exit 2) in every mode, as in the harness binaries, as is a
//! command line that names no mode; a run that fails after its flags were
//! accepted exits 1, and `--help` exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

const SEGSIM: &str = env!("CARGO_BIN_EXE_segsim");

fn segsim(args: &[&str]) -> Output {
    Command::new(SEGSIM)
        .args(args)
        .output()
        .expect("spawn segsim")
}

fn assert_exit(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{what}; stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
}

#[test]
fn refused_flags_exit_2_in_every_mode() {
    let sweep = ["sweep", "--side", "8", "--horizon", "1", "--tau", "0.4"];
    let out = segsim(&[&sweep[..], &["--bogus"]].concat());
    assert_exit(&out, 2, "sweep --bogus");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
    assert_exit(
        &segsim(&[&sweep[..], &["--stream"]].concat()),
        2,
        "sweep --stream",
    );
    // a value the sweep cannot run: the window does not fit the torus
    assert_exit(
        &segsim(&["sweep", "--side", "2", "--horizon", "1", "--tau", "0.4"]),
        2,
        "sweep with an illegal point",
    );
    assert_exit(
        &segsim(&["serve", "--workers", "0"]),
        2,
        "serve --workers 0",
    );
    assert_exit(
        &segsim(&["work", "--threads", "2"]),
        2,
        "work without --join",
    );
    // there is no mode-less run: each of these names `segsim sweep`
    for line in [
        &[][..],
        &["--side", "16", "--horizon", "1", "--tau", "0.45"],
        &["--trace", "/dev/full"],
    ] {
        let out = segsim(line);
        assert_exit(&out, 2, &format!("segsim {line:?}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("segsim sweep"), "{line:?}: {stderr}");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = segsim(&[flag]);
        assert_exit(&out, 0, flag);
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: segsim sweep"));
    }
}

#[test]
fn the_usage_aligns_every_mode_under_the_first() {
    let out = segsim(&["--help"]);
    let usage = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = usage.lines().take(3).collect();
    let indent = " ".repeat("usage: ".len());
    assert!(lines[0].starts_with("usage: segsim sweep "), "{usage}");
    assert!(
        lines[1].starts_with(&format!("{indent}segsim serve ")),
        "{usage}"
    );
    assert!(
        lines[2].starts_with(&format!("{indent}segsim work ")),
        "{usage}"
    );
}

/// One run's frame comes from a one-replica sweep: with no events it
/// writes the initial state's frame.
#[test]
fn a_one_replica_sweep_writes_one_frame() {
    let dir: PathBuf = std::env::temp_dir().join("segsim_cli_one_frame");
    let _ = std::fs::remove_dir_all(&dir);
    let out = segsim(&[
        "sweep",
        "--side",
        "16",
        "--horizon",
        "1",
        "--tau",
        "0.45",
        "--replicas",
        "1",
        "--max-events",
        "0",
        "--snapshots",
        &dir.display().to_string(),
    ]);
    assert_exit(&out, 0, "one-replica sweep with --snapshots");
    let frames = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("ppm".as_ref()))
        .count();
    assert_eq!(frames, 1);
}

#[test]
fn a_run_whose_sink_fails_exits_1() {
    // `--out` names a directory, so the sink cannot open it
    let dir: PathBuf = std::env::temp_dir().join("segsim_cli_exit_codes");
    std::fs::create_dir_all(&dir).unwrap();
    let out = segsim(&[
        "sweep",
        "--side",
        "8",
        "--horizon",
        "1",
        "--tau",
        "0.4",
        "--out",
        &dir.display().to_string(),
    ]);
    assert_exit(&out, 1, "sweep with an unopenable --out");
}

#[test]
fn a_run_whose_frames_cannot_be_written_exits_1() {
    // `/dev/full` is a file, so no frame directory can be made under it
    let out = segsim(&[
        "sweep",
        "--side",
        "16",
        "--horizon",
        "1",
        "--tau",
        "0.45",
        "--replicas",
        "1",
        "--snapshots",
        "/dev/full/x",
    ]);
    assert_exit(&out, 1, "sweep with an unwritable --snapshots");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("observer output failed"), "{stderr}");
}
