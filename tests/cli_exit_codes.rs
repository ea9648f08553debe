//! `segsim`'s exit codes, from real processes: a refused flag is a usage
//! error (exit 2) in every mode, as in the harness binaries, and a run
//! that fails after its flags were accepted exits 1.

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
    assert_exit(&segsim(&["--bogus"]), 2, "single run --bogus");
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
