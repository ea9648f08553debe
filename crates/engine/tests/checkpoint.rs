//! Checkpoint/resume guarantees, tested end-to-end: a sweep killed at
//! any point and resumed — possibly at a different thread count — must
//! produce byte-identical sink output to an uninterrupted run, and a
//! damaged journal must fail cleanly, never panic.

use proptest::prelude::*;
use seg_engine::{CheckpointError, Engine, Observer, Sink, SweepSpec, Variant};
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("seg_engine_checkpoint_tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn spec(master_seed: u64) -> SweepSpec {
    SweepSpec::builder()
        .side(28)
        .horizon(1)
        .taus([0.40, 0.45])
        .variants([Variant::Paper, Variant::Noise(0.02)])
        .replicas(2)
        .master_seed(master_seed)
        .max_events(800)
        .build()
}

/// Truncates the journal to its header plus the first `keep` records —
/// the state after a kill — optionally tearing the next line mid-write.
fn interrupt(path: &PathBuf, keep: usize, torn: bool) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.truncate(1 + keep);
    let mut out = lines.join("\n");
    out.push('\n');
    if torn {
        out.push_str("{\"kind\":\"record\",\"task\":5,\"events\":12,\"metr");
    }
    fs::write(path, out).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole guarantee: interrupted + resumed == uninterrupted,
    /// byte for byte in the CSV sink, at any pair of thread counts and
    /// any interruption point — torn trailing writes included.
    #[test]
    fn interrupted_resume_is_byte_identical(
        master_seed in any::<u64>(),
        keep in 0usize..8,
        threads in 1usize..5,
        resume_threads in 1usize..5,
        torn in any::<bool>(),
    ) {
        let spec = spec(master_seed);
        let observers = [Observer::TerminalStats];
        let tag = format!("{master_seed:x}_{keep}_{threads}_{resume_threads}");
        let journal = tmp(&format!("prop_{tag}.jsonl"));
        let _ = fs::remove_file(&journal);

        let baseline = Engine::new().threads(threads).run(&spec, &observers);
        let base_csv = tmp(&format!("prop_{tag}_base.csv"));
        Sink::Csv(base_csv.clone()).write(&baseline).unwrap();

        // run to completion under a journal, then rewind it to the
        // moment of the "kill"
        Engine::new()
            .threads(threads)
            .run_with_checkpoint(&spec, &observers, &journal)
            .unwrap();
        interrupt(&journal, keep, torn);

        let resumed = Engine::new()
            .threads(resume_threads)
            .run_with_checkpoint(&spec, &observers, &journal)
            .unwrap();
        let resumed_csv = tmp(&format!("prop_{tag}_resumed.csv"));
        Sink::Csv(resumed_csv.clone()).write(&resumed).unwrap();

        prop_assert_eq!(
            fs::read(&base_csv).unwrap(),
            fs::read(&resumed_csv).unwrap(),
            "resumed CSV differs from uninterrupted CSV"
        );
        for (a, b) in baseline.records().iter().zip(resumed.records()) {
            prop_assert_eq!(a.task.seed, b.task.seed);
            prop_assert_eq!(a.events, b.events);
            prop_assert_eq!(&a.metrics, &b.metrics);
        }
    }
}

#[test]
fn fully_journaled_sweep_runs_nothing_on_resume() {
    let spec = spec(7);
    let journal = tmp("complete.jsonl");
    let _ = fs::remove_file(&journal);
    let engine = Engine::new().threads(2);
    let first = engine
        .run_with_checkpoint(&spec, &[Observer::TerminalStats], &journal)
        .unwrap();
    let len_after_first = fs::metadata(&journal).unwrap().len();
    let second = engine
        .run_with_checkpoint(&spec, &[Observer::TerminalStats], &journal)
        .unwrap();
    // nothing re-ran, so nothing was appended
    assert_eq!(fs::metadata(&journal).unwrap().len(), len_after_first);
    for (a, b) in first.records().iter().zip(second.records()) {
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics, b.metrics);
    }
}

#[test]
fn metric_names_needing_json_escapes_resume_to_the_same_rows() {
    // a quote, a backslash and a control character: the journal must
    // escape each one the way the JSONL sink does, and read it back
    const NAMES: [&str; 3] = ["a\"b\\c", "tab\there", "ctl\u{1}"];
    let observer = || {
        Observer::custom_named(NAMES, |task, _, _| {
            NAMES
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), (task.task_index + i) as f64))
                .collect()
        })
    };
    let spec = spec(13);
    let journal = tmp("escaped_names.jsonl");
    let _ = fs::remove_file(&journal);
    let baseline = Engine::new().threads(2).run(&spec, &[observer()]);
    Engine::new()
        .threads(2)
        .run_with_checkpoint(&spec, &[observer()], &journal)
        .unwrap();
    interrupt(&journal, 3, false);
    let resumed = Engine::new()
        .threads(2)
        .run_with_checkpoint(&spec, &[observer()], &journal)
        .expect("a journal with escaped metric names resumes");
    let (base_rows, resumed_rows) = (tmp("escaped_base.jsonl"), tmp("escaped_resumed.jsonl"));
    Sink::Jsonl(base_rows.clone()).write(&baseline).unwrap();
    Sink::Jsonl(resumed_rows.clone()).write(&resumed).unwrap();
    assert_eq!(
        fs::read(&base_rows).unwrap(),
        fs::read(&resumed_rows).unwrap()
    );
    assert!(fs::read_to_string(&base_rows)
        .unwrap()
        .contains(r#""a\"b\\c":"#));
}

#[test]
fn corrupt_record_line_is_a_clean_error() {
    let spec = spec(11);
    let journal = tmp("corrupt.jsonl");
    let _ = fs::remove_file(&journal);
    let engine = Engine::new().threads(2);
    engine.run_with_checkpoint(&spec, &[], &journal).unwrap();
    let mut text = fs::read_to_string(&journal).unwrap();
    text.push_str("{\"kind\":\"record\",\"task\":BOGUS,\"events\":1,\"metrics\":{}}\n");
    fs::write(&journal, text).unwrap();
    match engine.run_with_checkpoint(&spec, &[], &journal) {
        Err(CheckpointError::Corrupt { line, .. }) => assert!(line > 1),
        other => panic!("expected Corrupt error, got {other:?}"),
    }
}

#[test]
fn garbage_header_is_a_clean_error() {
    let spec = spec(13);
    let journal = tmp("garbage.jsonl");
    fs::write(&journal, "this is not a checkpoint\n").unwrap();
    match Engine::new().run_with_checkpoint(&spec, &[], &journal) {
        Err(CheckpointError::Corrupt { line, .. }) => assert_eq!(line, 1),
        other => panic!("expected Corrupt error, got {other:?}"),
    }
}

#[test]
fn changed_spec_is_rejected_as_mismatch() {
    let journal = tmp("mismatch.jsonl");
    let _ = fs::remove_file(&journal);
    let engine = Engine::new().threads(2);
    engine
        .run_with_checkpoint(&spec(17), &[], &journal)
        .unwrap();
    // same shape, different master seed: resuming must refuse
    match engine.run_with_checkpoint(&spec(18), &[], &journal) {
        Err(CheckpointError::SpecMismatch { .. }) => {}
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
}

#[test]
fn torn_final_line_only_reruns_the_torn_replica() {
    let spec = spec(19);
    let journal = tmp("torn.jsonl");
    let _ = fs::remove_file(&journal);
    let engine = Engine::new().threads(2);
    let baseline = engine.run_with_checkpoint(&spec, &[], &journal).unwrap();
    // tear the last record: drop its trailing newline and half its bytes
    let text = fs::read_to_string(&journal).unwrap();
    let body = text.trim_end_matches('\n');
    let cut = body.rfind('\n').unwrap() + 20;
    fs::write(&journal, &body[..cut]).unwrap();
    let resumed = engine.run_with_checkpoint(&spec, &[], &journal).unwrap();
    for (a, b) in baseline.records().iter().zip(resumed.records()) {
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics, b.metrics);
    }
    // the resume must have truncated the fragment before appending the
    // rerun record, so the journal is whole again: a further resume (the
    // multi-kill scenario) parses it and reruns nothing
    let text = fs::read_to_string(&journal).unwrap();
    assert!(text.ends_with('\n'));
    assert!(text.lines().all(|l| l.starts_with("{\"kind\":")));
    let len_before = fs::metadata(&journal).unwrap().len();
    let again = engine.run_with_checkpoint(&spec, &[], &journal).unwrap();
    assert_eq!(fs::metadata(&journal).unwrap().len(), len_before);
    for (a, b) in baseline.records().iter().zip(again.records()) {
        assert_eq!(a.metrics, b.metrics);
    }
}
