//! The fleet guarantee, property-tested in-process: a coordinator that
//! re-partitions a job's missing tasks among live workers — losing a
//! random worker at a random point, with a possibly torn upload — must
//! produce output byte-identical to a single-process run, for random
//! seeds, worker counts and kill points. Along the way every
//! [`repartition`] call is checked to be disjoint, balanced, and to
//! cover exactly the missing set.
//!
//! This simulates exactly what `segsim serve --fleet` does over HTTP
//! (`crates/serve/src/jobs.rs::execute_fleet`), minus the transport:
//! workers run [`Engine::task_subset`], serialize their records as a
//! shard journal, the coordinator reads the journals with
//! [`read_journal`], dedupes by task index, and appends survivors to
//! the job checkpoint; a final resumed run yields the merged rows.

use proptest::prelude::*;
use seg_engine::{
    header_line, read_journal, record_line, spec_fingerprint, Checkpoint, Engine, Observer, Sink,
    SweepSpec, Variant,
};
use seg_shard::repartition;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("seg_steal_property_tests")
        .join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(master_seed: u64) -> SweepSpec {
    SweepSpec::builder()
        .side(28)
        .horizon(1)
        .taus([0.40, 0.45])
        .variants([Variant::Paper, Variant::Noise(0.02)])
        .replicas(2)
        .master_seed(master_seed)
        .max_events(600)
        .build()
}

/// Runs one simulated worker over its assigned share and returns the
/// journal body it would upload: a header line plus one record line per
/// completed task, `\n`-terminated.
fn worker_upload(spec: &SweepSpec, share: &[usize], threads: usize) -> String {
    let result = Engine::new()
        .threads(threads)
        .task_subset(share.iter().copied())
        .run(spec, &[Observer::TerminalStats]);
    let mut body = header_line(spec_fingerprint(spec), spec.task_count());
    body.push('\n');
    for rec in result.records() {
        body.push_str(&record_line(rec));
        body.push('\n');
    }
    body
}

/// Cuts a worker's upload down to the header plus its first `keep`
/// records — what the coordinator receives from a worker SIGKILLed
/// mid-upload — optionally with a torn half-written trailing line.
fn kill_upload(body: &str, keep: usize, torn: bool) -> String {
    let mut lines: Vec<&str> = body.lines().collect();
    lines.truncate(1 + keep);
    let mut out = lines.join("\n");
    out.push('\n');
    if torn {
        out.push_str("{\"kind\":\"record\",\"task\":0,\"events\":51,\"met");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn stolen_repartitions_merge_byte_identical(
        master_seed in any::<u64>(),
        workers in 1usize..5,
        killed in 0usize..5,
        keep in 0usize..3,
        torn in any::<bool>(),
        threads in 1usize..4,
    ) {
        let killed = killed % workers;
        let spec = spec(master_seed);
        let observers = [Observer::TerminalStats];
        let tag = format!("{master_seed:x}_{workers}_{killed}_{keep}_{torn}_{threads}");
        let dir = tmp_dir(&tag);

        // the single-process reference
        let baseline = Engine::new().threads(threads).run(&spec, &observers);
        let base_jsonl = dir.join("base.jsonl");
        let base_csv = dir.join("base.csv");
        Sink::Jsonl(base_jsonl.clone()).write(&baseline).unwrap();
        Sink::Csv(base_csv.clone()).write(&baseline).unwrap();

        // the coordinator's state: a checkpoint journal plus a done
        // bitmap, exactly as in the serve crate's fleet phase
        let ck = dir.join("ck.jsonl");
        let (completed, journal) = Checkpoint::resume(&ck, &spec).unwrap();
        let total = spec.task_count();
        let mut done: Vec<bool> = completed.iter().map(Option::is_some).collect();
        drop(completed);

        let mut live = workers;
        let mut first_round = true;
        let mut rounds = 0usize;
        loop {
            let missing: Vec<usize> = (0..total).filter(|&i| !done[i]).collect();
            if missing.is_empty() {
                break;
            }
            rounds += 1;
            prop_assert!(rounds <= 3, "re-partitioning failed to converge");
            if live == 0 {
                // every worker is gone: the coordinator finishes the
                // remainder locally, like execute()'s resumed engine pass
                let local = Engine::new()
                    .threads(threads)
                    .task_subset(missing.iter().copied())
                    .run(&spec, &observers);
                for rec in local.records() {
                    journal.append(rec).unwrap();
                    done[rec.task.task_index] = true;
                }
                continue;
            }

            let shares = repartition(&missing, live);

            // the re-partition is disjoint, balanced within one task,
            // and covers exactly the missing set
            prop_assert_eq!(shares.len(), live);
            let mut union: Vec<usize> = shares.iter().flatten().copied().collect();
            union.sort_unstable();
            prop_assert_eq!(&union, &missing, "shares must cover exactly the missing set");
            let (lo, hi) = shares
                .iter()
                .map(Vec::len)
                .fold((usize::MAX, 0), |(l, h), n| (l.min(n), h.max(n)));
            prop_assert!(hi - lo <= 1, "shares unbalanced: {:?}", shares);

            // every live worker uploads its share; in the first round
            // one worker dies mid-upload and its journal is cut short
            for (w, share) in shares.iter().enumerate() {
                let mut body = worker_upload(&spec, share, threads);
                if first_round && w == killed {
                    body = kill_upload(&body, keep, torn);
                }
                let records = read_journal(&body, &spec).unwrap().records;
                for rec in records {
                    let i = rec.task.task_index;
                    // dedupe by task index against the journal, so a
                    // late or repeated upload can never duplicate a row
                    if i < total && !done[i] {
                        journal.append(&rec).unwrap();
                        done[i] = true;
                    }
                }
            }
            if first_round {
                first_round = false;
                live -= 1; // the killed worker never comes back
            }
        }
        drop(journal);

        // the coordinator's final pass resumes the merged journal; with
        // every task delivered it re-runs nothing and the sinks must be
        // byte-identical to the single-process reference
        let merged = Engine::new()
            .threads(threads)
            .run_with_checkpoint(&spec, &observers, &ck)
            .unwrap();
        prop_assert!(merged.is_complete());
        prop_assert_eq!(merged.missing_task_indices(), Vec::<usize>::new());
        let merged_jsonl = dir.join("merged.jsonl");
        let merged_csv = dir.join("merged.csv");
        Sink::Jsonl(merged_jsonl.clone()).write(&merged).unwrap();
        Sink::Csv(merged_csv.clone()).write(&merged).unwrap();
        prop_assert_eq!(
            fs::read(&base_jsonl).unwrap(),
            fs::read(&merged_jsonl).unwrap(),
            "fleet-merged JSONL differs from the single-process JSONL"
        );
        prop_assert_eq!(
            fs::read(&base_csv).unwrap(),
            fs::read(&merged_csv).unwrap(),
            "fleet-merged CSV differs from the single-process CSV"
        );
    }
}

/// A duplicated upload (the same share sent twice, e.g. a worker that
/// retried after a dropped response) must not double any record: the
/// done-bitmap dedupe keeps exactly one copy per task.
#[test]
fn duplicate_uploads_are_deduplicated_by_task_index() {
    let spec = spec(0xDEAD_BEEF);
    let dir = tmp_dir("dupes");
    let ck = dir.join("ck.jsonl");
    let (_, journal) = Checkpoint::resume(&ck, &spec).unwrap();
    let total = spec.task_count();
    let mut done = vec![false; total];

    let share: Vec<usize> = (0..total).collect();
    let body = worker_upload(&spec, &share, 1);
    for _ in 0..2 {
        for rec in read_journal(&body, &spec).unwrap().records {
            let i = rec.task.task_index;
            if i < total && !done[i] {
                journal.append(&rec).unwrap();
                done[i] = true;
            }
        }
    }
    drop(journal);

    let observers = [Observer::TerminalStats];
    let merged = Engine::new()
        .run_with_checkpoint(&spec, &observers, &ck)
        .unwrap();
    assert!(merged.is_complete());
    assert_eq!(merged.records().len(), total);

    let reference = Engine::new().threads(1).run(&spec, &observers);
    for (a, b) in merged.records().iter().zip(reference.records()) {
        assert_eq!(a.task.task_index, b.task.task_index);
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics, b.metrics);
    }
}
