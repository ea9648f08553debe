//! The guarantee of sharded sweeps, property-tested: running one spec
//! as M `--shard I/M` workers — including a shard killed mid-write,
//! leaving a torn trailing journal line — then resuming the base
//! journal without a shard (the merge) produces CSV *and* JSONL output
//! byte-identical to a single-process run, for random M, thread counts,
//! kill points and seeds.

use proptest::prelude::*;
use seg_engine::{
    find_shard_journals, read_journal, shard_journal_path, Engine, Observer, ShardIndex, Sink,
    SweepSpec, Variant,
};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("seg_engine_shard_property_tests")
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

/// Rewinds a shard journal to its header plus the first `keep` records
/// — the state left by a worker killed mid-run — optionally with a torn
/// half-written line after them.
fn kill_shard_journal(path: &Path, keep: usize, torn: bool) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.truncate(1 + keep);
    let mut out = lines.join("\n");
    out.push('\n');
    if torn {
        out.push_str("{\"kind\":\"record\",\"task\":1,\"events\":44,\"met");
    }
    fs::write(path, out).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn merged_shards_reproduce_the_unsharded_bytes(
        master_seed in any::<u64>(),
        shards in 1u32..5,
        threads in 1usize..4,
        merge_threads in 1usize..4,
        killed in 0u32..4,
        keep in 0usize..3,
        torn in any::<bool>(),
    ) {
        let killed = killed % shards;
        let spec = spec(master_seed);
        let observers = [Observer::TerminalStats];
        let tag = format!("{master_seed:x}_{shards}_{threads}_{merge_threads}_{killed}_{keep}_{torn}");
        let dir = tmp_dir(&tag);

        // the single-process reference, run at an arbitrary thread count
        let baseline = Engine::new().threads(threads).run(&spec, &observers);
        let base_csv = dir.join("base.csv");
        let base_jsonl = dir.join("base.jsonl");
        Sink::Csv(base_csv.clone()).write(&baseline).unwrap();
        Sink::Jsonl(base_jsonl.clone()).write(&baseline).unwrap();

        // M shard workers each journal their share...
        let ck = dir.join("ck.jsonl");
        for i in 0..shards {
            Engine::new()
                .threads(threads)
                .shard(ShardIndex::new(i, shards))
                .run_with_checkpoint(&spec, &observers, &ck)
                .unwrap();
        }
        // ...then one worker turns out to have been killed mid-write
        kill_shard_journal(&shard_journal_path(&ck, ShardIndex::new(killed, shards)), keep, torn);

        prop_assert_eq!(find_shard_journals(&ck).unwrap().len(), shards as usize);
        // reading the shard journals sees exactly the records that
        // survived the kill (the shares are disjoint), and creates no file
        let killed_tasks = ShardIndex::new(killed, shards).task_count(spec.task_count());
        let covered: usize = find_shard_journals(&ck)
            .unwrap()
            .iter()
            .map(|p| read_journal(&fs::read_to_string(p).unwrap(), &spec).unwrap().records.len())
            .sum();
        prop_assert_eq!(covered, spec.task_count() - killed_tasks + keep.min(killed_tasks));
        prop_assert!(!ck.exists());

        // the merge (a resume without a shard, absorbing every shard
        // journal) re-runs the killed worker's lost replicas and is
        // byte-identical to the reference in both formats
        let merged = Engine::new()
            .threads(merge_threads)
            .run_with_checkpoint(&spec, &observers, &ck)
            .unwrap();
        prop_assert!(merged.is_complete());
        let merged_csv = dir.join("merged.csv");
        let merged_jsonl = dir.join("merged.jsonl");
        Sink::Csv(merged_csv.clone()).write(&merged).unwrap();
        Sink::Jsonl(merged_jsonl.clone()).write(&merged).unwrap();
        prop_assert_eq!(
            fs::read(&base_csv).unwrap(),
            fs::read(&merged_csv).unwrap(),
            "merged CSV differs from the single-process CSV"
        );
        prop_assert_eq!(
            fs::read(&base_jsonl).unwrap(),
            fs::read(&merged_jsonl).unwrap(),
            "merged JSONL differs from the single-process JSONL"
        );

        // merging again runs nothing and converges to the same bytes
        let again = Engine::new()
            .threads(1)
            .run_with_checkpoint(&spec, &observers, &ck)
            .unwrap();
        let again_csv = dir.join("again.csv");
        Sink::Csv(again_csv.clone()).write(&again).unwrap();
        prop_assert_eq!(fs::read(&base_csv).unwrap(), fs::read(&again_csv).unwrap());
    }
}

#[test]
fn journals_from_different_shard_counts_merge() {
    // a sweep first split 2 ways, later re-split 3 ways (e.g. a host was
    // added): records key by global task index, so the mixed journals
    // still merge into the reference output
    let spec = spec(0xC0FFEE);
    let dir = tmp_dir("mixed_counts");
    let ck = dir.join("ck.jsonl");
    Engine::new()
        .shard(ShardIndex::new(0, 2))
        .run_with_checkpoint(&spec, &[], &ck)
        .unwrap();
    Engine::new()
        .shard(ShardIndex::new(2, 3))
        .run_with_checkpoint(&spec, &[], &ck)
        .unwrap();
    let merged = Engine::new()
        .threads(2)
        .run_with_checkpoint(&spec, &[], &ck)
        .unwrap();
    assert!(merged.is_complete());
    let reference = Engine::new().threads(1).run(&spec, &[]);
    for (a, b) in merged.records().iter().zip(reference.records()) {
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics, b.metrics);
    }
}

#[test]
fn mismatched_flags_fail_cleanly_at_merge() {
    let dir = tmp_dir("mismatch");
    let ck = dir.join("ck.jsonl");
    Engine::new()
        .shard(ShardIndex::new(0, 2))
        .run_with_checkpoint(&spec(1), &[], &ck)
        .unwrap();
    // merging under a different master seed must refuse the journal,
    // naming the offending file
    let err = Engine::new()
        .run_with_checkpoint(&spec(2), &[], &ck)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("different sweep"), "unexpected error: {msg}");
}
