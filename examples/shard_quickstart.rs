//! Quickstart for sharded sweeps: split one `SweepSpec` across worker
//! processes with `--shard I/M`, merge their journals by rerunning
//! without `--shard`, and get output byte-identical to a single-process
//! run.
//!
//! ```text
//! cargo run --release --example shard_quickstart
//! ```
//!
//! The example walks the whole protocol in one process (so it runs
//! anywhere, instantly) with the same calls the command line makes; the
//! comments show the equivalent multi-process commands. Every
//! engine-backed binary already speaks `--shard I/M --checkpoint ...` —
//! no code needed.

use self_organized_segregation::prelude::*;

fn main() {
    // 1. One spec, exactly as a single-process sweep would declare it.
    //    The shard partition derives from the spec alone — round-robin
    //    by task index — so every participant, workers on other hosts
    //    included, computes the identical assignment with no
    //    negotiation.
    let spec = SweepSpec::builder()
        .side(64)
        .horizon(2)
        .taus([0.40, 0.44])
        .replicas(4)
        .master_seed(0x5E67_2017)
        .build();
    let shards: Vec<ShardIndex> = (0..2).map(|i| ShardIndex::new(i, 2)).collect();
    for shard in &shards {
        println!(
            "shard {shard} owns tasks {:?}",
            shard.task_indices(spec.task_count())
        );
    }

    // 2. Each worker process runs its shard, journaling to a shard
    //    journal next to the shared base path. On a cluster this is
    //    one command per host against shared storage:
    //
    //        segsim sweep --side 64 --horizon 2 --tau 0.40,0.44 \
    //            --replicas 4 --checkpoint shared/ck.jsonl --shard 0/2
    //        segsim sweep ... --shard 1/2
    //
    //    (or any exp_* binary — they all accept --shard). Here both
    //    shards run in-process:
    let dir = std::env::temp_dir().join("shard_quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let base = dir.join("ck.jsonl");
    for &shard in &shards {
        let partial = Engine::new()
            .shard(shard)
            .run_with_checkpoint(&spec, &[Observer::TerminalStats], &base)
            .expect("shard run");
        println!(
            "shard {shard}: {} of {} records present, complete = {}",
            partial.records().len(),
            spec.task_count(),
            partial.is_complete(),
        );
    }

    // 3. Merge: the same sweep without a shard resumes the base journal,
    //    absorbs every shard journal, runs anything a killed worker
    //    lost, and returns the complete result. On the command line this
    //    is the same sweep command *without* --shard.
    let merged = Engine::new()
        .threads(2)
        .run_with_checkpoint(&spec, &[Observer::TerminalStats], &base)
        .expect("merge");
    assert!(merged.is_complete());

    // 4. The merged result is byte-identical to a single-process run —
    //    same records, same seeds, same sink bytes.
    let reference = Engine::new().run(&spec, &[Observer::TerminalStats]);
    let merged_csv = dir.join("merged.csv");
    let reference_csv = dir.join("reference.csv");
    Sink::Csv(merged_csv.clone()).write(&merged).expect("write");
    Sink::Csv(reference_csv.clone())
        .write(&reference)
        .expect("write");
    assert_eq!(
        std::fs::read(&merged_csv).unwrap(),
        std::fs::read(&reference_csv).unwrap(),
    );
    println!("merged output byte-identical to the single-process run ✓");

    // On one host, `segsim sweep --threads N --checkpoint ...` already
    // uses every core and resumes on a rerun; for many hosts with
    // dynamic, fault-tolerant splitting, see `segsim serve --fleet` plus
    // `segsim work --join` (docs/FLEET.md).
    for s in merged.summarize("largest_cluster") {
        println!(
            "tau = {:.2}: largest cluster {:.1} ± {:.1}",
            s.point.tau, s.summary.mean, s.summary.stderr
        );
    }
}
