//! The engine's headline guarantee, tested as a property: a sweep's
//! per-replica outputs are identical whether it runs on 1 thread or on
//! many, for any master seed and any mix of parameters.

use proptest::prelude::*;
use seg_engine::{
    expected_metric_columns, Engine, FinalState, Observer, Sink, SweepPoint, SweepSpec, Variant,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 1-thread and N-thread runs of the same spec agree bit-for-bit on
    /// every record: seed, event count, and every metric value.
    #[test]
    fn thread_count_never_changes_results(
        master_seed in any::<u64>(),
        side in 24u32..40,
        tau in 0.30f64..0.48,
        replicas in 1u32..4,
        threads in 2usize..6,
        budget in 50u64..2000,
    ) {
        let spec = SweepSpec::builder()
            .side(side)
            .horizon(1)
            .taus([tau, 1.0 - tau])
            .variants([Variant::Paper, Variant::Noise(0.02), Variant::MultiType { k: 3 }])
            .replicas(replicas)
            .master_seed(master_seed)
            .max_events(budget)
            .build();
        let observers = [Observer::TerminalStats];
        let serial = Engine::new().threads(1).run(&spec, &observers);
        let parallel = Engine::new().threads(threads).run(&spec, &observers);
        prop_assert_eq!(serial.records().len(), parallel.records().len());
        for (a, b) in serial.records().iter().zip(parallel.records()) {
            prop_assert_eq!(a.task.task_index, b.task.task_index);
            prop_assert_eq!(a.task.seed, b.task.seed);
            prop_assert_eq!(a.events, b.events);
            // metric maps must agree exactly, key for key, bit for bit
            prop_assert_eq!(&a.metrics, &b.metrics);
        }
    }

    /// Replica seeds depend only on (master seed, point, replica): any
    /// two tasks differ, and re-deriving is stable.
    #[test]
    fn derived_seeds_are_stable_and_collision_free(
        master_seed in any::<u64>(),
        points in 1usize..6,
        replicas in 1u32..6,
    ) {
        let mut seen = std::collections::HashSet::new();
        for p in 0..points {
            for r in 0..replicas {
                let s = seg_engine::derive_replica_seed(master_seed, p as u64, r as u64);
                prop_assert_eq!(
                    s,
                    seg_engine::derive_replica_seed(master_seed, p as u64, r as u64)
                );
                prop_assert!(seen.insert(s), "collision at point {} replica {}", p, r);
            }
        }
    }
}

/// The ring variants go through the same machinery; spot-check their
/// determinism too (not property-sized: ring runs are slower).
#[test]
fn ring_sweep_is_thread_count_invariant() {
    let spec = SweepSpec::builder()
        .side(500)
        .horizon(4)
        .taus([0.3, 0.45])
        .variants([Variant::RingGlauber, Variant::RingKawasaki])
        .replicas(2)
        .master_seed(0x5E67_2017)
        .max_events(20_000)
        .build();
    let a = Engine::new().threads(1).run(&spec, &[]);
    let b = Engine::new().threads(4).run(&spec, &[]);
    for (x, y) in a.records().iter().zip(b.records()) {
        assert_eq!(x.events, y.events);
        assert_eq!(x.metrics, y.metrics);
    }
}

/// The k-type model's rows, journal lines included, are byte-identical
/// at 1, 2 and 4 threads, on sides whose windows reach the torus side.
#[test]
fn multi_type_rows_are_byte_identical_at_any_thread_count() {
    let spec = SweepSpec::builder()
        .sides([5, 24])
        .horizons([1, 2])
        .taus([0.3, 0.45])
        .variants([Variant::MultiType { k: 3 }])
        .replicas(3)
        .master_seed(0x5E67_2017)
        .max_events(3_000)
        .build();
    let rows = |threads| {
        let result = Engine::new()
            .threads(threads)
            .run(&spec, &[Observer::TerminalStats]);
        result
            .records()
            .iter()
            .map(seg_engine::record_line)
            .collect::<Vec<_>>()
    };
    let serial = rows(1);
    assert_eq!(serial.len(), spec.task_count());
    for threads in [2, 4] {
        assert_eq!(rows(threads), serial, "{threads} threads");
    }
}

/// Every variant once, two replicas each, on a small budget. `Probe`
/// gets a value only from the custom observer.
fn all_variant_spec() -> SweepSpec {
    let mut b = SweepSpec::builder();
    for v in [
        Variant::Paper,
        Variant::FlipWhenUnhappy,
        Variant::Noise(0.02),
        Variant::Kawasaki,
        Variant::RingGlauber,
        Variant::RingKawasaki,
        Variant::TwoSided { tau_hi: 0.8 },
        Variant::MultiType { k: 3 },
        Variant::Probe,
    ] {
        b = b.point(SweepPoint::new(24, 1, 0.42).with_variant(v));
    }
    b.replicas(2)
        .master_seed(0x5E67_2017)
        .max_events(2_000)
        .build()
}

/// A custom observer that measures only `Probe` replicas, so its
/// declared column renders empty on every other row.
fn probe_draw() -> Observer {
    Observer::custom_named(["draw"], |_, state, rng| match state {
        FinalState::Probe => vec![("draw".to_string(), rng.next_f64())],
        _ => vec![],
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("seg_engine_determinism_{}", std::process::id()))
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::fs::create_dir_all(scratch_dir()).unwrap();
    scratch_dir().join(name)
}

/// Byte pins on the buffered CSV, the JSONL rows and the checkpoint
/// journal of the all-variant sweep under `[TerminalStats, custom]`.
/// A change to any variant's dynamics, metric columns or row format
/// moves one of these digests.
#[test]
fn all_variant_rows_and_journal_are_pinned() {
    let spec = all_variant_spec();
    let observers = [Observer::TerminalStats, probe_draw()];
    let journal = scratch("golden.ck.jsonl");
    let _ = std::fs::remove_file(&journal);
    let result = Engine::new()
        .threads(1)
        .run_with_checkpoint(&spec, &observers, &journal)
        .unwrap();
    assert!(result.is_complete());
    let csv = scratch("golden.csv");
    let jsonl = scratch("golden.jsonl");
    Sink::Csv(csv.clone()).write(&result).unwrap();
    Sink::Jsonl(jsonl.clone()).write(&result).unwrap();
    let digest = |p: &std::path::Path| fnv1a(&std::fs::read(p).unwrap());
    let got = [digest(&csv), digest(&jsonl), digest(&journal)];
    for p in [&csv, &jsonl, &journal] {
        std::fs::remove_file(p).unwrap();
    }
    // the last test out removes the shared directory
    let _ = std::fs::remove_dir(scratch_dir());
    assert_eq!(
        got,
        [
            0x6f03_4364_97a1_fc79,
            0x65cb_4ede_dce3_3d27,
            0x8317_590e_8fc4_e4b2
        ],
        "digests {got:#018x?} (csv, jsonl, journal) moved"
    );
}

/// The predicted metric columns are the columns the sweep produces, for
/// the all-variant sweep under every observer mix and for each variant
/// alone, and a CSV streamed under the prediction is the buffered file
/// byte for byte.
#[test]
fn predicted_columns_match_what_every_variant_writes() {
    let all = all_variant_spec();
    let mut cases = vec![
        (all.clone(), vec![]),
        (all.clone(), vec![Observer::TerminalStats]),
        (all.clone(), vec![Observer::TerminalStats, probe_draw()]),
    ];
    // alone, a variant's prediction must be exactly its own columns
    for point in all.points() {
        let one = SweepSpec::builder()
            .point(*point)
            .replicas(2)
            .master_seed(all.master_seed())
            .max_events(all.max_events())
            .build();
        cases.push((one.clone(), vec![]));
        cases.push((one, vec![Observer::TerminalStats]));
    }
    for (k, (spec, observers)) in cases.iter().enumerate() {
        let tag = format!("case {k} ({} points, {observers:?})", spec.points().len());
        let columns = expected_metric_columns(spec, observers).unwrap();
        let streamed = scratch(&format!("{k}.streamed.csv"));
        let _ = std::fs::remove_file(&streamed);
        let sink = Sink::Csv(streamed.clone())
            .stream(spec, &columns, false)
            .unwrap();
        let result = Engine::new()
            .threads(2)
            .run_full(spec, observers, None, Some(&sink))
            .unwrap();
        assert_eq!(columns, result.metric_names(), "{tag}: prediction");
        let buffered = scratch(&format!("{k}.buffered.csv"));
        Sink::Csv(buffered.clone()).write(&result).unwrap();
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&buffered).unwrap(),
            "{tag}: streamed and buffered CSV differ"
        );
        std::fs::remove_file(&streamed).unwrap();
        std::fs::remove_file(&buffered).unwrap();
    }
    let _ = std::fs::remove_dir(scratch_dir());
}
