//! The engine's headline guarantee, tested as a property: a sweep's
//! per-replica outputs are identical whether it runs on 1 thread or on
//! many, for any master seed and any mix of parameters.

use proptest::prelude::*;
use seg_engine::{Engine, Observer, SweepSpec, Variant};

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
