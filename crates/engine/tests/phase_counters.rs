//! The engine's phase counters, `engine_phase_nanoseconds_total{phase}`
//! in the process-wide metrics registry. This binary runs one sweep at a
//! time, so the counters' deltas are that sweep's alone.

use seg_engine::{expected_metric_columns, Engine, Observer, StreamingSink, SweepSpec};

#[test]
fn a_sweep_advances_every_phase_counter_within_its_wall_time() {
    let m = seg_obs::metrics();
    let phases = ["setup", "dynamics", "observers", "persist"]
        .map(|phase| m.counter("engine_phase_nanoseconds_total", "", &[("phase", phase)]));
    let before = phases.each_ref().map(|c| c.get());
    let spec = SweepSpec::builder()
        .side(24)
        .horizon(1)
        .taus([0.4, 0.45])
        .replicas(3)
        .master_seed(11)
        .build();
    let observers = [Observer::TerminalStats];
    let dir = std::env::temp_dir().join("seg_engine_phase_counters");
    let _ = std::fs::remove_dir_all(&dir);
    let columns = expected_metric_columns(&spec, &observers).unwrap();
    let sink = StreamingSink::csv(&dir.join("rows.csv"), &spec, &columns, false).unwrap();
    let result = Engine::new()
        .threads(2)
        .run_full(&spec, &observers, Some(&dir.join("ck.jsonl")), Some(&sink))
        .unwrap();
    assert_eq!(result.records().len(), spec.task_count());
    let delta: Vec<u64> = phases
        .iter()
        .zip(before)
        .map(|(c, b)| c.get() - b)
        .collect();
    for (phase, d) in ["setup", "dynamics", "observers", "persist"]
        .iter()
        .zip(&delta)
    {
        assert!(*d > 0, "{phase} did not advance");
    }
    // the three phases `run_replica` times partition each replica's wall
    // time; one nanosecond per replica of slack covers float rounding
    let wall_ns: f64 = result.records().iter().map(|r| r.wall_secs * 1e9).sum();
    let timed = (delta[0] + delta[1] + delta[2]) as f64;
    assert!(
        timed <= wall_ns + spec.task_count() as f64,
        "setup + dynamics + observers = {timed} ns > wall {wall_ns} ns"
    );
}
