//! The exact bytes the engine persists for one record: its journal line
//! ([`record_line`], what [`Checkpoint::append`](seg_engine::Checkpoint)
//! writes), a streamed CSV row and a streamed JSONL row.
//!
//! The record holds every float shape the formatters special-case —
//! integral (`3` renders `3.0`), negative, `-0.0`,
//! values whose `Display` is spelled out in full where an exponent would
//! be shorter (`1e-7`, `1e21`), `±inf` and `NaN` — a parameterised
//! variant label and a metric name that needs a JSON escape. The
//! expected bytes are written out literally, so any change to the
//! rendering shows up here, however the renderers are arranged.

use seg_engine::{record_line, ReplicaRecord, StreamingSink, SweepPoint, SweepSpec, Variant};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A metric name with a quote, a backslash and a tab in it.
const ODD_NAME: &str = "odd \"name\"\\\tx";

fn spec() -> SweepSpec {
    SweepSpec::builder()
        .point(SweepPoint::new(24, 1, 0.4).with_variant(Variant::Noise(0.01)))
        .replicas(2)
        .master_seed(7)
        .build()
}

/// The record of task `k`; both tasks carry the same metrics.
fn record(spec: &SweepSpec, k: usize) -> ReplicaRecord {
    let metrics: BTreeMap<String, f64> = [
        ("a_integral", 3.0),
        ("b_negative", -2.5),
        ("c_negative_zero", -0.0),
        ("d_small", 1e-7),
        ("e_large", 1e21),
        ("f_inf", f64::INFINITY),
        ("g_neg_inf", f64::NEG_INFINITY),
        ("h_nan", f64::NAN),
        ("i_fraction", 0.1 + 0.2),
        (ODD_NAME, 7.0),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    ReplicaRecord {
        task: spec.tasks()[k],
        events: 41,
        wall_secs: 0.25,
        metrics,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("seg_engine_persist_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

const SEED_1: &str = "1803629531669920414";
const BASE_CSV: &str = "0,0,12772815296081229376,24,1,0.4,0.5,noise(0.01)";
const BASE_JSON: &str = "\"point\":0,\"replica\":0,\"seed\":12772815296081229376,\
\"side\":24,\"horizon\":1,\"tau\":0.4,\"density\":0.5,\"variant\":\"noise(0.01)\"";

#[test]
fn journal_line_bytes_are_pinned() {
    let spec = spec();
    assert_eq!(
        record_line(&record(&spec, 0)),
        "{\"kind\":\"record\",\"task\":0,\"events\":41,\"metrics\":{\
         \"a_integral\":3.0,\"b_negative\":-2.5,\"c_negative_zero\":-0.0,\
         \"d_small\":0.0000001,\"e_large\":1000000000000000000000.0,\
         \"f_inf\":inf,\"g_neg_inf\":-inf,\"h_nan\":NaN,\
         \"i_fraction\":0.30000000000000004,\
         \"odd \\\"name\\\"\\\\\\tx\":7.0}}"
    );
}

#[test]
fn streamed_csv_row_bytes_are_pinned() {
    let spec = spec();
    let (first, second) = (record(&spec, 0), record(&spec, 1));
    // one declared column the record lacks renders as an empty cell
    let mut columns: Vec<String> = first.metrics.keys().cloned().collect();
    columns.insert(3, "c_missing".to_string());
    let path = scratch("row.csv");
    let sink = StreamingSink::csv(&path, &spec, &columns, false).unwrap();
    // the second row arrives first: it is parked, then released in order
    sink.append(&second).unwrap();
    sink.append(&first).unwrap();
    drop(sink);
    let cells = ",3.0,-2.5,-0.0,,0.0000001,1000000000000000000000.0,\
                 inf,-inf,NaN,0.30000000000000004,7.0\n";
    let expected = format!(
        "point,replica,seed,side,horizon,tau,density,variant,\
         a_integral,b_negative,c_negative_zero,c_missing,d_small,e_large,\
         f_inf,g_neg_inf,h_nan,i_fraction,\"odd \"\"name\"\"\\\tx\"\n\
         {BASE_CSV}{cells}0,1,{SEED_1},24,1,0.4,0.5,noise(0.01){cells}"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
}

#[test]
fn streamed_jsonl_row_bytes_are_pinned() {
    let spec = spec();
    let path = scratch("row.jsonl");
    let sink = StreamingSink::jsonl(&path, &spec, false).unwrap();
    sink.append(&record(&spec, 0)).unwrap();
    drop(sink);
    let expected = format!(
        "{{{BASE_JSON},\"a_integral\":3.0,\"b_negative\":-2.5,\
         \"c_negative_zero\":-0.0,\"d_small\":0.0000001,\
         \"e_large\":1000000000000000000000.0,\"f_inf\":null,\
         \"g_neg_inf\":null,\"h_nan\":null,\"i_fraction\":0.30000000000000004,\
         \"odd \\\"name\\\"\\\\\\tx\":7.0}}\n"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
}
