//! Work stealing: re-partitioning a sweep's *missing* tasks among live
//! workers, and ingesting the shard journals they send back.
//!
//! The static `--shard I/M` split
//! ([`ShardIndex`](seg_engine::ShardIndex)) divides the *full* task
//! list round-robin before anything runs. A fleet coordinator instead
//! re-partitions whatever is still missing
//! ([`SweepResult::missing_task_indices`](seg_engine::SweepResult::missing_task_indices))
//! each time the set of live workers changes — a dead worker's share is
//! simply part of the next missing set, split among the survivors.
//! Because replica seeds derive from task indices alone, *any* partition
//! merges bit-identically; stealing only changes who runs what, never
//! what the records say.
//!
//! [`ingest_journal`] is the transport-agnostic half: it reads a shard
//! journal from any [`BufRead`] (an HTTP upload body, a pipe, a file)
//! and returns its records, validated against the spec — exactly what
//! [`Checkpoint::resume`](seg_engine::Checkpoint::resume) does per file,
//! minus the filesystem. Uploads may also interleave `seg_obs` trace
//! lines (`"kind":"span"` / `"kind":"event"`, the tracer's JSONL
//! schema) between records; they are passed through verbatim in
//! [`IngestedJournal::spans`] so a fleet coordinator can merge worker
//! spans into the job's cross-process timeline.

use seg_engine::{
    parse_header_line, parse_record_line, spec_fingerprint, ReplicaRecord, SweepSpec,
};
use std::io::BufRead;

/// Splits `missing` into `parts` disjoint shares, round-robin by
/// position: `missing[j]` goes to share `j % parts`. Shares are
/// balanced to within one task, every share is in ascending order when
/// `missing` is, and the union is exactly `missing`. With `missing`
/// equal to the full task list this reproduces the static
/// [`ShardIndex`](seg_engine::ShardIndex) round-robin split.
///
/// Empty shares are returned (not dropped) so callers can zip the
/// result against their worker list.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn repartition(missing: &[usize], parts: usize) -> Vec<Vec<usize>> {
    assert!(parts > 0, "need at least one part");
    let mut shares = vec![Vec::with_capacity(missing.len().div_ceil(parts)); parts];
    for (j, &task) in missing.iter().enumerate() {
        shares[j % parts].push(task);
    }
    shares
}

/// What [`ingest_journal`] read out of one upload body.
#[derive(Clone, Debug, Default)]
pub struct IngestedJournal {
    /// The replica records, spec-validated, in upload order.
    pub records: Vec<ReplicaRecord>,
    /// Trace lines (`seg_obs` span/event JSONL) interleaved with the
    /// records, verbatim — the worker's slice of the job's distributed
    /// trace, riding along on the same upload.
    pub spans: Vec<String>,
}

/// The `"kind":"..."` discriminator of a journal line. Safe on this
/// format because `kind` always precedes the free-form `detail` field,
/// and string escaping means a literal `"kind":"` cannot appear inside
/// an earlier value.
fn line_kind(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"kind\":\"")? + 8..];
    Some(&rest[..rest.find('"')?])
}

/// Reads one shard journal from `reader` and returns its records,
/// validated against `spec`: the first line must be a header carrying
/// the spec's fingerprint and task count, every further complete line a
/// record with an in-range task index — or a `seg_obs` trace line
/// (`"kind":"span"` / `"kind":"event"`), collected verbatim into
/// [`IngestedJournal::spans`]. A torn trailing fragment (no final
/// newline) is dropped, matching the engine's file-journal tolerance —
/// an upload cut off mid-line loses at most that line. Records carry
/// `wall_secs: 0.0` like any resumed record.
///
/// # Errors
///
/// A human-readable reason: read failure, missing/mismatched header, or
/// a malformed complete line.
pub fn ingest_journal<R: BufRead>(
    mut reader: R,
    spec: &SweepSpec,
) -> Result<IngestedJournal, String> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| format!("reading journal: {e}"))?;
    let complete = match text.rfind('\n') {
        Some(i) => &text[..i],
        None if text.is_empty() => "",
        // a header that never finished its line: nothing usable
        None => return Err("journal has no complete header line".into()),
    };
    let tasks = spec.tasks();
    let mut out = IngestedJournal::default();
    for (lineno, line) in complete.lines().enumerate() {
        let at = |reason: String| format!("journal line {}: {reason}", lineno + 1);
        if lineno == 0 {
            let (fp, ntasks) = parse_header_line(line).map_err(at)?;
            if fp != spec_fingerprint(spec) || ntasks != tasks.len() as u64 {
                return Err("journal was written by a different spec".into());
            }
            continue;
        }
        if matches!(line_kind(line), Some("span" | "event")) {
            out.spans.push(line.to_string());
            continue;
        }
        let (index, events, metrics) = parse_record_line(line).map_err(at)?;
        let task = *tasks
            .get(index)
            .ok_or_else(|| at(format!("task index {index} out of range")))?;
        out.records.push(ReplicaRecord {
            task,
            events,
            wall_secs: 0.0,
            metrics,
        });
    }
    if complete.is_empty() && !text.is_empty() {
        return Err("journal has no complete header line".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_engine::{header_line, record_line, Engine, ShardIndex};

    fn spec() -> SweepSpec {
        SweepSpec::builder()
            .side(32)
            .horizon(1)
            .taus([0.4, 0.45])
            .replicas(3)
            .master_seed(5)
            .build()
    }

    #[test]
    fn repartition_is_disjoint_covering_and_balanced() {
        let missing = vec![1, 4, 5, 9, 12];
        for parts in 1..7 {
            let shares = repartition(&missing, parts);
            assert_eq!(shares.len(), parts);
            let mut all: Vec<usize> = shares.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, missing, "shares must cover exactly the missing set");
            let (lo, hi) = shares
                .iter()
                .map(Vec::len)
                .fold((usize::MAX, 0), |(l, h), n| (l.min(n), h.max(n)));
            assert!(hi - lo <= 1, "shares unbalanced: {shares:?}");
        }
    }

    #[test]
    fn repartition_of_the_full_list_matches_the_static_split() {
        let total = 11;
        let full: Vec<usize> = (0..total).collect();
        for parts in 1u32..5 {
            let shares = repartition(&full, parts as usize);
            for (i, share) in shares.iter().enumerate() {
                let expected = ShardIndex::new(i as u32, parts).task_indices(total);
                assert_eq!(share, &expected);
            }
        }
    }

    #[test]
    fn ingest_round_trips_engine_records() {
        let spec = spec();
        let result = Engine::new()
            .threads(1)
            .shard(ShardIndex::new(0, 2))
            .run(&spec, &[]);
        let mut body = header_line(spec_fingerprint(&spec), spec.task_count());
        body.push('\n');
        for rec in result.records() {
            body.push_str(&record_line(rec));
            body.push('\n');
        }
        let ingested = ingest_journal(body.as_bytes(), &spec).unwrap();
        assert!(ingested.spans.is_empty());
        let records = ingested.records;
        assert_eq!(records.len(), result.records().len());
        for (a, b) in records.iter().zip(result.records()) {
            assert_eq!(a.task.task_index, b.task.task_index);
            assert_eq!(a.task.seed, b.task.seed);
            assert_eq!(a.events, b.events);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.wall_secs, 0.0);
        }
    }

    #[test]
    fn ingest_drops_a_torn_trailing_fragment() {
        let spec = spec();
        let mut body = header_line(spec_fingerprint(&spec), spec.task_count());
        body.push('\n');
        body.push_str("{\"kind\":\"record\",\"task\":0,\"events\":7,\"metrics\":{}}\n");
        body.push_str("{\"kind\":\"record\",\"task\":1,\"ev"); // torn
        let ingested = ingest_journal(body.as_bytes(), &spec).unwrap();
        assert_eq!(ingested.records.len(), 1);
        assert_eq!(ingested.records[0].task.task_index, 0);
    }

    #[test]
    fn ingest_passes_trace_lines_through_verbatim() {
        let spec = spec();
        let span = "{\"t_us\":5,\"unix_us\":99,\"kind\":\"span\",\"name\":\"work.run\",\
                    \"detail\":\"job x\",\"dur_us\":3,\"trace_id\":\"abc\"}";
        let event =
            "{\"t_us\":1,\"unix_us\":95,\"kind\":\"event\",\"name\":\"work.claim\",\"detail\":\"\"}";
        let mut body = header_line(spec_fingerprint(&spec), spec.task_count());
        body.push('\n');
        body.push_str(event);
        body.push('\n');
        body.push_str("{\"kind\":\"record\",\"task\":0,\"events\":7,\"metrics\":{}}\n");
        body.push_str(span);
        body.push('\n');
        let ingested = ingest_journal(body.as_bytes(), &spec).unwrap();
        assert_eq!(ingested.records.len(), 1);
        assert_eq!(ingested.spans, vec![event.to_string(), span.to_string()]);
        // a record whose *detail-free* fields look fine still parses as
        // a record, not a span: kind drives the split
        assert_eq!(super::line_kind(span), Some("span"));
        assert_eq!(
            super::line_kind("{\"kind\":\"record\",\"task\":0}"),
            Some("record")
        );
    }

    #[test]
    fn ingest_rejects_wrong_spec_and_garbage() {
        let spec = spec();
        let other = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.4)
            .replicas(1)
            .master_seed(99)
            .build();
        let mut body = header_line(spec_fingerprint(&other), other.task_count());
        body.push('\n');
        assert!(ingest_journal(body.as_bytes(), &spec)
            .unwrap_err()
            .contains("different spec"));
        assert!(ingest_journal(&b"not a journal\n"[..], &spec).is_err());
        assert!(ingest_journal(&b"{\"kind\":\"header\""[..], &spec).is_err());
        let empty = ingest_journal(&b""[..], &spec).unwrap();
        assert!(empty.records.is_empty() && empty.spans.is_empty());
    }
}
