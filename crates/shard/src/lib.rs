//! The dynamic half of splitting one sweep across processes, used by
//! the `segsim serve --fleet` coordinator.
//!
//! The static half needs no crate of its own: `seg_engine`'s
//! [`ShardIndex`](seg_engine::ShardIndex) is arithmetic on the task
//! index, any engine-backed binary run with `--shard I/M --checkpoint
//! dir/ck.jsonl` journals its share next to the base path, and the
//! merge is the same command rerun without `--shard` (the resume absorbs
//! every shard journal and runs only the leftovers). A fleet instead
//! re-splits whatever is still missing among the live workers with
//! [`repartition`], so a dead worker's share is simply part of the next
//! missing set. The shard journals workers send back are read by the
//! engine's own [`read_journal`](seg_engine::read_journal), the same
//! validator a checkpoint resume uses.
//!
//! # Quickstart
//!
//! ```
//! use seg_engine::{Engine, SweepSpec};
//! use seg_shard::repartition;
//!
//! let spec = SweepSpec::builder()
//!     .side(32).horizon(1).taus([0.40, 0.45])
//!     .replicas(2).master_seed(7).build();
//! // a worker ran tasks 0 and 2, then died; the rest is split anew
//! let done = Engine::new().task_subset([0, 2]).run(&spec, &[]);
//! let missing = done.missing_task_indices();
//! assert_eq!(missing, vec![1, 3]);
//! assert_eq!(repartition(&missing, 2), vec![vec![1], vec![3]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Splits `missing` into `parts` disjoint shares, round-robin by
/// position: `missing[j]` goes to share `j % parts`. Shares are
/// balanced to within one task, every share is in ascending order when
/// `missing` is, and the union is exactly `missing`. With `missing`
/// equal to the full task list this reproduces the static
/// [`ShardIndex`](seg_engine::ShardIndex) round-robin split.
///
/// The static split divides the *full* task list before anything runs;
/// a fleet coordinator instead re-partitions whatever is still missing
/// ([`SweepResult::missing_task_indices`](seg_engine::SweepResult::missing_task_indices))
/// each time the set of live workers changes. Because replica seeds
/// derive from task indices alone, *any* partition merges
/// bit-identically; stealing only changes who runs what, never what the
/// records say.
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

#[cfg(test)]
mod tests {
    use super::*;
    use seg_engine::ShardIndex;

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
}
