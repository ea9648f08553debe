//! The run-based cluster scan of `seg_core::metrics` against the per-cell
//! union-find it replaced, kept here as the reference: every cell unions
//! with its right and down neighbors (wrapping with `%`) when their labels
//! match, and interface edges are counted per cell.

use proptest::prelude::*;
use seg_core::metrics::{cluster_sizes_of_type, Clusters};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, Torus, TypeField};
use seg_percolation::union_find::UnionFind;

/// Reference `(interface length, cluster sizes per label, largest first)`.
fn reference<T: Copy + Eq>(side: usize, cells: &[T], labels: &[T]) -> (usize, Vec<Vec<usize>>) {
    let mut uf = UnionFind::new(cells.len());
    let mut interface = 0;
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            let right = y * side + (x + 1) % side;
            let down = ((y + 1) % side) * side + x;
            for j in [right, down] {
                if cells[j] == cells[i] {
                    uf.union(i, j);
                } else {
                    interface += 1;
                }
            }
        }
    }
    let sizes = labels
        .iter()
        .map(|&label| {
            let mut roots = std::collections::BTreeMap::new();
            for i in (0..cells.len()).filter(|&i| cells[i] == label) {
                *roots.entry(uf.find(i)).or_insert(0usize) += 1;
            }
            let mut sizes: Vec<usize> = roots.into_values().collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            sizes
        })
        .collect();
    (interface, sizes)
}

fn assert_matches_reference(what: &str, side: usize, cells: &[u8], k: u8) {
    let labels: Vec<u8> = (0..k).collect();
    let (interface, sizes) = reference(side, cells, &labels);
    let scan = Clusters::scan(side, cells);
    assert_eq!(
        scan.interface_length(),
        interface,
        "{what}: interface, side {side}"
    );
    let largest = sizes.iter().flatten().copied().max().unwrap_or(0);
    assert_eq!(
        scan.largest(),
        largest,
        "{what}: largest cluster, side {side}"
    );
    for (label, expected) in labels.iter().zip(&sizes) {
        assert_eq!(
            &scan.sizes_of(*label),
            expected,
            "{what}: label {label}, side {side}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random fields of every side 1..=24 with 2 and 3 labels.
    #[test]
    fn scan_matches_union_find_on_random_fields(seed in any::<u64>(), density in 0.0f64..1.0) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for side in 1..=24usize {
            for k in [2u8, 3] {
                // `density` biases label 0 so both sparse and dense fields occur
                let cells: Vec<u8> = (0..side * side)
                    .map(|_| {
                        if rng.next_bool(density) {
                            0
                        } else {
                            1 + rng.next_below(u64::from(k) - 1) as u8
                        }
                    })
                    .collect();
                assert_matches_reference("random", side, &cells, k);
            }
        }
    }
}

/// A label as a function of `(x, y, side)`.
type Pattern = fn(usize, usize, usize) -> u8;

#[test]
fn scan_matches_union_find_on_patterns() {
    let patterns: [(&str, Pattern); 5] = [
        ("checkerboard", |x, y, _| ((x + y) % 2) as u8),
        ("vertical stripes", |x, _, _| (x / 2 % 2) as u8),
        ("diagonal stripes", |x, y, _| ((x + 2 * y) % 3) as u8),
        ("halves", |x, _, side| u8::from(2 * x < side)),
        ("uniform", |_, _, _| 0),
    ];
    for side in 1..=24usize {
        for (name, label) in patterns {
            let cells: Vec<u8> = (0..side * side)
                .map(|i| label(i % side, i / side, side))
                .collect();
            let k = cells.iter().copied().max().unwrap_or(0) + 1;
            assert_matches_reference(name, side, &cells, k.max(2));
        }
    }
}

#[test]
fn field_wrappers_agree_with_the_scan() {
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let field = TypeField::random(Torus::new(20), 0.5, &mut rng);
    let types = field.as_slice();
    let (interface, sizes) = reference(20, types, &[AgentType::Minus, AgentType::Plus]);
    assert_eq!(seg_core::metrics::interface_length(&field), interface);
    assert_eq!(
        seg_core::metrics::largest_same_type_cluster(&field),
        sizes.iter().flatten().copied().max().unwrap_or(0)
    );
    assert_eq!(cluster_sizes_of_type(&field, AgentType::Plus), sizes[1]);
}
