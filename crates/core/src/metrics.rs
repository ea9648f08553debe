//! Configuration-level segregation metrics.

use crate::sim::Simulation;
use seg_grid::{AgentType, TypeField};
use std::ops::Range;

/// Snapshot statistics of a configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigStats {
    /// Number of `+1` agents.
    pub plus: usize,
    /// Number of `-1` agents.
    pub minus: usize,
    /// Number of unhappy agents.
    pub unhappy: usize,
    /// Number of flippable agents (unhappy and improvable).
    pub flippable: usize,
    /// Fraction of happy agents in `[0, 1]`.
    pub happy_fraction: f64,
    /// Number of von-Neumann-adjacent opposite-type pairs (the interface
    /// length; complete segregation into two half-planes minimizes it).
    pub interface_length: usize,
    /// Size of the largest same-type 4-connected cluster.
    pub largest_cluster: usize,
}

/// Computes all [`ConfigStats`] for the current simulation state.
pub fn config_stats(sim: &Simulation) -> ConfigStats {
    let field = sim.field();
    let plus = field.plus_total();
    let n = field.torus().len();
    let unhappy = sim.unhappy_count();
    let clusters = Clusters::of_field(field);
    ConfigStats {
        plus,
        minus: n - plus,
        unhappy,
        flippable: sim.flippable_count(),
        happy_fraction: 1.0 - unhappy as f64 / n as f64,
        interface_length: clusters.interface_length(),
        largest_cluster: clusters.largest(),
    }
}

/// Number of von-Neumann-adjacent opposite-type pairs on the torus.
pub fn interface_length(field: &TypeField) -> usize {
    Clusters::of_field(field).interface_length()
}

/// Size of the largest 4-connected same-type cluster.
pub fn largest_same_type_cluster(field: &TypeField) -> usize {
    Clusters::of_field(field).largest()
}

/// Sizes of all 4-connected same-type clusters of a given type, largest
/// first.
pub fn cluster_sizes_of_type(field: &TypeField, ty: AgentType) -> Vec<usize> {
    Clusters::of_field(field).sizes_of(ty)
}

/// The 4-connected same-label clusters of a labelled torus, and its
/// interface length, from one row-major scan.
///
/// Cells are given row-major (`cells[y * side + x]`) with any `Copy + Eq`
/// label, so the two-type field and the `k`-type model share the scan.
/// Each row is cut into runs of equal labels, which are the union-find
/// elements (Hoshen–Kopelman on runs): a row's last run joins its first
/// across the seam when their labels match, and each row's runs are
/// unioned with the previous row's (the last row's with row 0's) by a
/// two-pointer merge over overlapping runs. The seam and the last row
/// are joined explicitly, so no index is wrapped with a division.
///
/// The cut has no branch per cell: a stretch of 16 cells with
/// no label change is passed over whole, and inside the others every
/// cell writes a candidate run end that only a change keeps. Unions link
/// roots by index and carry no sizes; one pass after the last union adds
/// each run's length to its root, so the largest cluster is read from
/// the root runs, with no `find` per cell.
///
/// The interface length counts, for every cell, its right and down
/// neighbors of another label (wrapping), so each adjacent pair once on
/// sides ≥ 3.
///
/// # Example
///
/// ```
/// use seg_core::metrics::Clusters;
/// // a 3×3 torus: a column of 1s in a sea of 0s
/// let c = Clusters::scan(3, &[1u8, 0, 0, 1, 0, 0, 1, 0, 0]);
/// assert_eq!((c.interface_length(), c.largest()), (6, 6));
/// assert_eq!(c.sizes_of(1), vec![3]);
/// ```
#[derive(Debug)]
pub struct Clusters<T> {
    interface_length: usize,
    /// Label of each run.
    labels: Vec<T>,
    /// Union-find forest over runs (path halving, the lower index as
    /// root).
    parent: Vec<u32>,
    /// Each run's length while scanning; after it, the cells of the
    /// run's cluster at roots (other runs keep their lengths).
    size: Vec<u32>,
}

/// The cells [`Clusters::scan`] checks for a label change at once
/// before cutting them one by one. Passing over quiet chunks pays on
/// large stable fields, whose rows are long runs, and costs a little
/// where nearly every chunk holds a change (docs/PERFORMANCE.md).
const CUT_CHUNK: usize = 16;

impl Clusters<AgentType> {
    /// Scans a two-type field.
    pub fn of_field(field: &TypeField) -> Self {
        Self::scan(field.torus().side() as usize, field.as_slice())
    }
}

impl<T: Copy + Eq> Clusters<T> {
    /// Scans the `side × side` torus labelled row-major by `cells`.
    ///
    /// # Panics
    ///
    /// Panics if `side` is 0, `cells.len() != side²`, or the torus has
    /// more than `u32::MAX` cells.
    pub fn scan(side: usize, cells: &[T]) -> Self {
        assert!(side > 0, "torus side must be positive");
        assert_eq!(cells.len(), side * side, "cells must fill the torus");
        assert!(
            cells.len() <= u32::MAX as usize,
            "too many cells for u32 ids"
        );
        // every row's runs first, in one vector that grows as it must,
        // so the other three are sized to the runs: reserving a run per
        // cell made each scan of a large torus fault fresh pages in, as
        // the allocator handed the unused reservation back between scans
        // (and growing four vectors by doubling fragments the heap).
        // `run_end` holds one past the last column of each run; a row's
        // runs partition it, and row `y`'s are `row_runs[y]..row_runs[y + 1]`.
        let mut run_end: Vec<u32> = Vec::with_capacity(side);
        let mut row_runs = Vec::with_capacity(side + 1);
        let mut cut = vec![0u32; side];
        for row in cells.chunks_exact(side) {
            row_runs.push(run_end.len());
            let n = cut_runs(row, &mut cut);
            run_end.extend_from_slice(&cut[..n]);
        }
        row_runs.push(run_end.len());
        let runs_of = |y: usize| row_runs[y]..row_runs[y + 1];
        let mut c = Clusters {
            interface_length: 0,
            labels: Vec::with_capacity(run_end.len()),
            parent: Vec::with_capacity(run_end.len()),
            size: Vec::with_capacity(run_end.len()),
        };
        for (y, row) in cells.chunks_exact(side).enumerate() {
            let runs = runs_of(y);
            let mut start = 0;
            for &end in &run_end[runs.clone()] {
                c.parent.push(c.labels.len() as u32);
                c.labels.push(row[start]);
                c.size.push(end - start as u32);
                start = end as usize;
            }
            // one interface edge per run boundary, plus the seam
            c.interface_length += runs.len() - 1 + usize::from(row[side - 1] != row[0]);
            if runs.len() > 1 && row[side - 1] == row[0] {
                c.union(runs.start, runs.end - 1);
            }
            if y > 0 {
                let above = &cells[(y - 1) * side..y * side];
                c.join_rows(above, row, runs_of(y - 1), runs, &run_end);
            }
        }
        let last = &cells[(side - 1) * side..];
        c.join_rows(
            last,
            &cells[..side],
            runs_of(side - 1),
            runs_of(0),
            &run_end,
        );
        // every union is done: each run's length goes to its root once
        for k in 0..c.labels.len() {
            let root = c.find(k);
            c.size[root] += c.size[k] * u32::from(root != k);
        }
        c
    }

    /// Adds the vertical edges between `top` and the row `bottom` below
    /// it, given their run index ranges.
    fn join_rows(
        &mut self,
        top: &[T],
        bottom: &[T],
        top_runs: Range<usize>,
        bottom_runs: Range<usize>,
        run_end: &[u32],
    ) {
        self.interface_length += top
            .iter()
            .zip(bottom)
            .map(|(a, b)| usize::from(a != b))
            .sum::<usize>();
        // the current pair of runs always overlaps; advancing the one that
        // ends first visits every overlapping pair once
        let (mut i, mut j) = (top_runs.start, bottom_runs.start);
        while i < top_runs.end && j < bottom_runs.end {
            if self.labels[i] == self.labels[j] {
                self.union(i, j);
            }
            let (ei, ej) = (run_end[i], run_end[j]);
            i += usize::from(ei <= ej);
            j += usize::from(ej <= ei);
        }
    }

    fn find(&mut self, mut k: usize) -> usize {
        while self.parent[k] as usize != k {
            let grandparent = self.parent[self.parent[k] as usize];
            self.parent[k] = grandparent;
            k = grandparent as usize;
        }
        k
    }

    /// Links the roots of `a` and `b`, the higher index under the lower;
    /// sizes are added up after the last union.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra.max(rb)] = ra.min(rb) as u32;
    }

    /// Root runs with their labels and cluster sizes.
    fn roots(&self) -> impl Iterator<Item = (T, usize)> + '_ {
        (0..self.labels.len())
            .filter(|&k| self.parent[k] as usize == k)
            .map(|k| (self.labels[k], self.size[k] as usize))
    }

    /// Number of adjacent cell pairs with different labels.
    pub fn interface_length(&self) -> usize {
        self.interface_length
    }

    /// Size of the largest cluster.
    pub fn largest(&self) -> usize {
        self.roots().map(|(_, size)| size).max().unwrap_or(0)
    }

    /// Sizes of the clusters labelled `label`, largest first.
    pub fn sizes_of(&self, label: T) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .roots()
            .filter(|&(l, _)| l == label)
            .map(|(_, size)| size)
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

/// Cuts `row` into runs of equal labels: writes each run's end (one
/// past its last column) to `ends`, which has a slot per cell, and
/// returns the number of runs. A chunk of [`CUT_CHUNK`] neighbor pairs
/// with no change is passed over; in the others each cell writes its
/// column as the next end, and the count moves past it only at a
/// change.
fn cut_runs<T: Copy + Eq>(row: &[T], ends: &mut [u32]) -> usize {
    let side = row.len();
    let ends = &mut ends[..side];
    let mut n = 0;
    let mut x = 1;
    while x < side {
        let stop = (x + CUT_CHUNK).min(side);
        let changed = row[x..stop]
            .iter()
            .zip(&row[x - 1..stop - 1])
            .fold(false, |any, (a, b)| any | (a != b));
        if changed {
            for (col, pair) in (x..stop).zip(row[x - 1..stop].windows(2)) {
                ends[n] = col as u32;
                n += usize::from(pair[0] != pair[1]);
            }
        }
        x = stop;
    }
    ends[n] = side as u32;
    n + 1
}

/// Whether the configuration is completely segregated: one type covers the
/// whole torus (§V, the Fontes-et-al. regime).
pub fn is_completely_segregated(field: &TypeField) -> bool {
    field.is_monochromatic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use seg_grid::{Torus, TypeField};

    #[test]
    fn interface_of_uniform_field_is_zero() {
        let t = Torus::new(16);
        let f = TypeField::uniform(t, AgentType::Plus);
        assert_eq!(interface_length(&f), 0);
        assert!(is_completely_segregated(&f));
        assert_eq!(largest_same_type_cluster(&f), 256);
    }

    #[test]
    fn interface_of_checkerboard_is_maximal() {
        let t = Torus::new(16);
        let f = TypeField::from_fn(t, |p| {
            if (p.x + p.y) % 2 == 0 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        // every edge is an interface edge: 2 edges per site
        assert_eq!(interface_length(&f), 2 * 256);
        assert_eq!(largest_same_type_cluster(&f), 1);
    }

    #[test]
    fn halves_have_two_interfaces_on_torus() {
        let t = Torus::new(16);
        let f = TypeField::from_fn(t, |p| {
            if p.x < 8 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        // two vertical seams of length 16 each (x = 7→8 and wrap 15→0)
        assert_eq!(interface_length(&f), 32);
        assert_eq!(largest_same_type_cluster(&f), 128);
        let sizes = cluster_sizes_of_type(&f, AgentType::Plus);
        assert_eq!(sizes, vec![128]);
    }

    #[test]
    fn stats_are_consistent() {
        let sim = ModelConfig::new(32, 2, 0.45).seed(5).build();
        let s = config_stats(&sim);
        assert_eq!(s.plus + s.minus, 1024);
        assert!(s.flippable <= s.unhappy, "flippable ⊆ unhappy for τ < 1/2");
        assert!((0.0..=1.0).contains(&s.happy_fraction));
        assert!(s.largest_cluster >= 1);
    }

    #[test]
    fn dynamics_reduces_interface() {
        let mut sim = ModelConfig::new(64, 2, 0.45).seed(8).build();
        let before = interface_length(sim.field());
        sim.run_to_stable(1_000_000);
        let after = interface_length(sim.field());
        assert!(
            after < before,
            "segregation dynamics must coarsen: {before} → {after}"
        );
    }

    #[test]
    fn cluster_sizes_sum_to_type_total() {
        let sim = ModelConfig::new(48, 2, 0.4).seed(2).build();
        let f = sim.field();
        let sizes = cluster_sizes_of_type(f, AgentType::Plus);
        assert_eq!(sizes.iter().sum::<usize>(), f.plus_total());
        // sorted descending
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
