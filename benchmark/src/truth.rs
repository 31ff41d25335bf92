//! Exact ground truth by brute force, folded in one block of base rows at a
//! time so the raw dataset is never resident. Harness-only: it calls
//! nothing in the repository, so that the recall it yields is independent
//! of the code under test.

use std::collections::{BTreeSet, BinaryHeap};

/// Queries that share one pass over a block's rows.
const TILE: usize = 4;
const LANES: usize = 8;

/// `out[r][j] = rows[r] · queries[j]`. Every build sums the same eight
/// partial lanes in the same order, so the AVX2 and portable paths agree to
/// the bit.
#[inline(always)]
fn dots_body(queries: &[&[f32]; TILE], rows: &[f32], dim: usize, out: &mut [[f32; TILE]]) {
    let body = dim / LANES * LANES;
    for (row, out) in rows.chunks_exact(dim).zip(out.iter_mut()) {
        let mut acc = [[0.0f32; LANES]; TILE];
        for (c, x) in row[..body].chunks_exact(LANES).enumerate() {
            for (acc, q) in acc.iter_mut().zip(queries) {
                let q = &q[c * LANES..(c + 1) * LANES];
                for l in 0..LANES {
                    acc[l] += x[l] * q[l];
                }
            }
        }
        for ((out, acc), q) in out.iter_mut().zip(&acc).zip(queries) {
            let tail: f32 = row[body..].iter().zip(&q[body..]).map(|(x, q)| x * q).sum();
            *out = acc.iter().sum::<f32>() + tail;
        }
    }
}

/// The widths of the datasets in use get their own copy of the loop: with
/// the trip count known the compiler unrolls it, which doubles its speed.
#[inline(always)]
fn dots_by_width(queries: &[&[f32]; TILE], rows: &[f32], dim: usize, out: &mut [[f32; TILE]]) {
    match dim {
        96 => dots_body(queries, rows, 96, out),
        128 => dots_body(queries, rows, 128, out),
        _ => dots_body(queries, rows, dim, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dots_avx2(queries: &[&[f32]; TILE], rows: &[f32], dim: usize, out: &mut [[f32; TILE]]) {
    dots_by_width(queries, rows, dim, out)
}

fn dots(queries: &[&[f32]; TILE], rows: &[f32], dim: usize, out: &mut [[f32; TILE]]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was verified on the line above; the function
        // is the safe `dots_by_width` compiled with wider vectors.
        return unsafe { dots_avx2(queries, rows, dim, out) };
    }
    dots_by_width(queries, rows, dim, out)
}

#[derive(PartialEq)]
struct Candidate(f32, u32);

impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The `keep` nearest base rows of each query so far, by squared Euclidean
/// distance up to the query's own norm (which does not change the order).
pub struct GroundTruth {
    queries: Vec<f32>,
    dim: usize,
    keep: usize,
    heaps: Vec<BinaryHeap<Candidate>>,
}

impl GroundTruth {
    /// `queries` is row-major, `dim` wide.
    pub fn new(queries: &[f32], dim: usize, keep: usize) -> GroundTruth {
        let n = queries.len() / dim;
        GroundTruth {
            queries: queries.to_vec(),
            dim,
            keep,
            heaps: (0..n).map(|_| BinaryHeap::new()).collect(),
        }
    }

    /// Folds in `rows` (row-major), whose first row has id `first_id`.
    pub fn absorb(&mut self, rows: &[f32], first_id: u32, threads: usize) {
        let (dim, keep, queries) = (self.dim, self.keep, &self.queries);
        let norms: Vec<f32> =
            rows.chunks_exact(dim).map(|r| r.iter().map(|v| v * v).sum()).collect();
        let norms = &norms;
        // Whole tiles per thread; the last tile of the last shard is padded
        // by repeating its first query.
        let tiles = self.heaps.len().div_ceil(TILE);
        let shard = tiles.div_ceil(threads.max(1)).max(1) * TILE;
        std::thread::scope(|scope| {
            for (w, heaps) in self.heaps.chunks_mut(shard).enumerate() {
                scope.spawn(move || {
                    let mut out = vec![[0.0f32; TILE]; norms.len()];
                    for (t, tile) in heaps.chunks_mut(TILE).enumerate() {
                        let first = w * shard + t * TILE;
                        let query = |j: usize| {
                            let qi = if j < tile.len() { first + j } else { first };
                            &queries[qi * dim..(qi + 1) * dim]
                        };
                        dots(&[query(0), query(1), query(2), query(3)], rows, dim, &mut out);
                        for (j, heap) in tile.iter_mut().enumerate() {
                            // One float compare per row; the heap is only
                            // touched by the few rows that can enter it.
                            let mut bar = if heap.len() < keep {
                                f32::INFINITY
                            } else {
                                heap.peek().map_or(f32::INFINITY, |w| w.0)
                            };
                            for (r, dots) in out.iter().enumerate() {
                                let dist = norms[r] - 2.0 * dots[j];
                                if dist <= bar {
                                    let cand = Candidate(dist, first_id + r as u32);
                                    if heap.len() < keep {
                                        heap.push(cand);
                                    } else if heap.peek().is_some_and(|worst| cand < *worst) {
                                        heap.pop();
                                        heap.push(cand);
                                    }
                                    if heap.len() == keep {
                                        bar = heap.peek().map_or(f32::INFINITY, |w| w.0);
                                    }
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    /// The `k` nearest ids of each query that are not in `deleted`, nearest
    /// first.
    pub fn top(&self, k: usize, deleted: &BTreeSet<u32>) -> Vec<Vec<u32>> {
        self.heaps
            .iter()
            .map(|heap| {
                let mut all: Vec<&Candidate> = heap.iter().collect();
                all.sort();
                all.iter().map(|c| c.1).filter(|id| !deleted.contains(id)).take(k).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_a_naive_scan() {
        let dim = 19; // not a multiple of the lane count
        let value = |i: usize| ((i * 2654435761) % 1000) as f32 / 500.0 - 1.0;
        let base: Vec<f32> = (0..300 * dim).map(value).collect();
        let queries: Vec<f32> = (0..7 * dim).map(|i| value(i + 77_777)).collect();
        let mut truth = GroundTruth::new(&queries, dim, 5);
        truth.absorb(&base[..100 * dim], 0, 2);
        truth.absorb(&base[100 * dim..], 100, 3);
        let deleted: BTreeSet<u32> = [3u32, 150].into_iter().collect();
        for (qi, got) in truth.top(3, &BTreeSet::new()).iter().enumerate() {
            let q = &queries[qi * dim..(qi + 1) * dim];
            let mut all: Vec<(f32, u32)> = base
                .chunks_exact(dim)
                .enumerate()
                .map(|(r, row)| (row.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum(), r as u32))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let want: Vec<u32> = all.iter().take(3).map(|c| c.1).collect();
            assert_eq!(got, &want, "query {qi}");
        }
        assert!(truth.top(5, &deleted).iter().flatten().all(|id| !deleted.contains(id)));
    }
}
