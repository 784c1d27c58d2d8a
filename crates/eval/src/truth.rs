//! Exact ground truth via per-point kNN-distance tables.
//!
//! Computing exact reverse-kNN answers naively costs O(n²) per query. The
//! experiment harness instead materializes `d_k(x)` for every point `x` and
//! every evaluated `k` once per dataset — a single (parallelized) kNN pass —
//! after which the exact answer for any query is one O(n) scan:
//! `RkNN(q, k) = {x ≠ q : d(x, q) ≤ d_k(x)}`.
//!
//! Ground truth inherits the kernel tier of the index's metric. To serve
//! as the reference across tiers (e.g. when benchmarking the fast tier
//! against exact answers), build the truth index with an explicitly
//! exact-tier metric — `Euclidean::exact()` — rather than the ambient
//! default, which follows `RKNN_KERNEL_TIER`.

use rknn_core::{CursorScratch, Dataset, Metric, PointId, SearchStats};
use rknn_index::KnnIndex;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Per-point kNN distances at a fixed set of ranks.
#[derive(Debug, Clone)]
pub struct DkTable {
    /// The evaluated ranks, ascending.
    pub ks: Vec<usize>,
    /// `dk[i][j]` = `d_{ks[j]}`-distance of point `i` (`+∞` when fewer than
    /// `ks[j]` other points exist).
    pub dk: Vec<Vec<f64>>,
    /// Wall-clock time of the table computation.
    pub elapsed: Duration,
}

impl DkTable {
    /// Computes the table with one kNN query per point, parallelized over
    /// `threads` workers.
    pub fn compute<M, I>(index: &I, ks: &[usize], threads: usize) -> Self
    where
        M: Metric,
        I: KnnIndex<M> + Sync + ?Sized,
    {
        assert!(!ks.is_empty(), "need at least one rank");
        let mut ks = ks.to_vec();
        ks.sort_unstable();
        ks.dedup();
        let k_max = *ks.last().expect("non-empty");
        let n = index.num_points();
        let start = Instant::now();
        let threads = threads.max(1);
        let chunk = n.div_ceil(threads);
        let mut dk = vec![Vec::new(); n];
        thread::scope(|scope| {
            for (w, slice) in dk.chunks_mut(chunk).enumerate() {
                let ks = &ks;
                scope.spawn(move || {
                    let mut stats = SearchStats::new();
                    for (off, row) in slice.iter_mut().enumerate() {
                        let i = w * chunk + off;
                        let nn = index.knn(index.point(i), k_max, Some(i), &mut stats);
                        *row = ks
                            .iter()
                            .map(|&k| {
                                if nn.len() < k {
                                    f64::INFINITY
                                } else {
                                    nn[k - 1].dist
                                }
                            })
                            .collect();
                    }
                });
            }
        });
        DkTable {
            ks,
            dk,
            elapsed: start.elapsed(),
        }
    }

    /// Column index of rank `k`.
    fn col(&self, k: usize) -> usize {
        self.ks
            .iter()
            .position(|&x| x == k)
            .expect("rank was included at construction")
    }

    /// `d_k` of point `i`.
    pub fn dk_of(&self, i: PointId, k: usize) -> f64 {
        self.dk[i][self.col(k)]
    }
}

/// Exact reverse-kNN sets for a batch of queries at one rank.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The rank.
    pub k: usize,
    /// `(query, answer set)` pairs, in the order queries were supplied.
    pub answers: Vec<(PointId, HashSet<PointId>)>,
}

impl GroundTruth {
    /// Computes exact answers for `queries` from a [`DkTable`],
    /// parallelized over `threads` workers.
    ///
    /// Each answer is one O(n) scan; `x` belongs to `RkNN(q, k)` exactly
    /// when `d(x, q) <= d_k(x)`, so a distance accumulation may be
    /// abandoned once it provably exceeds `d_k(x)` (the closed ball at
    /// `d_k(x)` is the open ball below its successor float).
    pub fn compute<M, I>(
        index: &I,
        table: &DkTable,
        queries: &[PointId],
        k: usize,
        threads: usize,
    ) -> Self
    where
        M: Metric,
        I: KnnIndex<M> + Sync + ?Sized,
    {
        let col = table.col(k);
        let metric = index.metric();
        let n = index.num_points();
        let answer_one = |q: PointId| {
            let qp = index.point(q);
            let mut set = HashSet::new();
            // Tile fast path: when the index exposes its points as one
            // contiguous identity-mapped dataset, stream the query against
            // the padded rows in blocks through `Metric::dist_tile`, with
            // each row bounded by its own membership radius. Admission is
            // exactly the per-point `dist_under` decision (the query's own
            // row is evaluated with its block but skipped at commit).
            if let Some(ds) = index.base_rows().filter(|ds| ds.len() == n) {
                const TILE: usize = 64;
                let (stride, dim) = (ds.stride(), ds.dim());
                let mut qpad = vec![0.0; stride];
                qpad[..dim].copy_from_slice(qp);
                let rows = ds.padded_flat();
                let mut bounds = [0.0f64; TILE];
                let mut out = [0.0f64; TILE];
                let mut start = 0usize;
                while start < n {
                    let m = TILE.min(n - start);
                    for (b, x) in bounds[..m].iter_mut().zip(start..) {
                        *b = table.dk[x][col].next_up();
                    }
                    metric.dist_tile(
                        &qpad,
                        &rows[start * stride..(start + m) * stride],
                        stride,
                        dim,
                        &bounds[..m],
                        &mut out[..m],
                    );
                    for (i, &d) in out[..m].iter().enumerate() {
                        let x = start + i;
                        if x != q && !d.is_nan() {
                            set.insert(x);
                        }
                    }
                    start += m;
                }
                return (q, set);
            }
            for x in 0..n {
                if x == q {
                    continue;
                }
                // `dist_under`: when x has fewer than k other points its
                // d_k is +∞ and every query — even at overflowing distance
                // — trivially has x as a reverse neighbor.
                let bound = table.dk[x][col].next_up();
                if metric.dist_under(index.point(x), qp, bound).is_some() {
                    set.insert(x);
                }
            }
            (q, set)
        };
        let threads = threads.clamp(1, queries.len().max(1));
        let mut answers: Vec<(PointId, HashSet<PointId>)> =
            vec![(0, HashSet::new()); queries.len()];
        if threads <= 1 {
            for (&q, slot) in queries.iter().zip(answers.iter_mut()) {
                *slot = answer_one(q);
            }
        } else {
            // Same chunked scoped fan-out as DkTable::compute above:
            // workers write into disjoint slices of the pre-sized output.
            let chunk = queries.len().div_ceil(threads);
            thread::scope(|scope| {
                for (qs, out) in queries.chunks(chunk).zip(answers.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (&q, slot) in qs.iter().zip(out.iter_mut()) {
                            *slot = answer_one(q);
                        }
                    });
                }
            });
        }
        GroundTruth { k, answers }
    }

    /// The answer set for the i-th query.
    pub fn answer(&self, i: usize) -> &HashSet<PointId> {
        &self.answers[i].1
    }

    /// Mean reverse-neighborhood size over the batch.
    pub fn mean_size(&self) -> f64 {
        if self.answers.is_empty() {
            return 0.0;
        }
        self.answers.iter().map(|(_, s)| s.len()).sum::<usize>() as f64 / self.answers.len() as f64
    }
}

/// A 64-bit FNV-1a fingerprint of a dataset's logical contents (`n`, `dim`
/// and every coordinate's bit pattern, row-major). Two datasets share a
/// fingerprint exactly when they are `==` — the key cached sampled truth is
/// filed under.
pub fn dataset_fingerprint(ds: &Dataset) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(ds.len() as u64).to_le_bytes());
    eat(&(ds.dim() as u64).to_le_bytes());
    for (_, row) in ds.iter() {
        for &v in row {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Magic header of the cached sampled-truth file format.
const TRUTH_MAGIC: &[u8; 8] = b"RKNNTRU1";

/// Exact reverse-kNN truth for a *seeded sample* of queries — the scale
/// replacement for all-pairs [`GroundTruth`].
///
/// [`DkTable::compute`] + [`GroundTruth::compute`] cost O(n²)-ish work in
/// total (`n` kNN queries, then an O(n) scan per query) — ~10¹² distance
/// pairs at n=10⁶. Evaluation does not need every point's answer: a seeded
/// query sample scored against *exact* answers measures recall/cost with
/// the same fidelity. The exact answers come from one sweep over the
/// dataset — per point, a single bounded `d_k` census (one threshold-pruned
/// cursor at the largest query distance) decides membership against every
/// sampled query at once, sharing no machinery with the algorithms under
/// evaluation — so the cost is O(n) cursor walks and "minutes at n=10⁵",
/// not days.
///
/// Answers are cached on disk keyed by [`dataset_fingerprint`] plus the
/// sampling parameters; see [`SampledTruth::load_or_compute`].
#[derive(Debug, Clone, PartialEq)]
pub struct SampledTruth {
    /// The rank.
    pub k: usize,
    /// Seed of the query sample ([`rknn_data::sample_queries`]).
    pub seed: u64,
    /// Number of queries requested from the sampler.
    pub sample: usize,
    /// Fingerprint of the dataset the answers are exact for.
    pub fingerprint: u64,
    /// `(query, exact answer set)` pairs, in sample order.
    pub answers: Vec<(PointId, HashSet<PointId>)>,
    /// Wall-clock time of the truth computation ([`Duration::ZERO`] on a
    /// cache hit).
    pub elapsed: Duration,
    /// Distance computations spent (0 on a cache hit).
    pub dist_computations: u64,
    /// Whether the answers came from the on-disk cache.
    pub from_cache: bool,
}

impl SampledTruth {
    /// Computes exact answers for a seeded sample of `sample` queries in
    /// **one sweep over the dataset**: every point's membership against
    /// *all* sampled queries is decided by a single bounded forward
    /// verification, its `d_k` census resolved through one threshold-pruned
    /// cursor at the largest query distance. Per-query verification (the
    /// naive baseline's shape) would pay `|sample|` cursor walks per point;
    /// this pays one — the difference between minutes and the better part
    /// of an hour at n=10⁵.
    pub fn compute<M, I>(
        index: &I,
        ds: &Dataset,
        k: usize,
        sample: usize,
        seed: u64,
        threads: usize,
    ) -> Self
    where
        M: Metric,
        I: KnnIndex<M> + Sync + ?Sized,
    {
        let queries = rknn_data::sample_queries(ds.len(), sample, seed);
        let start = Instant::now();
        let n = index.num_points();
        let metric = index.metric();

        // One worker sweeps a contiguous point range, recording members per
        // query slot; ranges merge in order below, so the answers do not
        // depend on the thread count.
        let sweep = |range: std::ops::Range<PointId>| -> (Vec<Vec<PointId>>, u64) {
            let mut members: Vec<Vec<PointId>> = vec![Vec::new(); queries.len()];
            let mut scratch = CursorScratch::new();
            let mut stats = SearchStats::new();
            let mut direct = 0u64;
            let mut dxq = vec![0.0f64; queries.len()];
            for x in range {
                let xp = index.point(x);
                let mut t_max = f64::NEG_INFINITY;
                for (&q, slot) in queries.iter().zip(dxq.iter_mut()) {
                    if q == x {
                        // A point is never a member of its own answer.
                        *slot = f64::NAN;
                        continue;
                    }
                    direct += 1;
                    *slot = metric.dist(index.point(q), xp);
                    t_max = t_max.max(*slot);
                }
                if t_max == f64::NEG_INFINITY {
                    continue;
                }
                // `x ∈ RkNN(q)` iff fewer than `k` points lie strictly
                // closer to `x` than `q` does (verify_rknn's census). The
                // cursor stream is nondecreasing, so pulling until the k-th
                // entry strictly below `t_max` — or until the stream leaves
                // that ball — yields `d_k(x)` exactly whenever any query
                // could fail the test, and every query's verdict is then a
                // single comparison.
                let mut cursor = index.cursor_bounded(xp, Some(x), k, &mut scratch);
                let mut closer = 0usize;
                let mut kth = f64::INFINITY;
                loop {
                    match cursor.next() {
                        Some(nb) if nb.dist < t_max => {
                            closer += 1;
                            if closer >= k {
                                kth = nb.dist;
                                break;
                            }
                        }
                        _ => break,
                    }
                }
                stats.absorb(&cursor.stats());
                for (slot, &d) in members.iter_mut().zip(dxq.iter()) {
                    if !d.is_nan() && (closer < k || kth >= d) {
                        slot.push(x);
                    }
                }
            }
            (members, direct + stats.dist_computations)
        };

        let workers = threads.clamp(1, n.max(1));
        let chunk = n.div_ceil(workers).max(1);
        let ranges: Vec<std::ops::Range<PointId>> = (0..n)
            .step_by(chunk)
            .map(|s| s..(s + chunk).min(n))
            .collect();
        let mut parts: Vec<(Vec<Vec<PointId>>, u64)> =
            ranges.iter().map(|_| (Vec::new(), 0)).collect();
        if ranges.len() <= 1 {
            if let Some(r) = ranges.first() {
                parts[0] = sweep(r.clone());
            }
        } else {
            thread::scope(|scope| {
                for (r, slot) in ranges.iter().zip(parts.iter_mut()) {
                    scope.spawn(move || {
                        *slot = sweep(r.clone());
                    });
                }
            });
        }

        let mut dist = 0u64;
        let mut answers: Vec<(PointId, HashSet<PointId>)> =
            queries.iter().map(|&q| (q, HashSet::new())).collect();
        for (members, d) in parts {
            dist += d;
            for ((_, set), ids) in answers.iter_mut().zip(members) {
                set.extend(ids);
            }
        }
        SampledTruth {
            k,
            seed,
            sample,
            fingerprint: dataset_fingerprint(ds),
            answers,
            elapsed: start.elapsed(),
            dist_computations: dist,
            from_cache: false,
        }
    }

    /// The sampled query ids, in order.
    pub fn queries(&self) -> Vec<PointId> {
        self.answers.iter().map(|&(q, _)| q).collect()
    }

    /// The answer set for the i-th sampled query.
    pub fn answer(&self, i: usize) -> &HashSet<PointId> {
        &self.answers[i].1
    }

    /// Mean reverse-neighborhood size over the sample.
    pub fn mean_size(&self) -> f64 {
        if self.answers.is_empty() {
            return 0.0;
        }
        self.answers.iter().map(|(_, s)| s.len()).sum::<usize>() as f64 / self.answers.len() as f64
    }

    /// The cache file a parameter combination is filed under.
    pub fn cache_file(dir: &Path, fingerprint: u64, k: usize, sample: usize, seed: u64) -> PathBuf {
        dir.join(format!(
            "truth-{fingerprint:016x}-k{k}-q{sample}-s{seed}.bin"
        ))
    }

    /// Serializes the truth (little-endian binary, answers as sorted id
    /// lists) to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(TRUTH_MAGIC)?;
        for word in [
            self.fingerprint,
            self.k as u64,
            self.seed,
            self.sample as u64,
            self.answers.len() as u64,
        ] {
            w.write_all(&word.to_le_bytes())?;
        }
        for (q, set) in &self.answers {
            let mut ids: Vec<u64> = set.iter().map(|&x| x as u64).collect();
            ids.sort_unstable();
            w.write_all(&(*q as u64).to_le_bytes())?;
            w.write_all(&(ids.len() as u64).to_le_bytes())?;
            for id in ids {
                w.write_all(&id.to_le_bytes())?;
            }
        }
        w.flush()
    }

    /// Deserializes a truth file. Returns `None` (never panics) when the
    /// file is missing, malformed, or does not match the expected
    /// fingerprint and parameters.
    pub fn load(path: &Path, fingerprint: u64, k: usize, sample: usize, seed: u64) -> Option<Self> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path).ok()?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).ok()?;
        if &magic != TRUTH_MAGIC {
            return None;
        }
        let mut word = [0u8; 8];
        let mut next = |r: &mut std::io::BufReader<std::fs::File>| -> Option<u64> {
            r.read_exact(&mut word).ok()?;
            Some(u64::from_le_bytes(word))
        };
        let (fp, fk, fseed, fsample, nq) = (
            next(&mut r)?,
            next(&mut r)?,
            next(&mut r)?,
            next(&mut r)?,
            next(&mut r)?,
        );
        if fp != fingerprint || fk != k as u64 || fseed != seed || fsample != sample as u64 {
            return None;
        }
        let mut answers = Vec::with_capacity(nq as usize);
        for _ in 0..nq {
            let q = next(&mut r)? as usize;
            let len = next(&mut r)?;
            let mut set = HashSet::with_capacity(len as usize);
            for _ in 0..len {
                set.insert(next(&mut r)? as usize);
            }
            answers.push((q, set));
        }
        Some(SampledTruth {
            k,
            seed,
            sample,
            fingerprint,
            answers,
            elapsed: Duration::ZERO,
            dist_computations: 0,
            from_cache: true,
        })
    }

    /// Loads cached truth for `(dataset, k, sample, seed)` from `cache_dir`
    /// or computes and caches it. Cache write failures are non-fatal (the
    /// freshly computed truth is still returned).
    pub fn load_or_compute<M, I>(
        cache_dir: &Path,
        index: &I,
        ds: &Dataset,
        k: usize,
        sample: usize,
        seed: u64,
        threads: usize,
    ) -> Self
    where
        M: Metric,
        I: KnnIndex<M> + Sync + ?Sized,
    {
        let fingerprint = dataset_fingerprint(ds);
        let path = Self::cache_file(cache_dir, fingerprint, k, sample, seed);
        if let Some(truth) = Self::load(&path, fingerprint, k, sample, seed) {
            return truth;
        }
        let truth = Self::compute(index, ds, k, sample, seed, threads);
        let _ = truth.save(&path);
        truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::{BruteForce, Euclidean};
    use rknn_index::LinearScan;

    #[test]
    fn table_matches_brute_force_dk() {
        let ds = rknn_data::uniform_cube(120, 2, 11).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let table = DkTable::compute(&idx, &[3, 1, 7], 3);
        assert_eq!(table.ks, vec![1, 3, 7]);
        let mut st = SearchStats::new();
        let bf = BruteForce::new(ds, Euclidean);
        for i in [0usize, 60, 119] {
            for &k in &table.ks {
                assert_eq!(
                    table.dk_of(i, k),
                    bf.dk(i, k, &mut st).unwrap(),
                    "i={i} k={k}"
                );
            }
        }
    }

    #[test]
    fn infinity_when_k_exceeds_n() {
        let ds = rknn_data::uniform_cube(4, 2, 12).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let table = DkTable::compute(&idx, &[10], 2);
        assert!(table.dk_of(0, 10).is_infinite());
    }

    #[test]
    fn sampled_truth_matches_full_ground_truth_on_the_sample() {
        // The acceptance cross-check: at small n the sampled-truth answers
        // must be identical (as sets, per query) to the all-pairs
        // GroundTruth computation restricted to the sampled queries.
        let k = 4;
        let ds = rknn_data::gaussian_blobs(300, 6, 3, 0.4, 21);
        let shared = ds.clone().into_shared();
        let idx = LinearScan::build(shared, Euclidean);
        let truth = SampledTruth::compute(&idx, &ds, k, 24, 77, 2);
        assert_eq!(truth.answers.len(), 24);
        assert!(!truth.from_cache);
        assert_eq!(truth.fingerprint, dataset_fingerprint(&ds));
        let queries = truth.queries();
        assert_eq!(queries, rknn_data::sample_queries(ds.len(), 24, 77));
        let table = DkTable::compute(&idx, &[k], 2);
        let full = GroundTruth::compute(&idx, &table, &queries, k, 2);
        for (i, (q, set)) in truth.answers.iter().enumerate() {
            assert_eq!(*q, full.answers[i].0);
            assert_eq!(set, full.answer(i), "q={q}");
        }
        // Threading must not change the answers.
        let st1 = SampledTruth::compute(&idx, &ds, k, 24, 77, 1);
        assert_eq!(st1.answers, truth.answers);
    }

    #[test]
    fn sampled_truth_cache_roundtrips_and_rejects_mismatches() {
        let ds = rknn_data::uniform_cube(120, 3, 5);
        let shared = ds.clone().into_shared();
        let idx = LinearScan::build(shared, Euclidean);
        let dir = std::env::temp_dir().join(format!("rknn-truth-cache-{}", std::process::id()));
        let truth = SampledTruth::load_or_compute(&dir, &idx, &ds, 3, 10, 9, 1);
        assert!(!truth.from_cache);
        // Second call hits the cache and yields identical answers.
        let cached = SampledTruth::load_or_compute(&dir, &idx, &ds, 3, 10, 9, 1);
        assert!(cached.from_cache);
        assert_eq!(cached.answers, truth.answers);
        assert_eq!(cached.fingerprint, truth.fingerprint);
        // A different dataset fingerprint refuses the cached file.
        let other = rknn_data::uniform_cube(120, 3, 6);
        assert_ne!(dataset_fingerprint(&other), dataset_fingerprint(&ds));
        let path = SampledTruth::cache_file(&dir, truth.fingerprint, 3, 10, 9);
        assert!(SampledTruth::load(&path, dataset_fingerprint(&other), 3, 10, 9).is_none());
        // Different parameters refuse it too; malformed bytes never panic.
        assert!(SampledTruth::load(&path, truth.fingerprint, 4, 10, 9).is_none());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(SampledTruth::load(&path, truth.fingerprint, 3, 10, 9).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ground_truth_matches_brute_force_rknn() {
        let ds = rknn_data::uniform_cube(150, 3, 13).into_shared();
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let table = DkTable::compute(&idx, &[5], 4);
        let queries = vec![0, 42, 149];
        let truth = GroundTruth::compute(&idx, &table, &queries, 5, 3);
        let sequential = GroundTruth::compute(&idx, &table, &queries, 5, 1);
        assert_eq!(
            truth.answers, sequential.answers,
            "threading must not change answers"
        );
        let bf = BruteForce::new(ds, Euclidean);
        let mut st = SearchStats::new();
        for (i, &q) in queries.iter().enumerate() {
            let want: HashSet<_> = bf.rknn(q, 5, &mut st).iter().map(|n| n.id).collect();
            assert_eq!(truth.answer(i), &want, "q={q}");
        }
        assert!(truth.mean_size() > 0.0);
    }
}
