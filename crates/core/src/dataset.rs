//! Finite point sets `S ⊆ R^m` with validated, cache-friendly flat storage.

use crate::error::CoreError;
use crate::kernel;
use std::sync::Arc;

/// One 32-byte-aligned group of four coordinates — the allocation unit of
/// the padded row storage. Rows are padded to a whole number of these, so
/// every row starts 32-byte aligned and the SIMD tile kernels stream whole
/// 4-lane blocks with no tail handling.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
struct Lane4([f64; 4]);

/// Views an aligned lane buffer as flat coordinates.
#[inline]
fn lanes_as_f64s(lanes: &[Lane4]) -> &[f64] {
    // Sound: Lane4 is repr(C) over [f64; 4] — same size, stricter
    // alignment, no padding bytes.
    unsafe { std::slice::from_raw_parts(lanes.as_ptr() as *const f64, lanes.len() * 4) }
}

#[inline]
fn lanes_as_f64s_mut(lanes: &mut [Lane4]) -> &mut [f64] {
    unsafe { std::slice::from_raw_parts_mut(lanes.as_mut_ptr() as *mut f64, lanes.len() * 4) }
}

/// An immutable, validated point set.
///
/// Points are stored row-major in a single 32-byte-aligned flat allocation,
/// each row padded with zeros to a multiple of four coordinates
/// ([`Dataset::stride`]); every *logical* coordinate is guaranteed finite.
/// The padding is an internal storage detail for the SIMD tile kernels
/// ([`crate::Metric::dist_tile`]): all user-facing accessors
/// ([`Dataset::point`], [`Dataset::iter`]) return the logical `dim`-length
/// slices, so padding can never leak into results, statistics or serialized
/// output. Datasets are cheaply shareable behind [`Arc`] so that several
/// index structures can be built over the same points without copying them
/// (the memory for the high-dimensional workloads in the evaluation is
/// dominated by the point data).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    stride: usize,
    n: usize,
    data: Vec<Lane4>,
}

impl Dataset {
    /// Packs validated logical row-major coordinates into padded aligned
    /// storage.
    fn pack(dim: usize, data: &[f64]) -> Self {
        let n = data.len().checked_div(dim).unwrap_or(0);
        Dataset::pack_rows(dim, n, data.chunks(dim.max(1)))
    }

    /// Packs `n` validated logical rows straight into the padded aligned
    /// buffer — no intermediate flat vector, so construction from borrowed
    /// rows holds only the final allocation. A `dim` of zero (an empty
    /// [`DatasetBuilder`]) yields the empty dataset.
    fn pack_rows<'r>(dim: usize, n: usize, rows: impl Iterator<Item = &'r [f64]>) -> Self {
        let stride = kernel::pad_dim(dim);
        let mut lanes = vec![Lane4([0.0; 4]); n * stride / 4];
        let dst = lanes_as_f64s_mut(&mut lanes);
        for (row, src) in rows.take(n).enumerate() {
            dst[row * stride..row * stride + dim].copy_from_slice(src);
        }
        Dataset {
            dim,
            stride,
            n,
            data: lanes,
        }
    }

    /// Builds a dataset from row-major flat coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `data.len()` is not a
    /// multiple of `dim` and [`CoreError::NonFinite`] if any coordinate is
    /// NaN or infinite. `dim` must be nonzero.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Result<Self, CoreError> {
        if dim == 0 {
            return Err(CoreError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        if !data.len().is_multiple_of(dim) {
            return Err(CoreError::DimensionMismatch {
                expected: dim,
                got: data.len() % dim,
            });
        }
        // Validate finiteness row by row: the common all-finite case is a
        // branch-friendly scan over each row slice, and the point/coordinate
        // split is only derived for the offending row.
        for (point, row) in data.chunks_exact(dim).enumerate() {
            if let Some(coordinate) = row.iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFinite { point, coordinate });
            }
        }
        Ok(Dataset::pack(dim, &data))
    }

    /// Builds a dataset from a sequence of rows, validating dimensions.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, CoreError> {
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        if dim == 0 {
            return Err(CoreError::EmptyDataset);
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(CoreError::DimensionMismatch {
                    expected: dim,
                    got: row.len(),
                });
            }
            if let Some(j) = row.iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFinite {
                    point: i,
                    coordinate: j,
                });
            }
        }
        Ok(Dataset::pack_rows(
            dim,
            rows.len(),
            rows.iter().map(Vec::as_slice),
        ))
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Representational dimension `m`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length of one stored row: [`Dataset::dim`] rounded up to a multiple
    /// of [`kernel::LANES`]. Coordinates past `dim` are zero padding.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Coordinates of point `i` (the logical `dim`-length slice — never
    /// includes padding).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &lanes_as_f64s(&self.data)[i * self.stride..i * self.stride + self.dim]
    }

    /// The full padded row of point `i` (`stride` coordinates, zeros past
    /// `dim`) — the layout [`crate::Metric::dist_tile`] consumes.
    #[inline]
    pub fn padded_point(&self, i: usize) -> &[f64] {
        &lanes_as_f64s(&self.data)[i * self.stride..(i + 1) * self.stride]
    }

    /// The whole padded row-major buffer (`len() * stride()` coordinates,
    /// 32-byte aligned). Rows `a..b` occupy
    /// `padded_flat()[a * stride..b * stride]` — the contiguous blocks the
    /// tile kernels stream over. For logical coordinates use
    /// [`Dataset::point`] / [`Dataset::iter`].
    #[inline]
    pub fn padded_flat(&self) -> &[f64] {
        lanes_as_f64s(&self.data)
    }

    /// Bytes occupied by the padded row storage — the traffic denominator
    /// for kernel bandwidth accounting.
    #[inline]
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Lane4>()
    }

    /// Iterates over `(id, coordinates)` pairs (logical slices).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> {
        (0..self.len()).map(move |i| (i, self.point(i)))
    }

    /// A new dataset containing only the points whose ids are in `ids`
    /// (in the given order).
    pub fn subset(&self, ids: &[usize]) -> Result<Self, CoreError> {
        if let Some(&bad) = ids.iter().find(|&&id| id >= self.len()) {
            return Err(CoreError::UnknownPoint(bad));
        }
        Ok(Dataset::pack_rows(
            self.dim,
            ids.len(),
            ids.iter().map(|&id| self.point(id)),
        ))
    }

    /// Wraps the dataset in an [`Arc`] for sharing across indexes.
    pub fn into_shared(self) -> Arc<Dataset> {
        Arc::new(self)
    }
}

/// Growable, 32-byte-aligned, zero-padded row storage sharing the
/// [`Dataset`] layout.
///
/// This is the storage dynamic indexes append into: rows of `dim` logical
/// coordinates stored at the same `stride = dim.div_ceil(4) * 4` as a
/// [`Dataset`] built over the same dimensionality, each row starting
/// 32-byte aligned with zero padding past `dim`. A scan can therefore
/// stream appended points through [`crate::Metric::dist_tile`] in the same
/// tile blocks as the base dataset — the tile fast path survives dynamic
/// insertion instead of falling back to per-point evaluation.
///
/// Unlike [`DatasetBuilder`] this type is a *live* store, readable between
/// pushes; validation (finiteness, dimensionality) is the caller's
/// responsibility, matching where the pool layer already performs it.
#[derive(Debug, PartialEq, Default)]
pub struct PaddedRows {
    dim: usize,
    stride: usize,
    n: usize,
    data: Vec<Lane4>,
}

/// Clones keep the buffer's capacity ([`crate::clone_with_capacity`]), so
/// rows pushed to a clone reallocate only when the source's would have.
impl Clone for PaddedRows {
    fn clone(&self) -> Self {
        PaddedRows {
            data: crate::clone_with_capacity(&self.data),
            ..*self
        }
    }
}

impl PaddedRows {
    /// An empty store for rows of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        PaddedRows {
            dim,
            stride: kernel::pad_dim(dim),
            n: 0,
            data: Vec::new(),
        }
    }

    /// Number of rows stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no rows have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the logical rows.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length of one stored row (`dim` rounded up to a multiple of four);
    /// identical to [`Dataset::stride`] at the same dimensionality.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows the store holds before its next reallocation
    /// (unbounded for zero-dimensional rows, which take no storage).
    pub fn capacity(&self) -> usize {
        (self.data.capacity() * 4)
            .checked_div(self.stride)
            .unwrap_or(usize::MAX)
    }

    /// Appends one row, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn push(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.dim, "row dimensionality mismatch");
        let lanes = self.stride / 4;
        self.data
            .extend(std::iter::repeat_n(Lane4([0.0; 4]), lanes));
        let start = self.n * self.stride;
        lanes_as_f64s_mut(&mut self.data)[start..start + self.dim].copy_from_slice(row);
        self.n += 1;
        self.n - 1
    }

    /// Logical coordinates of row `i` (never includes padding).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &lanes_as_f64s(&self.data)[i * self.stride..i * self.stride + self.dim]
    }

    /// The whole padded row-major buffer (`len() * stride()` coordinates,
    /// 32-byte aligned) — the layout [`crate::Metric::dist_tile`] consumes,
    /// exactly as [`Dataset::padded_flat`].
    #[inline]
    pub fn padded_flat(&self) -> &[f64] {
        lanes_as_f64s(&self.data)
    }
}

/// Allocation accounting for one streaming [`DatasetBuilder`] run — the
/// honesty record behind the "no 2x peak RSS" claim for large builds.
///
/// `peak_bytes` is the worst-case number of row-storage bytes live at any
/// instant, charging each growth reallocation with *both* the old and the
/// new buffer (the allocator holds both while the rows are copied across).
/// A builder created with [`DatasetBuilder::with_capacity`] for the exact
/// row count never reallocates, so `peak_bytes == final_bytes` and
/// `peak_ratio()` is 1.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildStats {
    /// Rows in the finished dataset.
    pub rows: usize,
    /// Bytes of padded row storage the finished dataset occupies.
    pub final_bytes: usize,
    /// Worst-case bytes of row storage live at once during the build
    /// (old + new buffer during each growth reallocation).
    pub peak_bytes: usize,
    /// Number of growth reallocations the row buffer underwent.
    pub reallocs: usize,
}

impl BuildStats {
    /// `peak_bytes / final_bytes` — exactly 1.0 for a pre-sized build
    /// (the loaders' known-row-count path, which must stay below 1.5 to
    /// honor the no-2x-peak claim); up to ~3x for unknown-count streaming
    /// when the last doubling lands just before the end.
    pub fn peak_ratio(&self) -> f64 {
        if self.final_bytes == 0 {
            1.0
        } else {
            self.peak_bytes as f64 / self.final_bytes as f64
        }
    }
}

/// Incremental builder for [`Dataset`], validating each appended point.
///
/// Rows are appended *straight into* the padded 32-byte-aligned lane buffer
/// the finished [`Dataset`] will own — there is no intermediate flat copy,
/// so [`DatasetBuilder::build`] is a move, not a repack. Growth is
/// reserve-ahead (capacity at least doubles per reallocation), and the
/// builder tracks its own worst-case transient footprint; see
/// [`BuildStats`]. A [`with_capacity`] (or [`reserve`](DatasetBuilder::reserve))
/// build for a known row count never reallocates and peaks at exactly 1.0x
/// the final storage — this is the path the file loaders take whenever the
/// byte length reveals the row count. Pure unknown-count streaming pays the
/// doubling transient instead (old + new buffer live during a growth copy):
/// between 1.5x and ~3x of the final bytes depending on where the last
/// reallocation lands, where the old flat-copy-then-repack path held a full
/// second copy on *every* build, known row count or not. [`BuildStats`]
/// records which case actually happened.
///
/// [`push`]: DatasetBuilder::push
/// [`push_chunk`]: DatasetBuilder::push_chunk
/// [`with_capacity`]: DatasetBuilder::with_capacity
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    dim: usize,
    stride: usize,
    n: usize,
    data: Vec<Lane4>,
    peak_lanes: usize,
    reallocs: usize,
}

impl DatasetBuilder {
    /// Creates a builder for points of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        DatasetBuilder {
            dim,
            stride: kernel::pad_dim(dim),
            n: 0,
            data: Vec::new(),
            peak_lanes: 0,
            reallocs: 0,
        }
    }

    /// Creates a builder with room for `n` points without reallocation.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        let stride = kernel::pad_dim(dim);
        let data = Vec::with_capacity(n * stride / 4);
        let peak_lanes = data.capacity();
        DatasetBuilder {
            dim,
            stride,
            n: 0,
            data,
            peak_lanes,
            reallocs: 0,
        }
    }

    /// Ensures room for `more` additional rows, reallocating ahead (at
    /// least doubling) so repeated pushes amortize and the transient
    /// old+new footprint stays bounded.
    fn ensure(&mut self, more: usize) {
        let lanes_per_row = self.stride / 4;
        let need = (self.n + more) * lanes_per_row;
        if need > self.data.capacity() {
            let old = self.data.capacity();
            // Grow to at least double the old capacity so the number of
            // reallocations is logarithmic. The transient (old + new live
            // during the copy) is 1.5x the *new capacity*; relative to the
            // final used bytes that is 1.5x when the build fills the last
            // buffer and up to ~3x when growth lands just before the end.
            let target = need.max(old * 2).max(lanes_per_row.max(1) * 64);
            self.data.reserve_exact(target - self.data.len());
            self.reallocs += 1;
            self.peak_lanes = self.peak_lanes.max(old + self.data.capacity());
        }
    }

    /// Reserves room for `additional` more rows without reallocation on
    /// subsequent pushes. Loaders that know the row count from file
    /// metadata call this once so streaming ingestion never regrows.
    pub fn reserve(&mut self, additional: usize) {
        self.ensure(additional);
    }

    /// Appends one point, returning its id.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] or [`CoreError::NonFinite`].
    pub fn push(&mut self, point: &[f64]) -> Result<usize, CoreError> {
        if self.dim == 0 {
            return Err(CoreError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        if point.len() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        if let Some(j) = point.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFinite {
                point: self.n,
                coordinate: j,
            });
        }
        self.ensure(1);
        self.data
            .extend(std::iter::repeat_n(Lane4([0.0; 4]), self.stride / 4));
        let start = self.n * self.stride;
        lanes_as_f64s_mut(&mut self.data)[start..start + self.dim].copy_from_slice(point);
        self.n += 1;
        Ok(self.n - 1)
    }

    /// Appends a chunk of row-major flat coordinates (any whole number of
    /// rows, including zero), returning the number of rows appended. The
    /// chunked ingestion entry point for file loaders: validation and the
    /// copy into padded storage happen per chunk, so only one chunk of
    /// unpadded data is ever live alongside the growing dataset.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if `flat.len()` is not a multiple
    /// of the builder's dimension, [`CoreError::NonFinite`] (with the
    /// dataset-global point id) if any coordinate is NaN or infinite. On
    /// error no rows from the chunk are appended.
    pub fn push_chunk(&mut self, flat: &[f64]) -> Result<usize, CoreError> {
        if self.dim == 0 || !flat.len().is_multiple_of(self.dim) {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim.max(1),
                got: if self.dim == 0 {
                    flat.len()
                } else {
                    flat.len() % self.dim
                },
            });
        }
        let rows = flat.len() / self.dim;
        for (r, row) in flat.chunks_exact(self.dim).enumerate() {
            if let Some(j) = row.iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFinite {
                    point: self.n + r,
                    coordinate: j,
                });
            }
        }
        self.ensure(rows);
        self.data
            .extend(std::iter::repeat_n(Lane4([0.0; 4]), rows * self.stride / 4));
        let dst = lanes_as_f64s_mut(&mut self.data);
        for (r, row) in flat.chunks_exact(self.dim).enumerate() {
            let start = (self.n + r) * self.stride;
            dst[start..start + self.dim].copy_from_slice(row);
        }
        self.n += rows;
        Ok(rows)
    }

    /// Number of points pushed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no points have been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Allocation accounting as of now; see [`BuildStats`]. `final_bytes`
    /// reflects the rows pushed so far.
    pub fn stats(&self) -> BuildStats {
        BuildStats {
            rows: self.n,
            final_bytes: self.data.len() * std::mem::size_of::<Lane4>(),
            peak_bytes: self.peak_lanes.max(self.data.capacity()) * std::mem::size_of::<Lane4>(),
            reallocs: self.reallocs,
        }
    }

    /// Finalizes the dataset. The padded lane buffer moves into the
    /// [`Dataset`] as-is — no repack, no copy.
    pub fn build(self) -> Dataset {
        self.build_counted().0
    }

    /// Finalizes the dataset and reports the build's allocation honesty
    /// record ([`BuildStats`]).
    pub fn build_counted(self) -> (Dataset, BuildStats) {
        let stats = BuildStats {
            rows: self.n,
            final_bytes: self.data.len() * std::mem::size_of::<Lane4>(),
            peak_bytes: self.peak_lanes.max(self.data.capacity()) * std::mem::size_of::<Lane4>(),
            reallocs: self.reallocs,
        };
        (
            Dataset {
                dim: self.dim,
                stride: self.stride,
                n: self.n,
                data: self.data,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrip() {
        let ds = Dataset::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]]).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.point(1), &[2.0, 3.0]);
        let collected: Vec<_> = ds.iter().map(|(i, p)| (i, p.to_vec())).collect();
        assert_eq!(collected[2], (2, vec![4.0, 5.0]));
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Dataset::from_rows(&[vec![0.0, 1.0], vec![2.0]]).unwrap_err();
        assert_eq!(
            err,
            CoreError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn rejects_non_finite() {
        let err = Dataset::from_rows(&[vec![0.0, f64::NAN]]).unwrap_err();
        assert_eq!(
            err,
            CoreError::NonFinite {
                point: 0,
                coordinate: 1
            }
        );
        let err = Dataset::from_flat(2, vec![0.0, 1.0, f64::INFINITY, 3.0]).unwrap_err();
        assert_eq!(
            err,
            CoreError::NonFinite {
                point: 1,
                coordinate: 0
            }
        );
    }

    #[test]
    fn rejects_empty_rows() {
        assert_eq!(
            Dataset::from_rows(&[]).unwrap_err(),
            CoreError::EmptyDataset
        );
    }

    #[test]
    fn from_flat_validates_multiple() {
        let err = Dataset::from_flat(3, vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
        assert!(Dataset::from_flat(0, vec![]).is_err());
    }

    #[test]
    fn subset_selects_and_orders() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let sub = ds.subset(&[2, 0]).unwrap();
        assert_eq!(sub.point(0), &[2.0]);
        assert_eq!(sub.point(1), &[0.0]);
        assert_eq!(ds.subset(&[5]).unwrap_err(), CoreError::UnknownPoint(5));
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = DatasetBuilder::with_capacity(2, 4);
        assert!(b.is_empty());
        assert_eq!(b.push(&[0.0, 0.0]).unwrap(), 0);
        assert_eq!(b.push(&[1.0, 1.0]).unwrap(), 1);
        assert_eq!(b.len(), 2);
        assert!(b.push(&[1.0]).is_err());
        assert!(b.push(&[f64::NAN, 0.0]).is_err());
        let ds = b.build();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn builder_streams_bytes_identical_to_from_rows() {
        for dim in [1usize, 3, 4, 5, 8, 13] {
            let rows: Vec<Vec<f64>> = (0..17)
                .map(|i| (0..dim).map(|j| (i * dim + j) as f64 + 0.5).collect())
                .collect();
            let reference = Dataset::from_rows(&rows).unwrap();
            // Row-at-a-time streaming (no capacity hint).
            let mut b = DatasetBuilder::new(dim);
            for row in &rows {
                b.push(row).unwrap();
            }
            let (ds, stats) = b.build_counted();
            assert_eq!(ds, reference, "dim={dim}");
            assert_eq!(ds.padded_flat(), reference.padded_flat());
            assert_eq!(stats.rows, rows.len());
            assert_eq!(stats.final_bytes, reference.storage_bytes());
            // Chunked streaming in uneven chunk sizes.
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let mut b = DatasetBuilder::new(dim);
            let mut off = 0;
            for chunk_rows in [1usize, 4, 0, 7, 5] {
                let take = chunk_rows.min(rows.len() - off);
                b.push_chunk(&flat[off * dim..(off + take) * dim]).unwrap();
                off += take;
            }
            assert_eq!(off, rows.len());
            assert_eq!(b.build(), reference, "dim={dim} chunked");
        }
    }

    #[test]
    fn presized_builder_never_reallocates() {
        let mut b = DatasetBuilder::with_capacity(5, 100);
        for i in 0..100 {
            b.push(&[i as f64; 5]).unwrap();
        }
        let (ds, stats) = b.build_counted();
        assert_eq!(ds.len(), 100);
        assert_eq!(stats.reallocs, 0);
        assert_eq!(stats.peak_bytes, stats.final_bytes);
        assert_eq!(stats.peak_ratio(), 1.0);
        assert_eq!(stats.final_bytes, ds.storage_bytes());
    }

    #[test]
    fn push_chunk_rejects_bad_input_atomically() {
        let mut b = DatasetBuilder::new(3);
        b.push_chunk(&[1.0, 2.0, 3.0]).unwrap();
        // Ragged chunk: not a multiple of dim.
        let err = b.push_chunk(&[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            CoreError::DimensionMismatch {
                expected: 3,
                got: 2
            }
        );
        // Non-finite in the second row of the chunk: nothing appended.
        let err = b
            .push_chunk(&[4.0, 5.0, 6.0, 7.0, f64::NAN, 9.0])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::NonFinite {
                point: 2,
                coordinate: 1
            }
        );
        assert_eq!(b.len(), 1);
        let ds = b.build();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.point(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_dim_builder_rejects_pushes() {
        let mut b = DatasetBuilder::new(0);
        assert!(b.push(&[]).is_err());
        assert!(b.push_chunk(&[]).is_err());
        assert!(b.build().is_empty());
    }

    #[test]
    fn zero_dim_builder_builds_the_empty_dataset() {
        // Regression: an unused builder at dim 0 must keep yielding an
        // empty dataset rather than panicking in the packing step.
        let ds = DatasetBuilder::new(0).build();
        assert!(ds.is_empty());
        assert_eq!(ds.len(), 0);
        assert_eq!(ds.dim(), 0);
        assert_eq!(ds.iter().count(), 0);
    }

    #[test]
    fn empty_dataset_properties() {
        let ds = Dataset::from_flat(4, vec![]).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.len(), 0);
        assert_eq!(ds.iter().count(), 0);
        assert_eq!(ds.stride(), 4);
    }

    #[test]
    fn padding_never_leaks_into_logical_accessors() {
        // dim = 3 pads one zero per row; dim = 5 pads three.
        for dim in [1usize, 2, 3, 4, 5, 7, 9] {
            let rows: Vec<Vec<f64>> = (0..6)
                .map(|i| (0..dim).map(|j| (i * dim + j) as f64 + 1.0).collect())
                .collect();
            let ds = Dataset::from_rows(&rows).unwrap();
            assert_eq!(ds.stride(), dim.div_ceil(4) * 4);
            assert_eq!(ds.stride() % 4, 0);
            for (i, row) in rows.iter().enumerate() {
                // Logical accessors return exactly the pushed coordinates —
                // no pad values, which are all nonzero here by construction.
                assert_eq!(ds.point(i), row.as_slice(), "dim={dim}");
                let padded = ds.padded_point(i);
                assert_eq!(padded.len(), ds.stride());
                assert_eq!(&padded[..dim], row.as_slice());
                assert!(
                    padded[dim..].iter().all(|&v| v == 0.0),
                    "pad coordinates must stay zero"
                );
            }
            // iter() yields logical slices too.
            for (i, p) in ds.iter() {
                assert_eq!(p.len(), dim, "dim={dim} i={i}");
            }
            // Subset and equality operate on logical rows.
            let sub = ds.subset(&[1, 0]).unwrap();
            assert_eq!(sub.point(0), rows[1].as_slice());
            let rebuilt = Dataset::from_rows(&rows).unwrap();
            assert_eq!(ds, rebuilt);
        }
    }

    #[test]
    fn padded_rows_share_the_dataset_layout() {
        for dim in [1usize, 2, 3, 4, 5, 7, 9] {
            let rows: Vec<Vec<f64>> = (0..6)
                .map(|i| (0..dim).map(|j| (i * dim + j) as f64 + 1.0).collect())
                .collect();
            let ds = Dataset::from_rows(&rows).unwrap();
            let mut pr = PaddedRows::new(dim);
            assert!(pr.is_empty());
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(pr.push(row), i);
            }
            assert_eq!(pr.len(), 6);
            assert_eq!(pr.dim(), dim);
            assert_eq!(pr.stride(), ds.stride(), "dim={dim}");
            // Bytewise the same padded buffer as the equivalent Dataset.
            assert_eq!(pr.padded_flat(), ds.padded_flat(), "dim={dim}");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(pr.point(i), row.as_slice());
                assert_eq!(
                    pr.padded_flat()[i * pr.stride()..].as_ptr() as usize % 32,
                    0,
                    "row {i} must start 32-byte aligned"
                );
            }
        }
    }

    #[test]
    fn padded_rows_clones_keep_capacity() {
        let mut rows = PaddedRows::new(5);
        rows.push(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(rows.capacity() > rows.len());
        let mut copy = rows.clone();
        assert_eq!(copy, rows);
        assert_eq!(copy.capacity(), rows.capacity());
        let buffer = copy.padded_flat().as_ptr();
        while copy.len() < rows.capacity() {
            copy.push(&[0.5; 5]);
        }
        assert_eq!(copy.padded_flat().as_ptr(), buffer, "the clone reallocated");
        assert_eq!(PaddedRows::new(0).capacity(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn padded_rows_reject_ragged_push() {
        PaddedRows::new(3).push(&[1.0, 2.0]);
    }

    #[test]
    fn rows_are_32_byte_aligned() {
        let ds = Dataset::from_rows(&[vec![1.0; 5], vec![2.0; 5], vec![3.0; 5]]).unwrap();
        for i in 0..ds.len() {
            assert_eq!(
                ds.padded_point(i).as_ptr() as usize % 32,
                0,
                "row {i} must start 32-byte aligned"
            );
        }
        assert_eq!(ds.padded_flat().len(), ds.len() * ds.stride());
    }
}
