//! Offline shim for `rayon` — with a **real** multicore executor.
//!
//! Exposes rayon's parallel-iterator entry points (`par_iter`,
//! `par_iter_mut`, `into_par_iter`, `par_chunks`, `par_chunks_mut`) and
//! actually executes them on N OS threads:
//!
//! * N defaults to [`std::thread::available_parallelism`] and can be pinned
//!   with the `CULDA_NUM_THREADS` environment variable (read once per
//!   process);
//! * a rayon-compatible [`ThreadPoolBuilder`]/[`ThreadPool::install`] pair
//!   overrides N for the dynamic extent of a closure, which is how the
//!   workspace's thread-invariance tests compare 1/2/8-thread runs inside a
//!   single process;
//! * nested parallel regions run sequentially on the thread that opened
//!   them (the outer region already owns all the threads), so the
//!   scheduler's per-device fan-out composes with the per-block fan-out of
//!   `Device::launch` without oversubscription.
//!
//! # Determinism
//!
//! Work is distributed by atomic chunk-claiming, so *which thread* runs an
//! index is nondeterministic — but every consumer is written so the *result*
//! is a pure function of the input:
//!
//! * `collect` writes each element into its own slot, indexed by position;
//! * `sum` reduces over a **fixed partial-sum tree whose shape depends only
//!   on the input length** (never on the thread count or arrival order):
//!   indexes are grouped into at most [`MAX_SUM_PARTIALS`] contiguous
//!   chunks, each chunk is folded in index order, and the per-chunk partials
//!   are folded in chunk order on the calling thread.  Floating-point sums
//!   are therefore bit-identical at every thread count;
//! * `for_each` imposes no order — call sites must be order-independent,
//!   which the workspace guarantees via counter-based RNG and atomic counts.
//!
//! The iterator model is *indexed access*: every source can produce the item
//! at position `i` independently ([`IndexedSource`]), and the executor
//! guarantees each index is fetched exactly once.  That contract is what
//! makes `&mut`-yielding sources (`par_iter_mut`, `par_chunks_mut`) sound
//! across threads.  When the real rayon is swapped back in via the workspace
//! `Cargo.toml`, the same call sites compile unchanged.

use std::cell::Cell;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// Threads the machine offers (≥ 1).
fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide default thread count: `CULDA_NUM_THREADS` if set and
/// valid, otherwise the machine's available parallelism.  Read once.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| match std::env::var("CULDA_NUM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "warning: CULDA_NUM_THREADS={v:?} is not a positive integer; \
                     using available parallelism"
                );
                machine_parallelism()
            }
        },
        Err(_) => machine_parallelism(),
    })
}

thread_local! {
    /// Thread count forced by an enclosing [`ThreadPool::install`].
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while this thread is executing inside a parallel region, in
    /// which case nested regions run sequentially.
    static INSIDE_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The number of threads the *next* parallel region opened by this thread
/// will use: 1 inside an already-parallel region, else the innermost
/// [`ThreadPool::install`] override, else the process default.
pub fn current_num_threads() -> usize {
    if INSIDE_REGION.with(Cell::get) {
        return 1;
    }
    POOL_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
}

/// Error type of [`ThreadPoolBuilder::build`] (which cannot actually fail
/// here; the type exists for rayon API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with the default (process-wide) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin the pool to `n` threads (`0` keeps the default, as in rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Build the pool.  Infallible here; `Result` for rayon compatibility.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(configured_threads),
        })
    }
}

/// A handle that scopes a thread-count choice, mirroring
/// `rayon::ThreadPool`.  Threads themselves are spawned per parallel region
/// (scoped), so the "pool" carries only the configured width.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The thread count this pool imposes.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `op` with this pool's thread count governing every parallel
    /// region it opens (on this thread), restoring the previous setting —
    /// also on panic — when `op` returns.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_OVERRIDE.with(|c| c.replace(Some(self.num_threads))));
        op()
    }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// Run `task` over every index in `0..len`, splitting the range into claims
/// of `grain` indexes handed out by an atomic cursor.  Spawns up to
/// `current_num_threads() - 1` scoped worker threads and participates from
/// the calling thread; falls back to a plain sequential call when one thread
/// (or one claim) suffices.  Each index is passed to `task` exactly once.
fn run_region(len: usize, grain: usize, task: &(dyn Fn(Range<usize>) + Sync)) {
    let grain = grain.max(1);
    let claims = len.div_ceil(grain);
    let workers = current_num_threads().min(claims);
    if workers <= 1 {
        // Sequential fast path.  Deliberately does NOT mark the thread as
        // inside a region: a one-claim outer loop (e.g. a single-GPU
        // schedule) must not stop its inner launches from parallelizing.
        task(0..len);
        return;
    }
    struct Region(bool);
    impl Region {
        fn enter() -> Self {
            Region(INSIDE_REGION.with(|c| c.replace(true)))
        }
    }
    impl Drop for Region {
        fn drop(&mut self) {
            INSIDE_REGION.with(|c| c.set(self.0));
        }
    }
    let cursor = AtomicUsize::new(0);
    let worker = move || {
        let _nested = Region::enter();
        loop {
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= len {
                break;
            }
            task(start..(start + grain).min(len));
        }
    };
    std::thread::scope(|scope| {
        let worker = &worker;
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });
}

/// Claim granularity for element-wise consumers: a few claims per thread for
/// load balance without cursor contention.  Affects scheduling only, never
/// results.
fn element_grain(len: usize) -> usize {
    (len / (current_num_threads() * 4)).max(1)
}

/// Upper bound on the number of partial sums `sum` produces.  The partial
/// boundaries are a pure function of the input length — see the module docs'
/// determinism argument.
pub const MAX_SUM_PARTIALS: usize = 4096;

/// A raw slot pointer that may be shared across the scoped workers.  Safety
/// rests on the exactly-once index contract: distinct indexes touch distinct
/// slots.
struct SharedSlots<T>(*mut MaybeUninit<T>);
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    /// Write `value` into slot `index`.
    ///
    /// # Safety
    /// `index` is in bounds and no slot is written twice.
    unsafe fn write(&self, index: usize, value: T) {
        (*self.0.add(index)).write(value);
    }
}

/// Reinterpret a fully initialized `Vec<MaybeUninit<T>>` as `Vec<T>`.
///
/// # Safety
/// Every element must have been initialized.
unsafe fn assume_init_vec<T>(mut v: Vec<MaybeUninit<T>>) -> Vec<T> {
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    std::mem::forget(v);
    Vec::from_raw_parts(ptr.cast::<T>(), len, cap)
}

// ---------------------------------------------------------------------------
// Indexed sources
// ---------------------------------------------------------------------------

/// A source of items addressable by position — the engine behind every
/// parallel iterator here.
///
/// # Safety
/// Implementations yielding `&mut` (or otherwise unique) items rely on the
/// executor's contract that **each index in `0..len()` is fetched at most
/// once** across all threads; callers of [`IndexedSource::fetch`] must
/// uphold it.
pub unsafe trait IndexedSource {
    /// The item produced per index.
    type Item;

    /// Number of addressable items.
    fn len(&self) -> usize;

    /// True when the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce the item at `index`.
    ///
    /// # Safety
    /// `index < self.len()`, and no index may be fetched twice.
    unsafe fn fetch(&self, index: usize) -> Self::Item;
}

/// Integer types usable as `Range` endpoints in `into_par_iter`.
pub trait ParallelRangeIndex: Copy + Send {
    /// `self + i` (never overflows for indexes inside a valid range).
    fn offset(self, i: usize) -> Self;
    /// Length of `self..end` (0 when `end <= self`).
    fn distance_to(self, end: Self) -> usize;
}

macro_rules! impl_range_index {
    ($($t:ty),*) => {$(
        impl ParallelRangeIndex for $t {
            #[inline]
            fn offset(self, i: usize) -> Self {
                self + i as $t
            }
            #[inline]
            fn distance_to(self, end: Self) -> usize {
                if end > self { (end - self) as usize } else { 0 }
            }
        }
    )*};
}
impl_range_index!(usize, u32, u64, i32, i64);

/// Indexed view of an integer range.
pub struct RangeSource<T> {
    start: T,
    len: usize,
}

unsafe impl<T: ParallelRangeIndex> IndexedSource for RangeSource<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn fetch(&self, index: usize) -> T {
        self.start.offset(index)
    }
}

/// Indexed view of a shared slice.
pub struct SliceSource<'data, T> {
    slice: &'data [T],
}

unsafe impl<'data, T: Sync> IndexedSource for SliceSource<'data, T> {
    type Item = &'data T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn fetch(&self, index: usize) -> &'data T {
        &self.slice[index]
    }
}

/// Indexed view of a mutable slice; sound because each index — hence each
/// element — is handed out at most once.
pub struct SliceMutSource<'data, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'data mut [T]>,
}

unsafe impl<T: Send> Send for SliceMutSource<'_, T> {}
unsafe impl<T: Send> Sync for SliceMutSource<'_, T> {}

unsafe impl<'data, T: Send> IndexedSource for SliceMutSource<'data, T> {
    type Item = &'data mut T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn fetch(&self, index: usize) -> &'data mut T {
        &mut *self.ptr.add(index)
    }
}

/// Indexed view of a slice's non-overlapping chunks.
pub struct ChunksSource<'data, T> {
    slice: &'data [T],
    chunk: usize,
}

unsafe impl<'data, T: Sync> IndexedSource for ChunksSource<'data, T> {
    type Item = &'data [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }
    unsafe fn fetch(&self, index: usize) -> &'data [T] {
        let start = index * self.chunk;
        let end = (start + self.chunk).min(self.slice.len());
        &self.slice[start..end]
    }
}

/// Indexed view of a mutable slice's non-overlapping chunks.
pub struct ChunksMutSource<'data, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: std::marker::PhantomData<&'data mut [T]>,
}

unsafe impl<T: Send> Send for ChunksMutSource<'_, T> {}
unsafe impl<T: Send> Sync for ChunksMutSource<'_, T> {}

unsafe impl<'data, T: Send> IndexedSource for ChunksMutSource<'data, T> {
    type Item = &'data mut [T];
    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }
    unsafe fn fetch(&self, index: usize) -> &'data mut [T] {
        let start = index * self.chunk;
        let end = (start + self.chunk).min(self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

/// The `map` adapter: applies `f` to the inner source's items.
pub struct MapSource<S, F> {
    inner: S,
    f: F,
}

unsafe impl<S, F, R> IndexedSource for MapSource<S, F>
where
    S: IndexedSource,
    F: Fn(S::Item) -> R,
{
    type Item = R;
    fn len(&self) -> usize {
        self.inner.len()
    }
    unsafe fn fetch(&self, index: usize) -> R {
        (self.f)(self.inner.fetch(index))
    }
}

/// The `zip` adapter: pairs two sources positionally (shortest wins).
pub struct ZipSource<A, B> {
    a: A,
    b: B,
}

unsafe impl<A, B> IndexedSource for ZipSource<A, B>
where
    A: IndexedSource,
    B: IndexedSource,
{
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    unsafe fn fetch(&self, index: usize) -> Self::Item {
        (self.a.fetch(index), self.b.fetch(index))
    }
}

// ---------------------------------------------------------------------------
// The parallel iterator
// ---------------------------------------------------------------------------

/// A parallel iterator over an [`IndexedSource`], driven by the scoped
/// thread executor.  Mirrors the subset of `rayon::iter::ParallelIterator`
/// the workspace uses: `map`, `zip`, `with_min_len`, `for_each`, `collect`,
/// `sum`.
pub struct ParIter<S> {
    source: S,
    /// Fewest items one claim of `for_each` / `collect` covers.
    min_len: usize,
}

impl<S: IndexedSource> ParIter<S> {
    fn new(source: S) -> Self {
        ParIter { source, min_len: 1 }
    }

    /// Apply `f` to every item.
    pub fn map<F, R>(self, f: F) -> ParIter<MapSource<S, F>>
    where
        F: Fn(S::Item) -> R,
    {
        ParIter {
            source: MapSource {
                inner: self.source,
                f,
            },
            min_len: self.min_len,
        }
    }

    /// Pair items positionally with another parallel iterator.
    pub fn zip<S2: IndexedSource>(self, other: ParIter<S2>) -> ParIter<ZipSource<S, S2>> {
        ParIter {
            source: ZipSource {
                a: self.source,
                b: other.source,
            },
            min_len: self.min_len.max(other.min_len),
        }
    }

    /// Hand `for_each` and `collect` claims of at least `min` items, so a
    /// short input runs on fewer threads (on one when `len ≤ min`), as
    /// `rayon::IndexedParallelIterator::with_min_len`.  Affects scheduling
    /// only, never results; `sum` keeps its fixed partial tree.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Consume every item on the worker threads.  Imposes no ordering: the
    /// closure's effects must be order-independent.
    pub fn for_each<F>(self, f: F)
    where
        S: Sync,
        F: Fn(S::Item) + Sync,
    {
        let len = self.source.len();
        let source = &self.source;
        run_region(len, element_grain(len).max(self.min_len), &|range| {
            for i in range {
                // SAFETY: the executor hands out each index exactly once.
                f(unsafe { source.fetch(i) });
            }
        });
    }

    /// Collect into a container, preserving source order.
    pub fn collect<C>(self) -> C
    where
        S: Sync,
        C: FromParallelSource<S::Item>,
    {
        C::from_par_source(self.source, self.min_len)
    }

    /// Sum the items over the fixed partial-sum tree described in the module
    /// docs: bit-identical at every thread count, including for
    /// floating-point sums.
    pub fn sum<R>(self) -> R
    where
        S: Sync,
        R: Send + std::iter::Sum<S::Item> + std::iter::Sum<R>,
    {
        let len = self.source.len();
        if len == 0 {
            return std::iter::empty::<R>().sum();
        }
        // Partial boundaries are a pure function of `len`.
        let chunk = len.div_ceil(MAX_SUM_PARTIALS).max(1);
        let partials_len = len.div_ceil(chunk);
        let mut partials: Vec<MaybeUninit<R>> =
            (0..partials_len).map(|_| MaybeUninit::uninit()).collect();
        let slots = SharedSlots(partials.as_mut_ptr());
        let source = &self.source;
        run_region(partials_len, 1, &|claims| {
            for c in claims {
                let start = c * chunk;
                let end = (start + chunk).min(len);
                // SAFETY: indexes fetched exactly once; slot `c` is owned by
                // this claim alone.
                let value: R = (start..end).map(|i| unsafe { source.fetch(i) }).sum();
                unsafe { slots.write(c, value) };
            }
        });
        // SAFETY: every claim in 0..partials_len ran and wrote its slot.
        let partials = unsafe { assume_init_vec(partials) };
        partials.into_iter().sum()
    }
}

/// Order-preserving parallel collection (rayon's `FromParallelIterator`).
pub trait FromParallelSource<T>: Sized {
    /// Build the container from an indexed source, in claims of at least
    /// `min_len` items.
    fn from_par_source<S>(source: S, min_len: usize) -> Self
    where
        S: IndexedSource<Item = T> + Sync;
}

impl<T: Send> FromParallelSource<T> for Vec<T> {
    /// The buffer is allocated on the calling thread and left untouched
    /// there: each slot is first written by the thread that produces it, so
    /// a large output's page faults are spread over the pool.
    fn from_par_source<S>(source: S, min_len: usize) -> Self
    where
        S: IndexedSource<Item = T> + Sync,
    {
        let len = source.len();
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
        // SAFETY: `MaybeUninit<T>` needs no initialization, and the capacity
        // is `len`.
        unsafe { out.set_len(len) };
        let slots = SharedSlots(out.as_mut_ptr());
        let source = &source;
        run_region(len, element_grain(len).max(min_len), &|range| {
            for i in range {
                // SAFETY: index `i` — hence slot `i` — is visited exactly
                // once across all threads.
                let item = unsafe { source.fetch(i) };
                unsafe { slots.write(i, item) };
            }
        });
        // SAFETY: every index in 0..len wrote its slot.
        unsafe { assume_init_vec(out) }
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits (rayon's names and shapes)
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item;
    /// The concrete parallel iterator produced.
    type Iter;
    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: ParallelRangeIndex> IntoParallelIterator for Range<T> {
    type Item = T;
    type Iter = ParIter<RangeSource<T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter::new(RangeSource {
            start: self.start,
            len: self.start.distance_to(self.end),
        })
    }
}

/// `by_ref` borrowing conversion, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The borrowed element type.
    type Item: 'data;
    /// The concrete parallel iterator produced.
    type Iter;
    /// Iterate over `&self` in parallel.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParIter<SliceSource<'data, T>>;
    fn par_iter(&'data self) -> Self::Iter {
        ParIter::new(SliceSource { slice: self })
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParIter<SliceSource<'data, T>>;
    fn par_iter(&'data self) -> Self::Iter {
        self.as_slice().par_iter()
    }
}

impl<'data, T: Sync + 'data, const N: usize> IntoParallelRefIterator<'data> for [T; N] {
    type Item = &'data T;
    type Iter = ParIter<SliceSource<'data, T>>;
    fn par_iter(&'data self) -> Self::Iter {
        self.as_slice().par_iter()
    }
}

/// Mutable borrowing conversion, mirroring
/// `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'data> {
    /// The mutably borrowed element type.
    type Item: 'data;
    /// The concrete parallel iterator produced.
    type Iter;
    /// Iterate over `&mut self` in parallel.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Item = &'data mut T;
    type Iter = ParIter<SliceMutSource<'data, T>>;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        ParIter::new(SliceMutSource {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: std::marker::PhantomData,
        })
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Item = &'data mut T;
    type Iter = ParIter<SliceMutSource<'data, T>>;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.as_mut_slice().par_iter_mut()
    }
}

impl<'data, T: Send + 'data, const N: usize> IntoParallelRefMutIterator<'data> for [T; N] {
    type Item = &'data mut T;
    type Iter = ParIter<SliceMutSource<'data, T>>;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.as_mut_slice().par_iter_mut()
    }
}

/// Chunked views of slices, mirroring `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T> {
    /// Iterate in parallel over non-overlapping chunks of `chunk_size`
    /// elements (the last chunk may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksSource<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksSource<'_, T>> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter::new(ChunksSource {
            slice: self,
            chunk: chunk_size,
        })
    }
}

/// Mutable chunked views of slices, mirroring `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T> {
    /// Iterate in parallel over non-overlapping mutable chunks of
    /// `chunk_size` elements (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutSource<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutSource<'_, T>> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter::new(ChunksMutSource {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk: chunk_size,
            _marker: std::marker::PhantomData,
        })
    }
}

/// Run two closures, potentially on separate threads.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("join closure panicked"))
    })
}

/// The rayon prelude: bring every entry-point trait into scope.
pub mod prelude {
    pub use super::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(n: usize) -> super::ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn range_into_par_iter_maps_and_collects() {
        let v: Vec<usize> = (0..10usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10usize).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn slice_par_iter_zips() {
        let a = [1u32, 2, 3];
        let mut b = [0u32; 3];
        b.par_iter_mut()
            .zip(a.par_iter())
            .for_each(|(o, &x)| *o = x * 10);
        assert_eq!(b, [10, 20, 30]);
    }

    #[test]
    fn par_chunks_round_trip() {
        let data: Vec<u64> = (0..100).collect();
        let sums: Vec<u64> = data.par_chunks(7).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn install_overrides_and_restores_thread_count() {
        let outside = current_num_threads();
        pool(3).install(|| {
            assert_eq!(current_num_threads(), 3);
            pool(2).install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn regions_actually_run_on_multiple_os_threads() {
        // Four claims, four threads, one barrier: completes only if all four
        // claims execute concurrently on distinct threads.
        let barrier = std::sync::Barrier::new(4);
        pool(4).install(|| {
            (0..4usize).into_par_iter().for_each(|_| {
                barrier.wait();
            });
        });
    }

    #[test]
    fn nested_regions_serialize() {
        pool(4).install(|| {
            (0..4usize).into_par_iter().for_each(|_| {
                // Inside a parallel region the nested width is 1…
                assert_eq!(current_num_threads(), 1);
                // …so nested regions run inline without spawning.
                let s: u64 = (0..100u64).into_par_iter().sum();
                assert_eq!(s, 4950);
            });
        });
    }

    #[test]
    fn collect_preserves_order_at_every_thread_count() {
        let expected: Vec<usize> = (0..10_000).map(|x| x * 3 + 1).collect();
        for n in [1, 2, 8] {
            let got: Vec<usize> = pool(n).install(|| {
                (0..10_000usize)
                    .into_par_iter()
                    .map(|x| x * 3 + 1)
                    .collect()
            });
            assert_eq!(got, expected, "collect order broke at {n} threads");
        }
    }

    #[test]
    fn with_min_len_keeps_short_inputs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        pool(8).install(|| {
            let ids: Vec<_> = (0..100usize)
                .into_par_iter()
                .with_min_len(100)
                .map(|_| std::thread::current().id())
                .collect();
            assert!(ids.iter().all(|&id| id == caller));
            let got: Vec<usize> = (0..10_000usize)
                .into_par_iter()
                .with_min_len(1000)
                .map(|x| x + 1)
                .collect();
            assert_eq!(got, (1..10_001).collect::<Vec<_>>());
        });
    }

    #[test]
    fn float_sum_is_bit_identical_across_thread_counts() {
        // A sum that is NOT associative in f64: the partial-tree shape must
        // be a function of the length alone for these to agree bitwise.
        let data: Vec<f64> = (0..100_000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64) * 1e-3 + 1e-12)
            .collect();
        let reference: f64 = pool(1).install(|| data.par_iter().map(|&x| x).sum());
        for n in [2, 3, 8] {
            let s: f64 = pool(n).install(|| data.par_iter().map(|&x| x).sum());
            assert_eq!(
                s.to_bits(),
                reference.to_bits(),
                "float sum drifted at {n} threads"
            );
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        for n in [1, 2, 8] {
            let mut data = vec![0u32; 1000];
            pool(n).install(|| {
                data.par_chunks_mut(7)
                    .zip((0..143usize).into_par_iter())
                    .for_each(|(chunk, idx)| {
                        for v in chunk.iter_mut() {
                            *v = idx as u32;
                        }
                    });
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v as usize, i / 7, "chunk write broke at {n} threads");
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<u32> = (0..0u32).into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
        let s: f64 = (0..0usize).into_par_iter().map(|_| 1.0f64).sum();
        assert_eq!(s, 0.0);
        let none: Vec<u8> = Vec::new();
        none.par_iter().for_each(|_| unreachable!());
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
        let (a, b) = pool(2).install(|| super::join(|| 1u8, || 2u8));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn for_each_visits_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        pool(8).install(|| {
            (0..5000usize).into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
