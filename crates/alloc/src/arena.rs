//! A chunked bump ("region") allocator with generation-based bulk reset.
//!
//! One arena belongs to one worker: allocation is `&self` (interior
//! mutability, no atomics), reset is `&mut self`. The asymmetry is the
//! safety argument — every region handed out borrows the arena shared-ly,
//! so the exclusive borrow `reset` needs cannot be taken while any region
//! is still alive. Freeing is O(1) regardless of how many regions were
//! carved: the bump offset rewinds and the chunks are reused in place.

use std::cell::{Cell, UnsafeCell};

/// Default size of each backing chunk (64 KiB: big enough that kernel-job
/// staging rarely chains chunks, small enough to stay resident in L2).
const DEFAULT_CHUNK: usize = 64 << 10;

/// A per-worker bump allocator; see the module docs for the safety model.
///
/// The arena is `Send` but not `Sync` (one owner at a time), matching the
/// per-worker placement the scheduler gives it: chunk memory is first
/// touched by the owning worker, so with `--pin` the backing pages land on
/// the NUMA node of that worker's core.
pub struct Arena {
    chunks: UnsafeCell<Chunks>,
    /// Bytes handed out since construction (monotonic across resets).
    allocated: Cell<u64>,
    /// Bytes handed out in the current generation.
    in_use: Cell<usize>,
    generation: Cell<u64>,
    resets: Cell<u64>,
    chunk_size: usize,
}

struct Chunks {
    /// Zero-initialised backing buffers. Boxes may be *listed* in a
    /// reallocating `Vec`, but the buffers they own never move, so regions
    /// previously handed out stay valid while new chunks are appended.
    list: Vec<Box<[u8]>>,
    /// Index of the chunk currently being bumped; earlier chunks are full.
    current: usize,
    /// Bump offset within `list[current]`.
    offset: usize,
}

/// A point-in-time view of an arena's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes handed out since construction, across all generations.
    pub allocated_bytes: u64,
    /// Bytes handed out in the current generation.
    pub in_use_bytes: usize,
    /// Total capacity of all backing chunks.
    pub capacity_bytes: usize,
    /// Number of backing chunks.
    pub chunks: usize,
    /// Bulk resets performed so far.
    pub resets: u64,
    /// Current generation (starts at 0, bumps on every reset).
    pub generation: u64,
}

impl Arena {
    /// An empty arena with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK)
    }

    /// An empty arena whose backing chunks hold `chunk_size` bytes each
    /// (oversized requests get a dedicated chunk).
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        Self {
            chunks: UnsafeCell::new(Chunks {
                list: Vec::new(),
                current: 0,
                offset: 0,
            }),
            allocated: Cell::new(0),
            in_use: Cell::new(0),
            generation: Cell::new(0),
            resets: Cell::new(0),
            chunk_size: chunk_size.max(64),
        }
    }

    /// Carves a zero-or-stale-initialised byte region out of the current
    /// generation. The region lives until the next [`reset`](Self::reset).
    ///
    /// `&self -> &mut` is the arena contract (same shape as `typed-arena`):
    /// every call bumps past the previous region, so the returned borrows
    /// are pairwise disjoint, and `reset` takes `&mut self` so none of them
    /// can outlive their generation.
    #[allow(clippy::mut_from_ref)]
    pub fn alloc_bytes(&self, len: usize) -> &mut [u8] {
        self.alloc_raw(len, 1)
    }

    /// Copies `src` into the arena and returns the arena-backed copy.
    #[allow(clippy::mut_from_ref)]
    pub fn alloc_slice_copy<T: Copy>(&self, src: &[T]) -> &mut [T] {
        let bytes = std::mem::size_of_val(src);
        let raw = self.alloc_raw(bytes, std::mem::align_of::<T>());
        // SAFETY: `raw` is exclusive, correctly aligned for T (alloc_raw
        // aligns the pointer itself), and exactly size_of_val(src) long.
        // T: Copy means no drop obligations are created by the write.
        unsafe {
            let dst = raw.as_mut_ptr().cast::<T>();
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
            std::slice::from_raw_parts_mut(dst, src.len())
        }
    }

    /// Moves `value` into the arena and returns the arena-backed slot.
    pub fn alloc_copy<T: Copy>(&self, value: T) -> &mut T {
        &mut self.alloc_slice_copy(std::slice::from_ref(&value))[0]
    }

    /// Bulk-frees every region at once by rewinding the bump offset.
    /// Chunks are retained and reused; the generation counter advances so
    /// stats (and debug asserts in callers) can witness the epoch change.
    ///
    /// Taking `&mut self` is the point: this cannot be called while any
    /// region from the current generation is still borrowed.
    pub fn reset(&mut self) {
        let chunks = self.chunks.get_mut();
        chunks.current = 0;
        chunks.offset = 0;
        self.in_use.set(0);
        self.generation.set(self.generation.get() + 1);
        self.resets.set(self.resets.get() + 1);
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.generation.get()
    }

    /// Bytes handed out in the current generation.
    pub fn in_use(&self) -> usize {
        self.in_use.get()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ArenaStats {
        // SAFETY: shared reads of list length/capacity only; no region
        // pointers are derived and no &mut aliases exist concurrently
        // (the arena is !Sync).
        let (capacity, chunks) = unsafe {
            let c = &*self.chunks.get();
            (c.list.iter().map(|b| b.len()).sum(), c.list.len())
        };
        ArenaStats {
            allocated_bytes: self.allocated.get(),
            in_use_bytes: self.in_use.get(),
            capacity_bytes: capacity,
            chunks,
            resets: self.resets.get(),
            generation: self.generation.get(),
        }
    }

    /// The bump: align the *pointer* (chunk bases only guarantee align 1),
    /// advance the offset, fall through to the next chunk — appending a new
    /// one if the list is exhausted.
    #[allow(clippy::mut_from_ref)]
    fn alloc_raw(&self, len: usize, align: usize) -> &mut [u8] {
        debug_assert!(align.is_power_of_two());
        if len == 0 {
            return &mut [];
        }
        // SAFETY: !Sync means this is the only live mutation of the chunk
        // bookkeeping; regions previously handed out are disjoint from both
        // the bookkeeping and the bytes carved here.
        let chunks = unsafe { &mut *self.chunks.get() };
        loop {
            if let Some(chunk) = chunks.list.get_mut(chunks.current) {
                let base = chunk.as_mut_ptr();
                let addr = base as usize + chunks.offset;
                let aligned = addr.wrapping_add(align - 1) & !(align - 1);
                let pad = aligned - addr;
                if chunks.offset + pad + len <= chunk.len() {
                    chunks.offset += pad + len;
                    self.allocated.set(self.allocated.get() + len as u64);
                    self.in_use.set(self.in_use.get() + pad + len);
                    // SAFETY: `aligned..aligned+len` is in-bounds of this
                    // chunk, freshly claimed by the offset bump above, and
                    // never handed out again until `reset` (which requires
                    // the returned borrow to be dead).
                    return unsafe { std::slice::from_raw_parts_mut(aligned as *mut u8, len) };
                }
                // Doesn't fit: seal this chunk and try the next.
                chunks.current += 1;
                chunks.offset = 0;
            } else {
                let size = self.chunk_size.max(len + align);
                chunks.list.push(vec![0u8; size].into_boxed_slice());
                chunks.current = chunks.list.len() - 1;
                chunks.offset = 0;
            }
        }
    }
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Arena")
            .field("generation", &s.generation)
            .field("in_use_bytes", &s.in_use_bytes)
            .field("capacity_bytes", &s.capacity_bytes)
            .field("chunks", &s.chunks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_hold_their_bytes() {
        let arena = Arena::with_chunk_size(256);
        let mut regions = Vec::new();
        for i in 0..64usize {
            let r = arena.alloc_bytes(17 + i % 5);
            r.fill(i as u8);
            regions.push((i as u8, r));
        }
        for (tag, r) in &regions {
            assert!(r.iter().all(|b| b == tag));
        }
    }

    #[test]
    fn reset_reuses_capacity_and_bumps_generation() {
        let mut arena = Arena::with_chunk_size(1024);
        for _ in 0..100 {
            arena.alloc_bytes(100);
        }
        let before = arena.stats();
        assert!(before.chunks >= 1);
        assert_eq!(before.generation, 0);

        arena.reset();
        for _ in 0..100 {
            arena.alloc_bytes(100);
        }
        let after = arena.stats();
        assert_eq!(after.generation, 1);
        assert_eq!(after.resets, 1);
        // Reuse in place: no new chunks appended on the second pass.
        assert_eq!(after.chunks, before.chunks);
        assert_eq!(after.capacity_bytes, before.capacity_bytes);
        assert_eq!(after.allocated_bytes, 2 * before.allocated_bytes);
    }

    #[test]
    fn alignment_is_honoured_for_typed_allocations() {
        let arena = Arena::with_chunk_size(512);
        arena.alloc_bytes(1); // misalign the bump offset
        let xs = arena.alloc_slice_copy(&[1.0f64, 2.0, 3.0]);
        assert_eq!(xs.as_ptr() as usize % std::mem::align_of::<f64>(), 0);
        assert_eq!(xs, &[1.0, 2.0, 3.0]);
        let v = arena.alloc_copy(0xDEAD_BEEFu64);
        assert_eq!((v as *mut u64 as usize) % std::mem::align_of::<u64>(), 0);
        assert_eq!(*v, 0xDEAD_BEEF);
    }

    #[test]
    fn oversized_requests_get_dedicated_chunks() {
        let arena = Arena::with_chunk_size(64);
        let big = arena.alloc_bytes(10_000);
        big.fill(7);
        let small = arena.alloc_bytes(8);
        small.fill(9);
        assert!(big.iter().all(|&b| b == 7));
        assert_eq!(arena.stats().allocated_bytes, 10_008);
    }

    #[test]
    fn zero_length_allocations_cost_nothing() {
        let arena = Arena::new();
        let r = arena.alloc_bytes(0);
        assert!(r.is_empty());
        assert_eq!(arena.stats().capacity_bytes, 0);
        assert_eq!(arena.stats().allocated_bytes, 0);
    }
}
