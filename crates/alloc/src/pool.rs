//! A drop-returning `Vec<u8>` pool for the service reply path.
//!
//! Replies are encoded on worker threads and freed on the reactor (or
//! per-connection writer) thread, so the lifetime-based [`Arena`] cannot
//! carry them — region reuse instead rides on [`PooledBuf`]'s `Drop`
//! returning the buffer's capacity to the shared free list. Every return
//! is a bulk reset of that region (`clear()`, capacity kept), which is why
//! the service exposes the return counter as `tpm_arena_resets_total`.
//!
//! [`Arena`]: crate::Arena

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared free list of reply buffers. Cheap by design: one uncontended
/// mutex pop per take, one push per drop — versus a global-allocator
/// round trip (and its lock/arena traffic) per reply without it.
pub struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Most buffers kept on the free list; extras are dropped on return.
    max_retained: usize,
    /// Buffers whose capacity grew past this are dropped on return rather
    /// than pinning large allocations in the pool forever.
    max_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
    recycled_bytes: AtomicU64,
}

/// A point-in-time view of a pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from the free list.
    pub hits: u64,
    /// Takes that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned (each return is a bulk reset of that region).
    pub returns: u64,
    /// Returned buffers dropped instead of retained (list full/oversized).
    pub discards: u64,
    /// Total capacity handed back out from the free list, in bytes.
    pub recycled_bytes: u64,
    /// Buffers currently on the free list.
    pub retained: usize,
}

impl BufPool {
    /// A pool retaining at most `max_retained` buffers of at most
    /// `max_capacity` bytes each.
    pub fn new(max_retained: usize, max_capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            free: Mutex::new(Vec::with_capacity(max_retained.min(1024))),
            max_retained,
            max_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discards: AtomicU64::new(0),
            recycled_bytes: AtomicU64::new(0),
        })
    }

    /// A pool sized for the serve reply path: enough buffers for every
    /// worker plus a window of in-flight completions, capped at 1 MiB each
    /// (a full binary frame; larger replies simply aren't retained).
    pub fn for_serve(workers: usize) -> Arc<Self> {
        Self::new(4 * workers.max(1) + 64, 1 << 20)
    }

    /// An empty buffer, recycled if the free list has one.
    pub fn take(self: &Arc<Self>) -> PooledBuf {
        let recycled = self.free.lock().expect("buffer pool poisoned").pop();
        let buf = match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.recycled_bytes
                    .fetch_add(buf.capacity() as u64, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        PooledBuf {
            buf,
            pool: Some(Arc::clone(self)),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            discards: self.discards.load(Ordering::Relaxed),
            recycled_bytes: self.recycled_bytes.load(Ordering::Relaxed),
            retained: self.free.lock().expect("buffer pool poisoned").len(),
        }
    }

    fn put(&self, mut buf: Vec<u8>) {
        self.returns.fetch_add(1, Ordering::Relaxed);
        if buf.capacity() == 0 || buf.capacity() > self.max_capacity {
            self.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.clear();
        let mut free = self.free.lock().expect("buffer pool poisoned");
        if free.len() >= self.max_retained {
            drop(free);
            self.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        free.push(buf);
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A `Vec<u8>` that returns its capacity to its [`BufPool`] on drop.
pub struct PooledBuf {
    buf: Vec<u8>,
    /// `None` only once [`detach`](Self::detach)ed (and mid-drop).
    pool: Option<Arc<BufPool>>,
}

impl PooledBuf {
    /// Detaches the bytes from the pool (the pool sees neither a return
    /// nor a discard; the caller owns the vector outright).
    pub fn detach(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.buf)
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.buf));
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.buf.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_return_take_recycles_capacity() {
        let pool = BufPool::new(8, 1 << 20);
        let mut a = pool.take();
        a.extend_from_slice(&[1; 4096]);
        drop(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert!(b.capacity() >= 4096);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
        assert!(s.recycled_bytes >= 4096);
    }

    #[test]
    fn retention_caps_are_enforced() {
        let pool = BufPool::new(2, 100);
        let bufs: Vec<_> = (0..4)
            .map(|_| {
                let mut b = pool.take();
                b.extend_from_slice(&[0; 50]);
                b
            })
            .collect();
        drop(bufs);
        let s = pool.stats();
        assert_eq!(s.retained, 2);
        assert_eq!(s.discards, 2);

        let mut big = pool.take(); // pops one retained buffer
        big.extend_from_slice(&[0; 512]); // grows capacity past max_capacity
        drop(big);
        let s = pool.stats();
        assert_eq!(s.retained, 1, "oversized buffer not retained");
        assert_eq!(s.discards, 3);
    }

    #[test]
    fn detached_buffers_never_return_to_the_pool() {
        let pool = BufPool::new(8, 1 << 20);
        let mut p = pool.take();
        p.extend_from_slice(b"world");
        let v = p.detach();
        assert_eq!(v, b"world");
        let s = pool.stats();
        assert_eq!(s.returns, 0);
        assert_eq!(s.retained, 0);
    }

    #[test]
    fn concurrent_take_return_stress_keeps_counters_consistent() {
        let pool = BufPool::new(32, 1 << 16);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..500usize {
                        let mut b = pool.take();
                        b.extend_from_slice(&[t as u8; 64]);
                        assert_eq!(b.len(), 64);
                        assert!(b.iter().all(|&x| x == t as u8));
                        if i % 7 == 0 {
                            let _ = b.detach();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 8 * 500);
        // Detached buffers never return: 500/7 rounded up, per thread.
        assert_eq!(s.returns, 8 * (500 - 72));
        assert!(s.retained <= 32);
    }
}
