//! A resettable bump arena for the per-visit hot path.
//!
//! The crawl's steady state synthesizes, classifies, and discards the same
//! shapes of short-lived data once per page: rendered payload strings, HTTP
//! bodies, request targets, frame payloads. Routing those through the global
//! allocator cost ~49K allocations per site at 8K sites (the pre-arena
//! `BENCH_pipeline.json` figure), dominating the fused pipeline's wall
//! clock. [`Arena`] gives each visit a bump allocator whose chunks are kept
//! across [`Arena::reset`], so after warm-up a page visit performs
//! near-zero global allocations.
//!
//! Ownership rules (see DESIGN §12):
//!
//! - Allocation takes `&self` and hands back `&'a` references tied to the
//!   arena borrow; resetting takes `&mut self`, so the borrow checker
//!   statically proves no arena-backed string survives a reset.
//! - The arena never frees chunks on reset — the high-water mark is the
//!   steady-state footprint and is reported in the bench `arena` section.
//! - Every byte served is charged to the current memmeter task via
//!   [`sockscope_exec::memmeter::task_charge`], so per-site allocation
//!   budgets (and AllocBomb quarantine semantics) are independent of
//!   whether a chunk was warm or cold.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use sockscope_exec::memmeter;

/// Minimum size of the first chunk. Sized so a typical page visit (rendered
/// DOM + a handful of payloads) fits without spilling.
const FIRST_CHUNK: usize = 64 * 1024;

// Process-wide arena statistics, surfaced in the bench `arena` section.
static HIGH_WATER: AtomicU64 = AtomicU64::new(0);
static RESETS: AtomicU64 = AtomicU64::new(0);
static SPILLS: AtomicU64 = AtomicU64::new(0);
static SERVED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide arena counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Largest per-arena retained capacity seen, in bytes.
    pub high_water_bytes: u64,
    /// Number of [`Arena::reset`] calls.
    pub resets: u64,
    /// Number of chunk allocations beyond each arena's first chunk
    /// (spills to the global allocator).
    pub spills: u64,
    /// Total bytes served out of arenas.
    pub served_bytes: u64,
}

/// Reads the process-wide arena counters.
pub fn stats() -> ArenaStats {
    ArenaStats {
        high_water_bytes: HIGH_WATER.load(Ordering::Relaxed),
        resets: RESETS.load(Ordering::Relaxed),
        spills: SPILLS.load(Ordering::Relaxed),
        served_bytes: SERVED_BYTES.load(Ordering::Relaxed),
    }
}

/// One raw chunk of arena storage. The heap buffer's address is stable for
/// the chunk's lifetime even when the owning `Vec<Chunk>` reallocates, which
/// is what lets `alloc` hand out references that outlive later pushes.
struct Chunk {
    ptr: NonNull<u8>,
    cap: usize,
    len: Cell<usize>,
}

impl Chunk {
    fn new(cap: usize) -> Chunk {
        let layout = Layout::from_size_align(cap, 1).expect("chunk layout");
        // SAFETY: cap is non-zero (callers round up to at least FIRST_CHUNK).
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        Chunk {
            ptr,
            cap,
            len: Cell::new(0),
        }
    }

    /// Bump-allocates `n` bytes if they fit, returning a stable pointer.
    fn try_alloc(&self, n: usize) -> Option<*mut u8> {
        let len = self.len.get();
        if self.cap - len < n {
            return None;
        }
        self.len.set(len + n);
        // SAFETY: len + n <= cap, so the offset stays in the allocation.
        Some(unsafe { self.ptr.as_ptr().add(len) })
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.cap, 1).expect("chunk layout");
        // SAFETY: ptr was allocated with exactly this layout in `new`.
        unsafe { dealloc(self.ptr.as_ptr(), layout) };
    }
}

// SAFETY: a Chunk is an exclusively-owned heap buffer with no thread
// affinity; sending the owning Arena to another thread is sound.
unsafe impl Send for Chunk {}

/// A resettable bump arena. See the module docs for the ownership rules.
#[derive(Default)]
pub struct Arena {
    chunks: RefCell<Vec<Chunk>>,
    /// Reusable scratch buffers for `build_str` / `build_bytes`. Their
    /// capacity survives resets, so steady-state builds don't allocate.
    scratch_str: Cell<Option<String>>,
    scratch_buf: Cell<Option<Vec<u8>>>,
}

impl Arena {
    /// Creates an empty arena. The first chunk is allocated lazily.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Total bytes bump-allocated since the last reset.
    pub fn used(&self) -> usize {
        self.chunks.borrow().iter().map(|c| c.len.get()).sum()
    }

    /// Total retained chunk capacity.
    pub fn capacity(&self) -> usize {
        self.chunks.borrow().iter().map(|c| c.cap).sum()
    }

    /// Resets the bump cursor, keeping every chunk's capacity. Requires
    /// `&mut self`, which statically ends all outstanding arena borrows.
    pub fn reset(&mut self) {
        let chunks = self.chunks.get_mut();
        let cap: usize = chunks.iter().map(|c| c.cap).sum();
        HIGH_WATER.fetch_max(cap as u64, Ordering::Relaxed);
        RESETS.fetch_add(1, Ordering::Relaxed);
        for c in chunks.iter_mut() {
            c.len.set(0);
        }
    }

    /// Core bump allocation: `n` raw bytes with alignment 1.
    fn alloc_raw(&self, n: usize) -> *mut u8 {
        if n == 0 {
            return NonNull::<u8>::dangling().as_ptr();
        }
        memmeter::task_charge(n as u64);
        SERVED_BYTES.fetch_add(n as u64, Ordering::Relaxed);
        {
            let chunks = self.chunks.borrow();
            if let Some(last) = chunks.last() {
                if let Some(p) = last.try_alloc(n) {
                    return p;
                }
            }
        }
        // Slow path: grow. Chunk sizes double so total chunk count stays
        // logarithmic in the high-water mark.
        let mut chunks = self.chunks.borrow_mut();
        let next = chunks
            .last()
            .map(|c| c.cap.saturating_mul(2))
            .unwrap_or(FIRST_CHUNK)
            .max(n)
            .max(FIRST_CHUNK);
        if !chunks.is_empty() {
            SPILLS.fetch_add(1, Ordering::Relaxed);
        }
        chunks.push(Chunk::new(next));
        chunks
            .last()
            .expect("just pushed")
            .try_alloc(n)
            .expect("fresh chunk fits request")
    }

    /// Copies `bytes` into the arena.
    pub fn alloc_bytes<'a>(&'a self, bytes: &[u8]) -> &'a [u8] {
        let n = bytes.len();
        let p = self.alloc_raw(n);
        // SAFETY: p points at n writable, disjoint bytes inside a live chunk.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), p, n);
            std::slice::from_raw_parts(p, n)
        }
    }

    /// Copies `s` into the arena.
    pub fn alloc_str<'a>(&'a self, s: &str) -> &'a str {
        let out = self.alloc_bytes(s.as_bytes());
        // SAFETY: out is a byte-for-byte copy of a valid &str.
        unsafe { std::str::from_utf8_unchecked(out) }
    }

    /// Copies a slice of `Copy` values into the arena.
    pub fn alloc_slice<'a, T: Copy>(&'a self, items: &[T]) -> &'a [T] {
        let n = std::mem::size_of_val(items);
        let align = std::mem::align_of::<T>();
        if items.is_empty() {
            return &[];
        }
        // Over-allocate to fix up alignment by hand; chunk base alignment
        // is 1 so the cursor can land anywhere.
        let p = self.alloc_raw(n + align - 1);
        let off = p.align_offset(align);
        debug_assert!(off < align);
        // SAFETY: p + off is aligned for T and has room for all items.
        unsafe {
            let dst = p.add(off).cast::<T>();
            std::ptr::copy_nonoverlapping(items.as_ptr(), dst, items.len());
            std::slice::from_raw_parts(dst, items.len())
        }
    }

    /// Copies `a` followed by `extra` into one arena slice — the shape of
    /// ground-truth lists (`sent + [UserAgent]`) on the fetch hot path.
    pub fn alloc_concat<'a, T: Copy>(&'a self, a: &[T], extra: &[T]) -> &'a [T] {
        if a.is_empty() {
            return self.alloc_slice(extra);
        }
        let n = a.len() + extra.len();
        let size = n * std::mem::size_of::<T>();
        let align = std::mem::align_of::<T>();
        let p = self.alloc_raw(size + align - 1);
        let off = p.align_offset(align);
        debug_assert!(off < align);
        // SAFETY: p + off is aligned for T with room for n items; the two
        // copies land in disjoint halves of the fresh allocation.
        unsafe {
            let dst = p.add(off).cast::<T>();
            std::ptr::copy_nonoverlapping(a.as_ptr(), dst, a.len());
            std::ptr::copy_nonoverlapping(extra.as_ptr(), dst.add(a.len()), extra.len());
            std::slice::from_raw_parts(dst, n)
        }
    }

    /// Builds a string in a reused scratch buffer, then moves it into the
    /// arena. The scratch capacity persists across resets.
    pub fn build_str<F: FnOnce(&mut String)>(&self, f: F) -> &str {
        let mut s = self.scratch_str.take().unwrap_or_default();
        s.clear();
        f(&mut s);
        let out = self.alloc_str(&s);
        self.scratch_str.set(Some(s));
        out
    }

    /// Builds a byte buffer in a reused scratch buffer, then moves it into
    /// the arena.
    pub fn build_bytes<F: FnOnce(&mut Vec<u8>)>(&self, f: F) -> &[u8] {
        let mut b = self.scratch_buf.take().unwrap_or_default();
        b.clear();
        f(&mut b);
        let out = self.alloc_bytes(&b);
        self.scratch_buf.set(Some(b));
        out
    }

    /// `format!` straight into the arena.
    pub fn alloc_fmt<'a>(&'a self, args: std::fmt::Arguments<'_>) -> &'a str {
        self.build_str(|s| {
            let _ = s.write_fmt(args);
        })
    }
}

/// `arena_fmt!(arena, "...{}", x)` — format into the arena, yielding `&str`.
#[macro_export]
macro_rules! arena_fmt {
    ($arena:expr, $($arg:tt)*) => {
        $arena.alloc_fmt(format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_strings_and_bytes() {
        let arena = Arena::new();
        let a = arena.alloc_str("hello");
        let b = arena.alloc_bytes(&[1, 2, 3]);
        let c = arena_fmt!(&arena, "n={}", 42);
        assert_eq!(a, "hello");
        assert_eq!(b, &[1, 2, 3]);
        assert_eq!(c, "n=42");
        assert!(arena.used() >= 12);
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut arena = Arena::new();
        for i in 0..100 {
            arena.alloc_str(&format!("payload-{i}"));
        }
        let cap = arena.capacity();
        assert!(cap >= FIRST_CHUNK);
        arena.reset();
        assert_eq!(arena.used(), 0);
        assert_eq!(arena.capacity(), cap);
        // Steady state: the same workload fits in the retained chunks.
        for i in 0..100 {
            arena.alloc_str(&format!("payload-{i}"));
        }
        assert_eq!(arena.capacity(), cap);
    }

    #[test]
    fn many_allocations_survive_chunk_growth() {
        let arena = Arena::new();
        let mut refs = Vec::new();
        for i in 0..5000 {
            refs.push((i, arena.alloc_fmt(format_args!("value-{i:06}"))));
        }
        for (i, s) in refs {
            assert_eq!(s, format!("value-{i:06}"));
        }
    }

    #[test]
    fn aligned_slices() {
        let arena = Arena::new();
        arena.alloc_bytes(b"x"); // misalign the cursor
        let s = arena.alloc_slice(&[1u64, 2, 3]);
        assert_eq!(s, &[1, 2, 3]);
        assert_eq!(s.as_ptr() as usize % std::mem::align_of::<u64>(), 0);
        let empty: &[u32] = arena.alloc_slice(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_allocations_are_free() {
        let arena = Arena::new();
        assert_eq!(arena.alloc_str(""), "");
        assert_eq!(arena.alloc_bytes(&[]), &[] as &[u8]);
        assert_eq!(arena.used(), 0);
    }

    #[test]
    fn build_str_reuses_scratch() {
        let arena = Arena::new();
        let a = arena.build_str(|s| s.push_str("one"));
        let b = arena.build_str(|s| s.push_str("two"));
        assert_eq!((a, b), ("one", "two"));
    }

    #[test]
    fn charges_task_budget_for_served_bytes() {
        let before = memmeter::task_allocated();
        let arena = Arena::new();
        arena.alloc_bytes(&[0u8; 1000]);
        let after = memmeter::task_allocated();
        assert!(
            after.wrapping_sub(before) >= 1000,
            "arena must charge the task budget"
        );
    }

    #[test]
    fn stats_move() {
        let mut arena = Arena::new();
        arena.alloc_bytes(&[0u8; 64]);
        arena.reset();
        let s = stats();
        assert!(s.resets >= 1);
        assert!(s.served_bytes >= 64);
        assert!(s.high_water_bytes >= FIRST_CHUNK as u64);
    }
}
