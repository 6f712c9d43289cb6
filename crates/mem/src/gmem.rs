//! Functional backing store for device global memory, plus a bump allocator
//! workloads use to lay out their buffers (the CUDA `cudaMalloc` stand-in).

use pro_core::codec::{CodecError, DeltaSnapshot, Reader, Snapshot, Writer};

/// Dirty-tracking granularity: words per page. 256 words = 1 KiB pages — a
/// kernel touching a few MB dirties a few thousand pages, so the bitmap
/// stays tiny (one bit per KiB) while a 1k-cycle delta captures little
/// beyond what was actually stored.
pub const PAGE_WORDS: usize = 256;

/// Dirty-tracking page size in bytes.
pub const PAGE_BYTES: u64 = PAGE_WORDS as u64 * 4;

/// Device global memory: a flat, word-addressed store.
///
/// Addresses are byte addresses; accesses must be 4-byte aligned (VPTX loads
/// and stores are 32-bit). Out-of-bounds accesses panic — workloads size
/// their buffers explicitly, so an OOB access is a kernel bug we want to
/// catch, not mask.
///
/// Every store path funnels through [`GlobalMem::write`] — ISA-interpreter
/// stores directly, simulated stores when the merge phase applies each
/// SM's [`StoreLog`], and host-side buffer
/// initialization — so the page-granular dirty bitmap maintained there is a
/// complete record of what changed since the last [`DeltaSnapshot`]
/// capture. The timing path (coalescer, L2 writebacks, DRAM fills) moves
/// no functional data and therefore needs no hooks of its own.
#[derive(Debug, Clone)]
pub struct GlobalMem {
    words: Vec<u32>,
    next_alloc: u64,
    /// One bit per [`PAGE_WORDS`]-word page, set on every write since the
    /// last [`DeltaSnapshot::mark_clean`]. Never serialized: a restore is
    /// itself a capture boundary, so it always starts clean.
    dirty: Vec<u64>,
}

/// Bitmap words needed for `words` data words.
fn dirty_len(words: usize) -> usize {
    words.div_ceil(PAGE_WORDS).div_ceil(64)
}

impl GlobalMem {
    /// Create a memory of `bytes` bytes (rounded up to a word).
    pub fn new(bytes: u64) -> Self {
        let words = (bytes as usize).div_ceil(4);
        GlobalMem {
            words: vec![0; words],
            next_alloc: 0,
            dirty: vec![0; dirty_len(words)],
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Allocate `bytes` (aligned up to 256 B like `cudaMalloc`); returns the
    /// base byte address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        let aligned = bytes.div_ceil(256) * 256;
        self.next_alloc += aligned;
        assert!(
            self.next_alloc <= self.capacity(),
            "global memory exhausted: wanted {} bytes past {}",
            bytes,
            base
        );
        base
    }

    /// Allocate and fill from a slice of words; returns the base address.
    pub fn alloc_init(&mut self, data: &[u32]) -> u64 {
        let base = self.alloc(data.len() as u64 * 4);
        for (i, w) in data.iter().enumerate() {
            self.write(base + i as u64 * 4, *w);
        }
        base
    }

    /// Allocate and fill with `f32` values.
    pub fn alloc_init_f32(&mut self, data: &[f32]) -> u64 {
        let words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        self.alloc_init(&words)
    }

    /// Read the 32-bit word at byte address `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u32 {
        debug_assert!(addr.is_multiple_of(4), "unaligned global read at {addr:#x}");
        self.words[(addr / 4) as usize]
    }

    /// Write the 32-bit word at byte address `addr`, marking its page dirty.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u32) {
        debug_assert!(addr.is_multiple_of(4), "unaligned global write at {addr:#x}");
        let word = (addr / 4) as usize;
        self.words[word] = value;
        let page = word / PAGE_WORDS;
        self.dirty[page >> 6] |= 1 << (page & 63);
    }

    /// Number of pages written since the last [`DeltaSnapshot::mark_clean`].
    pub fn dirty_pages(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Read an `f32` stored at `addr`.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read(addr))
    }

    /// Copy out `len` words starting at byte address `addr`.
    pub fn read_slice(&self, addr: u64, len: usize) -> Vec<u32> {
        (0..len).map(|i| self.read(addr + i as u64 * 4)).collect()
    }
}

impl Snapshot for GlobalMem {
    // Device memory is mostly zeros (64 MB store, a few MB touched), so the
    // encoding keeps the total word count but stores only the prefix up to
    // the last nonzero word.
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.words.len() as u64);
        let used = self
            .words
            .iter()
            .rposition(|&x| x != 0)
            .map_or(0, |i| i + 1);
        w.put_u64(used as u64);
        for &word in &self.words[..used] {
            w.put_u32(word);
        }
        w.put_u64(self.next_alloc);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let total = r.get_usize()?;
        let used = r.get_usize()?;
        if used > total {
            return Err(CodecError::BadValue("gmem used > total"));
        }
        let mut words = vec![0u32; total];
        for word in &mut words[..used] {
            *word = r.get_u32()?;
        }
        Ok(GlobalMem {
            next_alloc: r.get_u64()?,
            dirty: vec![0; dirty_len(total)],
            words,
        })
    }
}

impl DeltaSnapshot for GlobalMem {
    // Delta encoding: geometry + allocator cursor, then each dirty page in
    // ascending page order as (page index, page words). The final page may
    // be short when the word count is not page-aligned; its length is
    // derived from `total`, so the encoding stays self-describing.
    fn save_delta(&self, w: &mut Writer) {
        w.put_u64(self.words.len() as u64);
        w.put_u64(self.next_alloc);
        w.put_u64(self.dirty_pages() as u64);
        for (i, &bits) in self.dirty.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let page = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w.put_u64(page as u64);
                let lo = page * PAGE_WORDS;
                let hi = (lo + PAGE_WORDS).min(self.words.len());
                for &word in &self.words[lo..hi] {
                    w.put_u32(word);
                }
            }
        }
    }

    fn mark_clean(&mut self) {
        self.dirty.fill(0);
    }

    fn apply_delta(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let total = r.get_usize()?;
        if total != self.words.len() {
            return Err(CodecError::BadValue("gmem delta geometry mismatch"));
        }
        self.next_alloc = r.get_u64()?;
        let pages = r.get_usize()?;
        let max_page = total.div_ceil(PAGE_WORDS);
        for _ in 0..pages {
            let page = r.get_usize()?;
            if page >= max_page {
                return Err(CodecError::BadValue("gmem delta page out of range"));
            }
            let lo = page * PAGE_WORDS;
            let hi = (lo + PAGE_WORDS).min(total);
            for word in &mut self.words[lo..hi] {
                *word = r.get_u32()?;
            }
        }
        Ok(())
    }
}

/// Word-granular global-memory access, abstracted so the execution engine
/// can run either directly against [`GlobalMem`] or against a read-only
/// base plus a private store log ([`GmemStage`], the SM issue phase).
pub trait GmemPort {
    /// Read the 32-bit word at byte address `addr`.
    fn read(&self, addr: u64) -> u32;
    /// Write the 32-bit word at byte address `addr`.
    fn write(&mut self, addr: u64, value: u32);
}

impl GmemPort for GlobalMem {
    #[inline]
    fn read(&self, addr: u64) -> u32 {
        GlobalMem::read(self, addr)
    }

    #[inline]
    fn write(&mut self, addr: u64, value: u32) {
        GlobalMem::write(self, addr, value)
    }
}

/// An ordered log of global-memory stores produced by one SM during the
/// issue phase of a cycle, applied to the real [`GlobalMem`] serially in
/// SM-index order afterwards.
#[derive(Debug, Default)]
pub struct StoreLog {
    entries: Vec<(u64, u32)>,
}

impl StoreLog {
    /// Append a store.
    #[inline]
    pub fn push(&mut self, addr: u64, value: u32) {
        self.entries.push((addr, value));
    }

    /// Number of logged stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no stores were logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Discard all logged stores (kernel-boundary reset), keeping capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Apply all logged stores to `gmem` in program order and clear the log.
    /// The buffer's capacity is retained so steady-state cycles allocate
    /// nothing.
    pub fn apply_to(&mut self, gmem: &mut GlobalMem) {
        for &(addr, value) in &self.entries {
            gmem.write(addr, value);
        }
        self.entries.clear();
    }
}

/// A [`GmemPort`] over a shared read-only [`GlobalMem`] base and a private
/// [`StoreLog`]: writes are deferred into the log, reads see the SM's own
/// writes from this cycle (newest first) layered over the base.
///
/// This gives each SM exactly the memory semantics of a direct
/// [`GlobalMem`] for its *own* accesses; the only divergence is that another SM's same-cycle
/// stores become visible at the end of the cycle instead of mid-cycle.
/// Race-free kernels (every CUDA kernel we model) cannot observe the
/// difference, and the functional-equivalence tests in `pro-sim` check all
/// schedulers still produce identical memory images.
#[derive(Debug)]
pub struct GmemStage<'a> {
    base: &'a GlobalMem,
    log: &'a mut StoreLog,
}

impl<'a> GmemStage<'a> {
    /// Stage writes from `log` over `base`.
    pub fn new(base: &'a GlobalMem, log: &'a mut StoreLog) -> Self {
        GmemStage { base, log }
    }
}

impl GmemPort for GmemStage<'_> {
    #[inline]
    fn read(&self, addr: u64) -> u32 {
        // Newest-first scan preserves lane-order overwrite semantics: the
        // last store to an address within the cycle wins.
        for &(a, v) in self.log.entries.iter().rev() {
            if a == addr {
                return v;
            }
        }
        self.base.read(addr)
    }

    #[inline]
    fn write(&mut self, addr: u64, value: u32) {
        self.log.push(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMem::new(1 << 20);
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMem::new(4096);
        m.write(8, 0xdeadbeef);
        assert_eq!(m.read(8), 0xdeadbeef);
        assert_eq!(m.read(12), 0);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = GlobalMem::new(4096);
        let base = m.alloc_init_f32(&[1.0, -2.5]);
        assert_eq!(m.read_f32(base), 1.0);
        assert_eq!(m.read_f32(base + 4), -2.5);
    }

    #[test]
    #[should_panic(expected = "global memory exhausted")]
    fn exhaustion_panics() {
        let mut m = GlobalMem::new(256);
        let _ = m.alloc(256);
        let _ = m.alloc(1);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = GlobalMem::new(16);
        let _ = m.read(16);
    }

    #[test]
    fn alloc_init_copies_data() {
        let mut m = GlobalMem::new(4096);
        let base = m.alloc_init(&[1, 2, 3]);
        assert_eq!(m.read_slice(base, 3), vec![1, 2, 3]);
    }

    #[test]
    fn stage_defers_writes_and_reads_them_back() {
        let mut m = GlobalMem::new(4096);
        m.write(0, 11);
        let mut log = StoreLog::default();
        let mut stage = GmemStage::new(&m, &mut log);
        assert_eq!(GmemPort::read(&stage, 0), 11); // falls through to base
        stage.write(0, 22);
        stage.write(4, 33);
        stage.write(0, 44); // newest write wins
        assert_eq!(GmemPort::read(&stage, 0), 44);
        assert_eq!(GmemPort::read(&stage, 4), 33);
        // Base is untouched until the log is applied.
        assert_eq!(m.read(0), 11);
        assert_eq!(log.len(), 3);
        log.apply_to(&mut m);
        assert_eq!(m.read(0), 44);
        assert_eq!(m.read(4), 33);
        assert!(log.is_empty());
    }

    #[test]
    fn staged_run_matches_direct_run() {
        // The same store/load sequence through GlobalMem directly and
        // through a stage+apply must land on identical memory.
        let ops: [(u64, u32); 5] = [(8, 1), (16, 2), (8, 3), (24, 4), (16, 5)];
        let mut direct = GlobalMem::new(4096);
        for &(a, v) in &ops {
            direct.write(a, v);
        }
        let mut staged = GlobalMem::new(4096);
        let mut log = StoreLog::default();
        let mut stage = GmemStage::new(&staged, &mut log);
        for &(a, v) in &ops {
            stage.write(a, v);
            assert_eq!(GmemPort::read(&stage, a), v);
        }
        log.apply_to(&mut staged);
        assert_eq!(direct.read_slice(0, 8), staged.read_slice(0, 8));
    }

    #[test]
    fn stores_mark_pages_dirty_on_every_path() {
        // Direct writes, staged writes applied at merge, and host-side
        // alloc_init all funnel through write() and must set dirty bits.
        let mut m = GlobalMem::new(8 * PAGE_BYTES);
        assert_eq!(m.dirty_pages(), 0);
        m.write(0, 1); // page 0
        m.write(3 * PAGE_BYTES, 2); // page 3
        assert_eq!(m.dirty_pages(), 2);

        let mut log = StoreLog::default();
        let mut stage = GmemStage::new(&m, &mut log);
        stage.write(5 * PAGE_BYTES, 3); // page 5, deferred
        assert_eq!(m.dirty_pages(), 2);
        log.apply_to(&mut m);
        assert_eq!(m.dirty_pages(), 3);

        let _ = m.alloc(2 * PAGE_BYTES); // advance past the pages dirtied above
        let base = m.alloc_init(&[7, 8, 9]); // lands in clean page 2
        assert!(m.read(base) == 7);
        assert_eq!(m.dirty_pages(), 4);

        m.mark_clean();
        assert_eq!(m.dirty_pages(), 0);
    }

    #[test]
    fn delta_roundtrip_reproduces_final_state() {
        // base capture + two deltas applied in order must equal the
        // mutated memory exactly, including the allocator cursor.
        let mut src = GlobalMem::new(6 * PAGE_BYTES);
        let buf = src.alloc_init(&[1, 2, 3, 4]);
        let mut base = Writer::new();
        src.save(&mut base);
        src.mark_clean();

        src.write(buf, 99);
        src.write(4 * PAGE_BYTES + 8, 42);
        let _ = src.alloc(16);
        let mut d1 = Writer::new();
        src.save_delta(&mut d1);
        src.mark_clean();

        // Touch the final, short page (words not page-aligned would also
        // exercise the tail-clamp; here the last full page).
        src.write(5 * PAGE_BYTES + 4, 7);
        let mut d2 = Writer::new();
        src.save_delta(&mut d2);
        src.mark_clean();

        let base_bytes = base.into_bytes();
        let mut dst = GlobalMem::load(&mut Reader::new(&base_bytes)).unwrap();
        for d in [d1, d2] {
            let bytes = d.into_bytes();
            dst.apply_delta(&mut Reader::new(&bytes)).unwrap();
        }
        assert_eq!(dst.read_slice(0, 6 * PAGE_WORDS), src.read_slice(0, 6 * PAGE_WORDS));
        // Allocator cursor travelled with the delta: next alloc matches.
        assert_eq!(dst.alloc(4), src.alloc(4));
    }

    #[test]
    fn clean_delta_is_header_only() {
        let mut m = GlobalMem::new(4 * PAGE_BYTES);
        m.write(0, 1);
        m.mark_clean();
        let mut w = Writer::new();
        m.save_delta(&mut w);
        // total u64 + next_alloc u64 + page_count u64, no pages.
        assert_eq!(w.into_bytes().len(), 24);
    }

    #[test]
    fn delta_geometry_mismatch_is_an_error() {
        let mut small = GlobalMem::new(PAGE_BYTES);
        small.write(0, 1);
        let mut w = Writer::new();
        small.save_delta(&mut w);
        let bytes = w.into_bytes();
        let mut big = GlobalMem::new(2 * PAGE_BYTES);
        assert!(matches!(
            big.apply_delta(&mut Reader::new(&bytes)),
            Err(CodecError::BadValue(_))
        ));
    }

    #[test]
    fn delta_rejects_out_of_range_page() {
        let mut w = Writer::new();
        w.put_u64(PAGE_WORDS as u64); // total: exactly one page
        w.put_u64(0); // next_alloc
        w.put_u64(1); // one page record
        w.put_u64(1); // page index 1 is out of range
        for _ in 0..PAGE_WORDS {
            w.put_u32(0);
        }
        let bytes = w.into_bytes();
        let mut m = GlobalMem::new(PAGE_BYTES);
        assert!(matches!(
            m.apply_delta(&mut Reader::new(&bytes)),
            Err(CodecError::BadValue(_))
        ));
    }

    #[test]
    fn load_starts_clean() {
        // A restored memory is itself a capture boundary: the dirty map
        // starts empty so the next delta only carries post-restore stores.
        let mut m = GlobalMem::new(4 * PAGE_BYTES);
        m.write(0, 5);
        let mut w = Writer::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let restored = GlobalMem::load(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.dirty_pages(), 0);
    }
}
