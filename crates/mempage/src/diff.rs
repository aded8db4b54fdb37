use std::fmt;

use crate::{PAGE_SIZE, WORD_SIZE};

/// Granularity of the dirty-block bitmap: one 64-byte block is one
/// 512-bit vector, sixteen 32-bit words, one `u16` word mask.
const BLOCK_BYTES: usize = 64;
const BLOCK_WORDS: usize = BLOCK_BYTES / WORD_SIZE;
const BLOCKS_PER_PAGE: usize = PAGE_SIZE / BLOCK_BYTES;

// Pages split evenly into blocks, the dirty blocks fit one u64 bitmap,
// and a block's words fit one u16 mask exactly (the vector kernels
// compare 32-bit lanes, sixteen to a block).
const _: () = assert!(PAGE_SIZE.is_multiple_of(BLOCK_BYTES) && BLOCKS_PER_PAGE <= 64);
const _: () = assert!(WORD_SIZE == 4 && BLOCK_WORDS == 16);

/// One 64-byte block as a fixed-size array (bounds-check free access).
type Block = [u8; BLOCK_BYTES];

/// Per-diff wire overhead: page id, interval id, run count (TreadMarks
/// ships a small header with every diff).
const DIFF_HEADER_BYTES: usize = 12;
/// Per-run overhead: 16-bit word offset + 16-bit word count.
const RUN_HEADER_BYTES: usize = 4;

/// Block `b` of a page.
#[inline(always)]
fn block(page: &[u8], b: usize) -> &Block {
    page[b * BLOCK_BYTES..(b + 1) * BLOCK_BYTES]
        .try_into()
        .expect("block")
}

/// Block `b` of a page, mutably.
#[inline(always)]
fn block_mut(page: &mut [u8], b: usize) -> &mut Block {
    (&mut page[b * BLOCK_BYTES..(b + 1) * BLOCK_BYTES])
        .try_into()
        .expect("block")
}

/// The set bits of `x`, lowest first.
#[inline(always)]
fn bits(mut x: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (x != 0).then(|| {
            let i = x.trailing_zeros() as usize;
            x &= x - 1;
            i
        })
    })
}

/// The block kernel a codec call runs on. The public [`Diff`] methods
/// always use [`DiffKernel::NATIVE`]; the `*_with` variants exist so tests
/// and benches can run every compiled kernel side by side.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKernel {
    /// Scalar per-bit word copies; compiled on every host.
    Portable,
    /// One AVX-512 instruction per block step (`vpcmpneqd`,
    /// `vpcompressd`, `vpexpandd`); compiled in when the build enables
    /// `avx512f`.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    Avx512,
}

impl DiffKernel {
    /// The fastest kernel this build can run.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    pub const NATIVE: DiffKernel = DiffKernel::Avx512;
    /// The fastest kernel this build can run.
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    pub const NATIVE: DiffKernel = DiffKernel::Portable;

    /// Every kernel compiled into this build.
    pub const ALL: &'static [DiffKernel] = &[
        DiffKernel::Portable,
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        DiffKernel::Avx512,
    ];
}

/// Monomorphises a codec body over the kernel a [`DiffKernel`] names.
macro_rules! with_kernel {
    ($kernel:expr, $f:ident $(::<$($g:tt),*>)? ( $($arg:expr),* )) => {
        match $kernel {
            DiffKernel::Portable => $f::<Portable $($(, $g)*)?>($($arg),*),
            #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
            DiffKernel::Avx512 => $f::<avx512::Avx512 $($(, $g)*)?>($($arg),*),
        }
    };
}

/// The per-block primitives every codec sweep is built from.
trait BlockKernel {
    /// Bit `w` is set iff 32-bit word `w` of the two blocks differs.
    fn dirty_mask(twin: &Block, cur: &Block) -> u16;
    /// Appends the words of `cur` selected by `mask`, in word order.
    fn compress(cur: &Block, mask: u16, out: &mut Vec<u8>);
    /// Spreads the packed words `src` (exactly `mask.count_ones()` of
    /// them) over the words `mask` selects, in word order, and writes
    /// the words `claim` selects (a subset of `mask`) into `dst`.
    fn expand(dst: &mut Block, mask: u16, claim: u16, src: &[u8]);
}

/// The portable kernel: `u64` lane compares and per-bit word copies.
struct Portable;

impl BlockKernel for Portable {
    #[inline(always)]
    fn dirty_mask(twin: &Block, cur: &Block) -> u16 {
        // Fixed-size array equality compiles to inline vector compares,
        // so clean blocks never reach the lane loop.
        if twin == cur {
            return 0;
        }
        // Little-endian lane loads put word `2l` in the low half of
        // lane `l` whatever the host's byte order.
        let mut mask = 0u16;
        for l in 0..BLOCK_WORDS / 2 {
            let o = l * 2 * WORD_SIZE;
            let la = u64::from_le_bytes(twin[o..o + 8].try_into().expect("lane"));
            let lb = u64::from_le_bytes(cur[o..o + 8].try_into().expect("lane"));
            let x = la ^ lb;
            mask |= ((x as u32 != 0) as u16) << (2 * l);
            mask |= (((x >> 32) != 0) as u16) << (2 * l + 1);
        }
        mask
    }

    #[inline(always)]
    fn compress(cur: &Block, mask: u16, out: &mut Vec<u8>) {
        for w in bits(mask as u64) {
            out.extend_from_slice(&cur[w * WORD_SIZE..(w + 1) * WORD_SIZE]);
        }
    }

    #[inline(always)]
    fn expand(dst: &mut Block, mask: u16, claim: u16, src: &[u8]) {
        for (w, v) in bits(mask as u64).zip(src.chunks_exact(WORD_SIZE)) {
            if claim & (1 << w) != 0 {
                dst[w * WORD_SIZE..(w + 1) * WORD_SIZE].copy_from_slice(v);
            }
        }
    }
}

/// The AVX-512 kernel: every primitive is one instruction on the block.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use std::arch::x86_64::{
        _mm512_cmpneq_epu32_mask, _mm512_loadu_si512, _mm512_mask_compressstoreu_epi32,
        _mm512_mask_storeu_epi32, _mm512_maskz_expandloadu_epi32,
    };

    use super::{Block, BlockKernel, WORD_SIZE};

    pub(super) struct Avx512;

    // Every intrinsic below needs `avx512f`, which this module's cfg
    // guarantees the build enables, and tolerates unaligned addresses.
    impl BlockKernel for Avx512 {
        #[inline(always)]
        fn dirty_mask(twin: &Block, cur: &Block) -> u16 {
            // SAFETY: each load reads the 64 bytes of a `Block`.
            unsafe {
                let a = _mm512_loadu_si512(twin.as_ptr().cast());
                let b = _mm512_loadu_si512(cur.as_ptr().cast());
                _mm512_cmpneq_epu32_mask(a, b)
            }
        }

        #[inline(always)]
        fn compress(cur: &Block, mask: u16, out: &mut Vec<u8>) {
            let n = mask.count_ones() as usize * WORD_SIZE;
            // A no-op branch in the encoder, which reserves exactly.
            out.reserve(n);
            // SAFETY: the load reads the 64 bytes of a `Block`; the store
            // writes `mask.count_ones()` words, `n` bytes, at the end of
            // `out`, whose spare capacity `reserve` made at least `n`, and
            // `set_len` covers exactly those now-initialised bytes.
            unsafe {
                let end = out.as_mut_ptr().add(out.len());
                let v = _mm512_loadu_si512(cur.as_ptr().cast());
                _mm512_mask_compressstoreu_epi32(end.cast(), mask, v);
                out.set_len(out.len() + n);
            }
        }

        #[inline(always)]
        fn expand(dst: &mut Block, mask: u16, claim: u16, src: &[u8]) {
            assert!(src.len() >= mask.count_ones() as usize * WORD_SIZE);
            // SAFETY: the expand load reads `mask.count_ones()` words from
            // `src`, which the assert shows holds them; the masked store
            // writes only inside the 64 bytes of `dst`.
            unsafe {
                let v = _mm512_maskz_expandloadu_epi32(mask, src.as_ptr().cast());
                _mm512_mask_storeu_epi32(dst.as_mut_ptr().cast(), claim, v);
            }
        }
    }
}

/// One dirty 64-byte block of a [`Diff`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DirtyBlock {
    /// Bit `w` marks word `w` of the block as modified.
    mask: u16,
    /// Byte offset in the diff's packed words of the block's first one,
    /// so any block's words are found without walking the blocks before
    /// it.
    start: u16,
}

/// A record of the 32-bit words of one page that differ from its
/// *twin* — TreadMarks' diff, kept in a mask-native form: a bitmap of
/// the dirty 64-byte blocks, a 16-bit word mask (and the offset of its
/// words) per dirty block, and the dirty words packed in page order.
///
/// On the wire (and in every size it reports) the diff is still the
/// run-length encoding TreadMarks ships: a header, one offset/length
/// pair per maximal run of modified words, and the modified words.
/// The run count is derived from the masks, so [`Diff::run_count`],
/// [`Diff::modified_bytes`] and [`Diff::wire_size`] are exactly what a
/// run list would give.
///
/// Applying a diff overwrites exactly the words the diff records and
/// leaves every other word untouched, which is what lets multiple
/// concurrent writers of a falsely-shared page merge without losing each
/// other's updates.
///
/// # Examples
///
/// ```
/// use adsm_mempage::{Diff, PAGE_SIZE};
///
/// let twin = vec![1u8; PAGE_SIZE];
/// let mut cur = twin.clone();
/// cur[0] = 9;
/// let d = Diff::encode(&twin, &cur);
/// assert!(!d.is_empty());
/// assert_eq!(d.modified_bytes(), 4); // word granularity
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Diff {
    /// Bit `b` is set iff 64-byte block `b` holds a modified word.
    blocks: u64,
    /// One entry per dirty block, in block order.
    dirty: Vec<DirtyBlock>,
    /// The modified words, in page order.
    data: Vec<u8>,
}

impl Diff {
    /// Compares `current` against `twin` at word granularity and records
    /// every modified word.
    ///
    /// One sweep computes a word mask per 64-byte block (a single
    /// vector compare on AVX-512 hosts); the dirty words of the dirty
    /// blocks are then packed straight into a buffer sized exactly from
    /// the masks. The result is identical to [`Diff::encode_naive`].
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode(twin: &[u8], current: &[u8]) -> Self {
        let mut diff = Diff::default();
        Self::encode_into(twin, current, &mut diff);
        diff
    }

    /// Like [`Diff::encode`], but reuses `out`'s buffers: in steady
    /// state (same caller re-encoding pages of similar write density)
    /// no heap allocation is performed.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode_into(twin: &[u8], current: &[u8], out: &mut Diff) {
        Self::encode_span_into(twin, current, 0, PAGE_SIZE, out);
    }

    /// Like [`Diff::encode_into`], but scans only the 64-byte blocks
    /// overlapping the page-relative byte window `[lo, hi)` — the dirty
    /// watermark a span guard (or any tracked write path) recorded.
    ///
    /// The caller guarantees every byte outside the window is identical
    /// between `twin` and `current` (debug builds assert it); under that
    /// contract the result is identical to a full [`Diff::encode`].
    /// `lo >= hi` means "nothing was written" and produces an empty
    /// diff.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long and
    /// `hi <= PAGE_SIZE`.
    pub fn encode_span_into(twin: &[u8], current: &[u8], lo: usize, hi: usize, out: &mut Diff) {
        Self::encode_span_with(DiffKernel::NATIVE, twin, current, lo, hi, out);
    }

    /// [`Diff::encode_span_into`] on a chosen kernel.
    #[doc(hidden)]
    pub fn encode_span_with(
        kernel: DiffKernel,
        twin: &[u8],
        current: &[u8],
        lo: usize,
        hi: usize,
        out: &mut Diff,
    ) {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        assert!(hi <= PAGE_SIZE, "window [{lo}, {hi}) beyond the page");
        if lo >= hi {
            debug_assert_eq!(twin, current, "clean window over a modified page");
            out.blocks = 0;
            out.dirty.clear();
            out.data.clear();
            return;
        }
        debug_assert!(
            twin[..lo] == current[..lo] && twin[hi..] == current[hi..],
            "bytes outside the dirty window [{lo}, {hi}) differ"
        );
        let (blo, bhi) = (lo / BLOCK_BYTES, hi.div_ceil(BLOCK_BYTES));
        with_kernel!(kernel, encode_blocks(twin, current, blo, bhi, out));
    }

    /// Reference encoder: the plain one-word-at-a-time scan. Kept as the
    /// correctness and performance baseline for [`Diff::encode`]
    /// (property tests assert equality; the `hotpaths` benches report
    /// the speedup against it).
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode_naive(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        let mut diff = Diff::default();
        for (w, (t, c)) in twin
            .chunks_exact(WORD_SIZE)
            .zip(current.chunks_exact(WORD_SIZE))
            .enumerate()
        {
            if t == c {
                continue;
            }
            let b = w / BLOCK_WORDS;
            if diff.blocks & (1 << b) == 0 {
                diff.blocks |= 1 << b;
                diff.dirty.push(DirtyBlock {
                    mask: 0,
                    start: diff.data.len() as u16,
                });
            }
            diff.dirty.last_mut().expect("dirty block").mask |= 1 << (w % BLOCK_WORDS);
            diff.data.extend_from_slice(c);
        }
        diff
    }

    /// Overwrites the recorded words in `page`: one masked expand per
    /// dirty block, or one copy for a stretch of whole blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `page` is exactly one page long.
    pub fn apply(&self, page: &mut [u8]) {
        self.apply_with(DiffKernel::NATIVE, page);
    }

    /// [`Diff::apply`] on a chosen kernel.
    #[doc(hidden)]
    pub fn apply_with(&self, kernel: DiffKernel, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        let mut unused = Claims::NONE;
        with_kernel!(kernel, apply_words::<false>(self, page, &mut unused));
    }

    /// Copies `base` into the caller-provided `out` buffer and applies
    /// the recorded words on top — the merge step without an
    /// intermediate allocation.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn apply_onto(&self, base: &[u8], out: &mut [u8]) {
        assert_eq!(base.len(), PAGE_SIZE, "base must be one page");
        out.copy_from_slice(base);
        self.apply(out);
    }

    /// Applies several diffs so that every page word is written **at
    /// most once**: byte-for-byte equivalent to calling [`Diff::apply`]
    /// for each diff in slice order.
    ///
    /// The slice order is the happened-before order of the merge
    /// procedure (§3.1.1): where two diffs modify the same word, the
    /// later diff's value is the one that survives a sequential apply.
    /// So the diffs are applied latest first against a per-block mask of
    /// the words already written: each diff writes only the words no
    /// later diff modified (one masked expand per block, or one copy for
    /// a stretch of whole blocks), and last-writer-wins per word falls
    /// out of the mask arithmetic. Blocks whose every word is already
    /// written are skipped outright, so the parts of a diff that later
    /// diffs shadow cost nothing. The masks live on the stack (128
    /// bytes), whatever the number of diffs.
    ///
    /// The slice is generic over [`Borrow`](std::borrow::Borrow) so
    /// callers can merge straight from whatever owns their diffs —
    /// `&[&Diff]`, `&[Arc<Diff>]`, or a keyed wrapper — without
    /// materialising a reference list first.
    ///
    /// # Panics
    ///
    /// Panics unless `page` is exactly one page long.
    pub fn apply_many<D: std::borrow::Borrow<Diff>>(diffs: &[D], page: &mut [u8]) {
        Self::apply_many_with(DiffKernel::NATIVE, diffs, page);
    }

    /// [`Diff::apply_many`] on a chosen kernel.
    #[doc(hidden)]
    pub fn apply_many_with<D: std::borrow::Borrow<Diff>>(
        kernel: DiffKernel,
        diffs: &[D],
        page: &mut [u8],
    ) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        // Latest diff first: each one writes only the words no later
        // diff has claimed.
        let mut claims = Claims::NONE;
        for d in diffs.iter().rev() {
            let d = d.borrow();
            with_kernel!(kernel, apply_words::<true>(d, page, &mut claims));
        }
    }

    /// `true` when the twin and the page were identical.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Number of maximal runs of modified words: the words that start a
    /// run (modified, with the preceding word not), counted per block
    /// with the preceding word carried across block boundaries.
    pub fn run_count(&self) -> usize {
        let mut runs = 0;
        let mut prev = (usize::MAX, 0u16); // (block, mask) of the last dirty block
        for (b, &DirtyBlock { mask: m, .. }) in bits(self.blocks).zip(&self.dirty) {
            let carry = if prev.0.wrapping_add(1) == b {
                prev.1 >> (BLOCK_WORDS - 1)
            } else {
                0
            };
            runs += (m & !((m << 1) | carry)).count_ones() as usize;
            prev = (b, m);
        }
        runs
    }

    /// Total bytes of modified data (a multiple of the word size).
    ///
    /// This is the paper's *write granularity* measure for the page.
    pub fn modified_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes this diff occupies on the wire and in the diff store:
    /// header + per-run headers + data.
    pub fn wire_size(&self) -> usize {
        DIFF_HEADER_BYTES + self.run_count() * RUN_HEADER_BYTES + self.modified_bytes()
    }

    /// Do `self` and `other` modify at least one common word?
    ///
    /// Two *concurrent* diffs of the same page that do **not** overlap are
    /// the signature of write-write false sharing; overlapping concurrent
    /// diffs would be a data race in the application.
    pub fn overlaps(&self, other: &Diff) -> bool {
        bits(self.blocks & other.blocks)
            .any(|b| self.dirty[self.index(b)].mask & other.dirty[other.index(b)].mask != 0)
    }

    /// Index in `dirty` of dirty block `b`'s entry.
    #[inline(always)]
    fn index(&self, b: usize) -> usize {
        debug_assert!(self.blocks & (1 << b) != 0, "block {b} is clean");
        (self.blocks & ((1u64 << b) - 1)).count_ones() as usize
    }

    /// The packed words of a dirty block.
    #[inline(always)]
    fn words(&self, e: DirtyBlock) -> &[u8] {
        let start = e.start as usize;
        &self.data[start..start + e.mask.count_ones() as usize * WORD_SIZE]
    }
}

/// The encode sweep over blocks `blo..bhi`: one dirty mask per block,
/// then the dirty words of the dirty blocks packed into `out`, whose
/// buffers are sized exactly from the masks first.
#[inline(always)]
fn encode_blocks<K: BlockKernel>(
    twin: &[u8],
    current: &[u8],
    blo: usize,
    bhi: usize,
    out: &mut Diff,
) {
    let mut masks = [0u16; BLOCKS_PER_PAGE];
    let mut blocks = 0u64;
    let mut words = 0usize;
    for (b, m) in (blo..bhi).zip(&mut masks[blo..bhi]) {
        *m = K::dirty_mask(block(twin, b), block(current, b));
        blocks |= ((*m != 0) as u64) << b;
        words += m.count_ones() as usize;
    }
    out.blocks = blocks;
    out.dirty.clear();
    out.dirty.reserve(blocks.count_ones() as usize);
    out.data.clear();
    out.data.reserve(words * WORD_SIZE);
    for b in bits(blocks) {
        out.dirty.push(DirtyBlock {
            mask: masks[b],
            start: out.data.len() as u16,
        });
        K::compress(block(current, b), masks[b], &mut out.data);
    }
}

/// The page words [`Diff::apply_many`] has written so far.
struct Claims {
    /// Per block, the words already written.
    words: [u16; BLOCKS_PER_PAGE],
    /// The blocks with every word written.
    covered: u64,
}

impl Claims {
    const NONE: Claims = Claims {
        words: [0; BLOCKS_PER_PAGE],
        covered: 0,
    };
}

/// Writes the words of `d` into `page`: one masked expand per dirty
/// block, except that a stretch of whole blocks (packed contiguously)
/// is one copy. With `MERGE`, the words `claims` holds (written by a
/// diff later in happened-before order) are skipped and the rest are
/// claimed.
#[inline(always)]
fn apply_words<K: BlockKernel, const MERGE: bool>(d: &Diff, page: &mut [u8], claims: &mut Claims) {
    let taken = |claims: &Claims, b: usize| if MERGE { claims.words[b] } else { 0 };
    let mut live = d.blocks & !claims.covered;
    while live != 0 {
        let b = live.trailing_zeros() as usize;
        let i = d.index(b);
        let e = d.dirty[i];
        if e.mask == u16::MAX && taken(claims, b) == 0 {
            let whole = d.dirty[i..]
                .iter()
                .zip(b..BLOCKS_PER_PAGE)
                .take_while(|&(e, c)| {
                    e.mask == u16::MAX && live & (1 << c) != 0 && taken(claims, c) == 0
                })
                .count();
            let (lo, hi) = (b * BLOCK_BYTES, (b + whole) * BLOCK_BYTES);
            let start = e.start as usize;
            page[lo..hi].copy_from_slice(&d.data[start..start + hi - lo]);
            let stretch = (u64::MAX >> (64 - whole)) << b;
            if MERGE {
                claims.words[b..b + whole].fill(u16::MAX);
                claims.covered |= stretch;
            }
            live &= !stretch;
            continue;
        }
        let claim = e.mask & !taken(claims, b);
        if claim != 0 {
            K::expand(block_mut(page, b), e.mask, claim, d.words(e));
            if MERGE {
                claims.words[b] |= e.mask;
                claims.covered |= ((claims.words[b] == u16::MAX) as u64) << b;
            }
        }
        live &= live - 1;
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diff[{} runs, {} B data, {} B wire]",
            self.run_count(),
            self.modified_bytes(),
            self.wire_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(vals: &[(usize, u8)]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        for &(i, v) in vals {
            p[i] = v;
        }
        p
    }

    #[test]
    fn identical_pages_produce_empty_diff() {
        let twin = page_with(&[(5, 1)]);
        let d = Diff::encode(&twin, &twin.clone());
        assert!(d.is_empty());
        assert_eq!(d.modified_bytes(), 0);
        assert_eq!(d.wire_size(), DIFF_HEADER_BYTES);
    }

    #[test]
    fn single_byte_change_costs_one_word() {
        let twin = page_with(&[]);
        let cur = page_with(&[(9, 3)]);
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.modified_bytes(), WORD_SIZE);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (4, 2), (8, 3)]);
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.modified_bytes(), 3 * WORD_SIZE);
    }

    #[test]
    fn separated_words_form_separate_runs() {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (100, 2)]);
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 2);
    }

    #[test]
    fn apply_reproduces_current() {
        let twin = page_with(&[(0, 7)]);
        let cur = page_with(&[(0, 9), (4000, 5)]);
        let d = Diff::encode(&twin, &cur);
        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn apply_leaves_unmodified_words_alone() {
        let twin = page_with(&[]);
        let cur = page_with(&[(8, 1)]);
        let d = Diff::encode(&twin, &cur);
        // Apply onto a page with unrelated content; only word 2 changes.
        let mut target = page_with(&[(100, 42)]);
        d.apply(&mut target);
        assert_eq!(target[100], 42);
        assert_eq!(target[8], 1);
    }

    #[test]
    fn full_page_diff_is_one_run() {
        let twin = vec![0u8; PAGE_SIZE];
        let cur = vec![1u8; PAGE_SIZE];
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.modified_bytes(), PAGE_SIZE);
        assert!(d.wire_size() > PAGE_SIZE);
    }

    #[test]
    fn overlap_detection() {
        let twin = vec![0u8; PAGE_SIZE];
        let a = Diff::encode(&twin, &page_with(&[(0, 1)]));
        let b = Diff::encode(&twin, &page_with(&[(2, 1)])); // same word 0
        let c = Diff::encode(&twin, &page_with(&[(40, 1)]));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    #[should_panic(expected = "twin must be one page")]
    fn encode_rejects_short_twin() {
        let _ = Diff::encode(&[0u8; 8], &[0u8; PAGE_SIZE]);
    }

    /// Edge cases of the chunked scan: changes at block boundaries, in
    /// the second word of a lane, and runs crossing block edges must
    /// reproduce the naive reference exactly.
    #[test]
    fn chunked_scan_matches_naive_at_boundaries() {
        let cases: &[&[usize]] = &[
            &[],                       // identical pages
            &[0],                      // first byte
            &[PAGE_SIZE - 1],          // last byte
            &[63, 64],                 // run across a block edge
            &[4, 5, 6, 7],             // second word of the first lane
            &[60, 61, 62, 63, 64, 65], // straddles blocks mid-run
            &[127, 128, 191, 192],     // multiple block edges
            &[8, 72, 136],             // same lane offset, many blocks
        ];
        for bytes in cases {
            let twin = vec![0u8; PAGE_SIZE];
            let mut cur = twin.clone();
            for &b in *bytes {
                cur[b] = 0xEE;
            }
            assert_eq!(
                Diff::encode(&twin, &cur),
                Diff::encode_naive(&twin, &cur),
                "mismatch for dirty bytes {bytes:?}"
            );
        }
        // Whole-page change: one maximal run under both encoders.
        let twin = vec![1u8; PAGE_SIZE];
        let cur = vec![2u8; PAGE_SIZE];
        assert_eq!(Diff::encode(&twin, &cur), Diff::encode_naive(&twin, &cur));
    }

    /// The windowed encoder must reproduce the full scan exactly when
    /// the window covers every modified byte — including windows cut
    /// mid-block, at page edges, and empty windows.
    #[test]
    fn encode_span_matches_full_encode() {
        let cases: &[(&[usize], (usize, usize))] = &[
            (&[], (0, 0)),  // clean page, empty window
            (&[0], (0, 1)), // first byte, 1-byte window
            (&[PAGE_SIZE - 1], (PAGE_SIZE - 1, PAGE_SIZE)),
            (&[63, 64], (63, 65)),               // run across a block edge
            (&[100, 101, 102, 103], (100, 104)), // window not block-aligned
            (&[8, 72, 136], (8, 137)),           // multiple blocks
            (&[500], (400, 700)),                // window wider than the change
        ];
        for (bytes, (lo, hi)) in cases {
            let twin = vec![0u8; PAGE_SIZE];
            let mut cur = twin.clone();
            for &b in *bytes {
                cur[b] = 0xEE;
            }
            let mut windowed = Diff::default();
            Diff::encode_span_into(&twin, &cur, *lo, *hi, &mut windowed);
            assert_eq!(
                windowed,
                Diff::encode(&twin, &cur),
                "mismatch for dirty bytes {bytes:?} window [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn encode_span_empty_window_clears_reused_buffers() {
        let twin = page_with(&[]);
        let cur = page_with(&[(8, 1)]);
        let mut d = Diff::encode(&twin, &cur);
        assert!(!d.is_empty());
        Diff::encode_span_into(&twin, &twin.clone(), 10, 10, &mut d);
        assert!(d.is_empty());
    }

    #[test]
    fn encode_into_truncates_stale_runs() {
        let twin = page_with(&[]);
        let dense = page_with(&[(0, 1), (100, 2), (500, 3)]);
        let sparse = page_with(&[(8, 1)]);
        let mut d = Diff::encode(&twin, &dense);
        assert_eq!(d.run_count(), 3);
        Diff::encode_into(&twin, &sparse, &mut d);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d, Diff::encode(&twin, &sparse));
        // And an empty diff clears everything.
        Diff::encode_into(&twin, &twin.clone(), &mut d);
        assert!(d.is_empty());
    }

    /// Applies `diffs` one by one — the reference semantics apply_many
    /// must reproduce.
    fn apply_seq(diffs: &[&Diff], page: &mut [u8]) {
        for d in diffs {
            d.apply(page);
        }
    }

    #[test]
    fn apply_many_of_nothing_is_identity() {
        let mut page = page_with(&[(3, 9)]);
        let orig = page.clone();
        Diff::apply_many::<&Diff>(&[], &mut page);
        assert_eq!(page, orig);
        let empty = Diff::default();
        Diff::apply_many(&[&empty, &empty], &mut page);
        assert_eq!(page, orig);
    }

    #[test]
    fn apply_many_single_matches_apply() {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (100, 2)]);
        let d = Diff::encode(&twin, &cur);
        let mut a = twin.clone();
        let mut b = twin.clone();
        d.apply(&mut a);
        Diff::apply_many(&[&d], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_many_disjoint_diffs_union() {
        let twin = page_with(&[]);
        let a = Diff::encode(&twin, &page_with(&[(0, 1)]));
        let b = Diff::encode(&twin, &page_with(&[(400, 2)]));
        let mut merged = twin.clone();
        Diff::apply_many(&[&a, &b], &mut merged);
        assert_eq!(merged, page_with(&[(0, 1), (400, 2)]));
    }

    #[test]
    fn apply_many_last_writer_wins_on_overlap() {
        let twin = page_with(&[]);
        // Both diffs write word 0; runs extend differently.
        let a = Diff::encode(&twin, &page_with(&[(0, 1), (4, 1), (8, 1)]));
        let b = Diff::encode(&twin, &page_with(&[(0, 2)]));
        let mut merged = twin.clone();
        Diff::apply_many(&[&a, &b], &mut merged);
        let mut expect = twin.clone();
        apply_seq(&[&a, &b], &mut expect);
        assert_eq!(merged, expect);
        assert_eq!(merged[0], 2, "later diff wins word 0");
        assert_eq!(merged[4], 1, "earlier diff keeps its exclusive words");
        // And the reverse order flips the winner.
        let mut merged = twin.clone();
        Diff::apply_many(&[&b, &a], &mut merged);
        assert_eq!(merged[0], 1);
    }

    #[test]
    fn apply_many_runs_crossing_each_other() {
        let twin = vec![0u8; PAGE_SIZE];
        // a: words 0..6 = 0xA; b: words 3..9 = 0xB; c: word 5 = 0xC.
        let mut pa = twin.clone();
        pa[0..24].fill(0xA);
        let mut pb = twin.clone();
        pb[12..36].fill(0xB);
        let mut pc = twin.clone();
        pc[20..24].fill(0xC);
        let a = Diff::encode(&twin, &pa);
        let b = Diff::encode(&twin, &pb);
        let c = Diff::encode(&twin, &pc);
        for order in [[&a, &b, &c], [&c, &b, &a], [&b, &a, &c]] {
            let mut merged = page_with(&[(1000, 7)]);
            let mut expect = merged.clone();
            Diff::apply_many(&order, &mut merged);
            apply_seq(&order, &mut expect);
            assert_eq!(merged, expect);
        }
    }

    /// A stretch of whole blocks in an earlier diff must not overwrite
    /// the words a later diff wrote inside it.
    #[test]
    fn apply_many_keeps_later_words_inside_a_whole_block_stretch() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut whole = twin.clone();
        whole[..4 * BLOCK_BYTES].fill(0xA); // blocks 0..4, every word
        let a = Diff::encode(&twin, &whole);
        let b = Diff::encode(&twin, &page_with(&[(2 * BLOCK_BYTES + 8, 0xB)]));
        for kernel in DiffKernel::ALL {
            let mut merged = twin.clone();
            Diff::apply_many_with(*kernel, &[&a, &b], &mut merged);
            let mut expect = twin.clone();
            apply_seq(&[&a, &b], &mut expect);
            assert_eq!(merged, expect, "kernel {kernel:?}");
        }
    }

    #[test]
    fn apply_onto_merges_into_caller_buffer() {
        let twin = page_with(&[(0, 7)]);
        let cur = page_with(&[(0, 9), (4000, 5)]);
        let d = Diff::encode(&twin, &cur);
        let mut out = vec![0xFFu8; PAGE_SIZE];
        d.apply_onto(&twin, &mut out);
        assert_eq!(out, cur);
    }
}
