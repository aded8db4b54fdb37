//! Property-based tests of the twin/diff machinery.

use adsm_mempage::{Diff, PAGE_SIZE, WORD_SIZE};
use proptest::prelude::*;

/// A page described as a sparse set of byte edits over a base value.
fn page_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u8>(),
        prop::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..64),
    )
        .prop_map(|(base, edits)| {
            let mut page = vec![base; PAGE_SIZE];
            for (i, v) in edits {
                page[i] = v;
            }
            page
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// apply(encode(twin, cur), twin) == cur — the fundamental round trip.
    #[test]
    fn encode_apply_round_trip(twin in page_strategy(), cur in page_strategy()) {
        let diff = Diff::encode(&twin, &cur);
        let mut target = twin.clone();
        diff.apply(&mut target);
        prop_assert_eq!(target, cur);
    }

    /// Encoding a page against itself is empty, and applying an empty diff
    /// is the identity.
    #[test]
    fn self_diff_is_identity(page in page_strategy(), other in page_strategy()) {
        let diff = Diff::encode(&page, &page);
        prop_assert!(diff.is_empty());
        let mut target = other.clone();
        diff.apply(&mut target);
        prop_assert_eq!(target, other);
    }

    /// Words outside the diff are never touched by apply().
    #[test]
    fn apply_touches_only_modified_words(
        twin in page_strategy(),
        cur in page_strategy(),
        canvas in page_strategy(),
    ) {
        let diff = Diff::encode(&twin, &cur);
        let mut target = canvas.clone();
        diff.apply(&mut target);
        for w in 0..(PAGE_SIZE / WORD_SIZE) {
            let r = w * WORD_SIZE..(w + 1) * WORD_SIZE;
            if twin[r.clone()] == cur[r.clone()] {
                prop_assert_eq!(&target[r.clone()], &canvas[r.clone()],
                    "untouched word {} was modified", w);
            } else {
                prop_assert_eq!(&target[r.clone()], &cur[r.clone()],
                    "modified word {} not applied", w);
            }
        }
    }

    /// The windowed encoder agrees with the full scan whenever the
    /// window covers every modified byte — the contract the dirty
    /// watermarks guarantee: edits are confined to a random window and
    /// the window is additionally widened by random slack.
    #[test]
    fn encode_span_matches_full_scan(
        base in page_strategy(),
        (lo, hi) in (0usize..PAGE_SIZE, 0usize..=PAGE_SIZE)
            .prop_map(|(a, b)| (a.min(b), a.max(b))),
        edits in prop::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..32),
        slack in (0usize..128, 0usize..128),
    ) {
        let twin = base.clone();
        let mut cur = base;
        for (i, v) in edits {
            if i >= lo && i < hi {
                cur[i] = v;
            }
        }
        let full = Diff::encode(&twin, &cur);
        let mut windowed = Diff::default();
        // Exact window.
        Diff::encode_span_into(&twin, &cur, lo, hi, &mut windowed);
        prop_assert_eq!(&windowed, &full);
        // Widened window (the watermark is allowed to be conservative).
        let wlo = lo.saturating_sub(slack.0);
        let whi = (hi + slack.1).min(PAGE_SIZE);
        Diff::encode_span_into(&twin, &cur, wlo, whi, &mut windowed);
        prop_assert_eq!(&windowed, &full);
    }

    /// Diff size accounting: modified_bytes is word-aligned, bounded by the
    /// page size, and wire_size is consistent with it.
    #[test]
    fn size_accounting(twin in page_strategy(), cur in page_strategy()) {
        let diff = Diff::encode(&twin, &cur);
        prop_assert_eq!(diff.modified_bytes() % WORD_SIZE, 0);
        prop_assert!(diff.modified_bytes() <= PAGE_SIZE);
        prop_assert!(diff.wire_size() >= diff.modified_bytes());
        prop_assert!(diff.run_count() <= diff.modified_bytes() / WORD_SIZE + 1);
    }

    /// The chunked encoder is run-for-run identical to the naive
    /// word-scan reference: same runs, same offsets, same bytes, same
    /// wire size.
    #[test]
    fn chunked_encode_matches_naive_reference(
        twin in page_strategy(),
        cur in page_strategy(),
    ) {
        let chunked = Diff::encode(&twin, &cur);
        let naive = Diff::encode_naive(&twin, &cur);
        prop_assert_eq!(&chunked, &naive);
        prop_assert_eq!(chunked.run_count(), naive.run_count());
        prop_assert_eq!(chunked.modified_bytes(), naive.modified_bytes());
        prop_assert_eq!(chunked.wire_size(), naive.wire_size());
    }

    /// Buffer-reusing `encode_into` produces the same diff as the
    /// allocating API, whatever state the reused diff was left in, and
    /// `apply_onto` round-trips through a caller-provided buffer.
    #[test]
    fn pooled_encode_into_and_apply_round_trip(
        twin_a in page_strategy(),
        cur_a in page_strategy(),
        twin_b in page_strategy(),
        cur_b in page_strategy(),
    ) {
        let mut reused = Diff::default();
        // First fill leaves runs/data buffers behind for the second
        // encode to recycle.
        Diff::encode_into(&twin_a, &cur_a, &mut reused);
        prop_assert_eq!(&reused, &Diff::encode(&twin_a, &cur_a));

        Diff::encode_into(&twin_b, &cur_b, &mut reused);
        prop_assert_eq!(&reused, &Diff::encode(&twin_b, &cur_b));

        let mut out = vec![0xAAu8; PAGE_SIZE];
        reused.apply_onto(&twin_b, &mut out);
        prop_assert_eq!(out, cur_b);
    }

    /// `apply_many` over a random happened-before chain — each page
    /// derived from the previous by random edits, each diff encoded
    /// against its predecessor — is byte-for-byte the sequential apply,
    /// and lands on the chain's final page.
    #[test]
    fn apply_many_matches_sequential_over_chains(
        base in page_strategy(),
        edit_sets in prop::collection::vec(
            prop::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..48),
            0..6,
        ),
    ) {
        let mut pages = vec![base.clone()];
        let mut diffs = Vec::new();
        for edits in &edit_sets {
            let mut next = pages.last().expect("nonempty").clone();
            for &(i, v) in edits {
                next[i] = v;
            }
            diffs.push(Diff::encode(pages.last().expect("nonempty"), &next));
            pages.push(next);
        }
        let refs: Vec<&Diff> = diffs.iter().collect();
        let mut seq = base.clone();
        for d in &refs {
            d.apply(&mut seq);
        }
        let mut merged = base.clone();
        Diff::apply_many(&refs, &mut merged);
        prop_assert_eq!(&merged, &seq);
        prop_assert_eq!(&merged, pages.last().expect("nonempty"));
    }

    /// `apply_many` equals sequential apply for *arbitrary* diff lists
    /// on an arbitrary canvas: overlapping runs, empty diffs, repeated
    /// diffs — last writer wins per word either way.
    #[test]
    fn apply_many_matches_sequential_on_any_canvas(
        canvas in page_strategy(),
        sources in prop::collection::vec(
            (page_strategy(), page_strategy()),
            0..5,
        ),
        include_empty in any::<bool>(),
    ) {
        let mut diffs: Vec<Diff> = sources
            .iter()
            .map(|(twin, cur)| Diff::encode(twin, cur))
            .collect();
        if include_empty {
            diffs.insert(diffs.len() / 2, Diff::default());
        }
        // Re-apply the first diff at the end too (the merge procedure's
        // own-delta case: a processor's old diff rides behind foreign
        // ones).
        if let Some(first) = diffs.first().cloned() {
            diffs.push(first);
        }
        let refs: Vec<&Diff> = diffs.iter().collect();
        let mut seq = canvas.clone();
        for d in &refs {
            d.apply(&mut seq);
        }
        let mut merged = canvas.clone();
        Diff::apply_many(&refs, &mut merged);
        prop_assert_eq!(merged, seq);
    }

    /// Applying two diffs with disjoint word sets commutes.
    #[test]
    fn disjoint_diffs_commute(
        base in page_strategy(),
        edits_a in prop::collection::vec((0usize..512, any::<u8>()), 1..32),
        edits_b in prop::collection::vec((512usize..1024, any::<u8>()), 1..32),
    ) {
        // Builds two diffs over disjoint word ranges (words 0..128 and 128..256).
        let mut pa = base.clone();
        for &(w, v) in &edits_a {
            pa[w * WORD_SIZE % 512] = v;
        }
        let mut pb = base.clone();
        for &(w, v) in &edits_b {
            let off = 512 + (w - 512) % 512;
            pb[off] = v;
        }
        let da = Diff::encode(&base, &pa);
        let db = Diff::encode(&base, &pb);
        prop_assert!(!da.overlaps(&db));

        let mut ab = base.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = base.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        prop_assert_eq!(ab, ba);
    }
}

// ---------------------------------------------------------------------
// Kernel equivalence: every block kernel compiled into this build (the
// portable scalar one always; the AVX-512 one when the build enables
// `avx512f`) against each other and against the word-walk reference,
// on the shapes that stress the block-mask representation.
// ---------------------------------------------------------------------

use adsm_mempage::DiffKernel;

const WORDS: usize = PAGE_SIZE / WORD_SIZE;
/// Words per 64-byte block of the codec.
const BLOCK_WORDS: usize = 16;
/// The modelled wire format: a 12-byte diff header, 4 bytes per run.
const DIFF_HEADER_BYTES: usize = 12;
const RUN_HEADER_BYTES: usize = 4;

/// Run count and modified bytes by a plain word walk over the pages.
fn word_walk(twin: &[u8], cur: &[u8]) -> (usize, usize) {
    let mut runs = 0;
    let mut dirty = 0;
    let mut prev = false;
    for (t, c) in twin
        .chunks_exact(WORD_SIZE)
        .zip(cur.chunks_exact(WORD_SIZE))
    {
        let d = t != c;
        runs += (d && !prev) as usize;
        dirty += d as usize;
        prev = d;
    }
    (runs, dirty * WORD_SIZE)
}

/// A pseudo-random twin from `seed`, and a copy with every listed word
/// changed (one byte of each flipped by a nonzero value; a word listed
/// twice is still changed once).
fn pages_from(seed: u64, dirty_words: &[usize]) -> (Vec<u8>, Vec<u8>) {
    let mut dirty_words = dirty_words.to_vec();
    dirty_words.sort_unstable();
    dirty_words.dedup();
    let mut x = seed | 1;
    let twin: Vec<u8> = (0..PAGE_SIZE)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    let mut cur = twin.clone();
    for w in dirty_words {
        let byte = w * WORD_SIZE + (w * 7 + seed as usize) % WORD_SIZE;
        cur[byte] ^= 1 + (w % 255) as u8;
    }
    (twin, cur)
}

/// Dirty-word sets shaped to break a block-mask codec.
fn adversarial_words() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        // Alternating words: 1-of-2 and 2-of-4 (SOR's red-black
        // shape), over a random word range with a random phase.
        (
            prop_oneof![
                Just((2usize, 1usize)),
                Just((4, 2)),
                Just((4, 1)),
                Just((3, 2))
            ],
            0usize..WORDS,
            0usize..=WORDS,
            0usize..4,
        )
            .prop_map(|((stride, width), a, b, phase)| {
                (a.min(b)..a.max(b))
                    .filter(|w| (w + phase) % stride < width)
                    .collect::<Vec<_>>()
            }),
        // Runs that end at the last word of a block (word 15 of block
        // 0) and/or start at the first word of the next (word 16).
        prop::collection::vec(
            (1usize..WORDS / BLOCK_WORDS, 1usize..=16, 0usize..=16),
            1..8
        )
        .prop_map(|edges| {
            let mut words = Vec::new();
            for (b, before, after) in edges {
                let edge = b * BLOCK_WORDS;
                words.extend(edge - before..edge);
                words.extend(edge..(edge + after).min(WORDS));
            }
            words
        }),
        // Dirty blocks separated by clean blocks, each with its own
        // random word mask.
        (any::<u64>(), prop::collection::vec(1u16..=u16::MAX, 64)).prop_map(|(blocks, masks)| {
            let mut words = Vec::new();
            for b in
                (0..WORDS / BLOCK_WORDS).filter(|b| (blocks & 0x5555_5555_5555_5555) >> b & 1 == 1)
            {
                for w in 0..BLOCK_WORDS {
                    if masks[b] >> w & 1 == 1 {
                        words.push(b * BLOCK_WORDS + w);
                    }
                }
            }
            words
        }),
        // Stretches of whole blocks (every word modified), which the
        // codec copies as one run, with partial blocks around them.
        (0usize..WORDS / BLOCK_WORDS, 1usize..8, 0usize..BLOCK_WORDS).prop_map(|(b, n, tail)| {
            let start = b * BLOCK_WORDS;
            let end = ((b + n) * BLOCK_WORDS + tail).min(WORDS);
            (start..end).collect::<Vec<_>>()
        }),
        // The first and last word of the page, plus a few strays.
        prop::collection::vec(0usize..WORDS, 0..4).prop_map(|mut words| {
            words.extend([0, WORDS - 1]);
            words
        }),
        // Unstructured sparse edits.
        prop::collection::vec(0usize..WORDS, 0..96),
    ]
}

/// An adversarial twin/page pair.
fn adversarial_pages() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (any::<u64>(), adversarial_words()).prop_map(|(seed, words)| pages_from(seed, &words))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every kernel encodes exactly what the word-walk reference does,
    /// and the sizes the wire model reads off the masks (runs, modified
    /// bytes, wire size) are the word walk's.
    #[test]
    fn kernels_encode_like_the_word_walk((twin, cur) in adversarial_pages()) {
        let naive = Diff::encode_naive(&twin, &cur);
        let (runs, bytes) = word_walk(&twin, &cur);
        prop_assert_eq!(naive.run_count(), runs);
        prop_assert_eq!(naive.modified_bytes(), bytes);
        prop_assert_eq!(
            naive.wire_size(),
            DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + bytes
        );
        for &k in DiffKernel::ALL {
            let mut d = Diff::default();
            Diff::encode_span_with(k, &twin, &cur, 0, PAGE_SIZE, &mut d);
            prop_assert_eq!(&d, &naive, "kernel {:?}", k);
            prop_assert_eq!(d.run_count(), runs);
            prop_assert_eq!(d.modified_bytes(), bytes);
            prop_assert_eq!(d.wire_size(), naive.wire_size());
        }
    }

    /// Every kernel applies a diff identically: recorded words take the
    /// page's value, every other word of the canvas is untouched.
    #[test]
    fn kernels_apply_identically(
        (twin, cur) in adversarial_pages(),
        canvas_seed in any::<u64>(),
    ) {
        let d = Diff::encode(&twin, &cur);
        let (canvas, _) = pages_from(canvas_seed, &[]);
        let mut expect = canvas.clone();
        for w in 0..WORDS {
            let r = w * WORD_SIZE..(w + 1) * WORD_SIZE;
            if twin[r.clone()] != cur[r.clone()] {
                expect[r.clone()].copy_from_slice(&cur[r]);
            }
        }
        for &k in DiffKernel::ALL {
            let mut got = canvas.clone();
            d.apply_with(k, &mut got);
            prop_assert_eq!(&got, &expect, "kernel {:?}", k);
        }
    }

    /// Every kernel's `apply_many` is the sequential apply, over lists
    /// of adversarial diffs that overlap, nest and repeat.
    #[test]
    fn kernels_apply_many_like_sequential_apply(
        sources in prop::collection::vec(adversarial_pages(), 0..12),
        canvas_seed in any::<u64>(),
    ) {
        let mut diffs: Vec<Diff> = sources.iter().map(|(t, c)| Diff::encode(t, c)).collect();
        if let Some(first) = diffs.first().cloned() {
            diffs.push(first);
        }
        let (canvas, _) = pages_from(canvas_seed, &[]);
        let mut seq = canvas.clone();
        for d in &diffs {
            d.apply_with(DiffKernel::Portable, &mut seq);
        }
        for &k in DiffKernel::ALL {
            let mut merged = canvas.clone();
            Diff::apply_many_with(k, &diffs, &mut merged);
            prop_assert_eq!(&merged, &seq, "kernel {:?}", k);
        }
    }

    /// Windowed encodes whose window starts or ends mid-block agree with
    /// the full reference on every kernel.
    #[test]
    fn kernels_encode_windows_cut_mid_block(
        seed in any::<u64>(),
        words in adversarial_words(),
        (lo, hi) in (0usize..PAGE_SIZE, 0usize..=PAGE_SIZE).prop_map(|(a, b)| (a.min(b), a.max(b))),
    ) {
        // Keep only the words wholly inside the window, so the bytes
        // outside it are clean as the watermark contract requires.
        let inside: Vec<usize> = words
            .into_iter()
            .filter(|&w| w * WORD_SIZE >= lo && (w + 1) * WORD_SIZE <= hi)
            .collect();
        let (twin, cur) = pages_from(seed, &inside);
        let naive = Diff::encode_naive(&twin, &cur);
        for &k in DiffKernel::ALL {
            let mut d = Diff::default();
            Diff::encode_span_with(k, &twin, &cur, lo, hi, &mut d);
            prop_assert_eq!(&d, &naive, "kernel {:?} window [{}, {})", k, lo, hi);
        }
    }

    /// `overlaps` is exactly "some word is modified by both".
    #[test]
    fn overlaps_is_word_intersection(
        (twin_a, cur_a) in adversarial_pages(),
        (twin_b, cur_b) in adversarial_pages(),
    ) {
        let a = Diff::encode(&twin_a, &cur_a);
        let b = Diff::encode(&twin_b, &cur_b);
        let dirty = |t: &[u8], c: &[u8], w: usize| {
            t[w * WORD_SIZE..(w + 1) * WORD_SIZE] != c[w * WORD_SIZE..(w + 1) * WORD_SIZE]
        };
        let expect = (0..WORDS).any(|w| dirty(&twin_a, &cur_a, w) && dirty(&twin_b, &cur_b, w));
        prop_assert_eq!(a.overlaps(&b), expect);
        prop_assert_eq!(b.overlaps(&a), expect);
    }
}

/// The named adversarial shapes, with their sizes pinned.
#[test]
fn adversarial_shapes_have_the_word_walk_sizes() {
    let every = |stride: usize, width: usize| -> Vec<usize> {
        (0..WORDS).filter(|w| w % stride < width).collect()
    };
    let cases: Vec<(&str, Vec<usize>, usize)> = vec![
        ("1-of-2", every(2, 1), WORDS / 2),
        ("2-of-4", every(4, 2), WORDS / 4),
        ("run across a block edge", (12..20).collect(), 1),
        (
            "run ends at word 15, next starts at word 17",
            vec![14, 15, 17, 18],
            2,
        ),
        (
            "run ends at word 15, next block starts clean",
            vec![15, 17],
            2,
        ),
        ("dirty blocks between clean blocks", vec![3, 40, 41, 100], 3),
        ("first and last word", vec![0, WORDS - 1], 2),
        ("whole page", (0..WORDS).collect(), 1),
    ];
    for (name, words, runs) in cases {
        let (twin, cur) = pages_from(0x9e37_79b9, &words);
        let bytes = words.len() * WORD_SIZE;
        for &k in DiffKernel::ALL {
            let mut d = Diff::default();
            Diff::encode_span_with(k, &twin, &cur, 0, PAGE_SIZE, &mut d);
            assert_eq!(d, Diff::encode_naive(&twin, &cur), "{name}: kernel {k:?}");
            assert_eq!(d.run_count(), runs, "{name}: runs");
            assert_eq!(d.modified_bytes(), bytes, "{name}: bytes");
            assert_eq!(
                d.wire_size(),
                DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + bytes,
                "{name}: wire size"
            );
            let mut out = twin.clone();
            d.apply_with(k, &mut out);
            assert_eq!(out, cur, "{name}: kernel {k:?} round trip");
        }
    }
}
