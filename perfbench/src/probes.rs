//! Layer probes: each times one layer crate's public API from outside,
//! sized from the workload (processor count, mean diff density), so the
//! traced run can say what a unit of that layer's work costs on this
//! host.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use adsm_bench::hotpaths::{dirty_page, pending_diff_chain};
use adsm_core::{Dsm, ProtocolKind, SimTime};
use adsm_engine::Engine;
use adsm_mempage::{Diff, PagePool, PAGE_SIZE};
use adsm_vclock::{ProcId, VectorClock};

/// Samples taken per latency probe (handoffs, wake round trips).
const LATENCY_SAMPLES: usize = 2_000;

/// Batches per throughput probe; the median batch is reported.
const BATCHES: usize = 5;

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median ns per call of `op` over [`BATCHES`] batches of `iters` calls.
fn ns_per_op(iters: usize, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    quantile(&batches, 0.5)
}

/// Simulator turn handoff latency: `n` tasks on `Engine::new(n)` yield
/// round-robin (each advances its clock by 1 ns per turn, so the least
/// clock is always the next task). A sample is the time from one task
/// entering `yield_turn` to the next task returning from its own.
pub fn engine_handoff_ns(n: usize) -> Vec<f64> {
    let engine = Engine::new(n);
    let rounds = (LATENCY_SAMPLES / n).max(2);
    let origin = Instant::now();
    // Written by the yielding task, read by the next one; the engine's
    // turn handoff orders the two, so the value needs no ordering of its
    // own.
    let yielded_at = AtomicU64::new(0);
    let now = || origin.elapsed().as_nanos() as u64;
    thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let mut task = engine.task(id);
                let yielded_at = &yielded_at;
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(rounds);
                    task.begin();
                    for round in 0..rounds {
                        task.advance(SimTime::from_ns(1));
                        yielded_at.store(now(), Ordering::Relaxed);
                        task.yield_turn();
                        let waited = now().saturating_sub(yielded_at.load(Ordering::Relaxed));
                        if n > 1 && round + 1 < rounds {
                            samples.push(waited as f64);
                        }
                    }
                    task.finish();
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("handoff probe task panicked"))
            .collect()
    })
}

/// Threads-backend wake round trip on `Engine::threaded(n)`: task 0
/// unblocks task 1 and blocks; task 1 wakes, unblocks task 0 and blocks
/// again. A sample is task 0's unblock → wake. The other `n - 2` tasks
/// finish at once.
pub fn engine_wake_ns(n: usize) -> Vec<f64> {
    let n = n.max(2);
    let engine = Engine::threaded(n);
    thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let mut task = engine.task(id);
                s.spawn(move || {
                    let mut samples = Vec::new();
                    task.begin();
                    for _ in 0..LATENCY_SAMPLES {
                        match id {
                            0 => {
                                let t = Instant::now();
                                task.unblock(1, SimTime::ZERO);
                                task.block();
                                samples.push(t.elapsed().as_nanos() as f64);
                            }
                            1 => {
                                task.block();
                                task.unblock(0, SimTime::ZERO);
                            }
                            _ => break,
                        }
                    }
                    task.finish();
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wake probe task panicked"))
            .collect()
    })
}

/// `VectorClock::merge` of two `n`-entry clocks, ns per merge.
pub fn vclock_merge_ns(n: usize) -> f64 {
    let mut a = VectorClock::new(n);
    let mut b = VectorClock::new(n);
    for i in 0..n {
        a.set(ProcId::new(i), (i * 7 % 13) as u32);
        b.set(ProcId::new(i), (i * 5 % 11) as u32);
    }
    ns_per_op(20_000, || black_box(&mut a).merge(black_box(&b)))
}

/// Diff codec unit costs at a density: ns per `Diff::encode`, per
/// `Diff::apply`, and per four-diff `Diff::apply_many` merge.
pub struct DiffCosts {
    /// Dirty words per page the density maps to.
    pub dirty_words: usize,
    pub encode_ns: f64,
    pub apply_ns: f64,
    pub merge4_ns: f64,
}

/// Times the diff codec at `mean_diff_bytes` wire bytes per diff (the
/// workload's `diff_bytes_created ÷ diffs_created`), mapped to the number
/// of evenly spread dirty words whose diff has the closest wire size.
/// The merge uses the §3.2 accumulation chain of four diffs.
pub fn diff_costs(mean_diff_bytes: f64) -> DiffCosts {
    let words = PAGE_SIZE / 4;
    let dirty_words = (1..=words)
        .min_by_key(|&d| {
            let (twin, cur) = dirty_page(d);
            (Diff::encode(&twin, &cur).wire_size() as f64 - mean_diff_bytes).abs() as u64
        })
        .expect("a page has words");
    let (twin, cur) = dirty_page(dirty_words);
    let encode_ns = ns_per_op(2_000, || {
        black_box(Diff::encode(black_box(&twin), black_box(&cur)));
    });
    let diff = Diff::encode(&twin, &cur);
    let mut page = twin.clone();
    let apply_ns = ns_per_op(2_000, || diff.apply(black_box(&mut page)));
    let (chain, base, _) = pending_diff_chain(4);
    let mut page = base.clone();
    let merge4_ns = ns_per_op(2_000, || Diff::apply_many(black_box(&chain), &mut page));
    DiffCosts {
        dirty_words,
        encode_ns,
        apply_ns,
        merge4_ns,
    }
}

/// `PagePool::get_copy` of one page from a warm pool (the buffer goes
/// back to the pool when dropped), ns per copy.
pub fn pool_copy_ns() -> f64 {
    let pool = PagePool::new();
    let src = vec![0x5au8; PAGE_SIZE];
    drop(pool.get_copy(&src));
    ns_per_op(20_000, || drop(black_box(pool.get_copy(black_box(&src)))))
}

/// Span-guard views: ns per `SharedVec::view` / `view_mut` of one whole
/// page, on a one-processor MW run whose pages are already valid and
/// writable (the steady state after the first fault).
pub fn memio_view_ns() -> (f64, f64) {
    const PAGES: usize = 64;
    const WORDS: usize = PAGE_SIZE / 8;
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(1).build();
    let data = dsm.alloc_page_aligned::<u64>(PAGES * WORDS);
    let result = Arc::new(Mutex::new((0.0, 0.0)));
    let out = Arc::clone(&result);
    dsm.run(move |p| {
        for page in 0..PAGES {
            data.set(p, page * WORDS, page as u64);
        }
        let mut page = 0;
        let read = ns_per_op(PAGES * 50, || {
            let v = data.view(p, page * WORDS..(page + 1) * WORDS);
            black_box(v.at(0));
            page = (page + 1) % PAGES;
        });
        let write = ns_per_op(PAGES * 50, || {
            let mut v = data.view_mut(p, page * WORDS..(page + 1) * WORDS);
            v.set(1, page as u64);
            page = (page + 1) % PAGES;
        });
        *out.lock().expect("probe result lock") = (read, write);
    })
    .expect("a one-processor MW run cannot deadlock");
    let costs = *result.lock().expect("probe result lock");
    costs
}
