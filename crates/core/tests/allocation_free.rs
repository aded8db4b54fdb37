//! Steady-state allocation behaviour of the protocol hot paths.
//!
//! Every twin, fetched page and merge scratch buffer is drawn from the
//! world's [`PagePool`](adsm_mempage::PagePool); the pool's
//! `pool_pages_created` counter (surfaced through
//! [`ProtocolStats`](adsm_core::ProtocolStats)) counts its heap
//! allocations. These tests pin the PR's acceptance criterion: on the
//! SOR microkernel path the pool stops allocating once the per-iteration
//! working set exists — zero heap allocations per steady-state interval
//! — while the buffer traffic itself (twin creation, page fetches) keeps
//! flowing through recycling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adsm_core::{Dsm, ProtocolKind, RunReport, SimTime};

thread_local! {
    /// Heap allocations performed by *this* thread (`Cell<u64>` has no
    /// destructor, so the TLS slot is safe to touch from the allocator
    /// at any point in a thread's life).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocations per thread: each
/// simulated processor runs on its own thread, so a closure can measure
/// exactly its own allocation count, immune to concurrently running
/// tests.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a per-thread
// `Cell` bump with no allocation or unwinding of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's allocation count so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

const NPROCS: usize = 4;
const N: usize = 64; // grid side; rows are page-aligned u64 lanes

/// A SOR-style red/black relaxation over a shared grid: each processor
/// sweeps a band of rows, reads the neighbouring bands, and meets at a
/// barrier per half-sweep — the paper's canonical regular workload.
fn run_sor(protocol: ProtocolKind, iters: usize) -> RunReport {
    let mut dsm = Dsm::builder(protocol).nprocs(NPROCS).build();
    let grid = dsm.alloc_page_aligned::<u64>(N * N);
    let outcome = dsm
        .run(move |p| {
            let rows = N / p.nprocs();
            let lo = p.index() * rows;
            let hi = lo + rows;
            for it in 0..iters {
                for colour in 0..2usize {
                    for r in lo..hi {
                        if r % 2 != colour {
                            continue;
                        }
                        for c in 0..N {
                            let up = if r == 0 {
                                0
                            } else {
                                grid.get(p, (r - 1) * N + c)
                            };
                            let down = if r + 1 == N {
                                0
                            } else {
                                grid.get(p, (r + 1) * N + c)
                            };
                            let v = up / 2 + down / 2 + (it + colour) as u64;
                            grid.set(p, r * N + c, v);
                        }
                    }
                    p.compute(SimTime::from_us(20));
                    p.barrier();
                }
            }
        })
        .expect("SOR run completes");
    outcome.report
}

/// Fresh pool allocations must stop growing after warm-up: running 3x
/// the iterations performs not a single extra heap allocation for page
/// buffers, even though the extra iterations keep twinning and fetching
/// (visible as strictly more pool reuse).
#[test]
fn sor_steady_state_intervals_allocate_no_page_buffers() {
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let short = run_sor(protocol, 3);
        let long = run_sor(protocol, 9);
        assert_eq!(
            long.proto.pool_pages_created, short.proto.pool_pages_created,
            "{protocol}: extra steady-state iterations allocated page buffers"
        );
        assert!(
            long.proto.pool_pages_reused > short.proto.pool_pages_reused,
            "{protocol}: extra iterations should recycle more buffers \
             (short {}, long {})",
            short.proto.pool_pages_reused,
            long.proto.pool_pages_reused
        );
        // The pool is actually in the loop. Under pure MW every writer
        // twins; under WFS this workload has no false sharing, so pages
        // stay SW and the pool traffic is page fetches only.
        if protocol == ProtocolKind::Mw {
            assert!(
                long.proto.twins_created > 0,
                "MW workload unexpectedly created no twins"
            );
        }
        assert!(
            long.proto.pool_pages_created > 0,
            "{protocol}: pool should have served the warm-up working set"
        );
    }
}

/// A write-write false-sharing microkernel: every processor writes its
/// own interleaved words of the SAME pages in every interval, so each
/// barrier leaves `NPROCS` concurrent diffs per page and every
/// subsequent fault runs the full merge procedure (`apply_many` over
/// fetched diffs).
fn run_false_sharing(iters: usize) -> RunReport {
    const WORDS: usize = 1024; // two shared pages of u64
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(NPROCS).build();
    let data = dsm.alloc_page_aligned::<u64>(WORDS);
    let outcome = dsm
        .run(move |p| {
            let me = p.index();
            let stride = p.nprocs();
            for it in 0..iters {
                for i in (me..WORDS).step_by(stride) {
                    data.set(p, i, (it * stride + me) as u64);
                }
                p.compute(SimTime::from_us(20));
                p.barrier();
                // Read a neighbour's word: validates the merged page.
                let _ = data.get(p, (me + 1) % stride);
            }
        })
        .expect("false-sharing run completes");
    outcome.report
}

/// The merge path itself is allocation-free and clone-free in steady
/// state: with every page under concurrent multi-writer traffic, extra
/// iterations fetch and apply strictly more diffs without a single new
/// page buffer or a single deep diff copy.
#[test]
fn merge_path_steady_state_is_allocation_and_clone_free() {
    let short = run_false_sharing(3);
    let long = run_false_sharing(9);
    // The merge procedure actually ran, at multi-diff fan-in.
    assert!(
        long.proto.diffs_fetched > short.proto.diffs_fetched,
        "extra iterations must fetch more diffs (short {}, long {})",
        short.proto.diffs_fetched,
        long.proto.diffs_fetched
    );
    assert!(long.proto.diffs_applied > 0);
    // Clone-free fetch: diffs travel as shared handles only.
    assert_eq!(long.proto.diff_fetch_clones, 0);
    // Structured invariant path never fired.
    assert_eq!(long.proto.missing_diff_skips, 0);
    // Zero page-buffer allocations per steady-state interval.
    assert_eq!(
        long.proto.pool_pages_created, short.proto.pool_pages_created,
        "merge-path steady state allocated page buffers"
    );
    assert!(
        long.proto.pool_pages_reused > short.proto.pool_pages_reused,
        "merge-path iterations should recycle buffers"
    );
}

/// The merge procedure's transient state — the open session's delta
/// diff (`Diff::encode_into` scratch) and the three working lists —
/// comes from the world's scratch pool: extra steady-state iterations
/// run strictly more merges without building a single new scratch set.
#[test]
fn validate_page_scratch_is_pooled_after_warmup() {
    let short = run_false_sharing(3);
    let long = run_false_sharing(9);
    assert!(
        long.proto.merge_scratch_created > 0,
        "warm-up must have built at least one scratch set"
    );
    assert_eq!(
        long.proto.merge_scratch_created, short.proto.merge_scratch_created,
        "extra steady-state merges allocated scratch sets"
    );
    // The same holds on the regular (SOR) path across protocols.
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let short = run_sor(protocol, 3);
        let long = run_sor(protocol, 9);
        assert_eq!(
            long.proto.merge_scratch_created, short.proto.merge_scratch_created,
            "{protocol}: steady-state SOR iterations allocated scratch sets"
        );
    }
}

/// Notice shipping is refcount bumps into the shared interval log:
/// the deep-copy tripwire stays at zero however many intervals travel.
#[test]
fn notice_shipping_never_deep_clones() {
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let report = run_sor(protocol, 9);
        assert_eq!(
            report.proto.notice_ship_clones, 0,
            "{protocol}: notice shipping must not deep-clone write lists"
        );
    }
    let report = run_false_sharing(9);
    assert_eq!(report.proto.notice_ship_clones, 0);
}

/// Interval closing allocates no notice list in steady state: the
/// fresh write-notice list of an iterative application equals the
/// previous interval's, so the previous record's `Arc` is shared and
/// `interval_close_allocs` goes flat after warm-up — extra iterations
/// close strictly more intervals at **zero** additional notice-list
/// allocations.
#[test]
fn steady_state_interval_closes_allocate_no_notice_lists() {
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let short = run_sor(protocol, 3);
        let long = run_sor(protocol, 9);
        assert!(
            long.proto.interval_close_allocs > 0,
            "{protocol}: warm-up must have built at least one notice list"
        );
        assert_eq!(
            long.proto.interval_close_allocs, short.proto.interval_close_allocs,
            "{protocol}: extra steady-state closes allocated notice lists"
        );
    }
    // Same on the false-sharing merge path (every interval closes the
    // same MW write set).
    let short = run_false_sharing(3);
    let long = run_false_sharing(9);
    assert!(long.proto.diffs_created > short.proto.diffs_created);
    assert_eq!(
        long.proto.interval_close_allocs, short.proto.interval_close_allocs,
        "false-sharing steady-state closes allocated notice lists"
    );
}

/// Closing clocks are delta-shared against the previous close: when no
/// foreign clock entry changed between two closes of the same
/// processor, the later record reuses the earlier one's base `Arc`
/// instead of cloning the whole working clock. A sole writer among
/// passive peers is the canonical case — the peers contribute no
/// intervals, so every barrier's merged global clock leaves the
/// writer's foreign entries untouched and every close after the first
/// shares: `close_vc_shares` is exactly `iters - 1`. The symmetric
/// kernels above advance every entry every interval and share nothing.
#[test]
fn sole_writer_closes_share_their_clock_base() {
    fn run_sole_writer(iters: usize) -> RunReport {
        let mut dsm = Dsm::builder(ProtocolKind::Wfs).nprocs(2).build();
        let data = dsm.alloc_page_aligned::<u64>(1024);
        let outcome = dsm
            .run(move |p| {
                for i in 0..iters {
                    if p.index() == 0 {
                        data.set(p, 0, i as u64);
                    }
                    p.compute(SimTime::from_us(10));
                    p.barrier();
                }
            })
            .expect("sole-writer run completes");
        outcome.report
    }
    let short = run_sole_writer(4);
    let long = run_sole_writer(12);
    assert_eq!(
        short.proto.close_vc_shares, 3,
        "every close after the first must share its predecessor's base"
    );
    assert_eq!(long.proto.close_vc_shares, 11);
    // And sharing is allocation-neutral on the notice side too: the
    // writer closes the same write set every interval.
    assert_eq!(
        long.proto.interval_close_allocs,
        short.proto.interval_close_allocs
    );
}

/// HLRC lazy flushing in steady state: with no demand on the home's
/// copy, deferred closes never encode — `lazy_flush_encodes` is pinned
/// at **zero** however many intervals close (the hits keep counting
/// the avoided encodes). Detailed demand/coalescing behaviour lives in
/// `lazy_flush.rs`.
#[test]
fn lazy_flush_steady_state_never_encodes() {
    use adsm_core::{Dsm, HomePolicy};
    let run = |iters: usize| {
        let mut dsm = Dsm::builder(ProtocolKind::Hlrc)
            .nprocs(NPROCS)
            .home_policy(HomePolicy::Fixed(0))
            .hlrc_lazy_flush(true)
            .build();
        let data = dsm.alloc_page_aligned::<u64>(512);
        let outcome = dsm
            .run(move |p| {
                for it in 0..iters {
                    if p.index() == 1 {
                        data.set(p, 0, it as u64 + 1);
                    }
                    p.compute(SimTime::from_us(20));
                    p.barrier();
                }
            })
            .expect("HLRC lazy run completes");
        outcome.report
    };
    let short = run(3);
    let long = run(9);
    assert!(long.proto.lazy_flush_hits > short.proto.lazy_flush_hits);
    assert_eq!(short.proto.lazy_flush_encodes, 0);
    assert_eq!(
        long.proto.lazy_flush_encodes, 0,
        "undemanded steady-state closes must never encode"
    );
}

/// Steady-state bulk span accesses perform **zero** heap allocations:
/// once the covered pages are faulted in, `read_into`, `write_from`,
/// and explicit span views move bytes straight between the page frames
/// and caller buffers — the per-call `vec![0u8; n]` temporaries of the
/// pre-span-guard bulk paths are gone. Counted with a per-thread
/// allocation counter inside the application closure, so the pin is
/// exact (not a pool proxy) and immune to other tests' threads.
#[test]
fn steady_state_bulk_spans_allocate_nothing() {
    const ELEMS: usize = 2048; // four pages of u64
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(1).build();
    let data = dsm.alloc_page_aligned::<u64>(ELEMS);
    dsm.run(move |p| {
        let mut buf = vec![0u64; ELEMS];
        // Warm-up: fault every page in for write, then read once.
        data.write_from(p, 0, &buf);
        data.read_into(p, 0, &mut buf);
        let before = thread_allocs();
        for round in 0..64u64 {
            data.read_into(p, 0, &mut buf);
            for (i, v) in buf.iter_mut().enumerate() {
                *v = v.wrapping_add(round ^ i as u64);
            }
            data.write_from(p, 0, &buf);
            // Explicit guard spans: zero-copy read and in-place writes.
            let sum: u64 = data.view(p, 7..519).iter().fold(0, u64::wrapping_add);
            let mut w = data.view_mut(p, 1000..1008);
            w.set(0, sum);
            w.update(1, |v| v ^ sum);
            drop(w);
        }
        let spent = thread_allocs() - before;
        assert_eq!(
            spent, 0,
            "steady-state bulk spans performed {spent} heap allocations"
        );
    })
    .expect("bulk-span run completes");
}

/// The chaos delivery layer's fast path: under an explicit perfect
/// scenario the fate decision is a branch, not a draw — steady-state
/// iterations add **zero** page-buffer allocations beyond the plain
/// run's, the journal stays empty (nothing to record when nothing
/// deviates), and every chaos counter is pinned at zero.
#[test]
fn perfect_scenario_steady_state_adds_no_allocations_or_retransmissions() {
    use adsm_core::Scenario;
    fn run_sor_perfect(protocol: ProtocolKind, iters: usize) -> adsm_core::RunOutcome {
        let mut dsm = Dsm::builder(protocol)
            .nprocs(NPROCS)
            .scenario(Scenario::perfect())
            .build();
        let grid = dsm.alloc_page_aligned::<u64>(N * N);
        dsm.run(move |p| {
            let rows = N / p.nprocs();
            let lo = p.index() * rows;
            let hi = lo + rows;
            for it in 0..iters {
                for colour in 0..2usize {
                    for r in lo..hi {
                        if r % 2 != colour {
                            continue;
                        }
                        for c in 0..N {
                            let up = if r == 0 {
                                0
                            } else {
                                grid.get(p, (r - 1) * N + c)
                            };
                            let down = if r + 1 == N {
                                0
                            } else {
                                grid.get(p, (r + 1) * N + c)
                            };
                            grid.set(p, r * N + c, up / 2 + down / 2 + (it + colour) as u64);
                        }
                    }
                    p.compute(SimTime::from_us(20));
                    p.barrier();
                }
            }
        })
        .expect("perfect-scenario SOR run completes")
    }
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let plain = run_sor(protocol, 9);
        let short = run_sor_perfect(protocol, 3);
        let long = run_sor_perfect(protocol, 9);
        // The delivery layer adds no page-buffer demand at all: the
        // perfect run's pool allocations equal the plain run's, and they
        // go flat after warm-up.
        assert_eq!(
            long.report.proto.pool_pages_created, plain.proto.pool_pages_created,
            "{protocol}: the perfect-scenario delivery layer allocated page buffers"
        );
        assert_eq!(
            long.report.proto.pool_pages_created, short.report.proto.pool_pages_created,
            "{protocol}: extra perfect-scenario iterations allocated page buffers"
        );
        // Zero deviations: nothing dropped, retransmitted, duplicated or
        // waited for — and nothing journaled (the record stays an empty
        // Vec, so recording itself allocates nothing).
        let net = &long.report.net;
        assert_eq!(
            net.retransmissions(),
            0,
            "{protocol}: perfect run retransmitted"
        );
        assert_eq!(net.dropped_msgs(), 0);
        assert_eq!(net.duplicate_msgs(), 0);
        assert_eq!(net.timeout_waits(), 0);
        assert!(
            long.journal().expect("scenario runs record").is_empty(),
            "{protocol}: perfect run journaled a deviation"
        );
    }
}

/// The crash-recovery machinery is free until a fault actually fires:
/// a run with a crash *armed* but never reached (scheduled far past the
/// end of execution) performs exactly the plain run's page-buffer
/// allocations, and every recovery counter — epoch drops, crashes,
/// refetches, failover promotions, recovery time — stays pinned at
/// zero. The commit-point scan is a compare against an empty/expired
/// schedule, not a heap structure.
#[test]
fn unfired_crash_machinery_adds_no_allocations_and_no_counters() {
    use adsm_core::{Fault, FaultKind, Scenario};

    fn assert_recovery_counters_zero(r: &RunReport, what: &str) {
        assert_eq!(r.proto.epoch_drops, 0, "{what}: epoch_drops");
        assert_eq!(r.proto.proc_crashes, 0, "{what}: proc_crashes");
        assert_eq!(r.proto.recovery_refetches, 0, "{what}: recovery_refetches");
        assert_eq!(
            r.proto.failover_promotions, 0,
            "{what}: failover_promotions"
        );
        assert_eq!(r.proto.recovery_ns, 0, "{what}: recovery_ns");
        assert_eq!(r.net.epoch_drops(), 0, "{what}: net epoch_drops");
    }

    fn run_sor_armed(protocol: ProtocolKind, iters: usize) -> RunReport {
        let mut s = Scenario::perfect();
        s.name = "armed-but-unfired".to_string();
        // Far beyond any tiny run's virtual end time: the schedule is
        // live the whole run but no commit point ever reaches it.
        s.faults = vec![Fault {
            at: SimTime::from_ns(u64::MAX / 2),
            duration: SimTime::ZERO,
            kind: FaultKind::ProcCrash { proc: 1 },
        }];
        let mut dsm = Dsm::builder(protocol).nprocs(NPROCS).scenario(s).build();
        let grid = dsm.alloc_page_aligned::<u64>(N * N);
        let outcome = dsm
            .run(move |p| {
                let rows = N / p.nprocs();
                let lo = p.index() * rows;
                let hi = lo + rows;
                for it in 0..iters {
                    for colour in 0..2usize {
                        for r in lo..hi {
                            if r % 2 != colour {
                                continue;
                            }
                            for c in 0..N {
                                let up = if r == 0 {
                                    0
                                } else {
                                    grid.get(p, (r - 1) * N + c)
                                };
                                let down = if r + 1 == N {
                                    0
                                } else {
                                    grid.get(p, (r + 1) * N + c)
                                };
                                grid.set(p, r * N + c, up / 2 + down / 2 + (it + colour) as u64);
                            }
                        }
                        p.compute(SimTime::from_us(20));
                        p.barrier();
                    }
                }
            })
            .expect("armed-crash SOR run completes");
        outcome.report
    }

    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let plain = run_sor(protocol, 9);
        assert_recovery_counters_zero(&plain, "plain run");

        let short = run_sor_armed(protocol, 3);
        let long = run_sor_armed(protocol, 9);
        assert_recovery_counters_zero(&long, "armed run");
        // Zero extra page-buffer allocations: equal to the plain run,
        // flat across extra iterations.
        assert_eq!(
            long.proto.pool_pages_created, plain.proto.pool_pages_created,
            "{protocol}: an unfired crash schedule allocated page buffers"
        );
        assert_eq!(
            long.proto.pool_pages_created, short.proto.pool_pages_created,
            "{protocol}: extra armed-run iterations allocated page buffers"
        );
        // And identical protocol work: the armed schedule perturbed
        // nothing on the fault-free path.
        assert_eq!(long.proto.read_faults, plain.proto.read_faults);
        assert_eq!(long.proto.write_faults, plain.proto.write_faults);
        assert_eq!(long.proto.diffs_created, plain.proto.diffs_created);
    }
}

/// The pool's working set stays bounded by the live twin population
/// instead of scaling with run length: created buffers are far fewer
/// than the buffer demand (hits + misses).
#[test]
fn pool_demand_is_served_by_recycling() {
    let report = run_sor(ProtocolKind::Mw, 9);
    let demand = report.proto.pool_pages_created + report.proto.pool_pages_reused;
    assert!(
        report.proto.pool_pages_created * 4 <= demand,
        "most page-buffer demand should be pool hits: created {} of {}",
        report.proto.pool_pages_created,
        demand
    );
}
