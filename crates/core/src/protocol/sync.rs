//! Synchronisation: locks and barriers, carrying write notices per lazy
//! release consistency (§2.1).
//!
//! Locks follow TreadMarks: a statically assigned manager forwards
//! acquire requests to the current holder / last releaser; the grant
//! carries the write notices the acquirer has not seen. Releases are
//! purely local. Barriers are centralised at processor 0; arrivals carry
//! the arriver's new intervals and the release broadcast carries the
//! merged set. Barrier time is also when diff garbage collection and the
//! adaptive protocols' barrier-time detection (mechanism 3 of §3.1.2)
//! run.

use adsm_mempage::AccessRights;
use adsm_netsim::{MsgKind, SimTime, TraceKind};
use adsm_vclock::ProcId;

use super::lrc::{self, Ctx, CTRL_BYTES};
use crate::notice::{NoticeKind, PendingNotice};
use crate::world::{Hvn, LockState, PageMode};

/// Outcome of the first half of a lock acquire.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AcquireOutcome {
    /// Lock granted immediately; the acquire is complete.
    Granted,
    /// Lock is held: the caller must block; the releaser finishes the
    /// handshake (integration + wake-up).
    MustBlock,
}

/// First half of a lock acquire: request (+forward) messages, immediate
/// grant if the lock is free, enqueue otherwise.
pub(crate) fn acquire(ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) -> AcquireOutcome {
    ctx.drain_deferred();
    let nprocs = ctx.w.nprocs();
    let manager = ProcId::new((lock_id as usize) % nprocs);
    let state = ctx.w.locks.entry(lock_id).or_insert_with(|| LockState {
        holder: None,
        queue: std::collections::VecDeque::new(),
        last_releaser: manager,
        release_time: SimTime::ZERO,
    });

    let holder = state.holder;
    let last_releaser = state.last_releaser;

    // Fast path: free lock whose last releaser is the requester — it
    // still caches everything; no messages at all (lock caching).
    if holder.is_none() && last_releaser == p {
        ctx.w.locks.get_mut(&lock_id).expect("lock exists").holder = Some(p);
        return AcquireOutcome::Granted;
    }

    let target = holder.unwrap_or(last_releaser);
    let send_at = ctx.now();
    let c_req = ctx
        .w
        .msg(MsgKind::LockRequest, CTRL_BYTES, p, manager, send_at);
    let c_fwd = if manager != target {
        ctx.w.msg(
            MsgKind::LockForward,
            CTRL_BYTES,
            manager,
            target,
            send_at + c_req,
        )
    } else {
        SimTime::ZERO
    };
    ctx.charge(c_req + c_fwd);

    if holder.is_none() {
        // Grant from the last releaser: it closes its interval and ships
        // its knowledge.
        let cost_model = ctx.w.cfg.cost.clone();
        let grantor = last_releaser;
        let now = ctx.now();
        let close_cost = lrc::close_interval(ctx.w, ctx.mems, grantor, now);
        ctx.charge_other(grantor, close_cost);
        ctx.interrupt(grantor);

        let grantor_vc = ctx.w.procs[grantor.index()].vc.clone();
        let bytes = lrc::integrate_from(ctx.w, ctx.mems, p, &grantor_vc);
        let c_grant = ctx
            .w
            .msg(MsgKind::LockGrant, CTRL_BYTES + bytes, grantor, p, now);
        ctx.charge(cost_model.service_interrupt + close_cost + c_grant);

        ctx.w.locks.get_mut(&lock_id).expect("lock exists").holder = Some(p);
        AcquireOutcome::Granted
    } else {
        ctx.w
            .locks
            .get_mut(&lock_id)
            .expect("lock exists")
            .queue
            .push_back(p);
        AcquireOutcome::MustBlock
    }
}

/// Lock release: local under LRC. If waiters are queued, the releaser
/// services the head: closes its interval, ships notices, applies the
/// acquirer's invalidations, and wakes it.
pub(crate) fn release(ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) {
    ctx.drain_deferred();
    let state = ctx
        .w
        .locks
        .get_mut(&lock_id)
        .unwrap_or_else(|| panic!("release of unknown lock {lock_id}"));
    assert_eq!(
        state.holder,
        Some(p),
        "lock {lock_id} released by non-holder {p}"
    );
    state.holder = None;
    state.last_releaser = p;
    state.release_time = ctx.task.clock();
    let next = state.queue.pop_front();

    if let Some(r) = next {
        let cost_model = ctx.w.cfg.cost.clone();
        let now = ctx.now();
        let close_cost = lrc::close_interval(ctx.w, ctx.mems, p, now);
        ctx.charge(close_cost + cost_model.service_interrupt);

        let my_vc = ctx.w.procs[p.index()].vc.clone();
        let bytes = lrc::integrate_from(ctx.w, ctx.mems, r, &my_vc);
        let c_grant = ctx.w.msg(MsgKind::LockGrant, CTRL_BYTES + bytes, p, r, now);

        let st = ctx.w.locks.get_mut(&lock_id).expect("lock exists");
        st.holder = Some(r);
        let wake = ctx.now() + c_grant;
        ctx.task.unblock(r.index(), wake);
    }

    // A lock release is a durable-commit point too — the only kind a
    // locks-only program ever reaches — so scheduled crash and failover
    // events fire here as well as at barriers (whichever commit point
    // the victim hits first). The interval is closed explicitly before
    // the crash: a release with no queued waiter leaves it open, and
    // the crash model requires the arriving interval in the replicated
    // log.
    if let Some(k) = super::recovery::pending_crash(ctx.w, p, ctx.now()) {
        let now = ctx.now();
        let close_cost = lrc::close_interval(ctx.w, ctx.mems, p, now);
        ctx.charge(close_cost);
        super::recovery::crash_at_commit(ctx, p, k);
    }
    if let Some(k) = super::recovery::pending_failover(ctx.w, ctx.now()) {
        super::recovery::failover_at_commit(ctx, p, k);
    }
}

/// Outcome of a barrier arrival.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BarrierOutcome {
    /// Not everyone has arrived; the caller must block.
    MustBlock,
    /// This processor completed the barrier (it arrived last) — everyone
    /// else has been integrated and woken.
    Completed,
}

/// Barrier arrival. Fan-in is an **O(log P) combining tree**
/// ([`crate::world::BarrierTree`]): each arrival contributes its own
/// new interval records and clock at its leaf, then performs every
/// pairwise combine its arrival enables on the path toward the root —
/// vector clocks merged, notice frontiers concatenated in processor
/// order. By the last arrival the root holds the episode's notice
/// frontier, global clock and mechanism-3 candidate pages, so the last
/// arriver's completion work is O(P) bookkeeping — reconcile
/// proxy-closed intervals, derive the global clock — plus the
/// per-processor fan-down: each departing processor receives only the
/// uncovered suffix of every writer's frontier segment
/// ([`lrc::integrate_frontier_slices`]), sliced by clock arithmetic
/// instead of a per-record coverage filter. The flat sweep the tree
/// replaced survives as the `frontier_shipment` oracle of the
/// tree≡flat equivalence tests, and every transient (tree
/// nodes, frontier, payloads, page sets) is pooled on the `World`, so
/// steady-state barriers allocate nothing.
pub(crate) fn barrier_arrive(
    ctx: &mut Ctx<'_>,
    p: ProcId,
    gc: impl FnOnce(&mut Ctx<'_>),
) -> BarrierOutcome {
    ctx.drain_deferred();
    let nprocs = ctx.w.nprocs();
    let manager = ProcId::new(0);
    let now = ctx.now();
    let close_cost = lrc::close_interval(ctx.w, ctx.mems, p, now);
    ctx.charge(close_cost);

    // Arrival message carries the arriver's new intervals.
    let arrive_bytes = new_interval_bytes(ctx.w, p);
    let c_arr = ctx
        .w
        .msg(MsgKind::BarrierArrive, arrive_bytes, p, manager, now);
    ctx.charge(c_arr);

    // Scheduled crash: fires at the victim's first barrier arrival at
    // or after the scheduled instant, after the arriving interval was
    // committed to the replicated log (the durable commit point) and
    // before the arrival is recorded — the outage and the recovery
    // re-integration delay this processor's arrival, which is what
    // makes the others wait out the crash.
    if !ctx.w.crashes.is_empty() {
        if let Some(k) = super::recovery::pending_crash(ctx.w, p, ctx.now()) {
            super::recovery::crash_at_commit(ctx, p, k);
        }
    }

    let arrival = ctx.now();
    ctx.w.barrier.arrived[p.index()] = Some(arrival);

    // Tree fan-in: this arrival's leaf contribution plus the pairwise
    // combines it enables (at most one node per level). Host cost only —
    // the virtual-time arrival message above is unchanged.
    let adapts = ctx.w.policy.adapts();
    let fanin0 = ctx.w.cfg.measure_host_costs.then(std::time::Instant::now);
    {
        let w = &mut *ctx.w;
        let crate::world::BarrierState {
            tree,
            last_release_vc,
            ..
        } = &mut w.barrier;
        let vc = &w.procs[p.index()].vc;
        debug_assert!(
            vc.dominates(last_release_vc),
            "every processor covers the last barrier release"
        );
        tree.arrive(p, vc, &w.log, last_release_vc, adapts);
    }
    if let Some(t0) = fanin0 {
        ctx.w
            .proto
            .barrier_fanin_wall
            .record(t0.elapsed().as_nanos() as u64);
    }

    if ctx.w.barrier.arrived.iter().any(|a| a.is_none()) {
        return BarrierOutcome::MustBlock;
    }

    // --- Completion (this processor arrived last) ---
    let wall0 = ctx.w.cfg.measure_host_costs.then(std::time::Instant::now);
    let t0 = ctx
        .w
        .barrier
        .arrived
        .iter()
        .map(|a| a.expect("all arrived"))
        .fold(SimTime::ZERO, SimTime::max);
    ctx.task.advance_to(t0);
    let cost_model = ctx.w.cfg.cost.clone();
    ctx.charge(cost_model.service_interrupt);

    // Scheduled HLRC home failover: fires at a barrier completion (all
    // intervals closed, no open write sessions) before the fan-down,
    // so notice integration below already sees the promoted homes.
    if !ctx.w.failovers.is_empty() {
        if let Some(k) = super::recovery::pending_failover(ctx.w, ctx.now()) {
            super::recovery::failover_at_commit(ctx, p, k);
        }
    }

    // The tree root holds the episode's notice frontier — every
    // interval closed since the last barrier release, in (writer, seq)
    // order — and, for the adaptive protocols, the pages those
    // intervals wrote (the mechanism-3 candidates). `finish` appends
    // intervals proxy-closed after their writer's arrival (lock grants
    // closing a blocked grantor's interval). The new global clock's
    // entry for q is q's own closed-interval count, since no processor
    // ever knows more of q's intervals than q; the tree's root clock
    // must agree — every proxy close is merged into a later arriver.
    let mut frontier = std::mem::take(&mut ctx.w.bscratch.frontier);
    let mut m3_pages = std::mem::take(&mut ctx.w.bscratch.m3_pages);
    let mut payloads = std::mem::take(&mut ctx.w.bscratch.payloads);
    let mut seg_ends = std::mem::take(&mut ctx.w.bscratch.seg_ends);
    debug_assert!(frontier.is_empty() && m3_pages.is_empty() && seg_ends.is_empty());
    {
        let w = &mut *ctx.w;
        w.barrier
            .tree
            .finish(&w.log, adapts, &mut frontier, &mut m3_pages, &mut seg_ends);
    }
    // The last release's clock is dominated by the new global clock,
    // so its allocation is reused in place of a fresh merge of clones.
    let mut global_vc = std::mem::take(&mut ctx.w.barrier.last_release_vc);
    for q in ProcId::all(nprocs) {
        global_vc.set(q, ctx.w.log.closed(q));
        debug_assert_eq!(
            ctx.w.barrier.tree.root_vc().get(q),
            global_vc.get(q),
            "tree root clock diverged from the log for {q}"
        );
    }

    // Fan-down: hand each processor the frontier suffix slices it has
    // not covered.
    payloads.clear();
    payloads.resize(nprocs, 0);
    for q in ProcId::all(nprocs) {
        payloads[q.index()] =
            lrc::integrate_frontier_slices(ctx.w, ctx.mems, q, &frontier, &seg_ends, &global_vc);
    }

    // Adaptive barrier-time detection (mechanism 3), then GC. The
    // policy observes the barrier first (hysteresis streaks advance on
    // barrier episodes), so its promotion answers below reflect the
    // refusal window that just closed.
    if adapts {
        ctx.w.policy.note_barrier();
        m3_pages.sort_unstable();
        m3_pages.dedup();
        mechanism3(ctx, &m3_pages);
    }
    if ctx.w.gc_requested {
        gc(ctx);
    }

    // Release broadcast.
    let completion = ctx.now();
    for q in ProcId::all(nprocs) {
        let c_rel = ctx.w.msg(
            MsgKind::BarrierRelease,
            CTRL_BYTES + payloads[q.index()],
            manager,
            q,
            completion,
        );
        if q == p {
            ctx.charge(c_rel);
        } else {
            ctx.task.unblock(q.index(), completion + c_rel);
        }
    }
    if p != manager {
        ctx.interrupt(manager);
    }

    ctx.w.barrier.arrived.fill(None);
    ctx.w.barrier.episodes += 1;
    ctx.w.barrier.last_release_vc = global_vc;
    ctx.w.barrier.tree.reset();
    frontier.clear();
    m3_pages.clear();
    seg_ends.clear();
    ctx.w.bscratch.frontier = frontier;
    ctx.w.bscratch.m3_pages = m3_pages;
    ctx.w.bscratch.payloads = payloads;
    ctx.w.bscratch.seg_ends = seg_ends;
    ctx.w.trace_event(completion, TraceKind::Barrier);
    if let Some(wall0) = wall0 {
        // Host cost of the completion: tree reconciliation, per-proc
        // fan-down, mechanism 3, GC and the release broadcast, per
        // barrier episode. The per-arrival fan-in work (leaf + pairwise
        // combines) is recorded separately in `barrier_fanin_wall`.
        ctx.w
            .proto
            .barrier_wall
            .record(wall0.elapsed().as_nanos() as u64);
    }
    BarrierOutcome::Completed
}

/// Payload of a barrier-arrival message: the intervals this processor
/// knows that were closed since the last barrier release.
fn new_interval_bytes(w: &crate::world::World, p: ProcId) -> usize {
    let base = &w.barrier.last_release_vc;
    let mine = &w.procs[p.index()].vc;
    let mut bytes = 0usize;
    for q in ProcId::all(w.nprocs()) {
        for rec in w.log.range(q, base.get(q), mine.get(q)) {
            bytes += rec.wire_size();
        }
    }
    bytes
}

/// Mechanism 3 (§3.1.2): at a barrier every processor is up to date; if
/// one write notice for a page dominates all others, write-write false
/// sharing has stopped. The dominating writer becomes the page's owner
/// (its copy is validated here so it can serve future misses) and every
/// processor's belief flips to SW. `pages` is the candidate set —
/// every page a frontier write notice named, sorted and deduplicated —
/// collected by the completion sweep itself rather than a separately
/// maintained set.
fn mechanism3(ctx: &mut Ctx<'_>, pages: &[adsm_mempage::PageId]) {
    for &page in pages {
        let pgidx = page.index();
        if ctx.w.dir[pgidx].owner.is_some() {
            continue; // still under SW handling somewhere
        }
        if !ctx
            .w
            .policy
            .promote_to_sw_ok(pgidx, ctx.w.dir[pgidx].wants_sw)
        {
            // The policy keeps the page in MW mode — small diffs under
            // WFS+WG (§3.3 priority rule), an open hysteresis window, a
            // static MW hint.
            continue;
        }
        let cands = ctx.w.profiler.last_writes(page);
        if cands.is_empty() {
            continue;
        }
        let dominator = cands
            .iter()
            .copied()
            .find(|c| cands.iter().all(|o| o == c || ctx.w.vc_of(*c).covers(*o)));
        let Some(dom) = dominator else {
            continue; // concurrent writers remain: still falsely shared
        };
        let wlast = dom.proc;

        // Validate the new owner's copy so it can serve whole pages.
        if !ctx.w.procs[wlast.index()].pages[pgidx].missing.is_empty()
            || !ctx.mems[wlast.index()].lock().rights(page).readable()
        {
            lrc::validate_page(ctx, wlast, page);
        }

        let version = ctx.w.dir[pgidx].version + 1;
        ctx.w.dir[pgidx].version = version;
        ctx.w.dir[pgidx].owner = Some(wlast);
        ctx.w.dir[pgidx].owner_since = ctx.now();
        ctx.w.dir[pgidx].drop_pending = false;

        for q in 0..ctx.w.nprocs() {
            let readable = ctx.mems[q].lock().rights(page).readable();
            let pc = &mut ctx.w.procs[q].pages[pgidx];
            debug_assert!(pc.twin.is_none(), "no open sessions at a barrier");
            if pc.mode == PageMode::Mw {
                pc.mode = PageMode::Sw;
                ctx.w.proto.switches_to_sw += 1;
            }
            pc.hvn = Some(Hvn {
                version,
                proc: wlast,
            });
            if !readable && q != wlast.index() {
                // Invalid copies re-fetch from the new owner.
                pc.missing = vec![PendingNotice {
                    interval: dom,
                    kind: NoticeKind::Owner(version),
                }];
            }
        }
        // The owner's page is re-protected so its next write is detected.
        ctx.mems[wlast.index()]
            .lock()
            .set_rights(page, AccessRights::Read);
        let now = ctx.now();
        ctx.w.trace_event(now, TraceKind::SwitchToSw);
    }
}

#[cfg(test)]
mod tests {
    //! Equivalence of the batched barrier fan-in with the pair-wise
    //! integration it replaced: over random interval logs and random
    //! per-processor knowledge, the frontier sweep filtered by
    //! coverage must deliver **byte-identical** notice sets — the same
    //! records, in the same order, totalling the same payload bytes —
    //! as one `integrate_from`-style range walk per processor. The
    //! per-record effects are shared code (`lrc::ship_record_to`), so
    //! this record-set property is exactly what separates the two
    //! paths.

    use adsm_mempage::PageId;
    use adsm_vclock::{IntervalId, ProcId, VectorClock};
    use proptest::prelude::*;

    use crate::notice::{IntervalRecord, NoticeKind, WriteNotice};
    use crate::world::World;
    use crate::{DsmConfig, ProtocolKind};

    const NPAGES: usize = 8;

    /// A random cluster history: per-proc interval counts at the last
    /// barrier release (`base`) and now (`total`), each proc's
    /// knowledge in between, and a random write list per interval.
    #[derive(Clone, Debug)]
    struct History {
        nprocs: usize,
        base: Vec<u32>,
        total: Vec<u32>,
        /// `known[p][q]` in `[base[q], total[q]]`, `known[p][p] == total[p]`.
        known: Vec<Vec<u32>>,
        /// `writes[q][s]` for interval `(q, s+1)`.
        writes: Vec<Vec<Vec<WriteNotice>>>,
    }

    fn history_strategy() -> impl Strategy<Value = History> {
        (2usize..6)
            .prop_flat_map(|nprocs| {
                let per_proc = prop::collection::vec(
                    // (base, extra-closed-since, per-interval write lists)
                    (0u32..4, 0u32..5),
                    nprocs,
                );
                let knowledge =
                    prop::collection::vec(prop::collection::vec(0u32..5, nprocs), nprocs);
                let writes = prop::collection::vec(
                    prop::collection::vec(
                        prop::collection::vec((0usize..NPAGES, any::<bool>(), 0u32..4), 0..4),
                        9, // >= max total intervals per proc
                    ),
                    nprocs,
                );
                (Just(nprocs), per_proc, knowledge, writes)
            })
            .prop_map(|(nprocs, per_proc, knowledge, writes)| {
                let base: Vec<u32> = per_proc.iter().map(|&(b, _)| b).collect();
                let total: Vec<u32> = per_proc.iter().map(|&(b, e)| b + e).collect();
                let known: Vec<Vec<u32>> = (0..nprocs)
                    .map(|p| {
                        (0..nprocs)
                            .map(|q| {
                                if p == q {
                                    total[q]
                                } else {
                                    // Clamp the raw sample into [base, total].
                                    base[q] + knowledge[p][q] % (total[q] - base[q] + 1)
                                }
                            })
                            .collect()
                    })
                    .collect();
                let writes: Vec<Vec<Vec<WriteNotice>>> = writes
                    .into_iter()
                    .map(|per_interval| {
                        per_interval
                            .into_iter()
                            .map(|list| {
                                list.into_iter()
                                    .map(|(pg, owner, v)| WriteNotice {
                                        page: PageId::new(pg),
                                        kind: if owner {
                                            NoticeKind::Owner(v)
                                        } else {
                                            NoticeKind::NonOwner
                                        },
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                History {
                    nprocs,
                    base,
                    total,
                    known,
                    writes,
                }
            })
    }

    /// Builds a `World` whose log, clocks and barrier base reflect the
    /// history.
    fn build_world(h: &History) -> World {
        let mut cfg = DsmConfig::new(ProtocolKind::Wfs);
        cfg.nprocs = h.nprocs;
        cfg.npages = NPAGES;
        let mut w = World::new(cfg);
        for q in 0..h.nprocs {
            let qid = ProcId::new(q);
            for s in 1..=h.total[q] {
                let vc = VectorClock::new(h.nprocs);
                w.log.push(
                    qid,
                    IntervalRecord {
                        id: IntervalId::new(qid, s),
                        vc: crate::notice::CloseVc::fresh(vc, qid, s),
                        writes: h.writes[q][(s - 1) as usize].clone().into(),
                    },
                );
            }
        }
        for p in 0..h.nprocs {
            for q in 0..h.nprocs {
                w.procs[p].vc.set(ProcId::new(q), h.known[p][q]);
            }
        }
        w.barrier.last_release_vc = VectorClock::new(h.nprocs);
        for q in 0..h.nprocs {
            w.barrier.last_release_vc.set(ProcId::new(q), h.base[q]);
        }
        w
    }

    /// The record sequence the pair-wise walk ships to `p`, with wire
    /// sizes: `integrate_from`'s ranges against the merged global
    /// clock.
    fn pairwise_shipment(w: &World, p: usize, global: &VectorClock) -> Vec<(IntervalId, usize)> {
        let pid = ProcId::new(p);
        let mut out = Vec::new();
        for q in ProcId::all(w.nprocs()) {
            if q == pid {
                continue;
            }
            let from = w.procs[p].vc.get(q);
            let to = global.get(q);
            for rec in w.log.range(q, from, to) {
                out.push((rec.id, rec.wire_size()));
            }
        }
        out
    }

    /// The record sequence the batched fan-in ships to `p`: the
    /// frontier (one sweep bounded by the barrier base), filtered by
    /// `p`'s coverage.
    fn frontier_shipment(w: &World, p: usize) -> Vec<(IntervalId, usize)> {
        let mut frontier = Vec::new();
        for q in ProcId::all(w.nprocs()) {
            let from = w.barrier.last_release_vc.get(q);
            for rec in w.log.range(q, from, w.log.closed(q)) {
                frontier.push(rec.id);
            }
        }
        frontier
            .into_iter()
            .filter(|&id| !w.procs[p].vc.covers(id))
            .map(|id| (id, w.log.record(id).wire_size()))
            .collect()
    }

    /// The record sequence crash recovery re-integrates into a
    /// restarted `p`: `recovery::crash_at_commit`'s phase-4 walk is
    /// `integrate_from` against a global clock set to the log horizon
    /// (`closed(q)` per writer), run with `p`'s durable pre-crash
    /// clock intact.
    fn recovery_shipment(w: &World, p: usize) -> Vec<(IntervalId, usize)> {
        let mut horizon = VectorClock::new(w.nprocs());
        for q in ProcId::all(w.nprocs()) {
            horizon.set(q, w.log.closed(q));
        }
        pairwise_shipment(w, p, &horizon)
    }

    /// Flat oracle for recovery: one `frontier_shipment`-style sweep
    /// over the FULL replicated log — every writer from sequence zero,
    /// not from the barrier base — filtered by `p`'s durable clock
    /// coverage.
    fn full_log_shipment(w: &World, p: usize) -> Vec<(IntervalId, usize)> {
        let mut out = Vec::new();
        for q in ProcId::all(w.nprocs()) {
            for rec in w.log.range(q, 0, w.log.closed(q)) {
                if !w.procs[p].vc.covers(rec.id) {
                    out.push((rec.id, rec.wire_size()));
                }
            }
        }
        out
    }

    /// Drives the combining tree over an explicit arrival order.
    /// `inject_after` positions model lock grants proxy-closing the
    /// just-arrived processor's next interval on its behalf: the
    /// grantor's clock ticks, the record lands in the log after its
    /// leaf snapshot, and the acquirer — the next arriver — merges the
    /// grantor's clock (as `integrate_from` does on a grant). Returns
    /// the assembled frontier and per-writer segment ends.
    fn run_tree(
        w: &mut World,
        order: &[usize],
        inject_after: &[usize],
    ) -> (Vec<IntervalId>, Vec<u32>) {
        for (k, &qi) in order.iter().enumerate() {
            let q = ProcId::new(qi);
            {
                let crate::world::BarrierState {
                    tree,
                    last_release_vc,
                    ..
                } = &mut w.barrier;
                tree.arrive(q, &w.procs[qi].vc, &w.log, last_release_vc, false);
            }
            if inject_after.contains(&k) && k + 1 < order.len() {
                let seq = w.log.closed(q) + 1;
                w.procs[qi].vc.set(q, seq);
                w.log.push(
                    q,
                    IntervalRecord {
                        id: IntervalId::new(q, seq),
                        vc: crate::notice::CloseVc::fresh(w.procs[qi].vc.clone(), q, seq),
                        writes: Vec::new().into(),
                    },
                );
                let grantor_vc = w.procs[qi].vc.clone();
                w.procs[order[k + 1]].vc.merge(&grantor_vc);
            }
        }
        let mut frontier = Vec::new();
        let mut m3 = Vec::new();
        let mut seg_ends = Vec::new();
        w.barrier
            .tree
            .finish(&w.log, false, &mut frontier, &mut m3, &mut seg_ends);
        (frontier, seg_ends)
    }

    /// The record sequence the tree fan-down ships to `p`: per-writer
    /// suffix slices of the assembled frontier, the covered prefix cut
    /// off by clock arithmetic — mirrors
    /// `lrc::integrate_frontier_slices`.
    fn slices_shipment(
        w: &World,
        p: usize,
        frontier: &[IntervalId],
        seg_ends: &[u32],
    ) -> Vec<(IntervalId, usize)> {
        let mut out = Vec::new();
        let mut start = 0u32;
        for q in ProcId::all(w.nprocs()) {
            let end = seg_ends[q.index()];
            let seg = &frontier[start as usize..end as usize];
            start = end;
            if seg.is_empty() {
                continue;
            }
            let covered = w.procs[p].vc.get(q).saturating_sub(seg[0].seq - 1);
            let skip = (covered as usize).min(seg.len());
            for &id in &seg[skip..] {
                out.push((id, w.log.record(id).wire_size()));
            }
        }
        out
    }

    /// Deterministic permutation of `0..n` from ranking keys.
    fn order_from_keys(n: usize, keys: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The combining tree assembles — for every arrival order —
        /// exactly the flat sweep's frontier, and its per-processor
        /// fan-down slices ship byte-identical record sequences to
        /// both the flat coverage filter and the pair-wise
        /// `integrate_from` walk. Mid-schedule proxy closes (lock
        /// grants closing a blocked arriver's interval) are folded in.
        #[test]
        fn tree_equals_flat_fanin(
            h in history_strategy(),
            keys in prop::collection::vec(any::<u64>(), 8),
            inject in prop::collection::vec(0usize..8, 0..3),
        ) {
            let mut w = build_world(&h);
            let order = order_from_keys(h.nprocs, &keys);
            let inject: Vec<usize> =
                inject.iter().map(|&i| i % h.nprocs).collect();
            let (frontier, seg_ends) = run_tree(&mut w, &order, &inject);

            // The assembled frontier equals the flat sweep's, in
            // (writer, seq) order over the final log.
            let mut flat = Vec::new();
            for q in ProcId::all(h.nprocs) {
                let from = w.barrier.last_release_vc.get(q);
                for rec in w.log.range(q, from, w.log.closed(q)) {
                    flat.push(rec.id);
                }
            }
            prop_assert_eq!(&frontier, &flat);
            prop_assert_eq!(seg_ends.len(), h.nprocs);

            // The root clock equals the per-writer closed counts (the
            // completion's global clock).
            for q in ProcId::all(h.nprocs) {
                prop_assert_eq!(w.barrier.tree.root_vc().get(q), w.log.closed(q));
            }

            // Per-processor fan-down slices == flat coverage filter ==
            // pair-wise walk.
            let mut global = VectorClock::new(h.nprocs);
            for p in 0..h.nprocs {
                global.merge(&w.procs[p].vc);
            }
            for p in 0..h.nprocs {
                let tree_ship = slices_shipment(&w, p, &frontier, &seg_ends);
                let front = frontier_shipment(&w, p);
                let pair = pairwise_shipment(&w, p, &global);
                prop_assert_eq!(&tree_ship, &front, "proc {} tree vs flat", p);
                prop_assert_eq!(&tree_ship, &pair, "proc {} tree vs pairwise", p);
            }
        }

        /// The batched fan-in delivers a byte-identical notice set —
        /// same records, same order, same payload bytes — to one
        /// pair-wise `integrate_from` range walk per departing
        /// processor, over random interval logs.
        #[test]
        fn frontier_equals_pairwise_integration(h in history_strategy()) {
            let w = build_world(&h);
            // The global clock the completion derives from the log
            // equals the merge of every processor's clock.
            let mut global = VectorClock::new(h.nprocs);
            for p in 0..h.nprocs {
                global.merge(&w.procs[p].vc);
            }
            for q in ProcId::all(h.nprocs) {
                prop_assert_eq!(global.get(q), w.log.closed(q));
            }
            for p in 0..h.nprocs {
                let pair = pairwise_shipment(&w, p, &global);
                let front = frontier_shipment(&w, p);
                prop_assert_eq!(&pair, &front, "proc {} shipment diverged", p);
                let pair_bytes: usize = pair.iter().map(|&(_, b)| b).sum();
                let front_bytes: usize = front.iter().map(|&(_, b)| b).sum();
                prop_assert_eq!(pair_bytes, front_bytes);
            }
        }

        /// Crash recovery's re-integration walk ships — for every
        /// processor and random history — exactly the full-log flat
        /// frontier filtered by the victim's durable clock: the same
        /// records, in the same order, totalling the same bytes. Every
        /// shipped record is strictly above the durable clock (nothing
        /// the victim already integrated is replayed), and the durable
        /// clock plus the shipment together reach the log horizon for
        /// every writer (no gaps in the rebuilt view).
        #[test]
        fn recovery_reintegration_equals_full_log_frontier(h in history_strategy()) {
            let w = build_world(&h);
            for p in 0..h.nprocs {
                let ship = recovery_shipment(&w, p);
                let flat = full_log_shipment(&w, p);
                prop_assert_eq!(&ship, &flat, "proc {} recovery shipment diverged", p);

                let mut reached = w.procs[p].vc.clone();
                for &(id, _) in &ship {
                    // Never re-deliver what the durable clock covers,
                    // and never skip: per-writer delivery is dense.
                    prop_assert!(id.seq > w.procs[p].vc.get(id.proc));
                    prop_assert_eq!(reached.get(id.proc) + 1, id.seq);
                    reached.set(id.proc, id.seq);
                }
                for q in ProcId::all(h.nprocs) {
                    prop_assert_eq!(
                        reached.get(q),
                        w.log.closed(q),
                        "proc {} writer {} short of the horizon",
                        p,
                        q.index()
                    );
                }
            }
        }
    }

    /// A proc that learned of another's interval through a lock grant
    /// (knowledge above the barrier base) must not receive that record
    /// again at the barrier.
    #[test]
    fn frontier_skips_lock_granted_records() {
        let h = History {
            nprocs: 2,
            base: vec![0, 0],
            total: vec![2, 0],
            known: vec![vec![2, 0], vec![1, 0]], // proc 1 already has (0,1)
            writes: vec![
                vec![
                    vec![WriteNotice {
                        page: PageId::new(0),
                        kind: NoticeKind::NonOwner,
                    }],
                    vec![WriteNotice {
                        page: PageId::new(1),
                        kind: NoticeKind::NonOwner,
                    }],
                ],
                vec![],
            ],
        };
        let w = build_world(&h);
        let shipped = frontier_shipment(&w, 1);
        assert_eq!(shipped.len(), 1, "only the uncovered record ships");
        assert_eq!(shipped[0].0, IntervalId::new(ProcId::new(0), 2));
    }
}
