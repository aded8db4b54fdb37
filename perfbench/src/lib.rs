//! The repository benchmark. One call runs a named workload as a closed
//! loop: set-up (sequential baselines plus one warm-up cell), then every
//! app × protocol cell one after another in a seeded order, pass after
//! pass, until the time budget is spent and every cell has run at least
//! once. Every run is verified against its app's sequential reference;
//! on the simulator every run must also repeat the first run's simulated
//! statistics exactly. Failures are counted, not fatal.
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats
//! every cell with the program's host-cost histograms on, times each
//! layer crate's public API from outside (see [`probes`]), and reports
//! the per-layer ledger; it also records the benchmark's own spans.

pub mod host;
pub mod probes;
pub mod spans;
pub mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use adsm_apps::{sequential_time, App};
use adsm_core::NsHistogram;

use host::Usage;
use probes::quantile;
use spans::Spans;
use workload::{
    proto_key, reference_s, run_cell, Cell, RunStats, Sample, Workload, COMMON_PROTOCOLS,
    WARMUP_CELL,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub workload: Workload,
    /// Seeds the shuffle of the cell order (app inputs are fixed presets).
    pub seed: u64,
    /// Time budget of the measured loop; every cell runs at least once.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark run.
pub struct Outcome {
    /// No cell run failed.
    pub correct: bool,
    /// Cell runs made (warm-up, timed and traced).
    pub attempted: u64,
    /// Cell runs that failed verification, panicked, deadlocked or (on
    /// the simulator) did not repeat their first run's statistics.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed run: cell, phase and message.
    pub failures: Vec<String>,
    /// The seeded cell order.
    pub order: Vec<String>,
    /// The benchmark's spans (empty unless traced).
    pub spans: Spans,
    /// [`host::switch_round_trip_ns`], sampled before every cell run.
    pub switch_ns: Vec<f64>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// The samples of one cell.
#[derive(Default)]
struct CellRuns {
    timed: Vec<Sample>,
    traced: Vec<Sample>,
    /// Simulated statistics of the cell's first run (simulator only).
    signature: Option<[u64; 8]>,
}

/// Failure bookkeeping shared by every phase.
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Applies the simulator determinism check to `s`, then counts it.
    fn check(
        &mut self,
        w: &Workload,
        cell: Cell,
        runs: &mut CellRuns,
        s: &mut Sample,
        phase: &str,
    ) {
        self.attempted += 1;
        if w.is_sim() && s.error.is_none() {
            if let Some(sig) = s.stats.as_ref().map(RunStats::signature) {
                match runs.signature {
                    None => runs.signature = Some(sig),
                    Some(first) if first != sig => {
                        s.error = Some(format!(
                            "nondeterministic: simulated statistics {sig:?} differ from the first run's {first:?}"
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        if let Some(e) = &s.error {
            self.failures
                .push(format!("{} ({phase}): {e}", cell.label()));
        }
    }
}

/// Deterministic Fisher–Yates shuffle of `0..n` driven by SplitMix64.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Runs the workload and computes its metrics.
pub fn run(opts: &Options) -> Outcome {
    let w = &opts.workload;
    let cells = w.cells();
    let order = shuffled(cells.len(), opts.seed);
    let mut spans = Spans::new(opts.trace);
    let root = spans.open(format!("workload {}", w.name), None);
    let mut runs: Vec<CellRuns> = cells.iter().map(|_| CellRuns::default()).collect();
    let mut ledger = Ledger {
        attempted: 0,
        failures: Vec::new(),
    };

    // Set-up: sequential baselines plus the warm-up cell, repeated.
    let warm = cells
        .iter()
        .position(|&c| c == WARMUP_CELL)
        .expect("every workload runs the warm-up cell");
    let mut setup_s = Vec::new();
    let mut sequential = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let span = spans.open("setup", root);
        let t = Instant::now();
        sequential = w
            .apps
            .iter()
            .map(|&app| (app, sequential_time(app, w.scale)))
            .collect();
        let mut s = run_cell(w, WARMUP_CELL, false);
        setup_s.push(t.elapsed().as_secs_f64());
        spans.close(span);
        ledger.check(w, WARMUP_CELL, &mut runs[warm], &mut s, "warm-up");
    }

    // The measured closed loop. Traced runs interleave an untraced and a
    // host-cost run of each cell, alternating which goes first.
    let start = Instant::now();
    let mut pass = 0;
    let mut switch_ns = Vec::new();
    loop {
        let mut ran = false;
        for &i in &order {
            if start.elapsed().as_secs_f64() >= opts.seconds && !runs[i].timed.is_empty() {
                continue;
            }
            ran = true;
            let cell = cells[i];
            switch_ns.push(host::switch_round_trip_ns());
            let span = spans.open(format!("cell {}", cell.label()), root);
            let kinds: &[bool] = match (opts.trace, pass % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in kinds {
                let name = if traced {
                    "app run (host costs)"
                } else {
                    "app run"
                };
                let sub = spans.open(name, span);
                let mut s = run_cell(w, cell, traced);
                spans.close(sub);
                let phase = if traced { "traced" } else { "timed" };
                ledger.check(w, cell, &mut runs[i], &mut s, phase);
                if traced {
                    runs[i].traced.push(s);
                } else {
                    runs[i].timed.push(s);
                }
            }
            spans.close(span);
        }
        if !ran {
            break;
        }
        pass += 1;
    }

    let failed = ledger.failures.len() as u64;
    let mut m = Metrics::default();
    if opts.trace {
        layer_metrics(&mut m, w, &cells, &runs, &switch_ns, &mut spans, root);
    } else {
        end_to_end_metrics(
            &mut m,
            &cells,
            &runs,
            &sequential,
            &setup_s,
            ledger.attempted,
            failed,
        );
    }
    spans.close(root);
    Outcome {
        correct: failed == 0,
        attempted: ledger.attempted,
        failed,
        metrics: m.0,
        failures: ledger.failures,
        order: order.iter().map(|&i| cells[i].label()).collect(),
        spans,
        switch_ns,
    }
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }
}

/// Median of `f` over `samples` (`None` when no sample has a value).
fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> Option<f64>) -> Option<f64> {
    let v: Vec<f64> = samples.iter().filter_map(f).collect();
    (!v.is_empty()).then(|| quantile(&v, 0.5))
}

/// Per-cell median of `f` over one sample list of every cell (cells
/// where `f` has no value are skipped).
fn per_cell(
    runs: &[CellRuns],
    list: fn(&CellRuns) -> &[Sample],
    f: impl Fn(&Sample) -> Option<f64>,
) -> Vec<f64> {
    runs.iter().filter_map(|r| median_of(list(r), &f)).collect()
}

fn timed(r: &CellRuns) -> &[Sample] {
    &r.timed
}

fn traced(r: &CellRuns) -> &[Sample] {
    &r.traced
}

fn gmean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end_metrics(
    m: &mut Metrics,
    cells: &[Cell],
    runs: &[CellRuns],
    sequential: &[(App, adsm_core::SimTime)],
    setup_s: &[f64],
    attempted: u64,
    failed: u64,
) {
    m.push("setup_s", quantile(setup_s, 0.5), "s");
    // Every cell has at least one timed sample.
    let wall = per_cell(runs, timed, |s| Some(s.wall_s));
    m.push("wall_s", wall.iter().sum(), "s");
    for &proto in COMMON_PROTOCOLS {
        let sum: f64 = cells
            .iter()
            .zip(&wall)
            .filter(|(c, _)| c.proto == proto)
            .map(|(_, w)| w)
            .sum();
        m.push(format!("wall_s.{}", proto_key(proto)), sum, "s");
    }
    let ms: Vec<f64> = wall.iter().map(|w| w * 1e3).collect();
    m.push("cell_ms.gmean", gmean(&ms), "ms");
    m.push(
        "cpu_s",
        per_cell(runs, timed, |s| Some(s.usage.cpu_s)).iter().sum(),
        "s",
    );
    let speedups: Vec<f64> = cells
        .iter()
        .zip(runs)
        .filter_map(|(c, r)| {
            let vt = median_of(&r.timed, |s| {
                s.stats.as_ref().map(|st| st.time.as_ns() as f64)
            })?;
            let seq = sequential.iter().find(|(a, _)| *a == c.app)?.1.as_ns() as f64;
            Some(seq / vt)
        })
        .collect();
    m.push("speedup_gmean", gmean(&speedups), "x");
    m.push(
        "ok_frac",
        1.0 - ratio(failed as f64, attempted as f64),
        "ratio",
    );
    // The DSM's own memory (the paper's Table 3 metric). Peak host RSS
    // is a per-layer metric: on the threads backend it swung 37–51 MB
    // between runs with malloc arena growth.
    let storage: f64 = per_cell(runs, timed, |s| {
        s.stats
            .as_ref()
            .map(|st| st.proto.peak_storage_bytes as f64)
    })
    .iter()
    .sum();
    m.push("storage_mb", storage / (1 << 20) as f64, "MiB");
}

fn layer_metrics(
    m: &mut Metrics,
    w: &Workload,
    cells: &[Cell],
    runs: &[CellRuns],
    switch_ns: &[f64],
    spans: &mut Spans,
    root: Option<spans::SpanId>,
) {
    // Sum over cells of the per-cell median of a traced-run statistic.
    let tr = |f: &dyn Fn(&RunStats) -> f64| -> f64 {
        per_cell(runs, traced, |s| s.stats.as_ref().map(f))
            .iter()
            .sum()
    };
    let hist = |f: &dyn Fn(&RunStats) -> &NsHistogram| {
        let mut h = NsHistogram::default();
        for s in runs.iter().flat_map(|r| &r.traced) {
            if let Some(st) = &s.stats {
                h.merge(f(st));
            }
        }
        h
    };
    let wall_untraced: f64 = per_cell(runs, timed, |s| Some(s.wall_s)).iter().sum();
    let wall: f64 = per_cell(runs, traced, |s| Some(s.wall_s)).iter().sum();
    let cpu: f64 = per_cell(runs, traced, |s| Some(s.usage.cpu_s)).iter().sum();
    let vcsw: f64 = per_cell(runs, traced, |s| Some(s.usage.vcsw as f64))
        .iter()
        .sum();
    let ivcsw: f64 = per_cell(runs, traced, |s| Some(s.usage.ivcsw as f64))
        .iter()
        .sum();
    let events = tr(&|s| s.events() as f64);
    let diffs_created = tr(&|s| s.proto.diffs_created as f64);
    let diffs_applied = tr(&|s| s.proto.diffs_applied as f64);
    let diff_bytes = tr(&|s| s.proto.diff_bytes_created as f64);

    // Layer probes, sized from the workload.
    let probe = |name: &str, spans: &mut Spans| spans.open(format!("probe {name}"), root);
    let span = probe("engine.handoff", spans);
    let handoff = probes::engine_handoff_ns(w.nprocs);
    spans.close(span);
    let span = probe("engine.wake", spans);
    let wake = probes::engine_wake_ns(w.nprocs);
    spans.close(span);
    let span = probe("vclock.merge", spans);
    let vc_merge = probes::vclock_merge_ns(w.nprocs);
    spans.close(span);
    let span = probe("mempage.diff", spans);
    let diff = probes::diff_costs(ratio(diff_bytes, diffs_created));
    spans.close(span);
    let span = probe("mempage.pool", spans);
    let pool_copy = probes::pool_copy_ns();
    spans.close(span);
    let span = probe("memio.view", spans);
    let (view_read, view_write) = probes::memio_view_ns();
    spans.close(span);
    let mut verify_s = 0.0;
    for &app in w.apps {
        let span = spans.open(format!("reference {}", app.name()), root);
        let s = reference_s(app, w.scale);
        spans.close(span);
        verify_s += s * cells.iter().filter(|c| c.app == app).count() as f64;
    }

    m.push("engine.handoff_ns.p50", quantile(&handoff, 0.5), "ns");
    m.push("engine.handoff_ns.p99", quantile(&handoff, 0.99), "ns");
    m.push("engine.wake_ns.p50", quantile(&wake, 0.5), "ns");
    m.push("engine.wake_ns.p99", quantile(&wake, 0.99), "ns");
    m.push("engine.vcsw_per_event", ratio(vcsw, events), "count/event");
    m.push(
        "engine.ivcsw_per_event",
        ratio(ivcsw, events),
        "count/event",
    );
    m.push(
        "engine.host_ns_per_event",
        ratio(wall * 1e9, events),
        "ns/event",
    );
    m.push("proc.parallelism", ratio(cpu, wall), "ratio");

    let validate = hist(&|s| &s.proto.validate_wall);
    let validate_s =
        tr(&|s| s.proto.validate_wall.mean_ns() * s.proto.validate_wall.count() as f64) / 1e9;
    m.push(
        "lrc.validate_calls",
        tr(&|s| s.proto.validate_wall.count() as f64),
        "count",
    );
    m.push(
        "lrc.validate_ns.p50",
        validate.percentile_ns(0.5) as f64,
        "ns",
    );
    m.push(
        "lrc.validate_ns.p99",
        validate.percentile_ns(0.99) as f64,
        "ns",
    );
    m.push("lrc.validate_s", validate_s, "s");

    let encode_s = diffs_created * diff.encode_ns / 1e9;
    m.push("mempage.diff_dirty_words", diff.dirty_words as f64, "count");
    m.push("mempage.encode_ns", diff.encode_ns, "ns");
    m.push("mempage.apply_ns", diff.apply_ns, "ns");
    m.push("mempage.merge4_ns", diff.merge4_ns, "ns");
    m.push(
        "mempage.diff_est_s",
        encode_s + diffs_applied * diff.apply_ns / 1e9,
        "s",
    );
    m.push("mempage.pool_copy_ns", pool_copy, "ns");
    let reused = tr(&|s| s.proto.pool_pages_reused as f64);
    let created = tr(&|s| s.proto.pool_pages_created as f64);
    m.push(
        "mempage.pool_hit_ratio",
        ratio(reused, reused + created),
        "ratio",
    );

    let barrier = hist(&|s| &s.proto.barrier_wall);
    let fanin = hist(&|s| &s.proto.barrier_fanin_wall);
    let barrier_s =
        tr(&|s| s.proto.barrier_wall.mean_ns() * s.proto.barrier_wall.count() as f64) / 1e9;
    let fanin_s =
        tr(&|s| s.proto.barrier_fanin_wall.mean_ns() * s.proto.barrier_fanin_wall.count() as f64)
            / 1e9;
    m.push(
        "sync.barrier_episodes",
        tr(&|s| s.proto.barrier_wall.count() as f64),
        "count",
    );
    m.push(
        "sync.barrier_ns.p50",
        barrier.percentile_ns(0.5) as f64,
        "ns",
    );
    m.push(
        "sync.barrier_ns.p99",
        barrier.percentile_ns(0.99) as f64,
        "ns",
    );
    m.push("sync.barrier_s", barrier_s, "s");
    m.push("sync.fanin_ns.p50", fanin.percentile_ns(0.5) as f64, "ns");
    m.push("sync.fanin_ns.p99", fanin.percentile_ns(0.99) as f64, "ns");
    m.push("sync.fanin_s", fanin_s, "s");
    m.push("vclock.merge_ns", vc_merge, "ns");
    m.push("memio.view_read_ns", view_read, "ns");
    m.push("memio.view_write_ns", view_write, "ns");

    let grants = tr(&|s| s.proto.ownership_grants as f64);
    let refusals = tr(&|s| s.proto.ownership_refusals as f64);
    m.push(
        "proto.read_faults",
        tr(&|s| s.proto.read_faults as f64),
        "count",
    );
    m.push(
        "proto.write_faults",
        tr(&|s| s.proto.write_faults as f64),
        "count",
    );
    m.push(
        "proto.twins",
        tr(&|s| s.proto.twins_created as f64),
        "count",
    );
    m.push("proto.diffs_created", diffs_created, "count");
    m.push("proto.diffs_applied", diffs_applied, "count");
    m.push("proto.diff_kb", diff_bytes / 1024.0, "KiB");
    m.push(
        "proto.pages_transferred",
        tr(&|s| s.proto.pages_transferred as f64),
        "count",
    );
    m.push("proto.own_grants", grants, "count");
    m.push("proto.own_refusals", refusals, "count");
    m.push(
        "proto.grant_ratio",
        ratio(grants, grants + refusals),
        "ratio",
    );
    m.push(
        "proto.switch_to_mw",
        tr(&|s| s.proto.switches_to_mw as f64),
        "count",
    );
    m.push(
        "proto.switch_to_sw",
        tr(&|s| s.proto.switches_to_sw as f64),
        "count",
    );
    m.push("proto.gc_runs", tr(&|s| s.proto.gc_runs as f64), "count");
    m.push(
        "netsim.msgs",
        tr(&|s| s.net.total_messages() as f64),
        "count",
    );
    m.push(
        "netsim.kb",
        tr(&|s| s.net.total_bytes() as f64) / 1024.0,
        "KiB",
    );

    m.push("apps.cells", cells.len() as f64, "count");
    m.push("apps.events", events, "count");
    m.push("apps.verify_s", verify_s, "s");

    // Host time the layers above account for. The diff apply cost is
    // already inside `validate_page`, so only the encode estimate is
    // added; GC validation inside barrier completion may be counted
    // twice. Engine handoff and world-mutex waits have no count from
    // outside and stay in the unattributed rest.
    let attributed = validate_s + barrier_s + fanin_s + encode_s + verify_s;
    m.push("ledger.attributed_s", attributed, "s");
    m.push("ledger.coverage", ratio(attributed, wall), "ratio");
    m.push("ledger.unattributed_s", wall - attributed, "s");
    m.push(
        "trace.overhead_frac",
        ratio(wall, wall_untraced) - 1.0,
        "ratio",
    );
    m.push("host.switch_ns", quantile(switch_ns, 0.5), "ns");
    m.push(
        "proc.peak_rss_mb",
        Usage::now().maxrss_kb as f64 / 1024.0,
        "MiB",
    );
}
