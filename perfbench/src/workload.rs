//! Workloads, their cells, and one verified, failure-counting cell run.

use std::any::Any;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use adsm_apps::{
    barnes, fft3d, ilink, is, run_app_tuned, shallow, sor, tsp, water, App, RunOptions, Scale,
};
use adsm_bench::throughput::THROUGHPUT_PROTOCOLS;
use adsm_core::{ExecBackend, NetStats, ProtocolKind, ProtocolStats, SimTime};

use crate::host::Usage;

/// A named closed-loop workload: every app × protocol cell run one after
/// another by one process, on one backend at one processor count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub backend: ExecBackend,
    pub nprocs: usize,
    pub scale: Scale,
    pub apps: &'static [App],
    pub protos: &'static [ProtocolKind],
}

/// The benchmark's workloads. Why each exists:
///
/// - `sim-paper8`: the paper's evaluation matrix, and the deterministic
///   oracle the golden digests pin. Engine turn handoff is most of the
///   host work; MW/WFS+WG cells exercise the diff codec, SW/SC cells
///   move whole pages. Runnable, but not listed in `BENCHMARK.json`:
///   its host time is almost all context switches of the `notify_all`
///   turn handoff, whose cost on a shared host drifts between runs by
///   as much as the widest bound (IQR ÷ median 0.13–0.28 over sets of
///   four to ten runs, whatever the estimator, pinning, processor count
///   or scale).
/// - `threads-paper2`: the same apps on real threads at 2 processors
///   (one per core of the reference host) and the paper's input sizes:
///   no simulator handoff, so the protocol layers, span guards and
///   world-mutex serialisation show. SC is left out: on the threads
///   backend a known SC race fails about one SC run in five at random,
///   and a benchmark workload must be one on which no run fails.
/// - `threads-small2`: the same cells at `Scale::Small` (SOR: 130 × 512
///   points against 500 × 1024). A cell lasts milliseconds, so per-run
///   set-up and the protocol's per-fault, per-diff and per-message costs
///   weigh more against the apps' own arithmetic than on
///   `threads-paper2`.
///
/// A 64-processor simulator sweep (SOR and IS at `Scale::Large`) was
/// dropped for the same reason as `sim-paper8` is unlisted, with more
/// threads per hand-off (IQR ÷ median 0.17–0.32 over ten runs).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sim-paper8",
        backend: ExecBackend::Sim,
        nprocs: 8,
        scale: Scale::Small,
        apps: &App::ALL,
        protos: &THROUGHPUT_PROTOCOLS,
    },
    Workload {
        name: "threads-paper2",
        backend: ExecBackend::Threads,
        nprocs: 2,
        scale: Scale::Paper,
        apps: &App::ALL,
        protos: COMMON_PROTOCOLS,
    },
    Workload {
        name: "threads-small2",
        backend: ExecBackend::Threads,
        nprocs: 2,
        scale: Scale::Small,
        apps: &App::ALL,
        protos: COMMON_PROTOCOLS,
    },
];

/// The protocols every workload runs, and the ones `wall_s` is split by:
/// `THROUGHPUT_PROTOCOLS` without SC.
pub const COMMON_PROTOCOLS: &[ProtocolKind] = &[
    THROUGHPUT_PROTOCOLS[0],
    THROUGHPUT_PROTOCOLS[1],
    THROUGHPUT_PROTOCOLS[2],
    THROUGHPUT_PROTOCOLS[3],
];

/// The cell run once, untimed, during set-up: cheap on every workload,
/// and it takes every protocol path of a run (faults, diffs, locks,
/// barriers).
pub const WARMUP_CELL: Cell = Cell {
    app: App::Is,
    proto: ProtocolKind::Mw,
};

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same cells at another input scale (the smoke tests use
    /// `Scale::Tiny`).
    pub fn at_scale(self, scale: Scale) -> Workload {
        Workload { scale, ..self }
    }

    /// Every app × protocol cell, in the paper's presentation order.
    pub fn cells(&self) -> Vec<Cell> {
        self.apps
            .iter()
            .flat_map(|&app| self.protos.iter().map(move |&proto| Cell { app, proto }))
            .collect()
    }

    /// Does this workload run on the deterministic simulator?
    pub fn is_sim(&self) -> bool {
        self.backend == ExecBackend::Sim
    }
}

/// One app × protocol cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub app: App,
    pub proto: ProtocolKind,
}

impl Cell {
    /// `APP/PROTO`, as in the failure log.
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.name(), self.proto.name())
    }
}

/// Metric-name key of a protocol (`wall_s.<key>`).
pub fn proto_key(proto: ProtocolKind) -> &'static str {
    match proto {
        ProtocolKind::Mw => "mw",
        ProtocolKind::Sw => "sw",
        ProtocolKind::Wfs => "wfs",
        ProtocolKind::WfsWg => "wfswg",
        other => unreachable!("{other} is not in COMMON_PROTOCOLS"),
    }
}

/// What a finished run reported (the event trace dropped).
#[derive(Clone, Debug)]
pub struct RunStats {
    pub time: SimTime,
    pub net: NetStats,
    pub proto: ProtocolStats,
}

impl RunStats {
    /// The simulated statistics that must repeat exactly on the
    /// simulator: virtual time, message and byte totals, diff and fault
    /// counts.
    pub fn signature(&self) -> [u64; 8] {
        [
            self.time.as_ns(),
            self.net.total_messages(),
            self.net.total_bytes(),
            self.proto.diffs_created,
            self.proto.diffs_applied,
            self.proto.diff_bytes_created,
            self.proto.read_faults,
            self.proto.write_faults,
        ]
    }

    /// Simulated protocol events: messages, faults, diffs created and
    /// applied (the definition `BENCH_throughput.json` uses).
    pub fn events(&self) -> u64 {
        self.net.total_messages()
            + self.proto.read_faults
            + self.proto.write_faults
            + self.proto.diffs_created
            + self.proto.diffs_applied
    }
}

/// One run of one cell.
#[derive(Clone, Debug)]
pub struct Sample {
    pub wall_s: f64,
    pub usage: Usage,
    /// `None` when the run panicked or deadlocked.
    pub stats: Option<RunStats>,
    /// Why the run failed, if it did.
    pub error: Option<String>,
}

/// Runs `cell` once under `catch_unwind`: a verification mismatch, a
/// panic or a deadlock becomes `Sample::error` instead of ending the
/// benchmark.
pub fn run_cell(w: &Workload, cell: Cell, measure_host_costs: bool) -> Sample {
    let opts = RunOptions {
        backend: w.backend,
        measure_host_costs,
        ..RunOptions::default()
    };
    let before = Usage::now();
    let t = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        run_app_tuned(cell.app, cell.proto, w.nprocs, w.scale, &opts)
    }));
    let wall_s = t.elapsed().as_secs_f64();
    let usage = Usage::now().since(before);
    match result {
        Ok(run) => {
            let r = run.outcome.report;
            Sample {
                wall_s,
                usage,
                stats: Some(RunStats {
                    time: r.time,
                    net: r.net,
                    proto: r.proto,
                }),
                error: (!run.ok).then(|| format!("verification: {}", run.detail)),
            }
        }
        Err(payload) => Sample {
            wall_s,
            usage,
            stats: None,
            error: Some(format!("panic: {}", panic_message(payload.as_ref()))),
        },
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Host seconds of `app`'s sequential reference alone at `scale`: the
/// verification work every run of the app does after the DSM run.
pub fn reference_s(app: App, scale: Scale) -> f64 {
    let t = Instant::now();
    match app {
        App::Sor => drop(black_box(sor::reference(&sor::SorParams::new(scale)))),
        App::Is => drop(black_box(is::reference(&is::IsParams::new(scale)))),
        App::Fft3d => drop(black_box(fft3d::reference(&fft3d::FftParams::new(scale)))),
        App::Tsp => {
            let p = tsp::TspParams::new(scale);
            black_box(tsp::held_karp(&tsp::distance_matrix(&p), p.ncities));
        }
        App::Water => drop(black_box(water::reference(&water::WaterParams::new(scale)))),
        App::Shallow => drop(black_box(shallow::reference(&shallow::ShallowParams::new(
            scale,
        )))),
        App::Barnes => drop(black_box(barnes::reference(&barnes::BarnesParams::new(
            scale,
        )))),
        App::Ilink => drop(black_box(ilink::reference(&ilink::IlinkParams::new(scale)))),
    }
    t.elapsed().as_secs_f64()
}
