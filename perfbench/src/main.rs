//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see `workload::WORKLOADS`) and prints a readable
//! summary — seed, cell order, every failed cell with its message, every
//! metric — followed, as the last line of standard output, by one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics, or per-layer ones with `--trace 1`). A traced run also
//! writes the benchmark's spans as Chrome trace-event JSON under
//! `.bench_out/` in the working directory.

use std::process::ExitCode;

use adsm_perfbench::host::pin_to_one_cpu;
use adsm_perfbench::probes::quantile;
use adsm_perfbench::workload::{Workload, WORKLOADS};
use adsm_perfbench::{run, Options};

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = &opts.workload;
    println!(
        "# workload {} | backend {} | {} procs | scale {} | seed {} | {} s | trace {}",
        w.name,
        w.backend,
        w.nprocs,
        w.scale,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "# host parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // The simulator executes one processor at a time. Left on two CPUs,
    // its turn handoffs become cross-CPU wake-ups whose latency follows
    // host steal time, not the program; on one CPU they cost what the
    // handoff itself costs.
    if w.is_sim() {
        match pin_to_one_cpu() {
            Some(cpu) => println!("# simulator workload pinned to cpu {cpu}"),
            None => println!("# could not pin the simulator workload to one cpu"),
        }
    }
    let out = run(&opts);
    println!("# cell order: {}", out.order.join(" "));
    println!(
        "# host context-switch round trip {:.0} ns (median of {} samples)",
        quantile(&out.switch_ns, 0.5),
        out.switch_ns.len()
    );
    for f in &out.failures {
        println!("# failed: {f}");
    }
    println!(
        "# failed_frac {:.4} ({} of {} cell runs)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if opts.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.trace.json", w.name, opts.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, out.spans.chrome_json()))
        {
            Ok(()) => println!("# spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
