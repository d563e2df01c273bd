//! `perfbench` — the repository benchmark for the BG/L all-to-all
//! simulator.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--size full|smoke]
//! ```
//!
//! One closed-loop client runs the named workload: one simulation (or one
//! suite) at a time, for `--seconds`. With `--trace 0` it prints the
//! end-to-end metrics (host time, set-up time, peak memory, simulated
//! cycles); with `--trace 1` it rebuilds the simulation layer by layer
//! from outside, timing each public call into `bgl-torus`, `bgl-model`,
//! `bgl-core`, `bgl-sim` and `bgl-harness`, and prints the per-layer
//! metrics. Every run checks its results; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Malformed
//! flags exit 2 with one line on stderr. `--size smoke` shrinks every
//! workload for the benchmark's own tests.

mod aa;
mod report;
mod single;
mod suite;

use report::Outcome;

/// The seed at which results are compared with the recorded fingerprints
/// (the simulator's own default workload seed).
const DEFAULT_SEED: u64 = 0xaa11;

const WORKLOADS: [&str; 4] = [
    "dense_aa_8x8x8",
    "full_machine_32x32x20",
    "sparse_streams_16x8x8",
    "paper_suite_quick",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == v)
                        .ok_or_else(|| format!("unknown workload {v:?} (one of {WORKLOADS:?})"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a non-negative integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<u32>() {
                    Ok(n) if (1..=3600).contains(&n) => n as f64,
                    _ => return Err(format!("--seconds needs an integer in 1..=3600, got {v:?}")),
                };
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got {v:?}")),
                };
            }
            "--size" => {
                size = match value()? {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    v => return Err(format!("--size needs full or smoke, got {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
    })
}

/// The host stamp: logical CPUs, git commit, argv and rustc version.
fn host_stamp() -> String {
    // Keep git's repository search inside the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string());
    format!(
        "{{{}, \"rustc\": \"{}\"}}",
        bgl_bench::host_meta_json(),
        bgl_bench::json_escape(&rustc)
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| fail(&e));
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = nproc.min(2);
    let threads = match (args.workload, args.trace) {
        ("paper_suite_quick", _) => jobs,
        // The traced dense run also times the engine on two shards.
        ("dense_aa_8x8x8", true) => 2,
        _ => 1,
    };
    if threads > nproc {
        fail(&format!(
            "{} needs {threads} threads but only {nproc} logical CPUs are available",
            args.workload
        ));
    }

    println!(
        "perfbench: workload={} seed={} seconds={} trace={} size={:?} threads={threads}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.size
    );
    println!("host {}", host_stamp());
    let default_seed = args.seed == DEFAULT_SEED;
    let out: Outcome = match args.workload {
        "paper_suite_quick" => {
            let spec = suite::SuiteSpec::new(args.size, args.seed, jobs);
            match args.trace {
                false => suite::timed_run(&spec, args.seconds, default_seed),
                true => suite::traced_run(&spec, default_seed),
            }
        }
        name => {
            let spec = match name {
                "dense_aa_8x8x8" => single::Spec::dense(args.size, args.seed),
                "full_machine_32x32x20" => single::Spec::full_machine(args.size, args.seed),
                _ => single::Spec::sparse_streams(args.size, args.seed),
            };
            match args.trace {
                false => single::timed_run(&spec, args.seconds, default_seed),
                true => single::traced_run(&spec, default_seed),
            }
        }
    };
    out.print();
    if !out.correct() {
        std::process::exit(1);
    }
}
