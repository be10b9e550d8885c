//! The repository benchmark: runs one named workload from a workload seed,
//! checks every answer, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer ledger. See `README.md` beside this crate for
//! every metric and workload.

mod batch;
mod output;
mod serve;
mod stats;
mod timing_comm;
mod workload;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rayon::prelude::*;

use output::{Metrics, Tally, END_TO_END, PER_LAYER};
use workload::{Workload, WORKERS};

/// Parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Length of the measuring window, seconds.
    pub seconds: f64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Directory for files the run writes (the serve snapshot).
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scratch = PathBuf::from(".bench_build");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--scratch" => scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scratch,
    })
}

/// Sum of squares of `0..1024`, the rayon probe's expected answer.
const PROBE_SUM: u64 = 1023 * 1024 * 2047 / 6;

/// Median microseconds of a 1024-element `map(x*x).sum()` as a rayon
/// parallel call at [`WORKERS`] threads, and as a plain serial iterator.
/// A wrong sum counts as a failed operation.
fn rayon_probe(tally: &mut Tally, metrics: &mut Metrics) {
    const CALLS: usize = 400;
    const SERIAL_BATCH: u32 = 100;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(WORKERS)
        .build()
        .expect("the rayon shim's pool builder is infallible");
    let mut par_us = Vec::with_capacity(CALLS);
    let mut par_ok = true;
    pool.install(|| {
        for _ in 0..CALLS {
            let t = Instant::now();
            let sum: u64 = (0..1024u64).into_par_iter().map(|x| black_box(x) * x).sum();
            par_us.push(t.elapsed().as_secs_f64() * 1e6);
            par_ok &= black_box(sum) == PROBE_SUM;
        }
    });
    let mut serial_us = Vec::with_capacity(CALLS);
    let mut serial_ok = true;
    for _ in 0..CALLS {
        let t = Instant::now();
        for _ in 0..SERIAL_BATCH {
            let sum: u64 = (0..1024u64).map(|x| black_box(x) * x).sum();
            serial_ok &= black_box(sum) == PROBE_SUM;
        }
        serial_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(SERIAL_BATCH));
    }
    tally.check(par_ok && serial_ok, || "rayon probe summed wrong".into());
    metrics.insert("rayon.par_call_us", stats::median(&par_us).unwrap_or(0.0));
    metrics.insert(
        "rayon.serial_call_us",
        stats::median(&serial_us).unwrap_or(0.0),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    match args.workload {
        Workload::ServeReplay => serve::run(&args, &mut tally, &mut metrics),
        w => batch::run(w, &args, &mut tally, &mut metrics),
    }
    let table = if args.trace {
        rayon_probe(&mut tally, &mut metrics);
        metrics.insert("bench.error_rate", tally.error_rate());
        PER_LAYER
    } else {
        END_TO_END
    };
    eprintln!(
        "perfbench: {} operations, {} failed",
        tally.attempted, tally.failed
    );
    println!("{}", output::result_line(tally, table, &metrics));
    ExitCode::SUCCESS
}
