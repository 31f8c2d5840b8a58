//! `perfbench` — the repository's single benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-mirage|wide-sabre|serve-noisy> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every input of a run derives from `--seed`; the system under test only
//! ever sees the generated circuits and requests. An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run (`--trace 1`)
//! repeats the same run and then attributes its time to the layers,
//! printing the per-layer metrics. The last stdout line is the result
//! object; the line before it records the host, build profile and the
//! sample count behind every percentile. Workload rationale, metric
//! definitions and the layer → end-to-end prediction table are in
//! `README.md` next to this crate.

mod compile;
mod replica;
mod report;
mod serve;
mod speed;

use report::RunContext;

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The timed window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 40.0;

const USAGE: &str = "usage: perfbench --workload <paper-mirage|wide-sabre|serve-noisy> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<RunContext, String> {
    let mut ctx = RunContext {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => {
                ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                ctx.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if ctx.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(ctx)
}

fn main() {
    let ctx = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        report::nproc()
    );
    let outcome = match ctx.workload.as_str() {
        "paper-mirage" => compile::run(&compile::PAPER_MIRAGE, &ctx),
        "wide-sabre" => compile::run(&compile::WIDE_SABRE, &ctx),
        "serve-noisy" => serve::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    outcome.print(&ctx);
}
