//! The result line, the metric catalogue, and the statistics behind it.
//!
//! Every workload reports the same metric names: the end-to-end set on an
//! untraced run and the per-layer set on a traced run. The catalogue below
//! is the single list both the code and `BENCHMARK.json` follow; a layer
//! metric that a workload does not exercise reads 0 (see `README.md`).

use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p90", "ms"),
    ("compile_2q_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
    ("interactive_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("out_depth_geomean", "iswap_dur"),
    ("out_swaps_total", "count"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("qasm.parse_us", "us"),
    ("qasm.emit_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("passes.clean_us", "us"),
    ("consolidate_us", "us"),
    ("consolidate.ir_ops", "count"),
    ("trials.precompute_us", "us"),
    ("placement.vf2_us", "us"),
    ("placement.vf2_hits", "count"),
    ("placement.propose_us", "us"),
    ("router.refine_ms", "ms"),
    ("router.route_ms", "ms"),
    ("router.calls", "count"),
    ("router.gates_per_s", "1/s"),
    ("router.swaps_per_call", "count"),
    ("router.mirror_accept_ratio", "ratio"),
    ("absorb_us", "us"),
    ("absorb.fused", "count"),
    ("postselect_ms", "ms"),
    ("postselect.score_calls", "count"),
    ("postselect.candidates", "count"),
    ("target.metrics_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.contention", "count"),
    ("atlas.load_ms", "ms"),
    ("calibration.swap_us", "us"),
    ("calibration.swaps", "count"),
    ("cache.misses_after_swap", "count"),
    ("queue.wait_ms_p50", "ms"),
    ("queue.wait_ms_p99", "ms"),
    ("queue.pending_p99", "count"),
    ("worker.compute_ms_p50", "ms"),
    ("worker.compute_ms_p99", "ms"),
    ("net.overhead_ms_p50", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output passed every correctness check.
    pub correct: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed a check.
    pub failed: u64,
    /// Measured values by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Sample count behind each percentile, by metric name.
    pub samples: Vec<(&'static str, usize)>,
    /// Free-form facts about the run (check sampling, trace validity, …).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Record how many samples a percentile metric rests on.
    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    /// Print the human summary to stderr, a context line and then the
    /// result line to stdout. The result line carries exactly the
    /// catalogue for the run's mode: a missing end-to-end metric is a bug
    /// in the benchmark; a missing per-layer metric reads 0 (not
    /// exercised by this workload).
    pub fn print(mut self, ctx: &RunContext) {
        let catalogue: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in &self.values {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in this mode's catalogue"
            );
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
            let value = match value {
                Some(v) => v,
                None if ctx.trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() {
                value
            } else {
                self.notes.push(format!("{name} was not finite"));
                self.correct = false;
                0.0
            };
            eprintln!("  {name:<28} {value:>16.6} {unit}");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        for note in &self.notes {
            eprintln!("  note: {note}");
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        println!(
            "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {}, \"profile\": \"{}\", \"samples\": {{{}}}, \"notes\": [{}]}}}}",
            json_string(&ctx.workload),
            ctx.seed,
            json_number(ctx.seconds),
            u8::from(ctx.trace),
            nproc(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            samples.join(", "),
            notes.join(", ")
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// The command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Host parallelism as the standard library reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of unsorted samples; 0 when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Geometric mean of positive samples; 0 when there are none.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = samples.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn json_number(x: f64) -> String {
    // `{:?}` keeps every digit and always includes a decimal point or
    // exponent, which JSON accepts.
    format!("{x:?}")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
