//! The gate harness shared by the gate bins (`paper`, `routing_runtime`,
//! `transpile_runtime`, `coverage_runtime`, `serve_net`,
//! `layout_strategies`). Each bin owns
//! its cases, its measurement, its pins and its thresholds; this module
//! owns argument parsing ([`Cli`]), the pin check and its
//! `--print-fingerprints` dump ([`Pin`]), the `BENCH_*.json` writer
//! ([`Json`], [`document`]), the cache-stats line ([`CacheStats`]) and
//! the pass/fail verdict ([`Verdict`], [`finish`]).

use mirage_core::Target;
use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

/// Hosts with fewer hardware threads skip the scaling gates: with nothing
/// to scale onto, the gate would measure the machine, not the code.
pub const SCALING_CORES: usize = 4;

/// The host's available parallelism (1 when it cannot be queried).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The fastest of `runs` calls of `f`, in milliseconds.
pub fn best_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

/// One bin's command line: `--quick`, `--out PATH`, and the bin's own
/// flags. Anything else, or a valued flag without its value, is a usage
/// error rather than a silent fallback to the default output path.
pub struct Cli {
    /// Binary name, for the usage line and failure messages.
    pub bin: &'static str,
    /// Where the report goes without `--out`.
    pub default_out: &'static str,
    /// Extra flags that take no value.
    pub switches: &'static [&'static str],
    /// Extra flags that take one value, with the value's placeholder.
    pub valued: &'static [(&'static str, &'static str)],
}

/// Parsed arguments; see [`Cli::parse`].
#[derive(Debug)]
pub struct Args {
    /// `--quick`: the CI-sized smoke run.
    pub quick: bool,
    /// The report path (`--out`, else the bin's default).
    pub out: String,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// `"quick"` or `"full"`, as recorded in the report.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// Whether the declared `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for the declared valued `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.given.iter().rev().find(|(f, _)| *f == flag)?;
        given.1.as_deref()
    }
}

impl Cli {
    /// The one-line usage string.
    pub fn usage(&self) -> String {
        let valued = self.valued.iter().map(|(f, v)| format!(" [{f} {v}]"));
        let switches = self.switches.iter().map(|f| format!(" [{f}]"));
        let flags: String = valued.chain(switches).collect();
        format!("usage: {} [--quick] [--out PATH]{flags}", self.bin)
    }

    /// Parse `args` (without the program name).
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            quick: false,
            out: self.default_out.to_owned(),
            given: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value_of = |flag: &str| match args.next() {
                Some(v) if !v.starts_with("--") => Ok(v),
                _ => Err(format!("{flag} needs a value")),
            };
            if arg == "--quick" {
                parsed.quick = true;
            } else if arg == "--out" {
                parsed.out = value_of("--out")?;
            } else if let Some(&flag) = self.switches.iter().find(|&&f| f == arg) {
                parsed.given.push((flag, None));
            } else if let Some(&(flag, _)) = self.valued.iter().find(|(f, _)| *f == arg) {
                parsed.given.push((flag, Some(value_of(flag)?)));
            } else {
                return Err(format!("unknown argument '{arg}'"));
            }
        }
        Ok(parsed)
    }

    /// Parse the process arguments, exiting with a usage error on failure.
    pub fn parse_env(&self) -> Args {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| self.usage_error(&e))
    }

    /// Print `message` and the usage line, then exit with code 2.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("{}: {message}\n{}", self.bin, self.usage());
        std::process::exit(2)
    }
}

/// A JSON value as the reports write it; `Display` renders it on one line.
#[derive(Debug)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// A number with a fixed count of decimals (`null` if not finite).
    Num(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep their order.
    Obj(Vec<(&'static str, Json)>),
}

/// `x` with `decimals` fixed decimals.
pub fn num(x: f64, decimals: usize) -> Json {
    Json::Num(x, decimals)
}

/// A fingerprint as its `0x`-prefixed 16-digit hex string.
pub fn hex(fingerprint: u64) -> Json {
    Json::Str(format!("0x{fingerprint:016X}"))
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x, d) if x.is_finite() => write!(f, "{x:.d$}"),
            Json::Num(..) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' | '\\' => write!(f, "\\{c}")?,
                        c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(key, value)| format!("{}: {value}", Json::from(*key)))
                    .collect();
                write!(f, "{{{}}}", fields.join(", "))
            }
        }
    }
}

impl Json {
    /// Render a report: each field of a top-level object on its own line,
    /// and each element of a top-level array of objects on its own line.
    pub fn pretty(&self) -> String {
        let Json::Obj(fields) = self else {
            return format!("{self}\n");
        };
        let lines: Vec<String> = fields
            .iter()
            .map(|(key, value)| {
                let key = Json::from(*key);
                match value {
                    Json::Arr(items) if items.iter().any(|v| matches!(v, Json::Obj(_))) => {
                        let items: Vec<String> = items.iter().map(|v| format!("    {v}")).collect();
                        format!("  {key}: [\n{}\n  ]", items.join(",\n"))
                    }
                    _ => format!("  {key}: {value}"),
                }
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

/// Print the scalar and object fields of each case object as a table, so
/// the console and the report cannot disagree. Columns follow the first
/// case.
pub fn print_cases(cases: &[Json]) {
    let scalars = |case: &Json| -> Vec<(&'static str, String)> {
        let Json::Obj(fields) = case else {
            return Vec::new();
        };
        let cell = |value: &Json| match value {
            Json::Arr(_) => None,
            Json::Str(s) => Some(s.clone()),
            scalar => Some(scalar.to_string()),
        };
        fields
            .iter()
            .filter_map(|(key, value)| Some((*key, cell(value)?)))
            .collect()
    };
    let Some(first) = cases.first() else { return };
    let columns: Vec<&str> = scalars(first).into_iter().map(|(key, _)| key).collect();
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|case| scalars(case).into_iter().map(|(_, cell)| cell).collect())
        .collect();
    crate::print_table(&columns, &rows);
}

/// The report every gate bin writes: `bench`, `mode`, `host: {cores}`,
/// `config`, `cases`, then any bin-specific top-level fields.
pub fn document(
    bench: &'static str,
    args: &Args,
    config: Json,
    cases: Vec<Json>,
    extra: Vec<(&'static str, Json)>,
) -> Json {
    let mut fields = vec![
        ("bench", bench.into()),
        ("mode", args.mode().into()),
        ("host", Json::Obj(vec![("cores", host_cores().into())])),
        ("config", config),
        ("cases", Json::Arr(cases)),
    ];
    fields.extend(extra);
    Json::Obj(fields)
}

/// The shared cost cache's hits, misses and contention after a case ran.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats([u64; 3]);

impl CacheStats {
    /// Read `target`'s cache counters.
    pub fn of(target: &Target) -> Self {
        let (hits, misses) = target.cache_stats();
        CacheStats([hits, misses, target.cache().contention()])
    }

    /// The `cache_hits` / `cache_misses` / `cache_contention` case fields.
    pub fn fields(&self) -> [(&'static str, Json); 3] {
        let [hits, misses, contention] = self.0;
        [
            ("cache_hits", hits.into()),
            ("cache_misses", misses.into()),
            ("cache_contention", contention.into()),
        ]
    }

    /// Print the counters summed over all cases.
    pub fn print_total(stats: impl IntoIterator<Item = CacheStats>) {
        let [h, m, c] = stats
            .into_iter()
            .fold([0; 3], |a, s| [a[0] + s.0[0], a[1] + s.0[1], a[2] + s.0[2]]);
        println!(
            "\ncache_stats: hits={h} misses={m} contention={c} (shared cost cache, all cases)"
        );
    }
}

/// A pinned value: compared for equality, printed as the literal that
/// appears in the bin's pin table.
pub trait Pin: PartialEq + Copy {
    /// The value as a source literal.
    fn literal(&self) -> String;
}

/// A routed-circuit pin: (fingerprint, swaps, mirrors).
pub type Sanity = (u64, usize, usize);

impl Pin for Sanity {
    fn literal(&self) -> String {
        format!("(0x{:016X}, {}, {})", self.0, self.1, self.2)
    }
}

/// An atlas file pin: its FNV-1a fingerprint.
impl Pin for u64 {
    fn literal(&self) -> String {
        format!("0x{self:016X}")
    }
}

/// Print `got` as the source of the pin table `table`, to paste back after
/// an intentional behaviour change.
pub fn print_pins<P: Pin>(table: &str, got: &[(&str, P)]) {
    println!(
        "const {table}: &[(&str, {})] = &[",
        std::any::type_name::<P>()
    );
    for (name, value) in got {
        println!("    ({name:?}, {}),", value.literal());
    }
    println!("];");
}

/// Accumulated gate failures; `main` hands the verdict to [`finish`].
#[derive(Debug, Default)]
pub struct Verdict {
    failures: Vec<String>,
}

impl Verdict {
    /// Record `failure` unless `ok`.
    pub fn require(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.failures.push(failure.into());
        }
    }

    /// Every measured entry must match its pin in `pinned` (called `table`
    /// in messages): a drifted value and an entry with no pin both fail.
    pub fn pins<P: Pin>(&mut self, table: &str, pinned: &[(&str, P)], got: &[(&str, P)]) {
        for &(name, value) in got {
            match pinned.iter().find(|(n, _)| *n == name) {
                Some(&(_, want)) => self.require(
                    want == value,
                    format!(
                        "{table} drift {name}: got {}, pinned {}",
                        value.literal(),
                        want.literal()
                    ),
                ),
                None => self.require(false, format!("{table}: no pinned entry for {name}")),
            }
        }
    }

    /// Gate the ratio `got` at `>= required`, printing the outcome.
    pub fn at_least(&mut self, what: &str, got: f64, required: f64) {
        let ok = got >= required;
        let outcome = if ok { "ok" } else { "FAIL" };
        println!("{what}: {got:.2}x (needs >= {required:.2}x) -> {outcome}");
        self.require(ok, format!("{what} {got:.2}x is below {required:.2}x"));
    }

    /// [`Verdict::at_least`] on hosts with at least [`SCALING_CORES`]
    /// hardware threads; only reported below that.
    pub fn scaling(&mut self, what: &str, got: f64, required: f64) {
        let cores = host_cores();
        if cores >= SCALING_CORES {
            self.at_least(what, got, required);
        } else {
            println!(
                "{what}: {got:.2}x (gate skipped: host parallelism {cores} < {SCALING_CORES})"
            );
        }
    }

    /// `Ok` when every gate passed, else every failure message.
    pub fn into_result(self) -> Result<(), Vec<String>> {
        if self.failures.is_empty() {
            Ok(())
        } else {
            Err(self.failures)
        }
    }
}

/// The tail of every gate bin's `main`: write `report` to `out` (also when
/// a gate failed, so the numbers are there to inspect), then exit nonzero
/// if the write failed or the verdict holds a failure.
pub fn finish(bin: &str, out: &str, report: &Json, verdict: Verdict) -> ExitCode {
    if let Err(e) = std::fs::write(out, report.pretty()) {
        eprintln!("{bin}: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");
    match verdict.into_result() {
        Ok(()) => ExitCode::SUCCESS,
        Err(failures) => {
            for f in failures {
                eprintln!("{bin}: FAIL {f}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        bin: "gate",
        default_out: "BENCH_gate.json",
        switches: &["--chaos"],
        valued: &[("--workers", "N")],
    };

    fn parse(args: &[&str]) -> Result<Args, String> {
        CLI.parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_declared_flags() {
        let a = parse(&["--quick", "--workers", "2", "--chaos", "--out", "x.json"]).unwrap();
        assert!(a.quick && a.switch("--chaos"));
        assert_eq!(a.value("--workers"), Some("2"));
        assert_eq!(a.out, "x.json");
        assert_eq!(a.mode(), "quick");

        let a = parse(&[]).unwrap();
        assert_eq!((a.out.as_str(), a.mode()), ("BENCH_gate.json", "full"));
        assert!(!a.switch("--chaos") && a.value("--workers").is_none());
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse(&["--quik"]).unwrap_err().contains("--quik"));
        assert!(parse(&["stray"]).is_err());
        // Another bin's flag is unknown here.
        assert!(parse(&["--print-fingerprints"]).is_err());
    }

    #[test]
    fn rejects_a_flag_missing_its_value() {
        assert!(parse(&["--quick", "--out"]).unwrap_err().contains("--out"));
        assert!(parse(&["--out", "--quick"]).is_err());
        assert!(parse(&["--workers"]).unwrap_err().contains("--workers"));
    }

    #[test]
    fn usage_lists_every_flag() {
        assert_eq!(
            CLI.usage(),
            "usage: gate [--quick] [--out PATH] [--workers N] [--chaos]"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::Obj(vec![("name", "qft \"32\"\\\n\u{1}".into())]);
        assert_eq!(j.to_string(), r#"{"name": "qft \"32\"\\\u000a\u0001"}"#);
    }

    #[test]
    fn numbers_render_fixed_and_non_finite_as_null() {
        let j = Json::Arr(vec![
            num(1.23456, 3),
            num(f64::NAN, 2),
            7u64.into(),
            true.into(),
        ]);
        assert_eq!(j.to_string(), "[1.235, null, 7, true]");
        assert_eq!(hex(0xAB).to_string(), "\"0x00000000000000AB\"");
    }

    #[test]
    fn pretty_puts_each_case_on_its_own_line() {
        let args = parse(&["--quick"]).unwrap();
        let doc = document(
            "gate",
            &args,
            Json::Obj(vec![("seed", 7u64.into())]),
            vec![
                Json::Obj(vec![("name", "a".into())]),
                Json::Obj(vec![("name", "b".into())]),
            ],
            vec![("chaos", "skipped".into())],
        );
        let cores = host_cores();
        assert_eq!(
            doc.pretty(),
            format!(
                "{{\n  \"bench\": \"gate\",\n  \"mode\": \"quick\",\n  \
                 \"host\": {{\"cores\": {cores}}},\n  \"config\": {{\"seed\": 7}},\n  \
                 \"cases\": [\n    {{\"name\": \"a\"}},\n    {{\"name\": \"b\"}}\n  ],\n  \
                 \"chaos\": \"skipped\"\n}}\n"
            )
        );
    }

    #[test]
    fn pins_report_drifted_and_missing_entries() {
        const PINNED: &[(&str, Sanity)] = &[("a", (0xA, 1, 2)), ("b", (0xB, 3, 4))];
        let mut v = Verdict::default();
        v.pins("SANITY", PINNED, &[("a", (0xA, 1, 2)), ("b", (0xB, 3, 5))]);
        v.pins("SANITY", PINNED, &[("c", (0xC, 0, 0))]);
        let failures = v.into_result().unwrap_err();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("drift b") && failures[0].contains("3, 5"));
        assert!(failures[1].contains("no pinned entry for c"));

        let mut v = Verdict::default();
        v.pins("ATLAS_FNV", &[("cz", 0x12u64)], &[("cz", 0x12)]);
        assert!(v.into_result().is_ok());
    }

    #[test]
    fn verdict_fails_when_any_gate_fails() {
        let mut v = Verdict::default();
        v.at_least("speedup", 2.5, 2.0);
        v.require(true, "unused");
        assert!(v.into_result().is_ok());

        let mut v = Verdict::default();
        v.at_least("speedup", 2.5, 2.0);
        v.at_least("other speedup", 1.2, 1.5);
        v.require(true, "unused");
        let failures = v.into_result().unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("other speedup"));
    }
}
