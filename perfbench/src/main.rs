//! The repository's benchmark: three closed-loop workloads (one client, one
//! thread, the next transaction starts when the previous one resolved),
//! each run in its own process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-mem|wal-history|repo-xml|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with the benchmark's spans around each layer and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod case;
mod chaos_wl;
mod checks;
mod measure;
mod repo_wl;
mod wal_wl;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["sweep-mem", "wal-history", "repo-xml"];

/// End-to-end metrics every workload reports in an untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("txn_per_s", "1/s"),
    ("txn_ms_p50", "ms"),
    ("txn_ms_p99", "ms"),
    ("cpu_ms_per_txn", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports; a layer a workload does not
/// pass through reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("chaos.build_us", "us"),
    ("p2p.run_us", "us"),
    ("obs.monitor_us", "us"),
    ("obs.flight_us", "us"),
    ("chaos.oracle_us", "us"),
    ("chaos.digest_us", "us"),
    ("spec.conform_us", "us"),
    ("obs.analytics_us", "us"),
    ("obs.profile_us", "us"),
    ("obs.series_us", "us"),
    ("trace.render_us", "us"),
    ("store.append_us", "us"),
    ("store.recover_dir_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("core.recover_in_doubt_us", "us"),
    ("xml.parse_us", "us"),
    ("xml.serialize_us", "us"),
    ("doc.materialize_us", "us"),
    ("query.select_us", "us"),
    ("query.update_us", "us"),
    ("core.comp_derive_us", "us"),
    ("core.comp_apply_us", "us"),
    ("p2p.msgs_per_txn", "count"),
    ("p2p.retransmits_per_txn", "count"),
    ("p2p.dedup_suppressed_per_txn", "count"),
    ("p2p.heap_pushes_per_txn", "count"),
    ("p2p.useful_delivery_ratio", "ratio"),
    ("trace.events_per_txn", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("chaos.journaled_ratio", "ratio"),
    ("core.journal_entries_per_txn", "count"),
    ("store.segments_rotated", "count"),
    ("store.recovery_entries", "count"),
    ("core.comp_actions_per_txn", "count"),
    ("doc.materialized_ratio", "ratio"),
    ("query.effects_per_txn", "count"),
    ("xml.nodes_per_txn", "count"),
    ("resolve_ticks_p50", "ticks"),
    ("recover_ms_p50", "ms"),
    ("recover_ms_h1000", "ms"),
    ("recover_ms_h2000", "ms"),
    ("recover_ms_h3000", "ms"),
    ("recover_ms_h4000", "ms"),
    ("wal_bytes_per_txn", "B"),
    ("txn_per_s_traced", "1/s"),
];

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?} or all)"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    problem_count: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<String, f64>,
    /// Workload-specific figures printed for people, not in the JSON.
    pub info: BTreeMap<String, f64>,
}

impl Report {
    pub fn check(&mut self, check: checks::Check) {
        if let Err(e) = check {
            self.problem(e);
        }
    }

    pub fn problem(&mut self, msg: String) {
        self.problem_count += 1;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    fn correct(&self) -> bool {
        self.problem_count == 0
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_report(args: &Args, report: &Report) {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("attempted={} failed={}", report.attempted, report.failed);
    let mut metrics = Vec::new();
    let list: Vec<(String, &str, f64)> = if args.trace {
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u, report.layer.get(*n).copied().unwrap_or(0.0))).collect()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u, report.e2e.get(n).copied().unwrap_or(0.0))).collect()
    };
    for (name, unit, value) in &list {
        println!("{name:<30} {value:>14.4} {unit}");
        metrics.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value)));
    }
    for (name, value) in &report.info {
        println!("{name:<30} {value:>14.4} (untraced extra)");
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    if report.problem_count > report.problems.len() as u64 {
        println!("problem: … {} more", report.problem_count - report.problems.len() as u64);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// Runs every workload, each in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("workload process starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        if !out.status.success() || !last.starts_with("{\"correct\": true") {
            correct = false;
        }
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        // `"metrics": {"a": {…}, "b": {…}}}` → `"<w>.a": {…}, "<w>.b": {…}`.
        if let Some(body) = last.split_once("\"metrics\": {\"").and_then(|(_, b)| b.strip_suffix("}}")) {
            metrics.push(format!("\"{w}.{}", body.replace("}, \"", &format!("}}, \"{w}."))));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    if let Err(e) = checks::self_test() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    // Every file the run writes (`wal-history`'s WAL segments, and anything
    // the libraries put in the temp dir, which is pointed here too) lands
    // in a scratch directory inside the working directory, removed at the
    // end.
    let scratch = PathBuf::from(".perfbench-scratch").join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).expect("scratch directory is writable");
    let scratch = scratch.canonicalize().expect("scratch directory exists");
    std::env::set_var("TMPDIR", &scratch);
    let mut report = match args.workload.as_str() {
        "sweep-mem" => chaos_wl::run(&args),
        "wal-history" => wal_wl::run(&args, &scratch),
        "repo-xml" => repo_wl::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    if args.trace {
        let traced = report.e2e.get("txn_per_s").copied().unwrap_or(0.0);
        report.layer.insert("txn_per_s_traced".into(), traced);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    print_report(&args, &report);
    ExitCode::SUCCESS
}
