//! The repository benchmark.
//!
//! ```text
//! e2ebench --workload <offline-check|stream-durable|gateway-lag>
//!          --seed <n> --seconds <s> --trace <0|1>
//! e2ebench compare <parent-dir> [<change-dir>]
//! ```
//!
//! `--trace 0` runs one workload untraced and prints its end-to-end
//! metrics; `--trace 1` runs the traced layer suite (spans around every
//! layer call, stats-snapshot deltas, and the two layer ladders) and
//! prints the per-layer metrics. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics named in
//! `BENCHMARK.json`. See `e2ebench/README.md` for the metric map.

mod compare;
mod host;
mod ladder;
mod lag;
mod offline;
mod plans;
mod report;
mod stats;
mod stream;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["offline-check", "stream-durable", "gateway-lag"];

/// Command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// splitmix64: a small deterministic generator for everything the
/// benchmark itself draws (request order, planted positions).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Time of one [`reference_slice`] on the 2-CPU reference host when
/// it is not contended: the unit host speed is measured in.
pub const NOMINAL_SLICE_SECS: f64 = 60e-6;
/// Slices in one between-window speed probe (about 6 ms).
const PROBE_SLICES: usize = 100;

/// How much slower than nominal the host runs right now (1.0 =
/// nominal), from a probe of reference slices on an otherwise idle
/// benchmark.
pub fn host_slowness() -> f64 {
    (0..PROBE_SLICES).map(|_| reference_slice()).sum::<f64>()
        / PROBE_SLICES as f64
        / NOMINAL_SLICE_SECS
}

/// A short fixed CPU and memory workload independent of the code
/// under test (formatting, number parsing, small allocations, an
/// ordered map), timed to track how fast the host runs right now.
pub fn reference_slice() -> f64 {
    let t0 = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut acc = 0u64;
    let mut rng = Rng::new(7);
    for i in 0..400u64 {
        let text = format!("{{\"p\":{},\"x\":{}}}", i % 16, rng.next_u64() % 1000);
        let v: u64 = text
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse::<u64>().ok())
            .sum();
        *map.entry(v % 64).or_insert(0u64) += 1;
        acc = acc.wrapping_add(v);
    }
    std::hint::black_box((acc, map.len()));
    t0.elapsed().as_secs_f64()
}

/// A thread that runs one [`reference_slice`] per call to
/// [`Probe::slice`] while the caller waits. The slice runs on its own
/// thread, so it allocates from its own heap arena: what the code under
/// test leaves behind in the caller's allocator state cannot slow the
/// reference along with it.
pub struct Probe {
    go: Option<std::sync::mpsc::Sender<()>>,
    secs: std::sync::mpsc::Receiver<f64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Probe {
    pub fn start() -> Self {
        let (go, go_rx) = std::sync::mpsc::channel::<()>();
        let (secs_tx, secs) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            for () in go_rx {
                if secs_tx.send(reference_slice()).is_err() {
                    break;
                }
            }
        });
        Probe {
            go: Some(go),
            secs,
            thread: Some(thread),
        }
    }

    /// Seconds one reference slice took on the probe thread.
    pub fn slice(&self) -> f64 {
        self.go
            .as_ref()
            .and_then(|go| go.send(()).ok())
            .and_then(|()| self.secs.recv().ok())
            .expect("probe thread runs until dropped")
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        drop(self.go.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// CPUs this process may run on, recorded with every run.
pub fn host_cpus() -> f64 {
    std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)
}

/// A field in kB (`VmRSS`, `VmHWM`) of a `/proc/<pid>/status` file,
/// in MiB.
pub fn status_mb(path: &str, field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(field)?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in {path}"))
}

/// Resident set at the last [`rss_mark`], in KiB.
static RSS_MARK_KB: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Hands freed heap pages back to the kernel and restarts the
/// process's peak-RSS count at the resident set now; returns that
/// resident set, in MiB.
pub fn rss_restart() -> Result<f64, String> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free heap memory; it
    // takes the allocator's own locks and is safe to call at any time.
    unsafe { malloc_trim(0) };
    // Writing 5 to clear_refs resets VmHWM to the current VmRSS.
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS via /proc/self/clear_refs: {e}"))?;
    status_mb("/proc/self/status", "VmRSS:")
}

/// Marks the point after which memory belongs to the system under
/// test and records the resident set then (the benchmark's own
/// inputs) as the share [`rss_growth_mb`] subtracts. Set-up calls it
/// once its inputs are generated and before any service starts.
pub fn rss_mark() -> Result<(), String> {
    let base = rss_restart()?;
    RSS_MARK_KB.store((base * 1024.0) as u64, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// The resident set recorded by the last [`rss_mark`], in MiB.
pub fn rss_inputs_mb() -> f64 {
    RSS_MARK_KB.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1024.0
}

/// Peak resident set since the last [`rss_restart`] less the inputs'
/// share, in MiB: what the system under test held at its peak.
pub fn rss_growth_mb() -> Result<f64, String> {
    Ok(status_mb("/proc/self/status", "VmHWM:")? - rss_inputs_mb())
}

/// Where a run writes its spans and WAL directories: inside the
/// working directory (the checkout), removed again by the run except
/// for span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from("e2ebench-out")
}

/// A fresh scratch directory under [`out_dir`] for one WAL.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs `setup` `times` times, keeping the last result and reporting
/// the median set-up time, normalised to nominal host speed by probes
/// before and after each round (earlier results are dropped, which
/// tears their services down).
pub fn repeated_setup<T>(
    times: usize,
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let (mut secs, mut raw) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let before = host_slowness();
        let t0 = Instant::now();
        kept = Some(setup()?);
        let took = t0.elapsed().as_secs_f64();
        let slowness = (before + host_slowness()) / 2.0;
        secs.push(took / slowness);
        raw.push(took);
    }
    report.put_n(
        "setup_s",
        stats::median(&secs).ok_or("no set-up ran")?,
        "s",
        secs.len(),
    );
    report.put_n(
        "setup_s.raw",
        stats::median(&raw).ok_or("no set-up ran")?,
        "s",
        raw.len(),
    );
    kept.ok_or_else(|| "no set-up ran".into())
}

/// Set-up repetitions behind `setup_s`.
pub const SETUP_ROUNDS: usize = 5;

fn run_workload(args: &Args, workload: &str) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "offline-check" => {
            let corpus = repeated_setup(SETUP_ROUNDS, &mut report, || {
                let corpus = offline::build(args.seed)?;
                rss_mark()?;
                let mut warm = Report::default();
                offline::warm_up(&corpus, &mut warm);
                if warm.failed > 0 {
                    return Err("warm-up requests failed".into());
                }
                Ok(corpus)
            })?;
            let mut out = offline::run(&corpus, args.seconds, false, &mut report);
            offline::report_end_to_end(&mut out, &mut report);
            report.put("rss.inputs_mb", rss_inputs_mb(), "MB");
            report.alias("latency_ms_p50", "check_ms_p50");
        }
        "stream-durable" => {
            stream::run_end_to_end(args, &mut report)?;
            report.alias("latency_ms_p50", "session_ms_p50");
        }
        "gateway-lag" => {
            lag::run_end_to_end(args, &mut report)?;
            report.alias("latency_ms_p50", "verdict_lag_ms_p50");
        }
        other => return Err(format!("unknown workload {other}")),
    }
    if workload != "offline-check" {
        // The load side: inputs, ground truth, SDK sessions.
        report.put(
            "rss.benchmark_process_mb",
            status_mb("/proc/self/status", "VmHWM:")?,
            "MB",
        );
    }
    report.put("host_cpus", host_cpus(), "count");
    Ok(report)
}

/// Names of the metrics the result line must carry, read from
/// `BENCHMARK.json` in the working directory.
fn contract_metrics(trace: bool) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    compare::metric_specs(&v, key).map(|specs| specs.into_iter().map(|s| s.name).collect())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("host") {
        if let Err(e) = host::serve(argv.get(1).map_or("", String::as_str)) {
            eprintln!("e2ebench host: {e}");
            std::process::exit(1);
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("compare") {
        match compare::run(&argv[1..]) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("e2ebench compare: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let names = contract_metrics(args.trace)?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create output dir: {e}"))?;
    let report = if args.trace {
        ladder::run_traced_suite(args, &args.workload)?
    } else {
        run_workload(args, &args.workload)?
    };
    print!("{}", report.render(&args.workload));
    report.result_json(&names)
}
