//! Result plumbing: metrics, order statistics, the `RunStats` digest,
//! provenance and the final JSON line.

use glr_sim::RunStats;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// CPU time of the calling thread, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). The kernel counts only time the thread
/// ran, so time the hypervisor gave the guest's CPUs to other guests
/// (steal) is excluded.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid Linux constant;
    // clock_gettime writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Nanoseconds the calling thread has been running or runnable inside
/// the guest: its CPU time plus its run-queue wait (second field of
/// `/proc/thread-self/schedstat`), so threads of the benchmark competing
/// for the guest's CPUs still count. Unlike the wall clock it excludes
/// steal, which on a shared host moves a 4 s run by 20% from one minute
/// to the next.
fn thread_busy_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let wait = s.split_whitespace().nth(1)?.parse::<u64>().ok()?;
    Some(thread_cpu_ns()? + wait)
}

/// Times an interval on the calling thread twice: by the wall clock and
/// by the thread's steal-free busy time ([`thread_busy_ns`]; the wall
/// clock where the kernel does not expose it).
pub struct Stopwatch {
    wall: Instant,
    busy: Option<u64>,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        let busy = thread_busy_ns();
        Stopwatch {
            wall: Instant::now(),
            busy,
        }
    }

    /// Seconds elapsed as `(wall, steal-free)`.
    pub fn read(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let busy = match (self.busy, thread_busy_ns()) {
            (Some(a), Some(b)) => (b - a) as f64 * 1e-9,
            _ => wall,
        };
        (wall, busy)
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a benchmark run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every run passed its checks (and, traced, every side-channel check).
    pub correct: bool,
    /// Runs attempted.
    pub attempted: usize,
    /// Runs failed (panicked or failed a check).
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn failure_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `"median q1..q3 (n=…)"` for a log line.
pub fn spread_line(xs: &[f64]) -> String {
    format!(
        "median {:.4} mean {:.4} q1 {:.4} q3 {:.4} min {:.4} max {:.4} (n={})",
        median(xs),
        xs.iter().sum::<f64>() / xs.len().max(1) as f64,
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        quantile(xs, 0.0),
        quantile(xs, 1.0),
        xs.len()
    )
}

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The FNV digest of `examples/fingerprint.rs`: every counter and every
/// per-message record (bit-exact times) folded into 64 bits. Equal
/// digests mean the simulated behaviour did not change.
pub fn digest(stats: &RunStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        stats.data_tx,
        stats.control_tx,
        stats.collisions,
        stats.out_of_range,
        stats.queue_drops,
        stats.storage_drops,
    ] {
        h = fnv(h, v);
    }
    for &p in &stats.peak_storage {
        h = fnv(h, p as u64);
    }
    for (name, v) in stats.counters_sorted() {
        for b in name.bytes() {
            h = fnv(h, b as u64);
        }
        h = fnv(h, v);
    }
    for r in stats.records() {
        h = fnv(h, r.src.0 as u64);
        h = fnv(h, r.dst.0 as u64);
        h = fnv(h, r.created.as_secs().to_bits());
        h = fnv(h, r.delivered.map_or(0, |t| t.as_secs().to_bits()));
        h = fnv(h, r.hops.unwrap_or(0) as u64);
        h = fnv(h, r.duplicate_deliveries as u64);
    }
    h
}

/// Folds per-run digests, in order, into one workload digest.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(0xcbf2_9ce4_8422_2325u64, fnv)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV digest of the sources the benchmark builds (root manifests and
/// `src/`, `crates/`, `vendor/`, `perfbench/src/` under `root`), for
/// checkouts that carry no git metadata.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for d in ["src", "crates", "vendor", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy();
            for b in rel.bytes().chain(bytes) {
                h = fnv(h, b as u64);
            }
        }
    }
    h
}

/// The provenance line: host, toolchain, source revision and the run's
/// own parameters, as one JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool, workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "none (not a git checkout)".into());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"workers\": {workers}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \
         \"commit\": {}, \"source_digest\": \"{:016x}\"}}",
        json_str(workload),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        source_digest(Path::new("."))
    )
}
