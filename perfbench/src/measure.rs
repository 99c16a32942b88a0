//! Timing, resource and statistics helpers shared by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) this process has consumed, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // (two 64-bit fields on the 64-bit Linux targets this benchmark runs
    // on), and CLOCK_PROCESS_CPUTIME_ID is a valid clock id, so the call
    // only writes into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// splitmix64: the benchmark's only source of randomness, so every input
/// is a pure function of `--seed`.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Accumulates the closed loop's timed transactions. A transaction may be
/// timed in several segments (the benchmark's own bookkeeping between
/// calls into the program is left out); each segment's wall and CPU time
/// add to the transaction.
///
/// Every workload repeats a fixed round of operations, and each
/// transaction is closed under its operation's key (its position in the
/// round). Since an operation does the same deterministic work every
/// round, its latency is taken as the median of its repetitions; the
/// latency percentiles are then taken across operations. Interference on
/// a shared host that stalls one repetition therefore does not set the
/// tail, while an operation that is slow every time does.
#[derive(Debug, Default)]
pub struct Meter {
    by_op: BTreeMap<usize, Vec<u64>>,
    txns: u64,
    busy_ns: u64,
    cpu_ns: u64,
    current_wall: u64,
}

impl Meter {
    /// Times one segment of the current transaction.
    pub fn seg<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let c0 = cpu_ns();
        let t0 = Instant::now();
        let r = f();
        self.current_wall += t0.elapsed().as_nanos() as u64;
        self.cpu_ns += cpu_ns().saturating_sub(c0);
        r
    }

    /// Times work that belongs to the loop's busy time (throughput and
    /// CPU) but is not a transaction, such as a crash-restart step.
    pub fn side<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let c0 = cpu_ns();
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns += ns;
        self.cpu_ns += cpu_ns().saturating_sub(c0);
        (r, ns)
    }

    /// Closes the current transaction, the repetition of operation `op`.
    pub fn end_txn(&mut self, op: usize) {
        let ns = std::mem::take(&mut self.current_wall);
        self.by_op.entry(op).or_default().push(ns);
        self.txns += 1;
        self.busy_ns += ns;
    }

    pub fn txns(&self) -> u64 {
        self.txns
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    pub fn txn_per_s(&self) -> f64 {
        self.txns() as f64 / self.busy_s().max(1e-9)
    }

    /// The standard end-to-end metrics of a run.
    pub fn end_to_end(&self, setup_s: f64) -> BTreeMap<&'static str, f64> {
        let mut per_op: Vec<u64> = self.by_op.values().map(|v| median(v)).collect();
        per_op.sort_unstable();
        let mut m = BTreeMap::new();
        m.insert("txn_per_s", self.txn_per_s());
        m.insert("txn_ms_p50", quantile(&per_op, 0.50) as f64 / 1e6);
        m.insert("txn_ms_p99", quantile(&per_op, 0.99) as f64 / 1e6);
        m.insert("cpu_ms_per_txn", self.cpu_ns as f64 / 1e6 / self.txns().max(1) as f64);
        m.insert("setup_s", setup_s);
        m.insert("peak_rss_mb", peak_rss_mb());
        m
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    quantile(&v, 0.5)
}

/// Runs `setup` `reps` times, keeps the last result and reports the
/// median wall time in seconds. Set-up is repeated so its figure is a
/// median, not one noisy sample.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_nanos() as u64);
        last = Some(value);
    }
    (last.expect("at least one repetition"), median(&times) as f64 / 1e9)
}

/// Per-layer span totals for a traced run, kept in memory and turned into
/// per-transaction self times when the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Times `f` and charges its duration to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(layer, t0.elapsed().as_nanos() as u64);
        r
    }

    pub fn add(&mut self, layer: &'static str, ns: u64) {
        *self.totals.entry(layer).or_default() += ns;
    }

    /// Moves `ns` of `from`'s time to `to` (a child span's time out of its
    /// parent's, so each layer reports self time).
    pub fn reassign(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let parent = self.totals.entry(from).or_default();
        *parent = parent.saturating_sub(ns);
        self.add(to, ns);
    }

    /// Mean self time per transaction in microseconds, per layer.
    pub fn per_txn_us(&self, txns: u64) -> BTreeMap<&'static str, f64> {
        self.totals.iter().map(|(k, ns)| (*k, *ns as f64 / 1e3 / txns.max(1) as f64)).collect()
    }
}

/// Wall-clock budget of a measurement loop.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    pub fn new(seconds: u64) -> Budget {
        Budget { start: Instant::now(), limit: Duration::from_secs(seconds) }
    }

    pub fn spent(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}
