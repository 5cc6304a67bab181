//! Shared measurement machinery: the closed timing loop, order statistics,
//! the pass/fail tally, peak memory, and the in-memory span recorder of the
//! traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ops run by the timed loop: one client issues the next op only after the
/// previous one returned. The loop stops once the measured op time reaches
/// `seconds` (time spent checking outputs between ops is not counted) and
/// at least `min_ops` ops ran.
pub fn closed_loop<E>(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<Duration, E>,
) -> Result<Vec<Duration>, E> {
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut times = Vec::new();
    while spent < budget || times.len() < min_ops {
        let t = op(times.len())?;
        spent += t;
        times.push(t);
    }
    Ok(times)
}

/// Run `f` and return its result with its wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Median and tail of a set of op times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median, in milliseconds.
    pub p50_ms: f64,
    /// The highest percentile, at most p99, with at least ten samples
    /// beyond it within one block.
    pub tail_pct: f64,
    /// The median over blocks of each block's sample at `tail_pct`, in
    /// milliseconds.
    pub tail_ms: f64,
    /// Samples beyond the tail in one block.
    pub tail_beyond: usize,
    /// Blocks of consecutive ops the tail was taken over.
    pub tail_blocks: usize,
    /// Ops per second of op time.
    pub ops_per_s: f64,
}

/// Samples kept beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;
/// The tail percentile never goes past p99.
const TAIL_CAP: f64 = 0.99;
/// Ops per tail block. A 30 s `packets` run has ~10,000 ops of a few ms,
/// and a host stall of a fraction of a second moves its overall p99; the
/// median of per-block tails does not move unless most blocks stall.
/// Runs of fewer than two blocks' worth of ops use one block.
const TAIL_BLOCK: usize = 1000;

/// Index of the tail sample in an ascending slice of `n` samples, and the
/// samples beyond it. With ten samples or fewer nothing has ten beyond it,
/// so the tail is the maximum, which the printed percentile (100) shows.
fn tail_index(n: usize) -> usize {
    let capped = ((n as f64 * TAIL_CAP).floor() as usize).saturating_sub(1);
    if n > TAIL_BEYOND {
        (n - TAIL_BEYOND - 1).min(capped)
    } else {
        n - 1
    }
}

impl Summary {
    /// Summarise `times`, in op order; panics on an empty set (the loop
    /// always runs one op).
    pub fn of(times: &[Duration]) -> Summary {
        let ms: Vec<f64> = times.iter().map(|t| t.as_secs_f64() * 1e3).collect();
        let n = ms.len();
        let blocks = (n / TAIL_BLOCK).max(1);
        let block_tails: Vec<f64> = (0..blocks)
            .map(|b| {
                let mut block = ms[b * n / blocks..(b + 1) * n / blocks].to_vec();
                block.sort_by(f64::total_cmp);
                block[tail_index(block.len())]
            })
            .collect();
        let first = n / blocks;
        let tail_idx = tail_index(first);
        Summary {
            n,
            p50_ms: median(&ms),
            tail_pct: 100.0 * (tail_idx + 1) as f64 / first as f64,
            tail_ms: median(&block_tails),
            tail_beyond: first - tail_idx - 1,
            tail_blocks: blocks,
            ops_per_s: n as f64 / (ms.iter().sum::<f64>() / 1e3),
        }
    }
}

/// Median of a set of samples (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Ops attempted and ops whose output check failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops run.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
}

impl Tally {
    /// Count one op and its verdict.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted` (0 when nothing ran).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A deterministic count that differed between two runs of the same input:
/// the benchmark stops instead of reporting numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMismatch(pub String);

impl std::fmt::Display for CountMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deterministic count changed between runs of the same input: {}", self.0)
    }
}

/// Remembers the counts first seen for each input key and fails when a
/// later run of the same key reports different ones.
#[derive(Debug)]
pub struct CountLedger<K: Ord, V: PartialEq + std::fmt::Debug> {
    first: BTreeMap<K, V>,
}

impl<K: Ord, V: PartialEq + std::fmt::Debug> Default for CountLedger<K, V> {
    fn default() -> Self {
        CountLedger { first: BTreeMap::new() }
    }
}

impl<K: Ord + std::fmt::Debug, V: PartialEq + std::fmt::Debug> CountLedger<K, V> {
    /// Record `counts` for `key`; error if `key` was seen with other counts.
    pub fn observe(&mut self, key: K, counts: V) -> Result<(), CountMismatch> {
        match self.first.get(&key) {
            Some(prev) if *prev != counts => {
                Err(CountMismatch(format!("{key:?}: first {prev:?}, now {counts:?}")))
            }
            Some(_) => Ok(()),
            None => {
                self.first.insert(key, counts);
                Ok(())
            }
        }
    }

    /// The counts first seen for each key, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.first.iter()
    }
}

/// Peak resident set size of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A 64-bit FNV-1a fold, for fingerprints of rendered output.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Derive the `k`-th input seed of a run from the run seed (splitmix64).
pub fn derive_seed(run_seed: u64, k: u64) -> u64 {
    let mut z = run_seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, as `layer.function`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans around calls into the library when switched on; costs a
/// branch per call when off, so the timed and traced runs share one code
/// path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: usize,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Attribute the following spans to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.origin.elapsed().as_nanos() as u64;
        let r = f(self);
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its children cover
/// (children of one span never overlap: the benchmark is one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans.iter().zip(&child_ns).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
}

/// Per span name: (calls, total ns, total self ns), in name order.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

/// Spans as JSON lines, for writing out at the end of the traced run.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let times: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = Summary::of(&times);
        assert_eq!(s.n, 100);
        assert_eq!(s.tail_ms, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.p50_ms, 50.5);
    }

    #[test]
    fn long_runs_take_the_median_of_block_tails() {
        // Ten blocks of 1..=1000 µs, one of them stalled tenfold.
        let mut times: Vec<Duration> = Vec::new();
        for b in 0..10u64 {
            let scale = if b == 3 { 10 } else { 1 };
            times.extend((1..=1000).map(|us| Duration::from_micros(us * scale)));
        }
        let s = Summary::of(&times);
        assert_eq!((s.tail_blocks, s.tail_pct, s.tail_beyond), (10, 99.0, 10));
        assert_eq!(s.tail_ms, 0.99);
    }

    #[test]
    fn short_runs_report_the_maximum_as_tail() {
        let times: Vec<Duration> = (1..=5).map(Duration::from_millis).collect();
        assert_eq!(Summary::of(&times).tail_ms, 5.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "a".into(), start_ns: 0, end_ns: 100, parent: None, op: 0 },
            Span { name: "b".into(), start_ns: 10, end_ns: 40, parent: Some(0), op: 0 },
            Span { name: "b".into(), start_ns: 50, end_ns: 60, parent: Some(0), op: 0 },
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
        assert_eq!(by_name(&spans)["b"], (2, 40, 40));
    }

    #[test]
    fn ledger_flags_changed_counts() {
        let mut l = CountLedger::default();
        assert!(l.observe(1u64, 7u64).is_ok());
        assert!(l.observe(1, 7).is_ok());
        assert!(l.observe(1, 8).is_err());
    }
}
