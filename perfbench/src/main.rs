//! End-to-end benchmark of the tussle workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload registry --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads, each a closed loop with one client (every caller of the
//! simulator waits for its result): `registry` (all 17 experiments plus
//! their rendering), `campaigns` (sweep, chaos, recovery and fuzz calls on
//! the job-stealing grid) and `packets` (forwarding batches on the ~1k-node
//! scale topology with interleaved topology writes). Every op's output is
//! checked; the last line of stdout is one JSON object with the verdict and
//! the metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`, which adds a traced pass over the same ops.

mod campaigns;
mod measure;
mod packets;
mod registry;

use measure::{closed_loop, median, timed, CountMismatch, Span, Summary, Tally, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["registry", "campaigns", "packets"];

/// Set-ups per run: at least `SETUP_REPS`, and more while the set-ups so
/// far took less than `SETUP_BUDGET` (cheap set-ups are repeated until
/// their median steadies), up to `SETUP_MAX`. The median is `setup_s`.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_MAX: usize = 10_000;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit. A workload that never calls into
/// a metric's layer reports it as 0 and says so on its own output line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("experiments.E1_ms", "ms"),
    ("experiments.E2_ms", "ms"),
    ("experiments.E3_ms", "ms"),
    ("experiments.E4_ms", "ms"),
    ("experiments.E5_ms", "ms"),
    ("experiments.E6_ms", "ms"),
    ("experiments.E7_ms", "ms"),
    ("experiments.E8_ms", "ms"),
    ("experiments.E9_ms", "ms"),
    ("experiments.E10_ms", "ms"),
    ("experiments.E11_ms", "ms"),
    ("experiments.E12_ms", "ms"),
    ("experiments.E13_ms", "ms"),
    ("experiments.E14_ms", "ms"),
    ("experiments.E15_ms", "ms"),
    ("experiments.E16_ms", "ms"),
    ("experiments.E17_ms", "ms"),
    ("sim.events", "count"),
    ("sim.rng_draws", "count"),
    ("sim.spans", "count"),
    ("sim.trace_entries", "count"),
    ("net.forwards", "count"),
    ("sim.obs_cost_ratio", "ratio"),
    ("sim.obs_profile_ratio", "ratio"),
    ("sim.checkpoint_ratio", "ratio"),
    ("experiments.recovery_cell_ms", "ms"),
    ("experiments.recovered_ratio", "ratio"),
    ("experiments.grid_speedup.sweep", "ratio"),
    ("experiments.grid_speedup.chaos", "ratio"),
    ("experiments.grid_speedup.recovery", "ratio"),
    ("experiments.grid_speedup.fuzz", "ratio"),
    ("sim.faults", "count"),
    ("experiments.fuzz_exec_us", "us"),
    ("experiments.fuzz_yield", "ratio"),
    ("net.fib_send_ns", "ns"),
    ("net.srcroute_send_ns", "ns"),
    ("net.hops_per_packet", "ratio"),
    ("net.ns_per_hop", "ns"),
    ("net.post_write_send_ns", "ns"),
    ("net.write_us", "us"),
    ("net.delivered_ratio", "ratio"),
    ("net.drops.FirewallDenied", "count"),
    ("net.drops.NoRoute", "count"),
    ("net.drops.LinkDown", "count"),
    ("net.drops.other", "count"),
    ("core.render_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Distinct inputs: op `k` runs input `k % INPUTS`. The timed loop runs
    /// at least this many ops, so every run checks every input however fast
    /// the host is, and no input depends on how many ops a run reaches.
    const INPUTS: usize;
    /// Build the inputs from `seed`. This alone is timed as `setup_s`.
    fn setup(seed: u64) -> Self;
    /// Untimed work before the loop, so lazy state (caches, allocations,
    /// code pages) is paid here and not by the first timed op.
    fn warm_up(&mut self) -> Result<(), CountMismatch>;
    /// Run op `k` and return its op time and whether its output passed the
    /// checks that need no extra work (run after the timed part). Running
    /// the same `k` again (the traced pass) runs the same input.
    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<(Duration, bool), CountMismatch>;
    /// The ops among `0..n` that fail checks needing reference runs.
    fn deferred_failures(
        &mut self,
        _n: usize,
        _tr: &mut Tracer,
    ) -> Result<BTreeSet<usize>, CountMismatch> {
        Ok(BTreeSet::new())
    }
    /// Lines of end-to-end detail beyond the shared metrics.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
    /// The per-layer metrics this workload measures, from the traced pass
    /// over ops `0..n` plus any probes it runs.
    fn per_layer(
        &mut self,
        n: usize,
        tr: &mut Tracer,
    ) -> Result<BTreeMap<&'static str, f64>, CountMismatch>;
}

/// Mean self time per op, in ms, of the spans named `name` within ops
/// `0..ops` (probes and reference runs after the ops are left out).
pub fn self_ms_per_op(spans: &[Span], name: &str, ops: usize) -> f64 {
    let self_ns: u64 = spans
        .iter()
        .zip(measure::self_times(spans))
        .filter(|(s, _)| s.name == name && s.op < ops)
        .map(|(_, ns)| ns)
        .sum();
    self_ns as f64 / 1e6 / ops as f64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (registry | campaigns | packets)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// What one invocation measured.
struct Outcome {
    tally: Tally,
    summary: Summary,
    /// Peak RSS at the end of the timed loop, before any traced pass.
    peak_rss_mb: f64,
    setup_s: f64,
    notes: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
}

fn drive<W: Workload>(args: &Args) -> Result<Outcome, CountMismatch> {
    let mut setups = Vec::new();
    let mut spent = Duration::ZERO;
    let mut built = None;
    while setups.len() < SETUP_REPS || (spent < SETUP_BUDGET && setups.len() < SETUP_MAX) {
        // The previous build is dropped outside the timed part.
        drop(built.take());
        let (w, t) = timed(|| W::setup(args.seed));
        setups.push(t.as_secs_f64());
        spent += t;
        built = Some(w);
    }
    let mut w = built.expect("SETUP_REPS is nonzero");
    w.warm_up()?;

    let mut off = Tracer::new(false);
    let mut failed = BTreeSet::new();
    let mut run = |w: &mut W, k: usize, tr: &mut Tracer| -> Result<Duration, CountMismatch> {
        let (t, ok) = w.op(k, tr)?;
        if !ok {
            failed.insert(k);
        }
        Ok(t)
    };
    let times = closed_loop(args.seconds, W::INPUTS, |k| run(&mut w, k, &mut off))?;
    let n = times.len();
    let summary = Summary::of(&times);
    let peak_rss_mb = measure::peak_rss_mb();

    let mut tr = Tracer::new(args.trace);
    let mut layers = BTreeMap::new();
    if args.trace {
        let mut traced = Duration::ZERO;
        for k in 0..n {
            tr.set_op(k);
            traced += run(&mut w, k, &mut tr)?;
        }
        let untraced: Duration = times.iter().sum();
        layers.insert(
            "trace.overhead_ms",
            (traced.as_secs_f64() - untraced.as_secs_f64()) * 1e3 / n as f64,
        );
    }
    tr.set_op(n);
    failed.extend(w.deferred_failures(n, &mut tr)?);
    let mut tally = Tally::default();
    for k in 0..n {
        tally.record(!failed.contains(&k));
    }
    if args.trace {
        layers.extend(w.per_layer(n, &mut tr)?);
    }
    Ok(Outcome {
        tally,
        summary,
        peak_rss_mb,
        setup_s: median(&setups),
        notes: w.notes(),
        layers,
        spans: tr.spans().to_vec(),
    })
}

/// Facts about the build and machine printed with every result.
fn environment(seed: u64) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    format!(
        "env: nproc={} rustc=\"{}\" git={} seed={seed}",
        nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git
    )
}

/// Worker threads the campaigns use: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One metric as a JSON member. `f64`'s `Display` never uses an exponent,
/// so every finite value prints as a JSON number with all its digits.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
    format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <registry|campaigns|packets> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The shell may export either; `TUSSLE_ROUTE_CACHE=off` would turn
    // `packets` into a different program, and `RUST_BACKTRACE` makes every
    // injected recovery crash capture a backtrace. Cleared before any
    // thread starts or any library code reads them.
    std::env::remove_var("TUSSLE_ROUTE_CACHE");
    std::env::remove_var("RUST_BACKTRACE");
    // Recovery injects crashes on purpose and the library catches them;
    // keep their messages off the output. Every other panic prints as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if !msg.is_some_and(|m| m.starts_with("checkpoint: injected crash")) {
            default_hook(info);
        }
    }));

    let result = match args.workload.as_str() {
        "registry" => drive::<registry::Registry>(&args),
        "campaigns" => drive::<campaigns::Campaigns>(&args),
        "packets" => drive::<packets::Packets>(&args),
        other => {
            eprintln!("error: unknown workload `{other}` (registry | campaigns | packets)");
            return ExitCode::from(2);
        }
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };

    println!("workload: {} ({} ops, closed loop, 1 client)", args.workload, out.summary.n);
    println!("{}", environment(args.seed));
    let s = &out.summary;
    let e2e = [out.setup_s, s.ops_per_s, s.p50_ms, s.tail_ms, out.peak_rss_mb];
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("  {name:<12} {v:>12.4} {unit}");
    }
    println!(
        "  op_tail_ms is p{:.1} ({} ops beyond it) of {} ops, median over {} block(s) of consecutive ops",
        s.tail_pct,
        s.tail_beyond,
        s.n / s.tail_blocks,
        s.tail_blocks
    );
    println!(
        "  failed_ratio {:>12.4} ({} of {} ops failed their output check)",
        out.tally.failed_ratio(),
        out.tally.failed,
        out.tally.attempted
    );
    for line in &out.notes {
        println!("  {line}");
    }

    let metrics: Vec<String> = if args.trace {
        println!("self time by span (traced pass, then reference runs and probes):");
        for (name, (calls, total, own)) in measure::by_name(&out.spans) {
            println!(
                "  {name:<34} calls {calls:>7}  total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        println!("per-layer metrics:");
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = out.layers.get(name).copied();
                match value {
                    Some(v) => println!("  {name:<34} {v:>14.4} {unit}"),
                    None => {
                        println!("  {name:<34} {:>14} {unit} (not exercised by this workload)", 0)
                    }
                }
                metric_json(name, value.unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        END_TO_END.iter().zip(e2e).map(|((name, unit), v)| metric_json(name, v, unit)).collect()
    };

    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, measure::spans_jsonl(&out.spans)));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every string following `"<key>": "` in `text`, in order.
    fn quoted_after(text: &str, key: &str) -> Vec<String> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .map(|(at, _)| {
                let rest = &text[at + pat.len()..];
                rest[..rest.find('"').expect("closing quote")].to_owned()
            })
            .collect()
    }

    /// The metric lists in the code and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let metrics: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
        names.extend(metrics.iter().map(|(n, _)| (*n).to_owned()));
        assert_eq!(quoted_after(&text, "name"), names);
        let units: Vec<String> = metrics.iter().map(|(_, u)| (*u).to_owned()).collect();
        assert_eq!(quoted_after(&text, "unit"), units);
    }
}
