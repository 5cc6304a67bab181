//! `campaigns`: one op is one campaign call at `threads = nproc`, rotating
//! through `run_sweep`, `run_chaos`, `run_recovery` and `run_fuzz`, then
//! its report rendered with `to_json` and `to_markdown`. Each kind is sized
//! so the four take comparable time. Each kind cycles through
//! `VARIANTS` base seeds derived from the run seed; after the loop every
//! variant runs once more on one thread, and every op's JSON must equal
//! that reference byte for byte.

use crate::measure::{derive_seed, fnv, median, timed, CountLedger, CountMismatch, Tracer};
use crate::{nproc, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use tussle_experiments::{
    registry, run_captured, run_chaos, run_fuzz, run_recovery, run_sweep, ChaosConfig, FuzzConfig,
    RecoveryConfig, SweepConfig,
};
use tussle_sim::checkpoint::{self, CheckpointConfig, CheckpointPolicy};

/// Seeds per sweep call.
const SWEEP_SEEDS: u64 = 4;
/// Fault intensities and seeds per chaos call.
const CHAOS_INTENSITIES: [f64; 2] = [0.0, 0.3];
const CHAOS_SEEDS: u64 = 2;
/// Seeds and checkpoint interval per recovery call.
const RECOVERY_SEEDS: u64 = 1;
const RECOVERY_EVERY: u64 = 500;
/// Executions and chains per fuzz call.
const FUZZ_BUDGET: u64 = 1000;
const FUZZ_CHAINS: u64 = 2;
/// Distinct base seeds per kind in one run.
const VARIANTS: usize = 4;

/// The four campaign kinds, in rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `run_sweep`.
    Sweep,
    /// `run_chaos`.
    Chaos,
    /// `run_recovery`.
    Recovery,
    /// `run_fuzz`.
    Fuzz,
}

/// Rotation order.
pub const KINDS: [Kind; 4] = [Kind::Sweep, Kind::Chaos, Kind::Recovery, Kind::Fuzz];

impl Kind {
    /// Lower-case name, as in the metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Chaos => "chaos",
            Kind::Recovery => "recovery",
            Kind::Fuzz => "fuzz",
        }
    }

    fn speedup_metric(self) -> &'static str {
        match self {
            Kind::Sweep => "experiments.grid_speedup.sweep",
            Kind::Chaos => "experiments.grid_speedup.chaos",
            Kind::Recovery => "experiments.grid_speedup.recovery",
            Kind::Fuzz => "experiments.grid_speedup.fuzz",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Sweep => "experiments.run_sweep",
            Kind::Chaos => "experiments.run_chaos",
            Kind::Recovery => "experiments.run_recovery",
            Kind::Fuzz => "experiments.run_fuzz",
        }
    }
}

/// What one call produced, reduced to what the checks and metrics need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// Fingerprint and length of the report's JSON.
    pub json: (u64, usize),
    /// Why the report itself is wrong, if it is.
    pub problems: Vec<String>,
    /// Deterministic counts: chaos faults; recovery cells and recovered
    /// cells; fuzz executions, pool, coverage cells and oracle checks.
    pub counts: Vec<u64>,
}

/// Run one call of `kind` at `base_seed` on `threads` workers and render it.
pub fn call(kind: Kind, base_seed: u64, threads: usize, tr: &mut Tracer) -> CallOutcome {
    let threads = Some(threads);
    let (json, md, problems, counts) = match kind {
        Kind::Sweep => {
            let cfg = SweepConfig { seeds: SWEEP_SEEDS, base_seed, only: None, threads };
            let r = tr.span(kind.span(), |_| run_sweep(&cfg)).expect("valid sweep config");
            let (json, md) = tr.span("core.render", |_| (r.to_json(), r.to_markdown()));
            (json, md, sweep_problems(&r), Vec::new())
        }
        Kind::Chaos => {
            let cfg = ChaosConfig {
                intensities: CHAOS_INTENSITIES.to_vec(),
                seeds: CHAOS_SEEDS,
                base_seed,
                only: None,
                threads,
            };
            let r = tr.span(kind.span(), |_| run_chaos(&cfg)).expect("valid chaos config");
            let (json, md) = tr.span("core.render", |_| (r.to_json(), r.to_markdown()));
            let faults = r.experiments.iter().map(|e| e.total_faults()).sum();
            (json, md, chaos_problems(&r), vec![faults])
        }
        Kind::Recovery => {
            let cfg = RecoveryConfig {
                seeds: RECOVERY_SEEDS,
                base_seed,
                kill_points: 1,
                every: RECOVERY_EVERY,
                only: None,
                threads,
            };
            let r = tr.span(kind.span(), |_| run_recovery(&cfg)).expect("valid recovery config");
            let (json, md) = tr.span("core.render", |_| (r.to_json(), r.to_markdown()));
            let recovered = r.cells.iter().filter(|c| c.recovered()).count() as u64;
            (json, md, recovery_problems(&r), vec![r.cells.len() as u64, recovered])
        }
        Kind::Fuzz => {
            let cfg = FuzzConfig {
                budget: FUZZ_BUDGET,
                seeds: FUZZ_CHAINS,
                base_seed,
                corpus_dir: None,
                threads,
            };
            let r = tr.span(kind.span(), |_| run_fuzz(&cfg)).expect("valid fuzz config");
            let (json, md) = tr.span("core.render", |_| (r.to_json(), r.to_markdown()));
            let mut counts =
                vec![r.executions, r.chains.iter().map(|c| c.pool).sum(), r.coverage_cells];
            counts.extend(r.oracles.iter().map(|o| o.checks));
            (json, md, fuzz_problems(&r), counts)
        }
    };
    std::hint::black_box(md);
    CallOutcome { json: (fnv(json.as_bytes()), json.len()), problems, counts }
}

/// The longest single job of a grid and the speedup it allows: no grid
/// finishes before its longest job does.
fn straggler_line(
    kind: &str,
    (ms, id, seed): (f64, &str, u64),
    total: f64,
    threads: usize,
) -> String {
    format!(
        "{kind} straggler job: {id} seed {seed} at {ms:.1} ms of {total:.1} ms on one thread; speedup bound at {threads} threads = {:.2}",
        total / (total / threads as f64).max(ms)
    )
}

/// A sweep passes when every experiment held at every seed.
pub fn sweep_problems(r: &tussle_core::report::SweepReport) -> Vec<String> {
    r.experiments
        .iter()
        .filter(|e| e.holds != e.seeds)
        .map(|e| format!("sweep: {} held at {} of {} seeds", e.id, e.holds, e.seeds))
        .collect()
}

/// A chaos campaign passes when no run panicked.
pub fn chaos_problems(r: &tussle_core::report::ChaosReport) -> Vec<String> {
    r.experiments
        .iter()
        .filter(|e| e.total_panics() > 0)
        .map(|e| format!("chaos: {} panicked {} times", e.id, e.total_panics()))
        .collect()
}

/// A recovery campaign passes when every cell recovered.
pub fn recovery_problems(r: &tussle_core::report::RecoveryReport) -> Vec<String> {
    r.failures()
        .map(|c| format!("recovery: {} seed {} did not recover: {}", c.id, c.seed, c.detail))
        .collect()
}

/// A fuzz campaign passes with zero findings.
pub fn fuzz_problems(r: &tussle_experiments::FuzzReport) -> Vec<String> {
    r.findings.iter().map(|f| format!("fuzz: oracle {} found: {}", f.oracle, f.detail)).collect()
}

/// The campaigns workload's state.
pub struct Campaigns {
    seed: u64,
    threads: usize,
    ledger: CountLedger<(Kind, usize), Vec<u64>>,
    /// Per op: kind, variant and JSON fingerprint.
    ops: BTreeMap<usize, (Kind, usize, (u64, usize))>,
    /// Untraced op times per (kind, variant), in ms.
    op_ms: BTreeMap<(Kind, usize), Vec<f64>>,
    /// One-thread reference time per (kind, variant), in ms.
    one_thread_ms: BTreeMap<(Kind, usize), f64>,
    /// The straggler lines of the traced run.
    straggler: Vec<String>,
}

impl Campaigns {
    fn op_input(&self, k: usize) -> (Kind, usize, u64) {
        let kind = KINDS[k % KINDS.len()];
        let variant = (k / KINDS.len()) % VARIANTS;
        (kind, variant, self.base_seed(kind, variant))
    }

    fn base_seed(&self, kind: Kind, variant: usize) -> u64 {
        derive_seed(self.seed, (variant * KINDS.len() + kind as usize) as u64) % 1_000_000
    }

    /// Untraced op times of one kind, in ms.
    fn kind_ms(&self, kind: Kind) -> Vec<f64> {
        self.op_ms
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

impl Workload for Campaigns {
    const INPUTS: usize = KINDS.len() * VARIANTS;

    fn setup(seed: u64) -> Self {
        Campaigns {
            seed,
            threads: nproc(),
            ledger: CountLedger::default(),
            ops: BTreeMap::new(),
            op_ms: BTreeMap::new(),
            one_thread_ms: BTreeMap::new(),
            straggler: Vec::new(),
        }
    }

    fn warm_up(&mut self) -> Result<(), CountMismatch> {
        // Op 0 (a sweep), which the loop runs again.
        self.op(0, &mut Tracer::new(false))?;
        self.op_ms.clear();
        Ok(())
    }

    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<(Duration, bool), CountMismatch> {
        let (kind, variant, base_seed) = self.op_input(k);
        let (out, t) =
            timed(|| tr.span("campaigns.op", |tr| call(kind, base_seed, self.threads, tr)));
        for p in out.problems.iter().take(3) {
            eprintln!("check failed, op {k}: {p}");
        }
        let mut ok = out.problems.is_empty();
        self.ledger.observe((kind, variant), out.counts)?;
        match self.ops.get(&k) {
            Some(&(_, _, json)) if json != out.json => {
                eprintln!(
                    "check failed, op {k}: report JSON differs between the timed and traced runs"
                );
                ok = false;
            }
            Some(_) => {}
            None => {
                self.ops.insert(k, (kind, variant, out.json));
            }
        }
        if !tr.is_on() {
            self.op_ms.entry((kind, variant)).or_default().push(t.as_secs_f64() * 1e3);
        }
        Ok((t, ok))
    }

    fn deferred_failures(
        &mut self,
        n: usize,
        tr: &mut Tracer,
    ) -> Result<BTreeSet<usize>, CountMismatch> {
        // One-thread reference of every (kind, variant) the loop ran.
        let mut reference = BTreeMap::new();
        for k in 0..n.min(Self::INPUTS) {
            let (kind, variant, base_seed) = self.op_input(k);
            let (out, t) =
                timed(|| tr.span("campaigns.one_thread", |tr| call(kind, base_seed, 1, tr)));
            self.ledger.observe((kind, variant), out.counts)?;
            self.one_thread_ms.insert((kind, variant), t.as_secs_f64() * 1e3);
            reference.insert((kind, variant), out.json);
        }
        let differs: BTreeSet<usize> = (0..n)
            .filter(|k| {
                let (kind, variant, json) = self.ops[k];
                let same = reference.get(&(kind, variant)) == Some(&json);
                if !same {
                    eprintln!(
                        "check failed, op {k}: {} JSON differs at 1 and {} threads",
                        kind.name(),
                        self.threads
                    );
                }
                !same
            })
            .collect();
        Ok(differs)
    }

    fn notes(&self) -> Vec<String> {
        let mut lines: Vec<String> = KINDS
            .iter()
            .map(|&kind| {
                let ms = self.kind_ms(kind);
                format!(
                    "{:<12} {:>12.4} ms (median wall time of {} calls at {} threads)",
                    format!("{}_ms", kind.name()),
                    if ms.is_empty() { 0.0 } else { median(&ms) },
                    ms.len(),
                    self.threads
                )
            })
            .collect();
        lines.extend(self.straggler.iter().cloned());
        lines.push(format!(
            "sizes: sweep {SWEEP_SEEDS} seeds; chaos intensities {CHAOS_INTENSITIES:?} x {CHAOS_SEEDS} seeds; recovery {RECOVERY_SEEDS} seed every {RECOVERY_EVERY} events; fuzz {FUZZ_BUDGET} executions over {FUZZ_CHAINS} chains; {VARIANTS} base seeds per kind"
        ));
        lines
    }

    fn per_layer(
        &mut self,
        n: usize,
        tr: &mut Tracer,
    ) -> Result<BTreeMap<&'static str, f64>, CountMismatch> {
        let mut m = BTreeMap::new();
        for kind in KINDS {
            // The same inputs on one thread vs on nproc, summed over variants.
            let (mut one, mut many) = (0.0, 0.0);
            for (key, ms) in self.op_ms.iter().filter(|((k, _), _)| *k == kind) {
                if let Some(t) = self.one_thread_ms.get(key) {
                    one += t;
                    many += median(ms);
                }
            }
            if many > 0.0 {
                m.insert(kind.speedup_metric(), one / many);
            }
        }

        // The sweep grid's jobs one by one on this thread: per-experiment
        // time, and the straggler that bounds the grid's speedup.
        let (_, _, sweep_seed) = self.op_input(0);
        let entries = registry();
        let mut per_exp = vec![0.0f64; entries.len()];
        let mut straggler = (0.0f64, "", 0u64);
        for s in 0..SWEEP_SEEDS {
            let seed = sweep_seed.wrapping_add(s);
            for (i, (id, run)) in entries.iter().enumerate() {
                let (_, t) = timed(|| {
                    tr.span(&format!("experiments.{id}"), |_| {
                        std::hint::black_box(run_captured(id, *run, seed));
                    })
                });
                let ms = t.as_secs_f64() * 1e3;
                per_exp[i] += ms / SWEEP_SEEDS as f64;
                if ms > straggler.0 {
                    straggler = (ms, id, seed);
                }
            }
        }
        for ((id, _), ms) in entries.iter().zip(&per_exp) {
            let metric = crate::PER_LAYER
                .iter()
                .find(|(name, _)| *name == format!("experiments.{id}_ms"))
                .expect("every registry id has a metric")
                .0;
            m.insert(metric, *ms);
        }
        let total: f64 = per_exp.iter().sum::<f64>() * SWEEP_SEEDS as f64;
        let mut lines = vec![straggler_line("sweep", straggler, total, self.threads)];

        // The recovery grid's jobs (one cell per experiment) one by one.
        let (_, _, rec_seed) = self.op_input(2);
        let mut straggler = (0.0f64, "", rec_seed);
        let mut total = 0.0;
        for (id, _) in &entries {
            let cfg = RecoveryConfig {
                seeds: RECOVERY_SEEDS,
                base_seed: rec_seed,
                kill_points: 1,
                every: RECOVERY_EVERY,
                only: Some(vec![(*id).to_owned()]),
                threads: Some(1),
            };
            let (_, t) = timed(|| {
                tr.span("experiments.run_recovery.one_cell", |_| {
                    std::hint::black_box(run_recovery(&cfg).expect("valid recovery config"))
                })
            });
            let ms = t.as_secs_f64() * 1e3;
            total += ms;
            if ms > straggler.0 {
                straggler = (ms, id, rec_seed);
            }
        }
        lines.push(straggler_line("recovery", straggler, total, self.threads));
        self.straggler = lines;

        // Checkpoint capture cost: the recovery variant's runs with and
        // without a capture scope, alternating which goes first.
        let (mut plain, mut scoped) = (Duration::ZERO, Duration::ZERO);
        for (i, (id, run)) in entries.iter().enumerate() {
            for plain_turn in [i % 2 == 0, i % 2 == 1] {
                if plain_turn {
                    plain += timed(|| {
                        tr.span("sim.no_checkpoint", |_| {
                            std::hint::black_box(run_captured(id, *run, rec_seed))
                        })
                    })
                    .1;
                } else {
                    scoped += timed(|| {
                        tr.span("sim.checkpoint_scope", |_| {
                            let guard = checkpoint::begin(CheckpointConfig::new(
                                CheckpointPolicy::every_n_events(RECOVERY_EVERY),
                            ));
                            std::hint::black_box(run_captured(id, *run, rec_seed));
                            std::hint::black_box(guard.finish())
                        })
                    })
                    .1;
                }
            }
        }
        m.insert("sim.checkpoint_ratio", scoped.as_secs_f64() / plain.as_secs_f64());

        // Recovery: one-thread time per cell and the share recovered.
        let rec: Vec<(&(Kind, usize), &Vec<u64>)> =
            self.ledger.iter().filter(|((k, _), _)| *k == Kind::Recovery).collect();
        let cells: u64 = rec.iter().map(|(_, c)| c[0]).sum();
        let recovered: u64 = rec.iter().map(|(_, c)| c[1]).sum();
        let rec_ms: f64 = rec.iter().map(|(key, _)| self.one_thread_ms[*key]).sum();
        m.insert("experiments.recovery_cell_ms", rec_ms / cells.max(1) as f64);
        m.insert("experiments.recovered_ratio", recovered as f64 / cells.max(1) as f64);

        // Chaos faults of the first variant; fuzz cost per execution and yield.
        if let Some((_, c)) = self.ledger.iter().find(|(key, _)| **key == (Kind::Chaos, 0)) {
            m.insert("sim.faults", c[0] as f64);
        }
        let fuzz: Vec<(&(Kind, usize), &Vec<u64>)> =
            self.ledger.iter().filter(|((k, _), _)| *k == Kind::Fuzz).collect();
        let execs: u64 = fuzz.iter().map(|(_, c)| c[0]).sum();
        let pool: u64 = fuzz.iter().map(|(_, c)| c[1]).sum();
        let fuzz_ms: f64 = fuzz.iter().map(|(key, _)| self.one_thread_ms[*key]).sum();
        m.insert("experiments.fuzz_exec_us", fuzz_ms * 1e3 / execs.max(1) as f64);
        m.insert("experiments.fuzz_yield", pool as f64 / execs.max(1) as f64);

        m.insert("core.render_ms", crate::self_ms_per_op(tr.spans(), "core.render", n));
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Tally;
    use tussle_experiments::fuzz::{generate, Finding};
    use tussle_sim::SimRng;

    fn only(id: &str) -> Option<Vec<String>> {
        Some(vec![id.to_owned()])
    }

    fn ratio(problems: &[String]) -> f64 {
        let mut t = Tally::default();
        t.record(true);
        t.record(problems.is_empty());
        t.failed_ratio()
    }

    #[test]
    fn a_sweep_that_does_not_hold_fails_the_op() {
        let cfg = SweepConfig { seeds: 1, base_seed: 3, only: only("E10"), threads: Some(1) };
        let mut r = run_sweep(&cfg).unwrap();
        assert!(sweep_problems(&r).is_empty());
        r.experiments[0].holds -= 1;
        assert!(ratio(&sweep_problems(&r)) > 0.0);
    }

    #[test]
    fn a_chaos_panic_fails_the_op() {
        let cfg = ChaosConfig {
            intensities: vec![0.0, 0.3],
            seeds: 1,
            base_seed: 3,
            only: only("E4"),
            threads: Some(1),
        };
        let mut r = run_chaos(&cfg).unwrap();
        assert!(chaos_problems(&r).is_empty());
        r.experiments[0].intensities[1].panics = 1;
        assert!(ratio(&chaos_problems(&r)) > 0.0);
    }

    #[test]
    fn an_unrecovered_cell_fails_the_op() {
        let cfg = RecoveryConfig {
            seeds: 1,
            base_seed: 3,
            kill_points: 1,
            every: RECOVERY_EVERY,
            only: only("E4"),
            threads: Some(1),
        };
        let mut r = run_recovery(&cfg).unwrap();
        assert!(recovery_problems(&r).is_empty());
        r.cells[0].identical = false;
        assert!(ratio(&recovery_problems(&r)) > 0.0);
    }

    #[test]
    fn a_fuzz_finding_fails_the_op() {
        let cfg =
            FuzzConfig { budget: 20, seeds: 1, base_seed: 3, corpus_dir: None, threads: Some(1) };
        let mut r = run_fuzz(&cfg).unwrap();
        assert!(fuzz_problems(&r).is_empty());
        r.findings.push(Finding {
            oracle: "planted".into(),
            detail: "planted finding".into(),
            elements: 1,
            scenario: generate(&mut SimRng::seed_from_u64(1)),
        });
        assert!(ratio(&fuzz_problems(&r)) > 0.0);
    }

    #[test]
    fn json_that_differs_from_the_one_thread_run_fails_the_op() {
        let mut w = Campaigns::setup(5);
        w.warm_up().unwrap();
        let mut off = Tracer::new(false);
        assert!(w.op(0, &mut off).unwrap().1);
        assert!(w.deferred_failures(1, &mut off).unwrap().is_empty());
        w.ops.get_mut(&0).unwrap().2 .0 ^= 1;
        let failed = w.deferred_failures(1, &mut off).unwrap();
        assert!(ratio(&failed.iter().map(|k| format!("op {k}")).collect::<Vec<_>>()) > 0.0);
    }

    #[test]
    fn changed_counts_for_the_same_call_stop_the_benchmark() {
        let mut w = Campaigns::setup(5);
        w.warm_up().unwrap();
        let mut off = Tracer::new(false);
        w.ledger.observe((Kind::Chaos, 0), vec![u64::MAX]).unwrap();
        assert!(w.op(1, &mut off).is_err());
    }
}
