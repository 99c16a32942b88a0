//! `sweep-mem`: chaos cases, every case on a fresh fabric with the
//! in-memory journal sink. The matrix is fixed (it holds the cells the
//! known dedup-eviction fault hits, so they fail in every run); `--seed`
//! fixes the order the cells run in. Most cells run untraced through
//! `axml_chaos::run_case`; every [`JOURNALED_STRIDE`]-th cell of the
//! canonical matrix runs through `axml_chaos::run_with_plane_traced`, so
//! the verification riders (journal, spec conformance, histograms, phase
//! profile, gauge series, tree render) are part of the measured work.

use crate::case::{traced_case, CaseOutput};
use crate::checks;
use crate::measure::{median, repeated_setup, Budget, Meter, Rng, Spans};
use crate::{Args, Report};
use axml_chaos::{
    builder_for, doc_state_digest, plane_for, run_case, run_with_plane, run_with_plane_traced, CaseConfig, Profile,
};
use axml_p2p::FaultPlane;
use std::collections::BTreeMap;
use std::time::Instant;

/// Scenarios of the matrix (fig1-crash is left out: it forces disk WALs,
/// which `wal-history` covers).
const SWEEP_SCENARIOS: [&str; 4] = ["fig1", "fig2", "fig1-abort", "deep"];
/// Message-fault profiles of the matrix (storage forces disk WALs).
const SWEEP_PROFILES: [Profile; 4] = [Profile::Drops, Profile::Dups, Profile::Mixed, Profile::Storm];
/// Fault seeds per (scenario, profile).
const SWEEP_SEEDS: u64 = 128;
/// Every `JOURNALED_STRIDE`-th cell of the canonical matrix runs journaled.
const JOURNALED_STRIDE: usize = 16;
/// Set-up warms up on every `WARMUP_STRIDE`-th cell of the canonical
/// (unshuffled) list, so set-up does the same work for every seed.
const WARMUP_STRIDE: usize = 40;

struct Cell {
    case: CaseConfig,
    plane: FaultPlane,
    journaled: bool,
}

/// One case's observable outcome, as the checks need it.
#[derive(Clone)]
struct Outcome {
    committed: Option<bool>,
    verdict_ok: bool,
    reason: String,
    conformance_clean: Option<bool>,
    digest: u64,
    doc_digest: u64,
}

impl From<&CaseOutput> for Outcome {
    fn from(o: &CaseOutput) -> Outcome {
        Outcome {
            committed: o.committed,
            verdict_ok: o.verdict_ok,
            reason: o.reason.clone(),
            conformance_clean: o.conformance_clean,
            digest: o.digest,
            doc_digest: o.doc_digest,
        }
    }
}

impl From<&axml_chaos::CaseResult> for Outcome {
    fn from(r: &axml_chaos::CaseResult) -> Outcome {
        Outcome {
            committed: r.committed,
            verdict_ok: r.verdict.ok,
            reason: r.verdict.reason.clone(),
            conformance_clean: r.conformance.as_ref().map(|c| c.first().is_none()),
            digest: r.digest,
            doc_digest: r.doc_digest,
        }
    }
}

/// The fixed cell list in canonical order.
fn make_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for scenario in SWEEP_SCENARIOS {
        let peers = builder_for(scenario).expect("known scenario").peers();
        for profile in SWEEP_PROFILES {
            for s in 0..SWEEP_SEEDS {
                let journaled = cells.len() % JOURNALED_STRIDE == 0;
                cells.push(Cell {
                    case: CaseConfig::new(scenario, profile, s),
                    plane: plane_for(profile, s, &peers),
                    journaled,
                });
            }
        }
    }
    cells
}

/// Runs one cell through the library path the untraced run measures.
fn run_untraced(cell: &Cell) -> Outcome {
    if cell.journaled {
        Outcome::from(&run_with_plane_traced(&cell.case, cell.plane.clone()).0)
    } else {
        Outcome::from(&run_case(&cell.case))
    }
}

/// The signature of the fault the `sweep-mem` workload keeps: after the
/// origin commits, `prune_seen` drops the transaction's dedup entries, so a
/// late duplicate of a child's `Result` passes dedup and is answered with
/// `Abort`; the child, not yet told `Commit`, compensates committed work.
/// Under message faults alone nothing else excuses an aborted participant
/// in a committed transaction.
fn is_dedup_eviction_abort(cell: &Cell, o: &Outcome) -> bool {
    matches!(cell.case.profile, Profile::Drops | Profile::Dups | Profile::Mixed)
        && o.committed == Some(true)
        && o.reason.starts_with("committed, but AP")
        && o.reason.ends_with("holds an aborted context with no crash or churn to excuse it")
}

#[derive(Default)]
struct Counts {
    msgs: u64,
    injected_dups: u64,
    retransmits: u64,
    dedup_suppressed: u64,
    heap_pushes: u64,
    delivered: u64,
    journal_events: u64,
    resolve_ticks: Vec<u64>,
    untraced_ns: u64,
    /// Journaled cells: the library's journaled path and plain `run_case`
    /// on the same cells.
    journaled_ns: u64,
    run_case_ns: u64,
}

pub fn run(args: &Args) -> Report {
    let (cells, setup_s) = repeated_setup(5, || {
        let mut cells = make_cells();
        for cell in cells.iter().step_by(WARMUP_STRIDE) {
            std::hint::black_box(run_untraced(cell));
        }
        Rng::new(args.seed).shuffle(&mut cells);
        cells
    });
    let mut report = Report::default();
    let mut meter = Meter::default();
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let budget = Budget::new(args.seconds);
    let mut outcomes: Vec<Option<Outcome>> = vec![None; cells.len()];
    // Whole rounds only: every run holds the same multiset of cells, so
    // the failed share and the latency mix do not depend on where the
    // time ran out.
    loop {
        for (i, cell) in cells.iter().enumerate() {
            let outcome = if args.trace {
                let out = meter.seg(|| {
                    let plane = spans.time("chaos.build", || {
                        let peers = builder_for(&cell.case.scenario).expect("known scenario").peers();
                        plane_for(cell.case.profile, cell.case.seed, &peers)
                    });
                    traced_case(&cell.case, &plane, cell.journaled, &mut spans)
                });
                counts.msgs += out.metrics.sent;
                counts.injected_dups += out.metrics.injected_dups;
                counts.retransmits += out.metrics.retransmits;
                counts.delivered += out.metrics.delivered;
                counts.dedup_suppressed += out.dup_suppressed;
                counts.heap_pushes += out.heap_pushes;
                counts.journal_events += out.journal_events;
                counts.resolve_ticks.extend(out.resolve_ticks);
                let t0 = Instant::now();
                let lib = run_untraced(cell);
                let lib_ns = t0.elapsed().as_nanos() as u64;
                counts.untraced_ns += lib_ns;
                if cell.journaled {
                    let t0 = Instant::now();
                    let plain = run_case(&cell.case);
                    counts.run_case_ns += t0.elapsed().as_nanos() as u64;
                    counts.journaled_ns += lib_ns;
                    report.check(checks::digests_equal(&cell.case.label(), plain.digest, lib.digest));
                }
                let traced = Outcome::from(&out);
                report.check(checks::digests_equal(&cell.case.label(), traced.digest, lib.digest));
                traced
            } else {
                meter.seg(|| run_untraced(cell))
            };
            meter.end_txn(i);
            report.attempted += 1;
            match &outcomes[i] {
                Some(first) => {
                    report.check(checks::digests_equal(&cell.case.label(), first.digest, outcome.digest));
                }
                None => outcomes[i] = Some(outcome.clone()),
            }
            if !outcome.verdict_ok {
                report.failed += 1;
            }
        }
        if budget.spent() {
            break;
        }
    }
    check_outcomes(&cells, &outcomes, &mut report);
    report.e2e = meter.end_to_end(setup_s);
    if args.trace {
        let txns = meter.txns().max(1) as f64;
        report.layer.extend(spans.per_txn_us(meter.txns()).into_iter().map(|(k, v)| (format!("{k}_us"), v)));
        report.layer.insert("p2p.msgs_per_txn".into(), counts.msgs as f64 / txns);
        report.layer.insert("p2p.retransmits_per_txn".into(), counts.retransmits as f64 / txns);
        report.layer.insert("p2p.dedup_suppressed_per_txn".into(), counts.dedup_suppressed as f64 / txns);
        report.layer.insert("p2p.heap_pushes_per_txn".into(), counts.heap_pushes as f64 / txns);
        // Useful deliveries (not suppressed as duplicates) per delivery
        // attempt (every send plus every copy the fault plane duplicated).
        report.layer.insert(
            "p2p.useful_delivery_ratio".into(),
            counts.delivered.saturating_sub(counts.dedup_suppressed) as f64
                / (counts.msgs + counts.injected_dups).max(1) as f64,
        );
        report.layer.insert("trace.events_per_txn".into(), counts.journal_events as f64 / txns);
        report.layer.insert("resolve_ticks_p50".into(), median(&counts.resolve_ticks) as f64);
        let untraced_per_s = meter.txns() as f64 / (counts.untraced_ns as f64 / 1e9).max(1e-9);
        report.layer.insert("trace.overhead_ratio".into(), untraced_per_s / meter.txn_per_s());
        report
            .layer
            .insert("chaos.journaled_ratio".into(), counts.journaled_ns as f64 / counts.run_case_ns.max(1) as f64);
    }
    report
}

/// Checks every cell's recorded outcome against independently derived
/// answers; failed cells must carry the known fault's signature.
fn check_outcomes(cells: &[Cell], outcomes: &[Option<Outcome>], report: &mut Report) {
    let mut pristine: BTreeMap<String, u64> = BTreeMap::new();
    let mut fault_free: BTreeMap<(String, u64), u64> = BTreeMap::new();
    for (cell, outcome) in cells.iter().zip(outcomes) {
        let Some(o) = outcome else { continue };
        let label = cell.case.label();
        if !o.verdict_ok {
            if !is_dedup_eviction_abort(cell, o) {
                report.problem(format!("{label}: unexpected failure: {}", o.reason));
            }
            continue;
        }
        let may_commit = cell.case.scenario != "fig1-abort";
        report.check(checks::outcome_allowed(&label, o.committed, may_commit));
        if cell.journaled {
            report.check(checks::verdicts_hold(&label, o.verdict_ok, &o.reason, o.conformance_clean.or(Some(false))));
        }
        match o.committed {
            Some(false) => {
                let want = *pristine.entry(cell.case.scenario.clone()).or_insert_with(|| {
                    doc_state_digest(&builder_for(&cell.case.scenario).expect("known scenario").build())
                });
                report.check(checks::aborted_restored(&label, o.doc_digest, want));
            }
            Some(true) if matches!(cell.case.profile, Profile::Drops | Profile::Dups | Profile::Mixed) => {
                let key = (cell.case.scenario.clone(), cell.case.seed);
                let want = *fault_free
                    .entry(key)
                    .or_insert_with(|| run_with_plane(&cell.case, FaultPlane::default()).doc_digest);
                report.check(checks::committed_matches_fault_free(&label, o.doc_digest, want));
            }
            _ => {}
        }
    }
}
