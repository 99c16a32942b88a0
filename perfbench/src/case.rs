//! A chaos case with the benchmark's spans around each layer.
//!
//! [`traced_case`] performs the same steps as `axml_chaos::run_case`
//! (untraced) and `axml_chaos::run_with_plane_traced` (journaled), calling
//! each layer's public functions itself so their time can be attributed.
//! The run digest it returns must equal the one the library computes for
//! the same cell; the workloads check that for every case.

use crate::measure::Spans;
use axml_chaos::{builder_for, check_atomicity, doc_state_digest, run_digest, CaseConfig, SAMPLE_INTERVAL};
use axml_obs::{derive_histograms, FlightRecorder, Monitor, ProfileReport, SeriesRegistry, DEFAULT_FLIGHT_CAPACITY};
use axml_p2p::{FaultPlane, NetMetrics, TraceEvent};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// An event observer whose time inside the wrapped sink is accumulated,
/// so it can be taken out of the simulator's span.
struct TimedSink<S> {
    inner: S,
    ns: Rc<Cell<u64>>,
}

impl<S: axml_trace::EventSink> axml_trace::EventSink for TimedSink<S> {
    fn on_event(&mut self, event: &TraceEvent) {
        let t0 = Instant::now();
        self.inner.on_event(event);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
    }
}

/// What one traced case produced.
pub struct CaseOutput {
    pub committed: Option<bool>,
    pub verdict_ok: bool,
    pub reason: String,
    pub conformance_clean: Option<bool>,
    pub digest: u64,
    pub doc_digest: u64,
    pub resolve_ticks: Option<u64>,
    pub metrics: NetMetrics,
    pub heap_pushes: u64,
    pub dup_suppressed: u64,
    pub journal_events: u64,
}

/// Runs one case (plane given, as the sweep derives it) with spans.
/// `journaled` selects the `run_with_plane_traced` path: lifecycle journal,
/// gauge sampling, spec conformance and the trace riders. Cases that need
/// disk WALs (storage faults, a scenario-defined crash) are not supported:
/// the harness would attach WAL sinks this function does not.
pub fn traced_case(case: &CaseConfig, plane: &FaultPlane, journaled: bool, spans: &mut Spans) -> CaseOutput {
    let mut s = spans.time("chaos.build", || {
        let mut b = builder_for(&case.scenario).expect("known scenario");
        let mut cfg = b.config.clone();
        cfg.dedup = case.dedup;
        let mut effective = plane.clone();
        effective.crashes.extend(b.fault.crashes.iter().copied());
        effective.partitions.extend(b.fault.partitions.iter().cloned());
        effective.script.extend(b.fault.script.iter().cloned());
        b.seed = 1000 + case.seed;
        b.batch_links = case.batch_links;
        if journaled {
            b = b.traced().sampled(SAMPLE_INTERVAL);
        }
        b.config(cfg).fault_plane(effective).build()
    });
    let monitor_ns = Rc::new(Cell::new(0));
    let flight_ns = Rc::new(Cell::new(0));
    let monitor = Rc::new(RefCell::new(TimedSink { inner: Monitor::new(), ns: monitor_ns.clone() }));
    s.sim.attach_observer(monitor.clone());
    let recorder =
        Rc::new(RefCell::new(TimedSink { inner: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY), ns: flight_ns.clone() }));
    s.sim.attach_observer(recorder.clone());
    let report = spans.time("p2p.run", || s.run());
    spans.reassign("p2p.run", "obs.monitor", monitor_ns.get());
    spans.reassign("p2p.run", "obs.flight", flight_ns.get());
    let findings = spans.time("obs.monitor", || monitor.borrow_mut().inner.finish().to_vec());
    let conformance = spans.time("spec.conform", || s.trace().map(axml_spec::check_journal));
    let (verdict_ok, reason) = spans.time("chaos.oracle", || {
        let mut verdict = check_atomicity(&s, &report);
        if verdict.ok {
            if let Some(f) = findings.first() {
                verdict = axml_chaos::Verdict { ok: false, reason: format!("online monitor: {f}") };
            }
        }
        if verdict.ok {
            if let Some(d) = conformance.as_ref().and_then(axml_spec::Conformance::first) {
                verdict = axml_chaos::Verdict { ok: false, reason: format!("spec conformance: {d}") };
            }
        }
        (verdict.ok, verdict.reason)
    });
    let (digest, doc_digest) = spans.time("chaos.digest", || (run_digest(&s, &report), doc_state_digest(&s)));
    let snapshot = spans.time("trace.render", || s.snapshot());
    let mut journal_events = 0;
    if let Some(j) = s.trace() {
        journal_events = j.len() as u64;
        spans.time("trace.render", || {
            std::hint::black_box((j.to_json_lines(), j.render_tree(), snapshot.render()));
        });
        spans.time("obs.analytics", || std::hint::black_box(derive_histograms(j)));
        spans.time("obs.series", || std::hint::black_box(SeriesRegistry::from_journal(j)));
        spans.time("obs.profile", || std::hint::black_box(ProfileReport::from_journal(j).phase_histograms()));
    }
    if !verdict_ok {
        spans.time("obs.flight", || std::hint::black_box(recorder.borrow().inner.dump()));
    }
    let dup_suppressed = report.stats.values().map(|st| st.dup_suppressed).sum();
    CaseOutput {
        committed: report.outcome.as_ref().map(|o| o.committed),
        verdict_ok,
        reason,
        conformance_clean: conformance.as_ref().map(|c| c.first().is_none()),
        digest,
        doc_digest,
        resolve_ticks: report.outcome.as_ref().map(|o| o.resolved_at - o.started_at),
        metrics: report.metrics,
        heap_pushes: s.sim.heap_pushes(),
        dup_suppressed,
        journal_events,
    }
}
