//! `repo-xml`: local transactions at one peer over generated AXML
//! documents of a thousand to twelve thousand nodes.
//!
//! The peer's repository holds each document as serialized XML. A
//! transaction loads (parses) one document, runs a lazy `Select` that
//! materializes the embedded calls it needs through a deterministic
//! service stub, applies a seeded update mix whose effects it logs in a
//! `TransactionContext`, and then either commits (serializes the result)
//! or aborts (derives and executes the compensation). Every transaction
//! starts from the stored version, so document sizes stay fixed for the
//! whole run. Documents, queries, update targets and the commit/abort
//! choice all come from `--seed`.

use crate::checks;
use crate::measure::{repeated_setup, Budget, Meter, Rng, Spans};
use crate::{Args, Report};
use axml_core::chain::ActiveList;
use axml_core::context::TransactionContext;
use axml_core::TxnId;
use axml_doc::materialize::{ResolvedCall, ServiceInvoker, ServiceResponse};
use axml_doc::view::TransparentView;
use axml_doc::{EvalMode, Fault, MaterializationEngine};
use axml_p2p::PeerId;
use axml_query::{Locator, NodePath, SelectQuery, UpdateAction};
use axml_workload::docs::{random_axml_doc, DocParams};
use axml_xml::{Document, Fragment, NodeId};
use std::collections::BTreeMap;

/// Element count of the generated documents, and documents of each size.
/// The median transaction falls among the middle size's, so several
/// documents per size keep it from hanging on one generated shape.
const SIZES: [usize; 3] = [1_000, 3_000, 12_000];
const DOCS_PER_SIZE: usize = 4;
/// Result-name classes the stub answers with; a query names one class at
/// random, so a lazy `Select` materializes the document's call for half
/// of the transactions.
const CLASSES: u64 = 2;
/// Share of transactions that commit, in tenths.
const COMMIT_TENTHS: u64 = 7;
/// Transactions per round. A round is a fixed seeded sequence; every
/// round replays it against the stored documents, so each position does
/// the same work every time.
const ROUND: u64 = 1000;

/// Embedded calls per document. Lazy relevance analysis rebuilds the
/// document's transparent view for every candidate call in every fixpoint
/// round, so a lazy `Select` costs about calls × nodes; one call per
/// document lets a run repeat its round of transactions.
const CALLS_PER_DOC: usize = 1;

/// A deterministic stand-in for remote services: call `svc<k>` answers one
/// `hit<k mod CLASSES>` element carrying a small payload, and advertises
/// that result name the way a WSDL would.
struct Stub;

fn call_index(call: &ResolvedCall) -> u64 {
    call.method.as_str().trim_start_matches("svc").parse().unwrap_or(0)
}

impl ServiceInvoker for Stub {
    fn invoke(&mut self, call: &ResolvedCall) -> Result<ServiceResponse, Fault> {
        let k = call_index(call);
        let item = Fragment::elem(format!("hit{}", k % CLASSES))
            .with_attr("call", k.to_string())
            .with_child(Fragment::elem_text("value", format!("v{}", k * 7919 % 1000)))
            .with_child(Fragment::elem_text("source", format!("peer://stub/svc{k}")));
        Ok(ServiceResponse { items: vec![item], effects: Vec::new() })
    }

    fn result_hints(&self, call: &ResolvedCall) -> Option<Vec<String>> {
        Some(vec![format!("hit{}", call_index(call) % CLASSES)])
    }
}

struct StoredDoc {
    name: String,
    xml: String,
    pristine: Document,
    calls: usize,
}

fn make_docs(seed: u64) -> Vec<StoredDoc> {
    let mut rng = Rng::new(seed);
    let mut docs = Vec::new();
    for nodes in SIZES {
        for copy in 0..DOCS_PER_SIZE {
            let params = DocParams {
                nodes,
                max_fanout: 6,
                name_alphabet: 12,
                p_text: 0.4,
                service_calls: CALLS_PER_DOC,
                sc_urls: vec!["peer://ap2".into(), "peer://ap3".into()],
            };
            let xml = random_axml_doc(rng.next_u64(), &params).to_xml();
            let pristine = Document::parse(&xml).expect("generated document parses");
            docs.push(StoredDoc { name: format!("d{nodes}-{copy}"), xml, pristine, calls: params.service_calls });
        }
    }
    docs
}

#[derive(Default)]
struct Counts {
    nodes: u64,
    effects: u64,
    comp_actions: u64,
    materialized: u64,
    calls: u64,
}

/// Times one call into the program: as a segment of the transaction, and
/// in a traced run also as a span of `layer`.
fn seg<R>(meter: &mut Meter, spans: &mut Option<Spans>, layer: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(s) => meter.seg(|| s.time(layer, f)),
        None => meter.seg(f),
    }
}

/// An update target: a seeded random walk down element children to a leaf
/// element, then up one level at a time with probability 1/2 (never back
/// to the root). Targets are mostly small subtrees, now and then a larger
/// one, and picking one costs twice the walk's depth rather than a pass
/// over the document.
fn update_target(doc: &Document, rng: &mut Rng) -> NodeId {
    let root = doc.root();
    let mut node = root;
    loop {
        let kids: Vec<NodeId> = doc
            .children(node)
            .map(|c| c.iter().copied().filter(|&k| doc.name(k).is_ok()).collect())
            .unwrap_or_default();
        if kids.is_empty() {
            break;
        }
        node = kids[rng.below(kids.len() as u64) as usize];
    }
    while rng.chance(1, 2) {
        match doc.parent(node) {
            Ok(Some(parent)) if parent != root => node = parent,
            _ => break,
        }
    }
    node
}

/// Transaction `pos` of the round over `stored`. Returns an error message
/// when an output check fails.
fn transaction(
    stored: &StoredDoc,
    pos: u64,
    rng: &mut Rng,
    meter: &mut Meter,
    spans: &mut Option<Spans>,
    counts: &mut Counts,
) -> checks::Check {
    let label = format!("{} txn {pos}", stored.name);
    let engine = MaterializationEngine::new(EvalMode::Lazy);
    let class = rng.below(CLASSES);
    let hit_name = format!("hit{class}");
    let query = SelectQuery::parse(&format!("Select v//{hit_name} from v in root")).expect("static query parses");
    let mut ctx = TransactionContext::new(TxnId::new(PeerId(1), pos), None, ActiveList::new(PeerId(1), false), 0);

    let mut doc = seg(meter, spans, "xml.parse", || Document::parse(&stored.xml)).expect("stored document parses");
    counts.nodes += doc.node_count() as u64;
    let mat = seg(meter, spans, "doc.materialize", || engine.materialize_for_query(&mut doc, &query, &mut Stub))
        .map_err(|f| format!("{label}: materialization failed: {f:?}"))?;
    counts.materialized += mat.materialized as u64;
    counts.calls += stored.calls as u64;
    counts.effects += mat.effects.len() as u64;
    ctx.record_local(stored.name.as_str(), "materialize", mat.effects);
    let hits = seg(meter, spans, "query.select", || TransparentView::eval(&doc, &query))
        .map_err(|e| format!("{label}: select failed: {e}"))?;
    let own = doc.all_nodes().filter(|&n| doc.name(n).is_ok_and(|q| q.local.as_str() == hit_name)).count();
    checks::hit_count(&label, hits.len(), own)?;

    for u in 0..2 + rng.below(5) {
        let target = update_target(&doc, rng);
        let path = NodePath::of(&doc, target).map_err(|e| format!("{label}: {e}"))?;
        // Earlier deletes can leave the root without element children; the
        // walk then stops at the root, which only an insert may target.
        let draw = rng.below(10);
        let (op, action) = match if target == doc.root() { 0 } else { draw } {
            0..=3 => {
                let data = Fragment::elem("added")
                    .with_attr("txn", pos.to_string())
                    .with_child(Fragment::elem_text("note", format!("u{u}")));
                ("insert", UpdateAction::insert(Locator::Node(path), vec![data]))
            }
            4..=6 => ("delete", UpdateAction::delete(Locator::Node(path))),
            _ => (
                "replace",
                UpdateAction::replace(Locator::Node(path), vec![Fragment::elem_text("replaced", format!("t{pos}"))]),
            ),
        };
        let applied = seg(meter, spans, "query.update", || action.apply(&mut doc))
            .map_err(|e| format!("{label}: {op} failed: {e}"))?;
        counts.effects += applied.effects.len() as u64;
        ctx.record_local(stored.name.as_str(), op, applied.effects);
    }

    if rng.chance(COMMIT_TENTHS, 10) {
        let xml = seg(meter, spans, "xml.serialize", || doc.to_xml());
        meter.end_txn(pos as usize);
        checks::round_trips(&label, &xml)
    } else {
        let comp = seg(meter, spans, "core.comp_derive", || ctx.own_compensation());
        counts.comp_actions += comp.action_count() as u64;
        let applied = seg(meter, spans, "core.comp_apply", || {
            let mut docs: BTreeMap<String, &mut Document> = BTreeMap::new();
            docs.insert(stored.name.clone(), &mut doc);
            comp.execute(&mut docs)
        });
        meter.end_txn(pos as usize);
        applied.map_err(|e| format!("{label}: compensation failed: {e}"))?;
        checks::compensated(&label, &doc, &stored.pristine)
    }
}

pub fn run(args: &Args) -> Report {
    let (docs, setup_s) = repeated_setup(5, || {
        let docs = make_docs(args.seed);
        // Warm-up: one transaction per document.
        let mut rng = Rng::new(args.seed ^ 1);
        for (i, d) in docs.iter().enumerate() {
            let _ = transaction(d, i as u64, &mut rng, &mut Meter::default(), &mut None, &mut Counts::default());
        }
        docs
    });
    let mut report = Report::default();
    let mut meter = Meter::default();
    let mut spans = args.trace.then(Spans::default);
    let mut counts = Counts::default();
    let round_seed = args.seed.wrapping_add(0x5eed);
    let mut rng = Rng::new(round_seed);
    let budget = Budget::new(args.seconds);
    let mut pos = 0u64;
    while !budget.spent() {
        let stored = &docs[pos as usize % docs.len()];
        let done = meter.txns();
        let check = transaction(stored, pos, &mut rng, &mut meter, &mut spans, &mut counts);
        if meter.txns() == done {
            // The transaction stopped before its end: the program failed it.
            meter.end_txn(pos as usize);
            report.failed += 1;
        }
        report.check(check);
        report.attempted += 1;
        pos += 1;
        if pos == ROUND {
            pos = 0;
            rng = Rng::new(round_seed);
        }
    }
    report.e2e = meter.end_to_end(setup_s);
    if let Some(spans) = spans {
        let txns = meter.txns().max(1) as f64;
        report.layer.extend(spans.per_txn_us(meter.txns()).into_iter().map(|(k, v)| (format!("{k}_us"), v)));
        report.layer.insert("xml.nodes_per_txn".into(), counts.nodes as f64 / txns);
        report.layer.insert("query.effects_per_txn".into(), counts.effects as f64 / txns);
        report.layer.insert("core.comp_actions_per_txn".into(), counts.comp_actions as f64 / txns);
        report.layer.insert("doc.materialized_ratio".into(), counts.materialized as f64 / counts.calls.max(1) as f64);
    }
    report
}
