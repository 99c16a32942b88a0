//! Output checks. Each compares the program's output with an answer the
//! benchmark derives independently (a pristine build, a fault-free run,
//! its own tree walk, a round trip) — never with a stored copy of earlier
//! output. They run outside the timed sections. [`self_test`] feeds every
//! check a wrong answer and requires it to fail.

use axml_core::durability::JournalEntry;
use axml_core::TxnId;
use axml_xml::{equivalent_ordered, Document};
use std::collections::HashSet;

pub type Check = Result<(), String>;

fn fail(msg: String) -> Check {
    Err(msg)
}

/// An aborted case's documents equal the scenario built but not run.
pub fn aborted_restored(label: &str, doc_digest: u64, pristine: u64) -> Check {
    if doc_digest == pristine {
        Ok(())
    } else {
        fail(format!("{label}: aborted, but doc digest {doc_digest:016x} != pristine {pristine:016x}"))
    }
}

/// A committed case under message faults ends with the fault-free run's
/// documents.
pub fn committed_matches_fault_free(label: &str, doc_digest: u64, fault_free: u64) -> Check {
    if doc_digest == fault_free {
        Ok(())
    } else {
        fail(format!("{label}: committed, but doc digest {doc_digest:016x} != fault-free {fault_free:016x}"))
    }
}

/// The case resolved, and a scenario whose service always fails never
/// commits.
pub fn outcome_allowed(label: &str, committed: Option<bool>, may_commit: bool) -> Check {
    match committed {
        None => fail(format!("{label}: unresolved at the deadline")),
        Some(true) if !may_commit => fail(format!("{label}: committed, but its service always fails")),
        Some(_) => Ok(()),
    }
}

/// The oracle, monitor and (when journaled) conformance verdicts hold.
pub fn verdicts_hold(label: &str, verdict_ok: bool, reason: &str, conformance_clean: Option<bool>) -> Check {
    if !verdict_ok {
        return fail(format!("{label}: {reason}"));
    }
    if conformance_clean == Some(false) {
        return fail(format!("{label}: spec conformance diverged"));
    }
    Ok(())
}

/// Two runs of one cell produced the same run digest.
pub fn digests_equal(label: &str, a: u64, b: u64) -> Check {
    if a == b {
        Ok(())
    } else {
        fail(format!("{label}: run digest {a:016x} != {b:016x}"))
    }
}

/// A transaction of the long-lived fabric committed under a fresh id.
pub fn commits_with_fresh_id(seen: &mut HashSet<TxnId>, txn: TxnId, committed: bool) -> Check {
    if !committed {
        return fail(format!("{txn}: aborted on a fault-free fabric"));
    }
    if !seen.insert(txn) {
        return fail(format!("{txn}: transaction id reused"));
    }
    Ok(())
}

/// A crash-restarted peer recovered at least everything it had journaled.
pub fn journal_prefix(peer: u32, before: &[JournalEntry], after: &[JournalEntry]) -> Check {
    if after.len() >= before.len() && after[..before.len()] == *before {
        Ok(())
    } else {
        fail(format!(
            "AP{peer}: pre-crash journal ({} entries) is not a prefix of the recovered one ({} entries)",
            before.len(),
            after.len()
        ))
    }
}

/// Compensation restored an aborted document to its pre-transaction copy.
pub fn compensated(label: &str, doc: &Document, before: &Document) -> Check {
    if equivalent_ordered(doc, before) {
        Ok(())
    } else {
        fail(format!("{label}: compensated document differs from its pre-transaction copy"))
    }
}

/// A committed document survives a serialize → parse round trip: the
/// re-parsed document serializes to the committed text again.
pub fn round_trips(label: &str, xml: &str) -> Check {
    match Document::parse(xml) {
        Ok(parsed) if parsed.to_xml() == xml => Ok(()),
        Ok(_) => fail(format!("{label}: re-parsed document differs from the committed one")),
        Err(e) => fail(format!("{label}: serialized document does not parse: {e}")),
    }
}

/// The program's `Select` hit count equals the benchmark's own count.
pub fn hit_count(label: &str, hits: usize, own: usize) -> Check {
    if hits == own {
        Ok(())
    } else {
        fail(format!("{label}: Select returned {hits} hits, tree walk counts {own}"))
    }
}

/// Feeds every check a right and a wrong answer.
pub fn self_test() -> Check {
    fn expect(name: &str, right: Check, wrong: Check) -> Check {
        right.map_err(|e| format!("self-test {name}: rejected a right answer: {e}"))?;
        match wrong {
            Err(_) => Ok(()),
            Ok(()) => Err(format!("self-test {name}: accepted a wrong answer")),
        }
    }
    expect("aborted_restored", aborted_restored("t", 7, 7), aborted_restored("t", 7, 8))?;
    expect(
        "committed_matches_fault_free",
        committed_matches_fault_free("t", 1, 1),
        committed_matches_fault_free("t", 1, 2),
    )?;
    expect("outcome_allowed", outcome_allowed("t", Some(false), false), outcome_allowed("t", Some(true), false))?;
    expect("outcome_allowed/unresolved", outcome_allowed("t", Some(true), true), outcome_allowed("t", None, true))?;
    expect("verdicts_hold", verdicts_hold("t", true, "", Some(true)), verdicts_hold("t", false, "oracle", None))?;
    expect("verdicts_hold/conformance", verdicts_hold("t", true, "", None), verdicts_hold("t", true, "", Some(false)))?;
    expect("digests_equal", digests_equal("t", 3, 3), digests_equal("t", 3, 4))?;
    let t1 = TxnId::new(axml_p2p::PeerId(1), 1);
    let mut seen = HashSet::new();
    expect(
        "commits_with_fresh_id",
        commits_with_fresh_id(&mut seen, t1, true),
        commits_with_fresh_id(&mut seen, t1, true),
    )?;
    let mut seen = HashSet::new();
    expect(
        "commits_with_fresh_id/abort",
        commits_with_fresh_id(&mut seen, t1, true),
        commits_with_fresh_id(&mut HashSet::new(), t1, false),
    )?;
    let a = JournalEntry::Resolved { txn: t1, committed: true, at: 3 };
    let b = JournalEntry::Resolved { txn: t1, committed: false, at: 4 };
    expect(
        "journal_prefix",
        journal_prefix(1, std::slice::from_ref(&a), &[a.clone(), b.clone()]),
        journal_prefix(1, &[a.clone(), b.clone()], &[b.clone(), a.clone()]),
    )?;
    let d1 = Document::parse("<r><a/><b>x</b></r>").map_err(|e| e.to_string())?;
    let d2 = Document::parse("<r><b>x</b><a/></r>").map_err(|e| e.to_string())?;
    expect("compensated", compensated("t", &d1, &d1.clone()), compensated("t", &d1, &d2))?;
    expect("round_trips", round_trips("t", &d1.to_xml()), round_trips("t", "<r><a/>  <b>x</b></r>"))?;
    expect("round_trips/unparsable", round_trips("t", &d1.to_xml()), round_trips("t", "<r><a></r>"))?;
    expect("hit_count", hit_count("t", 4, 4), hit_count("t", 4, 5))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_rejects_a_wrong_answer() {
        super::self_test().unwrap();
    }
}
