//! `wal-history`: one long-lived Fig. 1 fabric (query flavor) with a
//! fault-free disk WAL at every peer runs transactions back to back; at
//! fixed points of the history a non-origin peer crash-restarts and
//! recovers from its segments.
//!
//! A round is one fabric's whole history: [`HISTORY`] transactions with a
//! crash-restart of [`CRASH_PEER`] after every [`CRASH_EVERY`]-th, so
//! recovery is measured at the same history lengths in every run. Rounds
//! repeat on fresh fabrics until the time is up. `--seed` seeds the
//! fabric's latency jitter.

use crate::checks;
use crate::measure::{median, repeated_setup, Budget, Meter, Spans};
use crate::{Args, Report};
use axml_core::durability::{recover_in_doubt, replay, DurabilitySink, JournalEntry, WalStats};
use axml_core::scenarios::{Flavor, Scenario, ScenarioBuilder};
use axml_p2p::PeerId;
use axml_store::{WalConfig, WalSink};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Transactions per fabric history.
const HISTORY: u64 = 4000;
/// A crash-restart follows every `CRASH_EVERY`-th transaction.
const CRASH_EVERY: u64 = 1000;
/// The peer that crash-restarts: AP3, the interior peer of Fig. 1's
/// nested-recovery subtree.
const CRASH_PEER: PeerId = PeerId(3);
/// Warm-up transactions on a throwaway fabric during set-up.
const WARMUP: u64 = 100;
/// WAL segment size. Rotation seals a segment with an fsync; at the 64 KiB
/// default about one transaction in ten carries one, and the shared
/// disk's fsync latency then sets the p99 (it moved 2.5x between identical
/// runs). At 2 MiB about one transaction in 400 rotates, so the p99 stays
/// a property of the protocol and the WAL's write path, while every
/// history still rotates about nine segments and recovery reads several.
const SEGMENT_BYTES: u64 = 2 * 1024 * 1024;

/// A WAL sink whose append and recovery time is accumulated for the
/// per-layer report. Counters are atomics because sinks must be `Send`.
#[derive(Debug)]
struct TimedWal {
    inner: WalSink,
    append_ns: Arc<AtomicU64>,
    recover_ns: Arc<AtomicU64>,
}

impl TimedWal {
    fn timed<R>(counter: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl DurabilitySink for TimedWal {
    fn append(&mut self, entry: &JournalEntry) -> bool {
        let inner = &mut self.inner;
        Self::timed(&self.append_ns, || inner.append(entry))
    }

    fn append_forced(&mut self, entry: &JournalEntry) {
        let inner = &mut self.inner;
        Self::timed(&self.append_ns, || inner.append_forced(entry))
    }

    fn crash_restart(&mut self) -> Vec<JournalEntry> {
        let inner = &mut self.inner;
        Self::timed(&self.recover_ns, || inner.crash_restart())
    }

    fn stats(&self) -> WalStats {
        self.inner.stats()
    }
}

#[derive(Default)]
struct StoreTimers {
    append_ns: Arc<AtomicU64>,
    recover_ns: Arc<AtomicU64>,
}

/// A fabric plus the WAL directory it owns (removed on drop).
struct Fabric {
    s: Scenario,
    dir: PathBuf,
    submitted: u64,
}

impl Drop for Fabric {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn build_fabric(seed: u64, dir: PathBuf, timers: Option<&StoreTimers>) -> Fabric {
    let mut s = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(seed).build();
    for &p in &s.participants.clone() {
        let mut config = WalConfig::new(dir.join(format!("peer-{}", p.0)));
        config.segment_bytes = SEGMENT_BYTES;
        let sink = WalSink::create(config).expect("WAL directory is writable");
        let sink: Box<dyn DurabilitySink> = match timers {
            Some(t) => {
                Box::new(TimedWal { inner: sink, append_ns: t.append_ns.clone(), recover_ns: t.recover_ns.clone() })
            }
            None => Box::new(sink),
        };
        s.sim.actor_mut(p).set_durability_sink(sink);
    }
    Fabric { s, dir, submitted: 0 }
}

/// Submits the next transaction at the origin (the builder already
/// scheduled the first one).
fn submit(f: &mut Fabric) {
    if f.submitted > 0 {
        let at = f.s.sim.now() + 1;
        let origin = f.s.origin;
        f.s.sim.schedule_timer(at, origin, 0);
    }
    f.submitted += 1;
}

pub fn run(args: &Args, scratch: &Path) -> Report {
    let mut round_no = 0u64;
    let mut fresh_dir = || {
        round_no += 1;
        scratch.join(format!("wal-round-{round_no}"))
    };
    let timers = StoreTimers::default();
    let timers_opt = args.trace.then_some(&timers);
    let (first, setup_s) = repeated_setup(5, || {
        let mut warm = build_fabric(args.seed, fresh_dir(), None);
        for _ in 0..WARMUP {
            submit(&mut warm);
            warm.s.sim.run();
        }
        drop(warm);
        build_fabric(args.seed, fresh_dir(), timers_opt)
    });
    timers.append_ns.store(0, Ordering::Relaxed);
    timers.recover_ns.store(0, Ordering::Relaxed);

    let mut report = Report::default();
    let mut meter = Meter::default();
    let mut spans = Spans::default();
    let mut resolve_ticks = Vec::new();
    let mut recover_ns: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let (mut wal_bytes, mut journal_entries, mut segments, mut recovery_entries, mut crashes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut replay_ns, mut in_doubt_ns) = (0u64, 0u64);
    let mut rounds = 0u64;
    let budget = Budget::new(args.seconds);
    let mut next = Some(first);
    while let Some(mut f) = next.take() {
        rounds += 1;
        let mut seen = HashSet::new();
        for n in 1..=HISTORY {
            let before = f.s.sim.actor(f.s.origin).outcomes.len();
            submit(&mut f);
            meter.seg(|| f.s.sim.run());
            meter.end_txn(n as usize);
            report.attempted += 1;
            let outcomes = &f.s.sim.actor(f.s.origin).outcomes;
            match outcomes.get(before) {
                Some(o) if outcomes.len() == before + 1 => {
                    if !o.committed {
                        report.failed += 1;
                    }
                    report.check(checks::commits_with_fresh_id(&mut seen, o.txn, o.committed));
                    resolve_ticks.push(o.resolved_at - o.started_at);
                }
                _ => {
                    report.failed += 1;
                    report.problem(format!("round {rounds} txn {n}: no single outcome at the origin"));
                }
            }
            if n % CRASH_EVERY == 0 {
                let pre = f.s.sim.actor(CRASH_PEER).journal().to_vec();
                let at = f.s.sim.now() + 1;
                f.s.sim.schedule_crash_restart(at, CRASH_PEER);
                let ((), ns) = meter.side(|| {
                    f.s.sim.run();
                });
                recover_ns.entry(n).or_default().push(ns);
                crashes += 1;
                let actor = f.s.sim.actor(CRASH_PEER);
                report.check(checks::journal_prefix(CRASH_PEER.0, &pre, actor.journal()));
                recovery_entries += actor.wal_stats().recovery_entries;
                if args.trace {
                    // The peer's own replay and presumed-abort pass cannot be
                    // timed from outside; repeat them on the same recovered
                    // entries and repository.
                    let entries = actor.journal().to_vec();
                    let t0 = Instant::now();
                    let mut contexts = replay(&entries).expect("recovered journal replays");
                    replay_ns += t0.elapsed().as_nanos() as u64;
                    let mut repo = actor.repo.clone();
                    let t0 = Instant::now();
                    std::hint::black_box(recover_in_doubt(&mut contexts, &mut repo, at));
                    in_doubt_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        for &p in &f.s.participants {
            let actor = f.s.sim.actor(p);
            let stats = actor.wal_stats();
            wal_bytes += stats.bytes_appended;
            segments += stats.segments_rotated;
            journal_entries += actor.journal().len() as u64;
        }
        if !budget.spent() {
            next = Some(build_fabric(args.seed, fresh_dir(), timers_opt));
        }
    }

    let all_recover: Vec<u64> = recover_ns.values().flatten().copied().collect();
    let txns = meter.txns().max(1) as f64;
    let mut extra: BTreeMap<String, f64> = BTreeMap::new();
    extra.insert("recover_ms_p50".into(), median(&all_recover) as f64 / 1e6);
    for (n, v) in &recover_ns {
        extra.insert(format!("recover_ms_h{n}"), median(v) as f64 / 1e6);
    }
    extra.insert("wal_bytes_per_txn".into(), wal_bytes as f64 / txns);
    extra.insert("resolve_ticks_p50".into(), median(&resolve_ticks) as f64);
    report.e2e = meter.end_to_end(setup_s);
    if args.trace {
        let crashes_f = crashes.max(1) as f64;
        let append_ns = timers.append_ns.load(Ordering::Relaxed);
        let store_recover_ns = timers.recover_ns.load(Ordering::Relaxed);
        // The simulator's busy time is the transactions' time less the
        // WAL's (the crash steps are accounted under recovery).
        spans.add("p2p.run", ((meter.busy_s() * 1e9) as u64).saturating_sub(all_recover.iter().sum::<u64>()));
        spans.reassign("p2p.run", "store.append", append_ns);
        report.layer.extend(spans.per_txn_us(meter.txns()).into_iter().map(|(k, v)| (format!("{k}_us"), v)));
        report.layer.insert("store.recover_dir_ms".into(), store_recover_ns as f64 / 1e6 / crashes_f);
        report.layer.insert("core.replay_ms".into(), replay_ns as f64 / 1e6 / crashes_f);
        report.layer.insert("core.recover_in_doubt_us".into(), in_doubt_ns as f64 / 1e3 / crashes_f);
        report.layer.insert("core.journal_entries_per_txn".into(), journal_entries as f64 / txns);
        report.layer.insert("store.segments_rotated".into(), segments as f64 / rounds.max(1) as f64);
        report.layer.insert("store.recovery_entries".into(), recovery_entries as f64 / crashes_f);
        report.layer.extend(extra);
    } else {
        report.info.extend(extra);
    }
    report
}
