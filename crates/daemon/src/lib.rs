//! # dynaddr-daemon
//!
//! The live ingestion daemon behind the `dynaddrd` binary: a resident
//! [`Daemon`] wraps [`dynaddr_core::live::IncrementalAnalyzer`] — the
//! whole paper pipeline as per-probe state machines — behind an ingest
//! mutex, and serves its rolling state over the same Unix-socket protocol
//! `queryd` speaks. `dynaddrd` and `queryd` share one serving front-end
//! ([`dynaddr_query::server`]); only the [`Answerer`] behind it differs.
//!
//! Two ways records arrive:
//!
//! * **Replay** ([`Daemon::replay`]): every record of a `dataset.store`,
//!   stably ordered by arrival time, optionally paced by a rate multiple
//!   of simulated real time ([`Rate`]). This is the CI-pinned path: a full
//!   replay followed by [`Daemon::seal_text`] renders **byte-for-byte**
//!   the report the batch `analyze` binary prints for the same directory.
//! * **Live pushes** ([`Daemon::push_meta`] and friends): the same entry
//!   points, one record at a time, for ingesting a simulator or collector
//!   as it emits.
//!
//! Point queries ([`Request::DaemonSnapshot`], [`Request::DaemonProbe`],
//! [`Request::IngestStats`]) never take the ingest mutex. They answer in
//! O(1) from a read view the ingest side publishes at every chunk
//! boundary: after each 256-row chunk of an unpaced replay, after
//! each record of a paced one, and after each `push_*` call. A reply is
//! therefore the analyzer's exact state at the last boundary, never a
//! state part-way through a chunk. Publishing takes the view's write lock
//! for a few microseconds; ingest and [`Daemon::seal_text`] (which runs
//! wholly under the ingest mutex, so ingest waits for a seal) never hold
//! up a reader for longer than that. Ingest volume and seal spans flow
//! into `dynaddr-obs` (`daemon.*` counters, `daemon.replay` heartbeats)
//! and from there into the `--trace` sidecar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dynaddr_atlas::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord,
};
use dynaddr_core::live::{replay_plan, IncrementalAnalyzer, IngestStats, ProbeView};
use dynaddr_core::pipeline::AnalysisConfig;
use dynaddr_core::report::render_full;
use dynaddr_core::{FilterCounts, ProbeClass};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_query::proto::{DaemonProbeReply, DaemonSnapshotReply, IngestStatsReply};
use dynaddr_query::{Request, Response};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Replay pacing: how fast recorded time is pushed relative to wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rate {
    /// No pacing; records are pushed as fast as they apply.
    Max,
    /// `N` seconds of recorded time per wall-clock second.
    Multiplier(f64),
}

impl Rate {
    /// Parses `"max"` or a positive multiplier.
    pub fn parse(s: &str) -> Result<Rate, String> {
        if s.eq_ignore_ascii_case("max") {
            return Ok(Rate::Max);
        }
        match s.parse::<f64>() {
            Ok(m) if m > 0.0 && m.is_finite() => Ok(Rate::Multiplier(m)),
            _ => Err(format!("--rate wants \"max\" or a positive number, got {s:?}")),
        }
    }
}

/// How many records an unpaced replay applies per ingest-lock hold, and
/// so how many rows apart it publishes the read view: large enough that
/// publishing costs little per row, small enough that point-query answers
/// trail the stream by well under a millisecond.
const REPLAY_CHUNK: usize = 256;

/// What point queries read: the analyzer's rolling state as of the last
/// publish.
#[derive(Default)]
struct ReadView {
    counts: FilterCounts,
    stats: IngestStats,
    /// Per-probe views, indexed by the analyzer's slots.
    probes: Vec<ProbeView>,
    /// Probe id → slot in `probes`; written only when a probe is
    /// introduced.
    slots: HashMap<u32, usize>,
}

/// The resident daemon state: the incremental analyzer, the read view
/// published from it, and the ingest bookkeeping the wire protocol
/// reports.
pub struct Daemon {
    live: Mutex<IncrementalAnalyzer>,
    view: RwLock<ReadView>,
    cfg: AnalysisConfig,
    started: Instant,
    rows_planned: AtomicU64,
    sealed: AtomicBool,
}

fn class_code(c: ProbeClass) -> u8 {
    match c {
        ProbeClass::Ipv6Only => 0,
        ProbeClass::DualStack => 1,
        ProbeClass::Tagged => 2,
        ProbeClass::Multihomed => 3,
        ProbeClass::TestingOnly => 4,
        ProbeClass::NeverChanged => 5,
        ProbeClass::Analyzable => 6,
    }
}

impl Daemon {
    /// An empty daemon over the given IP-to-AS snapshots and analysis
    /// configuration (the same `AnalysisConfig` the batch `analyze` run
    /// would use, so sealed reports are comparable).
    pub fn new(snapshots: MonthlySnapshots, cfg: AnalysisConfig) -> Daemon {
        Daemon {
            live: Mutex::new(IncrementalAnalyzer::new(snapshots)),
            view: RwLock::new(ReadView::default()),
            cfg,
            started: Instant::now(),
            rows_planned: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
        }
    }

    /// Copies the analyzer's rolling state into the read view: the
    /// counters whole, and the views of the probes touched since the last
    /// publish. Callers hold the ingest lock, so publishes land in ingest
    /// order and each one is the state at a chunk boundary.
    fn publish(&self, live: &mut IncrementalAnalyzer) {
        let mut guard = self.view.write().expect("no publish panicked");
        let view = &mut *guard;
        view.counts.clone_from(live.rolling_counts());
        view.stats.clone_from(live.stats());
        live.drain_dirty(|id, slot, probe| match view.probes.get_mut(slot) {
            Some(old) => *old = probe,
            None => {
                assert_eq!(slot, view.probes.len(), "probe slots are introduced in order");
                view.probes.push(probe);
                view.slots.insert(id, slot);
            }
        });
        #[cfg(test)]
        tests::check_publish(live, view);
    }

    /// Runs `f` on the analyzer under the ingest lock, then publishes.
    fn ingest(&self, f: impl FnOnce(&mut IncrementalAnalyzer)) {
        let mut live = self.live.lock().expect("no ingest panicked");
        f(&mut live);
        self.publish(&mut live);
    }

    /// Introduces one probe (live ingestion entry point).
    pub fn push_meta(&self, meta: &ProbeMeta) {
        self.ingest(|live| live.push_meta(meta));
    }

    /// Feeds one connection-log entry (live ingestion entry point).
    pub fn push_connection(&self, e: &ConnectionLogEntry) {
        self.ingest(|live| live.push_connection(e));
    }

    /// Feeds one k-root ping record (live ingestion entry point).
    pub fn push_kroot(&self, r: &KrootPingRecord) {
        self.ingest(|live| live.push_kroot(r));
    }

    /// Feeds one SOS-uptime record (live ingestion entry point).
    pub fn push_uptime(&self, r: &SosUptimeRecord) {
        self.ingest(|live| live.push_uptime(r));
    }

    /// Replays a whole dataset in arrival order: all meta rows first, then
    /// every record, paced by `rate`. The read view is published after the
    /// meta rows, then after every chunk (unpaced) or record (paced).
    pub fn replay(&self, ds: &AtlasDataset, rate: Rate) {
        let plan = replay_plan(ds);
        self.rows_planned.store(plan.len() as u64, Ordering::Relaxed);
        self.ingest(|live| {
            for meta in &ds.meta {
                live.push_meta(meta);
            }
        });
        dynaddr_obs::counter_add("daemon.meta_rows", ds.meta.len() as u64);
        let progress = dynaddr_obs::Progress::start("daemon.replay", plan.len() as u64);
        match rate {
            Rate::Max => {
                for chunk in plan.chunks(REPLAY_CHUNK) {
                    self.ingest(|live| {
                        for step in chunk {
                            live.apply(ds, step.row);
                        }
                    });
                    dynaddr_obs::counter_add("daemon.rows_ingested", chunk.len() as u64);
                    progress.add(chunk.len() as u64);
                }
            }
            Rate::Multiplier(m) => {
                let Some(first) = plan.first() else {
                    progress.finish();
                    return;
                };
                let origin = first.time.0;
                let wall_start = Instant::now();
                for step in &plan {
                    let due = Duration::from_secs_f64(
                        ((step.time.0 - origin).max(0) as f64) / m,
                    );
                    let elapsed = wall_start.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    self.ingest(|live| live.apply(ds, step.row));
                    dynaddr_obs::counter_add("daemon.rows_ingested", 1);
                    progress.add(1);
                }
            }
        }
        progress.finish();
    }

    /// Seals a snapshot of the live stream into the full rendered report —
    /// the exact text the batch `analyze` binary prints, once the stream
    /// is complete. The seal holds the ingest lock throughout, so ingest
    /// pauses for it (point queries do not); the live state keeps
    /// ingesting afterwards.
    pub fn seal_text(&self) -> String {
        let report = {
            let live = self.live.lock().unwrap();
            live.seal(&self.cfg)
        };
        self.sealed.store(true, Ordering::Relaxed);
        dynaddr_obs::counter_add("daemon.seals", 1);
        render_full(&report, &self.cfg.as_names)
    }

    /// The analysis configuration sealed reports use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The rolling funnel + event totals as of the last publish, as the
    /// wire reports them.
    pub fn snapshot_reply(&self) -> DaemonSnapshotReply {
        let view = self.view.read().expect("no publish panicked");
        let (c, s) = (&view.counts, &view.stats);
        DaemonSnapshotReply {
            total: c.total as u64,
            ipv6_only: c.ipv6_only as u64,
            dual_stack: c.dual_stack as u64,
            tagged: c.tagged as u64,
            multihomed: c.multihomed as u64,
            testing_only: c.testing_only as u64,
            never_changed: c.never_changed as u64,
            analyzable_geo: c.analyzable_geo as u64,
            multi_as: c.multi_as as u64,
            analyzable_as: c.analyzable_as as u64,
            changes: s.changes,
            gaps: s.gaps,
            network_outages: s.network_outages,
            reboots: s.reboots,
            frontier_secs: s.frontier_secs,
            probes_tracked: view.probes.len() as u64,
            sealed: self.sealed.load(Ordering::Relaxed),
        }
    }

    /// One probe's rolling state as of the last publish, if introduced.
    pub fn probe_reply(&self, id: u32) -> Option<DaemonProbeReply> {
        let view = {
            let published = self.view.read().expect("no publish panicked");
            published.probes[*published.slots.get(&id)?]
        };
        Some(DaemonProbeReply {
            probe: id,
            class: class_code(view.class),
            multi_as: view.multi_as,
            entries: view.entries as u64,
            changes: view.changes as u64,
            gaps: view.gaps as u64,
            network_outages: view.network_outages as u64,
            reboots: view.reboots as u64,
            had_testing: view.had_testing,
        })
    }

    /// The ingest counters and replay progress as of the last publish, as
    /// the wire reports them.
    pub fn ingest_reply(&self) -> IngestStatsReply {
        let stats = self.view.read().expect("no publish panicked").stats.clone();
        IngestStatsReply {
            meta_rows: stats.meta_rows,
            connection_rows: stats.connection_rows,
            kroot_rows: stats.kroot_rows,
            uptime_rows: stats.uptime_rows,
            unknown_probe_rows: stats.unknown_probe_rows,
            frontier_secs: stats.frontier_secs,
            rows_ingested: stats.rows(),
            rows_planned: self.rows_planned.load(Ordering::Relaxed),
            elapsed_ms: self.started.elapsed().as_millis() as u64,
            sealed: self.sealed.load(Ordering::Relaxed),
        }
    }

    /// Answers one request from the rolling state. Dataset queries belong
    /// to `queryd`; here they are a typed error, not a panic.
    pub fn answer_request(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::DaemonSnapshot => Response::DaemonSnapshot(self.snapshot_reply()),
            Request::DaemonProbe(p) => Response::DaemonProbe(self.probe_reply(p.0)),
            Request::IngestStats => Response::IngestStats(self.ingest_reply()),
            Request::ServerStats => {
                Response::Error("ServerStats is answered by the serving front-end".into())
            }
            _ => Response::Error(
                "dynaddrd serves daemon requests only; dataset queries belong to queryd"
                    .into(),
            ),
        }
    }
}

#[cfg(unix)]
impl dynaddr_query::Answerer for Daemon {
    fn answer(&self, req: &Request) -> Response {
        self.answer_request(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::world::{paper_route_tables, paper_world};
    use dynaddr_core::live::ReplayRow;
    use std::cell::Cell;
    use std::sync::mpsc;

    thread_local! {
        /// Publishes checked so far on this thread; `None` when not
        /// checking.
        static CHECKED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Called by every publish, with the ingest lock and the view's write
    /// lock held: on a thread that opted in, asserts that the view just
    /// published equals the analyzer's own rolling state.
    pub(super) fn check_publish(live: &IncrementalAnalyzer, view: &ReadView) {
        let Some(n) = CHECKED.get() else { return };
        assert_eq!(view.counts, *live.rolling_counts());
        assert_eq!(view.stats, *live.stats());
        assert_eq!(view.probes.len(), live.probes_tracked());
        assert_eq!(view.slots.len(), live.probes_tracked());
        for (&id, &slot) in &view.slots {
            assert_eq!(Some(view.probes[slot]), live.probe_view(id), "probe {id}");
        }
        CHECKED.set(Some(n + 1));
    }

    /// Runs `f` with every publish on this thread checked; returns how
    /// many were.
    fn checking_publishes(f: impl FnOnce()) -> u64 {
        CHECKED.set(Some(0));
        f();
        CHECKED.take().expect("still checking")
    }

    impl Daemon {
        /// Runs `f` on the analyzer with the ingest lock held.
        fn with_ingest_lock<R>(&self, f: impl FnOnce(&mut IncrementalAnalyzer) -> R) -> R {
            f(&mut self.live.lock().unwrap())
        }
    }

    /// The funnel a snapshot reply carries.
    fn funnel(s: &DaemonSnapshotReply) -> FilterCounts {
        FilterCounts {
            total: s.total as usize,
            ipv6_only: s.ipv6_only as usize,
            dual_stack: s.dual_stack as usize,
            tagged: s.tagged as usize,
            multihomed: s.multihomed as usize,
            testing_only: s.testing_only as usize,
            never_changed: s.never_changed as usize,
            analyzable_geo: s.analyzable_geo as usize,
            multi_as: s.multi_as as usize,
            analyzable_as: s.analyzable_as as usize,
        }
    }

    fn small_daemon() -> (Daemon, AtlasDataset) {
        let world = paper_world(0.01, 3);
        let out = dynaddr_atlas::simulate(&world);
        let snaps = paper_route_tables(&world);
        let mut cfg = AnalysisConfig { fig3_min_years: 0.01, ..AnalysisConfig::default() };
        for (asn, policy) in &out.truth.isp_policies {
            cfg.as_names.insert(*asn, policy.name.clone());
        }
        (Daemon::new(snaps, cfg), out.dataset)
    }

    #[test]
    fn replay_then_seal_matches_batch() {
        let (daemon, ds) = small_daemon();
        daemon.replay(&ds, Rate::Max);
        let ingest = daemon.ingest_reply();
        assert_eq!(ingest.rows_ingested, ingest.rows_planned);
        assert!(!ingest.sealed);
        let sealed = daemon.seal_text();
        let snaps = {
            // Rebuild inputs independently for the batch reference.
            let world = paper_world(0.01, 3);
            paper_route_tables(&world)
        };
        let batch = dynaddr_core::pipeline::analyze(&ds, &snaps, daemon.config());
        assert_eq!(sealed, render_full(&batch, &daemon.config().as_names));
        assert!(daemon.ingest_reply().sealed);
    }

    #[test]
    fn snapshot_and_probe_queries_answer_rolling_state() {
        let (daemon, ds) = small_daemon();
        daemon.replay(&ds, Rate::Max);
        let snap = daemon.snapshot_reply();
        assert_eq!(snap.total as usize, ds.meta.len());
        assert_eq!(snap.probes_tracked as usize, ds.meta.len());
        assert!(snap.frontier_secs > 0);
        let some_probe = ds.meta[0].probe.0;
        let view = daemon.probe_reply(some_probe).expect("probe is tracked");
        assert_eq!(view.probe, some_probe);
        assert!(view.class <= 6);
        assert!(daemon.probe_reply(u32::MAX).is_none());
    }

    /// At every publish — of a max-rate replay, a paced replay and raw
    /// `push_*` calls — the read view equals the analyzer's rolling state.
    /// After a full replay the snapshot equals the sealed funnel, and
    /// ingest replies taken mid-replay never go backwards.
    #[test]
    fn published_view_matches_analyzer_at_every_publish() {
        let (daemon, ds) = small_daemon();
        let plan = replay_plan(&ds);
        let rows = plan.len() as u64;
        let done = AtomicBool::new(false);
        let (checked, replies) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut last = daemon.ingest_reply();
                let mut replies = 0u64;
                while !done.load(Ordering::Acquire) {
                    let now = daemon.ingest_reply();
                    assert!(now.rows_ingested >= last.rows_ingested, "rows went backwards");
                    assert!(now.frontier_secs >= last.frontier_secs, "frontier went backwards");
                    last = now;
                    replies += 1;
                }
                replies
            });
            let checked = checking_publishes(|| daemon.replay(&ds, Rate::Max));
            done.store(true, Ordering::Release);
            (checked, reader.join().expect("ingest reader"))
        });
        assert!(replies > 0);
        // One publish for the meta rows, then one per chunk.
        assert_eq!(checked, 1 + rows.div_ceil(REPLAY_CHUNK as u64));
        let sealed = daemon.with_ingest_lock(|live| live.seal(daemon.config()).filter);
        assert_eq!(funnel(&daemon.snapshot_reply()), sealed);

        // The per-record publishes below run over a prefix of the stream:
        // checking every probe after each of the full stream's records
        // would take minutes in a debug build.
        let cutoff = plan[20_000].time;
        let mut ds = ds.clone();
        ds.connections.retain(|e| e.start < cutoff);
        ds.kroot.retain(|r| r.timestamp < cutoff);
        ds.uptime.retain(|r| r.timestamp < cutoff);
        let plan = replay_plan(&ds);
        let rows = plan.len() as u64;

        // Paced fast enough never to sleep: one publish per record.
        let (daemon, _) = small_daemon();
        let checked = checking_publishes(|| daemon.replay(&ds, Rate::Multiplier(1e15)));
        assert_eq!(checked, 1 + rows);

        // Raw pushes: half the probes up front, the rest introduced
        // mid-stream (their earlier rows drop as unknown), plus a
        // duplicate meta row. One publish per call.
        let (daemon, _) = small_daemon();
        let early: Vec<&ProbeMeta> = ds.meta.iter().step_by(2).collect();
        let mut late = ds.meta.iter().skip(1).step_by(2);
        let mut calls = 0u64;
        let checked = checking_publishes(|| {
            for meta in &early {
                daemon.push_meta(meta);
                calls += 1;
            }
            daemon.push_meta(early[0]);
            calls += 1;
            for (i, step) in plan.iter().enumerate() {
                if i % 64 == 0 {
                    if let Some(meta) = late.next() {
                        daemon.push_meta(meta);
                        calls += 1;
                    }
                }
                match step.row {
                    ReplayRow::Connection(j) => daemon.push_connection(&ds.connections[j]),
                    ReplayRow::Kroot(j) => daemon.push_kroot(&ds.kroot[j]),
                    ReplayRow::Uptime(j) => daemon.push_uptime(&ds.uptime[j]),
                }
                calls += 1;
            }
        });
        assert_eq!(checked, calls);
        let ingest = daemon.ingest_reply();
        assert_eq!(ingest.meta_rows as usize, ds.meta.len());
        assert_eq!(ingest.rows_ingested, rows);
        assert!(ingest.unknown_probe_rows > 0);
    }

    /// Point queries answer while another thread holds the ingest lock —
    /// idle, or running a seal the whole time. The bound is generous on
    /// purpose: a reader that waits on ingest never answers at all.
    #[test]
    fn readers_never_wait_on_ingest() {
        let (daemon, ds) = small_daemon();
        daemon.replay(&ds, Rate::Max);
        let probe = ds.meta[0].probe.0;
        // Everything but the wall-clock field is fixed once the replay ends.
        let replies = || {
            let ingest = IngestStatsReply { elapsed_ms: 0, ..daemon.ingest_reply() };
            (daemon.snapshot_reply(), daemon.probe_reply(probe), ingest)
        };
        let expected = replies();
        for sealing in [false, true] {
            let release = AtomicBool::new(false);
            let (held_tx, held_rx) = mpsc::channel();
            let (reply_tx, reply_rx) = mpsc::channel();
            std::thread::scope(|s| {
                s.spawn(|| {
                    daemon.with_ingest_lock(|live| {
                        held_tx.send(()).unwrap();
                        while !release.load(Ordering::Acquire) {
                            if sealing {
                                std::hint::black_box(live.seal(daemon.config()));
                            } else {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    })
                });
                held_rx.recv_timeout(Duration::from_secs(10)).expect("holder takes the lock");
                s.spawn(|| {
                    let _ = reply_tx.send(replies());
                });
                let got = reply_rx.recv_timeout(Duration::from_secs(10));
                release.store(true, Ordering::Release);
                assert_eq!(
                    got.expect("point queries answer while the ingest lock is held"),
                    expected,
                    "sealing: {sealing}"
                );
            });
        }
    }

    #[test]
    fn dataset_queries_are_typed_errors() {
        let (daemon, _) = small_daemon();
        assert!(matches!(
            daemon.answer_request(&Request::TopMovers(5)),
            Response::Error(_)
        ));
        assert!(matches!(daemon.answer_request(&Request::Ping), Response::Pong));
    }

    #[test]
    fn rate_parses() {
        assert_eq!(Rate::parse("max").unwrap(), Rate::Max);
        assert_eq!(Rate::parse("MAX").unwrap(), Rate::Max);
        assert_eq!(Rate::parse("1000").unwrap(), Rate::Multiplier(1000.0));
        assert!(Rate::parse("0").is_err());
        assert!(Rate::parse("-3").is_err());
        assert!(Rate::parse("soon").is_err());
    }

    /// End-to-end over a real socket: serve the daemon, replay, and check
    /// the three daemon queries plus the front-end's ServerStats.
    #[cfg(unix)]
    #[test]
    fn daemon_serves_over_unix_socket() {
        use dynaddr_query::{serve, QueryClient};
        use std::sync::Arc;

        let (daemon, ds) = small_daemon();
        let daemon = Arc::new(daemon);
        let sock = std::env::temp_dir()
            .join(format!("dynaddrd-test-{}.sock", std::process::id()));
        let server = serve(Arc::clone(&daemon), &sock).expect("bind");
        let handle = server.handle();
        let srv = std::thread::spawn(move || server.run());

        daemon.replay(&ds, Rate::Max);
        let mut client =
            QueryClient::connect_retry(&sock, Duration::from_secs(5)).expect("connect");
        match client.request(&Request::DaemonSnapshot).unwrap() {
            Response::DaemonSnapshot(s) => {
                assert_eq!(s.total as usize, ds.meta.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::IngestStats).unwrap() {
            Response::IngestStats(s) => {
                assert_eq!(s.rows_ingested, s.rows_planned);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::DaemonProbe(ds.meta[0].probe)).unwrap() {
            Response::DaemonProbe(Some(p)) => assert_eq!(p.probe, ds.meta[0].probe.0),
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::ServerStats).unwrap() {
            Response::ServerStats(s) => {
                assert!(s.requests_total >= 4);
                assert_eq!(s.connections_total, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::TopMovers(3)).unwrap() {
            Response::Error(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        drop(client);
        handle.stop();
        srv.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&sock);
    }
}
