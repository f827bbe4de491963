//! The untraced end-to-end runs: the shipped binaries, driven from
//! outside exactly as a user would run them.
//!
//! Three stages make up every workload; the workload decides how much of
//! the run each one gets (see `main.rs`):
//!
//! * **batch** — `simulate --tier paper`, then `analyze --data` and
//!   `analyze --data --streamed` over the simulated directory;
//! * **query** — `queryd` over that directory with the segment cache cut
//!   to about 40% of the decoded working set, driven by the seeded zipf
//!   `Workload` on two connections in closed-loop blocks between the
//!   other stages' cycles, then (on `query_zipf`) in an open loop at a
//!   fixed rate;
//! * **live** — `dynaddrd --replay` of the same store at max rate, with
//!   one connection sending point queries at a fixed rate from the first
//!   replay heartbeat until the sealed report is on disk.
//!
//! Correctness gates run inside each stage and stop the run on the first
//! mismatch: the two analyze reports must be byte-identical, repeated
//! simulations of one seed must write the same store, the sealed live
//! report must equal `analyze`'s, and the query replies must fold to the
//! same digest as an in-process `QueryEngine` answering the same requests.

use crate::proc::{self, Bins, Server};
use crate::stats::{median, quantile, Windowed};
use crate::wire::{self, Conn};
use dynaddr_atlas::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord,
};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_query::proto::{self, Request, Response};
use dynaddr_query::{QueryEngine, Workload};
use dynaddr_store::{ColumnarRecord, SegmentFileReader};
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How a run stopped early.
pub enum Fail {
    /// A correctness gate failed: the program produced wrong output.
    Incorrect(String),
    /// The benchmark could not run (a binary failed, a server never came up).
    Broken(String),
}

impl From<String> for Fail {
    fn from(e: String) -> Fail {
        Fail::Broken(e)
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// Share of the decoded working set the `queryd` segment cache may hold.
pub const CACHE_SHARE: f64 = 0.4;

/// Latency charged to a failed request: it misses any latency limit.
const FAILED_US: f64 = wire::REQUEST_TIMEOUT.as_secs_f64() * 1e6;

/// Shared state of one run: where things are and what was attempted.
pub struct Ctx {
    pub bins: Bins,
    /// Scratch directory for this run, relative to the working directory
    /// (socket paths must stay short).
    pub work: PathBuf,
    /// The workload seed: the simulated dataset and every request derive
    /// from it.
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx {
    /// The simulated dataset directory.
    pub fn ds(&self) -> PathBuf {
        self.work.join("ds")
    }

    /// Counts one operation and its outcome.
    fn op<T>(&mut self, r: Result<T, String>) -> Result<T, String> {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

// ---------------------------------------------------------------------------
// batch: simulate → analyze → analyze --streamed
// ---------------------------------------------------------------------------

/// Samples of the batch stage, one per cycle. The `*_s` timings are CPU
/// seconds (user + system) of each command, the `*_wall_s` ones wall
/// seconds; see the benchmark's README for why the metrics use CPU time.
#[derive(Default)]
pub struct Batch {
    pub simulate_s: Vec<f64>,
    pub analyze_s: Vec<f64>,
    pub streamed_s: Vec<f64>,
    pub simulate_wall_s: Vec<f64>,
    pub analyze_wall_s: Vec<f64>,
    pub streamed_wall_s: Vec<f64>,
    pub analyze_rss_mb: Vec<f64>,
    pub streamed_rss_mb: Vec<f64>,
    /// In-process `AtlasDataset::load_dir` + `MonthlySnapshots::load_dir`.
    pub setup_s: Vec<f64>,
    store_digest: Option<u64>,
    /// The text report of the first cycle, the reference for every later
    /// report (batch, streamed or sealed live).
    pub report: Vec<u8>,
}

/// In-process loads of the simulated directory timed per batch cycle for
/// the batch workload's `setup_s`; several, so its median is steady.
const SETUP_LOADS: usize = 2;

/// One batch cycle. With `with_setup`, also times loading the simulated
/// directory in-process (the batch workload's set-up).
pub fn batch_cycle(ctx: &mut Ctx, b: &mut Batch, with_setup: bool) -> Result<(), Fail> {
    let ds = ctx.ds();
    let mut cmd = ctx.bins.command("simulate");
    cmd.args(["--tier", "paper", "--seed", &ctx.seed.to_string(), "--out"])
        .arg(&ds);
    let ran = ctx.op(proc::run(cmd))?;
    b.simulate_s.push(ran.cpu_s);
    b.simulate_wall_s.push(ran.wall_s);
    proc::sync_tree(&ctx.work)?;
    let store =
        std::fs::read(ds.join("dataset.store")).map_err(|e| format!("dataset.store: {e}"))?;
    let digest = wire::fnv1a64(&store);
    drop(store);
    if b.store_digest.is_some_and(|d| d != digest) {
        return Err(Fail::Incorrect(
            "simulate wrote a different dataset.store for the same seed".into(),
        ));
    }
    b.store_digest = Some(digest);

    if with_setup {
        for _ in 0..SETUP_LOADS {
            let secs = ctx.op(load_setup(&ds))?;
            b.setup_s.push(secs);
        }
    }

    let (ran, rss) = analyze(ctx, false)?;
    b.analyze_s.push(ran.cpu_s);
    b.analyze_wall_s.push(ran.wall_s);
    b.analyze_rss_mb.push(rss);
    let (ran, rss) = analyze(ctx, true)?;
    b.streamed_s.push(ran.cpu_s);
    b.streamed_wall_s.push(ran.wall_s);
    b.streamed_rss_mb.push(rss);

    let read = |name: &str| std::fs::read(ctx.work.join(name)).map_err(|e| format!("{name}: {e}"));
    let (batch_txt, streamed_txt) = (read("analyze.txt")?, read("streamed.txt")?);
    if read("analyze.json")? != read("streamed.json")? || batch_txt != streamed_txt {
        return Err(Fail::Incorrect(
            "analyze and analyze --streamed reports differ".into(),
        ));
    }
    if b.report.is_empty() {
        b.report = batch_txt;
    } else if b.report != batch_txt {
        return Err(Fail::Incorrect(
            "analyze report changed between runs of one seed".into(),
        ));
    }
    Ok(())
}

/// Runs `analyze` (or `analyze --streamed`) into the work directory;
/// returns its timings and peak RSS.
fn analyze(ctx: &mut Ctx, streamed: bool) -> Result<(proc::Ran, f64), Fail> {
    let name = if streamed { "streamed" } else { "analyze" };
    let mut cmd = ctx.bins.command("analyze");
    cmd.arg("--data").arg(ctx.ds());
    if streamed {
        cmd.arg("--streamed");
    }
    cmd.arg("--json").arg(ctx.work.join(format!("{name}.json")));
    cmd.arg("--report")
        .arg(ctx.work.join(format!("{name}.txt")));
    let ran = ctx.op(proc::run(cmd))?;
    proc::sync_tree(&ctx.work)?;
    let rss =
        proc::peak_rss_mb(&ran.stderr).ok_or_else(|| format!("{name}: no peak_rss_bytes line"))?;
    Ok((ran, rss))
}

/// Loads the dataset and the ip2as snapshots the way `analyze --data`
/// starts; returns the seconds taken.
fn load_setup(dir: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let ds = AtlasDataset::load_dir(dir).map_err(|e| e.to_string())?;
    let snaps = MonthlySnapshots::load_dir(&dir.join("ip2as")).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    drop((ds, snaps));
    Ok(secs)
}

// ---------------------------------------------------------------------------
// query: queryd under closed-loop blocks, then an open loop
// ---------------------------------------------------------------------------

/// Results of the query stage.
pub struct Query {
    pub setup_s: Vec<f64>,
    pub closed_rps: f64,
    /// Closed-loop latency by window of send time, in the windows the
    /// metrics use (the calmest third by stolen CPU time).
    pub closed_us: Windowed,
    /// Latency and throughput over every window, for the report.
    pub all_us: Windowed,
    pub all_rps: f64,
    /// Stolen share of CPU time: the median over every window, and over
    /// the windows used.
    pub stolen_median: f64,
    pub calm_stolen: f64,
    /// Closed-loop blocks timed, and the seconds of each.
    pub blocks: usize,
    pub block_s: f64,
    /// Open-loop latency from each request's due time, every request.
    pub open_us: Vec<f64>,
    /// How late the generator sent each open-loop request.
    pub lateness_us: Vec<f64>,
    pub working_set_mb: f64,
    pub budget_mb: usize,
    pub cache_hit_rate: f64,
    pub requests: u64,
}

/// Width of a closed-loop window, seconds.
const WINDOW_S: f64 = 0.25;
/// Untimed closed loop that fills the `queryd` cache before the first
/// timed block.
const WARM_UP_S: f64 = 0.5;

/// Connections the load generator opens (the host's two cores).
pub const CONNS: u64 = 2;
/// Each closed-loop block's request indices start at its number times
/// this; the open loop's start at [`OPEN_BASE`], apart from every block's.
const BLOCK_BASE: u64 = 1 << 32;
const OPEN_BASE: u64 = 1 << 40;

/// The decoded size of every segment of a store file, in the query
/// cache's own accounting (rows × row size + 64 bytes per segment).
pub fn decoded_working_set(store: &Path) -> Result<u64, String> {
    let reader = SegmentFileReader::open(store).map_err(|e| e.to_string())?;
    let mut total = 0u64;
    for s in reader.segments() {
        let row = match s.table {
            t if t == ProbeMeta::TABLE_ID => std::mem::size_of::<ProbeMeta>(),
            t if t == ConnectionLogEntry::TABLE_ID => std::mem::size_of::<ConnectionLogEntry>(),
            t if t == KrootPingRecord::TABLE_ID => std::mem::size_of::<KrootPingRecord>(),
            t if t == SosUptimeRecord::TABLE_ID => std::mem::size_of::<SosUptimeRecord>(),
            _ => continue,
        };
        total += 64 + s.rows * row as u64;
    }
    Ok(total)
}

/// The `queryd` cache budget for a store: [`CACHE_SHARE`] of its decoded
/// working set, in whole MiB.
pub fn cache_budget_mb(working_set: u64) -> usize {
    ((working_set as f64 * CACHE_SHARE / MIB).round() as usize).max(1)
}

/// What one load-generating connection saw.
#[derive(Default)]
struct Drive {
    attempted: u64,
    failed: u64,
    /// Indices answered without error, and the XOR of their folds.
    ok: Vec<u64>,
    digest: u64,
    /// (seconds from the loop's start to the due time, latency in µs).
    lat: Vec<(f64, f64)>,
    lateness_us: Vec<f64>,
}

/// Drives one connection until `until`. Without `pace` it is a closed
/// loop; with it, request `k` is due at `start + (k + c/CONNS) · pace`
/// and latency counts from the due time.
fn drive(
    sock: &Path,
    workload: &Workload,
    c: u64,
    base: u64,
    start: Instant,
    until: Instant,
    pace: Option<Duration>,
) -> Drive {
    let err_tag = wire::error_tag();
    let mut r = Drive::default();
    let mut conn = Conn::connect(sock).ok();
    for k in 0u64.. {
        let due = match pace {
            None => Instant::now(),
            Some(iv) => start + iv.mul_f64(k as f64 + c as f64 / CONNS as f64),
        };
        if due >= until {
            break;
        }
        if pace.is_some() {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            r.lateness_us.push(due.elapsed().as_secs_f64() * 1e6);
        }
        let i = base + k * CONNS + c;
        r.attempted += 1;
        let body = proto::to_bytes(&workload.request(i));
        let reply = match conn.as_mut() {
            Some(cn) => cn.call(&body),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no connection",
            )),
        };
        let lat_us = due.elapsed().as_secs_f64() * 1e6;
        let offset = due.duration_since(start).as_secs_f64();
        match reply {
            Ok(b) if b.first() != Some(&err_tag) => {
                r.digest ^= wire::fold(i, &b);
                r.ok.push(i);
                r.lat.push((offset, lat_us));
            }
            Ok(_) => {
                r.failed += 1;
                r.lat.push((offset, FAILED_US));
            }
            Err(_) => {
                r.failed += 1;
                r.lat.push((offset, FAILED_US));
                conn = Conn::connect(sock).ok();
                if conn.is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    r
}

/// Runs `CONNS` connections of [`drive`] in parallel. Meanwhile samples
/// the share of CPU time the hypervisor stole in each of the first
/// `windows` windows.
fn drive_all(
    sock: &Path,
    workload: &Workload,
    base: u64,
    secs: f64,
    pace: Option<Duration>,
    windows: usize,
) -> (Vec<Drive>, Vec<f64>) {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| s.spawn(move || drive(sock, workload, c, base, start, until, pace)))
            .collect();
        let mut stolen = Vec::with_capacity(windows);
        let mut last = proc::cpu_ticks();
        for w in 1..=windows {
            let edge = start + Duration::from_secs_f64(w as f64 * WINDOW_S);
            let now = Instant::now();
            if now < edge {
                std::thread::sleep(edge - now);
            }
            let ticks = proc::cpu_ticks();
            let total = ticks.1.saturating_sub(last.1).max(1);
            stolen.push(ticks.0.saturating_sub(last.0) as f64 / total as f64);
            last = ticks;
        }
        let drives = handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect();
        (drives, stolen)
    })
}

/// Marks the windows the query metrics use: the third (rounded up) with
/// the least stolen CPU time. Equals are taken in bit-reversed index
/// order, so in a run where nothing was stolen the windows used still
/// spread over every block instead of bunching at the start.
fn calm_third(stolen: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by(|&a, &b| {
        stolen[a]
            .total_cmp(&stolen[b])
            .then((a as u32).reverse_bits().cmp(&(b as u32).reverse_bits()))
    });
    let mut calm = vec![false; stolen.len()];
    for &w in &order[..stolen.len().div_ceil(3)] {
        calm[w] = true;
    }
    calm
}

/// A `queryd` kept up for the whole run, driven in closed-loop blocks
/// between the other stages' cycles, so that a host stall of a few
/// seconds lands in a few blocks' windows instead of the whole stage.
/// `engine` is the in-process reference that checks the digest;
/// `workload` is shared with it.
pub struct QueryRun<'a> {
    engine: &'a QueryEngine,
    workload: &'a Workload,
    sock: PathBuf,
    server: Server,
    control: Conn,
    setup_s: Vec<f64>,
    working_set: u64,
    budget_mb: usize,
    block_s: f64,
    /// Every block driven so far, the warm-up first (not timed), with
    /// the stolen share of CPU time in each of its windows.
    blocks: Vec<(Vec<Drive>, Vec<f64>)>,
    open: Vec<Drive>,
}

impl<'a> QueryRun<'a> {
    /// Starts `queryd` `setup_spawns` times, timing each start-up for
    /// `setup_s`; the last one serves. Then warms its cache with an
    /// untimed block. Timed blocks last `block_s`, rounded to whole
    /// windows.
    pub fn start(
        ctx: &mut Ctx,
        engine: &'a QueryEngine,
        workload: &'a Workload,
        setup_spawns: usize,
        block_s: f64,
    ) -> Result<QueryRun<'a>, Fail> {
        let ds = ctx.ds();
        let working_set = decoded_working_set(&ds.join("dataset.store"))?;
        let budget_mb = cache_budget_mb(working_set);
        let sock = ctx.work.join("q.sock");
        let spawn = |bins: &Bins| {
            let mut cmd = bins.command("queryd");
            cmd.arg("--data").arg(&ds).arg("--socket").arg(&sock);
            cmd.args(["--cache-mb", &budget_mb.to_string()]);
            Server::spawn(cmd, Stdio::null())
        };
        let mut setup_s = Vec::new();
        let mut serving = None;
        for n in 0..setup_spawns.max(1) {
            let srv = ctx.op(spawn(&ctx.bins))?;
            let conn = ctx.op(wire::wait_ready(&sock, Duration::from_secs(60)))?;
            setup_s.push(srv.spawned.elapsed().as_secs_f64());
            if n + 1 == setup_spawns.max(1) {
                serving = Some((srv, conn));
            }
        }
        let (server, control) = serving.expect("last spawn kept");
        let mut run = QueryRun {
            engine,
            workload,
            sock,
            server,
            control,
            setup_s,
            working_set,
            budget_mb,
            block_s: ((block_s / WINDOW_S).round() * WINDOW_S).max(WINDOW_S),
            blocks: Vec::new(),
            open: Vec::new(),
        };
        run.drive_block(WARM_UP_S);
        Ok(run)
    }

    fn drive_block(&mut self, secs: f64) {
        let base = self.blocks.len() as u64 * BLOCK_BASE;
        let windows = (secs / WINDOW_S).round() as usize;
        let block = drive_all(&self.sock, self.workload, base, secs, None, windows);
        self.blocks.push(block);
    }

    /// One timed closed-loop block.
    pub fn block(&mut self) {
        self.drive_block(self.block_s);
    }

    /// Timed blocks driven so far.
    pub fn timed_blocks(&self) -> usize {
        self.blocks.len().saturating_sub(1)
    }

    /// The open loop: `rps` requests per second across the connections
    /// for `secs`, latency from each request's due time.
    pub fn open_loop(&mut self, secs: f64, rps: f64) {
        let pace = Duration::from_secs_f64(CONNS as f64 / rps);
        self.open = drive_all(&self.sock, self.workload, OPEN_BASE, secs, Some(pace), 0).0;
    }

    /// Stops `queryd` and checks the digest gate; returns the stage's
    /// figures.
    pub fn finish(mut self, ctx: &mut Ctx) -> Result<Query, Fail> {
        let stats = ctx.op(self
            .control
            .request(&Request::ServerStats)
            .map_err(|e| e.to_string()))?;
        let cache_hit_rate = match stats {
            Response::ServerStats(s) if s.cache_hits + s.cache_misses > 0 => {
                s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64
            }
            other => return Err(Fail::Broken(format!("ServerStats answered with {other:?}"))),
        };
        let QueryRun {
            engine,
            workload,
            server,
            control,
            blocks,
            open,
            block_s,
            setup_s,
            working_set,
            budget_mb,
            ..
        } = self;
        drop(control);
        drop(server);

        // Windowed by send time across every timed block; throughput is
        // the median of the windows' answered requests per second, so a
        // host stall costs the windows it covers, not the run. The
        // metrics use the calmest third of the windows by stolen CPU time:
        // a request on a vCPU the hypervisor has taken waits for the
        // host's time slice, so in those windows the tail measures the
        // host (see the README).
        let per_block = (block_s / WINDOW_S).round() as usize;
        let timed = blocks.len().saturating_sub(1);
        let stolen: Vec<f64> = blocks
            .iter()
            .skip(1)
            .flat_map(|(_, st)| st.iter().copied())
            .collect();
        let calm = calm_third(&stolen);
        let mut all_us = Windowed::default();
        let mut closed_us = Windowed::default();
        let mut answered = vec![0u64; timed * per_block];
        for (b, (block, _)) in blocks.iter().skip(1).enumerate() {
            for d in block {
                for &(offset, lat) in &d.lat {
                    let w = b * per_block + ((offset / WINDOW_S) as usize).min(per_block - 1);
                    all_us.record(w, lat);
                    if calm[w] {
                        closed_us.record(w, lat);
                    }
                    // Failed requests carry FAILED_US; a request that took
                    // that long would have timed out, so nothing answered
                    // reaches it.
                    if lat < FAILED_US {
                        answered[w] += 1;
                    }
                }
            }
        }
        let rps = |keep: &dyn Fn(usize) -> bool| {
            median(
                &(0..answered.len())
                    .filter(|&w| keep(w))
                    .map(|w| answered[w] as f64 / WINDOW_S)
                    .collect::<Vec<_>>(),
            )
        };
        let closed_rps = rps(&|w| calm[w]);
        let all_rps = rps(&|_| true);
        let calm_stolen = median(
            &(0..stolen.len())
                .filter(|&w| calm[w])
                .map(|w| stolen[w])
                .collect::<Vec<_>>(),
        );

        // Digest gate: the in-process engine answers every request the
        // server answered, warm-up and open loop included, and the
        // replies must fold to the same value.
        let mut remote = 0u64;
        let mut ok: Vec<u64> = Vec::new();
        let mut requests = 0;
        for d in blocks.iter().flat_map(|(d, _)| d).chain(&open) {
            ctx.count(d.attempted, d.failed);
            requests += d.attempted;
            remote ^= d.digest;
            ok.extend_from_slice(&d.ok);
        }
        let local = std::thread::scope(|s| {
            let handles: Vec<_> = ok
                .chunks(ok.len().div_ceil(CONNS as usize).max(1))
                .map(|part| {
                    s.spawn(move || {
                        part.iter().fold(0u64, |acc, &i| {
                            acc ^ wire::fold(
                                i,
                                &proto::to_bytes(&engine.query(&workload.request(i))),
                            )
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .fold(0u64, |acc, h| acc ^ h.join().expect("digest thread"))
        });
        if local != remote {
            return Err(Fail::Incorrect(format!(
                "queryd replies fold to {remote:016x}, the in-process engine's to {local:016x}"
            )));
        }
        Ok(Query {
            setup_s,
            closed_rps,
            closed_us,
            all_us,
            all_rps,
            stolen_median: median(&stolen),
            calm_stolen,
            blocks: timed,
            block_s,
            open_us: open
                .iter()
                .flat_map(|d| d.lat.iter().map(|l| l.1))
                .collect(),
            lateness_us: open
                .iter()
                .flat_map(|d| d.lateness_us.iter().copied())
                .collect(),
            working_set_mb: working_set as f64 / MIB,
            budget_mb,
            cache_hit_rate,
            requests,
        })
    }
}

// ---------------------------------------------------------------------------
// live: dynaddrd --replay with point queries beside it
// ---------------------------------------------------------------------------

/// Results of live cycles (accumulated over cycles).
#[derive(Default)]
pub struct Live {
    pub setup_s: Vec<f64>,
    pub time_to_report_s: Vec<f64>,
    pub ingest_rows_per_s: Vec<f64>,
    /// Point-query latency from each request's due time, every request.
    pub point_us: Vec<f64>,
    /// Each cycle's point-query median and 99th percentile.
    pub point_p50_us: Vec<f64>,
    pub point_p99_us: Vec<f64>,
    /// How late the generator sent each point query.
    pub lateness_us: Vec<f64>,
    pub rows: u64,
}

/// Point queries per second on the one live connection, an open loop:
/// a closed loop would complete only a handful of requests while the
/// ingest thread holds the state lock, and its percentiles would then
/// describe the idle daemon.
pub const POINT_RPS: f64 = 2000.0;

/// The point query for request `i`: `DaemonProbe` of the zipf probe the
/// query workload would pick, `DaemonSnapshot` where it picks none.
fn point_request(workload: &Workload, i: u64) -> Request {
    match workload.request(i) {
        Request::ProbeSeries(p) | Request::ProbeRecords(p) => Request::DaemonProbe(p),
        _ => Request::DaemonSnapshot,
    }
}

/// The daemon's final `daemon.replay: DONE/TOTAL (RATE/s, …` heartbeat:
/// rows and rows per second from the first to the last ingested row.
fn replay_heartbeat(log: &str) -> Option<(u64, f64)> {
    log.lines().rev().find_map(|line| {
        let rest = &line[line.find("daemon.replay: ")? + "daemon.replay: ".len()..];
        let (counts, rest) = rest.split_once(" (")?;
        let (done, total) = counts.split_once('/')?;
        let rate = rest.split_once("/s")?.0;
        let (done, total): (u64, u64) = (done.parse().ok()?, total.parse().ok()?);
        (done == total).then_some((total, rate.parse().ok()?))
    })
}

/// Whether the daemon has logged its first `daemon.replay:` heartbeat,
/// the sign that rows are being ingested.
fn ingest_started(log: &Path) -> bool {
    std::fs::read_to_string(log).is_ok_and(|text| text.contains("daemon.replay: "))
}

/// One replay: spawn `dynaddrd`, send point queries from the first
/// replay heartbeat until the sealed report is on disk, check the report
/// against `analyze`'s.
pub fn live_cycle(
    ctx: &mut Ctx,
    live: &mut Live,
    workload: &Workload,
    reference: &[u8],
) -> Result<(), Fail> {
    let ds = ctx.ds();
    let sock = ctx.work.join("d.sock");
    let report = ctx.work.join("sealed.txt");
    let log_path = ctx.work.join("dynaddrd.log");
    let _ = std::fs::remove_file(&report);
    let log =
        std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let mut cmd = ctx.bins.command("dynaddrd");
    cmd.arg("--replay")
        .arg(ds.join("dataset.store"))
        .arg("--socket")
        .arg(&sock);
    cmd.arg("--report").arg(&report).arg("--exit-after-replay");
    // Info level for the replay heartbeats: the first one starts the
    // point queries, the last reports the daemon's own ingest rate.
    cmd.env("DYNADDR_LOG", "info")
        .env("DYNADDR_HEARTBEAT_SECS", "0.05");
    let server = ctx.op(Server::spawn(cmd, log.into()))?;
    let conn = ctx.op(wire::wait_ready(&sock, Duration::from_secs(60)))?;
    let ready = Instant::now();
    live.setup_s
        .push(ready.duration_since(server.spawned).as_secs_f64());

    // Point queries run from the first replay heartbeat (rows are being
    // ingested) to the sealed report. Before that the daemon only plans
    // the replay and holds no lock, so counting those requests would make
    // the percentiles hinge on where planning ends instead of on ingest.
    // `sealed_ns` is nanoseconds from that start to the sealed report;
    // requests due before it are all sent and answered, however late, so
    // a stall is charged to every request it delays.
    let sealed_ns = AtomicU64::new(u64::MAX);
    let err_tag = wire::error_tag();
    let pace = Duration::from_secs_f64(1.0 / POINT_RPS);
    let (go_tx, go_rx) = std::sync::mpsc::channel::<Instant>();
    let (sealed_at, point) = std::thread::scope(|s| {
        let sealed_ns = &sealed_ns;
        let looper = s.spawn(move || {
            // Owned here, so the connection closes when the loop ends and
            // the daemon can drain its connections and exit.
            let mut conn = conn;
            let (mut attempted, mut failed) = (0u64, 0u64);
            let mut lat = Vec::new();
            let mut lateness = Vec::new();
            let Ok(start) = go_rx.recv() else {
                return (attempted, failed, lat, lateness);
            };
            for k in 0u64.. {
                let offset = pace.mul_f64(k as f64);
                // The first request always goes out, so a replay shorter
                // than one pacing interval still has a sample.
                if k > 0 && offset.as_nanos() >= u128::from(sealed_ns.load(Ordering::Acquire)) {
                    break;
                }
                let due = start + offset;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                lateness.push(due.elapsed().as_secs_f64() * 1e6);
                attempted += 1;
                let reply = conn.call(&proto::to_bytes(&point_request(workload, k)));
                match reply {
                    Ok(b) if b.first() != Some(&err_tag) => {
                        lat.push(due.elapsed().as_secs_f64() * 1e6)
                    }
                    _ => {
                        failed += 1;
                        lat.push(FAILED_US);
                    }
                }
            }
            (attempted, failed, lat, lateness)
        });
        let deadline = ready + Duration::from_secs(150);
        let mut go = Some(go_tx);
        let mut ingest_at = None;
        let sealed_at = loop {
            if go.is_some() && ingest_started(&log_path) {
                let now = Instant::now();
                ingest_at = Some(now);
                let _ = go.take().map(|tx| tx.send(now));
            }
            if report.exists() {
                break Some(Instant::now());
            }
            if Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        // Without a heartbeat the loop never starts; dropping the sender
        // lets it return with no samples.
        drop(go);
        let end = sealed_at.unwrap_or_else(Instant::now);
        let start = ingest_at.unwrap_or(end);
        sealed_ns.store(
            end.saturating_duration_since(start).as_nanos() as u64,
            Ordering::Release,
        );
        (sealed_at, looper.join().expect("point-query thread"))
    });
    let (attempted, failed, lat, lateness) = point;
    ctx.count(attempted, failed);
    let sealed_at =
        ctx.op(sealed_at.ok_or_else(|| "dynaddrd wrote no sealed report".to_string()))?;
    let status = ctx.op(server.wait_exit(Duration::from_secs(30)))?;
    ctx.op(status
        .success()
        .then_some(())
        .ok_or_else(|| format!("dynaddrd exited with {status}")))?;

    proc::sync_tree(&ctx.work)?;
    live.time_to_report_s
        .push(sealed_at.duration_since(ready).as_secs_f64());
    // Pooled per cycle: each replay passes through the same phases (plan,
    // ingest, seal), which fixed windows would cut differently each time.
    let mut sorted = lat;
    sorted.sort_by(f64::total_cmp);
    live.point_p50_us.push(quantile(&sorted, 0.5));
    live.point_p99_us.push(quantile(&sorted, 0.99));
    live.point_us.extend(sorted);
    live.lateness_us.extend(lateness);
    let log =
        std::fs::read_to_string(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let (rows, rate) = ctx.op(replay_heartbeat(&log)
        .ok_or_else(|| "dynaddrd logged no final replay heartbeat".to_string()))?;
    live.rows = rows;
    live.ingest_rows_per_s.push(rate);

    let sealed = std::fs::read(&report).map_err(|e| format!("sealed report: {e}"))?;
    if sealed != reference {
        return Err(Fail::Incorrect(
            "dynaddrd's sealed report differs from analyze's".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_third_keeps_the_least_stolen_windows() {
        assert_eq!(
            calm_third(&[0.3, 0.0, 0.1, 0.0, 0.2, 0.4]),
            [false, true, false, true, false, false]
        );
        // Ties spread over the run: of eight equal windows, 0, 4 and 2.
        assert_eq!(
            calm_third(&[0.0; 8]),
            [true, false, true, false, true, false, false, false]
        );
        assert!(calm_third(&[]).is_empty());
    }

    #[test]
    fn parses_the_final_replay_heartbeat() {
        let log = "dynaddrd: replaying x\n\
                   daemon.replay: 100/400 (2000/s, eta 0s, rss 90 MB)\n\
                   daemon.replay: 400/400 (2100000/s, eta 0s, rss 95 MB)\n\
                   wrote sealed report to y\n";
        assert_eq!(replay_heartbeat(log), Some((400, 2_100_000.0)));
        assert_eq!(
            replay_heartbeat("daemon.replay: 1/4 (5/s, eta 1s, rss 1 MB)"),
            None
        );
    }
}
