//! The traced run: the same work as the end-to-end stages, done by
//! calling each module's public functions in-process, with a span around
//! every call. It yields the per-layer metrics; the end-to-end numbers
//! always come from the untraced runs.
//!
//! Entry points used: `simulate`, `AtlasDataset`'s store codec,
//! `DatasetStream`, `MonthlySnapshots::load_dir`, `analyze`,
//! `analyze_streamed`, `core::live` (`replay_plan`, `IncrementalAnalyzer`),
//! `QueryEngine` behind the query `Server`, `Daemon`, and the obs
//! registry (`sim.*` counts, the spans `analyze` already records).

use crate::e2e::{cache_budget_mb, decoded_working_set, Fail};
use crate::stats::{median, percentile, Metric};
use crate::trace::Tracer;
use crate::wire::Conn;
use dynaddr_atlas::logs::AtlasDataset;
use dynaddr_atlas::{paper_route_tables, paper_world, simulate, DatasetStream};
use dynaddr_core::live::{replay_plan, IncrementalAnalyzer};
use dynaddr_core::pipeline::{analyze, analyze_streamed, AnalysisConfig, AnalysisReport};
use dynaddr_core::report::render_full;
use dynaddr_daemon::{Daemon, Rate};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_query::proto::{self, Request, Response};
use dynaddr_query::{serve, Answerer, CacheConfig, EngineOptions, QueryEngine, Workload};
use dynaddr_store::{SegmentFileReader, SegmentInfo};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Traced/untraced `analyze` pairs behind `obs.trace_overhead_pct`.
const OVERHEAD_ROUNDS: usize = 5;

/// How long the traced query loops run (the rest is fixed-size work).
pub struct TracePlan {
    pub query_s: f64,
    pub socket_s: f64,
}

/// Everything the traced run reports: the per-layer metrics and the
/// span table they reconcile against.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub rows: Vec<(&'static str, f64)>,
    pub wall_ms: f64,
    /// Spans recorded: one per call into a layer.
    pub calls: u64,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn text(r: &AnalysisReport, cfg: &AnalysisConfig) -> String {
    render_full(r, &cfg.as_names)
}

/// Runs the traced sequence in `dir` and returns its metrics.
pub fn traced_run(dir: &Path, seed: u64, plan: &TracePlan) -> Result<Traced, Fail> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut t = Tracer::new();
    let mut metrics = Vec::new();
    let out = &mut metrics;
    let world = t.span("atlas.world", || paper_world(1.0, seed));

    // ----- atlas: the simulator at one worker, then at every worker ------
    dynaddr_exec::set_threads(Some(1));
    t.span("atlas.simulate_1t", || drop(simulate(&world)));
    dynaddr_exec::set_threads(None);
    let workers = dynaddr_exec::current_threads();
    dynaddr_obs::reset_metrics();
    dynaddr_exec::reset_exec_stats();
    let sim = t.span("atlas.simulate", || simulate(&world));
    let reg = dynaddr_obs::metrics_snapshot();
    let counter = |name: &str| {
        reg.counters
            .iter()
            .chain(&reg.gauges)
            .find(|c| c.0 == name)
            .map_or(f64::NAN, |c| c.1 as f64)
    };
    out.push(m("atlas.simulate_ms", t.ms("atlas.simulate"), "ms"));
    out.push(m(
        "atlas.simulate_speedup",
        t.ms("atlas.simulate_1t") / t.ms("atlas.simulate"),
        "x",
    ));
    out.push(m("atlas.shards", counter("sim.shards"), "count"));
    out.push(m(
        "atlas.events_pushed",
        counter("sim.events_pushed"),
        "count",
    ));
    out.push(m(
        "atlas.max_queue_len",
        counter("sim.max_queue_len"),
        "count",
    ));

    // ----- store + ip2as: encode, write, load back ------------------------
    let cfg = AnalysisConfig {
        as_names: sim
            .truth
            .isp_policies
            .iter()
            .map(|(asn, p)| (*asn, p.name.clone()))
            .collect(),
        ..AnalysisConfig::default()
    };
    let bytes = t.span("store.encode", || sim.dataset.to_store_bytes());
    let store_path = dir.join("dataset.store");
    let snaps = t.span("atlas.route_tables", || paper_route_tables(&world));
    t.span("bench.write_inputs", || -> Result<(), String> {
        std::fs::write(&store_path, &bytes).map_err(|e| e.to_string())?;
        snaps
            .save_dir(&dir.join("ip2as"))
            .map_err(|e| e.to_string())
    })?;
    t.span("bench.drop", || drop((sim, snaps)));
    let snaps = t
        .span("ip2as.load", || {
            MonthlySnapshots::load_dir(&dir.join("ip2as"))
        })
        .map_err(|e| format!("ip2as: {e}"))?;
    let ds = t
        .span("store.decode", || AtlasDataset::from_store_bytes(&bytes))
        .map_err(|e| format!("decode: {e}"))?;
    let streamed_rows = t.span("store.stream_read", || -> Result<u64, String> {
        let mut stream = DatasetStream::open(&store_path).map_err(|e| e.to_string())?;
        let mut rows = 0u64;
        while let Some(b) = stream.next_batch().map_err(|e| e.to_string())? {
            rows += (b.meta.len() + b.connections.len() + b.kroot.len() + b.uptime.len()) as u64;
        }
        Ok(rows)
    })?;
    let rows = (ds.meta.len() + ds.connections.len() + ds.kroot.len() + ds.uptime.len()) as u64;
    if streamed_rows != rows {
        return Err(Fail::Incorrect(format!(
            "DatasetStream read {streamed_rows} rows, the decoder {rows}"
        )));
    }
    out.push(m("store.encode_ms", t.ms("store.encode"), "ms"));
    out.push(m("store.decode_ms", t.ms("store.decode"), "ms"));
    out.push(m("store.stream_read_ms", t.ms("store.stream_read"), "ms"));
    out.push(m(
        "store.bytes_per_row",
        bytes.len() as f64 / rows as f64,
        "B/row",
    ));
    out.push(m("ip2as.load_ms", t.ms("ip2as.load"), "ms"));

    // ----- core: batch analysis, at every worker and at one ---------------
    dynaddr_obs::take_spans();
    let report = t.span("core.analyze", || analyze(&ds, &snaps, &cfg));
    let (spans, _) = dynaddr_obs::take_spans();
    let inner = |p: &str| {
        spans
            .iter()
            .find(|s| s.path == p)
            .map_or(f64::NAN, |s| s.dur_us as f64 / 1e3)
    };
    let (filter_ms, outage_ms) = (
        inner("analyze/filter_probes"),
        inner("analyze/outage_analysis"),
    );
    let es = dynaddr_exec::exec_stats();
    dynaddr_exec::set_threads(Some(1));
    let report_1t = t.span("core.analyze_1t", || analyze(&ds, &snaps, &cfg));
    dynaddr_exec::set_threads(None);
    let streamed = t
        .span("core.analyze_streamed", || {
            analyze_streamed(&store_path, &snaps, &cfg)
        })
        .map_err(|e| format!("analyze_streamed: {e}"))?;
    let reference = text(&report, &cfg);
    if text(&report_1t, &cfg) != reference || text(&streamed, &cfg) != reference {
        return Err(Fail::Incorrect(
            "in-process analyze reports differ across threads or streaming".into(),
        ));
    }
    let analyze_ms = t.ms("core.analyze");
    out.push(m("core.filter_probes_ms", filter_ms, "ms"));
    out.push(m("core.outage_analysis_ms", outage_ms, "ms"));
    out.push(m("core.analyze_ms", analyze_ms, "ms"));
    out.push(m(
        "core.finish_ms",
        analyze_ms - filter_ms - outage_ms,
        "ms",
    ));
    out.push(m(
        "core.analyze_speedup",
        t.ms("core.analyze_1t") / analyze_ms,
        "x",
    ));
    out.push(m(
        "core.analyze_streamed_ms",
        t.ms("core.analyze_streamed"),
        "ms",
    ));

    // ----- exec: the simulate .. analyze window at every worker -----------
    // Busy share over the real worker count, from the raw fields; not
    // `ExecStats::utilization()`, which divides by chunk slots.
    let busy_ns: u64 = es.busy_ns_per_worker.iter().sum();
    out.push(m("exec.regions", es.regions as f64, "count"));
    out.push(m(
        "exec.sequential_regions",
        es.sequential_regions as f64,
        "count",
    ));
    out.push(m(
        "exec.workers_spawned",
        es.spawned_workers as f64,
        "count",
    ));
    out.push(m("exec.workers", workers as f64, "count"));
    out.push(m("exec.busy_ms", busy_ns as f64 / 1e6, "ms"));
    out.push(m("exec.wall_ms", es.wall_ns as f64 / 1e6, "ms"));
    out.push(m(
        "exec.busy_share",
        busy_ns as f64 / (es.wall_ns as f64 * workers as f64),
        "share",
    ));

    // ----- obs: tracing cost, traced vs untraced analyze, interleaved -----
    let trace_file = dir.join("trace.jsonl");
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_ROUNDS {
        let t0 = Instant::now();
        t.span("obs.untraced_analyze", || {
            black_box(analyze(&ds, &snaps, &cfg))
        });
        untraced.push(t0.elapsed().as_secs_f64());
        dynaddr_obs::init_trace(&trace_file).map_err(|e| format!("trace: {e}"))?;
        let t0 = Instant::now();
        t.span("obs.traced_analyze", || {
            black_box(analyze(&ds, &snaps, &cfg));
            dynaddr_obs::flush_trace();
        });
        traced.push(t0.elapsed().as_secs_f64());
        dynaddr_obs::disable_trace();
    }
    dynaddr_obs::take_spans();
    let (traced, untraced) = (median(&traced), median(&untraced));
    out.push(m(
        "obs.trace_overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    ));

    // ----- query: engine, in-process answers, then over the socket --------
    query_layers(&mut t, out, dir, &store_path, seed, plan)?;

    // ----- core::live and daemon: replay, seal, point queries -------------
    let plan_rows = t.span("core.replay_plan", || replay_plan(&ds));
    let live = t.span("core.live_apply", || {
        let mut live = IncrementalAnalyzer::new(snaps.clone());
        for meta in &ds.meta {
            live.push_meta(meta);
        }
        for step in &plan_rows {
            live.apply(&ds, step.row);
        }
        live
    });
    let sealed = t.span("core.seal", || live.seal(&cfg));
    if text(&sealed, &cfg) != reference {
        return Err(Fail::Incorrect(
            "sealed live report differs from analyze's".into(),
        ));
    }
    t.span("bench.drop", || drop((live, sealed)));
    out.push(m("core.replay_plan_ms", t.ms("core.replay_plan"), "ms"));
    out.push(m(
        "core.live_apply_ns_per_row",
        t.ms("core.live_apply") * 1e6 / plan_rows.len() as f64,
        "ns/row",
    ));
    out.push(m("core.seal_ms", t.ms("core.seal"), "ms"));
    drop(plan_rows);

    // Snapshots during ingest are paced (one per ~20 µs of sleep) and
    // kept only once the meta rows are in, i.e. while rows apply; the idle
    // ones run on the same full state after the replay.
    let daemon = Daemon::new(snaps.clone(), cfg.clone());
    let ingest_ns = t.span("daemon.replay_with_snapshots", || {
        std::thread::scope(|s| {
            let replay = s.spawn(|| daemon.replay(&ds, Rate::Max));
            let mut ns = Vec::new();
            while !replay.is_finished() {
                std::thread::sleep(Duration::from_micros(20));
                let t0 = Instant::now();
                let snap = daemon.snapshot_reply();
                let took = t0.elapsed().as_nanos() as f64;
                if snap.total > 0 {
                    ns.push(took);
                }
            }
            replay.join().expect("replay thread");
            ns
        })
    });
    let idle_ns = t.span("daemon.snapshot_idle", || {
        (0..20_000)
            .map(|_| {
                let t0 = Instant::now();
                black_box(daemon.snapshot_reply());
                t0.elapsed().as_nanos() as f64
            })
            .collect::<Vec<f64>>()
    });
    let daemon_text = t.span("daemon.seal", || daemon.seal_text());
    if daemon_text != reference {
        return Err(Fail::Incorrect(
            "Daemon's sealed report differs from analyze's".into(),
        ));
    }
    out.push(m("daemon.snapshot_idle_ns", median(&idle_ns), "ns"));
    out.push(m("daemon.snapshot_ingest_ns", median(&ingest_ns), "ns"));
    out.push(m(
        "daemon.snapshot_ingest_p99_ns",
        percentile(&ingest_ns, 0.99),
        "ns",
    ));
    t.span("bench.drop", || drop((daemon, ds, snaps, bytes)));

    let wall_ms = t.wall_ms();
    let mut rows = t.rows();
    let unattributed = wall_ms - rows.iter().map(|r| r.1).sum::<f64>();
    rows.push(("unattributed", unattributed));
    out.push(m("unattributed_ms", unattributed, "ms"));
    Ok(Traced {
        metrics,
        rows,
        wall_ms,
        calls: t.calls(),
    })
}

/// `QueryEngine` wrapped to time each answer on the server side. With one
/// client connection, the k-th answer belongs to the k-th request.
struct TimedEngine {
    engine: Arc<QueryEngine>,
    answer_ns: Mutex<Vec<u64>>,
}

impl Answerer for TimedEngine {
    fn answer(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let r = self.engine.query(req);
        let ns = t0.elapsed().as_nanos() as u64;
        self.answer_ns.lock().expect("answer timings").push(ns);
        r
    }
}

/// Rows in the segments `rows_for` would scan for `key`, over the four
/// dataset tables (from the store footer).
fn rows_scanned(segs: &[SegmentInfo], key: u32) -> u64 {
    segs.iter()
        .filter(|s| (1..=4).contains(&s.table) && s.key_lo <= key && key <= s.key_hi)
        .map(|s| s.rows)
        .sum()
}

fn query_layers(
    t: &mut Tracer,
    out: &mut Vec<Metric>,
    dir: &Path,
    store_path: &Path,
    seed: u64,
    plan: &TracePlan,
) -> Result<(), Fail> {
    let working_set = decoded_working_set(store_path)?;
    let budget = cache_budget_mb(working_set);
    let opts = EngineOptions {
        cache: CacheConfig {
            budget_bytes: budget << 20,
            ..CacheConfig::default()
        },
    };
    let engine = t
        .span("query.engine_open", || QueryEngine::open_dir(dir, &opts))
        .map_err(|e| format!("engine: {e}"))?;
    let engine = Arc::new(engine);
    let segs = SegmentFileReader::open(store_path)
        .map_err(|e| e.to_string())?
        .segments()
        .to_vec();
    let st = engine.stats();
    let workload = Workload::new(
        dynaddr_query::workload::splitmix64(seed),
        st.probes(),
        st.asns(),
        st.countries(),
        engine.truth_available(),
    );
    out.push(m("query.engine_open_ms", t.ms("query.engine_open"), "ms"));

    // In-process: answer, encode and decode each request, one thread, so
    // the cache's miss counter tells a hit from a miss exactly.
    let (mut hit, mut miss, mut enc, mut dec) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reply_bytes, mut scanned, mut returned) = (0u64, 0u64, 0u64);
    let mut n = 0u64;
    let until = Instant::now() + Duration::from_secs_f64(plan.query_s);
    t.span("query.answer_inprocess", || -> Result<(), String> {
        while Instant::now() < until {
            let req = workload.request(n);
            n += 1;
            let misses = engine.cache_stats().misses;
            let t0 = Instant::now();
            let resp = engine.query(&req);
            let answer_us = t0.elapsed().as_secs_f64() * 1e6;
            let t1 = Instant::now();
            let body = proto::to_bytes(&resp);
            let t2 = Instant::now();
            let back: Response = proto::from_bytes(&body).map_err(|e| e.0)?;
            dec.push(t2.elapsed().as_secs_f64() * 1e6);
            enc.push(t2.duration_since(t1).as_secs_f64() * 1e6);
            reply_bytes += body.len() as u64;
            if let Response::Error(e) = back {
                return Err(format!("in-process query failed: {e}"));
            }
            if let (Request::ProbeRecords(p), Response::ProbeRecords(r)) = (&req, &resp) {
                scanned += rows_scanned(&segs, p.0);
                returned += (r.meta.is_some() as usize
                    + r.connections.len()
                    + r.kroot.len()
                    + r.uptime.len()) as u64;
            }
            if matches!(req, Request::ProbeRecords(_) | Request::ProbeSeries(_)) {
                if engine.cache_stats().misses > misses {
                    &mut miss
                } else {
                    &mut hit
                }
                .push(answer_us);
            }
        }
        Ok(())
    })?;
    let cache = engine.cache_stats();
    out.push(m("query.hit_us", median(&hit), "us"));
    out.push(m("query.miss_us", median(&miss), "us"));
    out.push(m(
        "query.rows_scanned_per_row_returned",
        scanned as f64 / returned as f64,
        "ratio",
    ));
    out.push(m("query.encode_us", median(&enc), "us"));
    out.push(m("query.decode_us", median(&dec), "us"));
    out.push(m("query.reply_bytes", reply_bytes as f64 / n as f64, "B"));
    out.push(m("query.cache_hit_rate", cache.hit_rate(), "share"));
    out.push(m("query.cache_evictions", cache.evictions as f64, "count"));

    // Over the socket: one connection, closed loop. Per request, the round
    // trip minus the server's answer and the reply's encode and decode
    // (both timed here on the same reply) is the socket and framing.
    let timed = Arc::new(TimedEngine {
        engine,
        answer_ns: Mutex::new(Vec::new()),
    });
    let sock = dir.join("q.sock");
    let server = serve(Arc::clone(&timed), &sock).map_err(|e| format!("serve: {e}"))?;
    let handle = server.handle();
    let (rt, codec) = t.span("query.socket_loop", || {
        std::thread::scope(|s| -> Result<(Vec<f64>, Vec<f64>), String> {
            let runner = s.spawn(move || server.run());
            let result = (|| {
                let mut conn = Conn::connect(&sock).map_err(|e| e.to_string())?;
                let (mut rt, mut codec) = (Vec::new(), Vec::new());
                let until = Instant::now() + Duration::from_secs_f64(plan.socket_s);
                while Instant::now() < until {
                    let body = proto::to_bytes(&workload.request((1 << 41) + rt.len() as u64));
                    let t0 = Instant::now();
                    let reply = conn.call(&body).map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    let resp: Response = proto::from_bytes(&reply).map_err(|e| e.0)?;
                    let t2 = Instant::now();
                    black_box(proto::to_bytes(&resp));
                    rt.push(t1.duration_since(t0).as_secs_f64() * 1e6);
                    codec.push(
                        t2.elapsed().as_secs_f64() * 1e6
                            + t2.duration_since(t1).as_secs_f64() * 1e6,
                    );
                }
                Ok((rt, codec))
            })();
            handle.stop();
            runner
                .join()
                .expect("server thread")
                .map_err(|e| e.to_string())?;
            result
        })
    })?;
    let answers = timed.answer_ns.lock().expect("answer timings");
    let socket: Vec<f64> = rt
        .iter()
        .zip(&codec)
        .zip(answers.iter())
        .map(|((rt, codec), &ns)| rt - ns as f64 / 1e3 - codec)
        .collect();
    out.push(m("query.socket_us", median(&socket), "us"));
    Ok(())
}
