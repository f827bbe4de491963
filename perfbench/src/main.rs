//! `perfbench` — the repository benchmark, one workload per run.
//!
//! ```text
//! perfbench --workload batch_paper|query_zipf|live_replay --seed N
//!           --seconds S --trace 0|1 --open-rps R --bin-dir DIR --work-dir DIR
//! ```
//!
//! Every workload runs the same three stages over a paper-tier dataset
//! simulated from `--seed` (batch, query, live; see `e2e.rs`),
//! interleaved so a host stall reaches only some of each stage's samples.
//! Each stage makes a fixed minimum, so every run reports every
//! end-to-end metric, and the workload gives its `--seconds` on top to
//! one of them:
//!
//! * `batch_paper` repeats simulate → analyze → analyze --streamed;
//! * `query_zipf` drives `queryd` longer, then in an open loop too;
//! * `live_replay` repeats the `dynaddrd` replay under point queries.
//!
//! With `--trace 1` the run is the traced one instead: the same work
//! in-process with a span around each call into a layer, reporting the
//! per-layer metrics (see `traced.rs`).
//!
//! Human-readable detail (sizes, sample counts, tails, the span table)
//! goes to standard output first; the last line is the JSON result. A
//! failed correctness gate exits 1 without a result.

mod e2e;
mod proc;
mod stats;
mod trace;
mod traced;
mod wire;

use e2e::{Batch, Ctx, Fail, Live, QueryRun};
use stats::{describe, median, percentile, result_line, Metric};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    BatchPaper,
    QueryZipf,
    LiveReplay,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    open_rps: f64,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut open_rps = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "batch_paper" => Workload::BatchPaper,
                    "query_zipf" => Workload::QueryZipf,
                    "live_replay" => Workload::LiveReplay,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--open-rps" => {
                open_rps = Some(value()?.parse().map_err(|e| format!("--open-rps: {e}"))?)
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let need = |what: &str| format!("{what} is required");
    let open_rps: f64 = open_rps.ok_or_else(|| need("--open-rps"))?;
    if !open_rps.is_finite() || open_rps <= 0.0 {
        return Err("--open-rps must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace,
        open_rps,
        bin_dir: bin_dir.ok_or_else(|| need("--bin-dir"))?,
        work_dir: work_dir.ok_or_else(|| need("--work-dir"))?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let result = std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| Fail::Broken(format!("{}: {e}", args.work_dir.display())))
        .and_then(|()| {
            if args.trace {
                traced(&args)
            } else {
                untraced(&args)
            }
        });
    match result {
        Ok(line) => println!("{line}"),
        Err(Fail::Incorrect(msg)) => {
            eprintln!("perfbench: correctness gate failed: {msg}");
            std::process::exit(1);
        }
        Err(Fail::Broken(msg)) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}

/// Closed-loop query seconds every run drives.
const SHORT_QUERY_S: f64 = 5.0;
/// Timed closed-loop query blocks a run drives between its other cycles.
const QUERY_BLOCKS: usize = 5;
/// Batch cycles and replays every run makes. One batch cycle is enough:
/// the batch metrics (CPU time, peak RSS) move by about 1% between the
/// cycles of one run, while a replay's wall times move by about 7%.
const MIN_BATCH: usize = 1;
const MIN_LIVE: usize = 3;

/// How many cycles a stage runs: `min`, then more until the cycles
/// beyond `min` took `extra_s` seconds (the workload's `--seconds` on the
/// stage it emphasises, 0 elsewhere).
struct Quota {
    min: usize,
    extra_s: f64,
    cycles: usize,
    beyond_s: f64,
}

impl Quota {
    fn new(min: usize, extra_s: f64) -> Quota {
        Quota {
            min,
            extra_s,
            cycles: 0,
            beyond_s: 0.0,
        }
    }

    fn more(&self) -> bool {
        self.cycles < self.min || self.beyond_s < self.extra_s
    }

    fn run(&mut self, cycle: impl FnOnce() -> Result<(), Fail>) -> Result<(), Fail> {
        let start = Instant::now();
        let r = cycle();
        if self.cycles >= self.min {
            self.beyond_s += start.elapsed().as_secs_f64();
        }
        self.cycles += 1;
        r
    }
}

fn untraced(args: &Args) -> Result<String, Fail> {
    let mut ctx = Ctx {
        bins: proc::Bins::new(&args.bin_dir)?,
        work: args.work_dir.clone(),
        seed: args.seed,
        attempted: 0,
        failed: 0,
    };
    let ticks = proc::cpu_ticks();
    let w = args.workload;
    let s = args.seconds;
    let extra = |on: Workload| if w == on { s } else { 0.0 };

    // The first batch cycle makes the dataset and the reference report
    // every later stage needs.
    let mut batch = Batch::default();
    let mut batch_quota = Quota::new(MIN_BATCH, extra(Workload::BatchPaper));
    let with_setup = w == Workload::BatchPaper;
    batch_quota.run(|| e2e::batch_cycle(&mut ctx, &mut batch, with_setup))?;

    // The in-process reference engine (digest gate) and the request
    // workloads, derived from the seed and the simulated data only.
    let engine = dynaddr_query::QueryEngine::open_dir(&ctx.ds(), &Default::default())
        .map_err(|e| format!("in-process engine: {e}"))?;
    let st = engine.stats();
    let wseed = dynaddr_query::workload::splitmix64(args.seed);
    let queries = dynaddr_query::Workload::new(
        wseed,
        st.probes(),
        st.asns(),
        st.countries(),
        engine.truth_available(),
    );
    let points =
        dynaddr_query::Workload::new(wseed ^ 1, st.probes(), Vec::new(), Vec::new(), false);
    let query_s = extra(Workload::QueryZipf);
    let setup_spawns = if w == Workload::QueryZipf { 5 } else { 1 };
    let mut q = QueryRun::start(
        &mut ctx,
        &engine,
        &queries,
        setup_spawns,
        (SHORT_QUERY_S + 0.6 * query_s) / QUERY_BLOCKS as f64,
    )?;

    // The rest interleaves: a query block after each replay and each
    // batch cycle, so every stage's samples are spread over the run and a
    // host stall of a few seconds reaches only some of each.
    let mut live = Live::default();
    let mut live_quota = Quota::new(MIN_LIVE, extra(Workload::LiveReplay));
    while live_quota.more() || batch_quota.more() || q.timed_blocks() < QUERY_BLOCKS {
        if live_quota.more() {
            live_quota.run(|| e2e::live_cycle(&mut ctx, &mut live, &points, &batch.report))?;
        }
        if q.timed_blocks() < QUERY_BLOCKS {
            q.block();
        }
        if batch_quota.more() {
            batch_quota.run(|| e2e::batch_cycle(&mut ctx, &mut batch, with_setup))?;
            if q.timed_blocks() < QUERY_BLOCKS {
                q.block();
            }
        }
    }
    if query_s > 0.0 {
        q.open_loop(0.4 * query_s, args.open_rps);
    }
    let q = q.finish(&mut ctx)?;
    drop(engine);

    let setup = match w {
        Workload::BatchPaper => &batch.setup_s,
        Workload::QueryZipf => &q.setup_s,
        Workload::LiveReplay => &live.setup_s,
    };
    let store = ctx.ds().join("dataset.store");
    let store_bytes = std::fs::metadata(&store).map(|m| m.len()).unwrap_or(0);
    println!(
        "workload {}, seed {}, {} s, {} workers",
        workload_name(w),
        args.seed,
        s,
        dynaddr_exec::current_threads()
    );
    // Stolen time is the main source of run-to-run spread on a shared
    // host; reported so a noisy run can be told from a slow program.
    let (steal, total) = proc::cpu_ticks();
    println!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        (steal - ticks.0) as f64 * 100.0 / (total - ticks.1).max(1) as f64
    );
    println!(
        "sizes: {} rows ingested per replay, dataset.store {} bytes, decoded working set {:.1} MiB, \
         queryd cache budget {} MiB, open-loop rate {} req/s",
        live.rows, store_bytes, q.working_set_mb, q.budget_mb, args.open_rps
    );
    println!("setup_s: {}", describe(setup, "s"));
    for (name, cpu, wall) in [
        ("simulate_s", &batch.simulate_s, &batch.simulate_wall_s),
        ("analyze_s", &batch.analyze_s, &batch.analyze_wall_s),
        (
            "analyze_streamed_s",
            &batch.streamed_s,
            &batch.streamed_wall_s,
        ),
    ] {
        println!(
            "{name}: CPU {}; wall {}",
            describe(cpu, "s"),
            describe(wall, "s")
        );
    }
    println!(
        "analyze_peak_rss_mb: {}",
        describe(&batch.analyze_rss_mb, "MiB")
    );
    println!(
        "analyze_streamed_peak_rss_mb: {}",
        describe(&batch.streamed_rss_mb, "MiB")
    );
    println!(
        "query closed loop, {} connections, {} blocks of {} s: {:.1} req/s; latency {}; \
         {} of {} 0.25 s windows used hold 1000+ samples",
        e2e::CONNS,
        q.blocks,
        q.block_s,
        q.closed_rps,
        describe(&q.closed_us.all(), "us"),
        q.closed_us.qualifying(0.99),
        q.closed_us.qualifying(0.0)
    );
    println!(
        "query windows: {} used of {}, the calmest third by stolen CPU time (median {:.0}% \
         stolen in those, {:.0}% over all windows); over all windows {:.1} req/s, p50 {:.1} us, \
         p99 {:.1} us",
        q.closed_us.qualifying(0.0),
        q.all_us.qualifying(0.0),
        q.calm_stolen * 100.0,
        q.stolen_median * 100.0,
        q.all_rps,
        q.all_us.median_of(0.5),
        q.all_us.median_of(0.99)
    );
    if !q.open_us.is_empty() {
        println!(
            "query open loop at {} req/s: latency from due time {}; generator lateness p99 {:.1} us ({})",
            args.open_rps,
            describe(&q.open_us, "us"),
            percentile(&q.lateness_us, 0.99),
            describe(&q.lateness_us, "us")
        );
    }
    println!(
        "query cache hit rate {:.4} over {} requests",
        q.cache_hit_rate, q.requests
    );
    println!(
        "time_to_report_s: {}; per replay {:.3?}",
        describe(&live.time_to_report_s, "s"),
        live.time_to_report_s
    );
    println!(
        "ingest_rows_per_s: {}; per replay {:?}",
        describe(&live.ingest_rows_per_s, "rows/s"),
        live.ingest_rows_per_s
    );
    println!(
        "point queries at {} req/s beside ingest: latency from due time {}; per replay p50 {:?}, p99 {:?}",
        e2e::POINT_RPS,
        describe(&live.point_us, "us"),
        live.point_p50_us.iter().map(|v| v.round()).collect::<Vec<_>>(),
        live.point_p99_us.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
    println!(
        "point queries: generator lateness p99 {:.1} us ({})",
        percentile(&live.lateness_us, 0.99),
        describe(&live.lateness_us, "us")
    );
    println!(
        "operations: {} attempted, {} succeeded, {} failed",
        ctx.attempted,
        ctx.attempted - ctx.failed,
        ctx.failed
    );

    let ok_share = (ctx.attempted - ctx.failed) as f64 / ctx.attempted.max(1) as f64;
    let metrics = [
        Metric {
            name: "setup_s",
            value: median(setup),
            unit: "s",
        },
        Metric {
            name: "simulate_s",
            value: median(&batch.simulate_s),
            unit: "s",
        },
        Metric {
            name: "analyze_s",
            value: median(&batch.analyze_s),
            unit: "s",
        },
        Metric {
            name: "analyze_streamed_s",
            value: median(&batch.streamed_s),
            unit: "s",
        },
        Metric {
            name: "analyze_peak_rss_mb",
            value: median(&batch.analyze_rss_mb),
            unit: "MiB",
        },
        Metric {
            name: "analyze_streamed_peak_rss_mb",
            value: median(&batch.streamed_rss_mb),
            unit: "MiB",
        },
        Metric {
            name: "query_rps",
            value: q.closed_rps,
            unit: "1/s",
        },
        Metric {
            name: "query_p50_us",
            value: q.closed_us.median_of(0.5),
            unit: "us",
        },
        Metric {
            name: "query_p99_us",
            value: q.closed_us.median_of(0.99),
            unit: "us",
        },
        Metric {
            name: "ingest_rows_per_s",
            value: median(&live.ingest_rows_per_s),
            unit: "rows/s",
        },
        Metric {
            name: "time_to_report_s",
            value: median(&live.time_to_report_s),
            unit: "s",
        },
        Metric {
            name: "point_p50_us",
            value: median(&live.point_p50_us),
            unit: "us",
        },
        Metric {
            name: "point_p99_us",
            value: median(&live.point_p99_us),
            unit: "us",
        },
        Metric {
            name: "ok_share",
            value: ok_share,
            unit: "share",
        },
    ];
    Ok(result_line(true, ctx.attempted, ctx.failed, &metrics))
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::BatchPaper => "batch_paper",
        Workload::QueryZipf => "query_zipf",
        Workload::LiveReplay => "live_replay",
    }
}

fn traced(args: &Args) -> Result<String, Fail> {
    let query_s = SHORT_QUERY_S
        + if args.workload == Workload::QueryZipf {
            args.seconds
        } else {
            0.0
        };
    let plan = traced::TracePlan {
        query_s,
        socket_s: query_s / 2.0,
    };
    let t = traced::traced_run(&args.work_dir.join("traced"), args.seed, &plan)?;
    println!(
        "traced run, workload {}, seed {}: {:.1} ms wall",
        workload_name(args.workload),
        args.seed,
        t.wall_ms
    );
    println!("{:<32} {:>12} {:>8}", "span (self time)", "ms", "share");
    for (name, ms) in &t.rows {
        println!("{name:<32} {ms:>12.1} {:>7.1}%", ms / t.wall_ms * 100.0);
    }
    for metric in &t.metrics {
        println!("{:<40} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    Ok(result_line(true, t.calls, 0, &t.metrics))
}
