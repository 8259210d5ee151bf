//! `perfbench`: the repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <cold_star|tri_join|warm_mix|ingest_refresh> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run serves one workload from an in-process `DpServer` on loopback
//! and drives it with closed-loop `DpClient` connections. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` measures the per-layer
//! metrics in a traced run. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Every reply is
//! checked; any failed check makes the run exit with code 1. See
//! `perfbench/README.md` for the workloads and metrics.

mod pipeline;
mod report;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use report::{Metric, Report};
use rmdp_observe::{Clock, MonotonicClock};
use run::{ConnLog, Until};
use stats::{median, tail};
use std::process::ExitCode;

/// Set-ups per untraced run: at least `MIN_SETUPS`, and more while their
/// total stays under `SETUP_BUDGET_NS` (up to `MAX_SETUPS`), so a
/// millisecond set-up is still a steady median. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_NS: u64 = 1_000_000_000;
/// A tail needs this many samples beyond it.
const TAIL_BEYOND: usize = 10;
/// Share of `server.query` the layer spans must cover, as a median over
/// analyst queries. On a cache hit the server's own work (admission, a
/// second plan for pricing, the ledger, metrics) is over half the span, so
/// the floor sits below the hit-heavy workloads' medians (0.38 to 0.55).
const COVERAGE_FLOOR: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether the workload's releases are replayed cache-free. warm_mix
/// serves many thousand hits per run; re-solving each cold would take
/// far longer than the run, so it replays over a private cold cache.
fn cache_free(args: &Args) -> bool {
    args.workload != "warm_mix"
}

/// The untraced run: repeated set-ups, then the closed loops for the
/// measurement window, then the post-run checks.
fn untraced(args: &Args, total: &mut ConnLog) -> Result<Vec<Metric>, String> {
    let clock = MonotonicClock::new();
    let mut setup_s = Vec::new();
    let mut served = None;
    let first = clock.now_nanos();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && clock.now_nanos() - first < SETUP_BUDGET_NS)
    {
        let started = clock.now_nanos();
        let s = run::set_up(&args.workload, args.seed)?;
        setup_s.push((clock.now_nanos() - started) as f64 / 1e9);
        if let Some(previous) = served.replace(s) {
            previous.stop();
        }
    }
    let mut served = served.expect("at least one set-up");
    let until = Until::Deadline {
        nanos: args.seconds * 1_000_000_000,
        min_rounds: TAIL_BEYOND as u64 + 1,
    };
    let (conns, wall) = run::drive_all(&mut served, until);
    let peak_rss_mb = conns[0].peak_rss_mb.unwrap_or_else(run::peak_rss_mb);
    run::verify(&mut served, &conns, cache_free(args), total);

    let mut log = std::mem::take(&mut served.warmup);
    for c in conns {
        log.absorb(c);
    }
    served.stop();
    let release_tail = tail(&log.release_ms, TAIL_BEYOND).ok_or("too few releases for a tail")?;
    eprintln!(
        "{} set-ups; release tail: p{:.2} of {} samples, max {:.3} ms; {} rounds in {:.3} s; {} ingests",
        setup_s.len(),
        release_tail.percentile,
        release_tail.samples,
        log.release_ms.iter().copied().fold(0.0, f64::max),
        log.rounds,
        wall as f64 / 1e9,
        log.ingests
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_s).expect("set-ups ran"),
            unit: "s",
        },
        Metric {
            name: "release_p50_ms",
            value: median(&log.release_ms).ok_or("no releases")?,
            unit: "ms",
        },
        Metric {
            name: "release_tail_ms",
            value: release_tail.value,
            unit: "ms",
        },
        Metric {
            name: "releases_per_s",
            value: log.release_ms.len() as f64 / (wall as f64 / 1e9),
            unit: "1/s",
        },
        Metric {
            name: "ingest_p50_ms",
            value: median(&log.ingest_ms).ok_or("no ingests")?,
            unit: "ms",
        },
        Metric {
            name: "ingest_to_release_p50_ms",
            value: median(&log.ingest_to_release_ms).ok_or("no ingest rounds")?,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
    ];
    total.absorb(log);
    Ok(metrics)
}

/// The traced run: an untraced pass and a traced pass over the same fixed
/// number of rounds, each on a fresh set-up, then the per-layer metrics.
fn traced(args: &Args, total: &mut ConnLog) -> Result<Vec<Metric>, String> {
    // Untraced pass: the baseline the tracing overhead is measured against.
    let mut served = run::set_up(&args.workload, args.seed)?;
    let rounds = served.workload.traced_rounds;
    let (conns, _) = run::drive_all(&mut served, Until::Rounds(rounds));
    run::verify(&mut served, &conns, cache_free(args), total);
    let mut plain = std::mem::take(&mut served.warmup);
    for c in conns {
        plain.absorb(c);
    }
    served.stop();

    // Traced pass.
    let mut served = run::set_up(&args.workload, args.seed)?;
    let reference_nanos = served.workload.reference_nanos as f64;
    let shadow = trace::Shadow::new(&served)?;
    let (conns, recorders) = trace::drive_all_traced(&mut served, &shadow, rounds);
    run::verify(&mut served, &conns, cache_free(args), total);
    let shed: u64 = {
        let snapshot = served.server.metrics().snapshot();
        snapshot
            .counter_names()
            .filter(|n| n.starts_with("server.shed."))
            .map(|n| snapshot.counter(n).unwrap_or(0))
            .sum()
    };
    let mut log = std::mem::take(&mut served.warmup);
    for c in conns {
        log.absorb(c);
    }
    served.stop();

    let spans: Vec<spans::Span> = recorders.iter().flatten().cloned().collect();
    write_spans(args, &spans);
    let t = trace::layer_times(&recorders);
    let counts = shadow.pipeline().counts();
    let lp = &counts.lp;
    let solves = (lp.h_solves + lp.g_solves) as f64;
    // All sequence work, probes included, as the LP counters include it.
    let solve_ns: u64 = spans
        .iter()
        .filter(|s| matches!(s.name, "core.sequences" | "core.refresh"))
        .map(|s| s.duration())
        .sum();
    let coverage = median(&t.coverage).unwrap_or(0.0);
    if coverage < COVERAGE_FLOOR {
        total.fail(format!(
            "layer spans cover a median {coverage:.3} of server.query, below {COVERAGE_FLOOR}"
        ));
    }
    let plain_p50 = median(&plain.release_ms).ok_or("no untraced releases")?;
    let traced_p50 = median(&log.release_ms).ok_or("no traced releases")?;
    eprintln!(
        "traced {} rounds: {} spans; untraced p50 {plain_p50:.4} ms, traced p50 {traced_p50:.4} ms",
        rounds,
        spans.len()
    );
    total.absorb(plain);
    total.absorb(log);
    let error_rate = ratio(total.failed as f64, total.attempted as f64);
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("sql.parse_us", us(t.median_ns("sql.parse")), "us"),
        m("sql.plan_us", us(t.median_ns("sql.plan")), "us"),
        m(
            "sql.fingerprint_us",
            us(t.median_ns("sql.fingerprint")),
            "us",
        ),
        m("sql.with_delta_ms", ms(t.median_ns("sql.with_delta")), "ms"),
        m(
            "krelation.execute_ms",
            ms(t.median_ns("krelation.execute")),
            "ms",
        ),
        m("krelation.output_rows", counts.output_rows as f64, "count"),
        m("krelation.terms", counts.terms as f64, "count"),
        m("core.cache_get_us", us(t.median_ns("core.cache_get")), "us"),
        m("core.cache_hits", counts.cache_hits as f64, "count"),
        m("core.cache_misses", counts.cache_misses as f64, "count"),
        m(
            "core.cache_hit_ratio",
            ratio(
                counts.cache_hits as f64,
                (counts.cache_hits + counts.cache_misses) as f64,
            ),
            "ratio",
        ),
        m("core.sequences_ms", ms(t.median_ns("core.sequences")), "ms"),
        m("core.refresh_ms", ms(t.median_ns("core.refresh")), "ms"),
        m(
            "core.refresh_warm_ratio",
            ratio(counts.warm_chains as f64, counts.refreshes as f64),
            "ratio",
        ),
        m(
            "core.purge_stale_us",
            us(t.median_ns("core.purge_stale")),
            "us",
        ),
        m("core.swept", counts.swept as f64, "count"),
        m("lp.solves", solves, "count"),
        m("lp.pivots", lp.total_pivots as f64, "count"),
        m("lp.phase1_pivots", lp.phase1_pivots as f64, "count"),
        m("lp.refactorizations", lp.refactorizations as f64, "count"),
        m(
            "lp.warm_start_ratio",
            ratio(lp.warm_start_hits as f64, solves),
            "ratio",
        ),
        m(
            "lp.us_per_pivot",
            ratio(us(solve_ns as f64), lp.total_pivots as f64),
            "us",
        ),
        m("noise.release_us", us(t.median_ns("noise.release")), "us"),
        m("server.query_us", us(t.median_ns("server.query")), "us"),
        m(
            "server.self_us",
            us(median(&t.server_self).unwrap_or(0.0)),
            "us",
        ),
        m("server.encode_us", us(t.median_ns("server.encode")), "us"),
        m("server.wire_us", us(median(&t.wire).unwrap_or(0.0)), "us"),
        m("server.ingest_ms", ms(t.median_ns("server.ingest")), "ms"),
        m("runtime.shed", shed as f64, "count"),
        m("graph.count_ms", ms(reference_nanos), "ms"),
        m("bench.coverage", coverage, "ratio"),
        m("bench.trace_overhead_ms", traced_p50 - plain_p50, "ms"),
        m("bench.error_rate", error_rate, "ratio"),
    ])
}

/// Writes the traced run's spans as JSON lines under `perfbench/out/`.
fn write_spans(args: &Args, spans: &[spans::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json_lines(spans)));
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut total = ConnLog::default();
    let metrics = if args.trace {
        traced(&args, &mut total)
    } else {
        untraced(&args, &mut total)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for e in &total.errors {
        eprintln!("FAILED: {e}");
    }
    eprintln!(
        "error_rate {} ({} of {} operations failed)",
        ratio(total.failed as f64, total.attempted as f64),
        total.failed,
        total.attempted
    );
    for m in &metrics {
        eprintln!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let report = Report {
        correct: total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        metrics,
    };
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
