//! The traced run: each request under a parent span, driven over the wire,
//! through an in-process `DpServer::query` on a shadow server, and through
//! the public layer functions one span each.
//!
//! The three see the same request stream from the same starting state, so
//! their releases must agree bit for bit; any disagreement is an output
//! failure. Per-layer figures are the medians over requests of each
//! layer's time within a request, plus run totals for work counters.

use crate::pipeline::{flatten_output, Pipeline};
use crate::run::{
    self, check_ingest, check_release, released, tenant, ConnLog, Served, WARMUP_TENANT,
};
use crate::spans::{self_time, Span, SpanRecorder};
use crate::stats::median;
use crate::workloads::{Op, Schedule};
use rmdp_server::{derive_query_seed, derive_tenant_seed, DpClient, DpServer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The in-process twins of a served workload.
pub struct Shadow {
    server: DpServer,
    pipeline: Pipeline,
    server_seed: u64,
}

impl Shadow {
    /// Twins of `served` at its initial state, warmed up exactly as it was.
    pub fn new(served: &Served) -> Result<Self, String> {
        let workload = &served.workload;
        let config = run::config(workload);
        let server = DpServer::new(Arc::clone(&workload.snapshot), config);
        run::register_tenants(&server, workload.schedules.len());
        let pipeline = Pipeline::new(
            Arc::clone(&workload.snapshot),
            config.cache_capacity,
            config.group_policy,
        );
        let shadow = Shadow {
            server,
            pipeline,
            server_seed: workload.server_seed,
        };
        let mut scratch = SpanRecorder::new();
        for (index, op) in workload.warmup.iter().enumerate() {
            if let Op::Query { sql, .. } = op {
                shadow
                    .server
                    .query(WARMUP_TENANT, sql)
                    .map_err(|e| format!("shadow warm-up: {e}"))?;
                let seed = shadow.seed(WARMUP_TENANT, index as u64);
                shadow
                    .pipeline
                    .query(&mut scratch, 0, sql, seed)
                    .map_err(|e| format!("pipeline warm-up: {e}"))?;
            }
        }
        shadow.pipeline.reset_counts();
        Ok(shadow)
    }

    fn seed(&self, tenant: &str, index: u64) -> u64 {
        derive_query_seed(derive_tenant_seed(self.server_seed, tenant), index)
    }

    /// The layer-by-layer pipeline (for its work counters).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }
}

fn bits_equal(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// One connection's traced loop: `rounds` rounds of its schedule.
fn drive_traced(
    client: &mut DpClient,
    conn: usize,
    schedule: &mut dyn Schedule,
    rounds: u64,
    shadow: &Shadow,
) -> (ConnLog, Vec<Span>) {
    let tenant = tenant(conn);
    let mut rec = SpanRecorder::new();
    let mut log = ConnLog::default();
    let mut admitted = 0u64;
    for round in 0..rounds {
        for (i, op) in schedule.round(round).into_iter().enumerate() {
            // Request IDs are unique across connections and rounds.
            let request = ((conn as u64) << 48) | (round << 8) | i as u64;
            log.attempted += 1;
            // The root span names the request's kind: an analyst query, the
            // freshness probe of a side ingest, or an ingest.
            let kind = match &op {
                Op::Query { analyst: true, .. } => "query",
                Op::Query { analyst: false, .. } => "probe",
                Op::Ingest { .. } => "ingest",
            };
            let root = rec.enter(kind, request);
            match op {
                Op::Query {
                    sql,
                    expect,
                    analyst,
                } => {
                    let rtt = rec.enter("client.rtt", request);
                    let wire = client.query(&tenant, &sql);
                    rec.exit(rtt);
                    let live = rec.time("server.query", request, || {
                        shadow.server.query(&tenant, &sql)
                    });
                    let seed = shadow.seed(&tenant, admitted);
                    admitted += 1;
                    let pipe = rec.enter("pipeline", request);
                    let decomposed = shadow.pipeline.query(&mut rec, request, &sql, seed);
                    rec.exit(pipe);
                    if analyst {
                        log.release_ms.push(rec.span(rtt).duration() as f64 / 1e6);
                    }
                    match wire.map_err(|e| e.to_string()).and_then(|r| released(&r)) {
                        Ok((flat, eps)) => {
                            let checked = check_release(&flat, &expect).and_then(|()| {
                                let live =
                                    flatten_output(&live.map_err(|e| format!("shadow: {e}"))?);
                                let decomposed = decomposed.map_err(|e| format!("layers: {e}"))?;
                                if !bits_equal(&flat, &live) || !bits_equal(&flat, &decomposed) {
                                    return Err(format!(
                                        "wire {flat:?}, in-process {live:?}, layers {decomposed:?}"
                                    ));
                                }
                                Ok(())
                            });
                            if let Err(e) = checked {
                                log.fail(format!("{sql}: {e}"));
                            }
                            log.released.push((flat, eps));
                        }
                        Err(e) => log.fail(format!("{sql}: {e}")),
                    }
                }
                Op::Ingest { table, spec, rows } => {
                    let rtt = rec.enter("client.rtt", request);
                    let wire = client.ingest(table, &spec);
                    rec.exit(rtt);
                    log.ingests += 1;
                    let n = rows.len();
                    let live = rec.time("server.ingest", request, || {
                        shadow.server.ingest(table, rows.clone())
                    });
                    let pipe = rec.enter("pipeline", request);
                    let swept = shadow.pipeline.ingest(&mut rec, request, table, rows);
                    rec.exit(pipe);
                    let checked = wire
                        .map_err(|e| e.to_string())
                        .and_then(|r| check_ingest(&r, n, log.ingests))
                        .and_then(|()| {
                            let live = live.map_err(|e| format!("shadow: {e}"))?;
                            let swept = swept.map_err(|e| format!("layers: {e}"))?;
                            if live.version != log.ingests || live.swept != swept {
                                return Err(format!("in-process {live:?}, layers swept {swept}"));
                            }
                            Ok(())
                        });
                    if let Err(e) = checked {
                        log.fail(format!("INGEST {table}: {e}"));
                    }
                }
            }
            rec.exit(root);
        }
        log.rounds += 1;
    }
    (log, rec.into_spans())
}

/// Runs every connection's traced loop for `rounds` rounds.
pub fn drive_all_traced(
    served: &mut Served,
    shadow: &Shadow,
    rounds: u64,
) -> (Vec<ConnLog>, Vec<Vec<Span>>) {
    run::per_connection(served, |conn, client, schedule| {
        drive_traced(client, conn, schedule, rounds, shadow)
    })
    .into_iter()
    .unzip()
}

/// Per-request span totals by name over analyst queries and ingests, plus
/// the derived server figures.
#[derive(Default)]
pub struct LayerTimes {
    /// Name → per-request total nanoseconds (requests where it occurred).
    pub by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Per query request: `server.query` minus the layer spans.
    pub server_self: Vec<f64>,
    /// Per query request: client round trip minus `server.query`.
    pub wire: Vec<f64>,
    /// Per query request: share of `server.query` the layer spans cover.
    pub coverage: Vec<f64>,
}

/// Folds each recorder's spans into per-request layer times.
pub fn layer_times(recorders: &[Vec<Span>]) -> LayerTimes {
    let mut out = LayerTimes::default();
    for spans in recorders {
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        let kids_of = |i: usize| children.get(&i).map_or(&[][..], Vec::as_slice);
        // Probes belong to the side ingest stream, not the workload's own
        // queries, so the query layers are taken over analyst queries.
        let roots = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name != "probe");
        for (root, _) in roots {
            let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
            let mut layers = None;
            for &top in kids_of(root) {
                let span = &spans[top];
                *totals.entry(span.name).or_default() += span.duration();
                if span.name == "pipeline" {
                    let kids: Vec<&Span> = kids_of(top).iter().map(|&k| &spans[k]).collect();
                    for k in &kids {
                        *totals.entry(k.name).or_default() += k.duration();
                    }
                    layers = Some(span.duration() - self_time(span, &kids));
                }
            }
            if let (Some(&query), Some(&rtt), Some(layers)) =
                (totals.get("server.query"), totals.get("client.rtt"), layers)
            {
                out.server_self.push(query as f64 - layers as f64);
                out.wire.push(rtt as f64 - query as f64);
                out.coverage.push(layers as f64 / query.max(1) as f64);
            }
            for (name, total) in totals {
                out.by_name.entry(name).or_default().push(total as f64);
            }
        }
    }
    out
}

impl LayerTimes {
    /// Median per-request time of span `name`, in nanoseconds (0 when the
    /// layer never ran in this workload).
    pub fn median_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .and_then(|v| median(v))
            .unwrap_or(0.0)
    }
}
