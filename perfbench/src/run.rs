//! Serving a workload on loopback and driving its closed client loops.
//!
//! Every loop is closed: one request, one reply per connection, and each
//! client waits for its answer before sending the next op. Every reply is
//! checked against the workload's independent reference as it arrives; the
//! releases are checked against serial replay and the ε ledgers against the
//! admitted releases once the loop ends.

use crate::pipeline::{flatten_output, Flat};
use crate::workloads::{self, Expected, Op, Schedule, Workload};
use rmdp_core::SequenceCache;
use rmdp_noise::PrivacyBudget;
use rmdp_observe::{Clock, MonotonicClock};
use rmdp_server::{
    derive_query_seed, derive_tenant_seed, serve, DpClient, DpServer, ServerConfig, ServerHandle,
    WireResponse,
};
use rmdp_sql::{QueryOutput, SqlError, SqlSession};
use std::sync::Arc;

/// One admitted release as the wire delivered it: `(true, noisy)` per
/// release, and the ε it reported.
pub type Released = (Flat, f64);

/// The tenant that runs the set-up warm-up queries.
pub const WARMUP_TENANT: &str = "warmup";

/// Every tenant's lifetime ε: far beyond what any run can spend.
const GRANT: f64 = 1e12;

/// The tenant of client connection `conn` (one tenant per connection).
pub fn tenant(conn: usize) -> String {
    format!("analyst{conn}")
}

/// The server configuration of a workload: defaults plus its seed.
pub fn config(workload: &Workload) -> ServerConfig {
    ServerConfig {
        seed: workload.server_seed,
        ..ServerConfig::default()
    }
}

/// Registers the warm-up tenant and one tenant per connection.
pub fn register_tenants(server: &DpServer, connections: usize) {
    let grant = PrivacyBudget {
        epsilon: GRANT,
        delta: 0.0,
    };
    server.register_tenant(WARMUP_TENANT, grant);
    for conn in 0..connections {
        server.register_tenant(&tenant(conn), grant);
    }
}

/// What one connection's loop observed.
#[derive(Default)]
pub struct ConnLog {
    /// Round trip of every analyst query, in ms.
    pub release_ms: Vec<f64>,
    /// Round trip of every `INGEST`, in ms.
    pub ingest_ms: Vec<f64>,
    /// From sending an `INGEST` to receiving the affected plan's release, in ms.
    pub ingest_to_release_ms: Vec<f64>,
    /// Every release in admission order, with the ε it reported.
    pub released: Vec<Released>,
    /// Operations sent.
    pub attempted: u64,
    /// Operations refused, failed, or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Rounds completed.
    pub rounds: u64,
    /// Ingests applied (this connection is its tables' only writer).
    pub ingests: u64,
    /// Peak RSS sampled when the workload's memory round completed.
    pub peak_rss_mb: Option<f64>,
}

impl ConnLog {
    /// Books a failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Folds another connection's log into this one.
    pub fn absorb(&mut self, other: ConnLog) {
        self.release_ms.extend(other.release_ms);
        self.ingest_ms.extend(other.ingest_ms);
        self.ingest_to_release_ms.extend(other.ingest_to_release_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.rounds += other.rounds;
        self.ingests += other.ingests;
    }
}

/// How far a wire `true=` may sit from its exact reference, relative to
/// the reference. The server's un-noised answer is `H_{|P|}`, the optimum
/// of an LP, so it carries the solver's round-off (e.g. `348.99999999999994`
/// for a count of 349); any wrong join or filter is off by at least 1.
const TRUE_TOLERANCE: f64 = 1e-9;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TRUE_TOLERANCE * want.abs().max(1.0)
}

/// The releases a query reply carries, with the ε it reported, or the
/// refusal it carries instead.
pub fn released(response: &WireResponse) -> Result<Released, String> {
    match response {
        WireResponse::Error { code, message } => Err(format!("ERR {code} {message}")),
        WireResponse::Grouped {
            groups, epsilon, ..
        } => Ok((
            groups
                .iter()
                .map(|(_, r)| (r.true_answer, r.noisy_answer))
                .collect(),
            *epsilon,
        )),
        other => other
            .scalar()
            .map(|r| (vec![(r.true_answer, r.noisy_answer)], r.epsilon))
            .ok_or_else(|| format!("unexpected reply {other:?}")),
    }
}

/// Checks a release against its reference: the shape, every `true=` and
/// a finite noisy answer.
pub fn check_release(flat: &Flat, expect: &Expected) -> Result<(), String> {
    let want = match expect {
        Expected::Scalar(v) => std::slice::from_ref(v),
        Expected::Grouped(vs) => vs.as_slice(),
    };
    let got: Vec<f64> = flat.iter().map(|(t, _)| *t).collect();
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| !close(*g, *w)) {
        return Err(format!("true={got:?}, reference {want:?}"));
    }
    if flat.iter().any(|(_, noisy)| !noisy.is_finite()) {
        return Err("non-finite release".to_owned());
    }
    Ok(())
}

/// Checks an `INGEST` receipt: the rows applied and the version produced.
pub fn check_ingest(response: &WireResponse, rows: usize, version: u64) -> Result<(), String> {
    match response {
        WireResponse::Ingest {
            version: v,
            rows: r,
            ..
        } if *v == version && *r == rows as u64 => Ok(()),
        other => Err(format!(
            "ingest receipt {other:?}, expected version {version} with {rows} rows"
        )),
    }
}

/// A workload served on loopback, with one connected client per schedule.
pub struct Served {
    /// The server behind the listener.
    pub server: Arc<DpServer>,
    /// The listener and its connection threads.
    pub handle: ServerHandle,
    /// One client per connection.
    pub clients: Vec<DpClient>,
    /// The workload (schedules are taken out when the loops start).
    pub workload: Workload,
    /// The warm-up tenant's loop log.
    pub warmup: ConnLog,
}

impl Served {
    /// Stops the listener and joins its threads.
    pub fn stop(mut self) {
        self.clients.clear();
        self.handle.stop();
    }
}

/// Builds workload `name` at `seed`, serves it on an ephemeral loopback
/// port, connects its clients and runs the warm-up queries.
pub fn set_up(name: &str, seed: u64) -> Result<Served, String> {
    let workload =
        workloads::build(name, seed).ok_or_else(|| format!("unknown workload {name}"))?;
    let server = Arc::new(DpServer::new(
        Arc::clone(&workload.snapshot),
        config(&workload),
    ));
    register_tenants(&server, workload.schedules.len());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let clients = (0..workload.schedules.len())
        .map(|_| DpClient::connect(handle.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut warm = DpClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut warmup = ConnLog::default();
    let ops = workload.warmup.clone();
    run_ops(
        &mut warm,
        WARMUP_TENANT,
        ops,
        &mut warmup,
        &MonotonicClock::new(),
    );
    Ok(Served {
        server,
        handle,
        clients,
        workload,
        warmup,
    })
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After the round in which `nanos` have passed, but not before
    /// `min_rounds` rounds.
    Deadline {
        /// The measurement window.
        nanos: u64,
        /// Rounds to complete regardless, so tails have enough samples.
        min_rounds: u64,
    },
    /// After exactly this many rounds.
    Rounds(u64),
}

/// Sends `ops` in order on `client`, timing and checking each reply.
fn run_ops(
    client: &mut DpClient,
    tenant: &str,
    ops: Vec<Op>,
    log: &mut ConnLog,
    clock: &MonotonicClock,
) {
    let mut ingest_sent: Option<u64> = None;
    for op in ops {
        log.attempted += 1;
        match op {
            Op::Query {
                sql,
                expect,
                analyst,
            } => {
                let sent = clock.now_nanos();
                let response = client.query(tenant, &sql);
                let done = clock.now_nanos();
                if analyst {
                    log.release_ms.push((done - sent) as f64 / 1e6);
                }
                if let Some(start) = ingest_sent.take() {
                    log.ingest_to_release_ms.push((done - start) as f64 / 1e6);
                }
                match response
                    .map_err(|e| e.to_string())
                    .and_then(|r| released(&r))
                {
                    Ok((flat, eps)) => {
                        // A wrong answer was still released and paid for:
                        // it stays in the log the replay and budget check.
                        if let Err(e) = check_release(&flat, &expect) {
                            log.fail(format!("{sql}: {e}"));
                        }
                        log.released.push((flat, eps));
                    }
                    Err(e) => log.fail(format!("{sql}: {e}")),
                }
            }
            Op::Ingest { table, spec, rows } => {
                let sent = clock.now_nanos();
                let response = client.ingest(table, &spec);
                let done = clock.now_nanos();
                log.ingest_ms.push((done - sent) as f64 / 1e6);
                ingest_sent = Some(sent);
                log.ingests += 1;
                let checked = response
                    .map_err(|e| e.to_string())
                    .and_then(|r| check_ingest(&r, rows.len(), log.ingests));
                if let Err(e) = checked {
                    log.fail(format!("INGEST {table}: {e}"));
                }
            }
        }
    }
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one connection's closed loop, sampling the peak RSS once
/// `memory_rounds` rounds are done (if given).
pub fn drive(
    client: &mut DpClient,
    tenant: &str,
    schedule: &mut dyn Schedule,
    until: Until,
    memory_rounds: Option<u64>,
) -> (ConnLog, u64) {
    let clock = MonotonicClock::new();
    let started = clock.now_nanos();
    let mut log = ConnLog::default();
    loop {
        let done = match until {
            Until::Deadline { nanos, min_rounds } => {
                log.rounds >= min_rounds && clock.now_nanos() - started >= nanos
            }
            Until::Rounds(n) => log.rounds >= n,
        };
        if done {
            break;
        }
        let ops = schedule.round(log.rounds);
        run_ops(client, tenant, ops, &mut log, &clock);
        log.rounds += 1;
        if Some(log.rounds) == memory_rounds {
            log.peak_rss_mb = Some(peak_rss_mb());
        }
    }
    let elapsed = clock.now_nanos() - started;
    (log, elapsed)
}

/// Runs `f(conn, client, schedule)` for every connection on its own
/// thread, all starting together, and returns the results in connection
/// order. The schedules are taken out of the workload.
pub fn per_connection<T: Send>(
    served: &mut Served,
    f: impl Fn(usize, &mut DpClient, &mut dyn Schedule) -> T + Sync,
) -> Vec<T> {
    let schedules = std::mem::take(&mut served.workload.schedules);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(schedules)
            .enumerate()
            .map(|(conn, (client, mut schedule))| {
                s.spawn(move || f(conn, client, schedule.as_mut()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Runs every connection's closed loop. Returns the per-connection logs
/// and the longest loop's wall time.
pub fn drive_all(served: &mut Served, until: Until) -> (Vec<ConnLog>, u64) {
    let memory_rounds = served.workload.memory_rounds;
    let results = per_connection(served, |conn, client, schedule| {
        let memory = (conn == 0).then_some(memory_rounds);
        drive(client, &tenant(conn), schedule, until, memory)
    });
    let wall = results.iter().map(|(_, e)| *e).max().unwrap_or(1);
    (results.into_iter().map(|(l, _)| l).collect(), wall)
}

/// Replays `tenant`'s admitted log serially and compares every release bit
/// for bit with what the wire delivered.
///
/// `cache_free` replays through `DpServer::replay`, which re-solves every
/// query cold. Otherwise the same replay recipe (the logged snapshot
/// version, the seed of the tenant and admission index) runs serially over
/// a private cache that starts empty, so each distinct plan is solved cold
/// once: the only affordable form for a workload of many thousand hits.
pub fn verify_replay(
    server: &DpServer,
    tenant: &str,
    released: &[Released],
    cache_free: bool,
) -> Result<(), String> {
    let outputs: Vec<Result<QueryOutput, SqlError>> = if cache_free {
        server.replay(tenant).ok_or("replay refused")?
    } else {
        let log = server.query_log(tenant).ok_or("unknown tenant")?;
        let config = server.config();
        let tenant_seed = derive_tenant_seed(config.seed, tenant);
        let cache = Arc::new(SequenceCache::new(config.cache_capacity));
        let mut outputs = Vec::with_capacity(log.len());
        for q in &log {
            let snapshot = server
                .snapshot_at(q.snapshot_version)
                .ok_or("logged snapshot missing")?;
            let mut session = SqlSession::over(snapshot, derive_query_seed(tenant_seed, q.index))
                .with_group_policy(config.group_policy)
                .with_sequence_cache(Arc::clone(&cache));
            outputs.push(session.query(&q.sql));
        }
        outputs
    };
    if outputs.len() != released.len() {
        return Err(format!(
            "{tenant}: replay has {} releases, the wire {}",
            outputs.len(),
            released.len()
        ));
    }
    for (i, (output, (wire, _))) in outputs.iter().zip(released).enumerate() {
        let replayed = flatten_output(output.as_ref().map_err(|e| format!("{tenant} #{i}: {e}"))?);
        let same = replayed.len() == wire.len()
            && replayed
                .iter()
                .zip(wire)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
        if !same {
            return Err(format!(
                "{tenant} #{i}: replay {replayed:?} != wire {wire:?}"
            ));
        }
    }
    Ok(())
}

/// Checks over the wire that `tenant` has spent exactly the ε its admitted
/// releases reported.
pub fn verify_budget(
    client: &mut DpClient,
    tenant: &str,
    released: &[Released],
) -> Result<(), String> {
    let expected: f64 = released.iter().map(|(_, eps)| eps).sum();
    match client.budget(tenant).map_err(|e| e.to_string())? {
        WireResponse::Budget { spent, .. } if spent == expected => Ok(()),
        other => Err(format!(
            "{tenant}: budget {other:?}, admitted releases spent {expected}"
        )),
    }
}

/// Every post-run check of one served workload: replay and budget for the
/// warm-up tenant and each connection's tenant. Failures are booked into
/// `log`, one per failed check.
pub fn verify(served: &mut Served, conns: &[ConnLog], cache_free: bool, log: &mut ConnLog) {
    let mut checks: Vec<(String, &[Released], bool)> =
        vec![(WARMUP_TENANT.to_owned(), &served.warmup.released, true)];
    for (conn, c) in conns.iter().enumerate() {
        checks.push((tenant(conn), &c.released, cache_free));
    }
    for (tenant, released, cache_free) in checks {
        log.attempted += 2;
        if let Err(e) = verify_replay(&served.server, &tenant, released, cache_free) {
            log.fail(format!("replay: {e}"));
        }
        if let Err(e) = verify_budget(&mut served.clients[0], &tenant, released) {
            log.fail(format!("budget: {e}"));
        }
    }
}
