//! One request driven through the public layer functions, each call in its
//! own span.
//!
//! This is the traced run's view from outside the server: the same parse,
//! plan, fingerprint, cache lookup, join evaluation, sequence solve, noise
//! draw and response encoding that `DpServer::query` performs, called one
//! public function at a time over a private catalog chain and cache that
//! see exactly the server's request stream. Its releases must equal the
//! wire's bit for bit, which is what makes the per-layer times the server's.

use crate::spans::SpanRecorder;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rmdp_core::{
    CachedSequences, EfficientSequences, EntryTag, FrozenSequences, LpWorkStats, MechanismParams,
    RecursiveMechanism, RefreshTier, Release, SensitiveKRelation, SequenceCache, SimplexOptions,
};
use rmdp_krelation::fingerprint::FingerprintHasher;
use rmdp_krelation::{Tuple, Value};
use rmdp_noise::GroupBudgetPolicy;
use rmdp_server::protocol::encode_response;
use rmdp_sql::exec::{execute, weigh};
use rmdp_sql::{
    plan_key, plan_query, AnyPlan, CatalogSnapshot, GroupRelease, GroupedRelease, QueryOutput,
    QueryPlan, SqlError,
};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Work counters of the layers below the server, summed over a run.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Cache lookups that found a frozen table.
    pub cache_hits: u64,
    /// Cache lookups that found nothing.
    pub cache_misses: u64,
    /// Rows the executor produced on misses.
    pub output_rows: u64,
    /// Terms handed to the mechanism on misses.
    pub terms: u64,
    /// Misses served by a warm refresh of a parked entry.
    pub refreshes: u64,
    /// Of those, the ones that took the `WarmChain` tier.
    pub warm_chains: u64,
    /// Entries the stale sweeps removed.
    pub swept: u64,
    /// LP work of cold solves and refreshes.
    pub lp: LpWorkStats,
}

/// The private catalog chain and cache the decomposed requests run over,
/// shared by every connection of a workload (as the server's are).
pub struct Pipeline {
    snapshot: RwLock<Arc<CatalogSnapshot>>,
    cache: SequenceCache,
    policy: GroupBudgetPolicy,
    counts: Mutex<LayerCounts>,
}

/// What the decomposed request released: `(true, noisy)` per release.
pub type Flat = Vec<(f64, f64)>;

impl Pipeline {
    /// A pipeline over `snapshot` with a cache of the server's capacity.
    pub fn new(snapshot: Arc<CatalogSnapshot>, capacity: usize, policy: GroupBudgetPolicy) -> Self {
        Pipeline {
            snapshot: RwLock::new(snapshot),
            cache: SequenceCache::new(capacity),
            policy,
            counts: Mutex::new(LayerCounts::default()),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> LayerCounts {
        self.counts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Zeroes the counters (after a warm-up).
    pub fn reset_counts(&self) {
        self.count(|c| *c = LayerCounts::default());
    }

    fn count(&self, f: impl FnOnce(&mut LayerCounts)) {
        f(&mut self.counts.lock().unwrap_or_else(PoisonError::into_inner));
    }

    fn current(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Applies an ingest: `CatalogSnapshot::with_delta`, then the stale
    /// sweep of the cache. Returns the number of swept entries.
    pub fn ingest(
        &self,
        rec: &mut SpanRecorder,
        request: u64,
        table: &str,
        rows: Vec<Tuple>,
    ) -> Result<u64, SqlError> {
        let mut current = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let next = rec.time("sql.with_delta", request, || {
            current.with_delta(table, rows)
        })?;
        let stamps = next.database().current_epoch_stamps();
        let swept = rec.time("core.purge_stale", request, || {
            self.cache.purge_stale(&stamps)
        }) as u64;
        *current = next;
        self.count(|c| c.swept += swept);
        Ok(swept)
    }

    /// Runs `sql` with noise seed `seed` (the seed the server derives for
    /// the same tenant and admission index), encodes the response as the
    /// server would, and returns the releases.
    pub fn query(
        &self,
        rec: &mut SpanRecorder,
        request: u64,
        sql: &str,
        seed: u64,
    ) -> Result<Flat, SqlError> {
        // EXPLAIN ANALYZE traces the release it performs; the release is
        // the plain query's. The header line's trace is not rebuilt here.
        let body = sql.strip_prefix("EXPLAIN ANALYZE ").unwrap_or(sql);
        let snapshot = self.current();
        let db = snapshot.database();
        let params = snapshot.params();
        let parsed = rec.time("sql.parse", request, || rmdp_sql::parse(body))?;
        let plan = rec.time("sql.plan", request, || plan_query(db, &parsed))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let output = match plan {
            AnyPlan::Scalar(plan) => {
                QueryOutput::Scalar(self.release(rec, request, db, &plan, params, &mut rng)?)
            }
            AnyPlan::Grouped(grouped) => {
                let k = grouped.num_groups();
                let fraction = self.policy.per_group_fraction(k);
                let group_params = MechanismParams {
                    epsilon1: params.epsilon1 * fraction,
                    epsilon2: params.epsilon2 * fraction,
                    ..params
                };
                let report_seed = rng.next_u64();
                let mut groups = Vec::with_capacity(k);
                for key in &grouped.domain {
                    let plan = grouped.group_plan(key);
                    let mut rng = StdRng::seed_from_u64(group_seed(report_seed, key));
                    let release = self.release(rec, request, db, &plan, group_params, &mut rng)?;
                    groups.push(GroupRelease {
                        key: key.clone(),
                        release,
                    });
                }
                let per_release = rmdp_noise::PrivacyBudget {
                    epsilon: params.total_epsilon(),
                    delta: 0.0,
                };
                QueryOutput::Grouped(GroupedRelease {
                    key_column: grouped.key_display.clone(),
                    groups,
                    per_group_epsilon: group_params.total_epsilon(),
                    epsilon_spent: self.policy.report_cost(per_release, k).epsilon,
                    policy: self.policy,
                })
            }
        };
        let flat = flatten_output(&output);
        let result = Ok(output);
        let lines = rec.time("server.encode", request, || encode_response(&result));
        std::hint::black_box(lines);
        Ok(flat)
    }

    /// One release of one plan through the cache, mirroring the server's
    /// cached release path.
    fn release(
        &self,
        rec: &mut SpanRecorder,
        request: u64,
        db: &rmdp_krelation::AnnotatedDatabase,
        plan: &QueryPlan,
        params: MechanismParams,
        rng: &mut StdRng,
    ) -> Result<Release, SqlError> {
        let key = rec.time("sql.fingerprint", request, || plan_key(db, plan, &params));
        let frozen = match rec.time("core.cache_get", request, || self.cache.get(key.key)) {
            Some(frozen) => {
                self.count(|c| c.cache_hits += 1);
                frozen
            }
            None => {
                let query = rec.time("krelation.execute", request, || {
                    let output = execute(db, plan)?;
                    for (tuple, _) in output.iter() {
                        weigh(plan, tuple)?;
                    }
                    let participants = db.universe().ids().collect();
                    let rows = output.len() as u64;
                    let query = SensitiveKRelation::new(&output, participants, |t| {
                        weigh(plan, t).expect("weights validated above")
                    });
                    Ok::<_, SqlError>((query, rows))
                });
                let (query, rows) = query?;
                let terms = query.terms().len() as u64;
                let (frozen, seed, lp, tier) = match self.cache.take_refresh_base(key.lineage) {
                    Some((base, seed)) => rec.time("core.refresh", request, || {
                        base.refresh(&seed, query, SimplexOptions::default(), params.parallelism)
                            .map(|(f, s, stats)| (f, s, stats.lp, Some(stats.tier)))
                    })?,
                    None => rec.time("core.sequences", request, || {
                        FrozenSequences::compute_with_seed(
                            EfficientSequences::new(query),
                            params.parallelism,
                        )
                        .map(|(f, s, lp)| (f, s, lp, None))
                    })?,
                };
                self.count(|c| {
                    c.cache_misses += 1;
                    c.output_rows += rows;
                    c.terms += terms;
                    c.lp.absorb(&lp);
                    if let Some(tier) = tier {
                        c.refreshes += 1;
                        c.warm_chains += u64::from(tier == RefreshTier::WarmChain);
                    }
                });
                let frozen = Arc::new(frozen);
                self.cache.insert_tagged(
                    key.key,
                    Arc::clone(&frozen),
                    EntryTag {
                        stamps: key.stamps.clone(),
                        lineage: key.lineage,
                    },
                    Some(Arc::new(seed)),
                );
                frozen
            }
        };
        let release = rec.time("noise.release", request, || {
            RecursiveMechanism::new(CachedSequences(frozen), params)?.release(rng)
        })?;
        Ok(release)
    }
}

/// A group's noise seed: the stable hash of the report seed and the
/// type-tagged key value, as the SQL frontend derives it.
fn group_seed(report_seed: u64, key: &Value) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_u64(report_seed);
    match key {
        Value::Int(v) => {
            hasher.write_u64(1);
            hasher.write_u64(*v as u64);
        }
        Value::Str(s) => {
            hasher.write_u64(2);
            hasher.write_bytes(s.as_bytes());
        }
        Value::Bool(b) => {
            hasher.write_u64(3);
            hasher.write_u64(u64::from(*b));
        }
    }
    hasher.finish().0 as u64
}

/// `(true, noisy)` of every release in an output, in release order.
pub fn flatten_output(output: &QueryOutput) -> Flat {
    match output {
        QueryOutput::Scalar(r) => vec![(r.true_answer, r.noisy_answer)],
        QueryOutput::Grouped(g) => g
            .groups
            .iter()
            .map(|g| (g.release.true_answer, g.release.noisy_answer))
            .collect(),
        QueryOutput::Explained(t) => flatten_output(&t.output),
    }
}
