//! The stateless release functions behind every `SqlSession` release.
//!
//! These functions are the execution tail of every release path: they take
//! *explicit* shared state (a [`ReleaseEnv`]) and *explicit* per-release
//! state (the noise RNG), own no session, and debit no budget — pricing,
//! admission and accounting stay with the caller. That split is what lets
//! the one [`SqlSession`](crate::SqlSession) release core run the *same*
//! code inline on the session RNG (`query`, `query_traced`), on pool
//! workers (`query_batch`), and per group inside a grouped report's
//! fan-out.

use crate::error::SqlError;
use crate::exec::{execute, weigh};
use crate::fingerprint::{plan_key, PlanKey};
use crate::plan::{AnyPlan, GroupedQueryPlan, QueryPlan};
use crate::session::{GroupRelease, GroupedRelease, QueryOutput};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rmdp_core::{
    CachedSequences, EfficientSequences, EntryTag, FrozenSequences, LpWorkStats, MechanismParams,
    Parallelism, RecursiveMechanism, RefreshTier, Release, SensitiveKRelation, SequenceCache,
    SimplexOptions,
};
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::fingerprint::{Fingerprint, FingerprintHasher};
use rmdp_krelation::tuple::Value;
use rmdp_noise::{GroupBudgetPolicy, PrivacyBudget};
use rmdp_observe::{CacheOutcome, NoiseScales, NoopRecorder, Recorder, Stage};
use rmdp_runtime::par_try_map_indexed;
use std::sync::Arc;

/// The read-only state every release reads: the database, the per-release
/// parameters (whose `parallelism` is the worker budget of this call), the
/// grouped-report policy and the optional shared sequence cache.
#[derive(Clone, Copy)]
pub(crate) struct ReleaseEnv<'a> {
    pub(crate) db: &'a AnnotatedDatabase,
    pub(crate) params: MechanismParams,
    pub(crate) policy: GroupBudgetPolicy,
    pub(crate) cache: Option<&'a SequenceCache>,
}

impl ReleaseEnv<'_> {
    /// This environment for one of `items` concurrent releases: the caller
    /// that fans out owns the concurrency, so the worker budget is split
    /// evenly across the items (serial below two workers each) and thread
    /// counts do not multiply; a fan-out smaller than the budget hands the
    /// spare workers to each release's own precompute.
    pub(crate) fn per_item(self, items: usize) -> Self {
        let per_item = self.params.parallelism.workers() / items.max(1);
        ReleaseEnv {
            params: self.params.with_parallelism(if per_item > 1 {
                Parallelism::Threads(per_item)
            } else {
                Parallelism::Serial
            }),
            ..self
        }
    }
}

/// What a release produced beyond its output: the facts a session folds
/// into its LP totals and metrics, and a traced query into its
/// [`ReleaseTrace`](rmdp_observe::ReleaseTrace). Folding is in input order,
/// so the totals are identical for every `Parallelism`.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReleaseFacts {
    /// Mechanism releases performed (1 per scalar, `k` per grouped report).
    pub(crate) releases: u64,
    /// Cache probes that found a frozen table (one probe per release).
    pub(crate) cache_hits: u64,
    /// Cache probes that found nothing.
    pub(crate) cache_misses: u64,
    /// Misses served by re-deriving a parked pre-delta entry, by tier:
    /// `Unchanged`, `WarmChain`, `ColdRebuild`.
    pub(crate) refreshes: [u64; 3],
    /// LP work run by these releases (zero on hits).
    pub(crate) lp: LpWorkStats,
    /// The Laplace scales of every release, in release order.
    pub(crate) noise: Vec<NoiseScales>,
    /// The canonical plan fingerprint, when the facts describe exactly one
    /// cached scalar query.
    pub(crate) fingerprint: Option<Fingerprint>,
}

impl ReleaseFacts {
    /// Appends `other`, which happened after everything folded so far.
    pub(crate) fn absorb(&mut self, other: ReleaseFacts) {
        self.fingerprint = if self.releases == 0 {
            other.fingerprint
        } else {
            None
        };
        self.releases += other.releases;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        for (mine, theirs) in self.refreshes.iter_mut().zip(other.refreshes) {
            *mine += theirs;
        }
        self.lp.absorb(&other.lp);
        self.noise.extend(other.noise);
    }

    /// The overall cache outcome: a hit only when every probe hit.
    pub(crate) fn cache_outcome(&self, cached: bool) -> CacheOutcome {
        if !cached {
            CacheOutcome::Uncached
        } else if self.cache_misses == 0 {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        }
    }
}

/// The noise seed of one group: a stable hash of the report-level seed and
/// the **key value** (type-tagged, so `Int(1)` and `Str("1")` differ).
/// Binding the seed to the value rather than the domain position makes
/// per-key releases invariant under re-declaring the domain in a different
/// order — and keeps the fan-out bit-identical for every `Parallelism`,
/// since every group's stream is fixed before any worker starts.
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

/// Releases one planned query — a scalar aggregate or a whole grouped
/// report — drawing its noise from `rng`. `price` is the query's ε price
/// (from [`CatalogSnapshot::price`](crate::CatalogSnapshot::price)); a
/// grouped report records it as what it spent.
pub(crate) fn release_any<T: Recorder>(
    env: ReleaseEnv<'_>,
    plan: &AnyPlan,
    price: PrivacyBudget,
    rng: &mut StdRng,
    recorder: &mut T,
) -> Result<(QueryOutput, ReleaseFacts), SqlError> {
    match plan {
        AnyPlan::Scalar(plan) => {
            recorder.enter(Stage::Fingerprint);
            let key = env.cache.map(|_| plan_key(env.db, plan, &env.params));
            recorder.exit(Stage::Fingerprint);
            let (release, mut facts) = release_plan(env, plan, key.as_ref(), rng, recorder)?;
            facts.fingerprint = key.map(|k| k.key);
            Ok((QueryOutput::Scalar(release), facts))
        }
        AnyPlan::Grouped(grouped) => release_grouped_plan(env, grouped, price, rng, recorder)
            .map(|(report, facts)| (QueryOutput::Grouped(report), facts)),
    }
}

/// Executes a validated plan and releases its aggregate: the tail of every
/// scalar release and of every group of a grouped report.
///
/// With a cache (`key` is then the plan's cache key), a fingerprint hit
/// serves the frozen `H`/`G` table directly — skipping plan execution *and*
/// every sequence LP — and a miss computes the full table once (all
/// `2(|P|+1)` entries, warm-started chains, up to `params.parallelism`
/// workers), publishes it, and releases from the freshly frozen copy.
/// Noise is drawn from `rng` identically on every path, so hit, miss and
/// uncached releases are bit-identical under the same seed.
fn release_plan<T: Recorder>(
    env: ReleaseEnv<'_>,
    plan: &QueryPlan,
    key: Option<&PlanKey>,
    rng: &mut StdRng,
    recorder: &mut T,
) -> Result<(Release, ReleaseFacts), SqlError> {
    let params = env.params;
    let mut facts = ReleaseFacts {
        releases: 1,
        ..ReleaseFacts::default()
    };
    let release = match env.cache.zip(key) {
        Some((cache, key)) => {
            recorder.enter(Stage::CacheLookup);
            let cached = cache.get(key.key);
            recorder.exit(Stage::CacheLookup);
            let frozen = match cached {
                Some(hit) => {
                    facts.cache_hits = 1;
                    hit
                }
                None => {
                    facts.cache_misses = 1;
                    recorder.enter(Stage::Plan);
                    let query = build_sensitive_query(env.db, plan);
                    recorder.exit(Stage::Plan);
                    recorder.enter(Stage::SequenceSolve);
                    // A parked pre-delta entry of the same lineage (swept by
                    // `purge_stale` on snapshot swap) turns this miss into a
                    // warm refresh; either path is bit-identical to a cold
                    // compute on the post-delta data, so the choice is purely
                    // a matter of LP work.
                    let computed =
                        query.and_then(|query| match cache.take_refresh_base(key.lineage) {
                            Some((base, seed)) => base
                                .refresh(
                                    &seed,
                                    query,
                                    SimplexOptions::default(),
                                    params.parallelism,
                                )
                                .map(|(frozen, next_seed, stats)| {
                                    (frozen, next_seed, stats.lp, Some(stats.tier))
                                })
                                .map_err(SqlError::from),
                            None => FrozenSequences::compute_with_seed(
                                EfficientSequences::new(query),
                                params.parallelism,
                            )
                            .map(|(frozen, seed, stats)| (frozen, seed, stats, None))
                            .map_err(SqlError::from),
                        });
                    recorder.exit(Stage::SequenceSolve);
                    let (frozen, seed, stats, refresh) = computed?;
                    facts.lp = stats;
                    if let Some(tier) = refresh {
                        facts.refreshes[match tier {
                            RefreshTier::Unchanged => 0,
                            RefreshTier::WarmChain => 1,
                            RefreshTier::ColdRebuild => 2,
                        }] = 1;
                    }
                    let frozen = Arc::new(frozen);
                    cache.insert_tagged(
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
            RecursiveMechanism::new(CachedSequences(frozen), params)?
                .release_recorded(rng, recorder)?
        }
        None => {
            recorder.enter(Stage::Plan);
            let query = build_sensitive_query(env.db, plan);
            recorder.exit(Stage::Plan);
            // The constructor precomputes the sequence tables when the
            // params are parallel, so its runtime belongs to the solve span
            // too.
            recorder.enter(Stage::SequenceSolve);
            let mechanism = query.and_then(|query| {
                RecursiveMechanism::new(EfficientSequences::new(query), params)
                    .map_err(SqlError::from)
            });
            recorder.exit(Stage::SequenceSolve);
            let mut mechanism = mechanism?;
            let release = mechanism.release_recorded(rng, recorder)?;
            facts.lp = mechanism.sequences_mut().stats();
            release
        }
    };
    facts.noise.push(NoiseScales {
        log_scale: params.beta / params.epsilon1,
        answer_scale: release.delta_hat / params.epsilon2,
    });
    Ok((release, facts))
}

/// Releases a whole grouped (`GROUP BY`) report.
///
/// `env.params` is the caller's **full per-release** parameter set; the
/// policy's per-group ε split is derived here (β and θ — the
/// sensitivity-relevant fields the cache keys on — stay put, so grouped and
/// scalar traffic share sequence-cache entries). The `k` per-group sequence
/// computations fan out across the worker pool and through the shared
/// [`SequenceCache`] under the session determinism discipline: one seed is
/// drawn from `rng` per report, and each group's noise stream derives from
/// that seed **and the key value**, so releases are bit-identical across
/// `Parallelism` settings, cached/uncached runs, and re-declared domain
/// orders.
///
/// Worker threads record with a [`NoopRecorder`] — attributing stage spans
/// across a concurrent fan-out would double-count wall time — so `recorder`
/// books fingerprinting and the whole fan-out as one
/// [`Stage::SequenceSolve`] span; the per-group facts come back folded in
/// domain order.
fn release_grouped_plan<T: Recorder>(
    env: ReleaseEnv<'_>,
    grouped: &GroupedQueryPlan,
    price: PrivacyBudget,
    rng: &mut StdRng,
    recorder: &mut T,
) -> Result<(GroupedRelease, ReleaseFacts), SqlError> {
    let k = grouped.num_groups();
    // Per-group parameters: only the ε split scales; β and θ — the
    // sensitivity-relevant fields the cache keys on — stay put, so grouped
    // and scalar traffic share sequence-cache entries.
    let fraction = env.policy.per_group_fraction(k);
    let group_params = MechanismParams {
        epsilon1: env.params.epsilon1 * fraction,
        epsilon2: env.params.epsilon2 * fraction,
        ..env.params
    };

    let plans: Vec<QueryPlan> = grouped
        .domain
        .iter()
        .map(|v| grouped.group_plan(v))
        .collect();
    // Fingerprints are computed before the fan-out (cheap and pure), so
    // workers only touch the shared cache.
    recorder.enter(Stage::Fingerprint);
    let keys: Option<Vec<PlanKey>> = env.cache.map(|_| {
        plans
            .iter()
            .map(|p| plan_key(env.db, p, &group_params))
            .collect()
    });
    recorder.exit(Stage::Fingerprint);
    // lint:allow(rng-confinement): sanctioned seed-schedule derivation — the per-report root comes from the session's logged seed stream
    let report_seed = rng.next_u64();
    let seeds: Vec<u64> = grouped
        .domain
        .iter()
        .map(|v| group_seed(report_seed, v))
        .collect();

    let workers = ReleaseEnv {
        params: group_params,
        ..env
    }
    .per_item(k);
    recorder.enter(Stage::SequenceSolve);
    let outcomes = par_try_map_indexed(env.params.parallelism, k, |i| {
        // lint:allow(rng-confinement): sanctioned construction — each group worker's RNG descends from the logged seed schedule, so replay is bit-identical
        let mut rng = StdRng::seed_from_u64(seeds[i]);
        let key = keys.as_ref().map(|ks| &ks[i]);
        release_plan(workers, &plans[i], key, &mut rng, &mut NoopRecorder)
    });
    recorder.exit(Stage::SequenceSolve);

    let mut facts = ReleaseFacts::default();
    let mut groups = Vec::with_capacity(k);
    for (key, (release, group)) in grouped.domain.iter().cloned().zip(outcomes?) {
        facts.absorb(group);
        groups.push(GroupRelease { key, release });
    }
    let report = GroupedRelease {
        key_column: grouped.key_display.clone(),
        groups,
        per_group_epsilon: group_params.total_epsilon(),
        epsilon_spent: price.epsilon,
        policy: env.policy,
    };
    Ok((report, facts))
}

/// Executes the plan and wraps its annotated output as the linear query the
/// mechanism aggregates.
fn build_sensitive_query(
    db: &AnnotatedDatabase,
    plan: &QueryPlan,
) -> Result<SensitiveKRelation, SqlError> {
    let output = execute(db, plan)?;

    // Validate all weights before handing them to the mechanism (whose
    // constructor asserts) so bad aggregates surface as SqlError.
    for (tuple, _) in output.iter() {
        weigh(plan, tuple)?;
    }
    let participants = db.universe().ids().collect();
    Ok(SensitiveKRelation::new(&output, participants, |t| {
        weigh(plan, t).expect("weights validated above")
    }))
}
