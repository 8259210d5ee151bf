//! Property-based tests of delta-scoped invalidation and warm re-release.
//!
//! Two properties the epoch-scoped cache keys must satisfy for *every*
//! random mutation set:
//!
//! * **Exactness of invalidation** — after applying a set of intern-only
//!   deltas and sweeping the cache, a cached query misses **iff** it scans
//!   at least one mutated table. Untouched-table fingerprints are
//!   byte-identical across the snapshot swap, so their entries keep
//!   hitting; mutated-table fingerprints moved, so theirs cannot.
//! * **Bit-identity of warm re-release** — re-releasing the workload over
//!   the post-delta snapshot through the warm-refresh path (parked seeds
//!   from the stale sweep) produces releases bit-identical to a cold
//!   recompute with an empty cache, for the same session seed, under every
//!   [`Parallelism`] setting.

use proptest::prelude::*;
use recursive_mechanism_dp::core::{MechanismParams, SequenceCache};
use recursive_mechanism_dp::krelation::annotate::{AnnotatedDatabase, AnnotationRule};
use recursive_mechanism_dp::krelation::tuple::{Tuple, Value};
use recursive_mechanism_dp::krelation::KRelation;
use recursive_mechanism_dp::runtime::Parallelism;
use recursive_mechanism_dp::sql::{CatalogSnapshot, SqlSession};
use std::collections::BTreeSet;
use std::sync::Arc;

const TABLES: [&str; 3] = ["visits", "residents", "badges"];
const PEOPLE: [&str; 4] = ["ada", "bo", "cy", "dee"];
const PLACES: [&str; 3] = ["museum", "cafe", "park"];

fn row(person: &str, place: &str) -> Tuple {
    Tuple::new([("person", Value::str(person)), ("place", Value::str(place))])
}

/// Three owner-annotated tables loaded through the delta path itself, so
/// every `person:<name>` participant label is interned up front and later
/// mutations drawn from the same pool are intern-only (the universe epoch
/// never moves — only the mutated tables' epochs do).
fn base_snapshot(parallelism: Parallelism) -> Arc<CatalogSnapshot> {
    let mut db = AnnotatedDatabase::new();
    for table in TABLES {
        db.insert_table(table, KRelation::new(["person", "place"]));
        db.declare_annotation_rule(table, AnnotationRule::OwnerColumn("person".into()));
    }
    for (i, table) in TABLES.iter().enumerate() {
        let rows = PEOPLE
            .iter()
            .take(i + 2)
            .map(|p| row(p, PLACES[i % PLACES.len()]));
        db.apply_delta(table, rows).unwrap();
    }
    CatalogSnapshot::shared(
        db,
        MechanismParams::paper_edge_privacy(1.0).with_parallelism(parallelism),
    )
}

/// The workload: each query paired with the set of table indices it scans.
fn workload() -> Vec<(String, Vec<usize>)> {
    let mut queries: Vec<(String, Vec<usize>)> = TABLES
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("SELECT COUNT(*) FROM {t}"), vec![i]))
        .collect();
    queries.push((
        "SELECT COUNT(*) FROM visits JOIN residents ON visits.person = residents.person".to_owned(),
        vec![0, 1],
    ));
    queries.push((
        "SELECT COUNT(*) FROM visits v1 JOIN visits v2 ON v1.place = v2.place \
         WHERE v1.person < v2.person"
            .to_owned(),
        vec![0],
    ));
    queries
}

/// One random mutation: (table index, person index, place index). People
/// come from the pre-interned pool, so deltas never bump the universe epoch.
fn arb_mutations() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec(
        (
            0usize..TABLES.len(),
            0usize..PEOPLE.len(),
            0usize..PLACES.len(),
        ),
        1..5,
    )
}

/// Applies the mutations as a chain of forked snapshots and returns the
/// final snapshot plus the set of mutated table indices.
fn apply_mutations(
    snapshot: &Arc<CatalogSnapshot>,
    mutations: &[(usize, usize, usize)],
) -> (Arc<CatalogSnapshot>, BTreeSet<usize>) {
    let mut next = Arc::clone(snapshot);
    let mut mutated = BTreeSet::new();
    for &(t, p, pl) in mutations {
        next = next
            .with_delta(TABLES[t], [row(PEOPLE[p], PLACES[pl])])
            .unwrap();
        mutated.insert(t);
    }
    (next, mutated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn deltas_invalidate_exactly_the_queries_scanning_a_mutated_table(
        mutations in arb_mutations(),
    ) {
        let snapshot = base_snapshot(Parallelism::Serial);
        let cache = Arc::new(SequenceCache::new(64));
        let queries = workload();

        let mut warmup = SqlSession::over(Arc::clone(&snapshot), 7)
            .with_sequence_cache(Arc::clone(&cache));
        for (sql, _) in &queries {
            warmup.query(sql).unwrap().scalar().unwrap();
        }
        let primed = cache.stats();
        prop_assert_eq!(primed.misses as usize, queries.len(), "all cold at first");

        let (next, mutated) = apply_mutations(&snapshot, &mutations);
        let swept = cache.purge_stale(&next.database().current_epoch_stamps());
        let expected_stale = queries
            .iter()
            .filter(|(_, scans)| scans.iter().any(|t| mutated.contains(t)))
            .count();
        prop_assert_eq!(swept, expected_stale, "sweep is delta-scoped");
        prop_assert_eq!(cache.stats().evictions_stale as usize, expected_stale);

        let mut session = SqlSession::over(Arc::clone(&next), 8)
            .with_sequence_cache(Arc::clone(&cache));
        for (sql, scans) in &queries {
            let before = cache.stats();
            session.query(sql).unwrap().scalar().unwrap();
            let after = cache.stats();
            let stale = scans.iter().any(|t| mutated.contains(t));
            if stale {
                prop_assert_eq!(after.misses, before.misses + 1,
                    "query scanning a mutated table must miss: {}", sql);
            } else {
                prop_assert_eq!(after.hits, before.hits + 1,
                    "query over untouched tables must still hit: {}", sql);
                prop_assert_eq!(after.misses, before.misses,
                    "no cold solve for untouched tables: {}", sql);
            }
        }
    }

    #[test]
    fn warm_refresh_is_bit_identical_to_cold_recompute_under_every_parallelism(
        mutations in arb_mutations(),
        seed in 0u64..1024,
    ) {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)] {
            let snapshot = base_snapshot(parallelism);
            let cache = Arc::new(SequenceCache::new(64));
            let queries = workload();

            // Prime the cache over the base snapshot, then mutate and sweep:
            // the swept entries park their seeds as warm-refresh bases.
            let mut warmup = SqlSession::over(Arc::clone(&snapshot), 3)
                .with_sequence_cache(Arc::clone(&cache));
            for (sql, _) in &queries {
                warmup.query(sql).unwrap().scalar().unwrap();
            }
            let (next, _) = apply_mutations(&snapshot, &mutations);
            cache.purge_stale(&next.database().current_epoch_stamps());

            // Warm path: hits where possible, warm refreshes elsewhere.
            let mut warm = SqlSession::over(Arc::clone(&next), seed)
                .with_sequence_cache(Arc::clone(&cache));
            // Cold path: same snapshot, same seed, empty-cache recompute.
            let mut cold = SqlSession::over(Arc::clone(&next), seed);
            for (sql, _) in &queries {
                let w = warm.query(sql).unwrap().scalar().unwrap();
                let c = cold.query(sql).unwrap().scalar().unwrap();
                prop_assert_eq!(w.true_answer.to_bits(), c.true_answer.to_bits());
                prop_assert!(
                    w.noisy_answer.to_bits() == c.noisy_answer.to_bits(),
                    "warm and cold releases diverge under {:?} for {}: {} vs {}",
                    parallelism, sql, w.noisy_answer, c.noisy_answer
                );
            }
        }
    }
}
