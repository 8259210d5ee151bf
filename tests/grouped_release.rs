//! End-to-end properties of grouped (`GROUP BY`) releases.
//!
//! A grouped report must be a pure *presentation* of k independent scalar
//! releases: bit-identical across `Parallelism` settings and cached/uncached
//! sessions, invariant under re-declaring the public key domain in another
//! order (the per-group noise seed binds to the key value, not its slot),
//! and atomically admitted against the budget — a refused report consumes
//! nothing. The previously rejected constructs (`ORDER BY`, `HAVING`,
//! `DISTINCT`, grouping on undeclared columns) must keep failing with
//! span-carrying errors.

use proptest::prelude::*;
use recursive_mechanism_dp::core::{MechanismParams, Parallelism, SequenceCache};
use recursive_mechanism_dp::krelation::annotate::AnnotatedDatabase;
use recursive_mechanism_dp::krelation::tuple::{Tuple, Value};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::noise::{GroupBudgetPolicy, PrivacyBudget};
use recursive_mechanism_dp::sql::{SqlError, SqlSession};
use std::sync::Arc;

const PLACES: [&str; 4] = ["museum", "cafe", "park", "stadium"];
const GROUPED_SQL: &str = "SELECT place, COUNT(*) FROM visits GROUP BY place";

/// Visits over four declared venues (one of which nobody visits), with the
/// domain declared in the order given by `domain_order` (indices into
/// [`PLACES`]).
fn visits_db(domain_order: &[usize]) -> AnnotatedDatabase {
    let mut db = AnnotatedDatabase::new();
    let mut visits = KRelation::new(["person", "place"]);
    for (person, place) in [
        ("ada", "museum"),
        ("bo", "museum"),
        ("bo", "cafe"),
        ("cy", "cafe"),
        ("dee", "museum"),
        ("eve", "park"),
    ] {
        let p = db.intern(person);
        visits.insert(
            Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
            Expr::Var(p),
        );
    }
    db.insert_table("visits", visits);
    db.declare_public_domain(
        "visits",
        "place",
        domain_order.iter().map(|&i| Value::str(PLACES[i])),
    );
    db
}

#[test]
fn grouped_reports_are_bit_identical_across_parallelism_settings() {
    let params = MechanismParams::paper_edge_privacy(1.0);
    let baseline = SqlSession::with_seed(visits_db(&[0, 1, 2, 3]), params, 4242)
        .query(GROUPED_SQL)
        .unwrap()
        .grouped()
        .unwrap();
    assert_eq!(baseline.len(), 4);
    for parallelism in [
        Parallelism::Threads(2),
        Parallelism::Threads(8),
        Parallelism::Auto,
    ] {
        let report = SqlSession::with_seed(
            visits_db(&[0, 1, 2, 3]),
            params.with_parallelism(parallelism),
            4242,
        )
        .query(GROUPED_SQL)
        .unwrap()
        .grouped()
        .unwrap();
        for (a, b) in baseline.groups.iter().zip(&report.groups) {
            assert_eq!(a.key, b.key, "{parallelism}");
            assert_eq!(
                a.release.noisy_answer.to_bits(),
                b.release.noisy_answer.to_bits(),
                "{parallelism}: key {:?}",
                a.key
            );
            assert_eq!(a.release.delta_hat.to_bits(), b.release.delta_hat.to_bits());
            assert_eq!(a.release.x.to_bits(), b.release.x.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Permuting the declared domain order permutes the report rows but
    /// leaves every key's released value bit-identical per seed.
    #[test]
    fn per_key_releases_are_invariant_under_domain_permutation(
        seed in any::<u64>(),
        order in Just(vec![0usize, 1, 2, 3]).prop_shuffle(),
    ) {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let canonical = SqlSession::with_seed(visits_db(&[0, 1, 2, 3]), params, seed)
            .query(GROUPED_SQL)
            .unwrap()
            .grouped()
            .unwrap();
        let permuted = SqlSession::with_seed(visits_db(&order), params, seed)
            .query(GROUPED_SQL)
            .unwrap()
            .grouped()
            .unwrap();
        // Rows follow the declared order…
        for (slot, &i) in order.iter().enumerate() {
            prop_assert_eq!(&permuted.groups[slot].key, &Value::str(PLACES[i]));
        }
        // …but each key's release is independent of where it was declared.
        for g in &canonical.groups {
            let other = permuted.get(&g.key).unwrap();
            prop_assert_eq!(
                g.release.noisy_answer.to_bits(),
                other.noisy_answer.to_bits(),
                "key {:?}", g.key
            );
            prop_assert_eq!(g.release.delta_hat.to_bits(), other.delta_hat.to_bits());
            prop_assert_eq!(g.release.true_answer.to_bits(), other.true_answer.to_bits());
        }
    }

    /// (b) A cached grouped session releases bit-identically to a cold one
    /// under the same seed — including repeats served entirely from cache.
    #[test]
    fn cold_and_cached_grouped_sessions_are_bit_identical(seed in any::<u64>()) {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut cold = SqlSession::with_seed(visits_db(&[0, 1, 2, 3]), params, seed);
        let cache = SequenceCache::shared(16);
        let mut cached = SqlSession::with_seed(visits_db(&[0, 1, 2, 3]), params, seed)
            .with_sequence_cache(Arc::clone(&cache));
        for round in 0..3 {
            let a = cold.query(GROUPED_SQL).unwrap().grouped().unwrap();
            let b = cached.query(GROUPED_SQL).unwrap().grouped().unwrap();
            for (ga, gb) in a.groups.iter().zip(&b.groups) {
                prop_assert_eq!(&ga.key, &gb.key);
                prop_assert_eq!(
                    ga.release.noisy_answer.to_bits(),
                    gb.release.noisy_answer.to_bits(),
                    "round {}, key {:?}", round, ga.key
                );
                prop_assert_eq!(ga.release.x.to_bits(), gb.release.x.to_bits());
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 4, "one miss per declared key");
        prop_assert_eq!(stats.hits, 8, "two fully cached repeats");
    }

    /// (c) A grouped report refused for budget leaves `remaining_budget`
    /// untouched, whatever the policy; an affordable report then debits
    /// exactly its priced cost.
    #[test]
    fn refused_grouped_reports_consume_no_budget(
        epsilon in 0.3f64..1.5,
        use_per_group in any::<bool>(),
    ) {
        let params = MechanismParams::paper_edge_privacy(epsilon);
        let policy = if use_per_group {
            GroupBudgetPolicy::PerGroup
        } else {
            GroupBudgetPolicy::SplitEvenly
        };
        // Budget covers strictly less than one report (k = 4 under PerGroup,
        // one full ε under SplitEvenly).
        let total = match policy {
            GroupBudgetPolicy::PerGroup => 3.5 * epsilon,
            GroupBudgetPolicy::SplitEvenly => 0.9 * epsilon,
        };
        let mut session = SqlSession::new(visits_db(&[0, 1, 2, 3]), params)
            .with_group_policy(policy)
            .with_budget(PrivacyBudget::pure(total));
        let err = session.query(GROUPED_SQL).unwrap_err();
        prop_assert!(matches!(err, SqlError::BudgetExhausted(_)), "{err:?}");
        prop_assert_eq!(session.remaining_budget().unwrap().epsilon, total);

        match policy {
            // Under PerGroup a single scalar release (ε ≤ 3.5ε) still fits
            // and debits exactly ε.
            GroupBudgetPolicy::PerGroup => {
                session.query("SELECT COUNT(*) FROM visits").unwrap().scalar().unwrap();
                let left = session.remaining_budget().unwrap().epsilon;
                prop_assert!((left - (total - epsilon)).abs() < 1e-9);
            }
            // Under SplitEvenly the report is priced exactly like a scalar
            // release, so the scalar is refused too — and still consumes
            // nothing.
            GroupBudgetPolicy::SplitEvenly => {
                let err = session.query("SELECT COUNT(*) FROM visits").unwrap_err();
                prop_assert!(matches!(err, SqlError::BudgetExhausted(_)));
                prop_assert_eq!(session.remaining_budget().unwrap().epsilon, total);
            }
        }
    }
}

#[test]
fn grouped_and_scalar_sessions_share_one_cache() {
    // The group key dissolves into an equality conjunct, so a grouped
    // report and the hand-written per-key queries are the *same* cache
    // entries — whichever side runs first warms the other.
    let params = MechanismParams::paper_edge_privacy(1.0);
    let cache = SequenceCache::shared(16);
    let mut grouped = SqlSession::with_seed(visits_db(&[0, 1, 2, 3]), params, 1)
        .with_sequence_cache(Arc::clone(&cache));
    grouped.query(GROUPED_SQL).unwrap().grouped().unwrap();
    assert_eq!(cache.stats().misses, 4);

    let scalar_queries: Vec<String> = PLACES
        .iter()
        .map(|p| format!("SELECT COUNT(*) FROM visits v WHERE v.place = '{p}'"))
        .collect();
    let mut scalar = SqlSession::with_seed(visits_db(&[0, 1, 2, 3]), params, 2)
        .with_sequence_cache(Arc::clone(&cache));
    // Different session, different alias spelling, same database *value* —
    // but a different instance, so nothing is shared...
    scalar.query_batch(&scalar_queries).unwrap();
    assert_eq!(cache.stats().misses, 8, "distinct db instances never share");

    // ...while within one session the scalar queries hit the grouped
    // report's entries exactly.
    let before = cache.stats().misses;
    grouped.query_batch(&scalar_queries).unwrap();
    assert_eq!(cache.stats().misses, before);
    assert!(cache.stats().hits >= 4);
}

#[test]
fn rejected_constructs_still_fail_with_spans() {
    let mut session = SqlSession::new(
        visits_db(&[0, 1, 2, 3]),
        MechanismParams::paper_edge_privacy(1.0),
    );
    for (sql, needle) in [
        ("SELECT COUNT(*) FROM visits ORDER BY place", "ORDER"),
        (
            "SELECT place, COUNT(*) FROM visits GROUP BY place HAVING COUNT(*) > 1",
            "HAVING",
        ),
        ("SELECT DISTINCT COUNT(*) FROM visits", "DISTINCT"),
        ("SELECT COUNT(*) FROM visits GROUP BY place, person", ","),
    ] {
        match session.query(sql).unwrap_err() {
            SqlError::Unsupported { span, .. } => assert_eq!(span.slice(sql), needle, "{sql}"),
            other => panic!("expected Unsupported for {sql:?}, got {other:?}"),
        }
    }
    // Grouping on a column without a declared domain is a planner error
    // pointing at the key.
    let sql = "SELECT person, COUNT(*) FROM visits GROUP BY person";
    match session.query(sql).unwrap_err() {
        SqlError::UndeclaredGroupDomain { span, table, .. } => {
            assert_eq!(span.slice(sql), "person");
            assert_eq!(table, "visits");
        }
        other => panic!("expected UndeclaredGroupDomain, got {other:?}"),
    }
}
