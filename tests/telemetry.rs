//! End-to-end telemetry tests: the observability hard invariant.
//!
//! * **Bit-identity**: a traced release (`query_traced` / `EXPLAIN
//!   ANALYZE`, with a metrics registry and a sequence cache attached) must
//!   be bit-identical to the plain `query` release under the same seed,
//!   for every `Parallelism` — telemetry may never perturb a release.
//! * **Trace consistency** (property-based): stage durations sum to at
//!   most the total, cache outcomes cohere with the session configuration,
//!   and the ε a trace records equals the ε the accountant debited.
//! * **Deterministic stat folding**: session LP totals fold by input
//!   index, so identical sessions agree exactly, whatever the schedule.
//! * **Monotone counters**: registry counters never decrease, and the
//!   snapshot JSON round-trips.

use proptest::prelude::*;
use recursive_mechanism_dp::core::{MechanismParams, Parallelism, Release};
use recursive_mechanism_dp::krelation::annotate::AnnotatedDatabase;
use recursive_mechanism_dp::krelation::tuple::{Tuple, Value};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::noise::PrivacyBudget;
use recursive_mechanism_dp::observe::{parse_json, CacheOutcome, MetricsRegistry, MetricsSnapshot};
use recursive_mechanism_dp::sql::{QueryOutput, SqlSession};
use std::sync::Arc;

const SCALAR_SQL: &str = "SELECT COUNT(*) FROM visits WHERE place = 'museum'";
const GROUPED_SQL: &str = "SELECT place, COUNT(*) FROM visits GROUP BY place";
const JOIN_SQL: &str = "SELECT COUNT(*) FROM visits v1 JOIN visits v2 ON v1.place = v2.place \
                        WHERE v1.person < v2.person";

/// A small visits database with a declared public domain for the group key.
fn visits_db() -> AnnotatedDatabase {
    visits_db_with(&[(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)])
}

/// A visits table with one row per `(person, place)` index pair, each
/// annotated with its visitor, over the declared places.
fn visits_db_with(rows: &[(usize, usize)]) -> AnnotatedDatabase {
    const PEOPLE: [&str; 5] = ["ada", "bo", "cy", "dee", "eve"];
    const PLACES: [&str; 3] = ["museum", "cafe", "park"];
    let mut db = AnnotatedDatabase::new();
    let mut visits = KRelation::new(["person", "place"]);
    for &(person, place) in rows {
        let p = db.intern(PEOPLE[person]);
        visits.insert(
            Tuple::new([
                ("person", Value::str(PEOPLE[person])),
                ("place", Value::str(PLACES[place])),
            ]),
            Expr::Var(p),
        );
    }
    db.insert_table("visits", visits);
    db.declare_public_domain("visits", "place", PLACES.map(Value::str));
    db
}

/// Every release of an output, in a fixed order.
fn releases(output: QueryOutput) -> Vec<Release> {
    match output {
        QueryOutput::Scalar(r) => vec![r],
        QueryOutput::Grouped(g) => g.groups.into_iter().map(|group| group.release).collect(),
        QueryOutput::Explained(t) => releases(t.output),
    }
}

/// Every released value of an output, as raw bits, in a fixed order.
fn release_bits(output: QueryOutput) -> Vec<[u64; 3]> {
    releases(output)
        .into_iter()
        .map(|r| {
            [
                r.noisy_answer.to_bits(),
                r.delta_hat.to_bits(),
                r.x.to_bits(),
            ]
        })
        .collect()
}

#[test]
fn traced_releases_are_bit_identical_to_plain_ones_for_every_parallelism() {
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ] {
        let params = MechanismParams::paper_edge_privacy(1.0).with_parallelism(parallelism);
        for sql in [SCALAR_SQL, GROUPED_SQL] {
            // The plain session: uncached, unmetered, untraced.
            let mut plain = SqlSession::with_seed(visits_db(), params, 42);
            let expected = release_bits(plain.query(sql).unwrap());

            // Fully instrumented: metrics registry, sequence cache, trace.
            let mut traced_session = SqlSession::with_seed(visits_db(), params, 42)
                .with_metrics(Arc::new(MetricsRegistry::new()))
                .with_cache_capacity(8);
            let traced = traced_session.query_traced(sql).unwrap();
            assert!(traced.trace.is_consistent(), "{parallelism} {sql}");
            assert_eq!(
                release_bits(traced.output),
                expected,
                "traced release diverged under {parallelism} for {sql}"
            );

            // And the SQL-level `EXPLAIN ANALYZE` spelling of the same.
            let mut explain_session = SqlSession::with_seed(visits_db(), params, 42)
                .with_metrics(Arc::new(MetricsRegistry::new()))
                .with_cache_capacity(8);
            let output = explain_session
                .query(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap();
            let explained = output.explained().expect("EXPLAIN ANALYZE wraps a trace");
            assert!(explained.trace.is_consistent());
            assert!(explained.trace.render().starts_with("EXPLAIN ANALYZE"));
            assert_eq!(
                release_bits(explained.output),
                expected,
                "EXPLAIN ANALYZE release diverged under {parallelism} for {sql}"
            );
        }
    }
}

#[test]
fn lp_totals_fold_deterministically() {
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let params = MechanismParams::paper_edge_privacy(1.0).with_parallelism(parallelism);
        let run = || {
            let mut session = SqlSession::with_seed(visits_db(), params, 3);
            session
                .query_batch(&[SCALAR_SQL, "SELECT COUNT(*) FROM visits", SCALAR_SQL])
                .unwrap();
            session.query(GROUPED_SQL).unwrap().grouped().unwrap();
            session.lp_totals()
        };
        let (a, b) = (run(), run());
        assert!(a.h_solves > 0 && a.g_solves > 0, "{parallelism}");
        assert_eq!(a, b, "LP totals depend on the schedule under {parallelism}");
    }
}

#[test]
fn metrics_counters_are_monotone_and_the_snapshot_json_round_trips() {
    let metrics = Arc::new(MetricsRegistry::new());
    let mut session =
        SqlSession::with_seed(visits_db(), MechanismParams::paper_edge_privacy(1.0), 4)
            .with_cache_capacity(4)
            .with_metrics(Arc::clone(&metrics));
    let mut last: Option<MetricsSnapshot> = None;
    for _ in 0..3 {
        session.query(SCALAR_SQL).unwrap().scalar().unwrap();
        session.query_traced(GROUPED_SQL).unwrap();
        let snap = metrics.snapshot();
        if let Some(prev) = &last {
            for name in prev.counter_names() {
                assert!(
                    snap.counter(name) >= prev.counter(name),
                    "counter {name} decreased"
                );
            }
        }
        last = Some(snap);
    }
    let snap = last.unwrap();
    assert!(snap.counter("sql.releases").unwrap() > 0);
    let json = snap.to_json();
    assert_eq!(MetricsSnapshot::parse_json(&json).unwrap(), snap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random sessions (seed, ε, cache on/off, query shape) always produce
    /// internally consistent traces whose recorded ε equals the debit.
    #[test]
    fn traces_are_consistent_for_random_sessions(
        seed in any::<u64>(),
        epsilon in 0.5f64..4.0,
        cached in any::<bool>(),
        grouped in any::<bool>(),
    ) {
        let params = MechanismParams::paper_edge_privacy(epsilon);
        let mut session = SqlSession::with_seed(visits_db(), params, seed).with_budget(
            PrivacyBudget {
                epsilon: 100.0,
                delta: 0.0,
            },
        );
        if cached {
            session = session.with_cache_capacity(4);
        }
        let sql = if grouped { GROUPED_SQL } else { SCALAR_SQL };
        let before = session.remaining_budget().unwrap().epsilon;
        let traced = session.query_traced(sql).unwrap();
        let after = session.remaining_budget().unwrap().epsilon;

        let trace = &traced.trace;
        prop_assert!(trace.is_consistent());
        prop_assert!(trace.stage_nanos_total() <= trace.total_nanos);
        prop_assert!((trace.epsilon_spent - (before - after)).abs() < 1e-9);
        if cached {
            prop_assert!(matches!(trace.cache, CacheOutcome::Miss | CacheOutcome::Hit));
        } else {
            prop_assert!(matches!(trace.cache, CacheOutcome::Uncached));
        }
        if grouped {
            let split = trace.group_split.as_ref().expect("grouped trace has a split");
            prop_assert_eq!(split.groups, 3);
            prop_assert_eq!(trace.noise.len(), 3);
        } else {
            prop_assert!(trace.fingerprint.is_some());
            prop_assert_eq!(trace.noise.len(), 1);
        }
        // The trace serialises to parseable JSON and renders.
        prop_assert!(parse_json(&trace.to_json()).is_ok());
        prop_assert!(trace.render().starts_with("EXPLAIN ANALYZE"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No release is ever non-finite and no noise scale collapses to zero,
    /// whichever entry point releases it: over random seeds, budgets and
    /// small owner-annotated tables (empty ones included), every scalar
    /// and grouped release from `query`, `query_traced` and `query_batch`
    /// has a finite answer and clipped estimate, a finite positive `Δ̂`,
    /// and traces whose noise scales are finite and positive.
    #[test]
    fn every_release_is_finite_with_positive_noise_scales(
        seed in any::<u64>(),
        rows in proptest::collection::vec((0..5usize, 0..3usize), 0..8),
        epsilon in 0.2f64..4.0,
        cached in any::<bool>(),
    ) {
        let params = MechanismParams::paper_edge_privacy(epsilon);
        let mut session = SqlSession::with_seed(visits_db_with(&rows), params, seed);
        if cached {
            session = session.with_cache_capacity(8);
        }
        let mut released = Vec::new();
        for sql in [SCALAR_SQL, GROUPED_SQL, JOIN_SQL] {
            released.extend(releases(session.query(sql).unwrap()));
            let traced = session.query_traced(sql).unwrap();
            for n in &traced.trace.noise {
                prop_assert!(n.log_scale.is_finite() && n.log_scale > 0.0, "{sql}: {n:?}");
                prop_assert!(n.answer_scale.is_finite() && n.answer_scale > 0.0, "{sql}: {n:?}");
            }
            released.extend(releases(traced.output));
        }
        for output in session.query_batch(&[SCALAR_SQL, GROUPED_SQL, JOIN_SQL]).unwrap() {
            released.extend(releases(output));
        }
        prop_assert_eq!(released.len(), 3 * (1 + 3 + 1));
        for r in &released {
            prop_assert!(r.noisy_answer.is_finite(), "{r:?}");
            prop_assert!(r.x.is_finite(), "{r:?}");
            prop_assert!(r.delta_hat.is_finite() && r.delta_hat > 0.0, "{r:?}");
        }
    }
}
