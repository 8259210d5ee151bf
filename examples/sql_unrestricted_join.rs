//! Unrestricted joins over a multi-table sensitive database — now posed as
//! actual SQL.
//!
//! The motivating scenario of the paper beyond subgraph counting: a user
//! poses a positive relational-algebra query (with joins) against a sensitive
//! database and wants a differentially private count of the result. One
//! participant can influence arbitrarily many output rows, so the classical
//! Laplace mechanism has unbounded sensitivity — the recursive mechanism
//! handles it.
//!
//! The query here, over tables `Visits(person, place)` and
//! `Residents(person, city)`:
//!
//! ```sql
//! SELECT COUNT(*)
//! FROM   Visits v1 JOIN Visits v2 ON v1.place = v2.place
//! JOIN   Residents r1 ON r1.person = v1.person
//! JOIN   Residents r2 ON r2.person = v2.person
//! WHERE  r1.city <> r2.city AND v1.person < v2.person
//! ```
//!
//! i.e. "how many pairs of people from different cities visited the same
//! place" — a self-join whose provenance expressions mention two
//! participants per output row, with one prolific traveller appearing in
//! many rows.
//!
//! The example runs the query twice: once through the `rmdp-sql` frontend
//! (the exact SQL string above) and once as the hand-built algebra plan the
//! frontend compiles to, asserting both agree before releasing the count.
//!
//! ```text
//! cargo run --release --example sql_unrestricted_join
//! ```

use recursive_mechanism_dp::core::params::MechanismParams;
use recursive_mechanism_dp::krelation::algebra::{natural_join, rename, select};
use recursive_mechanism_dp::krelation::annotate::AnnotatedDatabase;
use recursive_mechanism_dp::krelation::tuple::{Attr, Tuple, Value};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::sql::SqlSession;

/// The SQL text from the module doc comment, verbatim.
const SQL: &str = "\
SELECT COUNT(*)
FROM   Visits v1 JOIN Visits v2 ON v1.place = v2.place
JOIN   Residents r1 ON r1.person = v1.person
JOIN   Residents r2 ON r2.person = v2.person
WHERE  r1.city <> r2.city AND v1.person < v2.person";

fn main() {
    let mut db = AnnotatedDatabase::new();

    // Base data: (person, city) residences and (person, place) visits. Every
    // tuple is annotated with the participant variable of the person it
    // describes — the "safe annotation" of base tables.
    let residents_data = [
        ("ada", "rome"),
        ("bo", "rome"),
        ("cy", "oslo"),
        ("dee", "oslo"),
        ("eli", "lima"),
    ];
    let visits_data = [
        ("ada", "museum"),
        ("ada", "cafe"),
        ("ada", "park"),
        ("bo", "museum"),
        ("cy", "museum"),
        ("cy", "cafe"),
        ("dee", "park"),
        ("eli", "park"),
        ("eli", "cafe"),
    ];

    let mut residents = KRelation::new(["person", "city"]);
    for (person, city) in residents_data {
        let p = db.intern(person);
        residents.insert(
            Tuple::new([("person", Value::str(person)), ("city", Value::str(city))]),
            Expr::Var(p),
        );
    }
    let mut visits = KRelation::new(["person", "place"]);
    for (person, place) in visits_data {
        let p = db.intern(person);
        visits.insert(
            Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
            Expr::Var(p),
        );
    }
    db.insert_table("residents", residents.clone());
    db.insert_table("visits", visits.clone());
    // The venues are public knowledge (a city guide, not the visit log), so
    // `place` can carry a declared domain for GROUP BY reports — including a
    // venue nobody visited.
    db.declare_public_domain(
        "visits",
        "place",
        ["museum", "cafe", "park", "stadium"].map(Value::str),
    );

    // The hand-built relational-algebra plan the frontend's compilation is
    // checked against. Renaming gives the two sides of the self-join distinct
    // attribute names; annotations are combined with ∧ at every join, so an
    // output row's provenance mentions both people.
    let v1 = rename(&visits, |a| match a.name() {
        "person" => Attr::new("p1"),
        other => Attr::new(other),
    });
    let v2 = rename(&visits, |a| match a.name() {
        "person" => Attr::new("p2"),
        other => Attr::new(other),
    });
    let same_place = select(&natural_join(&v1, &v2), |t| {
        t.get_named("p1").unwrap() < t.get_named("p2").unwrap()
    });
    let r1 = rename(&residents, |a| match a.name() {
        "person" => Attr::new("p1"),
        "city" => Attr::new("city1"),
        other => Attr::new(other),
    });
    let r2 = rename(&residents, |a| match a.name() {
        "person" => Attr::new("p2"),
        "city" => Attr::new("city2"),
        other => Attr::new(other),
    });
    let joined = natural_join(&natural_join(&same_place, &r1), &r2);
    let hand_built = select(&joined, |t| {
        t.get_named("city1").unwrap() != t.get_named("city2").unwrap()
    });

    // The SQL path. `plan` is the compiled algebra pipeline; `evaluate` runs
    // it without privacy so the output can be compared against the hand-built
    // plan; `query` performs the differentially private release through the
    // recursive mechanism's efficient (LP-based) instantiation.
    let params = MechanismParams::paper_edge_privacy(1.0);
    let mut session = SqlSession::with_seed(db, params, 7);

    println!("SQL:\n{SQL}\n");
    println!("plan:\n{}\n", session.plan(SQL).expect("query plans"));

    let sql_output = session.evaluate(SQL).expect("query evaluates");
    assert_eq!(
        sql_output.len(),
        hand_built.len(),
        "SQL frontend and hand-built algebra plan disagree"
    );
    println!("query output ({} rows):", sql_output.len());
    println!("{sql_output:?}");

    let release = session
        .query(SQL)
        .expect("release")
        .scalar()
        .expect("a COUNT(*) without GROUP BY releases one value");
    assert_eq!(release.true_answer, hand_built.len() as f64);
    println!("true count                 : {}", release.true_answer);
    println!("released (1-DP)            : {:.2}", release.noisy_answer);
    println!(
        "noise scale used (Δ̂/ε₂)    : {:.2}",
        release.delta_hat / session.params().epsilon2
    );

    // A grouped report over the declared public venue domain: one release
    // per venue (ε/k each under the default SplitEvenly policy), covering
    // every declared key — the unvisited stadium releases a noised zero.
    let grouped_sql = "SELECT place, COUNT(*) FROM visits GROUP BY place";
    let report = session
        .query(grouped_sql)
        .expect("grouped release")
        .grouped()
        .expect("a GROUP BY query releases a grouped report");
    println!(
        "\n{grouped_sql}\n  → {} groups at ε = {} each ({} total):",
        report.len(),
        report.per_group_epsilon,
        report.epsilon_spent
    );
    for group in &report.groups {
        println!(
            "  {:>10?}: true {} → released {:.2}",
            group.key, group.release.true_answer, group.release.noisy_answer
        );
    }
}
