//! The four workloads: generated data, the request schedule each client
//! connection replays, and an independent reference for every answer.
//!
//! Everything is a pure function of the workload seed. The seed drives
//! graph generation, row generation, the literal schedule and the server
//! seed; the server itself only ever sees the generated SQL and rows.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rmdp_core::MechanismParams;
use rmdp_graph::subgraph::{k_star_count, triangle_count};
use rmdp_graph::Graph;
use rmdp_krelation::{AnnotatedDatabase, AnnotationRule, Expr, KRelation, Tuple, Value};
use rmdp_observe::{Clock, MonotonicClock};
use rmdp_sql::CatalogSnapshot;
use std::sync::Arc;

/// Every workload the command runs. `BENCHMARK.json` gates a subset; the
/// README says why the others are left out.
pub const WORKLOADS: [&str; 4] = ["cold_star", "tri_join", "warm_mix", "ingest_refresh"];

/// The reference answer a query's `true=` fields must equal.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// One scalar count.
    Scalar(f64),
    /// Per-group counts in declared-domain order.
    Grouped(Vec<f64>),
}

/// One wire operation of a schedule.
#[derive(Clone, Debug)]
pub enum Op {
    /// `QUERY <tenant> <sql>`.
    Query {
        /// The SQL text sent.
        sql: String,
        /// The independent reference for its `true=` fields.
        expect: Expected,
        /// Whether this is an analyst query (counted in the release
        /// metrics) or the freshness probe that closes a side ingest.
        analyst: bool,
    },
    /// `INGEST <table> <rows>`; the next op is the affected plan's query.
    Ingest {
        /// Target table.
        table: &'static str,
        /// The rows in wire syntax.
        spec: String,
        /// The same rows as tuples (for the in-process layers).
        rows: Vec<Tuple>,
    },
}

/// The deterministic op stream of one client connection.
pub trait Schedule: Send {
    /// The ops of round `round` (0-based), in send order.
    fn round(&mut self, round: u64) -> Vec<Op>;
}

/// A workload ready to serve: the initial snapshot, the warm-up queries and
/// one schedule per connection.
pub struct Workload {
    /// The catalog the server starts from.
    pub snapshot: Arc<CatalogSnapshot>,
    /// Root of the server's seed schedule.
    pub server_seed: u64,
    /// Queries a separate warm-up tenant sends during set-up.
    pub warmup: Vec<Op>,
    /// One op stream per client connection.
    pub schedules: Vec<Box<dyn Schedule>>,
    /// Rounds each connection runs in the traced run.
    pub traced_rounds: u64,
    /// The round after which connection 0 samples the peak RSS, so the
    /// memory figure covers the same work whatever the run's speed (the
    /// server keeps every snapshot version, so memory grows with ingests).
    pub memory_rounds: u64,
    /// Nanoseconds spent on reference subgraph counts during set-up.
    pub reference_nanos: u64,
}

/// Builds workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "cold_star" => Some(graph_workload(GraphQuery::TwoStar, seed)),
        "tri_join" => Some(graph_workload(GraphQuery::Triangle, seed)),
        "warm_mix" => Some(warm_mix(seed)),
        "ingest_refresh" => Some(ingest_refresh(seed)),
        _ => None,
    }
}

fn int(v: usize) -> Value {
    Value::Int(v as i64)
}

/// A per-workload RNG stream, independent of the others at the same seed.
fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Every node's degree in the generated graphs: the average degree of the
/// fig-4 family.
const DEGREE: usize = 6;

/// A uniformly shuffled `d`-regular graph on `n` nodes: the circulant
/// graph (each node joined to its `d/2` nearest neighbours on each side)
/// randomised by degree-preserving double-edge swaps.
///
/// The fig-4 family is G(n, p) at average degree 6; fixing every degree at
/// 6 keeps that average and the pattern counts' scale (2-stars are exactly
/// `n·C(6,2)`), so per-seed work differs only in how the edges are wired.
/// That keeps a run's figures steady across seeds.
fn regular_graph(n: usize, d: usize, rng: &mut StdRng) -> Graph {
    let key = |a: usize, b: usize| (a.min(b), a.max(b));
    let mut edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (1..=d / 2).map(move |k| key(u, (u + k) % n)))
        .collect();
    let mut present: std::collections::HashSet<(usize, usize)> = edges.iter().copied().collect();
    for _ in 0..20 * edges.len() {
        let (i, j) = (rng.gen_range(0..edges.len()), rng.gen_range(0..edges.len()));
        let ((a, b), (c, e)) = (edges[i], edges[j]);
        let (ad, cb) = (key(a, e), key(c, b));
        if a == e || c == b || i == j || present.contains(&ad) || present.contains(&cb) {
            continue;
        }
        present.remove(&edges[i]);
        present.remove(&edges[j]);
        present.insert(ad);
        present.insert(cb);
        edges[i] = ad;
        edges[j] = cb;
    }
    let edges: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (a as u32, b as u32)).collect();
    Graph::from_edges(n, &edges)
}

// ---------------------------------------------------------------------
// cold_star / tri_join: node-private subgraph counts as SQL self-joins.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum GraphQuery {
    /// 2-stars: `edges ⋈ edges` on the centre, leaves ordered.
    TwoStar,
    /// Triangles: a 3-way self-join, vertices ordered.
    Triangle,
}

impl GraphQuery {
    /// Graph size: the fig-4 family (n = 24) for 2-stars, where the LPs
    /// dominate; n = 200 for triangles, where join evaluation shows.
    fn nodes(self) -> usize {
        match self {
            GraphQuery::TwoStar => 24,
            GraphQuery::Triangle => 200,
        }
    }

    /// How many graphs the database holds, one `edges<i>` table each. A run
    /// spreads its requests over all of them, so its figures average over
    /// that many draws of the graph family instead of resting on one.
    fn graphs(self) -> usize {
        match self {
            GraphQuery::TwoStar => 8,
            GraphQuery::Triangle => 4,
        }
    }

    /// Rounds between two side ingests. The probe's refresh usually
    /// republishes its table, but when the filtered output's term order
    /// moves it re-solves warm, which over 200 participants costs about
    /// three triangle releases; so tri_join ingests every 8th round.
    fn ingest_every(self) -> u64 {
        match self {
            GraphQuery::TwoStar => 1,
            GraphQuery::Triangle => 8,
        }
    }

    fn count(self, g: &Graph) -> f64 {
        match self {
            GraphQuery::TwoStar => k_star_count(g, 2) as f64,
            GraphQuery::Triangle => triangle_count(g) as f64,
        }
    }

    /// The SQL text over `table`, excluding every node of `excluded` from
    /// the pattern.
    fn sql(self, table: &str, excluded: &[usize]) -> String {
        let mut sql = match self {
            GraphQuery::TwoStar => format!(
                "SELECT COUNT(*) FROM {table} e1 JOIN {table} e2 ON e1.x = e2.x \
                 WHERE e1.y < e2.y"
            ),
            GraphQuery::Triangle => format!(
                "SELECT COUNT(*) FROM {table} e1 JOIN {table} e2 ON e1.y = e2.x \
                 JOIN {table} e3 ON e3.x = e1.x AND e3.y = e2.y \
                 WHERE e1.x < e1.y AND e2.x < e2.y"
            ),
        };
        // Both patterns name their vertices e1.x, e1.y and e2.y.
        for k in excluded {
            for v in ["e1.x", "e1.y", "e2.y"] {
                sql.push_str(&format!(" AND {v} <> {k}"));
            }
        }
        sql
    }
}

/// The freshness probe of the `notes(node, tag)` side table the graph
/// workloads ingest into. The table is owner-annotated by the same
/// `node:<k>` participants as the edges, so an ingest is intern-only and
/// leaves the edge plans' cache keys alone. Ingested notes carry `tag ≥ 0`
/// and the probe keeps `tag < 0`, so the probe's refresh republishes the
/// parked table without LP work and the side stream stays small next to
/// the workload's own queries.
const NOTES_PROBE: &str = "SELECT COUNT(*) FROM notes WHERE tag < 0";

fn graph_workload(query: GraphQuery, seed: u64) -> Workload {
    let n = query.nodes();
    let mut rng = rng_for(seed, 1);
    let graphs: Vec<Graph> = (0..query.graphs())
        .map(|_| regular_graph(n, DEGREE, &mut rng))
        .collect();

    // Every graph is over the same n nodes, so the participant universe —
    // and with it the size of every LP family — is n whatever the count of
    // graphs, as for several relations among the same people.
    let mut db = AnnotatedDatabase::new();
    let nodes: Vec<_> = (0..n)
        .map(|k| db.intern(&AnnotationRule::owner_label("node", &int(k))))
        .collect();
    for (i, graph) in graphs.iter().enumerate() {
        let mut edges = KRelation::new(["x", "y"]);
        for &(u, v) in graph.edges() {
            let (u, v) = (u as usize, v as usize);
            for (a, b) in [(u, v), (v, u)] {
                edges.insert(
                    Tuple::new([("x", int(a)), ("y", int(b))]),
                    Expr::conjunction_of_vars([nodes[u], nodes[v]]),
                );
            }
        }
        db.insert_table(&format!("edges{i}"), edges);
    }
    db.insert_table("notes", KRelation::new(["node", "tag"]));
    db.declare_annotation_rule("notes", AnnotationRule::OwnerColumn("node".into()));
    db.apply_delta(
        "notes",
        (0..n).map(|k| Tuple::new([("node", int(k)), ("tag", Value::Int(-1))])),
    )
    .expect("notes load over interned nodes");
    let snapshot = CatalogSnapshot::shared(db, MechanismParams::paper_node_privacy(1.0));

    // Reference counts for every single-node exclusion, computed up front.
    let clock = MonotonicClock::new();
    let started = clock.now_nanos();
    let singles: Vec<Vec<f64>> = graphs
        .iter()
        .map(|g| {
            (0..n as u32)
                .map(|k| query.count(&g.without_node(k)))
                .collect()
        })
        .collect();
    let reference_nanos = clock.now_nanos() - started;

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let schedule = GraphSchedule {
        query,
        graphs,
        singles,
        order,
    };
    Workload {
        snapshot,
        server_seed: rng.gen(),
        warmup: Vec::new(),
        schedules: vec![Box::new(schedule)],
        traced_rounds: match query {
            GraphQuery::TwoStar => 4,
            GraphQuery::Triangle => 48,
        },
        memory_rounds: match query {
            GraphQuery::TwoStar => 30,
            GraphQuery::Triangle => 120,
        },
        reference_nanos,
    }
}

struct GraphSchedule {
    query: GraphQuery,
    graphs: Vec<Graph>,
    /// `singles[g][k]`: the pattern count of graph `g` without node `k`.
    singles: Vec<Vec<f64>>,
    /// Seeded node order the exclusion literal walks through.
    order: Vec<usize>,
}

impl GraphSchedule {
    /// The nodes exclusion `e` removes: one node for the first `n`
    /// exclusions, then pairs `{j, j + q}` at distance `q = e / n`, so no
    /// two requests on one graph share a plan.
    fn excluded(&self, e: u64) -> Vec<usize> {
        let n = self.order.len() as u64;
        let (j, q) = (e % n, e / n);
        let first = self.order[j as usize];
        if q == 0 {
            vec![first]
        } else {
            vec![first, self.order[((j + q) % n) as usize]]
        }
    }
}

impl Schedule for GraphSchedule {
    fn round(&mut self, round: u64) -> Vec<Op> {
        // Rounds walk the graphs in turn; each graph sees every exclusion.
        let graphs = self.graphs.len() as u64;
        let (g, e) = ((round % graphs) as usize, round / graphs);
        let excluded = self.excluded(e);
        let expect = match excluded.as_slice() {
            [k] => self.singles[g][*k],
            _ => {
                let mut graph = self.graphs[g].clone();
                for &k in &excluded {
                    graph = graph.without_node(k as u32);
                }
                self.query.count(&graph)
            }
        };
        let mut ops = vec![Op::Query {
            sql: self.query.sql(&format!("edges{g}"), &excluded),
            expect: Expected::Scalar(expect),
            analyst: true,
        }];
        if round.is_multiple_of(self.query.ingest_every()) {
            let owner = self.order[(round as usize * 7 + 3) % self.order.len()];
            ops.push(Op::Ingest {
                table: "notes",
                spec: format!("node={owner},tag={round}"),
                rows: vec![Tuple::new([
                    ("node", int(owner)),
                    ("tag", Value::Int(round as i64)),
                ])],
            });
            ops.push(Op::Query {
                sql: NOTES_PROBE.to_owned(),
                expect: Expected::Scalar(self.order.len() as f64),
                analyst: false,
            });
        }
        ops
    }
}

// ---------------------------------------------------------------------
// warm_mix: a fixed set of query texts over owner-annotated tables.
// ---------------------------------------------------------------------

const PLACES: [&str; 6] = ["museum", "cafe", "park", "library", "market", "harbor"];
const CITIES: [&str; 4] = ["rome", "oslo", "lima", "kyiv"];
/// Alias pairs the texts rotate through, so canonicalisation does work.
const ALIASES: [(&str, &str); 5] = [
    ("a", "b"),
    ("v", "w"),
    ("s1", "s2"),
    ("lhs", "rhs"),
    ("p", "q"),
];
const WARM_PERSONS: usize = 32;
const WARM_VISITS: usize = 3000;
const WARM_DAYS: i64 = 100;

#[derive(Clone)]
struct Visit {
    person: usize,
    place: usize,
    day: i64,
}

/// The warm_mix data, shared read-only by both connections' schedules.
struct WarmData {
    visits: Vec<Visit>,
    city_of: Vec<usize>,
}

/// The fixed query set: `(template, reference)`. `{a}`/`{b}` are aliases.
fn warm_templates(data: &WarmData) -> Vec<(&'static str, Expected)> {
    let v = &data.visits;
    let count = |f: &dyn Fn(&Visit) -> bool| v.iter().filter(|x| f(x)).count() as f64;
    let in_city = |x: &Visit, c: usize| data.city_of[x.person] == c;
    let museum_pairs = {
        let museum: Vec<&Visit> = v.iter().filter(|x| x.place == 0).collect();
        let mut pairs = 0usize;
        for x in &museum {
            for y in &museum {
                pairs += usize::from(x.day == y.day && x.person < y.person);
            }
        }
        pairs as f64
    };
    let neighbour_pairs = {
        let mut pairs = 0usize;
        for p in 0..WARM_PERSONS {
            for q in p + 1..WARM_PERSONS {
                pairs += usize::from(data.city_of[p] == data.city_of[q]);
            }
        }
        pairs as f64
    };
    vec![
        (
            "SELECT COUNT(*) FROM visits {a} JOIN residents {b} ON {a}.person = {b}.person \
             WHERE {b}.city = 'rome'",
            Expected::Scalar(count(&|x| in_city(x, 0))),
        ),
        (
            "SELECT COUNT(*) FROM visits {a} JOIN visits {b} ON {a}.place = {b}.place \
             AND {a}.day = {b}.day WHERE {a}.person < {b}.person AND {a}.place = 'museum'",
            Expected::Scalar(museum_pairs),
        ),
        (
            "SELECT COUNT(*) FROM visits {a} WHERE {a}.place = 'cafe'",
            Expected::Scalar(count(&|x| x.place == 1)),
        ),
        (
            "SELECT COUNT(*) FROM visits {a} WHERE {a}.day < 10",
            Expected::Scalar(count(&|x| x.day < 10)),
        ),
        (
            "SELECT {a}.place, COUNT(*) FROM visits {a} GROUP BY {a}.place",
            Expected::Grouped(
                (0..PLACES.len())
                    .map(|p| count(&|x| x.place == p))
                    .collect(),
            ),
        ),
        (
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM visits {a} JOIN residents {b} \
             ON {a}.person = {b}.person WHERE {b}.city = 'oslo' AND {a}.place = 'park'",
            Expected::Scalar(count(&|x| in_city(x, 1) && x.place == 2)),
        ),
        (
            "SELECT COUNT(*) FROM residents {a} JOIN residents {b} ON {a}.city = {b}.city \
             WHERE {a}.person < {b}.person",
            Expected::Scalar(neighbour_pairs),
        ),
        (
            "SELECT COUNT(*) FROM visits {a} WHERE {a}.day >= 50 AND {a}.place <> 'market'",
            Expected::Scalar(count(&|x| x.day >= 50 && x.place != 4)),
        ),
    ]
}

fn render(template: &str, (a, b): (&str, &str)) -> String {
    template.replace("{a}", a).replace("{b}", b)
}

/// Rounds between two warm_mix side ingests. Every ingest keeps a new
/// snapshot version in the server's history, so the rate bounds memory.
const WARM_INGEST_EVERY: u64 = 8;

fn warm_mix(seed: u64) -> Workload {
    let mut rng = rng_for(seed, 2);
    let city_of: Vec<usize> = (0..WARM_PERSONS)
        .map(|_| rng.gen_range(0..CITIES.len()))
        .collect();
    let visits: Vec<Visit> = (0..WARM_VISITS)
        .map(|_| Visit {
            person: rng.gen_range(0..WARM_PERSONS),
            place: rng.gen_range(0..PLACES.len()),
            day: rng.gen_range(0..WARM_DAYS),
        })
        .collect();

    let person = |p: usize| Value::str(&format!("u{p}"));
    let mut db = AnnotatedDatabase::new();
    db.insert_table("visits", KRelation::new(["id", "person", "place", "day"]));
    db.insert_table("residents", KRelation::new(["person", "city"]));
    db.insert_table("notes", KRelation::new(["person", "tag"]));
    for table in ["visits", "residents", "notes"] {
        db.declare_annotation_rule(table, AnnotationRule::OwnerColumn("person".into()));
    }
    db.declare_public_domain("visits", "place", PLACES.iter().map(|p| Value::str(p)));
    db.apply_delta(
        "residents",
        city_of
            .iter()
            .enumerate()
            .map(|(p, &c)| Tuple::new([("person", person(p)), ("city", Value::str(CITIES[c]))])),
    )
    .expect("residents load");
    db.apply_delta(
        "visits",
        visits.iter().enumerate().map(|(i, x)| {
            Tuple::new([
                ("id", int(i)),
                ("person", person(x.person)),
                ("place", Value::str(PLACES[x.place])),
                ("day", Value::Int(x.day)),
            ])
        }),
    )
    .expect("visits load");
    db.apply_delta(
        "notes",
        (0..WARM_PERSONS).map(|p| Tuple::new([("person", person(p)), ("tag", Value::Int(-1))])),
    )
    .expect("notes load");
    let snapshot = CatalogSnapshot::shared(db, MechanismParams::paper_edge_privacy(1.0));

    let data = Arc::new(WarmData { visits, city_of });
    let templates = warm_templates(&data);
    let probe = Op::Query {
        sql: NOTES_PROBE.to_owned(),
        expect: Expected::Scalar(WARM_PERSONS as f64),
        analyst: false,
    };
    let mut warmup: Vec<Op> = templates
        .iter()
        .map(|(t, e)| Op::Query {
            sql: render(t, ALIASES[0]),
            expect: e.clone(),
            analyst: false,
        })
        .collect();
    warmup.push(probe.clone());

    let schedules: Vec<Box<dyn Schedule>> = (0..2)
        .map(|conn| {
            Box::new(WarmSchedule {
                templates: templates.clone(),
                probe: probe.clone(),
                ingests: conn == 0,
                offset: conn * 3,
                owner_rng: rng_for(seed, 10 + conn as u64),
            }) as Box<dyn Schedule>
        })
        .collect();
    Workload {
        snapshot,
        server_seed: rng.gen(),
        warmup,
        schedules,
        traced_rounds: 60,
        memory_rounds: 400,
        reference_nanos: 0,
    }
}

struct WarmSchedule {
    templates: Vec<(&'static str, Expected)>,
    probe: Op,
    /// Only connection 0 ingests, so the notes table has one writer; its
    /// probe keeps the warm-up's `tag < 0` rows, so warm_mix stays LP-free.
    ingests: bool,
    /// Where in the query set this connection starts each round.
    offset: usize,
    owner_rng: StdRng,
}

impl Schedule for WarmSchedule {
    fn round(&mut self, round: u64) -> Vec<Op> {
        let k = self.templates.len();
        let mut ops: Vec<Op> = (0..k)
            .map(|i| {
                let (template, expect) = &self.templates[(i + self.offset) % k];
                let aliases = ALIASES[(round as usize + i) % ALIASES.len()];
                Op::Query {
                    sql: render(template, aliases),
                    expect: expect.clone(),
                    analyst: true,
                }
            })
            .collect();
        if self.ingests && round.is_multiple_of(WARM_INGEST_EVERY) {
            let owner = self.owner_rng.gen_range(0..WARM_PERSONS);
            ops.push(Op::Ingest {
                table: "notes",
                spec: format!("person=u{owner},tag={round}"),
                rows: vec![Tuple::new([
                    ("person", Value::str(&format!("u{owner}"))),
                    ("tag", Value::Int(round as i64)),
                ])],
            });
            ops.push(self.probe.clone());
        }
        ops
    }
}

// ---------------------------------------------------------------------
// ingest_refresh: deltas beside reads, warm re-release of the touched plan.
// ---------------------------------------------------------------------

const REFRESH_NODES: usize = 128;
const ROWS_PER_INGEST: usize = 4;
const TOWNS: [&str; 3] = ["north", "south", "east"];

fn ingest_refresh(seed: u64) -> Workload {
    let mut rng = rng_for(seed, 3);
    let graph = regular_graph(REFRESH_NODES, DEGREE, &mut rng);
    // Each 2-star becomes one row owned by its lowest-index node, so
    // `COUNT(*)` is a sum of bare owner variables: the warm-exact class.
    let mut owners = Vec::new();
    for centre in 0..REFRESH_NODES as u32 {
        let nb = graph.neighbors(centre);
        for (i, &a) in nb.iter().enumerate() {
            for &b in &nb[i + 1..] {
                owners.push(centre.min(a).min(b) as usize);
            }
        }
    }
    let town_of: Vec<usize> = (0..REFRESH_NODES)
        .map(|_| rng.gen_range(0..TOWNS.len()))
        .collect();

    let owner = |k: usize| Value::str(&format!("n{k}"));
    let mut db = AnnotatedDatabase::new();
    db.insert_table("stars", KRelation::new(["owner", "star"]));
    db.insert_table("towns", KRelation::new(["owner", "town"]));
    db.declare_annotation_rule("stars", AnnotationRule::OwnerColumn("owner".into()));
    db.declare_annotation_rule("towns", AnnotationRule::OwnerColumn("owner".into()));
    db.apply_delta(
        "towns",
        town_of
            .iter()
            .enumerate()
            .map(|(k, &t)| Tuple::new([("owner", owner(k)), ("town", Value::str(TOWNS[t]))])),
    )
    .expect("towns load");
    db.apply_delta(
        "stars",
        owners
            .iter()
            .enumerate()
            .map(|(i, &o)| Tuple::new([("owner", owner(o)), ("star", int(i))])),
    )
    .expect("stars load");
    let snapshot = CatalogSnapshot::shared(db, MechanismParams::paper_edge_privacy(1.0));

    let reports = town_reports(&town_of);
    let mut warmup = vec![Op::Query {
        sql: STARS_SQL.to_owned(),
        expect: Expected::Scalar(owners.len() as f64),
        analyst: false,
    }];
    warmup.extend(reports.iter().map(|(sql, count)| Op::Query {
        sql: sql.clone(),
        expect: Expected::Scalar(*count),
        analyst: false,
    }));
    let schedule = RefreshSchedule {
        stars: owners.len(),
        reports,
        rng: rng_for(seed, 4),
    };
    Workload {
        snapshot,
        server_seed: rng.gen(),
        warmup,
        schedules: vec![Box::new(schedule)],
        traced_rounds: 25,
        memory_rounds: 150,
        reference_nanos: 0,
    }
}

const STARS_SQL: &str = "SELECT COUNT(*) FROM stars";

/// The report over the untouched `towns` table each round sends after the
/// refresh, with its counts: the total and one count per town. Each is its
/// own plan, and each hits.
///
/// The first hits after a refresh run with caches the refresh cooled: the
/// first takes about twice as long as the third and later, the second
/// about 1.3 times. With four hits and the refresh, the second hit holds
/// the middle fifth of a round's releases, so the release median is the
/// median of one query's hits rather than the edge between two modes.
fn town_reports(town_of: &[usize]) -> Vec<(String, f64)> {
    let mut reports = vec![(
        "SELECT COUNT(*) FROM towns".to_owned(),
        town_of.len() as f64,
    )];
    for (t, town) in TOWNS.iter().enumerate() {
        reports.push((
            format!("SELECT COUNT(*) FROM towns WHERE town = '{town}'"),
            town_of.iter().filter(|&&u| u == t).count() as f64,
        ));
    }
    reports
}

struct RefreshSchedule {
    /// Rows in `stars` so far (also the next star id).
    stars: usize,
    /// The untouched-table report: SQL and expected count.
    reports: Vec<(String, f64)>,
    rng: StdRng,
}

impl Schedule for RefreshSchedule {
    fn round(&mut self, _round: u64) -> Vec<Op> {
        let mut rows = Vec::with_capacity(ROWS_PER_INGEST);
        let mut spec = Vec::with_capacity(ROWS_PER_INGEST);
        for _ in 0..ROWS_PER_INGEST {
            let o = self.rng.gen_range(0..REFRESH_NODES);
            rows.push(Tuple::new([
                ("owner", Value::str(&format!("n{o}"))),
                ("star", int(self.stars)),
            ]));
            spec.push(format!("owner=n{o},star={}", self.stars));
            self.stars += 1;
        }
        let mut ops = vec![
            Op::Ingest {
                table: "stars",
                spec: spec.join(";"),
                rows,
            },
            Op::Query {
                sql: STARS_SQL.to_owned(),
                expect: Expected::Scalar(self.stars as f64),
                analyst: true,
            },
        ];
        ops.extend(self.reports.iter().map(|(sql, count)| Op::Query {
            sql: sql.clone(),
            expect: Expected::Scalar(*count),
            analyst: true,
        }));
        ops
    }
}
