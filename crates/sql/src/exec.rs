//! Plan execution over an [`AnnotatedDatabase`].
//!
//! Executing a [`QueryPlan`] produces the annotated output relation: scans
//! are renamed with `ρ`, joins run through the algebra layer's hash
//! theta-join, and residual/`WHERE` predicates run as selections `σ`. The
//! annotations of the output tuples are exactly the provenance expressions
//! the recursive mechanism aggregates — see [`crate::session::SqlSession`]
//! for the private release.

use crate::error::SqlError;
use crate::plan::{PlanAggregate, QueryPlan, ScanStep};
use rmdp_krelation::algebra::{rename, select, theta_join};
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::tuple::{Tuple, Value};
use rmdp_krelation::KRelation;

/// Evaluates `plan` against `db`, returning the annotated output relation.
///
/// The plan must have been produced against the same database schema
/// (`SqlSession` guarantees this); a table dropped between planning and
/// execution surfaces as [`SqlError::UnknownTable`].
pub fn execute(db: &AnnotatedDatabase, plan: &QueryPlan) -> Result<KRelation, SqlError> {
    let mut acc = scan(db, &plan.from)?;
    for step in &plan.joins {
        let right = scan(db, &step.scan)?;
        let joined = theta_join(&acc, &right, &step.equi, |t| {
            step.residual.iter().all(|p| p.matches(t))
        });
        acc = joined;
    }
    if !plan.filter.is_empty() {
        acc = select(&acc, |t| plan.filter.iter().all(|p| p.matches(t)));
    }
    Ok(acc)
}

/// The per-tuple weight function of the plan's aggregate.
///
/// `COUNT(*)` weighs every tuple 1. `SUM(col)` weighs a tuple by its value
/// of `col`; the values must be nonnegative integers (Def. 12 requires
/// nonnegative weights — a negative weight would break the monotonicity of
/// the linear query).
pub fn weigh(plan: &QueryPlan, tuple: &Tuple) -> Result<f64, SqlError> {
    match &plan.aggregate {
        PlanAggregate::CountStar => Ok(1.0),
        PlanAggregate::Sum(attr) => match tuple.get(attr) {
            Some(Value::Int(v)) if *v >= 0 => Ok(*v as f64),
            Some(Value::Int(v)) => Err(SqlError::BadAggregate {
                message: format!(
                    "SUM({attr}) hit the negative value {v}; linear-query weights must be \
                     nonnegative (Def. 12)"
                ),
                span: plan.aggregate_span,
            }),
            Some(other) => Err(SqlError::BadAggregate {
                message: format!("SUM({attr}) hit the non-numeric value {other:?}"),
                span: plan.aggregate_span,
            }),
            None => Err(SqlError::BadAggregate {
                message: format!("SUM({attr}): output tuple lacks the attribute"),
                span: plan.aggregate_span,
            }),
        },
    }
}

fn scan(db: &AnnotatedDatabase, step: &ScanStep) -> Result<KRelation, SqlError> {
    let Some(table) = db.table(&step.table) else {
        return Err(SqlError::UnknownTable {
            name: step.table.clone(),
            span: crate::token::Span::new(0, 0),
            available: db.table_names().into_iter().map(str::to_owned).collect(),
        });
    };
    Ok(rename(table, |attr| {
        step.renames
            .iter()
            .find(|(base, _)| base == attr)
            .map(|(_, qualified)| qualified.clone())
            .unwrap_or_else(|| attr.clone())
    }))
}
