//! SQL frontend errors, all carrying precise source spans.

use crate::token::Span;
use rmdp_core::MechanismError;
use std::fmt;

/// Everything that can go wrong between a SQL string and a DP release.
#[derive(Clone, Debug)]
pub enum SqlError {
    /// The tokenizer hit text it cannot lex.
    Lex {
        /// What went wrong.
        message: String,
        /// Where.
        span: Span,
    },
    /// The token stream does not match the grammar.
    Parse {
        /// What was expected / found.
        message: String,
        /// Offending token.
        span: Span,
    },
    /// A construct that is recognised but outside the positive fragment the
    /// recursive mechanism supports (negation, outer joins, …).
    Unsupported {
        /// The construct's name, e.g. `NOT IN`.
        construct: String,
        /// Why it is rejected.
        reason: String,
        /// Offending token(s).
        span: Span,
    },
    /// `FROM`/`JOIN` references a table the database does not have.
    UnknownTable {
        /// The missing table.
        name: String,
        /// Offending token.
        span: Span,
        /// The tables that do exist (sorted).
        available: Vec<String>,
    },
    /// A column reference that resolves to no visible table.
    UnknownColumn {
        /// The column as written.
        column: String,
        /// Offending token(s).
        span: Span,
    },
    /// An unqualified column that lives in more than one visible table.
    AmbiguousColumn {
        /// The column as written.
        column: String,
        /// Offending token.
        span: Span,
        /// Aliases that all carry the column, in `FROM`/`JOIN` order.
        candidates: Vec<String>,
    },
    /// Two table references share one alias.
    DuplicateAlias {
        /// The repeated alias.
        alias: String,
        /// The second occurrence.
        span: Span,
    },
    /// `SUM` over values that are not (nonnegative) numbers.
    BadAggregate {
        /// What went wrong.
        message: String,
        /// The aggregate's span.
        span: Span,
    },
    /// `GROUP BY` over a column whose table declares no public key domain.
    /// Grouping must range over schema-declared public values — a key set
    /// derived from the data would leak which keys occur.
    UndeclaredGroupDomain {
        /// The grouping key as written.
        column: String,
        /// The base table the key resolves into.
        table: String,
        /// Span of the grouping key.
        span: Span,
    },
    /// `SELECT key` and `GROUP BY key` name different columns.
    GroupKeyMismatch {
        /// The SELECT-list key as written.
        select: String,
        /// The `GROUP BY` key as written.
        group: String,
        /// Span of the SELECT-list key.
        span: Span,
    },
    /// A grouped query reached `SqlSession::evaluate`, which returns one
    /// relation; the message says what to evaluate instead.
    QueryShape {
        /// What went wrong and where to go.
        message: String,
        /// The span of the construct that fixed the query's shape.
        span: Span,
    },
    /// An incremental ingest (`CatalogSnapshot::with_delta`) was rejected:
    /// unknown table, missing annotation rule, or a malformed row. Nothing
    /// was mutated.
    Delta(rmdp_krelation::DeltaError),
    /// The underlying mechanism failed (LP solve, parameter validation, …).
    Mechanism(MechanismError),
    /// The release (or batch of releases) would exceed the session's total
    /// privacy budget; nothing was consumed.
    BudgetExhausted(rmdp_noise::BudgetExhausted),
}

impl SqlError {
    /// The span the error points at, when it has one.
    pub fn span(&self) -> Option<Span> {
        match self {
            SqlError::Lex { span, .. }
            | SqlError::Parse { span, .. }
            | SqlError::Unsupported { span, .. }
            | SqlError::UnknownTable { span, .. }
            | SqlError::UnknownColumn { span, .. }
            | SqlError::AmbiguousColumn { span, .. }
            | SqlError::DuplicateAlias { span, .. }
            | SqlError::BadAggregate { span, .. }
            | SqlError::UndeclaredGroupDomain { span, .. }
            | SqlError::GroupKeyMismatch { span, .. }
            | SqlError::QueryShape { span, .. } => Some(*span),
            SqlError::Delta(_) | SqlError::Mechanism(_) | SqlError::BudgetExhausted(_) => None,
        }
    }

    /// Renders the error with the query text and a caret line underlining the
    /// offending span:
    ///
    /// ```text
    /// error: negation (`NOT`) is not part of positive relational algebra …
    ///   | SELECT COUNT(*) FROM t WHERE NOT a = 1
    ///   |                               ^^^
    /// ```
    pub fn render(&self, sql: &str) -> String {
        let mut out = format!("error: {self}");
        if let Some(span) = self.span() {
            // Work on the line containing the span start.
            let line_start = sql[..span.start.min(sql.len())]
                .rfind('\n')
                .map_or(0, |i| i + 1);
            let line_end = sql[line_start..]
                .find('\n')
                .map_or(sql.len(), |i| line_start + i);
            let line = &sql[line_start..line_end];
            let col = span.start.saturating_sub(line_start);
            let width = span.end.min(line_end).saturating_sub(span.start).max(1);
            out.push_str(&format!("\n  | {line}\n  | "));
            out.push_str(&" ".repeat(col));
            out.push_str(&"^".repeat(width));
        }
        out
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { message, .. } => write!(f, "{message}"),
            SqlError::Parse { message, .. } => write!(f, "{message}"),
            SqlError::Unsupported {
                construct, reason, ..
            } => write!(f, "{construct} is not supported: {reason}"),
            SqlError::UnknownTable {
                name, available, ..
            } => {
                write!(f, "unknown table `{name}`")?;
                if !available.is_empty() {
                    write!(f, " (known tables: {})", available.join(", "))?;
                }
                Ok(())
            }
            SqlError::UnknownColumn { column, .. } => {
                write!(f, "unknown column `{column}`")
            }
            SqlError::AmbiguousColumn {
                column, candidates, ..
            } => write!(
                f,
                "ambiguous column `{column}` (found in {}); qualify it with an alias",
                candidates.join(", ")
            ),
            SqlError::DuplicateAlias { alias, .. } => {
                write!(f, "duplicate table alias `{alias}`")
            }
            SqlError::BadAggregate { message, .. } => write!(f, "{message}"),
            SqlError::UndeclaredGroupDomain { column, table, .. } => write!(
                f,
                "cannot GROUP BY `{column}`: table `{table}` declares no public key domain \
                 for it, and a data-derived key set would leak which keys occur; declare \
                 the domain with `AnnotatedDatabase::declare_public_domain`"
            ),
            SqlError::GroupKeyMismatch { select, group, .. } => write!(
                f,
                "SELECT key `{select}` does not match the GROUP BY key `{group}`"
            ),
            SqlError::QueryShape { message, .. } => write!(f, "{message}"),
            SqlError::Delta(e) => write!(f, "ingest rejected: {e}"),
            SqlError::Mechanism(e) => write!(f, "mechanism error: {e}"),
            SqlError::BudgetExhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<MechanismError> for SqlError {
    fn from(e: MechanismError) -> Self {
        SqlError::Mechanism(e)
    }
}

impl From<rmdp_krelation::DeltaError> for SqlError {
    fn from(e: rmdp_krelation::DeltaError) -> Self {
        SqlError::Delta(e)
    }
}

impl From<rmdp_noise::BudgetExhausted> for SqlError {
    fn from(e: rmdp_noise::BudgetExhausted) -> Self {
        SqlError::BudgetExhausted(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_underlines_the_span() {
        let sql = "SELECT COUNT(*) FROM t WHERE NOT a = 1";
        let err = SqlError::Unsupported {
            construct: "negation (`NOT`)".to_owned(),
            reason: "only positive predicates are allowed".to_owned(),
            span: Span::new(29, 32),
        };
        let rendered = err.render(sql);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("error: negation"));
        assert_eq!(lines[1], format!("  | {sql}"));
        let caret_col = lines[2].find('^').unwrap();
        assert_eq!(&lines[1][caret_col..caret_col + 3], "NOT");
        assert!(lines[2].contains("^^^"));
    }

    #[test]
    fn render_handles_multiline_queries() {
        let sql = "SELECT COUNT(*)\nFROM nope";
        let err = SqlError::UnknownTable {
            name: "nope".to_owned(),
            span: Span::new(21, 25),
            available: vec!["visits".to_owned()],
        };
        let rendered = err.render(sql);
        assert!(rendered.contains("  | FROM nope"));
        assert!(rendered.contains("known tables: visits"));
    }
}
