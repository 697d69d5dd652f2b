//! Multi-attribute selection over several bitmap indexes.
//!
//! The paper's motivation (§1) is DSS processing of *complex* ad-hoc
//! predicates: each attribute's selection is answered by its own bitmap
//! index, and the per-attribute result bitmaps are combined with cheap
//! hardware bitwise operations. [`IndexedTable`] packages that pattern:
//! one [`BitmapIndex`] per attribute, a boolean [`TableQuery`] over them,
//! and cost accounting aggregated across the indexes.
//!
//! ```
//! use bix_core::{
//!     EncodingScheme, IndexConfig, IndexedTable, Query, TableQuery,
//! };
//!
//! // A 6-row sales table: (discount, region).
//! let discount = vec![3u64, 9, 1, 7, 9, 0];
//! let region = vec![0u64, 1, 1, 2, 0, 2];
//!
//! let mut table = IndexedTable::new(6);
//! table.add_attribute(
//!     "discount", &discount,
//!     IndexConfig::one_component(10, EncodingScheme::Interval),
//! );
//! table.add_attribute(
//!     "region", &region,
//!     IndexConfig::one_component(3, EncodingScheme::Equality),
//! );
//!
//! // discount >= 7 AND region IN {0, 1}
//! let q = TableQuery::attr("discount", Query::ge(7, 10))
//!     .and(TableQuery::attr("region", Query::membership(vec![0, 1])));
//! assert_eq!(table.evaluate(&q).to_positions(), vec![1, 4]);
//! ```

use crate::plan::{display_query, AttrSchema, Plan, PlanLiteral, TableSchema};
use crate::{
    BitmapIndex, BufferPool, CostModel, DeltaIndex, EvalResult, EvalStrategy, IndexConfig, IoStats,
    Query,
};
use bix_bitvec::Bitvec;
use std::fmt;

/// A boolean combination of per-attribute selection queries.
#[derive(Debug, Clone, PartialEq)]
pub enum TableQuery {
    /// One attribute's selection, by attribute name.
    Attr {
        /// Attribute name (as registered with [`IndexedTable::add_attribute`]).
        name: String,
        /// The selection on that attribute.
        query: Query,
    },
    /// Conjunction.
    And(Vec<TableQuery>),
    /// Disjunction.
    Or(Vec<TableQuery>),
    /// Complement.
    Not(Box<TableQuery>),
}

impl TableQuery {
    /// A single-attribute predicate.
    pub fn attr(name: impl Into<String>, query: Query) -> TableQuery {
        TableQuery::Attr {
            name: name.into(),
            query,
        }
    }

    /// `self AND other`.
    #[must_use]
    pub fn and(self, other: TableQuery) -> TableQuery {
        match self {
            TableQuery::And(mut children) => {
                children.push(other);
                TableQuery::And(children)
            }
            first => TableQuery::And(vec![first, other]),
        }
    }

    /// `self OR other`.
    #[must_use]
    pub fn or(self, other: TableQuery) -> TableQuery {
        match self {
            TableQuery::Or(mut children) => {
                children.push(other);
                TableQuery::Or(children)
            }
            first => TableQuery::Or(vec![first, other]),
        }
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> TableQuery {
        match self {
            TableQuery::Not(inner) => *inner,
            other => TableQuery::Not(Box::new(other)),
        }
    }
}

impl fmt::Display for TableQuery {
    /// Renders the query in the grammar [`TableQuery::parse`] accepts
    /// (modulo `!`-spelled inner negations on a leaf query).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn needs_parens(q: &TableQuery) -> bool {
            matches!(q, TableQuery::And(_) | TableQuery::Or(_))
        }
        fn child(q: &TableQuery, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if needs_parens(q) {
                write!(f, "({q})")
            } else {
                write!(f, "{q}")
            }
        }
        match self {
            TableQuery::Attr { name, query } => {
                write!(f, "{name} {}", display_query(query))
            }
            TableQuery::Not(inner) => {
                write!(f, "not ")?;
                child(inner, f)
            }
            TableQuery::And(children) => {
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    child(c, f)?;
                }
                Ok(())
            }
            TableQuery::Or(children) => {
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    child(c, f)?;
                }
                Ok(())
            }
        }
    }
}

/// Aggregated cost of a multi-attribute evaluation.
#[derive(Debug, Clone)]
pub struct TableEvalResult {
    /// The matching records.
    pub bitmap: Bitvec,
    /// Bitmap scans summed over all touched indexes.
    pub scans: usize,
    /// Disk activity summed over all touched indexes.
    pub io: IoStats,
    /// Simulated I/O + scaled CPU seconds, summed.
    pub seconds: f64,
}

/// Aggregated cost of executing a rewritten [`Plan`].
#[derive(Debug, Clone)]
pub struct PlanEvalResult {
    /// The matching records (base rows, then any delta rows).
    pub bitmap: Bitvec,
    /// Bitmap scans summed over all evaluated literals.
    pub scans: usize,
    /// Disk activity summed over all evaluated literals.
    pub io: IoStats,
    /// Simulated I/O + scaled CPU seconds, summed.
    pub seconds: f64,
    /// Compressed-bitmap decodes summed over all evaluated literals.
    pub decompressions: usize,
    /// Distinct literals evaluated (shared literals run once however
    /// many clauses reference them).
    pub literals: usize,
}

impl PlanEvalResult {
    /// COUNT pushdown: the number of matching records by popcount,
    /// without materializing row positions.
    pub fn count(&self) -> u64 {
        self.bitmap.count_ones() as u64
    }
}

/// A set of bitmap indexes over the attributes of one relation.
pub struct IndexedTable {
    rows: usize,
    attrs: Vec<(String, BitmapIndex)>,
}

impl IndexedTable {
    /// Creates a table with `rows` records and no indexes yet.
    pub fn new(rows: usize) -> Self {
        IndexedTable {
            rows,
            attrs: Vec::new(),
        }
    }

    /// Builds and registers an index over one attribute's column.
    ///
    /// # Panics
    ///
    /// Panics if the column length differs from the table's row count or
    /// the name is already taken.
    pub fn add_attribute(&mut self, name: &str, column: &[u64], config: IndexConfig) {
        assert_eq!(
            column.len(),
            self.rows,
            "column for {name} has {} rows, table has {}",
            column.len(),
            self.rows
        );
        assert!(
            self.attrs.iter().all(|(n, _)| n != name),
            "attribute {name} already indexed"
        );
        let index = BitmapIndex::build(column, &config);
        self.attrs.push((name.to_string(), index));
    }

    /// Builds and registers an index over a nullable attribute column
    /// (see [`BitmapIndex::build_nullable`]); NULL rows match no
    /// predicate on this attribute.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`IndexedTable::add_attribute`].
    pub fn add_nullable_attribute(
        &mut self,
        name: &str,
        column: &[Option<u64>],
        config: IndexConfig,
    ) {
        assert_eq!(
            column.len(),
            self.rows,
            "column for {name} has {} rows, table has {}",
            column.len(),
            self.rows
        );
        assert!(
            self.attrs.iter().all(|(n, _)| n != name),
            "attribute {name} already indexed"
        );
        let index = BitmapIndex::build_nullable(column, &config);
        self.attrs.push((name.to_string(), index));
    }

    /// Registers an already-built index (the catalog load path).
    ///
    /// # Panics
    ///
    /// Panics if the index's row count differs from the table's or the
    /// name is already taken.
    pub fn add_index(&mut self, name: &str, index: BitmapIndex) {
        assert_eq!(
            index.rows(),
            self.rows,
            "index for {name} has {} rows, table has {}",
            index.rows(),
            self.rows
        );
        assert!(
            self.attrs.iter().all(|(n, _)| n != name),
            "attribute {name} already indexed"
        );
        self.attrs.push((name.to_string(), index));
    }

    /// Number of records.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The table's schema: every attribute's name, cardinality, and
    /// nullability, in registration order (the order [`crate::Planner`]
    /// literals index into).
    pub fn schema(&self) -> TableSchema {
        let mut schema = TableSchema::new();
        for (name, index) in &self.attrs {
            schema.push(AttrSchema {
                name: name.clone(),
                cardinality: index.config().cardinality,
                nullable: index.is_nullable(),
            });
        }
        schema
    }

    /// Registered attribute names, in insertion order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attrs.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Total on-disk bytes across all attribute indexes.
    pub fn space_bytes(&self) -> usize {
        self.attrs.iter().map(|(_, i)| i.space_bytes()).sum()
    }

    /// Access one attribute's index (for per-attribute diagnostics).
    pub fn index_mut(&mut self, name: &str) -> Option<&mut BitmapIndex> {
        self.attrs
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, i)| i)
    }

    /// Shared access to one attribute's index.
    pub fn index(&self, name: &str) -> Option<&BitmapIndex> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, i)| i)
    }

    /// The attribute index at a schema position (what [`PlanLiteral::attr`]
    /// refers to).
    pub fn index_at(&self, position: usize) -> Option<&BitmapIndex> {
        self.attrs.get(position).map(|(_, i)| i)
    }

    /// Iterates over every attribute's index mutably (verify/repair).
    pub fn indexes_mut(&mut self) -> impl Iterator<Item = (&str, &mut BitmapIndex)> {
        self.attrs.iter_mut().map(|(n, i)| (n.as_str(), i))
    }

    /// Evaluates a multi-attribute query with a generous fresh pool per
    /// attribute and default costs, returning the matching records.
    pub fn evaluate(&mut self, q: &TableQuery) -> Bitvec {
        self.evaluate_detailed(q, &CostModel::default()).bitmap
    }

    /// Evaluates with full cost accounting. Each attribute index gets its
    /// own buffer pool (indexes live on separate simulated disks).
    ///
    /// # Panics
    ///
    /// Panics if the query names an attribute that was never registered.
    pub fn evaluate_detailed(&mut self, q: &TableQuery, cost: &CostModel) -> TableEvalResult {
        let rows = self.rows;
        match q {
            TableQuery::Attr { name, query } => {
                let index = self
                    .index_mut(name)
                    .unwrap_or_else(|| panic!("no index on attribute {name}"));
                let mut pool = BufferPool::new(index.config().disk.pages_for_bytes(11 << 20));
                index.reset_stats();
                let r =
                    index.evaluate_detailed(query, &mut pool, EvalStrategy::ComponentWise, cost);
                let seconds = r.total_seconds();
                TableEvalResult {
                    bitmap: r.bitmap,
                    scans: r.scans,
                    io: r.io,
                    seconds,
                }
            }
            TableQuery::And(children) => self.combine(children, cost, Bitvec::and_assign, rows),
            TableQuery::Or(children) => self.combine(children, cost, Bitvec::or_assign, rows),
            TableQuery::Not(inner) => {
                let mut r = self.evaluate_detailed(inner, cost);
                r.bitmap.not_assign();
                r
            }
        }
    }

    /// Executes a rewritten [`Plan`]: every distinct literal is
    /// evaluated once through its attribute's index, then clauses fold
    /// with AND and combine with OR word-wise over the decoded results.
    ///
    /// # Panics
    ///
    /// Panics if a literal's attribute position is out of range (plans
    /// must be built against [`IndexedTable::schema`]).
    pub fn execute_plan(&mut self, plan: &Plan, cost: &CostModel) -> PlanEvalResult {
        self.execute_plan_delta(plan, &[], cost)
    }

    /// [`IndexedTable::execute_plan`] with per-attribute delta-index
    /// overlays. `deltas` is indexed by schema position; `&[]` (or
    /// `None` entries) means no unmerged rows on that attribute. When
    /// any delta is present, every attribute a literal touches must
    /// carry one with the same appended row count, or the per-literal
    /// bitmap lengths disagree and folding panics.
    pub fn execute_plan_delta(
        &mut self,
        plan: &Plan,
        deltas: &[Option<&DeltaIndex>],
        cost: &CostModel,
    ) -> PlanEvalResult {
        let lits = plan.distinct_literals();
        let mut results = Vec::with_capacity(lits.len());
        for lit in &lits {
            let (_, index) = self
                .attrs
                .get_mut(lit.attr)
                .unwrap_or_else(|| panic!("plan literal references attribute {}", lit.attr));
            let mut pool = BufferPool::new(index.config().disk.pages_for_bytes(11 << 20));
            index.reset_stats();
            let mut r =
                index.evaluate_detailed(&lit.query, &mut pool, EvalStrategy::ComponentWise, cost);
            if let Some(delta) = deltas.get(lit.attr).copied().flatten() {
                delta.overlay(&lit.query, &mut r);
            }
            results.push(r);
        }
        self.fold_plan(plan, &lits, results, deltas)
    }

    /// The clause fold shared by the sequential and parallel plan
    /// executors: complements each literal's result where the literal
    /// says so, ANDs within each clause and ORs across clauses, and sums
    /// the per-literal counters. `results` line up with `lits`, the
    /// plan's distinct literals.
    pub(crate) fn fold_plan(
        &self,
        plan: &Plan,
        lits: &[PlanLiteral],
        mut results: Vec<EvalResult>,
        deltas: &[Option<&DeltaIndex>],
    ) -> PlanEvalResult {
        let mut out = PlanEvalResult {
            bitmap: Bitvec::zeros(0),
            scans: 0,
            io: IoStats::new(),
            seconds: 0.0,
            decompressions: 0,
            literals: lits.len(),
        };
        for (lit, r) in lits.iter().zip(&mut results) {
            out.scans += r.scans;
            out.io += r.io;
            out.seconds += r.total_seconds();
            out.decompressions += r.decompressions;
            if lit.complement {
                r.bitmap.not_assign();
            }
        }
        // Constant plans never touch an index; their length is the base
        // table plus whatever any delta appended.
        let total_rows = results.first().map_or_else(
            || self.rows + deltas.iter().flatten().next().map_or(0, |d| d.rows()),
            |r| r.bitmap.len(),
        );
        let lookup = |lit: &PlanLiteral| -> &Bitvec {
            &results[lits
                .iter()
                .position(|l| l == lit)
                .expect("literal evaluated")]
            .bitmap
        };
        let mut acc: Option<Bitvec> = None;
        for clause in &plan.clauses {
            let folded = match clause.split_first() {
                None => Bitvec::ones_vec(total_rows),
                Some((first, rest)) => {
                    let mut b = lookup(first).clone();
                    for lit in rest {
                        b.and_assign(lookup(lit));
                    }
                    b
                }
            };
            match &mut acc {
                None => acc = Some(folded),
                Some(a) => a.or_assign(&folded),
            }
        }
        out.bitmap = acc.unwrap_or_else(|| Bitvec::zeros(total_rows));
        out
    }

    fn combine(
        &mut self,
        children: &[TableQuery],
        cost: &CostModel,
        mut fold: impl FnMut(&mut Bitvec, &Bitvec),
        rows: usize,
    ) -> TableEvalResult {
        let mut acc: Option<TableEvalResult> = None;
        for child in children {
            let r = self.evaluate_detailed(child, cost);
            match &mut acc {
                None => acc = Some(r),
                Some(a) => {
                    fold(&mut a.bitmap, &r.bitmap);
                    a.scans += r.scans;
                    a.io += r.io;
                    a.seconds += r.seconds;
                }
            }
        }
        acc.unwrap_or(TableEvalResult {
            bitmap: Bitvec::zeros(rows),
            scans: 0,
            io: IoStats::new(),
            seconds: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodingScheme;

    fn sample_table() -> (IndexedTable, Vec<u64>, Vec<u64>) {
        let discount: Vec<u64> = vec![3, 9, 1, 7, 9, 0, 5, 2];
        let region: Vec<u64> = vec![0, 1, 1, 2, 0, 2, 1, 0];
        let mut table = IndexedTable::new(8);
        table.add_attribute(
            "discount",
            &discount,
            IndexConfig::one_component(10, EncodingScheme::Interval),
        );
        table.add_attribute(
            "region",
            &region,
            IndexConfig::one_component(3, EncodingScheme::Equality),
        );
        (table, discount, region)
    }

    #[test]
    fn and_or_not_match_row_semantics() {
        let (mut table, discount, region) = sample_table();
        let q = TableQuery::attr("discount", Query::range(2, 7))
            .and(TableQuery::attr("region", Query::equality(0)).not());
        let got = table.evaluate(&q).to_positions();
        let expect: Vec<usize> = (0..8)
            .filter(|&i| (2..=7).contains(&discount[i]) && region[i] != 0)
            .collect();
        assert_eq!(got, expect);

        let q = TableQuery::attr("discount", Query::le(1))
            .or(TableQuery::attr("region", Query::equality(2)));
        let got = table.evaluate(&q).to_positions();
        let expect: Vec<usize> = (0..8)
            .filter(|&i| discount[i] <= 1 || region[i] == 2)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn costs_aggregate_across_attributes() {
        let (mut table, _, _) = sample_table();
        let disc_only = table.evaluate_detailed(
            &TableQuery::attr("discount", Query::range(2, 7)),
            &CostModel::default(),
        );
        let both = table.evaluate_detailed(
            &TableQuery::attr("discount", Query::range(2, 7))
                .and(TableQuery::attr("region", Query::equality(1))),
            &CostModel::default(),
        );
        assert!(both.scans > disc_only.scans);
        assert!(both.io.pages_read > disc_only.io.pages_read);
        assert!(both.seconds > disc_only.seconds);
    }

    #[test]
    fn nullable_attribute_in_a_table() {
        // Ship dates are NULL for unshipped orders; "NOT shipped before
        // day 5" must still exclude the unshipped rows on that attribute.
        let region: Vec<u64> = vec![0, 1, 0, 1, 0];
        let ship_day: Vec<Option<u64>> = vec![Some(2), None, Some(7), Some(4), None];
        let mut table = IndexedTable::new(5);
        table.add_attribute(
            "region",
            &region,
            IndexConfig::one_component(2, EncodingScheme::Equality),
        );
        table.add_nullable_attribute(
            "ship_day",
            &ship_day,
            IndexConfig::one_component(10, EncodingScheme::Interval),
        );
        // shipped on day >= 5 AND region 0 -> only row 2.
        let q = TableQuery::attr("ship_day", Query::ge(5, 10))
            .and(TableQuery::attr("region", Query::equality(0)));
        assert_eq!(table.evaluate(&q).to_positions(), vec![2]);
        // NOT (shipped before day 5) still excludes NULL ship days at the
        // attribute level.
        let q = TableQuery::attr("ship_day", Query::le(4).not());
        assert_eq!(table.evaluate(&q).to_positions(), vec![2]);
    }

    #[test]
    fn builder_style_chaining_flattens() {
        let q = TableQuery::attr("a", Query::equality(1))
            .and(TableQuery::attr("b", Query::equality(2)))
            .and(TableQuery::attr("c", Query::equality(3)));
        match q {
            TableQuery::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn space_sums_over_attribute_indexes() {
        let (table, _, _) = sample_table();
        assert_eq!(
            table.space_bytes(),
            (EncodingScheme::Interval.num_bitmaps(10) + EncodingScheme::Equality.num_bitmaps(3))
        );
        assert_eq!(table.attribute_names(), vec!["discount", "region"]);
    }

    #[test]
    #[should_panic(expected = "no index on attribute")]
    fn unknown_attribute_panics() {
        let (mut table, _, _) = sample_table();
        table.evaluate(&TableQuery::attr("missing", Query::equality(0)));
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn duplicate_attribute_panics() {
        let (mut table, discount, _) = sample_table();
        table.add_attribute(
            "discount",
            &discount,
            IndexConfig::one_component(10, EncodingScheme::Equality),
        );
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn wrong_column_length_panics() {
        let mut table = IndexedTable::new(5);
        table.add_attribute(
            "x",
            &[1, 2],
            IndexConfig::one_component(10, EncodingScheme::Equality),
        );
    }
}
