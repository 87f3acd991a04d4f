//! The PPF-based XPath→SQL translation (paper §4, Algorithm 1).
//!
//! The translator walks the backbone path PPF by PPF, gradually building a
//! SQL statement:
//!
//! * **forward PPFs** join their prominent relation with `Paths` and
//!   filter the root-to-node path with a regular expression covering the
//!   maximal known forward path (§4.1/§4.3);
//! * **backward PPFs** refine the *previous* PPF's path filter and join
//!   the ancestor relation structurally (§4.3, Table 3-3);
//! * **order-axis PPFs** (following/preceding/…-sibling) constrain the
//!   path's last segment and use the Dewey conditions of Table 2;
//! * consecutive PPFs are joined by **foreign keys** (single child/parent
//!   steps) or **Dewey `BETWEEN`/`<`/`>` comparisons** (§4.2);
//! * predicates become conditions / `EXISTS` subselects with the same
//!   machinery, predicates that are pure backward paths fold into the
//!   path filter (Table 5-2);
//! * ambiguous prominent steps split the statement into a `UNION`
//!   (§4.4) — but only at the backbone; in predicates they become `OR`s
//!   of `EXISTS`;
//! * the §4.5 marking (U-P/F-P/I-P) omits provably redundant path
//!   filters (toggleable, for the ablation benchmark).
//!
//! The same translator drives both the schema-aware and the Edge-like
//! mapping ([`Mapping`]).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use shred::naming::*;
use sqlexec::{
    CmpOp, Expr as Sql, OrderKey, Projection, RegexPattern, Select, SelectStmt, TableRef,
};
use xmlschema::{Marking, PathMark, Schema, ValueType};
use xpath::{Axis, CompOp, Expr as XExpr, LocationPath, NodeTest, Step};

use crate::nav::{self, Candidates};
use crate::pattern::{constrain_last, proper_cuts, split_last, PatTest, Pattern, PatternSet};
use crate::ppf::{split_ppfs, Ppf, PpfKind};

/// Which shredded layout the translation targets.
#[derive(Clone, Copy)]
pub enum Mapping<'a> {
    SchemaAware {
        schema: &'a Schema,
        marking: &'a Marking,
    },
    EdgeLike,
}

/// Translation options.
#[derive(Debug, Clone, Copy)]
pub struct TranslateOptions {
    /// Apply the §4.5 path-filter omission (U-P/F-P/I-P marking).
    /// Ignored for the Edge-like mapping (which has no schema).
    pub use_path_marking: bool,
    /// Use foreign-key joins for single child/parent steps (§4.2: "Our
    /// algorithm uses the second way, because it is expected to be
    /// faster"). Off = always Dewey joins, for the ablation benchmark.
    pub use_fk_joins: bool,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            use_path_marking: true,
            use_fk_joins: true,
        }
    }
}

/// What the result rows represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// `id`, `dewey_pos` of the selected elements.
    Elements,
    /// plus a `value` column holding a selected attribute.
    AttributeValue,
    /// plus a `value` column holding text content.
    TextValue,
}

/// The result of translation.
#[derive(Debug, Clone)]
pub struct Translation {
    /// `None` when the query is statically empty (infeasible against the
    /// schema).
    pub stmt: Option<SelectStmt>,
    pub output: OutputKind,
    /// Total primitive path fragments identified across every branch and
    /// predicate path (an observability counter: "how much holistic path
    /// evaluation did this query get").
    pub ppf_count: usize,
    /// Distinct `REGEXP_LIKE` patterns compiled: one per pattern text the
    /// §4.5 marking checks and the emitted SQL use.
    pub regex_compiles: usize,
}

/// Translation failure (query outside the supported subset, or schema
/// mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError(pub String);

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XPath-to-SQL translation error: {}", self.0)
    }
}

impl std::error::Error for TranslateError {}

/// Hard cap on UNION branches produced by SQL splitting.
const MAX_BRANCHES: usize = 128;

/// Translate a full XPath expression (path or union of paths).
pub fn translate(
    expr: &XExpr,
    mapping: Mapping<'_>,
    opts: TranslateOptions,
) -> Result<Translation, TranslateError> {
    let paths: Vec<&LocationPath> = match expr {
        XExpr::Path(p) => vec![p],
        XExpr::Union(ps) => ps.iter().collect(),
        other => {
            return Err(TranslateError(format!(
                "top-level expression must be a path, got `{other}`"
            )))
        }
    };
    let mut ctx = Ctx {
        mapping,
        opts,
        alias_seq: HashMap::new(),
        ppf_count: 0,
        patterns: HashMap::new(),
    };
    let mut selects: Vec<Select> = Vec::new();
    let mut output: Option<OutputKind> = None;
    for p in paths {
        if !p.absolute {
            return Err(TranslateError(
                "top-level paths must be absolute".to_string(),
            ));
        }
        let (branch_selects, kind) = ctx.translate_top_path(p)?;
        match output {
            None => output = Some(kind),
            Some(k) if k == kind => {}
            Some(_) => {
                return Err(TranslateError(
                    "union branches select different result kinds".to_string(),
                ))
            }
        }
        selects.extend(branch_selects);
    }
    let output = output.unwrap_or(OutputKind::Elements);
    if selects.is_empty() {
        return Ok(Translation {
            stmt: None,
            output,
            ppf_count: ctx.ppf_count,
            regex_compiles: ctx.patterns.len(),
        });
    }
    Ok(Translation {
        stmt: Some(SelectStmt {
            branches: selects,
            order_by: vec![OrderKey {
                expr: Sql::Column {
                    qualifier: None,
                    name: "dewey_pos".to_string(),
                },
                desc: false,
            }],
        }),
        output,
        ppf_count: ctx.ppf_count,
        regex_compiles: ctx.patterns.len(),
    })
}

/// Reference to a bound relation (the prominent relation of the previous
/// PPF, or the predicated node inside predicates).
#[derive(Clone)]
struct NodeRef {
    alias: String,
    relation: String,
    pattern: PatternSet,
    /// `None` for the Edge-like mapping (no schema to navigate).
    candidates: Option<Candidates>,
    paths_alias: Option<String>,
    /// Index of this node's path-filter conjunct within the branch,
    /// so backward PPFs can replace it with a refined filter.
    filter_idx: Option<usize>,
}

/// Context for translating `position()` predicates: the axis and node
/// test of the predicated step (position is only sound in a step's first
/// predicate, so this is only provided there).
#[derive(Clone)]
struct PosInfo {
    axis: Axis,
    test: NodeTest,
}

/// One in-progress SQL branch (pre-UNION).
#[derive(Clone)]
struct Branch {
    from: Vec<TableRef>,
    conjuncts: Vec<Sql>,
    prev: Option<NodeRef>,
}

impl Branch {
    fn push(&mut self, cond: Sql) -> Option<usize> {
        match cond {
            Sql::Literal(relstore::Value::Bool(true)) => None,
            c => {
                self.conjuncts.push(c);
                Some(self.conjuncts.len() - 1)
            }
        }
    }

    fn is_statically_false(&self) -> bool {
        self.conjuncts
            .iter()
            .any(|c| matches!(c, Sql::Literal(relstore::Value::Bool(false))))
    }
}

struct Ctx<'a> {
    mapping: Mapping<'a>,
    opts: TranslateOptions,
    alias_seq: HashMap<String, usize>,
    ppf_count: usize,
    /// Every `REGEXP_LIKE` pattern compiled so far, by text: the §4.5
    /// marking checks and the emitted SQL share one program per text.
    patterns: HashMap<String, RegexPattern>,
}

const TRUE: Sql = Sql::Literal(relstore::Value::Bool(true));
const FALSE: Sql = Sql::Literal(relstore::Value::Bool(false));

fn ff_byte() -> Sql {
    Sql::Literal(relstore::Value::Bytes(vec![0xFF]))
}

fn col(alias: &str, name: &str) -> Sql {
    Sql::column(alias, name)
}

fn test_name(test: &NodeTest) -> Result<Option<&str>, TranslateError> {
    match test {
        NodeTest::Name(n) => Ok(Some(n.as_str())),
        NodeTest::Wildcard | NodeTest::AnyNode => Ok(None),
        NodeTest::Text => Err(TranslateError(
            "text() node test not allowed here".to_string(),
        )),
    }
}

/// Node test in pattern space (`*` ≠ `node()`: only the latter accepts
/// the document root).
fn pat_test(test: &NodeTest) -> Result<PatTest, TranslateError> {
    match test {
        NodeTest::Name(n) => Ok(PatTest::Name(n.clone())),
        NodeTest::Wildcard => Ok(PatTest::AnyElement),
        NodeTest::AnyNode => Ok(PatTest::AnyNode),
        NodeTest::Text => Err(TranslateError(
            "text() node test not allowed here".to_string(),
        )),
    }
}

fn cmp_op(op: CompOp) -> CmpOp {
    match op {
        CompOp::Eq => CmpOp::Eq,
        CompOp::Ne => CmpOp::Ne,
        CompOp::Lt => CmpOp::Lt,
        CompOp::Le => CmpOp::Le,
        CompOp::Gt => CmpOp::Gt,
        CompOp::Ge => CmpOp::Ge,
    }
}

fn literal_value(e: &XExpr) -> Option<relstore::Value> {
    match e {
        XExpr::Literal(s) => Some(relstore::Value::Str(s.clone())),
        XExpr::Number(n) => Some(if n.fract() == 0.0 && n.is_finite() {
            relstore::Value::Int(*n as i64)
        } else {
            relstore::Value::Float(*n)
        }),
        _ => None,
    }
}

/// How to use the value of a path inside a predicate.
enum ValueCond {
    /// Bare existence.
    Exists,
    /// Compare the value column with a literal, possibly through an
    /// arithmetic wrapper (the wrapper maps the column expression to the
    /// comparison's left side).
    Cmp {
        op: CmpOp,
        rhs: relstore::Value,
        wrap: Option<Box<dyn Fn(Sql) -> Sql>>,
    },
    /// `contains(value, needle)` (an unanchored pattern) or
    /// `starts-with(value, prefix)` (an anchored one).
    Matches(RegexPattern),
}

impl<'a> Ctx<'a> {
    fn fresh_alias(&mut self, base: &str) -> String {
        let n = self.alias_seq.entry(base.to_string()).or_insert(0);
        *n += 1;
        if *n == 1 {
            base.to_string()
        } else {
            format!("{base}_{n}")
        }
    }

    /// The compiled program for `text`, compiled at most once per
    /// translation.
    fn compile_pattern(&mut self, text: String) -> Result<RegexPattern, TranslateError> {
        match self.patterns.entry(text) {
            Entry::Occupied(e) => Ok(e.get().clone()),
            Entry::Vacant(e) => {
                let pattern = RegexPattern::new(e.key())
                    .map_err(|err| TranslateError(format!("internal regex error: {err}")))?;
                Ok(e.insert(pattern).clone())
            }
        }
    }

    fn is_schema_aware(&self) -> bool {
        matches!(self.mapping, Mapping::SchemaAware { .. })
    }

    fn schema(&self) -> Option<&'a Schema> {
        match self.mapping {
            Mapping::SchemaAware { schema, .. } => Some(schema),
            Mapping::EdgeLike => None,
        }
    }

    // ----- top level -----

    fn translate_top_path(
        &mut self,
        path: &LocationPath,
    ) -> Result<(Vec<Select>, OutputKind), TranslateError> {
        let mut steps = path.steps.clone();
        // Trailing text() step selects the text value.
        let mut output = OutputKind::Elements;
        if let Some(last) = steps.last() {
            if last.test == NodeTest::Text {
                if last.axis != Axis::Child || !last.predicates.is_empty() {
                    return Err(TranslateError(
                        "text() is only supported as a plain final step".to_string(),
                    ));
                }
                steps.pop();
                output = OutputKind::TextValue;
            }
        }
        if steps.is_empty() {
            return Err(TranslateError(
                "the root path `/` alone is not a relational query".to_string(),
            ));
        }
        let split = split_ppfs(&steps).map_err(|e| TranslateError(e.to_string()))?;
        self.ppf_count += split.ppfs.len();
        if split.trailing_attribute.is_some() {
            if output != OutputKind::Elements {
                return Err(TranslateError("conflicting terminal steps".to_string()));
            }
            output = OutputKind::AttributeValue;
        }

        let branches = self.build_ppfs(None, &split.ppfs)?;
        let mut selects = Vec::new();
        for mut branch in branches {
            let node = branch.prev.clone().expect("non-empty path has a prominent");
            let mut projections = vec![
                Projection {
                    expr: col(&node.alias, COL_ID),
                    alias: Some("id".to_string()),
                },
                Projection {
                    expr: col(&node.alias, COL_DEWEY),
                    alias: Some("dewey_pos".to_string()),
                },
            ];
            match (&split.trailing_attribute, output) {
                (Some(attr_step), _) => {
                    let name = test_name(&attr_step.test)?;
                    match self.attr_value_expr(&mut branch, &node, name)? {
                        Some(value) => {
                            let not_null = Sql::IsNull {
                                expr: Box::new(value.clone()),
                                negated: true,
                            };
                            branch.push(not_null);
                            projections.push(Projection {
                                expr: value,
                                alias: Some("value".to_string()),
                            });
                        }
                        None => continue, // relation has no such attribute
                    }
                }
                (None, OutputKind::TextValue) => {
                    match self.text_value_expr(&node) {
                        Some(value) => {
                            branch.push(Sql::IsNull {
                                expr: Box::new(value.clone()),
                                negated: true,
                            });
                            projections.push(Projection {
                                expr: value,
                                alias: Some("value".to_string()),
                            });
                        }
                        None => continue, // element can hold no text
                    }
                }
                _ => {}
            }
            if branch.is_statically_false() {
                continue;
            }
            selects.push(Select {
                distinct: true,
                projections,
                from: branch.from,
                where_clause: conjoin(branch.conjuncts),
            });
        }
        Ok((selects, output))
    }

    // ----- PPF pipeline -----

    /// Process a PPF sequence starting from `initial` (None = document
    /// root). Returns the surviving branches, each with its final
    /// prominent node in `prev`.
    fn build_ppfs(
        &mut self,
        initial: Option<&NodeRef>,
        ppfs: &[Ppf],
    ) -> Result<Vec<Branch>, TranslateError> {
        let mut branches = vec![Branch {
            from: Vec::new(),
            conjuncts: Vec::new(),
            prev: initial.cloned(),
        }];
        for ppf in ppfs {
            let mut next: Vec<Branch> = Vec::new();
            for branch in branches {
                next.extend(self.process_ppf(branch, ppf)?);
            }
            if next.len() > MAX_BRANCHES {
                return Err(TranslateError(format!(
                    "SQL splitting produced more than {MAX_BRANCHES} branches"
                )));
            }
            branches = next;
        }
        Ok(branches)
    }

    fn process_ppf(&mut self, branch: Branch, ppf: &Ppf) -> Result<Vec<Branch>, TranslateError> {
        match ppf.kind {
            PpfKind::Forward => self.process_forward(branch, ppf),
            PpfKind::Backward => self.process_backward(branch, ppf),
            PpfKind::Order(axis) => self.process_order(branch, ppf, axis),
        }
    }

    fn process_forward(
        &mut self,
        branch: Branch,
        ppf: &Ppf,
    ) -> Result<Vec<Branch>, TranslateError> {
        // Walk pattern and candidates over the steps.
        let mut pattern = match &branch.prev {
            Some(p) => p.pattern.clone(),
            None => PatternSet::root(),
        };
        let mut cands = match (&branch.prev, self.schema()) {
            (Some(p), Some(_)) => p
                .candidates
                .clone()
                .expect("schema-aware tracks candidates"),
            (None, Some(_)) => Candidates::at_root(),
            _ => Candidates::at_root(), // unused for EdgeLike
        };
        for step in &ppf.steps {
            let test = pat_test(&step.test)?;
            pattern = match step.axis {
                Axis::Child => pattern.child(&test),
                Axis::Descendant => pattern.descendant(&test),
                Axis::DescendantOrSelf => pattern.descendant_or_self(&test),
                Axis::SelfAxis => pattern.self_axis(&test),
                other => unreachable!("forward PPF with axis {other:?}"),
            };
            if let Some(schema) = self.schema() {
                cands = nav::advance(schema, &cands, step);
            }
        }
        let relations = self.relations_for(&cands);
        let mut out = Vec::new();
        for relation in relations {
            let mut b = branch.clone();
            let refined = if self.is_schema_aware() {
                pattern.self_axis(&PatTest::Name(relation.clone()))
            } else {
                pattern.clone()
            };
            if refined.is_infeasible() {
                continue;
            }
            let alias = self.fresh_alias(&relation);
            b.from.push(TableRef::new(&relation, &alias));
            let mut node = NodeRef {
                alias,
                relation: relation.clone(),
                pattern: refined,
                candidates: self
                    .schema()
                    .map(|_| Candidates::from_names(vec![relation.clone()])),
                paths_alias: None,
                filter_idx: None,
            };
            if !self.apply_path_filter(&mut b, &mut node)? {
                continue;
            }
            let context = b.prev.clone();
            if let Some(prev) = &context {
                self.join_forward(&mut b, prev, &node, ppf);
            }
            b.prev = Some(node.clone());
            if !self.apply_predicates(&mut b, ppf, context.as_ref())? {
                continue;
            }
            out.push(b);
        }
        Ok(out)
    }

    fn process_backward(
        &mut self,
        branch: Branch,
        ppf: &Ppf,
    ) -> Result<Vec<Branch>, TranslateError> {
        let Some(prev) = branch.prev.clone() else {
            // Backward from the document root selects nothing.
            return Ok(Vec::new());
        };
        // Walk (context, suffix) pairs upward.
        let mut pairs: Vec<(Pattern, Pattern)> = prev
            .pattern
            .alts
            .iter()
            .map(|p| (p.clone(), Vec::new()))
            .collect();
        let mut cands = prev.candidates.clone().unwrap_or_else(Candidates::at_root);
        for step in &ppf.steps {
            let test = pat_test(&step.test)?;
            let mut next: Vec<(Pattern, Pattern)> = Vec::new();
            for (ctxp, suffix) in &pairs {
                backward_step(&mut next, ctxp, suffix, step.axis, &test);
            }
            // Deduplicate to keep the pair set small.
            next.sort();
            next.dedup();
            if next.len() > 64 {
                // Widen conservatively: unconstrained ancestor position.
                let last = match &test {
                    PatTest::Name(n) => crate::pattern::Seg::Name(n.clone()),
                    _ => crate::pattern::Seg::AnyOne,
                };
                next = vec![(
                    vec![crate::pattern::Seg::Gap, last],
                    vec![crate::pattern::Seg::Gap, crate::pattern::Seg::AnyOne],
                )];
            }
            pairs = next;
            if let Some(schema) = self.schema() {
                cands = nav::advance(schema, &cands, step);
            }
        }

        let relations = self.relations_for(&cands);
        let mut out = Vec::new();
        for relation in relations {
            let mut b = branch.clone();
            // Refine the context patterns to the chosen relation.
            let rel_pairs: Vec<(Pattern, Pattern)> = if self.is_schema_aware() {
                pairs
                    .iter()
                    .flat_map(|(c, s)| {
                        constrain_last(c, &PatTest::Name(relation.clone()))
                            .into_iter()
                            .map(|c2| (c2, s.clone()))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            } else {
                pairs.clone()
            };
            if rel_pairs.is_empty() {
                continue;
            }
            let ctx_set = PatternSet::from_alts(rel_pairs.iter().map(|(c, _)| c.clone()).collect());
            let prev_refined = PatternSet::from_alts(
                rel_pairs
                    .iter()
                    .map(|(c, s)| {
                        let mut whole = c.clone();
                        whole.extend(s.iter().cloned());
                        whole
                    })
                    .collect(),
            );
            if ctx_set.is_infeasible() || prev_refined.is_infeasible() {
                continue;
            }
            // Refine the previous PPF's path filter (Algorithm 1 lines 4-5).
            let mut prev_node = prev.clone();
            prev_node.pattern = prev_refined;
            if !self.refresh_path_filter(&mut b, &mut prev_node)? {
                continue;
            }

            let alias = self.fresh_alias(&relation);
            b.from.push(TableRef::new(&relation, &alias));
            let node = NodeRef {
                alias: alias.clone(),
                relation: relation.clone(),
                pattern: ctx_set,
                candidates: self
                    .schema()
                    .map(|_| Candidates::from_names(vec![relation.clone()])),
                paths_alias: None,
                filter_idx: None,
            };
            // In the schema-aware mapping the ancestor's relation pins its
            // element name; the Edge mapping needs an explicit name filter.
            if matches!(self.mapping, Mapping::EdgeLike) {
                if let Some(n) = test_name(&ppf.prominent_step().test)? {
                    b.push(Sql::eq(col(&alias, EDGE_NAME), Sql::str(n)));
                }
            }
            // Structural join (lines 8-14): single parent step → FK.
            if ppf.is_single_step() && ppf.steps[0].axis == Axis::Parent && self.opts.use_fk_joins {
                b.push(Sql::eq(col(&alias, COL_ID), col(&prev_node.alias, COL_PAR)));
            } else {
                let or_self = min_levels_backward(&ppf.steps) == 0;
                self.push_ancestor_join(&mut b, &prev_node, &node, or_self);
            }
            b.prev = Some(node);
            if !self.apply_predicates(&mut b, ppf, Some(&prev_node))? {
                continue;
            }
            out.push(b);
        }
        Ok(out)
    }

    fn process_order(
        &mut self,
        branch: Branch,
        ppf: &Ppf,
        axis: Axis,
    ) -> Result<Vec<Branch>, TranslateError> {
        let Some(prev) = branch.prev.clone() else {
            return Err(TranslateError(format!(
                "`{}` axis cannot start a path",
                axis.name()
            )));
        };
        let step = &ppf.steps[0];
        let pattern = PatternSet::ending_with(&pat_test(&step.test)?);
        let cands = match self.schema() {
            Some(schema) => {
                let cur = prev.candidates.clone().unwrap_or_else(Candidates::at_root);
                nav::advance(schema, &cur, step)
            }
            None => Candidates::at_root(),
        };
        let relations = self.relations_for(&cands);
        let mut out = Vec::new();
        for relation in relations {
            let mut b = branch.clone();
            let refined = if self.is_schema_aware() {
                pattern.self_axis(&PatTest::Name(relation.clone()))
            } else {
                pattern.clone()
            };
            if refined.is_infeasible() {
                continue;
            }
            let alias = self.fresh_alias(&relation);
            b.from.push(TableRef::new(&relation, &alias));
            let mut node = NodeRef {
                alias: alias.clone(),
                relation: relation.clone(),
                pattern: refined,
                candidates: self
                    .schema()
                    .map(|_| Candidates::from_names(vec![relation.clone()])),
                paths_alias: None,
                filter_idx: None,
            };
            // Path restriction of Algorithm 1 lines 6-7 (subject to
            // marking).
            if !self.apply_path_filter(&mut b, &mut node)? {
                continue;
            }
            // Table 2 rows 3-6.
            match axis {
                Axis::Following => {
                    b.push(Sql::cmp(
                        CmpOp::Gt,
                        col(&alias, COL_DEWEY),
                        Sql::Concat(Box::new(col(&prev.alias, COL_DEWEY)), Box::new(ff_byte())),
                    ));
                }
                Axis::Preceding => {
                    b.push(Sql::cmp(
                        CmpOp::Gt,
                        col(&prev.alias, COL_DEWEY),
                        Sql::Concat(Box::new(col(&alias, COL_DEWEY)), Box::new(ff_byte())),
                    ));
                }
                Axis::FollowingSibling => {
                    b.push(Sql::cmp(
                        CmpOp::Gt,
                        col(&alias, COL_DEWEY),
                        col(&prev.alias, COL_DEWEY),
                    ));
                    b.push(Sql::eq(col(&alias, COL_PAR), col(&prev.alias, COL_PAR)));
                }
                Axis::PrecedingSibling => {
                    b.push(Sql::cmp(
                        CmpOp::Lt,
                        col(&alias, COL_DEWEY),
                        col(&prev.alias, COL_DEWEY),
                    ));
                    b.push(Sql::eq(col(&alias, COL_PAR), col(&prev.alias, COL_PAR)));
                }
                other => unreachable!("order PPF with axis {other:?}"),
            }
            b.prev = Some(node);
            if !self.apply_predicates(&mut b, ppf, Some(&prev))? {
                continue;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Relations that can hold the prominent step's elements.
    fn relations_for(&self, cands: &Candidates) -> Vec<String> {
        match self.mapping {
            Mapping::SchemaAware { .. } => cands.names.iter().cloned().collect(),
            Mapping::EdgeLike => vec![EDGE_TABLE.to_string()],
        }
    }

    // ----- joins -----

    fn join_forward(&mut self, b: &mut Branch, prev: &NodeRef, cur: &NodeRef, ppf: &Ppf) {
        let steps = &ppf.steps;
        if steps.len() == 1 && steps[0].axis == Axis::Child && self.opts.use_fk_joins {
            b.push(Sql::eq(col(&cur.alias, COL_PAR), col(&prev.alias, COL_ID)));
            return;
        }
        if steps.len() == 1 && steps[0].axis == Axis::Child {
            // Ablation mode: Dewey join restricted to one level down via
            // the strict descendant window (correct because the path
            // filter pins the depth relative to the parent's path).
            b.push(Sql::cmp(
                CmpOp::Gt,
                col(&cur.alias, COL_DEWEY),
                col(&prev.alias, COL_DEWEY),
            ));
            b.push(Sql::cmp(
                CmpOp::Lt,
                col(&cur.alias, COL_DEWEY),
                Sql::Concat(Box::new(col(&prev.alias, COL_DEWEY)), Box::new(ff_byte())),
            ));
            return;
        }
        if steps.iter().all(|s| s.axis == Axis::SelfAxis) {
            b.push(Sql::eq(col(&cur.alias, COL_ID), col(&prev.alias, COL_ID)));
            return;
        }
        let or_self = min_levels_forward(steps) == 0;
        // cur is a descendant(-or-self) of prev.
        if or_self {
            b.push(Sql::Between {
                expr: Box::new(col(&cur.alias, COL_DEWEY)),
                lo: Box::new(col(&prev.alias, COL_DEWEY)),
                hi: Box::new(Sql::Concat(
                    Box::new(col(&prev.alias, COL_DEWEY)),
                    Box::new(ff_byte()),
                )),
                negated: false,
            });
        } else {
            b.push(Sql::cmp(
                CmpOp::Gt,
                col(&cur.alias, COL_DEWEY),
                col(&prev.alias, COL_DEWEY),
            ));
            b.push(Sql::cmp(
                CmpOp::Lt,
                col(&cur.alias, COL_DEWEY),
                Sql::Concat(Box::new(col(&prev.alias, COL_DEWEY)), Box::new(ff_byte())),
            ));
        }
    }

    /// prev is a descendant(-or-self) of cur (the ancestor).
    fn push_ancestor_join(&mut self, b: &mut Branch, prev: &NodeRef, cur: &NodeRef, or_self: bool) {
        if or_self {
            b.push(Sql::Between {
                expr: Box::new(col(&prev.alias, COL_DEWEY)),
                lo: Box::new(col(&cur.alias, COL_DEWEY)),
                hi: Box::new(Sql::Concat(
                    Box::new(col(&cur.alias, COL_DEWEY)),
                    Box::new(ff_byte()),
                )),
                negated: false,
            });
        } else {
            b.push(Sql::cmp(
                CmpOp::Gt,
                col(&prev.alias, COL_DEWEY),
                col(&cur.alias, COL_DEWEY),
            ));
            b.push(Sql::cmp(
                CmpOp::Lt,
                col(&prev.alias, COL_DEWEY),
                Sql::Concat(Box::new(col(&cur.alias, COL_DEWEY)), Box::new(ff_byte())),
            ));
        }
    }

    // ----- path filters (§4.1 + §4.5) -----

    /// Add (or statically resolve) the root-to-node path filter for
    /// `node`. Returns false when the branch is infeasible.
    fn apply_path_filter(
        &mut self,
        b: &mut Branch,
        node: &mut NodeRef,
    ) -> Result<bool, TranslateError> {
        let Some(regex) = node.pattern.to_regex() else {
            return Ok(false);
        };
        if let (Mapping::SchemaAware { marking, .. }, true) =
            (self.mapping, self.opts.use_path_marking)
        {
            match marking.mark(&node.relation) {
                Some(PathMark::Unique(p)) => {
                    return Ok(self.compile_pattern(regex)?.is_match(p));
                }
                Some(PathMark::Finite(ps)) => {
                    let pattern = self.compile_pattern(regex)?;
                    let matched = ps.iter().filter(|p| pattern.is_match(p)).count();
                    if matched == ps.len() {
                        return Ok(true); // filter redundant
                    }
                    if matched == 0 {
                        return Ok(false); // statically empty
                    }
                    // fall through: filter needed
                }
                _ => {}
            }
        }
        self.add_path_filter(b, node)?;
        Ok(true)
    }

    /// Unconditionally join `node` with `Paths` and filter by its pattern.
    fn add_path_filter(
        &mut self,
        b: &mut Branch,
        node: &mut NodeRef,
    ) -> Result<(), TranslateError> {
        let pa = match &node.paths_alias {
            Some(pa) => pa.clone(),
            None => {
                let pa = self.fresh_alias(&format!("{}_Paths", node.alias));
                b.from.push(TableRef::new(PATHS_TABLE, &pa));
                b.push(Sql::eq(col(&node.alias, COL_PATH), col(&pa, PATHS_ID)));
                node.paths_alias = Some(pa.clone());
                pa
            }
        };
        let cond = self.path_condition(&pa, &node.pattern)?;
        node.filter_idx = b.push(cond);
        Ok(())
    }

    /// Path filter condition: exact string equality when the pattern is a
    /// single fixed path (Table 3-2), else `REGEXP_LIKE` (Table 3-1).
    fn path_condition(
        &mut self,
        paths_alias: &str,
        pattern: &PatternSet,
    ) -> Result<Sql, TranslateError> {
        if let Some(exact) = pattern.exact_path() {
            return Ok(Sql::eq(col(paths_alias, PATHS_PATH), Sql::str(&exact)));
        }
        let regex = pattern.to_regex().expect("feasible pattern");
        Ok(Sql::RegexpLike {
            subject: Box::new(col(paths_alias, PATHS_PATH)),
            pattern: self.compile_pattern(regex)?,
        })
    }

    /// Re-apply the path filter after the pattern was refined by a
    /// backward PPF: replace the existing conjunct or add a new one.
    /// Also updates the stored prev in the branch.
    fn refresh_path_filter(
        &mut self,
        b: &mut Branch,
        node: &mut NodeRef,
    ) -> Result<bool, TranslateError> {
        if node.pattern.is_infeasible() {
            return Ok(false);
        }
        let keep = match (node.filter_idx, &node.paths_alias) {
            (Some(idx), Some(pa)) => {
                b.conjuncts[idx] = self.path_condition(pa, &node.pattern)?;
                true
            }
            _ => self.apply_path_filter(b, node)?,
        };
        if keep {
            b.prev = Some(node.clone());
        }
        Ok(keep)
    }

    // ----- predicates -----

    fn apply_predicates(
        &mut self,
        b: &mut Branch,
        ppf: &Ppf,
        context: Option<&NodeRef>,
    ) -> Result<bool, TranslateError> {
        let step = ppf.prominent_step();
        let preds = step.predicates.clone();
        if preds.is_empty() {
            return Ok(true);
        }
        let node = b.prev.clone().expect("predicates follow a bound node");
        for (i, pred) in preds.iter().enumerate() {
            // position() is only sound in the FIRST predicate of a step
            // (later predicates would re-number the filtered sequence).
            let _ = context;
            let pos = if i == 0 {
                Some(PosInfo {
                    axis: step.axis,
                    test: step.test.clone(),
                })
            } else {
                None
            };
            let cond = self.translate_pred(b, &node, pred, pos.as_ref())?;
            b.push(cond);
        }
        Ok(!b.is_statically_false())
    }

    fn translate_pred(
        &mut self,
        b: &mut Branch,
        node: &NodeRef,
        pred: &XExpr,
        pos: Option<&PosInfo>,
    ) -> Result<Sql, TranslateError> {
        match pred {
            XExpr::And(xs) => {
                let mut out = TRUE;
                for x in xs {
                    let c = self.translate_pred(b, node, x, pos)?;
                    out = combine_and(out, c);
                }
                Ok(out)
            }
            XExpr::Or(xs) => {
                let mut parts = Vec::new();
                let mut any_true = false;
                for x in xs {
                    let c = self.translate_pred(b, node, x, pos)?;
                    match c {
                        Sql::Literal(relstore::Value::Bool(true)) => any_true = true,
                        Sql::Literal(relstore::Value::Bool(false)) => {}
                        c => parts.push(c),
                    }
                }
                if any_true {
                    Ok(TRUE)
                } else if parts.is_empty() {
                    Ok(FALSE)
                } else if parts.len() == 1 {
                    Ok(parts.pop().expect("one part"))
                } else {
                    Ok(Sql::Or(parts))
                }
            }
            XExpr::Not(x) => {
                let c = self.translate_pred(b, node, x, pos)?;
                Ok(match c {
                    Sql::Literal(relstore::Value::Bool(v)) => {
                        Sql::Literal(relstore::Value::Bool(!v))
                    }
                    c => Sql::Not(Box::new(c)),
                })
            }
            XExpr::Path(p) => self.path_condition_for(b, node, p, ValueCond::Exists),
            XExpr::Union(ps) => {
                let mut parts = Vec::new();
                for p in ps {
                    parts.push(self.path_condition_for(b, node, p, ValueCond::Exists)?);
                }
                Ok(parts.into_iter().reduce(|a, c| a.or(c)).unwrap_or(FALSE))
            }
            XExpr::Literal(s) => Ok(Sql::Literal(relstore::Value::Bool(!s.is_empty()))),
            XExpr::Compare { op, lhs, rhs } => self.translate_compare(b, node, *op, lhs, rhs, pos),
            XExpr::Count(inner) => {
                // Bare count(p) in boolean context: count != 0 ⇔ exists.
                match inner.as_ref() {
                    XExpr::Path(p) => self.path_condition_for(b, node, p, ValueCond::Exists),
                    other => Err(TranslateError(format!(
                        "unsupported count() argument `{other}`"
                    ))),
                }
            }
            XExpr::Contains(a, bx) => {
                let (XExpr::Path(p), Some(relstore::Value::Str(needle))) =
                    (a.as_ref(), literal_value(bx))
                else {
                    return Err(TranslateError(
                        "contains() requires (path, string-literal)".to_string(),
                    ));
                };
                let pattern = self.compile_pattern(regexlite::escape(&needle))?;
                self.path_condition_for(b, node, p, ValueCond::Matches(pattern))
            }
            XExpr::StartsWith(a, bx) => {
                let (XExpr::Path(p), Some(relstore::Value::Str(prefix))) =
                    (a.as_ref(), literal_value(bx))
                else {
                    return Err(TranslateError(
                        "starts-with() requires (path, string-literal)".to_string(),
                    ));
                };
                let pattern = self.compile_pattern(format!("^{}", regexlite::escape(&prefix)))?;
                self.path_condition_for(b, node, p, ValueCond::Matches(pattern))
            }
            other => Err(TranslateError(format!(
                "predicate `{other}` is outside the SQL-translatable subset \
                 (use the native evaluator)"
            ))),
        }
    }

    fn translate_compare(
        &mut self,
        b: &mut Branch,
        node: &NodeRef,
        op: CompOp,
        lhs: &XExpr,
        rhs: &XExpr,
        pos: Option<&PosInfo>,
    ) -> Result<Sql, TranslateError> {
        // position() <op> n  (also [n], which the parser desugars)
        if let (XExpr::Position, Some(v)) = (lhs, literal_value(rhs)) {
            return self.position_condition(node, pos, cmp_op(op), v);
        }
        if let (Some(v), XExpr::Position) = (literal_value(lhs), rhs) {
            return self.position_condition(node, pos, cmp_op(op).flip(), v);
        }
        // path <op> literal
        if let (XExpr::Path(p), Some(v)) = (lhs, literal_value(rhs)) {
            return self.path_condition_for(
                b,
                node,
                p,
                ValueCond::Cmp {
                    op: cmp_op(op),
                    rhs: v,
                    wrap: None,
                },
            );
        }
        // literal <op> path
        if let (Some(v), XExpr::Path(p)) = (literal_value(lhs), rhs) {
            return self.path_condition_for(
                b,
                node,
                p,
                ValueCond::Cmp {
                    op: cmp_op(op).flip(),
                    rhs: v,
                    wrap: None,
                },
            );
        }
        // path <op> path — join clause (footnote 1)
        if let (XExpr::Path(p1), XExpr::Path(p2)) = (lhs, rhs) {
            return self.join_clause(b, node, op, p1, p2);
        }
        // count(path) <op> number
        if let (XExpr::Count(inner), Some(v)) = (lhs, literal_value(rhs)) {
            if let XExpr::Path(p) = inner.as_ref() {
                return self.count_condition(node, cmp_op(op), p, v);
            }
        }
        if let (Some(v), XExpr::Count(inner)) = (literal_value(lhs), rhs) {
            if let XExpr::Path(p) = inner.as_ref() {
                return self.count_condition(node, cmp_op(op).flip(), p, v);
            }
        }
        // arithmetic over a single path: (path ± k) <op> literal
        if let (XExpr::Arith { .. }, Some(v)) = (lhs, literal_value(rhs)) {
            if let Some((p, wrap)) = extract_arith_path(lhs) {
                return self.path_condition_for(
                    b,
                    node,
                    &p,
                    ValueCond::Cmp {
                        op: cmp_op(op),
                        rhs: v,
                        wrap: Some(wrap),
                    },
                );
            }
        }
        Err(TranslateError(format!(
            "comparison `{lhs} {} {rhs}` is outside the SQL-translatable subset",
            op.symbol()
        )))
    }

    /// `[position() = k]` on a child step: the node is the k-th matching
    /// child of its parent ⇔ k-1 earlier matching siblings exist.
    fn position_condition(
        &mut self,
        node: &NodeRef,
        pos: Option<&PosInfo>,
        op: CmpOp,
        rhs: relstore::Value,
    ) -> Result<Sql, TranslateError> {
        let Some(pos) = pos else {
            return Err(TranslateError(
                "position() is only supported in the first predicate of a step".to_string(),
            ));
        };
        if pos.axis != Axis::Child {
            return Err(TranslateError(format!(
                "position() on the `{}` axis is outside the SQL-translatable subset",
                pos.axis.name()
            )));
        }
        let k = match rhs {
            relstore::Value::Int(k) => k,
            relstore::Value::Float(f) if f.fract() == 0.0 => f as i64,
            other => {
                return Err(TranslateError(format!(
                    "position() compared with non-integer {other}"
                )))
            }
        };
        // The node's own par_id identifies the shared parent; no separate
        // binding for the context node is needed.
        let sib = self.fresh_alias(&format!("{}_sib", node.alias));
        let mut conj = vec![
            Sql::eq(col(&sib, COL_PAR), col(&node.alias, COL_PAR)),
            Sql::cmp(CmpOp::Lt, col(&sib, COL_DEWEY), col(&node.alias, COL_DEWEY)),
        ];
        match (&self.mapping, &pos.test) {
            (Mapping::SchemaAware { .. }, NodeTest::Name(_)) => {
                // the sibling table is the same relation, which already
                // pins the name
            }
            (Mapping::SchemaAware { .. }, _) => {
                return Err(TranslateError(
                    "position() on a wildcard step needs the Edge mapping or \
                     the native evaluator"
                        .to_string(),
                ))
            }
            (Mapping::EdgeLike, NodeTest::Name(n)) => {
                conj.push(Sql::eq(col(&sib, EDGE_NAME), Sql::str(n)));
            }
            (Mapping::EdgeLike, _) => {}
        }
        let sub = Select {
            distinct: false,
            projections: vec![Projection {
                expr: Sql::CountStar,
                alias: None,
            }],
            from: vec![TableRef::new(&node.relation, &sib)],
            where_clause: conjoin(conj),
        };
        Ok(Sql::Cmp {
            op,
            lhs: Box::new(Sql::ScalarSubquery(Box::new(sub))),
            rhs: Box::new(Sql::Literal(relstore::Value::Int(k - 1))),
        })
    }

    // ----- value/path conditions -----

    /// Attribute value expression on a node; `None` name = any attribute.
    /// For the schema-aware mapping, returns `None` when the relation has
    /// no such attribute (statically absent). For Edge, joins `Attrs`.
    fn attr_value_expr(
        &mut self,
        b: &mut Branch,
        node: &NodeRef,
        name: Option<&str>,
    ) -> Result<Option<Sql>, TranslateError> {
        match self.mapping {
            Mapping::SchemaAware { schema, .. } => {
                let def = schema
                    .def(&node.relation)
                    .ok_or_else(|| TranslateError(format!("unknown relation {}", node.relation)))?;
                match name {
                    Some(n) => {
                        if def.attributes.iter().any(|a| a.name == n) {
                            Ok(Some(col(&node.alias, &attr_col(n))))
                        } else {
                            Ok(None)
                        }
                    }
                    None => Err(TranslateError(
                        "`@*` value projection requires a concrete attribute name".to_string(),
                    )),
                }
            }
            Mapping::EdgeLike => {
                let alias = self.fresh_alias(ATTR_TABLE);
                b.from.push(TableRef::new(ATTR_TABLE, &alias));
                b.push(Sql::eq(col(&alias, ATTR_OWNER), col(&node.alias, COL_ID)));
                if let Some(n) = name {
                    b.push(Sql::eq(col(&alias, ATTR_NAME), Sql::str(n)));
                }
                Ok(Some(col(&alias, ATTR_VALUE)))
            }
        }
    }

    /// The text-content column of a node (`None` if the schema says the
    /// element never holds text).
    fn text_value_expr(&self, node: &NodeRef) -> Option<Sql> {
        match self.mapping {
            Mapping::SchemaAware { schema, .. } => {
                let def = schema.def(&node.relation)?;
                def.text.map(|_| col(&node.alias, COL_TEXT))
            }
            Mapping::EdgeLike => Some(col(&node.alias, COL_TEXT)),
        }
    }

    /// Condition for a (relative or absolute) path predicate on `node`,
    /// with a value condition at its end.
    fn path_condition_for(
        &mut self,
        b: &mut Branch,
        node: &NodeRef,
        path: &LocationPath,
        vc: ValueCond,
    ) -> Result<Sql, TranslateError> {
        let mut steps = path.steps.clone();
        let mut value_on_text_step = false;
        if let Some(last) = steps.last() {
            if last.test == NodeTest::Text && last.axis == Axis::Child {
                steps.pop();
                value_on_text_step = true;
            }
        }

        // `.` (self) path: value of the predicated node itself.
        if !path.absolute
            && steps
                .iter()
                .all(|s| s.axis == Axis::SelfAxis && s.predicates.is_empty())
        {
            // Constrain the name tests statically.
            let mut pat = node.pattern.clone();
            for s in &steps {
                pat = pat.self_axis(&pat_test(&s.test)?);
            }
            if pat.is_infeasible() {
                return Ok(FALSE);
            }
            return match self.text_value_expr(node) {
                Some(value) => Ok(apply_value_cond(value, &vc)),
                None => Ok(match vc {
                    ValueCond::Exists => TRUE,
                    _ => FALSE,
                }),
            };
        }

        let split = split_ppfs(&steps).map_err(|e| TranslateError(e.to_string()))?;
        self.ppf_count += split.ppfs.len();

        // Single attribute step on the node itself: direct column test
        // (Table 3: `A.x = 3`).
        if split.ppfs.is_empty() {
            let Some(attr_step) = &split.trailing_attribute else {
                return Err(TranslateError("empty predicate path".to_string()));
            };
            return self.attr_condition_on(b, node, attr_step, &vc);
        }

        // Pure backward path (existence only): fold into the path filter
        // (Table 5-2).
        if matches!(vc, ValueCond::Exists)
            && split.trailing_attribute.is_none()
            && !value_on_text_step
            && split.ppfs.iter().all(|p| {
                p.kind == PpfKind::Backward && p.steps.iter().all(|s| s.predicates.is_empty())
            })
        {
            return self.backward_filter_condition(b, node, &split.ppfs);
        }

        // General case: EXISTS subselect(s).
        let initial = if path.absolute { None } else { Some(node) };
        let inner = self.build_ppfs(initial, &split.ppfs)?;
        let mut parts: Vec<Sql> = Vec::new();
        for mut ib in inner {
            let prom = ib.prev.clone().expect("inner path is non-empty");
            let cond_ok = if let Some(attr_step) = &split.trailing_attribute {
                let name = test_name(&attr_step.test)?;
                match self.attr_value_expr(&mut ib, &prom, name)? {
                    Some(value) => {
                        match &vc {
                            ValueCond::Exists => {
                                ib.push(Sql::IsNull {
                                    expr: Box::new(value),
                                    negated: true,
                                });
                            }
                            other => {
                                ib.push(apply_value_cond(value, other));
                            }
                        }
                        true
                    }
                    None => false,
                }
            } else {
                match &vc {
                    ValueCond::Exists => true,
                    other => match self.text_value_expr(&prom) {
                        Some(value) => {
                            ib.push(apply_value_cond(value, other));
                            true
                        }
                        None => false,
                    },
                }
            };
            if !cond_ok || ib.is_statically_false() {
                continue;
            }
            parts.push(Sql::Exists(Box::new(Select {
                distinct: false,
                projections: vec![Projection {
                    expr: Sql::Literal(relstore::Value::Null),
                    alias: None,
                }],
                from: ib.from,
                where_clause: conjoin(ib.conjuncts),
            })));
        }
        Ok(parts.into_iter().reduce(|a, c| a.or(c)).unwrap_or(FALSE))
    }

    /// `[@x]` / `[@x = v]` directly on the predicated node.
    fn attr_condition_on(
        &mut self,
        b: &mut Branch,
        node: &NodeRef,
        attr_step: &Step,
        vc: &ValueCond,
    ) -> Result<Sql, TranslateError> {
        let name = test_name(&attr_step.test)?;
        match self.mapping {
            Mapping::SchemaAware { schema, .. } => {
                let def = schema
                    .def(&node.relation)
                    .ok_or_else(|| TranslateError(format!("unknown relation {}", node.relation)))?;
                match name {
                    Some(n) => {
                        if !def.attributes.iter().any(|a| a.name == n) {
                            return Ok(FALSE);
                        }
                        let value = col(&node.alias, &attr_col(n));
                        Ok(match vc {
                            ValueCond::Exists => Sql::IsNull {
                                expr: Box::new(value),
                                negated: true,
                            },
                            other => apply_value_cond(value, other),
                        })
                    }
                    None => {
                        // `@*`: any declared attribute.
                        let mut parts = Vec::new();
                        for a in &def.attributes {
                            let value = col(&node.alias, &attr_col(&a.name));
                            parts.push(match vc {
                                ValueCond::Exists => Sql::IsNull {
                                    expr: Box::new(value),
                                    negated: true,
                                },
                                other => apply_value_cond(value, other),
                            });
                        }
                        Ok(parts.into_iter().reduce(|x, y| x.or(y)).unwrap_or(FALSE))
                    }
                }
            }
            Mapping::EdgeLike => {
                // EXISTS over the attribute relation.
                let alias = self.fresh_alias(ATTR_TABLE);
                let mut conj = vec![Sql::eq(col(&alias, ATTR_OWNER), col(&node.alias, COL_ID))];
                if let Some(n) = name {
                    conj.push(Sql::eq(col(&alias, ATTR_NAME), Sql::str(n)));
                }
                if !matches!(vc, ValueCond::Exists) {
                    conj.push(apply_value_cond(col(&alias, ATTR_VALUE), vc));
                }
                let _ = b;
                Ok(Sql::Exists(Box::new(Select {
                    distinct: false,
                    projections: vec![Projection {
                        expr: Sql::Literal(relstore::Value::Null),
                        alias: None,
                    }],
                    from: vec![TableRef::new(ATTR_TABLE, &alias)],
                    where_clause: conjoin(conj),
                })))
            }
        }
    }

    /// Table 5-2: a predicate that is a pure backward simple path becomes
    /// an extra restriction on the predicated node's root-to-node path.
    fn backward_filter_condition(
        &mut self,
        b: &mut Branch,
        node: &NodeRef,
        ppfs: &[Ppf],
    ) -> Result<Sql, TranslateError> {
        // Walk the backward steps over the node's pattern, tracking
        // context/suffix pairs exactly like process_backward, but only the
        // refined *self* pattern matters here.
        let mut pairs: Vec<(Pattern, Pattern)> = node
            .pattern
            .alts
            .iter()
            .map(|p| (p.clone(), Vec::new()))
            .collect();
        let mut cands = node.candidates.clone().unwrap_or_else(Candidates::at_root);
        for ppf in ppfs {
            for step in &ppf.steps {
                let test = pat_test(&step.test)?;
                let mut next = Vec::new();
                for (ctxp, suffix) in &pairs {
                    backward_step(&mut next, ctxp, suffix, step.axis, &test);
                }
                next.sort();
                next.dedup();
                pairs = next;
                if let Some(schema) = self.schema() {
                    cands = nav::advance(schema, &cands, step);
                }
            }
        }
        if self.is_schema_aware() && cands.is_empty() {
            return Ok(FALSE);
        }
        let refined = PatternSet::from_alts(
            pairs
                .into_iter()
                .map(|(mut c, s)| {
                    c.extend(s);
                    c
                })
                .collect(),
        );
        let Some(regex) = refined.to_regex() else {
            return Ok(FALSE);
        };
        let pattern = self.compile_pattern(regex)?;
        // If a Paths join already exists for the node, the condition is a
        // plain extra REGEXP_LIKE on it.
        if let Some(pa) = &node.paths_alias {
            return Ok(Sql::RegexpLike {
                subject: Box::new(col(pa, PATHS_PATH)),
                pattern,
            });
        }
        // Otherwise resolve statically via the marking, or join Paths.
        if let (Mapping::SchemaAware { marking, .. }, true) =
            (self.mapping, self.opts.use_path_marking)
        {
            match marking.mark(&node.relation) {
                Some(PathMark::Unique(p)) => {
                    return Ok(Sql::Literal(relstore::Value::Bool(pattern.is_match(p))));
                }
                Some(PathMark::Finite(ps)) => {
                    let matched = ps.iter().filter(|p| pattern.is_match(p)).count();
                    if matched == ps.len() {
                        return Ok(TRUE);
                    }
                    if matched == 0 {
                        return Ok(FALSE);
                    }
                    // fall through: join Paths
                }
                _ => {}
            }
        }
        // Join Paths (unfiltered) and return the regex as the condition.
        let pa = self.fresh_alias(&format!("{}_Paths", node.alias));
        b.from.push(TableRef::new(PATHS_TABLE, &pa));
        b.push(Sql::eq(col(&node.alias, COL_PATH), col(&pa, PATHS_ID)));
        // Note: the node stored in b.prev keeps paths_alias = None; further
        // backward predicates would add another join, which is correct if
        // slightly redundant.
        Ok(Sql::RegexpLike {
            subject: Box::new(col(&pa, PATHS_PATH)),
            pattern,
        })
    }

    /// `count(path) <op> n` via a scalar subquery.
    fn count_condition(
        &mut self,
        node: &NodeRef,
        op: CmpOp,
        path: &LocationPath,
        rhs: relstore::Value,
    ) -> Result<Sql, TranslateError> {
        let split = split_ppfs(&path.steps).map_err(|e| TranslateError(e.to_string()))?;
        self.ppf_count += split.ppfs.len();
        if split.trailing_attribute.is_some() {
            return Err(TranslateError(
                "count() over attributes is not supported in SQL translation".to_string(),
            ));
        }
        let initial = if path.absolute { None } else { Some(node) };
        let inner = self.build_ppfs(initial, &split.ppfs)?;
        if inner.len() != 1 {
            return Err(TranslateError(
                "count() over an ambiguous path is not supported in SQL translation".to_string(),
            ));
        }
        let ib = inner.into_iter().next().expect("one branch");
        let sub = Select {
            distinct: false,
            projections: vec![Projection {
                expr: Sql::CountStar,
                alias: None,
            }],
            from: ib.from,
            where_clause: conjoin(ib.conjuncts),
        };
        Ok(Sql::Cmp {
            op,
            lhs: Box::new(Sql::ScalarSubquery(Box::new(sub))),
            rhs: Box::new(Sql::Literal(rhs)),
        })
    }

    /// `[p1 <op> p2]` — both paths in one EXISTS with a theta join between
    /// their value columns (paper footnote 1).
    fn join_clause(
        &mut self,
        b: &mut Branch,
        node: &NodeRef,
        op: CompOp,
        p1: &LocationPath,
        p2: &LocationPath,
    ) -> Result<Sql, TranslateError> {
        let _ = b;
        let mut parts = Vec::new();
        let sides: Vec<(Vec<Branch>, Option<Step>)> = [p1, p2]
            .iter()
            .map(|p| {
                let mut steps = p.steps.clone();
                let mut _text = false;
                if let Some(last) = steps.last() {
                    if last.test == NodeTest::Text && last.axis == Axis::Child {
                        steps.pop();
                        _text = true;
                    }
                }
                let split = split_ppfs(&steps).map_err(|e| TranslateError(e.to_string()))?;
                self.ppf_count += split.ppfs.len();
                let initial = if p.absolute { None } else { Some(node) };
                let branches = self.build_ppfs(initial, &split.ppfs)?;
                Ok((branches, split.trailing_attribute))
            })
            .collect::<Result<Vec<_>, TranslateError>>()?
            .into_iter()
            .collect();
        let (b1s, attr1) = &sides[0];
        let (b2s, attr2) = &sides[1];
        for ib1 in b1s {
            for ib2 in b2s {
                let mut merged = Branch {
                    from: ib1
                        .from
                        .iter()
                        .cloned()
                        .chain(ib2.from.iter().cloned())
                        .collect(),
                    conjuncts: ib1
                        .conjuncts
                        .iter()
                        .cloned()
                        .chain(ib2.conjuncts.iter().cloned())
                        .collect(),
                    prev: None,
                };
                let prom1 = ib1.prev.clone().expect("non-empty");
                let prom2 = ib2.prev.clone().expect("non-empty");
                let v1 = self.side_value(&mut merged, &prom1, attr1.as_ref())?;
                let v2 = self.side_value(&mut merged, &prom2, attr2.as_ref())?;
                let (Some(v1), Some(v2)) = (v1, v2) else {
                    continue;
                };
                merged.push(Sql::Cmp {
                    op: cmp_op(op),
                    lhs: Box::new(v1),
                    rhs: Box::new(v2),
                });
                if merged.is_statically_false() {
                    continue;
                }
                parts.push(Sql::Exists(Box::new(Select {
                    distinct: false,
                    projections: vec![Projection {
                        expr: Sql::Literal(relstore::Value::Null),
                        alias: None,
                    }],
                    from: merged.from,
                    where_clause: conjoin(merged.conjuncts),
                })));
            }
        }
        Ok(parts.into_iter().reduce(|a, c| a.or(c)).unwrap_or(FALSE))
    }

    fn side_value(
        &mut self,
        b: &mut Branch,
        prom: &NodeRef,
        attr: Option<&Step>,
    ) -> Result<Option<Sql>, TranslateError> {
        match attr {
            Some(step) => {
                let name = test_name(&step.test)?;
                self.attr_value_expr(b, prom, name)
            }
            None => Ok(self.text_value_expr(prom)),
        }
    }
}

/// One backward step over a (context, suffix) decomposition (shared by
/// backward PPFs and Table 5-2 predicate folding).
fn backward_step(
    next: &mut Vec<(Pattern, Pattern)>,
    ctxp: &Pattern,
    suffix: &Pattern,
    axis: Axis,
    test: &PatTest,
) {
    match axis {
        Axis::Parent => {
            for (prefix, last) in split_last(ctxp) {
                for c in constrain_last(&prefix, test) {
                    let mut sfx = vec![last.clone()];
                    sfx.extend(suffix.iter().cloned());
                    next.push((c, sfx));
                }
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            if axis == Axis::AncestorOrSelf {
                for c in constrain_last(ctxp, test) {
                    next.push((c, suffix.clone()));
                }
            }
            for (prefix, cut_suffix) in proper_cuts(ctxp) {
                for c in constrain_last(&prefix, test) {
                    let mut sfx = cut_suffix.clone();
                    sfx.extend(suffix.iter().cloned());
                    next.push((c, sfx));
                }
            }
        }
        other => unreachable!("backward step with axis {other:?}"),
    }
}

// ----- small helpers -----

fn conjoin(conjuncts: Vec<Sql>) -> Option<Sql> {
    conjuncts.into_iter().reduce(|a, c| a.and(c))
}

fn combine_and(a: Sql, b: Sql) -> Sql {
    match (a, b) {
        (Sql::Literal(relstore::Value::Bool(true)), x)
        | (x, Sql::Literal(relstore::Value::Bool(true))) => x,
        (Sql::Literal(relstore::Value::Bool(false)), _)
        | (_, Sql::Literal(relstore::Value::Bool(false))) => FALSE,
        (a, b) => a.and(b),
    }
}

fn apply_value_cond(value: Sql, vc: &ValueCond) -> Sql {
    match vc {
        ValueCond::Exists => Sql::IsNull {
            expr: Box::new(value),
            negated: true,
        },
        ValueCond::Cmp { op, rhs, wrap } => {
            let lhs = match wrap {
                Some(f) => f(value),
                None => value,
            };
            Sql::Cmp {
                op: *op,
                lhs: Box::new(lhs),
                rhs: Box::new(Sql::Literal(rhs.clone())),
            }
        }
        ValueCond::Matches(pattern) => Sql::RegexpLike {
            subject: Box::new(value),
            pattern: pattern.clone(),
        },
    }
}

/// Rebuilds an arithmetic tree around the extracted value column.
type ArithRebuild = Box<dyn Fn(Sql) -> Sql>;

/// Extract `path` from an arithmetic tree with exactly one path leaf,
/// returning a wrapper that rebuilds the tree around the value column.
fn extract_arith_path(e: &XExpr) -> Option<(LocationPath, ArithRebuild)> {
    match e {
        XExpr::Path(p) => {
            let p = p.clone();
            Some((p, Box::new(|v| v)))
        }
        XExpr::Arith { op, lhs, rhs } => {
            let sql_op = match op {
                xpath::NumOp::Add => sqlexec::ArithOp::Add,
                xpath::NumOp::Sub => sqlexec::ArithOp::Sub,
                xpath::NumOp::Div => sqlexec::ArithOp::Div,
                xpath::NumOp::Mod => return None, // no SQL mod operator here
            };
            match (extract_arith_path(lhs), literal_value(rhs)) {
                (Some((p, wrap)), Some(v)) => Some((
                    p,
                    Box::new(move |col| Sql::Arith {
                        op: sql_op,
                        lhs: Box::new(wrap(col)),
                        rhs: Box::new(Sql::Literal(v.clone())),
                    }),
                )),
                _ => match (literal_value(lhs), extract_arith_path(rhs)) {
                    (Some(v), Some((p, wrap))) => Some((
                        p,
                        Box::new(move |col| Sql::Arith {
                            op: sql_op,
                            lhs: Box::new(Sql::Literal(v.clone())),
                            rhs: Box::new(wrap(col)),
                        }),
                    )),
                    _ => None,
                },
            }
        }
        _ => None,
    }
}

/// Minimum number of levels a forward PPF descends.
fn min_levels_forward(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|s| match s.axis {
            Axis::Child | Axis::Descendant => 1,
            _ => 0,
        })
        .sum()
}

/// Minimum number of levels a backward PPF ascends.
fn min_levels_backward(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|s| match s.axis {
            Axis::Parent | Axis::Ancestor => 1,
            _ => 0,
        })
        .sum()
}

/// The value type of an element's text content under a schema (exposed
/// for the engines' result decoding).
pub fn text_type(schema: &Schema, relation: &str) -> Option<ValueType> {
    schema.def(relation).and_then(|d| d.text)
}
