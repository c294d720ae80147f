//! Group-bys, predicates, and the dimensional query unit.
//!
//! A [`GroupBy`] names one level per dimension — a point in the group-by
//! lattice. The paper's shorthand `A'B''C''D` is parsed and printed by
//! [`GroupBy::parse`] / [`GroupBy::display`]. A [`GroupByQuery`] pairs a
//! target group-by with per-dimension member predicates; it is exactly one
//! of the "several related dimensional queries" an MDX expression expands
//! into, and the unit the optimizer assigns to a base table.

use crate::error::OlapError;
use crate::schema::{DimId, Dimension, StarSchema};

/// Reference to a hierarchy level of one dimension, or `All` (the dimension
/// is aggregated away entirely — coarser than every level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LevelRef {
    /// A concrete level, 0 = leaf.
    Level(u8),
    /// Aggregated away.
    All,
}

impl LevelRef {
    /// True if data stored at `self` can produce data at `target`
    /// (i.e. `self` is at least as fine).
    pub fn provides(self, target: LevelRef) -> bool {
        match (self, target) {
            (_, LevelRef::All) => true,
            (LevelRef::All, LevelRef::Level(_)) => false,
            (LevelRef::Level(s), LevelRef::Level(t)) => s <= t,
        }
    }

    /// The finer of two level refs.
    pub fn finer(self, other: LevelRef) -> LevelRef {
        match (self, other) {
            (LevelRef::All, x) | (x, LevelRef::All) => x,
            (LevelRef::Level(a), LevelRef::Level(b)) => LevelRef::Level(a.min(b)),
        }
    }

    /// The concrete level index, if any.
    pub fn level(self) -> Option<u8> {
        match self {
            LevelRef::Level(l) => Some(l),
            LevelRef::All => None,
        }
    }

    /// Members of `dim` at this level (All is one member).
    pub fn cardinality(self, dim: &Dimension) -> u32 {
        self.level().map_or(1, |l| dim.cardinality(l))
    }
}

/// One level per dimension: a node of the group-by lattice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupBy {
    levels: Vec<LevelRef>,
}

impl GroupBy {
    /// Creates a group-by from explicit level refs (one per dimension).
    pub fn new(levels: Vec<LevelRef>) -> Self {
        GroupBy { levels }
    }

    /// The all-leaf group-by (the base data, `LL` in the paper).
    pub fn finest(n_dims: usize) -> Self {
        GroupBy {
            levels: vec![LevelRef::Level(0); n_dims],
        }
    }

    /// Parses the paper's shorthand against a schema: dimension names in
    /// schema order, each followed by prime marks counting the level
    /// (`A''` = level 2 of A) or `*` for `All`. Example: `"A'B''C''D"`.
    pub fn parse(schema: &StarSchema, s: &str) -> Result<Self, OlapError> {
        let mut rest = s;
        let mut levels = Vec::with_capacity(schema.n_dims());
        for dim in schema.dimensions() {
            rest = rest
                .strip_prefix(dim.name())
                .ok_or_else(|| format!("expected dimension {} in {s:?}", dim.name()))?;
            if let Some(r) = rest.strip_prefix('*') {
                rest = r;
                levels.push(LevelRef::All);
                continue;
            }
            let primes = rest.chars().take_while(|&c| c == '\'').count();
            rest = &rest[primes..];
            let lvl = primes as u8;
            if lvl >= dim.n_levels() {
                return Err(OlapError::new(format!(
                    "dimension {} has no level {} in {s:?}",
                    dim.name(),
                    lvl
                )));
            }
            levels.push(LevelRef::Level(lvl));
        }
        if !rest.is_empty() {
            return Err(OlapError::new(format!(
                "trailing input {rest:?} in group-by {s:?}"
            )));
        }
        Ok(GroupBy { levels })
    }

    /// Renders the shorthand (`A'B''C''D`; `All` prints as `X*`).
    pub fn display(&self, schema: &StarSchema) -> String {
        let mut out = String::new();
        for (d, lr) in self.levels.iter().enumerate() {
            out.push_str(schema.dim(d).name());
            match lr {
                LevelRef::Level(l) => out.push_str(&"'".repeat(*l as usize)),
                LevelRef::All => out.push('*'),
            }
        }
        out
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.levels.len()
    }

    /// The level for dimension `d`.
    pub fn level(&self, d: DimId) -> LevelRef {
        self.levels[d]
    }

    /// All levels in dimension order.
    pub fn levels(&self) -> &[LevelRef] {
        &self.levels
    }

    /// True if every target level is derivable from this group-by's levels
    /// (this ≤ other in lattice order, i.e. `self` is finer-or-equal).
    pub fn derives(&self, target: &GroupBy) -> bool {
        assert_eq!(self.n_dims(), target.n_dims(), "dimension count mismatch");
        self.levels
            .iter()
            .zip(&target.levels)
            .all(|(s, t)| s.provides(*t))
    }

    /// Coarseness rank used for the algorithms' "Sort G by GroupbyLevel":
    /// the sum of level indexes (`All` counts as one past the top). Finer
    /// group-bys rank lower.
    pub fn coarseness(&self, schema: &StarSchema) -> u32 {
        self.levels
            .iter()
            .enumerate()
            .map(|(d, lr)| match lr {
                LevelRef::Level(l) => *l as u32,
                LevelRef::All => schema.dim(d).n_levels() as u32,
            })
            .sum()
    }

    /// Product of per-dimension cardinalities: the number of possible key
    /// combinations at this group-by (`All` contributes 1).
    pub fn combinations(&self, schema: &StarSchema) -> f64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(d, lr)| lr.cardinality(schema.dim(d)) as f64)
            .product()
    }

    /// Cardinality of each *grouped* dimension at its target level, in
    /// dimension order (`All` dimensions are omitted — they contribute no
    /// key component). These are the radixes of a mixed-radix packing of
    /// the aggregation key.
    pub fn key_cardinalities(&self, schema: &StarSchema) -> Vec<u32> {
        self.levels
            .iter()
            .enumerate()
            .filter_map(|(d, lr)| match lr {
                LevelRef::Level(l) => Some(schema.dim(d).cardinality(*l)),
                LevelRef::All => None,
            })
            .collect()
    }
}

/// A per-dimension selection predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemberPred {
    /// No restriction.
    All,
    /// The dimension's value must roll up into one of `members` at `level`.
    /// `members` is sorted and deduplicated.
    In { level: u8, members: Vec<u32> },
}

impl MemberPred {
    /// Builds an `In` predicate, normalizing member order.
    pub fn members_in(level: u8, mut members: Vec<u32>) -> Self {
        members.sort_unstable();
        members.dedup();
        MemberPred::In { level, members }
    }

    /// A single-member predicate.
    pub fn eq(level: u8, member: u32) -> Self {
        MemberPred::In {
            level,
            members: vec![member],
        }
    }

    /// The level the predicate is expressed at, if restricted.
    pub fn level(&self) -> Option<u8> {
        match self {
            MemberPred::All => None,
            MemberPred::In { level, .. } => Some(*level),
        }
    }

    /// True if `key`, stored at `stored_level` of dimension `d`, satisfies
    /// the predicate.
    ///
    /// # Panics
    /// Panics if the predicate's level is finer than `stored_level` (the
    /// planner must never route a query to a table that lost the predicate
    /// column).
    pub fn matches(&self, schema: &StarSchema, d: DimId, stored_level: u8, key: u32) -> bool {
        match self {
            MemberPred::All => true,
            MemberPred::In { level, members } => {
                let rolled = schema.dim(d).roll_up(key, stored_level, *level);
                members.binary_search(&rolled).is_ok()
            }
        }
    }

    /// Fraction of the dimension the predicate keeps, assuming uniformity.
    pub fn selectivity(&self, schema: &StarSchema, d: DimId) -> f64 {
        match self {
            MemberPred::All => 1.0,
            MemberPred::In { level, members } => {
                members.len() as f64 / schema.dim(d).cardinality(*level) as f64
            }
        }
    }

    /// Expands the predicate's member set down to `target_level` (for
    /// driving a bitmap index stored at that finer level).
    pub fn expand_to_level(
        &self,
        schema: &StarSchema,
        d: DimId,
        target_level: u8,
    ) -> Option<Vec<u32>> {
        match self {
            MemberPred::All => None,
            MemberPred::In { level, members } => {
                assert!(
                    target_level <= *level,
                    "cannot expand predicate at level {level} up to {target_level}"
                );
                let mut out = Vec::new();
                for &m in members {
                    out.extend(schema.dim(d).descendants(m, *level, target_level));
                }
                Some(out)
            }
        }
    }

    /// Renders the predicate for plan explain output.
    pub fn display(&self, schema: &StarSchema, d: DimId) -> String {
        match self {
            MemberPred::All => "*".to_string(),
            MemberPred::In { level, members } => {
                let names: Vec<String> = members
                    .iter()
                    .map(|&m| schema.dim(d).member_name(*level, m))
                    .collect();
                format!(
                    "{} IN ({})",
                    schema.dim(d).level(*level).name,
                    names.join(", ")
                )
            }
        }
    }
}

/// The aggregate function a query applies to the measure.
///
/// The paper evaluates SUM only; the others are supported with the correct
/// view-derivability rules (a COUNT query, for example, can be answered
/// from the raw fact table or from a COUNT view — whose cells it *sums* —
/// but never from a SUM view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggFn {
    /// Sum of the measure (the paper's setting).
    #[default]
    Sum,
    /// Row count.
    Count,
    /// Minimum measure.
    Min,
    /// Maximum measure.
    Max,
    /// Arithmetic mean (not re-aggregatable: answerable from raw data only).
    Avg,
}

impl AggFn {
    /// This aggregate's partial-result algebra, or `None` for AVG: an
    /// average of averages is not the average, so AVG would need a
    /// (sum, count) partial.
    pub fn distributive(self) -> Option<Distributive> {
        Some(match self {
            AggFn::Sum => Distributive::Sum,
            AggFn::Count => Distributive::Count,
            AggFn::Min => Distributive::Min,
            AggFn::Max => Distributive::Max,
            AggFn::Avg => return None,
        })
    }

    /// Parses a case-insensitive name.
    pub fn parse(s: &str) -> Option<AggFn> {
        Some(match s.to_ascii_lowercase().as_str() {
            "sum" => AggFn::Sum,
            "count" => AggFn::Count,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "avg" | "average" | "mean" => AggFn::Avg,
            _ => return None,
        })
    }
}

/// A distributive aggregate (Gray et al.): the aggregate over a union of
/// disjoint row sets is [`combine`](Distributive::combine) of the parts'
/// aggregates. On the measure domain (`starshare_storage::measure`) every
/// combine is exact, so partials merge in any order with the same bits.
/// This is the one fold the result cache, its append patch and view
/// maintenance use for partial results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distributive {
    /// Partials add.
    Sum,
    /// A fact row counts 1; partials add.
    Count,
    /// The smaller partial wins.
    Min,
    /// The larger partial wins.
    Max,
}

impl Distributive {
    /// The partial aggregate of one fact row with measure `m`.
    pub fn of_fact(self, m: f64) -> f64 {
        match self {
            Distributive::Count => 1.0,
            _ => m,
        }
    }

    /// Merges the partial aggregates of two disjoint row sets.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            Distributive::Sum | Distributive::Count => a + b,
            Distributive::Min => a.min(b),
            Distributive::Max => a.max(b),
        }
    }
}

impl std::fmt::Display for AggFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggFn::Sum => write!(f, "SUM"),
            AggFn::Count => write!(f, "COUNT"),
            AggFn::Min => write!(f, "MIN"),
            AggFn::Max => write!(f, "MAX"),
            AggFn::Avg => write!(f, "AVG"),
        }
    }
}

/// One dimensional query: a target group-by plus per-dimension predicates.
///
/// In relational terms: a star join of the fact table (or a materialized
/// group-by) with its dimensions, a conjunctive member predicate per
/// dimension, and an aggregation (SUM by default — the paper's canonical
/// query shape, §2) to the target group-by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupByQuery {
    /// Target group-by.
    pub group_by: GroupBy,
    /// One predicate per dimension.
    pub preds: Vec<MemberPred>,
    /// The aggregate applied to the measure.
    pub agg: AggFn,
}

impl GroupByQuery {
    /// Creates a SUM query.
    ///
    /// # Panics
    /// Panics if predicate count differs from the group-by's dimension
    /// count.
    pub fn new(group_by: GroupBy, preds: Vec<MemberPred>) -> Self {
        assert_eq!(
            group_by.n_dims(),
            preds.len(),
            "one predicate per dimension"
        );
        GroupByQuery {
            group_by,
            preds,
            agg: AggFn::Sum,
        }
    }

    /// Replaces the aggregate function.
    pub fn with_agg(mut self, agg: AggFn) -> Self {
        self.agg = agg;
        self
    }

    /// A SUM query with no predicates.
    pub fn unfiltered(group_by: GroupBy) -> Self {
        let n = group_by.n_dims();
        GroupByQuery {
            group_by,
            preds: vec![MemberPred::All; n],
            agg: AggFn::Sum,
        }
    }

    /// The finest level the query needs per dimension: the finer of the
    /// target level and the predicate level. A table derives this query iff
    /// it stores every dimension at least this fine.
    pub fn required_levels(&self) -> GroupBy {
        let levels = self
            .group_by
            .levels()
            .iter()
            .enumerate()
            .map(|(d, &target)| match self.preds[d].level() {
                Some(pl) => target.finer(LevelRef::Level(pl)),
                None => target,
            })
            .collect();
        GroupBy::new(levels)
    }

    /// True if a table storing `stored` levels can answer this query.
    pub fn answerable_from(&self, stored: &GroupBy) -> bool {
        stored.derives(&self.required_levels())
    }

    /// Combined selectivity of all predicates (independence assumption).
    pub fn selectivity(&self, schema: &StarSchema) -> f64 {
        self.preds
            .iter()
            .enumerate()
            .map(|(d, p)| p.selectivity(schema, d))
            .product()
    }

    /// Renders `target [pred, pred, …]` for explain output (the aggregate
    /// is shown only when it differs from the paper's default SUM).
    pub fn display(&self, schema: &StarSchema) -> String {
        let agg = match self.agg {
            AggFn::Sum => String::new(),
            other => format!("{other} "),
        };
        let preds: Vec<String> = self
            .preds
            .iter()
            .enumerate()
            .filter(|(_, p)| !matches!(p, MemberPred::All))
            .map(|(d, p)| p.display(schema, d))
            .collect();
        if preds.is_empty() {
            format!("{agg}{}", self.group_by.display(schema))
        } else {
            format!(
                "{agg}{} [{}]",
                self.group_by.display(schema),
                preds.join(" AND ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Dimension;

    fn schema() -> StarSchema {
        StarSchema::new(
            vec![
                Dimension::uniform("A", 3, &[2, 10]),
                Dimension::uniform("B", 3, &[2, 10]),
                Dimension::uniform("C", 3, &[2, 10]),
                Dimension::uniform("D", 3, &[8, 300]),
            ],
            "dollars",
        )
    }

    #[test]
    fn level_ref_provides() {
        use LevelRef::*;
        assert!(Level(0).provides(Level(2)));
        assert!(Level(1).provides(Level(1)));
        assert!(!Level(2).provides(Level(1)));
        assert!(Level(2).provides(All));
        assert!(All.provides(All));
        assert!(!All.provides(Level(0)));
        assert_eq!(Level(1).finer(Level(2)), Level(1));
        assert_eq!(All.finer(Level(2)), Level(2));
        assert_eq!(All.finer(All), All);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = schema();
        for txt in ["ABCD", "A'B''C''D", "A''B''C''D''", "A*B'C*D"] {
            let gb = GroupBy::parse(&s, txt).unwrap();
            assert_eq!(gb.display(&s), txt, "{txt}");
        }
        let gb = GroupBy::parse(&s, "A'B''C''D").unwrap();
        assert_eq!(gb.level(0), LevelRef::Level(1));
        assert_eq!(gb.level(1), LevelRef::Level(2));
        assert_eq!(gb.level(3), LevelRef::Level(0));
    }

    #[test]
    fn parse_rejects_garbage() {
        let s = schema();
        assert!(GroupBy::parse(&s, "AB").is_err()); // missing dims
        assert!(GroupBy::parse(&s, "A'''B''C''D").is_err()); // no level 3
        assert!(GroupBy::parse(&s, "A'B''C''Dx").is_err()); // trailing
        assert!(GroupBy::parse(&s, "XYZW").is_err());
    }

    #[test]
    fn derivability_in_lattice() {
        let s = schema();
        let base = GroupBy::finest(4);
        let mid = GroupBy::parse(&s, "A'B'C'D").unwrap();
        let q1 = GroupBy::parse(&s, "A'B''C''D").unwrap();
        let q2 = GroupBy::parse(&s, "A''B'C''D").unwrap();
        assert!(base.derives(&mid));
        assert!(mid.derives(&q1));
        assert!(mid.derives(&q2));
        assert!(!q1.derives(&mid));
        // The paper's key non-derivability: Q1's optimum and Q2's optimum
        // cannot answer each other.
        let v1 = GroupBy::parse(&s, "A'B''C'D").unwrap();
        let v2 = GroupBy::parse(&s, "A''B'C'D").unwrap();
        assert!(v1.derives(&q1));
        assert!(!v1.derives(&q2));
        assert!(v2.derives(&q2));
        assert!(!v2.derives(&q1));
        // Everything derives itself.
        for g in [&base, &mid, &q1, &q2] {
            assert!(g.derives(g));
        }
    }

    #[test]
    fn coarseness_and_combinations() {
        let s = schema();
        assert_eq!(GroupBy::finest(4).coarseness(&s), 0);
        assert_eq!(GroupBy::parse(&s, "A'B''C''D").unwrap().coarseness(&s), 5);
        assert_eq!(GroupBy::parse(&s, "A*B*C*D*").unwrap().coarseness(&s), 12);
        let gb = GroupBy::parse(&s, "A''B''C''D''").unwrap();
        assert_eq!(gb.combinations(&s), 81.0);
        let gball = GroupBy::parse(&s, "A*B*C*D*").unwrap();
        assert_eq!(gball.combinations(&s), 1.0);
    }

    #[test]
    fn key_cardinalities_skip_all_dimensions() {
        let s = schema();
        let gb = GroupBy::parse(&s, "A'B''C*D").unwrap();
        assert_eq!(gb.key_cardinalities(&s), vec![6, 3, 7200]);
        assert_eq!(gb.combinations(&s), (6 * 3 * 7200) as f64);
        let all = GroupBy::parse(&s, "A*B*C*D*").unwrap();
        assert_eq!(all.key_cardinalities(&s), Vec::<u32>::new());
        // Seven dimensions of 2^10 members each: the estimate stays a
        // finite f64 past u64.
        let wide = StarSchema::new(
            (0..7)
                .map(|i| Dimension::uniform(format!("X{i}"), 1 << 10, &[]))
                .collect(),
            "m",
        );
        let fine = GroupBy::finest(7);
        assert!(fine.combinations(&wide) > u64::MAX as f64);
        assert_eq!(fine.combinations(&wide), 2f64.powi(70));
    }

    #[test]
    fn pred_matches_with_rollup() {
        let s = schema();
        // Pred: A'' = A1 (top member 0). Keys stored at leaf level.
        let p = MemberPred::eq(2, 0);
        assert!(p.matches(&s, 0, 0, 0)); // leaf 0 → top 0
        assert!(p.matches(&s, 0, 0, 19)); // leaf 19 → top 0
        assert!(!p.matches(&s, 0, 0, 20)); // leaf 20 → top 1
                                           // Keys stored at mid level.
        assert!(p.matches(&s, 0, 1, 1));
        assert!(!p.matches(&s, 0, 1, 2));
        assert!(MemberPred::All.matches(&s, 0, 0, 59));
    }

    #[test]
    fn pred_normalizes_members() {
        let p = MemberPred::members_in(1, vec![3, 1, 3, 2]);
        assert_eq!(
            p,
            MemberPred::In {
                level: 1,
                members: vec![1, 2, 3]
            }
        );
    }

    #[test]
    fn pred_selectivity() {
        let s = schema();
        assert_eq!(MemberPred::All.selectivity(&s, 0), 1.0);
        assert_eq!(MemberPred::eq(2, 0).selectivity(&s, 0), 1.0 / 3.0);
        assert_eq!(
            MemberPred::members_in(1, vec![0, 1]).selectivity(&s, 0),
            2.0 / 6.0
        );
    }

    #[test]
    fn pred_expand_to_finer_level() {
        let s = schema();
        let p = MemberPred::eq(2, 1); // A'' = A2
        let mids = p.expand_to_level(&s, 0, 1).unwrap();
        assert_eq!(mids, vec![2, 3]);
        let leaves = p.expand_to_level(&s, 0, 0).unwrap();
        assert_eq!(leaves, (20..40).collect::<Vec<_>>());
        assert!(MemberPred::All.expand_to_level(&s, 0, 0).is_none());
    }

    #[test]
    fn required_levels_take_finer_of_target_and_pred() {
        let s = schema();
        // Target A''…, but predicate at A' → required level is A'.
        let q = GroupByQuery::new(
            GroupBy::parse(&s, "A''B''C''D").unwrap(),
            vec![
                MemberPred::eq(1, 3),
                MemberPred::All,
                MemberPred::eq(2, 0),
                MemberPred::All,
            ],
        );
        let req = q.required_levels();
        assert_eq!(req.level(0), LevelRef::Level(1));
        assert_eq!(req.level(1), LevelRef::Level(2));
        assert_eq!(req.level(2), LevelRef::Level(2));
        assert_eq!(req.level(3), LevelRef::Level(0));
        let v = GroupBy::parse(&s, "A'B'C'D").unwrap();
        assert!(q.answerable_from(&v));
        let too_coarse = GroupBy::parse(&s, "A''B'C'D").unwrap();
        assert!(!q.answerable_from(&too_coarse));
    }

    #[test]
    fn query_selectivity_multiplies() {
        let s = schema();
        let q = GroupByQuery::new(
            GroupBy::parse(&s, "A''B''C''D").unwrap(),
            vec![
                MemberPred::eq(2, 0),
                MemberPred::eq(2, 0),
                MemberPred::All,
                MemberPred::All,
            ],
        );
        assert!((q.selectivity(&s) - 1.0 / 9.0).abs() < 1e-12);
    }

    /// Derivability is a partial order over the lattice — the property
    /// the result cache's subsumption rule leans on: reflexive (every
    /// node answers itself), transitive (finer-than-finer answers the
    /// coarsest), and antisymmetric (mutually derivable nodes are the
    /// same node, so "strictly finer" is well defined).
    #[test]
    fn derivability_is_a_partial_order_over_the_lattice() {
        let s = schema();
        let mut nodes = crate::lattice_nodes(&s);
        nodes.push(GroupBy::finest(s.n_dims()));

        for a in &nodes {
            assert!(a.derives(a), "reflexivity: {}", a.display(&s));
        }
        for a in &nodes {
            for b in &nodes {
                if a.derives(b) && b.derives(a) {
                    assert_eq!(
                        a,
                        b,
                        "antisymmetry: {} and {} derive each other",
                        a.display(&s),
                        b.display(&s)
                    );
                }
            }
        }
        // Transitivity: per-dimension `provides` is an order on levels, so
        // checking every triple of *per-dimension* options is exhaustive
        // and cheap; the whole-lattice claim follows dimension-wise. Spot
        // check the composed form on full nodes as well.
        let options = [
            LevelRef::Level(0),
            LevelRef::Level(1),
            LevelRef::Level(2),
            LevelRef::All,
        ];
        for a in options {
            for b in options {
                for c in options {
                    if a.provides(b) && b.provides(c) {
                        assert!(a.provides(c), "transitivity: {a:?} {b:?} {c:?}");
                    }
                }
            }
        }
        for a in nodes.iter().step_by(7) {
            for b in nodes.iter().step_by(5) {
                for c in nodes.iter().step_by(3) {
                    if a.derives(b) && b.derives(c) {
                        assert!(
                            a.derives(c),
                            "transitivity: {} -> {} -> {}",
                            a.display(&s),
                            b.display(&s),
                            c.display(&s)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn display_renders_preds() {
        let s = schema();
        let q = GroupByQuery::new(
            GroupBy::parse(&s, "A'B''C''D").unwrap(),
            vec![
                MemberPred::members_in(1, vec![0, 1]),
                MemberPred::eq(2, 0),
                MemberPred::All,
                MemberPred::All,
            ],
        );
        let d = q.display(&s);
        assert!(d.starts_with("A'B''C''D ["), "{d}");
        assert!(d.contains("A' IN (AA1, AA2)"), "{d}");
        assert!(d.contains("B'' IN (B1)"), "{d}");
        let u = GroupByQuery::unfiltered(GroupBy::finest(4));
        assert_eq!(u.display(&s), "ABCD");
    }
}
