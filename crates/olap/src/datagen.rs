//! Deterministic synthetic data, including the paper's test database.
//!
//! [`paper_cube`] rebuilds the §7.2 setup: a base table `ABCD` of 2 M
//! 20-byte-class tuples (four dimension keys + a measure), four dimensions
//! with 3-level hierarchies and 3 members at each top level, materialized
//! group-bys playing the Table-1 roles, and bitmap join indexes on A, B, C
//! of both the base table and the `A'B'C'D` view.
//!
//! ### Reconstruction notes (see DESIGN.md §2)
//!
//! The paper's Table 1 is partially garbled in the surviving text; we choose
//! hierarchy fan-outs so the *relative* view sizes match the roles the
//! experiments need: `A'B'C'D ≈ 1.55× A'B''C'D ≈ A''B'C'D`, with
//! `A''B''C''D` much smaller. Sizes here are *measured* after aggregation,
//! not asserted — the table1 harness prints ours next to the paper's.
//!
//! A scale factor shrinks both the row count and the D-leaf cardinality so
//! saturation ratios (hence all size *ratios*) are preserved; tests run at
//! small scales with the same shape the benches see at full scale.

use starshare_bitmap::IndexFormat;
use starshare_prng::Prng;
use starshare_storage::{HeapFile, TupleLayout};

use crate::catalog::{materialize_agg, Catalog, Cube, StoredTable, TableId};
use crate::query::{AggFn, GroupBy};
use crate::schema::{Dimension, StarSchema};

/// Parameters for building the paper's cube.
#[derive(Debug, Clone, Copy)]
pub struct PaperCubeSpec {
    /// Rows in the base table (paper: 2,000,000).
    pub base_rows: u64,
    /// Leaf cardinality of dimension D (paper-scale default: 18432 = 3×8×768).
    pub d_leaf: u32,
    /// RNG seed.
    pub seed: u64,
    /// Build bitmap join indexes on A, B, C of `ABCD` and `A'B'C'D`.
    pub with_indexes: bool,
}

impl PaperCubeSpec {
    /// The full paper-scale spec.
    pub fn full() -> Self {
        PaperCubeSpec {
            base_rows: 2_000_000,
            d_leaf: 18432,
            seed: 19980601, // SIGMOD '98, Seattle
            with_indexes: true,
        }
    }

    /// A spec scaled by `f` (rows and D-leaf cardinality shrink together so
    /// view-size ratios are preserved). `f = 1.0` is the paper scale.
    ///
    /// # Panics
    /// Panics unless `0 < f ≤ 1`.
    pub fn scaled(f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1]");
        let full = Self::full();
        // Keep D's leaf a multiple of 24 so the 3 → 24 → leaf hierarchy
        // stays uniform.
        let d_leaf = (((full.d_leaf as f64 * f / 24.0).round() as u32).max(1)) * 24;
        PaperCubeSpec {
            base_rows: ((full.base_rows as f64 * f) as u64).max(1),
            d_leaf,
            ..full
        }
    }
}

impl Default for PaperCubeSpec {
    fn default() -> Self {
        Self::full()
    }
}

/// The paper's star schema: A, B, C with hierarchies 3 → 6 → 60 and D with
/// 3 → 24 → `d_leaf` (default 18432, chosen so the base table half-saturates
/// `A'B'C'D` — the regime where the Test-4/5 sharing trade-off matches the
/// paper's Table 1 size ratios).
///
/// Top levels have 3 members (`A1..A3` etc., §7.3); the 3→6 fan-out on
/// A/B/C makes the `A'B''C'D`-style views ~0.65× of `A'B'C'D`, the
/// closeness the Test 4/5 consolidation trade-off needs.
pub fn paper_schema(d_leaf: u32) -> StarSchema {
    assert!(
        d_leaf.is_multiple_of(24),
        "D leaf cardinality must refine 24"
    );
    StarSchema::new(
        vec![
            Dimension::uniform("A", 3, &[2, 10]),
            Dimension::uniform("B", 3, &[2, 10]),
            Dimension::uniform("C", 3, &[2, 10]),
            Dimension::uniform("D", 3, &[8, d_leaf / 24]),
        ],
        "dollars",
    )
}

/// Cumulative distribution of Zipf(θ) over `card` ranks.
fn zipf_cdf(card: u32, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=card).map(|k| 1.0 / (k as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Builds the paper's cube per `spec`.
pub fn paper_cube(spec: PaperCubeSpec) -> Cube {
    paper_cube_builder(spec).build()
}

/// The builder behind [`paper_cube`], for a paper cube with another
/// storage layout: e.g. `.compress()` or `.index_format(..)` before
/// [`build`](CubeBuilder::build).
pub fn paper_cube_builder(spec: PaperCubeSpec) -> CubeBuilder {
    let schema = paper_schema(spec.d_leaf);
    let mut builder = CubeBuilder::new(schema)
        .rows(spec.base_rows)
        .seed(spec.seed)
        .base_name("ABCD")
        .materialize("A'B'C'D")
        .materialize("A'B''C'D")
        .materialize("A''B'C'D")
        .materialize("A''B''C''D");
    if spec.with_indexes {
        // Indexes at the middle levels: fine enough for every predicate the
        // paper's queries use (`X''` members, `X''.CHILDREN` = X' members,
        // `FILTER(D.DD1)` = a D' member) while keeping bitmap counts small.
        for table in ["ABCD", "A'B'C'D"] {
            for level in ["A'", "B'", "C'", "D'"] {
                builder = builder.index(table, level);
            }
        }
    }
    builder
}

/// Builds cubes: generates a uniform base table, materializes views, builds
/// indexes. Used by [`paper_cube`] and directly by the examples.
#[derive(Debug)]
pub struct CubeBuilder {
    schema: StarSchema,
    rows: u64,
    seed: u64,
    base_name: Option<String>,
    views: Vec<(String, AggFn)>,
    indexes: Vec<(String, String)>,
    index_format: IndexFormat,
    zipf_theta: f64,
    with_stats: bool,
    cluster_by: Option<String>,
    compress: bool,
}

impl CubeBuilder {
    /// Starts a builder over `schema`.
    pub fn new(schema: StarSchema) -> Self {
        CubeBuilder {
            schema,
            rows: 10_000,
            seed: 0,
            base_name: None,
            views: Vec::new(),
            indexes: Vec::new(),
            index_format: IndexFormat::Plain,
            zipf_theta: 0.0,
            with_stats: false,
            cluster_by: None,
            compress: false,
        }
    }

    /// Sets the base-table row count.
    pub fn rows(mut self, rows: u64) -> Self {
        self.rows = rows;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Names the base table (defaults to the finest group-by shorthand).
    pub fn base_name(mut self, name: impl Into<String>) -> Self {
        self.base_name = Some(name.into());
        self
    }

    /// Materializes a SUM view at the given group-by shorthand.
    pub fn materialize(mut self, group_by: impl Into<String>) -> Self {
        self.views.push((group_by.into(), AggFn::Sum));
        self
    }

    /// Materializes a view holding `agg` of the measure (SUM views keep the
    /// bare shorthand as their name; others are named `AGG:shorthand`).
    ///
    /// # Panics (at build time)
    /// `AggFn::Avg` views are rejected — averages cannot be re-aggregated,
    /// so such a view could never answer anything.
    pub fn materialize_agg(mut self, group_by: impl Into<String>, agg: AggFn) -> Self {
        self.views.push((group_by.into(), agg));
        self
    }

    /// Builds a bitmap join index on the table named `table`, keyed at the
    /// hierarchy level named `level` (e.g. `"A'"` indexes dimension A at
    /// its middle level).
    pub fn index(mut self, table: impl Into<String>, level: impl Into<String>) -> Self {
        self.indexes.push((table.into(), level.into()));
        self
    }

    /// Sets the storage format used for all indexes built by this builder.
    pub fn index_format(mut self, format: IndexFormat) -> Self {
        self.index_format = format;
        self
    }

    /// Collects per-dimension frequency histograms from the generated base
    /// table, enabling histogram-exact predicate selectivities in the cost
    /// model (off by default — the paper's optimizer assumes uniformity).
    pub fn collect_stats(mut self) -> Self {
        self.with_stats = true;
        self
    }

    /// Sorts the generated base rows by the named dimension's leaf key
    /// before loading — the clustering a time-ordered fact load produces.
    /// The sort is stable, so rows sharing a key keep their generation
    /// order and the load stays deterministic. Zone maps (see
    /// `starshare_storage::HeapFile`) only prune clustered dimensions, so
    /// this is what makes partition pruning effective. Views are
    /// unaffected (they stay hash-ordered).
    ///
    /// # Panics (at build time)
    /// Panics if no dimension has that name.
    pub fn cluster_by(mut self, dim: impl Into<String>) -> Self {
        self.cluster_by = Some(dim.into());
        self
    }

    /// Stores every generated table compressed: pages are sealed as they
    /// fill (bit-packed keys, quantized measures) and reads decode through
    /// the same byte-priced buffer-pool path. Results are bit-identical to
    /// the uncompressed build; only the bytes accounting changes.
    pub fn compress(mut self) -> Self {
        self.compress = true;
        self
    }

    /// Skews the generated keys: every dimension draws its leaf members
    /// from a Zipf(θ) distribution instead of uniformly (θ = 0 is uniform;
    /// θ = 1 is classic Zipf). Real dimensional data is skewed, and the
    /// cost model's uniformity assumption degrades with θ — the `ablations`
    /// harness quantifies by how much.
    pub fn skew(mut self, theta: f64) -> Self {
        assert!(theta >= 0.0, "zipf theta must be non-negative");
        self.zipf_theta = theta;
        self
    }

    /// Generates everything.
    ///
    /// Views are materialized from the smallest already-built table that
    /// derives them (declaration order matters only for ties). Panics on an
    /// unknown group-by, table, or dimension name.
    pub fn build(self) -> Cube {
        let schema = self.schema;
        let n_dims = schema.n_dims();
        let mut catalog = Catalog::new();

        // Base table: keys at every leaf (uniform, or Zipf when skewed),
        // measure in whole quarter units in [0, 100) — the measure domain
        // (`starshare_storage::measure`).
        let mut rng = Prng::seed_from_u64(self.seed);
        let layout = TupleLayout::new(n_dims);
        let base_file = catalog.alloc_file_id();
        let mut heap = HeapFile::new(base_file, layout);
        let cards: Vec<u32> = (0..n_dims).map(|d| schema.dim(d).cardinality(0)).collect();
        // Per-dimension Zipf CDFs (empty when uniform, keeping the uniform
        // path — and its sampling sequence — byte-identical to before).
        let cdfs: Vec<Vec<f64>> = if self.zipf_theta > 0.0 {
            cards
                .iter()
                .map(|&c| zipf_cdf(c, self.zipf_theta))
                .collect()
        } else {
            Vec::new()
        };
        let cluster_dim = self.cluster_by.as_deref().map(|name| {
            (0..n_dims)
                .find(|&d| schema.dim(d).name() == name)
                .unwrap_or_else(|| panic!("no dimension named {name}"))
        });
        let mut keys = vec![0u32; n_dims];
        let gen_row = |keys: &mut [u32], rng: &mut Prng| -> f64 {
            for (d, k) in keys.iter_mut().enumerate() {
                *k = if self.zipf_theta > 0.0 {
                    let u: f64 = rng.gen_f64();
                    cdfs[d].partition_point(|&p| p < u) as u32
                } else {
                    rng.gen_range(0..cards[d])
                };
            }
            rng.gen_range(0u32..400) as f64 * 0.25
        };
        match cluster_dim {
            None => {
                for _ in 0..self.rows {
                    let measure = gen_row(&mut keys, &mut rng);
                    heap.append(&keys, measure);
                }
            }
            Some(cd) => {
                // Generate first (same RNG sequence as the unclustered
                // path), then load in stable sorted order by the cluster
                // key. Flat buffers + an index sort keep the peak memory
                // proportional to the data, not to per-row allocations.
                let n = self.rows as usize;
                let mut flat: Vec<u32> = Vec::with_capacity(n * n_dims);
                let mut measures: Vec<f64> = Vec::with_capacity(n);
                for _ in 0..self.rows {
                    measures.push(gen_row(&mut keys, &mut rng));
                    flat.extend_from_slice(&keys);
                }
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by_key(|&i| flat[i as usize * n_dims + cd]);
                for &i in &order {
                    let r = i as usize;
                    heap.append(&flat[r * n_dims..(r + 1) * n_dims], measures[r]);
                }
            }
        }
        if self.compress {
            heap.compress();
        }
        let finest = GroupBy::finest(n_dims);
        let base_name = self.base_name.unwrap_or_else(|| finest.display(&schema));
        catalog.add_table(StoredTable::new(base_name, finest, heap));

        // Views, each built from the smallest existing source that derives
        // the target levels *and* whose measure supports the view's agg.
        for (view, agg) in &self.views {
            let target =
                GroupBy::parse(&schema, view).unwrap_or_else(|e| panic!("bad view {view:?}: {e}"));
            let name = match agg {
                AggFn::Sum => view.clone(),
                other => format!("{other}:{view}"),
            };
            assert!(
                catalog.find_by_name(&name).is_none(),
                "view {name} declared twice"
            );
            let source: TableId = catalog
                .iter()
                .filter(|(_, t)| t.group_by().derives(&target) && t.measure().answers(*agg))
                .min_by_key(|(_, t)| t.n_rows())
                .map(|(id, _)| id)
                .unwrap_or_else(|| panic!("no source derives {name}"));
            let file = catalog.alloc_file_id();
            let mut table =
                materialize_agg(&schema, catalog.table(source), target, *agg, name, file);
            if self.compress {
                table.heap_mut().compress();
            }
            catalog.add_table(table);
        }

        // Indexes.
        for (table_name, level_name) in &self.indexes {
            let tid = catalog
                .find_by_name(table_name)
                .unwrap_or_else(|| panic!("no table named {table_name}"));
            let (d, level) = schema
                .dim_of_level(level_name)
                .unwrap_or_else(|| panic!("no level named {level_name}"));
            let file = catalog.alloc_file_id();
            catalog.table_mut(tid).build_index_with_format(
                &schema,
                d,
                level,
                self.index_format,
                file,
            );
        }

        let mut cube = Cube::new(schema, catalog);
        if self.with_stats {
            cube.collect_stats();
        }
        cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> PaperCubeSpec {
        PaperCubeSpec {
            base_rows: 5_000,
            d_leaf: 24,
            seed: 42,
            with_indexes: true,
        }
    }

    #[test]
    fn paper_schema_cardinalities() {
        let s = paper_schema(18432);
        assert_eq!(s.n_dims(), 4);
        for d in 0..3 {
            assert_eq!(s.dim(d).cardinality(2), 3);
            assert_eq!(s.dim(d).cardinality(1), 6);
            assert_eq!(s.dim(d).cardinality(0), 60);
        }
        assert_eq!(s.dim(3).cardinality(2), 3);
        assert_eq!(s.dim(3).cardinality(1), 24);
        assert_eq!(s.dim(3).cardinality(0), 18432);
        // The paper's member names resolve.
        assert_eq!(s.dim(0).find_member("A1"), Some((2, 0)));
        assert_eq!(s.dim(3).find_member("DD1"), Some((1, 0)));
    }

    #[test]
    fn generated_cubes_lie_in_the_measure_domain() {
        use crate::catalog::MeasureKind;
        use starshare_storage::{quarter_units, MEASURE_LIMIT_UNITS, PARTIAL_LIMIT_UNITS};
        let skewed = CubeBuilder::new(paper_schema(24))
            .rows(3_000)
            .seed(9)
            .skew(1.1)
            .materialize("A''B''C''D''")
            .materialize_agg("A'B'C'D", AggFn::Count)
            .build();
        for cube in [paper_cube(tiny_spec()), skewed] {
            for (_, t) in cube.catalog.iter() {
                let limit = match t.measure() {
                    MeasureKind::Raw => MEASURE_LIMIT_UNITS,
                    MeasureKind::Aggregated(_) => PARTIAL_LIMIT_UNITS,
                };
                let mut keys = vec![0u32; 4];
                for pos in 0..t.n_rows() {
                    let m = t.heap().read_at(pos, &mut keys);
                    assert!(
                        quarter_units(m, limit).is_some(),
                        "{} row {pos}: {m}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_cube_has_expected_tables() {
        let cube = paper_cube(tiny_spec());
        let names: Vec<&str> = cube.catalog.iter().map(|(_, t)| t.name()).collect();
        assert_eq!(
            names,
            vec!["ABCD", "A'B'C'D", "A'B''C'D", "A''B'C'D", "A''B''C''D"]
        );
        let base = cube.catalog.table(cube.catalog.base_table().unwrap());
        assert_eq!(base.n_rows(), 5_000);
        // Indexes at the middle level on all four dims of base and A'B'C'D.
        for name in ["ABCD", "A'B'C'D"] {
            let t = cube.catalog.table(cube.catalog.find_by_name(name).unwrap());
            for d in 0..4 {
                let ix = t.index(d).unwrap_or_else(|| panic!("{name} dim {d}"));
                assert_eq!(ix.level, 1, "{name} dim {d}");
            }
        }
    }

    #[test]
    fn view_sizes_preserve_paper_ratios() {
        // At scale, A'B'C'D must be larger than the two mid views but by
        // less than 2×, and A''B''C''D much smaller — the Test-4 geometry.
        let cube = paper_cube(PaperCubeSpec {
            base_rows: 50_000,
            d_leaf: 192,
            seed: 7,
            with_indexes: false,
        });
        let rows = |n: &str| {
            cube.catalog
                .table(cube.catalog.find_by_name(n).unwrap())
                .n_rows() as f64
        };
        let big = rows("A'B'C'D");
        let mid1 = rows("A'B''C'D");
        let mid2 = rows("A''B'C'D");
        let small = rows("A''B''C''D");
        assert!(big > mid1 && big > mid2, "{big} {mid1} {mid2}");
        assert!(big / mid1 < 2.0, "ratio {}", big / mid1);
        assert!((mid1 - mid2).abs() / mid1 < 0.1, "{mid1} vs {mid2}");
        assert!(small < 0.5 * mid1, "{small} vs {mid1}");
    }

    #[test]
    fn views_sum_to_base_total() {
        let cube = paper_cube(tiny_spec());
        let total = |name: &str| {
            let t = cube.catalog.table(cube.catalog.find_by_name(name).unwrap());
            let mut keys = vec![0u32; 4];
            (0..t.n_rows())
                .map(|p| t.heap().read_at(p, &mut keys))
                .sum::<f64>()
        };
        let base = total("ABCD");
        for v in ["A'B'C'D", "A'B''C'D", "A''B'C'D", "A''B''C''D"] {
            let vt = total(v);
            assert!(
                (vt - base).abs() < 1e-6 * base.abs().max(1.0),
                "{v}: {vt} vs base {base}"
            );
        }
    }

    #[test]
    fn clustered_compressed_build_holds_the_same_rows() {
        let plain = CubeBuilder::new(paper_schema(24))
            .rows(4_000)
            .seed(9)
            .materialize("A'B'C'D")
            .build();
        let built = CubeBuilder::new(paper_schema(24))
            .rows(4_000)
            .seed(9)
            .materialize("A'B'C'D")
            .cluster_by("D")
            .compress()
            .build();
        let collect = |cube: &Cube, name: &str| -> Vec<(Vec<u32>, u64)> {
            let t = cube.catalog.table(cube.catalog.find_by_name(name).unwrap());
            let mut keys = vec![0u32; 4];
            (0..t.n_rows())
                .map(|p| {
                    let m = t.heap().read_at(p, &mut keys);
                    (keys.clone(), m.to_bits())
                })
                .collect()
        };
        // Base: clustered order, same multiset, bit-identical measures.
        let clustered = collect(&built, "ABCD");
        for w in clustered.windows(2) {
            assert!(w[0].0[3] <= w[1].0[3], "base must be sorted by D");
        }
        let mut a = collect(&plain, "ABCD");
        let mut b = clustered;
        a.sort();
        b.sort();
        assert_eq!(a, b, "clustering+compression must not alter the data");
        // Views aggregate the same multiset in the same hash order, so
        // they come out row-identical despite the base reorder.
        assert_eq!(collect(&plain, "A'B'C'D"), collect(&built, "A'B'C'D"));
        let base = built.catalog.table(built.catalog.base_table().unwrap());
        assert!(base.heap().is_compressed());
        assert!(base.heap().resident_bytes() < base.heap().page_count() as u64 * 8192);
    }

    #[test]
    fn generation_is_deterministic() {
        let c1 = paper_cube(tiny_spec());
        let c2 = paper_cube(tiny_spec());
        let t1 = c1.catalog.table(TableId(0));
        let t2 = c2.catalog.table(TableId(0));
        assert_eq!(t1.n_rows(), t2.n_rows());
        let mut k1 = vec![0u32; 4];
        let mut k2 = vec![0u32; 4];
        for pos in (0..t1.n_rows()).step_by(379) {
            let m1 = t1.heap().read_at(pos, &mut k1);
            let m2 = t2.heap().read_at(pos, &mut k2);
            assert_eq!(k1, k2);
            assert_eq!(m1, m2);
        }
    }

    #[test]
    fn scaled_spec_preserves_structure() {
        let s = PaperCubeSpec::scaled(0.01);
        assert_eq!(s.base_rows, 20_000);
        assert!(s.d_leaf.is_multiple_of(24));
        assert!(s.d_leaf >= 24);
        let full = PaperCubeSpec::scaled(1.0);
        assert_eq!(full.base_rows, 2_000_000);
        assert_eq!(full.d_leaf, 18432);
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        PaperCubeSpec::scaled(0.0);
    }

    #[test]
    fn builder_panics_on_unknown_view() {
        let schema = paper_schema(24);
        let r = std::panic::catch_unwind(|| {
            CubeBuilder::new(schema).rows(10).materialize("XYZ").build()
        });
        assert!(r.is_err());
    }

    #[test]
    fn builder_materializes_from_smallest_source() {
        // A''B''C''D should be derived from a mid view, not the base —
        // verified indirectly: results must still equal base-derived.
        let cube = paper_cube(tiny_spec());
        let schema = &cube.schema;
        let small = cube
            .catalog
            .table(cube.catalog.find_by_name("A''B''C''D").unwrap());
        let base = cube
            .catalog
            .table(cube.catalog.find_by_name("ABCD").unwrap());
        let direct = crate::catalog::materialize(
            schema,
            base,
            small.group_by().clone(),
            "check",
            starshare_storage::FileId(999),
        );
        assert_eq!(small.n_rows(), direct.n_rows());
        let mut k1 = vec![0u32; 4];
        let mut k2 = vec![0u32; 4];
        for pos in 0..small.n_rows() {
            let m1 = small.heap().read_at(pos, &mut k1);
            let m2 = direct.heap().read_at(pos, &mut k2);
            assert_eq!(k1, k2, "row {pos}");
            assert!((m1 - m2).abs() < 1e-9 * m1.abs().max(1.0));
        }
    }
}

#[cfg(test)]
mod skew_tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_a_distribution() {
        let cdf = zipf_cdf(10, 1.0);
        assert_eq!(cdf.len(), 10);
        assert!((cdf[9] - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0] < w[1]);
        }
        // First rank carries the most mass.
        assert!(cdf[0] > 0.2);
    }

    #[test]
    fn skewed_cube_concentrates_on_low_members() {
        let schema = StarSchema::new(vec![Dimension::uniform("X", 2, &[10])], "m");
        let cube = CubeBuilder::new(schema.clone())
            .rows(5_000)
            .seed(8)
            .skew(1.0)
            .build();
        let t = cube.catalog.table(TableId(0));
        let mut keys = [0u32; 1];
        let mut low = 0u64;
        for pos in 0..t.n_rows() {
            t.heap().read_at(pos, &mut keys);
            if keys[0] < 4 {
                low += 1;
            }
        }
        // Uniform would put 20% in the first 4 of 20 members; Zipf(1) puts
        // well over half there.
        assert!(low as f64 > 0.5 * t.n_rows() as f64, "{low}");
        // Unskewed generation is unchanged (same seed → same data as ever).
        let uni = CubeBuilder::new(schema).rows(5_000).seed(8).build();
        let tu = uni.catalog.table(TableId(0));
        let mut low_u = 0u64;
        for pos in 0..tu.n_rows() {
            tu.heap().read_at(pos, &mut keys);
            if keys[0] < 4 {
                low_u += 1;
            }
        }
        assert!((low_u as f64) < 0.3 * tu.n_rows() as f64);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_skew_rejected() {
        let schema = StarSchema::new(vec![Dimension::uniform("X", 2, &[2])], "m");
        let _ = CubeBuilder::new(schema).skew(-1.0);
    }
}
