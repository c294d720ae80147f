//! Pins the generated cube's physical layout.
//!
//! Views are stored in hash order and probed through bitmap join indexes,
//! so *where* each row sits is part of what the optimizer's cost model and
//! the simulated clock see. These fingerprints cover every table's rows in
//! heap position order (keys and measure bits) and every index's members,
//! bitmaps and page ranges. A change to how views or indexes are built must
//! leave them unchanged; the values were taken from a build whose layout
//! the simulated-clock baseline (`BENCH_sim.json`) was recorded on.

use starshare_bitmap::IndexFormat;
use starshare_olap::{paper_cube, paper_schema, AggFn, Cube, CubeBuilder, PaperCubeSpec};
use starshare_storage::{BufferPool, ScanBatch};

/// FNV-1a over a stream of `u64` words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

/// One fingerprint per table (rows in position order) and one per index
/// (members, their bit positions, stored form and page ranges), labelled.
fn layout(cube: &Cube) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (_, t) in cube.catalog.iter() {
        let heap = t.heap();
        let mut f = Fingerprint::new();
        f.text(t.name());
        f.word(heap.n_tuples());
        f.word(heap.page_count() as u64);
        let mut cursor = heap.scan_batches(0, heap.n_tuples());
        let mut batch = ScanBatch::new(heap.layout());
        let mut next = 0u64;
        while cursor.read_next(&mut batch) {
            for i in 0..batch.len() {
                assert_eq!(batch.pos(i), next, "batches cover every position once");
                next += 1;
                for d in 0..heap.layout().n_dims() {
                    f.word(batch.key(d, i) as u64);
                }
                f.word(batch.measure(i).to_bits());
            }
        }
        out.push((t.name().to_string(), f.0));
        for d in 0..cube.schema.n_dims() {
            let Some(ix) = t.index(d) else { continue };
            let index = &ix.index;
            let mut f = Fingerprint::new();
            f.text(index.name());
            f.word(ix.level as u64);
            f.word(index.n_rows());
            f.word(index.total_pages() as u64);
            f.word(index.byte_size());
            f.word(index.compressed_members() as u64);
            for m in index.members() {
                let bits = index.peek(m).expect("listed member is present");
                f.word(m as u64);
                f.word(bits.count_ones());
                for p in bits.iter_ones() {
                    f.word(p);
                }
                // The member's page range, read back through a fresh pool.
                let mut pool = BufferPool::new(index.total_pages() as usize + 1);
                index.lookup(m, &mut pool);
                let pages: Vec<u32> = (0..index.total_pages())
                    .filter(|&p| pool.contains(index.file_id(), p))
                    .collect();
                assert_eq!(pages.len() as u32, index.lookup_pages(m));
                assert!(pages.windows(2).all(|w| w[1] == w[0] + 1));
                f.word(pages[0] as u64);
                f.word(pages.len() as u64);
            }
            out.push((index.name().to_string(), f.0));
        }
    }
    out
}

fn assert_layout(cube: &Cube, pinned: &[(&str, u64)]) {
    let got = layout(cube);
    let listing: String = got
        .iter()
        .map(|(n, h)| format!("(\"{n}\", {h:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = pinned.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "layout of {} moved; this build's:\n{listing}", w.0);
    }
    assert_eq!(
        got, want,
        "tables or indexes differ; this build's:\n{listing}"
    );
}

/// The paper's cube at scale 0.02: base table, four SUM views built each
/// from its smallest parent, and plain indexes on both indexed tables.
#[test]
fn paper_cube_layout_is_pinned() {
    let cube = paper_cube(PaperCubeSpec::scaled(0.02));
    assert_layout(
        &cube,
        &[
            ("ABCD", 0x92cf41c81f885096),
            ("ABCD.A'", 0xa6fa2a28593dadb3),
            ("ABCD.B'", 0xb7be8e7c67cfe057),
            ("ABCD.C'", 0xa5514368b5b4eaf6),
            ("ABCD.D'", 0xba75fda7d3ad4459),
            ("A'B'C'D", 0x9b9812e4454723cb),
            ("A'B'C'D.A'", 0xb341e08f1084fcdf),
            ("A'B'C'D.B'", 0x5e39e6227d6f8c90),
            ("A'B'C'D.C'", 0x2a50dedf60eaf8b7),
            ("A'B'C'D.D'", 0x46fa2f5a8dc7aee9),
            ("A'B''C'D", 0x3ff7435346649d5c),
            ("A''B'C'D", 0x77c45d74e28948ef),
            ("A''B''C''D", 0x9afe3dab7c135717),
        ],
    );
}

/// MIN, MAX and COUNT views, a view built from another view, compressed
/// heaps and compressed-format indexes on a view.
#[test]
fn compressed_mixed_aggregate_cube_layout_is_pinned() {
    let cube = CubeBuilder::new(paper_schema(48))
        .rows(6_000)
        .seed(26)
        .base_name("ABCD")
        .materialize("A'B'C'D")
        .materialize_agg("A'B''C'D'", AggFn::Min)
        .materialize_agg("A''B'C''D", AggFn::Max)
        .materialize_agg("A'B'C''D'", AggFn::Count)
        .materialize("A''B''C''D''")
        .index("ABCD", "A'")
        .index("A'B'C'D", "B'")
        .index("A'B'C'D", "D'")
        .index("MIN:A'B''C'D'", "C'")
        .index_format(IndexFormat::Compressed)
        .compress()
        .build();
    let compressed_members: usize = cube
        .catalog
        .iter()
        .flat_map(|(_, t)| (0..4).filter_map(move |d| t.index(d)))
        .map(|ix| ix.index.compressed_members())
        .sum();
    assert!(
        compressed_members > 0,
        "some member must be stored compressed"
    );
    assert_layout(
        &cube,
        &[
            ("ABCD", 0xad4903785e422189),
            ("ABCD.A'", 0xb1e9461a2c64cdf7),
            ("A'B'C'D", 0x16db2c7d5b1f7de7),
            ("A'B'C'D.B'", 0xad2805c677bd2a50),
            ("A'B'C'D.D'", 0x966ecae7310f3890),
            ("MIN:A'B''C'D'", 0x78deebc1853b8a3e),
            ("MIN:A'B''C'D'.C'", 0x3cc1fc37a4fe527f),
            ("MAX:A''B'C''D", 0x9e44f470e1a57935),
            ("COUNT:A'B'C''D'", 0xbc362cada4f00287),
            ("A''B''C''D''", 0x82c64082cd2b3213),
        ],
    );
}
