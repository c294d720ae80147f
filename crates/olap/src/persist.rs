//! Cube snapshots: save a built cube to a file and load it back.
//!
//! Building the paper-scale cube (generate 2 M rows, aggregate four views,
//! build eight bitmap join indexes) takes on the order of a minute;
//! experiment harnesses and the CLI snapshot it once and reload in seconds.
//!
//! Format (`STARSHR1`, little-endian throughout): schema (dimensions,
//! levels, member names), then each stored table's metadata and raw tuple
//! bytes. **Bitmap join indexes are not serialized** — they are rebuilt at
//! load time from the heap (cheap relative to I/O, and it keeps the format
//! independent of the index representation). File ids are preserved so
//! buffer-pool accounting is identical before and after a round trip.
//!
//! A cube file is outside input: loading refuses any table of 2^31 rows or
//! more and any measure outside the measure domain — fact measures for the
//! base table, partial aggregates for views (`starshare_storage::measure`).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use starshare_storage::{
    quarter_units, FileId, HeapFile, TupleLayout, MEASURE_LIMIT_UNITS, PARTIAL_LIMIT_UNITS,
};

use crate::catalog::{Catalog, Cube, MeasureKind, StoredTable};
use crate::query::{AggFn, GroupBy, LevelRef};
use crate::schema::{Dimension, LevelDef, StarSchema};

const MAGIC: &[u8; 8] = b"STARSHR1";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u8(w: &mut impl Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(bad("unreasonable string length"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("invalid utf-8 in string"))
}

fn agg_code(a: AggFn) -> u8 {
    match a {
        AggFn::Sum => 0,
        AggFn::Count => 1,
        AggFn::Min => 2,
        AggFn::Max => 3,
        AggFn::Avg => 4,
    }
}

fn agg_from(code: u8) -> io::Result<AggFn> {
    Ok(match code {
        0 => AggFn::Sum,
        1 => AggFn::Count,
        2 => AggFn::Min,
        3 => AggFn::Max,
        4 => AggFn::Avg,
        _ => return Err(bad(format!("bad aggregate code {code}"))),
    })
}

/// Saves `cube` to `path`.
pub fn save_cube(cube: &Cube, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;

    // Schema.
    let schema = &cube.schema;
    write_u32(&mut w, schema.n_dims() as u32)?;
    for dim in schema.dimensions() {
        write_str(&mut w, dim.name())?;
        write_u32(&mut w, dim.n_levels() as u32)?;
        for l in 0..dim.n_levels() {
            let def = dim.level(l);
            write_str(&mut w, &def.name)?;
            write_u32(&mut w, def.cardinality)?;
            match &def.member_names {
                None => write_u8(&mut w, 0)?,
                Some(names) => {
                    write_u8(&mut w, 1)?;
                    for n in names {
                        write_str(&mut w, n)?;
                    }
                }
            }
        }
    }
    write_str(&mut w, schema.measure_name())?;
    write_u8(&mut w, cube.stats.is_some() as u8)?;

    // Tables.
    write_u32(&mut w, cube.catalog.n_tables() as u32)?;
    for (_, t) in cube.catalog.iter() {
        write_str(&mut w, t.name())?;
        for d in 0..schema.n_dims() {
            match t.group_by().level(d) {
                LevelRef::Level(l) => write_u8(&mut w, l)?,
                LevelRef::All => write_u8(&mut w, 255)?,
            }
        }
        match t.measure() {
            MeasureKind::Raw => write_u8(&mut w, 255)?,
            MeasureKind::Aggregated(a) => write_u8(&mut w, agg_code(a))?,
        }
        write_u32(&mut w, t.heap().file_id().index())?;
        write_u64(&mut w, t.n_rows())?;
        let mut keys = vec![0u32; schema.n_dims()];
        for pos in 0..t.n_rows() {
            let m = t.heap().read_at(pos, &mut keys);
            for &k in &keys {
                write_u32(&mut w, k)?;
            }
            write_f64(&mut w, m)?;
        }
        // Index metadata: (present, level, file id) per dimension.
        for d in 0..schema.n_dims() {
            match t.index(d) {
                None => write_u8(&mut w, 0)?,
                Some(ix) => {
                    write_u8(&mut w, 1)?;
                    write_u8(&mut w, ix.level)?;
                    write_u32(&mut w, ix.index.file_id().index())?;
                }
            }
        }
    }
    w.flush()
}

/// Loads a cube previously written by [`save_cube`], rebuilding its bitmap
/// join indexes.
pub fn load_cube(path: impl AsRef<Path>) -> io::Result<Cube> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a starshare cube file"));
    }

    // Schema.
    let n_dims = read_u32(&mut r)? as usize;
    if n_dims == 0 || n_dims > 64 {
        return Err(bad("unreasonable dimension count"));
    }
    let mut dims = Vec::with_capacity(n_dims);
    for _ in 0..n_dims {
        let name = read_str(&mut r)?;
        let n_levels = read_u32(&mut r)? as usize;
        if n_levels == 0 || n_levels > 32 {
            return Err(bad("unreasonable level count"));
        }
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let lname = read_str(&mut r)?;
            let cardinality = read_u32(&mut r)?;
            let member_names = match read_u8(&mut r)? {
                0 => None,
                1 => {
                    let mut names = Vec::with_capacity(cardinality as usize);
                    for _ in 0..cardinality {
                        names.push(read_str(&mut r)?);
                    }
                    Some(names)
                }
                other => return Err(bad(format!("bad member-name flag {other}"))),
            };
            levels.push(LevelDef {
                name: lname,
                cardinality,
                member_names,
            });
        }
        dims.push(Dimension::new(name, levels));
    }
    let measure_name = read_str(&mut r)?;
    let schema = StarSchema::new(dims, measure_name);
    let has_stats = read_u8(&mut r)? == 1;

    // Tables.
    let n_tables = read_u32(&mut r)? as usize;
    let mut catalog = Catalog::new();
    let mut max_file = 0u32;
    struct PendingIndex {
        dim: usize,
        level: u8,
        file: FileId,
    }
    let mut pending: Vec<(usize, Vec<PendingIndex>)> = Vec::new();
    for ti in 0..n_tables {
        let name = read_str(&mut r)?;
        let mut levels = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            levels.push(match read_u8(&mut r)? {
                255 => LevelRef::All,
                l => LevelRef::Level(l),
            });
        }
        let measure = match read_u8(&mut r)? {
            255 => MeasureKind::Raw,
            code => MeasureKind::Aggregated(agg_from(code)?),
        };
        let file = FileId(read_u32(&mut r)?);
        max_file = max_file.max(file.index());
        let n_rows = read_u64(&mut r)?;
        crate::maintain::check_fact_rows(n_rows).map_err(|e| bad(e.to_string()))?;
        let limit = match measure {
            MeasureKind::Raw => MEASURE_LIMIT_UNITS,
            MeasureKind::Aggregated(_) => PARTIAL_LIMIT_UNITS,
        };
        let mut heap = HeapFile::new(file, TupleLayout::new(n_dims));
        let mut keys = vec![0u32; n_dims];
        for row in 0..n_rows {
            for k in keys.iter_mut() {
                *k = read_u32(&mut r)?;
            }
            let m = read_f64(&mut r)?;
            if quarter_units(m, limit).is_none() {
                return Err(bad(format!(
                    "table {name} row {row}: inexact measure {m:?}"
                )));
            }
            heap.append(&keys, m);
        }
        let table = StoredTable::with_measure(name, GroupBy::new(levels), heap, measure);
        let mut idxs = Vec::new();
        for d in 0..n_dims {
            if read_u8(&mut r)? == 1 {
                let level = read_u8(&mut r)?;
                let file = FileId(read_u32(&mut r)?);
                max_file = max_file.max(file.index());
                idxs.push(PendingIndex {
                    dim: d,
                    level,
                    file,
                });
            }
        }
        catalog.add_table(table);
        pending.push((ti, idxs));
    }
    // Rebuild indexes.
    for (ti, idxs) in pending {
        for p in idxs {
            catalog
                .table_mut(crate::catalog::TableId(ti))
                .build_index(&schema, p.dim, p.level, p.file);
        }
    }
    catalog.ensure_file_watermark(max_file + 1);
    let mut cube = Cube::new(schema, catalog);
    if has_stats {
        cube.collect_stats();
    }
    Ok(cube)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{paper_cube, PaperCubeSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("starshare-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn cube_round_trips_exactly() {
        let cube = paper_cube(PaperCubeSpec {
            base_rows: 2_000,
            d_leaf: 24,
            seed: 31,
            with_indexes: true,
        });
        let path = tmp("roundtrip.ss");
        save_cube(&cube, &path).unwrap();
        let loaded = load_cube(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.schema.n_dims(), cube.schema.n_dims());
        assert_eq!(loaded.catalog.n_tables(), cube.catalog.n_tables());
        for ((_, a), (_, b)) in cube.catalog.iter().zip(loaded.catalog.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.group_by(), b.group_by());
            assert_eq!(a.measure(), b.measure());
            assert_eq!(a.n_rows(), b.n_rows());
            assert_eq!(a.heap().file_id(), b.heap().file_id());
            let mut k1 = vec![0u32; 4];
            let mut k2 = vec![0u32; 4];
            for pos in 0..a.n_rows() {
                let m1 = a.heap().read_at(pos, &mut k1);
                let m2 = b.heap().read_at(pos, &mut k2);
                assert_eq!(k1, k2, "{} row {pos}", a.name());
                assert_eq!(m1.to_bits(), m2.to_bits(), "{} row {pos}", a.name());
            }
            // Indexes rebuilt identically.
            for d in 0..4 {
                match (a.index(d), b.index(d)) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.level, y.level);
                        assert_eq!(x.index.file_id(), y.index.file_id());
                        assert_eq!(x.index.n_members(), y.index.n_members());
                        for m in x.index.members() {
                            assert_eq!(x.index.peek(m), y.index.peek(m));
                        }
                    }
                    _ => panic!("index presence differs on {} dim {d}", a.name()),
                }
            }
        }
    }

    #[test]
    fn loaded_cube_allocates_fresh_file_ids() {
        let cube = paper_cube(PaperCubeSpec {
            base_rows: 100,
            d_leaf: 24,
            seed: 1,
            with_indexes: true,
        });
        let path = tmp("watermark.ss");
        save_cube(&cube, &path).unwrap();
        let mut loaded = load_cube(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let fresh = loaded.catalog.alloc_file_id();
        for (_, t) in loaded.catalog.iter() {
            assert_ne!(t.heap().file_id(), fresh);
            for d in 0..4 {
                if let Some(ix) = t.index(d) {
                    assert_ne!(ix.index.file_id(), fresh);
                }
            }
        }
    }

    #[test]
    fn rejects_a_measure_outside_the_domain() {
        let cube = paper_cube(PaperCubeSpec {
            base_rows: 200,
            d_leaf: 24,
            seed: 5,
            with_indexes: false,
        });
        let path = tmp("inexact.ss");
        save_cube(&cube, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The base table's first row, as written: its keys, then its measure.
        let base = cube.catalog.table(cube.catalog.base_table().unwrap());
        let mut keys = vec![0u32; 4];
        let m = base.heap().read_at(0, &mut keys);
        let mut row: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        row.extend(m.to_le_bytes());
        let at = bytes
            .windows(row.len())
            .position(|w| w == row.as_slice())
            .expect("first row is in the file");
        let measure = at + 16..at + 24;
        bytes[measure].copy_from_slice(&0.1f64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let r = load_cube(&path);
        std::fs::remove_file(&path).ok();
        let err = r.expect_err("a measure of 0.1 must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("inexact measure 0.1"), "{err}");
    }

    #[test]
    fn rejects_garbage_files() {
        let path = tmp("garbage.ss");
        std::fs::write(&path, b"definitely not a cube").unwrap();
        let r = load_cube(&path);
        std::fs::remove_file(&path).ok();
        assert!(r.is_err());
        assert!(load_cube(tmp("missing.ss")).is_err());
    }

    #[test]
    fn preserves_explicit_member_names() {
        use crate::datagen::CubeBuilder;
        use crate::schema::Dimension;
        let schema = StarSchema::new(
            vec![Dimension::new(
                "T",
                vec![
                    LevelDef {
                        name: "Month".into(),
                        cardinality: 4,
                        member_names: Some(
                            ["Jan", "Feb", "Mar", "Apr"]
                                .iter()
                                .map(|s| s.to_string())
                                .collect(),
                        ),
                    },
                    LevelDef {
                        name: "Half".into(),
                        cardinality: 2,
                        member_names: None,
                    },
                ],
            )],
            "m",
        );
        let cube = CubeBuilder::new(schema).rows(50).seed(2).build();
        let path = tmp("names.ss");
        save_cube(&cube, &path).unwrap();
        let loaded = load_cube(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.schema.dim(0).member_name(0, 1), "Feb");
        assert_eq!(loaded.schema.dim(0).member_by_name(0, "Apr"), Some(3));
        assert_eq!(loaded.schema.dim(0).member_name(1, 0), "T1");
    }
}
