//! The storage axis the differential sweeps vary: bitmap-index format ×
//! heap compression.
//!
//! Compression is an accounting-and-layout change, never a semantic one:
//! every profile must answer every session bit-identically to
//! [`Plain`](StorageProfile::Plain) — including under fault injection,
//! across appends (which exercise `BitmapJoinIndex::extend` and sealed-page
//! growth), and at every thread count. The harnesses pick a profile
//! deterministically from the case seed ([`from_seed`](StorageProfile::from_seed)),
//! so a sweep of N seeds covers all profiles and every repro names its
//! profile implicitly through the seed.

use starshare_core::{
    paper_cube_builder, CubeBuilder, Engine, EngineConfig, HardwareModel, IndexFormat,
    PaperCubeSpec,
};

/// One point on the storage axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageProfile {
    /// Plain member bitmaps, raw heap pages — the historical layout.
    #[default]
    Plain,
    /// Compressed member bitmaps, raw heap pages.
    CompressedIndex,
    /// Plain member bitmaps, compressed heap pages (+ zone-map pruning).
    CompressedHeap,
    /// Both compressed — the production layout.
    Compressed,
}

impl StorageProfile {
    /// Every profile, in sweep order.
    pub const ALL: [StorageProfile; 4] = [
        StorageProfile::Plain,
        StorageProfile::CompressedIndex,
        StorageProfile::CompressedHeap,
        StorageProfile::Compressed,
    ];

    /// The profile a seeded sweep uses for `seed` — a deterministic
    /// round-robin, so consecutive seeds cover all profiles.
    pub fn from_seed(seed: u64) -> Self {
        Self::ALL[(seed % Self::ALL.len() as u64) as usize]
    }

    /// Applies the profile to a cube builder.
    fn apply(self, builder: CubeBuilder) -> CubeBuilder {
        match self {
            StorageProfile::Plain => builder,
            StorageProfile::CompressedIndex => builder.index_format(IndexFormat::Compressed),
            StorageProfile::CompressedHeap => builder.compress(),
            StorageProfile::Compressed => builder.index_format(IndexFormat::Compressed).compress(),
        }
    }

    /// Builds `cfg`'s engine over the paper cube of `spec`, laid out per
    /// this profile, under the 1998 hardware model.
    pub fn build_paper(self, cfg: EngineConfig, spec: PaperCubeSpec) -> Engine {
        let cube = self.apply(paper_cube_builder(spec)).build();
        cfg.build(cube, HardwareModel::paper_1998())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_round_robins_all_profiles() {
        let seen: std::collections::BTreeSet<_> = (0..8u64)
            .map(|s| format!("{:?}", StorageProfile::from_seed(s)))
            .collect();
        assert_eq!(seen.len(), StorageProfile::ALL.len());
    }

    #[test]
    fn build_paper_lays_out_the_cube_per_profile() {
        let spec = PaperCubeSpec::scaled(0.002);
        for profile in StorageProfile::ALL {
            let e = profile.build_paper(EngineConfig::paper(), spec);
            let (compressed_heap, index_format) = match profile {
                StorageProfile::Plain => (false, IndexFormat::Plain),
                StorageProfile::CompressedIndex => (false, IndexFormat::Compressed),
                StorageProfile::CompressedHeap => (true, IndexFormat::Plain),
                StorageProfile::Compressed => (true, IndexFormat::Compressed),
            };
            let mut indexes = 0;
            for (_, table) in e.cube().catalog.iter() {
                assert_eq!(table.heap().is_compressed(), compressed_heap, "{profile:?}");
                for ix in (0..e.cube().schema.n_dims()).filter_map(|d| table.index(d)) {
                    assert_eq!(ix.index.format(), index_format, "{profile:?}");
                    indexes += 1;
                }
            }
            assert!(indexes > 0, "the paper cube carries indexes");
        }
    }
}
