//! # starshare-bitmap
//!
//! Bitmap substrate for the `starshare` engine: plain bitvectors with the
//! boolean algebra the paper's index-based star join needs (§3.2), and
//! **bitmap join indexes** that map a dimension attribute at any hierarchy
//! level to the positions of matching fact-table tuples.
//!
//! Everything an operator does with a bitmap is counted: word-wise boolean
//! ops return the number of 64-bit words processed and index lookups charge
//! page reads through the buffer pool, so the simulated clock sees bitmap
//! work at the same fidelity it sees scans and probes.

pub mod bitvec;
pub mod compressed;
pub mod index;

pub use bitvec::Bitmap;
pub use compressed::{CompressedBitmap, ContainerKind, CHUNK_BITS};
pub use index::{BitmapJoinIndex, IndexFormat, MemberBits};
