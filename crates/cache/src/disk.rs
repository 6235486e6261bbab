//! How a disk-tier lookup resolved.
//!
//! The disk tier itself is [`crate::segment::SegmentStore`]; this module
//! holds the classification its lookups return. Reads are lazy (the disk is
//! only consulted on an in-memory miss) and never an error at the cache's
//! API surface: every failure degrades to a miss, and [`LoadOutcome`] says
//! which kind, so `CompileCache` can count corruption and failed reads
//! apart from ordinary absence.

use zac_core::CompileOutput;

/// How a disk lookup resolved — the classification behind `CompileCache`'s
/// `quarantined` / `disk_errors` counters.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The entry was present, intact, and keyed correctly.
    Hit(Box<CompileOutput>),
    /// No record for the key (never written, tombstoned, or its segment
    /// was compacted away); recompile.
    Miss,
    /// The key was indexed but its payload no longer decodes (bit rot
    /// after the checksum passed at scan time). The record is dropped from
    /// the index and the lookup proceeds as a clean miss.
    Quarantined,
    /// The read itself failed (filesystem error or an injected
    /// `cache.disk.read` fault); a miss, but counted as a disk error.
    ReadError,
}
