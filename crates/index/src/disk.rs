//! The paper's I/O cost model and the one statistics record every scan
//! layer returns.
//!
//! The paper's motivation (§I): "the clustering number measures the number
//! of disk seeks that need to be performed in the retrieval. Since a disk
//! seek is an expensive operation, a smaller clustering number means better
//! performance." This module makes that cost model concrete: a range query
//! over SFC-ordered data costs one seek per cluster plus sequential page
//! transfers, priced by a [`DiskModel`] over the counters of an
//! [`IoStats`].

/// Cost model of a spinning disk (or any medium with a random-access
/// penalty): the default seek and transfer rates the
/// [`Planner`](crate::Planner) prices decompositions with until it has
/// measured enough real reads, and the rates [`IoStats::time_us`] applies.
/// Times are in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskModel {
    /// Entries per page: the planner's estimate of how many stored
    /// entries one transferred page holds. Storage does not read it — a
    /// [`FileBackend`](crate::FileBackend)'s pages hold as many entries
    /// as fit its [`StoreConfig::page_size`](crate::StoreConfig) bytes.
    pub page_size: usize,
    /// Cost of repositioning to a non-adjacent page (seek + rotational
    /// latency).
    pub seek_us: f64,
    /// Cost of sequentially transferring one page.
    pub transfer_us: f64,
}

impl DiskModel {
    /// A conventional HDD-flavored model: 8 ms seek, 0.1 ms per 4 KiB page
    /// (≈ 40 MB/s effective sequential rate), 256 entries per page.
    pub fn hdd() -> Self {
        DiskModel {
            page_size: 256,
            seek_us: 8_000.0,
            transfer_us: 100.0,
        }
    }

    /// An SSD-flavored model: cheap but non-zero random access.
    pub fn ssd() -> Self {
        DiskModel {
            page_size: 256,
            seek_us: 80.0,
            transfer_us: 25.0,
        }
    }
}

/// I/O statistics of a scan, a query, or any sum of them — the one record
/// [`SegmentTree::scan`](crate::SegmentTree::scan) and
/// [`Backend::scan`](crate::Backend::scan) return and
/// [`QueryResult::io`](crate::QueryResult::io) carries.
///
/// Storage layers fill in the page counters (`pages`, `cache_hits`,
/// `real_reads`, `real_seeks`); the table layer, which knows how many
/// ranges a query split into and which visited entries it keeps, fills in
/// `seeks` and `entries`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoStats {
    /// Number of seeks performed (one per contiguous key range scanned).
    pub seeks: u64,
    /// Number of pages transferred from the medium (leaf-cache misses, for
    /// backends with a cache; every touched page otherwise).
    pub pages: u64,
    /// Number of entries returned — not entries visited: planned scans
    /// that absorb gap cells visit entries outside the query and drop them.
    pub entries: u64,
    /// Pages served from the leaf cache instead of the medium (always zero
    /// for cache-less backends).
    pub cache_hits: u64,
    /// Pages physically read from a real page store — zero for in-memory
    /// backends, measured for [`FileBackend`](crate::FileBackend).
    pub real_reads: u64,
    /// Non-contiguous physical fetches actually issued (the first fetch of
    /// a scan counts as one) — zero for in-memory backends.
    pub real_seeks: u64,
}

impl IoStats {
    /// Total modelled time under a disk model. Cache hits are free: only
    /// seeks and transferred pages cost time.
    pub fn time_us(&self, model: &DiskModel) -> f64 {
        self.seeks as f64 * model.seek_us + self.pages as f64 * model.transfer_us
    }

    /// Merges another stats record into this one.
    pub fn absorb(&mut self, other: IoStats) {
        self.seeks += other.seeks;
        self.pages += other.pages;
        self.entries += other.entries;
        self.cache_hits += other.cache_hits;
        self.real_reads += other.real_reads;
        self.real_seeks += other.real_seeks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_reflects_model() {
        let stats = IoStats {
            seeks: 2,
            pages: 5,
            ..IoStats::default()
        };
        let m = DiskModel {
            page_size: 1,
            seek_us: 100.0,
            transfer_us: 1.0,
        };
        assert_eq!(stats.time_us(&m), 205.0);
    }
}
