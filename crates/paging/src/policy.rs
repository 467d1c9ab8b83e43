//! The paging-policy contract shared by all cache replacement algorithms.

/// Identifier of a page. In the R-BMA reduction a page is the packed id of
/// the *partner* node of a cached pair; in the standalone paging experiments
/// it is an arbitrary small integer.
pub type PageId = u64;

/// Result of a single page access under fetch-on-fault semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The page was already cached; no cost.
    Hit,
    /// The page was fetched (cost 1); `evicted` is the page removed to make
    /// room (`None` while the cache fills up). Every policy here evicts at
    /// most one page per fault.
    Fault {
        /// Page evicted to make room, if the cache was full.
        evicted: Option<PageId>,
    },
}

impl Access {
    /// Whether this access was a fault.
    #[inline]
    pub fn is_fault(self) -> bool {
        matches!(self, Access::Fault { .. })
    }

    /// The evicted page (`None` on a hit or a fault into free room).
    #[inline]
    pub fn evicted(self) -> Option<PageId> {
        match self {
            Access::Hit => None,
            Access::Fault { evicted } => evicted,
        }
    }
}

/// An online paging algorithm over a cache of fixed capacity.
///
/// Model: requests arrive one at a time; a requested page **must** be in the
/// cache after the access (no bypassing); fetching costs 1; evictions are
/// free. This is the cost model of Sleator–Tarjan \[70\] that Theorem 2 builds
/// on; the two differences to the matching cost model (bypassing, eviction
/// cost) are absorbed by the reduction in `dcn-core` as in the paper's proof.
pub trait PagingPolicy {
    /// Cache capacity (the `b` of (b,a)-paging).
    fn capacity(&self) -> usize;

    /// Number of currently cached pages (≤ capacity).
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `page` is cached.
    fn contains(&self, page: PageId) -> bool;

    /// Processes a request for `page`, fetching it on a fault.
    fn access(&mut self, page: PageId) -> Access;

    /// Forgets all cached pages (and any internal state such as marks).
    fn reset(&mut self);

    /// Snapshot of cached pages in unspecified order (diagnostics/tests).
    fn cached_pages(&self) -> Vec<PageId>;

    /// Evicts `page` if cached, returning whether it was. Policies that keep
    /// auxiliary state must stay consistent. Only the tests call it: R-BMA's
    /// strict mode drops the matching edge and leaves the caches alone.
    fn invalidate(&mut self, page: PageId) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_inspectors() {
        assert!(!Access::Hit.is_fault());
        assert_eq!(Access::Hit.evicted(), None);
        let f = Access::Fault { evicted: Some(3) };
        assert!(f.is_fault());
        assert_eq!(f.evicted(), Some(3));
        assert_eq!(Access::Fault { evicted: None }.evicted(), None);
    }
}
