//! The request-sequence model (§1.1): `σ = {s1,t1}, {s2,t2}, …`.

use dcn_topology::Pair;

/// A finite request sequence over a fixed set of racks.
///
/// Each request is an unordered rack pair (a packet or fixed quantum of
/// bytes — the paper's footnote 1 allows either reading; the simulator's
/// costs are per request).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Number of racks (`|V|`); all request endpoints are `< num_racks`.
    pub num_racks: usize,
    /// The requests, in arrival order.
    pub requests: Vec<Pair>,
    /// Human-readable provenance for reports.
    pub name: String,
}

impl Trace {
    /// Creates a trace, validating all endpoints.
    pub fn new(num_racks: usize, requests: Vec<Pair>, name: impl Into<String>) -> Self {
        for r in &requests {
            assert!(
                (r.hi() as usize) < num_racks,
                "request endpoint {} out of range (racks: {num_racks})",
                r.hi()
            );
        }
        Self {
            num_racks,
            requests,
            name: name.into(),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// A prefix view of the first `n` requests (clamped to the length).
    pub fn prefix(&self, n: usize) -> &[Pair] {
        &self.requests[..n.min(self.requests.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_prefix() {
        let t = Trace::new(4, vec![Pair::new(0, 1), Pair::new(2, 3)], "t");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.prefix(1), &[Pair::new(0, 1)]);
        assert_eq!(t.prefix(99).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        Trace::new(3, vec![Pair::new(0, 3)], "bad");
    }
}
