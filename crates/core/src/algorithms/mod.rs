//! The online and offline algorithms evaluated in the paper (§2, §3) plus
//! the baselines the figures and ablations compare them with.

pub mod bma;
pub mod demand_aware;
pub mod oblivious;
pub mod periodic;
pub mod rbma;
pub mod rotor;
pub mod static_offline;

use crate::scheduler::OnlineScheduler;
use dcn_demand::{DemandAware, DemandMatrix};
use dcn_topology::DistanceMatrix;
use std::sync::Arc;

/// Configuration-friendly algorithm selector for sweeps and benches.
#[derive(Clone, Debug, PartialEq)]
pub enum AlgorithmKind {
    /// No reconfigurable links at all (the violet baseline of Figs. 1–4).
    Oblivious,
    /// The paper's randomized algorithm (§2.2/§2.3).
    Rbma {
        /// Lazy removals per footnote 2 (the experimental default) or the
        /// strict both-caches invariant of the analysis.
        lazy: bool,
    },
    /// Deterministic online b-matching baseline (Bienkowski et al. \[11\]).
    Bma,
    /// Demand-oblivious rotating matchings (RotorNet \[56\]-style).
    Rotor {
        /// Requests between rotation steps.
        period: u64,
    },
    /// Coarse-granular baseline: rebuild a greedy heavy b-matching from the
    /// last window every `period` requests (Proteus/OSA-style).
    Periodic {
        /// Requests between rebuilds.
        period: u64,
    },
    /// COUDER-style demand-aware *static* baseline (arXiv:2010.00090): a
    /// b-matching provisioned from forecast demand matrices before the
    /// trace starts, never reconfigured
    /// ([`demand_aware::StaticDemandAware`]).
    DemandAware {
        /// The forecast: one matrix (point forecast) or several (hedged
        /// max-min over the set). Shared so job grids clone cheaply.
        forecast: Arc<DemandAware>,
    },
}

impl AlgorithmKind {
    /// Demand-aware static baseline from a single forecast matrix.
    pub fn demand_aware(matrix: DemandMatrix) -> Self {
        AlgorithmKind::DemandAware {
            forecast: Arc::new(DemandAware::new(matrix)),
        }
    }

    /// Demand-aware static baseline hedged over a forecast matrix set.
    pub fn demand_aware_hedged(matrices: Vec<DemandMatrix>) -> Self {
        AlgorithmKind::DemandAware {
            forecast: Arc::new(DemandAware::hedged(matrices)),
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            AlgorithmKind::Oblivious => "Oblivious".into(),
            AlgorithmKind::Rbma { lazy: true } => "R-BMA".into(),
            AlgorithmKind::Rbma { lazy: false } => "R-BMA(strict)".into(),
            AlgorithmKind::Bma => "BMA".into(),
            AlgorithmKind::Rotor { .. } => "Rotor".into(),
            AlgorithmKind::Periodic { period } => format!("Periodic({period})"),
            AlgorithmKind::DemandAware { forecast } if forecast.is_hedged() => {
                "DemandAware(hedged)".into()
            }
            AlgorithmKind::DemandAware { .. } => "DemandAware".into(),
        }
    }

    /// Instantiates the scheduler. Every algorithm is online — none reads
    /// the trace ahead — so sweep workers can feed it an O(1)-memory
    /// request stream.
    pub fn build_online(
        &self,
        dm: Arc<DistanceMatrix>,
        b: usize,
        alpha: u64,
        seed: u64,
    ) -> Box<dyn OnlineScheduler> {
        let n = dm.num_racks();
        match *self {
            AlgorithmKind::Oblivious => Box::new(oblivious::Oblivious::new(n, b)),
            AlgorithmKind::Rbma { lazy } => {
                let mode = if lazy {
                    rbma::RemovalMode::Lazy
                } else {
                    rbma::RemovalMode::Strict
                };
                Box::new(rbma::Rbma::new(dm, b, alpha, mode, seed))
            }
            AlgorithmKind::Bma => Box::new(bma::Bma::new(dm, b, alpha)),
            AlgorithmKind::Rotor { period } => Box::new(rotor::Rotor::new(n, b, period)),
            AlgorithmKind::Periodic { period } => {
                Box::new(periodic::PeriodicRebuild::new(dm, b, period))
            }
            AlgorithmKind::DemandAware { ref forecast } => {
                Box::new(demand_aware::StaticDemandAware::new(&dm, b, forecast))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_online() {
        for kind in [
            AlgorithmKind::Oblivious,
            AlgorithmKind::Rbma { lazy: true },
            AlgorithmKind::Rbma { lazy: false },
            AlgorithmKind::Bma,
            AlgorithmKind::Rotor { period: 10 },
            AlgorithmKind::Periodic { period: 10 },
            AlgorithmKind::demand_aware(DemandMatrix::zipf_pairs(6, 1.2, 1)),
            AlgorithmKind::demand_aware_hedged(vec![
                DemandMatrix::zipf_pairs(6, 1.2, 1),
                DemandMatrix::uniform(6),
            ]),
        ] {
            let dm = Arc::new(DistanceMatrix::uniform(6));
            let s = kind.build_online(dm, 2, 5, 0);
            assert_eq!(s.cap(), 2, "{}", kind.label());
        }
    }

    #[test]
    fn demand_aware_labels_distinguish_hedging() {
        let point = AlgorithmKind::demand_aware(DemandMatrix::uniform(4));
        assert_eq!(point.label(), "DemandAware");
        let hedged = AlgorithmKind::demand_aware_hedged(vec![
            DemandMatrix::uniform(4),
            DemandMatrix::zipf_pairs(4, 1.0, 0),
        ]);
        assert_eq!(hedged.label(), "DemandAware(hedged)");
    }
}
