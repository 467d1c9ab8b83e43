//! Output checks: invariants that hold at any seed, and digests pinned at
//! the default seed. A job that panicked or fails a check counts as failed.

use crate::workload::{PassOutcome, Prepared, Workload};
use dcn_core::sweep::Job;
use dcn_core::{AveragedSeries, Checkpoint, RunReport};
use dcn_topology::DistanceMatrix;
use dcn_traces::TraceSpec;

/// Digests pinned at [`crate::workload::DEFAULT_SEED`] and full scale:
/// `<workload> <index> <hex digest>` per line, in pass order (online jobs,
/// then SO-BMA repetitions, then the figure series), the Zipf trace
/// variants one after another. Regenerate with `perfbench pin`.
const PINNED: &str = include_str!("../pinned.txt");

/// The pinned digests of one workload, in pass order.
pub fn pinned(workload: Workload) -> Vec<u64> {
    PINNED
        .lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            (it.next()? == workload.name()).then_some(())?;
            it.next()?;
            u64::from_str_radix(it.next()?, 16).ok()
        })
        .collect()
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    fn str(self, s: &str) -> Self {
        s.bytes()
            .fold(self.word(s.len() as u64), |h, b| h.word(b as u64))
    }

    fn checkpoint(self, c: &Checkpoint) -> Self {
        self.word(c.requests)
            .word(c.routing_cost)
            .word(c.reconfig_cost)
            .word(c.reconfigurations)
            .word(c.matched_requests)
    }
}

/// Digest of every deterministic field of a report (wall clock excluded).
pub fn report_digest(r: &RunReport) -> u64 {
    let h = Fnv::new()
        .str(&r.algorithm)
        .str(&r.trace)
        .word(r.b as u64)
        .word(r.alpha)
        .word(r.seed)
        .checkpoint(&r.total);
    r.checkpoints.iter().fold(h, |h, c| h.checkpoint(c)).0
}

/// Digest of one SO-BMA series.
pub fn offline_digest(series: &[(usize, u64)]) -> u64 {
    series
        .iter()
        .fold(Fnv::new(), |h, &(cp, cost)| h.word(cp as u64).word(cost))
        .0
}

/// Digest of the figure series' labels, x values and means.
pub fn series_digest(series: &[AveragedSeries]) -> u64 {
    series
        .iter()
        .fold(Fnv::new(), |h, s| {
            let h = s.x.iter().fold(h.str(&s.label), |h, &x| h.word(x));
            s.y_mean.iter().fold(h, |h, y| h.word(y.to_bits()))
        })
        .0
}

/// The Oblivious routing cost (Σℓ) of every trace prefix at a checkpoint
/// grid: the upper bound on any scheduler's routing cost there.
pub struct Bounds(Vec<(TraceSpec, Vec<usize>, Vec<u64>)>);

impl Bounds {
    /// Streams each distinct (trace, grid) of the workload once.
    pub fn new(prepared: &Prepared) -> Self {
        let (dm, jobs): (&DistanceMatrix, Vec<&Job>) = match prepared {
            Prepared::Zipf { dm, variants } => (dm, variants.iter().flatten().collect()),
            Prepared::Fig1 {
                dm,
                grids,
                oblivious,
                ..
            } => (
                dm,
                grids
                    .iter()
                    .flat_map(|g| &g.jobs)
                    .chain(oblivious)
                    .collect(),
            ),
        };
        let mut out: Vec<(TraceSpec, Vec<usize>, Vec<u64>)> = Vec::new();
        for job in jobs {
            if out
                .iter()
                .any(|(t, c, _)| *t == job.trace && *c == job.checkpoints)
            {
                continue;
            }
            let mut source = job.trace.source();
            let mut buf = vec![dcn_topology::Pair::new(0, 1); 4096];
            let (mut seen, mut sum, mut prefix) = (0usize, 0u64, Vec::new());
            for &cp in &job.checkpoints {
                while seen < cp {
                    let want = (cp - seen).min(buf.len());
                    let n = source.fill(&mut buf[..want]);
                    assert!(n > 0, "trace shorter than its checkpoint grid");
                    sum += buf[..n].iter().map(|&p| dm.ell(p) as u64).sum::<u64>();
                    seen += n;
                }
                prefix.push(sum);
            }
            out.push((job.trace.clone(), job.checkpoints.clone(), prefix));
        }
        Bounds(out)
    }

    fn of(&self, job: &Job) -> &[u64] {
        self.0
            .iter()
            .find(|(t, c, _)| *t == job.trace && *c == job.checkpoints)
            .map(|(_, _, p)| p.as_slice())
            .expect("bounds cover every job")
    }
}

/// Invariants of one online job's report.
pub fn check_job(job: &Job, r: &RunReport, bound: &[u64]) -> Result<(), String> {
    let len = job.trace.len() as u64;
    if r.total.requests != len {
        return Err(format!("served {} of {len} requests", r.total.requests));
    }
    let grid: Vec<u64> = r.checkpoints.iter().map(|c| c.requests).collect();
    let want: Vec<u64> = job.checkpoints.iter().map(|&c| c as u64).collect();
    if grid != want {
        return Err(format!("checkpoints at {grid:?}, expected {want:?}"));
    }
    if r.checkpoints.last().map(strip) != Some(strip(&r.total)) {
        return Err("last checkpoint differs from the total".into());
    }
    for (i, c) in r.checkpoints.iter().enumerate() {
        if c.reconfig_cost != job.alpha * c.reconfigurations {
            return Err(format!(
                "checkpoint {i}: reconfig cost != α·reconfigurations"
            ));
        }
        if c.matched_requests > c.requests {
            return Err(format!("checkpoint {i}: more matched than served"));
        }
        if c.routing_cost < c.requests || c.routing_cost > bound[i] {
            return Err(format!(
                "checkpoint {i}: routing cost {} outside [{}, Σℓ = {}]",
                c.routing_cost, c.requests, bound[i]
            ));
        }
        if job.algorithm == dcn_core::algorithms::AlgorithmKind::Oblivious
            && (c.routing_cost != bound[i] || c.reconfigurations != 0)
        {
            return Err(format!("checkpoint {i}: Oblivious is not Σℓ"));
        }
        if i > 0 {
            let p = &r.checkpoints[i - 1];
            let (a, b) = (strip(p), strip(c));
            if b.iter().zip(&a).any(|(x, y)| x < y) {
                return Err(format!("checkpoint {i}: series not monotone"));
            }
        }
    }
    Ok(())
}

fn strip(c: &Checkpoint) -> [u64; 5] {
    [
        c.requests,
        c.routing_cost,
        c.reconfig_cost,
        c.reconfigurations,
        c.matched_requests,
    ]
}

/// Invariants of one SO-BMA series: monotone, at least one per request, and
/// no dearer than Oblivious on every prefix.
pub fn check_offline(job: &Job, series: &[(usize, u64)], bound: &[u64]) -> Result<(), String> {
    if series.len() != job.checkpoints.len() {
        return Err("SO-BMA series has the wrong length".into());
    }
    for (i, &(cp, cost)) in series.iter().enumerate() {
        if cp != job.checkpoints[i] || cost < cp as u64 || cost > bound[i] {
            return Err(format!(
                "SO-BMA at {cp}: cost {cost} outside [{cp}, Oblivious = {}]",
                bound[i]
            ));
        }
        if i > 0 && cost < series[i - 1].1 {
            return Err(format!("SO-BMA at {cp}: series not monotone"));
        }
    }
    Ok(())
}

/// Every digest of a pass, in the pinned order (`None` = nothing to digest).
pub fn pass_digests(pass: &PassOutcome) -> Vec<Option<u64>> {
    let mut out: Vec<Option<u64>> = pass
        .jobs
        .iter()
        .map(|(_, r)| r.as_ref().map(report_digest))
        .collect();
    out.extend(
        pass.offline
            .iter()
            .map(|(_, s)| s.as_deref().map(offline_digest)),
    );
    if !pass.offline.is_empty() {
        out.push(pass.series.as_deref().map(series_digest));
    }
    out
}

/// Checks a pass. Returns (attempted, failed, one message per failure).
/// With `pinned` given (the workload's whole list), every digest must also
/// match the pass's variant's slice of it.
pub fn check_pass(
    pass: &PassOutcome,
    bounds: &Bounds,
    pinned: Option<&[u64]>,
) -> (u64, u64, Vec<String>) {
    let mut verdicts: Vec<Result<(), String>> = Vec::new();
    for (job, report) in &pass.jobs {
        verdicts.push(match report {
            Some(r) => check_job(job, r, bounds.of(job)),
            None => Err("panicked".into()),
        });
    }
    for (job, series) in &pass.offline {
        verdicts.push(match series {
            Some(s) => check_offline(job, s, bounds.of(job)),
            None => Err("SO-BMA panicked".into()),
        });
    }
    if !pass.offline.is_empty() {
        // The figure series: one more unit of output per pass.
        verdicts.push(match &pass.series {
            Some(_) => Ok(()),
            None => Err("figure series incomplete".into()),
        });
    }
    if let Some(pinned) = pinned {
        let digests = pass_digests(pass);
        let n = digests.len();
        let pinned = pinned
            .get(pass.variant * n..(pass.variant + 1) * n)
            .unwrap_or(&[]);
        if pinned.len() != n {
            verdicts.push(Err(format!(
                "no pinned digests for variant {}",
                pass.variant
            )));
        }
        for (k, (got, want)) in digests.iter().zip(pinned).enumerate() {
            if *got != Some(*want) && verdicts[k].is_ok() {
                verdicts[k] = Err(format!("output {k}: digest differs from the pinned one"));
            }
        }
    }
    let attempted = verdicts.len() as u64;
    let errors: Vec<String> = verdicts.into_iter().filter_map(Result::err).collect();
    (attempted, errors.len() as u64, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let c = Checkpoint {
            requests: 10,
            routing_cost: 25,
            reconfig_cost: 40,
            reconfigurations: 4,
            matched_requests: 3,
            elapsed_secs: 0.5,
        };
        RunReport {
            algorithm: "R-BMA".into(),
            trace: "zipf".into(),
            b: 12,
            alpha: 10,
            seed: 7,
            checkpoints: vec![c],
            total: c,
        }
    }

    #[test]
    fn digest_ignores_wall_clock_only() {
        let base = report();
        let d = report_digest(&base);
        let mut slower = base.clone();
        slower.total.elapsed_secs = 9.0;
        slower.checkpoints[0].elapsed_secs = 9.0;
        assert_eq!(report_digest(&slower), d);
    }

    #[test]
    fn digest_rejects_any_single_perturbed_field() {
        let base = report();
        let d = report_digest(&base);
        type Perturb = fn(&mut RunReport);
        let perturbations: [(&str, Perturb); 14] = [
            ("algorithm", |r| r.algorithm.push('x')),
            ("trace", |r| r.trace.push('x')),
            ("b", |r| r.b += 1),
            ("alpha", |r| r.alpha += 1),
            ("seed", |r| r.seed += 1),
            ("total.requests", |r| r.total.requests += 1),
            ("total.routing_cost", |r| r.total.routing_cost += 1),
            ("total.reconfig_cost", |r| r.total.reconfig_cost += 1),
            ("total.reconfigurations", |r| r.total.reconfigurations += 1),
            ("total.matched_requests", |r| r.total.matched_requests += 1),
            ("checkpoint.routing_cost", |r| {
                r.checkpoints[0].routing_cost += 1
            }),
            ("checkpoint.matched_requests", |r| {
                r.checkpoints[0].matched_requests += 1
            }),
            ("checkpoint dropped", |r| {
                r.checkpoints.clear();
            }),
            ("checkpoint added", |r| {
                let c = r.checkpoints[0];
                r.checkpoints.push(c);
            }),
        ];
        for (field, perturb) in perturbations {
            let mut r = base.clone();
            perturb(&mut r);
            assert_ne!(report_digest(&r), d, "{field}");
        }
    }

    #[test]
    fn pass_check_rejects_a_perturbed_report() {
        let job = Job {
            algorithm: dcn_core::algorithms::AlgorithmKind::Rbma { lazy: true },
            b: 12,
            alpha: 10,
            seed: 7,
            checkpoints: vec![10],
            trace: TraceSpec::Uniform {
                num_racks: 4,
                len: 10,
                seed: 1,
            },
        };
        let bounds = Bounds(vec![(job.trace.clone(), vec![10], vec![30])]);
        let good = report();
        let pinned = [report_digest(&good)];
        let pass = |r: RunReport| PassOutcome {
            jobs: vec![(&job, Some(r))],
            ..Default::default()
        };
        assert_eq!(check_pass(&pass(good.clone()), &bounds, Some(&pinned)).1, 0);
        // Still within every invariant, so only the digest can catch it.
        let mut off = good.clone();
        off.total.matched_requests += 1;
        off.checkpoints[0].matched_requests += 1;
        let (attempted, failed, errors) = check_pass(&pass(off), &bounds, Some(&pinned));
        assert_eq!((attempted, failed), (1, 1), "{errors:?}");
        // Broken invariants fail at any seed, without pinned digests.
        let mut bad = good;
        bad.total.reconfig_cost += 1;
        bad.checkpoints[0].reconfig_cost += 1;
        assert_eq!(check_pass(&pass(bad), &bounds, None).1, 1);
    }
}
