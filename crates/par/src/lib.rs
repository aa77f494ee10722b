//! Parallel `AG(linear)` detection on the vendored `rayon` shim, after
//! Garg–Garg (*Fast and Work-Optimal Parallel Algorithms for Predicate
//! Detection*).
//!
//! Algorithm A2 decides `AG(p)` for a linear `p` by checking the final
//! cut and every meet-irreducible cut `E − ↑e`. The `|E|` checks are
//! independent, so [`ParDetector::ag_linear`] runs them speculatively
//! in chunks of events and reports the first violation in event order:
//! the exact counterexample and `checked` count `hb_detect::ag_linear`
//! returns, at any thread count.
//!
//! This is the only detector here because it is the only one that
//! beats its best sequential counterpart (DESIGN.md §16). The EF and
//! online detectors run sequentially.

use hb_computation::{Computation, Cut, EventId};
use hb_detect::AgReport;
use hb_predicates::LinearPredicate;
use rayon::prelude::*;

/// The parallel `AG` detector: a stateless handle carrying the worker
/// fan-out.
#[derive(Debug, Clone)]
pub struct ParDetector {
    threads: usize,
}

impl Default for ParDetector {
    fn default() -> Self {
        ParDetector::new()
    }
}

impl ParDetector {
    /// A detector with the ambient fan-out (`RAYON_NUM_THREADS` or the
    /// machine's parallelism).
    pub fn new() -> Self {
        ParDetector {
            threads: rayon::current_num_threads(),
        }
    }

    /// Caps the worker fan-out at `n` threads.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Detects `AG(p)` for a linear predicate: Algorithm A2's
    /// meet-irreducible sweep with the per-cut checks fanned out in
    /// event chunks. The counterexample and `checked` count match
    /// `hb_detect::ag_linear` exactly (first violating cut in event
    /// order); the speculative overshoot is at most one chunk.
    pub fn ag_linear<P>(&self, comp: &Computation, p: &P) -> AgReport
    where
        P: LinearPredicate + Sync + ?Sized,
    {
        let final_cut = comp.final_cut();
        if !p.eval(comp, &final_cut) {
            return AgReport {
                holds: false,
                counterexample: Some(final_cut),
                checked: 1,
            };
        }
        let events: Vec<EventId> = comp.event_ids().collect();
        // Large chunks: the shim spawns scoped threads per fan-out, so
        // each chunk must carry enough cut checks to amortize a spawn.
        let chunk_len = (self.threads * 1024).max(2048);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("shim pool build cannot fail");
        let mut checked = 1usize;
        for chunk in events.chunks(chunk_len) {
            let violation = |&e: &EventId| -> Option<Cut> {
                let v = comp.excluding_cut(e);
                if p.eval(comp, &v) {
                    None
                } else {
                    Some(v)
                }
            };
            let results: Vec<Option<Cut>> =
                pool.install(|| chunk.par_iter().map(violation).collect());
            for (offset, r) in results.into_iter().enumerate() {
                if let Some(cex) = r {
                    return AgReport {
                        holds: false,
                        counterexample: Some(cex),
                        checked: checked + offset + 1,
                    };
                }
            }
            checked += chunk.len();
        }
        AgReport {
            holds: true,
            counterexample: None,
            checked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_detect::ag_linear;
    use hb_predicates::{Conjunctive, LocalExpr};

    #[test]
    fn ag_linear_matches_sequential_oracle() {
        let mut b = hb_computation::ComputationBuilder::new(3);
        let x = b.var("x");
        b.internal(0).set(x, 1).done();
        let m = b.send(0).set(x, 2).done_send();
        b.internal(1).set(x, 1).done();
        b.receive(2, m).set(x, 1).done();
        b.internal(2).set(x, 0).done();
        let comp = b.finish().unwrap();
        let preds = [
            Conjunctive::new(vec![(0, LocalExpr::ge(x, 1))]),
            Conjunctive::new(vec![(0, LocalExpr::le(x, 1))]),
            Conjunctive::new(vec![(1, LocalExpr::ne(x, 1))]),
        ];
        for threads in [1, 4] {
            let det = ParDetector::new().threads(threads);
            for p in &preds {
                assert_eq!(det.ag_linear(&comp, p), ag_linear(&comp, p));
            }
        }
    }
}
