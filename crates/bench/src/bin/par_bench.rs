//! Parallel-AG benchmark: the speedup-vs-threads curve of
//! `ParDetector::ag_linear` on a wide (128-process) computation. Prints
//! one JSON object to stdout so CI can archive it (`BENCH_par.json`)
//! and trend it across commits.
//!
//! ```text
//! par_bench [--quick]
//! ```
//!
//! The predicate is always true, so Algorithm A2 visits every
//! meet-irreducible cut — its worst case and the scan the parallel
//! chunks target. `ag/seq` is the sequential `hb_detect::ag_linear`,
//! the best sequential code for the problem; `ag/par-t{1,2,4,8}` carry
//! `threads` and `speedup` (`ag/seq` secs ÷ their secs). `host_cpus`
//! in the metadata qualifies the curve: beyond that many threads no
//! further speedup is possible. Byte-identical reports at every thread
//! count are the equivalence battery's job, not this one's.

use hb_bench::report::{BenchReport, BenchRun};
use hb_detect::ag_linear;
use hb_par::ParDetector;
use hb_predicates::{Conjunctive, LocalExpr};
use hb_sim::{random_computation, RandomSpec};
use std::time::Instant;

const PROCESSES: usize = 128;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Medians shave scheduler noise without best-of-n optimism.
fn median_secs(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..rounds).map(|_| f()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_process = if quick { 16 } else { 192 };
    let rounds = if quick { 3 } else { 5 };
    let comp = random_computation(RandomSpec {
        processes: PROCESSES,
        events_per_process: per_process,
        send_percent: 20,
        value_range: 8,
        seed: 11,
    });
    let events = comp.num_events() as u64;
    let x = comp.vars().iter().next().expect("the x variable").0;
    let pred = Conjunctive::new((0..PROCESSES).map(|p| (p, LocalExpr::ge(x, 0))).collect());

    let mut report = BenchReport::new("par")
        .meta("processes", PROCESSES as u64)
        .meta("events", events)
        .meta(
            "host_cpus",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        );

    // Warm-up: touch both code paths once.
    let _ = ag_linear(&comp, &pred);
    let _ = ParDetector::new().threads(2).ag_linear(&comp, &pred);

    let seq = median_secs(rounds, || {
        let start = Instant::now();
        std::hint::black_box(ag_linear(&comp, &pred));
        start.elapsed().as_secs_f64()
    });
    report.push(BenchRun::new("ag/seq", events, seq));
    for t in THREADS {
        let det = ParDetector::new().threads(t);
        let secs = median_secs(rounds, || {
            let start = Instant::now();
            std::hint::black_box(det.ag_linear(&comp, &pred));
            start.elapsed().as_secs_f64()
        });
        report.push(
            BenchRun::new(format!("ag/par-t{t}"), events, secs)
                .with("threads", t as f64)
                .with("speedup", seq / secs),
        );
    }

    println!("{}", report.to_json());
}
