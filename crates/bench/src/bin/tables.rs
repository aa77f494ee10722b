//! The experiment harness: regenerates every table and figure of the
//! paper as printed tables, recorded in `EXPERIMENTS.md`.
//!
//! ```text
//! tables [table1|fig1|fig2|fig3|fig4|s1|s2|s3|all]
//! ```

use hb_bench::figures::{fig2_computation, fig4_computation, fig4_scaled};
use hb_bench::{fmt_duration, time};
use hb_computation::Computation;
use hb_detect::stable::{af_stable, ef_stable};
use hb_detect::{
    af_conjunctive, af_disjunctive, ag_disjunctive, ag_linear, ef_disjunctive, ef_linear,
    ef_observer_independent, eg_conjunctive, eg_disjunctive, eg_linear, eu_conjunctive_linear,
    ModelChecker,
};
use hb_lattice::{meet_irreducibles_direct, CutLattice, DotStyle};
use hb_predicates::{
    AndLinear, ChannelsEmpty, Conjunctive, Disjunctive, LocalExpr, Predicate, Stable,
};
use hb_reduction::{dpll_sat, random_3cnf, sat_to_eg_gadget, tautology_to_ag_gadget};
use hb_sim::protocols::token_ring_mutex;
use hb_sim::{random_computation, RandomSpec};
use hb_slice::eg_regular_via_slice;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "table1" => table1(),
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "s1" => s1(),
        "s2" => s2(),
        "s3" => s3(),
        "all" => {
            table1();
            fig1();
            fig2();
            fig3();
            fig4();
            s1();
            s2();
            s3();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("usage: tables [table1|fig1|fig2|fig3|fig4|s1|s2|s3|all]");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// A mid-size workload where the exponential baseline still runs, plus a
/// large one where only the structural algorithms do.
fn workloads() -> (Computation, Computation) {
    let small = random_computation(RandomSpec {
        processes: 4,
        events_per_process: 5,
        send_percent: 30,
        value_range: 3,
        seed: 7,
    });
    let large = random_computation(RandomSpec {
        processes: 8,
        events_per_process: 2000,
        send_percent: 30,
        value_range: 3,
        seed: 7,
    });
    (small, large)
}

fn conj(comp: &Computation, lit: i64) -> Conjunctive {
    let x = comp.vars().lookup("x").expect("x");
    Conjunctive::new(
        (0..comp.num_processes())
            .map(|i| (i, LocalExpr::le(x, lit)))
            .collect(),
    )
}

fn disj(comp: &Computation, lit: i64) -> Disjunctive {
    let x = comp.vars().lookup("x").expect("x");
    Disjunctive::new(
        (0..comp.num_processes())
            .map(|i| (i, LocalExpr::eq(x, lit)))
            .collect(),
    )
}

/// Table 1: every predicate-class × operator cell, structural algorithm
/// vs explicit-lattice baseline (verdicts must agree; times shown).
fn table1() {
    header("Table 1: detection algorithm per predicate class and operator");
    let (small, large) = workloads();
    let mc = ModelChecker::new(&small);
    println!(
        "baseline lattice for the small workload: {} cuts (n={}, |E|={})",
        mc.num_states(),
        small.num_processes(),
        small.num_events()
    );
    println!(
        "large workload for structural-only timing: n={}, |E|={}",
        large.num_processes(),
        large.num_events()
    );
    println!(
        "{:<22} {:<4} {:<22} {:>7} {:>12} {:>12} {:>12}",
        "class", "op", "engine", "verdict", "t(structural)", "t(baseline)", "t(large)"
    );

    let row = |class: &str,
               op: &str,
               engine: &str,
               ours: (bool, std::time::Duration),
               base: (bool, std::time::Duration),
               large_t: std::time::Duration| {
        assert_eq!(ours.0, base.0, "{class}/{op} disagrees with baseline");
        println!(
            "{:<22} {:<4} {:<22} {:>7} {:>12} {:>12} {:>12}",
            class,
            op,
            engine,
            ours.0,
            fmt_duration(ours.1),
            fmt_duration(base.1),
            fmt_duration(large_t)
        );
    };

    // conjunctive row
    let p_s = conj(&small, 1);
    let p_l = conj(&large, 1);
    row(
        "conjunctive",
        "EF",
        "chase-garg [4]",
        time(|| ef_linear(&small, &p_s).holds),
        time(|| mc.ef(&p_s)),
        time(|| ef_linear(&large, &p_l).holds).1,
    );
    row(
        "conjunctive",
        "AF",
        "token-interval [11]",
        time(|| af_conjunctive(&small, &p_s).holds),
        time(|| mc.af(&p_s)),
        time(|| af_conjunctive(&large, &p_l).holds).1,
    );
    row(
        "conjunctive",
        "EG",
        "A1 (this paper)",
        time(|| eg_conjunctive(&small, &p_s).holds),
        time(|| mc.eg(&p_s)),
        time(|| eg_conjunctive(&large, &p_l).holds).1,
    );
    row(
        "conjunctive",
        "AG",
        "A2 (this paper)",
        time(|| ag_linear(&small, &p_s).holds),
        time(|| mc.ag(&p_s)),
        time(|| ag_linear(&large, &p_l).holds).1,
    );

    // disjunctive row
    let d_s = disj(&small, 2);
    let d_l = disj(&large, 2);
    row(
        "disjunctive",
        "EF",
        "state scan [11]",
        time(|| ef_disjunctive(&small, &d_s).holds),
        time(|| mc.ef(&d_s)),
        time(|| ef_disjunctive(&large, &d_l).holds).1,
    );
    row(
        "disjunctive",
        "AF",
        "¬EG(conj) via A1",
        time(|| af_disjunctive(&small, &d_s).holds),
        time(|| mc.af(&d_s)),
        time(|| af_disjunctive(&large, &d_l).holds).1,
    );
    row(
        "disjunctive",
        "EG",
        "token-interval [11]",
        time(|| eg_disjunctive(&small, &d_s).holds),
        time(|| mc.eg(&d_s)),
        time(|| eg_disjunctive(&large, &d_l).holds).1,
    );
    row(
        "disjunctive",
        "AG",
        "¬EF(conj) via [4]",
        time(|| ag_disjunctive(&small, &d_s).holds),
        time(|| mc.ag(&d_s)),
        time(|| ag_disjunctive(&large, &d_l).holds).1,
    );

    // stable row: "P0 has executed at least k events" is stable.
    let stable_s = Stable(hb_predicates::FnPredicate::new("progress", {
        let k = small.num_events_of(0) as u32;
        move |_: &Computation, g: &hb_computation::Cut| g.get(0) >= k
    }));
    let stable_l = Stable(hb_predicates::FnPredicate::new("progress", {
        let k = large.num_events_of(0) as u32;
        move |_: &Computation, g: &hb_computation::Cut| g.get(0) >= k
    }));
    row(
        "stable",
        "EF",
        "eval at E [2]",
        time(|| ef_stable(&small, &stable_s)),
        time(|| mc.ef(&stable_s)),
        time(|| ef_stable(&large, &stable_l)).1,
    );
    row(
        "stable",
        "AF",
        "eval at E [3]",
        time(|| af_stable(&small, &stable_s)),
        time(|| mc.af(&stable_s)),
        time(|| af_stable(&large, &stable_l)).1,
    );

    // linear (with channel conjunct) row
    let lin_s = AndLinear(conj(&small, 2), ChannelsEmpty);
    let lin_l = AndLinear(conj(&large, 2), ChannelsEmpty);
    row(
        "linear (channels)",
        "EF",
        "chase-garg [4]",
        time(|| ef_linear(&small, &lin_s).holds),
        time(|| mc.ef(&lin_s)),
        time(|| ef_linear(&large, &lin_l).holds).1,
    );
    row(
        "linear (channels)",
        "EG",
        "A1 (this paper)",
        time(|| eg_linear(&small, &lin_s).holds),
        time(|| mc.eg(&lin_s)),
        time(|| eg_linear(&large, &lin_l).holds).1,
    );
    row(
        "linear (channels)",
        "AG",
        "A2 (this paper)",
        time(|| ag_linear(&small, &lin_s).holds),
        time(|| mc.ag(&lin_s)),
        time(|| ag_linear(&large, &lin_l).holds).1,
    );

    // regular row (channels-empty alone) — includes the [9] comparator.
    row(
        "regular (channels)",
        "EG",
        "A1 improves [9]",
        time(|| eg_linear(&small, &ChannelsEmpty).holds),
        time(|| mc.eg(&ChannelsEmpty)),
        time(|| eg_linear(&large, &ChannelsEmpty).holds).1,
    );

    // observer-independent row: EF/AF by observation sampling; EG/AG are
    // NP-complete/co-NP-complete (fig3) — baseline only on small.
    row(
        "observer-independent",
        "EF",
        "sample one observation [3]",
        time(|| ef_observer_independent(&small, &d_s).holds),
        time(|| mc.ef(&d_s)),
        time(|| ef_observer_independent(&large, &d_l).holds).1,
    );
    let (eg_t, _) = time(|| mc.eg(&d_s));
    println!(
        "{:<22} {:<4} {:<22} {:>7} {:>12} {:>12} {:>12}",
        "observer-independent",
        "EG",
        "NP-complete (fig3)",
        eg_t,
        "-",
        fmt_duration(time(|| mc.eg(&d_s)).1),
        "-"
    );
}

/// Fig. 1 (Algorithms A1 and A2): behaviour and scaling on random and
/// token-ring traces.
fn fig1() {
    header("Fig. 1: Algorithms A1 (EG) and A2 (AG) on growing traces");
    println!(
        "{:>4} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "n", "|E|", "lattice", "A1 t", "A2 t", "baseline t"
    );
    for (n, events) in [
        (3usize, 4usize),
        (4, 5),
        (5, 5),
        (6, 6),
        (8, 200),
        (8, 2000),
    ] {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: events,
            send_percent: 25,
            value_range: 3,
            seed: 21,
        });
        let p = conj(&comp, 1);
        let (_, a1_t) = time(|| eg_conjunctive(&comp, &p).holds);
        let (_, a2_t) = time(|| ag_linear(&comp, &p).holds);
        let baseline = ModelChecker::with_limit(&comp, 2_000_000).ok();
        let (lat_size, base_t) = match &baseline {
            Some(mc) => {
                let (_, t) = time(|| (mc.eg(&p), mc.ag(&p)));
                (mc.num_states().to_string(), fmt_duration(t))
            }
            None => ("> 2e6".to_string(), "(explodes)".to_string()),
        };
        println!(
            "{:>4} {:>9} {:>10} {:>12} {:>12} {:>12}",
            n,
            comp.num_events(),
            lat_size,
            fmt_duration(a1_t),
            fmt_duration(a2_t),
            base_t
        );
    }
}

/// Fig. 2: the example computation, its 12-cut lattice, and the
/// meet-irreducible elements (the filled circles of the figure).
fn fig2() {
    header("Fig. 2: computation (a) and its lattice (b)");
    let comp = fig2_computation();
    let lat = CutLattice::build(&comp);
    println!("computation: {}", comp.to_dot().lines().count());
    println!("consistent cuts: {}", lat.len());
    let mirr = lat.meet_irreducible_cuts();
    println!("meet-irreducible cuts (filled circles): {}", mirr.len());
    for c in &mirr {
        println!("  M: {c}");
    }
    let direct = meet_irreducibles_direct(&comp);
    assert_eq!(mirr, direct, "direct characterization must agree");
    println!("direct E−↑e characterization matches: true");
    let pc = lat.path_counts();
    println!(
        "maximal paths (observations): {} | widest rank: {}",
        pc.total_paths, pc.widest_rank
    );
    let style = DotStyle {
        filled: lat.meet_irreducible_nodes(),
        patterned: vec![],
    };
    println!(
        "DOT of the lattice: {} lines (see examples/fig2_lattice.rs to dump)",
        lat.to_dot(&style).lines().count()
    );
}

/// Fig. 3: the hardness gadgets — detection time on the gadget grows
/// exponentially with the number of SAT variables, while the verdict
/// tracks DPLL exactly.
fn fig3() {
    header("Fig. 3: SAT→EG and TAUT→AG gadgets (observer-independent)");
    println!(
        "{:>3} {:>9} {:>10} {:>12} {:>12} {:>8} {:>8}",
        "m", "clauses", "lattice", "EG t", "AG t", "EG=SAT", "AG=TAUT"
    );
    for m in [2usize, 4, 6, 8, 10, 12] {
        let cnf = random_3cnf(m.max(3), 2 * m, m as u64);
        let expr = cnf.to_expr();
        let (comp_eg, pred_eg) = sat_to_eg_gadget(&expr, m.max(3));
        let (comp_ag, pred_ag) = tautology_to_ag_gadget(&expr, m.max(3));
        let mc_eg = ModelChecker::new(&comp_eg);
        let mc_ag = ModelChecker::new(&comp_ag);
        let (eg_verdict, eg_t) = time(|| mc_eg.eg(&pred_eg));
        let (ag_verdict, ag_t) = time(|| mc_ag.ag(&pred_ag));
        let sat = dpll_sat(&cnf).is_some();
        let taut = !dpll_negation_sat(&cnf);
        println!(
            "{:>3} {:>9} {:>10} {:>12} {:>12} {:>8} {:>8}",
            m.max(3),
            cnf.clauses.len(),
            mc_eg.num_states(),
            fmt_duration(eg_t),
            fmt_duration(ag_t),
            eg_verdict == sat,
            ag_verdict == taut,
        );
        assert_eq!(eg_verdict, sat);
        assert_eq!(ag_verdict, taut);
    }
}

/// SAT of the negation via brute force (tautology check); kept tiny.
fn dpll_negation_sat(cnf: &hb_reduction::Cnf) -> bool {
    let expr = cnf.to_expr();
    expr.not().brute_force_sat(cnf.num_vars).is_some()
}

/// Fig. 4: the until example — A3 vs the baseline EU.
fn fig4() {
    header("Fig. 4: E[p U q] — Algorithm A3 vs baseline");
    let f = fig4_computation();
    let r = eu_conjunctive_linear(&f.comp, &f.p(), &f.q());
    println!("p = {}", f.p().describe());
    println!("q = {}", f.q().describe());
    println!("E[p U q] = {}", r.holds);
    println!(
        "I_q = {} (paper: {{e1, f1, f2, g1}})",
        r.i_q.clone().unwrap()
    );
    let w = r.witness.unwrap();
    println!(
        "witness path: {}",
        w.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" ▷ ")
    );
    println!();
    println!(
        "{:>7} {:>9} {:>10} {:>12} {:>12}",
        "rounds", "|E|", "lattice", "A3 t", "baseline t"
    );
    for rounds in [1usize, 4, 16, 64, 256, 1024] {
        let f = fig4_scaled(rounds);
        let (v, a3_t) = time(|| eu_conjunctive_linear(&f.comp, &f.p(), &f.q()).holds);
        assert!(v);
        let base = ModelChecker::with_limit(&f.comp, 500_000).ok();
        let (lat, base_t) = match &base {
            Some(mc) => {
                let (bv, t) = time(|| mc.eu(&f.p(), &f.q()));
                assert_eq!(bv, v);
                (mc.num_states().to_string(), fmt_duration(t))
            }
            None => ("> 5e5".to_string(), "(explodes)".to_string()),
        };
        println!(
            "{:>7} {:>9} {:>10} {:>12} {:>12}",
            rounds,
            f.comp.num_events(),
            lat,
            fmt_duration(a3_t),
            base_t
        );
    }
}

/// S1: the §5 complexity-improvement ablation — A1 with incremental
/// conjunctive checks vs naive re-evaluation vs the slice-based
/// `EG(regular)` of \[9\].
fn s1() {
    header("S1: A1 ablation — incremental vs naive vs slice-based [9]");
    println!(
        "{:>4} {:>9} {:>12} {:>12} {:>14}",
        "n", "|E|", "A1 incr", "A1 naive", "slice EG [9]"
    );
    for n in [2usize, 4, 8, 16, 32] {
        let t = token_ring_mutex(n.max(2), 6, 3);
        let sane = Conjunctive::new(
            (0..n.max(2))
                .map(|i| (i, LocalExpr::ge(t.try_var, 0)))
                .collect(),
        );
        let (v1, incr) = time(|| eg_conjunctive(&t.comp, &sane).holds);
        let (v2, naive) = time(|| eg_linear(&t.comp, &sane).holds);
        let (v3, slice) = time(|| eg_regular_via_slice(&t.comp, &sane).holds);
        assert!(v1 == v2 && v2 == v3);
        println!(
            "{:>4} {:>9} {:>12} {:>12} {:>14}",
            n.max(2),
            t.comp.num_events(),
            fmt_duration(incr),
            fmt_duration(naive),
            fmt_duration(slice)
        );
    }
}

/// S2: state explosion — lattice size and baseline cost vs the
/// structural algorithms as n grows.
fn s2() {
    header("S2: state explosion — structural EF vs lattice construction");
    println!(
        "{:>4} {:>7} {:>12} {:>14} {:>14} {:>16}",
        "n", "|E|", "lattice", "paths", "EF struct t", "EF baseline t"
    );
    for n in [2usize, 3, 4, 5, 6, 7] {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: 4,
            send_percent: 20,
            value_range: 3,
            seed: 13,
        });
        let p = conj(&comp, 1);
        let (_, ef_t) = time(|| ef_linear(&comp, &p).holds);
        let baseline = ModelChecker::with_limit(&comp, 3_000_000).ok();
        let (lat, paths, base_t) = match &baseline {
            Some(mc) => {
                let pc = mc.lattice().path_counts();
                let (_, t) = time(|| mc.ef(&p));
                (
                    mc.num_states().to_string(),
                    pc.total_paths.to_string(),
                    fmt_duration(t),
                )
            }
            None => ("> 3e6".into(), "-".into(), "(explodes)".into()),
        };
        println!(
            "{:>4} {:>7} {:>12} {:>14} {:>14} {:>16}",
            n,
            comp.num_events(),
            lat,
            paths,
            fmt_duration(ef_t),
            base_t
        );
    }
}

/// S3: until scaling on the producer/consumer pipeline.
fn s3() {
    header("S3: E[p U q] (A3) and A[p U q] on producer/consumer pipelines");
    println!(
        "{:>6} {:>7} {:>9} {:>12} {:>12}",
        "procs", "items", "|E|", "A3 EU t", "AU t"
    );
    for (n, items) in [(3usize, 8usize), (3, 64), (4, 256), (6, 1024), (8, 4096)] {
        let t = hb_sim::protocols::producer_consumer(n, items, 17);
        let nothing = Conjunctive::new(vec![(n - 1, LocalExpr::eq(t.consumed_var, 0))]);
        let produced = Conjunctive::new(vec![(0, LocalExpr::eq(t.produced_var, items as i64))]);
        let (v, eu_t) = time(|| eu_conjunctive_linear(&t.comp, &nothing, &produced).holds);
        assert!(v);
        let p = Disjunctive::new(vec![(n - 1, LocalExpr::ge(t.consumed_var, 0))]);
        let q = Disjunctive::new(vec![(n - 1, LocalExpr::eq(t.consumed_var, items as i64))]);
        let (av, au_t) = time(|| hb_detect::au_disjunctive(&t.comp, &p, &q).holds);
        assert!(av);
        println!(
            "{:>6} {:>7} {:>9} {:>12} {:>12}",
            n,
            items,
            t.comp.num_events(),
            fmt_duration(eu_t),
            fmt_duration(au_t)
        );
    }
}
