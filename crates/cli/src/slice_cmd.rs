//! `hbtl slice inspect` — run the offline slicer on a recorded trace.
//!
//! ```text
//! hbtl slice inspect <trace> --conj "p:var=v,..." [--json]
//! ```
//!
//! Computes the slice of the trace's computation with respect to a
//! conjunctive predicate (the regular class the online ingest filter
//! slices too) and reports how much of the cut lattice it rules out:
//! the Birkhoff data `I_p` / `F_p`, how many events belong to the
//! slice, and the slice's cut-count bound against the full lattice's —
//! the same numbers that justify routing detection through the slice.
//!
//! Bounds are the box bounds `Π (span_i + 1)`: every consistent cut
//! lies in the full box, and every satisfying cut lies in the
//! `[I_p, F_p]` box, so `full / slice` understates nothing.

use crate::commands;
use crate::monitor_cmd::{parse_clause, take_switch};
use hb_computation::{Computation, EventId};
use hb_predicates::{CmpOp, Conjunctive, LocalExpr};
use hb_slice::Slice;
use std::fmt::Write as _;

/// Parses `"p:var=v,..."` into the offline conjunctive predicate,
/// resolving variable names against the trace's declarations.
fn parse_conjunctive(comp: &Computation, src: &str) -> Result<Conjunctive, String> {
    let mut clauses = Vec::new();
    for part in src.split(',') {
        let c = parse_clause(part)?;
        if c.process >= comp.num_processes() {
            return Err(format!(
                "clause '{part}': process {} out of range (trace has {})",
                c.process,
                comp.num_processes()
            ));
        }
        let var = comp
            .vars()
            .lookup(&c.var)
            .ok_or_else(|| format!("clause '{part}': variable '{}' not in the trace", c.var))?;
        let op = match c.op.as_str() {
            "=" | "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            other => return Err(format!("clause '{part}': unknown operator '{other}'")),
        };
        clauses.push((c.process, LocalExpr::Cmp(var, op, c.value)));
    }
    if clauses.is_empty() {
        return Err("--conj needs at least one clause".into());
    }
    Ok(Conjunctive::new(clauses))
}

/// `Π (spans + 1)`, saturating: the box bound on cut counts.
fn box_bound(spans: impl Iterator<Item = u64>) -> u128 {
    spans.fold(1u128, |acc, s| acc.saturating_mul(u128::from(s) + 1))
}

fn inspect(trace: &str, conj_src: &str, json: bool) -> Result<String, String> {
    let comp = commands::load_trace(trace)?;
    let pred = parse_conjunctive(&comp, conj_src)?;
    let slice = Slice::compute(&comp, &pred);

    let slice_events: usize = (0..comp.num_processes())
        .map(|i| {
            (0..comp.num_events_of(i))
                .filter(|&k| slice.j_cut(EventId::new(i, k)).is_some())
                .count()
        })
        .sum();
    let full_bound = box_bound((0..comp.num_processes()).map(|i| comp.num_events_of(i) as u64));
    let slice_bound = match (&slice.i_p, &slice.f_p) {
        (Some(i_p), Some(f_p)) => box_bound(
            (0..comp.num_processes()).map(|i| u64::from(f_p.get(i)) - u64::from(i_p.get(i))),
        ),
        _ => 0,
    };
    let reduction = (slice_bound > 0).then(|| full_bound as f64 / slice_bound as f64);

    let cut_json = |c: &hb_computation::Cut| {
        let parts: Vec<String> = (0..c.width()).map(|i| c.get(i).to_string()).collect();
        format!("[{}]", parts.join(","))
    };
    if json {
        let mut out = format!(
            "{{\"trace\":\"{trace}\",\"processes\":{},\"events\":{},\
             \"empty\":{},\"slice_events\":{slice_events},\
             \"lattice_bound\":{full_bound},\"slice_bound\":{slice_bound}",
            comp.num_processes(),
            comp.num_events(),
            slice.is_empty(),
        );
        if let (Some(i_p), Some(f_p)) = (&slice.i_p, &slice.f_p) {
            let _ = write!(out, ",\"i\":{},\"f\":{}", cut_json(i_p), cut_json(f_p));
        }
        if let Some(r) = reduction {
            let _ = write!(out, ",\"reduction\":{r:.2}");
        }
        out.push_str("}\n");
        return Ok(out);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "slice of {trace} w.r.t. [{conj_src}]: {} processes, {} events",
        comp.num_processes(),
        comp.num_events(),
    );
    if slice.is_empty() {
        let _ = writeln!(
            out,
            "slice: empty — no consistent cut satisfies the predicate"
        );
        return Ok(out);
    }
    let (i_p, f_p) = (slice.i_p.as_ref().unwrap(), slice.f_p.as_ref().unwrap());
    let _ = writeln!(out, "I_p = {i_p}   F_p = {f_p}");
    let _ = writeln!(
        out,
        "slice events: {slice_events} of {} belong to some satisfying cut",
        comp.num_events()
    );
    let _ = writeln!(
        out,
        "cut-lattice bound: {full_bound} cuts; slice bound: {slice_bound} cuts ({}x reduction)",
        reduction.map_or_else(|| "inf".into(), |r| format!("{r:.1}")),
    );
    Ok(out)
}

/// Dispatches `hbtl slice …`.
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("inspect") => {
            let mut rest = args[1..].to_vec();
            let json = take_switch(&mut rest, "--json");
            let conj = crate::monitor_cmd::take_flag(&mut rest, "--conj")?
                .ok_or("slice inspect needs --conj \"p:var=v,...\"")?;
            let [trace] = rest.as_slice() else {
                return Err("slice inspect needs <trace> --conj \"p:var=v,...\" [--json]".into());
            };
            inspect(trace, &conj, json)
        }
        _ => Err("slice needs a subcommand: inspect".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_computation::ComputationBuilder;

    /// Two processes, x climbing 0→2 on each; the predicate wants
    /// `x = 2` on both, so the slice pins the tail of the lattice.
    fn sample_trace(path: &std::path::Path) {
        let mut b = ComputationBuilder::new(2);
        let x = b.var("x");
        for i in 0..2 {
            b.internal(i).set(x, 1).done();
            b.internal(i).set(x, 2).done();
        }
        let comp = b.finish().unwrap();
        commands::save_trace(&comp, path.to_str().unwrap()).unwrap();
    }

    #[test]
    fn inspect_reports_slice_bounds() {
        let dir = std::env::temp_dir().join(format!("hbtl-slice-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        sample_trace(&trace);
        let args: Vec<String> = ["inspect", trace.to_str().unwrap(), "--conj", "0:x=2,1:x=2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args).unwrap();
        assert!(out.contains("I_p = (2,2)"), "{out}");
        assert!(out.contains("F_p = (2,2)"), "{out}");
        // Box bounds: full (2+1)^2 = 9, slice a single cut.
        assert!(
            out.contains("cut-lattice bound: 9 cuts; slice bound: 1 cuts"),
            "{out}"
        );

        let mut args = args;
        args.push("--json".into());
        let js = run(&args).unwrap();
        assert!(js.contains("\"empty\":false"), "{js}");
        assert!(js.contains("\"lattice_bound\":9,\"slice_bound\":1"), "{js}");
        assert!(js.contains("\"i\":[2,2],\"f\":[2,2]"), "{js}");
        assert!(js.contains("\"reduction\":9.00"), "{js}");

        // An unsatisfiable predicate yields the empty slice.
        let args: Vec<String> = ["inspect", trace.to_str().unwrap(), "--conj", "0:x=7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args).unwrap();
        assert!(out.contains("slice: empty"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
