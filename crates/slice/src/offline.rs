//! Offline computation slicing (Mittal & Garg \[18\], Garg & Mittal \[9\]).
//!
//! The **slice** of a computation with respect to a regular predicate `p`
//! is the sub-structure of the cut lattice containing exactly the cuts
//! that satisfy `p`. Because the satisfying set of a regular predicate is
//! a sublattice, Birkhoff applies to it too: the slice is captured by one
//! cut per event,
//!
//! `J_p(e)` — the least `p`-cut containing `e`,
//!
//! together with the global least/greatest `p`-cuts `I_p` / `F_p`. A cut
//! `G` satisfies `p` iff `I_p ⊆ G ⊆ F_p` and `J_p(e) ⊆ G` for every
//! `e ∈ G` (the per-process frontier events suffice by monotonicity).
//!
//! The paper uses slicing twice: A3's complexity argument routes the
//! `EG(conjunctive)` sub-checks through the optimal conjunctive slicer of
//! \[18\], and Section 5 notes that A1 improves the `O(n²|E|)`
//! slice-based `EG(regular)` of \[9\] — this module provides that
//! comparator ([`eg_regular_via_slice`]) for the S1 ablation benchmark.
//!
//! # Example
//!
//! ```
//! use hb_computation::ComputationBuilder;
//! use hb_predicates::{Conjunctive, LocalExpr};
//! use hb_slice::Slice;
//!
//! let mut b = ComputationBuilder::new(2);
//! let x = b.var("x");
//! b.internal(0).set(x, 1).done();
//! b.internal(1).set(x, 1).done();
//! let comp = b.finish().unwrap();
//!
//! let p = Conjunctive::new(vec![(0, LocalExpr::eq(x, 1))]);
//! let slice = Slice::compute(&comp, &p);
//! // Membership answered from Birkhoff data alone:
//! assert!(slice.contains(&comp.final_cut()));
//! assert!(!slice.contains(&comp.initial_cut()));
//! ```

use hb_computation::{Computation, Cut, EventId};
use hb_detect::{ef_linear, ef_post_linear, EgReport};
use hb_predicates::RegularPredicate;

/// The slice of a computation with respect to a regular predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// The least satisfying cut, if any cut satisfies `p`.
    pub i_p: Option<Cut>,
    /// The greatest satisfying cut, if any.
    pub f_p: Option<Cut>,
    /// `J_p(e)` per process per event index; `None` when no `p`-cut
    /// contains the event.
    jcuts: Vec<Vec<Option<Cut>>>,
}

impl Slice {
    /// Computes the slice of `comp` with respect to regular `p`.
    ///
    /// `O(n|E|²)`: one Chase–Garg walk per event. (The optimal algorithm
    /// of \[18\] achieves `O(n|E|)` for conjunctive predicates; the
    /// generic regular version here is the \[9\] construction.)
    pub fn compute<P: RegularPredicate + ?Sized>(comp: &Computation, p: &P) -> Slice {
        let i_p = ef_linear(comp, p).witness;
        let f_p = ef_post_linear(comp, p).witness;
        let mut jcuts = Vec::with_capacity(comp.num_processes());
        for i in 0..comp.num_processes() {
            let mut row = Vec::with_capacity(comp.num_events_of(i));
            for k in 0..comp.num_events_of(i) {
                if i_p.is_none() {
                    row.push(None);
                    continue;
                }
                let start = comp.causal_past_cut(EventId::new(i, k));
                row.push(least_satisfying_above(comp, p, start));
            }
            jcuts.push(row);
        }
        Slice { i_p, f_p, jcuts }
    }

    /// `J_p(e)`: the least `p`-cut containing `e`, if one exists.
    pub fn j_cut(&self, e: EventId) -> Option<&Cut> {
        self.jcuts[e.process][e.index].as_ref()
    }

    /// Whether the slice is empty (no cut satisfies `p`).
    pub fn is_empty(&self) -> bool {
        self.i_p.is_none()
    }

    /// Membership: does consistent cut `g` satisfy `p`, decided purely
    /// from the slice's Birkhoff data (`O(n²)`, no predicate evaluation)?
    pub fn contains(&self, g: &Cut) -> bool {
        let (Some(i_p), Some(f_p)) = (&self.i_p, &self.f_p) else {
            return false;
        };
        if !i_p.leq(g) || !g.leq(f_p) {
            return false;
        }
        for i in 0..g.width() {
            if g.get(i) == 0 {
                continue;
            }
            // Frontier event of process i: J_p monotone along a process,
            // so the last included event dominates the earlier ones.
            match &self.jcuts[i][g.get(i) as usize - 1] {
                Some(j) if j.leq(g) => {}
                _ => return false,
            }
        }
        true
    }
}

/// Chase–Garg advancement from an arbitrary starting cut: the least
/// satisfying cut above `start`, if any.
fn least_satisfying_above<P: RegularPredicate + ?Sized>(
    comp: &Computation,
    p: &P,
    mut g: Cut,
) -> Option<Cut> {
    let final_cut = comp.final_cut();
    loop {
        match p.forbidden_process(comp, &g) {
            None => return Some(g),
            Some(i) => {
                if g.get(i) >= final_cut.get(i) {
                    return None;
                }
                g = comp.least_extension(&g, i, g.get(i) + 1);
            }
        }
    }
}

/// The \[9\]-flavored `EG(regular)` comparator: Algorithm A1's backward
/// walk, but deciding predicate membership through the slice
/// (`O(n²)` per test after the `O(n|E|²)` slice construction) instead of
/// evaluating `p` directly. Exists for the S1 ablation; prefer
/// [`hb_detect::eg_linear`].
pub fn eg_regular_via_slice<P: RegularPredicate + ?Sized>(comp: &Computation, p: &P) -> EgReport {
    let slice = Slice::compute(comp, p);
    let final_cut = comp.final_cut();
    if !slice.contains(&final_cut) {
        return EgReport {
            holds: false,
            witness: None,
            steps: 1,
        };
    }
    let mut w = final_cut;
    let mut path = vec![w.clone()];
    let mut steps = 1usize;
    while w.rank() > 0 {
        steps += 1;
        let mut next = None;
        for j in 0..w.width() {
            if w.get(j) > 0 && comp.can_retreat(&w, j) {
                let g = w.retreated(j);
                if slice.contains(&g) {
                    next = Some(g);
                    break;
                }
            }
        }
        match next {
            Some(g) => {
                w = g;
                path.push(w.clone());
            }
            None => {
                return EgReport {
                    holds: false,
                    witness: None,
                    steps,
                }
            }
        }
    }
    path.reverse();
    EgReport {
        holds: true,
        witness: Some(path),
        steps,
    }
}

/// `EF(p)` through the slice: `p` is possible iff the slice is nonempty,
/// with `I_p` as witness.
pub fn ef_regular_via_slice<P: RegularPredicate + ?Sized>(
    comp: &Computation,
    p: &P,
) -> Option<Cut> {
    Slice::compute(comp, p).i_p
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_computation::ComputationBuilder;
    use hb_lattice::CutLattice;
    use hb_predicates::{ChannelsEmpty, Conjunctive, LocalExpr, Predicate};

    fn sample() -> (Computation, hb_computation::VarId) {
        let mut b = ComputationBuilder::new(2);
        let x = b.var("x");
        b.internal(0).set(x, 1).done();
        let m = b.send(0).set(x, 2).done_send();
        b.internal(1).set(x, 1).done();
        b.receive(1, m).set(x, 0).done();
        (b.finish().unwrap(), x)
    }

    #[test]
    fn slice_membership_equals_predicate_satisfaction() {
        let (comp, x) = sample();
        let lat = CutLattice::build(&comp);
        let preds = [
            Conjunctive::new(vec![(0, LocalExpr::ge(x, 1))]),
            Conjunctive::new(vec![(0, LocalExpr::ge(x, 1)), (1, LocalExpr::ge(x, 1))]),
            Conjunctive::new(vec![(1, LocalExpr::eq(x, 7))]),
            Conjunctive::top(),
        ];
        for p in &preds {
            let slice = Slice::compute(&comp, p);
            for i in 0..lat.len() {
                let g = lat.cut(i);
                assert_eq!(
                    slice.contains(g),
                    p.eval(&comp, g),
                    "{} at {g}",
                    p.describe()
                );
            }
        }
    }

    #[test]
    fn slice_membership_for_channel_predicate() {
        let (comp, _) = sample();
        let lat = CutLattice::build(&comp);
        let slice = Slice::compute(&comp, &ChannelsEmpty);
        for i in 0..lat.len() {
            let g = lat.cut(i);
            assert_eq!(slice.contains(g), ChannelsEmpty.eval(&comp, g), "{g}");
        }
    }

    #[test]
    fn empty_slice_when_predicate_unsatisfiable() {
        let (comp, x) = sample();
        let p = Conjunctive::new(vec![(0, LocalExpr::eq(x, 42))]);
        let slice = Slice::compute(&comp, &p);
        assert!(slice.is_empty());
        assert!(!slice.contains(&comp.initial_cut()));
        assert!(ef_regular_via_slice(&comp, &p).is_none());
    }

    #[test]
    fn j_cuts_are_least_p_cuts_containing_event() {
        let (comp, x) = sample();
        let lat = CutLattice::build(&comp);
        let p = Conjunctive::new(vec![(0, LocalExpr::ge(x, 1))]);
        let slice = Slice::compute(&comp, &p);
        for e in comp.event_ids() {
            let j = slice.j_cut(e);
            // Ground truth: minimal satisfying cut containing e.
            let best = (0..lat.len())
                .map(|i| lat.cut(i))
                .filter(|g| g.get(e.process) as usize > e.index && p.eval(&comp, g))
                .fold(None::<Cut>, |acc, g| match acc {
                    None => Some(g.clone()),
                    Some(a) => Some(a.meet(g)),
                });
            assert_eq!(j.cloned(), best, "event {e}");
        }
    }

    #[test]
    fn eg_via_slice_agrees_with_a1() {
        let (comp, x) = sample();
        for p in [
            Conjunctive::new(vec![(0, LocalExpr::ge(x, 0)), (1, LocalExpr::ge(x, 0))]),
            Conjunctive::new(vec![(0, LocalExpr::ge(x, 1))]),
            Conjunctive::new(vec![(1, LocalExpr::le(x, 1))]),
        ] {
            let a1 = hb_detect::eg_linear(&comp, &p);
            let sl = eg_regular_via_slice(&comp, &p);
            assert_eq!(a1.holds, sl.holds, "{}", p.describe());
            if let Some(w) = sl.witness.as_deref() {
                hb_detect::witness::verify_eg_witness(&comp, &p, w).unwrap();
            }
        }
    }

    #[test]
    fn slice_bounds_are_consistent_cuts() {
        let (comp, x) = sample();
        let p = Conjunctive::new(vec![(0, LocalExpr::ge(x, 1))]);
        let slice = Slice::compute(&comp, &p);
        let i_p = slice.i_p.clone().unwrap();
        let f_p = slice.f_p.clone().unwrap();
        assert!(comp.is_consistent(&i_p));
        assert!(comp.is_consistent(&f_p));
        assert!(i_p.leq(&f_p));
        assert!(p.eval(&comp, &i_p));
        assert!(p.eval(&comp, &f_p));
    }
}
