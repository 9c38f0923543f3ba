//! Self-contained UNSAT proofs for quantifier-free formulas.
//!
//! The evidence layer (see `homc-serve`/`homc-core`) needs the verifier's
//! abstraction queries to be *checkable after the fact*, by a validator that
//! shares no search code with the solver. The proof system here is built on
//! the one syntactic normal form both sides can recompute independently:
//! a formula `f` is unsatisfiable iff every cube of its disjunctive normal
//! form is. A proof is therefore one refutation per DNF cube, in cube order:
//!
//! * [`CubeProof::BoolConflict`] — the cube contains a boolean variable in
//!   both polarities.
//! * [`ArithRefutation::Farkas`] — a Farkas certificate: a non-negative
//!   combination of the cube's atoms summing to a positive constant `<= 0`.
//! * [`ArithRefutation::Gcd`] — one equality atom `Σ cᵢxᵢ + k = 0` whose
//!   coefficient gcd does not divide `k` (no integer solution).
//! * [`ArithRefutation::Split`] — a branch on an integer variable: sub-proofs
//!   refute the cube with `x <= at` and with `x >= at + 1` appended. Every
//!   integer satisfies one side, so the cube itself is infeasible.
//!
//! [`prove_unsat`] mirrors the branch & bound structure of [`crate::int_sat`]
//! to *find* such proofs; [`verify_unsat`] checks one with nothing but exact
//! rational arithmetic over the checker's own recomputed DNF. Validating
//! against the recomputed cubes (not cubes shipped inside the proof) is what
//! makes the checker one-sided: a corrupted proof can only be rejected, never
//! talked into accepting a satisfiable formula.

use crate::fm::{check_certificate, rational_sat, FarkasCert, RatResult};
use crate::formula::{Formula, Literal};
use crate::linexpr::{Atom, LinExpr, Rel, Var};
use crate::rat::{gcd, Rat};

#[cfg(test)]
thread_local! {
    /// Fourier–Motzkin runs started by the proof search on this thread.
    static FM_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Cube cap for the proof-side DNF expansion. Queries whose DNF would exceed
/// this are simply not proved (the emitter reports them as unprovable and the
/// evidence checker treats them as satisfiable — a sound over-approximation).
pub const PROOF_DNF_LIMIT: usize = 4096;

/// Branch & bound depth for the proof emitter, matching the solver's
/// integer-completeness budget.
const PROOF_BB_DEPTH: u32 = 24;

/// Split nesting the verifier will follow before rejecting a proof. Emitted
/// proofs are bounded by [`PROOF_BB_DEPTH`]; the extra headroom only guards
/// the checker's stack against hand-corrupted evidence.
const VERIFY_SPLIT_DEPTH: u32 = 64;

/// Why one DNF cube (a conjunction of literals) is infeasible over the
/// integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArithRefutation {
    /// A Farkas certificate over the cube's arithmetic atoms (in cube
    /// order): the weighted sum cancels every variable and leaves a positive
    /// constant claimed `<= 0`.
    Farkas(FarkasCert),
    /// Index (into the cube's arithmetic atoms) of an equality whose
    /// coefficient gcd does not divide its constant term.
    Gcd(usize),
    /// Case split on an integer variable: `below` refutes the atoms plus
    /// `var <= at`, `above` refutes the atoms plus `var >= at + 1`.
    Split {
        /// The branch variable.
        var: Var,
        /// The split point.
        at: i128,
        /// Refutation of the `var <= at` branch.
        below: Box<ArithRefutation>,
        /// Refutation of the `var >= at + 1` branch.
        above: Box<ArithRefutation>,
    },
}

/// Refutation of one DNF cube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CubeProof {
    /// Some boolean variable occurs in both polarities.
    BoolConflict,
    /// The cube's arithmetic atoms are jointly infeasible.
    Arith(ArithRefutation),
}

/// A complete UNSAT proof: one [`CubeProof`] per cube of the formula's DNF,
/// aligned with the cube order of [`Formula::dnf`] at [`PROOF_DNF_LIMIT`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct UnsatProof {
    /// Per-cube refutations, in DNF order.
    pub cubes: Vec<CubeProof>,
}

/// `true` when the cube carries some boolean variable in both polarities.
fn has_bool_conflict(cube: &[u32], leaves: &[Literal]) -> bool {
    cube.iter().any(|&i| match &leaves[i as usize] {
        Literal::Bool(v, pol) => cube.iter().any(|&j| {
            matches!(&leaves[j as usize], Literal::Bool(w, q) if w == v && q != pol)
        }),
        Literal::Arith(_) => false,
    })
}

/// Index of an equality atom refuted by the gcd test, if any.
fn gcd_cut_index(atoms: &[Atom]) -> Option<usize> {
    atoms.iter().position(|a| {
        if a.rel() != Rel::Eq {
            return false;
        }
        let mut g: i128 = 0;
        for (_, c) in a.lhs().iter() {
            g = gcd(g, c);
        }
        g != 0 && a.lhs().constant_part() % g != 0
    })
}

/// Searches for a refutation of a conjunction of atoms, mirroring the
/// branch & bound of [`crate::int_sat`] but returning the proof tree instead
/// of a verdict. `None` when the atoms are satisfiable or the depth budget
/// ran out.
fn int_refute(atoms: &[Atom], depth: u32) -> Option<ArithRefutation> {
    if let Some(i) = gcd_cut_index(atoms) {
        return Some(ArithRefutation::Gcd(i));
    }
    #[cfg(test)]
    FM_CALLS.with(|c| c.set(c.get() + 1));
    match rational_sat(atoms) {
        RatResult::Unsat(cert) => Some(ArithRefutation::Farkas(cert)),
        RatResult::Sat(model) => {
            let (v, r) = model.iter().find(|(_, r)| !r.is_integer())?;
            if depth == 0 {
                return None;
            }
            let (v, at) = (v.clone(), r.floor());
            let mut left = atoms.to_vec();
            left.push(Atom::le(LinExpr::var(v.clone()), LinExpr::constant(at)));
            let below = int_refute(&left, depth - 1)?;
            let mut right = atoms.to_vec();
            right.push(Atom::ge(LinExpr::var(v.clone()), LinExpr::constant(at + 1)));
            let above = int_refute(&right, depth - 1)?;
            Some(ArithRefutation::Split {
                var: v,
                at,
                below: Box::new(below),
                above: Box::new(above),
            })
        }
    }
}

/// Sentinel of [`prove_unsat`]'s leaf-position table: the leaf is not an
/// arithmetic atom of the current cube.
const ABSENT: usize = usize::MAX;

/// Attempts to build a checkable UNSAT proof for `f`.
///
/// Returns `None` when `f` is satisfiable, when its DNF exceeds
/// [`PROOF_DNF_LIMIT`] cubes, or when branch & bound ran out of depth on
/// some cube. Callers treat an unproved formula as satisfiable — for the
/// abstraction this only coarsens the abstract program, which is sound.
///
/// Cubes of one DNF share most of their atoms, and most of them fall to the
/// same small contradiction. So every Farkas refutation is kept as an unsat
/// core — its `(leaf, weight)` support over the shared leaf table — and a
/// later cube that contains all of a kept core's leaves gets that
/// certificate, re-indexed to its own atoms, without a search. The proof is
/// still one self-contained refutation per cube, checked like any other.
pub fn prove_unsat(f: &Formula) -> Option<UnsatProof> {
    let ix = f.dnf_indexed(PROOF_DNF_LIMIT)?;
    let mut out = Vec::with_capacity(ix.num_cubes());
    let mut cores: Vec<Vec<(u32, Rat)>> = Vec::new();
    // `pos[leaf]` is the leaf's index among the current cube's arithmetic
    // atoms (its first occurrence), `ABSENT` otherwise; reset after each
    // cube, so the table costs one pass per cube, not one per leaf.
    let mut pos = vec![ABSENT; ix.leaves.len()];
    let mut arith: Vec<(u32, &Atom)> = Vec::new();
    for cube in ix.cubes() {
        if has_bool_conflict(cube, &ix.leaves) {
            out.push(CubeProof::BoolConflict);
            continue;
        }
        arith.clear();
        arith.extend(cube.iter().filter_map(|&i| match &ix.leaves[i as usize] {
            Literal::Arith(a) => Some((i, a)),
            Literal::Bool(..) => None,
        }));
        for (k, &(l, _)) in arith.iter().enumerate().rev() {
            pos[l as usize] = k;
        }
        let reused = cores
            .iter()
            .find(|core| core.iter().all(|&(l, _)| pos[l as usize] != ABSENT))
            .map(|core| core.iter().map(|&(l, w)| (pos[l as usize], w)).collect());
        for &(l, _) in &arith {
            pos[l as usize] = ABSENT;
        }
        let refutation = match reused {
            Some(cert) => ArithRefutation::Farkas(cert),
            None => {
                // Branch & bound appends bound atoms as it splits, so a
                // fresh search materializes owned atoms.
                let atoms: Vec<Atom> = arith.iter().map(|&(_, a)| a.clone()).collect();
                let r = int_refute(&atoms, PROOF_BB_DEPTH)?;
                if let ArithRefutation::Farkas(cert) = &r {
                    cores.push(cert.iter().map(|&(i, w)| (arith[i].0, w)).collect());
                }
                r
            }
        };
        out.push(CubeProof::Arith(refutation));
    }
    Some(UnsatProof { cubes: out })
}

/// Checks one arithmetic refutation against a conjunction of atoms using
/// only direct arithmetic — no elimination, no search. The atoms are
/// references into the recomputed DNF's leaf table; even the `Split` case
/// stays on references, borrowing its freshly built bound atom from the
/// stack frame that recurses with it.
fn verify_arith(atoms: &[&Atom], r: &ArithRefutation, depth: u32) -> bool {
    match r {
        ArithRefutation::Farkas(cert) => check_certificate(atoms, cert),
        ArithRefutation::Gcd(i) => {
            let Some(a) = atoms.get(*i) else { return false };
            if a.rel() != Rel::Eq {
                return false;
            }
            let mut g: i128 = 0;
            for (_, c) in a.lhs().iter() {
                g = gcd(g, c);
            }
            g != 0 && a.lhs().constant_part() % g != 0
        }
        ArithRefutation::Split {
            var,
            at,
            below,
            above,
        } => {
            if depth == 0 || *at == i128::MAX {
                return false;
            }
            let lo = Atom::le(LinExpr::var(var.clone()), LinExpr::constant(*at));
            let mut left = atoms.to_vec();
            left.push(&lo);
            if !verify_arith(&left, below, depth - 1) {
                return false;
            }
            let hi = Atom::ge(LinExpr::var(var.clone()), LinExpr::constant(*at + 1));
            let mut right = atoms.to_vec();
            right.push(&hi);
            verify_arith(&right, above, depth - 1)
        }
    }
}

/// Validates an UNSAT proof for `f`.
///
/// The checker recomputes `f`'s DNF itself and demands one valid refutation
/// per cube, in order. `true` means `f` is genuinely unsatisfiable: every
/// accepting path re-derives the facts from `f`'s own atoms, so a forged or
/// corrupted proof cannot certify a satisfiable formula.
pub fn verify_unsat(f: &Formula, proof: &UnsatProof) -> bool {
    let Some(ix) = f.dnf_indexed(PROOF_DNF_LIMIT) else {
        return false;
    };
    if ix.num_cubes() != proof.cubes.len() {
        return false;
    }
    // Scratch buffers for the whole proof, and one fused pass per cube
    // (atom extraction + polarity conflict): certificate-heavy programs
    // push 100k+ cubes through here, so per-cube allocations and second
    // scans are both measurable.
    let mut atoms: Vec<&Atom> = Vec::new();
    let mut bools: Vec<(&Var, bool)> = Vec::new();
    for (cube, cp) in ix.cubes().zip(&proof.cubes) {
        atoms.clear();
        bools.clear();
        let mut conflict = false;
        for &i in cube {
            match &ix.leaves[i as usize] {
                Literal::Arith(a) => atoms.push(a),
                Literal::Bool(v, q) => {
                    conflict = conflict || bools.iter().any(|&(w, r)| w == v && r != *q);
                    bools.push((v, *q));
                }
            }
        }
        let ok = match cp {
            CubeProof::BoolConflict => conflict,
            CubeProof::Arith(r) => !conflict && verify_arith(&atoms, r, VERIFY_SPLIT_DEPTH),
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }
    fn y() -> LinExpr {
        LinExpr::var("y")
    }

    #[test]
    fn farkas_proof_roundtrips() {
        // x > 0 ∧ x + 1 <= 0 — rationally unsat.
        let f = Formula::and2(
            Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
            Formula::atom(Atom::le(x() + LinExpr::constant(1), LinExpr::constant(0))),
        );
        let p = prove_unsat(&f).expect("provable");
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn gcd_proof_roundtrips() {
        // 2x = 2y + 1: rationally sat, integer-unsat by parity.
        let f = Formula::atom(Atom::eq(x() * 2, y() * 2 + LinExpr::constant(1)));
        let p = prove_unsat(&f).expect("provable");
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn split_proof_roundtrips() {
        // 2x >= 1 ∧ 2x <= 1: the only rational solution is x = 1/2.
        let f = Formula::and2(
            Formula::atom(Atom::ge(x() * 2, LinExpr::constant(1))),
            Formula::atom(Atom::le(x() * 2, LinExpr::constant(1))),
        );
        let p = prove_unsat(&f).expect("provable");
        assert!(matches!(
            &p.cubes[0],
            CubeProof::Arith(ArithRefutation::Split { .. })
        ));
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn bool_conflict_and_disjunction() {
        // (b ∧ ¬b) ∨ (x > 0 ∧ x < 0): two cubes, two refutation kinds.
        let b = Formula::BVar(Var::new("b"));
        let f = Formula::or2(
            Formula::and2(b.clone(), Formula::not(b)),
            Formula::and2(
                Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
                Formula::atom(Atom::lt(x(), LinExpr::constant(0))),
            ),
        );
        let p = prove_unsat(&f).expect("provable");
        assert_eq!(p.cubes.len(), 2);
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn satisfiable_formula_has_no_proof() {
        let f = Formula::atom(Atom::gt(x(), LinExpr::constant(0)));
        assert!(prove_unsat(&f).is_none());
        // And a fabricated proof for it must not verify.
        let fake = UnsatProof {
            cubes: vec![CubeProof::Arith(ArithRefutation::Farkas(vec![(
                0,
                Rat::ONE,
            )]))],
        };
        assert!(!verify_unsat(&f, &fake));
    }

    #[test]
    fn tampered_certificate_is_rejected() {
        let f = Formula::and2(
            Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
            Formula::atom(Atom::le(x() + LinExpr::constant(1), LinExpr::constant(0))),
        );
        let p = prove_unsat(&f).expect("provable");
        let CubeProof::Arith(ArithRefutation::Farkas(cert)) = &p.cubes[0] else {
            panic!("expected a Farkas cube");
        };
        // Flip a coefficient.
        let mut bad = cert.clone();
        bad[0].1 = bad[0].1 + Rat::ONE;
        let bad = UnsatProof {
            cubes: vec![CubeProof::Arith(ArithRefutation::Farkas(bad))],
        };
        assert!(!verify_unsat(&f, &bad));
        // Drop a cube.
        let empty = UnsatProof { cubes: vec![] };
        assert!(!verify_unsat(&f, &empty));
    }

    #[test]
    fn false_formula_has_empty_proof() {
        let p = prove_unsat(&Formula::False).expect("trivially unsat");
        assert!(p.cubes.is_empty());
        assert!(verify_unsat(&Formula::False, &p));
        assert!(prove_unsat(&Formula::True).is_none());
    }

    #[test]
    fn mismatched_refutation_kind_is_rejected() {
        // A bool-conflict claim on an arithmetic cube must fail.
        let f = Formula::and2(
            Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
            Formula::atom(Atom::lt(x(), LinExpr::constant(0))),
        );
        let bad = UnsatProof {
            cubes: vec![CubeProof::BoolConflict],
        };
        assert!(!verify_unsat(&f, &bad));
    }

    /// FM runs the proof search starts while proving `f`.
    fn fm_calls(f: &Formula) -> (Option<UnsatProof>, usize) {
        let before = FM_CALLS.with(|c| c.get());
        let p = prove_unsat(f);
        (p, FM_CALLS.with(|c| c.get()) - before)
    }

    /// `(x > 0 ∧ x < 0) ∧ (y₁ > 0 ∨ y₁ < 5) ∧ … ∧ (y₃ > 0 ∨ y₃ < 5)`: eight
    /// cubes, every one refuted by the same two-atom contradiction.
    fn shared_core_formula() -> Formula {
        let mut parts = vec![
            Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
            Formula::atom(Atom::lt(x(), LinExpr::constant(0))),
        ];
        for i in 1..=3 {
            let y = LinExpr::var(format!("y{i}"));
            parts.push(Formula::or2(
                Formula::atom(Atom::gt(y.clone(), LinExpr::constant(0))),
                Formula::atom(Atom::lt(y, LinExpr::constant(5))),
            ));
        }
        Formula::and(parts)
    }

    #[test]
    fn shared_core_is_refuted_once() {
        let f = shared_core_formula();
        let (p, calls) = fm_calls(&f);
        let p = p.expect("provable");
        assert_eq!(p.cubes.len(), 8);
        assert_eq!(calls, 1, "one FM run, seven reused cores");
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn tampered_reused_certificate_is_rejected() {
        let f = shared_core_formula();
        let p = prove_unsat(&f).expect("provable");
        // Every cube after the first carries a reused certificate.
        for k in 1..p.cubes.len() {
            let CubeProof::Arith(ArithRefutation::Farkas(cert)) = &p.cubes[k] else {
                panic!("expected a Farkas cube");
            };
            let mut bad = p.clone();
            let mut flipped = cert.clone();
            flipped[0].1 = -flipped[0].1;
            bad.cubes[k] = CubeProof::Arith(ArithRefutation::Farkas(flipped));
            assert!(
                !verify_unsat(&f, &bad),
                "flipped weight in cube {k} accepted"
            );
        }
    }

    #[test]
    fn mixed_refutation_kinds_roundtrip() {
        // (x > 0 ∧ x < 0) ∨ 2x = 2y + 1 ∨ (2x >= 1 ∧ 2x <= 1), under a
        // two-way split that duplicates every cube: Farkas (fresh and
        // reused), Gcd and Split refutations in one proof.
        let farkas = Formula::and2(
            Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
            Formula::atom(Atom::lt(x(), LinExpr::constant(0))),
        );
        let gcd = Formula::atom(Atom::eq(x() * 2, y() * 2 + LinExpr::constant(1)));
        let split = Formula::and2(
            Formula::atom(Atom::ge(x() * 2, LinExpr::constant(1))),
            Formula::atom(Atom::le(x() * 2, LinExpr::constant(1))),
        );
        let z = LinExpr::var("z");
        let f = Formula::and2(
            Formula::or(vec![farkas, gcd, split]),
            Formula::or2(
                Formula::atom(Atom::gt(z.clone(), LinExpr::constant(0))),
                Formula::atom(Atom::le(z, LinExpr::constant(0))),
            ),
        );
        let p = prove_unsat(&f).expect("provable");
        let kind = |c: &CubeProof| match c {
            CubeProof::Arith(ArithRefutation::Farkas(_)) => "farkas",
            CubeProof::Arith(ArithRefutation::Gcd(_)) => "gcd",
            CubeProof::Arith(ArithRefutation::Split { .. }) => "split",
            CubeProof::BoolConflict => "bool",
        };
        let kinds: Vec<&str> = p.cubes.iter().map(kind).collect();
        for k in ["farkas", "gcd", "split"] {
            assert!(kinds.contains(&k), "no {k} cube in {kinds:?}");
        }
        assert!(verify_unsat(&f, &p));
    }
}
