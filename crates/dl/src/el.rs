//! A polynomial completion-rule classifier for the EL fragment
//! (with ⊥ for disjointness) — the baseline reasoner.
//!
//! The input TBox must be within EL: concepts built from ⊤, atoms, ⊓
//! and ∃r.C only (⊥ is permitted on right-hand sides). The classifier
//! normalizes the TBox into the four EL normal forms and saturates the
//! standard completion rules (CR1–CR5 of the CEL calculus), yielding
//! all atom–atom subsumptions in polynomial time.

use crate::concept::{Concept, ConceptId, RoleId, Vocabulary};
use crate::error::{DlError, Result};
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use summa_guard::{Interrupt, Meter};

/// Internal atom index: user atoms first, then fresh definitional
/// atoms, then the distinguished ⊤ and ⊥.
type Atom = u32;

/// Normal-form axioms.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NfAxiom {
    /// A ⊑ B
    Sub(Atom, Atom),
    /// A₁ ⊓ A₂ ⊑ B
    Conj(Atom, Atom, Atom),
    /// A ⊑ ∃r.B
    ExistsRhs(Atom, RoleId, Atom),
    /// ∃r.A ⊑ B
    ExistsLhs(RoleId, Atom, Atom),
}

/// The EL completion-rule classifier.
#[derive(Debug, Clone)]
pub struct ElClassifier {
    /// Atom count including fresh, ⊤ (`top`) and ⊥ (`bottom`).
    n_atoms: u32,
    top: Atom,
    bottom: Atom,
    axioms: Vec<NfAxiom>,
    /// Map from user concept ids to internal atoms.
    user: BTreeMap<ConceptId, Atom>,
    /// Saturated subsumer sets `S(X)`, filled by [`ElClassifier::saturate`].
    subsumers: Vec<BTreeSet<Atom>>,
    /// Derived role edges `R(r)` as adjacency: `(x, r)` → set of `y`.
    /// Kept alongside `subsumers` so a saturation interrupted by its
    /// budget continues on the next call without losing CR3's work.
    edges: BTreeMap<(Atom, RoleId), BTreeSet<Atom>>,
    saturated: bool,
}

impl ElClassifier {
    /// Build the classifier from an EL TBox.
    ///
    /// Returns [`DlError::OutsideFragment`] when any axiom falls
    /// outside EL (⊥ is tolerated anywhere; it simply makes the side
    /// unsatisfiable).
    pub fn new(tbox: &TBox, voc: &Vocabulary) -> Result<Self> {
        for (l, r) in tbox.gcis() {
            if !el_ok(&l) || !el_ok(&r) {
                return Err(DlError::OutsideFragment {
                    reasoner: "EL",
                    detail: format!(
                        "axiom {} ⊑ {} is outside EL",
                        l.display(voc),
                        r.display(voc)
                    ),
                });
            }
        }
        let mut this = ElClassifier {
            n_atoms: 0,
            top: 0,
            bottom: 0,
            axioms: vec![],
            user: BTreeMap::new(),
            subsumers: vec![],
            edges: BTreeMap::new(),
            saturated: false,
        };
        // Reserve user atoms.
        for c in tbox.atoms() {
            let a = this.n_atoms;
            this.user.insert(c, a);
            this.n_atoms += 1;
        }
        this.top = this.n_atoms;
        this.bottom = this.n_atoms + 1;
        this.n_atoms += 2;
        // Normalize.
        for (l, r) in tbox.gcis() {
            let la = this.atomize(&l);
            let ra = this.atomize_rhs(&r);
            this.axioms.push(NfAxiom::Sub(la, ra));
        }
        Ok(this)
    }

    /// Reduce an arbitrary EL concept to a single atom, introducing
    /// fresh definitional atoms as needed (lhs-oriented: the atom is
    /// *equivalent* to the concept because we add both directions of
    /// the definitional axioms where required).
    fn atomize(&mut self, c: &Concept) -> Atom {
        match c {
            Concept::Top => self.top,
            Concept::Bottom => self.bottom,
            Concept::Atom(id) => self.user_atom(*id),
            Concept::And(parts) => {
                let atoms: Vec<Atom> = parts.iter().map(|p| self.atomize(p)).collect();
                // Fold pairwise: fresh ⊑-equivalent conjunction atoms.
                let mut acc = atoms[0];
                for &a in &atoms[1..] {
                    let fresh = self.fresh();
                    // acc ⊓ a ⊑ fresh and fresh ⊑ acc, fresh ⊑ a
                    self.axioms.push(NfAxiom::Conj(acc, a, fresh));
                    self.axioms.push(NfAxiom::Sub(fresh, acc));
                    self.axioms.push(NfAxiom::Sub(fresh, a));
                    acc = fresh;
                }
                acc
            }
            Concept::Exists(r, inner) => {
                let ia = self.atomize(inner);
                let fresh = self.fresh();
                // ∃r.ia ⊑ fresh and fresh ⊑ ∃r.ia
                self.axioms.push(NfAxiom::ExistsLhs(*r, ia, fresh));
                self.axioms.push(NfAxiom::ExistsRhs(fresh, *r, ia));
                fresh
            }
            // Checked by the constructor.
            other => unreachable!("non-EL concept {other:?} after fragment check"),
        }
    }

    fn atomize_rhs(&mut self, c: &Concept) -> Atom {
        self.atomize(c)
    }

    fn user_atom(&mut self, id: ConceptId) -> Atom {
        if let Some(&a) = self.user.get(&id) {
            return a;
        }
        let a = self.fresh();
        self.user.insert(id, a);
        a
    }

    fn fresh(&mut self) -> Atom {
        let a = self.n_atoms;
        self.n_atoms += 1;
        a
    }

    /// Run the completion rules to fixpoint.
    pub fn saturate(&mut self) {
        let mut meter = Meter::unlimited();
        self.saturate_metered(&mut meter)
            .expect("unlimited meter interrupted");
    }

    /// Run the completion rules to fixpoint under a [`Meter`],
    /// charging one step per processed queue entry.
    ///
    /// On interrupt the partially saturated subsumer sets are kept:
    /// completion rules only ever add *entailed* subsumptions, so the
    /// partial state is a sound under-approximation of the full
    /// classification (queryable via
    /// [`ElClassifier::current_named_subsumers`]).
    pub fn saturate_metered(&mut self, meter: &mut Meter) -> std::result::Result<(), Interrupt> {
        if self.saturated {
            return Ok(());
        }
        let _span = meter
            .span("dl.el.saturate")
            .with("atoms", self.n_atoms as u64);
        let n = self.n_atoms as usize;
        // Start from the partial state an earlier interrupted run left
        // behind when one exists; seed fresh otherwise. The completion
        // rules are monotone, so re-deriving from any sound
        // under-approximation reaches the same fixpoint an
        // uninterrupted run does.
        if self.subsumers.len() != n {
            self.subsumers = (0..n)
                .map(|i| {
                    let mut set = BTreeSet::new();
                    set.insert(i as Atom);
                    set.insert(self.top);
                    set
                })
                .collect();
            self.edges = BTreeMap::new();
        }
        let mut s: Vec<BTreeSet<Atom>> = std::mem::take(&mut self.subsumers);
        // Role edges R(r) as adjacency: (x, r) → set of y.
        let mut edges: BTreeMap<(Atom, RoleId), BTreeSet<Atom>> = std::mem::take(&mut self.edges);

        // Index axioms for rule application.
        let mut by_lhs: BTreeMap<Atom, Vec<Atom>> = BTreeMap::new();
        let mut conj: Vec<(Atom, Atom, Atom)> = vec![];
        let mut ex_rhs: BTreeMap<Atom, Vec<(RoleId, Atom)>> = BTreeMap::new();
        let mut ex_lhs: BTreeMap<(RoleId, Atom), Vec<Atom>> = BTreeMap::new();
        for ax in &self.axioms {
            match *ax {
                NfAxiom::Sub(a, b) => by_lhs.entry(a).or_default().push(b),
                NfAxiom::Conj(a1, a2, b) => conj.push((a1, a2, b)),
                NfAxiom::ExistsRhs(a, r, b) => ex_rhs.entry(a).or_default().push((r, b)),
                NfAxiom::ExistsLhs(r, a, b) => ex_lhs.entry((r, a)).or_default().push(b),
            }
        }

        // Work queue of (x, added atom) plus edge queue, seeded from
        // every currently known fact: on a fresh start this is exactly
        // the classic (x, x)/(x, ⊤) seeding; on continuation it replays
        // the kept facts through the rules, which only ever adds
        // entailed consequences.
        let mut queue: VecDeque<(Atom, Atom)> = s
            .iter()
            .enumerate()
            .flat_map(|(x, set)| set.iter().map(move |&a| (x as Atom, a)))
            .collect();
        let mut edge_queue: VecDeque<(Atom, RoleId, Atom)> = edges
            .iter()
            .flat_map(|(&(x, r), ys)| ys.iter().map(move |&y| (x, r, y)))
            .collect();

        let add = |s: &mut Vec<BTreeSet<Atom>>,
                       queue: &mut VecDeque<(Atom, Atom)>,
                       x: Atom,
                       a: Atom| {
            if s[x as usize].insert(a) {
                queue.push_back((x, a));
            }
        };

        let outcome = loop {
            if let Err(i) = meter.charge(1) {
                break Err(i);
            }
            if let Some((x, a)) = queue.pop_front() {
                // CR1: a ⊑ b
                if let Some(bs) = by_lhs.get(&a) {
                    for &b in bs.clone().iter() {
                        add(&mut s, &mut queue, x, b);
                    }
                }
                // CR2: a ⊓ a2 ⊑ b with a2 already in S(x)
                for &(a1, a2, b) in &conj {
                    if (a1 == a && s[x as usize].contains(&a2))
                        || (a2 == a && s[x as usize].contains(&a1))
                    {
                        add(&mut s, &mut queue, x, b);
                    }
                }
                // CR3: a ⊑ ∃r.b
                if let Some(rbs) = ex_rhs.get(&a) {
                    for &(r, b) in rbs.clone().iter() {
                        let set = edges.entry((x, r)).or_default();
                        if set.insert(b) {
                            edge_queue.push_back((x, r, b));
                        }
                    }
                }
                // CR4 (as target): some edge (w, r, x') with x' = x? —
                // handled in the edge pass below via re-scan; here handle
                // the case where a new subsumer of x triggers ∃r.a ⊑ b
                // for predecessors of x.
                for ((w, r), ys) in edges.iter() {
                    if ys.contains(&x) {
                        if let Some(bs) = ex_lhs.get(&(*r, a)) {
                            for &b in bs.clone().iter() {
                                add(&mut s, &mut queue, *w, b);
                            }
                        }
                        // CR5: ⊥ propagates backwards.
                        if a == self.bottom {
                            add(&mut s, &mut queue, *w, self.bottom);
                        }
                    }
                }
                continue;
            }
            if let Some((x, r, y)) = edge_queue.pop_front() {
                // CR4: new edge (x, r, y): for every a ∈ S(y) with
                // ∃r.a ⊑ b, add b to S(x).
                let sy: Vec<Atom> = s[y as usize].iter().copied().collect();
                for a in sy {
                    if let Some(bs) = ex_lhs.get(&(r, a)) {
                        for &b in bs.clone().iter() {
                            add(&mut s, &mut queue, x, b);
                        }
                    }
                    if a == self.bottom {
                        add(&mut s, &mut queue, x, self.bottom);
                    }
                }
                continue;
            }
            break Ok(());
        };
        // Keep whatever was proved — complete on Ok, a sound partial
        // under-approximation on interrupt. Edges are kept alongside so
        // the next call continues without losing any of CR3's work.
        self.subsumers = s;
        self.edges = edges;
        self.saturated = outcome.is_ok();
        outcome
    }

    /// Named-concept subsumer sets read off the *current* saturation
    /// state: complete after [`ElClassifier::saturate`], a sound
    /// under-approximation after an interrupted
    /// [`ElClassifier::saturate_metered`]. Reflexive pairs are always
    /// present.
    pub fn current_named_subsumers(
        &self,
        atoms: &[ConceptId],
    ) -> BTreeMap<ConceptId, BTreeSet<ConceptId>> {
        let mut out = BTreeMap::new();
        for &sub in atoms {
            let mut set = BTreeSet::new();
            set.insert(sub);
            if let Some(&sa) = self.user.get(&sub) {
                if let Some(sset) = self.subsumers.get(sa as usize) {
                    let unsat = sset.contains(&self.bottom);
                    for &sup in atoms {
                        if let Some(&ba) = self.user.get(&sup) {
                            if unsat || sset.contains(&ba) {
                                set.insert(sup);
                            }
                        }
                    }
                }
            }
            out.insert(sub, set);
        }
        out
    }

    /// Does `sup` subsume `sub` (both named concepts) under the TBox?
    pub fn subsumes(&mut self, sup: ConceptId, sub: ConceptId) -> bool {
        self.saturate();
        let (sa, ba) = match (self.user.get(&sub), self.user.get(&sup)) {
            (Some(&s), Some(&b)) => (s, b),
            _ => return false,
        };
        let set = &self.subsumers[sa as usize];
        set.contains(&ba) || set.contains(&self.bottom)
    }

    /// Is a named concept unsatisfiable (subsumed by ⊥)?
    pub fn is_unsatisfiable(&mut self, c: ConceptId) -> bool {
        self.saturate();
        match self.user.get(&c) {
            Some(&a) => self.subsumers[a as usize].contains(&self.bottom),
            None => false,
        }
    }

    /// All named subsumers of a named concept.
    pub fn subsumers_of(&mut self, c: ConceptId) -> Vec<ConceptId> {
        self.saturate();
        let a = match self.user.get(&c) {
            Some(&a) => a,
            None => return vec![],
        };
        // Borrow the saturated set in place — `subsumers` and `user`
        // are distinct fields, so no clone is needed to walk both.
        let set = &self.subsumers[a as usize];
        self.user
            .iter()
            .filter(|(_, &atom)| set.contains(&atom))
            .map(|(&id, _)| id)
            .collect()
    }
}

/// EL admissibility including ⊥ (which plain `Concept::is_el` excludes).
fn el_ok(c: &Concept) -> bool {
    match c {
        Concept::Top | Concept::Bottom | Concept::Atom(_) => true,
        Concept::And(cs) => cs.iter().all(el_ok),
        Concept::Exists(_, inner) => el_ok(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain_subsumption() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::atom(b));
        t.subsume(Concept::atom(b), Concept::atom(c));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(b, a));
        assert!(el.subsumes(c, a)); // transitive
        assert!(el.subsumes(c, b));
        assert!(!el.subsumes(a, c));
        assert!(el.subsumes(a, a)); // reflexive
    }

    #[test]
    fn conjunction_on_lhs() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let d = voc.concept("D");
        let mut t = TBox::new();
        // D ⊑ A ⊓ B ; A ⊓ B ⊑ C  ⟹  D ⊑ C
        t.subsume(
            Concept::atom(d),
            Concept::and(vec![Concept::atom(a), Concept::atom(b)]),
        );
        t.subsume(
            Concept::and(vec![Concept::atom(a), Concept::atom(b)]),
            Concept::atom(c),
        );
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(a, d));
        assert!(el.subsumes(b, d));
        assert!(el.subsumes(c, d));
        assert!(!el.subsumes(c, a));
    }

    #[test]
    fn existential_propagation() {
        let mut voc = Vocabulary::new();
        let person = voc.concept("Person");
        let parent = voc.concept("Parent");
        let has_child = voc.role("hasChild");
        let mut t = TBox::new();
        // Person ⊓ ∃hasChild.Person ⊑ Parent — via normal forms.
        t.subsume(
            Concept::and(vec![
                Concept::atom(person),
                Concept::exists(has_child, Concept::atom(person)),
            ]),
            Concept::atom(parent),
        );
        // ProudDad ⊑ Person ⊓ ∃hasChild.Person
        let dad = voc.concept("ProudDad");
        t.subsume(
            Concept::atom(dad),
            Concept::and(vec![
                Concept::atom(person),
                Concept::exists(has_child, Concept::atom(person)),
            ]),
        );
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(parent, dad));
        assert!(!el.subsumes(parent, person));
    }

    #[test]
    fn exists_chain_rolls_up() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let r = voc.role("r");
        let mut t = TBox::new();
        // A ⊑ ∃r.B ; ∃r.B ⊑ C ⟹ A ⊑ C
        t.subsume(Concept::atom(a), Concept::exists(r, Concept::atom(b)));
        t.subsume(Concept::exists(r, Concept::atom(b)), Concept::atom(c));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(c, a));
    }

    #[test]
    fn bottom_propagates_through_exists() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let r = voc.role("r");
        let mut t = TBox::new();
        // B ⊑ ⊥ ; A ⊑ ∃r.B ⟹ A unsatisfiable.
        t.subsume(Concept::atom(b), Concept::Bottom);
        t.subsume(Concept::atom(a), Concept::exists(r, Concept::atom(b)));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.is_unsatisfiable(b));
        assert!(el.is_unsatisfiable(a));
        // And an unsatisfiable concept is subsumed by everything.
        assert!(el.subsumes(b, a));
    }

    #[test]
    fn disjointness_via_bottom() {
        let mut voc = Vocabulary::new();
        let cat = voc.concept("Cat");
        let dog = voc.concept("Dog");
        let both = voc.concept("CatDog");
        let mut t = TBox::new();
        t.subsume(
            Concept::and(vec![Concept::atom(cat), Concept::atom(dog)]),
            Concept::Bottom,
        );
        t.subsume(
            Concept::atom(both),
            Concept::and(vec![Concept::atom(cat), Concept::atom(dog)]),
        );
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.is_unsatisfiable(both));
        assert!(!el.is_unsatisfiable(cat));
    }

    #[test]
    fn rejects_non_el_tbox() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::not(Concept::atom(a)));
        assert!(matches!(
            ElClassifier::new(&t, &voc),
            Err(DlError::OutsideFragment { .. })
        ));
    }

    #[test]
    fn subsumers_of_lists_all() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::atom(b));
        t.subsume(Concept::atom(b), Concept::atom(c));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        let subs = el.subsumers_of(a);
        assert!(subs.contains(&a) && subs.contains(&b) && subs.contains(&c));
        assert_eq!(el.subsumers_of(c), vec![c]);
    }

    #[test]
    fn equivalence_axioms_work() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let r = voc.role("r");
        let mut t = TBox::new();
        t.equiv(
            Concept::atom(a),
            Concept::exists(r, Concept::atom(b)),
        );
        let c = voc.concept("C");
        t.subsume(Concept::atom(c), Concept::exists(r, Concept::atom(b)));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        // C ⊑ ∃r.B ≡ A ⟹ C ⊑ A
        assert!(el.subsumes(a, c));
        assert!(!el.subsumes(c, a));
    }
}
