//! ABox realization: the most specific named concepts of each
//! individual.
//!
//! Realization is the standard DL service that classification enables:
//! for every individual `a` of an ABox, compute the set of named
//! concepts `C` with `KB ⊨ C(a)`, and among them the most specific
//! ones. It is what an information system would actually run on top of
//! an ontonomy — and therefore where the paper's semantic worries
//! become operational: the system's "understanding" of `a` is exactly
//! this set of names, nothing more.

use crate::abox::{ABox, Individual};
use crate::cache::SatCache;
use crate::concept::{Concept, ConceptId, Vocabulary};
use crate::error::Result;
use crate::index::HierarchyIndex;
use crate::tableau::Tableau;
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// The realization of an ABox: per individual, all entailed named
/// concepts (the *types*) and the most specific ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Realization {
    types: BTreeMap<Individual, BTreeSet<ConceptId>>,
    most_specific: BTreeMap<Individual, BTreeSet<ConceptId>>,
}

impl Realization {
    /// All entailed named concepts of an individual, as an owned set.
    /// Prefer [`Realization::types_ref`] when a borrow will do — this
    /// clones the whole `BTreeSet` per call.
    pub fn types_of(&self, a: Individual) -> BTreeSet<ConceptId> {
        self.types.get(&a).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for an individual's entailed types: `None`
    /// when the individual was not realized (undecided under an
    /// interrupted budget, or simply unknown).
    pub fn types_ref(&self, a: Individual) -> Option<&BTreeSet<ConceptId>> {
        self.types.get(&a)
    }

    /// The most specific entailed named concepts of an individual, as
    /// an owned set. Prefer [`Realization::most_specific_ref`] when a
    /// borrow will do.
    pub fn most_specific_of(&self, a: Individual) -> BTreeSet<ConceptId> {
        self.most_specific.get(&a).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for an individual's most specific types.
    pub fn most_specific_ref(&self, a: Individual) -> Option<&BTreeSet<ConceptId>> {
        self.most_specific.get(&a)
    }

    /// Is `KB ⊨ C(a)` for the named concept `C`? Clone-free membership
    /// test.
    pub fn is_type(&self, a: Individual, c: ConceptId) -> bool {
        self.types_ref(a).is_some_and(|s| s.contains(&c))
    }

    /// Render per-individual listings.
    pub fn render(&self, abox: &ABox, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for (&a, types) in &self.most_specific {
            let names: Vec<&str> = types.iter().map(|&c| voc.concept_name(c)).collect();
            out.push_str(&format!(
                "{}: {}\n",
                abox.individual_name(a),
                names.join(", ")
            ));
        }
        out
    }
}

/// Realize an ABox against a TBox with the tableau reasoner: the
/// unlimited-budget [`realize_governed`].
pub fn realize(tbox: &TBox, abox: &ABox, voc: &Vocabulary) -> Result<Realization> {
    Ok(realize_governed(tbox, abox, voc, &Budget::unlimited())
        .expect_completed("unlimited budget cannot interrupt"))
}

/// Budget-governed realization: one envelope bounds every entailment
/// check in the run. On exhaustion or cancellation the partial
/// [`Realization`] covers the individuals fully realized before the
/// interrupt — untouched individuals are simply absent (empty type
/// sets), never misreported.
pub fn realize_governed(
    tbox: &TBox,
    abox: &ABox,
    voc: &Vocabulary,
    budget: &Budget,
) -> Governed<Realization> {
    let mut reasoner = Tableau::new(tbox, voc);
    // Candidate types: every named concept of the vocabulary (the
    // TBox's atoms are a subset; ABox-only names count too).
    let atoms: Vec<ConceptId> = voc.concepts().collect();
    let mut meter = budget.meter();
    let mut span = meter
        .span("dl.realize")
        .with("individuals", abox.individuals().count());
    let mut out = Realization {
        types: BTreeMap::new(),
        most_specific: BTreeMap::new(),
    };
    for ind in abox.individuals() {
        match realize_individual(&mut reasoner, &mut meter, abox, ind, &atoms, None) {
            Ok((set, specific)) => {
                out.types.insert(ind, set);
                out.most_specific.insert(ind, specific);
            }
            Err(i) => {
                span.record("interrupted", true);
                return Governed::from_interrupt(i, Some(out));
            }
        }
    }
    Governed::Completed(out)
}

/// Parallel, budget-governed realization: individuals are distributed
/// across `threads` workers, each holding a private [`Tableau`] wired
/// to one shared [`SatCache`], under a single shared envelope. Each
/// worker realizes *whole* individuals, so the
/// partial on exhaustion only ever contains fully decided rows — the
/// sequential [`realize_governed`] contract — and the completed result
/// is identical to the sequential one.
pub fn realize_parallel_governed(
    tbox: &TBox,
    abox: &ABox,
    voc: &Vocabulary,
    budget: &Budget,
    threads: usize,
) -> Governed<Realization> {
    let cache = Arc::new(SatCache::new());
    realize_parallel_governed_indexed(tbox, abox, voc, budget, threads, cache, None).0
}

/// [`realize_parallel_governed`] against a caller-supplied shared
/// [`SatCache`] and an optional precomputed [`HierarchyIndex`], also
/// returning the run's pooled [`Spend`](summa_guard::Spend). The most-specific filtering's
/// atom-vs-atom subsumption pairs are answered from the index (one
/// step charged per index-answered pair, zero tableau calls) when both
/// atoms are indexed, and proved otherwise. Because an index answer
/// *is* the prover's answer for indexed pairs, the returned
/// realization is identical with or without the index — only the
/// spend differs.
///
/// Workers tear down through a drain hook that harvests interner hits
/// accrued after their last completed sat call, so a short-lived pool
/// (one served request) still reports all of its `dl.intern.hits`.
#[allow(clippy::too_many_arguments)]
pub fn realize_parallel_governed_indexed(
    tbox: &TBox,
    abox: &ABox,
    voc: &Vocabulary,
    budget: &Budget,
    threads: usize,
    cache: Arc<SatCache>,
    index: Option<&HierarchyIndex>,
) -> (Governed<Realization>, summa_guard::Spend) {
    let individuals: Vec<Individual> = abox.individuals().collect();
    let atoms: Vec<ConceptId> = voc.concepts().collect();
    let _span = budget
        .tracer()
        .span("dl.realize.parallel")
        .with("individuals", individuals.len())
        .with("threads", threads);
    let tracer = budget.tracer().clone();
    let outcome = summa_exec::par_map_with_drain(
        &individuals,
        budget,
        threads,
        |_| Tableau::new(tbox, voc).with_shared_cache(Arc::clone(&cache)),
        |reasoner, meter, _, &ind| realize_individual(reasoner, meter, abox, ind, &atoms, index),
        |_, mut reasoner: Tableau| {
            let d = reasoner.drain_intern_hits();
            if d > 0 {
                tracer.add("dl.intern.hits", d);
            }
        },
    );
    let spend = outcome.spend;
    let governed = outcome.into_governed(|slots| {
        let mut out = Realization {
            types: BTreeMap::new(),
            most_specific: BTreeMap::new(),
        };
        for (&ind, slot) in individuals.iter().zip(slots) {
            if let Some((set, specific)) = slot {
                out.types.insert(ind, set);
                out.most_specific.insert(ind, specific);
            }
        }
        Some(out)
    });
    (governed, spend)
}

/// Realize one individual: its entailed named types among `atoms`,
/// then the most specific of them. Both are decided before the row is
/// returned, so partial results never hold an unfiltered set. The
/// sequential and parallel drivers share this body.
fn realize_individual(
    reasoner: &mut Tableau,
    meter: &mut Meter,
    abox: &ABox,
    ind: Individual,
    atoms: &[ConceptId],
    index: Option<&HierarchyIndex>,
) -> std::result::Result<(BTreeSet<ConceptId>, BTreeSet<ConceptId>), Interrupt> {
    // Chaos-injection site, mirroring `dl.classify.row`.
    meter.fault_point("dl.realize.individual")?;
    let mut set = BTreeSet::new();
    for &c in atoms {
        if reasoner.instance_metered(abox, ind, &Concept::atom(c), meter)? {
            set.insert(c);
        }
    }
    let specific = most_specific_of_set(reasoner, meter, &set, index)?;
    Ok((set, specific))
}

/// Filter an individual's entailed types down to the most specific
/// ones (drop any type that strictly subsumes another held type).
/// When an index is supplied and covers both atoms of a pair, the two
/// subsumption directions come from it in O(1) (one step charged, a
/// `dl.index.hit` count); otherwise two tableau sat calls decide them.
fn most_specific_of_set(
    reasoner: &mut Tableau,
    meter: &mut Meter,
    set: &BTreeSet<ConceptId>,
    index: Option<&HierarchyIndex>,
) -> std::result::Result<BTreeSet<ConceptId>, Interrupt> {
    let mut specific = BTreeSet::new();
    for &c in set {
        let mut dominated = false;
        for &d in set {
            if d == c {
                continue;
            }
            let indexed = index.and_then(|idx| {
                Some((idx.subsumes(c, d)?, idx.subsumes(d, c)?))
            });
            let (c_subsumes_d, d_subsumes_c) = match indexed {
                Some(pair) => {
                    meter.charge(1)?;
                    meter.count("dl.index.hit", 1);
                    pair
                }
                None => {
                    let cd = !reasoner.sat_metered(
                        &Concept::and(vec![Concept::atom(d), Concept::not(Concept::atom(c))]),
                        meter,
                    )?;
                    let dc = !reasoner.sat_metered(
                        &Concept::and(vec![Concept::atom(c), Concept::not(Concept::atom(d))]),
                        meter,
                    )?;
                    (cd, dc)
                }
            };
            if c_subsumes_d && !d_subsumes_c {
                dominated = true;
                break;
            }
        }
        if !dominated {
            specific.insert(c);
        }
    }
    Ok(specific)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{vehicles_tbox, PaperVocab};

    #[test]
    fn beetle_realizes_as_a_car() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut abox = ABox::new();
        let beetle = abox.individual("beetle");
        abox.assert_concept(beetle, Concept::atom(p.car));
        let r = realize(&t, &abox, &p.voc).expect("realizes");
        // Entailed types: car, motorvehicle, roadvehicle.
        assert!(r.is_type(beetle, p.car));
        assert!(r.is_type(beetle, p.motorvehicle));
        assert!(r.is_type(beetle, p.roadvehicle));
        assert!(!r.is_type(beetle, p.pickup));
        // Most specific: just car.
        assert_eq!(
            r.most_specific_of(beetle),
            [p.car].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn role_assertions_contribute_types() {
        let p = PaperVocab::new();
        let mut t = vehicles_tbox(&p);
        // Anything that uses gasoline is a motorvehicle (a definition
        // the base TBox lacks — add the converse for this test).
        t.subsume(
            Concept::exists(p.uses, Concept::atom(p.gasoline)),
            Concept::atom(p.motorvehicle),
        );
        let mut abox = ABox::new();
        let mystery = abox.individual("mystery");
        let fuel = abox.individual("fuel");
        abox.assert_concept(fuel, Concept::atom(p.gasoline));
        abox.assert_role(mystery, p.uses, fuel);
        let r = realize(&t, &abox, &p.voc).expect("realizes");
        assert!(r.is_type(mystery, p.motorvehicle));
        assert!(!r.is_type(mystery, p.car));
    }

    #[test]
    fn unasserted_individuals_have_no_named_types() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut abox = ABox::new();
        let thing = abox.individual("thing");
        // Must be mentioned somehow; an empty assertion set means no
        // entailed named concepts.
        abox.assert_concept(thing, Concept::Top);
        let r = realize(&t, &abox, &p.voc).expect("realizes");
        assert!(r.types_of(thing).is_empty());
        assert!(r.most_specific_of(thing).is_empty());
    }

    #[test]
    fn every_driver_shares_one_answer() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut abox = ABox::new();
        let beetle = abox.individual("beetle");
        abox.assert_concept(beetle, Concept::atom(p.car));
        let truck = abox.individual("truck");
        abox.assert_concept(truck, Concept::atom(p.pickup));
        let van = abox.individual("van");
        abox.assert_concept(van, Concept::atom(p.motorvehicle));
        let expected = realize(&t, &abox, &p.voc).expect("realizes");

        let hierarchy = crate::classify::classify_enhanced_governed(
            &mut Tableau::new(&t, &p.voc),
            &t,
            &Budget::unlimited(),
        )
        .0
        .expect_completed("vehicles classify");
        let index = HierarchyIndex::build(&hierarchy).expect("vehicles are indexable");
        for threads in [1, 3] {
            let run = |index| {
                realize_parallel_governed_indexed(
                    &t,
                    &abox,
                    &p.voc,
                    &Budget::unlimited(),
                    threads,
                    Arc::new(SatCache::new()),
                    index,
                )
            };
            let (proved, proved_spend) = run(None);
            let (indexed, indexed_spend) = run(Some(&index));
            assert_eq!(proved.expect_completed("unindexed"), expected);
            assert_eq!(indexed.expect_completed("indexed"), expected);
            // The index answers the most-specific pairs for one step
            // each instead of two tableau sat calls.
            assert!(
                indexed_spend.steps < proved_spend.steps,
                "threads={threads}: indexed {} vs proved {} steps",
                indexed_spend.steps,
                proved_spend.steps
            );
        }
    }

    #[test]
    fn render_lists_most_specific_names() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut abox = ABox::new();
        let beetle = abox.individual("beetle");
        abox.assert_concept(beetle, Concept::atom(p.car));
        let r = realize(&t, &abox, &p.voc).expect("realizes");
        let s = r.render(&abox, &p.voc);
        assert!(s.contains("beetle: car"));
    }
}
