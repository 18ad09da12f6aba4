//! Classification: computing the full subsumption hierarchy over the
//! named concepts of a TBox.

use crate::cache::SatCache;
use crate::concept::{Concept, ConceptId, Vocabulary};
use crate::el::ElClassifier;
use crate::error::Result;
use crate::tableau::Tableau;
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use summa_guard::{Budget, Governed, Interrupt, Meter, Spend};

/// The computed hierarchy: for every named concept, its full set of
/// named subsumers (reflexive–transitive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassHierarchy {
    subsumers: BTreeMap<ConceptId, BTreeSet<ConceptId>>,
}

impl ClassHierarchy {
    /// Does `sup` subsume `sub`?
    pub fn subsumes(&self, sup: ConceptId, sub: ConceptId) -> bool {
        self.subsumers
            .get(&sub)
            .map(|s| s.contains(&sup))
            .unwrap_or(false)
    }

    /// Equivalent concepts (mutual subsumption).
    pub fn equivalent(&self, a: ConceptId, b: ConceptId) -> bool {
        self.subsumes(a, b) && self.subsumes(b, a)
    }

    /// All subsumers of `c` (including itself), as an owned set.
    /// Prefer [`ClassHierarchy::subsumers_ref`] when a borrow will do —
    /// this clones the whole `BTreeSet` per call.
    pub fn subsumers_of(&self, c: ConceptId) -> BTreeSet<ConceptId> {
        self.subsumers.get(&c).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for the subsumers of `c`: `None` when `c` is
    /// not in the hierarchy (undecided under an interrupted budget, or
    /// simply unknown). The clone-free path for membership tests and
    /// iteration.
    pub fn subsumers_ref(&self, c: ConceptId) -> Option<&BTreeSet<ConceptId>> {
        self.subsumers.get(&c)
    }

    /// Direct (non-transitive, non-reflexive) parents of `c`: subsumers
    /// with no strictly smaller subsumer in between.
    pub fn parents_of(&self, c: ConceptId) -> BTreeSet<ConceptId> {
        static EMPTY: BTreeSet<ConceptId> = BTreeSet::new();
        let subs = self.subsumers_ref(c).unwrap_or(&EMPTY);
        let strict: BTreeSet<ConceptId> = subs
            .iter()
            .copied()
            .filter(|&s| s != c && !self.equivalent(s, c))
            .collect();
        strict
            .iter()
            .copied()
            .filter(|&p| {
                !strict
                    .iter()
                    .any(|&q| q != p && self.subsumes(p, q) && !self.equivalent(p, q))
            })
            .collect()
    }

    /// All concepts in the hierarchy.
    pub fn concepts(&self) -> impl Iterator<Item = ConceptId> + '_ {
        self.subsumers.keys().copied()
    }

    /// Number of subsumption pairs (reflexive included).
    pub fn n_pairs(&self) -> usize {
        self.subsumers.values().map(BTreeSet::len).sum()
    }

    /// Render as an indented tree-ish listing of parent links.
    pub fn render(&self, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for c in self.concepts() {
            let parents = self.parents_of(c);
            if parents.is_empty() {
                out.push_str(&format!("{} ⊑ ⊤\n", voc.concept_name(c)));
            }
            for p in parents {
                out.push_str(&format!(
                    "{} ⊑ {}\n",
                    voc.concept_name(c),
                    voc.concept_name(p)
                ));
            }
        }
        out
    }
}

/// A classification strategy.
pub trait Classifier {
    /// Compute the subsumer sets for all named concepts of the TBox.
    fn classify(&mut self, tbox: &TBox, voc: &Vocabulary) -> Result<ClassHierarchy>;

    /// Budget-governed classification. One envelope bounds the whole
    /// run (all inner subsumption tests share a single meter); on
    /// exhaustion or cancellation the partial hierarchy contains the
    /// subsumptions proved so far — a sound under-approximation in
    /// which an absent pair means *not proved*, not *disproved*.
    fn classify_governed(
        &mut self,
        tbox: &TBox,
        voc: &Vocabulary,
        budget: &Budget,
    ) -> Governed<ClassHierarchy>;
}

/// Counters from one classification run: how many satisfiability
/// tests were actually issued to the tableau, and how many of the
/// n² grid cells were decided without one.
///
/// The accounting invariant: `cells = sat_tests − row_checks + pruned`
/// where `row_checks` is one per row whose atom needed an explicit
/// satisfiability probe — every cell is either tested or pruned, and
/// the row probes are the only extra tests on top of the cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Satisfiability calls issued (cell tests + per-row probes).
    pub sat_tests: u64,
    /// Grid cells decided without a satisfiability call.
    pub pruned: u64,
    /// Total grid cells decided (n² on a completed run).
    pub cells: u64,
}

impl ClassifyStats {
    fn absorb(&mut self, other: ClassifyStats) {
        self.sat_tests += other.sat_tests;
        self.pruned += other.pruned;
        self.cells += other.cells;
    }
}

/// The told-subsumer index: subsumption edges that are *syntactically
/// evident* in the TBox and therefore free to seed.
///
/// An axiom `A ⊑ B` (or `A ⊑ B ⊓ C ⊓ …`) with atomic left-hand side
/// states its right-hand atoms as subsumers of `A` outright; `A ⊑ ⊥`
/// marks `A` told-unsatisfiable. The index stores the
/// reflexive–transitive closure of those edges, plus the top-down
/// candidate order (ascending told-closure size) the enhanced
/// traversal tests candidates in — most-general first, so one refuted
/// general candidate prunes its whole told subtree.
///
/// Every told edge is entailed by the TBox, so seeding from the index
/// can never disagree with the tableau — which is what keeps the
/// enhanced hierarchy byte-identical to brute force.
struct ToldIndex {
    /// The named concepts of the TBox, in their canonical order.
    atoms: Vec<ConceptId>,
    /// `closure[i]`: indices of the told subsumers of atom `i`
    /// (reflexive–transitive), sorted ascending.
    closure: Vec<Vec<usize>>,
    /// Atom `i` is told-unsatisfiable (`⊑ ⊥` through told edges).
    told_unsat: Vec<bool>,
    /// Candidate processing order: ascending told-closure size
    /// (most-general first), ties by index.
    order: Vec<usize>,
}

impl ToldIndex {
    fn build(tbox: &TBox) -> Self {
        let atoms: Vec<ConceptId> = tbox.atoms().into_iter().collect();
        let n = atoms.len();
        let pos: BTreeMap<ConceptId, usize> =
            atoms.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut bottom = vec![false; n];
        for (l, r) in tbox.gcis() {
            let Concept::Atom(a) = l else { continue };
            let Some(&i) = pos.get(&a) else { continue };
            match &r {
                Concept::Atom(b) => {
                    if let Some(&j) = pos.get(b) {
                        edges[i].insert(j);
                    }
                }
                // A ⊑ B ⊓ C ⊓ …: every atomic conjunct is told.
                Concept::And(parts) => {
                    for p in parts {
                        if let Concept::Atom(b) = p {
                            if let Some(&j) = pos.get(b) {
                                edges[i].insert(j);
                            }
                        }
                    }
                }
                Concept::Bottom => bottom[i] = true,
                _ => {}
            }
        }
        // Reflexive–transitive closure by per-atom BFS (n is the named
        // concept count; the closure is tiny next to one sat call).
        let closure: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut seen: BTreeSet<usize> = BTreeSet::new();
                let mut frontier = vec![i];
                seen.insert(i);
                while let Some(x) = frontier.pop() {
                    for &y in &edges[x] {
                        if seen.insert(y) {
                            frontier.push(y);
                        }
                    }
                }
                seen.into_iter().collect()
            })
            .collect();
        let told_unsat: Vec<bool> = (0..n)
            .map(|i| closure[i].iter().any(|&j| bottom[j]))
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&j| (closure[j].len(), j));
        ToldIndex {
            atoms,
            closure,
            told_unsat,
            order,
        }
    }
}

/// Per-row slice of [`ClassifyStats`].
type RowStats = ClassifyStats;

/// Charge one deterministic ledger step for a cell decided without a
/// satisfiability test. Pruning must stay *visible* to governance:
/// Spend remains a pure function of the input, budgets can interrupt
/// between pruned cells exactly as between tested ones, and the
/// `dl.classify.pruned` counter reconciles with the ledger
/// (steps = Σ dl.rule.* + dl.classify.pruned).
fn charge_pruned(meter: &mut Meter, stats: &mut RowStats) -> std::result::Result<(), Interrupt> {
    meter.charge(1)?;
    meter.count("dl.classify.pruned", 1);
    stats.pruned += 1;
    stats.cells += 1;
    Ok(())
}

/// Decide one row of the subsumption grid (all named subsumers of
/// `told.atoms[i]`) with the enhanced traversal:
///
/// 1. told subsumers are seeded free (every told edge is entailed);
/// 2. one satisfiability probe of the row atom itself decides *whole
///    rows* of incoherent TBoxes at once (`A` unsatisfiable ⟹ `A ⊑ B`
///    for every `B`), skipped when the index already tells `A ⊑ ⊥`;
/// 3. remaining candidates are tested most-general-first; a refuted
///    candidate `S` prunes every untested candidate below it in the
///    told hierarchy (`B ⊑told S` and `A ⋢ S` ⟹ `A ⋢ B`), and a
///    proved `A ⊑ B` propagates positively to `B`'s told subsumers.
///
/// Every skip is licensed by an entailment, so the decided row is
/// *exactly* the brute-force row — which is why enhanced and
/// brute-force hierarchies are byte-identical, including under
/// interrupted budgets (a partial differs only in which rows
/// completed, never in a completed row's content).
fn classify_row(
    reasoner: &mut Tableau,
    meter: &mut Meter,
    told: &ToldIndex,
    i: usize,
) -> std::result::Result<(BTreeSet<ConceptId>, RowStats), Interrupt> {
    let n = told.atoms.len();
    let a = told.atoms[i];
    // Chaos-injection site: a scheduled panic here exercises the
    // executor's supervised retry; cancel/trip exercise the partial
    // row contract.
    meter.fault_point("dl.classify.row")?;
    let mut stats = RowStats::default();
    let mut decided: Vec<Option<bool>> = vec![None; n];

    // 1. Told subsumers (including the reflexive self-edge) are free.
    for &j in &told.closure[i] {
        decided[j] = Some(true);
        charge_pruned(meter, &mut stats)?;
    }

    // 2. Row probe: an unsatisfiable atom subsumes under everything.
    let row_sat = if told.told_unsat[i] {
        false
    } else {
        stats.sat_tests += 1;
        meter.count("dl.classify.sat_tests", 1);
        reasoner.sat_metered(&Concept::atom(a), meter)?
    };
    if !row_sat {
        for slot in decided.iter_mut() {
            if slot.is_none() {
                *slot = Some(true);
                charge_pruned(meter, &mut stats)?;
            }
        }
    } else {
        // 3. Top-down traversal of the remaining candidates.
        for &j in &told.order {
            if decided[j].is_some() {
                continue;
            }
            // Negative pruning: a refuted told-superconcept of the
            // candidate refutes the candidate.
            if told.closure[j]
                .iter()
                .any(|&s| decided[s] == Some(false))
            {
                decided[j] = Some(false);
                charge_pruned(meter, &mut stats)?;
                continue;
            }
            stats.sat_tests += 1;
            stats.cells += 1;
            meter.count("dl.classify.sat_tests", 1);
            let query = Concept::and(vec![
                Concept::atom(a),
                Concept::not(Concept::atom(told.atoms[j])),
            ]);
            let subsumed = !reasoner.sat_metered(&query, meter)?;
            decided[j] = Some(subsumed);
            if subsumed {
                // Positive propagation: A ⊑ B and B ⊑told S ⟹ A ⊑ S.
                for &s in &told.closure[j] {
                    if decided[s].is_none() {
                        decided[s] = Some(true);
                        charge_pruned(meter, &mut stats)?;
                    }
                }
            }
        }
    }

    let set: BTreeSet<ConceptId> = (0..n)
        .filter(|&j| decided[j] == Some(true))
        .map(|j| told.atoms[j])
        .collect();
    Ok((set, stats))
}

/// Enhanced-traversal classification under one governance envelope,
/// reporting the run's [`ClassifyStats`] alongside the hierarchy. The
/// result is byte-identical to [`classify_brute_force_governed`] —
/// only the number of satisfiability calls differs (see
/// [`classify_row`] for why every skip is sound).
///
/// Partial results keep fully decided rows only, the same contract as
/// the brute-force path.
pub fn classify_enhanced_governed(
    reasoner: &mut Tableau,
    tbox: &TBox,
    budget: &Budget,
) -> (Governed<ClassHierarchy>, ClassifyStats) {
    let told = ToldIndex::build(tbox);
    let n = told.atoms.len();
    let mut meter = budget.meter();
    let mut span = meter
        .span("dl.classify")
        .with("atoms", n)
        .with("strategy", "enhanced");
    let mut subsumers = BTreeMap::new();
    let mut stats = ClassifyStats::default();
    for i in 0..n {
        match classify_row(reasoner, &mut meter, &told, i) {
            Ok((set, row_stats)) => {
                stats.absorb(row_stats);
                subsumers.insert(told.atoms[i], set);
            }
            // Keep only fully decided rows: every listed subsumer set
            // is then exact, and absent concepts are simply undecided.
            Err(interrupt) => {
                span.record("interrupted", true);
                return (
                    Governed::from_interrupt(interrupt, Some(ClassHierarchy { subsumers })),
                    stats,
                );
            }
        }
    }
    span.record("sat_tests", stats.sat_tests);
    span.record("pruned", stats.pruned);
    (Governed::Completed(ClassHierarchy { subsumers }), stats)
}

/// The classical O(n²) grid: one subsumption test per (sub, sup) pair,
/// no seeding, no pruning. Kept as the reference implementation the
/// differential tests and the classification benchmark compare
/// against.
pub fn classify_brute_force_governed(
    reasoner: &mut Tableau,
    tbox: &TBox,
    budget: &Budget,
) -> (Governed<ClassHierarchy>, ClassifyStats) {
    let atoms: Vec<ConceptId> = tbox.atoms().into_iter().collect();
    let mut meter = budget.meter();
    let _span = meter
        .span("dl.classify")
        .with("atoms", atoms.len())
        .with("strategy", "brute_force");
    let mut subsumers = BTreeMap::new();
    let mut stats = ClassifyStats::default();
    for &sub in &atoms {
        let mut set = BTreeSet::new();
        for &sup in &atoms {
            let query = Concept::and(vec![
                Concept::atom(sub),
                Concept::not(Concept::atom(sup)),
            ]);
            stats.sat_tests += 1;
            stats.cells += 1;
            meter.count("dl.classify.sat_tests", 1);
            match reasoner.sat_metered(&query, &mut meter) {
                Ok(sat) => {
                    if !sat {
                        set.insert(sup);
                    }
                }
                // Keep only fully decided rows: every listed subsumer
                // set is then exact, and absent concepts are simply
                // undecided.
                Err(i) => {
                    return (
                        Governed::from_interrupt(i, Some(ClassHierarchy { subsumers })),
                        stats,
                    )
                }
            }
        }
        subsumers.insert(sub, set);
    }
    (Governed::Completed(ClassHierarchy { subsumers }), stats)
}

impl Classifier for Tableau {
    /// Enhanced-traversal classification (told-subsumer seeding,
    /// top-down pruning) — byte-identical to the classical brute-force
    /// grid at a fraction of the satisfiability calls. The reference
    /// grid survives as [`classify_brute_force_governed`].
    fn classify(&mut self, tbox: &TBox, _voc: &Vocabulary) -> Result<ClassHierarchy> {
        let (governed, _stats) = classify_enhanced_governed(self, tbox, &Budget::unlimited());
        Ok(governed.expect_completed("unlimited budget cannot interrupt"))
    }

    fn classify_governed(
        &mut self,
        tbox: &TBox,
        _voc: &Vocabulary,
        budget: &Budget,
    ) -> Governed<ClassHierarchy> {
        classify_enhanced_governed(self, tbox, budget).0
    }
}

/// Parallel, budget-governed tableau classification over `threads`
/// workers (see [`summa_exec`]). Each worker owns a private [`Tableau`]
/// wired to one shared [`SatCache`], and the *rows* of the subsumption
/// matrix are distributed by work stealing — each row runs the same
/// enhanced traversal as the sequential path (told seeding, row-sat
/// probe, top-down pruning), so the parallel grid inherits the full
/// pruning rate rather than fanning out n² static cells. One
/// [`Budget`] envelope bounds the whole grid. A partial hierarchy
/// keeps only fully decided rows — rows are the unit of distribution,
/// so the sequential partial-result guarantee carries over verbatim
/// and an absent pair always means *not proved*.
///
/// On completion the hierarchy is **identical** to the sequential one:
/// every pruning step is licensed by an entailment, every tested cell
/// is an independent satisfiability query with a deterministic answer,
/// and only completed answers enter the cache.
pub fn classify_parallel_governed(
    tbox: &TBox,
    voc: &Vocabulary,
    budget: &Budget,
    threads: usize,
) -> Governed<ClassHierarchy> {
    classify_parallel_governed_with(tbox, voc, budget, threads, Arc::new(SatCache::new())).0
}

/// [`classify_parallel_governed`] with a caller-supplied cache (shared
/// across runs or services) and the pooled [`Spend`] — including cache
/// hit/miss counts — reported back.
pub fn classify_parallel_governed_with(
    tbox: &TBox,
    voc: &Vocabulary,
    budget: &Budget,
    threads: usize,
    cache: Arc<SatCache>,
) -> (Governed<ClassHierarchy>, Spend) {
    let told = ToldIndex::build(tbox);
    let n = told.atoms.len();
    let told_ref = &told;
    // The service span lives on the calling thread; worker task spans
    // (opened by the executor) land in their own lanes.
    let _span = budget
        .tracer()
        .span("dl.classify.parallel")
        .with("atoms", n)
        .with("threads", threads)
        .with("strategy", "enhanced");
    let rows: Vec<usize> = (0..n).collect();
    let tracer = budget.tracer().clone();
    let outcome = summa_exec::par_map_with_drain(
        &rows,
        budget,
        threads,
        |_| Tableau::new(tbox, voc).with_shared_cache(Arc::clone(&cache)),
        |reasoner, meter, _, &i| classify_row(reasoner, meter, told_ref, i),
        // Harvest interner hits accrued after a worker's last completed
        // sat call (they are otherwise dropped on the scope join).
        |_, mut reasoner: Tableau| {
            let d = reasoner.drain_intern_hits();
            if d > 0 {
                tracer.add("dl.intern.hits", d);
            }
        },
    );
    // The outcome's spend already carries this run's cache hit/miss
    // counts: each worker meter records them at lookup time.
    let spend: Spend = outcome.spend;
    let governed = outcome.into_governed(|row_results| {
        let mut subsumers = BTreeMap::new();
        for (i, slot) in row_results.into_iter().enumerate() {
            // Undecided rows are simply absent, mirroring the
            // sequential partial-result contract.
            if let Some((set, _stats)) = slot {
                subsumers.insert(told.atoms[i], set);
            }
        }
        Some(ClassHierarchy { subsumers })
    });
    (governed, spend)
}

impl Classifier for ElClassifier {
    fn classify(&mut self, tbox: &TBox, _voc: &Vocabulary) -> Result<ClassHierarchy> {
        // One saturation, then read every subsumer set straight off the
        // saturated state — no per-pair `subsumes` probes (each of
        // which would re-check saturation and re-resolve both atoms).
        self.saturate();
        let atoms: Vec<ConceptId> = tbox.atoms().into_iter().collect();
        Ok(ClassHierarchy {
            subsumers: self.current_named_subsumers(&atoms),
        })
    }

    fn classify_governed(
        &mut self,
        tbox: &TBox,
        _voc: &Vocabulary,
        budget: &Budget,
    ) -> Governed<ClassHierarchy> {
        let atoms: Vec<ConceptId> = tbox.atoms().into_iter().collect();
        let mut meter = budget.meter();
        let _span = meter.span("dl.classify.el").with("atoms", atoms.len());
        match self.saturate_metered(&mut meter) {
            Ok(()) => Governed::Completed(ClassHierarchy {
                subsumers: self.current_named_subsumers(&atoms),
            }),
            // Partial saturation is a sound under-approximation, so
            // the interrupted hierarchy is still truthful.
            Err(i) => Governed::from_interrupt(
                i,
                Some(ClassHierarchy {
                    subsumers: self.current_named_subsumers(&atoms),
                }),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_tbox() -> (Vocabulary, TBox, Vec<ConceptId>) {
        let mut voc = Vocabulary::new();
        let ids: Vec<ConceptId> = (0..4).map(|i| voc.concept(&format!("C{i}"))).collect();
        let mut t = TBox::new();
        for w in ids.windows(2) {
            t.subsume(Concept::atom(w[0]), Concept::atom(w[1]));
        }
        (voc, t, ids)
    }

    #[test]
    fn tableau_and_el_agree_on_chain() {
        let (voc, t, ids) = chain_tbox();
        let h1 = Tableau::new(&t, &voc).classify(&t, &voc).unwrap();
        let h2 = ElClassifier::new(&t, &voc)
            .unwrap()
            .classify(&t, &voc)
            .unwrap();
        assert_eq!(h1, h2);
        assert!(h1.subsumes(ids[3], ids[0]));
        assert!(!h1.subsumes(ids[0], ids[3]));
    }

    #[test]
    fn parents_skip_transitive_links() {
        let (voc, t, ids) = chain_tbox();
        let h = Tableau::new(&t, &voc).classify(&t, &voc).unwrap();
        let parents = h.parents_of(ids[0]);
        assert_eq!(parents, [ids[1]].into_iter().collect());
        assert!(h.parents_of(ids[3]).is_empty());
    }

    #[test]
    fn equivalent_concepts_detected() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let mut t = TBox::new();
        t.equiv(Concept::atom(a), Concept::atom(b));
        let h = Tableau::new(&t, &voc).classify(&t, &voc).unwrap();
        assert!(h.equivalent(a, b));
        // Each is the other's subsumer but neither is a strict parent.
        assert!(h.parents_of(a).is_empty());
    }

    #[test]
    fn render_mentions_every_edge() {
        let (voc, t, _) = chain_tbox();
        let h = Tableau::new(&t, &voc).classify(&t, &voc).unwrap();
        let s = h.render(&voc);
        assert!(s.contains("C0 ⊑ C1"));
        assert!(s.contains("C3 ⊑ ⊤"));
        assert!(!s.contains("C0 ⊑ C2")); // transitive edge elided
    }

    #[test]
    fn n_pairs_counts_reflexive_and_transitive() {
        let (voc, t, _) = chain_tbox();
        let h = Tableau::new(&t, &voc).classify(&t, &voc).unwrap();
        // 4 + 3 + 2 + 1 = 10 subsumption pairs on a 4-chain.
        assert_eq!(h.n_pairs(), 10);
    }

    #[test]
    fn enhanced_matches_brute_force_with_fewer_sat_calls() {
        let (voc, t, _) = chain_tbox();
        let budget = Budget::unlimited();
        let (brute, bs) =
            classify_brute_force_governed(&mut Tableau::new(&t, &voc), &t, &budget);
        let (enhanced, es) =
            classify_enhanced_governed(&mut Tableau::new(&t, &voc), &t, &budget);
        assert_eq!(
            brute.expect_completed("unlimited"),
            enhanced.expect_completed("unlimited")
        );
        // Every told edge of the chain is seeded free; only the
        // downward (refuted) direction plus row probes need calls.
        assert_eq!(bs.sat_tests, 16);
        assert!(
            es.sat_tests < bs.sat_tests,
            "enhanced issued {} sat calls, brute force {}",
            es.sat_tests,
            bs.sat_tests
        );
        // Both decided the full 4×4 grid.
        assert_eq!(bs.cells, 16);
        assert_eq!(es.cells, 16);
        assert_eq!(es.cells, es.cells - es.pruned + es.pruned);
        assert!(es.pruned > 0);
    }

    #[test]
    fn told_unsat_rows_fill_without_probes() {
        // A ⊑ B, B ⊑ ⊥: both rows are told-unsatisfiable, so the whole
        // hierarchy resolves with zero satisfiability calls.
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::atom(b));
        t.subsume(Concept::atom(b), Concept::Bottom);
        let budget = Budget::unlimited();
        let (enhanced, es) =
            classify_enhanced_governed(&mut Tableau::new(&t, &voc), &t, &budget);
        let h = enhanced.expect_completed("unlimited");
        assert_eq!(es.sat_tests, 0);
        assert_eq!(es.pruned, 4);
        // Unsatisfiable concepts subsume under everything.
        assert!(h.subsumes(a, b) && h.subsumes(b, a));
        let (brute, _) =
            classify_brute_force_governed(&mut Tableau::new(&t, &voc), &t, &budget);
        assert_eq!(h, brute.expect_completed("unlimited"));
    }

    #[test]
    fn enhanced_ledger_reconciles_steps_with_pruned_counter() {
        // Pruned cells charge exactly one deterministic ledger step, so
        // steps == Σ dl.rule.* + dl.classify.pruned always holds.
        let (voc, t, _) = chain_tbox();
        let tracer = summa_guard::obs::Tracer::enabled();
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        let mut meter = budget.meter();
        let told = ToldIndex::build(&t);
        let mut reasoner = Tableau::new(&t, &voc);
        let mut stats = ClassifyStats::default();
        for i in 0..told.atoms.len() {
            let (_, row) = classify_row(&mut reasoner, &mut meter, &told, i).unwrap();
            stats.absorb(row);
        }
        let counters = tracer.snapshot().counters;
        // `dl.rule.agenda.skip` / `dl.rule.trail.undo` live in the rule
        // family but are observational (the kernel's bookkeeping, never
        // charged), so the reconciliation subtracts them.
        let rule_steps: u64 = counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("dl.rule.")
                    && k.as_str() != "dl.rule.agenda.skip"
                    && k.as_str() != "dl.rule.trail.undo"
            })
            .map(|(_, v)| v)
            .sum();
        assert_eq!(tracer.counter_value("dl.classify.pruned"), stats.pruned);
        assert_eq!(
            tracer.counter_value("dl.classify.sat_tests"),
            stats.sat_tests
        );
        assert!(stats.pruned > 0);
        assert_eq!(meter.spend().steps, rule_steps + stats.pruned);
    }
}
