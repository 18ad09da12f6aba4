//! Chaos differential suite for the resilience layer: deterministic
//! fault injection, supervised retry, cache-integrity recovery, and
//! continuation after an interrupt must all be *invisible in results*.
//! Every test here compares a faulted / interrupted / continued run
//! against the fault-free baseline and demands byte identity —
//! resilience that changes an answer is just a slower way of being
//! wrong.
//!
//! The CI chaos lane re-runs this suite with `SUMMA_FAULT_PLAN` and
//! `SUMMA_FAULT_SEED` exported (panic/poison kinds only, at
//! `SUMMA_THREADS=1` and `=4`), which arms the process-global injector
//! for every governed run in the process on top of the per-test
//! schedules below.

use proptest::prelude::*;
use std::sync::Arc;
use summa_dl::abox::ABox;
use summa_dl::cache::SatCache;
use summa_dl::classify::{
    classify_enhanced_governed, classify_parallel_governed_with, ClassHierarchy,
};
use summa_dl::concept::{Concept, ConceptId, Vocabulary};
use summa_dl::el::ElClassifier;
use summa_dl::generate;
use summa_dl::index::HierarchyIndex;
use summa_dl::realize::{
    realize, realize_governed, realize_parallel_governed_indexed, Realization,
};
use summa_dl::tableau::Tableau;
use summa_dl::tbox::TBox;
use summa_exec::par_map_with_drain;
use summa_guard::{Budget, ExhaustionReason, FaultInjector, FaultKind, Governed};

/// The fault-free classification every chaos run must reproduce.
fn baseline(tbox: &TBox, voc: &Vocabulary) -> ClassHierarchy {
    let mut reasoner = Tableau::new(tbox, voc);
    classify_enhanced_governed(&mut reasoner, tbox, &Budget::unlimited())
        .0
        .expect_completed("fault-free baseline")
}

/// An unlimited budget armed with a parsed fault schedule.
fn chaos_budget(plan: &str, seed: u64) -> Budget {
    let injector = FaultInjector::parse_plan(plan, seed).expect("test plan parses");
    Budget::unlimited().with_injector(Arc::new(injector))
}

/// A small random ABox over the generated atoms, for realization runs.
fn random_abox(atoms: &[ConceptId], n: usize, seed: u64) -> ABox {
    let mut rng = generate::SplitMix64::new(seed);
    let mut abox = ABox::new();
    for i in 0..n {
        let ind = abox.individual(&format!("i{i}"));
        abox.assert_concept(ind, Concept::atom(atoms[rng.below(atoms.len())]));
        if rng.chance(1, 2) {
            abox.assert_concept(ind, Concept::atom(atoms[rng.below(atoms.len())]));
        }
    }
    abox
}

/// Every individual a partial realization carries matches the
/// baseline exactly; returns how many it carries.
fn assert_exact_individuals(partial: &Realization, expected: &Realization, abox: &ABox) -> usize {
    let mut decided = 0;
    for ind in abox.individuals() {
        if let Some(types) = partial.types_ref(ind) {
            assert_eq!(Some(types), expected.types_ref(ind));
            assert_eq!(
                partial.most_specific_ref(ind),
                expected.most_specific_ref(ind)
            );
            decided += 1;
        }
    }
    decided
}

// ---------------------------------------------------------------------
// Supervised retry: injected panics never change answers
// ---------------------------------------------------------------------

/// A worker killed mid-grid loses none of its cells: the survivors and
/// the recovery sweep re-run whatever it dropped, and the hierarchy is
/// byte-identical to the fault-free run at every thread count.
#[test]
fn worker_panic_chaos_is_invisible_in_results() {
    let (voc, tbox, _) = generate::random_el(14, 2, 18, 0x00C4_A051);
    let expected = baseline(&tbox, &voc);
    for threads in [1usize, 4] {
        let budget = chaos_budget("exec.worker@1=panic", 0xDEAD_BEEF);
        let (got, spend) = classify_parallel_governed_with(
            &tbox,
            &voc,
            &budget,
            threads,
            Arc::new(SatCache::new()),
        );
        assert_eq!(
            got.expect_completed("supervisor recovers the dead worker's cells"),
            expected,
            "threads={threads}"
        );
        assert_eq!(spend.quarantined, 0);
    }
}

/// Task-level panics are retried with their charges rolled back: the
/// answer is identical, and exactly the scheduled faults surface as
/// retries — never as quarantines.
#[test]
fn task_panic_chaos_retries_without_changing_answers() {
    let (voc, tbox, _) = generate::random_el(12, 2, 16, 0x7A5C);
    let expected = baseline(&tbox, &voc);
    for threads in [1usize, 4] {
        let budget = chaos_budget("exec.task@2=panic; exec.task@9=panic", 0x1234);
        let (got, spend) = classify_parallel_governed_with(
            &tbox,
            &voc,
            &budget,
            threads,
            Arc::new(SatCache::new()),
        );
        assert_eq!(
            got.expect_completed("retried tasks complete"),
            expected,
            "threads={threads}"
        );
        assert_eq!(spend.retries, 2, "both scheduled panics were retried");
        assert_eq!(spend.quarantined, 0);
    }
}

/// A cell that panics on every attempt is quarantined after the retry
/// budget, surfaces as a `TaskFailure` exhaustion, and every row that
/// *was* decided still matches the baseline exactly.
#[test]
fn repeated_panics_quarantine_and_surface_as_task_failure() {
    let (voc, tbox, _) = generate::random_el(10, 2, 12, 0xF00D);
    let expected = baseline(&tbox, &voc);
    // At one thread the schedule is exact: arrival 2 is the second
    // cell's first attempt, arrivals 3 and 4 are its two retries.
    let budget = chaos_budget("exec.task@2=panic;exec.task@3=panic;exec.task@4=panic", 9);
    let (got, spend) =
        classify_parallel_governed_with(&tbox, &voc, &budget, 1, Arc::new(SatCache::new()));
    assert_eq!(spend.retries, 2);
    assert_eq!(spend.quarantined, 1);
    match got {
        Governed::Exhausted { reason, partial } => {
            assert_eq!(reason, ExhaustionReason::TaskFailure);
            let partial = partial.expect("decided rows survive quarantine");
            let decided: Vec<_> = partial.concepts().collect();
            assert_eq!(
                decided.len(),
                expected.concepts().count() - 1,
                "exactly the quarantined row is missing"
            );
            for c in decided {
                assert_eq!(partial.subsumers_of(c), expected.subsumers_of(c));
            }
        }
        other => panic!("expected TaskFailure exhaustion, got {other:?}"),
    }
}

/// Realization rides the same supervisor: task panics in the parallel
/// driver are retried, and the realization — with and without a
/// hierarchy index answering the most-specific pairs — is identical
/// to the fault-free sequential one at every thread count.
#[test]
fn realization_task_panics_are_invisible_in_results() {
    let (voc, tbox, atoms) = generate::random_el(10, 2, 14, 0x4EA1);
    let abox = random_abox(&atoms, 6, 0xAB0C);
    let expected = realize(&tbox, &abox, &voc).expect("fault-free realization");
    let index = HierarchyIndex::build(&baseline(&tbox, &voc)).expect("baseline is indexable");
    for threads in [1usize, 4] {
        for idx in [None, Some(&index)] {
            let budget = chaos_budget("exec.task@2=panic; exec.task@5=panic", 0x4EA1);
            let (got, spend) = realize_parallel_governed_indexed(
                &tbox,
                &abox,
                &voc,
                &budget,
                threads,
                Arc::new(SatCache::new()),
                idx,
            );
            assert_eq!(
                got.expect_completed("retried individuals complete"),
                expected,
                "threads={threads} indexed={}",
                idx.is_some()
            );
            assert_eq!(spend.retries, 2, "both scheduled panics were retried");
            assert_eq!(spend.quarantined, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Cache integrity: poisoned entries are detected, never served
// ---------------------------------------------------------------------

/// Chaos-poisoned shared-cache entries (flipped answers under a stale
/// checksum) are detected on read, evicted, and recomputed — both the
/// poisoned run and a warm re-run over the dirty cache stay
/// byte-identical to the baseline.
#[test]
fn poisoned_cache_entries_never_change_answers() {
    let (voc, tbox, _) = generate::random_el(14, 3, 20, 0xCAFE);
    let expected = baseline(&tbox, &voc);
    for threads in [1usize, 4] {
        let cache = Arc::new(SatCache::new());
        let injector = Arc::new(
            FaultInjector::parse_plan("dl.cache.insert@1=poison; dl.cache.insert@4=poison", 7)
                .expect("plan parses"),
        );
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let (got, _) =
            classify_parallel_governed_with(&tbox, &voc, &budget, threads, Arc::clone(&cache));
        assert_eq!(
            got.expect_completed("poisoning degrades to recompute"),
            expected,
            "threads={threads}"
        );
        assert_eq!(injector.n_fired(), 2, "both poisonings were injected");

        // A second, fault-free run over the now-dirty cache probes the
        // poisoned keys, detects the corruption, and still answers
        // identically.
        let (again, _) = classify_parallel_governed_with(
            &tbox,
            &voc,
            &Budget::unlimited(),
            threads,
            Arc::clone(&cache),
        );
        assert_eq!(again.expect_completed("warm re-run"), expected);
        assert!(
            cache.corruptions() >= 1,
            "at least one poisoned entry was caught on read"
        );
    }
}

/// Realizations share the cache's integrity checks: poisoned entries
/// written during one realization are caught when a warm re-run over
/// the same cache reads them, and neither run's answer changes.
#[test]
fn poisoned_cache_entries_never_change_realizations() {
    let (voc, tbox, atoms) = generate::random_el(12, 2, 16, 0x9015);
    let abox = random_abox(&atoms, 6, 0x0B0E);
    let expected = realize(&tbox, &abox, &voc).expect("fault-free realization");
    for threads in [1usize, 4] {
        let cache = Arc::new(SatCache::new());
        let injector = Arc::new(
            FaultInjector::parse_plan("dl.cache.insert@1=poison; dl.cache.insert@3=poison", 3)
                .expect("plan parses"),
        );
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let (got, _) = realize_parallel_governed_indexed(
            &tbox,
            &abox,
            &voc,
            &budget,
            threads,
            Arc::clone(&cache),
            None,
        );
        assert_eq!(
            got.expect_completed("poisoning degrades to recompute"),
            expected,
            "threads={threads}"
        );
        assert_eq!(injector.n_fired(), 2, "both poisonings were injected");

        let (again, _) = realize_parallel_governed_indexed(
            &tbox,
            &abox,
            &voc,
            &Budget::unlimited(),
            threads,
            Arc::clone(&cache),
            None,
        );
        assert_eq!(again.expect_completed("warm re-run"), expected);
        assert!(
            cache.corruptions() >= 1,
            "at least one poisoned entry was caught on read"
        );
    }
}

// ---------------------------------------------------------------------
// Interrupts: starved runs publish exact prefixes, never warped rows
// ---------------------------------------------------------------------

/// Classification under escalating step budgets: every starved run
/// publishes only exact rows, and the sweep ends in the baseline
/// hierarchy.
#[test]
fn classification_under_escalating_budgets_converges_to_the_baseline() {
    let (voc, tbox, _) = generate::random_el(14, 2, 18, 0x0C4E);
    let expected = baseline(&tbox, &voc);
    let mut starved_with_rows = false;
    let mut finished = None;
    for leg in 1..=64u64 {
        let budget = Budget::new().with_steps(100 * leg);
        let (got, _) = classify_enhanced_governed(&mut Tableau::new(&tbox, &voc), &tbox, &budget);
        match got {
            Governed::Completed(h) => {
                finished = Some(h);
                break;
            }
            Governed::Exhausted { reason, partial } => {
                assert_eq!(reason, ExhaustionReason::Steps);
                let partial = partial.expect("classification always carries a partial");
                let decided: Vec<_> = partial.concepts().collect();
                for &c in &decided {
                    assert_eq!(partial.subsumers_ref(c), expected.subsumers_ref(c));
                }
                starved_with_rows |= !decided.is_empty();
            }
            Governed::Cancelled { .. } => panic!("nothing cancels this run"),
        }
    }
    assert_eq!(
        finished.expect("escalating budgets complete within 64 legs"),
        expected
    );
    assert!(starved_with_rows, "some starved leg published decided rows");
}

/// Realization under escalating step budgets: the sequential driver
/// publishes only fully realized individuals, and the sweep ends in
/// exactly what plain `realize` answers.
#[test]
fn realization_under_escalating_budgets_converges_to_the_uninterrupted_answer() {
    let (voc, tbox, atoms) = generate::random_el(10, 2, 14, 0x4EA1);
    let abox = random_abox(&atoms, 6, 0xAB0C);
    let expected = realize(&tbox, &abox, &voc).expect("fault-free realization");
    let mut starved_with_individuals = false;
    let mut finished = None;
    for leg in 1..=64u64 {
        let budget = Budget::new().with_steps(150 * leg);
        match realize_governed(&tbox, &abox, &voc, &budget) {
            Governed::Completed(r) => {
                finished = Some(r);
                break;
            }
            Governed::Exhausted { reason, partial } => {
                assert_eq!(reason, ExhaustionReason::Steps);
                let partial = partial.expect("realization always carries a partial");
                let decided = assert_exact_individuals(&partial, &expected, &abox);
                starved_with_individuals |= decided > 0;
            }
            Governed::Cancelled { .. } => panic!("nothing cancels this run"),
        }
    }
    assert_eq!(
        finished.expect("escalating budgets complete within 64 legs"),
        expected
    );
    assert!(
        starved_with_individuals,
        "some starved leg published realized individuals"
    );
}

/// A reasoner whose classification was interrupted stays sound: the
/// same `Tableau` then classifies to the baseline hierarchy, so an
/// interrupt leaves no half-decided state in its caches.
#[test]
fn an_interrupted_reasoner_answers_like_a_fresh_one() {
    let (voc, tbox, _) = generate::random_el(14, 3, 20, 0x5A7E);
    let expected = baseline(&tbox, &voc);
    let mut reasoner = Tableau::new(&tbox, &voc);
    let (starved, _) =
        classify_enhanced_governed(&mut reasoner, &tbox, &Budget::new().with_steps(150));
    assert!(!starved.is_completed(), "a small budget interrupts the run");
    let (again, _) = classify_enhanced_governed(&mut reasoner, &tbox, &Budget::unlimited());
    assert_eq!(again.expect_completed("unlimited re-run"), expected);
}

// ---------------------------------------------------------------------
// Continuation: interrupted EL work is kept, not redone or warped
// ---------------------------------------------------------------------

/// EL saturation interrupted mid-fixpoint keeps its partial state, and
/// finishing it on the *same* classifier reaches exactly the fixpoint
/// an uninterrupted saturation computes — the monotone rules make any
/// sound under-approximation a valid starting point.
#[test]
fn el_saturation_resumes_to_the_same_fixpoint() {
    let (voc, tbox, atoms) = generate::random_el(30, 3, 60, 0xE1);
    let mut full = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    full.saturate();
    let expected = full.current_named_subsumers(&atoms);

    let mut starved = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    let mut meter = Budget::new().with_steps(40).meter();
    assert!(
        starved.saturate_metered(&mut meter).is_err(),
        "a tiny budget interrupts saturation"
    );
    let partial = starved.current_named_subsumers(&atoms);
    assert!(
        partial.iter().any(|(c, set)| set.len() > 1 || !set.contains(c)),
        "the starved run proved more than the reflexive pairs"
    );
    assert!(
        partial
            .iter()
            .all(|(c, set)| set.is_subset(&expected[c])),
        "the partial state is a sound under-approximation"
    );
    starved.saturate();
    assert_eq!(starved.current_named_subsumers(&atoms), expected);
}

/// Continuation holds across many interrupts, not just one: driving
/// one classifier through repeated starved `saturate_metered` calls
/// only ever grows its subsumer sets, each stays a sound
/// under-approximation, and the last call lands on the uninterrupted
/// fixpoint.
#[test]
fn el_saturation_continues_across_repeated_interrupts() {
    let (voc, tbox, atoms) = generate::random_el(30, 3, 60, 0xE2);
    let mut full = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    full.saturate();
    let expected = full.current_named_subsumers(&atoms);

    let mut el = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    let mut before = el.current_named_subsumers(&atoms);
    let mut interrupts = 0;
    // Each call replays the kept facts before deriving new ones, so
    // the per-call budget escalates to guarantee progress.
    for leg in 1..=200u64 {
        let mut meter = Budget::new().with_steps(30 * leg).meter();
        let done = el.saturate_metered(&mut meter).is_ok();
        let now = el.current_named_subsumers(&atoms);
        for (c, set) in &now {
            assert!(before[c].is_subset(set), "leg {leg} lost a proved subsumer");
            assert!(set.is_subset(&expected[c]), "leg {leg} proved an unsound subsumer");
        }
        before = now;
        if done {
            break;
        }
        interrupts += 1;
    }
    assert!(interrupts >= 2, "the budgets interrupt saturation repeatedly");
    assert_eq!(before, expected);
}

// ---------------------------------------------------------------------
// Replayability: env-driven schedules fire identically every run
// ---------------------------------------------------------------------

/// The CI chaos lane exports `SUMMA_FAULT_PLAN` / `SUMMA_FAULT_SEED` /
/// `SUMMA_THREADS`; without them this test replays a built-in plan.
/// Either way the same schedule runs twice and must fire the same
/// number of faults, and every decided row must match the baseline —
/// chaos runs are replayable, not merely survivable.
#[test]
fn env_schedule_replay_is_deterministic() {
    let plan = std::env::var("SUMMA_FAULT_PLAN")
        .unwrap_or_else(|_| "exec.task@3=panic; exec.worker@1=panic; dl.cache.insert@2=poison".into());
    let seed = std::env::var("SUMMA_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0x5EED_CA05);
    let threads = std::env::var("SUMMA_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(4usize);
    let (voc, tbox, _) = generate::random_el(14, 2, 18, 0x11E9);
    let expected = baseline(&tbox, &voc);
    let mut fired = Vec::new();
    for _ in 0..2 {
        let injector =
            Arc::new(FaultInjector::parse_plan(&plan, seed).expect("chaos plan parses"));
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let (got, _) = classify_parallel_governed_with(
            &tbox,
            &voc,
            &budget,
            threads,
            Arc::new(SatCache::new()),
        );
        // Panic/poison plans complete; trip/cancel plans degrade to a
        // governed partial — in every case decided rows are exact.
        match got {
            Governed::Completed(h) => assert_eq!(h, expected),
            Governed::Exhausted { partial, .. } | Governed::Cancelled { partial } => {
                let partial = partial.expect("governed partials are always reported");
                let decided: Vec<_> = partial.concepts().collect();
                for c in decided {
                    assert_eq!(partial.subsumers_of(c), expected.subsumers_of(c));
                }
            }
        }
        fired.push(injector.n_fired());
    }
    assert_eq!(
        fired[0], fired[1],
        "the same plan and seed fire the same number of faults"
    );
}

// ---------------------------------------------------------------------
// Spend reconciliation under retries
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: a retried attempt's charges are rolled back in full.
    /// For deterministic-cost tasks the chaotic run's `steps` equal
    /// the fault-free run's exactly, results are identical, and the
    /// retry counter reconciles with the injector's fired-fault log.
    #[test]
    fn retries_never_double_charge(
        n in 1usize..24,
        cost in 1u64..7,
        hit in 1u64..40,
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let items: Vec<u64> = (0..n as u64).collect();
        let clean = par_map_with_drain(
            &items,
            &Budget::unlimited(),
            threads,
            |_| (),
            |_, meter, _, &x| {
                meter.charge(cost)?;
                Ok(x * 2)
            },
            |_, _| (),
        );
        prop_assert!(clean.is_complete());
        prop_assert_eq!(clean.spend.steps, n as u64 * cost);

        let injector = Arc::new(
            FaultInjector::new(seed).with_fault_at("exec.task", hit, FaultKind::Panic),
        );
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let chaotic = par_map_with_drain(
            &items,
            &budget,
            threads,
            |_| (),
            |_, meter, _, &x| {
                meter.charge(cost)?;
                Ok(x * 2)
            },
            |_, _| (),
        );
        prop_assert!(chaotic.is_complete());
        prop_assert_eq!(&chaotic.results, &clean.results);
        prop_assert_eq!(
            chaotic.spend.steps, n as u64 * cost,
            "rolled-back attempts must charge nothing"
        );
        // The schedule fires iff its hit falls within the arrivals the
        // task site actually sees (n first attempts, then the retry).
        let expected_retries = u64::from(hit <= n as u64);
        prop_assert_eq!(chaotic.spend.retries, expected_retries);
        prop_assert_eq!(injector.n_fired(), expected_retries);
    }
}
