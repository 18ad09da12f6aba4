//! Seeded generators for everything the server is sent: axiom text,
//! concept strings and ABox text. The same seed gives the same bytes.

use summa_dl::generate::SplitMix64;
use summa_serve::wire::Request;

/// Depth of the `warm_lookup` diamond lattice (2^(d+1) − 1 atoms).
pub const DIAMOND_DEPTH: usize = 7;

/// Atoms per layer of the EL terminology's backbone (100 atoms).
pub const EL_LAYERS: [usize; 5] = [1, 3, 9, 27, 60];
/// Roles of the EL terminology.
pub const EL_ROLES: usize = 4;
/// `A < B & C` axioms of the EL terminology.
pub const EL_CONJ: usize = 30;
/// `A < some r.B` axioms of the EL terminology.
pub const EL_EXISTS: usize = 30;

/// Nesting depth of the complex concepts on either side of a
/// `prover_mix` subsumption query.
pub const QUERY_DEPTH: usize = 3;
/// Individuals per generated ABox.
pub const ABOX_INDIVIDUALS: usize = 2;

/// Snapshot names the workloads install.
pub const DIAMOND: &str = "diamond";
pub const EL: &str = "el";
pub const CHURN: &str = "churn";

/// Mix one stream identifier into a seed, so that every client and
/// every generator draws from its own deterministic stream.
pub fn substream(seed: u64, stream: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
    SplitMix64::new(mix.next_u64())
}

/// The diamond lattice of `summa_dl::generate::diamond`, as axiom text:
/// layer k holds 2^k atoms `Dk_i`, each below two parents. Returns the
/// text and the atom names.
pub fn diamond_text(depth: usize) -> (String, Vec<String>) {
    let mut text = String::new();
    let mut atoms = Vec::new();
    for k in 0..=depth {
        let width = 1usize << k;
        for i in 0..width {
            let name = format!("D{k}_{i}");
            if k > 0 {
                let prev = width / 2;
                let (p1, p2) = (i / 2, (i / 2 + 1) % prev);
                text.push_str(&format!("{name} < D{}_{p1}\n", k - 1));
                if p2 != p1 {
                    text.push_str(&format!("{name} < D{}_{p2}\n", k - 1));
                }
            }
            atoms.push(name);
        }
    }
    (text, atoms)
}

/// The atom names of the EL terminology, `A0..A99`.
pub fn el_atoms() -> Vec<String> {
    (0..EL_LAYERS.iter().sum::<usize>())
        .map(|i| format!("A{i}"))
        .collect()
}

/// A random EL terminology over a layered backbone. Every atom below
/// the top layer sits under a seeded parent one layer up.
/// [`EL_CONJ`] axioms `A < B & C` give an atom extra parents from
/// shallower layers, and [`EL_EXISTS`] axioms `A < some r.B` hang an
/// existential off a deep atom with a filler from the middle layer,
/// whose own unfolding holds no existential. The seed picks the atoms,
/// roles and parents; the layering keeps every unfolding acyclic and
/// its size nearly constant across seeds, so that install-time
/// classification stays far below its step ceiling and the seed varies
/// the data but not the cost class.
pub fn el_text(seed: u64) -> String {
    let mut rng = substream(seed, 1);
    let mut layers: Vec<Vec<usize>> = Vec::new();
    let mut next = 0;
    for &width in &EL_LAYERS {
        layers.push((next..next + width).collect());
        next += width;
    }
    let pick = |rng: &mut SplitMix64, layer: &[usize]| layer[rng.below(layer.len())];
    let mut text = String::new();
    for k in 1..layers.len() {
        for &a in &layers[k] {
            text.push_str(&format!("A{a} < A{}\n", pick(&mut rng, &layers[k - 1])));
        }
    }
    for _ in 0..EL_CONJ {
        let k = 2 + rng.below(layers.len() - 2);
        let (kb, kc) = (1 + rng.below(k - 1), 1 + rng.below(k - 1));
        let a = pick(&mut rng, &layers[k]);
        let b = pick(&mut rng, &layers[kb]);
        let c = pick(&mut rng, &layers[kc]);
        text.push_str(&format!("A{a} < A{b} & A{c}\n"));
    }
    for _ in 0..EL_EXISTS {
        let k = 3 + rng.below(2);
        let a = pick(&mut rng, &layers[k]);
        let r = rng.below(EL_ROLES);
        let b = pick(&mut rng, &layers[2]);
        text.push_str(&format!("A{a} < some r{r}.A{b}\n"));
    }
    text
}

fn atom<'a>(rng: &mut SplitMix64, atoms: &'a [String]) -> &'a str {
    &atoms[rng.below(atoms.len())]
}

/// A random concept expression over `atoms` and roles `r0..`, using
/// ¬, ⊓, ⊔, ∃ and ∀, nested `depth` deep.
pub fn concept(rng: &mut SplitMix64, atoms: &[String], roles: usize, depth: usize) -> String {
    if depth == 0 {
        let negate = rng.chance(1, 4);
        let a = atom(rng, atoms);
        return if negate {
            format!("~{a}")
        } else {
            a.to_string()
        };
    }
    let role = rng.below(roles);
    match rng.below(4) {
        0 => {
            let l = concept(rng, atoms, roles, depth - 1);
            let r = concept(rng, atoms, roles, depth - 1);
            format!("({l} & {r})")
        }
        1 => {
            let l = concept(rng, atoms, roles, depth - 1);
            let r = concept(rng, atoms, roles, depth - 1);
            format!("({l} | {r})")
        }
        2 => format!("some r{role}.{}", concept(rng, atoms, roles, depth - 1)),
        _ => format!("all r{role}.{}", concept(rng, atoms, roles, depth - 1)),
    }
}

/// An ABox of `n` individuals `i0..`: each typed with an atom or an
/// atom-and-successor conjunction, linked by `n − 1` role assertions.
pub fn abox_text(rng: &mut SplitMix64, atoms: &[String], roles: usize, n: usize) -> String {
    let mut text = String::new();
    for i in 0..n {
        let a = atom(rng, atoms);
        if rng.chance(1, 2) {
            text.push_str(&format!("i{i} : {a}\n"));
        } else {
            let r = rng.below(roles);
            let b = atom(rng, atoms);
            text.push_str(&format!("i{i} : {a} & some r{r}.{b}\n"));
        }
    }
    for _ in 0..n.saturating_sub(1) {
        let (a, r, b) = (rng.below(n), rng.below(roles), rng.below(n));
        text.push_str(&format!("i{a} r{r} i{b}\n"));
    }
    text
}

/// `subsumes` of two seeded named atoms.
pub fn named_pair(rng: &mut SplitMix64, snapshot: &str, atoms: &[String]) -> Request {
    let sub = atom(rng, atoms).to_string();
    let sup = atom(rng, atoms).to_string();
    Request::Subsumes {
        snapshot: snapshot.to_string(),
        sub,
        sup,
    }
}

/// `subsumes` of two seeded complex concepts.
pub fn complex_pair(
    rng: &mut SplitMix64,
    snapshot: &str,
    atoms: &[String],
    roles: usize,
) -> Request {
    let sub = concept(rng, atoms, roles, QUERY_DEPTH);
    let sup = concept(rng, atoms, roles, QUERY_DEPTH);
    Request::Subsumes {
        snapshot: snapshot.to_string(),
        sub,
        sup,
    }
}

/// `realize` of a fresh seeded ABox.
pub fn realize(rng: &mut SplitMix64, snapshot: &str, atoms: &[String], roles: usize) -> Request {
    Request::Realize {
        snapshot: snapshot.to_string(),
        abox: abox_text(rng, atoms, roles, ABOX_INDIVIDUALS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summa_serve::snapshot::{parse_tbox, SnapshotStore};

    #[test]
    fn same_seed_gives_same_bytes() {
        assert_eq!(el_text(7), el_text(7));
        assert_ne!(el_text(7), el_text(8));
        let atoms = el_atoms();
        let draw = |seed| {
            let mut rng = substream(seed, 3);
            (
                complex_pair(&mut rng, EL, &atoms, EL_ROLES),
                named_pair(&mut rng, EL, &atoms),
                realize(&mut rng, EL, &atoms, EL_ROLES),
            )
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn substreams_differ() {
        assert_ne!(substream(5, 1).next_u64(), substream(5, 2).next_u64());
        assert_ne!(substream(5, 1).next_u64(), substream(6, 1).next_u64());
    }

    #[test]
    fn diamond_matches_the_library_lattice() {
        let (text, atoms) = diamond_text(DIAMOND_DEPTH);
        assert_eq!(atoms.len(), 255);
        let (_, tbox, _) = summa_dl::generate::diamond(DIAMOND_DEPTH);
        let (parsed, voc) = parse_tbox(&text).expect("diamond parses");
        assert_eq!(parsed.len(), tbox.len());
        assert_eq!(voc.n_concepts(), 255);
    }

    #[test]
    fn every_generated_tbox_parses_and_installs_warm() {
        let store = SnapshotStore::new();
        let (diamond, _) = diamond_text(DIAMOND_DEPTH);
        let mut texts = vec![diamond];
        texts.extend((0..8).map(el_text));
        for text in &texts {
            parse_tbox(text).expect("generated TBox parses");
            let snap = store.install_axioms("t", text).expect("installs");
            assert!(snap.warm.is_some(), "generated TBox shipped cold");
        }
    }

    #[test]
    fn generated_queries_and_aboxes_parse() {
        let atoms = el_atoms();
        let mut rng = substream(1, 9);
        let mut voc = summa_dl::concept::Vocabulary::new();
        for _ in 0..50 {
            let c = concept(&mut rng, &atoms, EL_ROLES, QUERY_DEPTH);
            summa_dl::parser::parse_concept(&c, &mut voc).expect("concept parses");
            let a = abox_text(&mut rng, &atoms, EL_ROLES, ABOX_INDIVIDUALS);
            summa_serve::ops::parse_abox(&a, &mut voc).expect("abox parses");
        }
    }
}
