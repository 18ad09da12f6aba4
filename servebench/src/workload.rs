//! The three workloads: what each installs at setup, and the closed-loop
//! request stream each client sends.

use crate::gen::{self, substream};
use std::sync::Arc;
use summa_dl::generate::SplitMix64;
use summa_serve::wire::Request;

/// One request in `CLASSIFY_EVERY` on `warm_lookup` is a `classify`.
pub const CLASSIFY_EVERY: usize = 50;
/// One request in `REALIZE_EVERY` on `prover_mix` is a `realize`. A
/// realize costs about ten complex `subsumes`, and the batch scheduler
/// runs one batch at a time, so a `subsumes` that arrives during a
/// realize waits for it; at this share about one in fifty do, and
/// `subsumes_p95_us` still measures the prover.
pub const REALIZE_EVERY: usize = 500;
/// Seeds of the EL terminologies. They are fixed, and `--seed` drives
/// the request streams alone: a terminology sets the cost of every
/// query against it, so a per-seed terminology would move the figures
/// between runs by more than the host's own noise.
pub const TBOX_SEEDS: [u64; 2] = [1, 2];
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const SERVER_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WarmLookup,
    ProverMix,
    SnapshotChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WarmLookup, Kind::ProverMix, Kind::SnapshotChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmLookup => "warm_lookup",
            Kind::ProverMix => "prover_mix",
            Kind::SnapshotChurn => "snapshot_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generator parameters and op mix, for the report.
    pub fn describe(self) -> String {
        let el = format!(
            "layered random EL TBox: {} atoms in layers {:?}, {} roles, {} conjunctive and {} existential axioms",
            gen::el_atoms().len(),
            gen::EL_LAYERS,
            gen::EL_ROLES,
            gen::EL_CONJ,
            gen::EL_EXISTS
        );
        match self {
            Kind::WarmLookup => format!(
                "diamond lattice depth {} ({} atoms); {}% named-pair subsumes, {}% classify",
                gen::DIAMOND_DEPTH,
                gen::diamond_text(gen::DIAMOND_DEPTH).1.len(),
                100 - 100 / CLASSIFY_EVERY,
                100 / CLASSIFY_EVERY
            ),
            Kind::ProverMix => format!(
                "{el}, seed {}; {:.1}% subsumes of depth-{} complex concepts, {:.1}% realize of {}-individual ABoxes",
                TBOX_SEEDS[0],
                100.0 - 100.0 / REALIZE_EVERY as f64,
                gen::QUERY_DEPTH,
                100.0 / REALIZE_EVERY as f64,
                gen::ABOX_INDIVIDUALS
            ),
            Kind::SnapshotChurn => format!(
                "{el}, seeds {TBOX_SEEDS:?}; client 0 reinstalls them alternately, client 1 sends named-pair subsumes"
            ),
        }
    }
}

/// A workload instantiated for one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// The snapshot every data request reads.
    pub snapshot: &'static str,
    /// The axiom texts the workload installs. Setup installs `texts[0]`;
    /// on `snapshot_churn` client 0 alternates between both.
    pub texts: Arc<Vec<String>>,
    pub atoms: Arc<Vec<String>>,
    /// Roles the generated concepts and ABoxes use.
    pub roles: usize,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let (snapshot, texts, atoms) = match kind {
            Kind::WarmLookup => {
                let (text, atoms) = gen::diamond_text(gen::DIAMOND_DEPTH);
                (gen::DIAMOND, vec![text], atoms)
            }
            Kind::ProverMix => (gen::EL, vec![gen::el_text(TBOX_SEEDS[0])], gen::el_atoms()),
            Kind::SnapshotChurn => (
                gen::CHURN,
                TBOX_SEEDS.iter().map(|&s| gen::el_text(s)).collect(),
                gen::el_atoms(),
            ),
        };
        Workload {
            kind,
            seed,
            snapshot,
            texts: Arc::new(texts),
            atoms: Arc::new(atoms),
            roles: gen::EL_ROLES,
        }
    }

    /// The request stream of client `client`.
    pub fn stream(&self, client: usize) -> Stream {
        Stream {
            workload: self.clone(),
            client,
            rng: substream(self.seed, 100 + client as u64),
            sent: 0,
        }
    }

    /// A fixed set of requests covering every (op, served tier) pair on
    /// this workload's snapshot, for the traced run's layer probes.
    pub fn probes(&self) -> Vec<Request> {
        let mut rng = substream(self.seed, 500);
        let (snap, atoms, roles) = (self.snapshot, &self.atoms[..], self.roles);
        let mut out = Vec::new();
        for _ in 0..32 {
            out.push(gen::named_pair(&mut rng, snap, atoms));
            out.push(gen::complex_pair(&mut rng, snap, atoms, roles));
        }
        for _ in 0..4 {
            out.push(gen::realize(&mut rng, snap, atoms, roles));
        }
        for _ in 0..2 {
            out.push(Request::Classify {
                snapshot: snap.to_string(),
            });
        }
        out
    }
}

/// One client's deterministic request sequence.
pub struct Stream {
    workload: Workload,
    client: usize,
    rng: SplitMix64,
    sent: usize,
}

impl Stream {
    /// Requests drawn so far.
    pub fn sent(&self) -> usize {
        self.sent
    }

    pub fn next_request(&mut self) -> Request {
        let w = &self.workload;
        let (snap, atoms) = (w.snapshot, &w.atoms[..]);
        self.sent += 1;
        let rng = &mut self.rng;
        match w.kind {
            Kind::WarmLookup => {
                if rng.below(CLASSIFY_EVERY) == 0 {
                    Request::Classify {
                        snapshot: snap.to_string(),
                    }
                } else {
                    gen::named_pair(rng, snap, atoms)
                }
            }
            Kind::ProverMix => {
                if rng.below(REALIZE_EVERY) == 0 {
                    gen::realize(rng, snap, atoms, w.roles)
                } else {
                    gen::complex_pair(rng, snap, atoms, w.roles)
                }
            }
            // Installs alternate: the n-th request carries texts[n % 2].
            Kind::SnapshotChurn if self.client == 0 => Request::LoadSnapshot {
                name: snap.to_string(),
                axioms: w.texts[self.sent % 2].clone(),
            },
            Kind::SnapshotChurn => gen::named_pair(rng, snap, atoms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed_and_client() {
        for kind in Kind::ALL {
            let take = |seed, client| {
                let mut s = Workload::new(kind, seed).stream(client);
                (0..200).map(|_| s.next_request()).collect::<Vec<_>>()
            };
            assert_eq!(take(3, 1), take(3, 1), "{}", kind.name());
            assert_ne!(take(3, 1), take(4, 1), "{}", kind.name());
        }
    }

    #[test]
    fn mixes_hold_the_stated_ops() {
        let count = |kind, client, f: fn(&Request) -> bool| {
            let mut s = Workload::new(kind, 9).stream(client);
            (0..5000).filter(|_| f(&s.next_request())).count()
        };
        let classify = count(Kind::WarmLookup, 0, |r| {
            matches!(r, Request::Classify { .. })
        });
        assert!((50..200).contains(&classify), "{classify}");
        let realize = count(Kind::ProverMix, 1, |r| matches!(r, Request::Realize { .. }));
        assert!((3..25).contains(&realize), "{realize}");
        let loads = count(Kind::SnapshotChurn, 0, |r| {
            matches!(r, Request::LoadSnapshot { .. })
        });
        assert_eq!(loads, 5000);
        let reads = count(Kind::SnapshotChurn, 1, |r| {
            matches!(r, Request::Subsumes { .. })
        });
        assert_eq!(reads, 5000);
    }

    fn text_index(w: &Workload, req: &Request) -> Option<usize> {
        match req {
            Request::LoadSnapshot { axioms, .. } => w.texts.iter().position(|t| t == axioms),
            _ => None,
        }
    }

    #[test]
    fn churn_alternates_its_two_tboxes() {
        let w = Workload::new(Kind::SnapshotChurn, 5);
        assert_ne!(w.texts[0], w.texts[1]);
        let mut s = w.stream(0);
        let order: Vec<_> = (0..4).map(|_| text_index(&w, &s.next_request())).collect();
        assert_eq!(order, [Some(1), Some(0), Some(1), Some(0)]);
    }
}
