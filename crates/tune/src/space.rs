//! Candidates and the genetic operators over them.
//!
//! A [`Candidate`] is a partial assignment of tuning sites to
//! [`TileChoice`]s — absent sites keep the hand-rolled heuristic, so the
//! empty candidate *is* the baseline compiler. The [`SearchSpace`] holds
//! the sites the target NPU exposes for a graph and implements the
//! search's three generators: random sampling, point mutation of a
//! uniformly drawn tunable site, and uniform crossover. All three draw
//! from the caller's [`SplitMix64`] stream only, so a fixed seed replays
//! the identical search.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use tandem_compiler::{Schedule, StableHasher, TileChoice, TuneSite};
use tandem_model::SplitMix64;

/// Uniform draw from `0..n` (0 when `n == 0`).
pub(crate) fn below(rng: &mut SplitMix64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (rng.next_u64() % n as u64) as usize
}

/// One search point: a partial site → choice assignment. Sites not in
/// the map keep their hand-rolled heuristic, so `Candidate::default()`
/// reproduces the baseline compiler bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Candidate {
    choices: BTreeMap<u64, TileChoice>,
}

impl Candidate {
    /// The baseline candidate (no overrides).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// A candidate over explicit assignments.
    pub fn new(choices: BTreeMap<u64, TileChoice>) -> Self {
        Candidate { choices }
    }

    /// The assignments.
    pub fn choices(&self) -> &BTreeMap<u64, TileChoice> {
        &self.choices
    }

    /// Number of overridden sites.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// `true` for the baseline candidate.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Materializes the candidate as a compiler [`Schedule`].
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.choices.clone())
    }

    /// The candidate's stable identity — equal to
    /// [`Schedule::digest`] of its materialized schedule. Keys the score
    /// memo and breaks selection ties deterministically.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        for (&k, &c) in &self.choices {
            h.write_u64(k);
            c.hash(&mut h);
        }
        h.finish()
    }

    /// Stable rendering of the overrides, one `site=choice` string per
    /// assignment, named through `sites` where the key is known.
    pub fn render(&self, sites: &[TuneSite]) -> Vec<String> {
        self.choices
            .iter()
            .map(|(&k, c)| {
                let name = sites
                    .iter()
                    .find(|s| s.key == k)
                    .map(|s| s.name.as_str())
                    .unwrap_or("?");
                format!("{name}@{k:016x}={}", c.render())
            })
            .collect()
    }
}

/// The per-graph search space: the sites the NPU exposes for a graph.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    sites: Vec<TuneSite>,
    /// Indices of the sites with at least two candidates, in site order.
    /// A single-candidate site (only the baseline) is inert, so the
    /// operators never draw one.
    tunable: Vec<usize>,
}

impl SearchSpace {
    /// A space over `sites`.
    pub fn new(sites: Vec<TuneSite>) -> Self {
        let tunable = (0..sites.len())
            .filter(|&i| sites[i].candidates.len() >= 2)
            .collect();
        SearchSpace { sites, tunable }
    }

    /// The tuning sites.
    pub fn sites(&self) -> &[TuneSite] {
        &self.sites
    }

    /// Indices (into [`SearchSpace::sites`]) of the sites the search can
    /// move — those with at least two candidates — in site order.
    pub(crate) fn tunable(&self) -> &[usize] {
        &self.tunable
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when the graph exposes no tunable site.
    pub fn is_empty(&self) -> bool {
        self.tunable.is_empty()
    }

    /// log₂ of the number of points in the space (the product of per-site
    /// candidate counts).
    pub fn log2_points(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| (s.candidates.len().max(1) as f64).log2())
            .sum()
    }

    /// A random candidate: each site independently keeps its baseline
    /// (2-in-3) or takes a uniformly random alternative.
    pub fn random(&self, rng: &mut SplitMix64) -> Candidate {
        let mut choices = BTreeMap::new();
        for &i in &self.tunable {
            if !rng.next_u64().is_multiple_of(3) {
                continue;
            }
            let s = &self.sites[i];
            let c = s.candidates[below(rng, s.candidates.len())];
            if c != s.baseline {
                choices.insert(s.key, c);
            }
        }
        Candidate::new(choices)
    }

    /// A single-site override.
    pub fn single(&self, site: usize, choice: TileChoice) -> Candidate {
        let mut choices = BTreeMap::new();
        if choice != self.sites[site].baseline {
            choices.insert(self.sites[site].key, choice);
        }
        Candidate::new(choices)
    }

    /// A point mutation of `parent`: one uniformly drawn tunable site
    /// flips to a different candidate (or, 1-in-4 when overridden, back
    /// to its baseline).
    pub fn mutate(&self, parent: &Candidate, rng: &mut SplitMix64) -> Candidate {
        let mut choices = parent.choices.clone();
        let site = &self.sites[self.tunable[below(rng, self.tunable.len())]];
        let current = choices.get(&site.key).copied();
        if current.is_some() && rng.next_u64().is_multiple_of(4) {
            choices.remove(&site.key);
            return Candidate::new(choices);
        }
        let effective = current.unwrap_or(site.baseline);
        // Up to a handful of redraws to land on a different choice.
        for _ in 0..4 {
            let c = site.candidates[below(rng, site.candidates.len())];
            if c != effective {
                if c == site.baseline {
                    choices.remove(&site.key);
                } else {
                    choices.insert(site.key, c);
                }
                break;
            }
        }
        Candidate::new(choices)
    }

    /// Uniform crossover: every site takes its assignment from `a` or
    /// `b` with equal probability (absence — the baseline — is inherited
    /// like any other assignment).
    pub fn crossover(&self, a: &Candidate, b: &Candidate, rng: &mut SplitMix64) -> Candidate {
        let mut choices = BTreeMap::new();
        for s in &self.sites {
            let from = if rng.next_u64().is_multiple_of(2) {
                a
            } else {
                b
            };
            if let Some(&c) = from.choices.get(&s.key) {
                choices.insert(s.key, c);
            }
        }
        Candidate::new(choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_space() -> SearchSpace {
        // TuneSite wants a real NodeId; steal one from a two-op graph.
        let node = {
            let mut b = tandem_model::GraphBuilder::new("toy", 1);
            let x = b.input("x", [1, 1, 2, 2]);
            let y = b.relu(x);
            b.output(y);
            b.finish().nodes()[0].id
        };
        let site = |key: u64, cands: Vec<TileChoice>| TuneSite {
            key,
            name: format!("s{key}"),
            node,
            baseline: cands[0],
            candidates: cands,
        };
        SearchSpace::new(vec![
            site(
                1,
                vec![
                    TileChoice::Permute { rows: 128 },
                    TileChoice::Permute { rows: 256 },
                    TileChoice::Permute { rows: 64 },
                ],
            ),
            site(
                2,
                vec![
                    TileChoice::GemmTile { m_rows: 512 },
                    TileChoice::GemmTile { m_rows: 256 },
                ],
            ),
            // Inert (one candidate). Its baseline differs from that
            // candidate, so a mutation that drew it would show.
            TuneSite {
                baseline: TileChoice::Permute { rows: 32 },
                ..site(3, vec![TileChoice::Permute { rows: 16 }])
            },
        ])
    }

    #[test]
    fn digest_matches_schedule_digest() {
        let space = toy_space();
        let mut rng = SplitMix64::new(7);
        for _ in 0..16 {
            let c = space.random(&mut rng);
            assert_eq!(c.digest(), c.schedule().digest());
        }
        assert_eq!(
            Candidate::baseline().digest(),
            Schedule::empty().digest(),
            "the empty candidate is the empty schedule"
        );
    }

    #[test]
    fn operators_only_emit_known_choices() {
        let space = toy_space();
        let legal = |c: &Candidate| {
            c.choices().iter().all(|(k, v)| {
                space
                    .sites()
                    .iter()
                    .any(|s| s.key == *k && s.candidates.contains(v))
            })
        };
        let mut rng = SplitMix64::new(11);
        let mut a = space.random(&mut rng);
        let mut b = space.random(&mut rng);
        for _ in 0..64 {
            let m = space.mutate(&a, &mut rng);
            let x = space.crossover(&a, &b, &mut rng);
            assert!(legal(&m) && legal(&x));
            a = m;
            b = x;
        }
    }

    #[test]
    fn mutation_reaches_every_tunable_site_and_no_inert_one() {
        let space = toy_space();
        assert_eq!(space.tunable(), &[0, 1]);
        let mut rng = SplitMix64::new(3);
        let mut touched = BTreeMap::new();
        for _ in 0..200 {
            let m = space.mutate(&Candidate::baseline(), &mut rng);
            for &k in m.choices().keys() {
                *touched.entry(k).or_insert(0usize) += 1;
            }
        }
        assert!(!touched.contains_key(&3), "single-candidate site mutated");
        for k in [1, 2] {
            assert!(
                touched.get(&k).is_some_and(|&n| n > 0),
                "site {k}: {touched:?}"
            );
        }
    }
}
