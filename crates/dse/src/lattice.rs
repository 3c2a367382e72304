//! The dominance partial order over design points.
//!
//! Design point B *dominates* A when B's machine multiset is a superset of
//! A's: every A-feasible schedule is then feasible on B verbatim (the
//! extra machines idle), so `opt(B) <= opt(A)` under shared constraints.
//! Sweeps evaluate every point on its own; the lattice is an analysis
//! tool over a design space.
//!
//! Comparability is deliberately strict about accelerator identity: a
//! bigger GPU or a wider DSA is a *different*, hungrier machine (more
//! power/bandwidth per step), not a superset, so only exact matches count.

use hilp_soc::SocSpec;

/// Whether `a`'s machine multiset is a superset of `b`'s: at least as many
/// CPU cores, the same GPU (or `b` has none), and `b`'s DSA multiset
/// contained in `a`'s with exact `(pes, accelerates, advantage)` identity.
#[must_use]
pub fn soc_dominates(a: &SocSpec, b: &SocSpec) -> bool {
    if a.cpu_cores < b.cpu_cores {
        return false;
    }
    // GPUs of different sizes are different machines: `gpu64` is faster but
    // hungrier than `gpu16`, so neither contains the other.
    match (a.gpu_sms, b.gpu_sms) {
        (_, None) => {}
        (Some(x), Some(y)) if x == y => {}
        _ => return false,
    }
    // Multiset containment with exact equality; greedy matching is safe
    // because compatibility is equality, not a partial order.
    let mut used = vec![false; a.dsas.len()];
    for d in &b.dsas {
        let Some(slot) = a.dsas.iter().enumerate().position(|(i, c)| {
            !used[i]
                && c.pes == d.pes
                && c.accelerates == d.accelerates
                && c.advantage == d.advantage
        }) else {
            return false;
        };
        used[slot] = true;
    }
    true
}

/// The dominance relation over one design space, precomputed: per-point
/// dominator lists plus a loosest-first topological order of the points.
#[derive(Debug, Clone)]
pub struct DominanceLattice {
    dominators: Vec<Vec<usize>>,
    order: Vec<usize>,
    edges: usize,
}

impl DominanceLattice {
    /// Builds the lattice for a design space sharing one set of
    /// constraints (the caps compare equal between any two points, so only
    /// the machine multisets matter). Pairwise, `O(n^2)` comparisons.
    #[must_use]
    pub fn build(socs: &[SocSpec]) -> Self {
        let mut dominators = vec![Vec::new(); socs.len()];
        let mut edges = 0;
        for (i, a) in socs.iter().enumerate() {
            for (j, b) in socs.iter().enumerate() {
                if i != j && soc_dominates(b, a) {
                    dominators[i].push(j);
                    edges += 1;
                }
            }
        }
        // Loosest-first topological order: strict dominance means strictly
        // more machines (a strict superset has a strictly larger multiset),
        // so descending cluster count linearizes the partial order; equal
        // counts are either identical multisets (order irrelevant) or
        // incomparable. Ties break by index for determinism.
        let mut order: Vec<usize> = (0..socs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(socs[i].num_clusters()), i));
        DominanceLattice {
            dominators,
            order,
            edges,
        }
    }

    /// Points whose machine multiset contains point `i`'s (excluding `i`).
    #[must_use]
    pub fn dominators(&self, i: usize) -> &[usize] {
        &self.dominators[i]
    }

    /// All point indices, loosest (most machines) first: every dominator
    /// precedes the points it dominates.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of dominance edges in the lattice.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_soc::DsaSpec;

    #[test]
    fn more_cpu_cores_dominate() {
        assert!(soc_dominates(&SocSpec::new(8), &SocSpec::new(4)));
        assert!(!soc_dominates(&SocSpec::new(4), &SocSpec::new(8)));
    }

    #[test]
    fn gpu_presence_dominates_absence_but_sizes_are_incomparable() {
        let none = SocSpec::new(4);
        let g16 = SocSpec::new(4).with_gpu(16);
        let g64 = SocSpec::new(4).with_gpu(64);
        assert!(soc_dominates(&g16, &none));
        assert!(!soc_dominates(&none, &g16));
        // A bigger GPU is a different machine, not a superset.
        assert!(!soc_dominates(&g64, &g16));
        assert!(!soc_dominates(&g16, &g64));
    }

    #[test]
    fn dsa_multisets_require_exact_identity() {
        let one = SocSpec::new(4).with_dsa(DsaSpec::new(16, "LUD"));
        let two = SocSpec::new(4)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "LUD"));
        let wider = SocSpec::new(4).with_dsa(DsaSpec::new(64, "LUD"));
        let other = SocSpec::new(4).with_dsa(DsaSpec::new(16, "HS"));
        assert!(soc_dominates(&two, &one));
        assert!(!soc_dominates(&one, &two));
        assert!(!soc_dominates(&wider, &one), "wider DSA is not a superset");
        assert!(!soc_dominates(&other, &one), "different kernel");
        assert!(soc_dominates(&one, &one), "dominance is reflexive");
    }

    #[test]
    fn lattice_order_is_topological() {
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(2),
            SocSpec::new(4)
                .with_gpu(16)
                .with_dsa(DsaSpec::new(4, "LUD")),
        ];
        let lattice = DominanceLattice::build(&socs);
        let position: Vec<usize> = {
            let mut pos = vec![0; socs.len()];
            for (rank, &i) in lattice.order().iter().enumerate() {
                pos[i] = rank;
            }
            pos
        };
        for i in 0..socs.len() {
            for &d in lattice.dominators(i) {
                assert!(
                    position[d] < position[i],
                    "dominator {d} must precede {i} in the loosest-first order"
                );
            }
        }
        // Spot checks: the richest SoC dominates everything comparable.
        assert!(lattice.dominators(0).contains(&2));
        assert!(lattice.dominators(2).contains(&3));
        assert!(lattice.edges() >= 4);
    }
}
