//! Instance diffing for what-if re-solves: classify how a child instance
//! differs from a solved parent, and whether the parent's proven lower
//! bound still holds for the child.
//!
//! [`InstanceDelta::between`] is what `Hilp::evaluate_delta` (hilp-core)
//! and `SweepBaseline` (hilp-dse) consult before reusing a parent's work,
//! and the reuse must never change a result. Two shortcuts survive that
//! contract:
//!
//! 1. **Identity** — the instances have equal [`Instance::fingerprint`]s
//!    (content-identical up to labels). The solver is deterministic, so the
//!    parent outcome *is* the child outcome, bit for bit.
//! 2. **Bound transfer** — the delta is a pure *tightening*
//!    ([`DeltaClass::Tightening`]): every feasible child schedule is, with
//!    the same starts, feasible on the parent at no greater makespan, so
//!    `optimum(child) >= optimum(parent) >= parent.lower_bound`
//!    ([`InstanceDelta::bounds_transfer`]). The parent's proven bound can
//!    be handed to the solver as [`crate::SolveHints::external_lower_bound`],
//!    which for heuristic-only configurations is *transparent* (identical
//!    reported makespan, bound, and schedule) and merely lets bound-driven
//!    termination skip the remaining multi-starts.
//!
//! Anything else (loosening or mixed deltas) is solved from scratch. The
//! testkit's `check_delta` oracle pins both shortcuts against scratch
//! solves.

use crate::instance::{Edge, EdgeKind, Instance, Mode};

/// Direction of a delta in feasible-set terms.
///
/// `Tightening` means every child-feasible schedule is parent-feasible at
/// no greater makespan (so parent lower bounds transfer to the child);
/// `Loosening` is the mirror image (parent schedules stay child-feasible);
/// `Mixed` means neither containment could be established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// The instances are content-identical (equal fingerprints).
    Identity,
    /// The child's feasible set is contained in the parent's.
    Tightening,
    /// The parent's feasible set is contained in the child's.
    Loosening,
    /// Changes pull in both directions (or are incomparable).
    Mixed,
}

/// Which axes of the instance a delta touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaAxes {
    /// Power / bandwidth / core cap changed.
    pub caps: bool,
    /// A custom cumulative resource capacity (or the resource list) changed.
    pub resources: bool,
    /// The horizon changed.
    pub horizon: bool,
    /// Precedence edges changed (added, removed, or lags adjusted).
    pub edges: bool,
    /// The machine list changed.
    pub machines: bool,
    /// The task count changed.
    pub tasks: bool,
    /// At least one task's mode list changed (durations, footprints, or
    /// modes added/removed).
    pub modes: bool,
}

/// The classified difference between a parent and a child [`Instance`].
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceDelta {
    /// Overall feasibility direction of the change.
    pub class: DeltaClass,
    /// Axes touched by the change.
    pub axes: DeltaAxes,
}

/// Accumulates per-axis directions into an overall [`DeltaClass`].
#[derive(Default)]
struct DirFold {
    tighten: bool,
    loosen: bool,
}

impl DirFold {
    fn tighten(&mut self) {
        self.tighten = true;
    }
    fn loosen(&mut self) {
        self.loosen = true;
    }
    fn mixed(&mut self) {
        self.tighten = true;
        self.loosen = true;
    }
    fn class(&self) -> DeltaClass {
        match (self.tighten, self.loosen) {
            (false, false) => DeltaClass::Identity,
            (true, false) => DeltaClass::Tightening,
            (false, true) => DeltaClass::Loosening,
            (true, true) => DeltaClass::Mixed,
        }
    }
}

impl InstanceDelta {
    /// Diffs `child` against `parent` and classifies the change.
    ///
    /// The classification is conservative: `Tightening`/`Loosening` are
    /// only claimed when the containment argument in the module docs holds
    /// axis by axis; anything unclear degrades to [`DeltaClass::Mixed`],
    /// which costs performance (no certificate) but never soundness.
    #[must_use]
    pub fn between(parent: &Instance, child: &Instance) -> Self {
        if parent.fingerprint() == child.fingerprint() {
            return Self {
                class: DeltaClass::Identity,
                axes: DeltaAxes::default(),
            };
        }
        let mut fold = DirFold::default();
        let mut axes = DeltaAxes::default();

        if parent.machines != child.machines {
            axes.machines = true;
            fold.mixed();
        }
        if parent.tasks.len() != child.tasks.len() {
            axes.tasks = true;
            fold.mixed();
        } else {
            for (p, c) in parent.tasks.iter().zip(&child.tasks) {
                if p.modes != c.modes {
                    axes.modes = true;
                    mode_list_direction(&p.modes, &c.modes, &mut fold);
                }
            }
        }

        if parent.tasks.len() == child.tasks.len() {
            edge_direction(parent, child, &mut axes, &mut fold);
        } else if edge_set(parent) != edge_set(child) {
            axes.edges = true;
        }

        cap_direction(parent.power_cap, child.power_cap, &mut axes.caps, &mut fold);
        cap_direction(
            parent.bandwidth_cap,
            child.bandwidth_cap,
            &mut axes.caps,
            &mut fold,
        );
        cap_direction(
            parent.core_cap.map(f64::from),
            child.core_cap.map(f64::from),
            &mut axes.caps,
            &mut fold,
        );
        if parent.resources.len() != child.resources.len()
            || parent
                .resources
                .iter()
                .zip(&child.resources)
                .any(|((pn, _), (cn, _))| pn != cn)
        {
            axes.resources = true;
            fold.mixed();
        } else {
            for ((_, p), (_, c)) in parent.resources.iter().zip(&child.resources) {
                cap_direction(Some(*p), Some(*c), &mut axes.resources, &mut fold);
            }
        }
        match child.horizon.cmp(&parent.horizon) {
            std::cmp::Ordering::Less => {
                axes.horizon = true;
                fold.tighten();
            }
            std::cmp::Ordering::Greater => {
                axes.horizon = true;
                fold.loosen();
            }
            std::cmp::Ordering::Equal => {}
        }

        let class = match fold.class() {
            // Fingerprints differ but no axis registered a direction: the
            // change is something this diff does not model (e.g. labels do
            // not fingerprint, so this means float bit-pattern edge cases).
            // Never claim identity on unequal fingerprints.
            DeltaClass::Identity => DeltaClass::Mixed,
            c => c,
        };
        Self { class, axes }
    }

    /// True when the instances are content-identical.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.class == DeltaClass::Identity
    }

    /// True when parent lower bounds are valid for the child.
    #[must_use]
    pub fn bounds_transfer(&self) -> bool {
        matches!(self.class, DeltaClass::Identity | DeltaClass::Tightening)
    }
}

/// Direction of one task's mode-list change.
fn mode_list_direction(parent: &[Mode], child: &[Mode], fold: &mut DirFold) {
    if parent.len() == child.len() {
        for (p, c) in parent.iter().zip(child) {
            mode_pair_direction(p, c, fold);
        }
        return;
    }
    // Different counts: a child whose modes all exist verbatim on the
    // parent only *removed* options (tightening); the mirror image only
    // added them (loosening).
    let child_subset = child.iter().all(|c| parent.contains(c));
    let parent_subset = parent.iter().all(|p| child.contains(p));
    match (child_subset, parent_subset) {
        (true, false) => fold.tighten(),
        (false, true) => fold.loosen(),
        _ => fold.mixed(),
    }
}

/// Direction of one positional mode change. Tightening requires the child
/// mode to run on the same machine for at least as long with at least the
/// parent's footprint on every rate axis (so a child-feasible placement is
/// parent-feasible in a sub-window).
fn mode_pair_direction(parent: &Mode, child: &Mode, fold: &mut DirFold) {
    if parent == child {
        return;
    }
    if parent.machine != child.machine {
        fold.mixed();
        return;
    }
    let mut local = DirFold::default();
    scalar_direction(
        f64::from(parent.duration),
        f64::from(child.duration),
        &mut local,
    );
    scalar_direction(parent.power, child.power, &mut local);
    scalar_direction(parent.bandwidth, child.bandwidth, &mut local);
    scalar_direction(f64::from(parent.cores), f64::from(child.cores), &mut local);
    let resources: Vec<_> = parent
        .resource_usage
        .iter()
        .chain(&child.resource_usage)
        .map(|(r, _)| *r)
        .collect();
    for r in resources {
        scalar_direction(parent.usage_of(r), child.usage_of(r), &mut local);
    }
    fold.tighten |= local.tighten;
    fold.loosen |= local.loosen;
}

/// A larger child value is tightening for usage-like scalars (duration,
/// power, bandwidth, cores, resource usage): the child demands *more*, so
/// child-feasible implies parent-feasible.
fn scalar_direction(parent: f64, child: f64, fold: &mut DirFold) {
    if child > parent {
        fold.tighten();
    } else if child < parent {
        fold.loosen();
    }
}

/// A smaller child capacity is tightening; `None` is an infinite cap.
fn cap_direction(parent: Option<f64>, child: Option<f64>, axis: &mut bool, fold: &mut DirFold) {
    let p = parent.unwrap_or(f64::INFINITY);
    let c = child.unwrap_or(f64::INFINITY);
    if c < p {
        *axis = true;
        fold.tighten();
    } else if c > p {
        *axis = true;
        fold.loosen();
    }
}

/// All edges of an instance as one sorted list (each edge is recorded once,
/// on its successor's incoming list).
fn edge_set(instance: &Instance) -> Vec<Edge> {
    let mut edges: Vec<Edge> = instance
        .in_edges
        .iter()
        .flat_map(|es| es.iter().copied())
        .collect();
    edges.sort_unstable_by_key(|e| {
        (
            e.before.0,
            e.after.0,
            e.kind == EdgeKind::StartToStart,
            e.lag,
        )
    });
    edges
}

/// Classifies edge-set changes. An edge present only in the child adds a
/// constraint (tightening); present only in the parent, removes one
/// (loosening); a lag change on an otherwise-matching edge tightens when it
/// grows. Groups that differ in shape degrade to mixed.
fn edge_direction(parent: &Instance, child: &Instance, axes: &mut DeltaAxes, fold: &mut DirFold) {
    let p = edge_set(parent);
    let c = edge_set(child);
    if p == c {
        return;
    }
    axes.edges = true;
    // Group by (before, after, kind) and compare lag multisets.
    let key = |e: &Edge| (e.before.0, e.after.0, e.kind == EdgeKind::StartToStart);
    let mut i = 0;
    let mut j = 0;
    while i < p.len() || j < c.len() {
        let pk = p.get(i).map(key);
        let ck = c.get(j).map(key);
        let group = match (pk, ck) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        let mut plags = Vec::new();
        while i < p.len() && key(&p[i]) == group {
            plags.push(p[i].lag);
            i += 1;
        }
        let mut clags = Vec::new();
        while j < c.len() && key(&c[j]) == group {
            clags.push(c[j].lag);
            j += 1;
        }
        if plags == clags {
            continue;
        }
        if plags.is_empty() {
            fold.tighten(); // new constraint
        } else if clags.is_empty() {
            fold.loosen(); // dropped constraint
        } else if plags.len() == clags.len() {
            // Lags sorted ascending within the group: pointwise growth is
            // a pure tightening of each edge's separation requirement.
            for (pl, cl) in plags.iter().zip(&clags) {
                match cl.cmp(pl) {
                    std::cmp::Ordering::Greater => fold.tighten(),
                    std::cmp::Ordering::Less => fold.loosen(),
                    std::cmp::Ordering::Equal => {}
                }
            }
        } else if clags.len() > plags.len() && plags.iter().all(|l| clags.contains(l)) {
            fold.tighten(); // kept all parent edges, added more
        } else if plags.len() > clags.len() && clags.iter().all(|l| plags.contains(l)) {
            fold.loosen();
        } else {
            fold.mixed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::solve::{solve, solve_with_hints, SolveHints, SolverConfig};

    /// Three interchangeable two-step tasks on two machines plus a chain:
    /// enough structure for every perturbation direction to matter.
    fn base_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let a = b.add_task("a", vec![Mode::on(m0, 2).power(2.0), Mode::on(m1, 3)]);
        let c = b.add_task("c", vec![Mode::on(m0, 2).power(2.0)]);
        let d = b.add_task("d", vec![Mode::on(m1, 2).power(1.0)]);
        b.add_precedence_lagged(a, d, 1);
        b.set_power_cap(6.0);
        b.set_horizon(40);
        let _ = c;
        b.build().expect("valid")
    }

    /// Rebuilds the base instance with tweaks applied via the builder.
    fn variant(
        dur_a0: u32,
        lag: u32,
        power_cap: f64,
        horizon: u32,
        drop_alt_mode: bool,
    ) -> Instance {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let mut a_modes = vec![Mode::on(m0, dur_a0).power(2.0)];
        if !drop_alt_mode {
            a_modes.push(Mode::on(m1, 3));
        }
        let a = b.add_task("a", a_modes);
        let _c = b.add_task("c", vec![Mode::on(m0, 2).power(2.0)]);
        let d = b.add_task("d", vec![Mode::on(m1, 2).power(1.0)]);
        b.add_precedence_lagged(a, d, lag);
        b.set_power_cap(power_cap);
        b.set_horizon(horizon);
        b.build().expect("valid")
    }

    #[test]
    fn identity_is_detected_and_returned_verbatim() {
        let parent = base_instance();
        let child = variant(2, 1, 6.0, 40, false);
        let delta = InstanceDelta::between(&parent, &child);
        assert!(delta.is_identity());
        assert!(delta.bounds_transfer());
        assert_eq!(delta.axes, DeltaAxes::default());
        // The solver is deterministic, so the parent outcome returned
        // verbatim is exactly what a scratch solve of the child reports.
        let config = SolverConfig::sweep();
        assert_eq!(
            solve(&parent, &config).expect("solvable"),
            solve(&child, &config).expect("solvable")
        );
    }

    #[test]
    fn single_axis_perturbations_classify_directionally() {
        let parent = base_instance();
        let cases: Vec<(Instance, DeltaClass)> = vec![
            (variant(3, 1, 6.0, 40, false), DeltaClass::Tightening), // duration up
            (variant(1, 1, 6.0, 40, false), DeltaClass::Loosening),  // duration down
            (variant(2, 3, 6.0, 40, false), DeltaClass::Tightening), // lag up
            (variant(2, 0, 6.0, 40, false), DeltaClass::Loosening),  // lag down
            (variant(2, 1, 4.0, 40, false), DeltaClass::Tightening), // cap down
            (variant(2, 1, 9.0, 40, false), DeltaClass::Loosening),  // cap up
            (variant(2, 1, 6.0, 20, false), DeltaClass::Tightening), // horizon down
            (variant(2, 1, 6.0, 80, false), DeltaClass::Loosening),  // horizon up
            (variant(2, 1, 6.0, 40, true), DeltaClass::Tightening),  // mode removed
            (variant(3, 0, 6.0, 40, false), DeltaClass::Mixed),      // both ways
        ];
        for (child, expected) in cases {
            let delta = InstanceDelta::between(&parent, &child);
            assert_eq!(delta.class, expected, "axes: {:?}", delta.axes);
        }
    }

    #[test]
    fn tightening_certificate_matches_scratch_exactly() {
        let parent = base_instance();
        let child = variant(3, 2, 5.0, 40, false);
        let config = SolverConfig::sweep();
        assert_eq!(config.exact_node_budget, 0, "heuristic-only config");
        assert!(InstanceDelta::between(&parent, &child).bounds_transfer());
        let parent_outcome = solve(&parent, &config).expect("solvable");
        let scratch = solve(&child, &config).expect("solvable");
        let hints = SolveHints {
            external_lower_bound: Some(parent_outcome.lower_bound),
            ..SolveHints::default()
        };
        let (hinted, _) = solve_with_hints(&child, &config, &hints).expect("solvable");
        assert_eq!(hinted, scratch);
    }

    #[test]
    fn loosening_falls_back_to_scratch() {
        let parent = base_instance();
        // Loosening and mixed deltas carry no parent bound: the child is
        // solved from scratch.
        for child in [variant(1, 0, 9.0, 80, false), variant(3, 0, 6.0, 40, false)] {
            assert!(!InstanceDelta::between(&parent, &child).bounds_transfer());
        }
    }
}
