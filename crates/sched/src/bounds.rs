//! Combinatorial lower bounds on the optimal makespan.
//!
//! These bounds play the role of the ILP solver's optimality bound in the
//! paper: HILP calls a schedule near-optimal when its makespan is provably
//! within 10% of the best value that could still exist. Each bound here is
//! a valid lower bound on any feasible schedule's makespan, so their
//! maximum is too.
//!
//! The bounds are purely combinatorial over the instance's integer step
//! durations and capacities — they never consult a timetable — so they are
//! valid verbatim under every [`crate::TimetableKind`]: at the finest
//! ("exact") tick the energy and critical-path sums are computed on
//! exactly the durations the scheduler places, leaving no
//! representation-induced slack.

use crate::instance::{EdgeKind, Instance, ResourceId, TaskId};

/// Longest chain of minimum durations through the precedence DAG.
///
/// Any schedule must execute each precedence chain sequentially, so the
/// longest chain using each task's fastest mode bounds the makespan.
#[must_use]
pub(crate) fn critical_path_bound(instance: &Instance) -> u32 {
    critical_path_with(instance, &min_durations(instance))
}

/// Critical-path bound over an explicit per-task min-duration vector (e.g.
/// durations filtered by an energy budget).
#[must_use]
pub(crate) fn critical_path_with(instance: &Instance, min: &[u32]) -> u32 {
    let heads = heads_with(instance, min);
    tails_with(instance, min)
        .iter()
        .enumerate()
        .map(|(t, &tail)| heads[t] + tail)
        .max()
        .unwrap_or(0)
}

/// Each task's shortest mode duration, indexed by task.
#[must_use]
pub(crate) fn min_durations(instance: &Instance) -> Vec<u32> {
    (0..instance.num_tasks())
        .map(|t| instance.min_duration(TaskId(t)))
        .collect()
}

/// For every task: a lower bound on the time from the task's *start* to
/// workload completion, following min-duration chains and edge lags.
/// `tails[t] >= min_duration(t)`.
#[must_use]
pub(crate) fn tails(instance: &Instance) -> Vec<u32> {
    tails_with(instance, &min_durations(instance))
}

/// [`tails`] over an explicit per-task min-duration vector.
#[must_use]
pub(crate) fn tails_with(instance: &Instance, min: &[u32]) -> Vec<u32> {
    let n = instance.num_tasks();
    let mut tails = vec![0u32; n];
    for &task in instance.topological_order().iter().rev() {
        let own = min[task.0];
        let mut tail = own;
        for e in instance.outgoing(task) {
            let via = match e.kind {
                EdgeKind::FinishToStart => own + e.lag + tails[e.after.0],
                EdgeKind::StartToStart => e.lag + tails[e.after.0],
            };
            tail = tail.max(via);
        }
        tails[task.0] = tail;
    }
    tails
}

/// For every task: a lower bound on its earliest possible start, following
/// min-duration chains and edge lags from the sources.
#[cfg(test)]
#[must_use]
pub(crate) fn heads(instance: &Instance) -> Vec<u32> {
    heads_with(instance, &min_durations(instance))
}

/// [`heads`] over an explicit per-task min-duration vector.
#[must_use]
pub(crate) fn heads_with(instance: &Instance, min: &[u32]) -> Vec<u32> {
    let n = instance.num_tasks();
    let mut heads = vec![0u32; n];
    for &task in instance.topological_order() {
        let mut head = 0;
        for e in instance.incoming(task) {
            let via = match e.kind {
                EdgeKind::FinishToStart => heads[e.before.0] + min[e.before.0] + e.lag,
                EdgeKind::StartToStart => heads[e.before.0] + e.lag,
            };
            head = head.max(via);
        }
        heads[task.0] = head;
    }
    heads
}

/// Load bound per machine: tasks all of whose modes live on one machine
/// must serialize there.
#[must_use]
pub(crate) fn machine_load_bound(instance: &Instance) -> u32 {
    machine_load_with(instance, &min_durations(instance))
}

/// [`machine_load_bound`] over an explicit per-task min-duration vector.
#[must_use]
pub(crate) fn machine_load_with(instance: &Instance, min: &[u32]) -> u32 {
    let mut load = vec![0u64; instance.num_machines()];
    for (t, &min_duration) in min.iter().enumerate().take(instance.num_tasks()) {
        let modes = &instance.task(TaskId(t)).modes;
        let first_machine = modes[0].machine;
        if modes.iter().all(|m| m.machine == first_machine) {
            load[first_machine.0] += u64::from(min_duration);
        }
    }
    load.into_iter()
        .max()
        .map_or(0, |l| u32::try_from(l).unwrap_or(u32::MAX))
}

/// Resource-volume bound: total minimum resource-time volume divided by
/// the per-step capacity, rounded up.
fn volume_bound(total_volume: f64, cap: f64) -> u32 {
    if cap <= 0.0 {
        return 0;
    }
    let steps = (total_volume / cap).ceil();
    if steps >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        steps as u32
    }
}

/// Energy bound: every schedule must deliver each task's minimum energy
/// within the power budget.
#[must_use]
pub(crate) fn energy_bound(instance: &Instance) -> u32 {
    let Some(cap) = instance.power_cap() else {
        return 0;
    };
    let total: f64 = (0..instance.num_tasks())
        .map(|t| {
            instance
                .task(TaskId(t))
                .modes
                .iter()
                .map(|m| m.energy())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    volume_bound(total, cap)
}

/// Bandwidth-volume bound, analogous to [`energy_bound`].
#[must_use]
pub(crate) fn bandwidth_bound(instance: &Instance) -> u32 {
    let Some(cap) = instance.bandwidth_cap() else {
        return 0;
    };
    let total: f64 = (0..instance.num_tasks())
        .map(|t| {
            instance
                .task(TaskId(t))
                .modes
                .iter()
                .map(|m| m.bandwidth * f64::from(m.duration))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    volume_bound(total, cap)
}

/// Core-volume bound, analogous to [`energy_bound`].
#[must_use]
pub(crate) fn core_bound(instance: &Instance) -> u32 {
    let Some(cap) = instance.core_cap() else {
        return 0;
    };
    if cap == 0 {
        return 0;
    }
    let total: u64 = (0..instance.num_tasks())
        .map(|t| {
            instance
                .task(TaskId(t))
                .modes
                .iter()
                .map(|m| u64::from(m.cores) * u64::from(m.duration))
                .min()
                .unwrap_or(0)
        })
        .sum();
    u32::try_from(total.div_ceil(u64::from(cap))).unwrap_or(u32::MAX)
}

/// Volume bound for one user-defined resource.
#[must_use]
pub(crate) fn resource_bound(instance: &Instance, resource: ResourceId) -> u32 {
    let cap = instance.resources()[resource.0].1;
    let total: f64 = (0..instance.num_tasks())
        .map(|t| {
            instance
                .task(TaskId(t))
                .modes
                .iter()
                .map(|m| m.usage_of(resource) * f64::from(m.duration))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    volume_bound(total, cap)
}

/// The strongest available lower bound on the optimal makespan: the maximum
/// of the critical-path, machine-load, energy, bandwidth, core, and
/// user-defined resource bounds.
///
/// # Example
///
/// ```
/// use hilp_sched::{InstanceBuilder, Mode};
///
/// # fn main() -> Result<(), hilp_sched::SchedError> {
/// let mut builder = InstanceBuilder::new();
/// let cpu = builder.add_machine("cpu");
/// let a = builder.add_task("a", vec![Mode::on(cpu, 3)]);
/// let b = builder.add_task("b", vec![Mode::on(cpu, 4)]);
/// builder.add_precedence(a, b);
/// let instance = builder.build()?;
/// assert_eq!(hilp_sched::lower_bound(&instance), 7);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn lower_bound(instance: &Instance) -> u32 {
    let mut bound = critical_path_bound(instance)
        .max(machine_load_bound(instance))
        .max(energy_bound(instance))
        .max(bandwidth_bound(instance))
        .max(core_bound(instance));
    for r in 0..instance.resources().len() {
        bound = bound.max(resource_bound(instance, ResourceId(r)));
    }
    bound
}

/// Per-task minimum durations over the modes that remain *globally usable*
/// under a whole-schedule energy budget: mode `m` of task `t` is unusable
/// iff `energy(m) + Σ_{u≠t} min_energy(u) > cap` — even the cheapest
/// completion around it would blow the budget.
///
/// Returns `None` when the budget is below the sum of minimum energies
/// (no mode assignment is feasible at all).
#[must_use]
pub(crate) fn energy_capped_min_durations(instance: &Instance, cap: f64) -> Option<Vec<u32>> {
    let min_e = instance.per_task_min_energy();
    let total: f64 = min_e.iter().sum();
    if total > cap + 1e-9 {
        return None;
    }
    let durs = (0..instance.num_tasks())
        .map(|t| {
            // Energy head-room for task t with every other task at its
            // cheapest: at least min_e[t], so the min-energy mode always
            // remains usable.
            let slack = cap - (total - min_e[t]);
            instance
                .task(TaskId(t))
                .modes
                .iter()
                .filter(|m| m.energy() <= slack + 1e-9)
                .map(|m| m.duration)
                .min()
                .expect("the minimum-energy mode is always usable")
        })
        .collect();
    Some(durs)
}

/// The strongest lower bound on the optimal makespan under an optional
/// whole-schedule energy budget: [`lower_bound`] strengthened by re-running
/// the critical-path and machine-load bounds over energy-filtered minimum
/// durations. Falls back to [`lower_bound`] when the budget is absent or
/// infeasible (the caller reports infeasibility separately).
#[must_use]
pub fn lower_bound_with_energy_cap(instance: &Instance, cap: Option<f64>) -> u32 {
    let base = lower_bound(instance);
    let Some(cap) = cap else {
        return base;
    };
    if !cap.is_finite() {
        return base;
    }
    let Some(durs) = energy_capped_min_durations(instance, cap) else {
        return base;
    };
    base.max(critical_path_with(instance, &durs))
        .max(machine_load_with(instance, &durs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Mode};

    #[test]
    fn critical_path_follows_the_longest_chain() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t0 = b.add_task("a0", vec![Mode::on(cpu, 1)]);
        let t1 = b.add_task("a1", vec![Mode::on(cpu, 8), Mode::on(gpu, 5)]);
        let t2 = b.add_task("a2", vec![Mode::on(cpu, 1)]);
        b.add_precedence(t0, t1);
        b.add_precedence(t1, t2);
        let inst = b.build().unwrap();
        assert_eq!(critical_path_bound(&inst), 7); // 1 + min(8,5) + 1
    }

    #[test]
    fn heads_and_tails_are_consistent() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let t0 = b.add_task("a", vec![Mode::on(cpu, 2)]);
        let t1 = b.add_task("b", vec![Mode::on(cpu, 3)]);
        let t2 = b.add_task("c", vec![Mode::on(cpu, 4)]);
        b.add_precedence(t0, t1);
        b.add_precedence(t1, t2);
        let inst = b.build().unwrap();
        assert_eq!(heads(&inst), vec![0, 2, 5]);
        assert_eq!(tails(&inst), vec![9, 7, 4]);
        let _ = (t0, t1, t2);
    }

    #[test]
    fn machine_load_counts_pinned_tasks_only() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        b.add_task("pinned1", vec![Mode::on(cpu, 5)]);
        b.add_task("pinned2", vec![Mode::on(cpu, 6)]);
        b.add_task("flexible", vec![Mode::on(cpu, 9), Mode::on(gpu, 9)]);
        let inst = b.build().unwrap();
        assert_eq!(machine_load_bound(&inst), 11);
    }

    #[test]
    fn energy_bound_uses_minimum_energy_modes() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        // Min energies: 10 (gpu) and 12 (cpu); cap 4 W -> ceil(22/4) = 6.
        b.add_task(
            "a",
            vec![Mode::on(cpu, 10).power(2.0), Mode::on(gpu, 5).power(2.0)],
        );
        b.add_task("b", vec![Mode::on(cpu, 3).power(4.0)]);
        b.set_power_cap(4.0);
        let inst = b.build().unwrap();
        assert_eq!(energy_bound(&inst), 6);
    }

    #[test]
    fn bandwidth_bound_mirrors_energy_bound() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 4).bandwidth(50.0)]);
        b.set_bandwidth_cap(100.0);
        let inst = b.build().unwrap();
        assert_eq!(bandwidth_bound(&inst), 2);
    }

    #[test]
    fn core_bound_rounds_up() {
        let mut b = InstanceBuilder::new();
        let c0 = b.add_machine("cpu0");
        let c1 = b.add_machine("cpu1");
        b.add_task("a", vec![Mode::on(c0, 3).cores(2)]);
        b.add_task("b", vec![Mode::on(c1, 2).cores(1)]);
        b.set_core_cap(2);
        let inst = b.build().unwrap();
        // Volume 3*2 + 2*1 = 8, cap 2 -> 4 steps.
        assert_eq!(core_bound(&inst), 4);
    }

    #[test]
    fn lower_bound_is_the_max_of_components() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 2).power(10.0)]);
        b.add_task("b", vec![Mode::on(cpu, 2).power(10.0)]);
        b.set_power_cap(10.0);
        let inst = b.build().unwrap();
        // Critical path = 2, machine load = 4, energy = 40/10 = 4.
        assert_eq!(lower_bound(&inst), 4);
    }

    #[test]
    fn bounds_are_zero_for_empty_instances() {
        let b = InstanceBuilder::new();
        let inst = b.build().unwrap();
        assert_eq!(lower_bound(&inst), 0);
    }

    #[test]
    fn energy_cap_filters_hungry_fast_modes() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        // Task a: fast GPU mode costs 40, slow CPU mode costs 8.
        // Task b: only mode costs 6.
        b.add_task(
            "a",
            vec![Mode::on(cpu, 8).power(1.0), Mode::on(gpu, 2).power(20.0)],
        );
        b.add_task("b", vec![Mode::on(gpu, 3).power(2.0)]);
        let inst = b.build().unwrap();
        // Unconstrained: a can use the 2-step GPU mode, so only b's pinned
        // 3-step load binds.
        assert_eq!(lower_bound_with_energy_cap(&inst, None), 3);
        // Cap 20: the GPU mode for a needs 40 + 6 > 20, so a's min duration
        // becomes 8 and the machine-pinned b adds nothing beyond it.
        let capped = energy_capped_min_durations(&inst, 20.0).unwrap();
        assert_eq!(capped, vec![8, 3]);
        assert_eq!(lower_bound_with_energy_cap(&inst, Some(20.0)), 8);
        // Below the minimum total (8 + 6 = 14): infeasible.
        assert!(energy_capped_min_durations(&inst, 13.0).is_none());
        assert_eq!(
            lower_bound_with_energy_cap(&inst, Some(13.0)),
            lower_bound(&inst)
        );
    }
}
