//! Fair multi-tenant scheduling.
//!
//! Every free scheduler worker runs one preemption quantum of one work
//! unit and comes back for more, so fairness is entirely a question of
//! *which job the next free worker takes*. [`FairQueue`] answers it with
//! two-level round-robin:
//!
//! - **Across tenants**: tenants take turns. A tenant that just ran
//!   rotates to the back, so one tenant's 10,000-job sweep cannot starve
//!   another's single run — the single run waits behind at most one
//!   quantum per competing tenant.
//! - **Within a tenant**: that tenant's jobs also take turns, so two
//!   sweeps from the same tenant interleave instead of running serially.
//!
//! The queue holds job ids only; all job state lives with the server.
//! A job is in it at most once, while it has a slice to give: the server
//! re-pushes a job at its pick if another of its units can run — which is
//! how a job alone gets every free worker, one pick and one quantum each
//! — and after a slice pauses or a commit frees room for its next unit.
//! A re-push lands at the back of the job's tenant ring, so fairness
//! stays one quantum per pick however many units of a job run at once.

use std::collections::VecDeque;

/// Two-level round-robin queue of job ids, fair across tenants.
#[derive(Debug, Default)]
pub struct FairQueue {
    /// Tenant rotation order; front goes next.
    tenants: VecDeque<String>,
    /// Per-tenant job rotation, parallel to `tenants`.
    jobs: Vec<VecDeque<String>>,
}

impl FairQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total queued job entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.iter().map(VecDeque::len).sum()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.iter().all(VecDeque::is_empty)
    }

    /// Per-tenant queue depths, in current rotation order (drained
    /// tenants awaiting pruning report 0). Feeds the status surface and
    /// the per-tenant queue-depth gauges.
    #[must_use]
    pub fn tenant_depths(&self) -> Vec<(String, usize)> {
        self.tenants
            .iter()
            .zip(&self.jobs)
            .map(|(t, ring)| (t.clone(), ring.len()))
            .collect()
    }

    /// `tenant`'s queue depth; 0 when it is not in rotation.
    #[must_use]
    pub fn depth(&self, tenant: &str) -> usize {
        let slot = self.tenants.iter().position(|t| t == tenant);
        slot.map_or(0, |i| self.jobs[i].len())
    }

    /// Queues `job` for `tenant`. A tenant not currently in rotation
    /// joins at the back; an existing tenant keeps its turn position
    /// (late arrivals don't jump the line).
    pub fn push(&mut self, tenant: &str, job: impl Into<String>) {
        match self.tenants.iter().position(|t| t == tenant) {
            Some(i) => self.jobs[i].push_back(job.into()),
            None => {
                self.tenants.push_back(tenant.to_owned());
                self.jobs.push(VecDeque::from([job.into()]));
            }
        }
    }

    /// Pops the next job id to run: the front tenant's front job. That
    /// tenant rotates to the back of the tenant ring (and the job, if
    /// re-pushed after a pause, to the back of the tenant's ring), so
    /// both levels advance one turn per call.
    pub fn pop(&mut self) -> Option<String> {
        // Skip tenants whose rings have drained; drop them from rotation.
        while let Some(tenant) = self.tenants.pop_front() {
            let mut ring = self.jobs.remove(0);
            if let Some(job) = ring.pop_front() {
                // Back of the rotation, even with an emptied ring: a
                // re-push (paused slice) then lands in the tenant's
                // existing turn slot instead of resetting its position.
                // A ring still empty on the next pass is pruned here.
                self.tenants.push_back(tenant);
                self.jobs.push(ring);
                return Some(job);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut FairQueue) -> Vec<String> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn single_tenant_is_fifo_rotation() {
        let mut q = FairQueue::new();
        q.push("a", "j1");
        q.push("a", "j2");
        q.push("a", "j3");
        assert_eq!(drain(&mut q), ["j1", "j2", "j3"]);
        assert!(q.is_empty());
    }

    #[test]
    fn tenants_interleave() {
        let mut q = FairQueue::new();
        q.push("a", "a1");
        q.push("a", "a2");
        q.push("b", "b1");
        q.push("b", "b2");
        assert_eq!(drain(&mut q), ["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn big_sweep_cannot_starve_late_arrival() {
        let mut q = FairQueue::new();
        for i in 0..100 {
            q.push("hog", format!("h{i}"));
        }
        assert_eq!(q.pop().unwrap(), "h0");
        // A second tenant shows up mid-sweep: it waits at most one more
        // hog turn, then the rotation alternates.
        q.push("guest", "g1");
        assert_eq!(q.pop().unwrap(), "h1");
        assert_eq!(q.pop().unwrap(), "g1");
        assert_eq!(q.pop().unwrap(), "h2");
        assert_eq!(q.len(), 97);
    }

    #[test]
    fn repush_after_pause_keeps_rotating() {
        let mut q = FairQueue::new();
        q.push("a", "a1");
        q.push("b", "b1");
        // a1 runs a quantum, pauses, re-queues; b1 must go next.
        let j = q.pop().unwrap();
        assert_eq!(j, "a1");
        q.push("a", j);
        assert_eq!(q.pop().unwrap(), "b1");
        assert_eq!(q.pop().unwrap(), "a1");
        assert!(q.pop().is_none());
    }

    #[test]
    fn tenant_depths_track_rings() {
        let mut q = FairQueue::new();
        q.push("a", "a1");
        q.push("a", "a2");
        q.push("b", "b1");
        assert_eq!(
            q.tenant_depths(),
            [("a".to_string(), 2), ("b".to_string(), 1)]
        );
        q.pop();
        let depths: std::collections::BTreeMap<_, _> = q.tenant_depths().into_iter().collect();
        assert_eq!(depths["a"], 1);
        assert_eq!(depths["b"], 1);
        assert_eq!((q.depth("a"), q.depth("b"), q.depth("nobody")), (1, 1, 0));
    }

    /// splitmix64: deterministic pseudo-randomness for the churn test.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The fairness bound under churn: when a tenant *not currently in
    /// rotation* pushes a job, at most one job from every other tenant
    /// in rotation runs before that job — the newcomer waits at most one
    /// full turn of the ring, no matter how deep the other rings are.
    #[test]
    fn churn_newcomer_waits_at_most_one_turn() {
        let mut seed = 0xD5A1_C0DE;
        for round in 0..50u32 {
            let mut q = FairQueue::new();
            // Random standing population: tenants t0..t5, random depths.
            let tenants = 2 + (splitmix64(&mut seed) % 4) as usize;
            for t in 0..tenants {
                let depth = 1 + (splitmix64(&mut seed) % 5) as usize;
                for j in 0..depth {
                    q.push(&format!("t{t}"), format!("t{t}-j{j}"));
                }
            }
            // Random churn: pops (tenants leave as rings drain) and
            // re-pushes (paused slices re-queue).
            for _ in 0..(splitmix64(&mut seed) % 20) {
                if splitmix64(&mut seed) % 3 == 0 {
                    if let Some(j) = q.pop() {
                        let tenant = j.split('-').next().unwrap().to_owned();
                        q.push(&tenant, j);
                    }
                } else {
                    q.pop();
                }
            }
            // A new tenant arrives mid-stream.
            let in_rotation: usize = q
                .tenant_depths()
                .iter()
                .filter(|(_, depth)| *depth > 0)
                .count();
            q.push("newcomer", "n-j0");
            let mut other_jobs_before = 0usize;
            loop {
                let Some(j) = q.pop() else {
                    panic!("round {round}: newcomer's job never surfaced");
                };
                if j == "n-j0" {
                    break;
                }
                other_jobs_before += 1;
            }
            assert!(
                other_jobs_before <= in_rotation,
                "round {round}: newcomer waited behind {other_jobs_before} jobs \
                 with only {in_rotation} tenants in rotation"
            );
        }
    }

    #[test]
    fn same_tenant_jobs_interleave() {
        let mut q = FairQueue::new();
        q.push("a", "sweep1-u0");
        q.push("a", "sweep2-u0");
        let first = q.pop().unwrap();
        q.push("a", first.clone());
        let second = q.pop().unwrap();
        assert_ne!(first, second, "two jobs of one tenant take turns");
    }
}
