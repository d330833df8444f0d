//! Machine pool state: which job runs where, and since when.

use fairsched_core::model::{ClusterInfo, JobId, MachineId, Time};

/// The runtime state of the machine pool: free machines and, for busy ones,
/// the running job and its start time.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// `running[m] = Some((job, start))` when machine `m` is busy.
    running: Vec<Option<(JobId, Time)>>,
    /// Free machine ids, kept sorted ascending so "first free machine" is
    /// deterministic.
    free: Vec<MachineId>,
}

impl Cluster {
    /// An all-idle cluster matching `info`.
    pub fn new(info: &ClusterInfo) -> Self {
        Cluster {
            running: vec![None; info.n_machines()],
            free: (0..info.n_machines()).map(|m| MachineId(m as u32)).collect(),
        }
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.running.len()
    }

    /// Currently free machines, ascending.
    pub fn free_machines(&self) -> &[MachineId] {
        &self.free
    }

    /// Whether any machine is free.
    pub fn has_free(&self) -> bool {
        !self.free.is_empty()
    }

    /// Number of busy machines.
    pub fn busy_count(&self) -> usize {
        self.running.len() - self.free.len()
    }

    /// Marks the `idx`-th free machine as running `job` from `t`; returns
    /// the machine id.
    ///
    /// # Panics
    /// Panics if `idx` is out of range of the free list.
    pub fn start(&mut self, idx: usize, job: JobId, t: Time) -> MachineId {
        let machine = self.free.remove(idx);
        debug_assert!(self.running[machine.index()].is_none());
        self.running[machine.index()] = Some((job, t));
        machine
    }

    /// Frees `machine`, returning the job that ran there and its start time.
    ///
    /// # Panics
    /// Panics if the machine was not busy.
    pub fn complete(&mut self, machine: MachineId) -> (JobId, Time) {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: the engine completes only busy machines"
        )]
        let slot =
            self.running[machine.index()].take().expect("completing an idle machine");
        // Keep the free list sorted.
        let pos = self.free.partition_point(|&m| m < machine);
        self.free.insert(pos, machine);
        slot
    }

    /// The job running on `machine`, if busy.
    pub fn running_on(&self, machine: MachineId) -> Option<(JobId, Time)> {
        self.running[machine.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(&ClusterInfo::new(vec![n]))
    }

    #[test]
    fn start_and_complete_roundtrip() {
        let mut c = cluster(3);
        assert_eq!(c.free_machines().len(), 3);
        let m = c.start(1, JobId(7), 5);
        assert_eq!(m, MachineId(1));
        assert_eq!(c.busy_count(), 1);
        assert_eq!(c.running_on(m), Some((JobId(7), 5)));
        let (job, start) = c.complete(m);
        assert_eq!((job, start), (JobId(7), 5));
        assert_eq!(c.busy_count(), 0);
    }

    #[test]
    fn free_list_stays_sorted() {
        let mut c = cluster(3);
        let m0 = c.start(0, JobId(0), 0);
        let m1 = c.start(0, JobId(1), 0);
        let _m2 = c.start(0, JobId(2), 0);
        assert!(!c.has_free());
        c.complete(m1);
        c.complete(m0);
        assert_eq!(c.free_machines(), &[MachineId(0), MachineId(1)]);
    }

    #[test]
    #[should_panic]
    fn completing_idle_machine_panics() {
        let mut c = cluster(1);
        c.complete(MachineId(0));
    }
}
