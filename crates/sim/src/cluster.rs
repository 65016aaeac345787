//! The machine model: capacity and outages.
//!
//! The cluster tracks how many processors exist and how many are currently
//! lost to outages. The simulator enforces the capacity constraint
//! `Σ procs·share ≤ available`. Advance reservations (the mechanism Section
//! 3.1 says metacomputing needs from local schedulers) live in the
//! metasystem's books, which are `psbench_sched::StepVec`s.

use serde::{Deserialize, Serialize};

/// The cluster's time-varying capacity state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Total number of processors in the machine.
    pub total_procs: u32,
    /// Processors currently unavailable due to outages.
    pub down_procs: u32,
}

impl Cluster {
    /// A healthy cluster with the given number of processors.
    pub fn new(total_procs: u32) -> Self {
        assert!(total_procs > 0, "cluster must have at least one processor");
        Cluster {
            total_procs,
            down_procs: 0,
        }
    }

    /// Processors currently available for scheduling (total minus down).
    pub fn available_procs(&self) -> u32 {
        self.total_procs.saturating_sub(self.down_procs)
    }

    /// Record an outage taking down `procs` processors (clamped to what is still up).
    /// Returns the number actually taken down.
    pub fn take_down(&mut self, procs: u32) -> u32 {
        let actually = procs.min(self.available_procs());
        self.down_procs += actually;
        actually
    }

    /// Restore `procs` processors after an outage ends (clamped to what is down).
    pub fn bring_up(&mut self, procs: u32) -> u32 {
        let actually = procs.min(self.down_procs);
        self.down_procs -= actually;
        actually
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() {
        let mut c = Cluster::new(128);
        assert_eq!(c.available_procs(), 128);
        assert_eq!(c.take_down(32), 32);
        assert_eq!(c.available_procs(), 96);
        // taking down more than exists is clamped
        assert_eq!(c.take_down(500), 96);
        assert_eq!(c.available_procs(), 0);
        assert_eq!(c.bring_up(64), 64);
        assert_eq!(c.available_procs(), 64);
        assert_eq!(c.bring_up(1000), 64);
        assert_eq!(c.available_procs(), 128);
    }

    #[test]
    #[should_panic]
    fn zero_size_cluster_rejected() {
        Cluster::new(0);
    }
}
