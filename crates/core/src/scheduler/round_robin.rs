//! The ROUNDROBIN baseline: cycle through organizations.

use super::{Scheduler, SelectContext};
use crate::model::{ClusterInfo, OrgId};

/// Cycles through the organization list to determine whose job starts next
/// (Section 7.1). Not fairness-aware: it ignores both machine contributions
/// and accumulated utilities, which is why the paper uses it as the
/// "arbitrary algorithm" lower bar.
#[derive(Clone, Debug, Default)]
pub struct RoundRobinScheduler {
    next: usize,
    n_orgs: usize,
}

impl RoundRobinScheduler {
    /// A fresh round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> String {
        "RoundRobin".into()
    }

    fn init(&mut self, info: &ClusterInfo) {
        self.n_orgs = info.n_orgs();
        self.next = 0;
    }

    #[expect(clippy::panic, reason = "`select` is called only with a waiting job")]
    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
        debug_assert_eq!(ctx.waiting.len(), self.n_orgs);
        for off in 0..self.n_orgs {
            let u = (self.next + off) % self.n_orgs;
            if ctx.waiting[u] > 0 {
                self.next = (u + 1) % self.n_orgs;
                return OrgId(u as u32);
            }
        }
        panic!("select called with no waiting jobs");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(waiting: &[usize]) -> SelectContext<'_> {
        SelectContext { t: 0, waiting, free_machines: &[] }
    }

    #[test]
    fn cycles_through_orgs() {
        let mut s = RoundRobinScheduler::new();
        s.init(&ClusterInfo::new(vec![1, 1, 1]));
        let w = [1usize, 1, 1];
        assert_eq!(s.select(&ctx(&w)), OrgId(0));
        assert_eq!(s.select(&ctx(&w)), OrgId(1));
        assert_eq!(s.select(&ctx(&w)), OrgId(2));
        assert_eq!(s.select(&ctx(&w)), OrgId(0));
    }

    #[test]
    fn skips_empty_orgs() {
        let mut s = RoundRobinScheduler::new();
        s.init(&ClusterInfo::new(vec![1, 1, 1]));
        let w = [0usize, 0, 3];
        assert_eq!(s.select(&ctx(&w)), OrgId(2));
        assert_eq!(s.select(&ctx(&w)), OrgId(2));
        // Pointer advanced past org 2, wraps around.
        let w2 = [1usize, 0, 1];
        assert_eq!(s.select(&ctx(&w2)), OrgId(0));
    }

    #[test]
    #[should_panic]
    fn panics_with_nothing_waiting() {
        let mut s = RoundRobinScheduler::new();
        s.init(&ClusterInfo::new(vec![1]));
        let w = [0usize];
        let _ = s.select(&ctx(&w));
    }
}
