//! Adaptive Scheduling (§3.5): feedback-directed selection among five
//! prioritization policies for prefetch commands.

/// The five prioritization policies of §3.5, ordered from most to least
/// conservative. Each policy answers: *may a command from the Low Priority
/// Queue (LPQ) issue right now?*
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LpqPolicy {
    /// (1) Only if the CAQ is empty **and** the reorder queues are empty.
    /// Roughly the Scheduled Region Prefetching prioritizer of Lin et al.
    CaqEmptyReorderEmpty,
    /// (2) Only if the CAQ is empty and the reorder queues hold no issuable
    /// command.
    CaqEmptyNoIssuable,
    /// (3) Only if the CAQ is empty.
    CaqEmpty,
    /// (4) If the CAQ has at most one entry and the LPQ is full.
    CaqAlmostEmptyLpqFull,
    /// (5) If the oldest LPQ entry is older than the oldest CAQ entry.
    LpqOlder,
}

impl LpqPolicy {
    /// All policies, most conservative first.
    pub const ALL: [LpqPolicy; 5] = [
        LpqPolicy::CaqEmptyReorderEmpty,
        LpqPolicy::CaqEmptyNoIssuable,
        LpqPolicy::CaqEmpty,
        LpqPolicy::CaqAlmostEmptyLpqFull,
        LpqPolicy::LpqOlder,
    ];

    /// Policy number as in the paper (1 = most conservative).
    pub fn number(self) -> usize {
        match self {
            LpqPolicy::CaqEmptyReorderEmpty => 1,
            LpqPolicy::CaqEmptyNoIssuable => 2,
            LpqPolicy::CaqEmpty => 3,
            LpqPolicy::CaqAlmostEmptyLpqFull => 4,
            LpqPolicy::LpqOlder => 5,
        }
    }

    /// Decide whether an LPQ command may issue under this policy given the
    /// current queue state.
    ///
    /// The five policies are listed in the paper in order of *decreasing
    /// conservativeness*, so each policy is a cumulative relaxation: policy
    /// `k` permits issue whenever the raw condition of *any* policy
    /// `1..=k` holds. (Conditions 1–3 are already nested — an empty reorder
    /// queue has no issuable commands, which in turn only matters with an
    /// empty CAQ — so cumulativity only adds opportunities at 4 and 5.)
    pub fn allows(self, view: QueueView) -> bool {
        if view.lpq_len == 0 {
            return false;
        }
        let n = self.number();
        Self::ALL[..n].iter().any(|p| p.raw_condition(view))
    }

    /// The raw (non-cumulative) condition of this policy.
    fn raw_condition(self, view: QueueView) -> bool {
        match self {
            LpqPolicy::CaqEmptyReorderEmpty => view.caq_len == 0 && view.reorder_len == 0,
            LpqPolicy::CaqEmptyNoIssuable => view.caq_len == 0 && view.reorder_issuable == 0,
            LpqPolicy::CaqEmpty => view.caq_len == 0,
            LpqPolicy::CaqAlmostEmptyLpqFull => {
                view.caq_len <= 1 && view.lpq_len >= view.lpq_capacity
            }
            LpqPolicy::LpqOlder => match (view.lpq_head_ts, view.caq_head_ts) {
                (Some(l), Some(c)) => l < c,
                (Some(_), None) => true,
                _ => false,
            },
        }
    }
}

/// Snapshot of memory-controller queue state used for LPQ issue decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueView {
    /// Commands currently in the Centralized Arbiter Queue.
    pub caq_len: usize,
    /// Commands currently in the Low Priority Queue.
    pub lpq_len: usize,
    /// LPQ capacity.
    pub lpq_capacity: usize,
    /// Commands in the read/write reorder queues.
    pub reorder_len: usize,
    /// Reorder-queue commands that could issue to the CAQ this cycle.
    pub reorder_issuable: usize,
    /// Arrival timestamp of the oldest LPQ entry, if any.
    pub lpq_head_ts: Option<u64>,
    /// Arrival timestamp of the oldest CAQ entry, if any.
    pub caq_head_ts: Option<u64>,
}

impl QueueView {
    /// A view of completely empty queues.
    pub fn empty(lpq_capacity: usize) -> Self {
        QueueView {
            caq_len: 0,
            lpq_len: 0,
            lpq_capacity,
            reorder_len: 0,
            reorder_issuable: 0,
            lpq_head_ts: None,
            caq_head_ts: None,
        }
    }
}

crate::counters! {
    /// Counters for the adaptive scheduler.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SchedulerStats {
        /// Total prefetch-induced conflicts observed.
        pub conflicts: u64 => (Events, "prefetch-induced conflicts seen by Adaptive Scheduling"),
        /// Number of times the policy moved toward conservative.
        pub tightened: u64 => (Events, "policy steps toward conservative"),
        /// Number of times the policy moved toward aggressive.
        pub loosened: u64 => (Events, "policy steps toward aggressive"),
    }
}

/// Adaptive Scheduling: tracks how often a regular command was blocked by a
/// previously issued prefetch command and, at every epoch boundary, moves
/// one step along the conservativeness scale — more conservative when
/// conflicts grew since the previous epoch, less conservative when they
/// shrank (§3.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveScheduler {
    /// Index into [`LpqPolicy::ALL`].
    level: usize,
    conflicts_this_epoch: u64,
    conflicts_last_epoch: u64,
    stats: SchedulerStats,
}

impl Default for AdaptiveScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveScheduler {
    /// Start at the middle policy (3), with room to adapt both ways.
    pub fn new() -> Self {
        AdaptiveScheduler {
            level: 2,
            conflicts_this_epoch: 0,
            conflicts_last_epoch: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// Start pinned at a specific policy (used for the fixed-policy bars of
    /// Figure 11, and for tests).
    pub fn starting_at(policy: LpqPolicy) -> Self {
        AdaptiveScheduler {
            level: policy.number() - 1,
            conflicts_this_epoch: 0,
            conflicts_last_epoch: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// The policy currently in force.
    pub fn policy(&self) -> LpqPolicy {
        LpqPolicy::ALL[self.level]
    }

    /// May an LPQ command issue right now?
    pub fn allows(&self, view: QueueView) -> bool {
        self.policy().allows(view)
    }

    /// Record that a regular command could not proceed to the CAQ because it
    /// conflicted in the memory system with an in-flight prefetch command.
    pub fn record_conflict(&mut self) {
        self.conflicts_this_epoch += 1;
        self.stats.conflicts += 1;
    }

    /// Epoch boundary: adapt the policy one step based on the conflict
    /// trend, then reset the per-epoch counter.
    pub fn on_epoch_end(&mut self) {
        use std::cmp::Ordering;
        match self.conflicts_this_epoch.cmp(&self.conflicts_last_epoch) {
            Ordering::Greater => {
                if self.level > 0 {
                    self.level -= 1;
                    self.stats.tightened += 1;
                }
            }
            Ordering::Less => {
                if self.level + 1 < LpqPolicy::ALL.len() {
                    self.level += 1;
                    self.stats.loosened += 1;
                }
            }
            Ordering::Equal => {
                // Zero conflicts two epochs running: safe to loosen.
                if self.conflicts_this_epoch == 0 && self.level + 1 < LpqPolicy::ALL.len() {
                    self.level += 1;
                    self.stats.loosened += 1;
                }
            }
        }
        self.conflicts_last_epoch = self.conflicts_this_epoch;
        self.conflicts_this_epoch = 0;
    }

    /// Counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Conflicts recorded so far in the current epoch.
    pub fn conflicts_this_epoch(&self) -> u64 {
        self.conflicts_this_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> QueueView {
        QueueView::empty(3)
    }

    #[test]
    fn numbers_follow_all_order() {
        for (i, p) in LpqPolicy::ALL.iter().enumerate() {
            assert_eq!(p.number(), i + 1);
        }
    }

    #[test]
    fn empty_lpq_never_issues() {
        for p in LpqPolicy::ALL {
            assert!(!p.allows(view()), "{p:?}");
        }
    }

    #[test]
    fn policy_numbers_match_paper() {
        assert_eq!(LpqPolicy::CaqEmptyReorderEmpty.number(), 1);
        assert_eq!(LpqPolicy::LpqOlder.number(), 5);
    }

    #[test]
    fn policy1_requires_totally_idle() {
        let mut v = view();
        v.lpq_len = 1;
        v.lpq_head_ts = Some(5);
        assert!(LpqPolicy::CaqEmptyReorderEmpty.allows(v));
        v.reorder_len = 1;
        assert!(!LpqPolicy::CaqEmptyReorderEmpty.allows(v));
        // Policy 2 tolerates non-issuable reorder entries.
        assert!(LpqPolicy::CaqEmptyNoIssuable.allows(v));
        v.reorder_issuable = 1;
        assert!(!LpqPolicy::CaqEmptyNoIssuable.allows(v));
        // Policy 3 only looks at the CAQ.
        assert!(LpqPolicy::CaqEmpty.allows(v));
        v.caq_len = 1;
        assert!(!LpqPolicy::CaqEmpty.allows(v));
    }

    #[test]
    fn policy4_needs_full_lpq() {
        let mut v = view();
        v.caq_len = 1;
        v.lpq_len = 2;
        assert!(!LpqPolicy::CaqAlmostEmptyLpqFull.allows(v));
        v.lpq_len = 3; // capacity 3
        assert!(LpqPolicy::CaqAlmostEmptyLpqFull.allows(v));
        v.caq_len = 2;
        assert!(!LpqPolicy::CaqAlmostEmptyLpqFull.allows(v));
    }

    #[test]
    fn policy5_compares_timestamps() {
        let mut v = view();
        v.lpq_len = 1;
        v.caq_len = 1;
        v.lpq_head_ts = Some(10);
        v.caq_head_ts = Some(20);
        assert!(LpqPolicy::LpqOlder.allows(v));
        v.caq_head_ts = Some(5);
        assert!(!LpqPolicy::LpqOlder.allows(v));
        v.caq_head_ts = None;
        assert!(LpqPolicy::LpqOlder.allows(v), "empty CAQ: LPQ entry is oldest");
    }

    #[test]
    fn conservativeness_is_ordered() {
        // Any state allowed by a more conservative policy is allowed by
        // every less conservative one (the policies are cumulative
        // relaxations).
        let mut v = view();
        v.lpq_len = 1;
        v.lpq_head_ts = Some(1);
        for p in LpqPolicy::ALL {
            assert!(p.allows(v), "{p:?} allows the fully idle state");
        }
        // A state only policy 3 raw-allows is allowed by 4 and 5 too.
        let mut v = view();
        v.lpq_len = 1;
        v.lpq_head_ts = Some(100);
        v.reorder_len = 2;
        v.reorder_issuable = 1;
        assert!(!LpqPolicy::CaqEmptyNoIssuable.allows(v));
        assert!(LpqPolicy::CaqEmpty.allows(v));
        assert!(LpqPolicy::CaqAlmostEmptyLpqFull.allows(v));
        assert!(LpqPolicy::LpqOlder.allows(v));
    }

    #[test]
    fn adapts_toward_conservative_on_growing_conflicts() {
        let mut s = AdaptiveScheduler::new();
        assert_eq!(s.policy(), LpqPolicy::CaqEmpty);
        s.record_conflict();
        s.record_conflict();
        s.on_epoch_end();
        assert_eq!(s.policy(), LpqPolicy::CaqEmptyNoIssuable);
        for _ in 0..5 {
            s.record_conflict();
        }
        s.on_epoch_end();
        assert_eq!(s.policy(), LpqPolicy::CaqEmptyReorderEmpty);
        // Already at most conservative; more conflicts keep it pinned.
        for _ in 0..9 {
            s.record_conflict();
        }
        s.on_epoch_end();
        assert_eq!(s.policy(), LpqPolicy::CaqEmptyReorderEmpty);
    }

    #[test]
    fn adapts_toward_aggressive_on_shrinking_conflicts() {
        let mut s = AdaptiveScheduler::new();
        for _ in 0..10 {
            s.record_conflict();
        }
        s.on_epoch_end(); // 10 > 0: tighten to policy 2
        s.on_epoch_end(); // 0 < 10: loosen back to 3
        assert_eq!(s.policy(), LpqPolicy::CaqEmpty);
        s.on_epoch_end(); // 0 == 0 and zero: loosen to 4
        s.on_epoch_end(); // loosen to 5
        s.on_epoch_end(); // pinned at 5
        assert_eq!(s.policy(), LpqPolicy::LpqOlder);
    }

    #[test]
    fn stats_track_movements() {
        let mut s = AdaptiveScheduler::new();
        s.record_conflict();
        s.on_epoch_end();
        s.on_epoch_end();
        let st = s.stats();
        assert_eq!(st.conflicts, 1);
        assert_eq!(st.tightened, 1);
        assert_eq!(st.loosened, 1);
    }

    #[test]
    fn starting_at_pins_initial_policy() {
        let s = AdaptiveScheduler::starting_at(LpqPolicy::LpqOlder);
        assert_eq!(s.policy(), LpqPolicy::LpqOlder);
    }
}
