//! Deterministic engine event queue (the `sched = Event` timer wheel).
//!
//! Management work in the epoch engine is periodic and mostly idle between
//! firings: coordinated scans wake every `scan_interval`, the guest LRU's
//! reclaim window every `stats_window`, demand-prioritization statistics
//! every `stats_window`, persistence flush epochs and fault-plan arm times
//! every epoch while armed. The dense scheduler re-evaluates every
//! subsystem's guard every epoch; the event scheduler instead keeps the
//! next deadline of each subsystem in a priority queue and lets `step()`
//! skip the management phase entirely when nothing is due.
//!
//! Determinism rules (DESIGN.md §13):
//!
//! * the queue is a `BinaryHeap` keyed by `(Nanos, seq)` where `seq` is a
//!   monotone insertion counter — **ties break by insertion order, never by
//!   hash or address**, so a replay with the same arm sequence pops the
//!   same order;
//! * re-arming an event supersedes its previous deadline *lazily*: the old
//!   heap entry stays but is recognised as stale on pop (its deadline no
//!   longer matches the armed deadline recorded for the slot) and dropped
//!   without firing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hetero_sim::Nanos;

/// One kind of deadline the epoch engine waits on.
///
/// The discriminants are slot indices into the armed-deadline table, so
/// each event kind has at most one *live* deadline at a time (re-arming
/// supersedes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineEvent {
    /// A hotness-tracking scan is due (`next_scan`).
    Scan = 0,
    /// The guest LRU's lazy-reclaim window is due (`next_demote`).
    Reclaim = 1,
    /// The demand-prioritization statistics window rolls (`next_window`).
    StatsWindow = 2,
    /// A persistence flush epoch (write-behind to the NVM tier).
    PersistFlush = 3,
    /// The workload advances a phase (one epoch of demand).
    PhaseChange = 4,
    /// The fault plan must be consulted (arm times, storms, crashes).
    FaultArm = 5,
}

/// Number of event slots.
const SLOTS: usize = 6;

impl EngineEvent {
    /// All event kinds, in slot order.
    pub const ALL: [EngineEvent; SLOTS] = [
        EngineEvent::Scan,
        EngineEvent::Reclaim,
        EngineEvent::StatsWindow,
        EngineEvent::PersistFlush,
        EngineEvent::PhaseChange,
        EngineEvent::FaultArm,
    ];

    #[inline]
    fn slot(self) -> usize {
        self as usize
    }

    /// Is this one of the management deadlines (scan / reclaim / stats)
    /// that gate the epoch engine's management phase, as opposed to the
    /// per-epoch carriers (phase change, persistence, fault arm)?
    pub fn is_management(self) -> bool {
        matches!(
            self,
            EngineEvent::Scan | EngineEvent::Reclaim | EngineEvent::StatsWindow
        )
    }
}

/// A deterministic single-owner timer queue over [`EngineEvent`]s.
///
/// # Examples
///
/// ```
/// use hetero_core::eventq::{EngineEvent, EventQueue};
/// use hetero_sim::Nanos;
///
/// let mut q = EventQueue::new();
/// q.arm(EngineEvent::Scan, Nanos::from_millis(100));
/// q.arm(EngineEvent::Reclaim, Nanos::from_millis(100));
/// assert_eq!(q.next_deadline(), Some(Nanos::from_millis(100)));
/// // Ties pop in insertion order.
/// assert_eq!(q.pop_due(Nanos::from_millis(100)), Some(EngineEvent::Scan));
/// assert_eq!(q.pop_due(Nanos::from_millis(100)), Some(EngineEvent::Reclaim));
/// assert_eq!(q.pop_due(Nanos::from_millis(100)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    /// Min-heap of `(deadline, seq, event)`; `seq` makes equal deadlines
    /// pop in arm order.
    heap: BinaryHeap<Reverse<(Nanos, u64, EngineEvent)>>,
    /// The live deadline per event slot; heap entries that disagree are
    /// stale and dropped on pop.
    armed: [Option<Nanos>; SLOTS],
    /// Monotone insertion counter.
    seq: u64,
    /// Events genuinely popped (stale drops excluded).
    fired: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Arms (or re-arms) `ev` to fire at `at`. Re-arming with the deadline
    /// already recorded is a no-op; a different deadline supersedes the old
    /// one, which is dropped lazily on pop.
    pub fn arm(&mut self, ev: EngineEvent, at: Nanos) {
        if self.armed[ev.slot()] == Some(at) {
            return;
        }
        self.armed[ev.slot()] = Some(at);
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }

    /// Disarms `ev`; a pending heap entry is dropped lazily on pop.
    pub fn disarm(&mut self, ev: EngineEvent) {
        self.armed[ev.slot()] = None;
    }

    /// The live deadline of `ev`, if armed.
    pub fn deadline(&self, ev: EngineEvent) -> Option<Nanos> {
        self.armed[ev.slot()]
    }

    /// Is `ev` armed with a deadline at or before `now`?
    pub fn due(&self, ev: EngineEvent, now: Nanos) -> bool {
        self.armed[ev.slot()].is_some_and(|t| t <= now)
    }

    /// The earliest live deadline across all armed events.
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.armed.iter().flatten().min().copied()
    }

    /// Is any armed event due at or before `now`?
    pub fn any_due(&self, now: Nanos) -> bool {
        self.next_deadline().is_some_and(|t| t <= now)
    }

    /// Pops the earliest event whose live deadline is at or before `now`,
    /// disarming it. Stale heap entries (superseded or disarmed) are
    /// discarded along the way. Returns `None` when nothing is due.
    pub fn pop_due(&mut self, now: Nanos) -> Option<EngineEvent> {
        while let Some(&Reverse((at, _, ev))) = self.heap.peek() {
            if at > now {
                return None;
            }
            self.heap.pop();
            if self.armed[ev.slot()] == Some(at) {
                self.armed[ev.slot()] = None;
                self.fired += 1;
                return Some(ev);
            }
            // Stale: superseded by a later arm or disarmed. Drop silently.
        }
        None
    }

    /// Events genuinely fired (popped live) since creation.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Live armed events (heap may additionally hold stale entries).
    pub fn armed_len(&self) -> usize {
        self.armed.iter().flatten().count()
    }
}

hetero_sim::impl_snap!(enum EngineEvent {
    0 => Scan {},
    1 => Reclaim {},
    2 => StatsWindow {},
    3 => PersistFlush {},
    4 => PhaseChange {},
    5 => FaultArm {},
});

impl hetero_sim::snap::Snap for EventQueue {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        // Dump the heap ascending by (deadline, seq): `seq` is unique per
        // entry, so the order is total and a heap rebuilt from the same
        // entries pops identically. Stale (superseded) entries are
        // preserved deliberately — their lazy drops still cost pops after
        // a restore, exactly as they would have in the original run.
        let mut entries: Vec<(Nanos, u64, EngineEvent)> =
            self.heap.iter().map(|&Reverse(e)| e).collect();
        entries.sort_unstable();
        entries.snap(w);
        self.armed.snap(w);
        self.seq.snap(w);
        self.fired.snap(w);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        use hetero_sim::snap::Snap;
        let entries: Vec<(Nanos, u64, EngineEvent)> = Snap::unsnap(r)?;
        Ok(EventQueue {
            heap: entries.into_iter().map(Reverse).collect(),
            armed: Snap::unsnap(r)?,
            seq: Snap::unsnap(r)?,
            fired: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(ms: u64) -> Nanos {
        Nanos::from_millis(ms)
    }

    #[test]
    fn ties_pop_in_insertion_order_not_enum_order() {
        let mut q = EventQueue::new();
        // Arm in reverse enum order; pops must follow arm order.
        q.arm(EngineEvent::FaultArm, ns(5));
        q.arm(EngineEvent::StatsWindow, ns(5));
        q.arm(EngineEvent::Scan, ns(5));
        assert_eq!(q.pop_due(ns(5)), Some(EngineEvent::FaultArm));
        assert_eq!(q.pop_due(ns(5)), Some(EngineEvent::StatsWindow));
        assert_eq!(q.pop_due(ns(5)), Some(EngineEvent::Scan));
        assert_eq!(q.pop_due(ns(5)), None);
        assert_eq!(q.fired(), 3);
    }

    #[test]
    fn not_due_until_deadline() {
        let mut q = EventQueue::new();
        q.arm(EngineEvent::Scan, ns(100));
        assert!(!q.any_due(ns(99)));
        assert_eq!(q.pop_due(ns(99)), None);
        assert!(q.due(EngineEvent::Scan, ns(100)));
        assert_eq!(q.pop_due(ns(100)), Some(EngineEvent::Scan));
        assert!(!q.due(EngineEvent::Scan, ns(100)), "pop disarms");
    }

    #[test]
    fn rearm_supersedes_and_stale_entry_is_dropped() {
        let mut q = EventQueue::new();
        q.arm(EngineEvent::Reclaim, ns(10));
        q.arm(EngineEvent::Reclaim, ns(20)); // supersedes
        assert_eq!(q.deadline(EngineEvent::Reclaim), Some(ns(20)));
        // The stale ns(10) entry must not fire at 10.
        assert_eq!(q.pop_due(ns(10)), None);
        assert_eq!(q.pop_due(ns(19)), None);
        assert_eq!(q.pop_due(ns(20)), Some(EngineEvent::Reclaim));
        assert_eq!(q.fired(), 1, "only the live entry fires");
    }

    #[test]
    fn rearm_same_deadline_is_idempotent() {
        let mut q = EventQueue::new();
        q.arm(EngineEvent::Scan, ns(7));
        q.arm(EngineEvent::Scan, ns(7));
        q.arm(EngineEvent::Scan, ns(7));
        assert_eq!(q.pop_due(ns(7)), Some(EngineEvent::Scan));
        assert_eq!(q.pop_due(ns(7)), None, "no duplicate fire");
    }

    #[test]
    fn disarm_cancels_a_pending_fire() {
        let mut q = EventQueue::new();
        q.arm(EngineEvent::PersistFlush, ns(3));
        q.disarm(EngineEvent::PersistFlush);
        assert_eq!(q.next_deadline(), None);
        assert_eq!(q.pop_due(ns(1000)), None);
        assert_eq!(q.fired(), 0);
    }

    #[test]
    fn next_deadline_tracks_the_minimum_live_entry() {
        let mut q = EventQueue::new();
        q.arm(EngineEvent::Scan, ns(30));
        q.arm(EngineEvent::Reclaim, ns(10));
        q.arm(EngineEvent::StatsWindow, ns(20));
        assert_eq!(q.next_deadline(), Some(ns(10)));
        q.arm(EngineEvent::Reclaim, ns(40)); // re-arm past the others
        assert_eq!(q.next_deadline(), Some(ns(20)));
        assert_eq!(q.pop_due(ns(25)), Some(EngineEvent::StatsWindow));
        assert_eq!(q.next_deadline(), Some(ns(30)));
    }

    #[test]
    fn deterministic_replay_pops_identically() {
        let script: Vec<(EngineEvent, u64)> = vec![
            (EngineEvent::Scan, 100),
            (EngineEvent::Reclaim, 100),
            (EngineEvent::StatsWindow, 100),
            (EngineEvent::Scan, 200),
            (EngineEvent::FaultArm, 150),
            (EngineEvent::PhaseChange, 150),
        ];
        let run = || {
            let mut q = EventQueue::new();
            for &(ev, at) in &script {
                q.arm(ev, Nanos::from_nanos(at));
            }
            let mut popped = Vec::new();
            while let Some(ev) = q.pop_due(Nanos::from_nanos(1_000)) {
                popped.push(ev);
            }
            popped
        };
        assert_eq!(run(), run());
        assert_eq!(
            run(),
            vec![
                EngineEvent::Reclaim,
                EngineEvent::StatsWindow,
                EngineEvent::FaultArm,
                EngineEvent::PhaseChange,
                EngineEvent::Scan, // re-armed to 200, fires after the 150s
            ]
        );
    }

    #[test]
    fn management_classification() {
        assert!(EngineEvent::Scan.is_management());
        assert!(EngineEvent::Reclaim.is_management());
        assert!(EngineEvent::StatsWindow.is_management());
        assert!(!EngineEvent::PersistFlush.is_management());
        assert!(!EngineEvent::PhaseChange.is_management());
        assert!(!EngineEvent::FaultArm.is_management());
    }

    #[test]
    fn armed_len_ignores_stale_heap_entries() {
        let mut q = EventQueue::new();
        q.arm(EngineEvent::Scan, ns(1));
        q.arm(EngineEvent::Scan, ns(2));
        q.arm(EngineEvent::Reclaim, ns(3));
        assert_eq!(q.armed_len(), 2);
    }
}
