//! Out-of-order issue queue with physical-register wakeup and an
//! event-driven ready set.
//!
//! Entries wait until all source physical registers are ready, then issue
//! oldest-first subject to the caller's structural constraints (functional
//! units, cache ports). Instructions from all threadlets share the queue
//! (Table 1: "Dynamically shared: … 384-entry IQ").
//!
//! Selection never walks the whole queue. The queue keeps an age-ordered
//! *ready set*: the entries whose sources are all ready and that are not
//! *parked*. A caller parks an entry that is waiting on an event the queue
//! does not track (a load blocked by an older store) and unparks it when
//! the event fires. The caller drives selection with a cursor
//! ([`IssueQueue::next_ready`]), re-querying after every offer, so an entry
//! unparked mid-pass that is younger than the cursor is still offered in
//! the same pass.

use crate::rename::{PhysReg, PhysRegFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::ops::Bound;

#[derive(Debug, Clone)]
struct Entry {
    tid: usize,
    srcs: [Option<PhysReg>; 2],
    waiting: u8, // number of not-ready sources
    parked: bool,
}

impl Entry {
    fn is_ready(&self) -> bool {
        self.waiting == 0 && !self.parked
    }
}

/// The shared issue queue, keyed by the core's instruction-id type `K`
/// (age order must equal `Ord` order for oldest-first selection).
#[derive(Debug, Clone)]
pub struct IssueQueue<K: Copy + Ord + Debug = u64> {
    capacity: usize,
    entries: BTreeMap<K, Entry>,
    /// Exactly the entries with `waiting == 0` and not parked.
    ready: BTreeSet<K>,
    /// Consumers waiting on each physical register, indexed by
    /// `PhysReg.0` and grown on demand. Wakeup empties a list but keeps its
    /// capacity. A list may still name squashed entries; wakeup skips them.
    waiters: Vec<Vec<K>>,
}

impl<K: Copy + Ord + Debug> IssueQueue<K> {
    /// Creates a queue holding up to `capacity` instructions.
    pub fn new(capacity: usize) -> IssueQueue<K> {
        IssueQueue {
            capacity,
            entries: BTreeMap::new(),
            ready: BTreeSet::new(),
            waiters: Vec::new(),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue has no free slot.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Inserts instruction `uid` of threadlet `tid` with its renamed source
    /// registers. Sources already ready in `prf` don't wait. Returns `false`
    /// (and inserts nothing) if the queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is already present.
    pub fn insert(
        &mut self,
        uid: K,
        tid: usize,
        srcs: [Option<PhysReg>; 2],
        prf: &PhysRegFile,
    ) -> bool {
        if self.is_full() {
            return false;
        }
        let mut waiting = 0;
        for s in srcs.iter().flatten() {
            if !prf.is_ready(*s) {
                waiting += 1;
                let i = s.0 as usize;
                if i >= self.waiters.len() {
                    self.waiters.resize_with(i + 1, Vec::new);
                }
                self.waiters[i].push(uid);
            }
        }
        let prev = self.entries.insert(uid, Entry { tid, srcs, waiting, parked: false });
        assert!(prev.is_none(), "duplicate uid {uid:?} in issue queue");
        if waiting == 0 {
            self.ready.insert(uid);
        }
        true
    }

    /// Wakes consumers of physical register `p` (its producer completed).
    /// A parked consumer stays out of the ready set until it is unparked.
    pub fn wakeup(&mut self, p: PhysReg) {
        let Some(list) = self.waiters.get_mut(p.0 as usize) else { return };
        let mut uids = std::mem::take(list);
        for &uid in &uids {
            if let Some(e) = self.entries.get_mut(&uid) {
                // An entry may wait on `p` through both source slots.
                let n = e.srcs.iter().flatten().filter(|s| **s == p).count() as u8;
                e.waiting = e.waiting.saturating_sub(n.max(1).min(e.waiting));
                if e.is_ready() {
                    self.ready.insert(uid);
                }
            }
        }
        uids.clear();
        self.waiters[p.0 as usize] = uids;
    }

    /// The oldest ready entry strictly younger than `cursor` (the oldest
    /// ready entry overall for `None`). A selection pass starts at `None`
    /// and advances the cursor to each entry it offers.
    pub fn next_ready(&self, cursor: Option<K>) -> Option<K> {
        match cursor {
            None => self.ready.first().copied(),
            Some(c) => self.ready.range((Bound::Excluded(c), Bound::Unbounded)).next().copied(),
        }
    }

    /// Removes issued entry `uid` from the queue (no-op if absent).
    pub fn remove(&mut self, uid: K) {
        if self.entries.remove(&uid).is_some() {
            self.ready.remove(&uid);
        }
    }

    /// Takes `uid` out of the ready set until [`IssueQueue::unpark`]. The
    /// caller owns the event that ends the wait.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is not in the queue.
    pub fn park(&mut self, uid: K) {
        let e = self.entries.get_mut(&uid).expect("parking an entry not in the issue queue");
        e.parked = true;
        self.ready.remove(&uid);
    }

    /// Ends a park. Unparking a uid that was removed or squashed meanwhile
    /// is a no-op.
    pub fn unpark(&mut self, uid: K) {
        if let Some(e) = self.entries.get_mut(&uid) {
            e.parked = false;
            if e.waiting == 0 {
                self.ready.insert(uid);
            }
        }
    }

    /// The parked entries, oldest first.
    pub fn parked(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().filter(|(_, e)| e.parked).map(|(&k, _)| k)
    }

    /// Checks that the ready set holds exactly the unparked entries with no
    /// waiting source; the error names the first entry that disagrees.
    pub fn check_ready_set(&self) -> Result<(), String> {
        if let Some(k) = self.ready.iter().find(|k| !self.entries.contains_key(k)) {
            return Err(format!("ready set holds {k:?}, which is not in the queue"));
        }
        match self.entries.iter().find(|(k, e)| e.is_ready() != self.ready.contains(k)) {
            Some((k, e)) => Err(format!(
                "entry {k:?} (waiting {}, parked {}) is {} the ready set",
                e.waiting,
                e.parked,
                if e.is_ready() { "missing from" } else { "wrongly in" }
            )),
            None => Ok(()),
        }
    }

    /// Removes every entry for which `pred(uid, tid)` holds (squash).
    pub fn squash(&mut self, pred: impl Fn(K, usize) -> bool) {
        let ready = &mut self.ready;
        self.entries.retain(|&uid, e| {
            let kill = pred(uid, e.tid);
            if kill {
                ready.remove(&uid);
            }
            !kill
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prf_with(n: usize) -> PhysRegFile {
        PhysRegFile::new(n)
    }

    /// One selection pass the way the core drives it: walk the cursor,
    /// offer each ready entry to `issue`, remove the accepted ones, stop
    /// after `max` acceptances. Returns the uids offered, in order.
    fn pass(
        iq: &mut IssueQueue,
        max: usize,
        mut issue: impl FnMut(&mut IssueQueue, u64) -> bool,
    ) -> Vec<u64> {
        let (mut offered, mut cursor, mut n) = (Vec::new(), None, 0);
        while n < max {
            let Some(uid) = iq.next_ready(cursor) else { break };
            cursor = Some(uid);
            offered.push(uid);
            if issue(iq, uid) {
                iq.remove(uid);
                n += 1;
            }
        }
        offered
    }

    #[test]
    fn immediate_ready_issue() {
        let mut prf = prf_with(4);
        let a = prf.alloc_ready(1).unwrap();
        let mut iq = IssueQueue::new(8);
        assert!(iq.insert(1, 0, [Some(a), None], &prf));
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1]);
        assert!(iq.is_empty());
    }

    #[test]
    fn waits_for_wakeup() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap(); // not ready
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), None], &prf);
        iq.insert(2, 0, [None, None], &prf);
        assert_eq!(pass(&mut iq, 4, |_, _| false), vec![2]);
        prf.write(a, 9);
        iq.wakeup(a);
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1, 2]);
        assert!(iq.is_empty());
    }

    #[test]
    fn oldest_first_selection_and_structural_reject() {
        let mut prf = prf_with(4);
        let a = prf.alloc_ready(0).unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(5, 0, [Some(a), None], &prf);
        iq.insert(3, 1, [None, None], &prf);
        // Reject 3 (structural hazard), accept 5.
        assert_eq!(pass(&mut iq, 4, |_, uid| uid != 3), vec![3, 5]);
        assert_eq!(iq.len(), 1, "rejected entry remains");
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![3]);
    }

    #[test]
    fn selection_stops_after_max_acceptances() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        for uid in 1..=4 {
            iq.insert(uid, 0, [None, None], &prf);
        }
        assert_eq!(pass(&mut iq, 2, |_, _| true), vec![1, 2]);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn parked_entry_waits_for_unpark() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [None, None], &prf);
        iq.insert(2, 0, [None, None], &prf);
        iq.park(1);
        assert_eq!(iq.parked().collect::<Vec<_>>(), vec![1]);
        assert_eq!(pass(&mut iq, 4, |_, _| false), vec![2]);
        assert_eq!(pass(&mut iq, 4, |_, _| false), vec![2]);
        iq.unpark(1);
        assert_eq!(iq.parked().count(), 0);
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1, 2]);
    }

    #[test]
    fn unpark_younger_than_cursor_is_offered_in_the_same_pass() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        for uid in [1, 2, 3] {
            iq.insert(uid, 0, [None, None], &prf);
        }
        iq.park(3);
        // Issuing 2 (think: an older store) unparks 3 (a load behind it).
        let offered = pass(&mut iq, 4, |iq, uid| {
            if uid == 2 {
                iq.unpark(3);
            }
            true
        });
        assert_eq!(offered, vec![1, 2, 3]);
        assert!(iq.is_empty());
    }

    #[test]
    fn unpark_older_than_cursor_waits_for_the_next_pass() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [None, None], &prf);
        iq.insert(2, 0, [None, None], &prf);
        iq.park(1);
        let offered = pass(&mut iq, 4, |iq, uid| {
            iq.unpark(1);
            uid != 2
        });
        assert_eq!(offered, vec![2]);
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1, 2]);
    }

    #[test]
    fn unparking_a_removed_or_squashed_uid_is_a_no_op() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [None, None], &prf);
        iq.insert(2, 1, [None, None], &prf);
        iq.park(1);
        iq.park(2);
        iq.squash(|_, tid| tid == 1);
        iq.remove(1);
        iq.unpark(1);
        iq.unpark(2);
        iq.unpark(7); // never inserted
        assert!(iq.is_empty());
        assert_eq!(iq.next_ready(None), None);
        assert_eq!(iq.check_ready_set(), Ok(()));
    }

    #[test]
    fn wakeup_of_a_parked_entry_leaves_it_unoffered() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), None], &prf);
        iq.park(1);
        prf.write(a, 3);
        iq.wakeup(a);
        assert_eq!(pass(&mut iq, 4, |_, _| true), Vec::<u64>::new());
        assert_eq!(iq.check_ready_set(), Ok(()));
        iq.unpark(1);
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1]);
    }

    #[test]
    fn unpark_before_sources_are_ready_still_waits_for_wakeup() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), None], &prf);
        iq.park(1);
        iq.unpark(1);
        assert_eq!(iq.next_ready(None), None);
        prf.write(a, 3);
        iq.wakeup(a);
        assert_eq!(iq.next_ready(None), Some(1));
    }

    #[test]
    fn squash_by_threadlet() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [None, None], &prf);
        iq.insert(2, 1, [None, None], &prf);
        iq.insert(3, 1, [None, None], &prf);
        iq.squash(|_, tid| tid == 1);
        assert_eq!(iq.len(), 1);
        assert_eq!(iq.check_ready_set(), Ok(()));
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1]);
    }

    #[test]
    fn capacity_limit() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(2);
        assert!(iq.insert(1, 0, [None, None], &prf));
        assert!(iq.insert(2, 0, [None, None], &prf));
        assert!(!iq.insert(3, 0, [None, None], &prf));
        assert!(iq.is_full());
    }

    #[test]
    fn same_register_in_both_sources() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), Some(a)], &prf);
        assert_eq!(iq.next_ready(None), None);
        prf.write(a, 1);
        iq.wakeup(a);
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1]);
    }

    #[test]
    fn same_register_in_both_slots_beside_another_waiter() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap();
        let b = prf.alloc().unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), Some(a)], &prf);
        iq.insert(2, 0, [Some(a), Some(b)], &prf);
        assert_eq!(iq.check_ready_set(), Ok(()));
        prf.write(a, 1);
        iq.wakeup(a);
        // Entry 1 is listed twice under `a`; one wakeup clears both slots.
        assert_eq!(iq.next_ready(None), Some(1));
        assert_eq!(iq.next_ready(Some(1)), None, "entry 2 still waits on b");
        assert_eq!(iq.check_ready_set(), Ok(()));
        iq.wakeup(a); // the list was emptied: a second wakeup changes nothing
        assert_eq!(iq.next_ready(Some(1)), None);
        prf.write(b, 2);
        iq.wakeup(b);
        assert_eq!(iq.check_ready_set(), Ok(()));
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![1, 2]);
    }

    #[test]
    fn wakeup_of_an_unwaited_or_out_of_table_register_is_a_no_op() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap();
        let b = prf.alloc().unwrap();
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, [Some(a), None], &prf);
        iq.wakeup(b); // never waited on
        iq.wakeup(PhysReg(1_000)); // beyond the wakeup table
        assert_eq!(iq.next_ready(None), None);
        assert_eq!(iq.check_ready_set(), Ok(()));
        prf.write(a, 1);
        iq.wakeup(a);
        assert_eq!(iq.next_ready(None), Some(1));
        assert_eq!(iq.check_ready_set(), Ok(()));
    }

    #[test]
    fn stale_uid_in_a_recycled_register_list_is_ignored() {
        let mut prf = prf_with(4);
        let a = prf.alloc().unwrap();
        let mut iq = IssueQueue::new(8);
        // Entry 1 waits on `a`, then its producer and it are squashed
        // before `a` completes; `a` goes back to the free list.
        iq.insert(1, 1, [Some(a), None], &prf);
        iq.squash(|_, tid| tid == 1);
        assert_eq!(iq.check_ready_set(), Ok(()));
        prf.release(a);
        let a2 = prf.alloc().unwrap();
        assert_eq!(a2, a, "the register is recycled");
        iq.insert(2, 0, [Some(a2), None], &prf);
        iq.insert(3, 0, [Some(a2), None], &prf);
        prf.write(a2, 5);
        iq.wakeup(a2); // the list still names squashed uid 1
        assert_eq!(iq.len(), 2);
        assert_eq!(iq.check_ready_set(), Ok(()));
        assert_eq!(pass(&mut iq, 4, |_, _| true), vec![2, 3]);
    }

    #[test]
    fn parked_listing_and_ready_set_check() {
        let prf = prf_with(4);
        let mut iq = IssueQueue::new(8);
        for uid in [4, 2, 9] {
            iq.insert(uid, 0, [None, None], &prf);
        }
        iq.park(9);
        iq.park(2);
        assert_eq!(iq.parked().collect::<Vec<_>>(), vec![2, 9]);
        assert_eq!(iq.check_ready_set(), Ok(()));
        iq.ready.insert(9); // corrupt: a parked entry in the ready set
        assert!(iq.check_ready_set().unwrap_err().contains("9"));
    }
}
