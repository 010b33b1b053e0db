//! Tunable policies shared by the runtime and the simulator.
//!
//! The paper fixes a FIFO strategy for local scheduling (to avoid
//! starvation) and a LIFO strategy for answering help requests (to hide
//! communication latency), but explicitly leaves the decision "which
//! microframes to give to the processing manager or to other sites" as
//! room for research — so both are configurable here, and E4
//! (`policy_ablation`) measures the alternatives.
//!
//! The clock-free decisions both the runtime and the simulator take
//! live here once: the queue pop order ([`QueuePolicy::pop`],
//! [`QueuePolicy::order_key`]) and the choice of a help-request target
//! ([`pick_help_target`]).

use crate::coord::{Coord, VivaldiState};
use std::collections::VecDeque;
use std::fmt;

/// Scheduling priority attached to a microframe as a *scheduling hint*
/// (paper §3.3): derived from the CDAG (critical-path microthreads get
/// higher priority) or supplied by the programmer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub i32);

impl Priority {
    /// Neutral priority for frames without hints.
    pub const NORMAL: Priority = Priority(0);
    /// Priority used for frames identified as on the critical path.
    pub const CRITICAL: Priority = Priority(100);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// Scheduling hints a CDAG analysis (or the programmer) may attach to a
/// microframe.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SchedulingHint {
    /// Execution priority.
    pub priority: Priority,
    /// Prefer executing on the site already holding the frame (set for
    /// frames with large parameter payloads, where migration is costly).
    pub sticky: bool,
}

impl SchedulingHint {
    /// Hint marking a critical-path frame.
    pub fn critical() -> Self {
        SchedulingHint {
            priority: Priority::CRITICAL,
            sticky: false,
        }
    }
}

/// Queue discipline used by the scheduling manager.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum QueuePolicy {
    /// First in, first out — the paper's local policy (avoids starvation).
    #[default]
    Fifo,
    /// Last in, first out — the paper's help-reply policy (latency hiding:
    /// the most recently enqueued frame is least likely to be needed
    /// locally soon).
    Lifo,
    /// Highest [`Priority`] first, FIFO among equals.
    Priority,
}

impl QueuePolicy {
    /// Pop-order key of the entry at `index` (0 = oldest) carrying
    /// `priority`: the policy takes the entry with the largest key. FIFO
    /// prefers the oldest, LIFO the newest, Priority the highest
    /// priority and then the oldest. A help reply ranks frames by
    /// locality first and breaks ties with this key.
    pub fn order_key<P: Ord + Default>(self, index: usize, priority: P) -> (P, i64) {
        match self {
            QueuePolicy::Fifo => (P::default(), -(index as i64)),
            QueuePolicy::Lifo => (P::default(), index as i64),
            QueuePolicy::Priority => (priority, -(index as i64)),
        }
    }

    /// Remove the entry of `q` with the largest [`order_key`](Self::order_key);
    /// `priority` reads an entry's priority. FIFO and LIFO take an end of
    /// the queue without scanning it.
    pub fn pop<T, P: Ord + Default>(
        self,
        q: &mut VecDeque<T>,
        priority: impl Fn(&T) -> P,
    ) -> Option<T> {
        let index = match self {
            QueuePolicy::Fifo => 0,
            QueuePolicy::Lifo => q.len().checked_sub(1)?,
            QueuePolicy::Priority => {
                q.iter()
                    .enumerate()
                    .max_by_key(|&(i, e)| self.order_key(i, priority(e)))?
                    .0
            }
        };
        q.remove(index)
    }
}

impl fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::Lifo => "lifo",
            QueuePolicy::Priority => "priority",
        })
    }
}

/// A peer an idle site could ask for work.
#[derive(Clone, Copy, Debug)]
pub struct HelpCandidate<K> {
    /// The peer's id.
    pub id: K,
    /// How busy the caller believes the peer is; 0 = no known spare work.
    pub load: u64,
    /// The peer's last known coordinate, if it gossiped one.
    pub coord: Option<Coord>,
}

/// Choose the peer an idle site sends its help request to (paper §4).
///
/// `candidates` come in ascending id order. The busiest candidate with
/// positive load wins (the last of equals). With no load signal the
/// choice rotates through `rr`, the caller's counter: over the nearest
/// 3 candidates when `me` — this site's coordinate, `None` when
/// proximity routing is off — has converged and ranks them (see
/// [`VivaldiState::rank_by_proximity`]), else over all of them. A help
/// round trip to a close peer costs a fraction of a far one; rotating
/// among a few keeps one close neighbour from absorbing every request.
pub fn pick_help_target<K: Copy + Ord>(
    candidates: &mut [HelpCandidate<K>],
    me: Option<&VivaldiState>,
    rr: &mut usize,
) -> Option<K> {
    let busiest = candidates.iter().max_by_key(|c| c.load)?;
    if busiest.load > 0 {
        return Some(busiest.id);
    }
    let ranked = me.is_some_and(|v| v.rank_by_proximity(candidates, |c| (c.id, c.coord)));
    let pool = if ranked {
        candidates.len().min(3)
    } else {
        candidates.len()
    };
    let target = candidates[*rr % pool].id;
    *rr = rr.wrapping_add(1);
    Some(target)
}

/// The three concepts the paper discusses for creating unique logical site
/// ids for joining sites (§4, cluster manager).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum IdAllocStrategy {
    /// One central contact site hands out ids. Simple, but a central point
    /// of failure: if it leaves, no new site can ever join.
    #[default]
    CentralServer,
    /// Several id servers each receive a contingent of free ids at their
    /// own sign-on and hand them out; an exhausted contingent triggers a
    /// broadcast to re-split the id space.
    Contingents {
        /// Number of ids in each contingent handed to a new id server.
        chunk: u32,
    },
    /// A fixed number `k` of id servers; server `i` (0-based) emits ids
    /// congruent to its own slot modulo `k` — no coordination ever needed.
    Modulo {
        /// Number of id servers sharing the id space.
        servers: u32,
    },
}

/// What a program's frontend does when one of its microframes is
/// *poisoned* — quarantined after a handler panic, an application error,
/// or retry-budget exhaustion.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FailurePolicy {
    /// Fail the whole program: `wait()` returns an error naming the
    /// frame, microthread and cause, and the program is terminated
    /// cluster-wide.
    #[default]
    FailFast,
    /// Report the poisoned frame through the I/O manager and keep the
    /// rest of the program running; frames depending on the lost result
    /// will never fire (the stuck-program watchdog eventually reports the
    /// program if its result depended on the skipped frame).
    SkipFrame,
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailurePolicy::FailFast => "fail-fast",
            FailurePolicy::SkipFrame => "skip-frame",
        })
    }
}

/// Which microframes of a program a [`ReplicationPolicy`] applies to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReplicaSelector {
    /// Every microframe of the program (except the hidden result frame).
    #[default]
    All,
    /// Only microframes firing the given microthread index. Lets a
    /// program replicate its pure leaf compute while joins/reductions —
    /// whose side effects (frame creation, allocation) should run once —
    /// stay unreplicated.
    Thread(u32),
}

impl ReplicaSelector {
    /// Does this selector cover microthread index `thread`?
    pub fn covers(&self, thread: u32) -> bool {
        match self {
            ReplicaSelector::All => true,
            ReplicaSelector::Thread(t) => *t == thread,
        }
    }
}

impl fmt::Display for ReplicaSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaSelector::All => f.write_str("all"),
            ReplicaSelector::Thread(t) => write!(f, "thread({t})"),
        }
    }
}

/// Per-program defence against silent data corruption and stragglers:
/// how (and whether) selected microframes are dispatched more than once.
///
/// `Replicate` executes each covered frame on `k` distinct sites and
/// *votes* on the produced results before any consumer slot fills —
/// a lying site (bit-flipped result) is outvoted at k ≥ 3, and a k = 2
/// tie triggers a tie-breaking re-execution on a fresh site. `Hedge`
/// dispatches once, then duplicates the frame to a second site if no
/// result arrived within `delay`; the first result wins and the loser
/// is fenced by the first-write-wins memory invariants.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplicationPolicy {
    /// Execute every frame exactly once (the paper's baseline).
    #[default]
    Off,
    /// Execute covered frames on `k` distinct sites and vote on results.
    Replicate {
        /// Number of replicas (clamped to ≥ 2 by the runtime).
        k: u8,
        /// Which microframes are replicated.
        selector: ReplicaSelector,
    },
    /// Duplicate-dispatch covered frames that straggle past `delay`.
    Hedge {
        /// How long a dispatched frame may straggle before a hedge
        /// replica is sent to another site.
        delay: std::time::Duration,
        /// Which microframes are hedged.
        selector: ReplicaSelector,
    },
}

impl ReplicationPolicy {
    /// Convenience: replicate every frame `k` times.
    pub fn replicate(k: u8) -> Self {
        ReplicationPolicy::Replicate {
            k,
            selector: ReplicaSelector::All,
        }
    }

    /// Convenience: hedge every frame after `delay`.
    pub fn hedge(delay: std::time::Duration) -> Self {
        ReplicationPolicy::Hedge {
            delay,
            selector: ReplicaSelector::All,
        }
    }

    /// Is any replication/hedging active at all?
    pub fn is_off(&self) -> bool {
        matches!(self, ReplicationPolicy::Off)
    }
}

impl fmt::Display for ReplicationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationPolicy::Off => f.write_str("off"),
            ReplicationPolicy::Replicate { k, selector } => {
                write!(f, "replicate(k={k}, {selector})")
            }
            ReplicationPolicy::Hedge { delay, selector } => {
                write!(f, "hedge({}us, {selector})", delay.as_micros())
            }
        }
    }
}

impl fmt::Display for IdAllocStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdAllocStrategy::CentralServer => f.write_str("central"),
            IdAllocStrategy::Contingents { chunk } => write!(f, "contingents({chunk})"),
            IdAllocStrategy::Modulo { servers } => write!(f, "modulo({servers})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::CRITICAL > Priority::NORMAL);
        assert!(Priority(-5) < Priority::NORMAL);
    }

    #[test]
    fn defaults_match_paper() {
        // Paper: FIFO locally, LIFO for help replies; central id server is
        // the baseline concept.
        assert_eq!(QueuePolicy::default(), QueuePolicy::Fifo);
        assert_eq!(IdAllocStrategy::default(), IdAllocStrategy::CentralServer);
        assert_eq!(SchedulingHint::default().priority, Priority::NORMAL);
    }

    #[test]
    fn displays() {
        assert_eq!(QueuePolicy::Lifo.to_string(), "lifo");
        assert_eq!(
            IdAllocStrategy::Contingents { chunk: 64 }.to_string(),
            "contingents(64)"
        );
        assert_eq!(
            IdAllocStrategy::Modulo { servers: 4 }.to_string(),
            "modulo(4)"
        );
    }

    /// A queued entry: its id and its priority.
    fn mk(local: u64, prio: i32) -> (u64, Priority) {
        (local, Priority(prio))
    }

    fn queue(entries: Vec<(u64, Priority)>) -> VecDeque<(u64, Priority)> {
        entries.into_iter().collect()
    }

    fn pop_frame(q: &mut VecDeque<(u64, Priority)>, policy: QueuePolicy) -> Option<u64> {
        policy.pop(q, |&(_, p)| p).map(|(local, _)| local)
    }

    #[test]
    fn fifo_pops_oldest() {
        let mut q = queue(vec![mk(1, 0), mk(2, 0), mk(3, 0)]);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Fifo).unwrap(), 1);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Fifo).unwrap(), 2);
    }

    #[test]
    fn lifo_pops_newest() {
        let mut q = queue(vec![mk(1, 0), mk(2, 0), mk(3, 0)]);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Lifo).unwrap(), 3);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Lifo).unwrap(), 2);
    }

    #[test]
    fn priority_pops_highest_then_fifo_among_equals() {
        let mut q = queue(vec![mk(1, 5), mk(2, 9), mk(3, 9), mk(4, 1)]);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Priority).unwrap(), 2);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Priority).unwrap(), 3);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Priority).unwrap(), 1);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Priority).unwrap(), 4);
        assert!(pop_frame(&mut q, QueuePolicy::Priority).is_none());
    }

    /// `pop`'s end-of-queue shortcut takes the entry `order_key` ranks
    /// first, under every policy.
    #[test]
    fn pop_agrees_with_order_key() {
        let entries = vec![mk(1, 2), mk(2, 7), mk(3, 7), mk(4, -1), mk(5, 2)];
        for policy in [QueuePolicy::Fifo, QueuePolicy::Lifo, QueuePolicy::Priority] {
            let mut q = queue(entries.clone());
            while !q.is_empty() {
                let expected = q
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &(_, p))| policy.order_key(i, p))
                    .map(|(_, &(local, _))| local);
                assert_eq!(pop_frame(&mut q, policy), expected, "{policy}");
            }
            assert_eq!(pop_frame(&mut q, policy), None);
        }
    }

    /// A converged coordinate at the origin.
    fn converged_at_origin() -> VivaldiState {
        let me = VivaldiState {
            coord: Coord {
                err: 0.1,
                ..Coord::origin()
            },
            samples: 10,
            abs_error_ms: 0.0,
        };
        assert!(me.converged());
        me
    }

    /// A peer coordinate `ms` away from the origin.
    fn at(ms: f64) -> Option<Coord> {
        Some(Coord {
            x: ms,
            ..Coord::origin()
        })
    }

    #[test]
    fn help_target_table() {
        let cand = |id: u32, load: u64, coord: Option<Coord>| HelpCandidate { id, load, coord };
        let converged = converged_at_origin();
        let fresh = VivaldiState::default();
        struct Case {
            name: &'static str,
            candidates: Vec<HelpCandidate<u32>>,
            me: Option<VivaldiState>,
            /// Targets of successive picks with one shared counter.
            picks: Vec<u32>,
        }
        let cases = [
            Case {
                name: "busiest peer with positive load wins",
                candidates: vec![cand(1, 2, None), cand(2, 9, at(60.0)), cand(3, 0, at(2.0))],
                me: Some(converged.clone()),
                picks: vec![2, 2, 2],
            },
            Case {
                name: "equal top loads: the last in id order",
                candidates: vec![cand(1, 4, None), cand(2, 4, None), cand(3, 1, None)],
                me: None,
                picks: vec![2, 2],
            },
            Case {
                name: "all loads zero: round-robin over all peers in id order",
                candidates: vec![cand(1, 0, None), cand(2, 0, None), cand(3, 0, None)],
                me: None,
                picks: vec![1, 2, 3, 1],
            },
            Case {
                name: "converged: rotation within the nearest 3",
                candidates: vec![
                    cand(1, 0, at(60.0)),
                    cand(2, 0, at(2.0)),
                    cand(3, 0, at(61.0)),
                    cand(4, 0, at(3.0)),
                    cand(5, 0, at(2.5)),
                ],
                me: Some(converged.clone()),
                picks: vec![2, 5, 4, 2],
            },
            Case {
                name: "peers without a coordinate rank last",
                candidates: vec![
                    cand(1, 0, None),
                    cand(2, 0, at(50.0)),
                    cand(3, 0, None),
                    cand(4, 0, at(40.0)),
                ],
                me: Some(converged.clone()),
                picks: vec![4, 2, 1, 4],
            },
            Case {
                name: "not converged: uniform rotation despite known coordinates",
                candidates: vec![
                    cand(1, 0, at(60.0)),
                    cand(2, 0, at(2.0)),
                    cand(3, 0, at(61.0)),
                ],
                me: Some(fresh),
                picks: vec![1, 2, 3, 1],
            },
            Case {
                name: "proximity routing off: uniform rotation",
                candidates: vec![
                    cand(1, 0, at(60.0)),
                    cand(2, 0, at(2.0)),
                    cand(3, 0, at(61.0)),
                ],
                me: None,
                picks: vec![1, 2, 3, 1],
            },
            Case {
                name: "no candidates: no target",
                candidates: vec![],
                me: Some(converged),
                picks: vec![],
            },
        ];
        for case in cases {
            let mut rr = 0;
            let mut picked = Vec::new();
            for _ in 0..case.picks.len().max(1) {
                let mut candidates = case.candidates.clone();
                if let Some(t) = pick_help_target(&mut candidates, case.me.as_ref(), &mut rr) {
                    picked.push(t);
                }
            }
            assert_eq!(picked, case.picks, "{}", case.name);
        }
    }

    #[test]
    fn replication_defaults_off() {
        assert_eq!(ReplicationPolicy::default(), ReplicationPolicy::Off);
        assert!(ReplicationPolicy::Off.is_off());
        assert!(!ReplicationPolicy::replicate(3).is_off());
        assert_eq!(ReplicaSelector::default(), ReplicaSelector::All);
    }

    #[test]
    fn replica_selector_covers() {
        assert!(ReplicaSelector::All.covers(0));
        assert!(ReplicaSelector::All.covers(7));
        assert!(ReplicaSelector::Thread(2).covers(2));
        assert!(!ReplicaSelector::Thread(2).covers(3));
    }

    #[test]
    fn replication_displays() {
        assert_eq!(ReplicationPolicy::Off.to_string(), "off");
        assert_eq!(
            ReplicationPolicy::replicate(3).to_string(),
            "replicate(k=3, all)"
        );
        assert_eq!(
            ReplicationPolicy::Hedge {
                delay: std::time::Duration::from_millis(50),
                selector: ReplicaSelector::Thread(1),
            }
            .to_string(),
            "hedge(50000us, thread(1))"
        );
    }
}
