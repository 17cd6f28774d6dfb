//! Generic explicit-state (Murphi-style) breadth-first explorer.
//!
//! A [`Model`] describes a finite transition system: an initial state, the
//! actions enabled in a state, a pure `apply`, and a set of invariants.
//! [`explore`] enumerates every reachable state breadth-first, deduping
//! through a visited table, and stops at the first invariant violation —
//! which, because the search is BFS, yields a **minimal** counterexample:
//! no shorter action sequence reaches a violating state.
//!
//! Each distinct state is stored exactly once, as the model's compact
//! [`Model::Key`] in an append-only arena. Keys may quotient states by a
//! symmetry: the stored state is then its class's representative. The visited table holds only
//! arena indices, the BFS frontier is the arena itself walked in index
//! order, and a node records just its parent index, the ordinal of the
//! action that reached it, and its depth. Counterexamples are rebuilt by
//! replaying those ordinals from the initial state.
//!
//! States are rendered as flat `field = value` pairs so counterexample
//! traces can show per-step diffs instead of full state dumps.

use std::fmt;
use std::hash::{BuildHasher, Hash};

use fusion_types::hash::FxBuildHasher;

/// A violated protocol invariant, named like the runtime checker names
/// them (`protocol` / `rule`) so planted-fault tests can match on both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which protocol machine the invariant belongs to ("ACC" / "MESI").
    pub protocol: &'static str,
    /// Short rule identifier, e.g. `lease-containment`.
    pub rule: &'static str,
    /// Human-readable description of the broken condition.
    pub detail: String,
}

/// A finite transition system the explorer can enumerate.
pub trait Model {
    /// Full protocol + shadow state, as the transition rules see it.
    type State;
    /// Compact stored form of a state; equality/hashing define state
    /// identity for deduplication. A model with symmetry maps every
    /// state of a class to one key.
    type Key: Clone + Eq + Hash;
    /// One protocol event (rendered into counterexample traces).
    type Action: Clone + fmt::Display;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Packs `state` into its stored key.
    fn key(&self, state: &Self::State) -> Self::Key;

    /// Unpacks a stored key into the state it stands for (the class
    /// representative); `key(state(k))` must equal `k`, and without a
    /// symmetry `state(key(s))` must equal `s`.
    fn state(&self, key: &Self::Key) -> Self::State;

    /// Appends every action that may be attempted in `state` to `out`.
    /// Actions whose `apply` returns `None` are treated as disabled. The
    /// list must depend on `state` alone: traces name an action by its
    /// position in it.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// Applies `action` to `state`, returning the successor, or `None`
    /// when the action is disabled or leaves the bounded horizon. A
    /// successor with `state`'s own key is a self-loop: the explorer
    /// neither counts it as a transition nor as enabling progress.
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;

    /// Checks every state invariant, returning the first broken one.
    /// Stored states are checked as their key's representative.
    fn check(&self, state: &Self::State) -> Option<Violation>;

    /// `true` for states that are allowed to have no successors (the
    /// bounded-horizon frontier). A non-terminal state with no enabled
    /// action is reported as a `deadlock` violation.
    fn is_terminal(&self, state: &Self::State) -> bool;

    /// Renders the state as ordered `(field, value)` pairs for trace
    /// diffing.
    fn render(&self, state: &Self::State) -> Vec<(String, String)>;
}

/// One step of a counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The action taken.
    pub action: String,
    /// Fields whose rendered value changed: `(field, from, to)`.
    pub changed: Vec<(String, String, String)>,
}

/// A minimal-length violating run: the initial state, the steps that
/// reach the violation, and the invariant that broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// Rendered initial state (`field = value` pairs).
    pub initial: Vec<(String, String)>,
    /// Action sequence with per-step state diffs.
    pub steps: Vec<TraceStep>,
    /// The broken invariant.
    pub violation: Violation,
}

/// Result of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions fired (including those leading to already-visited
    /// states).
    pub transitions: u64,
    /// Longest BFS depth reached.
    pub depth: usize,
    /// First invariant violation found, with its minimal trace.
    pub violation: Option<CounterExample>,
    /// `false` when the `max_states` cap stopped the search before the
    /// reachable space was closed (the run proves nothing beyond the
    /// explored prefix).
    pub complete: bool,
}

/// Most nodes one exploration may hold: node indices are `u32`, and the
/// visited table keeps its load at or below one half of `2^32` slots.
const MAX_NODES: usize = 1 << 31;

/// How a stored state was reached: everything else about it lives in its
/// key in the arena.
struct Node {
    /// Arena index of the predecessor (the root points at itself).
    parent: u32,
    /// Position of the reaching action in the predecessor's action list.
    action: u32,
    /// BFS depth.
    depth: u32,
}

/// Narrows an arena index or ordinal to its stored width. Callers stay
/// below [`MAX_NODES`] (and models list far fewer than `2^32` actions),
/// so the saturation never fires.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Marks an unused slot of [`Visited`].
const EMPTY: u32 = u32::MAX;

/// Open-addressing set of arena indices, keyed by the arena's keys: every
/// key is stored once, in the arena. Each slot also holds the top 32 bits
/// of its key's hash, which both place the slot (its top `bits` bits) and
/// filter probes, so a lookup touches the arena only on a likely match.
struct Visited {
    /// `(tag, arena index)` pairs; `EMPTY` index marks a free slot.
    slots: Vec<(u32, u32)>,
    /// log2 of the slot count.
    bits: u32,
    /// Occupied slots.
    len: usize,
}

/// The result of probing [`Visited`] for a key.
enum Probe {
    /// The key is already stored.
    Found,
    /// The key is new; this free slot is where it belongs.
    Vacant(usize),
}

impl Visited {
    fn new() -> Self {
        let bits = 10;
        Visited {
            slots: vec![(0, EMPTY); 1 << bits],
            bits,
            len: 0,
        }
    }

    fn home(&self, tag: u32) -> usize {
        (tag >> (32 - self.bits)) as usize
    }

    /// Looks `key` (hash tag `tag`) up against the stored `arena` keys.
    fn probe<K: Eq>(&self, arena: &[K], key: &K, tag: u32) -> Probe {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        loop {
            let (t, idx) = self.slots[slot];
            if idx == EMPTY {
                return Probe::Vacant(slot);
            }
            if t == tag && arena[idx as usize] == *key {
                return Probe::Found;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Records arena index `idx` in the free `slot` a probe returned,
    /// doubling the table once it is half full.
    fn insert(&mut self, slot: usize, tag: u32, idx: u32) {
        self.slots[slot] = (tag, idx);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.bits += 1;
            let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); 1 << self.bits]);
            let mask = self.slots.len() - 1;
            for (tag, idx) in old.into_iter().filter(|&(_, idx)| idx != EMPTY) {
                let mut slot = self.home(tag);
                while self.slots[slot].1 != EMPTY {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = (tag, idx);
            }
        }
    }
}

/// The top 32 bits of `key`'s hash (the multiply-last Fx hash mixes its
/// high bits best).
fn tag_of<K: Hash>(key: &K) -> u32 {
    (FxBuildHasher::default().hash_one(key) >> 32) as u32
}

/// Exhaustively explores `model` breadth-first, visiting at most
/// `max_states` distinct states. Stops at the first invariant violation
/// and reconstructs its minimal trace from the recorded action ordinals.
pub fn explore<M: Model>(model: &M, max_states: usize) -> Exploration {
    let max_states = max_states.min(MAX_NODES);
    let init = model.initial();
    if let Some(v) = model.check(&init) {
        return Exploration {
            states: 1,
            transitions: 0,
            depth: 0,
            violation: Some(replay_trace(model, &[], &[], None, None, v)),
            complete: true,
        };
    }
    let key = model.key(&init);
    let mut visited = Visited::new();
    let tag = tag_of(&key);
    visited.insert(visited.home(tag), tag, 0);
    let mut arena: Vec<M::Key> = vec![key];
    let mut nodes: Vec<Node> = vec![Node {
        parent: 0,
        action: 0,
        depth: 0,
    }];
    let mut transitions = 0u64;
    let mut depth = 0usize;

    // BFS: the arena is the queue, appended in discovery order.
    let mut actions = Vec::new();
    let mut idx = 0usize;
    while idx < arena.len() {
        let state = model.state(&arena[idx]);
        let next_depth = nodes[idx].depth + 1;
        actions.clear();
        model.actions(&state, &mut actions);
        let mut enabled = false;
        for (ordinal, action) in actions.iter().enumerate() {
            let Some(next) = model.apply(&state, action) else {
                continue;
            };
            let key = model.key(&next);
            if key == arena[idx] {
                continue;
            }
            enabled = true;
            transitions += 1;
            let tag = tag_of(&key);
            let Probe::Vacant(slot) = visited.probe(&arena, &key, tag) else {
                continue;
            };
            depth = depth.max(next_depth as usize);
            let next = model.state(&key);
            if let Some(v) = model.check(&next) {
                let last = Some((narrow(ordinal), next));
                return Exploration {
                    states: arena.len() + 1,
                    transitions,
                    depth: next_depth as usize,
                    violation: Some(replay_trace(model, &arena, &nodes, Some(idx), last, v)),
                    complete: true,
                };
            }
            visited.insert(slot, tag, narrow(arena.len()));
            arena.push(key);
            nodes.push(Node {
                parent: narrow(idx),
                action: narrow(ordinal),
                depth: next_depth,
            });
            if arena.len() >= max_states {
                return Exploration {
                    states: arena.len(),
                    transitions,
                    depth,
                    violation: None,
                    complete: false,
                };
            }
        }
        if !enabled && !model.is_terminal(&state) {
            let v = Violation {
                protocol: "EXPLORE",
                rule: "deadlock",
                detail: "non-terminal state has no enabled action".to_string(),
            };
            return Exploration {
                states: arena.len(),
                transitions,
                depth,
                violation: Some(replay_trace(model, &arena, &nodes, Some(idx), None, v)),
                complete: true,
            };
        }
        idx += 1;
    }
    Exploration {
        states: arena.len(),
        transitions,
        depth,
        violation: None,
        complete: true,
    }
}

/// Rebuilds the minimal trace from the initial state to arena node `to`
/// (`None`: the initial state itself violates), plus the unstored `last`
/// step `(action ordinal, successor)` when the violation was found on
/// the way out of `to`, and renders per-step field diffs. Each step's
/// action is recovered by replaying its recorded ordinal against the
/// predecessor's action list; its successor is the stored state.
fn replay_trace<M: Model>(
    model: &M,
    arena: &[M::Key],
    nodes: &[Node],
    to: Option<usize>,
    last: Option<(u32, M::State)>,
    violation: Violation,
) -> CounterExample {
    // Walk parent links back to the root, which is the initial state.
    let mut path = Vec::new();
    let mut cursor = to.filter(|&n| n != 0);
    while let Some(n) = cursor {
        path.push(n);
        cursor = Some(nodes[n].parent as usize).filter(|&p| p != 0);
    }
    let steps = path
        .into_iter()
        .rev()
        .map(|n| (nodes[n].action, model.state(&arena[n])))
        .chain(last);

    let mut state = model.initial();
    let initial = model.render(&state);
    let mut prev = initial.clone();
    let mut actions = Vec::new();
    let mut trace = Vec::new();
    for (ordinal, next) in steps {
        actions.clear();
        model.actions(&state, &mut actions);
        let cur = model.render(&next);
        let mut changed = Vec::new();
        for (field, value) in &cur {
            let before = prev
                .iter()
                .find(|(f, _)| f == field)
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            if &before != value {
                changed.push((field.clone(), before, value.clone()));
            }
        }
        trace.push(TraceStep {
            action: actions[ordinal as usize].to_string(),
            changed,
        });
        prev = cur;
        state = next;
    }
    CounterExample {
        initial,
        steps: trace,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that may +1 or +2 up to a bound; value `bad` is
    /// "illegal", and at value `stuck` every action is disabled.
    struct Counter {
        bound: u32,
        bad: u32,
        stuck: u32,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct S(u32);

    #[derive(Clone, Copy)]
    enum A {
        One,
        Two,
    }

    impl fmt::Display for A {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                A::One => write!(f, "+1"),
                A::Two => write!(f, "+2"),
            }
        }
    }

    impl Model for Counter {
        type State = S;
        type Key = S;
        type Action = A;
        fn initial(&self) -> S {
            S(0)
        }
        fn key(&self, s: &S) -> S {
            *s
        }
        fn state(&self, k: &S) -> S {
            *k
        }
        fn actions(&self, _s: &S, out: &mut Vec<A>) {
            out.push(A::One);
            out.push(A::Two);
        }
        fn apply(&self, s: &S, a: &A) -> Option<S> {
            let next = s.0
                + match a {
                    A::One => 1,
                    A::Two => 2,
                };
            (s.0 != self.stuck && next <= self.bound).then_some(S(next))
        }
        fn check(&self, s: &S) -> Option<Violation> {
            (s.0 == self.bad).then(|| Violation {
                protocol: "TEST",
                rule: "bad-value",
                detail: format!("reached {}", s.0),
            })
        }
        fn is_terminal(&self, s: &S) -> bool {
            s.0 >= self.bound.saturating_sub(1)
        }
        fn render(&self, s: &S) -> Vec<(String, String)> {
            vec![("n".to_string(), s.0.to_string())]
        }
    }

    fn counter(bound: u32, bad: u32) -> Counter {
        Counter {
            bound,
            bad,
            stuck: u32::MAX,
        }
    }

    #[test]
    fn clean_model_closes_the_space() {
        let exp = explore(&counter(10, 99), 1_000);
        assert!(exp.violation.is_none());
        assert!(exp.complete);
        assert_eq!(exp.states, 11); // 0..=10
    }

    #[test]
    fn violation_trace_is_minimal() {
        let exp = explore(&counter(10, 7), 1_000);
        let ce = exp.violation.expect("7 is reachable");
        assert_eq!(ce.violation.rule, "bad-value");
        // The shortest paths to 7 with steps of 1 or 2 take four steps;
        // BFS must not return anything longer.
        assert_eq!(ce.steps.len(), 4);
        // Every step records the diff of `n`.
        assert!(ce.steps.iter().all(|s| s.changed.len() == 1));
    }

    #[test]
    fn initial_violation_has_an_empty_trace() {
        let exp = explore(&counter(10, 0), 1_000);
        assert_eq!(exp.states, 1);
        let ce = exp.violation.expect("the initial state is bad");
        assert!(ce.steps.is_empty());
        assert_eq!(ce.initial, vec![("n".to_string(), "0".to_string())]);
    }

    #[test]
    fn max_states_cap_reports_incomplete() {
        let exp = explore(&counter(100, 999), 5);
        assert!(!exp.complete);
        assert!(exp.violation.is_none());
        assert_eq!(exp.states, 5);
    }

    #[test]
    fn deadlock_is_flagged_with_its_minimal_trace() {
        // Value 3 is below the terminal frontier (>= 9) but enables
        // nothing. BFS order: 0 -> {1, 2}, 1 -> {3}, 2 -> {4}; node 3 is
        // then the first to be expanded and wedges.
        let exp = explore(
            &Counter {
                bound: 10,
                bad: 99,
                stuck: 3,
            },
            1_000,
        );
        let ce = exp.violation.expect("value 3 wedges");
        assert_eq!(
            (ce.violation.protocol, ce.violation.rule),
            ("EXPLORE", "deadlock")
        );
        assert!(exp.complete);
        assert_eq!(exp.states, 5); // 0, 1, 2, 3, 4
        let n = |v: &str| ("n".to_string(), v.to_string());
        assert_eq!(ce.initial, vec![n("0")]);
        let diff = |from: &str, to: &str| ("n".to_string(), from.to_string(), to.to_string());
        assert_eq!(
            ce.steps,
            vec![
                TraceStep {
                    action: "+1".to_string(),
                    changed: vec![diff("0", "1")],
                },
                TraceStep {
                    action: "+2".to_string(),
                    changed: vec![diff("1", "3")],
                },
            ]
        );
    }

    #[test]
    fn visited_table_grows_without_losing_keys() {
        // Far past the initial 1024 slots: every value is found again
        // after each doubling.
        let mut visited = Visited::new();
        let arena: Vec<u32> = (0..5_000).collect();
        for (idx, key) in arena.iter().enumerate() {
            let tag = tag_of(key);
            let Probe::Vacant(slot) = visited.probe(&arena[..idx], key, tag) else {
                panic!("{key} reported present before insertion");
            };
            visited.insert(slot, tag, narrow(idx));
        }
        for key in &arena {
            assert!(matches!(
                visited.probe(&arena, key, tag_of(key)),
                Probe::Found
            ));
        }
        assert_eq!(visited.len, arena.len());
    }
}
