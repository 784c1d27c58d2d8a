//! Shared best-first priority queue for incremental tree traversals.
//!
//! Tree cursors interleave two kinds of queue entries: *points* keyed by
//! their exact distance and *nodes* keyed by a lower bound on the distance
//! of any point in their subtree. Popping entries in key order yields points
//! in exact nondecreasing distance order, because a node can only produce
//! points at distance ≥ its key.
//!
//! Points and nodes wait in separate heaps. A point is the integer pair
//! `(dist.to_bits(), id)`: distances are never NaN or negative, so the bit
//! pattern orders like the value, and the pair compares as two integers.
//! [`BestFirst::pop`] takes the top point when its distance is at most the
//! top node's key, which is the one queue order `(key, points first, id)`.

use crate::float::OrderedF64;
use crate::neighbor::{Neighbor, PointId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// What a [`BestFirst::pop`] produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popped {
    /// A point with its exact distance — safe to emit.
    Point(Neighbor),
    /// A node to expand. `key` is the lower bound it was queued with and
    /// `payload` an arbitrary value stored at push time (typically the exact
    /// query–pivot distance, or `NAN` when not yet computed).
    Node {
        /// Index of the node in the owning tree's arena.
        id: usize,
        /// The lower bound the node was queued with.
        key: f64,
        /// Caller-defined payload.
        payload: f64,
    },
}

#[derive(Debug, Clone, Copy)]
struct NodeEntry {
    key: OrderedF64,
    id: usize,
    payload: f64,
}

impl PartialEq for NodeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for NodeEntry {}

impl PartialOrd for NodeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest key pops first.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// A min-ordered queue of points and expandable nodes.
#[derive(Debug, Clone, Default)]
pub struct BestFirst {
    /// Points as `(distance bits, id)`, smallest first.
    points: BinaryHeap<Reverse<(u64, PointId)>>,
    nodes: BinaryHeap<NodeEntry>,
    pushes: u64,
}

impl BestFirst {
    /// An empty queue.
    pub fn new() -> Self {
        BestFirst::default()
    }

    /// Empties the queue and resets the push counter, keeping the heaps'
    /// allocations — the reset that lets a [`crate::scratch::TreeScratch`]
    /// serve one traversal after another without reallocating.
    pub fn clear(&mut self) {
        self.points.clear();
        self.nodes.clear();
        self.pushes = 0;
    }

    /// Queues a point with its exact distance, which must be neither NaN
    /// nor negative (`-0.0` included); it is emitted with the same bits.
    #[inline]
    pub fn push_point(&mut self, n: Neighbor) {
        debug_assert!(
            !n.dist.is_nan() && !n.dist.is_sign_negative(),
            "point distance {} does not order by its bits",
            n.dist
        );
        self.pushes += 1;
        self.points.push(Reverse((n.dist.to_bits(), n.id)));
    }

    /// Queues a node with a lower bound `key` and arbitrary `payload`.
    #[inline]
    pub fn push_node(&mut self, id: usize, key: f64, payload: f64) {
        self.pushes += 1;
        self.nodes.push(NodeEntry {
            key: OrderedF64::new(key),
            id,
            payload,
        });
    }

    /// Pops the entry with the smallest key (points before nodes on ties).
    pub fn pop(&mut self) -> Option<Popped> {
        let point_first = match (self.points.peek(), self.nodes.peek()) {
            (Some(&Reverse((bits, _))), Some(node)) => f64::from_bits(bits) <= node.key.get(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if point_first {
            let Reverse((bits, id)) = self.points.pop()?;
            Some(Popped::Point(Neighbor::new(id, f64::from_bits(bits))))
        } else {
            let e = self.nodes.pop()?;
            Some(Popped::Node {
                id: e.id,
                key: e.key.get(),
                payload: e.payload,
            })
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty() && self.nodes.is_empty()
    }

    /// Number of pushes performed (for [`crate::SearchStats`]).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = BestFirst::new();
        q.push_node(0, 2.0, 9.0);
        q.push_point(Neighbor::new(10, 1.0));
        q.push_point(Neighbor::new(11, 3.0));
        assert_eq!(q.pop(), Some(Popped::Point(Neighbor::new(10, 1.0))));
        assert_eq!(
            q.pop(),
            Some(Popped::Node {
                id: 0,
                key: 2.0,
                payload: 9.0
            })
        );
        assert_eq!(q.pop(), Some(Popped::Point(Neighbor::new(11, 3.0))));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pushes(), 3);
    }

    #[test]
    fn points_pop_before_nodes_on_ties() {
        let mut q = BestFirst::new();
        q.push_node(0, 1.0, 0.0);
        q.push_point(Neighbor::new(5, 1.0));
        assert!(matches!(q.pop(), Some(Popped::Point(_))));
        assert!(matches!(q.pop(), Some(Popped::Node { .. })));
    }

    #[test]
    fn clear_resets_contents_and_counter() {
        let mut q = BestFirst::new();
        q.push_node(0, 1.0, 0.0);
        q.push_point(Neighbor::new(1, 2.0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pushes(), 0);
        q.push_point(Neighbor::new(2, 0.5));
        assert_eq!(q.pop(), Some(Popped::Point(Neighbor::new(2, 0.5))));
        assert_eq!(q.pushes(), 1);
    }

    /// A queue entry of the reference model: `(key, is_node, id, payload)`.
    type Model = (f64, bool, usize, f64);

    /// The old single-heap order: key, then points before nodes, then id.
    fn model_cmp(a: &Model, b: &Model) -> Ordering {
        OrderedF64(a.0)
            .cmp(&OrderedF64(b.0))
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    }

    fn model_pop(model: &mut Vec<Model>) -> Option<Popped> {
        model.sort_by(model_cmp);
        (!model.is_empty()).then(|| {
            let (key, is_node, id, payload) = model.remove(0);
            if is_node {
                Popped::Node { id, key, payload }
            } else {
                Popped::Point(Neighbor::new(id, key))
            }
        })
    }

    /// The pop, with its distance or key as bits so that `0.0` and `-0.0`
    /// or two NaN payloads cannot compare loosely.
    fn bits(p: Option<Popped>) -> Option<(bool, usize, u64, u64)> {
        p.map(|p| match p {
            Popped::Point(n) => (false, n.id, n.dist.to_bits(), 0),
            Popped::Node { id, key, payload } => (true, id, key.to_bits(), payload.to_bits()),
        })
    }

    #[test]
    fn split_heaps_pop_in_the_single_heap_order() {
        // Few distinct keys, so points and nodes collide on keys and ids,
        // and points repeat distances; `0.0`, `+∞` and a subnormal are
        // among the keys. A node is queued once, so node ids are unique
        // (two nodes tied on key and id would pop in either order).
        let keys = [
            0.0,
            f64::from_bits(1),
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            1e300,
            f64::INFINITY,
        ];
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        for round in 0..200 {
            let mut q = BestFirst::new();
            let mut model: Vec<Model> = Vec::new();
            let (mut pushes, mut node_id) = (0, 0);
            for step in 0..150 {
                let r = next(10);
                if r < 6 {
                    let key = keys[next(keys.len() as u64) as usize];
                    if r < 3 {
                        let id = next(12) as usize;
                        q.push_point(Neighbor::new(id, key));
                        model.push((key, false, id, key));
                    } else {
                        let payload = if r == 5 { f64::NAN } else { next(100) as f64 };
                        q.push_node(node_id, key, payload);
                        model.push((key, true, node_id, payload));
                        node_id += 1;
                    }
                    pushes += 1;
                } else {
                    let want = model_pop(&mut model);
                    assert_eq!(bits(q.pop()), bits(want), "round {round} step {step}");
                }
                assert_eq!(q.is_empty(), model.is_empty());
            }
            assert_eq!(q.pushes(), pushes);
            while let Some(want) = model_pop(&mut model) {
                assert_eq!(bits(q.pop()), bits(Some(want)), "round {round} drain");
            }
            assert_eq!(q.pop(), None);
        }
    }
}
