//! A compact residual-graph representation for max-flow.

/// Index of a node in a [`FlowGraph`].
pub type NodeId = usize;

/// Index of a *directed* edge (its residual twin is `e ^ 1`).
pub type EdgeId = usize;

/// The end of a node's edge list.
pub(crate) const NO_EDGE: EdgeId = EdgeId::MAX;

/// One directed edge of the residual graph.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Head of the edge.
    pub to: NodeId,
    /// Remaining residual capacity.
    pub cap: i64,
    /// Original capacity (before any flow was pushed).
    pub orig_cap: i64,
    /// The next edge leaving the same tail, in insertion order.
    pub(crate) next: EdgeId,
}

/// A flow network stored as paired forward/backward residual edges.
///
/// Edges are appended in pairs, so the reverse of edge `e` is always
/// `e ^ 1`; `flow(e) = orig_cap(e) − cap(e)`. Each node's edges form a
/// list threaded through the edge array (its first and last edge, and
/// each edge's successor), so the whole network lives in three flat
/// vectors.
///
/// **Reuse.** [`FlowGraph::clear`] empties the graph for the next network
/// without freeing anything: the edge array, the list heads and the
/// solvers' scratch (Dinic's levels, edge cursors and queue, the path
/// decomposition's visited marks) keep their capacity. A caller that
/// solves network after network in one graph allocates only where a
/// network outgrows every earlier one. A node lists its edges in the
/// order they were added, in a fresh graph and a cleared one alike, so
/// Dinic's searches and the path decomposition walk the same arcs in the
/// same order and return the same flows and paths on a rebuilt network
/// as on a fresh one.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    edges: Vec<Edge>,
    /// Per node: its first and last edge (both residual and forward), or
    /// [`NO_EDGE`].
    first: Vec<EdgeId>,
    last: Vec<EdgeId>,
    pub(crate) scratch: Scratch,
}

/// The solvers' work buffers, kept across runs by [`FlowGraph`]. Each
/// solver takes them out for its run and puts them back.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Dinic: each node's BFS level (−1 = unreached).
    pub(crate) level: Vec<i32>,
    /// Dinic: each node's next edge to try in the blocking-flow DFS.
    pub(crate) cursor: Vec<EdgeId>,
    /// Dinic: the BFS queue.
    pub(crate) queue: Vec<NodeId>,
    /// Path decomposition: the nodes the current walk has visited.
    pub(crate) seen: Vec<bool>,
}

impl FlowGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowGraph {
            edges: Vec::new(),
            first: vec![NO_EDGE; n],
            last: vec![NO_EDGE; n],
            scratch: Scratch::default(),
        }
    }

    /// Empties the graph to `n` nodes and no edges, keeping the capacity
    /// of every buffer (see the type docs).
    pub fn clear(&mut self, n: usize) {
        self.edges.clear();
        for list in [&mut self.first, &mut self.last] {
            list.clear();
            list.resize(n, NO_EDGE);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.first.len()
    }

    /// Adds a directed edge `u → v` with capacity `cap ≥ 0`; returns the
    /// forward edge id.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, cap: i64) -> EdgeId {
        assert!(cap >= 0, "negative capacity");
        let n = self.node_count();
        assert!(u < n && v < n, "node out of range");
        let id = self.edges.len();
        for (tail, head, cap) in [(u, v, cap), (v, u, 0)] {
            let e = self.edges.len();
            self.edges.push(Edge {
                to: head,
                cap,
                orig_cap: cap,
                next: NO_EDGE,
            });
            match self.last[tail] {
                NO_EDGE => self.first[tail] = e,
                prev => self.edges[prev].next = e,
            }
            self.last[tail] = e;
        }
        id
    }

    /// The edge ids leaving `v`, in the order they were added.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let mut e = self.first[v];
        std::iter::from_fn(move || {
            let id = e;
            e = self.edges.get(id)?.next;
            Some(id)
        })
    }

    /// The first edge leaving `v`, or [`NO_EDGE`].
    pub(crate) fn first_edge(&self, v: NodeId) -> EdgeId {
        self.first[v]
    }

    /// Immutable edge access.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Mutable edge access (used by the solvers).
    pub(crate) fn edge_mut(&mut self, e: EdgeId) -> &mut Edge {
        &mut self.edges[e]
    }

    /// Flow currently on (forward) edge `e`.
    pub fn flow(&self, e: EdgeId) -> i64 {
        self.edges[e].orig_cap - self.edges[e].cap
    }

    /// Number of directed residual edges (2 × added edges).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Resets all flow to zero.
    pub fn reset(&mut self) {
        for e in &mut self.edges {
            e.cap = e.orig_cap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_pairing_invariant() {
        let mut g = FlowGraph::new(3);
        let e0 = g.add_edge(0, 1, 5);
        let e1 = g.add_edge(1, 2, 3);
        assert_eq!(e0, 0);
        assert_eq!(e1, 2);
        assert_eq!(g.edge(e0 ^ 1).to, 0);
        assert_eq!(g.edge(e1 ^ 1).to, 1);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn clear_keeps_buffers_and_insertion_order() {
        let mut g = FlowGraph::new(4);
        for v in 1..4 {
            g.add_edge(0, v, 1);
        }
        let kept = g.edges.capacity();
        g.clear(2);
        assert_eq!((g.node_count(), g.edge_count()), (2, 0));
        assert_eq!(g.out_edges(0).count(), 0);
        assert_eq!(g.edges.capacity(), kept);
        let e0 = g.add_edge(1, 0, 3);
        let e1 = g.add_edge(0, 1, 2);
        let e2 = g.add_edge(0, 1, 1);
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [e0 + 1, e1, e2]);
        assert_eq!(g.out_edges(1).collect::<Vec<_>>(), [e0, e1 + 1, e2 + 1]);
        g.clear(6);
        assert_eq!(g.node_count(), 6);
        assert!((0..6).all(|v| g.out_edges(v).count() == 0));
    }

    #[test]
    fn flow_accounting_and_reset() {
        let mut g = FlowGraph::new(2);
        let e = g.add_edge(0, 1, 4);
        g.edge_mut(e).cap -= 3;
        g.edge_mut(e ^ 1).cap += 3;
        assert_eq!(g.flow(e), 3);
        g.reset();
        assert_eq!(g.flow(e), 0);
    }
}
