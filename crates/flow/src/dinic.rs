//! Dinic's max-flow algorithm.
//!
//! Extracts the repeated 2-flows of the Alicherry–Bhatia busy-time
//! algorithm, and answers the explicit `G_feas` network of Fig. 2 (bipartite
//! with unit job–slot edges, where Dinic runs in `O(E √V)`) as the test
//! reference of the active-time feasibility oracle.

use crate::graph::{Edge, EdgeId, FlowGraph, NodeId, Scratch, NO_EDGE};
use std::collections::VecDeque;

/// Result of a max-flow computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxFlow {
    /// The max-flow value.
    pub value: i64,
}

/// Runs Dinic's algorithm from `s` to `t`, mutating the residual graph.
/// `limit` optionally caps the amount of flow pushed (useful for extracting
/// exactly-2-unit flows). The level, edge-cursor and queue buffers are
/// the graph's own, kept across runs (see [`FlowGraph`]).
pub fn max_flow_limited(g: &mut FlowGraph, s: NodeId, t: NodeId, limit: Option<i64>) -> MaxFlow {
    assert_ne!(s, t, "source equals sink");
    let n = g.node_count();
    let mut total = 0i64;
    let cap_left = |total: i64| limit.map_or(i64::MAX, |l| l - total);
    let mut scratch = std::mem::take(&mut g.scratch);
    let Scratch {
        level,
        cursor,
        queue,
        ..
    } = &mut scratch;
    level.clear();
    level.resize(n, -1);
    while cap_left(total) > 0 {
        // BFS phase: build level graph.
        level.iter_mut().for_each(|l| *l = -1);
        level[s] = 0;
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for e in g.out_edges(v) {
                let edge = g.edge(e);
                if edge.cap > 0 && level[edge.to] < 0 {
                    level[edge.to] = level[v] + 1;
                    queue.push(edge.to);
                }
            }
        }
        if level[t] < 0 {
            break;
        }
        // DFS phase: blocking flow.
        cursor.clear();
        cursor.extend((0..n).map(|v| g.first_edge(v)));
        loop {
            let pushed = dfs(g, s, t, cap_left(total), level, cursor);
            if pushed == 0 {
                break;
            }
            total += pushed;
            if cap_left(total) == 0 {
                break;
            }
        }
    }
    g.scratch = scratch;
    MaxFlow { value: total }
}

/// Runs Dinic's algorithm from `s` to `t` with no flow cap.
pub fn max_flow(g: &mut FlowGraph, s: NodeId, t: NodeId) -> MaxFlow {
    max_flow_limited(g, s, t, None)
}

fn dfs(
    g: &mut FlowGraph,
    v: NodeId,
    t: NodeId,
    limit: i64,
    level: &[i32],
    cursor: &mut [EdgeId],
) -> i64 {
    if v == t || limit == 0 {
        return limit;
    }
    while cursor[v] != NO_EDGE {
        let e = cursor[v];
        let Edge { to, cap, next, .. } = *g.edge(e);
        if cap > 0 && level[to] == level[v] + 1 {
            let pushed = dfs(g, to, t, limit.min(cap), level, cursor);
            if pushed > 0 {
                g.edge_mut(e).cap -= pushed;
                g.edge_mut(e ^ 1).cap += pushed;
                return pushed;
            }
        }
        cursor[v] = next;
    }
    0
}

/// After a max-flow run, returns the source side of a minimum cut.
pub fn min_cut_source_side(g: &FlowGraph, s: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut q = VecDeque::new();
    seen[s] = true;
    q.push_back(s);
    while let Some(v) = q.pop_front() {
        for e in g.out_edges(v) {
            let edge = g.edge(e);
            if edge.cap > 0 && !seen[edge.to] {
                seen[edge.to] = true;
                q.push_back(edge.to);
            }
        }
    }
    seen
}

/// A naive O(VE²) Edmonds–Karp implementation, kept as a differential-test
/// oracle for Dinic.
pub fn max_flow_naive(g: &mut FlowGraph, s: NodeId, t: NodeId) -> MaxFlow {
    let mut total = 0i64;
    loop {
        // BFS for any augmenting path.
        let n = g.node_count();
        let mut pred: Vec<Option<EdgeId>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[s] = true;
        let mut q = VecDeque::new();
        q.push_back(s);
        'bfs: while let Some(v) = q.pop_front() {
            for e in g.out_edges(v) {
                let edge = g.edge(e);
                if edge.cap > 0 && !seen[edge.to] {
                    seen[edge.to] = true;
                    pred[edge.to] = Some(e);
                    if edge.to == t {
                        break 'bfs;
                    }
                    q.push_back(edge.to);
                }
            }
        }
        if !seen[t] {
            break;
        }
        // Find bottleneck and augment.
        let mut bottleneck = i64::MAX;
        let mut v = t;
        while v != s {
            let e = pred[v].unwrap();
            bottleneck = bottleneck.min(g.edge(e).cap);
            v = g.edge(e ^ 1).to;
        }
        let mut v = t;
        while v != s {
            let e = pred[v].unwrap();
            g.edge_mut(e).cap -= bottleneck;
            g.edge_mut(e ^ 1).cap += bottleneck;
            v = g.edge(e ^ 1).to;
        }
        total += bottleneck;
    }
    MaxFlow { value: total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> FlowGraph {
        // s=0, t=3; two disjoint paths of capacity 2 and 3, plus a cross edge.
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, 2);
        g.add_edge(0, 2, 3);
        g.add_edge(1, 3, 3);
        g.add_edge(2, 3, 2);
        g.add_edge(1, 2, 1);
        g
    }

    #[test]
    fn simple_max_flow() {
        let mut g = diamond();
        assert_eq!(max_flow(&mut g, 0, 3).value, 4);
    }

    #[test]
    fn limited_flow_stops_early() {
        let mut g = diamond();
        assert_eq!(max_flow_limited(&mut g, 0, 3, Some(2)).value, 2);
        // Continue to the rest.
        assert_eq!(max_flow(&mut g, 0, 3).value, 2);
    }

    #[test]
    fn min_cut_separates_and_matches_value() {
        let mut g = diamond();
        let f = max_flow(&mut g, 0, 3);
        let side = min_cut_source_side(&g, 0);
        assert!(side[0] && !side[3]);
        // Cut capacity equals flow value.
        let mut cut = 0i64;
        for v in 0..g.node_count() {
            if !side[v] {
                continue;
            }
            for e in g.out_edges(v) {
                if e % 2 == 0 && !side[g.edge(e).to] {
                    cut += g.edge(e).orig_cap;
                }
            }
        }
        assert_eq!(cut, f.value);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 3, 5);
        assert_eq!(max_flow(&mut g, 0, 3).value, 0);
    }

    #[test]
    fn bipartite_matching_shape() {
        // 3 jobs, 2 slots of capacity 2: max assignment is 4 units.
        // s=0, jobs 1..=3, slots 4..=5, t=6.
        let mut g = FlowGraph::new(7);
        for j in 1..=3 {
            g.add_edge(0, j, 2);
        }
        for j in 1..=3 {
            for t in 4..=5 {
                g.add_edge(j, t, 1);
            }
        }
        for t in 4..=5 {
            g.add_edge(t, 6, 2);
        }
        assert_eq!(max_flow(&mut g, 0, 6).value, 4);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut g = diamond();
        assert_eq!(max_flow(&mut g, 0, 3).value, 4);
        g.reset();
        assert_eq!(max_flow(&mut g, 0, 3).value, 4);
    }
}
