//! Decomposition of an integral flow into source–sink paths.
//!
//! The Alicherry–Bhatia busy-time algorithm (Appendix A.2) repeatedly
//! extracts a 2-unit flow over the event graph and needs the two unit paths
//! explicitly: each path visits a set of job arcs that forms a *track*
//! (pairwise-disjoint intervals).

use crate::graph::{EdgeId, FlowGraph, NodeId};

/// One unit flow path: the forward edge ids traversed from source to sink.
pub type FlowPath = Vec<EdgeId>;

/// Decomposes the current (integral) flow on `g` into unit `s → t` paths.
///
/// Consumes the flow (edge flows are decremented as paths are peeled), so
/// call it once after the flow computation. Cycles of flow (which carry no
/// `s→t` value) are left in place and ignored. The walks' visited marks
/// are the graph's own buffer, kept across runs (see [`FlowGraph`]).
pub fn decompose_unit_paths(g: &mut FlowGraph, s: NodeId, t: NodeId) -> Vec<FlowPath> {
    let mut seen = std::mem::take(&mut g.scratch.seen);
    let mut paths = Vec::new();
    loop {
        // Walk greedily along edges with positive flow.
        let mut path = Vec::new();
        let mut v = s;
        seen.clear();
        seen.resize(g.node_count(), false);
        seen[s] = true;
        while v != t {
            // Forward edges are even; flow(e) > 0 means it carries flow.
            let next = g
                .out_edges(v)
                .find(|&e| e % 2 == 0 && g.flow(e) > 0 && !seen[g.edge(e).to]);
            match next {
                Some(e) => {
                    path.push(e);
                    v = g.edge(e).to;
                    seen[v] = true;
                }
                None => break,
            }
        }
        if v != t || path.is_empty() {
            g.scratch.seen = seen;
            return paths;
        }
        // Peel one unit along the path.
        for &e in &path {
            g.edge_mut(e).cap += 1;
            g.edge_mut(e ^ 1).cap -= 1;
        }
        paths.push(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::max_flow;

    #[test]
    fn decomposes_into_expected_number_of_paths() {
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 3, 1);
        g.add_edge(2, 3, 1);
        let f = max_flow(&mut g, 0, 3);
        assert_eq!(f.value, 2);
        let paths = decompose_unit_paths(&mut g, 0, 3);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 2);
        }
        // All flow consumed.
        assert!(decompose_unit_paths(&mut g, 0, 3).is_empty());
    }

    #[test]
    fn shared_middle_edge() {
        // Two paths forced through one capacity-2 edge.
        let mut g = FlowGraph::new(6);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 3, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(3, 4, 2);
        g.add_edge(4, 5, 2);
        assert_eq!(max_flow(&mut g, 0, 5).value, 2);
        let paths = decompose_unit_paths(&mut g, 0, 5);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(g.edge(*p.last().unwrap()).to, 5);
        }
    }

    #[test]
    fn zero_flow_gives_no_paths() {
        let mut g = FlowGraph::new(3);
        g.add_edge(0, 1, 1);
        let paths = decompose_unit_paths(&mut g, 0, 2);
        assert!(paths.is_empty());
    }
}
