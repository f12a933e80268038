#![allow(clippy::needless_range_loop)] // index loops mirror the math

//! Differential property tests: Dinic vs naive Edmonds–Karp on random
//! graphs, plus flow-conservation and min-cut invariants, and the reusable
//! graph against the one it replaced.
//!
//! The replaced graph, kept below verbatim as the oracle with its Dinic
//! and path decomposition, kept one `Vec` of edge ids per node and built
//! fresh buffers on every run. The shipping graph threads each node's
//! edges through one edge array and keeps its buffers when cleared for the
//! next network. On random networks, solved in a fresh graph and in one
//! that solved another network first, both must push the same flow on
//! every edge and decompose it into the same paths, under every flow
//! limit: Alicherry–Bhatia's tracks depend on exactly that.

use abt_flow::{max_flow, max_flow_limited, max_flow_naive, min_cut_source_side, FlowGraph};
use proptest::prelude::*;

/// The graph, Dinic and path decomposition that the reusable graph
/// replaced.
mod oracle {
    use std::collections::VecDeque;

    type NodeId = usize;
    type EdgeId = usize;

    #[derive(Debug, Clone, Copy)]
    pub struct Edge {
        pub to: NodeId,
        pub cap: i64,
        pub orig_cap: i64,
    }

    /// A flow network stored as paired forward/backward residual edges.
    #[derive(Debug, Clone, Default)]
    pub struct FlowGraph {
        edges: Vec<Edge>,
        /// `adj[v]` = ids of edges leaving `v` (both forward and residual).
        adj: Vec<Vec<EdgeId>>,
    }

    impl FlowGraph {
        pub fn new(n: usize) -> Self {
            FlowGraph {
                edges: Vec::new(),
                adj: vec![Vec::new(); n],
            }
        }

        pub fn node_count(&self) -> usize {
            self.adj.len()
        }

        pub fn add_edge(&mut self, u: NodeId, v: NodeId, cap: i64) -> EdgeId {
            assert!(cap >= 0, "negative capacity");
            assert!(
                u < self.adj.len() && v < self.adj.len(),
                "node out of range"
            );
            let id = self.edges.len();
            self.edges.push(Edge {
                to: v,
                cap,
                orig_cap: cap,
            });
            self.edges.push(Edge {
                to: u,
                cap: 0,
                orig_cap: 0,
            });
            self.adj[u].push(id);
            self.adj[v].push(id + 1);
            id
        }

        pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
            &self.adj[v]
        }

        pub fn edge(&self, e: EdgeId) -> &Edge {
            &self.edges[e]
        }

        fn edge_mut(&mut self, e: EdgeId) -> &mut Edge {
            &mut self.edges[e]
        }

        pub fn flow(&self, e: EdgeId) -> i64 {
            self.edges[e].orig_cap - self.edges[e].cap
        }

        pub fn edge_count(&self) -> usize {
            self.edges.len()
        }
    }

    /// Runs Dinic's algorithm from `s` to `t`, mutating the residual graph.
    pub fn max_flow_limited(g: &mut FlowGraph, s: NodeId, t: NodeId, limit: Option<i64>) -> i64 {
        assert_ne!(s, t, "source equals sink");
        let n = g.node_count();
        let mut total = 0i64;
        let cap_left = |total: i64| limit.map_or(i64::MAX, |l| l - total);
        let mut level = vec![-1i32; n];
        let mut it = vec![0usize; n];
        while cap_left(total) > 0 {
            // BFS phase: build level graph.
            level.iter_mut().for_each(|l| *l = -1);
            level[s] = 0;
            let mut q = VecDeque::new();
            q.push_back(s);
            while let Some(v) = q.pop_front() {
                for &e in g.out_edges(v) {
                    let edge = g.edge(e);
                    if edge.cap > 0 && level[edge.to] < 0 {
                        level[edge.to] = level[v] + 1;
                        q.push_back(edge.to);
                    }
                }
            }
            if level[t] < 0 {
                break;
            }
            // DFS phase: blocking flow.
            it.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = dfs(g, s, t, cap_left(total), &level, &mut it);
                if pushed == 0 {
                    break;
                }
                total += pushed;
                if cap_left(total) == 0 {
                    break;
                }
            }
        }
        total
    }

    fn dfs(
        g: &mut FlowGraph,
        v: NodeId,
        t: NodeId,
        limit: i64,
        level: &[i32],
        it: &mut [usize],
    ) -> i64 {
        if v == t || limit == 0 {
            return limit;
        }
        while it[v] < g.out_edges(v).len() {
            let e = g.out_edges(v)[it[v]];
            let (to, cap) = {
                let edge = g.edge(e);
                (edge.to, edge.cap)
            };
            if cap > 0 && level[to] == level[v] + 1 {
                let pushed = dfs(g, to, t, limit.min(cap), level, it);
                if pushed > 0 {
                    g.edge_mut(e).cap -= pushed;
                    g.edge_mut(e ^ 1).cap += pushed;
                    return pushed;
                }
            }
            it[v] += 1;
        }
        0
    }

    /// Decomposes the current (integral) flow on `g` into unit `s → t` paths.
    pub fn decompose_unit_paths(g: &mut FlowGraph, s: NodeId, t: NodeId) -> Vec<Vec<EdgeId>> {
        let mut paths = Vec::new();
        loop {
            // Walk greedily along edges with positive flow.
            let mut path = Vec::new();
            let mut v = s;
            let mut seen = vec![false; g.node_count()];
            seen[s] = true;
            while v != t {
                let mut next = None;
                for &e in g.out_edges(v) {
                    // Forward edges are even; flow(e) > 0 means it carries flow.
                    if e % 2 == 0 && g.flow(e) > 0 && !seen[g.edge(e).to] {
                        next = Some(e);
                        break;
                    }
                }
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
}

/// A random graph description: n nodes, edges (u, v, cap).
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (2usize..10).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0i64..20);
        (Just(n), proptest::collection::vec(edge, 0..30))
    })
}

fn build(n: usize, edges: &[(usize, usize, i64)]) -> FlowGraph {
    let mut g = FlowGraph::new(n);
    add_edges(&mut g, edges);
    g
}

fn add_edges(g: &mut FlowGraph, edges: &[(usize, usize, i64)]) {
    for &(u, v, c) in edges {
        if u != v {
            g.add_edge(u, v, c);
        }
    }
}

proptest! {
    #[test]
    fn dinic_matches_naive((n, edges) in graph_strategy()) {
        let mut g1 = build(n, &edges);
        let mut g2 = build(n, &edges);
        let f1 = max_flow(&mut g1, 0, n - 1);
        let f2 = max_flow_naive(&mut g2, 0, n - 1);
        prop_assert_eq!(f1.value, f2.value);
    }

    #[test]
    fn flow_conservation_holds((n, edges) in graph_strategy()) {
        let mut g = build(n, &edges);
        let f = max_flow(&mut g, 0, n - 1);
        // Net flow out of each internal node is zero; out of source is f.
        let mut net = vec![0i64; n];
        for v in 0..n {
            for e in g.out_edges(v) {
                if e % 2 == 0 {
                    net[v] -= g.flow(e);
                    net[g.edge(e).to] += g.flow(e);
                }
            }
        }
        prop_assert_eq!(net[0], -f.value);
        prop_assert_eq!(net[n - 1], f.value);
        for v in 1..n - 1 {
            prop_assert_eq!(net[v], 0);
        }
    }

    #[test]
    fn min_cut_value_equals_flow((n, edges) in graph_strategy()) {
        let mut g = build(n, &edges);
        let f = max_flow(&mut g, 0, n - 1);
        let side = min_cut_source_side(&g, 0);
        prop_assert!(side[0]);
        prop_assert!(!side[n - 1]);
        let mut cut = 0i64;
        for v in 0..n {
            if !side[v] { continue; }
            for e in g.out_edges(v) {
                if e % 2 == 0 && !side[g.edge(e).to] {
                    cut += g.edge(e).orig_cap;
                }
            }
        }
        prop_assert_eq!(cut, f.value);
    }

    // The reuse contract: a fresh graph, and one cleared and rebuilt after
    // solving another network, push the oracle's flow on every edge and
    // peel the oracle's paths.
    #[test]
    fn fresh_and_rebuilt_graphs_match_the_replaced_one(
        (n1, edges1) in graph_strategy(),
        (n2, edges2) in graph_strategy(),
        limit in 0i64..5,
    ) {
        let limit = (limit > 0).then_some(limit);
        let mut want = oracle::FlowGraph::new(n2);
        for &(u, v, c) in &edges2 {
            if u != v {
                want.add_edge(u, v, c);
            }
        }
        let value = oracle::max_flow_limited(&mut want, 0, n2 - 1, limit);
        let want_flows: Vec<i64> = (0..want.edge_count()).map(|e| want.flow(e)).collect();
        let want_paths = oracle::decompose_unit_paths(&mut want, 0, n2 - 1);

        let mut reused = build(n1, &edges1);
        max_flow(&mut reused, 0, n1 - 1);
        abt_flow::decompose_unit_paths(&mut reused, 0, n1 - 1);
        reused.clear(n2);
        add_edges(&mut reused, &edges2);
        for mut g in [build(n2, &edges2), reused] {
            prop_assert_eq!(g.node_count(), n2);
            for v in 0..n2 {
                prop_assert!(g.out_edges(v).eq(want.out_edges(v).iter().copied()));
            }
            prop_assert_eq!(max_flow_limited(&mut g, 0, n2 - 1, limit).value, value);
            let flows: Vec<i64> = (0..g.edge_count()).map(|e| g.flow(e)).collect();
            prop_assert_eq!(&flows, &want_flows);
            prop_assert_eq!(&abt_flow::decompose_unit_paths(&mut g, 0, n2 - 1), &want_paths);
        }
    }

    #[test]
    fn path_decomposition_accounts_for_all_flow((n, edges) in graph_strategy()) {
        let mut g = build(n, &edges);
        let f = max_flow(&mut g, 0, n - 1);
        let paths = abt_flow::decompose_unit_paths(&mut g, 0, n - 1);
        prop_assert_eq!(paths.len() as i64, f.value);
        for p in &paths {
            // Each path starts at source, ends at sink, is edge-connected.
            prop_assert_eq!(g.edge(p[0] ^ 1).to, 0);
            prop_assert_eq!(g.edge(*p.last().unwrap()).to, n - 1);
            for w in p.windows(2) {
                prop_assert_eq!(g.edge(w[0]).to, g.edge(w[1] ^ 1).to);
            }
        }
    }
}
