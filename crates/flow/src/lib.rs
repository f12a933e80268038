//! # abt-flow
//!
//! Max-flow substrate for the `active-busy-time` workspace: a residual
//! flow-graph representation, Dinic's algorithm (with an optional flow
//! limit), minimum-cut extraction, a naive Edmonds–Karp oracle for
//! differential testing, and integral path decomposition.
//!
//! Consumers: the Alicherry–Bhatia 2-approximation (Appendix A.2), and
//! the tests that pin `abt-active`'s feasibility oracle, which runs on an
//! implicit `G_feas` (Fig. 2 of the paper), against the explicit network.
//!
//! **Reuse.** One [`FlowGraph`] can carry network after network:
//! [`FlowGraph::clear`] empties it without freeing, and the graph keeps
//! Dinic's level, edge-cursor and queue buffers and the path
//! decomposition's visited marks across runs. The contract that makes a
//! rebuilt network answer like a fresh one: each node lists its edges in
//! insertion order, so the searches walk the same arcs in the same order
//! and return the same flows and paths. Alicherry–Bhatia builds every
//! extraction of a run in one graph; `tests/proptest_flow.rs` pins fresh
//! and rebuilt graphs to the `Vec`-per-node graph they replaced, kept
//! there as the oracle.

#![warn(missing_docs)]

pub mod dinic;
pub mod graph;
pub mod paths;

pub use dinic::{max_flow, max_flow_limited, max_flow_naive, min_cut_source_side, MaxFlow};
pub use graph::{Edge, EdgeId, FlowGraph, NodeId};
pub use paths::{decompose_unit_paths, FlowPath};
