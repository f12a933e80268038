//! # abt-workloads
//!
//! Workload generators for the `active-busy-time` workspace:
//!
//! * [`gadgets`] — every gadget/worked example of the paper with its
//!   closed-form bounds (Fig. 1, Fig. 3, the §3.5 integrality gap,
//!   Figs. 6–12), ε-constructions scaled to exact integer ticks;
//! * [`busy`] — busy-time families: machine-capacity `g` sweeps over a
//!   fixed job set, laminar nested-window fan-in instances, and
//!   release-ordered arrival streams (E24/E25);
//! * [`random`] — uniform, proper, clique, laminar, unit,
//!   feasibility-guaranteed, VUB-heavy nested-window, and many-components
//!   block-diagonal families for the comparison experiments;
//! * [`online`] — the online-arrivals stream (jobs arriving stripe by
//!   stripe from repeated window-layout templates), the stress family for
//!   the incremental driver;
//! * [`traces`] — synthetic VM-consolidation and optical-lightpath traces
//!   standing in for the motivating applications of §1.

#![warn(missing_docs)]

pub mod busy;
pub mod gadgets;
pub mod online;
pub mod random;
pub mod traces;

pub use busy::{
    busy_g_sweep, busy_laminar_nested, busy_release_stream, BusyLaminarConfig, BusyStreamConfig,
};
pub use gadgets::{
    fig10_flexible_factor4, fig1_example, fig3_minimal_tight, fig6_greedy_tracking_tight,
    fig8_interval_tight, fig9_dp_profile_tight, integrality_gap, Fig10, Fig3, Fig6, Fig8, Fig9,
    IntegralityGap, SCALE,
};
pub use online::{online_arrivals, OnlineArrivals, OnlineArrivalsConfig};
pub use random::{
    many_components, random_active_feasible, random_clique, random_flexible, random_interval,
    random_laminar, random_proper, random_unit, vub_heavy, ManyComponentsConfig, RandomConfig,
    VubHeavyConfig,
};
pub use traces::{optical_trace, vm_trace, OpticalTraceConfig, VmTraceConfig};
