//! # abt-core
//!
//! Shared substrate for the `active-busy-time` workspace: the instance
//! model, integer-tick time algebra, schedule representations with full
//! validators, demand profiles, and lower bounds, for the two scheduling
//! models of
//!
//! > Chang, Khuller, Mukherjee — *LP Rounding and Combinatorial Algorithms
//! > for Minimizing Active and Busy Time* (SPAA 2014).
//!
//! **Active time** (§2–3): one machine, slotted time, at most `g` job-units
//! per active slot, preemption at integer points; minimize the number of
//! active slots. **Busy time** (§4): unboundedly many machines of capacity
//! `g`, non-preemptive jobs; minimize summed busy (union) time.
//!
//! See the algorithm crates `abt-active` and `abt-busy` for the solvers, and
//! `abt-workloads` for generators of every gadget in the paper.

#![warn(missing_docs)]

pub mod active_schedule;
pub mod bounds;
pub mod busy_schedule;
pub mod error;
pub mod faultinject;
pub mod instance;
pub mod io;
pub mod jobs;
pub mod json;
pub mod obs;
pub mod parallel;
pub mod persist;
pub mod preemptive_schedule;
pub mod profile;
pub mod ratio;
pub mod time;

pub use active_schedule::ActiveSchedule;
pub use bounds::{active_lower_bound, busy_lower_bounds, BusyBounds};
pub use busy_schedule::{Bundle, BusySchedule};
pub use error::{BudgetKind, Error, Result, SolveFailure};
pub use instance::Instance;
pub use jobs::{Job, JobId};
pub use parallel::{panic_message, parallel_map, supervised_map};
pub use persist::{PersistError, StateDir};
pub use preemptive_schedule::{Piece, PreemptiveSchedule};
pub use profile::DemandProfile;
pub use ratio::{within_factor, within_frac_factor, Frac};
pub use time::{mass, span, Interval, IntervalSet, Time};
