//! Fleet-loop benchmark for the dro-edge workspace.
//!
//! Four closed-loop workloads drive the repository's crates through their
//! public APIs and time them from the outside (see `README.md` next to this
//! crate for why each workload exists and how each noise source is handled):
//!
//! * `fleet_round` — edge runtimes, in-memory server and cloud learner: one
//!   whole fetch → fit → report → admit → absorb → publish round per op;
//! * `report_ingest` — report frames through `ServerState::respond_bytes`
//!   into the learner, one drained batch per op;
//! * `plane_fetch` — keep-alive TCP clients against a one-worker
//!   `PriorServer`, one request per op;
//! * `fleet_sim` — the `dre-edgesim` event executor, one legacy fleet plus
//!   one switch-fabric fleet per op.
//!
//! An untraced run gives the end-to-end metrics; a traced run records spans
//! around the same public calls ([`trace`]) and gives the per-layer metrics.

pub mod alloc;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
