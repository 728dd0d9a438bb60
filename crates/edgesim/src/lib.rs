//! Deterministic event-driven cloud–edge simulator.
//!
//! The paper's deployment story — constrained devices, a far-away cloud,
//! and knowledge transfer instead of raw-data upload — is quantified here.
//! Physical testbed numbers are environment-specific, so the simulator
//! reproduces the *relative* costs: how many bytes cross the network and
//! when each device finishes, under each of three strategies:
//!
//! * [`Strategy::EdgeOnly`] — train locally, no communication;
//! * [`Strategy::CloudRoundTrip`] — upload raw samples, train in the cloud,
//!   download the model;
//! * [`Strategy::PriorTransfer`] — the paper's pipeline: request the DP
//!   prior, receive its serialized mixture, run EM locally.
//!
//! Everything is deterministic: discrete [`SimTime`] in microseconds, an
//! event queue with FIFO tie-breaking, and an explicit [`ComputeModel`]
//! mapping work to time. Prior-transfer byte counts are not modeled
//! guesses: [`REQUEST_BYTES`] and [`prior_transfer_bytes`] are the exact
//! framed wire sizes of the `dre-serve` serving layer.
//!
//! Cloud outages are part of the model: [`Scenario::with_outage`] drops
//! prior requests inside a window, and a [`RetryModel`] gives devices
//! response deadlines, deterministic doubling retries, and a local-ERM
//! fallback — each [`DeviceReport`] is tagged with the [`FitMode`] rung
//! that produced its model, matching the real runtime's vocabulary.
//!
//! Connection costs are opt-in: [`Scenario::with_client_mode`] charges
//! every fresh connection one transport-handshake round trip (time only,
//! separate from frame bytes) and adds the `ModelReport` telemetry leg
//! ([`model_report_bytes`]). [`ClientMode::FreshPerRequest`] pays the
//! handshake per message; [`ClientMode::KeepAlive`] — the mirror of
//! `dre-serve`'s keep-alive `PriorClient` — pays it once per device
//! round, amortizing it across retries and the report.
//!
//! # Example
//!
//! ```
//! use dre_edgesim::{Scenario, Strategy, Link, DeviceSpec, ComputeModel};
//!
//! let mut scenario = Scenario::new(ComputeModel::default());
//! scenario.add_device(DeviceSpec {
//!     link: Link::new_ms(20.0, 1_000_000.0), // 20 ms RTT leg, 1 MB/s
//!     strategy: Strategy::EdgeOnly { samples: 100, dim: 8, iterations: 50 },
//! });
//! let report = scenario.run();
//! assert_eq!(report.devices.len(), 1);
//! assert_eq!(report.devices[0].bytes_sent, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod event;
mod network;
mod scenario;
mod switch;
mod time;
mod topology;

pub use adversary::{flip_labels, poisoned_report, AdversaryKind};
pub use event::{Event, EventQueue, MessageKind};
pub use network::Link;
pub use scenario::{
    model_bytes, model_report_bytes, prior_transfer_bytes, raw_data_bytes, refresh_round_bytes,
    shard_map_bytes, ClientMode, ComputeModel, DeviceReport, DeviceSpec, EnergyModel, RetryModel,
    Scenario, SimReport, Strategy, TraceEvent, TraceKind, CLOUD_DEVICE, EM_COST, ERM_COST,
    REQUEST_BYTES,
};
pub use time::{SimDuration, SimTime};
pub use topology::{LossModel, SwitchConfig, Topology, ACK_BYTES, GBN_WINDOW};

// Simulated outage outcomes carry the same degradation tags as real fleet
// runs (`dre-serve`'s `EdgeRuntime`).
pub use dro_edge::FitMode;
