//! Scenario assembly and the flat-state event executor.

use crate::event::{Event, EventQueue, MessageKind};
use crate::switch::{Frame, FrameSlab, PortState, Transfer, TransferSlab, NONE};
use crate::topology::{Topology, ACK_BYTES, GBN_WINDOW};
use crate::{Link, SimDuration, SimTime};
use dro_edge::FitMode;

/// Cost coefficient of plain ERM training per sample·dim·iteration.
pub const ERM_COST: f64 = 20.0;
/// Cost coefficient of the DRO-EM training loop (dual evaluation plus the
/// prior quadratic) per sample·dim·iteration.
pub const EM_COST: f64 = 60.0;

/// Deterministic compute-cost model.
///
/// Training cost is `coeff · samples · dim · iterations` floating-point
/// operations ([`ERM_COST`] or [`EM_COST`] for `coeff`), divided by the
/// executor's effective FLOP rate. The absolute numbers are illustrative
/// (experiments report ratios); the defaults put three orders of magnitude
/// between a microcontroller-class device and a cloud server, matching the
/// paper's motivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Effective device throughput in FLOP/s.
    pub device_flops: f64,
    /// Effective cloud throughput in FLOP/s (single job at a time; jobs
    /// queue FIFO — cloud contention is part of the model).
    pub cloud_flops: f64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            device_flops: 1e8,
            cloud_flops: 1e11,
        }
    }
}

impl ComputeModel {
    fn train_flops(&self, coeff: f64, samples: usize, dim: usize, iterations: usize) -> f64 {
        coeff * samples as f64 * dim as f64 * iterations.max(1) as f64
    }

    fn train_time(
        &self,
        coeff: f64,
        flops_per_sec: f64,
        samples: usize,
        dim: usize,
        iterations: usize,
    ) -> SimDuration {
        SimDuration::from_secs_f64(
            self.train_flops(coeff, samples, dim, iterations) / flops_per_sec,
        )
    }
}

/// Device energy model: picojoules per floating-point operation and
/// microjoules per byte over the radio.
///
/// Battery life — not latency — is the binding constraint on many IoT
/// devices, and the radio typically costs orders of magnitude more energy
/// per byte than the ALU costs per FLOP. The defaults are
/// microcontroller-class ballparks (100 pJ/FLOP compute, 2 µJ/byte radio);
/// experiments report ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Device compute energy per floating-point operation, in joules.
    pub joules_per_flop: f64,
    /// Device radio energy per byte (sent or received), in joules.
    pub joules_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            joules_per_flop: 100e-12,
            joules_per_byte: 2e-6,
        }
    }
}

/// What a device does in the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Train locally on the device; no communication.
    EdgeOnly {
        /// Local sample count.
        samples: usize,
        /// Feature dimension.
        dim: usize,
        /// Optimizer iterations.
        iterations: usize,
    },
    /// Upload raw samples, train in the cloud (FIFO-queued), download the
    /// model.
    CloudRoundTrip {
        /// Local sample count (uploaded).
        samples: usize,
        /// Feature dimension.
        dim: usize,
        /// Optimizer iterations (on the cloud).
        iterations: usize,
    },
    /// The paper's pipeline: fetch the precomputed DP prior, then run the
    /// DRO-EM training loop locally.
    ///
    /// Transfer sizes are not assumed: the request costs
    /// [`REQUEST_BYTES`] and the prior payload costs
    /// [`prior_transfer_bytes`]`(prior_components, dim)`, both measured
    /// from the real `dre-serve` frame codec.
    PriorTransfer {
        /// Local sample count.
        samples: usize,
        /// Feature dimension.
        dim: usize,
        /// Inner-solver iterations per EM round.
        iterations: usize,
        /// EM rounds.
        em_rounds: usize,
        /// Mixture components in the transferred prior (`K`); together
        /// with `dim` this determines the wire size of the payload.
        prior_components: usize,
    },
}

/// How a device's serving client manages its connection to the cloud —
/// the simulator's mirror of `dre-serve`'s `PriorClient` modes.
///
/// Configuring a mode ([`Scenario::with_client_mode`]) turns on the
/// connection model: every *fresh* connection costs one extra round trip
/// (the transport handshake — two propagation legs before the request's
/// first byte departs), charged as time only, and devices that land a
/// prior report their fitted model back over a framed `ModelReport`
/// ([`model_report_bytes`]). Without a mode the simulator keeps its legacy
/// behaviour: frames appear on the wire with no per-connection cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMode {
    /// A fresh connection per request: every message — each prior-request
    /// attempt and the model report — pays the handshake.
    FreshPerRequest,
    /// One persistent connection per device round: only the first message
    /// pays the handshake; retries and the model report reuse the stream.
    /// (The outage window drops requests at the application layer, so the
    /// stream itself stays up — matching the real client, where only a
    /// transport failure forces a reconnect.)
    KeepAlive,
}

/// One device: its link to the cloud and its strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Link between this device and the cloud (its access link to the
    /// switch, in topology mode).
    pub link: Link,
    /// What the device does.
    pub strategy: Strategy,
}

/// Deterministic retry behaviour for prior requests: a device that hears
/// nothing within the deadline resends, doubling the deadline each
/// attempt, and after `max_attempts` silent attempts falls back to local
/// ERM training ([`FitMode::LocalOnly`]).
///
/// Set the base `timeout` above the link's worst-case response time, or
/// devices will resend (and possibly fall back) while the real response is
/// still in flight — exactly the spurious-retry failure a real deployment
/// would exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryModel {
    /// Response deadline for the first attempt; attempt `k` waits
    /// `timeout · 2^(k−1)`.
    pub timeout: SimDuration,
    /// Total request attempts before giving up (min 1).
    pub max_attempts: u32,
}

impl Default for RetryModel {
    fn default() -> Self {
        RetryModel {
            timeout: SimDuration::from_millis_f64(200.0),
            max_attempts: 3,
        }
    }
}

impl RetryModel {
    /// Deadline for the given 1-based attempt: `timeout · 2^(attempt−1)`.
    pub fn deadline(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(16);
        SimDuration::from_micros(self.timeout.as_micros().saturating_mul(1 << shift))
    }
}

/// Per-device outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceReport {
    /// Bytes the device sent to the cloud. In topology mode this counts
    /// what actually left the radio: every frame including
    /// retransmissions and transport acks.
    pub bytes_sent: u64,
    /// Bytes the device received from the cloud (in topology mode,
    /// including transport acks).
    pub bytes_received: u64,
    /// Simulated time at which the device's model was ready.
    pub completion: SimTime,
    /// Device-side compute energy spent, in joules.
    pub compute_joules: f64,
    /// Device-side radio energy spent, in joules.
    pub radio_joules: f64,
    /// Which rung of the degradation ladder produced the device's model.
    /// [`Strategy::EdgeOnly`] is [`FitMode::LocalOnly`] by construction;
    /// [`Strategy::CloudRoundTrip`] delivers cloud-fresh knowledge; a
    /// [`Strategy::PriorTransfer`] device reports [`FitMode::FreshPrior`]
    /// when the prior arrived or [`FitMode::LocalOnly`] after exhausting
    /// its retry budget during an outage.
    pub mode: FitMode,
    /// Prior/upload request attempts made (0 for [`Strategy::EdgeOnly`]).
    pub attempts: u32,
    /// Transport handshakes the device performed. Always 0 unless a
    /// [`ClientMode`] is configured; under
    /// [`ClientMode::FreshPerRequest`] every message pays one, under
    /// [`ClientMode::KeepAlive`] only the round's first message does.
    pub handshakes: u32,
}

impl DeviceReport {
    /// Total device-side energy (compute + radio), in joules.
    pub fn total_joules(&self) -> f64 {
        self.compute_joules + self.radio_joules
    }
}

/// Whole-scenario outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-device outcomes, in device order.
    pub devices: Vec<DeviceReport>,
    /// Total bytes crossing the network in either direction.
    pub total_bytes: u64,
    /// Time the last device finished.
    pub makespan: SimTime,
    /// Total time the cloud spent computing.
    pub cloud_busy: SimDuration,
    /// Prior requests silently dropped by the cloud outage window.
    pub dropped_requests: u64,
    /// Framed `ModelReport` messages the cloud received (0 unless a
    /// [`ClientMode`] is configured — the report leg is part of the
    /// connection model).
    pub model_reports: u64,
    /// Events the executor dispatched over the whole run (the numerator
    /// of the events/sec benchmark).
    pub events_executed: u64,
    /// Frames dropped by the switch fabric — drop-tail queue overflow plus
    /// deterministic link loss. Always 0 without a [`Topology`].
    pub messages_dropped: u64,
    /// Frames the fabric carried across a port without dropping them.
    /// Every frame offered to a port is either forwarded or counted in
    /// [`messages_dropped`](Self::messages_dropped), so
    /// `dropped / (dropped + forwarded)` is the fabric's exact drop rate.
    /// Always 0 without a [`Topology`].
    pub frames_forwarded: u64,
    /// Bytes the go-back-N transport sent more than once. Always 0
    /// without a [`Topology`].
    pub bytes_retransmitted: u64,
}

/// Size in bytes of a raw-sample upload: `n·d` features + `n` labels, 8
/// bytes each.
pub fn raw_data_bytes(samples: usize, dim: usize) -> u64 {
    8 * (samples as u64) * (dim as u64 + 1)
}

/// Size in bytes of a packed linear model (`d` weights + bias).
pub fn model_bytes(dim: usize) -> u64 {
    8 * (dim as u64 + 1)
}

/// Size in bytes of a prior request message — the exact wire size of a
/// framed `dre-serve` `PriorRequest`, not an assumed constant.
pub const REQUEST_BYTES: u64 = dre_serve::frame::prior_request_frame_len() as u64;

/// Size in bytes of the framed `PriorResponse` carrying a
/// `components`-component prior for models with `dim` features. The packed
/// parameter vector is `[w…, b]`, so the mixture lives in `dim + 1`
/// dimensions; the byte count is the exact frame length the real
/// `dre-serve` codec would put on the wire.
pub const fn prior_transfer_bytes(components: usize, dim: usize) -> u64 {
    dre_serve::frame::prior_response_frame_len(components, dim + 1) as u64
}

/// Size in bytes of the framed `ModelReport` a device sends back after a
/// successful prior-transfer fit: the packed parameter vector is
/// `[w…, b]`, so a `dim`-feature model carries `dim + 1` parameters, and
/// the byte count is the exact `dre-serve` frame length
/// ([`dre_serve::frame::model_report_frame_len`]).
pub const fn model_report_bytes(dim: usize) -> u64 {
    dre_serve::frame::model_report_frame_len(dim + 1) as u64
}

/// Size in bytes of the framed `ShardMapResponse` a routed client fetches
/// when it bootstraps (or refreshes) its view of a `num_shards`-member
/// sharded prior plane — the exact `dre-serve` frame length
/// ([`dre_serve::frame::shard_map_response_frame_len`]), so simulations of
/// sharded deployments charge the true one-off discovery cost.
pub const fn shard_map_bytes(num_shards: usize) -> u64 {
    dre_serve::frame::shard_map_response_frame_len(num_shards) as u64
}

/// Total wire bytes one closed-loop refresh round moves between the cloud
/// and a cohort of `devices` edge devices: every device fetches the
/// current `components`-component prior (request + response frames),
/// sends back its fitted `ModelReport`, and receives the one-byte-payload
/// `ReportAck` (accepted/rejected bit) the server answers reports with.
/// Each leg is the exact `dre-serve` frame length, so simulations of
/// streaming-learner deployments charge the true per-round radio cost.
pub const fn refresh_round_bytes(devices: usize, components: usize, dim: usize) -> u64 {
    let per_device = REQUEST_BYTES
        + prior_transfer_bytes(components, dim)
        + model_report_bytes(dim)
        + dre_serve::frame::report_ack_frame_len() as u64;
    per_device * devices as u64
}

/// The `device` id carried by a [`TraceEvent`] that belongs to the cloud
/// (or to no host at all) rather than to a device.
pub const CLOUD_DEVICE: u32 = u32::MAX;

/// One executed event, as recorded by [`Scenario::run_traced`]: when it
/// fired, what it was, and which device it concerned ([`CLOUD_DEVICE`]
/// for cloud-side events). Traces are bit-reproducible: identical
/// scenarios produce identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Execution time in integer microseconds since simulation start.
    pub time_us: u64,
    /// What fired.
    pub kind: TraceKind,
    /// Device the event concerned, or [`CLOUD_DEVICE`].
    pub device: u32,
}

/// The event taxonomy as seen in a trace — [`Event`] with slab/port ids
/// reduced to the owning device.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A message arrived at the cloud (direct-delivery mode).
    ArriveAtCloud(MessageKind),
    /// A message arrived at a device (direct-delivery mode).
    ArriveAtDevice(MessageKind),
    /// Device-side training finished.
    DeviceComputeDone,
    /// Cloud-side training finished.
    CloudComputeDone,
    /// A prior-request response deadline fired.
    RetryTimer,
    /// A port finished transmitting a frame (topology mode).
    PortDeparture,
    /// A frame reached a port queue (topology mode).
    PortArrive,
    /// A frame reached its destination host (topology mode).
    Deliver,
    /// A go-back-N retransmit timeout fired (topology mode).
    RetxTimer,
    /// A reliable transfer opened its window (topology mode).
    TransferStart,
}

/// A cloud–edge deployment scenario over a star topology.
#[derive(Debug, Clone)]
pub struct Scenario {
    compute: ComputeModel,
    energy: EnergyModel,
    devices: Vec<DeviceSpec>,
    retry: Option<RetryModel>,
    outage: Option<(SimTime, SimTime)>,
    client: Option<ClientMode>,
    topology: Option<Topology>,
}

impl Scenario {
    /// Creates an empty scenario with the given compute model and the
    /// default [`EnergyModel`].
    pub fn new(compute: ComputeModel) -> Self {
        Scenario {
            compute,
            energy: EnergyModel::default(),
            devices: Vec::new(),
            retry: None,
            outage: None,
            client: None,
            topology: None,
        }
    }

    /// Turns on the connection model: fresh connections cost a transport
    /// handshake (one extra round trip, time only — handshake segments
    /// carry no frame bytes), and prior-transfer devices that land the
    /// prior report their fitted model back over a framed `ModelReport`.
    /// [`ClientMode`] decides how often the handshake is paid. Without
    /// this call the simulator models frames only (the legacy behaviour).
    pub fn with_client_mode(mut self, mode: ClientMode) -> Self {
        self.client = Some(mode);
        self
    }

    /// Overrides the device energy model.
    pub fn with_energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Installs response deadlines and retries for prior requests. Without
    /// a retry model, devices wait for responses indefinitely (the
    /// pre-outage behaviour).
    pub fn with_retry(mut self, retry: RetryModel) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Installs a cloud outage window `[start, end)` during which arriving
    /// prior requests are silently dropped. Requires a [`RetryModel`]
    /// (see [`Scenario::with_retry`]) — without deadlines a device whose
    /// request falls into the window would wait forever.
    pub fn with_outage(mut self, start: SimDuration, end: SimDuration) -> Self {
        self.outage = Some((SimTime::ZERO + start, SimTime::ZERO + end));
        self
    }

    /// Installs a one-big-switch [`Topology`], replacing the legacy
    /// direct-delivery network with shared port queues, serialization and
    /// queueing delay, deterministic loss, and go-back-N retransmission
    /// for every message. Without this call the simulator keeps its
    /// legacy behaviour bit-for-bit.
    ///
    /// In topology mode byte/energy accounting is per frame actually
    /// transmitted (including retransmissions and transport acks), and
    /// the connection handshake still costs two propagation legs of the
    /// device's access link.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Adds a device; returns its index.
    pub fn add_device(&mut self, spec: DeviceSpec) -> usize {
        self.devices.push(spec);
        self.devices.len() - 1
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Runs the scenario to completion and reports per-device and aggregate
    /// outcomes. Deterministic: same scenario, same report.
    ///
    /// # Panics
    ///
    /// Panics if an outage window is configured without a [`RetryModel`] —
    /// devices caught in the window would deadlock the simulation — or if
    /// the configured [`Topology`] is invalid.
    pub fn run(&self) -> SimReport {
        Engine::new(self).run(None)
    }

    /// Like [`Scenario::run`], additionally recording every executed
    /// event as a [`TraceEvent`]. Traces replay bit-identically for
    /// identical scenarios; the report is identical to [`Scenario::run`].
    pub fn run_traced(&self) -> (SimReport, Vec<TraceEvent>) {
        let mut trace = Vec::new();
        let report = Engine::new(self).run(Some(&mut trace));
        (report, trace)
    }
}

/// Progress of a device's prior fetch, for outage/retry bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchState {
    /// The device's strategy involves no prior fetch.
    NotFetching,
    /// Attempt `k` is outstanding (awaiting response or deadline).
    Waiting(u32),
    /// The payload arrived, or the device fell back to local training.
    Resolved,
}

/// Flat per-device state: one `Copy` record per device, held in a single
/// `Vec` so the hot loop walks contiguous memory instead of chasing
/// per-device allocations.
#[derive(Debug, Clone, Copy)]
struct DeviceState {
    report: DeviceReport,
    fetch: FetchState,
    connected: bool,
}

/// Serialization delay of `bytes` at the link's rate (no propagation).
fn ser_time(link: Link, bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / link.bandwidth())
}

/// The event executor: a [`Scenario`] plus all mutable run state, flat and
/// index-addressed. One instance per run.
struct Engine<'a> {
    sc: &'a Scenario,
    /// Device count; host `n` is the cloud.
    n: u32,
    queue: EventQueue,
    devs: Vec<DeviceState>,
    cloud_busy_until: SimTime,
    cloud_busy: SimDuration,
    dropped_requests: u64,
    model_reports: u64,
    events_executed: u64,
    messages_dropped: u64,
    frames_forwarded: u64,
    bytes_retransmitted: u64,
    // Topology-mode fabric state (empty in legacy mode).
    topo: Option<Topology>,
    ports: Vec<PortState>,
    frames: FrameSlab,
    transfers: TransferSlab,
}

impl<'a> Engine<'a> {
    fn new(sc: &'a Scenario) -> Self {
        assert!(
            sc.outage.is_none() || sc.retry.is_some(),
            "an outage window requires a retry model (Scenario::with_retry)"
        );
        if let Some(t) = &sc.topology {
            t.validate();
        }
        let n = sc.devices.len();
        let topo = sc.topology;
        let devs = sc
            .devices
            .iter()
            .map(|_| DeviceState {
                report: DeviceReport {
                    bytes_sent: 0,
                    bytes_received: 0,
                    completion: SimTime::ZERO,
                    compute_joules: 0.0,
                    radio_joules: 0.0,
                    mode: FitMode::LocalOnly,
                    attempts: 0,
                    handshakes: 0,
                },
                fetch: FetchState::NotFetching,
                connected: false,
            })
            .collect();
        // Pre-size everything the hot loop touches, so steady state never
        // allocates: the heap, the port array, and both slabs.
        let (queue, ports, frames, transfers) = if topo.is_some() {
            (
                EventQueue::with_capacity(4 * n + 64),
                vec![PortState::default(); 2 * (n + 1)],
                FrameSlab::with_capacity(n + 64),
                TransferSlab::with_capacity(n + 64),
            )
        } else {
            (
                EventQueue::with_capacity(2 * n + 64),
                Vec::new(),
                FrameSlab::with_capacity(0),
                TransferSlab::with_capacity(0),
            )
        };
        Engine {
            sc,
            n: n as u32,
            queue,
            devs,
            cloud_busy_until: SimTime::ZERO,
            cloud_busy: SimDuration::ZERO,
            dropped_requests: 0,
            model_reports: 0,
            events_executed: 0,
            messages_dropped: 0,
            frames_forwarded: 0,
            bytes_retransmitted: 0,
            topo,
            ports,
            frames,
            transfers,
        }
    }

    fn run(mut self, mut trace: Option<&mut Vec<TraceEvent>>) -> SimReport {
        self.kickoff();
        while let Some((now, event)) = self.queue.pop() {
            self.events_executed += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.push(self.trace_of(now, event));
            }
            match event {
                Event::DeviceComputeDone { device } => self.on_device_compute_done(device, now),
                Event::Arrive { device, kind } => self.on_arrive(device, kind, now),
                Event::CloudComputeDone { device } => {
                    self.reply(device, MessageKind::ModelPayload, now)
                }
                Event::RetryTimer { device, attempt } => self.on_retry_timer(device, attempt, now),
                Event::PortDeparture { port } => self.on_port_departure(port, now),
                Event::PortArrive { port, frame } => self.enqueue_port(port, frame, now),
                Event::Deliver { frame } => self.on_deliver(frame, now),
                Event::RetxTimer {
                    transfer,
                    gen,
                    epoch,
                } => self.on_retx_timer(transfer, gen, epoch, now),
                Event::TransferStart { transfer, gen } => {
                    self.on_transfer_start(transfer, gen, now)
                }
            }
        }
        let makespan = self
            .devs
            .iter()
            .map(|d| d.report.completion)
            .max()
            .unwrap_or(SimTime::ZERO);
        let total_bytes = self
            .devs
            .iter()
            .map(|d| d.report.bytes_sent + d.report.bytes_received)
            .sum();
        SimReport {
            devices: self.devs.into_iter().map(|d| d.report).collect(),
            total_bytes,
            makespan,
            cloud_busy: self.cloud_busy,
            dropped_requests: self.dropped_requests,
            model_reports: self.model_reports,
            events_executed: self.events_executed,
            messages_dropped: self.messages_dropped,
            frames_forwarded: self.frames_forwarded,
            bytes_retransmitted: self.bytes_retransmitted,
        }
    }

    /// Kicks off every device at `t = 0`, in device order.
    fn kickoff(&mut self) {
        for i in 0..self.sc.devices.len() {
            let d = i as u32;
            match self.sc.devices[i].strategy {
                Strategy::EdgeOnly {
                    samples,
                    dim,
                    iterations,
                } => {
                    self.start_device_compute(d, ERM_COST, samples, dim, iterations, SimTime::ZERO);
                }
                Strategy::CloudRoundTrip { samples, dim, .. } => {
                    self.devs[i].report.mode = FitMode::FreshPrior;
                    self.devs[i].report.attempts = 1;
                    let bytes = raw_data_bytes(samples, dim);
                    self.send(d, MessageKind::RawData, bytes, SimTime::ZERO);
                }
                Strategy::PriorTransfer { .. } => {
                    self.devs[i].report.mode = FitMode::FreshPrior;
                    self.devs[i].fetch = FetchState::Waiting(1);
                    self.send_prior_request(d, 1, SimTime::ZERO);
                }
            }
        }
    }

    // ----- application layer (one copy for both delivery modes) -----

    /// A whole message reaches its destination's application layer: the
    /// one place each [`MessageKind`]'s effect lives. Both transports call
    /// it once per message, after their own receive accounting.
    fn deliver(&mut self, device: u32, kind: MessageKind, now: SimTime) {
        match kind {
            MessageKind::PriorRequest => {
                // The outage window drops arriving requests silently; the
                // device's retry deadline is the only recovery path.
                if self.outage_drops(now) {
                    return;
                }
                // The prior is precomputed: reply at once.
                self.reply(device, MessageKind::PriorPayload, now);
            }
            MessageKind::RawData => self.cloud_train(device, now),
            // Telemetry sink: the cloud absorbs the report (no response
            // leg), so it only counts.
            MessageKind::ModelReport => self.model_reports += 1,
            MessageKind::PriorPayload => self.fit_with_prior(device, now),
            MessageKind::ModelPayload => self.devs[device as usize].report.completion = now,
        }
    }

    fn on_device_compute_done(&mut self, device: u32, now: SimTime) {
        let i = device as usize;
        self.devs[i].report.completion = now;
        // Connection-model runs add the telemetry leg: a device whose
        // prior arrived reports its fitted model back over a framed
        // `ModelReport`. Fire-and-forget after the model is ready, so
        // completion (and hence makespan) stays "model ready on the
        // device". Fallback (LocalOnly) devices just exhausted their retry
        // budget against an unreachable cloud and do not report.
        if self.sc.client.is_some() && self.devs[i].report.mode == FitMode::FreshPrior {
            if let Strategy::PriorTransfer { dim, .. } = self.sc.devices[i].strategy {
                self.send(
                    device,
                    MessageKind::ModelReport,
                    model_report_bytes(dim),
                    now,
                );
            }
        }
    }

    fn on_retry_timer(&mut self, device: u32, attempt: u32, now: SimTime) {
        let i = device as usize;
        // Only the deadline of the *outstanding* attempt acts; timers of
        // answered or superseded attempts are stale.
        if self.devs[i].fetch != FetchState::Waiting(attempt) {
            return;
        }
        let retry = self
            .sc
            .retry
            .expect("RetryTimer scheduled without a RetryModel");
        if attempt < retry.max_attempts.max(1) {
            self.devs[i].fetch = FetchState::Waiting(attempt + 1);
            self.send_prior_request(device, attempt + 1, now);
        } else {
            // Retry budget exhausted: fall back to local ERM — the same
            // training the EdgeOnly strategy runs.
            self.devs[i].fetch = FetchState::Resolved;
            self.devs[i].report.mode = FitMode::LocalOnly;
            let Strategy::PriorTransfer {
                samples,
                dim,
                iterations,
                ..
            } = self.sc.devices[i].strategy
            else {
                unreachable!("retry timer for non-prior strategy");
            };
            self.start_device_compute(device, ERM_COST, samples, dim, iterations, now);
        }
    }

    /// Starts the device-side EM fit after a prior payload lands.
    fn fit_with_prior(&mut self, device: u32, now: SimTime) {
        let i = device as usize;
        if self.devs[i].fetch == FetchState::Resolved {
            // A payload for an already-resolved fetch (the device resent
            // while this one was in flight, or already fell back) still
            // costs radio bytes but triggers no second fit.
            return;
        }
        self.devs[i].fetch = FetchState::Resolved;
        self.devs[i].report.mode = FitMode::FreshPrior;
        let Strategy::PriorTransfer {
            samples,
            dim,
            iterations,
            em_rounds,
            ..
        } = self.sc.devices[i].strategy
        else {
            unreachable!("prior payload for non-prior strategy");
        };
        let iterations = iterations * em_rounds.max(1);
        self.start_device_compute(device, EM_COST, samples, dim, iterations, now);
    }

    /// Starts a device-side training job at `now` — `coeff`-cost training
    /// over `samples × dim` for `iterations` — charging its compute energy
    /// up front and scheduling its completion.
    fn start_device_compute(
        &mut self,
        device: u32,
        coeff: f64,
        samples: usize,
        dim: usize,
        iterations: usize,
        now: SimTime,
    ) {
        let c = self.sc.compute;
        let t = c.train_time(coeff, c.device_flops, samples, dim, iterations);
        self.devs[device as usize].report.compute_joules +=
            self.sc.energy.joules_per_flop * c.train_flops(coeff, samples, dim, iterations);
        self.queue
            .schedule(now + t, Event::DeviceComputeDone { device });
    }

    /// FIFO single-server cloud training for a raw-data upload.
    fn cloud_train(&mut self, device: u32, now: SimTime) {
        let Strategy::CloudRoundTrip {
            samples,
            dim,
            iterations,
        } = self.sc.devices[device as usize].strategy
        else {
            unreachable!("raw data from non-cloud strategy");
        };
        let start = now.max(self.cloud_busy_until);
        let t = self.sc.compute.train_time(
            ERM_COST,
            self.sc.compute.cloud_flops,
            samples,
            dim,
            iterations,
        );
        self.cloud_busy_until = start + t;
        self.cloud_busy = self.cloud_busy + t;
        self.queue
            .schedule(self.cloud_busy_until, Event::CloudComputeDone { device });
    }

    /// Whether a prior request arriving at `now` falls into the outage
    /// window (and is silently dropped).
    fn outage_drops(&mut self, now: SimTime) -> bool {
        if let Some((start, end)) = self.sc.outage {
            if now >= start && now < end {
                self.dropped_requests += 1;
                return true;
            }
        }
        false
    }

    /// Charges the transport handshake for one outgoing message, if the
    /// connection model is enabled and the device needs a fresh
    /// connection. Returns the extra delay before the message's first
    /// byte departs: one round trip (two propagation legs) — handshake
    /// segments carry no frame bytes, so time is the only cost.
    fn connect(&mut self, device: u32) -> SimDuration {
        let Some(mode) = self.sc.client else {
            return SimDuration::ZERO;
        };
        let i = device as usize;
        if mode == ClientMode::KeepAlive && self.devs[i].connected {
            return SimDuration::ZERO;
        }
        self.devs[i].connected = true;
        self.devs[i].report.handshakes += 1;
        let latency = self.sc.devices[i].link.latency();
        SimDuration::from_micros(2 * latency.as_micros())
    }

    /// Sends (or resends) one prior request for `device` and, when a
    /// [`RetryModel`] is configured, arms the attempt's response deadline.
    fn send_prior_request(&mut self, device: u32, attempt: u32, now: SimTime) {
        self.devs[device as usize].report.attempts = attempt;
        self.send(device, MessageKind::PriorRequest, REQUEST_BYTES, now);
        if let Some(retry) = self.sc.retry {
            self.queue.schedule(
                now + retry.deadline(attempt),
                Event::RetryTimer { device, attempt },
            );
        }
    }

    /// Sends the cloud's `kind` payload for `device` at `now`, sized by
    /// the device's strategy.
    fn reply(&mut self, device: u32, kind: MessageKind, now: SimTime) {
        let bytes = payload_bytes(self.sc.devices[device as usize].strategy, kind);
        self.send(device, kind, bytes, now);
    }

    // ----- transports -----

    /// Sends one `bytes`-byte message of `kind` between `device` and the
    /// cloud, its first byte ready at `at`; the direction follows from
    /// `kind`. Cloud-bound messages first pay the connection model's
    /// handshake. The fabric carries the message as a reliable transfer;
    /// direct delivery charges the sender's radio now and lands the whole
    /// message one link transfer time later.
    fn send(&mut self, device: u32, kind: MessageKind, bytes: u64, at: SimTime) {
        let (src, dst, at) = if kind.is_cloud_bound() {
            (device, self.n, at + self.connect(device))
        } else {
            (self.n, device, at)
        };
        if self.topo.is_some() {
            self.start_message(device, src, dst, kind, bytes, at);
        } else {
            self.charge_tx(src, bytes);
            let link = self.sc.devices[device as usize].link;
            self.queue.schedule(
                at + link.transfer_time(bytes),
                Event::Arrive { device, kind },
            );
        }
    }

    /// A direct-delivery message lands: a receiving device pays its radio
    /// cost for the payload, then the application layer acts.
    fn on_arrive(&mut self, device: u32, kind: MessageKind, now: SimTime) {
        if !kind.is_cloud_bound() {
            let bytes = payload_bytes(self.sc.devices[device as usize].strategy, kind);
            self.charge_rx(device, bytes);
        }
        self.deliver(device, kind, now);
    }

    // ----- topology-mode: switch fabric -----

    /// Uplink (host → switch) port of `host`.
    fn uplink(&self, host: u32) -> u32 {
        host * 2
    }

    /// Egress (switch → host) port of `host`.
    fn egress(&self, host: u32) -> u32 {
        host * 2 + 1
    }

    /// The access link a port serializes onto.
    fn port_link(&self, port: u32) -> Link {
        let host = port / 2;
        if host < self.n {
            self.sc.devices[host as usize].link
        } else {
            self.topo.as_ref().unwrap().cloud_link
        }
    }

    /// Accrues transmitted bytes/energy to a device (the cloud's radio is
    /// not metered, in either delivery mode).
    fn charge_tx(&mut self, host: u32, bytes: u64) {
        if host < self.n {
            let r = &mut self.devs[host as usize].report;
            r.bytes_sent += bytes;
            r.radio_joules += self.sc.energy.joules_per_byte * bytes as f64;
        }
    }

    /// Accrues received bytes/energy to a device.
    fn charge_rx(&mut self, host: u32, bytes: u64) {
        if host < self.n {
            let r = &mut self.devs[host as usize].report;
            r.bytes_received += bytes;
            r.radio_joules += self.sc.energy.joules_per_byte * bytes as f64;
        }
    }

    /// Allocates a reliable transfer for one whole message and schedules
    /// its window opening at `at`.
    fn start_message(
        &mut self,
        device: u32,
        src: u32,
        dst: u32,
        kind: MessageKind,
        bytes: u64,
        at: SimTime,
    ) {
        let mtu = self.topo.as_ref().unwrap().switch.mtu as u64;
        let segments = bytes.div_ceil(mtu).max(1) as u32;
        let (id, gen) = self.transfers.alloc(Transfer {
            gen: 0,
            active: true,
            next_free: NONE,
            src,
            dst,
            device,
            kind,
            total_bytes: bytes,
            segments,
            base: 0,
            next_seg: 0,
            highest_sent: 0,
            recv_next: 0,
            epoch: 0,
            timer_armed: false,
            retx_rounds: 0,
            delivered: false,
        });
        self.queue
            .schedule(at, Event::TransferStart { transfer: id, gen });
    }

    fn on_transfer_start(&mut self, id: u32, gen: u32, now: SimTime) {
        if !self.transfers.live(id, gen) {
            return;
        }
        self.pump(id, now);
    }

    /// Sends every segment the go-back-N window allows, then (re)arms the
    /// retransmit timer if anything is outstanding.
    fn pump(&mut self, id: u32, now: SimTime) {
        loop {
            let t = *self.transfers.get(id);
            if t.next_seg >= t.segments || t.next_seg >= t.base + GBN_WINDOW {
                break;
            }
            self.transfers.get_mut(id).next_seg = t.next_seg + 1;
            self.send_segment(id, t.next_seg, now);
        }
        let rto = self.current_rto(id);
        let t = self.transfers.get_mut(id);
        if t.base < t.next_seg && !t.timer_armed {
            t.timer_armed = true;
            t.epoch = t.epoch.wrapping_add(1);
            let (gen, epoch) = (t.gen, t.epoch);
            self.queue.schedule(
                now + rto,
                Event::RetxTimer {
                    transfer: id,
                    gen,
                    epoch,
                },
            );
        }
    }

    /// The transfer's current timeout: the base RTO, doubled per
    /// consecutive expiry.
    fn current_rto(&self, id: u32) -> SimDuration {
        let rto = self.topo.as_ref().unwrap().switch.rto;
        let shift = self.transfers.get(id).retx_rounds.min(16);
        SimDuration::from_micros(rto.as_micros().saturating_mul(1u64 << shift))
    }

    fn send_segment(&mut self, id: u32, seq: u32, now: SimTime) {
        let t = *self.transfers.get(id);
        let mtu = self.topo.as_ref().unwrap().switch.mtu as u64;
        let bytes = if seq + 1 < t.segments {
            mtu
        } else {
            t.total_bytes - (t.segments as u64 - 1) * mtu
        };
        if seq < t.highest_sent {
            self.bytes_retransmitted += bytes;
        } else {
            self.transfers.get_mut(id).highest_sent = seq + 1;
        }
        self.charge_tx(t.src, bytes);
        let frame = self.frames.alloc(Frame {
            next: NONE,
            transfer: id,
            gen: t.gen,
            seq,
            bytes: bytes as u32,
            dst: t.dst,
            is_ack: false,
        });
        self.enqueue_port(self.uplink(t.src), frame, now);
    }

    /// Offers `frame` to a port's drop-tail queue; starts transmission if
    /// the port was idle, drops the frame if the queue is full.
    fn enqueue_port(&mut self, port: u32, frame: u32, now: SimTime) {
        let cap = self.topo.as_ref().unwrap().switch.queue_capacity;
        let p = port as usize;
        if self.ports[p].len >= cap {
            self.messages_dropped += 1;
            self.frames.free(frame);
            return;
        }
        let bytes = self.frames.get(frame).bytes as u64;
        self.ports[p].push(&mut self.frames, frame);
        if !self.ports[p].busy {
            self.ports[p].busy = true;
            let link = self.port_link(port);
            self.queue
                .schedule(now + ser_time(link, bytes), Event::PortDeparture { port });
        }
    }

    fn on_port_departure(&mut self, port: u32, now: SimTime) {
        let p = port as usize;
        let frame = self.ports[p]
            .pop(&mut self.frames)
            .expect("PortDeparture on an empty port");
        let crossing = self.ports[p].crossings;
        self.ports[p].crossings += 1;
        let host = port / 2;
        let link = self.port_link(port);
        let topo = self.topo.as_ref().unwrap();
        let loss = if host < self.n {
            topo.device_loss
        } else {
            topo.cloud_loss
        };
        if loss.drops(port, crossing) {
            self.messages_dropped += 1;
            self.frames.free(frame);
        } else {
            self.frames_forwarded += 1;
            if port.is_multiple_of(2) {
                // Uplink: cross the sender's access link, then queue at
                // the destination host's egress port.
                let dst = self.frames.get(frame).dst;
                self.queue.schedule(
                    now + link.latency(),
                    Event::PortArrive {
                        port: self.egress(dst),
                        frame,
                    },
                );
            } else {
                // Egress: cross the destination's access link to its NIC.
                self.queue
                    .schedule(now + link.latency(), Event::Deliver { frame });
            }
        }
        // Begin transmitting the next queued frame, if any.
        let head = self.ports[p].head;
        if head != NONE {
            let bytes = self.frames.get(head).bytes as u64;
            self.queue
                .schedule(now + ser_time(link, bytes), Event::PortDeparture { port });
        } else {
            self.ports[p].busy = false;
        }
    }

    fn on_deliver(&mut self, frame: u32, now: SimTime) {
        let fr = *self.frames.get(frame);
        self.frames.free(frame);
        let id = fr.transfer;
        if !self.transfers.live(id, fr.gen) {
            // The transfer completed or was recycled while this frame was
            // in flight (e.g. a duplicate after the final ack).
            return;
        }
        let t = *self.transfers.get(id);
        if fr.is_ack {
            self.charge_rx(t.src, fr.bytes as u64);
            if fr.seq > t.base {
                {
                    let tm = self.transfers.get_mut(id);
                    tm.base = fr.seq;
                    tm.retx_rounds = 0;
                    // Cancel the running timer; pump re-arms if needed.
                    tm.epoch = tm.epoch.wrapping_add(1);
                    tm.timer_armed = false;
                }
                if fr.seq >= t.segments {
                    // Fully acknowledged: the transfer is done on both
                    // sides (the receiver delivered before acking).
                    self.transfers.free(id);
                } else {
                    self.pump(id, now);
                }
            }
        } else {
            self.charge_rx(t.dst, fr.bytes as u64);
            if fr.seq == t.recv_next {
                self.transfers.get_mut(id).recv_next = fr.seq + 1;
            }
            // Cumulative ack — duplicates re-ack, so a lost final ack is
            // recovered by the sender's retransmission.
            self.send_ack(id, now);
            let t = *self.transfers.get(id);
            if t.recv_next >= t.segments && !t.delivered {
                self.transfers.get_mut(id).delivered = true;
                self.deliver(t.device, t.kind, now);
            }
        }
    }

    fn send_ack(&mut self, id: u32, now: SimTime) {
        let t = *self.transfers.get(id);
        self.charge_tx(t.dst, ACK_BYTES);
        let frame = self.frames.alloc(Frame {
            next: NONE,
            transfer: id,
            gen: t.gen,
            seq: t.recv_next,
            bytes: ACK_BYTES as u32,
            dst: t.src,
            is_ack: true,
        });
        self.enqueue_port(self.uplink(t.dst), frame, now);
    }

    fn on_retx_timer(&mut self, id: u32, gen: u32, epoch: u32, now: SimTime) {
        if !self.transfers.live(id, gen) {
            return;
        }
        let t = *self.transfers.get(id);
        if epoch != t.epoch {
            return; // superseded by a later arming
        }
        self.transfers.get_mut(id).timer_armed = false;
        if t.base >= t.next_seg {
            return; // nothing outstanding
        }
        let max_retx = self.topo.as_ref().unwrap().switch.max_retx;
        let rounds = t.retx_rounds + 1;
        if rounds > max_retx {
            // Abort: the path is dead. Prior requests/payloads recover via
            // the application-level RetryModel; other messages leave the
            // device incomplete — visible in its report.
            self.transfers.free(id);
            return;
        }
        {
            let tm = self.transfers.get_mut(id);
            tm.retx_rounds = rounds;
            tm.next_seg = tm.base; // go back N
        }
        self.pump(id, now);
    }

    /// Reduces an executed event to its trace record.
    fn trace_of(&self, now: SimTime, event: Event) -> TraceEvent {
        let owner_of_port = |port: u32| {
            let host = port / 2;
            if host < self.n {
                host
            } else {
                CLOUD_DEVICE
            }
        };
        let (kind, device) = match event {
            Event::Arrive { device, kind } if kind.is_cloud_bound() => {
                (TraceKind::ArriveAtCloud(kind), device)
            }
            Event::Arrive { device, kind } => (TraceKind::ArriveAtDevice(kind), device),
            Event::DeviceComputeDone { device } => (TraceKind::DeviceComputeDone, device),
            Event::CloudComputeDone { device } => (TraceKind::CloudComputeDone, device),
            Event::RetryTimer { device, .. } => (TraceKind::RetryTimer, device),
            Event::PortDeparture { port } => (TraceKind::PortDeparture, owner_of_port(port)),
            Event::PortArrive { port, .. } => (TraceKind::PortArrive, owner_of_port(port)),
            Event::Deliver { frame } => (
                TraceKind::Deliver,
                self.transfers.get(self.frames.get(frame).transfer).device,
            ),
            Event::RetxTimer { transfer, .. } => {
                (TraceKind::RetxTimer, self.transfers.get(transfer).device)
            }
            Event::TransferStart { transfer, .. } => (
                TraceKind::TransferStart,
                self.transfers.get(transfer).device,
            ),
        };
        TraceEvent {
            time_us: now.as_micros(),
            kind,
            device,
        }
    }
}

/// The wire size of a cloud-to-device payload: a pure function of the
/// device's strategy and the message kind, so direct-delivery arrival
/// events need carry no byte counts.
fn payload_bytes(strategy: Strategy, kind: MessageKind) -> u64 {
    match (kind, strategy) {
        (MessageKind::ModelPayload, Strategy::CloudRoundTrip { dim, .. }) => model_bytes(dim),
        (
            MessageKind::PriorPayload,
            Strategy::PriorTransfer {
                dim,
                prior_components,
                ..
            },
        ) => prior_transfer_bytes(prior_components, dim),
        _ => unreachable!("no payload size for {kind:?} under {strategy:?}"),
    }
}

#[cfg(test)]
#[path = "scenario_tests.rs"]
mod tests;
