//! The cloud-side prior server: a per-core, readiness-polled runtime over
//! a lock-free prior read path.
//!
//! [`PriorServer::bind`] starts a `TcpListener` accept loop feeding N
//! event-loop workers (one per configured core). Each worker *owns* its
//! accepted connections outright — round-robin handoff from the accept
//! thread, then nonblocking sockets multiplexed with readiness polling
//! ([`dre_netpoll::poll`]) — so one worker serves thousands of keep-alive
//! streams without a thread per connection. Back-to-back pipelined
//! requests read in one readiness window are answered with their replies
//! coalesced into a single socket flush (counted in
//! [`ServeMetrics::batched_writes`]).
//!
//! The prior registry is published, not locked: writes
//! ([`ServerState::register_payload`]) build a fresh snapshot off to the
//! side under a mutex, swap it into place, and bump an atomic generation;
//! each worker holds a [`PriorView`] — an `Arc` of the last snapshot it
//! adopted — and revalidates it with a single atomic load per request. A
//! prior hit is therefore an atomic generation check, a `HashMap` lookup
//! in worker-owned memory, and one socket write of the pre-encoded frame:
//! **zero** `RwLock`/`Mutex` acquisitions (enforced by
//! [`ServerState::slow_path_lock_count`] in tests). Keep-alive clients
//! transparently observe re-registered priors because the generation
//! check runs on every request.
//!
//! Admission control and resilience keep their PR 3–4 semantics: the
//! accept thread sheds connections beyond `workers + queue_bound` (or the
//! explicit `max_connections`) with a [`Message::Busy`] reply, a global
//! in-flight cap sheds individual requests the same way, per-connection
//! read/write deadlines still bound a stalled peer, handler panics are
//! caught per connection (the event loop and its other connections
//! survive; counted in [`ServeMetrics::worker_panics`]), and poisoned
//! slow-path locks are healed by inheriting the last good value (counted
//! in [`ServeMetrics::lock_recoveries`]). One handler,
//! [`ServerState::respond_bytes_view`], answers every request kind from the
//! borrowed decode ([`MessageRef`]): the workers, [`ServerState::respond_bytes`]
//! and [`InMemoryServer`] all call it, so the fault-injection tests exercise
//! byte-for-byte the same responder as the real sockets, and the chaos hook
//! ([`ServerState::chaos_panic_on_task`]) sits in that one place. Shutdown
//! is cooperative: a shared `AtomicBool`, a wake to every worker, and a
//! self-connection to unblock `accept()`.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dre_bayes::MixturePrior;
use dre_netpoll::{PollFd, RawFd, WakeHandle, Waker};

use crate::frame::{
    self, ErrorCode, HealthStatus, Message, MessageRef, ParamsRef, DEFAULT_MAX_FRAME_LEN,
};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::transport::{read_step, write_step, IoStep, Responder, TcpTransport, Transport};
use crate::{Result, ServeError};

/// Byte budget for an `Error { detail }` string on the wire — a
/// pathological decode error can't balloon the reply frame past this.
pub const MAX_ERROR_DETAIL_BYTES: usize = 256;

/// Truncates an error detail to [`MAX_ERROR_DETAIL_BYTES`] on a char
/// boundary, marking the cut with an ellipsis that stays inside the
/// budget.
fn cap_error_detail(detail: String) -> String {
    if detail.len() <= MAX_ERROR_DETAIL_BYTES {
        return detail;
    }
    let mut end = MAX_ERROR_DETAIL_BYTES - '…'.len_utf8();
    while !detail.is_char_boundary(end) {
        end -= 1;
    }
    let mut capped = detail;
    capped.truncate(end);
    capped.push('…');
    capped
}

/// Default [`ServeConfig::report_inbox_cap`]: roomy enough that a learner
/// polling at any sane cadence never sheds, small enough that an
/// undrained inbox stays bounded (~64k reports).
pub const DEFAULT_REPORT_INBOX_CAP: usize = 64 << 10;

/// Default [`ServeConfig::report_device_cap`]: far above any honest
/// device's report cadence between learner drains, low enough that one
/// looping device cannot fill the shared inbox by itself.
pub const DEFAULT_REPORT_DEVICE_CAP: usize = 1 << 10;

/// Tuning knobs for [`PriorServer::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-core event-loop workers; each owns its accepted connections and
    /// multiplexes them with readiness polling.
    pub workers: usize,
    /// Per-connection read deadline: a connection that sends nothing for
    /// this long is closed.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: a connection whose peer accepts no
    /// reply bytes for this long is closed.
    pub write_timeout: Option<Duration>,
    /// Cap on a frame's declared body length.
    pub max_frame_len: usize,
    /// Connection slots beyond the worker count before the accept loop
    /// starts shedding with `Busy` replies; the total admission cap is
    /// `workers + queue_bound` unless `max_connections` overrides it.
    pub queue_bound: usize,
    /// Explicit cap on concurrently admitted connections. `None` derives
    /// `workers + queue_bound`.
    pub max_connections: Option<usize>,
    /// Requests served on one connection before the server closes it — a
    /// fairness valve so a single chatty client cannot hold a worker
    /// forever (clients reconnect transparently on the next attempt).
    pub max_requests_per_conn: usize,
    /// Backoff hint carried inside `Busy` replies.
    pub busy_retry_after: Duration,
    /// Cap on buffered model reports: once the inbox holds this many
    /// undrained [`ReportedModel`]s, further reports are acknowledged but
    /// dropped (counted in [`ServeMetrics::reports_shed`]) — a report
    /// flood degrades into counted shedding instead of unbounded memory
    /// growth. A learner draining via [`ServerState::take_reports`] keeps
    /// the inbox far below the cap in normal operation.
    pub report_inbox_cap: usize,
    /// Per-device rate cap: reports a single device id may land in the
    /// inbox between learner drains. Reports beyond it are rejected and
    /// counted in [`ServeMetrics::reports_shed`] — one looping or
    /// flooding device degrades into counted shedding without crowding
    /// out the rest of the fleet.
    pub report_device_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            queue_bound: 64,
            max_connections: None,
            max_requests_per_conn: 1024,
            busy_retry_after: Duration::from_millis(25),
            report_inbox_cap: DEFAULT_REPORT_INBOX_CAP,
            report_device_cap: DEFAULT_REPORT_DEVICE_CAP,
        }
    }
}

impl ServeConfig {
    /// The admission cap actually enforced: `max_connections`, or
    /// `workers + queue_bound` when unset.
    pub fn admission_cap(&self) -> usize {
        self.max_connections
            .unwrap_or_else(|| self.workers.max(1) + self.queue_bound.max(1))
    }
}

/// A model reported back by an edge device.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportedModel {
    /// Task family the device belongs to.
    pub task_id: u64,
    /// Identity of the reporting edge device.
    pub device_id: u64,
    /// The device's monotone report sequence number (starts at 1).
    pub seq: u64,
    /// Packed model parameters `[w…, b]`.
    pub params: Vec<f64>,
}

/// Per-device admission state kept next to the inbox: the highest
/// sequence number accepted (replays never rewind it) and the number of
/// reports this device has landed since the last drain (the rate-cap
/// window).
#[derive(Debug, Clone, Copy, Default)]
struct DeviceWindow {
    last_seq: u64,
    since_drain: u64,
}

/// The report inbox plus the per-device replay/rate state that guards it.
/// One mutex covers both so an admission decision and its push are atomic
/// with respect to a concurrent drain.
#[derive(Debug, Default)]
struct ReportInbox {
    entries: Vec<ReportedModel>,
    devices: HashMap<u64, DeviceWindow>,
}

/// One registered prior: the raw transfer payload plus the fully encoded
/// `PriorResponse` frame the hot path serves, stamped with the registry
/// generation that built it. The frame (length prefix, CRC and all) is
/// encoded exactly once per registration; re-registering a task bumps the
/// generation and replaces the entry wholesale, so every in-flight
/// response keeps the frame it started with.
#[derive(Debug, Clone)]
pub struct PriorEntry {
    /// The raw `dro_edge::transfer` payload.
    pub payload: Arc<Vec<u8>>,
    /// The complete pre-encoded `PriorResponse` frame.
    pub frame: Arc<[u8]>,
    /// Registry generation at encode time (monotone across all tasks).
    pub generation: u64,
}

/// A response frame on its way out: either freshly encoded for this
/// request, or a shared reference into the pre-encoded prior-frame cache
/// — the cached case performs no payload clone, no re-encode, and no CRC
/// recompute.
#[derive(Debug, Clone)]
pub enum ResponseBytes {
    /// Encoded for this request.
    Owned(Vec<u8>),
    /// Served from the generation-stamped frame cache.
    Cached(Arc<[u8]>),
}

impl ResponseBytes {
    /// Whether this reply came from the pre-encoded cache.
    pub fn is_cached(&self) -> bool {
        matches!(self, ResponseBytes::Cached(_))
    }

    /// Moves the bytes into a plain vector (copies only the cached case).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            ResponseBytes::Owned(v) => v,
            ResponseBytes::Cached(a) => a.to_vec(),
        }
    }
}

impl std::ops::Deref for ResponseBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            ResponseBytes::Owned(v) => v,
            ResponseBytes::Cached(a) => a,
        }
    }
}

impl AsRef<[u8]> for ResponseBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// The registry as the read path sees it.
type Registry = HashMap<u64, PriorEntry>;

/// Routing identity a server carries once it joins a sharded plane: the
/// epoch-stamped map it routes by, this server's own index in that map,
/// and the complete pre-encoded `ShardMapResponse` frame served to map
/// requests — encoded once per (re)publication, exactly like prior
/// frames, so the hot path hands out a shared reference.
#[derive(Debug, Clone)]
pub struct ShardRoute {
    /// The plane-wide, epoch-stamped shard map.
    pub map: crate::shard::ShardMap,
    /// This server's index into the map's shard list.
    pub self_index: usize,
    /// Pre-encoded `ShardMapResponse` frame for zero-copy map serving.
    pub frame: Arc<[u8]>,
}

/// The write side's published state: the current immutable snapshot, the
/// shard route (when this server is part of a sharded plane), and the
/// generation that built them. Guarded by one mutex that only writers and
/// stale readers touch — installing or republishing a route is a
/// generation-bumping publication, so warm readers pick it up with the
/// same single atomic load that covers prior registrations.
#[derive(Debug)]
struct Published {
    snapshot: Arc<Registry>,
    route: Option<Arc<ShardRoute>>,
    generation: u64,
}

/// A reader's adopted registry snapshot: an `Arc` of the last published
/// map plus its generation. Each event-loop worker owns one; per request
/// it revalidates the view with a single atomic load
/// ([`ServerState::refresh_view`]) and only touches the slow-path mutex
/// when a publication happened since — so a prior hit on a current view
/// acquires **no lock at all**.
#[derive(Debug, Clone)]
pub struct PriorView {
    snapshot: Arc<Registry>,
    route: Option<Arc<ShardRoute>>,
    generation: u64,
}

impl PriorView {
    /// The generation this view was adopted at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shard route this view was adopted with, if any.
    pub fn route(&self) -> Option<&Arc<ShardRoute>> {
        self.route.as_ref()
    }

    /// Number of tasks visible in this view.
    pub fn len(&self) -> usize {
        self.snapshot.len()
    }

    /// True when no priors are visible in this view.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_empty()
    }
}

/// Everything the responder needs: the published prior registry, collected
/// model reports, load gauges, and server-side metrics.
#[derive(Debug)]
pub struct ServerState {
    /// Write side + publication slot: the current snapshot and generation.
    published: Mutex<Published>,
    /// Lock-free copy of the published generation; readers revalidate
    /// their [`PriorView`] against this with one atomic load per request.
    generation: AtomicU64,
    /// Models reported by edge devices, in arrival order, plus the
    /// per-device replay/rate state guarding admission into it.
    reports: Mutex<ReportInbox>,
    /// Inbox cap enforced on `ModelReport` arrivals; reports beyond it
    /// are rejected and shed ([`ServeMetrics::reports_shed`]).
    report_inbox_cap: AtomicU64,
    /// Per-device rate cap enforced on `ModelReport` arrivals between
    /// drains ([`ServeConfig::report_device_cap`]).
    report_device_cap: AtomicU64,
    /// Server-side transfer metrics.
    metrics: ServeMetrics,
    /// Connections handed to a worker but not yet adopted by its loop.
    pending: AtomicU64,
    /// Requests currently inside the responder across all workers.
    in_flight: AtomicU64,
    /// Connections currently admitted (owned by workers or in handoff);
    /// the accept loop sheds beyond [`ServeConfig::admission_cap`].
    admitted: AtomicU64,
    /// Every slow-path mutex acquisition (publication slot or reports
    /// inbox). The lock-freeness tests snapshot this around a burst of
    /// warm-view prior hits and assert it did not move.
    slow_path_locks: AtomicU64,
    /// Chaos hook: a `PriorRequest` for this task id panics inside the
    /// handler. `u64::MAX` disables the hook.
    panic_on_task: AtomicU64,
}

impl Default for ServerState {
    fn default() -> Self {
        ServerState {
            published: Mutex::new(Published {
                snapshot: Arc::new(Registry::new()),
                route: None,
                generation: 0,
            }),
            generation: AtomicU64::new(0),
            reports: Mutex::new(ReportInbox::default()),
            report_inbox_cap: AtomicU64::new(DEFAULT_REPORT_INBOX_CAP as u64),
            report_device_cap: AtomicU64::new(DEFAULT_REPORT_DEVICE_CAP as u64),
            metrics: ServeMetrics::new(),
            pending: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            slow_path_locks: AtomicU64::new(0),
            panic_on_task: AtomicU64::new(u64::MAX),
        }
    }
}

impl ServerState {
    /// Empty state: no priors registered, no reports.
    pub fn new() -> Self {
        Self::default()
    }

    /// The publication slot, recovering from poisoning: a panic mid-write
    /// happened *before* the new snapshot was swapped in (the swap is the
    /// last statement under the lock), so inheriting the slot keeps the
    /// previous consistent snapshot published and beats refusing service.
    fn published_lock(&self) -> MutexGuard<'_, Published> {
        self.slow_path_locks.fetch_add(1, Ordering::Relaxed);
        self.published.lock().unwrap_or_else(|poisoned| {
            self.metrics.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// The reports log, recovering from poisoning (a push and its
    /// device-window update either happened or did not — both leave a
    /// valid inbox).
    fn reports_lock(&self) -> MutexGuard<'_, ReportInbox> {
        self.slow_path_locks.fetch_add(1, Ordering::Relaxed);
        self.reports.lock().unwrap_or_else(|poisoned| {
            self.metrics.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Clears poison left on the slow-path locks by a caught handler
    /// panic, counting each healed lock in
    /// [`ServeMetrics::lock_recoveries`]. Workers call this after
    /// `catch_unwind` so the next writer finds clean locks.
    pub fn heal_locks(&self) {
        if self.published.is_poisoned() {
            self.published.clear_poison();
            self.metrics.lock_recoveries.fetch_add(1, Ordering::Relaxed);
        }
        if self.reports.is_poisoned() {
            self.reports.clear_poison();
            self.metrics.lock_recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Slow-path mutex acquisitions so far — the lock-freeness tests
    /// assert this stays flat across warm-view prior hits.
    pub fn slow_path_lock_count(&self) -> u64 {
        self.slow_path_locks.load(Ordering::SeqCst)
    }

    /// Registers (or replaces) the prior served for `task_id`.
    pub fn register_prior(&self, task_id: u64, prior: &MixturePrior) {
        self.register_payload(task_id, dro_edge::transfer::serialize_prior(prior));
    }

    /// Registers a raw, already-encoded transfer payload for `task_id`.
    /// This is the write slow path: it encodes the complete
    /// `PriorResponse` frame once, builds a fresh registry snapshot off to
    /// the side, and publishes it with a generation bump — readers adopt
    /// the new snapshot on their next atomic generation check, so every
    /// keep-alive client transparently observes the new frame without the
    /// read path ever taking a lock.
    pub fn register_payload(&self, task_id: u64, payload: Vec<u8>) {
        // Encode outside the lock: registration pays the frame build, the
        // serving path never does.
        let frame: Arc<[u8]> = frame::encode_prior_response(&payload).into();
        self.metrics
            .prior_cache_builds
            .fetch_add(1, Ordering::Relaxed);
        let mut slot = self.published_lock();
        let generation = slot.generation + 1;
        let mut next: Registry = (*slot.snapshot).clone();
        next.insert(
            task_id,
            PriorEntry {
                payload: Arc::new(payload),
                frame,
                generation,
            },
        );
        slot.snapshot = Arc::new(next);
        slot.generation = generation;
        // Publish the generation while still holding the lock, so any
        // reader that observes it will find at least this snapshot in the
        // slot.
        self.generation.store(generation, Ordering::Release);
        self.metrics
            .snapshot_publishes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Installs (or republishes) this server's shard route. The
    /// `ShardMapResponse` frame is encoded once, outside the lock; the
    /// route rides the same publication mechanism as prior registrations —
    /// a generation bump — so every keep-alive worker adopts the new map
    /// on its next single-atomic-load revalidation, and re-sharding never
    /// takes a lock on the read path.
    pub fn install_shard_route(&self, map: crate::shard::ShardMap, self_index: usize) {
        let frame: Arc<[u8]> = frame::encode(&Message::ShardMapResponse {
            map: map.wire().clone(),
        })
        .into();
        let route = Arc::new(ShardRoute {
            map,
            self_index,
            frame,
        });
        let mut slot = self.published_lock();
        let generation = slot.generation + 1;
        slot.route = Some(route);
        slot.generation = generation;
        self.generation.store(generation, Ordering::Release);
        self.metrics
            .snapshot_publishes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The current registry generation (0 before any registration).
    pub fn cache_generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Adopts the currently published snapshot (slow path: takes the
    /// publication lock once).
    pub fn prior_view(&self) -> PriorView {
        let slot = self.published_lock();
        PriorView {
            snapshot: Arc::clone(&slot.snapshot),
            route: slot.route.clone(),
            generation: slot.generation,
        }
    }

    /// Revalidates `view` with one atomic load; only when a publication
    /// happened since the view was adopted does it fall back to the lock
    /// to adopt the new snapshot. This is the entire cost a prior hit
    /// pays for registry coherence.
    pub fn refresh_view(&self, view: &mut PriorView) {
        let generation = self.generation.load(Ordering::Acquire);
        if generation != view.generation {
            *view = self.prior_view();
        }
    }

    /// The cached entry for `task_id`, if registered — tests use this to
    /// prove cached frames are bit-identical to fresh encodes.
    pub fn prior_entry(&self, task_id: u64) -> Option<PriorEntry> {
        self.prior_view().snapshot.get(&task_id).cloned()
    }

    /// Drains the report inbox: returns every buffered report, in arrival
    /// order, leaving the inbox empty — no clone, and the freed capacity
    /// re-opens both the [`ServeConfig::report_inbox_cap`] admission
    /// window and every device's [`ServeConfig::report_device_cap`]
    /// window. Replay protection survives the drain: each device's
    /// last-accepted sequence number is kept, so a replayed frame is
    /// still dropped after the learner has consumed the original.
    pub fn take_reports(&self) -> Vec<ReportedModel> {
        let mut inbox = self.reports_lock();
        for window in inbox.devices.values_mut() {
            window.since_drain = 0;
        }
        std::mem::take(&mut inbox.entries)
    }

    /// Number of reports currently buffered in the inbox.
    pub fn report_backlog(&self) -> usize {
        self.reports_lock().entries.len()
    }

    /// Overrides the report-inbox cap (normally set from
    /// [`ServeConfig::report_inbox_cap`] at bind time).
    pub fn set_report_inbox_cap(&self, cap: usize) {
        self.report_inbox_cap.store(cap as u64, Ordering::Relaxed);
    }

    /// Overrides the per-device rate cap (normally set from
    /// [`ServeConfig::report_device_cap`] at bind time).
    pub fn set_report_device_cap(&self, cap: usize) {
        self.report_device_cap.store(cap as u64, Ordering::Relaxed);
    }

    /// Folds learner-side admission outcomes into this server's metrics:
    /// `gated` reports scored out by the predictive gate and `quarantined`
    /// devices newly moved into quarantine. The admission decision lives
    /// in `dre-learner`; the counters live here so one
    /// [`MetricsSnapshot`] tells the whole report-path story.
    pub fn note_admission_outcomes(&self, gated: u64, quarantined: u64) {
        if gated > 0 {
            self.metrics
                .reports_gated
                .fetch_add(gated, Ordering::Relaxed);
        }
        if quarantined > 0 {
            self.metrics
                .devices_quarantined
                .fetch_add(quarantined, Ordering::Relaxed);
        }
    }

    /// Point-in-time server metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Current load and resilience gauges, as served to `Health` requests.
    pub fn health_status(&self) -> HealthStatus {
        HealthStatus {
            queue_depth: self.pending.load(Ordering::Relaxed) as u32,
            in_flight: self.in_flight.load(Ordering::Relaxed) as u32,
            shed_connections: self.metrics.shed_connections.load(Ordering::Relaxed),
            worker_panics: self.metrics.worker_panics.load(Ordering::Relaxed),
        }
    }

    /// Arms the chaos hook: the next `PriorRequest` for `task_id` panics
    /// inside the handler (exercising worker panic recovery and lock
    /// poisoning). Pass `u64::MAX` to disarm; a request for task
    /// `u64::MAX` never triggers the hook.
    pub fn chaos_panic_on_task(&self, task_id: u64) {
        self.panic_on_task.store(task_id, Ordering::SeqCst);
    }

    /// The report-admission decision taken before the inbox, under one
    /// lock so it is atomic with respect to a concurrent drain:
    ///
    /// 1. **Replay drop** — a sequence number at or below the device's
    ///    last accepted one is a replayed or duplicated frame
    ///    ([`ServeMetrics::reports_replayed`]); the device's window does
    ///    not advance.
    /// 2. **Rate cap** — a device that already landed
    ///    [`ServeConfig::report_device_cap`] reports since the last drain
    ///    is shed ([`ServeMetrics::reports_shed`]); its sequence number
    ///    still advances, so the dropped report cannot be replayed later.
    /// 3. **Inbox cap** — overflow past
    ///    [`ServeConfig::report_inbox_cap`] is shed the same way.
    ///
    /// Returns whether the report entered the inbox — the bit carried
    /// back in [`Message::ReportAck`].
    fn admit_report(&self, task_id: u64, device_id: u64, seq: u64, params: ParamsRef<'_>) -> bool {
        let inbox_cap = self.report_inbox_cap.load(Ordering::Relaxed) as usize;
        let device_cap = self.report_device_cap.load(Ordering::Relaxed);
        let mut guard = self.reports_lock();
        let inbox = &mut *guard;
        let window = inbox.devices.entry(device_id).or_default();
        if seq <= window.last_seq {
            self.metrics
                .reports_replayed
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        window.last_seq = seq;
        if window.since_drain >= device_cap || inbox.entries.len() >= inbox_cap {
            self.metrics.reports_shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        window.since_drain += 1;
        inbox.entries.push(ReportedModel {
            task_id,
            device_id,
            seq,
            params: params.to_vec(),
        });
        true
    }

    /// Decodes one request frame, responds, and encodes the reply through
    /// a freshly adopted [`PriorView`]. This is the shared/in-memory entry
    /// point (it pays one publication-lock clone per call); the polled
    /// workers call [`ServerState::respond_bytes_view`] with a long-lived
    /// view instead, which is the genuinely lock-free hot path.
    pub fn respond_bytes(&self, request_frame: &[u8]) -> ResponseBytes {
        let mut view = self.prior_view();
        self.respond_bytes_view(&mut view, request_frame)
    }

    /// Decodes one request frame, answers it, and encodes the reply —
    /// updating byte counters and the latency histogram. This is the
    /// server's only request handler: the polled workers call it with
    /// their long-lived view, [`ServerState::respond_bytes`] and
    /// [`InMemoryServer`] with a fresh one. Frame-level failures map onto
    /// protocol `Error` replies so the client always gets an answer it can
    /// classify. A `PriorRequest` hit is the zero-copy, zero-lock hot path:
    /// a borrowing decode ([`frame::decode_ref`]), one atomic generation
    /// check on `view`, a lookup in the view's worker-owned snapshot, and a
    /// shared reference to the pre-encoded frame — no lock, no payload
    /// clone, no re-encode, no CRC recompute (counted in
    /// [`ServeMetrics::prior_cache_hits`]).
    pub fn respond_bytes_view(&self, view: &mut PriorView, request_frame: &[u8]) -> ResponseBytes {
        let started = Instant::now();
        self.metrics
            .bytes_in
            .fetch_add(request_frame.len() as u64, Ordering::Relaxed);
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let answer = frame::decode_ref(request_frame)
            .map_err(|e| {
                if matches!(e, ServeError::ChecksumMismatch { .. }) {
                    self.metrics
                        .checksum_failures
                        .fetch_add(1, Ordering::Relaxed);
                }
                Message::Error {
                    code: match e {
                        ServeError::VersionMismatch { .. } => ErrorCode::Version,
                        _ => ErrorCode::Malformed,
                    },
                    detail: cap_error_detail(e.to_string()),
                }
            })
            .and_then(|request| self.answer(view, request));
        let reply = match answer {
            Ok(reply) => {
                self.metrics.responses_ok.fetch_add(1, Ordering::Relaxed);
                reply
            }
            Err(error) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                ResponseBytes::Owned(frame::encode(&error))
            }
        };
        self.metrics
            .bytes_out
            .fetch_add(reply.len() as u64, Ordering::Relaxed);
        self.metrics.latency.record(started.elapsed());
        reply
    }

    /// The protocol's request → response function over one decoded
    /// request: `Ok` is the reply frame, `Err` the protocol `Error` to
    /// send instead (counted in [`ServeMetrics::errors`]).
    fn answer(
        &self,
        view: &mut PriorView,
        request: MessageRef<'_>,
    ) -> std::result::Result<ResponseBytes, Message> {
        let encode = |reply: &Message| ResponseBytes::Owned(frame::encode(reply));
        Ok(match request {
            MessageRef::Ping => encode(&Message::Ping),
            MessageRef::Health => encode(&Message::HealthReport(self.health_status())),
            MessageRef::PriorRequest { task_id } => {
                let armed = self.panic_on_task.load(Ordering::SeqCst);
                if armed != u64::MAX && task_id == armed {
                    // Poison the publication slot on the way down so
                    // recovery of both the worker and the lock is
                    // exercised together.
                    let _guard = self.published_lock();
                    panic!("chaos hook: injected handler panic for task {task_id}");
                }
                self.refresh_view(view);
                if let Some(route) = view.route.as_deref() {
                    // A sharded server serves only the tasks it owns; the
                    // rest get the retryable `Misrouted` redirect.
                    if !route.map.owns(task_id, route.self_index) {
                        self.metrics.misroutes.fetch_add(1, Ordering::Relaxed);
                        return Err(Message::Error {
                            code: ErrorCode::Misrouted,
                            detail: format!(
                                "task {task_id} is not owned by shard {} at epoch {}",
                                route.self_index,
                                route.map.epoch()
                            ),
                        });
                    }
                }
                let entry = view.snapshot.get(&task_id).ok_or_else(|| Message::Error {
                    code: ErrorCode::UnknownTask,
                    detail: format!("no prior registered for task {task_id}"),
                })?;
                self.metrics
                    .prior_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                ResponseBytes::Cached(Arc::clone(&entry.frame))
            }
            MessageRef::ShardMapRequest => {
                // Map fetches ride the same zero-copy cache as prior hits:
                // one atomic generation check, then a shared reference to
                // the frame encoded at route-publication time.
                self.refresh_view(view);
                let route = view.route.as_ref().ok_or_else(|| Message::Error {
                    code: ErrorCode::Unexpected,
                    detail: "this server is not part of a sharded plane".into(),
                })?;
                ResponseBytes::Cached(Arc::clone(&route.frame))
            }
            MessageRef::ModelReport {
                task_id,
                device_id,
                seq,
                params,
            } => {
                // Every drop — replay, rate cap, or inbox overflow — is
                // answered with a ReportAck whose bit says "rejected",
                // never a protocol error: the device's report leg must not
                // look like an outage (that would spend degradation
                // rungs), but the client can still tell absorbed from
                // dropped without diffing counters.
                let accepted = self.admit_report(task_id, device_id, seq, params);
                encode(&Message::ReportAck { accepted })
            }
            other => {
                return Err(Message::Error {
                    code: ErrorCode::Unexpected,
                    detail: format!("server cannot handle a {} message", other.kind_name()),
                })
            }
        })
    }

    /// Encodes a `Busy` reply for a request that is being shed, updating
    /// the same counters `respond_bytes` would — including the latency
    /// histogram, so shed requests stay visible in the latency profile.
    pub fn busy_bytes(&self, request_len: usize, retry_after: Duration) -> Vec<u8> {
        let started = Instant::now();
        self.metrics
            .bytes_in
            .fetch_add(request_len as u64, Ordering::Relaxed);
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.busy.fetch_add(1, Ordering::Relaxed);
        let bytes = frame::encode(&Message::Busy {
            retry_after_ms: retry_after.as_millis().min(u32::MAX as u128) as u32,
        });
        self.metrics
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.metrics.latency.record(started.elapsed());
        bytes
    }
}

/// [`Responder`] running [`ServerState`] entirely in memory — the server
/// half of the fault-injection tests, with no sockets involved.
#[derive(Debug, Default)]
pub struct InMemoryServer {
    state: Arc<ServerState>,
}

impl InMemoryServer {
    /// An in-memory server over fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory server sharing existing state.
    pub fn with_state(state: Arc<ServerState>) -> Self {
        InMemoryServer { state }
    }

    /// The shared state (registry, reports, metrics).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }
}

impl Responder for InMemoryServer {
    fn respond(&self, request_frame: &[u8]) -> Vec<u8> {
        self.state.respond_bytes(request_frame).into_vec()
    }
}

// ---------------------------------------------------------------------------
// Per-connection buffers
// ---------------------------------------------------------------------------

/// Initial per-connection buffer size; most control frames fit in one.
const READ_CHUNK: usize = 4 << 10;

/// High-water mark for per-connection read/write buffers: after a frame
/// larger than this, the buffer shrinks back so one huge prior frame
/// doesn't pin peak memory for the life of a keep-alive connection.
const BUFFER_HIGH_WATER: usize = 64 << 10;

/// Global cap on requests being served at once; requests beyond it get a
/// `Busy` reply instead of a response.
const MAX_IN_FLIGHT: usize = 64;

/// Poll-tick backstop: the longest a worker sleeps between deadline sweeps
/// when no socket turns ready. Wake-ups (new connections, shutdown)
/// interrupt it.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Shrinks a grow-only buffer back to `high_water` once the bytes it still
/// holds fit under it — the release valve that keeps one oversized frame
/// from pinning peak memory for the life of a keep-alive connection. The
/// first `used` bytes are preserved; a buffer still carrying more than
/// `high_water` live bytes is left alone.
fn shrink_buffer(buf: &mut Vec<u8>, used: usize, high_water: usize) {
    if buf.capacity() > high_water && used <= high_water {
        buf.truncate(high_water.max(used));
        buf.shrink_to(high_water.max(READ_CHUNK));
    }
}

/// One connection owned by an event-loop worker.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    /// Request bytes read but not yet consumed (`rlen` of them valid) —
    /// the greedy-read + carry buffer: a read may grab several pipelined
    /// frames or a fragment of the next one; leftovers stay here.
    rbuf: Vec<u8>,
    rlen: usize,
    /// Reply bytes not yet accepted by the socket (`wpos` already sent).
    wbuf: Vec<u8>,
    wpos: usize,
    served: usize,
    /// Last instant any request byte arrived (read-deadline clock).
    last_read: Instant,
    /// Last instant the socket accepted reply bytes (write-deadline clock).
    last_write: Instant,
    /// Serve nothing more; close once `wbuf` is flushed.
    close_after_flush: bool,
    /// Remove this connection at the end of the tick.
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let fd = dre_netpoll::tcp_raw_fd(&stream);
        let now = Instant::now();
        Ok(Conn {
            stream,
            fd,
            rbuf: Vec::new(),
            rlen: 0,
            wbuf: Vec::new(),
            wpos: 0,
            served: 0,
            last_read: now,
            last_write: now,
            close_after_flush: false,
            closed: false,
        })
    }

    /// Whether reply bytes are waiting on the socket.
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Drains the socket greedily (until `WouldBlock`), answers every
    /// complete frame through the worker's [`PriorView`], coalesces the
    /// replies, and flushes. Returns `false` when the connection must be
    /// dropped.
    fn service(
        &mut self,
        readable: bool,
        state: &ServerState,
        config: &ServeConfig,
        view: &mut PriorView,
        now: Instant,
    ) -> bool {
        let mut saw_eof = false;
        if readable && !self.close_after_flush {
            loop {
                if self.rlen == self.rbuf.len() {
                    let target = (self.rbuf.len() * 2).max(self.rlen + READ_CHUNK);
                    self.rbuf.resize(target, 0);
                }
                match read_step(&mut self.stream, &mut self.rbuf[self.rlen..]) {
                    Ok(IoStep::Progress(n)) => {
                        self.rlen += n;
                        self.last_read = now;
                    }
                    Ok(IoStep::WouldBlock) => {
                        state
                            .metrics
                            .wouldblock_reads
                            .fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Ok(IoStep::Eof) => {
                        saw_eof = true;
                        break;
                    }
                    Err(_) => return false,
                }
            }
        }

        // Answer every complete frame now buffered; replies coalesce into
        // one flush below.
        let mut replies = 0usize;
        while !self.close_after_flush && self.rlen >= frame::LEN_PREFIX {
            let len = u32::from_le_bytes([self.rbuf[0], self.rbuf[1], self.rbuf[2], self.rbuf[3]])
                as usize;
            if len > config.max_frame_len {
                // Answer the oversized frame with a protocol error, then
                // hang up.
                let reply = frame::encode(&Message::Error {
                    code: ErrorCode::Malformed,
                    detail: format!(
                        "frame of {len} bytes exceeds the {}-byte cap",
                        config.max_frame_len
                    ),
                });
                self.wbuf.extend_from_slice(&reply);
                replies += 1;
                self.close_after_flush = true;
                break;
            }
            let total = frame::LEN_PREFIX + len;
            if self.rlen < total {
                if self.rbuf.len() < total {
                    self.rbuf.resize(total, 0);
                }
                break; // wait for the rest of the frame
            }
            // Global in-flight cap: requests beyond it are shed with
            // `Busy`. The decrement lives in a drop guard so the gauge
            // survives a panicking handler.
            struct InFlight<'a>(&'a AtomicU64);
            impl Drop for InFlight<'_> {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::Relaxed);
                }
            }
            let in_flight = state.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            let _gauge = InFlight(&state.in_flight);
            if in_flight as usize > MAX_IN_FLIGHT {
                let reply = state.busy_bytes(total, config.busy_retry_after);
                self.wbuf.extend_from_slice(&reply);
            } else {
                let reply = state.respond_bytes_view(view, &self.rbuf[..total]);
                self.wbuf.extend_from_slice(&reply);
            }
            drop(_gauge);
            replies += 1;
            self.rbuf.copy_within(total..self.rlen, 0);
            self.rlen -= total;
            self.served += 1;
            if self.served >= config.max_requests_per_conn.max(1) {
                // Fairness valve: flush what was answered, then hang up;
                // any still-buffered pipelined requests are dropped.
                self.close_after_flush = true;
            }
        }
        if replies > 1 {
            state.metrics.batched_writes.fetch_add(1, Ordering::Relaxed);
        }
        shrink_buffer(&mut self.rbuf, self.rlen, BUFFER_HIGH_WATER);

        if saw_eof {
            if self.rlen > 0 && !self.close_after_flush {
                // Peer hung up mid-frame: nothing to answer, drop.
                return false;
            }
            self.close_after_flush = true;
        }

        // Coalesced flush: every reply produced this tick goes out in as
        // few `write` calls as the socket accepts.
        while self.wants_write() {
            match write_step(&mut self.stream, &self.wbuf[self.wpos..]) {
                Ok(IoStep::Progress(n)) => {
                    self.wpos += n;
                    self.last_write = now;
                }
                Ok(IoStep::WouldBlock) => break,
                Ok(IoStep::Eof) | Err(_) => return false,
            }
        }
        if !self.wants_write() {
            self.wbuf.clear();
            self.wpos = 0;
            shrink_buffer(&mut self.wbuf, 0, BUFFER_HIGH_WATER);
            if self.close_after_flush {
                return false;
            }
        }
        true
    }

    /// Deadline sweep: drop connections whose peer neither sent a byte
    /// within the read deadline nor accepted reply bytes within the write
    /// deadline.
    fn past_deadline(&self, config: &ServeConfig, now: Instant) -> bool {
        if let Some(read) = config.read_timeout {
            if !self.wants_write() && now.duration_since(self.last_read) > read {
                return true;
            }
        }
        if let Some(write) = config.write_timeout {
            if self.wants_write() && now.duration_since(self.last_write) > write {
                return true;
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// The per-core polled runtime
// ---------------------------------------------------------------------------

/// Handoff mailbox from the accept thread to one worker.
struct WorkerInbox {
    conns: Mutex<VecDeque<TcpStream>>,
    wake: WakeHandle,
}

impl WorkerInbox {
    fn push(&self, stream: TcpStream) {
        self.conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(stream);
        self.wake.wake();
    }

    fn drain_into(&self, out: &mut Vec<TcpStream>) {
        let mut guard = self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        out.extend(guard.drain(..));
    }
}

/// One per-core event loop: adopts handed-off connections, polls them for
/// readiness, services the ready ones (panics contained per connection),
/// sweeps deadlines, and retires closed connections.
fn run_worker(
    state: Arc<ServerState>,
    config: ServeConfig,
    waker: Waker,
    inbox: Arc<WorkerInbox>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut view = state.prior_view();
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut adopted: Vec<TcpStream> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return; // dropping `conns` closes every socket
        }
        pollfds.clear();
        pollfds.push(PollFd::new(waker.raw_fd(), true, false));
        for c in &conns {
            pollfds.push(PollFd::new(c.fd, true, c.wants_write()));
        }
        let ready = dre_netpoll::poll(&mut pollfds, Some(POLL_INTERVAL)).unwrap_or(0);
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Adopt new connections when woken (or on an idle tick, as a
        // backstop against a lost wake).
        if pollfds[0].readable || ready == 0 {
            waker.drain();
            adopted.clear();
            inbox.drain_into(&mut adopted);
            for stream in adopted.drain(..) {
                state.pending.fetch_sub(1, Ordering::Relaxed);
                match Conn::new(stream) {
                    Ok(c) => conns.push(c),
                    Err(_) => {
                        state.admitted.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        }
        let now = Instant::now();
        for (i, conn) in conns.iter_mut().enumerate() {
            // New connections adopted this tick have no poll entry yet;
            // probe them immediately (their first request may already be
            // buffered).
            let readable = match pollfds.get(i + 1) {
                Some(ev) => ev.readable || ev.error,
                None => true,
            };
            let writable = pollfds.get(i + 1).is_some_and(|ev| ev.writable);
            if !(readable || writable) {
                continue;
            }
            // A panicking handler must not take the event loop (and its
            // other connections) with it: catch, count, heal the
            // slow-path locks, and drop only this connection.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                conn.service(readable, &state, &config, &mut view, now)
            }));
            match outcome {
                Ok(keep) => conn.closed = !keep,
                Err(_) => {
                    state.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                    state.heal_locks();
                    conn.closed = true;
                }
            }
        }
        for conn in &mut conns {
            if !conn.closed && conn.past_deadline(&config, now) {
                conn.closed = true;
            }
        }
        let before = conns.len();
        conns.retain(|c| !c.closed);
        let dropped = before - conns.len();
        if dropped > 0 {
            state.admitted.fetch_sub(dropped as u64, Ordering::Relaxed);
        }
    }
}

/// The TCP prior server; construct with [`PriorServer::bind`].
pub struct PriorServer;

impl PriorServer {
    /// Binds `addr` (use port 0 for an OS-assigned port), spawns the
    /// accept loop and the per-core worker event loops, and returns a
    /// handle that owns them.
    pub fn bind(addr: &str, config: ServeConfig) -> Result<ServerHandle> {
        let listener =
            TcpListener::bind(addr).map_err(|source| ServeError::Io { op: "bind", source })?;
        let local_addr = listener.local_addr().map_err(|source| ServeError::Io {
            op: "local_addr",
            source,
        })?;
        let state = Arc::new(ServerState::new());
        state.set_report_inbox_cap(config.report_inbox_cap);
        state.set_report_device_cap(config.report_device_cap);
        let shutdown = Arc::new(AtomicBool::new(false));

        let workers = config.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        let mut inboxes = Vec::with_capacity(workers);
        for _ in 0..workers {
            let waker = Waker::new().map_err(|source| ServeError::Io {
                op: "waker",
                source,
            })?;
            let inbox = Arc::new(WorkerInbox {
                conns: Mutex::new(VecDeque::new()),
                wake: waker.handle().map_err(|source| ServeError::Io {
                    op: "waker_handle",
                    source,
                })?,
            });
            inboxes.push(Arc::clone(&inbox));
            let state = Arc::clone(&state);
            let config = config.clone();
            let shutdown = Arc::clone(&shutdown);
            threads.push(std::thread::spawn(move || {
                run_worker(state, config, waker, inbox, shutdown)
            }));
        }

        let accept_state = Arc::clone(&state);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_config = config.clone();
        let accept_inboxes: Vec<Arc<WorkerInbox>> = inboxes.iter().map(Arc::clone).collect();
        threads.push(std::thread::spawn(move || {
            let cap = accept_config.admission_cap() as u64;
            let mut next_worker = 0usize;
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    // Replies must not wait on Nagle behind an unacked
                    // previous reply when the connection is kept alive.
                    let _ = stream.set_nodelay(true);
                    accept_state
                        .metrics
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    if accept_state.admitted.load(Ordering::Relaxed) >= cap {
                        accept_state
                            .metrics
                            .shed_connections
                            .fetch_add(1, Ordering::Relaxed);
                        shed_connection(stream, &accept_state, &accept_config);
                        continue;
                    }
                    accept_state.admitted.fetch_add(1, Ordering::Relaxed);
                    accept_state.pending.fetch_add(1, Ordering::Relaxed);
                    accept_inboxes[next_worker].push(stream);
                    next_worker = (next_worker + 1) % accept_inboxes.len();
                }
            }
        }));

        Ok(ServerHandle {
            addr: local_addr,
            state,
            shutdown,
            threads,
            worker_wakes: inboxes,
        })
    }
}

/// Sheds one connection the accept loop could not admit: drains the
/// request that is (probably) already in flight, answers `Busy`, and hangs
/// up. Short deadlines keep a slow client from stalling the accept loop.
fn shed_connection(stream: TcpStream, state: &ServerState, config: &ServeConfig) {
    let deadline = Some(
        config
            .write_timeout
            .unwrap_or(Duration::from_millis(250))
            .min(Duration::from_millis(250)),
    );
    let mut transport = match TcpTransport::with_deadlines(stream, deadline, deadline) {
        Ok(t) => t,
        Err(_) => return,
    };
    // Read the pending request so closing the socket after the reply does
    // not reset it out from under the client; tolerate failures — the
    // `Busy` write below is best-effort either way.
    let mut request_len = 0usize;
    let mut lenb = [0u8; frame::LEN_PREFIX];
    if matches!(transport.recv_exact_or_eof(&mut lenb), Ok(true)) {
        let len = u32::from_le_bytes(lenb) as usize;
        if len <= config.max_frame_len {
            let mut body = vec![0u8; len];
            if transport.recv_exact(&mut body).is_ok() {
                request_len = frame::LEN_PREFIX + len;
            }
        }
    }
    let reply = state.busy_bytes(request_len, config.busy_retry_after);
    let _ = transport.send(&reply);
}

/// Owns a running [`PriorServer`]: its address, state, and threads.
/// Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    worker_wakes: Vec<Arc<WorkerInbox>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state — also usable as an [`InMemoryServer`] backing.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Registers (or replaces) the prior served for `task_id`.
    pub fn register_prior(&self, task_id: u64, prior: &MixturePrior) {
        self.state.register_prior(task_id, prior);
    }

    /// Point-in-time server metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.state.metrics()
    }

    /// Drains the report inbox: every buffered report in arrival order,
    /// leaving the inbox empty.
    pub fn take_reports(&self) -> Vec<ReportedModel> {
        self.state.take_reports()
    }

    /// Signals shutdown and joins every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake every worker out of poll, and the accept loop out of its
        // blocking `accept()`.
        for inbox in &self.worker_wakes {
            inbox.wake.wake();
        }
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request through the byte-level handler, decoded back.
    fn respond(state: &ServerState, request: &Message) -> Message {
        frame::decode(&state.respond_bytes(&frame::encode(request))).unwrap()
    }

    #[test]
    fn respond_covers_the_protocol() {
        let state = ServerState::new();
        state.register_payload(7, vec![1, 2, 3]);

        assert_eq!(respond(&state, &Message::Ping), Message::Ping);
        assert_eq!(
            respond(&state, &Message::PriorRequest { task_id: 7 }),
            Message::PriorResponse {
                payload: vec![1, 2, 3]
            }
        );
        assert!(matches!(
            respond(&state, &Message::PriorRequest { task_id: 8 }),
            Message::Error {
                code: ErrorCode::UnknownTask,
                ..
            }
        ));
        assert_eq!(
            respond(
                &state,
                &Message::ModelReport {
                    task_id: 7,
                    device_id: 3,
                    seq: 1,
                    params: vec![1.0, 2.0],
                }
            ),
            Message::ReportAck { accepted: true }
        );
        // Consume-once semantics: the drain hands the report over and
        // leaves the inbox empty.
        assert_eq!(
            state.take_reports(),
            vec![ReportedModel {
                task_id: 7,
                device_id: 3,
                seq: 1,
                params: vec![1.0, 2.0],
            }]
        );
        assert!(state.take_reports().is_empty());
        assert!(matches!(
            respond(&state, &Message::PriorResponse { payload: vec![] }),
            Message::Error {
                code: ErrorCode::Unexpected,
                ..
            }
        ));

        let m = state.metrics();
        assert_eq!(m.requests, 5);
        assert_eq!(m.responses_ok, 3);
        assert_eq!(m.errors, 2);
    }

    fn report(task_id: u64, device_id: u64, seq: u64, params: Vec<f64>) -> Message {
        Message::ModelReport {
            task_id,
            device_id,
            seq,
            params,
        }
    }

    #[test]
    fn report_inbox_cap_sheds_with_a_rejected_ack_and_draining_reopens_the_window() {
        let state = ServerState::new();
        state.set_report_inbox_cap(2);
        for i in 0..5u64 {
            // Every report is answered with a ReportAck, never an error —
            // a flooding fleet sees its overflow *rejected*, not failed.
            assert_eq!(
                respond(&state, &report(1, i, 1, vec![i as f64])),
                Message::ReportAck { accepted: i < 2 }
            );
        }
        // The inbox holds exactly the cap; the overflow was counted shed.
        assert_eq!(state.report_backlog(), 2);
        assert_eq!(state.metrics().reports_shed, 3);
        let kept = state.take_reports();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].params, vec![0.0]);
        assert_eq!(kept[1].params, vec![1.0]);

        // Draining re-opened the admission window.
        assert_eq!(
            respond(&state, &report(1, 9, 1, vec![9.0])),
            Message::ReportAck { accepted: true }
        );
        assert_eq!(state.report_backlog(), 1);
        assert_eq!(state.metrics().reports_shed, 3);
    }

    #[test]
    fn replayed_and_rate_capped_reports_are_rejected_before_the_inbox() {
        let state = ServerState::new();
        state.set_report_device_cap(2);

        // Fresh sequence numbers are accepted up to the device cap.
        assert_eq!(
            respond(&state, &report(1, 42, 1, vec![1.0])),
            Message::ReportAck { accepted: true }
        );
        // An equal or rewound sequence number is a replay.
        assert_eq!(
            respond(&state, &report(1, 42, 1, vec![1.0])),
            Message::ReportAck { accepted: false }
        );
        assert_eq!(state.metrics().reports_replayed, 1);
        // The next fresh number still gets in…
        assert_eq!(
            respond(&state, &report(1, 42, 2, vec![2.0])),
            Message::ReportAck { accepted: true }
        );
        // …but the device is now at its rate cap: shed, with the sequence
        // window still advancing so this frame cannot be replayed later.
        assert_eq!(
            respond(&state, &report(1, 42, 3, vec![3.0])),
            Message::ReportAck { accepted: false }
        );
        assert_eq!(state.metrics().reports_shed, 1);
        assert_eq!(
            respond(&state, &report(1, 42, 3, vec![3.0])),
            Message::ReportAck { accepted: false }
        );
        assert_eq!(state.metrics().reports_replayed, 2);

        // Another device is unaffected by 42's window.
        assert_eq!(
            respond(&state, &report(1, 43, 1, vec![7.0])),
            Message::ReportAck { accepted: true }
        );

        // Draining resets the rate window but not replay protection.
        let kept = state.take_reports();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].seq, 1);
        assert_eq!(kept[1].seq, 2);
        assert_eq!(
            respond(&state, &report(1, 42, 4, vec![4.0])),
            Message::ReportAck { accepted: true }
        );
        assert_eq!(
            respond(&state, &report(1, 42, 2, vec![2.0])),
            Message::ReportAck { accepted: false },
            "a consumed report's sequence number must stay burned"
        );
        assert_eq!(state.metrics().reports_replayed, 3);
    }

    #[test]
    fn respond_bytes_reports_garbage_as_protocol_errors() {
        let state = ServerState::new();
        // A corrupted frame gets an Error reply, not a dropped connection.
        let mut bad = frame::encode(&Message::Ping);
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        // Corrupting the final CRC byte of an empty-payload frame…
        let reply = frame::decode(&state.respond_bytes(&bad)).unwrap();
        assert!(matches!(
            reply,
            Message::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
        assert_eq!(state.metrics().checksum_failures, 1);

        // …and a valid-CRC future-version frame is told "Version".
        let mut v2 = frame::encode(&Message::Ping);
        v2[4] = 2;
        let crc = crate::crc32::Crc32::new().update(&[2, 0]).finalize();
        v2[6..10].copy_from_slice(&crc.to_le_bytes());
        let reply = frame::decode(&state.respond_bytes(&v2)).unwrap();
        assert!(matches!(
            reply,
            Message::Error {
                code: ErrorCode::Version,
                ..
            }
        ));
    }

    #[test]
    fn tcp_server_serves_and_shuts_down() {
        let mut handle = PriorServer::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        handle.state().register_payload(1, vec![9, 9, 9]);

        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut t = TcpTransport::with_deadlines(
            stream,
            Some(Duration::from_secs(5)),
            Some(Duration::from_secs(5)),
        )
        .unwrap();
        frame::write_frame(&mut t, &Message::PriorRequest { task_id: 1 }).unwrap();
        let (reply, _) = frame::read_frame(&mut t, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(
            reply,
            Message::PriorResponse {
                payload: vec![9, 9, 9]
            }
        );

        // Two requests on one connection: the loop keeps serving.
        frame::write_frame(&mut t, &Message::Ping).unwrap();
        let (reply, _) = frame::read_frame(&mut t, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(reply, Message::Ping);
        drop(t);

        handle.shutdown();
        handle.shutdown(); // idempotent
        assert!(handle.metrics().requests >= 2);
    }

    #[test]
    fn health_reports_load_gauges() {
        let state = ServerState::new();
        match respond(&state, &Message::Health) {
            Message::HealthReport(h) => {
                assert_eq!(h, HealthStatus::default());
            }
            other => panic!("expected HealthReport, got {}", other.kind_name()),
        }
        // Health counts as a served request, not an error.
        let m = state.metrics();
        assert_eq!(m.requests, 1);
        assert_eq!(m.responses_ok, 1);
        assert_eq!(m.errors, 0);
    }

    #[test]
    fn a_request_for_the_disarm_sentinel_task_is_not_a_chaos_panic() {
        // `u64::MAX` disarms the chaos hook, and it is also a task id any
        // peer can put on the wire: a request for it is an unknown task.
        let state = ServerState::new();
        for _ in 0..2 {
            assert!(matches!(
                respond(&state, &Message::PriorRequest { task_id: u64::MAX }),
                Message::Error {
                    code: ErrorCode::UnknownTask,
                    ..
                }
            ));
            state.chaos_panic_on_task(u64::MAX);
        }
    }

    #[test]
    fn busy_bytes_counts_and_encodes_the_hint() {
        let state = ServerState::new();
        let reply = state.busy_bytes(10, Duration::from_millis(40));
        assert_eq!(
            frame::decode(&reply).unwrap(),
            Message::Busy { retry_after_ms: 40 }
        );
        let m = state.metrics();
        assert_eq!(m.busy, 1);
        assert_eq!(m.requests, 1);
        assert_eq!(m.bytes_in, 10);
        assert_eq!(m.bytes_out, reply.len() as u64);
        // Shed requests land in the latency histogram like any other.
        assert_eq!(m.latency_count(), 1);
    }

    #[test]
    fn error_detail_is_capped_on_a_char_boundary() {
        // Under budget: untouched.
        let short = "x".repeat(MAX_ERROR_DETAIL_BYTES);
        assert_eq!(cap_error_detail(short.clone()), short);
        // Over budget: truncated to the budget, ellipsis included.
        let long = "x".repeat(MAX_ERROR_DETAIL_BYTES + 100);
        let capped = cap_error_detail(long);
        assert_eq!(capped.len(), MAX_ERROR_DETAIL_BYTES);
        assert!(capped.ends_with('…'));
        // Multi-byte chars never get split: 'é' is 2 bytes, so the byte
        // budget lands mid-char and the cut backs up to a boundary.
        let multi = "é".repeat(MAX_ERROR_DETAIL_BYTES);
        let capped = cap_error_detail(multi);
        assert!(capped.len() <= MAX_ERROR_DETAIL_BYTES);
        assert!(capped.ends_with('…'));
        assert!(String::from_utf8(capped.into_bytes()).is_ok());
    }

    #[test]
    fn prior_hits_serve_the_cached_frame() {
        let state = ServerState::new();
        state.register_payload(7, vec![1, 2, 3]);
        assert_eq!(state.cache_generation(), 1);
        assert_eq!(state.metrics().prior_cache_builds, 1);
        assert_eq!(state.metrics().snapshot_publishes, 1);

        let request = frame::encode(&Message::PriorRequest { task_id: 7 });
        let reply = state.respond_bytes(&request);
        assert!(reply.is_cached(), "prior hit must come from the cache");
        // The cached frame is bit-identical to a fresh encode.
        assert_eq!(
            &reply[..],
            &frame::encode(&Message::PriorResponse {
                payload: vec![1, 2, 3]
            })[..]
        );
        let m = state.metrics();
        assert_eq!(m.prior_cache_hits, 1);
        assert_eq!(m.responses_ok, 1);

        // Re-registering bumps the generation and swaps the frame.
        state.register_payload(7, vec![9, 9]);
        assert_eq!(state.cache_generation(), 2);
        assert_eq!(state.metrics().snapshot_publishes, 2);
        let entry = state.prior_entry(7).unwrap();
        assert_eq!(entry.generation, 2);
        assert_eq!(
            &entry.frame[..],
            &frame::encode(&Message::PriorResponse {
                payload: vec![9, 9]
            })[..]
        );
        // A miss is an owned Error frame, not a cache entry.
        let miss = state.respond_bytes(&frame::encode(&Message::PriorRequest { task_id: 404 }));
        assert!(!miss.is_cached());
    }

    #[test]
    fn warm_view_prior_hits_take_no_lock() {
        let state = ServerState::new();
        state.register_payload(3, vec![0xAB; 32]);
        let request = frame::encode(&Message::PriorRequest { task_id: 3 });

        let mut view = state.prior_view();
        // Warm-up hit (the view is already current, but measure after it
        // anyway so the assertion covers steady state only).
        let _ = state.respond_bytes_view(&mut view, &request);
        let locks_before = state.slow_path_lock_count();
        for _ in 0..1_000 {
            let reply = state.respond_bytes_view(&mut view, &request);
            assert!(reply.is_cached());
        }
        assert_eq!(
            state.slow_path_lock_count(),
            locks_before,
            "a prior hit on a current view must acquire zero locks"
        );

        // A publication invalidates the view: exactly one slow-path
        // adoption, then lock-free again.
        state.register_payload(3, vec![0xCD; 32]);
        let locks_before = state.slow_path_lock_count();
        let reply = state.respond_bytes_view(&mut view, &request);
        assert_eq!(
            &reply[..],
            &frame::encode(&Message::PriorResponse {
                payload: vec![0xCD; 32]
            })[..],
            "keep-alive readers must observe the re-registered frame"
        );
        assert_eq!(state.slow_path_lock_count(), locks_before + 1);
        let locks_before = state.slow_path_lock_count();
        let _ = state.respond_bytes_view(&mut view, &request);
        assert_eq!(state.slow_path_lock_count(), locks_before);
    }

    #[test]
    fn poisoned_publication_slot_is_recovered_not_fatal() {
        let state = Arc::new(ServerState::new());
        state.register_payload(1, vec![7]);
        // Poison the publication slot by panicking while holding it.
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.published.lock().unwrap();
            panic!("poison the publication slot");
        })
        .join();
        assert!(state.published.is_poisoned());
        // Reads and writes still work, inheriting the last good snapshot…
        assert_eq!(
            respond(&state, &Message::PriorRequest { task_id: 1 }),
            Message::PriorResponse { payload: vec![7] }
        );
        state.register_payload(2, vec![8]);
        assert_eq!(
            respond(&state, &Message::PriorRequest { task_id: 2 }),
            Message::PriorResponse { payload: vec![8] }
        );
        // …and every recovery is counted.
        assert!(state.metrics().lock_recoveries >= 1);

        // heal_locks clears residual poison and counts it.
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.published.lock().unwrap();
            panic!("poison again");
        })
        .join();
        let before = state.metrics().lock_recoveries;
        state.heal_locks();
        assert!(!state.published.is_poisoned());
        assert_eq!(state.metrics().lock_recoveries, before + 1);
        state.heal_locks(); // idempotent on clean locks
        assert_eq!(state.metrics().lock_recoveries, before + 1);
    }

    #[test]
    fn worker_panic_is_counted_and_the_pool_survives() {
        let config = ServeConfig {
            workers: 1, // one event loop: if it died, the follow-up would hang
            read_timeout: Some(Duration::from_secs(2)),
            ..ServeConfig::default()
        };
        let mut handle = PriorServer::bind("127.0.0.1:0", config).unwrap();
        handle.state().register_payload(1, vec![5]);
        handle.state().chaos_panic_on_task(13);

        let mut client = crate::client::PriorClient::new(
            crate::transport::TcpConnector::new(handle.addr()),
            crate::client::RetryPolicy::no_retries(),
        );
        // The poisoned request dies mid-connection: the client sees a
        // transient transport error (here wrapped by the exhausted
        // single-attempt budget), never a protocol-level failure.
        let err = client.fetch_prior_payload(13).unwrap_err();
        match err {
            ServeError::RetriesExhausted { last, .. } => {
                assert!(last.is_retryable(), "worker panic must read as transient")
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        // The event loop survived the panic: it still serves.
        assert_eq!(client.fetch_prior_payload(1).unwrap(), vec![5]);
        let m = handle.metrics();
        assert_eq!(m.worker_panics, 1);
        assert!(m.lock_recoveries >= 1, "poisoned slot was healed");
        // Health reflects the panic and a drained in-flight gauge.
        let h = client.health().unwrap();
        assert_eq!(h.worker_panics, 1);
        // The health request counts itself; a leaked gauge would read 2+.
        assert_eq!(h.in_flight, 1, "in-flight gauge must survive the panic");
        handle.shutdown();
    }

    #[test]
    fn per_connection_request_cap_closes_the_stream() {
        let config = ServeConfig {
            max_requests_per_conn: 2,
            ..ServeConfig::default()
        };
        let mut handle = PriorServer::bind("127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut t = TcpTransport::with_deadlines(
            stream,
            Some(Duration::from_secs(2)),
            Some(Duration::from_secs(2)),
        )
        .unwrap();
        for _ in 0..2 {
            frame::write_frame(&mut t, &Message::Ping).unwrap();
            let (reply, _) = frame::read_frame(&mut t, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(reply, Message::Ping);
        }
        // Third request on the same connection: the server has hung up.
        let _ = frame::write_frame(&mut t, &Message::Ping);
        assert!(frame::read_frame(&mut t, DEFAULT_MAX_FRAME_LEN).is_err());
        // A fresh connection is served normally.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut t = TcpTransport::with_deadlines(
            stream,
            Some(Duration::from_secs(2)),
            Some(Duration::from_secs(2)),
        )
        .unwrap();
        frame::write_frame(&mut t, &Message::Ping).unwrap();
        assert!(frame::read_frame(&mut t, DEFAULT_MAX_FRAME_LEN).is_ok());
        handle.shutdown();
    }

    #[test]
    fn oversized_buffers_shrink_back_to_the_high_water_mark() {
        let high = 64 << 10;
        // A read buffer blown up by one huge frame, now holding a small
        // carry: shrinks back to the mark, carry preserved.
        let mut buf = vec![0u8; 1 << 20];
        buf[0] = 0xAA;
        buf[1] = 0xBB;
        shrink_buffer(&mut buf, 2, high);
        assert!(buf.capacity() <= 2 * high, "capacity {}", buf.capacity());
        assert_eq!(buf.len(), high);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);

        // A buffer still carrying more live bytes than the mark is left
        // alone — shrinking would lose data.
        let mut buf = vec![7u8; 1 << 20];
        let used = buf.len();
        shrink_buffer(&mut buf, used, high);
        assert_eq!(buf.len(), 1 << 20);
        assert!(buf.iter().all(|&b| b == 7));

        // A small buffer never grows from shrinking.
        let mut buf = vec![1u8; 16];
        shrink_buffer(&mut buf, 16, high);
        assert_eq!(buf.len(), 16);
    }

    #[test]
    fn admission_cap_defaults_to_workers_plus_queue_bound() {
        let config = ServeConfig {
            workers: 2,
            queue_bound: 5,
            ..ServeConfig::default()
        };
        assert_eq!(config.admission_cap(), 7);
        let config = ServeConfig {
            max_connections: Some(1000),
            ..config
        };
        assert_eq!(config.admission_cap(), 1000);
    }
}
