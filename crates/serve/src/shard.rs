//! The sharded prior plane: consistent-hash routing with per-task
//! replication across N [`PriorServer`] shards, plus the client-side
//! directory that routes requests straight to the owning shard and fails
//! over to replicas.
//!
//! Placement is a consistent-hash ring ([`HashRing`]): every shard
//! contributes `virtual_nodes` points derived from a stable seeded hash
//! ([`stable_shard_hash`] — no `std` hasher randomness, so every process
//! that holds the same [`ShardMapWire`] computes the same placement), and
//! a task's owners are the first `replication` *distinct* shards walking
//! clockwise from the task's hash point. [`ShardedPriorPlane`] fans each
//! registration out to all owners; because prior frames embed only the
//! payload (never the registry generation), the replica frames are
//! byte-identical, and a client failing over mid-fleet reads exactly the
//! bytes the primary would have served.
//!
//! Clients hold an epoch-stamped [`ShardMap`] in a shared
//! [`ShardDirectory`]. A per-task [`ShardConnector`] dials the task's
//! primary owner; [`crate::client::PriorClient`]'s retry loop reports
//! every retryable failure through [`crate::transport::Connector::
//! note_retryable_error`], and the connector advances to the next replica
//! (counted in [`crate::metrics::ServeMetrics::shard_failovers`]) — or,
//! on a [`crate::ServeError::Misrouted`] redirect, refreshes the map and
//! re-aims at the new primary, recovering within a single retry.
//! Re-sharding ([`ShardedPriorPlane::add_shard`] /
//! [`ShardedPriorPlane::remove_shard`]) bumps the map epoch and
//! republishes the route to every shard, so keep-alive clients re-route
//! on their next request instead of erroring.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dre_bayes::MixturePrior;

use crate::client::{PriorClient, RetryPolicy};
use crate::frame::ShardMapWire;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::server::{PriorServer, ReportedModel, ServeConfig, ServerHandle};
use crate::transport::{Connector, TcpConnector, TcpTransport};
use crate::{Result, ServeError};

/// Salt separating task-key hashes from ring-point hashes, so a task id
/// that happens to equal a virtual-node key never lands exactly on its
/// point by construction.
const TASK_SALT: u64 = 0x7A5C_5A17_5EED_CAFE;

/// A stable, seeded 64-bit mix (splitmix64 finalizer). Deterministic
/// across processes and platforms — the whole routing plane hangs off
/// every participant computing identical placements from the same
/// `(key, seed)`.
pub fn stable_shard_hash(key: u64, seed: u64) -> u64 {
    let mut z = key.wrapping_add(seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring: `virtual_nodes` points per shard, sorted, with
/// owner lookup by clockwise walk. Built deterministically from
/// `(shards, virtual_nodes, seed)` alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, shard index)`, sorted by point (ties keep build order,
    /// which is itself deterministic).
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring for `shards` shards with `virtual_nodes` points
    /// each under `seed`.
    pub fn build(shards: usize, virtual_nodes: usize, seed: u64) -> HashRing {
        let virtual_nodes = virtual_nodes.max(1);
        let mut points = Vec::with_capacity(shards * virtual_nodes);
        for shard in 0..shards {
            for vnode in 0..virtual_nodes {
                let key = ((shard as u64) << 32) | vnode as u64;
                points.push((stable_shard_hash(key, seed), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards the ring was built over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Index of the first ring point at or clockwise-after the task's
    /// hash.
    fn start_index(&self, task_id: u64, seed: u64) -> usize {
        let h = stable_shard_hash(task_id, seed ^ TASK_SALT);
        let i = self.points.partition_point(|&(p, _)| p < h);
        if i == self.points.len() {
            0
        } else {
            i
        }
    }

    /// Appends the task's owner shards — the first `replication` distinct
    /// shards walking clockwise from its hash point — to `out`, primary
    /// first.
    pub fn owners_into(&self, task_id: u64, seed: u64, replication: usize, out: &mut Vec<usize>) {
        if self.points.is_empty() {
            return;
        }
        let want = replication.max(1).min(self.shards);
        let start = self.start_index(task_id, seed);
        let len = self.points.len();
        let before = out.len();
        for i in 0..len {
            let (_, shard) = self.points[(start + i) % len];
            if !out[before..].contains(&shard) {
                out.push(shard);
                if out.len() - before == want {
                    return;
                }
            }
        }
    }

    /// Whether `shard` is among the task's owners — the allocation-free
    /// form of [`HashRing::owners_into`] the per-request ownership check
    /// uses (shard counts ≤ 64 walk with a bitmask; larger rings fall
    /// back to the allocating walk).
    pub fn owns(&self, task_id: u64, seed: u64, replication: usize, shard: usize) -> bool {
        if self.points.is_empty() {
            return false;
        }
        if self.shards > 64 {
            let mut owners = Vec::new();
            self.owners_into(task_id, seed, replication, &mut owners);
            return owners.contains(&shard);
        }
        let want = replication.max(1).min(self.shards);
        let start = self.start_index(task_id, seed);
        let len = self.points.len();
        let mut seen: u64 = 0;
        let mut found = 0usize;
        for i in 0..len {
            let (_, s) = self.points[(start + i) % len];
            let bit = 1u64 << s;
            if seen & bit == 0 {
                if s == shard {
                    return true;
                }
                seen |= bit;
                found += 1;
                if found == want {
                    return false;
                }
            }
        }
        false
    }
}

/// The epoch-stamped shard map every participant routes by: the wire form
/// (what `ShardMapResponse` frames carry) plus the ring rebuilt from it.
/// Two processes holding equal wire maps route identically.
#[derive(Debug, Clone)]
pub struct ShardMap {
    wire: ShardMapWire,
    ring: HashRing,
}

impl ShardMap {
    /// Builds the routing map from its wire form.
    pub fn new(wire: ShardMapWire) -> ShardMap {
        let ring = HashRing::build(wire.shards.len(), wire.virtual_nodes as usize, wire.seed);
        ShardMap { wire, ring }
    }

    /// The wire form this map was built from.
    pub fn wire(&self) -> &ShardMapWire {
        &self.wire
    }

    /// The map's epoch — bumped on every membership change.
    pub fn epoch(&self) -> u64 {
        self.wire.epoch
    }

    /// Number of member shards.
    pub fn len(&self) -> usize {
        self.wire.shards.len()
    }

    /// True when the map has no member shards.
    pub fn is_empty(&self) -> bool {
        self.wire.shards.is_empty()
    }

    /// The address of shard `index`.
    pub fn addr(&self, index: usize) -> SocketAddr {
        self.wire.shards[index]
    }

    /// Effective replication factor: the configured factor clamped to the
    /// member count (and at least 1).
    pub fn replication(&self) -> usize {
        (self.wire.replication as usize)
            .max(1)
            .min(self.len().max(1))
    }

    /// The task's owner shard indices, primary first.
    pub fn owners(&self, task_id: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.replication());
        self.ring
            .owners_into(task_id, self.wire.seed, self.replication(), &mut out);
        out
    }

    /// Whether shard `index` owns `task_id` (allocation-free).
    pub fn owns(&self, task_id: u64, index: usize) -> bool {
        self.ring
            .owns(task_id, self.wire.seed, self.replication(), index)
    }
}

/// Tuning knobs for [`ShardedPriorPlane::bind`].
#[derive(Debug, Clone)]
pub struct ShardPlaneConfig {
    /// Number of shards to bind.
    pub shards: usize,
    /// Replicas per task (clamped to the shard count).
    pub replication: usize,
    /// Virtual ring points per shard — more points, smoother balance.
    pub virtual_nodes: usize,
    /// Placement seed shared by every participant.
    pub seed: u64,
    /// Per-shard server configuration.
    pub serve: ServeConfig,
}

impl Default for ShardPlaneConfig {
    fn default() -> Self {
        ShardPlaneConfig {
            shards: 4,
            replication: 2,
            virtual_nodes: 64,
            seed: 0x5EED_0D1E_D1E7_ED00,
            serve: ServeConfig::default(),
        }
    }
}

/// N prior-server shards behind one consistent-hash map: registrations
/// fan out to every replica, the epoch-stamped map is served by every
/// shard, and membership changes republish the map so keep-alive clients
/// re-route on their next request.
pub struct ShardedPriorPlane {
    config: ShardPlaneConfig,
    /// One slot per member; `None` while a shard is killed.
    handles: Vec<Option<ServerHandle>>,
    /// Member addresses — stable across kill/restart so clients can fail
    /// over to replicas without a map change.
    addrs: Vec<SocketAddr>,
    epoch: u64,
    map: ShardMap,
    /// Every payload ever registered, for deterministic replay when a
    /// shard restarts or ownership moves during a rebalance.
    payloads: HashMap<u64, Vec<u8>>,
    /// Plane-level routing metrics ([`ServeMetrics::replica_fanouts`]).
    metrics: Arc<ServeMetrics>,
}

impl ShardedPriorPlane {
    /// Binds `config.shards` servers on OS-assigned loopback ports,
    /// publishes the epoch-1 map to each, and returns the plane.
    pub fn bind(config: ShardPlaneConfig) -> Result<ShardedPriorPlane> {
        let shards = config.shards.max(1);
        let mut handles = Vec::with_capacity(shards);
        let mut addrs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let handle = PriorServer::bind("127.0.0.1:0", config.serve.clone())?;
            addrs.push(handle.addr());
            handles.push(Some(handle));
        }
        let mut plane = ShardedPriorPlane {
            config,
            handles,
            addrs,
            epoch: 1,
            map: ShardMap::new(ShardMapWire {
                epoch: 0,
                seed: 0,
                replication: 1,
                virtual_nodes: 1,
                shards: Vec::new(),
            }),
            payloads: HashMap::new(),
            metrics: Arc::new(ServeMetrics::new()),
        };
        plane.publish_map();
        Ok(plane)
    }

    /// Rebuilds the map at the current epoch and installs it as the shard
    /// route on every live member — one generation-bumping publication
    /// per shard, so their keep-alive readers adopt it lock-free.
    fn publish_map(&mut self) {
        self.map = ShardMap::new(ShardMapWire {
            epoch: self.epoch,
            seed: self.config.seed,
            replication: self.config.replication.max(1).min(self.addrs.len()) as u32,
            virtual_nodes: self.config.virtual_nodes.max(1) as u32,
            shards: self.addrs.clone(),
        });
        for (index, slot) in self.handles.iter().enumerate() {
            if let Some(handle) = slot {
                handle.state().install_shard_route(self.map.clone(), index);
            }
        }
    }

    /// The current routing map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The current map epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Member addresses, by shard index.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of members currently alive.
    pub fn live_count(&self) -> usize {
        self.live().count()
    }

    /// The handle of shard `index`, if it is alive.
    pub fn handle(&self, index: usize) -> Option<&ServerHandle> {
        self.handles.get(index).and_then(|h| h.as_ref())
    }

    /// Live members' handles, in shard order.
    fn live(&self) -> impl Iterator<Item = &ServerHandle> {
        self.handles.iter().flatten()
    }

    /// Drains every live shard's report inbox
    /// ([`crate::ServerState::take_reports`]): shards in shard order,
    /// arrival order within a shard.
    pub fn take_reports(&self) -> Vec<ReportedModel> {
        self.live().flat_map(ServerHandle::take_reports).collect()
    }

    /// Folds learner-side admission outcomes into the plane's metrics
    /// ([`crate::ServerState::note_admission_outcomes`]). They are fleet
    /// totals, so they count once, on the first live shard.
    pub fn note_admission_outcomes(&self, gated: u64, quarantined: u64) {
        if let Some(first) = self.live().next() {
            first.state().note_admission_outcomes(gated, quarantined);
        }
    }

    /// Plane-level routing metrics (replica fan-outs).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Point-in-time metrics of shard `index`, if it is alive.
    pub fn shard_metrics(&self, index: usize) -> Option<MetricsSnapshot> {
        self.handle(index).map(|h| h.metrics())
    }

    /// Registers (or replaces) the prior served for `task_id` on every
    /// owner replica.
    pub fn register_prior(&mut self, task_id: u64, prior: &MixturePrior) {
        self.register_payload(task_id, dro_edge::transfer::serialize_prior(prior));
    }

    /// Registers a raw transfer payload on every live owner replica —
    /// each replica write counts once in
    /// [`ServeMetrics::replica_fanouts`]. Frames don't embed the registry
    /// generation, so every replica serves byte-identical response
    /// frames. The payload is also recorded so restarts and rebalances
    /// can replay ownership deterministically.
    pub fn register_payload(&mut self, task_id: u64, payload: Vec<u8>) {
        for index in self.map.owners(task_id) {
            if let Some(handle) = &self.handles[index] {
                handle.state().register_payload(task_id, payload.clone());
                self.metrics.replica_fanouts.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.payloads.insert(task_id, payload);
    }

    /// Kills shard `index`: shuts the server down and frees its port. The
    /// map does **not** change — clients fail over to replicas on the
    /// resulting connection errors until [`ShardedPriorPlane::
    /// restart_shard`] brings the member back.
    pub fn kill_shard(&mut self, index: usize) {
        if let Some(mut handle) = self.handles[index].take() {
            handle.shutdown();
        }
    }

    /// Restarts a killed shard on its original address (bounded bind
    /// retries cover the OS releasing the port), reinstalls the current
    /// route, and replays every payload the shard owns.
    pub fn restart_shard(&mut self, index: usize) -> Result<()> {
        if self.handles[index].is_some() {
            return Ok(());
        }
        let addr = self.addrs[index].to_string();
        let mut attempts_left = 100;
        let handle = loop {
            match PriorServer::bind(&addr, self.config.serve.clone()) {
                Ok(handle) => break handle,
                Err(e) => {
                    attempts_left -= 1;
                    if attempts_left == 0 {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        handle.state().install_shard_route(self.map.clone(), index);
        for (&task_id, payload) in &self.payloads {
            if self.map.owns(task_id, index) {
                handle.state().register_payload(task_id, payload.clone());
                self.metrics.replica_fanouts.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.handles[index] = Some(handle);
        Ok(())
    }

    /// Adds a member shard: binds it, bumps the epoch, republishes the
    /// map to every live member, and replays every payload onto its
    /// (possibly new) owners. Returns the new shard's index.
    pub fn add_shard(&mut self) -> Result<usize> {
        let handle = PriorServer::bind("127.0.0.1:0", self.config.serve.clone())?;
        self.addrs.push(handle.addr());
        self.handles.push(Some(handle));
        let index = self.handles.len() - 1;
        self.rebalance();
        Ok(index)
    }

    /// Removes member shard `index`: shuts it down, drops it from the
    /// map, bumps the epoch, republishes, and replays every payload onto
    /// the surviving owners.
    pub fn remove_shard(&mut self, index: usize) {
        if let Some(mut handle) = self.handles[index].take() {
            handle.shutdown();
        }
        self.handles.remove(index);
        self.addrs.remove(index);
        self.rebalance();
    }

    /// Bumps the epoch, republishes the map, and replays every recorded
    /// payload onto its current owners — ownership that moved lands on
    /// the new replicas, and clients re-adopt the map on their next
    /// request.
    fn rebalance(&mut self) {
        self.epoch += 1;
        self.publish_map();
        let payloads: Vec<(u64, Vec<u8>)> =
            self.payloads.iter().map(|(&t, p)| (t, p.clone())).collect();
        for (task_id, payload) in payloads {
            self.register_payload(task_id, payload);
        }
    }

    /// A shared client-side directory seeded with the current map.
    pub fn directory(&self) -> Arc<ShardDirectory> {
        ShardDirectory::new(self.map.clone())
    }

    /// Shuts every live shard down.
    pub fn shutdown(&mut self) {
        for slot in &mut self.handles {
            if let Some(mut handle) = slot.take() {
                handle.shutdown();
            }
        }
    }
}

impl Drop for ShardedPriorPlane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The client-side shard directory: one shared, epoch-stamped
/// [`ShardMap`] plus the routing metrics every [`ShardConnector`] built
/// from it reports into. Refreshing fetches the map from the first member
/// that answers and adopts it only when its epoch is newer.
pub struct ShardDirectory {
    map: Mutex<ShardMap>,
    metrics: Arc<ServeMetrics>,
}

impl ShardDirectory {
    /// A directory seeded with `map`.
    pub fn new(map: ShardMap) -> Arc<ShardDirectory> {
        Arc::new(ShardDirectory {
            map: Mutex::new(map),
            metrics: Arc::new(ServeMetrics::new()),
        })
    }

    /// Bootstraps a directory by fetching the map from one known member.
    pub fn bootstrap(addr: SocketAddr) -> Result<Arc<ShardDirectory>> {
        let mut client = PriorClient::new(TcpConnector::new(addr), RetryPolicy::default());
        let wire = client.fetch_shard_map()?;
        Ok(Self::new(ShardMap::new(wire)))
    }

    fn map_lock(&self) -> MutexGuard<'_, ShardMap> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A clone of the current map.
    pub fn map(&self) -> ShardMap {
        self.map_lock().clone()
    }

    /// The current map epoch.
    pub fn epoch(&self) -> u64 {
        self.map_lock().epoch()
    }

    /// Shared routing metrics (failovers, map refreshes).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Re-fetches the map from the first member that answers, adopting it
    /// when its epoch is at least as new as the held one. Each successful
    /// adoption counts once in [`ServeMetrics::map_refreshes`]. Returns
    /// the epoch now held.
    pub fn refresh(&self) -> Result<u64> {
        let addrs: Vec<SocketAddr> = {
            let map = self.map_lock();
            (0..map.len()).map(|i| map.addr(i)).collect()
        };
        let mut last: Option<ServeError> = None;
        for addr in addrs {
            let mut client = PriorClient::new(TcpConnector::new(addr), RetryPolicy::no_retries());
            match client.fetch_shard_map() {
                Ok(wire) => {
                    let mut guard = self.map_lock();
                    if wire.epoch >= guard.epoch() {
                        *guard = ShardMap::new(wire);
                    }
                    let epoch = guard.epoch();
                    drop(guard);
                    self.metrics.map_refreshes.fetch_add(1, Ordering::Relaxed);
                    return Ok(epoch);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(ServeError::Io {
            op: "shard map refresh",
            source: std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "directory holds no shard addresses",
            ),
        }))
    }

    /// A routed keep-alive client for `task_id`.
    pub fn client_for(
        self: &Arc<Self>,
        task_id: u64,
        policy: RetryPolicy,
    ) -> PriorClient<ShardConnector> {
        PriorClient::new(ShardConnector::new(Arc::clone(self), task_id), policy).keep_alive(true)
    }
}

/// A per-task routing [`Connector`]: dials the task's primary owner and
/// walks the replica list on retryable failures. A
/// [`ServeError::Misrouted`] redirect instead schedules a directory
/// refresh, so the next attempt re-aims at the *new* primary — recovery
/// within one retry. Adopts a republished map automatically whenever the
/// directory's epoch moves.
pub struct ShardConnector {
    directory: Arc<ShardDirectory>,
    task_id: u64,
    /// Owner addresses at `epoch`, primary first.
    owners: Vec<SocketAddr>,
    epoch: u64,
    /// Which owner the next connect dials (`cursor % owners.len()`).
    cursor: usize,
    /// Refresh the directory map before the next connect.
    pending_refresh: bool,
    /// Deadlines installed on each dialed connection.
    connect_timeout: Duration,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl ShardConnector {
    /// A connector routing `task_id` through `directory`.
    pub fn new(directory: Arc<ShardDirectory>, task_id: u64) -> ShardConnector {
        let mut connector = ShardConnector {
            directory,
            task_id,
            owners: Vec::new(),
            epoch: 0,
            cursor: 0,
            pending_refresh: false,
            connect_timeout: Duration::from_secs(1),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
        };
        connector.adopt_map();
        connector
    }

    /// The task this connector routes.
    pub fn task_id(&self) -> u64 {
        self.task_id
    }

    /// The shared directory this connector routes through.
    pub fn directory(&self) -> &Arc<ShardDirectory> {
        &self.directory
    }

    /// The owner address the next connect will dial.
    pub fn current_target(&self) -> Option<SocketAddr> {
        if self.owners.is_empty() {
            None
        } else {
            Some(self.owners[self.cursor % self.owners.len()])
        }
    }

    fn adopt_map(&mut self) {
        let map = self.directory.map();
        self.epoch = map.epoch();
        self.owners = map
            .owners(self.task_id)
            .into_iter()
            .map(|i| map.addr(i))
            .collect();
        self.cursor = 0;
    }
}

impl Connector for ShardConnector {
    type Transport = TcpTransport;

    fn connect(&mut self) -> Result<TcpTransport> {
        if self.pending_refresh {
            self.pending_refresh = false;
            // Best-effort: a refresh that finds no live member leaves the
            // held map in place, and the replica walk below still runs.
            let _ = self.directory.refresh();
            self.adopt_map();
        } else if self.directory.epoch() != self.epoch {
            self.adopt_map();
        }
        let addr = self.current_target().ok_or(ServeError::Io {
            op: "shard route",
            source: std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "shard map holds no owners for this task",
            ),
        })?;
        let mut tcp = TcpConnector::new(addr);
        tcp.connect_timeout = self.connect_timeout;
        tcp.read_timeout = self.read_timeout;
        tcp.write_timeout = self.write_timeout;
        tcp.connect()
    }

    fn note_retryable_error(&mut self, error: &ServeError) {
        match error {
            // A redirect names the wrong shard, not a dead one: refresh
            // the map and start over at the (new) primary.
            ServeError::Misrouted { .. } => {
                self.pending_refresh = true;
                self.cursor = 0;
            }
            // Anything else transient: fail over to the next replica.
            _ => {
                self.cursor += 1;
                self.directory
                    .metrics
                    .shard_failovers
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use crate::frame::Message;

    fn wire(shards: usize, replication: u32) -> ShardMapWire {
        ShardMapWire {
            epoch: 1,
            seed: 7_400,
            replication,
            virtual_nodes: 64,
            shards: (0..shards)
                .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap())
                .collect(),
        }
    }

    #[test]
    fn ring_is_deterministic_and_balanced() {
        let a = HashRing::build(4, 64, 42);
        let b = HashRing::build(4, 64, 42);
        assert_eq!(a, b, "same inputs must build the same ring");
        assert_ne!(
            a,
            HashRing::build(4, 64, 43),
            "a different seed must move the ring"
        );

        // Primary-ownership balance over many tasks: with 64 virtual
        // nodes per shard no shard should starve or dominate.
        let map = ShardMap::new(wire(4, 1));
        let mut counts = [0usize; 4];
        for task in 0..4_000u64 {
            counts[map.owners(task)[0]] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (400..=2_000).contains(&n),
                "shard {shard} owns {n} of 4000 primaries — ring is badly unbalanced"
            );
        }
    }

    #[test]
    fn owners_are_distinct_primary_first_and_match_owns() {
        let map = ShardMap::new(wire(5, 3));
        for task in 0..500u64 {
            let owners = map.owners(task);
            assert_eq!(owners.len(), 3);
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners must be distinct shards");
            for shard in 0..5 {
                assert_eq!(
                    map.owns(task, shard),
                    owners.contains(&shard),
                    "owns() disagrees with owners() for task {task} shard {shard}"
                );
            }
        }
    }

    #[test]
    fn replication_clamps_to_member_count() {
        let map = ShardMap::new(wire(2, 9));
        assert_eq!(map.replication(), 2);
        for task in 0..50u64 {
            assert_eq!(map.owners(task).len(), 2);
        }
    }

    #[test]
    fn map_roundtrips_through_its_wire_form() {
        let map = ShardMap::new(wire(3, 2));
        let frame_bytes = frame::encode(&Message::ShardMapResponse {
            map: map.wire().clone(),
        });
        let decoded = match frame::decode(&frame_bytes).unwrap() {
            Message::ShardMapResponse { map } => map,
            other => panic!("expected ShardMapResponse, got {}", other.kind_name()),
        };
        let rebuilt = ShardMap::new(decoded);
        for task in 0..200u64 {
            assert_eq!(
                map.owners(task),
                rebuilt.owners(task),
                "a map rebuilt from its wire form must route identically"
            );
        }
    }

    #[test]
    fn plane_fans_registrations_out_to_byte_identical_replicas() {
        let mut plane = ShardedPriorPlane::bind(ShardPlaneConfig {
            shards: 3,
            replication: 2,
            serve: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            ..ShardPlaneConfig::default()
        })
        .unwrap();
        plane.register_payload(7, vec![1, 2, 3]);

        let owners = plane.shard_map().owners(7);
        assert_eq!(owners.len(), 2);
        let frames: Vec<_> = owners
            .iter()
            .map(|&i| {
                plane
                    .handle(i)
                    .unwrap()
                    .state()
                    .prior_entry(7)
                    .expect("owner must hold the replica")
                    .frame
            })
            .collect();
        assert_eq!(
            &frames[0][..],
            &frames[1][..],
            "replica frames must be byte-identical"
        );
        // Non-owners hold nothing.
        for i in 0..3 {
            if !owners.contains(&i) {
                assert!(plane.handle(i).unwrap().state().prior_entry(7).is_none());
            }
        }
        assert_eq!(plane.metrics().replica_fanouts, 2);
        plane.shutdown();
    }

    #[test]
    fn restart_replays_owned_payloads_and_rebalance_moves_them() {
        let mut plane = ShardedPriorPlane::bind(ShardPlaneConfig {
            shards: 2,
            replication: 2,
            serve: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            ..ShardPlaneConfig::default()
        })
        .unwrap();
        plane.register_payload(1, vec![9]);
        plane.register_payload(2, vec![8]);

        plane.kill_shard(0);
        assert_eq!(plane.live_count(), 1);
        plane.restart_shard(0).unwrap();
        assert_eq!(plane.live_count(), 2);
        // r = 2 of 2 shards: the restarted member owns everything again.
        for (task, payload) in [(1u64, vec![9u8]), (2, vec![8])] {
            let entry = plane.handle(0).unwrap().state().prior_entry(task).unwrap();
            assert_eq!(*entry.payload, payload);
        }

        // Adding a member bumps the epoch and lands replicas on it per
        // the new map.
        let old_epoch = plane.epoch();
        let added = plane.add_shard().unwrap();
        assert_eq!(plane.epoch(), old_epoch + 1);
        for task in [1u64, 2] {
            for &owner in &plane.shard_map().owners(task) {
                assert!(
                    plane
                        .handle(owner)
                        .unwrap()
                        .state()
                        .prior_entry(task)
                        .is_some(),
                    "task {task} missing on owner {owner} after rebalance"
                );
            }
        }
        let _ = added;
        plane.shutdown();
    }

    fn plane(shards: usize) -> ShardedPriorPlane {
        ShardedPriorPlane::bind(ShardPlaneConfig {
            shards,
            replication: 2,
            serve: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            ..ShardPlaneConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn removing_a_middle_shard_republishes_the_map_and_clients_follow_it() {
        let mut plane = plane(3);
        let tasks = 0..24u64;
        for task in tasks.clone() {
            plane.register_payload(task, vec![task as u8; 8]);
        }
        // A directory holding the map from before the removal.
        let directory = plane.directory();
        let removed = plane.addrs()[1];
        let epoch = plane.epoch();

        plane.remove_shard(1);
        assert_eq!(plane.epoch(), epoch + 1);
        assert_eq!(plane.live_count(), 2);
        assert_eq!(plane.addrs().len(), 2);
        assert!(!plane.addrs().contains(&removed));
        // Every surviving member serves the new map, without the removed
        // address.
        for &addr in plane.addrs() {
            let wire = PriorClient::new(TcpConnector::new(addr), RetryPolicy::no_retries())
                .fetch_shard_map()
                .unwrap();
            assert_eq!(wire.epoch, epoch + 1);
            assert_eq!(wire.shards, plane.addrs());
        }

        assert_eq!(directory.refresh().unwrap(), epoch + 1);
        for task in tasks {
            let mut client = directory.client_for(task, RetryPolicy::no_retries());
            assert_eq!(
                client.fetch_prior_payload(task).unwrap(),
                vec![task as u8; 8],
                "task {task} after the removal"
            );
        }
        plane.shutdown();
    }

    #[test]
    fn removing_the_last_shard_leaves_an_empty_map_until_a_shard_is_added() {
        let mut plane = plane(1);
        plane.register_payload(3, vec![3; 8]);
        let directory = plane.directory();
        let epoch = plane.epoch();

        plane.remove_shard(0);
        assert_eq!(plane.epoch(), epoch + 1);
        assert_eq!(plane.live_count(), 0);
        assert!(plane.shard_map().is_empty());
        assert!(plane.shard_map().owners(3).is_empty());
        // No member is left to answer: the directory keeps its map, and a
        // routed fetch fails with an error instead of panicking.
        assert!(directory.refresh().is_err());
        assert_eq!(directory.epoch(), epoch);
        assert!(directory
            .client_for(3, RetryPolicy::no_retries())
            .fetch_prior_payload(3)
            .is_err());

        // The recorded payloads survive: a new member serves them again.
        let added = plane.add_shard().unwrap();
        assert_eq!((added, plane.epoch()), (0, epoch + 2));
        let fresh = plane.directory();
        assert_eq!(
            fresh
                .client_for(3, RetryPolicy::no_retries())
                .fetch_prior_payload(3)
                .unwrap(),
            vec![3; 8]
        );
        plane.shutdown();
    }

    #[test]
    fn plane_drains_live_shards_in_order_and_counts_admission_once() {
        let mut plane = ShardedPriorPlane::bind(ShardPlaneConfig {
            shards: 2,
            serve: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            ..ShardPlaneConfig::default()
        })
        .unwrap();
        let report = |plane: &ShardedPriorPlane, shard: usize, device_id: u64| {
            let request = frame::encode(&Message::ModelReport {
                task_id: 1,
                device_id,
                seq: 1,
                params: vec![device_id as f64],
            });
            plane.handle(shard).unwrap().state().respond_bytes(&request);
        };
        let devices = |reports: Vec<ReportedModel>| -> Vec<u64> {
            reports.iter().map(|r| r.device_id).collect()
        };
        let counted = |plane: &ShardedPriorPlane, shard: usize| {
            let m = plane.shard_metrics(shard).unwrap();
            (m.reports_gated, m.devices_quarantined)
        };

        // Shard 1 hears first, so shard order differs from arrival order.
        report(&plane, 1, 10);
        report(&plane, 0, 20);
        report(&plane, 1, 11);
        assert_eq!(devices(plane.take_reports()), [20, 10, 11]);
        assert!(plane.take_reports().is_empty(), "the drain empties inboxes");
        plane.note_admission_outcomes(3, 1);
        assert_eq!(counted(&plane, 0), (3, 1));
        assert_eq!(counted(&plane, 1), (0, 0));

        // With shard 0 dead, shard 1 is the first live shard.
        plane.kill_shard(0);
        report(&plane, 1, 12);
        assert_eq!(devices(plane.take_reports()), [12]);
        plane.note_admission_outcomes(2, 0);
        assert_eq!(counted(&plane, 1), (2, 0));
        plane.shutdown();
    }
}
