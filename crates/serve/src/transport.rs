//! Byte transports: real TCP sockets and a deterministic faulty double.
//!
//! The client and the frame codec are generic over [`Transport`], so the
//! exact same retry/checksum code paths run over a real `TcpStream` in
//! production and over [`FaultyTransport`] — an in-memory transport that
//! injects drops, truncations, bit-flips, and delays from a seeded RNG —
//! in `cargo test`, deterministically.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Result, ServeError};

/// A bidirectional byte pipe the frame codec runs over.
pub trait Transport {
    /// Writes all of `bytes` to the peer.
    fn send(&mut self, bytes: &[u8]) -> Result<()>;

    /// Fills `buf` completely from the peer, erroring with
    /// [`ServeError::ShortRead`] if the stream ends first.
    fn recv_exact(&mut self, buf: &mut [u8]) -> Result<()>;

    /// Like [`Transport::recv_exact`], but a clean end-of-stream before the
    /// first byte returns `Ok(false)` instead of an error.
    fn recv_exact_or_eof(&mut self, buf: &mut [u8]) -> Result<bool>;

    /// Reads *at least one* byte into `buf` in a single transport
    /// operation, returning how many landed — the greedy primitive behind
    /// the one-read-per-frame hot path ([`crate::frame::read_frame_into`]).
    /// The default implementation fills `buf` exactly.
    fn recv_some(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.recv_exact(buf)?;
        Ok(buf.len())
    }

    /// Like [`Transport::recv_some`], but a peer that closed cleanly
    /// before sending anything yields `Ok(0)` instead of an error.
    fn recv_some_or_eof(&mut self, buf: &mut [u8]) -> Result<usize> {
        if self.recv_exact_or_eof(buf)? {
            Ok(buf.len())
        } else {
            Ok(0)
        }
    }
}

/// Opens a fresh [`Transport`] per request attempt — a TCP connection in
/// production, a faulty in-memory pipe in tests.
pub trait Connector {
    /// The transport this connector produces.
    type Transport: Transport;

    /// Establishes a fresh connection.
    fn connect(&mut self) -> Result<Self::Transport>;

    /// Informs the connector that an attempt just failed with a retryable
    /// error, before the retry loop sleeps and reconnects. Routing
    /// connectors use this to fail over to the next replica (or refresh
    /// their shard map on a [`ServeError::Misrouted`] redirect); plain
    /// connectors ignore it.
    fn note_retryable_error(&mut self, _error: &ServeError) {}
}

// ---------------------------------------------------------------------------
// Real sockets
// ---------------------------------------------------------------------------

/// [`Transport`] over a `TcpStream`.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps an already-connected stream (deadlines, if any, must already
    /// be set by the caller).
    pub fn new(stream: TcpStream) -> Self {
        TcpTransport { stream }
    }

    /// Wraps a stream and installs per-connection read/write deadlines.
    pub fn with_deadlines(
        stream: TcpStream,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<Self> {
        stream
            .set_read_timeout(read)
            .map_err(|source| ServeError::Io {
                op: "set_read_timeout",
                source,
            })?;
        stream
            .set_write_timeout(write)
            .map_err(|source| ServeError::Io {
                op: "set_write_timeout",
                source,
            })?;
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream
            .write_all(bytes)
            .map_err(|source| ServeError::Io {
                op: "write",
                source,
            })
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        read_fully(&mut self.stream, buf, false).map(|_| ())
    }

    fn recv_exact_or_eof(&mut self, buf: &mut [u8]) -> Result<bool> {
        read_fully(&mut self.stream, buf, true)
    }

    fn recv_some(&mut self, buf: &mut [u8]) -> Result<usize> {
        match self.recv_some_or_eof(buf)? {
            0 => Err(ServeError::ShortRead {
                expected: buf.len(),
                got: 0,
            }),
            n => Ok(n),
        }
    }

    fn recv_some_or_eof(&mut self, buf: &mut [u8]) -> Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(source) => return Err(ServeError::Io { op: "read", source }),
            }
        }
    }
}

/// Outcome of one step of nonblocking socket I/O — the primitive the
/// polled per-core server runtime is built on. Unlike the blocking
/// [`Transport`] methods, a step distinguishes "no progress possible right
/// now" ([`IoStep::WouldBlock`]) from an actual failure, so an event loop
/// can park the connection until the next readiness notification instead
/// of erroring out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStep {
    /// `n > 0` bytes moved.
    Progress(usize),
    /// The socket cannot make progress without blocking; re-arm and wait
    /// for readiness.
    WouldBlock,
    /// The peer closed cleanly (reads only).
    Eof,
}

/// One nonblocking read into `buf`. `Interrupted` is retried; `WouldBlock`
/// is a first-class outcome, not an error.
pub fn read_step(stream: &mut TcpStream, buf: &mut [u8]) -> Result<IoStep> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Ok(IoStep::Eof),
            Ok(n) => return Ok(IoStep::Progress(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(IoStep::WouldBlock),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(source) => return Err(ServeError::Io { op: "read", source }),
        }
    }
}

/// One nonblocking write from `buf`. `Interrupted` is retried; a `0`-byte
/// write (a closed peer on some platforms) maps to an I/O error rather
/// than an infinite loop.
pub fn write_step(stream: &mut TcpStream, buf: &[u8]) -> Result<IoStep> {
    loop {
        match stream.write(buf) {
            Ok(0) => {
                return Err(ServeError::Io {
                    op: "write",
                    source: std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ),
                })
            }
            Ok(n) => return Ok(IoStep::Progress(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(IoStep::WouldBlock),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(source) => {
                return Err(ServeError::Io {
                    op: "write",
                    source,
                })
            }
        }
    }
}

/// Fills `buf` from `r`; with `eof_ok`, 0 bytes before the first read is a
/// clean EOF (`Ok(false)`), while an EOF mid-buffer is always a short read.
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8], eof_ok: bool) -> Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(ServeError::ShortRead {
                    expected: buf.len() - got,
                    got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(source) => return Err(ServeError::Io { op: "read", source }),
        }
    }
    Ok(true)
}

/// [`Connector`] establishing real TCP connections with a connect timeout
/// and per-connection read/write deadlines.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addr: std::net::SocketAddr,
    /// Timeout for establishing the connection.
    pub connect_timeout: Duration,
    /// Read deadline installed on each connection.
    pub read_timeout: Option<Duration>,
    /// Write deadline installed on each connection.
    pub write_timeout: Option<Duration>,
}

impl TcpConnector {
    /// A connector for `addr` with 1 s connect and 5 s read/write
    /// deadlines.
    pub fn new(addr: std::net::SocketAddr) -> Self {
        TcpConnector {
            addr,
            connect_timeout: Duration::from_secs(1),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
        }
    }

    /// The address this connector dials.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Connector for TcpConnector {
    type Transport = TcpTransport;

    fn connect(&mut self) -> Result<TcpTransport> {
        let stream =
            TcpStream::connect_timeout(&self.addr, self.connect_timeout).map_err(|source| {
                ServeError::Io {
                    op: "connect",
                    source,
                }
            })?;
        // Request/response over a persistent stream is the worst case for
        // Nagle + delayed-ACK: the next small request frame would sit
        // queued behind the unacked previous response. Best-effort — a
        // stack that refuses the option just keeps the default latency.
        let _ = stream.set_nodelay(true);
        TcpTransport::with_deadlines(stream, self.read_timeout, self.write_timeout)
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// What the fault injector may do to each request/response exchange.
/// Probabilities are per-opportunity; all default to zero (a perfect link).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability the connection dies before the request is delivered.
    pub drop_prob: f64,
    /// Probability the response is truncated to a strict prefix.
    pub truncate_prob: f64,
    /// Probability exactly one random bit of the response is flipped.
    pub corrupt_prob: f64,
    /// Probability a delivery is delayed by [`FaultConfig::delay`].
    pub delay_prob: f64,
    /// The injected delay duration.
    pub delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            truncate_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(1),
        }
    }
}

/// Counts of faults actually injected — lets tests assert the adverse
/// paths really ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Connections dropped before request delivery.
    pub drops: u64,
    /// Responses truncated.
    pub truncations: u64,
    /// Responses with one bit flipped.
    pub bit_flips: u64,
    /// Deliveries delayed.
    pub delays: u64,
    /// Exchanges dropped by the hard partition window.
    pub partition_drops: u64,
}

/// Seeded fault source shared by every [`FaultyTransport`] a
/// [`FaultyConnector`] hands out, so a whole session's fault schedule is
/// one deterministic stream.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    config: FaultConfig,
    counts: FaultCounts,
    step: u64,
    /// Hard network partition: every exchange before this logical step is
    /// dropped unconditionally (no RNG consumed), so chaos tests express
    /// partition-then-heal without wall-clock sleeps. 0 (the start)
    /// disables it.
    partition_until: u64,
}

impl FaultInjector {
    /// A deterministic injector: same seed and config, same fault schedule.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
            config,
            counts: FaultCounts::default(),
            step: 0,
            partition_until: 0,
        }
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// The current logical step (see [`FaultInjector::partition_until`]).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Advances the logical step clock by one.
    pub fn advance_step(&mut self) {
        self.step += 1;
    }

    /// Installs (or clears, with 0) a hard partition lasting until the
    /// step clock reaches `until`: every exchange before then is dropped
    /// without consuming the fault RNG. The clock advances only via
    /// [`FaultInjector::advance_step`].
    pub fn partition_until(&mut self, until: u64) {
        self.partition_until = until;
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_range(0.0..1.0) < p
    }

    /// Applies the fault schedule to one exchange: the request bytes go in,
    /// the (possibly mangled) response bytes come out — or `Err` when the
    /// connection was dropped.
    fn exchange(
        &mut self,
        request: &[u8],
        respond: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<Vec<u8>> {
        if self.step < self.partition_until {
            // Hard drop, before any RNG roll: the fault schedule after the
            // partition heals is identical to a run that never had one.
            self.counts.partition_drops += 1;
            return Err(ServeError::InjectedFault {
                what: "network partitioned",
            });
        }
        if self.roll(self.config.delay_prob) {
            self.counts.delays += 1;
            std::thread::sleep(self.config.delay);
        }
        if self.roll(self.config.drop_prob) {
            self.counts.drops += 1;
            return Err(ServeError::InjectedFault {
                what: "connection dropped before request delivery",
            });
        }
        let mut response = respond(request);
        if self.roll(self.config.corrupt_prob) && !response.is_empty() {
            self.counts.bit_flips += 1;
            let idx = self.rng.gen_range(0..response.len());
            let bit = self.rng.gen_range(0..8_u32);
            response[idx] ^= 1 << bit;
        }
        if self.roll(self.config.truncate_prob) && !response.is_empty() {
            self.counts.truncations += 1;
            let keep = self.rng.gen_range(0..response.len());
            response.truncate(keep);
        }
        Ok(response)
    }
}

/// Responds to a complete request frame with a complete response frame —
/// the server side of an in-memory exchange (an `Arc<ServerState>` is
/// one).
pub trait Responder {
    /// Produces the response frame for one request frame.
    fn respond(&self, request_frame: &[u8]) -> Vec<u8>;
}

/// In-memory [`Transport`] double: requests written to it are answered by a
/// [`Responder`] through a [`FaultInjector`], so drops, truncations,
/// bit-flips, and delays hit the client's real retry and checksum code
/// deterministically.
pub struct FaultyTransport<R: Responder> {
    responder: Arc<R>,
    injector: Arc<Mutex<FaultInjector>>,
    inbox: Vec<u8>,
    read_pos: usize,
}

impl<R: Responder> Transport for FaultyTransport<R> {
    fn send(&mut self, bytes: &[u8]) -> Result<()> {
        let mut injector = self
            .injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let response = injector.exchange(bytes, |req| self.responder.respond(req))?;
        self.inbox.extend_from_slice(&response);
        Ok(())
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let available = self.inbox.len() - self.read_pos;
        if available < buf.len() {
            // The truncated tail (or an empty inbox after a dead exchange)
            // reads exactly like a peer hanging up mid-frame.
            self.read_pos = self.inbox.len();
            return Err(ServeError::ShortRead {
                expected: buf.len() - available,
                got: available,
            });
        }
        buf.copy_from_slice(&self.inbox[self.read_pos..self.read_pos + buf.len()]);
        self.read_pos += buf.len();
        Ok(())
    }

    fn recv_exact_or_eof(&mut self, buf: &mut [u8]) -> Result<bool> {
        if self.read_pos == self.inbox.len() {
            return Ok(false);
        }
        self.recv_exact(buf).map(|_| true)
    }

    fn recv_some(&mut self, buf: &mut [u8]) -> Result<usize> {
        match self.recv_some_or_eof(buf)? {
            0 => Err(ServeError::ShortRead {
                expected: buf.len(),
                got: 0,
            }),
            n => Ok(n),
        }
    }

    fn recv_some_or_eof(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = (self.inbox.len() - self.read_pos).min(buf.len());
        buf[..n].copy_from_slice(&self.inbox[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

/// [`Connector`] handing out [`FaultyTransport`]s that share one seeded
/// [`FaultInjector`] and one [`Responder`].
pub struct FaultyConnector<R: Responder> {
    responder: Arc<R>,
    injector: Arc<Mutex<FaultInjector>>,
}

impl<R: Responder> FaultyConnector<R> {
    /// A connector whose transports answer via `responder` under the given
    /// seeded fault schedule.
    pub fn new(responder: R, injector: FaultInjector) -> Self {
        FaultyConnector {
            responder: Arc::new(responder),
            injector: Arc::new(Mutex::new(injector)),
        }
    }

    /// Faults injected so far across all connections.
    pub fn fault_counts(&self) -> FaultCounts {
        self.injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counts()
    }

    /// Advances the shared injector's logical step clock by one (chaos
    /// harnesses call this once per fleet round).
    pub fn advance_step(&self) {
        self.injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .advance_step();
    }

    /// The injector's current logical step.
    pub fn step(&self) -> u64 {
        self.injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .step()
    }

    /// Installs (or clears, with 0) a hard partition lasting until the
    /// shared step clock reaches `until`.
    pub fn partition_until(&self, until: u64) {
        self.injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .partition_until(until);
    }
}

impl<R: Responder> Connector for FaultyConnector<R> {
    type Transport = FaultyTransport<R>;

    fn connect(&mut self) -> Result<FaultyTransport<R>> {
        Ok(FaultyTransport {
            responder: Arc::clone(&self.responder),
            injector: Arc::clone(&self.injector),
            inbox: Vec::new(),
            read_pos: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, Message};

    /// Echoes every decoded frame back unchanged.
    struct Echo;
    impl Responder for Echo {
        fn respond(&self, request_frame: &[u8]) -> Vec<u8> {
            frame::encode(&frame::decode(request_frame).expect("well-formed request"))
        }
    }

    #[test]
    fn perfect_link_roundtrips() {
        let mut conn = FaultyConnector::new(Echo, FaultInjector::new(1, FaultConfig::default()));
        let mut t = conn.connect().unwrap();
        let msg = Message::PriorRequest { task_id: 5 };
        frame::write_frame(&mut t, &msg).unwrap();
        let (back, n) = frame::read_frame(&mut t).unwrap();
        assert_eq!(back, msg);
        assert_eq!(n, frame::prior_request_frame_len());
        assert_eq!(conn.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn faults_fire_deterministically() {
        let config = FaultConfig {
            drop_prob: 0.3,
            truncate_prob: 0.3,
            corrupt_prob: 0.3,
            ..FaultConfig::default()
        };
        let run = || {
            let mut conn = FaultyConnector::new(Echo, FaultInjector::new(99, config.clone()));
            let mut outcomes = Vec::new();
            for i in 0..50 {
                let mut t = conn.connect().unwrap();
                let msg = Message::PriorRequest { task_id: i };
                let out = frame::write_frame(&mut t, &msg).and_then(|_| frame::read_frame(&mut t));
                outcomes.push(match out {
                    Ok((m, _)) => {
                        assert_eq!(m, msg, "delivered frames must be uncorrupted");
                        "ok"
                    }
                    Err(ServeError::InjectedFault { .. }) => "drop",
                    Err(ServeError::ShortRead { .. }) => "short",
                    Err(ServeError::ChecksumMismatch { .. }) => "crc",
                    Err(ServeError::MalformedFrame { .. }) => "malformed",
                    Err(e) => panic!("unexpected error class: {e}"),
                });
            }
            (outcomes, conn.fault_counts())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b, "same seed, same fault schedule");
        assert_eq!(ca, cb);
        // The schedule actually exercised each adverse path.
        assert!(ca.drops > 0 && ca.truncations > 0 && ca.bit_flips > 0);
        assert!(a.contains(&"ok"));
    }

    #[test]
    fn partition_until_hard_drops_every_frame_then_heals() {
        let mut conn = FaultyConnector::new(Echo, FaultInjector::new(5, FaultConfig::default()));
        conn.partition_until(3);
        for step in 0..6u64 {
            assert_eq!(conn.step(), step);
            let mut t = conn.connect().unwrap();
            let out =
                frame::write_frame(&mut t, &Message::Ping).and_then(|_| frame::read_frame(&mut t));
            if step < 3 {
                assert!(
                    matches!(out, Err(ServeError::InjectedFault { what }) if what.contains("partition")),
                    "step {step} should be inside the partition"
                );
            } else {
                assert!(out.is_ok(), "step {step} should be healed");
            }
            conn.advance_step();
        }
        assert_eq!(conn.fault_counts().partition_drops, 3);

        // Re-partitioning mid-session works the same way.
        conn.partition_until(8);
        let mut t = conn.connect().unwrap();
        let out = frame::write_frame(&mut t, &Message::Ping);
        assert!(matches!(out, Err(ServeError::InjectedFault { .. })));
        conn.partition_until(0);
        let mut t = conn.connect().unwrap();
        frame::write_frame(&mut t, &Message::Ping).unwrap();
        frame::read_frame(&mut t).unwrap();
    }
}
