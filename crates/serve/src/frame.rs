//! The length-prefixed, checksummed wire protocol.
//!
//! Every message travels as one frame:
//!
//! ```text
//! len      u32 LE   body length in bytes (everything after this field)
//! ver      u8       frame version (1)
//! kind     u8       0 Ping · 1 PriorRequest · 2 PriorResponse · 3 ModelReport
//!                   · 4 Error · 5 Busy · 6 Health · 7 HealthReport
//!                   · 8 ShardMapRequest · 9 ShardMapResponse · 10 ReportAck
//! crc      u32 LE   CRC-32 (IEEE) over ver ‖ kind ‖ payload
//! payload  bytes    kind-specific
//! ```
//!
//! Payload encodings (all little-endian):
//!
//! * `Ping` — empty.
//! * `PriorRequest` — `task_id: u64`.
//! * `PriorResponse` — the existing [`dro_edge::transfer`] payload,
//!   byte-for-byte unchanged inside the frame.
//! * `ModelReport` — `task_id: u64`, `device_id: u64`, `seq: u64`,
//!   `count: u32`, `count × f64` packed parameters. The device id names
//!   the reporting edge device; `seq` is that device's monotone report
//!   sequence number, letting the server drop replays and duplicates.
//! * `Error` — `code: u8`, then UTF-8 detail text to the end of the frame.
//! * `Busy` — `retry_after_ms: u32`: the server shed this request under
//!   load; the client should back off at least that long before retrying.
//! * `Health` — empty; asks the server for a [`HealthStatus`] snapshot.
//! * `HealthReport` — `queue_depth: u32`, `in_flight: u32`, `shed: u64`,
//!   `worker_panics: u64`.
//! * `ShardMapRequest` — empty; asks any shard for the current
//!   [`ShardMapWire`].
//! * `ShardMapResponse` — `epoch: u64`, `seed: u64`, `replication: u32`,
//!   `virtual_nodes: u32`, `count: u32`, then `count ×` fixed 19-byte
//!   shard addresses (`family: u8` = 4 or 6, 16 address bytes — v4 octets
//!   zero-padded — then `port: u16`). Fixed-width addresses keep the frame
//!   length a `const fn` of the shard count.
//! * `ReportAck` — `accepted: u8` (1 accepted, 0 rejected); the
//!   acknowledgement for `ModelReport`. Rejection means the report was
//!   dropped before the inbox (replay, rate cap, or overflow shed) — a
//!   protocol-level success, not an outage, so it spends no retry budget
//!   and trips no breaker.
//!
//! Decoding checks the CRC *before* the version byte so that a corrupted
//! version byte is classified as retryable corruption, not a fatal version
//! mismatch; a genuine version-2 frame carries a valid CRC and is rejected
//! as [`ServeError::VersionMismatch`].
//!
//! Every field is read through [`dro_edge::transfer::Cursor`], the checked
//! little-endian cursor the prior decoder reads with too. A read past the
//! end fails with the message kind's own `MalformedFrame` reason, and so
//! does a payload with bytes left over, so the grammar needs no separate
//! length checks. A byte-stream reader turns a length prefix into a frame
//! length only through [`frame_len`], which enforces the one protocol cap
//! ([`MAX_FRAME_LEN`]). No byte sequence can make a decode or a read
//! panic: the cursor, [`frame_len`], [`read_frame_into`], [`decode_ref`],
//! [`decode_body_ref`], [`ParamsRef`] and the shard-address reader deny
//! `unwrap`, `expect` and slice indexing at the lint level.

use crate::crc32::Crc32;
use crate::transport::Transport;
use crate::{Result, ServeError};
use dro_edge::transfer::Cursor;

/// The single frame version this build reads and writes.
pub const FRAME_VERSION: u8 = 1;

/// Size of the length prefix.
pub const LEN_PREFIX: usize = 4;

/// Fixed body bytes before the payload: version (1) + kind (1) + crc (4).
pub const BODY_HEADER: usize = 6;

/// Total framing overhead added around a payload.
pub const FRAME_OVERHEAD: usize = LEN_PREFIX + BODY_HEADER;

/// Cap on a frame's declared body length (16 MiB) — far above any
/// realistic prior, low enough to bound a hostile peer's allocation. A
/// protocol constant: both ends of a connection enforce the same cap.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Exact wire size of a `PriorRequest` frame.
pub const fn prior_request_frame_len() -> usize {
    FRAME_OVERHEAD + 8
}

/// Exact wire size of a `PriorResponse` frame carrying a `k`-component,
/// `d`-dimensional prior — frame overhead plus the unchanged
/// [`dro_edge::transfer`] payload ([`dro_edge::transfer::encoded_len`]).
pub const fn prior_response_frame_len(k: usize, d: usize) -> usize {
    FRAME_OVERHEAD + dro_edge::transfer::encoded_len(k, d)
}

/// Exact wire size of a `ModelReport` frame for a packed `p`-parameter
/// model.
pub const fn model_report_frame_len(p: usize) -> usize {
    FRAME_OVERHEAD + 8 + 8 + 8 + 4 + 8 * p
}

/// Exact wire size of a `ReportAck` frame.
pub const fn report_ack_frame_len() -> usize {
    FRAME_OVERHEAD + 1
}

/// Exact wire size of a `Ping` frame.
pub const fn ping_frame_len() -> usize {
    FRAME_OVERHEAD
}

/// Exact wire size of a `Busy` frame.
pub const fn busy_frame_len() -> usize {
    FRAME_OVERHEAD + 4
}

/// Exact wire size of a `Health` request frame.
pub const fn health_frame_len() -> usize {
    FRAME_OVERHEAD
}

/// Exact wire size of a `HealthReport` frame.
pub const fn health_report_frame_len() -> usize {
    FRAME_OVERHEAD + 4 + 4 + 8 + 8
}

/// Bytes of one fixed-width shard address inside a `ShardMapResponse`:
/// family byte + 16 address bytes + port.
pub const SHARD_ADDR_WIRE_LEN: usize = 1 + 16 + 2;

/// Exact wire size of a `ShardMapRequest` frame.
pub const fn shard_map_request_frame_len() -> usize {
    FRAME_OVERHEAD
}

/// Exact wire size of a `ShardMapResponse` frame carrying `n` shard
/// addresses.
pub const fn shard_map_response_frame_len(n: usize) -> usize {
    FRAME_OVERHEAD + 8 + 8 + 4 + 4 + 4 + SHARD_ADDR_WIRE_LEN * n
}

/// Machine-readable reason inside a protocol `Error` message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The requested task id has no registered prior.
    UnknownTask = 1,
    /// The message kind was valid but not acceptable in this direction
    /// (e.g. the server received a `PriorResponse`).
    Unexpected = 2,
    /// The request frame failed CRC, length, or grammar checks.
    Malformed = 3,
    /// The request frame carried an unsupported version byte.
    Version = 4,
    /// The server failed internally while producing a response.
    Internal = 5,
    /// The requested task id is owned by a different shard — a redirect,
    /// not a lookup failure. The client should refresh its shard map and
    /// retry against the owner.
    Misrouted = 6,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::UnknownTask),
            2 => Some(ErrorCode::Unexpected),
            3 => Some(ErrorCode::Malformed),
            4 => Some(ErrorCode::Version),
            5 => Some(ErrorCode::Internal),
            6 => Some(ErrorCode::Misrouted),
            _ => None,
        }
    }
}

/// The shard map as carried by [`Message::ShardMapResponse`]: everything a
/// client needs to rebuild the exact consistent-hash ring the plane routes
/// with (same seed, same virtual-node count) plus the replica set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMapWire {
    /// Monotone map generation; bumped on every add/remove/rebalance.
    pub epoch: u64,
    /// Seed of the ring's stable hash.
    pub seed: u64,
    /// Replicas per task id (clamped to the shard count).
    pub replication: u32,
    /// Virtual nodes per shard on the ring.
    pub virtual_nodes: u32,
    /// Shard listen addresses, in shard-index order.
    pub shards: Vec<std::net::SocketAddr>,
}

fn write_shard_addr(out: &mut Vec<u8>, addr: &std::net::SocketAddr) {
    match addr.ip() {
        std::net::IpAddr::V4(ip) => {
            out.push(4);
            out.extend_from_slice(&ip.octets());
            out.extend_from_slice(&[0u8; 12]);
        }
        std::net::IpAddr::V6(ip) => {
            out.push(6);
            out.extend_from_slice(&ip.octets());
        }
    }
    out.extend_from_slice(&addr.port().to_le_bytes());
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
fn read_shard_addr(raw: &[u8; SHARD_ADDR_WIRE_LEN]) -> Result<std::net::SocketAddr> {
    let [family, octets @ .., lo, hi] = *raw;
    let ip = match family {
        4 => {
            let [a, b, c, d, pad @ ..] = octets;
            if pad != [0; 12] {
                return Err(ServeError::MalformedFrame {
                    reason: "ShardMapResponse v4 address padding is nonzero",
                });
            }
            std::net::IpAddr::V4(std::net::Ipv4Addr::new(a, b, c, d))
        }
        6 => std::net::IpAddr::V6(std::net::Ipv6Addr::from(octets)),
        _ => {
            return Err(ServeError::MalformedFrame {
                reason: "ShardMapResponse address family is neither 4 nor 6",
            })
        }
    };
    Ok(std::net::SocketAddr::new(ip, u16::from_le_bytes([lo, hi])))
}

/// A server health snapshot as carried by [`Message::HealthReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthStatus {
    /// Connections accepted but not yet picked up by a worker.
    pub queue_depth: u32,
    /// Requests currently being served across all workers (a `Health`
    /// request counts itself).
    pub in_flight: u32,
    /// Connections shed with a `Busy` reply since startup.
    pub shed_connections: u64,
    /// Worker panics caught (and recovered from) since startup.
    pub worker_panics: u64,
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queue_depth={} in_flight={} shed={} worker_panics={}",
            self.queue_depth, self.in_flight, self.shed_connections, self.worker_panics
        )
    }
}

/// One protocol message — the unit the client and server exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Liveness probe.
    Ping,
    /// Edge → cloud: request the prior registered under `task_id`.
    PriorRequest {
        /// Task family the device belongs to.
        task_id: u64,
    },
    /// Cloud → edge: the serialized prior, exactly the
    /// [`dro_edge::transfer`] bytes.
    PriorResponse {
        /// Opaque `dro_edge::transfer` payload.
        payload: Vec<u8>,
    },
    /// Edge → cloud: a locally fitted packed model, feeding the cloud's
    /// lifelong refit loop.
    ModelReport {
        /// Task family the device belongs to.
        task_id: u64,
        /// Identity of the reporting edge device.
        device_id: u64,
        /// The device's monotone report sequence number (starts at 1).
        seq: u64,
        /// Packed model parameters `[w…, b]`.
        params: Vec<f64>,
    },
    /// Either direction: a protocol-level failure report.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Cloud → edge: the request was shed under load. Retryable after the
    /// carried hint.
    Busy {
        /// Suggested minimum wait before the next attempt, milliseconds.
        retry_after_ms: u32,
    },
    /// Edge → cloud: request a [`Message::HealthReport`].
    Health,
    /// Cloud → edge: load and resilience gauges.
    HealthReport(HealthStatus),
    /// Edge → cloud: request the current [`Message::ShardMapResponse`].
    ShardMapRequest,
    /// Cloud → edge: the epoch-stamped shard map.
    ShardMapResponse {
        /// The routing map.
        map: ShardMapWire,
    },
    /// Cloud → edge: the acknowledgement for [`Message::ModelReport`].
    ReportAck {
        /// True when the report entered the inbox; false when it was
        /// dropped before it (replay, rate cap, or overflow shed).
        accepted: bool,
    },
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Ping => 0,
            Message::PriorRequest { .. } => 1,
            Message::PriorResponse { .. } => 2,
            Message::ModelReport { .. } => 3,
            Message::Error { .. } => 4,
            Message::Busy { .. } => 5,
            Message::Health => 6,
            Message::HealthReport(_) => 7,
            Message::ShardMapRequest => 8,
            Message::ShardMapResponse { .. } => 9,
            Message::ReportAck { .. } => 10,
        }
    }

    /// Human-readable message-kind name, used in error reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Ping => "Ping",
            Message::PriorRequest { .. } => "PriorRequest",
            Message::PriorResponse { .. } => "PriorResponse",
            Message::ModelReport { .. } => "ModelReport",
            Message::Error { .. } => "Error",
            Message::Busy { .. } => "Busy",
            Message::Health => "Health",
            Message::HealthReport(_) => "HealthReport",
            Message::ShardMapRequest => "ShardMapRequest",
            Message::ShardMapResponse { .. } => "ShardMapResponse",
            Message::ReportAck { .. } => "ReportAck",
        }
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Ping => {}
            Message::PriorRequest { task_id } => out.extend_from_slice(&task_id.to_le_bytes()),
            Message::PriorResponse { payload } => out.extend_from_slice(payload),
            Message::ModelReport {
                task_id,
                device_id,
                seq,
                params,
            } => {
                out.extend_from_slice(&task_id.to_le_bytes());
                out.extend_from_slice(&device_id.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(params.len() as u32).to_le_bytes());
                for p in params {
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
            Message::Error { code, detail } => {
                out.push(*code as u8);
                out.extend_from_slice(detail.as_bytes());
            }
            Message::Busy { retry_after_ms } => {
                out.extend_from_slice(&retry_after_ms.to_le_bytes())
            }
            Message::Health => {}
            Message::HealthReport(h) => {
                out.extend_from_slice(&h.queue_depth.to_le_bytes());
                out.extend_from_slice(&h.in_flight.to_le_bytes());
                out.extend_from_slice(&h.shed_connections.to_le_bytes());
                out.extend_from_slice(&h.worker_panics.to_le_bytes());
            }
            Message::ShardMapRequest => {}
            Message::ShardMapResponse { map } => {
                out.extend_from_slice(&map.epoch.to_le_bytes());
                out.extend_from_slice(&map.seed.to_le_bytes());
                out.extend_from_slice(&map.replication.to_le_bytes());
                out.extend_from_slice(&map.virtual_nodes.to_le_bytes());
                out.extend_from_slice(&(map.shards.len() as u32).to_le_bytes());
                for addr in &map.shards {
                    write_shard_addr(out, addr);
                }
            }
            Message::ReportAck { accepted } => out.push(u8::from(*accepted)),
        }
    }
}

/// Encodes a message into one complete frame.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(msg, &mut out);
    out
}

/// Encodes a message into `out` (cleared first), reusing its capacity:
/// once `out` has grown to the working frame size, the steady-state encode
/// path makes no allocations. Output is byte-for-byte identical to
/// [`encode`].
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; LEN_PREFIX]);
    out.push(FRAME_VERSION);
    out.push(msg.kind());
    out.extend_from_slice(&[0u8; 4]);
    msg.write_payload(out);
    finish_frame(out);
}

/// Frames an already-serialized [`dro_edge::transfer`] payload as a
/// `PriorResponse` without first copying it into a [`Message`] —
/// byte-for-byte identical to `encode(&Message::PriorResponse { .. })`.
/// This is how the server builds its pre-encoded response cache.
pub fn encode_prior_response(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&[0u8; LEN_PREFIX]);
    out.push(FRAME_VERSION);
    out.push(2); // PriorResponse kind
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(payload);
    finish_frame(&mut out);
    out
}

/// Back-patches the length prefix and CRC of a frame whose header fields
/// were left zeroed by the encode helpers above.
fn finish_frame(out: &mut [u8]) {
    let body_len = out.len() - LEN_PREFIX;
    let crc = Crc32::new()
        .update(&out[LEN_PREFIX..LEN_PREFIX + 2])
        .update(&out[FRAME_OVERHEAD..])
        .finalize();
    out[..LEN_PREFIX].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[LEN_PREFIX + 2..FRAME_OVERHEAD].copy_from_slice(&crc.to_le_bytes());
}

/// Packed model parameters still in wire form (little-endian `f64`s),
/// decoded lazily — the borrowing counterpart of the `params` vector in
/// [`Message::ModelReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamsRef<'a> {
    raw: &'a [u8],
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
impl<'a> ParamsRef<'a> {
    /// Number of packed parameters.
    pub fn len(&self) -> usize {
        self.raw.len() / 8
    }

    /// True when no parameters are carried.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Decodes the parameters in wire order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.raw
            .as_chunks::<8>()
            .0
            .iter()
            .map(|c| f64::from_le_bytes(*c))
    }

    /// Decodes all parameters into an owned vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// Borrowing view of one decoded message: the payload-carrying variants
/// reference the frame buffer instead of copying out of it, which is what
/// lets the serving hot path parse requests without allocating. The one
/// exception is the shard map, fetched once per epoch, which decodes
/// eagerly into a [`ShardMapWire`]. Produced by
/// [`decode_ref`]/[`decode_body_ref`]; [`MessageRef::to_owned`] copies into
/// a [`Message`].
#[derive(Debug, Clone, PartialEq)]
pub enum MessageRef<'a> {
    /// See [`Message::Ping`].
    Ping,
    /// See [`Message::PriorRequest`].
    PriorRequest {
        /// Task family the device belongs to.
        task_id: u64,
    },
    /// See [`Message::PriorResponse`]; the payload borrows the frame.
    PriorResponse {
        /// Opaque `dro_edge::transfer` payload, still in the frame buffer.
        payload: &'a [u8],
    },
    /// See [`Message::ModelReport`]; parameters stay packed in the frame.
    ModelReport {
        /// Task family the device belongs to.
        task_id: u64,
        /// Identity of the reporting edge device.
        device_id: u64,
        /// The device's monotone report sequence number.
        seq: u64,
        /// Packed model parameters, decoded lazily.
        params: ParamsRef<'a>,
    },
    /// See [`Message::Error`]; the detail borrows the frame.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail, still in the frame buffer.
        detail: &'a str,
    },
    /// See [`Message::Busy`].
    Busy {
        /// Suggested minimum wait before the next attempt, milliseconds.
        retry_after_ms: u32,
    },
    /// See [`Message::Health`].
    Health,
    /// See [`Message::HealthReport`].
    HealthReport(HealthStatus),
    /// See [`Message::ShardMapRequest`].
    ShardMapRequest,
    /// See [`Message::ShardMapResponse`].
    ShardMapResponse {
        /// The routing map.
        map: ShardMapWire,
    },
    /// See [`Message::ReportAck`].
    ReportAck {
        /// True when the report entered the inbox.
        accepted: bool,
    },
}

impl MessageRef<'_> {
    /// Human-readable message-kind name, used in error reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MessageRef::Ping => "Ping",
            MessageRef::PriorRequest { .. } => "PriorRequest",
            MessageRef::PriorResponse { .. } => "PriorResponse",
            MessageRef::ModelReport { .. } => "ModelReport",
            MessageRef::Error { .. } => "Error",
            MessageRef::Busy { .. } => "Busy",
            MessageRef::Health => "Health",
            MessageRef::HealthReport(_) => "HealthReport",
            MessageRef::ShardMapRequest => "ShardMapRequest",
            MessageRef::ShardMapResponse { .. } => "ShardMapResponse",
            MessageRef::ReportAck { .. } => "ReportAck",
        }
    }

    /// Copies the borrowed view into an owned [`Message`].
    pub fn to_owned(self) -> Message {
        match self {
            MessageRef::Ping => Message::Ping,
            MessageRef::PriorRequest { task_id } => Message::PriorRequest { task_id },
            MessageRef::PriorResponse { payload } => Message::PriorResponse {
                payload: payload.to_vec(),
            },
            MessageRef::ModelReport {
                task_id,
                device_id,
                seq,
                params,
            } => Message::ModelReport {
                task_id,
                device_id,
                seq,
                params: params.to_vec(),
            },
            MessageRef::Error { code, detail } => Message::Error {
                code,
                detail: detail.to_string(),
            },
            MessageRef::Busy { retry_after_ms } => Message::Busy { retry_after_ms },
            MessageRef::Health => Message::Health,
            MessageRef::HealthReport(h) => Message::HealthReport(h),
            MessageRef::ShardMapRequest => Message::ShardMapRequest,
            MessageRef::ShardMapResponse { map } => Message::ShardMapResponse { map },
            MessageRef::ReportAck { accepted } => Message::ReportAck { accepted },
        }
    }
}

/// Decodes one complete frame from a buffer, requiring exact consumption:
/// a length prefix that disagrees with the buffer size is an error, so a
/// corrupted length byte can never be silently accepted. The prefix is
/// read through [`frame_len`], so a frame past [`MAX_FRAME_LEN`], which no
/// reader accepts off the wire, is refused here the same way.
pub fn decode(bytes: &[u8]) -> Result<Message> {
    decode_ref(bytes).map(MessageRef::to_owned)
}

/// Borrowing [`decode`]: identical checks and error classes, but the
/// payload-carrying variants reference `bytes` instead of copying — this
/// is the request-parsing path the server hot loop runs.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn decode_ref(bytes: &[u8]) -> Result<MessageRef<'_>> {
    let Some(body) = bytes
        .get(LEN_PREFIX..)
        .filter(|body| body.len() >= BODY_HEADER)
    else {
        return Err(ServeError::MalformedFrame {
            reason: "buffer shorter than the fixed frame overhead",
        });
    };
    if !matches!(frame_len(bytes), Ok(Some(total)) if total == bytes.len()) {
        return Err(ServeError::MalformedFrame {
            reason: "length prefix disagrees with the frame size",
        });
    }
    decode_body_ref(body)
}

/// The total wire length of the frame at the front of `buf`, read from
/// its length prefix: `None` until all [`LEN_PREFIX`] prefix bytes are
/// buffered, then `LEN_PREFIX` plus the declared body length, or
/// [`ServeError::FrameTooLarge`] for a body past [`MAX_FRAME_LEN`]. The
/// one place a length prefix becomes a length; each byte-stream reader
/// reacts to a declared body shorter than [`BODY_HEADER`] in its own way.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>> {
    let Some((prefix, _)) = buf.split_first_chunk::<LEN_PREFIX>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    Ok(Some(LEN_PREFIX + len))
}

/// Parses a frame body (everything after the length prefix): CRC first,
/// then version, then grammar. This is the single decode grammar — the
/// owned [`decode`] copies out of the view this returns. Pairs with
/// [`read_frame_into`] for an allocation-free read path.
///
/// Every field is read through one checked [`Cursor`] per payload, created
/// with the reason a short payload is rejected for; where a later field
/// has its own reason (a count that disagrees with the bytes behind it),
/// the cursor's reason is switched before that read. A payload with bytes
/// left over fails [`Cursor::done`] with the same reason as one cut short,
/// so each kind keeps exactly one reason per length rule.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn decode_body_ref(body: &[u8]) -> Result<MessageRef<'_>> {
    let mut header = Cursor::new(body, "frame body shorter than its fixed header");
    let [ver, kind] = header.take()?;
    let carried = header.u32()?;
    let payload = header.rest();
    let computed = Crc32::new().update(&[ver, kind]).update(payload).finalize();
    if computed != carried {
        return Err(ServeError::ChecksumMismatch {
            expected: carried,
            computed,
        });
    }
    if ver != FRAME_VERSION {
        return Err(ServeError::VersionMismatch {
            found: ver,
            supported: FRAME_VERSION,
        });
    }
    let empty = |reason| Cursor::new(payload, reason).done();
    match kind {
        0 => {
            empty("Ping carries a payload")?;
            Ok(MessageRef::Ping)
        }
        1 => {
            let mut c = Cursor::new(payload, "PriorRequest payload is not exactly a u64 task id");
            let task_id = c.u64()?;
            c.done()?;
            Ok(MessageRef::PriorRequest { task_id })
        }
        2 => Ok(MessageRef::PriorResponse { payload }),
        3 => {
            let mut c = Cursor::new(payload, "ModelReport payload shorter than its header");
            let task_id = c.u64()?;
            let device_id = c.u64()?;
            let seq = c.u64()?;
            let count = c.u32()? as usize;
            c.set_reason("ModelReport parameter count disagrees with its length");
            let raw = c.bytes(count.saturating_mul(8))?;
            c.done()?;
            if seq == 0 {
                return Err(ServeError::MalformedFrame {
                    reason: "ModelReport sequence numbers start at 1",
                });
            }
            Ok(MessageRef::ModelReport {
                task_id,
                device_id,
                seq,
                params: ParamsRef { raw },
            })
        }
        4 => {
            let mut c = Cursor::new(payload, "Error payload is missing its code byte");
            let code = ErrorCode::from_u8(c.u8()?).ok_or(ServeError::MalformedFrame {
                reason: "Error payload carries an unknown code",
            })?;
            let detail = std::str::from_utf8(c.rest()).map_err(|_| ServeError::MalformedFrame {
                reason: "Error detail is not valid UTF-8",
            })?;
            Ok(MessageRef::Error { code, detail })
        }
        5 => {
            let mut c = Cursor::new(payload, "Busy payload is not exactly a u32 retry hint");
            let retry_after_ms = c.u32()?;
            c.done()?;
            Ok(MessageRef::Busy { retry_after_ms })
        }
        6 => {
            empty("Health carries a payload")?;
            Ok(MessageRef::Health)
        }
        7 => {
            let mut c = Cursor::new(payload, "HealthReport payload is not exactly 24 bytes");
            let health = HealthStatus {
                queue_depth: c.u32()?,
                in_flight: c.u32()?,
                shed_connections: c.u64()?,
                worker_panics: c.u64()?,
            };
            c.done()?;
            Ok(MessageRef::HealthReport(health))
        }
        8 => {
            empty("ShardMapRequest carries a payload")?;
            Ok(MessageRef::ShardMapRequest)
        }
        9 => {
            let mut c = Cursor::new(payload, "ShardMapResponse payload shorter than its header");
            let epoch = c.u64()?;
            let seed = c.u64()?;
            let replication = c.u32()?;
            let virtual_nodes = c.u32()?;
            let count = c.u32()? as usize;
            c.set_reason("ShardMapResponse shard count disagrees with its length");
            let raw = c.bytes(count.saturating_mul(SHARD_ADDR_WIRE_LEN))?;
            c.done()?;
            if replication == 0 || virtual_nodes == 0 {
                return Err(ServeError::MalformedFrame {
                    reason: "ShardMapResponse replication and virtual_nodes must be nonzero",
                });
            }
            let shards = raw
                .as_chunks::<SHARD_ADDR_WIRE_LEN>()
                .0
                .iter()
                .map(read_shard_addr)
                .collect::<Result<_>>()?;
            Ok(MessageRef::ShardMapResponse {
                map: ShardMapWire {
                    epoch,
                    seed,
                    replication,
                    virtual_nodes,
                    shards,
                },
            })
        }
        10 => {
            let mut c = Cursor::new(payload, "ReportAck payload is not exactly a status byte");
            let status = c.u8()?;
            c.done()?;
            match status {
                0 => Ok(MessageRef::ReportAck { accepted: false }),
                1 => Ok(MessageRef::ReportAck { accepted: true }),
                _ => Err(ServeError::MalformedFrame {
                    reason: "ReportAck status byte is neither 0 nor 1",
                }),
            }
        }
        _ => Err(ServeError::MalformedFrame {
            reason: "unknown message kind",
        }),
    }
}

/// Writes one frame to a transport; returns the bytes written.
pub fn write_frame<T: Transport + ?Sized>(t: &mut T, msg: &Message) -> Result<usize> {
    let bytes = encode(msg);
    t.send(&bytes)?;
    Ok(bytes.len())
}

/// Reads one frame from a transport; returns the message and its total
/// wire size. Errors with [`ServeError::ShortRead`] if the stream ends
/// mid-frame. The owned convenience over [`read_frame_into`]: a fresh
/// buffer makes its first read at most one minimal frame long, so it never
/// reads past the frame even when the peer has pipelined more.
pub fn read_frame<T: Transport + ?Sized>(t: &mut T) -> Result<(Message, usize)> {
    let mut buf = Vec::new();
    let wire = read_frame_into(t, &mut buf)?;
    Ok((decode(&buf)?, wire))
}

/// Reads one whole frame from a transport into `buf` (cleared and reused):
/// length prefix at `buf[..LEN_PREFIX]`, body at `buf[LEN_PREFIX..]`;
/// returns the total wire size. The first read is greedy — in steady state
/// the prefix and the whole body arrive in a single transport read (one
/// syscall on TCP), and the read path stops allocating once `buf` has
/// grown to the working frame size. Greedy is safe because the protocol
/// is strictly request/response: the peer never has a second frame in
/// flight behind the one being read (extra bytes are rejected as
/// malformed). Callers parse with [`decode_body_ref`] on
/// `buf[LEN_PREFIX..]`.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub fn read_frame_into<T: Transport + ?Sized>(t: &mut T, buf: &mut Vec<u8>) -> Result<usize> {
    let guess = buf
        .capacity()
        .clamp(FRAME_OVERHEAD, LEN_PREFIX + MAX_FRAME_LEN);
    // Grow-only: every byte up to `total` is overwritten by the reads
    // below and the buffer is cut to `total` before the body is read, so
    // re-zeroing retained capacity would only add a memset per request.
    if buf.len() < guess {
        buf.resize(guess, 0);
    }
    let mut got = 0;
    let total = loop {
        let (filled, free) = buf.split_at_mut(got);
        if let Some(total) = frame_len(filled)? {
            break total;
        }
        got += t.recv_some(free)?;
    };
    if total < FRAME_OVERHEAD {
        return Err(ServeError::MalformedFrame {
            reason: "declared frame body shorter than its fixed header",
        });
    }
    if got > total {
        return Err(ServeError::MalformedFrame {
            reason: "peer sent bytes past the end of the frame",
        });
    }
    buf.resize(total, 0);
    while got < total {
        got += t.recv_some(buf.split_at_mut(got).1)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Ping,
            Message::PriorRequest { task_id: 42 },
            Message::PriorResponse {
                payload: vec![1, 2, 3, 4, 5],
            },
            Message::ModelReport {
                task_id: 7,
                device_id: 31,
                seq: 2,
                params: vec![0.5, -1.25, 3.0],
            },
            Message::Error {
                code: ErrorCode::UnknownTask,
                detail: "task 9 has no prior".into(),
            },
            Message::Busy {
                retry_after_ms: 250,
            },
            Message::Health,
            Message::HealthReport(HealthStatus {
                queue_depth: 3,
                in_flight: 2,
                shed_connections: 11,
                worker_panics: 1,
            }),
            Message::ShardMapRequest,
            Message::ShardMapResponse {
                map: ShardMapWire {
                    epoch: 5,
                    seed: 7_400,
                    replication: 2,
                    virtual_nodes: 16,
                    shards: vec![
                        "127.0.0.1:9001".parse().unwrap(),
                        "[::1]:9002".parse().unwrap(),
                    ],
                },
            },
            Message::ReportAck { accepted: true },
            Message::ReportAck { accepted: false },
        ]
    }

    #[test]
    fn roundtrip_every_kind() {
        for msg in all_messages() {
            let bytes = encode(&msg);
            assert_eq!(decode(&bytes).unwrap(), msg, "{}", msg.kind_name());
        }
    }

    #[test]
    fn frame_len_helpers_match_the_encoder() {
        assert_eq!(encode(&Message::Ping).len(), ping_frame_len());
        assert_eq!(
            encode(&Message::PriorRequest { task_id: 1 }).len(),
            prior_request_frame_len()
        );
        assert_eq!(
            encode(&Message::ModelReport {
                task_id: 1,
                device_id: 2,
                seq: 1,
                params: vec![0.0; 9],
            })
            .len(),
            model_report_frame_len(9)
        );
        assert_eq!(
            encode(&Message::ReportAck { accepted: false }).len(),
            report_ack_frame_len()
        );
        // PriorResponse length = overhead + transfer payload, unchanged.
        let payload = vec![0xAB; dro_edge::transfer::encoded_len(3, 4)];
        assert_eq!(
            encode(&Message::PriorResponse { payload }).len(),
            prior_response_frame_len(3, 4)
        );
        assert_eq!(
            encode(&Message::Busy { retry_after_ms: 5 }).len(),
            busy_frame_len()
        );
        assert_eq!(encode(&Message::Health).len(), health_frame_len());
        assert_eq!(
            encode(&Message::HealthReport(HealthStatus::default())).len(),
            health_report_frame_len()
        );
        assert_eq!(
            encode(&Message::ShardMapRequest).len(),
            shard_map_request_frame_len()
        );
        for n in [0usize, 1, 4] {
            let map = ShardMapWire {
                epoch: 1,
                seed: 2,
                replication: 1,
                virtual_nodes: 8,
                shards: (0..n)
                    .map(|i| format!("10.0.0.{}:70{i:02}", i + 1).parse().unwrap())
                    .collect(),
            };
            assert_eq!(
                encode(&Message::ShardMapResponse { map }).len(),
                shard_map_response_frame_len(n),
                "shard map frame length for {n} shard(s)"
            );
        }
    }

    #[test]
    fn frame_len_reads_the_prefix_and_enforces_the_cap() {
        let prefixed = |body: u32| body.to_le_bytes();
        // Nothing to say until all four prefix bytes are buffered.
        let full = prefixed(6);
        for n in 0..LEN_PREFIX {
            assert!(matches!(frame_len(&full[..n]), Ok(None)), "{n} bytes");
        }
        // Bytes behind the prefix do not change the answer.
        assert!(matches!(frame_len(&[6, 0, 0, 0, 0xAA]), Ok(Some(10))));
        // Short declared bodies are lengths like any other: each reader
        // rejects them in its own way.
        for body in [0u32, 5, 6] {
            assert!(
                matches!(frame_len(&prefixed(body)), Ok(Some(t)) if t == LEN_PREFIX + body as usize),
                "body {body}"
            );
        }
        let cap = MAX_FRAME_LEN as u32;
        assert!(matches!(
            frame_len(&prefixed(cap)),
            Ok(Some(t)) if t == LEN_PREFIX + MAX_FRAME_LEN
        ));
        for body in [cap + 1, u32::MAX] {
            assert!(
                matches!(
                    frame_len(&prefixed(body)),
                    Err(ServeError::FrameTooLarge { len, max: MAX_FRAME_LEN }) if len == body as usize
                ),
                "body {body}"
            );
        }
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let bytes = encode(&Message::PriorRequest { task_id: 99 });
        // Payload corruption → checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            decode(&bad),
            Err(ServeError::ChecksumMismatch { .. })
        ));
        // Length-prefix corruption → malformed (exact-consumption check).
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            decode(&bad),
            Err(ServeError::MalformedFrame { .. })
        ));
        // CRC-field corruption → checksum mismatch.
        let mut bad = bytes.clone();
        bad[6] ^= 0xFF;
        assert!(matches!(
            decode(&bad),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_needs_a_valid_crc() {
        // A frame legitimately produced at version 2 (CRC computed over the
        // new version byte) is a fatal version mismatch…
        let msg = Message::Ping;
        let mut bytes = encode(&msg);
        bytes[4] = 2;
        let crc = Crc32::new().update(&[2, 0]).finalize();
        bytes[6..10].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(ServeError::VersionMismatch { found: 2, .. })
        ));
        // …while a *corrupted* version byte (stale CRC) reads as transient
        // corruption, which is retryable.
        let mut corrupted = encode(&msg);
        corrupted[4] = 2;
        let err = decode(&corrupted).unwrap_err();
        assert!(matches!(err, ServeError::ChecksumMismatch { .. }));
        assert!(err.is_retryable());
    }

    #[test]
    fn grammar_violations_are_malformed() {
        // Ping with payload.
        let mut body = vec![FRAME_VERSION, 0, 0, 0, 0, 0, 9];
        let crc = Crc32::new()
            .update(&[FRAME_VERSION, 0])
            .update(&[9])
            .finalize();
        body[2..6].copy_from_slice(&crc.to_le_bytes());
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        assert!(matches!(
            decode(&framed),
            Err(ServeError::MalformedFrame { .. })
        ));
        // Unknown kind (valid CRC).
        let mut body = vec![FRAME_VERSION, 77, 0, 0, 0, 0];
        let crc = Crc32::new().update(&[FRAME_VERSION, 77]).finalize();
        body[2..6].copy_from_slice(&crc.to_le_bytes());
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        assert!(matches!(
            decode(&framed),
            Err(ServeError::MalformedFrame { .. })
        ));
        // Truncated buffer.
        assert!(matches!(
            decode(&encode(&Message::Ping)[..5]),
            Err(ServeError::MalformedFrame { .. })
        ));
        // Busy with a short hint, Health with a payload, HealthReport with
        // a truncated payload, ShardMapRequest with a payload, and
        // ShardMapResponse frames that are truncated, count-inconsistent,
        // zero-replication, bad-family, or pad-dirty — all grammar
        // violations with a valid CRC.
        let map_header = |rep: u32, vnodes: u32, count: u32| -> Vec<u8> {
            let mut p = Vec::new();
            p.extend_from_slice(&1u64.to_le_bytes());
            p.extend_from_slice(&2u64.to_le_bytes());
            p.extend_from_slice(&rep.to_le_bytes());
            p.extend_from_slice(&vnodes.to_le_bytes());
            p.extend_from_slice(&count.to_le_bytes());
            p
        };
        let good_addr = |family: u8, pad: u8| -> Vec<u8> {
            let mut a = vec![family, 127, 0, 0, 1];
            a.extend_from_slice(&[pad; 12]);
            a.extend_from_slice(&9001u16.to_le_bytes());
            a
        };
        let mut count_mismatch = map_header(1, 8, 2);
        count_mismatch.extend_from_slice(&good_addr(4, 0));
        let mut zero_rep = map_header(0, 8, 1);
        zero_rep.extend_from_slice(&good_addr(4, 0));
        let mut bad_family = map_header(1, 8, 1);
        bad_family.extend_from_slice(&good_addr(9, 0));
        let mut dirty_pad = map_header(1, 8, 1);
        dirty_pad.extend_from_slice(&good_addr(4, 0xAA));
        // ModelReport with a full header but seq = 0 (sequence numbers
        // start at 1), and one cut a byte short of its header.
        let report_zero_seq = vec![0u8; 28];
        let report_short = vec![0u8; 27];
        for (kind, payload) in [
            (3u8, report_zero_seq),
            (3, report_short),
            (5, vec![1u8, 2]),
            (6, vec![9]),
            (7, vec![0; 23]),
            (8, vec![1]),
            (9, vec![0; 27]),
            (9, count_mismatch),
            (9, zero_rep),
            (9, bad_family),
            (9, dirty_pad),
            (10, vec![2]),
            (10, vec![1, 1]),
            (10, vec![]),
        ] {
            let mut body = vec![FRAME_VERSION, kind, 0, 0, 0, 0];
            body.extend_from_slice(&payload);
            let crc = Crc32::new()
                .update(&[FRAME_VERSION, kind])
                .update(&payload)
                .finalize();
            body[2..6].copy_from_slice(&crc.to_le_bytes());
            let mut framed = (body.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&body);
            assert!(
                matches!(decode(&framed), Err(ServeError::MalformedFrame { .. })),
                "kind {kind} grammar violation slipped through"
            );
        }
    }
}
