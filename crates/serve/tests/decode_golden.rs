//! Golden digest of the decoder and the request handler over hostile bytes.
//!
//! A fixed, seeded corpus is built from one valid frame of every message
//! kind: every truncation (raw, and with the length prefix and CRC re-fixed
//! so the per-kind grammar checks are reached), one to three appended bytes
//! (re-fixed), every kind byte (re-fixed), and seeded single-byte mutations
//! at every position (raw, and re-fixed). Each frame goes through
//! `frame::decode` (its `Debug` output is hashed, so every error variant and
//! reason string counts) and through `ServerState::respond_bytes` on an
//! unsharded and a sharded server (reply bytes are hashed). The final
//! deterministic counters and the drained report inboxes are hashed too.
//!
//! The pinned digest changes only when a reason string, a reply byte, a
//! counter or an admitted report changes. A refactor of the decoder or the
//! handler that is meant to change none of these must leave it equal; a
//! change that is meant to alter them re-pins it and says why.

use dre_serve::frame::{self, ErrorCode, HealthStatus, Message, ShardMapWire};
use dre_serve::{Crc32, ServerState, ShardMap, FRAME_OVERHEAD};

/// FNV-1a, 64-bit: a fixed, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Length-delimit each record so concatenations cannot collide.
        for b in (bytes.len() as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// SplitMix64 step: the corpus's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One valid frame of every kind the protocol knows.
fn base_frames() -> Vec<Vec<u8>> {
    let prior_payload: Vec<u8> = {
        // A 2-component, 2-dimensional transfer payload, built by hand so
        // the corpus does not depend on the prior encoder.
        let mut p = Vec::new();
        p.extend_from_slice(&0x4452_4F45u32.to_le_bytes());
        p.push(1);
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(&2u32.to_le_bytes());
        for (w, m) in [(0.25f64, [1.0f64, -1.0]), (0.75, [-2.0, 0.5])] {
            p.extend_from_slice(&w.to_le_bytes());
            for v in m {
                p.extend_from_slice(&v.to_le_bytes());
            }
            for v in [1.0f64, 0.1, 2.0] {
                p.extend_from_slice(&v.to_le_bytes());
            }
        }
        p
    };
    [
        Message::Ping,
        Message::PriorRequest { task_id: 7 },
        Message::PriorResponse {
            payload: prior_payload,
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
    ]
    .iter()
    .map(frame::encode)
    .collect()
}

/// Frames a body (version, kind, crc slot, payload) with a correct length
/// prefix and CRC.
fn refix(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    if body.len() >= 6 {
        let crc = Crc32::new()
            .update(&body[..2])
            .update(&body[6..])
            .finalize();
        out[6..10].copy_from_slice(&crc.to_le_bytes());
    }
    out
}

/// The whole seeded corpus, in a fixed order.
fn corpus() -> Vec<Vec<u8>> {
    let mut rng = 0x5eed_0021u64;
    let mut out = Vec::new();
    for f in base_frames() {
        let body = &f[4..];
        out.push(f.clone());
        for n in 0..f.len() {
            out.push(f[..n].to_vec());
        }
        for n in 0..body.len() {
            out.push(refix(&body[..n]));
        }
        for extra in 1..=3 {
            let mut b = body.to_vec();
            for _ in 0..extra {
                b.push(splitmix(&mut rng) as u8);
            }
            out.push(refix(&b));
        }
        for kind in 0..=255u8 {
            let mut b = body.to_vec();
            b[1] = kind;
            out.push(refix(&b));
        }
        for i in 0..f.len() {
            for _ in 0..64 {
                let mask = (splitmix(&mut rng) as u8).max(1);
                let mut raw = f.clone();
                raw[i] ^= mask;
                out.push(raw.clone());
                if i >= 4 {
                    out.push(refix(&raw[4..]));
                }
            }
        }
    }
    out
}

/// An unsharded server with a prior for tasks 0..8.
fn plain_state() -> ServerState {
    let state = ServerState::new();
    for task in 0..8u64 {
        state.register_payload(task, vec![task as u8; 3 + task as usize]);
    }
    state
}

/// Shard 0 of a two-shard plane, owning only part of tasks 0..8.
fn routed_state() -> ServerState {
    let state = plain_state();
    let map = ShardMap::new(ShardMapWire {
        epoch: 3,
        seed: 99,
        replication: 1,
        virtual_nodes: 8,
        shards: vec![
            "127.0.0.1:7001".parse().unwrap(),
            "127.0.0.1:7002".parse().unwrap(),
        ],
    });
    state.install_shard_route(map, 0);
    state
}

/// The pinned digest: decode results, reply bytes, counters and inboxes.
const GOLDEN: u64 = 0xb98f_d154_656e_f2e6;

#[test]
fn decode_and_reply_digest_is_pinned() {
    let corpus = corpus();
    assert!(corpus.len() > 50_000, "corpus has {} frames", corpus.len());
    assert!(corpus.iter().all(|f| f.len() < FRAME_OVERHEAD + 256));
    let plain = plain_state();
    let routed = routed_state();
    let mut h = Fnv::new();
    for f in &corpus {
        h.bytes(format!("{:?}", frame::decode(f)).as_bytes());
        h.bytes(&plain.respond_bytes(f));
        h.bytes(&routed.respond_bytes(f));
    }
    for state in [&plain, &routed] {
        for (_, c) in state.metrics().deterministic_counters() {
            h.bytes(&c.to_le_bytes());
        }
        h.bytes(format!("{:?}", state.take_reports()).as_bytes());
    }
    assert_eq!(
        h.0,
        GOLDEN,
        "decode/reply digest moved: got {:#018x} over {} frames",
        h.0,
        corpus.len()
    );
}
