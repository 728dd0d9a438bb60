//! Byte-stream tests of the polled server over real loopback TCP.
//!
//! * **Split and coalesce.** One pipelined request sequence is delivered
//!   over one keep-alive connection whole, split at every byte boundary,
//!   one byte per write, and in seeded random groupings. However the bytes
//!   arrive, the replies must be byte-identical.
//! * **Garbage stream.** Seeded random length prefixes, kinds and payloads
//!   on one connection are each answered without a handler panic, an
//!   over-cap length prefix gets a `Malformed` error and a hang-up, and the
//!   published prior is untouched: a clean client still gets a cache hit.

use std::net::TcpStream;
use std::time::Duration;

use dre_serve::frame::{self, ErrorCode, Message};
use dre_serve::{
    Crc32, PriorClient, PriorServer, RetryPolicy, ServeConfig, TcpConnector, TcpTransport,
    Transport,
};

const TASK_ID: u64 = 1;

/// SplitMix64 step: the tests' only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn connect(server: &dre_serve::ServerHandle) -> TcpTransport {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    TcpTransport::with_deadlines(
        stream,
        Some(Duration::from_secs(5)),
        Some(Duration::from_secs(5)),
    )
    .unwrap()
}

/// Reads one whole reply frame, raw.
fn read_raw_frame(t: &mut TcpTransport) -> Vec<u8> {
    let mut out = vec![0u8; frame::LEN_PREFIX];
    t.recv_exact(&mut out).unwrap();
    out.resize(frame::frame_len(&out).unwrap().unwrap(), 0);
    t.recv_exact(&mut out[frame::LEN_PREFIX..]).unwrap();
    out
}

/// The pipelined request sequence: Ping, a prior hit, a prior miss, a
/// model report from `device_id`, and a shard-map request (unexpected on
/// an unsharded server).
fn requests(device_id: u64) -> Vec<u8> {
    [
        Message::Ping,
        Message::PriorRequest { task_id: TASK_ID },
        Message::PriorRequest { task_id: 404 },
        Message::ModelReport {
            task_id: TASK_ID,
            device_id,
            seq: 1,
            params: vec![0.5, -1.25, 3.0],
        },
        Message::ShardMapRequest,
    ]
    .iter()
    .flat_map(frame::encode)
    .collect()
}

/// Sends `pieces` as separate writes (pausing between them so the server
/// reads them apart), then reads the five replies.
fn deliver(t: &mut TcpTransport, pieces: &[&[u8]]) -> Vec<u8> {
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        t.send(piece).unwrap();
    }
    (0..5).flat_map(|_| read_raw_frame(t)).collect()
}

#[test]
fn split_and_coalesced_deliveries_get_byte_identical_replies() {
    let config = ServeConfig {
        workers: 1,
        max_requests_per_conn: usize::MAX,
        ..ServeConfig::default()
    };
    let server = PriorServer::bind("127.0.0.1:0", config).unwrap();
    server
        .state()
        .register_payload(TASK_ID, vec![7, 1, 2, 3, 5, 8]);
    let mut t = connect(&server);
    // A fresh device id per delivery, so every report is accepted.
    let mut device_id = 100u64;
    let mut next = || {
        device_id += 1;
        requests(device_id)
    };

    let whole = next();
    let reference = deliver(&mut t, &[&whole]);
    let mut cursor = &reference[..];
    let mut replies = Vec::new();
    while !cursor.is_empty() {
        let len = frame::frame_len(cursor).unwrap().unwrap();
        replies.push(frame::decode(&cursor[..len]).unwrap());
        cursor = &cursor[len..];
    }
    assert_eq!(replies.len(), 5);
    assert_eq!(replies[0], Message::Ping);
    assert_eq!(
        replies[1],
        Message::PriorResponse {
            payload: vec![7, 1, 2, 3, 5, 8]
        }
    );
    assert!(matches!(
        replies[2],
        Message::Error {
            code: ErrorCode::UnknownTask,
            ..
        }
    ));
    assert_eq!(replies[3], Message::ReportAck { accepted: true });
    assert!(matches!(
        replies[4],
        Message::Error {
            code: ErrorCode::Unexpected,
            ..
        }
    ));

    // Split in two at every byte boundary.
    for k in 1..whole.len() {
        let bytes = next();
        let (a, b) = bytes.split_at(k);
        assert_eq!(deliver(&mut t, &[a, b]), reference, "split at byte {k}");
    }
    // One byte per write.
    let bytes = next();
    let singles: Vec<&[u8]> = bytes.chunks(1).collect();
    assert_eq!(deliver(&mut t, &singles), reference, "byte at a time");
    // Seeded random groupings.
    let mut rng = 0xb17e_5eedu64;
    for seed in 0..24 {
        let bytes = next();
        let mut pieces = Vec::new();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let n = 1 + (splitmix(&mut rng) as usize) % rest.len().min(40);
            let (piece, tail) = rest.split_at(n);
            pieces.push(piece);
            rest = tail;
        }
        assert_eq!(deliver(&mut t, &pieces), reference, "grouping {seed}");
    }

    let m = server.metrics();
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.connections, 1, "every delivery rode one connection");
    assert_eq!(server.take_reports().len(), 1 + (whole.len() - 1) + 1 + 24);
}

/// One garbage frame: a random length prefix of at most `max_body` bytes
/// and that many random body bytes. Every other frame gets a correct CRC,
/// so the per-kind grammar checks are reached, not only the checksum.
fn garbage_frame(rng: &mut u64, max_body: usize) -> Vec<u8> {
    let len = (splitmix(rng) as usize) % (max_body + 1);
    let mut body: Vec<u8> = (0..len).map(|_| splitmix(rng) as u8).collect();
    if len >= 6 && splitmix(rng).is_multiple_of(2) {
        body[0] = frame::FRAME_VERSION;
        body[1] = (splitmix(rng) % 13) as u8;
        let crc = Crc32::new()
            .update(&body[..2])
            .update(&body[6..])
            .finalize();
        body[2..6].copy_from_slice(&crc.to_le_bytes());
    }
    let mut out = (len as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&body);
    out
}

#[test]
fn garbage_streams_are_answered_without_a_panic_and_leave_the_cache_alone() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = PriorServer::bind("127.0.0.1:0", config).unwrap();
    server.state().register_payload(TASK_ID, vec![4, 2, 4, 2]);
    let generation = server.state().cache_generation();

    let mut rng = 0x6a7b_a9e5u64;
    for stream in 0..4 {
        let mut t = connect(&server);
        let frames: Vec<Vec<u8>> = (0..200).map(|_| garbage_frame(&mut rng, 96)).collect();
        let bytes: Vec<u8> = frames.concat();
        // Random write sizes, so frames straddle reads.
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let n = 1 + (splitmix(&mut rng) as usize) % rest.len().min(700);
            let (piece, tail) = rest.split_at(n);
            t.send(piece).unwrap();
            rest = tail;
        }
        // Every frame is answered with a decodable reply.
        for i in 0..frames.len() {
            let (reply, _) = frame::read_frame(&mut t)
                .unwrap_or_else(|e| panic!("stream {stream}, frame {i}: {e}"));
            assert!(
                !matches!(reply, Message::Busy { .. }),
                "stream {stream}, frame {i}: shed"
            );
        }
        // An over-cap length prefix is refused and the connection closed.
        let cap = frame::MAX_FRAME_LEN as u32;
        let over = cap + 1 + (splitmix(&mut rng) as u32) % (u32::MAX - cap);
        t.send(&over.to_le_bytes()).unwrap();
        let (reply, _) = frame::read_frame(&mut t).unwrap();
        assert!(
            matches!(
                reply,
                Message::Error {
                    code: ErrorCode::Malformed,
                    ..
                }
            ),
            "stream {stream}: over-cap prefix got {reply:?}"
        );
        let mut probe = [0u8; 1];
        assert!(
            !t.recv_exact_or_eof(&mut probe).unwrap_or(false),
            "stream {stream}: the server must hang up after an over-cap prefix"
        );
    }

    let m = server.metrics();
    assert_eq!(m.worker_panics, 0, "no garbage frame may panic a handler");
    assert_eq!(server.state().cache_generation(), generation);
    let hits = m.prior_cache_hits;
    let mut client = PriorClient::new(TcpConnector::new(server.addr()), RetryPolicy::default());
    assert_eq!(
        client.fetch_prior_payload(TASK_ID).unwrap(),
        vec![4, 2, 4, 2]
    );
    assert_eq!(server.metrics().prior_cache_hits, hits + 1);
}
