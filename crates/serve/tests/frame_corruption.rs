//! Property test: no single-byte corruption of a framed prior survives.
//!
//! Random `MixturePrior`s go through the full pipeline — transfer encode →
//! frame encode — and then every byte position of the frame is corrupted in
//! turn. The decoder must reject each corrupted frame (CRC or length
//! check); the uncorrupted frame must round-trip to the original prior.
//! CRC-32 detects all error bursts up to 32 bits, so this holds for *every*
//! position and *every* flip pattern, not just the sampled ones.

use dre_bayes::MixturePrior;
use dre_linalg::Matrix;
use dre_serve::frame::{self, Message};
use dre_serve::ServeError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A valid random prior: positive weights, bounded means, SPD covariances.
fn random_prior(k: usize, d: usize, seed: u64) -> MixturePrior {
    let mut rng = StdRng::seed_from_u64(seed);
    let components = (0..k)
        .map(|_| {
            let weight = rng.gen_range(0.1..1.0);
            let mean: Vec<f64> = (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut cov = Matrix::identity(d);
            cov.add_diag(rng.gen_range(0.1..3.0));
            (weight, mean, cov)
        })
        .collect();
    MixturePrior::new(components).expect("construction above is always valid")
}

#[test]
fn every_single_byte_corruption_is_caught() {
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let cases = (1usize..4, 1usize..6, 0u64..1_000_000, 1u64..256);
    runner
        .run(&cases, |(k, d, seed, flip)| {
            let prior = random_prior(k, d, seed);
            let payload = dro_edge::transfer::serialize_prior(&prior);
            let framed = frame::encode(&Message::PriorResponse {
                payload: payload.clone(),
            });
            prop_assert_eq!(framed.len(), frame::prior_response_frame_len(k, d));

            // The clean frame round-trips to the original prior.
            match frame::decode(&framed) {
                Ok(Message::PriorResponse { payload: back }) => {
                    prop_assert_eq!(&back, &payload);
                    let decoded = dro_edge::transfer::deserialize_prior(&back)
                        .expect("clean payload must decode");
                    prop_assert_eq!(decoded.num_components(), k);
                    prop_assert_eq!(decoded.dim(), d);
                }
                other => {
                    return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "clean frame failed to decode: {other:?}"
                    )))
                }
            }

            // Corrupting any single byte (by a case-chosen XOR pattern)
            // must be caught by the length check or the CRC.
            let flip = flip as u8; // 1..=255: always changes the byte
            for pos in 0..framed.len() {
                let mut corrupted = framed.clone();
                corrupted[pos] ^= flip;
                match frame::decode(&corrupted) {
                    // Only the CRC and length checks may fire — never a
                    // VersionMismatch (the CRC runs first) and never a
                    // silently accepted frame.
                    Err(ServeError::ChecksumMismatch { .. })
                    | Err(ServeError::MalformedFrame { .. }) => {}
                    Ok(msg) => {
                        return Err(proptest::test_runner::TestCaseError::fail(format!(
                            "byte {pos} xor {flip:#04x} slipped through as {}",
                            msg.kind_name()
                        )))
                    }
                    Err(other) => {
                        return Err(proptest::test_runner::TestCaseError::fail(format!(
                            "byte {pos} xor {flip:#04x}: unexpected error class {other}"
                        )))
                    }
                }
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn control_plane_kinds_round_trip_and_reject_every_single_byte_corruption() {
    // The load-shedding, health, and shard-routing kinds (5 Busy, 6 Health,
    // 7 HealthReport, 8 ShardMapRequest, 9 ShardMapResponse) get the same
    // guarantee as the data plane: clean frames round-trip, and any
    // single-byte corruption is caught by the length check or CRC.
    let messages = [
        Message::Busy { retry_after_ms: 25 },
        Message::Health,
        Message::HealthReport(dre_serve::HealthStatus {
            queue_depth: 3,
            in_flight: 2,
            shed_connections: 41,
            worker_panics: 1,
        }),
        Message::ShardMapRequest,
        Message::ShardMapResponse {
            map: dre_serve::ShardMapWire {
                epoch: 12,
                seed: 7_400,
                replication: 2,
                virtual_nodes: 64,
                shards: vec![
                    "127.0.0.1:9001".parse().unwrap(),
                    "10.1.2.3:9002".parse().unwrap(),
                    "[::1]:9003".parse().unwrap(),
                ],
            },
        },
    ];
    for msg in &messages {
        let framed = frame::encode(msg);
        match (msg, frame::decode(&framed).expect("clean frame decodes")) {
            (
                Message::Busy { retry_after_ms },
                Message::Busy {
                    retry_after_ms: back,
                },
            ) => {
                assert_eq!(*retry_after_ms, back)
            }
            (Message::Health, Message::Health) => {}
            (Message::HealthReport(h), Message::HealthReport(back)) => assert_eq!(*h, back),
            (Message::ShardMapRequest, Message::ShardMapRequest) => {}
            (Message::ShardMapResponse { map }, Message::ShardMapResponse { map: back }) => {
                assert_eq!(*map, back)
            }
            (_, other) => panic!("{} decoded as {}", msg.kind_name(), other.kind_name()),
        }
        for pos in 0..framed.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupted = framed.clone();
                corrupted[pos] ^= flip;
                match frame::decode(&corrupted) {
                    Err(ServeError::ChecksumMismatch { .. })
                    | Err(ServeError::MalformedFrame { .. }) => {}
                    Ok(m) => panic!(
                        "{}: byte {pos} xor {flip:#04x} slipped through as {}",
                        msg.kind_name(),
                        m.kind_name()
                    ),
                    Err(other) => panic!(
                        "{}: byte {pos} xor {flip:#04x}: unexpected error class {other}",
                        msg.kind_name()
                    ),
                }
            }
        }
    }
}

#[test]
fn shard_map_version_skew_stays_fatal_but_crc_corruption_stays_retryable() {
    let framed = frame::encode(&Message::ShardMapResponse {
        map: dre_serve::ShardMapWire {
            epoch: 3,
            seed: 99,
            replication: 1,
            virtual_nodes: 16,
            shards: vec!["127.0.0.1:9001".parse().unwrap()],
        },
    });
    // A flipped version byte without a matching CRC is corruption in
    // transit: retryable, never a fatal VersionMismatch.
    let mut corrupted = framed.clone();
    corrupted[4] ^= 0x01;
    let err = frame::decode(&corrupted).unwrap_err();
    assert!(matches!(err, ServeError::ChecksumMismatch { .. }), "{err}");
    assert!(err.is_retryable());
    // Genuine skew — version byte rewritten *and* CRC recomputed — is a
    // real protocol disagreement: fatal.
    let mut v2 = framed.clone();
    v2[4] = 2;
    let crc = dre_serve::Crc32::new()
        .update(&v2[4..6])
        .update(&v2[10..])
        .finalize();
    v2[6..10].copy_from_slice(&crc.to_le_bytes());
    let err = frame::decode(&v2).unwrap_err();
    assert!(matches!(err, ServeError::VersionMismatch { .. }), "{err}");
    assert!(!err.is_retryable());
}

#[test]
fn corrupted_version_byte_is_retryable_not_fatal() {
    // The one subtle spot in the taxonomy: byte 4 is the version byte. A
    // bit flip there must read as retryable corruption (the CRC no longer
    // matches), never as a fatal VersionMismatch.
    let prior = random_prior(2, 3, 7);
    let payload = dro_edge::transfer::serialize_prior(&prior);
    let framed = frame::encode(&Message::PriorResponse { payload });
    for flip in 1..=255u8 {
        let mut corrupted = framed.clone();
        corrupted[4] ^= flip;
        let err = frame::decode(&corrupted).unwrap_err();
        assert!(
            matches!(err, ServeError::ChecksumMismatch { .. }),
            "version-byte flip {flip:#04x} gave {err}"
        );
        assert!(err.is_retryable());
    }
}

/// A valid random report: finite params, nonzero identity fields.
fn random_report(p: usize, seed: u64) -> Message {
    let mut rng = StdRng::seed_from_u64(seed);
    Message::ModelReport {
        task_id: rng.gen_range(0..1_000_000),
        device_id: rng.gen_range(0..u64::MAX),
        seq: rng.gen_range(1..u64::MAX),
        params: (0..p).map(|_| rng.gen_range(-100.0..100.0)).collect(),
    }
}

#[test]
fn report_plane_kinds_reject_every_single_byte_corruption() {
    // The report path (3 ModelReport with its widened device_id + seq
    // header, 10 ReportAck in both accept states) gets the same guarantee
    // as the prior path: clean frames round-trip field-for-field, and any
    // single-byte corruption is caught by the length check or CRC.
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let cases = (1usize..8, 0u64..1_000_000, 1u64..256);
    runner
        .run(&cases, |(p, seed, flip)| {
            let msg = random_report(p, seed);
            let framed = frame::encode(&msg);
            prop_assert_eq!(framed.len(), frame::model_report_frame_len(p));

            match (frame::decode(&framed), &msg) {
                (
                    Ok(Message::ModelReport {
                        task_id,
                        device_id,
                        seq,
                        params,
                    }),
                    Message::ModelReport {
                        task_id: t,
                        device_id: d,
                        seq: s,
                        params: pp,
                    },
                ) => {
                    prop_assert_eq!(task_id, *t);
                    prop_assert_eq!(device_id, *d);
                    prop_assert_eq!(seq, *s);
                    prop_assert_eq!(&params, pp);
                }
                (other, _) => {
                    return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "clean report failed to decode: {other:?}"
                    )))
                }
            }

            let flip = flip as u8;
            for pos in 0..framed.len() {
                let mut corrupted = framed.clone();
                corrupted[pos] ^= flip;
                match frame::decode(&corrupted) {
                    Err(ServeError::ChecksumMismatch { .. })
                    | Err(ServeError::MalformedFrame { .. }) => {}
                    Ok(m) => {
                        return Err(proptest::test_runner::TestCaseError::fail(format!(
                            "report byte {pos} xor {flip:#04x} slipped through as {}",
                            m.kind_name()
                        )))
                    }
                    Err(other) => {
                        return Err(proptest::test_runner::TestCaseError::fail(format!(
                            "report byte {pos} xor {flip:#04x}: unexpected error class {other}"
                        )))
                    }
                }
            }
            Ok(())
        })
        .unwrap();

    for accepted in [true, false] {
        let framed = frame::encode(&Message::ReportAck { accepted });
        assert_eq!(framed.len(), frame::report_ack_frame_len());
        match frame::decode(&framed) {
            Ok(Message::ReportAck { accepted: back }) => assert_eq!(accepted, back),
            other => panic!("clean ack failed to decode: {other:?}"),
        }
        for pos in 0..framed.len() {
            for flip in 1..=255u8 {
                let mut corrupted = framed.clone();
                corrupted[pos] ^= flip;
                match frame::decode(&corrupted) {
                    Err(ServeError::ChecksumMismatch { .. })
                    | Err(ServeError::MalformedFrame { .. }) => {}
                    Ok(m) => panic!(
                        "ack byte {pos} xor {flip:#04x} slipped through as {}",
                        m.kind_name()
                    ),
                    Err(other) => {
                        panic!("ack byte {pos} xor {flip:#04x}: unexpected error class {other}")
                    }
                }
            }
        }
    }
}

#[test]
fn report_version_skew_stays_fatal_but_crc_corruption_stays_retryable() {
    // Same taxonomy as the shard-map frames, on both report-plane kinds: a
    // flipped version byte without a matching CRC is transit corruption
    // (retryable); a rewritten version *with* a recomputed CRC is genuine
    // protocol skew (fatal).
    let report = frame::encode(&random_report(3, 41));
    let ack = frame::encode(&Message::ReportAck { accepted: true });
    for framed in [report, ack] {
        let mut corrupted = framed.clone();
        corrupted[4] ^= 0x01;
        let err = frame::decode(&corrupted).unwrap_err();
        assert!(matches!(err, ServeError::ChecksumMismatch { .. }), "{err}");
        assert!(err.is_retryable());

        let mut v2 = framed.clone();
        v2[4] = 2;
        let crc = dre_serve::Crc32::new()
            .update(&v2[4..6])
            .update(&v2[10..])
            .finalize();
        v2[6..10].copy_from_slice(&crc.to_le_bytes());
        let err = frame::decode(&v2).unwrap_err();
        assert!(matches!(err, ServeError::VersionMismatch { .. }), "{err}");
        assert!(!err.is_retryable());
    }
}
