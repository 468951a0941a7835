//! Property tests of the report codec: the bytes a `gossipd` worker sends
//! to `gossip-coord` must round-trip exactly, and no byte string — mutated,
//! truncated or arbitrary — may panic the decoder.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use gossip_core::ProtocolStats;
use gossip_fec::WindowParams;
use gossip_stream::{PlayerSnapshot, StreamConfig, StreamPlayer, WindowSnapshot};
use gossip_types::{NodeId, Time};
use gossip_udp::codec::{decode_process_reports, encode_process_reports};
use gossip_udp::report::{NodeReport, ShardStats};

/// One process's report contribution plus the stream geometry it was
/// encoded against.
type Reports = (StreamConfig, Vec<NodeReport>, Vec<ShardStats>);

fn protocol_stats(rng: &mut TestRng) -> ProtocolStats {
    ProtocolStats {
        rounds: rng.next_u64(),
        proposes_sent: rng.next_u64(),
        proposes_received: rng.next_u64(),
        duplicate_ids_proposed: rng.next_u64(),
        requests_sent: rng.next_u64(),
        requests_received: rng.next_u64(),
        unservable_ids: rng.next_u64(),
        serves_sent: rng.next_u64(),
        serves_received: rng.next_u64(),
        events_delivered: rng.next_u64(),
        duplicate_events_received: rng.next_u64(),
        retransmit_requests: rng.next_u64(),
        feedmes_sent: rng.next_u64(),
        feedmes_received: rng.next_u64(),
        feedmes_adopted: rng.next_u64(),
        corrupted_events_detected: rng.next_u64(),
        corrupt_rerequests: rng.next_u64(),
        peers_demoted: rng.next_u64(),
        proposes_from_demoted_ignored: rng.next_u64(),
        garbage_ids_rejected: rng.next_u64(),
    }
}

fn shard_stats(rng: &mut TestRng) -> ShardStats {
    ShardStats {
        datagrams_sent: rng.next_u64(),
        send_syscalls: rng.next_u64(),
        kernel_sent: rng.next_u64(),
        send_drops: rng.next_u64(),
        datagrams_received: rng.next_u64(),
        recv_syscalls: rng.next_u64(),
        kernel_received: rng.next_u64(),
        recv_capacity: rng.next_u64(),
        frame_errors: rng.next_u64(),
        encode_errors: rng.next_u64(),
        iterations: rng.next_u64(),
        faults_injected: rng.next_u64(),
        transients_recovered: rng.next_u64(),
        send_backoffs: rng.next_u64(),
        datagrams_shed: rng.next_u64(),
        socket_rebinds: rng.next_u64(),
        backend_downgrades: rng.next_u64(),
    }
}

/// A player with strictly increasing window numbers and arbitrary
/// bitmasks sized for `config`'s geometry. Reception times stay below
/// `Time::MAX`, which the codec reserves for "never decodable".
fn player(config: StreamConfig, rng: &mut TestRng) -> StreamPlayer {
    let words = config.window.total_packets().div_ceil(64);
    let mut window = rng.below(1000) as u32;
    let windows = (0..rng.below(8))
        .map(|_| {
            window += 1 + rng.below(50) as u32;
            WindowSnapshot {
                window,
                received: (0..words).map(|_| rng.next_u64()).collect(),
                count: rng.next_u32() as u16,
                decodable_at: (rng.next_u32() & 1 == 1)
                    .then(|| Time::from_micros(rng.below(u64::MAX))),
            }
        })
        .collect();
    let snapshot = PlayerSnapshot {
        packets_received: rng.next_u64(),
        duplicate_packets: rng.next_u64(),
        windows,
    };
    StreamPlayer::restore(config, snapshot)
}

/// Arbitrary reports over an arbitrary window geometry (one to four
/// bitmask words per window).
fn reports() -> impl Strategy<Value = Reports> {
    (1usize..200, 1usize..56, 0u64..6, 0u64..4).prop_perturb(
        |(data, fec, nodes, shards), mut rng| {
            let config = StreamConfig {
                rate_bps: 200_000,
                packet_payload_bytes: 500,
                window: WindowParams::new(data, fec),
            };
            let nodes = (0..nodes)
                .map(|_| NodeReport {
                    id: NodeId::new(rng.next_u32()),
                    protocol: protocol_stats(&mut rng),
                    player: player(config, &mut rng),
                    sent_bytes: rng.next_u64(),
                    sent_msgs: rng.next_u64(),
                    shaper_drops: rng.next_u64(),
                    recv_msgs: rng.next_u64(),
                    decode_errors: rng.next_u64(),
                })
                .collect();
            let shards = (0..shards).map(|_| shard_stats(&mut rng)).collect();
            (config, nodes, shards)
        },
    )
}

proptest! {
    /// Every node counter, player bitmask and shard counter survives the
    /// trip through the codec unchanged.
    #[test]
    fn process_reports_round_trip((config, nodes, shards) in reports()) {
        let bytes = encode_process_reports(&nodes, &shards);
        let (out_nodes, out_shards) = decode_process_reports(&bytes, &config).expect("decodes");
        prop_assert_eq!(out_nodes.len(), nodes.len());
        for (a, b) in nodes.iter().zip(&out_nodes) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.protocol, b.protocol);
            prop_assert_eq!(a.player.snapshot(), b.player.snapshot());
            prop_assert_eq!(
                (a.sent_bytes, a.sent_msgs, a.shaper_drops, a.recv_msgs, a.decode_errors),
                (b.sent_bytes, b.sent_msgs, b.shaper_drops, b.recv_msgs, b.decode_errors)
            );
        }
        prop_assert_eq!(out_shards, shards);
    }

    /// Corrupting any single byte of a valid buffer yields reports or a
    /// `CodecError`, never a panic. Every position is tried, so each
    /// length, count and geometry field gets corrupted in every case.
    #[test]
    fn corrupted_bytes_never_panic((config, nodes, shards) in reports(), mask in 1u8..255) {
        let bytes = encode_process_reports(&nodes, &shards);
        for at in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[at] ^= mask;
            let _ = decode_process_reports(&corrupted, &config);
        }
    }

    /// Every strict prefix of a valid buffer is an error, never a panic.
    #[test]
    fn truncated_buffers_are_errors((config, nodes, shards) in reports(), cut in any::<usize>()) {
        let bytes = encode_process_reports(&nodes, &shards);
        let cut = cut % bytes.len();
        prop_assert!(decode_process_reports(&bytes[..cut], &config).is_err(), "prefix of {cut} bytes");
    }

    /// Arbitrary bytes are decoded or rejected, never a panic. A small
    /// node count up front steers the decoder past its first length check.
    #[test]
    fn arbitrary_bytes_never_panic(count in 0u32..4, body in vec(any::<u8>(), 0..512)) {
        let bytes: Vec<u8> = count.to_le_bytes().into_iter().chain(body).collect();
        let _ = decode_process_reports(&bytes, &StreamConfig::test_small());
        let _ = decode_process_reports(&bytes[4..], &StreamConfig::test_small());
    }
}
