//! Per-node and per-shard run reports.
//!
//! The reactor runtime (the `gossip-reactor` crate) finishes a run by
//! producing one [`NodeReport`] per node and one [`ShardStats`] per shard;
//! [`crate::cluster::assemble_report`] turns the node reports into a
//! [`crate::cluster::ClusterReport`] whether they came from one process or
//! were merged from several `gossipd` workers.

use gossip_stream::StreamPlayer;
use gossip_types::NodeId;

/// Everything a node reports back when its run finishes.
#[derive(Debug)]
pub struct NodeReport {
    /// The node's identity.
    pub id: NodeId,
    /// Protocol counters.
    pub protocol: gossip_core::ProtocolStats,
    /// The playout state (window completeness and timing).
    pub player: StreamPlayer,
    /// Bytes handed to the kernel.
    pub sent_bytes: u64,
    /// Datagrams handed to the kernel.
    pub sent_msgs: u64,
    /// Datagrams dropped by the local shaper.
    pub shaper_drops: u64,
    /// Datagrams received.
    pub recv_msgs: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
}

/// Per-shard I/O accounting of the sharded reactor runtime.
///
/// Two layers of batching separate *protocol* datagrams from kernel
/// interactions: send coalescing packs several protocol datagrams for the
/// same destination socket into one **kernel datagram**, and the
/// `sendmmsg`/`recvmmsg` backend moves many kernel datagrams per
/// **syscall**. The headline ratios are
/// [`ShardStats::syscalls_per_datagram`] (send syscalls per protocol
/// datagram — well below 1.0 once both layers engage) and
/// [`ShardStats::syscalls_per_iteration`] (how close the loop gets to the
/// one-`sendmmsg`-plus-one-`recvmmsg`-per-iteration ideal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Protocol datagrams this shard's nodes put on the wire.
    pub datagrams_sent: u64,
    /// Send syscalls (`sendmmsg` or `send_to`) used to carry them.
    pub send_syscalls: u64,
    /// Kernel datagrams handed to the kernel (coalesced bursts).
    pub kernel_sent: u64,
    /// Kernel datagrams dropped on a send error (full kernel buffer —
    /// UDP semantics, absorbed by FEC + retransmission).
    pub send_drops: u64,
    /// Protocol datagrams received (after unpacking coalesced frames).
    pub datagrams_received: u64,
    /// Receive syscalls (`recvmmsg` or `recv_from`) that returned data.
    pub recv_syscalls: u64,
    /// Kernel datagrams received.
    pub kernel_received: u64,
    /// Total batch capacity offered across data-bearing receive calls
    /// (denominator of [`ShardStats::recv_batch_occupancy`]).
    pub recv_capacity: u64,
    /// Kernel datagrams whose demux framing was malformed (truncated
    /// header or length running past the datagram end). Frame-level decode
    /// failures are attributed to the destination node's `decode_errors`
    /// instead; these had no readable destination.
    pub frame_errors: u64,
    /// Protocol datagrams that could not be framed at all (an oversized
    /// wire buffer that does not fit the u16 frame length).
    pub encode_errors: u64,
    /// Event-loop iterations the shard ran.
    pub iterations: u64,
    /// Chaos faults injected at the syscall boundary: datagram mutations
    /// (drop / duplicate / reorder / delay / truncate) plus forced errno
    /// returns (zero outside chaos runs).
    pub faults_injected: u64,
    /// Transient send errors absorbed without losing the queue (the
    /// unsent tail was retained and retried after a backoff).
    pub transients_recovered: u64,
    /// Backoff intervals entered after transient send failures.
    pub send_backoffs: u64,
    /// Datagrams shed by the outbox/pending load-shedding budgets (oldest
    /// first, once a byte or age budget was exceeded).
    pub datagrams_shed: u64,
    /// Fatal socket errors recovered by re-binding the socket in place.
    pub socket_rebinds: u64,
    /// Mid-run I/O backend downgrades (`ENOSYS` → portable fallback).
    pub backend_downgrades: u64,
}

impl ShardStats {
    /// Send syscalls per protocol datagram (1.0 = no batching at all;
    /// `None` when the shard sent nothing).
    pub fn syscalls_per_datagram(&self) -> Option<f64> {
        (self.datagrams_sent > 0).then(|| self.send_syscalls as f64 / self.datagrams_sent as f64)
    }

    /// Protocol datagrams moved per send syscall (coalescing × mmsg
    /// batching; `None` when the shard never sent).
    pub fn datagrams_per_send_syscall(&self) -> Option<f64> {
        (self.send_syscalls > 0).then(|| self.datagrams_sent as f64 / self.send_syscalls as f64)
    }

    /// Protocol datagrams received per data-bearing receive syscall
    /// (`None` when the shard never received).
    pub fn datagrams_per_recv_syscall(&self) -> Option<f64> {
        (self.recv_syscalls > 0).then(|| self.datagrams_received as f64 / self.recv_syscalls as f64)
    }

    /// Average fill fraction of the receive batch across data-bearing
    /// receive calls (1.0 = every `recvmmsg` came back full).
    pub fn recv_batch_occupancy(&self) -> Option<f64> {
        (self.recv_capacity > 0).then(|| self.kernel_received as f64 / self.recv_capacity as f64)
    }

    /// I/O syscalls per event-loop iteration (the batched ideal is ~2:
    /// one `sendmmsg` plus one `recvmmsg`).
    pub fn syscalls_per_iteration(&self) -> Option<f64> {
        (self.iterations > 0)
            .then(|| (self.send_syscalls + self.recv_syscalls) as f64 / self.iterations as f64)
    }

    /// I/O syscalls per protocol datagram moved in either direction.
    pub fn total_syscalls_per_datagram(&self) -> Option<f64> {
        let datagrams = self.datagrams_sent + self.datagrams_received;
        (datagrams > 0).then(|| (self.send_syscalls + self.recv_syscalls) as f64 / datagrams as f64)
    }

    /// Folds another shard's counters into this one (for cluster totals).
    pub fn merge(&mut self, other: &ShardStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.send_syscalls += other.send_syscalls;
        self.kernel_sent += other.kernel_sent;
        self.send_drops += other.send_drops;
        self.datagrams_received += other.datagrams_received;
        self.recv_syscalls += other.recv_syscalls;
        self.kernel_received += other.kernel_received;
        self.recv_capacity += other.recv_capacity;
        self.frame_errors += other.frame_errors;
        self.encode_errors += other.encode_errors;
        self.iterations += other.iterations;
        self.faults_injected += other.faults_injected;
        self.transients_recovered += other.transients_recovered;
        self.send_backoffs += other.send_backoffs;
        self.datagrams_shed += other.datagrams_shed;
        self.socket_rebinds += other.socket_rebinds;
        self.backend_downgrades += other.backend_downgrades;
    }
}
