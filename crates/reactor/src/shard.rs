//! The shard event loop: one thread hosting many virtual nodes.
//!
//! A shard multiplexes every deadline of its nodes — gossip rounds,
//! retransmission timers, source emissions, shaper releases, and the
//! compiled fault timeline (crash / rejoin / join events from the
//! `gossip-adversity` crate) — through one timer wheel (the calendar queue
//! from `gossip-sim`, the same `EventSchedule` implementation the
//! simulator runs on), and all their traffic through a small pool of
//! non-blocking sockets. Between deadlines the shard parks on its first
//! socket with a bounded read timeout, so an arriving datagram wakes it
//! early but a raised stop flag is still noticed promptly.
//!
//! # Batched I/O
//!
//! Outbound datagrams are not written immediately: they accumulate in
//! the shard's **outbox** until they make a worthwhile batch
//! ([`MIN_FLUSH_DATAGRAMS`], or a [`MAX_FLUSH_HOLD`] age bound so a
//! trickle is never held long), then are packed grouped by sending
//! socket, with consecutive releases for the same destination *address*
//! (one shard socket hosts many nodes) coalesced into a single kernel
//! datagram of length-delimited frames (see [`crate::demux`]). The packed queue then drains through the
//! [`crate::mmsg`] backend — batches of kernel datagrams per `sendmmsg`
//! where the platform has it, per-datagram `send_to` otherwise. Ingress
//! is symmetric: `recvmmsg` fills a pooled batch of buffers, and each
//! received datagram is demuxed as a *borrowed* slice whose frames feed
//! the protocol through the zero-copy `decode_frame`/`on_frame` path —
//! the pooled buffer is the only copy of inbound bytes the hot path ever
//! makes. The per-shard [`ShardStats`] report the resulting
//! syscalls-per-datagram and batch-occupancy ratios.
//!
//! Receive work is budgeted: at most `recv_batch` datagrams per socket
//! per iteration, and a wheel deadline coming due ends the drain early —
//! an ingress flood cannot stall the timers that keep rounds, sources
//! and shapers on schedule.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gossip_adversity::{
    ByzantineBehaviour, ChaosPlan, CompiledAdversity, FaultAction, PartitionState,
};
use gossip_core::wire::{decode_frame, encode_message, FrameKind};
use gossip_core::{Event, Output, TimerToken};
use gossip_membership::{wire as shuffle_wire, CyclonConfig, CyclonView, ShuffleMessage};
use gossip_sim::{DetRng, EventQueue};
use gossip_stream::{byzantine, StreamPacket};
use gossip_types::{Duration, NodeId, Time};
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::{ClusterConfig, JoinerBootstrap};
use gossip_udp::report::{NodeReport, ShardStats};

use crate::chaos::{self, DatagramFate, SenderChaos, SocketChaos};
use crate::demux;
use crate::mmsg::{self, Backend, ErrorClass, RecvQueue, SendQueue, SendVerdict};
use crate::telemetry::{ShardTelemetry, GAUGE_PERIOD};
use crate::vnode::VirtualNode;

/// Upper bound on one park interval: short enough that the stop flag and
/// freshly queued kernel datagrams are looked at regularly, long enough
/// that an idle shard does not spin.
const MAX_PARK: std::time::Duration = std::time::Duration::from_millis(1);

/// Below this the next deadline is effectively due: parking would cost
/// more in syscalls than it saves.
const MIN_PARK: std::time::Duration = std::time::Duration::from_micros(200);

/// Size cap of one coalesced kernel datagram. Well under the 64 KiB UDP
/// limit: a burst lost to a full kernel buffer should not take half a
/// window of serves with it.
const MAX_COALESCED: usize = 16 * 1024;

/// Flush the outbox once it holds this many datagrams, even if the hold
/// window has not expired.
const MIN_FLUSH_DATAGRAMS: usize = 32;

/// Longest the oldest outbox datagram is held back waiting for batch
/// company. On an idle box the loop iterates every few microseconds and
/// would otherwise flush one- or two-datagram batches — the hold keeps
/// `sendmmsg` vectors dense at a latency cost that is noise against the
/// protocol's 100 ms-scale rounds.
const MAX_FLUSH_HOLD: Duration = Duration::from_millis(1);

/// Size of one receive buffer (max UDP datagram, like the thread
/// runtime's): nothing a peer shard can send is ever truncated.
const RECV_BUF_SIZE: usize = 65_536;

/// First backoff interval after a transient send failure. Doubles per
/// consecutive failure up to [`BACKOFF_CAP`], with deterministic jitter
/// so the pool's sockets do not retry in lockstep.
const BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Upper bound on one backoff interval: short against the protocol's
/// 100 ms rounds, long enough to let a kernel buffer drain.
const BACKOFF_CAP: Duration = Duration::from_millis(16);

/// Byte budget of one socket's retained (pending-retry) queue: past it
/// the oldest retained datagrams are shed, counted, and the stream's
/// FEC + retransmission absorb the loss.
const PENDING_BYTE_BUDGET: usize = 1 << 20;

/// Age budget of retained datagrams: serve traffic for a live stream is
/// stale after this long, so a recovering socket drops it instead of
/// flooding peers with obsolete windows.
const PENDING_AGE_BUDGET: Duration = Duration::from_millis(500);

/// Byte budget of the shard outbox itself. Send failures must never
/// block the timer wheel behind an unbounded backlog: past the budget
/// the oldest outbox datagrams are shed, counted.
const OUTBOX_BYTE_BUDGET: usize = 4 << 20;

/// A deadline in the shard's timer wheel, tagged with the local slot of
/// the node it belongs to. Per-node recurring deadlines also carry the
/// node's epoch at arming time; a crash bumps the epoch, so deadlines of
/// an earlier incarnation are dropped on the floor instead of poking a
/// revived node's fresh state.
enum Fire {
    /// The node's next gossip round.
    Round(u32, u32),
    /// A protocol retransmission timer.
    Timer(u32, TimerToken, u32),
    /// The source's next packet emission.
    Source(u32),
    /// The node's upload shaper has a datagram coming due.
    Shaper(u32, u32),
    /// The k-th event of the compiled fault timeline.
    Fault(u32),
}

/// Everything a shard needs to run, prepared by the runtime.
pub(crate) struct ShardConfig {
    /// This shard's index.
    pub index: usize,
    /// The id slice this *process* hosts and its stripe over the process's
    /// shards. Single-process runs host the whole id space; a deployed
    /// `gossipd` hosts a contiguous slice while the address book still
    /// covers every node in the cluster.
    pub placement: demux::Placement,
    /// Maximum datagrams drained per socket per loop iteration.
    pub recv_batch: usize,
    /// Which I/O backend to run (resolved once by the runtime).
    pub backend: Backend,
    pub cluster: ClusterConfig,
    /// The compiled fault plan (shared; every shard walks the same
    /// timeline and applies the slice that concerns its nodes).
    pub compiled: Arc<CompiledAdversity>,
    /// This shard's socket pool, already bound.
    pub sockets: Vec<UdpSocket>,
    /// Global node id → home socket address (local or remote alike).
    pub addresses: Arc<Vec<SocketAddr>>,
    /// Kernel buffer size re-applied when a socket is re-bound.
    pub socket_buffer_bytes: usize,
    pub clock: ClusterClock,
    pub stop: Arc<AtomicBool>,
    /// Live telemetry cells, pre-registered by the runtime (`None` when
    /// the run has no registry — the hot loop then carries no atomic
    /// traffic and no clock reads beyond its own).
    pub telemetry: Option<ShardTelemetry>,
}

/// Runs a shard until `stop` is raised and returns the reports of its
/// nodes, the shard's I/O statistics, and the I/O error that ended the
/// loop early, if any. Even a failed shard hands back everything it
/// accumulated: a partial measurement beats a silent gap in the report.
pub(crate) fn run_shard(
    config: ShardConfig,
) -> (Vec<NodeReport>, ShardStats, Option<std::io::Error>) {
    match Shard::new(config) {
        Ok(shard) => shard.run(),
        Err(e) => (Vec::new(), ShardStats::default(), Some(e)),
    }
}

struct Shard {
    index: usize,
    placement: demux::Placement,
    recv_batch: usize,
    backend: Backend,
    cluster: ClusterConfig,
    compiled: Arc<CompiledAdversity>,
    sockets: Vec<UdpSocket>,
    addresses: Arc<Vec<SocketAddr>>,
    clock: ClusterClock,
    stop: Arc<AtomicBool>,
    nodes: Vec<VirtualNode>,
    wheel: EventQueue<Fire>,
    /// The currently known membership: base nodes plus joiners so far.
    members: Vec<NodeId>,
    /// Bumped on every join; nodes whose `members_seen` lags refresh
    /// their membership lazily at their next round.
    members_version: u32,
    /// Which partition events are live. Every shard walks the same fault
    /// timeline, so every shard's view of the split agrees; cross-cell
    /// frames are dropped on arrival in [`Shard::route_frame`].
    partition: PartitionState,
    /// RNG stream for membership work — Cyclon bootstrap samples, shuffle
    /// subsets, reply samples. Seeded per shard; the reactor's wall-clock
    /// arrival order makes shuffle sequences non-deterministic anyway
    /// (like everything else this runtime measures statistically).
    membership_rng: DetRng,
    /// Released-but-unsent datagrams of this loop iteration:
    /// `(sending socket, destination, unframed wire bytes)`.
    outbox: Vec<(usize, NodeId, Vec<u8>)>,
    /// When the oldest datagram entered the (then-empty) outbox; `None`
    /// while it is empty. Drives the size-or-age flush policy.
    outbox_since: Option<Time>,
    stats: ShardStats,
    /// Reusable single-datagram buffer for the blocking park receive.
    recv_buf: Vec<u8>,
    /// Pool socket the next drain starts at. A drain cut short by a due
    /// deadline resumes here next iteration: without the cursor, dense
    /// deadlines (large shards) would end almost every drain at socket 0
    /// and starve the rest of the pool into overflow.
    drain_cursor: usize,
    /// Pooled batch buffers for the non-blocking drain.
    recv_queue: RecvQueue,
    /// Reusable send arena the outbox packs into.
    send_queue: SendQueue,
    /// Scratch arena the shedding rebuilds pack into.
    scratch_queue: SendQueue,
    /// Bytes currently held in the outbox (drives load shedding).
    outbox_bytes: usize,
    /// Per-socket recovery state: backoff clocks and retained queues.
    recovery: Vec<SocketRecovery>,
    /// Original local addresses of the pool, kept for in-place re-binds.
    local_addrs: Vec<SocketAddr>,
    /// Kernel buffer size re-applied when a socket is re-bound.
    socket_buffer_bytes: usize,
    /// The chaos engine, present only when the compiled plan injects
    /// anything.
    chaos: Option<ChaosState>,
    /// Live telemetry cells (`None`: telemetry off, zero loop cost).
    telemetry: Option<ShardTelemetry>,
    /// Next time the telemetry gauges (completeness scan, queue depths)
    /// are recomputed.
    next_gauge_publish: Time,
}

/// Per-socket self-healing state.
struct SocketRecovery {
    /// Sends on this socket are paused until this instant, if set.
    backoff_until: Option<Time>,
    /// Consecutive transient failures (the backoff exponent).
    backoff_level: u32,
    /// Datagrams retained across a transient failure, oldest first.
    pending: SendQueue,
    /// When the oldest retained datagram entered `pending`.
    pending_since: Option<Time>,
    /// Deterministic jitter stream for the backoff intervals.
    jitter: DetRng,
}

/// The shard's slice of the chaos plan: per-node fate streams, per-socket
/// errno streams, and the delayed-datagram stash.
struct ChaosState {
    plan: ChaosPlan,
    /// One fate stream per hosted node, indexed by local slot.
    senders: Vec<SenderChaos>,
    /// One errno stream per pool socket.
    sockets: Vec<SocketChaos>,
    /// Datagrams held back by a Delay fate, re-injected after the next
    /// flush.
    delayed: Vec<(usize, NodeId, Vec<u8>)>,
}

impl Shard {
    fn new(config: ShardConfig) -> std::io::Result<Self> {
        let ShardConfig {
            index,
            placement,
            recv_batch,
            backend,
            cluster,
            compiled,
            sockets,
            addresses,
            socket_buffer_bytes,
            clock,
            stop,
            telemetry,
        } = config;
        for socket in &sockets {
            socket.set_nonblocking(true)?;
        }
        let pool = sockets.len();
        let nodes: Vec<VirtualNode> = (0..)
            .map(|local| placement.global_of(index, local))
            .take_while(|&g| placement.contains(g))
            .map(|g| {
                VirtualNode::new(
                    &cluster,
                    &compiled,
                    g,
                    demux::home_socket(placement.local_of(g), pool),
                )
            })
            .collect();

        let mut wheel: EventQueue<Fire> = EventQueue::new();
        let period = cluster.gossip.gossip_period;
        for (local, vn) in nodes.iter().enumerate() {
            if vn.down {
                continue; // flash-crowd joiners start dark
            }
            // Stagger first rounds across one gossip period so the
            // cluster's round traffic does not arrive as one synchronised
            // burst on every socket.
            let phase = Duration::from_micros(
                u64::from(vn.id.as_u32()) * period.as_micros() / compiled.total_n as u64,
            );
            wheel.push(Time::ZERO + phase, Fire::Round(local as u32, vn.epoch));
            if vn.source.is_some() {
                wheel.push(Time::ZERO, Fire::Source(local as u32));
            }
        }
        // Every shard walks the whole fault timeline; each event is applied
        // to the membership every shard tracks, and to the victim/joiner
        // only by the shard that hosts it.
        for (k, event) in compiled.timeline.events().iter().enumerate() {
            wheel.push(event.at, Fire::Fault(k as u32));
        }

        let members: Vec<NodeId> = (0..compiled.base_n as u32).map(NodeId::new).collect();
        let membership_rng = DetRng::seed_from(cluster.seed).split(0xC1C1_0000 + index as u64);
        let plan = compiled.chaos;
        let chaos = (!plan.is_none()).then(|| ChaosState {
            plan,
            senders: nodes.iter().map(|vn| SenderChaos::new(&plan, vn.id)).collect(),
            // Socket 0 takes the one-shot kill: every shard then proves
            // the re-bind path, and exactly one socket per shard dies.
            sockets: (0..pool).map(|s| SocketChaos::new(&plan, index, s, s == 0)).collect(),
            delayed: Vec::new(),
        });
        let recovery = (0..pool)
            .map(|s| SocketRecovery {
                backoff_until: None,
                backoff_level: 0,
                pending: SendQueue::default(),
                pending_since: None,
                jitter: DetRng::seed_from(cluster.seed)
                    .split(0xBACC_0000 + (index * 1024 + s) as u64),
            })
            .collect();
        let local_addrs =
            sockets.iter().map(UdpSocket::local_addr).collect::<std::io::Result<Vec<_>>>()?;
        Ok(Shard {
            index,
            placement,
            recv_batch,
            backend,
            cluster,
            compiled,
            sockets,
            addresses,
            clock,
            stop,
            nodes,
            wheel,
            members,
            members_version: 0,
            partition: PartitionState::new(),
            membership_rng,
            outbox: Vec::new(),
            outbox_since: None,
            stats: ShardStats::default(),
            recv_buf: vec![0u8; RECV_BUF_SIZE],
            drain_cursor: 0,
            recv_queue: RecvQueue::new(recv_batch, RECV_BUF_SIZE),
            send_queue: SendQueue::default(),
            scratch_queue: SendQueue::default(),
            outbox_bytes: 0,
            recovery,
            local_addrs,
            socket_buffer_bytes,
            chaos,
            telemetry,
            next_gauge_publish: Time::ZERO,
        })
    }

    fn run(mut self) -> (Vec<NodeReport>, ShardStats, Option<std::io::Error>) {
        let failure = self.run_loop().err();
        // Don't strand held-back datagrams at shutdown (best-effort once
        // the loop already failed — the first error is the one reported).
        let failure = match self.flush_outbox() {
            Ok(()) => failure,
            Err(e) => failure.or(Some(e)),
        };
        // Final mirror: the run's last snapshot and any post-stop scrape
        // carry the exact totals, and a failed shard's counters are still
        // visible.
        if let Some(tel) = &self.telemetry {
            tel.publish_counters(&self.stats);
        }
        let stats = self.stats;
        (self.nodes.into_iter().map(VirtualNode::into_report).collect(), stats, failure)
    }

    fn run_loop(&mut self) -> std::io::Result<()> {
        while !self.stop.load(Ordering::Relaxed) {
            self.stats.iterations += 1;
            let now = self.clock.now();

            // Phase wall-time brackets exist only when telemetry is on:
            // four monotonic clock reads per iteration, nothing otherwise.
            let t0 = self.telemetry.as_ref().map(|_| std::time::Instant::now());

            // 1. Fire every due deadline.
            while let Some((at, fire)) = self.wheel.pop_before(now) {
                self.dispatch(fire, at, now);
            }
            let t1 = t0.map(|_| std::time::Instant::now());

            // 2. Budgeted batched receive across the socket pool.
            self.drain_sockets()?;
            let t2 = t0.map(|_| std::time::Instant::now());

            // 3. Put the backlog on the wire once it makes a worthwhile
            // batch (or has waited long enough).
            self.maybe_flush()?;
            let t3 = t0.map(|_| std::time::Instant::now());

            // 4. Park until the next deadline, waking early for traffic.
            self.park()?;
            self.maybe_flush()?;

            self.publish_telemetry(now, t0.zip(t1), t1.zip(t2), t2.zip(t3), t3);
        }
        Ok(())
    }

    /// Mirrors the loop's statistics into the telemetry cells: phase
    /// durations and counters every iteration, the gauges (queue depths,
    /// aggregate completeness — an O(nodes + windows) scan) only at
    /// [`GAUGE_PERIOD`] cadence.
    fn publish_telemetry(
        &mut self,
        now: Time,
        timers: Option<(std::time::Instant, std::time::Instant)>,
        ingress: Option<(std::time::Instant, std::time::Instant)>,
        flush: Option<(std::time::Instant, std::time::Instant)>,
        park_from: Option<std::time::Instant>,
    ) {
        let Some(tel) = &self.telemetry else { return };
        let micros = |(from, to): (std::time::Instant, std::time::Instant)| {
            u64::try_from((to - from).as_micros()).unwrap_or(u64::MAX)
        };
        if let Some(span) = timers {
            tel.phase_timers.observe_micros(micros(span));
        }
        if let Some(span) = ingress {
            tel.phase_ingress.observe_micros(micros(span));
        }
        if let Some(span) = flush {
            tel.phase_flush.observe_micros(micros(span));
        }
        if let Some(from) = park_from {
            tel.phase_park.observe_micros(micros((from, std::time::Instant::now())));
        }
        tel.publish_counters(&self.stats);
        if now >= self.next_gauge_publish {
            self.next_gauge_publish = now + GAUGE_PERIOD;
            let (mut decodable, mut observed) = (0usize, 0usize);
            for vn in &self.nodes {
                let (d, o) = vn.player.windows_decodable();
                decodable += d;
                observed += o;
            }
            let backoff = self.recovery.iter().map(|r| r.backoff_level).max().unwrap_or(0);
            let pending = self.recovery.iter().map(|r| r.pending.byte_len()).sum();
            tel.publish_gauges(&crate::telemetry::GaugeSample {
                outbox_datagrams: self.outbox.len(),
                outbox_bytes: self.outbox_bytes,
                wheel_resident: self.wheel.len(),
                backoff_level: backoff,
                pending_bytes: pending,
                decodable,
                observed,
            });
        }
    }

    /// Blocks on the first pool socket for up to the time until the next
    /// wheel deadline (bounded by [`MAX_PARK`]); a datagram arriving on
    /// that socket is handled immediately.
    fn park(&mut self) -> std::io::Result<()> {
        let now = self.clock.now();
        let deadline = self.wheel.peek_time().unwrap_or(now + Duration::from_millis(50));
        let wait = self.clock.until(deadline).min(MAX_PARK);
        if wait < MIN_PARK {
            return Ok(());
        }
        let waiter = &self.sockets[0];
        waiter.set_nonblocking(false)?;
        waiter.set_read_timeout(Some(wait))?;
        let mut buf = std::mem::take(&mut self.recv_buf);
        let received = self.sockets[0].recv_from(&mut buf);
        let outcome = match received {
            Ok((len, _)) => {
                let now = self.clock.now();
                self.stats.recv_syscalls += 1;
                self.stats.kernel_received += 1;
                self.stats.recv_capacity += 1;
                self.on_datagram(&buf[..len], now);
                Ok(())
            }
            // Transient noise (timeouts, EINTR) ends the park quietly; a
            // fatal error means the socket itself is gone — re-bind it in
            // place instead of taking the whole shard down.
            Err(e) => match mmsg::classify(&e) {
                ErrorClass::Transient | ErrorClass::Downgrade => Ok(()),
                ErrorClass::Fatal => self.rebind_socket(0),
            },
        };
        self.recv_buf = buf;
        outcome?;
        self.sockets[0].set_nonblocking(true)
    }

    /// Receives batches from every pool socket, at most `recv_batch`
    /// datagrams per socket, ending the whole drain early the moment a
    /// wheel deadline comes due — ingress floods must not delay timers.
    fn drain_sockets(&mut self) -> std::io::Result<()> {
        // The pool is moved out for the drain so routing can borrow the
        // shard mutably while datagrams stay borrowed from the pool.
        let mut queue = std::mem::take(&mut self.recv_queue);
        let result = self.drain_into(&mut queue);
        self.recv_queue = queue;
        result
    }

    fn drain_into(&mut self, queue: &mut RecvQueue) -> std::io::Result<()> {
        'pool: for k in 0..self.sockets.len() {
            let si = (self.drain_cursor + k) % self.sockets.len();
            let mut received = 0;
            while received < self.recv_batch {
                let n = match queue.recv(&self.sockets[si], self.backend, &mut self.stats) {
                    Ok(n) => n,
                    Err(e) => match mmsg::classify(&e) {
                        // The batched syscall vanished mid-run: fall back
                        // to plain recv_from and retry next iteration.
                        ErrorClass::Downgrade => {
                            self.backend = Backend::Fallback;
                            self.stats.backend_downgrades += 1;
                            continue 'pool;
                        }
                        ErrorClass::Transient => break,
                        // The socket is dead (e.g. EBADF): re-bind it and
                        // move on — its kernel backlog is lost, which is
                        // UDP semantics anyway.
                        ErrorClass::Fatal => {
                            self.rebind_socket(si)?;
                            continue 'pool;
                        }
                    },
                };
                if n == 0 {
                    break; // socket empty
                }
                received += n;
                let now = self.clock.now();
                for datagram in queue.datagrams() {
                    // Borrowed all the way down: demux slices this pooled
                    // buffer and `decode_frame` lends the protocol a view
                    // of the same bytes.
                    self.on_datagram(datagram, now);
                }
                if self.wheel.peek_time().is_some_and(|at| at <= self.clock.now()) {
                    // A deadline is due: timers beat ingress. Resume at
                    // this (possibly still backlogged) socket next time.
                    self.drain_cursor = si;
                    break 'pool;
                }
            }
            // This socket is drained (or used its budget): start the next
            // drain at its successor so the pool is served round-robin.
            self.drain_cursor = (si + 1) % self.sockets.len();
        }
        Ok(())
    }

    /// Unpacks one received kernel datagram into its protocol frames and
    /// routes each: find the local node, apply impairment, decode, drive
    /// the state machine. Malformed framing is counted after the intact
    /// prefix is salvaged.
    fn on_datagram(&mut self, datagram: &[u8], now: Time) {
        let mut frames = demux::frames(datagram);
        for (dest, wire) in frames.by_ref() {
            self.stats.datagrams_received += 1;
            self.route_frame(dest, wire, now);
        }
        if frames.malformed() {
            self.stats.frame_errors += 1;
        }
    }

    /// Routes one protocol frame to its destination node.
    fn route_frame(&mut self, dest: NodeId, wire: &[u8], now: Time) {
        let g = dest.as_u32();
        if !self.placement.contains(g) || self.placement.shard_of(g) != self.index {
            return; // stray frame for another shard's (or process's) socket
        }
        let local = self.placement.local_of(g);
        if local >= self.nodes.len() {
            return;
        }
        let vn = &mut self.nodes[local];
        if vn.down {
            return; // crashed and not-yet-joined nodes drop everything
        }
        if self.cluster.inject_loss > 0.0 && vn.loss_rng.chance(self.cluster.inject_loss) {
            return; // injected network loss: the frame evaporates
        }
        vn.recv_msgs += 1;
        if shuffle_wire::is_shuffle(wire) {
            // Membership traffic rides the same sockets as the protocol
            // but never reaches the state machine.
            match shuffle_wire::decode_shuffle(wire) {
                Some((from, msg)) => {
                    if self.partition.is_split()
                        && !self.partition.allows(&self.compiled, from, dest)
                    {
                        return; // the split eats shuffles too
                    }
                    self.on_shuffle(local, from, msg, now);
                }
                None => vn.decode_errors += 1,
            }
            return;
        }
        match decode_frame::<StreamPacket>(wire) {
            Some(frame) => {
                if self.partition.is_split()
                    && !self.partition.allows(&self.compiled, frame.sender(), dest)
                {
                    return; // the split eats cross-cell traffic on arrival
                }
                if frame.kind() == FrameKind::Request
                    && self.compiled.profiles[dest.index()].byzantine
                        == Some(ByzantineBehaviour::EatRequests)
                {
                    return; // a request-eater silently ignores pulls
                }
                if let Some(view) = vn.view.as_mut() {
                    // Contact is proof of life: protocol traffic keeps the
                    // sender's entry young in a joiner's partial view.
                    view.adopt(frame.sender());
                }
                vn.node.on_frame(now, &frame);
                self.drain_outputs(local, now);
            }
            None => vn.decode_errors += 1,
        }
    }

    /// One Cyclon shuffle round for a partial-view joiner: age the view,
    /// shuffle with the oldest peer (its reply merges asynchronously on
    /// arrival), and refresh the node's membership from what remains.
    fn shuffle_round(&mut self, local: usize, now: Time) {
        let vn = &mut self.nodes[local];
        let Some(view) = vn.view.as_mut() else { return };
        if let Some((target, request)) = view.on_shuffle_round(&mut self.membership_rng) {
            let bytes = shuffle_wire::encode_shuffle(vn.id, &request);
            let len = bytes.len();
            vn.shaper.offer(now, len, (target, bytes));
        }
        let mut membership = view.view();
        membership.push(vn.id);
        vn.node.set_membership(membership);
        self.flush_shaper(local, now);
    }

    /// Handles one membership shuffle frame addressed to a local node.
    ///
    /// A partial-view joiner runs the real Cyclon exchange (merge and,
    /// for requests, a reply). An established full-membership node
    /// answers statelessly: it adopts the sender and every offered peer
    /// into its membership — this is how a tracker-less joiner becomes
    /// reachable — and replies with a random sample of what it knows, so
    /// the joiner's view keeps growing beyond its bootstrap sample.
    fn on_shuffle(&mut self, local: usize, from: NodeId, msg: ShuffleMessage, now: Time) {
        let vn = &mut self.nodes[local];
        if let Some(view) = vn.view.as_mut() {
            if let Some(reply) = view.on_message(from, msg, &mut self.membership_rng) {
                let bytes = shuffle_wire::encode_shuffle(vn.id, &reply);
                let len = bytes.len();
                vn.shaper.offer(now, len, (from, bytes));
                self.flush_shaper(local, now);
            }
            return;
        }
        let ShuffleMessage::Request(offered) = msg else {
            return; // a stray reply to a full-membership node: nothing to do
        };
        let mut membership = vn.node.membership().to_vec();
        for peer in offered.iter().map(|&(n, _)| n).chain([from]) {
            if peer != vn.id && !membership.contains(&peer) {
                membership.push(peer);
            }
        }
        let candidates: Vec<NodeId> =
            membership.iter().copied().filter(|&m| m != vn.id && m != from).collect();
        let picked = self
            .membership_rng
            .sample_indices(candidates.len(), CyclonConfig::default_small().shuffle_size);
        // Age 0 throughout: a full-membership node has no staleness signal
        // to offer.
        let reply = ShuffleMessage::Reply(picked.into_iter().map(|k| (candidates[k], 0)).collect());
        vn.node.set_membership(membership);
        let bytes = shuffle_wire::encode_shuffle(vn.id, &reply);
        let len = bytes.len();
        vn.shaper.offer(now, len, (from, bytes));
        self.flush_shaper(local, now);
    }

    /// Fires one wheel deadline.
    fn dispatch(&mut self, fire: Fire, at: Time, now: Time) {
        match fire {
            Fire::Round(l, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.view.is_none() && vn.members_seen != self.members_version && !vn.down {
                    // Pick up joiners introduced since this node's last
                    // round (see the Join arm of `apply_fault`). Partial-view
                    // joiners are exempt: their membership comes from the
                    // Cyclon view, never the census.
                    vn.node.set_membership(self.members.clone());
                    vn.members_seen = self.members_version;
                }
                if vn.down || vn.epoch != ep {
                    return; // this incarnation's round chain ends here
                }
                if self.nodes[local].view.is_some() {
                    // One membership shuffle per gossip round, and this
                    // round's partner selection draws from the shuffled view.
                    self.shuffle_round(local, now);
                }
                let vn = &mut self.nodes[local];
                vn.node.on_round(now);
                self.drain_outputs(local, now);
                // Re-arm from the scheduled time, not `now`: rounds must
                // not drift under load.
                self.wheel.push(at + self.cluster.gossip.gossip_period, Fire::Round(l, ep));
            }
            Fire::Timer(l, token, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.down || vn.epoch != ep {
                    return;
                }
                vn.node.on_timer(now, token);
                self.drain_outputs(local, now);
            }
            Fire::Source(l) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.down {
                    return;
                }
                let (Some(source), Some(end)) = (vn.source.as_mut(), vn.stream_end) else {
                    return;
                };
                if now <= end {
                    // Take the emissions and the next deadline in one
                    // borrow of the source — no "still there" re-lookup
                    // that could panic if a fault ever cleared it.
                    let packets = source.poll(now);
                    let next = source.next_packet_at();
                    for packet in packets {
                        vn.node.publish(now, packet);
                    }
                    if next <= end {
                        self.wheel.push(next, Fire::Source(l));
                    }
                }
                self.drain_outputs(local, now);
            }
            Fire::Shaper(l, ep) => {
                let local = l as usize;
                let vn = &mut self.nodes[local];
                if vn.epoch != ep {
                    return; // the crash already reset the shaper
                }
                vn.shaper_armed = false;
                if vn.down {
                    return;
                }
                self.flush_shaper(local, now);
            }
            Fire::Fault(k) => self.apply_fault(k as usize, now),
        }
    }

    /// Applies the k-th compiled fault event. Crash and rejoin concern only
    /// the hosting shard; a join also updates the membership every active
    /// node selects partners from; partition and throttle events are
    /// network-wide and tracked (or applied to hosted victims) by every
    /// shard identically.
    fn apply_fault(&mut self, k: usize, now: Time) {
        let event = self.compiled.timeline.events()[k];
        match event.action {
            FaultAction::Crash(v) => {
                if let Some(local) = self.local_slot(v) {
                    if !self.nodes[local].down {
                        self.nodes[local].crash();
                    }
                }
            }
            FaultAction::Rejoin(v) => {
                if let Some(local) = self.local_slot(v) {
                    if self.nodes[local].down {
                        let members = self.members.clone();
                        let free_rider = self.compiled.profiles[v.index()].free_rider;
                        self.nodes[local].revive(&self.cluster, members, free_rider);
                        self.nodes[local].members_seen = self.members_version;
                        self.arm_round(local, now);
                    }
                }
            }
            FaultAction::Join(v) => match self.cluster.joiner_bootstrap {
                JoinerBootstrap::Tracker => {
                    // A tracker-style introduction, like the simulator's
                    // full-membership mode — but applied lazily: bumping the
                    // version makes every local node refresh its membership at
                    // its next gossip round (one clone per node per join
                    // *wave*, not per join — a 100-node flash crowd would
                    // otherwise cost O(joins × nodes) clones inside the
                    // real-time loop).
                    self.members.push(v);
                    self.members_version += 1;
                    if let Some(local) = self.local_slot(v) {
                        let vn = &mut self.nodes[local];
                        debug_assert!(vn.down, "double join of {v}");
                        vn.node.set_membership(self.members.clone());
                        vn.members_seen = self.members_version;
                        vn.down = false;
                        self.arm_round(local, now);
                    }
                }
                JoinerBootstrap::Cyclon { degree } => {
                    // No tracker push: the census grows (later bootstrap
                    // samples and rejoins see the joiner) but nobody is
                    // told and `members_version` stays put. The joiner
                    // starts from a bounded random partial view; its
                    // per-round shuffles carry its id outward, and
                    // established nodes adopt it on contact — knowledge
                    // spreads epidemically instead of by directory.
                    let sample: Vec<NodeId> = {
                        let candidates: Vec<NodeId> =
                            self.members.iter().copied().filter(|&m| m != v).collect();
                        let picked = self.membership_rng.sample_indices(candidates.len(), degree);
                        picked.into_iter().map(|k| candidates[k]).collect()
                    };
                    self.members.push(v);
                    if let Some(local) = self.local_slot(v) {
                        let view = CyclonView::new(v, CyclonConfig::default_small(), &sample);
                        let vn = &mut self.nodes[local];
                        debug_assert!(vn.down, "double join of {v}");
                        let mut membership = view.view();
                        membership.push(v);
                        vn.node.set_membership(membership);
                        vn.view = Some(view);
                        vn.members_seen = self.members_version;
                        vn.down = false;
                        self.arm_round(local, now);
                    }
                }
            },
            FaultAction::Partition(_) | FaultAction::Heal(_) => {
                self.partition.on_event(event.action);
            }
            FaultAction::ThrottleStart(t) | FaultAction::ThrottleEnd(t) => {
                let compiled = Arc::clone(&self.compiled);
                let plan = &compiled.throttles[t as usize];
                let throttled = matches!(event.action, FaultAction::ThrottleStart(_));
                for &v in &plan.victims {
                    if let Some(local) = self.local_slot(v) {
                        let vn = &mut self.nodes[local];
                        let rate = if throttled { plan.cap_bps } else { vn.base_rate };
                        vn.shaper.set_rate(rate);
                    }
                }
            }
        }
    }

    /// The local slot of node `v` when this shard hosts it.
    fn local_slot(&self, v: NodeId) -> Option<usize> {
        let g = v.as_u32();
        (self.placement.contains(g) && self.placement.shard_of(g) == self.index)
            .then(|| self.placement.local_of(g))
            .filter(|&local| local < self.nodes.len())
    }

    /// Starts (or restarts) a node's round chain, staggered within one
    /// gossip period by id like the initial deployment.
    fn arm_round(&mut self, local: usize, now: Time) {
        let vn = &self.nodes[local];
        let period = self.cluster.gossip.gossip_period;
        let phase = Duration::from_micros(
            u64::from(vn.id.as_u32()) * period.as_micros() / self.compiled.total_n as u64,
        );
        self.wheel.push(now + phase, Fire::Round(local as u32, vn.epoch));
    }

    /// Drains the protocol outputs of one node into its shaper, player and
    /// the timer wheel, then moves released datagrams to the outbox.
    fn drain_outputs(&mut self, local: usize, now: Time) {
        let vn = &mut self.nodes[local];
        while let Some(out) = vn.node.poll_output() {
            match out {
                Output::Send { to, msg } => {
                    // A Byzantine host corrupts its node's *output* at the
                    // runtime boundary, before the bytes exist — the node
                    // itself runs honest code (see `gossip_stream::byzantine`).
                    let msg = match self.compiled.profiles[vn.id.index()].byzantine {
                        Some(ByzantineBehaviour::ServeCorrupt) => byzantine::corrupt_serves(msg),
                        Some(ByzantineBehaviour::ProposeGarbage) => byzantine::garble_proposes(msg),
                        _ => msg,
                    };
                    let bytes = encode_message(vn.id, &msg);
                    let len = bytes.len();
                    // The shaper charges the unframed wire size, not the
                    // demux framing.
                    vn.shaper.offer(now, len, (to, bytes));
                }
                Output::Deliver { event } => {
                    // Only verified payloads count as watchable (matches
                    // the sim's measurement boundary).
                    if event.verify() {
                        vn.player.on_packet(now, event.packet_id());
                    }
                }
                Output::ScheduleTimer { token, at } => {
                    self.wheel.push(at, Fire::Timer(local as u32, token, vn.epoch));
                }
            }
        }
        self.flush_shaper(local, now);
    }

    /// Moves everything the node's shaper has released into the shard
    /// outbox — each datagram first drawing its fate from the node's
    /// chaos stream, when a plan is active — and arms one wheel deadline
    /// for the earliest datagram still held back.
    fn flush_shaper(&mut self, local: usize, now: Time) {
        let home = self.nodes[local].home_socket;
        while let Some((to, bytes)) = self.nodes[local].shaper.pop_due(now) {
            let fate = match self.chaos.as_mut() {
                Some(c) => c.senders[local].fate(&c.plan, bytes.len()),
                None => DatagramFate::Deliver,
            };
            match fate {
                DatagramFate::Deliver => self.enqueue(home, to, bytes, now),
                DatagramFate::Drop => self.stats.faults_injected += 1,
                DatagramFate::Duplicate => {
                    self.stats.faults_injected += 1;
                    self.enqueue(home, to, bytes.clone(), now);
                    self.enqueue(home, to, bytes, now);
                }
                DatagramFate::Truncate(at) => {
                    self.stats.faults_injected += 1;
                    self.enqueue(home, to, bytes[..at.min(bytes.len())].to_vec(), now);
                }
                DatagramFate::Delay => {
                    self.stats.faults_injected += 1;
                    if let Some(c) = self.chaos.as_mut() {
                        c.delayed.push((home, to, bytes));
                    }
                }
                DatagramFate::Reorder => {
                    self.stats.faults_injected += 1;
                    self.enqueue(home, to, bytes, now);
                    let n = self.outbox.len();
                    if n >= 2 {
                        self.outbox.swap(n - 1, n - 2);
                    }
                }
            }
        }
        let vn = &mut self.nodes[local];
        if !vn.shaper_armed {
            if let Some(at) = vn.shaper.next_release() {
                self.wheel.push(at, Fire::Shaper(local as u32, vn.epoch));
                vn.shaper_armed = true;
            }
        }
    }

    /// Appends one datagram to the outbox, keeping the byte gauge and the
    /// age clock in step.
    fn enqueue(&mut self, home: usize, to: NodeId, bytes: Vec<u8>, now: Time) {
        self.outbox_bytes += bytes.len();
        self.outbox.push((home, to, bytes));
        self.outbox_since.get_or_insert(now);
    }

    /// Flushes the outbox if it holds a worthwhile `sendmmsg` batch
    /// ([`MIN_FLUSH_DATAGRAMS`]) or its oldest datagram has waited
    /// [`MAX_FLUSH_HOLD`] — the policy that keeps batches dense even when
    /// an idle loop iterates every few microseconds. With an empty outbox
    /// a flush still runs when a socket's backoff has expired and retained
    /// datagrams are waiting for their retry.
    fn maybe_flush(&mut self) -> std::io::Result<()> {
        self.shed_outbox();
        let due = match self.outbox_since {
            Some(since) => {
                self.outbox.len() >= MIN_FLUSH_DATAGRAMS
                    || self.clock.now() >= since + MAX_FLUSH_HOLD
            }
            None => self.retry_due(),
        };
        if due {
            self.flush_outbox()?;
        }
        Ok(())
    }

    /// Whether any socket holds retained datagrams whose backoff has
    /// expired (or never backed off at all, e.g. after a re-bind).
    fn retry_due(&self) -> bool {
        let now = self.clock.now();
        self.recovery
            .iter()
            .any(|r| !r.pending.is_empty() && r.backoff_until.is_none_or(|until| now >= until))
    }

    /// Sheds the oldest outbox datagrams once the backlog exceeds
    /// [`OUTBOX_BYTE_BUDGET`]: send failures must never grow an unbounded
    /// queue that stalls the timer wheel. Shed datagrams are counted; the
    /// protocol's FEC + retransmission absorb the loss.
    fn shed_outbox(&mut self) {
        if self.outbox_bytes <= OUTBOX_BYTE_BUDGET {
            return;
        }
        let mut freed = 0;
        let mut k = 0;
        while self.outbox_bytes - freed > OUTBOX_BYTE_BUDGET && k < self.outbox.len() {
            freed += self.outbox[k].2.len();
            k += 1;
        }
        self.outbox.drain(..k);
        self.outbox_bytes -= freed;
        self.stats.datagrams_shed += k as u64;
    }

    /// Packs the outbox into the send arena — grouped by sending socket,
    /// consecutive datagrams for the same destination address coalesced
    /// into one kernel datagram (up to [`MAX_COALESCED`] bytes) — and
    /// flushes each socket's queue through the batched backend, retained
    /// datagrams from earlier transient failures going out first.
    ///
    /// UDP semantics throughout: a full kernel buffer drops the datagram,
    /// like any congested link; the protocol's FEC + retransmission absorb
    /// it.
    fn flush_outbox(&mut self) -> std::io::Result<()> {
        self.outbox_since = None;
        self.outbox_bytes = 0;
        let now = self.clock.now();
        // The scheduled ENOSYS fires at the shard level: the next batched
        // flush discovers the syscall gone and downgrades, once.
        if self.backend == Backend::Mmsg {
            if let Some(c) = self.chaos.as_mut() {
                if c.plan.enosys_at.is_some_and(|t| now >= t) {
                    c.plan.enosys_at = None;
                    self.backend = Backend::Fallback;
                    self.stats.faults_injected += 1;
                    self.stats.backend_downgrades += 1;
                }
            }
        }
        let outbox = std::mem::take(&mut self.outbox);
        let mut queue = std::mem::take(&mut self.send_queue);
        for si in 0..self.sockets.len() {
            for (_, to, bytes) in outbox.iter().filter(|e| e.0 == si) {
                let addr = self.addresses[to.index()];
                let fits = queue.open_len() + demux::HEADER_LEN + bytes.len() <= MAX_COALESCED;
                if queue.open_addr() != Some(addr) || !fits {
                    queue.close();
                    queue.open(addr);
                }
                if demux::append_frame(queue.buf_mut(), *to, bytes) {
                    self.stats.datagrams_sent += 1;
                } else {
                    self.stats.encode_errors += 1;
                }
            }
            queue.close();
            self.flush_socket(si, &mut queue, now)?;
        }
        self.send_queue = queue;
        // Hand the (now empty) allocation back for the next iteration.
        self.outbox = outbox;
        self.outbox.clear();
        // Chaos-delayed datagrams re-enter the outbox after the flush
        // they sat out.
        if let Some(c) = self.chaos.as_mut() {
            let delayed = std::mem::take(&mut c.delayed);
            for (home, to, bytes) in delayed {
                self.enqueue(home, to, bytes, now);
            }
        }
        Ok(())
    }

    /// Drains one socket's packed queue through the backend (chaos
    /// interposed when a plan is active), honouring its backoff clock and
    /// handling the drain verdict: exponential backoff with deterministic
    /// jitter on transient failures, a backend downgrade on ENOSYS, an
    /// in-place re-bind on fatal errors. Retained datagrams go out ahead
    /// of this flush's batch, oldest first.
    fn flush_socket(&mut self, si: usize, queue: &mut SendQueue, now: Time) -> std::io::Result<()> {
        {
            let rec = &mut self.recovery[si];
            // Retained traffic for a live stream goes stale: past the age
            // budget it is shed wholesale rather than flooding peers with
            // obsolete windows on recovery.
            if rec.pending_since.is_some_and(|since| now >= since + PENDING_AGE_BUDGET) {
                self.stats.datagrams_shed += rec.pending.len() as u64;
                rec.pending.clear();
                rec.pending_since = None;
            }
            if rec.backoff_until.is_some_and(|until| now < until) {
                // Still backing off: retain this flush's batch behind the
                // already-pending datagrams and keep the budgets enforced.
                for k in 0..queue.len() {
                    let (bytes, addr) = queue.seg(k);
                    rec.pending.push_datagram(addr, bytes);
                }
                queue.clear();
                if !rec.pending.is_empty() {
                    rec.pending_since.get_or_insert(now);
                }
                Self::shed_pending(rec, &mut self.scratch_queue, &mut self.stats);
                return Ok(());
            }
            rec.backoff_until = None;
            if !rec.pending.is_empty() {
                // Retry window: retained datagrams lead, this flush's
                // batch follows, order preserved.
                for k in 0..queue.len() {
                    let (bytes, addr) = queue.seg(k);
                    rec.pending.push_datagram(addr, bytes);
                }
                queue.clear();
                std::mem::swap(queue, &mut rec.pending);
                rec.pending_since = None;
            }
        }
        if queue.is_empty() {
            return Ok(());
        }
        let verdict = match self.chaos.as_mut() {
            Some(c) => chaos::flush_queue_chaos(
                self.backend,
                &c.plan,
                &mut c.sockets[si],
                now,
                &self.sockets[si],
                queue,
                &mut self.recovery[si].pending,
                &mut self.stats,
            ),
            None => mmsg::flush_queue(
                self.backend,
                &self.sockets[si],
                queue,
                &mut self.recovery[si].pending,
                &mut self.stats,
            ),
        };
        let rec = &mut self.recovery[si];
        match verdict {
            SendVerdict::Drained => rec.backoff_level = 0,
            SendVerdict::Backoff => {
                let base = BACKOFF_BASE.as_micros() << rec.backoff_level.min(4);
                let capped = base.min(BACKOFF_CAP.as_micros());
                let jitter = rec.jitter.range_u64(0, capped / 2 + 1);
                rec.backoff_until = Some(now + Duration::from_micros(capped + jitter));
                rec.backoff_level = (rec.backoff_level + 1).min(8);
                rec.pending_since.get_or_insert(now);
                self.stats.send_backoffs += 1;
                Self::shed_pending(rec, &mut self.scratch_queue, &mut self.stats);
            }
            SendVerdict::Downgrade => {
                self.backend = Backend::Fallback;
                self.stats.backend_downgrades += 1;
                if !rec.pending.is_empty() {
                    rec.pending_since.get_or_insert(now);
                }
            }
            SendVerdict::Rebind => {
                if !rec.pending.is_empty() {
                    rec.pending_since.get_or_insert(now);
                }
            }
        }
        if verdict == SendVerdict::Rebind {
            self.rebind_socket(si)?;
        }
        Ok(())
    }

    /// Sheds the oldest retained datagrams once a socket's pending queue
    /// exceeds [`PENDING_BYTE_BUDGET`].
    fn shed_pending(rec: &mut SocketRecovery, scratch: &mut SendQueue, stats: &mut ShardStats) {
        if rec.pending.byte_len() <= PENDING_BYTE_BUDGET {
            return;
        }
        let mut excess = rec.pending.byte_len() - PENDING_BYTE_BUDGET;
        let mut dropped = 0;
        for k in 0..rec.pending.len() {
            if excess == 0 {
                break;
            }
            let (bytes, _) = rec.pending.seg(k);
            excess = excess.saturating_sub(bytes.len());
            dropped += 1;
        }
        scratch.clear();
        for k in dropped..rec.pending.len() {
            let (bytes, addr) = rec.pending.seg(k);
            scratch.push_datagram(addr, bytes);
        }
        std::mem::swap(&mut rec.pending, scratch);
        scratch.clear();
        stats.datagrams_shed += dropped as u64;
    }

    /// Re-binds a dead pool socket to its original local address, restoring
    /// non-blocking mode and the kernel buffer sizes. The old socket is
    /// dropped first (via a throwaway placeholder) so the port is free to
    /// re-bind.
    fn rebind_socket(&mut self, si: usize) -> std::io::Result<()> {
        let placeholder = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        drop(std::mem::replace(&mut self.sockets[si], placeholder));
        let fresh = UdpSocket::bind(self.local_addrs[si])?;
        fresh.set_nonblocking(true)?;
        mmsg::set_socket_buffers(&fresh, self.socket_buffer_bytes);
        self.sockets[si] = fresh;
        self.stats.socket_rebinds += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;
    use std::thread;

    use super::*;

    /// Boots one shard hosting a 4-node cluster, floods its only socket
    /// with malformed traffic for a few hundred milliseconds, then stops
    /// it and returns what it reported.
    fn shard_under_flood(backend: Backend) -> (Vec<NodeReport>, ShardStats) {
        let mut cluster = ClusterConfig::smoke_test();
        cluster.n = 4;
        cluster.stream_duration = Duration::from_secs(30); // outlives the test window
        let compiled = Arc::new(cluster.compiled_adversity());
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = socket.local_addr().expect("addr");
        let addresses = Arc::new(vec![addr; compiled.total_n]);
        let stop = Arc::new(AtomicBool::new(false));
        let config = ShardConfig {
            index: 0,
            placement: demux::Placement::whole(4, 1),
            recv_batch: 8,
            backend,
            cluster,
            compiled,
            sockets: vec![socket],
            addresses,
            socket_buffer_bytes: 1 << 20,
            clock: ClusterClock::start(),
            stop: Arc::clone(&stop),
            telemetry: None,
        };
        let handle = thread::spawn(move || run_shard(config));

        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        // Three flavours of damage: a runt tail shorter than a frame
        // header, a length field running past the datagram end, and
        // well-framed junk that fails protocol decode at node 1.
        let runt = [0xFFu8; 9];
        let mut overrun = Vec::new();
        overrun.extend_from_slice(&1u32.to_le_bytes());
        overrun.extend_from_slice(&60_000u16.to_le_bytes());
        overrun.extend_from_slice(&[0xAB; 32]);
        let mut junk = Vec::new();
        assert!(demux::append_frame(&mut junk, NodeId::new(1), &[0x7F; 24]));
        for _wave in 0..10 {
            for _ in 0..500 {
                for datagram in [&runt[..], &overrun[..], &junk[..]] {
                    let _ = tx.send_to(datagram, addr);
                }
            }
            thread::sleep(std::time::Duration::from_millis(30));
        }
        stop.store(true, Ordering::Relaxed);
        let (reports, stats, failure) = handle.join().expect("shard thread");
        assert!(failure.is_none(), "shard io failed: {failure:?}");
        (reports, stats)
    }

    /// Regression test for the recv head-of-line stall: a sustained
    /// malformed-datagram flood must be salvaged deterministically and
    /// counted — never panic — while the budgeted drain keeps the timer
    /// wheel firing (rounds and source emissions continue throughout).
    #[test]
    fn garbage_flood_is_counted_and_never_stalls_the_loop() {
        let (reports, stats) = shard_under_flood(mmsg::select_backend(None));
        assert!(stats.frame_errors > 0, "malformed kernel datagrams must be counted");
        let decode_errors: u64 = reports.iter().map(|r| r.decode_errors).sum();
        assert!(decode_errors > 0, "well-framed junk must land on the node's decode_errors");
        // Timer-driven work kept happening under the flood: the source
        // emits every ~20 ms and every node keeps its 100 ms round chain,
        // all of which produce sends — impossible if ingress starved the
        // wheel.
        assert!(stats.iterations > 50, "only {} iterations under flood", stats.iterations);
        assert!(stats.datagrams_sent > 0, "rounds and source emissions must keep firing");
    }
}
