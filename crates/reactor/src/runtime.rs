//! The cluster runtime: binds the socket pools, spawns the shards, stops
//! the run and assembles the report.
//!
//! Two layers live here. [`NodeHost`] is the deployable half: it binds the
//! socket pools for one process's id-slice, exposes the local part of the
//! address book, and runs the shards against an *externally supplied*
//! clock, stop flag and full address table — which is exactly what a
//! multi-process `gossipd` needs (the `gossip-deploy` crate drives it).
//! [`ReactorCluster`] is the single-process convenience on top: whole id
//! space, fresh clock, sleep-then-stop, report assembled in place.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use gossip_adversity::CompiledAdversity;
use gossip_types::NodeId;
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::{assemble_report, ClusterConfig, ClusterError, ClusterReport};
use gossip_udp::report::{NodeReport, ShardStats};

use crate::demux::Placement;
use crate::shard::{run_shard, ShardConfig};

/// How often a running host rechecks its stop flag while waiting out the
/// run: short enough that a signal or coordinator stop is honoured
/// promptly, long enough to cost nothing.
const STOP_POLL: std::time::Duration = std::time::Duration::from_millis(20);

/// Tuning knobs of the reactor runtime (the workload itself comes from
/// [`ClusterConfig`]).
///
/// The defaults host a 1000-node cluster comfortably on a typical
/// multi-core box; all three knobs only trade CPU against latency, never
/// correctness.
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Number of worker shards (`None` = one per available core, capped so
    /// every shard hosts at least a handful of nodes).
    pub shards: Option<usize>,
    /// Non-blocking sockets per shard; nodes stripe across the pool.
    pub sockets_per_shard: usize,
    /// Maximum datagrams drained per socket per loop iteration (also the
    /// `recvmmsg` batch size, capped at the backend's vector limit). The
    /// budget is what keeps timers on time under ingress floods.
    pub recv_batch: usize,
    /// Kernel batching: `None` auto-detects (`sendmmsg`/`recvmmsg` where
    /// available unless the `GOSSIP_REACTOR_NO_MMSG` environment toggle is
    /// set), `Some(false)` pins the portable per-datagram fallback,
    /// `Some(true)` asks for batching but still degrades gracefully where
    /// the syscalls do not exist.
    pub mmsg: Option<bool>,
    /// Requested kernel send/receive buffer size per pool socket, applied
    /// best-effort at bind time (`SO_*BUFFORCE` where privileged, the
    /// sysctl-clamped plain options otherwise). Each shared socket carries
    /// the traffic of hundreds of nodes; distribution-default ~200 KiB
    /// buffers overflow under burst and every overflow is a datagram lost
    /// on loopback.
    pub socket_buffer_bytes: usize,
    /// Address the pool sockets bind to (port 0: the kernel picks).
    /// Loopback by default; a deployed `gossipd` binds a routable
    /// interface so peer processes on other hosts can reach it.
    pub bind_addr: Ipv4Addr,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            shards: None,
            sockets_per_shard: 4,
            recv_batch: 64,
            mmsg: None,
            socket_buffer_bytes: 8 << 20,
            bind_addr: Ipv4Addr::LOCALHOST,
        }
    }
}

impl ReactorOptions {
    /// Resolves the shard count for `n` hosted nodes.
    fn resolve_shards(&self, n: usize) -> usize {
        if let Some(s) = self.shards {
            return s.max(1).min(n);
        }
        let cores = thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        // No point spinning up a shard for fewer than ~16 nodes.
        cores.min(n.div_ceil(16)).max(1)
    }
}

/// What a finished [`NodeHost::run`] hands back: the hosted nodes' reports
/// plus this process's I/O accounting. One process of a deployment ships
/// this to its coordinator; [`ReactorCluster`] feeds it straight into
/// [`assemble_report`].
#[derive(Debug)]
pub struct HostOutcome {
    /// One report per hosted node. A shard that aborted on an I/O error
    /// still contributes the state its nodes had accumulated; only a
    /// *panicking* shard loses its nodes.
    pub nodes: Vec<NodeReport>,
    /// Per-shard I/O statistics — including those of shards that aborted
    /// on an I/O error mid-run, so a degraded report still carries their
    /// io/recovery counters.
    pub shard_stats: Vec<ShardStats>,
    /// Shards that aborted mid-run (panic or unrecoverable I/O error).
    pub aborted_shards: usize,
    /// Whether the run was cut short by an external stop (signal or
    /// coordinator) before its scheduled deadline.
    pub degraded: bool,
    /// The sampled telemetry series of the run (present only when the
    /// cluster config enabled telemetry).
    pub telemetry: Option<gossip_telemetry::TelemetrySeries>,
}

/// One process's half of a reactor cluster: the socket pools and shard
/// threads hosting a contiguous slice of the id space.
///
/// Binding and running are split so a deployment can interleave discovery:
/// bind first, publish [`NodeHost::local_addresses`] to the tracker, learn
/// every peer's addresses, then [`NodeHost::run`] with the full table and
/// a shared wall-clock epoch. The demux id-prefix makes placement
/// location-transparent — a frame for node `g` routes the same way whether
/// `g`'s home socket is in this process or another host's.
#[derive(Debug)]
pub struct NodeHost {
    config: ClusterConfig,
    compiled: Arc<CompiledAdversity>,
    placement: Placement,
    recv_batch: usize,
    socket_buffer_bytes: usize,
    backend: crate::mmsg::Backend,
    pools: Vec<Vec<UdpSocket>>,
    local_addresses: Vec<(NodeId, SocketAddr)>,
    /// The telemetry hub, started at bind time (when the config asks for
    /// one) so the scrape endpoint is known — and scrapeable — before the
    /// run starts.
    telemetry: Option<gossip_telemetry::Hub>,
}

impl NodeHost {
    /// Binds the socket pools for the id-slice `[lo, hi)` of `config`'s
    /// cluster (`None`: the whole id space, joiners included).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Io`] if a socket cannot be bound and
    /// [`ClusterError::Unsupported`] if the slice is empty or runs past
    /// the compiled population.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical options (zero sockets per shard or a zero
    /// receive batch) — configuration bugs, not runtime conditions.
    pub fn bind(
        config: ClusterConfig,
        options: &ReactorOptions,
        slice: Option<(u32, u32)>,
    ) -> Result<NodeHost, ClusterError> {
        assert!(config.n >= 2, "a cluster needs a source and at least one receiver");
        assert!(options.sockets_per_shard >= 1, "each shard needs at least one socket");
        assert!(options.recv_batch >= 1, "the receive batch must be positive");
        // The reactor hosts the full compiled plan: crashed nodes revive
        // with fresh state, flash-crowd joiners boot mid-run, so slices
        // and the address book are sized for the total population (base
        // nodes plus joiners).
        let compiled = Arc::new(config.compiled_adversity());
        let total_n = compiled.total_n as u32;
        let (lo, hi) = slice.unwrap_or((0, total_n));
        if lo >= hi || hi > total_n {
            return Err(ClusterError::Unsupported(format!(
                "id slice [{lo}, {hi}) does not fit the compiled population of {total_n}"
            )));
        }
        let shards = options.resolve_shards((hi - lo) as usize);
        let placement = Placement::slice(lo, hi, shards);
        // Resolve the I/O backend once (runtime probe + env toggle +
        // explicit preference); every shard runs the same path.
        let backend = crate::mmsg::select_backend(options.mmsg);

        // Bind every shard's pool up front so this process's part of the
        // address book exists before anything starts.
        let mut pools: Vec<Vec<UdpSocket>> = Vec::with_capacity(shards);
        let mut pool_addrs: Vec<Vec<SocketAddr>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut pool = Vec::with_capacity(options.sockets_per_shard);
            let mut addrs = Vec::with_capacity(options.sockets_per_shard);
            for _ in 0..options.sockets_per_shard {
                let socket = UdpSocket::bind((options.bind_addr, 0)).map_err(ClusterError::Io)?;
                crate::mmsg::set_socket_buffers(&socket, options.socket_buffer_bytes);
                addrs.push(socket.local_addr().map_err(ClusterError::Io)?);
                pool.push(socket);
            }
            pools.push(pool);
            pool_addrs.push(addrs);
        }

        // Hosted node id → its home socket's address, in id order.
        let local_addresses = (lo..hi)
            .map(|g| {
                let shard = placement.shard_of(g);
                let local = placement.local_of(g);
                let home = crate::demux::home_socket(local, options.sockets_per_shard);
                (NodeId::new(g), pool_addrs[shard][home])
            })
            .collect();

        let telemetry = match &config.telemetry {
            Some(tc) => Some(gossip_telemetry::Hub::start(tc).map_err(ClusterError::Io)?),
            None => None,
        };

        Ok(NodeHost {
            config,
            compiled,
            placement,
            recv_batch: options.recv_batch,
            socket_buffer_bytes: options.socket_buffer_bytes,
            backend,
            pools,
            local_addresses,
            telemetry,
        })
    }

    /// The address of the live scrape endpoint, when the cluster config
    /// enabled telemetry. Available from bind time, so a deployment can
    /// publish it (and an operator can scrape it) while the run is live.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry.as_ref().map(gossip_telemetry::Hub::scrape_addr)
    }

    /// The hosted nodes and their home socket addresses, in id order —
    /// what a deployed process publishes to the tracker.
    pub fn local_addresses(&self) -> &[(NodeId, SocketAddr)] {
        &self.local_addresses
    }

    /// Total population of the compiled plan (base nodes plus joiners):
    /// the length the full address table must have.
    pub fn total_n(&self) -> usize {
        self.compiled.total_n
    }

    /// The id slice this host serves.
    pub fn slice(&self) -> (u32, u32) {
        (self.placement.lo, self.placement.hi)
    }

    /// Runs the hosted slice until `run_for` elapses on the shared clock
    /// or `stop` is raised externally, whichever comes first, then stops
    /// the shards and collects their reports.
    ///
    /// `addresses[g]` must be node `g`'s home socket address for *every*
    /// node of the cluster — this process's from
    /// [`NodeHost::local_addresses`], every other process's learned via
    /// the tracker. The `clock` fixes where `Time::ZERO` falls; a
    /// deployment anchors all processes' clocks on one wall-clock start
    /// so the compiled fault timelines coincide.
    ///
    /// # Errors
    ///
    /// Returns an error only if *every* shard aborted without handing
    /// back any state (all panicked); failures surface as
    /// [`HostOutcome::aborted_shards`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `addresses` does not cover the compiled population.
    pub fn run(
        self,
        addresses: Arc<Vec<SocketAddr>>,
        clock: ClusterClock,
        stop: Arc<AtomicBool>,
        run_for: std::time::Duration,
    ) -> Result<HostOutcome, ClusterError> {
        assert_eq!(
            addresses.len(),
            self.compiled.total_n,
            "the address table must cover every node of the cluster"
        );
        let shards = self.placement.shards;
        let mut handles = Vec::with_capacity(shards);
        for (index, sockets) in self.pools.into_iter().enumerate() {
            let shard_config = ShardConfig {
                index,
                placement: self.placement,
                recv_batch: self.recv_batch,
                backend: self.backend,
                cluster: self.config.clone(),
                compiled: Arc::clone(&self.compiled),
                sockets,
                addresses: Arc::clone(&addresses),
                socket_buffer_bytes: self.socket_buffer_bytes,
                clock,
                stop: Arc::clone(&stop),
                telemetry: self
                    .telemetry
                    .as_ref()
                    .map(|hub| crate::telemetry::ShardTelemetry::register(hub.registry(), index)),
            };
            // A panicking shard must not sink the run: the unwind is caught
            // at the thread boundary, the shard's nodes are reported
            // missing, and the survivors' report is still assembled. (In
            // the release profile panics abort; this isolation exists for
            // the dev/test profile and for bugs in the fault injectors.)
            let handle = thread::Builder::new()
                .name(format!("gossip-shard-{index}"))
                .spawn(move || catch_unwind(AssertUnwindSafe(move || run_shard(shard_config))))
                .map_err(ClusterError::Io)?;
            handles.push(handle);
        }

        // Wait out the run, honouring an external stop (operator signal,
        // coordinator abort) promptly: that cuts the measurement short and
        // marks the outcome degraded instead of losing it.
        let deadline = Instant::now() + run_for;
        let mut degraded = false;
        loop {
            if stop.load(Ordering::Relaxed) {
                degraded = true;
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            thread::sleep((deadline - now).min(STOP_POLL));
        }
        stop.store(true, Ordering::Relaxed);

        let mut nodes = Vec::with_capacity(self.placement.hosted());
        let mut shard_stats = Vec::with_capacity(shards);
        let mut aborted = 0;
        let mut failed_ok = 0;
        let mut first_failure: Option<ClusterError> = None;
        for (index, handle) in handles.into_iter().enumerate() {
            // Three failure layers per shard: the thread itself (join),
            // the caught unwind, and the shard's own I/O result. A panic
            // costs the shard's nodes; an I/O abort keeps the partial
            // reports and stats the shard had accumulated (an operator
            // signal must not erase the io/recovery counters of shards
            // that never finished their drain). Either way the run
            // survives — unless every shard is gone, in which case the
            // first failure is reported.
            let caught = handle
                .join()
                .map_err(|_| ClusterError::ShardPanic(index))
                .and_then(|caught| caught.map_err(|_| ClusterError::ShardPanic(index)));
            match caught {
                Ok((reports, stats, failure)) => {
                    nodes.extend(reports);
                    shard_stats.push(stats);
                    if let Some(e) = failure {
                        aborted += 1;
                        failed_ok += 1;
                        first_failure.get_or_insert(ClusterError::Io(e));
                    }
                }
                Err(e) => {
                    aborted += 1;
                    first_failure.get_or_insert(e);
                }
            }
        }
        if aborted == shards && failed_ok == 0 {
            return Err(first_failure.unwrap_or(ClusterError::ShardPanic(0)));
        }
        let telemetry = self.telemetry.map(gossip_telemetry::Hub::finish);
        Ok(HostOutcome { nodes, shard_stats, aborted_shards: aborted, degraded, telemetry })
    }
}

/// The single-process cluster runner: hosts every node of a
/// [`ClusterConfig`] on sharded shared sockets and returns the assembled
/// [`ClusterReport`].
#[derive(Debug)]
pub struct ReactorCluster;

impl ReactorCluster {
    /// Runs a cluster to completion with default [`ReactorOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Io`] if sockets cannot be bound or a
    /// shard's socket fails mid-run, and [`ClusterError::ShardPanic`] (with
    /// the shard index) if a shard thread dies.
    pub fn run(config: ClusterConfig) -> Result<ClusterReport, ClusterError> {
        Self::run_with(config, ReactorOptions::default())
    }

    /// Runs a cluster to completion with explicit runtime options.
    ///
    /// # Errors
    ///
    /// See [`ReactorCluster::run`].
    pub fn run_with(
        config: ClusterConfig,
        options: ReactorOptions,
    ) -> Result<ClusterReport, ClusterError> {
        let host = NodeHost::bind(config.clone(), &options, None)?;
        let addresses: Arc<Vec<SocketAddr>> =
            Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
        let run_for = ClusterClock::to_std(config.stream_duration + config.drain_duration);
        let outcome =
            host.run(addresses, ClusterClock::start(), Arc::new(AtomicBool::new(false)), run_for)?;
        let mut report = assemble_report(&config, outcome.nodes);
        report.shard_stats = outcome.shard_stats;
        report.aborted_shards = outcome.aborted_shards;
        report.degraded = outcome.degraded;
        report.telemetry = outcome.telemetry;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_resolve_sane_shard_counts() {
        let opts = ReactorOptions::default();
        assert_eq!(opts.resolve_shards(2), 1, "tiny clusters get one shard");
        assert!(opts.resolve_shards(10_000) >= 1);
        let pinned = ReactorOptions { shards: Some(3), ..ReactorOptions::default() };
        assert_eq!(pinned.resolve_shards(1000), 3);
        assert_eq!(pinned.resolve_shards(2), 2, "never more shards than nodes");
    }

    fn assert_smoke_disseminates(report: &ClusterReport) {
        assert_eq!(report.receivers(), 7);
        assert!(report.windows_measured >= 3);
        let avg = report.quality.average_quality_percent(gossip_types::Duration::MAX);
        assert!(avg >= 80.0, "average offline quality {avg}% too low");
        assert!(report.windows_verified > 0, "some windows must be byte-verified");
        let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
        assert_eq!(decode_errors, 0, "no malformed datagrams on loopback");
        assert!(!report.degraded, "an undisturbed run is never degraded");
    }

    #[test]
    fn smoke_reactor_disseminates() {
        assert_smoke_disseminates(&ReactorCluster::run(ClusterConfig::smoke_test()).expect("runs"));
    }

    /// The smoke cluster split over two shards, so half of all traffic
    /// crosses shard sockets (the default puts its 8 nodes on one shard).
    #[test]
    fn smoke_reactor_disseminates_across_two_shards() {
        let opts = ReactorOptions { shards: Some(2), ..ReactorOptions::default() };
        let report = ReactorCluster::run_with(ClusterConfig::smoke_test(), opts).expect("runs");
        assert_smoke_disseminates(&report);
    }

    #[test]
    fn invalid_slices_are_rejected_at_bind() {
        let config = ClusterConfig::smoke_test(); // n = 8
        let opts = ReactorOptions::default();
        assert!(matches!(
            NodeHost::bind(config.clone(), &opts, Some((4, 4))),
            Err(ClusterError::Unsupported(_))
        ));
        assert!(matches!(
            NodeHost::bind(config, &opts, Some((0, 9))),
            Err(ClusterError::Unsupported(_))
        ));
    }

    #[test]
    fn bound_slice_publishes_its_ids_in_order() {
        let host =
            NodeHost::bind(ClusterConfig::smoke_test(), &ReactorOptions::default(), Some((2, 6)))
                .expect("binds");
        assert_eq!(host.slice(), (2, 6));
        assert_eq!(host.total_n(), 8);
        let ids: Vec<u32> = host.local_addresses().iter().map(|&(id, _)| id.as_u32()).collect();
        assert_eq!(ids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn external_stop_marks_the_outcome_degraded() {
        let config = ClusterConfig::smoke_test();
        let host = NodeHost::bind(config, &ReactorOptions::default(), None).expect("binds");
        let addresses: Arc<Vec<SocketAddr>> =
            Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let stopper = Arc::clone(&stop);
        let killer = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(300));
            stopper.store(true, Ordering::Relaxed);
        });
        let outcome = host
            .run(
                addresses,
                ClusterClock::start(),
                stop,
                std::time::Duration::from_secs(60), // far past the stop
            )
            .expect("runs");
        killer.join().expect("killer thread");
        assert!(outcome.degraded, "an external stop must mark the outcome degraded");
        assert_eq!(outcome.aborted_shards, 0);
        assert!(!outcome.nodes.is_empty());
    }
}
