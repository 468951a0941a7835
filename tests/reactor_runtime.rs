//! Integration tests of the live runtime: dissemination and byte
//! verification on real sockets, loss, crashes, shaping, Byzantine peers,
//! joiners, agreement with the simulator and between the two I/O backends,
//! and sanity of the aggregate reports at n = 256.

use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_reactor::{ReactorCluster, ReactorOptions};
use gossip_stream::{NodeQuality, StreamConfig};
use gossip_types::Duration;
use gossip_udp::cluster::ClusterConfig;

fn reactor_cluster(n: usize, secs: u64) -> ClusterConfig {
    ClusterConfig {
        n,
        gossip: GossipConfig::new(4).with_gossip_period(Duration::from_millis(100)),
        stream: StreamConfig {
            rate_bps: 200_000,
            packet_payload_bytes: 500,
            window: WindowParams::new(10, 3),
        },
        upload_cap_bps: Some(2_000_000),
        source_uncapped: true,
        max_backlog: Duration::from_secs(5),
        stream_duration: Duration::from_secs(secs),
        drain_duration: Duration::from_secs(2),
        seed: 11,
        inject_loss: 0.0,
        crashes: Vec::new(),
        adversity: gossip_adversity::AdversitySpec::none(),
        joiner_bootstrap: gossip_udp::cluster::JoinerBootstrap::Tracker,
        telemetry: None,
    }
}

/// Pinned shard geometry so test behaviour does not depend on the box's
/// core count (and parallel tests do not oversubscribe it).
fn small_reactor() -> ReactorOptions {
    ReactorOptions { shards: Some(2), ..ReactorOptions::default() }
}

/// The same workload as `config` on the simulator, over a loopback-like
/// network (tiny constant latency, no in-network loss), measured over the
/// cluster report's window range.
fn loopback_sim(config: &ClusterConfig) -> gossip_experiments::RunResult {
    use gossip_net::{LatencyModel, LossModel};

    let mut scenario = gossip_experiments::Scenario::tiny(6)
        .with_seed(config.seed)
        .with_gossip(config.gossip.clone())
        .with_adversity(config.adversity.clone());
    scenario.n = config.n;
    scenario.stream = config.stream;
    scenario.upload_cap_bps = config.upload_cap_bps;
    scenario.stream_duration = config.stream_duration;
    scenario.drain_duration = config.drain_duration;
    scenario.latency = LatencyModel::Constant(Duration::from_micros(200));
    scenario.loss = LossModel::None;
    scenario.measure_from_window = 1;
    scenario.run()
}

/// Average completeness, in percent, of the receivers whose node ids are
/// not in `excluded` (receiver index r is node r + 1; node 0 is the
/// source).
fn complete_pct_without(qualities: &[NodeQuality], excluded: &[usize]) -> f64 {
    let kept: Vec<f64> = qualities
        .iter()
        .enumerate()
        .filter(|(r, _)| !excluded.contains(&(r + 1)))
        .map(|(_, q)| 100.0 * q.complete_fraction())
        .collect();
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Node ids the compiled adversity of `config` makes Byzantine.
fn corruptors(config: &ClusterConfig) -> Vec<usize> {
    let compiled = config.compiled_adversity();
    let ids: Vec<usize> =
        (0..compiled.total_n).filter(|&i| compiled.profiles[i].byzantine.is_some()).collect();
    assert!(!ids.is_empty() && !ids.contains(&0), "receivers corrupt, never the source");
    ids
}

/// Node ids that are down at the end of `config`'s compiled timeline.
fn dead_at_end(config: &ClusterConfig) -> Vec<usize> {
    let compiled = config.compiled_adversity();
    compiled.timeline.dead_at(gossip_types::Time::MAX).iter().map(|v| v.index()).collect()
}

/// Injected datagram loss degrades but does not break the deployment: FEC
/// and retransmission cover a few percent of loss on real sockets too.
#[test]
fn reactor_survives_injected_loss() {
    let mut config = reactor_cluster(8, 4);
    config.inject_loss = 0.02;
    let report = ReactorCluster::run_with(config, small_reactor()).expect("cluster runs");
    let avg = report.quality.average_quality_percent(Duration::MAX);
    assert!(avg >= 60.0, "2% injected loss should be survivable: {avg}%");
}

/// Crashing two receivers mid-run leaves the survivors streaming.
#[test]
fn reactor_survives_two_crashes() {
    let mut config = reactor_cluster(10, 5);
    config.crashes = vec![(3, Duration::from_secs(2)), (4, Duration::from_secs(2))];
    let report = ReactorCluster::run_with(config, small_reactor()).expect("cluster runs");
    // Judge only the survivors (victims obviously miss late windows).
    let avg = complete_pct_without(report.quality.nodes(), &[3, 4]);
    assert!(avg >= 60.0, "survivors should keep streaming: {avg:.1}%");
}

/// The loopback deployment disseminates the stream to (almost) every node
/// and the received windows byte-verify through the real Reed–Solomon
/// decoder.
#[test]
fn reactor_disseminates_and_verifies() {
    let report =
        ReactorCluster::run_with(reactor_cluster(8, 4), small_reactor()).expect("cluster runs");
    let avg = report.quality.average_quality_percent(Duration::MAX);
    assert!(avg >= 80.0, "average quality {avg}% too low for a loopback run");
    assert!(report.windows_verified > 0, "windows must byte-verify");
    let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
    assert_eq!(decode_errors, 0);
}

/// The sim and the live runtime drive the *same* protocol state machine:
/// both must reach high offline quality on an equivalent lightly-loaded
/// workload. (Wall-clock scheduling differs, so agreement is qualitative —
/// both succeed — rather than event-exact.)
#[test]
fn sim_and_reactor_agree_qualitatively() {
    let live =
        ReactorCluster::run_with(reactor_cluster(8, 4), small_reactor()).expect("cluster runs");
    let live_q = live.quality.average_quality_percent(Duration::MAX);

    // Simulated side: same scale regime (light load, ample caps).
    let sim =
        gossip_experiments::Scenario::tiny(6).with_seed(7).with_upload_cap_kbps(Some(2_000)).run();
    let sim_q = sim.quality.average_quality_percent(Duration::MAX);

    assert!(live_q >= 80.0, "live quality {live_q}%");
    assert!(sim_q >= 90.0, "sim quality {sim_q}%");
}

/// Both reactor I/O paths — the kernel-batched `sendmmsg`/`recvmmsg`
/// backend (where the platform has it; it degrades to the fallback
/// elsewhere) and the portable per-datagram fallback, pinned explicitly —
/// drive the same state machine under the same configuration and must
/// deliver comparable stream quality: high on both, within a generous
/// noise band of each other (wall-clock scheduling differs, so agreement
/// is statistical, not event-exact).
#[test]
fn mmsg_and_fallback_agree_on_delivery_quality() {
    let config = reactor_cluster(8, 4);
    let mut qualities = Vec::new();
    for (label, mmsg) in [("mmsg", Some(true)), ("fallback", Some(false))] {
        let opts = ReactorOptions { mmsg, ..small_reactor() };
        let report = ReactorCluster::run_with(config.clone(), opts)
            .unwrap_or_else(|e| panic!("reactor ({label}) cluster runs: {e}"));
        let q = report.quality.average_quality_percent(Duration::MAX);
        assert!(q >= 80.0, "reactor ({label}) quality {q:.1}%");
        assert!(report.windows_verified > 0, "reactor ({label}) windows must byte-verify");
        let io = report.io_stats().expect("the reactor reports shard stats");
        assert_eq!(io.frame_errors, 0, "no malformed framing on loopback ({label})");
        assert!(io.datagrams_sent > 0 && io.datagrams_received > 0);
        qualities.push(q);
    }
    let (mmsg_q, fallback_q) = (qualities[0], qualities[1]);
    assert!(
        (mmsg_q - fallback_q).abs() <= 20.0,
        "backends disagree: mmsg {mmsg_q:.1}% vs fallback {fallback_q:.1}%"
    );
}

/// Shapers actually limit throughput: with a tight cap, a node cannot send
/// faster than configured.
#[test]
fn shaper_limits_throughput() {
    let mut config = reactor_cluster(4, 3);
    config.upload_cap_bps = Some(300_000);
    let report = ReactorCluster::run_with(config, small_reactor()).expect("cluster runs");
    let elapsed_secs = 5.0; // 3 s stream + 2 s drain
    for node in report.nodes.iter().skip(1) {
        let kbps = node.sent_bytes as f64 * 8.0 / 1000.0 / elapsed_secs;
        assert!(kbps <= 330.0, "node {} sent {kbps:.0} kbps through a 300 kbps shaper", node.id);
    }
}

/// Catastrophic crashes plus free-riders from one declarative spec: the
/// victims go dark and the survivors keep streaming.
#[test]
fn reactor_consumes_catastrophic_spec_with_free_riders() {
    use gossip_adversity::AdversitySpec;

    let mut config = reactor_cluster(12, 5);
    config.gossip = config.gossip.with_refresh_rounds(Some(1));
    config.adversity =
        AdversitySpec::none().with_catastrophic(Duration::from_secs(2), 0.25).with_free_riders(0.2);
    let dead = dead_at_end(&config);
    assert_eq!(dead.len(), 3, "25% of 12");

    let report = ReactorCluster::run_with(config, small_reactor()).expect("cluster runs");
    for &v in &dead {
        let victim = report.quality.nodes()[v - 1].complete_fraction();
        assert!(victim < 1.0 - 1e-9, "victim {v} completed every window ({victim})");
    }
    let avg = complete_pct_without(report.quality.nodes(), &dead);
    assert!(avg >= 60.0, "survivors should keep streaming: {avg:.1}%");
}

/// Byzantine serve-corruptors: each shard maps a corruptor's outputs
/// through the shared corruption helpers, the honest nodes' checksum
/// verification catches the poisoned serves, and the per-node reports
/// aggregate the resilience counters.
#[test]
fn reactor_detects_byzantine_corruption() {
    use gossip_adversity::{AdversitySpec, ByzantineMix};

    let mut config = reactor_cluster(12, 5);
    config.gossip = config.gossip.with_refresh_rounds(Some(1));
    config.adversity = AdversitySpec::none().with_byzantine(0.25, ByzantineMix::serve_corruptors());
    let corruptors = corruptors(&config);

    let report = ReactorCluster::run_with(config, small_reactor()).expect("cluster runs");
    let res = report.resilience();
    assert!(res.corrupted_events_detected > 0, "poisoned serves must trip the checksum");

    let avg = complete_pct_without(report.quality.nodes(), &corruptors);
    assert!(avg >= 60.0, "honest receivers must keep streaming: {avg:.1}%");
}

/// Crash-injection: 30 % of the virtual nodes die mid-stream; the
/// survivors' windows must still complete. Gossip's redundant id
/// dissemination makes the cluster indifferent to even heavy churn — the
/// paper's central robustness claim, exercised here on real shared
/// sockets.
#[test]
fn reactor_survives_thirty_percent_crashes() {
    let mut config = reactor_cluster(30, 5);
    // Nodes 1..=9 (30 % of 30, never the source) crash at 2 s.
    config.crashes = (1..=9).map(|i| (i, Duration::from_secs(2))).collect();
    let report = ReactorCluster::run_with(config.clone(), small_reactor()).expect("cluster runs");

    let crashed: Vec<usize> = config.crashes.iter().map(|&(node, _)| node).collect();
    assert_eq!(report.quality.nodes().len(), 29, "every receiver is measured");
    let avg = complete_pct_without(report.quality.nodes(), &crashed);
    assert!(avg >= 60.0, "survivors should keep streaming: {avg:.1}%");

    // The victims really did go dark: windows published after the 2 s
    // crash can never reach a node that drops every datagram, so no
    // victim can have completed all measured windows of a 5 s stream.
    for &c in &crashed {
        let victim = report.quality.nodes()[c - 1].complete_fraction();
        assert!(victim < 1.0 - 1e-9, "crashed node {c} completed every window ({victim})");
    }
}

/// Aggregate sanity at n = 256: every node reports, ids come back
/// complete and ordered, the source actually streamed, traffic flowed
/// through the shared sockets, and nothing on loopback was malformed.
/// (Wall-clock scheduling makes exact per-run numbers non-deterministic;
/// these are the invariants that must hold on every run.)
#[test]
fn reactor_reports_are_sane_at_n256() {
    let config = reactor_cluster(256, 4);
    let report = ReactorCluster::run_with(config, ReactorOptions::default()).expect("cluster runs");

    assert_eq!(report.nodes.len(), 256, "every virtual node must report");
    assert_eq!(report.receivers(), 255);
    for (i, node) in report.nodes.iter().enumerate() {
        assert_eq!(node.id.index(), i, "reports must come back sorted by id");
    }

    let source = &report.nodes[0];
    assert!(source.sent_msgs > 0, "the source must have proposed");
    assert!(source.protocol.events_delivered > 0, "the source publishes to itself");

    let total_sent: u64 = report.nodes.iter().map(|n| n.sent_msgs).sum();
    let total_recv: u64 = report.nodes.iter().map(|n| n.recv_msgs).sum();
    let decode_errors: u64 = report.nodes.iter().map(|n| n.decode_errors).sum();
    assert!(total_sent > 1000, "a 256-node cluster generates real traffic: {total_sent}");
    assert!(total_recv > 0, "shared sockets must deliver");
    assert_eq!(decode_errors, 0, "no malformed datagrams on loopback");

    assert!(report.windows_measured >= 3);
    assert!(report.windows_verified > 0, "windows must byte-verify through Reed-Solomon");
    let avg = report.quality.average_quality_percent(Duration::MAX);
    assert!(avg >= 50.0, "a lightly loaded 256-node loopback run should stream: {avg:.1}%");
}

/// The acceptance scenario of the adversity subsystem: the paper's
/// Figure 7/8 catastrophe — 80 % of the nodes crash simultaneously at the
/// stream midpoint under `X = 1` partner refresh — expressed as ONE
/// declarative `AdversitySpec` and applied unchanged to both the
/// event-driven simulator and the live reactor runtime. The spec compiles
/// from the same `(spec, n, seed)` in both, so the two runs kill the
/// *identical* victim set; survivors must keep streaming comparably and
/// every victim must go dark in both worlds.
#[test]
fn figure_7_8_spec_runs_on_sim_and_reactor() {
    use gossip_adversity::AdversitySpec;

    let n = 50;

    // Live reactor run. Fanout ~ln(n)+2, the paper's optimum for the
    // deployment size (its Figure 7/8 numbers are at the optimal fanout).
    let mut config = reactor_cluster(n, 6);
    config.gossip = GossipConfig::new(6)
        .with_gossip_period(Duration::from_millis(100))
        .with_refresh_rounds(Some(1));
    config.adversity = AdversitySpec::none().with_catastrophic(Duration::from_secs(3), 0.8);
    let report = ReactorCluster::run_with(config.clone(), small_reactor()).expect("cluster runs");
    let sim = loopback_sim(&config);

    // Both runtimes compiled the identical timeline.
    let dead = dead_at_end(&config);
    assert_eq!(dead.len(), 40, "80% of 50");

    // Dark victims, both worlds: the simulator excludes them from the
    // survivor report entirely; the reactor reports them with incomplete
    // windows (nothing can reach a node that drops every datagram).
    assert_eq!(sim.quality.nodes().len(), n - 1 - dead.len());
    for &v in &dead {
        let victim = report.quality.nodes()[v - 1].complete_fraction();
        assert!(victim < 1.0 - 1e-9, "victim {v} completed every window ({victim})");
    }

    // Comparable survivor quality. Real-time scheduling on a shared box is
    // noisy, so the band is generous — but both must stream, and they must
    // not tell opposite stories.
    let sim_avg = sim.quality.average_quality_percent(Duration::MAX);
    assert_eq!(report.quality.nodes().len(), n - 1, "every receiver is measured");
    let reactor_avg = complete_pct_without(report.quality.nodes(), &dead);
    // n = 50 is far below the paper's 230-node deployment, so absolute
    // completeness after an 80 % massacre is scale-limited; the claim
    // under test is that both runtimes keep streaming AND agree.
    assert!(sim_avg >= 40.0, "sim survivors must keep streaming: {sim_avg:.1}%");
    assert!(reactor_avg >= 40.0, "reactor survivors must keep streaming: {reactor_avg:.1}%");
    assert!(
        (sim_avg - reactor_avg).abs() <= 35.0,
        "sim ({sim_avg:.1}%) and reactor ({reactor_avg:.1}%) disagree beyond the band"
    );
}

/// The adversarial-resilience acceptance scenario: ONE TOML spec with 20 %
/// serve-corrupting Byzantine peers, parsed once and applied unchanged to
/// both the simulator and the live reactor. Both runtimes compile the
/// identical corruptor set from `(spec, n, seed)`; with the defenses on
/// (the default) both must detect every poisoned Serve, keep the honest
/// receivers streaming, and agree within the wall-clock noise band.
#[test]
fn byzantine_toml_spec_runs_on_sim_and_reactor() {
    use gossip_adversity::AdversitySpec;

    let toml = "[byzantine]\nfraction = 0.2\nserve_corrupt = 1.0\n";
    let mut config = reactor_cluster(40, 6);
    config.seed = 7;
    config.gossip = GossipConfig::new(6)
        .with_gossip_period(Duration::from_millis(100))
        .with_refresh_rounds(Some(1));
    config.adversity =
        AdversitySpec::from_toml_str(toml).expect("the TOML grammar covers byzantine");

    // Both runtimes compile the identical corruptor set.
    let corruptors = corruptors(&config);
    let report = ReactorCluster::run_with(config.clone(), small_reactor()).expect("cluster runs");
    let sim = loopback_sim(&config);

    // Every corruption is counted, in both worlds: corruptors tamper every
    // Serve they send, so with traffic flowing the checksum must trip.
    assert!(sim.protocol.corrupted_events_detected > 0, "the sim must detect poisoned serves");
    assert!(sim.protocol.corrupt_rerequests > 0, "detected corruption is re-requested");
    let res = report.resilience();
    assert!(res.corrupted_events_detected > 0, "the reactor must detect poisoned serves");

    // Honest receivers keep streaming in both runtimes, and the two tell
    // the same story (generous band: wall-clock scheduling is noisy).
    let sim_avg = complete_pct_without(sim.quality.nodes(), &corruptors);
    let reactor_avg = complete_pct_without(report.quality.nodes(), &corruptors);
    assert!(sim_avg >= 60.0, "sim honest receivers must keep streaming: {sim_avg:.1}%");
    assert!(reactor_avg >= 60.0, "reactor honest receivers must keep streaming: {reactor_avg:.1}%");
    assert!(
        (sim_avg - reactor_avg).abs() <= 35.0,
        "sim ({sim_avg:.1}%) and reactor ({reactor_avg:.1}%) disagree beyond the band"
    );
}

/// Partition/heal on the live reactor: the demux drops cross-cell frames
/// while the split is live, so live viewing craters for the cells away
/// from the source, then re-converges once the timeline heals the split.
#[test]
fn partition_heals_and_reconverges_on_reactor() {
    use gossip_adversity::AdversitySpec;
    use gossip_experiments::figures::adversity::partition_phases;

    let split_at = Duration::from_secs(2);
    let heal_at = Duration::from_secs(5);
    let mut config = reactor_cluster(24, 8);
    config.gossip = GossipConfig::new(5)
        .with_gossip_period(Duration::from_millis(100))
        .with_refresh_rounds(Some(1));
    config.adversity = AdversitySpec::none().with_partition(split_at, heal_at, 2);
    let report = ReactorCluster::run_with(config.clone(), small_reactor()).expect("cluster runs");

    let p = partition_phases(
        report.quality.nodes(),
        &config.stream,
        1, // the cluster report measures from window 1
        split_at,
        heal_at,
        Duration::from_millis(1500),
    );
    assert!(p.before_20s > 60.0, "pre-split live viewing healthy: {p:?}");
    assert!(p.during_20s < p.before_20s - 20.0, "a 2-cell split must crater live viewing: {p:?}");
    assert!(p.after_20s > p.during_20s, "healing must restore live viewing: {p:?}");
    assert!(p.reconverge_s.is_some(), "the swarm re-converges after the heal: {p:?}");
}

/// A composed spec — Poisson leave/rejoin churn plus a mid-stream flash
/// crowd — runs to completion on the reactor, with the joiners reaching
/// non-trivial completeness over the windows published after they joined.
#[test]
fn reactor_hosts_churn_and_flash_crowd() {
    use gossip_adversity::AdversitySpec;

    let mut config = reactor_cluster(40, 6);
    config.adversity = AdversitySpec::none()
        .with_poisson_churn(
            Duration::ZERO,
            Duration::from_secs(6),
            0.5,
            Some(Duration::from_secs(3)),
        )
        .with_flash_crowd(Duration::from_secs(2), 10, Duration::from_secs(1));
    let compiled = config.compiled_adversity();
    assert_eq!(compiled.total_n, 50);
    let report = ReactorCluster::run_with(config, small_reactor()).expect("cluster runs");

    assert_eq!(report.nodes.len(), 50, "joiners must report too");
    let joiners = report.joiner_quality.as_ref().expect("the wave joined mid-stream");
    assert_eq!(joiners.nodes().len(), 10);
    let catch_up = joiners.average_quality_percent(Duration::MAX);
    assert!(catch_up >= 40.0, "joiners must reach non-trivial completeness: {catch_up:.1}%");

    // The send-batching satellite: shards must report their syscall
    // accounting, and coalescing must never *increase* the syscall count.
    assert!(!report.shard_stats.is_empty());
    let mut total = gossip_udp::report::ShardStats::default();
    for s in &report.shard_stats {
        total.merge(s);
    }
    assert!(total.datagrams_sent > 0);
    let ratio = total.syscalls_per_datagram().expect("traffic flowed");
    assert!(ratio <= 1.0 + 1e-9, "coalescing cannot take more syscalls than datagrams: {ratio}");
}

/// Cyclon-bootstrapped joiners: a flash crowd of `wave` nodes enters an
/// `n`-node swarm knowing only `degree` random peers — no tracker push
/// tells the swarm about them. Their per-round membership shuffles spread
/// their ids epidemically (established nodes adopt shuffle senders and
/// offered peers on contact), so the joiners must still catch up on the
/// stream, while the base swarm keeps streaming undisturbed.
fn assert_cyclon_wave_catches_up(n: usize, degree: usize, wave: usize) {
    use gossip_adversity::AdversitySpec;
    use gossip_udp::cluster::JoinerBootstrap;

    let mut config = reactor_cluster(n, 6);
    config.joiner_bootstrap = JoinerBootstrap::Cyclon { degree };
    config.adversity = AdversitySpec::none().with_flash_crowd(
        Duration::from_secs(2),
        wave,
        Duration::from_secs(1),
    );
    let report = ReactorCluster::run_with(config, small_reactor()).expect("cluster runs");

    assert_eq!(report.nodes.len(), n + wave, "joiners must report too");
    let joiners = report.joiner_quality.as_ref().expect("the wave joined mid-stream");
    assert_eq!(joiners.nodes().len(), wave);
    let catch_up = joiners.average_quality_percent(Duration::MAX);
    assert!(
        catch_up >= 40.0,
        "partial-view joiners must catch up without a tracker (n = {n}): {catch_up:.1}%"
    );
    let base = report.quality.average_quality_percent(Duration::MAX);
    assert!(base >= 80.0, "the base swarm must be undisturbed by the wave (n = {n}): {base:.1}%");
}

/// 8 Cyclon joiners of degree 5 into 30 nodes.
#[test]
fn cyclon_bootstrapped_joiners_catch_up_without_tracker_push() {
    assert_cyclon_wave_catches_up(30, 5, 8);
}

/// A smaller swarm with a thinner partial view: 4 Cyclon joiners of
/// degree 4 into 14 nodes (18 reported).
#[test]
fn reactor_hosts_cyclon_joiners() {
    assert_cyclon_wave_catches_up(14, 4, 4);
}
