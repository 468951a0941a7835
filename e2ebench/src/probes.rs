//! Per-layer counts and probes of the traced run.
//!
//! Counts come from the structs the public calls return. Probes time one
//! public call of a layer in a loop, on inputs shaped like the workload
//! (sizes taken from the run's own results); multiplying the cost per call
//! by the run's call count estimates the seconds that layer spent. What
//! the estimates leave of the measured CPU is the unattributed remainder.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use e2ebench::stats;
use e2ebench::trace::SpanRecorder;
use gossip_core::wire::{decode_message, encode_message};
use gossip_core::{Message, ProtocolStats};
use gossip_experiments::{MembershipMode, RunResult, Scenario};
use gossip_fec::{WindowDecoder, WindowEncoder, WindowParams};
use gossip_membership::{CyclonConfig, CyclonView};
use gossip_net::{Enqueued, UploadLink};
use gossip_reactor::demux;
use gossip_sim::{DetRng, Engine};
use gossip_stream::source::synth_payload;
use gossip_stream::{PacketId, StreamConfig, StreamPacket, StreamPlayer};
use gossip_telemetry::TelemetrySeries;
use gossip_types::{Duration, NodeId, Time};

use crate::live::LiveRun;
use crate::Outcome;

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that does
/// not run a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.peak_queue", "count"),
    ("sim.cpu_ns_per_event", "ns"),
    ("sim.queue.ns_per_op", "ns"),
    ("sim.est_s", "s"),
    ("core.proposes_sent", "count"),
    ("core.requests_sent", "count"),
    ("core.serves_sent", "count"),
    ("core.retransmit_requests", "count"),
    ("core.duplicate_events_received", "count"),
    ("core.serve_yield", "ratio"),
    ("core.wire.encode_ns", "ns"),
    ("core.wire.decode_ns", "ns"),
    ("core.wire.bytes_per_datagram", "B"),
    ("core.wire.est_s", "s"),
    ("net.msgs_dropped", "count"),
    ("net.msgs_lost_in_network", "count"),
    ("net.link.ns_per_msg", "ns"),
    ("net.est_s", "s"),
    ("stream.deliveries", "count"),
    ("stream.duplicate_packets", "count"),
    ("stream.checksum_ns_per_kb", "ns/kB"),
    ("stream.player.ns_per_packet", "ns"),
    ("stream.est_s", "s"),
    ("fec.encode_us_per_window", "us"),
    ("fec.decoder_new_us", "us"),
    ("fec.est_s", "s"),
    ("membership.shuffle_ns", "ns"),
    ("membership.est_s", "s"),
    ("adversity.compile_ms", "ms"),
    ("adversity.fault_events", "count"),
    ("experiments.cpu_s", "s"),
    ("experiments.unattributed_cpu_s", "s"),
    ("reactor.phase.timers_s", "s"),
    ("reactor.phase.ingress_s", "s"),
    ("reactor.phase.flush_s", "s"),
    ("reactor.phase.park_s", "s"),
    ("reactor.iterations_per_s", "1/s"),
    ("reactor.cpu_s", "s"),
    ("reactor.sys_cpu_s", "s"),
    ("reactor.steal_s", "s"),
    ("reactor.cpu_us_per_datagram", "us"),
    ("reactor.send_syscalls_per_datagram", "ratio"),
    ("reactor.recv_syscalls_per_datagram", "ratio"),
    ("reactor.recv_batch_occupancy", "ratio"),
    ("reactor.send_drops", "count"),
    ("reactor.datagrams_shed", "count"),
    ("reactor.wheel_resident_peak", "count"),
    ("reactor.outbox_bytes_peak", "B"),
    ("reactor.demux.ns_per_frame", "ns"),
    ("reactor.demux.est_s", "s"),
    ("udp.shaper_drops", "count"),
    ("udp.assemble_s", "s"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.lag_overhead_pct", "%"),
    ("traced.setup_s", "s"),
    ("traced.cpu_us_per_node_s", "us"),
    ("traced.quality_pct", "%"),
    ("traced.viewing_pct", "%"),
    ("traced.lag_p50_ms", "ms"),
    ("traced.lag_p99_ms", "ms"),
    ("traced.peak_rss_mb", "MB"),
];

/// Times `f` over `iters` calls; nanoseconds per call.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    // One untimed pass warms caches and lazy state.
    for i in 0..iters.min(1000) {
        f(i);
    }
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// `Engine::schedule` + `pop_before` at `resident` pending events: the
/// queue holds `resident` events spread over one simulated second, and
/// each pop re-arms one event up to a second ahead.
pub fn queue_ns_per_op(resident: usize) -> f64 {
    let mut engine: Engine<u64> = Engine::new();
    let mut rng = DetRng::seed_from(1);
    for i in 0..resident.max(1) {
        engine.schedule(Time::from_micros(rng.next_below(1_000_000)), i as u64);
    }
    ns_per_call(1_000_000, |_| {
        let (at, ev) = engine.pop_before(Time::MAX).expect("the queue stays populated");
        engine.schedule(at + Duration::from_micros(1 + rng.next_below(1_000_000)), black_box(ev));
    })
}

/// `UploadLink::enqueue` + `complete_head` for `wire_bytes` messages on a
/// link capped at `cap_bps`.
pub fn link_ns_per_msg(cap_bps: Option<u64>, wire_bytes: usize) -> f64 {
    let mut link: UploadLink<u64> = UploadLink::new(cap_bps, Duration::from_secs(25));
    let mut now = Time::ZERO;
    ns_per_call(1_000_000, |i| {
        if let Enqueued::Started { completes_at } = link.enqueue(now, wire_bytes, i) {
            let (done, _) = link.complete_head(completes_at);
            black_box(done);
            now = completes_at;
        }
    })
}

/// One packet of `payload_bytes` of a stream, checksum stamped.
fn packet(id: PacketId, payload_bytes: usize) -> StreamPacket {
    StreamPacket::new(
        id,
        Time::from_micros(u64::from(id.window) * 1000),
        synth_payload(id, payload_bytes),
    )
}

/// `Event::verify` on one `payload_bytes` packet: nanoseconds per call.
pub fn checksum_ns(payload_bytes: usize) -> f64 {
    use gossip_core::Event as _;
    let p = packet(PacketId::new(3, 1), payload_bytes);
    ns_per_call(200_000, |_| {
        black_box(black_box(&p).verify());
    })
}

/// `StreamPlayer::on_packet`, packets arriving window by window.
pub fn player_ns_per_packet(config: &StreamConfig) -> f64 {
    let total = config.window.total_packets() as u64;
    let mut player = StreamPlayer::new(*config);
    ns_per_call(1_000_000, |i| {
        let id = PacketId::new((i / total) as u32 % 4096, (i % total) as u16);
        if i % (total * 4096) == 0 {
            player = StreamPlayer::new(*config);
        }
        black_box(player.on_packet(Time::from_micros(i), id));
    })
}

fn window_data(params: WindowParams, payload_bytes: usize) -> Vec<Vec<u8>> {
    (0..params.data_packets)
        .map(|i| synth_payload(PacketId::new(5, i as u16), payload_bytes).to_vec())
        .collect()
}

/// `WindowEncoder::encode` of one window: microseconds per call.
pub fn encode_us_per_window(params: WindowParams, payload_bytes: usize) -> f64 {
    let encoder = WindowEncoder::new(params).expect("the workload's geometry is valid");
    let data = window_data(params, payload_bytes);
    ns_per_call(40, |_| {
        black_box(encoder.encode(black_box(&data)).expect("encodes"));
    }) / 1000.0
}

/// `WindowDecoder::new`: microseconds per call.
pub fn decoder_new_us(params: WindowParams) -> f64 {
    ns_per_call(40, |_| {
        black_box(WindowDecoder::new(params).expect("the workload's geometry is valid"));
    }) / 1000.0
}

/// One Cyclon exchange: a shuffle round, the peer's reply and its merge.
pub fn shuffle_ns(config: CyclonConfig, n: usize) -> f64 {
    let mut rng = DetRng::seed_from(2);
    let peers = |rng: &mut DetRng, me: u32| -> Vec<NodeId> {
        (0..config.view_size)
            .map(|_| NodeId::new(1 + rng.next_below(n as u64 - 1) as u32))
            .filter(|&p| p != NodeId::new(me))
            .collect()
    };
    let mut a = CyclonView::new(NodeId::new(0), config, &peers(&mut rng, 0));
    let mut b = CyclonView::new(NodeId::new(n as u32 - 1), config, &peers(&mut rng, n as u32 - 1));
    ns_per_call(100_000, |_| {
        let Some((_, request)) = a.on_shuffle_round(&mut rng) else { return };
        if let Some(reply) = b.on_message(NodeId::new(0), request, &mut rng) {
            black_box(a.on_message(NodeId::new(n as u32 - 1), reply, &mut rng));
        }
        std::mem::swap(&mut a, &mut b);
    })
}

/// The run's message mix, from its protocol counters.
struct Mix {
    /// Message counts (propose, request, serve).
    counts: [u64; 3],
    /// Ids per propose, ids per request, events per serve.
    per_msg: [usize; 3],
}

impl Mix {
    fn from_stats(p: &ProtocolStats, fanout: usize) -> Mix {
        let per = |num: u64, den: u64| (num as f64 / den.max(1) as f64).round().max(1.0) as usize;
        let served = p.events_delivered + p.duplicate_events_received;
        Mix {
            counts: [p.proposes_sent, p.requests_sent, p.serves_sent],
            per_msg: [
                per(p.events_delivered * fanout as u64, p.proposes_sent),
                per(served, p.requests_sent),
                per(served, p.serves_sent),
            ],
        }
    }

    fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Wire probe results: encode ns, decode ns and bytes, each averaged over
/// the mix.
fn wire_probe(mix: &Mix, payload_bytes: usize) -> (f64, f64, f64) {
    let ids =
        |k: usize| -> Arc<[PacketId]> { (0..k).map(|i| PacketId::new(9, i as u16)).collect() };
    let messages: [Message<StreamPacket>; 3] = [
        Message::Propose { ids: ids(mix.per_msg[0]) },
        Message::Request { ids: ids(mix.per_msg[1]) },
        Message::Serve {
            events: (0..mix.per_msg[2])
                .map(|i| packet(PacketId::new(9, i as u16), payload_bytes))
                .collect(),
        },
    ];
    let sender = NodeId::new(17);
    let total = mix.total().max(1) as f64;
    let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0.0);
    for (msg, &count) in messages.iter().zip(&mix.counts) {
        let weight = count as f64 / total;
        let wire = encode_message(sender, msg);
        enc += weight
            * ns_per_call(100_000, |_| {
                black_box(encode_message(sender, black_box(msg)));
            });
        dec += weight
            * ns_per_call(100_000, |_| {
                black_box(decode_message::<StreamPacket>(black_box(&wire)));
            });
        bytes += weight * wire.len() as f64;
    }
    (enc, dec, bytes)
}

/// `demux::frames` over kernel datagrams holding `frames_per_datagram`
/// frames of `frame_bytes` each: nanoseconds per frame.
pub fn demux_ns_per_frame(frames_per_datagram: usize, frame_bytes: usize) -> f64 {
    let wire = vec![0x5a_u8; frame_bytes];
    let mut datagram = Vec::new();
    for i in 0..frames_per_datagram.max(1) {
        assert!(demux::append_frame(&mut datagram, NodeId::new(i as u32), &wire), "frame fits");
    }
    ns_per_call(200_000, |_| {
        black_box(demux::frames(black_box(&datagram)).count());
    }) / frames_per_datagram.max(1) as f64
}

/// Times `AdversitySpec::compile` for the scenario: milliseconds (median
/// of five calls) and the compiled timeline's fault events.
fn compile_probe(s: &Scenario, spans: &mut SpanRecorder) -> (f64, usize) {
    let mut ms = Vec::new();
    let mut faults = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let compiled =
            spans.span("adversity::AdversitySpec::compile", |_| s.adversity.compile(s.n, s.seed));
        ms.push(t.elapsed().as_secs_f64() * 1000.0);
        faults = compiled.timeline.len();
    }
    (stats::median(&ms), faults)
}

fn core_counts(p: &ProtocolStats, out: &mut Outcome) {
    out.layer("core.proposes_sent", p.proposes_sent as f64, "count");
    out.layer("core.requests_sent", p.requests_sent as f64, "count");
    out.layer("core.serves_sent", p.serves_sent as f64, "count");
    out.layer("core.retransmit_requests", p.retransmit_requests as f64, "count");
    out.layer("core.duplicate_events_received", p.duplicate_events_received as f64, "count");
    out.layer(
        "core.serve_yield",
        p.events_delivered as f64 / p.serves_received.max(1) as f64,
        "ratio",
    );
}

/// The simulator's per-layer metrics for a traced run.
pub(crate) fn sim_layers(
    s: &Scenario,
    r: &RunResult,
    cpu_s: f64,
    spans: &mut SpanRecorder,
    out: &mut Outcome,
) {
    let p = &r.protocol;
    let payload = s.stream.packet_payload_bytes;
    let params = s.stream.window;
    let simulated = s.stream_duration + s.drain_duration;
    out.layer("sim.events", r.events_processed as f64, "count");
    out.layer("sim.peak_queue", r.peak_queue as f64, "count");
    out.layer("sim.cpu_ns_per_event", cpu_s * 1e9 / r.events_processed.max(1) as f64, "ns");
    core_counts(p, out);
    out.layer("net.msgs_dropped", r.net.msgs_dropped as f64, "count");
    out.layer("net.msgs_lost_in_network", r.net.msgs_lost_in_network as f64, "count");
    out.layer("stream.deliveries", p.events_delivered as f64, "count");

    spans.span("probes", |spans| {
        let queue =
            spans.span("probe sim::Engine::schedule+pop_before", |_| queue_ns_per_op(r.peak_queue));
        let avg_msg = r.net.bytes_sent as f64 / r.net.msgs_sent.max(1) as f64;
        let link = spans.span("probe net::UploadLink::enqueue+complete_head", |_| {
            link_ns_per_msg(s.upload_cap_bps, avg_msg.round() as usize)
        });
        let checksum = spans.span("probe stream::StreamPacket::verify", |_| checksum_ns(payload));
        let player = spans
            .span("probe stream::StreamPlayer::on_packet", |_| player_ns_per_packet(&s.stream));
        let encode = spans
            .span("probe fec::WindowEncoder::encode", |_| encode_us_per_window(params, payload));
        // Membership shuffles run only under Cyclon, once per node per period.
        let shuffle = match &s.membership {
            MembershipMode::Cyclon { config, shuffle_period, .. } => {
                let ns = spans
                    .span("probe membership::CyclonView shuffle", |_| shuffle_ns(*config, s.n));
                let rounds = s.n as f64 * simulated.as_secs_f64() / shuffle_period.as_secs_f64();
                (ns, ns * rounds / 1e9)
            }
            MembershipMode::Full => (0.0, 0.0),
        };
        let (compile_ms, faults) = compile_probe(s, spans);

        // Every served event is verified on receipt and again on delivery.
        let verifies = 2 * p.events_delivered + p.duplicate_events_received;
        let windows = s.stream.windows_published(s.stream_duration) as f64;
        let est = [
            ("sim.est_s", queue * r.events_processed as f64 / 1e9),
            ("net.est_s", link * r.net.msgs_sent as f64 / 1e9),
            (
                "stream.est_s",
                (checksum * verifies as f64 + player * p.events_delivered as f64) / 1e9,
            ),
            ("fec.est_s", encode * windows / 1e6),
            ("membership.est_s", shuffle.1),
        ];
        out.layer("sim.queue.ns_per_op", queue, "ns");
        out.layer("net.link.ns_per_msg", link, "ns");
        out.layer("stream.checksum_ns_per_kb", checksum * 1000.0 / payload as f64, "ns/kB");
        out.layer("stream.player.ns_per_packet", player, "ns");
        out.layer("fec.encode_us_per_window", encode, "us");
        out.layer("membership.shuffle_ns", shuffle.0, "ns");
        out.layer("adversity.compile_ms", compile_ms, "ms");
        out.layer("adversity.fault_events", faults as f64, "count");
        let attributed: f64 = est.iter().map(|&(_, v)| v).sum();
        for (name, v) in est {
            out.layer(name, v, "s");
        }
        out.layer("experiments.cpu_s", cpu_s, "s");
        out.layer("experiments.unattributed_cpu_s", cpu_s - attributed, "s");
    });
}

/// The sum over shards of a labelled family's `phase` column, final value.
fn phase_seconds(series: &TelemetrySeries, phase: &str) -> f64 {
    let Some(last) = series.snapshots.last() else { return 0.0 };
    series
        .names
        .iter()
        .zip(&last.values)
        .filter(|(n, _)| {
            n.starts_with("gossip_shard_phase_seconds_sum{")
                && n.contains(&format!("phase=\"{phase}\""))
        })
        .map(|(_, &v)| v)
        .sum()
}

/// The highest cross-shard total of a gauge family over the run's snapshots.
fn gauge_peak(series: &TelemetrySeries, family: &str) -> f64 {
    let prefix = format!("{family}{{");
    let cols: Vec<usize> = series
        .names
        .iter()
        .enumerate()
        .filter(|(_, n)| n.starts_with(&prefix))
        .map(|(i, _)| i)
        .collect();
    series
        .snapshots
        .iter()
        .map(|s| cols.iter().filter_map(|&c| s.values.get(c)).sum::<f64>())
        .fold(0.0, f64::max)
}

/// The reactor's per-layer metrics for the telemetered live run.
pub(crate) fn live_layers(run: &LiveRun, spans: &mut SpanRecorder, out: &mut Outcome) {
    let r = &run.report;
    let mut p = ProtocolStats::default();
    for n in &r.nodes {
        p.merge(&n.protocol);
    }
    core_counts(&p, out);
    let deliveries: u64 = r.nodes.iter().map(|n| n.player.packets_received()).sum();
    let duplicates: u64 = r.nodes.iter().map(|n| n.player.duplicate_packets()).sum();
    out.layer("stream.deliveries", deliveries as f64, "count");
    out.layer("stream.duplicate_packets", duplicates as f64, "count");
    out.layer(
        "udp.shaper_drops",
        r.nodes.iter().map(|n| n.shaper_drops).sum::<u64>() as f64,
        "count",
    );
    out.layer("udp.assemble_s", run.assemble_s, "s");

    let io = r.io_stats().unwrap_or_default();
    let live_s = run.live_secs();
    let cpu_s = run.cpu.total_s();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    out.layer("reactor.iterations_per_s", io.iterations as f64 / live_s, "1/s");
    out.layer("reactor.cpu_s", cpu_s, "s");
    out.layer("reactor.sys_cpu_s", run.cpu.sys_s, "s");
    out.layer("reactor.steal_s", run.steal_s, "s");
    out.layer(
        "reactor.cpu_us_per_datagram",
        cpu_s * 1e6 / io.datagrams_received.max(1) as f64,
        "us",
    );
    out.layer(
        "reactor.send_syscalls_per_datagram",
        ratio(io.send_syscalls, io.datagrams_sent),
        "ratio",
    );
    out.layer(
        "reactor.recv_syscalls_per_datagram",
        ratio(io.recv_syscalls, io.datagrams_received),
        "ratio",
    );
    out.layer("reactor.recv_batch_occupancy", io.recv_batch_occupancy().unwrap_or(0.0), "ratio");
    out.layer("reactor.send_drops", io.send_drops as f64, "count");
    out.layer("reactor.datagrams_shed", io.datagrams_shed as f64, "count");
    if let Some(series) = &r.telemetry {
        for phase in ["timers", "ingress", "flush", "park"] {
            out.layer(&format!("reactor.phase.{phase}_s"), phase_seconds(series, phase), "s");
        }
        out.layer(
            "reactor.wheel_resident_peak",
            gauge_peak(series, "gossip_shard_wheel_resident_events"),
            "count",
        );
        out.layer(
            "reactor.outbox_bytes_peak",
            gauge_peak(series, "gossip_shard_outbox_bytes"),
            "B",
        );
    }

    let cfg = &run.config;
    let payload = cfg.stream.packet_payload_bytes;
    spans.span("probes", |spans| {
        let checksum = spans.span("probe stream::StreamPacket::verify", |_| checksum_ns(payload));
        let player = spans
            .span("probe stream::StreamPlayer::on_packet", |_| player_ns_per_packet(&cfg.stream));
        let encode = spans.span("probe fec::WindowEncoder::encode", |_| {
            encode_us_per_window(cfg.stream.window, payload)
        });
        let decoder =
            spans.span("probe fec::WindowDecoder::new", |_| decoder_new_us(cfg.stream.window));
        let mix = Mix::from_stats(&p, cfg.gossip.fanout);
        let (enc, dec, bytes) =
            spans.span("probe core::wire encode+decode", |_| wire_probe(&mix, payload));
        let frames = ratio(io.datagrams_received, io.kernel_received).round().max(1.0) as usize;
        let demux = spans.span("probe reactor::demux::frames", |_| {
            demux_ns_per_frame(frames, bytes.round() as usize)
        });
        let windows = cfg.stream.windows_published(cfg.stream_duration) as f64;
        let verifies = p.events_delivered + p.duplicate_events_received;
        let est = [
            (
                "core.wire.est_s",
                (enc * io.datagrams_sent as f64 + dec * io.datagrams_received as f64) / 1e9,
            ),
            ("stream.est_s", (checksum * verifies as f64 + player * deliveries as f64) / 1e9),
            // The source encodes each window once; assembly builds one
            // decoder per verified (node, window).
            ("fec.est_s", (encode * windows + decoder * r.windows_verified as f64) / 1e6),
            ("reactor.demux.est_s", demux * io.datagrams_received as f64 / 1e9),
        ];
        out.layer("stream.checksum_ns_per_kb", checksum * 1000.0 / payload as f64, "ns/kB");
        out.layer("stream.player.ns_per_packet", player, "ns");
        out.layer("fec.encode_us_per_window", encode, "us");
        out.layer("fec.decoder_new_us", decoder, "us");
        out.layer("core.wire.encode_ns", enc, "ns");
        out.layer("core.wire.decode_ns", dec, "ns");
        out.layer("core.wire.bytes_per_datagram", bytes, "B");
        out.layer("reactor.demux.ns_per_frame", demux, "ns");
        // Assembly's decoders run after the live window, outside `cpu_s`.
        let attributed: f64 = est.iter().filter(|(n, _)| *n != "fec.est_s").map(|&(_, v)| v).sum();
        for (name, v) in est {
            out.layer(name, v, "s");
        }
        out.layer("experiments.cpu_s", cpu_s, "s");
        out.layer("experiments.unattributed_cpu_s", cpu_s - attributed, "s");
    });
}

/// Puts the per-layer metrics in [`PER_LAYER`] order, reporting 0 for each
/// one the workload does not exercise.
///
/// # Panics
///
/// Panics if a workload reported a per-layer metric [`PER_LAYER`] lacks.
pub(crate) fn complete_layers(out: &mut Outcome) {
    for m in &out.layers {
        assert!(PER_LAYER.iter().any(|&(n, _)| n == m.name), "{} is not in PER_LAYER", m.name);
    }
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        let value = out.layers.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        ordered.push(e2ebench::report::Metric::new(name, value, unit));
    }
    out.layers = ordered;
}
