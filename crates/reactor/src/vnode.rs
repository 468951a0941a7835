//! The per-virtual-node state hosted by a shard.
//!
//! A [`VirtualNode`] bundles everything one node owns — protocol state
//! machine, stream player, upload shaper, optional stream source,
//! impairment state — but no thread and no socket: scheduling and I/O
//! belong to the shard.

use gossip_adversity::CompiledAdversity;
use gossip_core::GossipNode;
use gossip_membership::CyclonView;
use gossip_sim::DetRng;
use gossip_stream::{StreamPacket, StreamPlayer, StreamSource};
use gossip_types::{NodeId, Time};
use gossip_udp::cluster::ClusterConfig;
use gossip_udp::report::NodeReport;
use gossip_udp::shaper::UploadShaper;

/// One hosted node, owned by a shard.
pub(crate) struct VirtualNode {
    pub id: NodeId,
    pub node: GossipNode<StreamPacket>,
    pub player: StreamPlayer,
    /// Shaped outbound datagrams: `(destination, unframed wire bytes)`.
    pub shaper: UploadShaper<(NodeId, Vec<u8>)>,
    pub source: Option<StreamSource>,
    pub stream_end: Option<Time>,
    /// A down node fires no timers, sends nothing and drops everything
    /// addressed to it: crashed churn victims, and flash-crowd joiners
    /// before their join fires.
    pub down: bool,
    /// The node's unthrottled upload cap, kept so a `ThrottleEnd` event can
    /// restore the shaper after a scheduled bandwidth dip.
    pub base_rate: Option<u64>,
    /// Incarnation counter, bumped on every crash: wheel deadlines carry
    /// the epoch they were armed in and are dropped on mismatch, so no
    /// timer from an earlier life can poke a revived node's fresh state.
    pub epoch: u32,
    /// The shard `members_version` this node's membership reflects; a lag
    /// means joiners arrived since its last round (refreshed lazily).
    pub members_seen: u32,
    /// Cyclon partial view, for joiners bootstrapped without a tracker
    /// push ([`gossip_udp::cluster::JoinerBootstrap::Cyclon`]): the node's
    /// membership is refreshed from this view every round, one shuffle per
    /// round grows and heals it, and every received frame re-adopts its
    /// sender. `None` for tracker-introduced and base-population nodes.
    pub view: Option<CyclonView>,
    /// Whether a shaper-release event for this node is pending in the
    /// shard's timer wheel (at most one at a time).
    pub shaper_armed: bool,
    /// Index of this node's home socket in the shard's pool.
    pub home_socket: usize,
    /// Deterministic per-node stream for injected datagram loss.
    pub loss_rng: DetRng,
    pub recv_msgs: u64,
    pub decode_errors: u64,
}

impl VirtualNode {
    /// Builds the virtual node with global id `id` for `config`, applying
    /// its static adversity profile (bandwidth-class cap override,
    /// free-rider flag, dark start for flash-crowd joiners).
    pub fn new(
        config: &ClusterConfig,
        compiled: &CompiledAdversity,
        id: u32,
        home_socket: usize,
    ) -> Self {
        let node_id = NodeId::new(id);
        let profile = &compiled.profiles[id as usize];
        // Base membership only: joiners become visible when their join
        // fires (the shard then refreshes every local node's view).
        let membership: Vec<NodeId> = (0..compiled.base_n as u32).map(NodeId::new).collect();
        let is_source = id == 0;
        let mut node = if is_source {
            GossipNode::new_source(node_id, config.gossip.clone(), membership, config.seed)
        } else {
            GossipNode::new(node_id, config.gossip.clone(), membership, config.seed)
        };
        node.set_free_rider(profile.free_rider);
        let uniform_cap =
            if is_source && config.source_uncapped { None } else { config.upload_cap_bps };
        let upload_cap = profile.resolve_cap(uniform_cap);
        VirtualNode {
            id: node_id,
            node,
            player: StreamPlayer::new(config.stream),
            shaper: UploadShaper::new(upload_cap, config.max_backlog),
            source: is_source.then(|| StreamSource::new(config.stream, Time::ZERO)),
            stream_end: is_source.then(|| Time::ZERO + config.stream_duration),
            base_rate: upload_cap,
            down: profile.join_at.is_some(),
            epoch: 0,
            members_seen: 0,
            view: None,
            shaper_armed: false,
            home_socket,
            loss_rng: DetRng::seed_from(config.seed).split(0xD409 + u64::from(id)),
            recv_msgs: 0,
            decode_errors: 0,
        }
    }

    /// Takes the node down: it loses its queued uploads and its epoch,
    /// so every armed deadline of this life is dead on arrival.
    pub fn crash(&mut self) {
        self.down = true;
        self.epoch += 1;
        self.shaper.discard_backlog();
        self.shaper_armed = false;
        // The partial view is protocol-adjacent state: it dies with the
        // incarnation (a later rejoin revives with the shard's census).
        self.view = None;
    }

    /// Brings the node back with *fresh* protocol state (a crash loses
    /// everything; only the player's history of what the viewer already
    /// watched survives) and the given membership.
    pub fn revive(&mut self, config: &ClusterConfig, members: Vec<NodeId>, free_rider: bool) {
        debug_assert!(self.down, "revive of a live node");
        let mut node = GossipNode::new(self.id, config.gossip.clone(), members, config.seed);
        node.set_free_rider(free_rider);
        self.node = node;
        self.down = false;
    }

    /// Consumes the node into its end-of-run report.
    pub fn into_report(self) -> NodeReport {
        NodeReport {
            id: self.id,
            protocol: *self.node.stats(),
            player: self.player,
            sent_bytes: self.shaper.sent_bytes(),
            sent_msgs: self.shaper.sent_msgs(),
            shaper_drops: self.shaper.dropped_msgs(),
            recv_msgs: self.recv_msgs,
            decode_errors: self.decode_errors,
        }
    }
}
