//! Byzantine output mappings for stream-packet messages.
//!
//! A Byzantine peer in this codebase runs the *honest* protocol state
//! machine; the adversity layer corrupts its **output** at the runtime
//! boundary, the way compromised middleware (or a tampering relay) would.
//! Keeping the node honest means both runtimes — the simulator and the
//! reactor — inject identical misbehaviour from the same compiled
//! profile, and the defense layer in `gossip_core` is exercised against
//! byte-for-byte the same traffic.
//!
//! The mappings are deliberately *plausible* attacks, not noise:
//!
//! * [`corrupt_serves`] keeps every claimed id and the stale checksum while
//!   flipping payload bits — the receiver must catch it by verification,
//!   not by framing errors;
//! * [`garble_proposes`] advertises ids that decode fine but point at
//!   packets that will never exist, aiming to bloat the receiver's dense
//!   per-window bookkeeping and waste its request budget.

use gossip_core::Message;

use crate::packet::{PacketId, StreamPacket};

/// Index bit set by [`garble_proposes`]: garbled ids carry an in-window
/// index of `0x8000 | index`, far beyond any real window's packet count.
/// A defense horizon (`GossipConfig::propose_offset_horizon`) of at most
/// `0x8000` catches every id this mapping emits.
pub const GARBLE_INDEX_BIT: u16 = 0x8000;

/// Maps a `Serve` message to one whose every packet payload is tampered
/// (first byte flipped) while the checksum stays stale — the signature move
/// of a serve-corruptor. Other messages pass through unchanged.
pub fn corrupt_serves(msg: Message<StreamPacket>) -> Message<StreamPacket> {
    match msg {
        Message::Serve { events } => {
            Message::Serve { events: events.iter().map(StreamPacket::tampered).collect() }
        }
        other => other,
    }
}

/// Maps a `Propose` message to one advertising garbage ids (the real
/// window, an impossible index) — bait that an undefended receiver dutifully
/// requests and books slab space for. Other messages pass through unchanged.
pub fn garble_proposes(msg: Message<StreamPacket>) -> Message<StreamPacket> {
    match msg {
        Message::Propose { ids } => Message::Propose {
            ids: ids
                .iter()
                .map(|id| PacketId::new(id.window, GARBLE_INDEX_BIT | id.index))
                .collect(),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use gossip_core::Event;

    use super::*;

    #[test]
    fn corrupt_serves_tamper_every_packet_and_nothing_else() {
        let honest = StreamPacket::new(
            PacketId::new(3, 7),
            gossip_types::Time::ZERO,
            bytes::Bytes::copy_from_slice(&[1, 2, 3, 4]),
        );
        let msg = corrupt_serves(Message::Serve { events: vec![honest.clone()] });
        let Message::Serve { events } = msg else { panic!("kind preserved") };
        assert_eq!(events[0].id(), honest.id(), "the claimed id survives");
        assert!(!events[0].verify(), "the payload no longer matches the checksum");
        // Non-serve traffic is untouched.
        let feedme = garble_proposes(corrupt_serves(Message::FeedMe));
        assert_eq!(feedme, Message::FeedMe);
    }

    #[test]
    fn garbled_proposes_stay_decodable_but_impossible() {
        let ids: std::sync::Arc<[PacketId]> = vec![PacketId::new(5, 12)].into();
        let msg = garble_proposes(Message::Propose { ids });
        let Message::Propose { ids } = msg else { panic!("kind preserved") };
        assert_eq!(ids[0].window, 5, "the window is real — the slab row exists");
        assert_eq!(ids[0].index, GARBLE_INDEX_BIT | 12);
        assert!(ids[0].index >= GARBLE_INDEX_BIT, "always beyond a sane horizon");
    }
}
