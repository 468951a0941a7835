//! The live-deployment substrate: everything about hosting the sans-io
//! gossip core on real UDP sockets that does not depend on *how* the nodes
//! are scheduled.
//!
//! The simulator answers the paper's questions at scale; the live runtime
//! (the sharded reactor in the `gossip-reactor` crate, in-process or as
//! `gossipd` workers) proves the protocol implementation is *deployable*:
//! messages are encoded with the production wire codec
//! ([`gossip_core::wire`]), uploads are shaped in real time
//! ([`shaper::UploadShaper`]) and receivers' windows are verified through
//! full Reed–Solomon reconstruction against the source's payload generator.
//! This crate holds the pieces that runtime shares with its deployment
//! tooling:
//!
//! * [`clock`] — maps wall-clock instants onto the protocol's virtual
//!   [`gossip_types::Time`];
//! * [`shaper`] — real-time upload rate limiting (the deployed counterpart
//!   of the simulator's queueing link);
//! * [`report`] — the per-node and per-shard run reports;
//! * [`codec`] — the binary wire form of run reports, for deployments that
//!   ship per-process reports to a coordinator (`gossip-deploy`);
//! * [`cluster`] — the run description ([`cluster::ClusterConfig`]) and
//!   [`cluster::assemble_report`], which turns node reports into a
//!   byte-verified [`cluster::ClusterReport`].
//!
//! # Examples
//!
//! Merge the node reports one worker process shipped into a cluster report
//! (see `examples/live_udp.rs` for running a whole cluster in-process):
//!
//! ```no_run
//! use gossip_udp::cluster::{assemble_report, ClusterConfig};
//! use gossip_udp::codec::decode_process_reports;
//!
//! let config = ClusterConfig::smoke_test();
//! let bytes = std::fs::read("worker-0.reports").expect("a worker's encoded reports");
//! let (nodes, _shards) = decode_process_reports(&bytes, &config.stream).expect("decodes");
//! let report = assemble_report(&config, nodes);
//! println!("nodes fully decoding: {}/{}", report.nodes_all_windows_ok(), report.receivers());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod codec;
pub mod report;
pub mod shaper;
