//! # rebeca-net — deterministic distributed substrate
//!
//! The REBECA paper assumes a very small set of network properties: an
//! acyclic, connected graph of broker processes, point-to-point links, FIFO
//! delivery per link, and — for the mobile extensions — *connection
//! awareness* (a client and its virtual counterpart can tell whether the
//! wireless link is up). This crate provides exactly that substrate, twice:
//!
//! * [`World`] — a deterministic **discrete-event simulator**. All protocol
//!   state machines implement the sans-io [`Node`] trait; the simulator owns
//!   time, links and delivery. A link has one constant latency per
//!   direction ([`LinkConfig`]), and the world draws no random numbers, so
//!   runs are exactly reproducible, which is what the scenario runner and
//!   its oracle need.
//! * [`process_rt::ProcessRuntime`] — a **live runtime** that runs the
//!   *same* node state machines on event loops, one OS thread each; a
//!   client shares its border broker's loop, so a send between them is a
//!   queue push, and a peer link's reader runs a lone frame's delivery on
//!   the parked loop itself ([`loop_token`]). It hosts a partition of the nodes per OS process: traffic
//!   to a node in another process is framed over a Unix domain socket. Its
//!   peer links have a **supervised lifecycle** ([`supervisor`]): a dying
//!   peer never panics a service thread — its routes go down, its traffic
//!   is counted and dropped, and under a [`ReconnectPolicy`] the link is
//!   re-dialed with backoff and healed in place. With no peers it is a
//!   one-process threaded deployment. It demonstrates that nothing in the
//!   protocol layer depends on the simulator.
//!
//! [`topology`] builds the acyclic broker graphs (line, star, balanced and
//! random trees) and answers the tree-path/junction queries that the
//! physical-mobility relocation protocol needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event_queue;
pub mod link;
pub mod loop_token;
pub mod metrics;
pub mod node;
mod node_loop;
pub mod process_rt;
pub mod rng;
pub mod send_buffer;
pub mod supervisor;
mod sync;
pub mod thread_rt;
pub mod topology;
pub mod wire;
pub mod world;

pub use link::LinkConfig;
pub use loop_token::{LoopToken, Pending, Refusal};
pub use metrics::{LinkCounters, LinkMetrics, NetMetrics};
pub use node::{Ctx, Node, NodeId, Payload, TimerId};
pub use process_rt::{LinkMetricsHandle, PeerId, PeerStatus, ProcessRuntime, PEER_SEND_CAPACITY};
pub use rng::SplitMix64;
pub use send_buffer::{LinkClosed, SendBuffer};
pub use supervisor::{LinkDownCause, LinkLifecycle, ReconnectPolicy};
pub use thread_rt::ThreadRuntime;
pub use topology::{Topology, TopologyError};
pub use wire::{
    decode_frame, encode_frame, encode_msg_frame, Frame, FrameReassembler, Wire, MAX_FRAME,
    WIRE_VERSION,
};
pub use world::World;
