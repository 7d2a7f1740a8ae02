//! A multi-process runtime: the same [`Node`] state machines, with links
//! that cross OS process boundaries as framed byte streams.
//!
//! [`ProcessRuntime`] is the live counterpart of the simulator
//! ([`World`](crate::World)): its local nodes run on event loops, one OS
//! thread each, and a deployment is split over as many processes as it
//! has partitions. A runtime with no peers is a one-process
//! deployment. The contract:
//!
//! * **Global id space.** Every participating process declares the *same*
//!   nodes in the *same* order — [`add_local`] for the ones it hosts,
//!   [`add_remote`] (naming the peer connection that leads towards them)
//!   for the rest. `NodeId(i)` then means the same node everywhere, so
//!   frames carry plain ids.
//! * **Identical link semantics.** A send is gated on the *sender's* local
//!   link set at send time, for local and remote destinations alike
//!   ("unplugged cable": the message is silently dropped). [`set_link_up`]
//!   applies the flip locally and broadcasts a [`Frame::SetLink`] control
//!   frame to every peer, so both ends of a cross-process link agree; control
//!   frames bypass the link state (they model the management plane, not
//!   the data plane). A logical link drop + re-establishment is therefore
//!   one more `SetLink` each way — the FIFO-floor machinery in the
//!   protocol layer handles the rest, unchanged.
//! * **FIFO per link.** A peer connection is one byte stream parsed by one
//!   reader thread, and the link's [`SendBuffer`] lets one writer at a
//!   time at it (its write token), so frames between two processes arrive
//!   in the order they were sent — the same per-link FIFO an event loop's
//!   lane and inbox and the simulator give.
//!
//! [`start`] gives each local node that has exactly one link — a client,
//! say — the event loop of the node at its other end when that one is
//! local too (a union–find over the local pairs [`connect`] declared), and
//! every other local node a loop of its own. A client and its border
//! broker thus share a loop, and a send between them is a push onto the
//! loop's lane, not a channel send and a thread wake-up. Two nodes with
//! further links — the brokers of one process, adjacent or not, or the
//! members of a replica group — keep separate threads and cores. Measured
//! on the end-to-end benchmark, two brokers on one loop lost 16 % of their
//! matching throughput to the shared core, and a primary on its backup's
//! loop had its acknowledgements back within the round, so its `Prepare`
//! batches shrank and the wire carried more, smaller messages.
//!
//! Each peer link runs two threads: a **writer** that drains the link's
//! bounded [`SendBuffer`] (blocking event loops when full — backpressure)
//! and issues coalesced stream writes, and a **reader** that feeds raw
//! reads through a [`FrameReassembler`] (partial reads, many frames per
//! read) and routes whole frames to the destinations' event loops. A
//! message frame that its read held alone, for a loop that is parked with
//! nothing posted to its inbox, is delivered by the reader itself: it
//! borrows the loop's token and runs the loop's round on its own thread,
//! so the loop thread is not woken (see the event loop). Every other frame
//! goes to the loop's inbox. An event loop puts each send to another
//! loop's node into that loop's inbox and encodes each remote send into
//! one reused frame buffer.
//!
//! A round with nothing else to do after the event it handles (a *quiet*
//! send, see the event loop) writes a frame to the peer socket **itself**
//! when the buffer grants it the write token — nothing queued for the link
//! and no write in flight. That saves the writer thread's wake-up on every
//! lightly loaded hop. Otherwise the frame is pushed and the writer
//! thread, the coalescing overflow path, ships it. The supervisor keeps
//! the live epoch's stream for these direct writes: it installs it before
//! the epoch's writer spawns and clears it after teardown. A failed direct
//! write is reported exactly like a writer failure, as a
//! [`LinkDownCause::Write`] of its epoch. Each epoch's socket has a send
//! timeout of 2 ms: a direct write into a full socket returns within it,
//! and hands its unwritten tail to the buffer, ahead of everything queued,
//! for the writer thread to ship.
//!
//! A handler that blocks on its loop thread blocks the whole loop: a push
//! into a full [`SendBuffer`] (backpressure) stalls every node of the loop
//! until the link drains. No deadlock is added, though readers run
//! handlers: the writer threads and the kernel drain links without waiting
//! on any loop, and a reader never waits on anything that may wait in
//! turn. It takes a loop's token only with a try-lock, and otherwise posts
//! to the loop's inbox, which is unbounded. In a borrowed round it queues
//! frames with [`SendBuffer::try_push`] and hands whatever would wait for
//! room back to the loop thread, and it writes to a socket with bounded
//! patience, the send timeout. The other locks it touches — the link set,
//! a send buffer's state, the live-stream slot, which it only try-locks —
//! are leaf locks that no holder keeps across a wait.
//!
//! A **supervisor** thread owns every link's service threads. Any link
//! failure — the peer killed mid-stream, a torn write, garbage bytes, an
//! undecodable payload, a contradictory Hello — becomes a
//! [`LinkDownCause`] report (first reporter of the link's epoch wins, see
//! [`LinkLifecycle`]), never a panic: the supervisor marks the routes
//! crossing that peer down, drains-and-drops its send buffer (counted in
//! [`LinkMetrics`]), and — when a [`ReconnectPolicy`] is armed via
//! [`set_reconnect_policy`] — re-dials or re-accepts the UDS endpoint
//! under jittered exponential backoff, replays the Hello handshake, and
//! re-broadcasts link state so both sides converge. Without a policy
//! (the default) a dead link simply stays down and everything else keeps
//! running.
//!
//! [`add_local`]: ProcessRuntime::add_local
//! [`add_remote`]: ProcessRuntime::add_remote
//! [`connect`]: ProcessRuntime::connect
//! [`start`]: ProcessRuntime::start
//! [`set_link_up`]: ProcessRuntime::set_link_up
//! [`set_reconnect_policy`]: ProcessRuntime::set_reconnect_policy

use crate::metrics::{LinkCounters, LinkMetrics};
use crate::node::{Node, NodeId, Payload};
use crate::node_loop::{run_loop, Envelope, Inbox, LinkSet, Loop, SendStep};
use crate::rng::SplitMix64;
use crate::send_buffer::SendBuffer;
use crate::supervisor::{LinkDownCause, LinkLifecycle, ReconnectPolicy};
use crate::wire::{encode_frame, encode_msg_frame, Frame, FrameReassembler, Wire};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one peer connection of this process (in dial/listen order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerId(usize);

/// Events flowing from a link's service threads to the supervisor.
enum SupEvent {
    /// The winning down report of one peer link epoch (see
    /// [`LinkLifecycle::report_down`]).
    Down { peer: usize, cause: LinkDownCause },
    /// The runtime is stopping: tear every link down and exit.
    Stop,
}

/// Externally visible state of one peer link, kept current by the
/// supervisor; read via [`ProcessRuntime::peer_status`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PeerStatus {
    /// True while the link's reader/writer threads are live.
    pub up: bool,
    /// Successful re-establishments of this link.
    pub restarts: u64,
    /// Why the link last went down (sticky across restarts).
    pub last_cause: Option<LinkDownCause>,
}

/// How a peer connection was established — and therefore how the
/// supervisor can re-establish it after the peer dies.
enum PeerEndpoint {
    /// This process bound the listener; reconnect re-accepts on it.
    Listen(UnixListener),
    /// This process dialed the path; reconnect re-dials it.
    Dial(PathBuf),
}

enum Slot<M: Payload> {
    /// `None` while the node's event loop runs.
    Local {
        node: Option<Box<dyn Node<M>>>,
    },
    Remote {
        peer: PeerId,
    },
}

/// What an event-loop thread returns: the nodes it drove, by global id.
type LoopHandle<M> = std::thread::JoinHandle<Vec<Option<Box<dyn Node<M>>>>>;

/// Where a node's traffic goes from outside its event loop: the loop's
/// inbox or a peer's send buffer.
enum Sink<M> {
    Local(Inbox<M>),
    Remote(PeerId),
}

/// The event loop of this runtime, as its readers reach it.
type LiveLoop<M> = Loop<M, Outbound<M>>;

/// How long a write to a peer socket may wait for room before it returns
/// what it wrote: the socket's send timeout, set once per link epoch. It
/// bounds how long an event loop's direct write, run by a reader too,
/// waits on a peer that does not read; the link's writer thread takes the
/// rest and waits on.
const WRITE_PATIENCE: Duration = Duration::from_millis(2);

/// Byte capacity of each peer link's send buffer. Producers sending to a
/// peer block once this much is queued ahead of them (backpressure).
pub const PEER_SEND_CAPACITY: usize = 4 * 1024 * 1024;

/// The live epoch's stream of one peer link, with its epoch, for event
/// loops' direct writes. `None` while the link is down.
type LiveStream = Arc<Mutex<Option<(u64, Arc<UnixStream>)>>>;

struct PeerLink {
    stream: Option<UnixStream>,
    /// How to re-establish this connection (None for adopted socketpairs,
    /// which have no address to return to).
    endpoint: Option<PeerEndpoint>,
    buffer: SendBuffer,
    live: LiveStream,
    lifecycle: Arc<LinkLifecycle>,
    status: Arc<Mutex<PeerStatus>>,
}

/// One peer link as an event loop sends to it.
struct PeerTx {
    peer: usize,
    buffer: SendBuffer,
    live: LiveStream,
    lifecycle: Arc<LinkLifecycle>,
    events: Sender<SupEvent>,
    counters: Arc<LinkCounters>,
}

impl PeerTx {
    /// Sends one whole frame: written to the socket by this thread when
    /// `quiet` and the buffer grants the write token, queued for the
    /// writer thread otherwise. False, with nothing sent, when the caller
    /// may not wait (`borrowed`) and the queue is full.
    fn send(&self, frame: &[u8], quiet: bool, borrowed: bool) -> bool {
        // The stream is taken before the token is asked for. Taken after,
        // a grant from a dying epoch could meet the next epoch's stream and
        // put this frame ahead of that epoch's Hello; taken before, the
        // frame at worst goes to the dead epoch's socket, whose write fails
        // and whose report loses to the restart. The slot is only
        // try-locked: while the supervisor swaps it, the frame is queued.
        let live = if quiet { self.live.try_lock().and_then(|slot| slot.clone()) } else { None };
        self.send_on(live, frame, borrowed)
    }

    fn send_on(&self, live: Option<(u64, Arc<UnixStream>)>, frame: &[u8], borrowed: bool) -> bool {
        if let Some((epoch, stream)) = live {
            if self.buffer.try_direct() {
                LinkCounters::bump(&self.counters.direct_writes);
                let (written, failed) = write_within_patience(&stream, frame);
                if let Some(e) = failed {
                    // Torn link: reported as a writer thread reports it.
                    if self.lifecycle.report_down(epoch) {
                        let _ = self.events.send(SupEvent::Down {
                            peer: self.peer,
                            cause: LinkDownCause::Write(e.kind()),
                        });
                    }
                    self.buffer.end_direct(&[]);
                } else {
                    if written < frame.len() {
                        LinkCounters::bump(&self.counters.direct_write_timeouts);
                    }
                    // A peer slow to read: the writer thread ships the tail.
                    self.buffer.end_direct(&frame[written..]);
                }
                return true;
            }
        }
        if borrowed {
            // A reader never waits for room: a full buffer refuses.
            return !matches!(self.buffer.try_push(frame), Ok(false));
        }
        // Blocking push: a full peer buffer is backpressure on this event
        // loop.
        let _ = self.buffer.push(frame);
        true
    }
}

/// The send step of this process's event loops: another loop's inbox, or
/// a frame onto a peer link.
struct Outbound<M> {
    sinks: Arc<Vec<Sink<M>>>,
    peers: Arc<Vec<PeerTx>>,
    /// This loop's one frame buffer, reused by every remote send.
    frame: Vec<u8>,
}

impl<M: Payload + Wire> SendStep<M> for Outbound<M> {
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        quiet: bool,
        borrowed: bool,
    ) -> Result<(), M> {
        match self.sinks.get(to.raw() as usize) {
            Some(Sink::Local(inbox)) => inbox.post(Envelope::Msg { from, to, msg }),
            Some(Sink::Remote(peer)) => {
                self.frame.clear();
                encode_msg_frame(from, to, &msg, &mut self.frame);
                if !self.peers[peer.0].send(&self.frame, quiet, borrowed) {
                    return Err(msg);
                }
            }
            None => {}
        }
        Ok(())
    }
}

/// Builder + handle for one process of a multi-process deployment.
///
/// Lifecycle: declare the global node table ([`add_local`] /
/// [`add_remote`], same order in every process) → [`connect`] the topology
/// (same calls in every process) → establish peer sockets ([`listen_uds`] /
/// [`dial_uds`]) → [`start`] → interact ([`send_external`],
/// [`set_link_up`]) → [`stop`], which returns the local nodes.
///
/// [`add_local`]: ProcessRuntime::add_local
/// [`add_remote`]: ProcessRuntime::add_remote
/// [`connect`]: ProcessRuntime::connect
/// [`listen_uds`]: ProcessRuntime::listen_uds
/// [`dial_uds`]: ProcessRuntime::dial_uds
/// [`start`]: ProcessRuntime::start
/// [`send_external`]: ProcessRuntime::send_external
/// [`set_link_up`]: ProcessRuntime::set_link_up
/// [`stop`]: ProcessRuntime::stop
pub struct ProcessRuntime<M: Payload + Wire> {
    slots: Vec<Slot<M>>,
    /// Per node, the inbox of the event loop hosting it; filled by `start`.
    senders: Vec<Option<Inbox<M>>>,
    /// One inbox per event loop.
    loops: Vec<Inbox<M>>,
    links: Arc<RwLock<LinkSet>>,
    peers: Vec<PeerLink>,
    loop_handles: Vec<LoopHandle<M>>,
    supervisor_handle: Option<std::thread::JoinHandle<()>>,
    events_tx: Option<Sender<SupEvent>>,
    stopping: Arc<AtomicBool>,
    counters: Arc<LinkCounters>,
    policy: Option<ReconnectPolicy>,
    started: bool,
}

impl<M: Payload + Wire> fmt::Debug for ProcessRuntime<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessRuntime")
            .field("nodes", &self.slots.len())
            .field("peers", &self.peers.len())
            .field("started", &self.started)
            .finish()
    }
}

impl<M: Payload + Wire> ProcessRuntime<M> {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        ProcessRuntime {
            slots: Vec::new(),
            senders: Vec::new(),
            loops: Vec::new(),
            links: Arc::new(RwLock::new(LinkSet::default())),
            peers: Vec::new(),
            loop_handles: Vec::new(),
            supervisor_handle: None,
            events_tx: None,
            stopping: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(LinkCounters::default()),
            policy: None,
            started: false,
        }
    }

    /// Arms link supervision with automatic reconnection: when a peer link
    /// dies of a retryable [`LinkDownCause`], the supervisor re-dials (or
    /// re-accepts) under `policy`'s backoff schedule, replays the Hello
    /// handshake and re-broadcasts link state. Without a policy (the
    /// default), a dead link stays down — frames towards it are counted
    /// and dropped — and everything else keeps running.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already started.
    pub fn set_reconnect_policy(&mut self, policy: ReconnectPolicy) {
        assert!(!self.started, "cannot change reconnect policy after start");
        self.policy = Some(policy);
    }

    /// Declares the next node of the global table as hosted *here*.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already started.
    pub fn add_local(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        assert!(!self.started, "cannot add nodes after start");
        let id = NodeId::new(self.slots.len() as u32);
        self.slots.push(Slot::Local { node: Some(node) });
        id
    }

    /// Declares the next node of the global table as hosted by the process
    /// behind `peer`; traffic towards it is framed onto that connection.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already started.
    pub fn add_remote(&mut self, peer: PeerId) -> NodeId {
        assert!(!self.started, "cannot add nodes after start");
        let id = NodeId::new(self.slots.len() as u32);
        self.slots.push(Slot::Remote { peer });
        id
    }

    /// Installs a bidirectional link (initially up), in this process's
    /// view. Every process must make the same `connect` calls.
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        self.links.write().set(a, b, true);
    }

    /// Binds a UDS listener at `path` and accepts exactly one peer
    /// connection (blocking). A stale socket file left behind by a killed
    /// process is unlinked first (only if it actually is a socket), so a
    /// restarted process can rebind its old address.
    ///
    /// The listener is kept for the link's lifetime: under a
    /// [`ReconnectPolicy`], the supervisor re-accepts on it when the peer
    /// dies.
    ///
    /// # Errors
    ///
    /// Any I/O error from bind/accept.
    pub fn listen_uds(&mut self, path: &Path) -> std::io::Result<PeerId> {
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.file_type().is_socket() => {
                let _ = std::fs::remove_file(path);
            }
            Ok(_) | Err(_) => {}
        }
        let listener = UnixListener::bind(path)?;
        let (stream, _) = listener.accept()?;
        Ok(self.add_peer_with_endpoint(stream, Some(PeerEndpoint::Listen(listener))))
    }

    /// Connects to the UDS listener at `path`, retrying until the peer has
    /// bound it or `timeout` elapses. Errors that waiting cannot heal
    /// (permissions, a non-directory path component) fail immediately
    /// instead of burning the whole timeout.
    ///
    /// # Errors
    ///
    /// The first non-healing connect error, or the last error once
    /// `timeout` is exhausted.
    pub fn dial_uds(&mut self, path: &Path, timeout: Duration) -> std::io::Result<PeerId> {
        let deadline = Instant::now() + timeout;
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    return Ok(self.add_peer_with_endpoint(
                        stream,
                        Some(PeerEndpoint::Dial(path.to_path_buf())),
                    ));
                }
                Err(e) if connect_error_is_fatal(e.kind()) => return Err(e),
                Err(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    // Sleep at most the remaining budget, so a short
                    // timeout is honoured to the millisecond.
                    std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
                }
            }
        }
    }

    /// Adopts an already-connected stream (e.g. one half of a socketpair)
    /// as a peer link. Such a link has no address to reconnect to; if it
    /// dies it stays down even under a [`ReconnectPolicy`].
    pub fn add_peer(&mut self, stream: UnixStream) -> PeerId {
        self.add_peer_with_endpoint(stream, None)
    }

    fn add_peer_with_endpoint(
        &mut self,
        stream: UnixStream,
        endpoint: Option<PeerEndpoint>,
    ) -> PeerId {
        let id = PeerId(self.peers.len());
        self.peers.push(PeerLink {
            stream: Some(stream),
            endpoint,
            buffer: SendBuffer::new(PEER_SEND_CAPACITY),
            live: Arc::new(Mutex::new(None)),
            lifecycle: Arc::new(LinkLifecycle::new()),
            status: Arc::new(Mutex::new(PeerStatus::default())),
        });
        id
    }

    /// The supervision state of one peer link.
    pub fn peer_status(&self, peer: PeerId) -> PeerStatus {
        self.peers[peer.0].status.lock().clone()
    }

    /// Snapshot of the supervision counters. For reading the counters
    /// *after* [`stop`](ProcessRuntime::stop) (which consumes the
    /// runtime), grab a [`metrics_handle`](ProcessRuntime::metrics_handle)
    /// first.
    pub fn metrics(&self) -> LinkMetrics {
        self.metrics_handle().snapshot()
    }

    /// A handle that can snapshot this runtime's [`LinkMetrics`] even
    /// after the runtime itself has been stopped and consumed.
    pub fn metrics_handle(&self) -> LinkMetricsHandle {
        LinkMetricsHandle {
            counters: Arc::clone(&self.counters),
            buffers: self.peers.iter().map(|p| p.buffer.clone()).collect(),
        }
    }

    /// The event loops of this process: the connected components of the
    /// links declared between two local nodes of which one end is a leaf —
    /// a node with no other link, like a client and its border broker —
    /// each listed in id order.
    fn loop_groups(&self) -> Vec<Vec<usize>> {
        let n = self.slots.len();
        let local = |i: usize| matches!(self.slots.get(i), Some(Slot::Local { .. }));
        // Union–find over the local pairs; each set's root is its least id.
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let links = self.links.read();
        // `known` holds both directions of every link.
        let mut degree = vec![0usize; n];
        for &(a, _) in &links.known {
            degree[a.raw() as usize] += 1;
        }
        let mut parent: Vec<usize> = (0..n).collect();
        for &(a, b) in &links.known {
            let (a, b) = (a.raw() as usize, b.raw() as usize);
            if local(a) && local(b) && (degree[a] == 1 || degree[b] == 1) {
                let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = vec![0; n];
        for i in (0..n).filter(|&i| local(i)) {
            // A root precedes the rest of its set.
            match root(&mut parent, i) {
                r if r == i => {
                    group_of[i] = groups.len();
                    groups.push(vec![i]);
                }
                r => groups[group_of[r]].push(i),
            }
        }
        groups
    }

    fn sinks(&self) -> Vec<Sink<M>> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Slot::Local { .. } => {
                    Sink::Local(self.senders[i].as_ref().expect("local sender").clone())
                }
                Slot::Remote { peer } => Sink::Remote(*peer),
            })
            .collect()
    }

    /// Spawns an event-loop thread per local node that is not a leaf of
    /// another local node (see the module doc), a supervisor thread, and
    /// (via the supervisor) a reader and a writer thread per peer.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "already started");
        self.started = true;
        let t0 = Instant::now();
        let groups = self.loop_groups();
        self.senders = vec![None; self.slots.len()];
        let mut inboxes = Vec::with_capacity(groups.len());
        for group in &groups {
            let (inbox, rx) = Inbox::new();
            for &i in group {
                self.senders[i] = Some(inbox.clone());
            }
            self.loops.push(inbox);
            inboxes.push(rx);
        }
        let sinks: Arc<Vec<Sink<M>>> = Arc::new(self.sinks());

        // Handshake: announce our node count so a topology mismatch tears
        // the link down at connect time instead of misrouting forever.
        // Queued before any service thread exists, so it is always the
        // first frame on the wire.
        let hello = Frame::Hello { nodes: self.slots.len() as u32 };
        for peer in &self.peers {
            let mut bytes = Vec::new();
            encode_frame(&hello, &mut bytes);
            peer.buffer.push(&bytes).expect("peer buffer open at start");
        }

        let (events_tx, events_rx) = unbounded();
        self.events_tx = Some(events_tx.clone());
        let peer_txs: Arc<Vec<PeerTx>> = Arc::new(
            self.peers
                .iter()
                .enumerate()
                .map(|(i, p)| PeerTx {
                    peer: i,
                    buffer: p.buffer.clone(),
                    live: Arc::clone(&p.live),
                    lifecycle: Arc::clone(&p.lifecycle),
                    events: events_tx.clone(),
                    counters: Arc::clone(&self.counters),
                })
                .collect(),
        );
        // Each loop's state behind its token, reached by its thread and, per
        // node, by the peer links' readers.
        let mut loop_of: Vec<Option<Arc<LiveLoop<M>>>> = vec![None; self.slots.len()];
        let mut lps = Vec::with_capacity(groups.len());
        for (group, inbox) in groups.iter().zip(&self.loops) {
            let mut nodes: Vec<Option<Box<dyn Node<M>>>> =
                self.slots.iter().map(|_| None).collect();
            for &i in group {
                if let Slot::Local { node } = &mut self.slots[i] {
                    nodes[i] = node.take();
                }
            }
            let send = Outbound {
                sinks: Arc::clone(&sinks),
                peers: Arc::clone(&peer_txs),
                frame: Vec::new(),
            };
            let lp = Arc::new(Loop::new(nodes, inbox.clone(), Arc::clone(&self.links), t0, send));
            for &i in group {
                loop_of[i] = Some(Arc::clone(&lp));
            }
            lps.push(lp);
        }
        let sup_peers: Vec<SupPeer> = self
            .peers
            .iter_mut()
            .enumerate()
            .map(|(i, peer)| SupPeer {
                pending_stream: Some(peer.stream.take().expect("peer stream present at start")),
                teardown: None,
                endpoint: peer.endpoint.take(),
                buffer: peer.buffer.clone(),
                live: Arc::clone(&peer.live),
                lifecycle: Arc::clone(&peer.lifecycle),
                status: Arc::clone(&peer.status),
                writer: None,
                reader: None,
                saved_routes: Vec::new(),
                behind: self
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(n, slot)| match slot {
                        Slot::Remote { peer } if peer.0 == i => Some(NodeId::new(n as u32)),
                        Slot::Remote { .. } | Slot::Local { .. } => None,
                    })
                    .collect(),
            })
            .collect();
        let supervisor = Supervisor {
            rx: events_rx,
            tx: events_tx,
            peers: sup_peers,
            loop_of,
            loops: self.loops.clone(),
            links: Arc::clone(&self.links),
            expected_nodes: self.slots.len() as u32,
            policy: self.policy.clone(),
            counters: Arc::clone(&self.counters),
            stopping: Arc::clone(&self.stopping),
        };
        self.supervisor_handle = Some(
            std::thread::Builder::new()
                .name("rebeca-sup".into())
                .spawn(move || supervisor.run())
                .expect("spawn supervisor thread"),
        );

        for ((group, lp), rx) in groups.iter().zip(lps).zip(inboxes) {
            let handle = std::thread::Builder::new()
                .name(format!("rebeca-loop-{}", group[0]))
                .spawn(move || run_loop(&lp, &rx))
                .expect("spawn event loop thread");
            self.loop_handles.push(handle);
        }
    }

    /// Marks a link up or down in this process and propagates the flip to
    /// every peer. Nodes read links when they send, so none is told.
    pub fn set_link_up(&self, a: NodeId, b: NodeId, up: bool) {
        self.links.write().set(a, b, up);
        let mut bytes = Vec::new();
        encode_frame(&Frame::SetLink { a, b, up }, &mut bytes);
        for peer in &self.peers {
            // A closed buffer means the link is tearing down; the flip is
            // then moot.
            let _ = peer.buffer.push(&bytes);
        }
    }

    /// Sends a message into a node from outside ([`NodeId::EXTERNAL`]).
    /// Remote destinations are framed onto their peer connection. Before
    /// [`start`](ProcessRuntime::start) a local node has no event loop yet,
    /// and a message to it is dropped.
    pub fn send_external(&self, to: NodeId, msg: M) {
        match self.slots.get(to.raw() as usize) {
            Some(Slot::Local { .. }) => {
                if let Some(Some(inbox)) = self.senders.get(to.raw() as usize) {
                    inbox.post(Envelope::Msg { from: NodeId::EXTERNAL, to, msg });
                }
            }
            Some(Slot::Remote { peer }) => {
                let mut bytes = Vec::new();
                encode_msg_frame(NodeId::EXTERNAL, to, &msg, &mut bytes);
                let _ = self.peers[peer.0].buffer.push(&bytes);
            }
            None => {}
        }
    }

    /// Stops the event loops, flushes and tears down peer links, and
    /// returns the local nodes in global id order (`None` in remote slots).
    /// A runtime that was never started returns its nodes untouched.
    pub fn stop(mut self) -> Vec<Option<Box<dyn Node<M>>>> {
        // ordering: Relaxed — the flag is advisory (suppresses further
        // reconnect attempts); the teardown itself is sequenced by the
        // channel sends and joins below.
        self.stopping.store(true, Ordering::Relaxed);
        for inbox in &self.loops {
            inbox.post(Envelope::Stop);
        }
        for handle in self.loop_handles.drain(..) {
            let nodes = handle.join().expect("event loop panicked");
            for (slot, node) in self.slots.iter_mut().zip(nodes) {
                if let (Slot::Local { node: held }, Some(node)) = (slot, node) {
                    *held = Some(node);
                }
            }
        }

        // Orderly teardown: a Shutdown frame, then close each buffer. The
        // writer drains what is queued (final flush) and exits; the peer's
        // reader exits on the Shutdown frame or on EOF. Then tell the
        // supervisor to stop: it shuts each socket's read half down (our
        // reader cannot wait for the peer to stop first — both processes
        // tear down independently) and joins every service thread.
        let mut bytes = Vec::new();
        encode_frame(&Frame::Shutdown, &mut bytes);
        for peer in &self.peers {
            let _ = peer.buffer.push(&bytes);
            peer.buffer.close();
        }
        if let Some(tx) = self.events_tx.take() {
            let _ = tx.send(SupEvent::Stop);
        }
        if let Some(h) = self.supervisor_handle.take() {
            if h.join().is_err() {
                LinkCounters::bump(&self.counters.thread_panics);
            }
        }

        self.slots
            .iter_mut()
            .map(|slot| match slot {
                Slot::Local { node } => Some(node.take().expect("its loop returned every node")),
                Slot::Remote { .. } => None,
            })
            .collect()
    }
}

impl<M: Payload + Wire> Default for ProcessRuntime<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshots a runtime's [`LinkMetrics`] without borrowing the runtime —
/// usable after [`ProcessRuntime::stop`] has consumed it.
#[derive(Clone, Debug)]
pub struct LinkMetricsHandle {
    counters: Arc<LinkCounters>,
    buffers: Vec<SendBuffer>,
}

impl LinkMetricsHandle {
    /// Current counter values.
    pub fn snapshot(&self) -> LinkMetrics {
        let mut m = LinkMetrics {
            link_downs: LinkCounters::get(&self.counters.link_downs),
            reconnect_attempts: LinkCounters::get(&self.counters.reconnect_attempts),
            link_restarts: LinkCounters::get(&self.counters.link_restarts),
            thread_panics: LinkCounters::get(&self.counters.thread_panics),
            frames_dropped: 0,
            bytes_dropped: 0,
            direct_writes: LinkCounters::get(&self.counters.direct_writes),
            writer_writes: LinkCounters::get(&self.counters.writer_writes),
            direct_write_timeouts: LinkCounters::get(&self.counters.direct_write_timeouts),
            borrowed_deliveries: LinkCounters::get(&self.counters.borrowed_deliveries),
            borrow_refused_busy: LinkCounters::get(&self.counters.borrow_refused_busy),
            borrow_refused_pending: LinkCounters::get(&self.counters.borrow_refused_pending),
            borrow_refused_not_quiet: LinkCounters::get(&self.counters.borrow_refused_not_quiet),
        };
        for b in &self.buffers {
            m.frames_dropped += b.dropped_frames();
            m.bytes_dropped += b.dropped_bytes();
        }
        m
    }
}

/// True for connect/accept errors that retrying cannot heal: the path is
/// wrong or forbidden, not merely "peer not up yet".
fn connect_error_is_fatal(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::PermissionDenied
            | std::io::ErrorKind::NotADirectory
            | std::io::ErrorKind::InvalidInput
            | std::io::ErrorKind::Unsupported
    )
}

/// The supervisor's view of one peer link.
struct SupPeer {
    /// The initial connection, consumed by the first bring-up.
    pending_stream: Option<UnixStream>,
    /// Clone of the live stream, kept so the supervisor can force the
    /// reader's blocking `read` to return (socket shutdown) on teardown.
    teardown: Option<UnixStream>,
    endpoint: Option<PeerEndpoint>,
    buffer: SendBuffer,
    /// Installed in `bring_up` before the epoch's writer spawns, cleared
    /// after teardown.
    live: LiveStream,
    lifecycle: Arc<LinkLifecycle>,
    status: Arc<Mutex<PeerStatus>>,
    /// Live writer/reader thread handles of the current epoch.
    writer: Option<std::thread::JoinHandle<()>>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Routes this supervisor forced down when the peer died, restored on
    /// reconnect.
    saved_routes: Vec<(NodeId, NodeId)>,
    /// Nodes hosted behind this peer (for computing crossing routes).
    behind: Vec<NodeId>,
}

/// Owner of every link's service threads. One per runtime, spawned by
/// [`ProcessRuntime::start`]; consumes [`SupEvent`]s until told to stop.
///
/// The supervision contract: a link failure of any kind — torn socket,
/// misframed stream, undecodable payload, handshake mismatch — becomes a
/// [`LinkDownCause`] delivered here, never a panic. The supervisor marks
/// the peer's routes down, drains-and-drops its send buffer (producers
/// blocked on the dead link wake immediately; subsequent frames are
/// counted and dropped), joins the dead epoch's threads, and — when a
/// [`ReconnectPolicy`] is armed and the cause is retryable —
/// re-establishes the connection, replays Hello, restores the saved
/// routes and re-broadcasts the full known link state.
struct Supervisor<M: Payload + Wire> {
    rx: Receiver<SupEvent>,
    tx: Sender<SupEvent>,
    peers: Vec<SupPeer>,
    /// Per node, its event loop (for the readers' routing).
    loop_of: Vec<Option<Arc<LiveLoop<M>>>>,
    /// Every event loop's inbox, each told of a peer change once.
    loops: Vec<Inbox<M>>,
    links: Arc<RwLock<LinkSet>>,
    expected_nodes: u32,
    policy: Option<ReconnectPolicy>,
    counters: Arc<LinkCounters>,
    stopping: Arc<AtomicBool>,
}

impl<M: Payload + Wire> Supervisor<M> {
    fn run(mut self) {
        for i in 0..self.peers.len() {
            let stream = self.peers[i].pending_stream.take().expect("initial stream present");
            if let Err(e) = self.bring_up(i, stream, 0) {
                // Could not even clone the initial socket: treat as an
                // immediate link death.
                self.handle_down(i, LinkDownCause::Read(e.kind()));
                continue;
            }
            self.peers[i].status.lock().up = true;
        }
        // `Stop` (or a closed channel) ends supervision; everything else
        // is a link death to contain.
        while let Ok(SupEvent::Down { peer, cause }) = self.rx.recv() {
            self.handle_down(peer, cause);
        }
        for i in 0..self.peers.len() {
            self.teardown_peer(i, true);
        }
    }

    /// Installs `stream` as `epoch`'s live stream for event loops' direct
    /// writes, then spawns the epoch's writer/reader pair over it.
    fn bring_up(&mut self, i: usize, stream: UnixStream, epoch: u64) -> std::io::Result<()> {
        // One send timeout for every descriptor of the socket.
        stream.set_write_timeout(Some(WRITE_PATIENCE))?;
        let write_half = stream.try_clone()?;
        let teardown = stream.try_clone()?;
        let direct = stream.try_clone()?;
        let p = &mut self.peers[i];
        p.teardown = Some(teardown);
        *p.live.lock() = Some((epoch, Arc::new(direct)));
        let buffer = p.buffer.clone();
        let lifecycle = Arc::clone(&p.lifecycle);
        let events = self.tx.clone();
        let counters = Arc::clone(&self.counters);
        let wr = std::thread::Builder::new()
            .name(format!("rebeca-wr-{i}-e{epoch}"))
            .spawn(move || writer_loop(write_half, buffer, lifecycle, events, counters, i, epoch))
            .expect("spawn writer thread");
        p.writer = Some(wr);

        let reader = Reader {
            loop_of: self.loop_of.clone(),
            links: Arc::clone(&self.links),
            expected_nodes: self.expected_nodes,
            counters: Arc::clone(&self.counters),
        };
        let lifecycle = Arc::clone(&p.lifecycle);
        let events = self.tx.clone();
        let rd = std::thread::Builder::new()
            .name(format!("rebeca-rd-{i}-e{epoch}"))
            .spawn(move || reader.run(stream, lifecycle, events, i, epoch))
            .expect("spawn reader thread");
        self.peers[i].reader = Some(rd);
        Ok(())
    }

    /// One link died: contain the damage, then (policy permitting) heal.
    fn handle_down(&mut self, i: usize, cause: LinkDownCause) {
        LinkCounters::bump(&self.counters.link_downs);
        // Mark every up route that crosses this peer down, locally only:
        // the peer is unreachable, so there is nobody to broadcast to, and
        // other peers' views of *their* routes are unaffected.
        let saved: Vec<(NodeId, NodeId)> = {
            let behind = &self.peers[i].behind;
            let mut l = self.links.write();
            let crossing: Vec<(NodeId, NodeId)> =
                l.up.iter()
                    .filter(|(a, b)| behind.contains(a) || behind.contains(b))
                    .copied()
                    .collect();
            for pair in &crossing {
                l.up.remove(pair);
            }
            crossing
        };
        // Failure-detector verdict to every local node, through its loop:
        // the nodes behind this peer are unreachable until the link
        // restarts (the replication layer's view-change trigger).
        let down_nodes = Arc::new(self.peers[i].behind.clone());
        for inbox in &self.loops {
            inbox.post(Envelope::PeerChange { nodes: Arc::clone(&down_nodes), up: false });
        }
        self.peers[i].saved_routes = saved;
        // Drain-and-drop the send buffer: releases any producer blocked on
        // the dead link and tells the old writer (if it is the surviving
        // half) to exit. Every discarded byte is counted.
        self.peers[i].buffer.mark_down();
        // Only now publish the verdict: whoever sees the link down finds
        // its buffer down too, so a frame sent after that is a counted drop.
        {
            let mut st = self.peers[i].status.lock();
            st.up = false;
            st.last_cause = Some(cause.clone());
        }
        self.teardown_peer(i, false);

        // ordering: Relaxed — advisory flag, see ProcessRuntime::stop.
        if self.stopping.load(Ordering::Relaxed) {
            return;
        }
        let Some(policy) = self.policy.clone() else { return };
        if !cause.retryable() {
            return;
        }
        if let Some(stream) = self.reconnect(i, &policy) {
            self.restart_peer(i, stream);
        }
    }

    /// Retires the current epoch's socket and threads, counting panics
    /// (the supervision contract says there are none). `orderly` teardown
    /// (runtime stop) lets the writer flush its closed buffer — including
    /// the final `Shutdown` frame — before touching the socket; a dead
    /// link is shut down immediately to release whichever thread survived.
    fn teardown_peer(&mut self, i: usize, orderly: bool) {
        let mut panics = 0u64;
        let mut join = |h: Option<std::thread::JoinHandle<()>>| {
            if let Some(h) = h {
                if h.join().is_err() {
                    panics += 1;
                }
            }
        };
        if orderly {
            join(self.peers[i].writer.take());
            if let Some(s) = self.peers[i].teardown.take() {
                let _ = s.shutdown(std::net::Shutdown::Read);
            }
        } else {
            if let Some(s) = self.peers[i].teardown.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            join(self.peers[i].writer.take());
        }
        join(self.peers[i].reader.take());
        // The shut-down socket fails any direct write still holding it;
        // no new one may start on it.
        *self.peers[i].live.lock() = None;
        for _ in 0..panics {
            LinkCounters::bump(&self.counters.thread_panics);
        }
    }

    /// Re-establishes the connection under `policy`. Returns `None` when
    /// the link cannot heal: no endpoint (adopted socketpair), a fatal
    /// connect error, attempts exhausted, or the runtime is stopping.
    fn reconnect(&mut self, i: usize, policy: &ReconnectPolicy) -> Option<UnixStream> {
        let endpoint = self.peers[i].endpoint.as_ref()?;
        let mut rng = SplitMix64::new(0x7ec0_u64 ^ (i as u64) << 8);
        for attempt in 0..policy.max_attempts {
            // ordering: Relaxed — advisory flag, see ProcessRuntime::stop.
            if self.stopping.load(Ordering::Relaxed) {
                return None;
            }
            LinkCounters::bump(&self.counters.reconnect_attempts);
            let result = match endpoint {
                PeerEndpoint::Dial(path) => UnixStream::connect(path),
                PeerEndpoint::Listen(listener) => {
                    // Poll-accept: a blocking accept could strand the
                    // supervisor forever if the peer never comes back.
                    listener.set_nonblocking(true).and_then(|()| {
                        listener.accept().map(|(s, _)| s).inspect(|s| {
                            let _ = s.set_nonblocking(false);
                        })
                    })
                }
            };
            match result {
                Ok(stream) => return Some(stream),
                Err(e) if connect_error_is_fatal(e.kind()) => {
                    self.peers[i].status.lock().last_cause = Some(LinkDownCause::Read(e.kind()));
                    return None;
                }
                Err(_) => sleep_unless_stopping(policy.backoff(attempt, &mut rng), &self.stopping),
            }
        }
        None
    }

    /// A fresh connection is up: replay the handshake, restore routes,
    /// re-broadcast link state, and spawn the next epoch's threads.
    fn restart_peer(&mut self, i: usize, stream: UnixStream) {
        let epoch = self.peers[i].lifecycle.restarted();
        // One coalesced batch, queued atomically with the up-flip (and
        // before the new writer exists): Hello first (the peer's handshake
        // check), then our full known link state — the restarted peer may
        // have empty or stale state, and convergence beats minimality
        // here.
        let mut bytes = Vec::new();
        encode_frame(&Frame::Hello { nodes: self.expected_nodes }, &mut bytes);
        {
            let mut l = self.links.write();
            let saved = std::mem::take(&mut self.peers[i].saved_routes);
            for pair in saved {
                l.up.insert(pair);
            }
            let mut known: Vec<(NodeId, NodeId)> =
                l.known.iter().filter(|(a, b)| a.raw() <= b.raw()).copied().collect();
            known.sort_unstable_by_key(|(a, b)| (a.raw(), b.raw()));
            for (a, b) in known {
                let up = l.up.contains(&(a, b));
                encode_frame(&Frame::SetLink { a, b, up }, &mut bytes);
            }
        }
        self.peers[i].buffer.mark_up_with(&bytes);
        if let Err(e) = self.bring_up(i, stream, epoch) {
            self.peers[i].buffer.mark_down();
            self.peers[i].status.lock().last_cause = Some(LinkDownCause::Read(e.kind()));
            return;
        }
        LinkCounters::bump(&self.counters.link_restarts);
        {
            let mut st = self.peers[i].status.lock();
            st.up = true;
            st.restarts += 1;
        }
        let up_nodes = Arc::new(self.peers[i].behind.clone());
        for inbox in &self.loops {
            inbox.post(Envelope::PeerChange { nodes: Arc::clone(&up_nodes), up: true });
        }
    }
}

/// Sleeps `total` in short slices, returning early once `stopping` flips.
fn sleep_unless_stopping(total: Duration, stopping: &AtomicBool) {
    let deadline = Instant::now() + total;
    loop {
        // ordering: Relaxed — advisory flag, see ProcessRuntime::stop.
        if stopping.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

/// Writes `bytes` until all are written, or until the socket's send
/// timeout ([`WRITE_PATIENCE`]) passes with no room. Returns the bytes
/// written and the error that ended the write, if one did (a timeout is
/// not one).
fn write_within_patience(mut stream: &UnixStream, bytes: &[u8]) -> (usize, Option<std::io::Error>) {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return (written, Some(ErrorKind::WriteZero.into())),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => return (written, Some(e)),
        }
    }
    (written, None)
}

#[allow(clippy::too_many_arguments)]
fn writer_loop(
    stream: UnixStream,
    buffer: SendBuffer,
    lifecycle: Arc<LinkLifecycle>,
    events: Sender<SupEvent>,
    counters: Arc<LinkCounters>,
    peer: usize,
    epoch: u64,
) {
    let mut out = Vec::new();
    while buffer.drain_into(&mut out) {
        LinkCounters::bump(&counters.writer_writes);
        // The send timeout bounds the event loops' direct writes; the
        // writer thread waits on until the batch is out.
        let mut rest = &out[..];
        while !rest.is_empty() {
            let (written, failed) = write_within_patience(&stream, rest);
            if let Some(e) = failed {
                // Torn link: report it (first reporter of this epoch wins)
                // and exit. The supervisor drains-and-drops the buffer, so
                // producers never block on the dead link.
                if lifecycle.report_down(epoch) {
                    let _ =
                        events.send(SupEvent::Down { peer, cause: LinkDownCause::Write(e.kind()) });
                }
                return;
            }
            rest = &rest[written..];
        }
    }
    // Buffer closed (orderly stop) or marked down: flush and half-close so
    // the peer's reader sees EOF after the last frame.
    let _ = (&stream).flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// What a cleanly parsed batch of frames asks the reader to do next.
enum ReadControl {
    /// Keep reading.
    Continue,
    /// The peer announced an orderly shutdown.
    PeerShutdown,
}

/// What a peer link's reader thread needs besides its socket.
struct Reader<M: Payload + Wire> {
    /// Per node, the event loop hosting it (`None` for remote nodes).
    loop_of: Vec<Option<Arc<LiveLoop<M>>>>,
    links: Arc<RwLock<LinkSet>>,
    expected_nodes: u32,
    counters: Arc<LinkCounters>,
}

impl<M: Payload + Wire> Reader<M> {
    /// Parses and dispatches every whole frame currently buffered in `re`.
    /// A message whose read held it alone may run on this thread (see
    /// [`Loop::deliver`]). Malformed input — misframing, undecodable
    /// payloads, a Hello that contradicts our node table — is an error,
    /// never a panic: the caller turns it into a link-down report.
    fn drain_frames(&self, re: &mut FrameReassembler) -> Result<ReadControl, LinkDownCause> {
        let mut first = true;
        loop {
            let frame = re.next_frame();
            let alone = std::mem::take(&mut first) && re.pending_bytes() == 0;
            match frame {
                Ok(Some(Frame::Msg { from, to, payload })) => {
                    let msg = match M::decode(&payload) {
                        Ok(m) => m,
                        Err(e) => return Err(LinkDownCause::Decode(e.to_string())),
                    };
                    // Frames for nodes this process does not host are
                    // dropped: the sender misdeclared the topology, and the
                    // Hello handshake already tore the link down for it.
                    if let Some(Some(lp)) = self.loop_of.get(to.raw() as usize) {
                        lp.deliver(from, to, msg, alone, &self.counters);
                    }
                }
                Ok(Some(Frame::SetLink { a, b, up })) => self.links.write().set(a, b, up),
                Ok(Some(Frame::Hello { nodes })) => {
                    if nodes != self.expected_nodes {
                        return Err(LinkDownCause::HelloMismatch {
                            peer_nodes: nodes,
                            local_nodes: self.expected_nodes,
                        });
                    }
                }
                Ok(Some(Frame::Shutdown)) => return Ok(ReadControl::PeerShutdown),
                Ok(None) => return Ok(ReadControl::Continue), // partial frame
                Err(e) => return Err(LinkDownCause::Misframe(e.to_string())),
            }
        }
    }

    fn run(
        self,
        mut stream: UnixStream,
        lifecycle: Arc<LinkLifecycle>,
        events: Sender<SupEvent>,
        peer: usize,
        epoch: u64,
    ) {
        let mut re = FrameReassembler::new();
        let mut chunk = [0u8; 64 * 1024];
        let cause = loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) => break LinkDownCause::Eof,
                Err(e) => break LinkDownCause::Read(e.kind()),
                Ok(n) => n,
            };
            re.push(&chunk[..n]);
            match self.drain_frames(&mut re) {
                Ok(ReadControl::Continue) => {}
                Ok(ReadControl::PeerShutdown) => break LinkDownCause::PeerShutdown,
                Err(cause) => break cause,
            }
        };
        if lifecycle.report_down(epoch) {
            let _ = events.send(SupEvent::Down { peer, cause });
        }
    }
}

#[cfg(all(test, not(rebeca_verify)))]
pub(crate) mod tests {
    use super::*;
    use crate::node::Ctx;
    use rebeca_core::CoreError;
    use std::any::Any;

    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Tick(pub(crate) u64);

    impl Payload for Tick {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl Wire for Tick {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| CoreError::Truncated { need: 8, have: bytes.len() })?;
            Ok(Tick(u64::from_le_bytes(arr)))
        }
    }

    #[derive(Default)]
    pub(crate) struct Collector {
        peer: Option<NodeId>,
        received: Vec<u64>,
        max_hops: u64,
    }

    impl Node<Tick> for Collector {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, _from: NodeId, msg: Tick) {
            self.received.push(msg.0);
            if msg.0 < self.max_hops {
                if let Some(p) = self.peer {
                    ctx.send(p, Tick(msg.0 + 1));
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two ProcessRuntimes in ONE test process, joined by a socketpair:
    /// exercises the full frame path (encode → SendBuffer → stream →
    /// reassembler → decode) without fork/exec. The genuinely
    /// two-OS-process proof lives in tests/process_soak.rs at the
    /// workspace root.
    #[test]
    fn ping_pong_across_a_socketpair() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");

        // "Process" A hosts node 0, sees node 1 behind its peer.
        let mut ra: ProcessRuntime<Tick> = ProcessRuntime::new();
        let pa = ra.add_peer(sa);
        let a0 = ra.add_local(Box::new(Collector {
            peer: Some(NodeId::new(1)),
            max_hops: 9,
            ..Default::default()
        }));
        let a1 = ra.add_remote(pa);
        ra.connect(a0, a1);

        // "Process" B hosts node 1, sees node 0 behind its peer.
        let mut rb: ProcessRuntime<Tick> = ProcessRuntime::new();
        let pb = rb.add_peer(sb);
        let b0 = rb.add_remote(pb);
        let b1 = rb.add_local(Box::new(Collector {
            peer: Some(NodeId::new(0)),
            max_hops: 9,
            ..Default::default()
        }));
        rb.connect(b0, b1);

        ra.start();
        rb.start();
        ra.send_external(a0, Tick(0));
        std::thread::sleep(Duration::from_millis(300));

        let na = ra.stop();
        let nb = rb.stop();
        let ca = na[0].as_ref().unwrap().as_any().downcast_ref::<Collector>().unwrap();
        let cb = nb[1].as_ref().unwrap().as_any().downcast_ref::<Collector>().unwrap();
        assert_eq!(ca.received, vec![0, 2, 4, 6, 8]);
        assert_eq!(cb.received, vec![1, 3, 5, 7, 9]);
        assert!(na[1].is_none(), "remote slot yields no node");
        assert!(nb[0].is_none(), "remote slot yields no node");
    }

    #[test]
    fn down_links_drop_frames_and_reestablish() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");

        let mut ra: ProcessRuntime<Tick> = ProcessRuntime::new();
        let pa = ra.add_peer(sa);
        let a0 = ra.add_local(Box::new(Collector {
            peer: Some(NodeId::new(1)),
            max_hops: 1000,
            ..Default::default()
        }));
        let a1 = ra.add_remote(pa);
        ra.connect(a0, a1);

        let mut rb: ProcessRuntime<Tick> = ProcessRuntime::new();
        let pb = rb.add_peer(sb);
        let b0 = rb.add_remote(pb);
        let b1 = rb.add_local(Box::new(Collector { peer: None, ..Default::default() }));
        rb.connect(b0, b1);

        ra.start();
        rb.start();

        // Drop the link from A's side; the SetLink frame aligns B's view.
        ra.set_link_up(a0, a1, false);
        std::thread::sleep(Duration::from_millis(100));
        ra.send_external(a0, Tick(100));
        std::thread::sleep(Duration::from_millis(100));

        // Re-establish and send again: one more SetLink each way.
        ra.set_link_up(a0, a1, true);
        std::thread::sleep(Duration::from_millis(100));
        ra.send_external(a0, Tick(200));
        std::thread::sleep(Duration::from_millis(200));

        ra.stop();
        let nb = rb.stop();
        let cb = nb[1].as_ref().unwrap().as_any().downcast_ref::<Collector>().unwrap();
        assert_eq!(
            cb.received,
            vec![201],
            "frame sent across the down link must drop; post-reconnect frame must arrive"
        );
    }

    /// Sets one 5 ms timer on start and records that it fired.
    #[derive(Default)]
    struct TimerOnce {
        fired: bool,
    }

    impl Node<Tick> for TimerOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Tick>) {
            ctx.set_timer(rebeca_core::SimDuration::from_millis(5), 1);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Tick>, _: NodeId, _: Tick) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, Tick>, _: crate::node::TimerId, _: u64) {
            self.fired = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A runtime with no peers: two local nodes, no socket anywhere.
    fn local_pair(max_hops: u64, b_replies: bool) -> (ProcessRuntime<Tick>, NodeId, NodeId) {
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let a = rt.add_local(Box::new(Collector {
            peer: Some(NodeId::new(1)),
            max_hops,
            ..Default::default()
        }));
        let b = rt.add_local(Box::new(Collector {
            peer: b_replies.then_some(NodeId::new(0)),
            max_hops,
            ..Default::default()
        }));
        rt.connect(a, b);
        (rt, a, b)
    }

    pub(crate) fn collected(nodes: &[Option<Box<dyn Node<Tick>>>], id: NodeId) -> &[u64] {
        let node = nodes[id.raw() as usize].as_ref().expect("local node");
        &node.as_any().downcast_ref::<Collector>().expect("collector").received
    }

    #[test]
    fn ping_pong_between_local_nodes() {
        let (mut rt, a, b) = local_pair(10, true);
        rt.start();
        rt.send_external(a, Tick(0));
        std::thread::sleep(Duration::from_millis(200));
        let nodes = rt.stop();
        assert_eq!(collected(&nodes, a), [0, 2, 4, 6, 8, 10]);
        assert_eq!(collected(&nodes, b), [1, 3, 5, 7, 9]);
    }

    #[test]
    fn timers_fire_on_local_node_threads() {
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let t = rt.add_local(Box::new(TimerOnce::default()));
        rt.start();
        std::thread::sleep(Duration::from_millis(100));
        let nodes = rt.stop();
        let node = nodes[t.raw() as usize].as_ref().expect("local node");
        assert!(node.as_any().downcast_ref::<TimerOnce>().expect("timer node").fired);
    }

    #[test]
    fn down_links_block_local_traffic() {
        let (mut rt, a, b) = local_pair(10, false);
        rt.set_link_up(a, b, false);
        rt.start();
        rt.send_external(a, Tick(0));
        std::thread::sleep(Duration::from_millis(100));
        let nodes = rt.stop();
        assert_eq!(collected(&nodes, a), [0], "the external send reaches A");
        assert!(collected(&nodes, b).is_empty(), "message crossed a down link");
    }

    pub(crate) fn frame_bytes(f: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(f, &mut out);
        out
    }

    /// One message frame, as a peer process writes it.
    pub(crate) fn tick_frame(from: NodeId, to: NodeId, tick: u64) -> Vec<u8> {
        let mut out = Vec::new();
        encode_msg_frame(from, to, &Tick(tick), &mut out);
        out
    }

    /// Every delivery the readers handed over, borrowed or posted.
    fn handed_over(m: &LinkMetrics) -> u64 {
        m.borrowed_deliveries
            + m.borrow_refused_busy
            + m.borrow_refused_pending
            + m.borrow_refused_not_quiet
    }

    /// Writes `frame` alone, and `answered` waits for what it provokes,
    /// until a reader borrows the frame's loop: the loop thread has parked
    /// then, and with no timer and nothing posted it stays parked, so every
    /// later lone frame is borrowed.
    pub(crate) fn until_borrowed(
        remote: &mut UnixStream,
        frame: &[u8],
        mh: &LinkMetricsHandle,
        mut answered: impl FnMut(&mut UnixStream),
    ) {
        for _ in 0..1000 {
            let before = mh.snapshot();
            remote.write_all(frame).expect("write");
            assert!(wait_until(Duration::from_secs(5), || {
                handed_over(&mh.snapshot()) > handed_over(&before)
            }));
            answered(remote);
            if mh.snapshot().borrowed_deliveries > before.borrowed_deliveries {
                return;
            }
        }
        panic!("no lone frame was ever borrowed");
    }

    /// Reads whole frames off a raw test-side stream.
    pub(crate) fn recv_frame(stream: &mut UnixStream, re: &mut FrameReassembler) -> Frame {
        loop {
            if let Some(f) = re.next_frame().expect("well-formed frame from runtime") {
                return f;
            }
            let mut buf = [0u8; 1024];
            let n = stream.read(&mut buf).expect("read from runtime");
            assert!(n > 0, "unexpected EOF from runtime");
            re.push(&buf[..n]);
        }
    }

    pub(crate) fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    /// Waits until the link's writer thread has handed the write token back
    /// (it holds it for a batch until its next drain), so the next quiet
    /// send is granted a direct write.
    pub(crate) fn wait_token_idle(buffer: &SendBuffer) {
        let idle = wait_until(Duration::from_secs(5), || {
            let granted = buffer.try_direct();
            if granted {
                buffer.end_direct(&[]);
            }
            granted
        });
        assert!(idle, "the writer thread never handed the token back");
    }

    fn connect_retry(path: &Path, timeout: Duration) -> UnixStream {
        let deadline = Instant::now() + timeout;
        loop {
            match UnixStream::connect(path) {
                Ok(s) => return s,
                Err(e) if Instant::now() >= deadline => panic!("connect {path:?}: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn temp_sock(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("rebeca-prt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A peer feeding garbage bytes kills only *its* link — no panic, no
    /// collateral damage to other peers — and the cause is recorded.
    #[test]
    fn garbage_bytes_tear_down_only_that_link() {
        let (garbage_local, mut garbage_remote) = UnixStream::pair().expect("socketpair");
        let (healthy_local, mut healthy_remote) = UnixStream::pair().expect("socketpair");

        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let pg = rt.add_peer(garbage_local);
        let ph = rt.add_peer(healthy_local);
        let n0 = rt.add_local(Box::new(Collector { peer: None, ..Default::default() }));
        let n1 = rt.add_remote(pg);
        let n2 = rt.add_remote(ph);
        rt.connect(n0, n1);
        rt.connect(n0, n2);
        let mh = rt.metrics_handle();
        rt.start();

        // Not a frame in any protocol version: the reader must lose sync.
        garbage_remote.write_all(&[0xFF; 64]).expect("write garbage");
        assert!(
            wait_until(Duration::from_secs(5), || rt.peer_status(pg).last_cause.is_some()),
            "garbage link must be reported down"
        );
        assert!(!rt.peer_status(pg).up);
        assert!(
            matches!(rt.peer_status(pg).last_cause, Some(LinkDownCause::Misframe(_))),
            "cause must be Misframe, got {:?}",
            rt.peer_status(pg).last_cause
        );

        // The healthy link keeps delivering.
        let mut re = FrameReassembler::new();
        let hello = recv_frame(&mut healthy_remote, &mut re);
        assert_eq!(hello, Frame::Hello { nodes: 3 });
        healthy_remote.write_all(&frame_bytes(&Frame::Hello { nodes: 3 })).expect("hello");
        let mut payload = Vec::new();
        Tick(7).encode_into(&mut payload);
        healthy_remote
            .write_all(&frame_bytes(&Frame::Msg { from: n2, to: n0, payload }))
            .expect("msg");
        assert!(wait_until(Duration::from_secs(5), || rt.peer_status(ph).up));

        std::thread::sleep(Duration::from_millis(100));
        let nodes = rt.stop();
        let c = nodes[0].as_ref().unwrap().as_any().downcast_ref::<Collector>().unwrap();
        assert_eq!(c.received, vec![7], "healthy peer unaffected by the garbage one");
        let m = mh.snapshot();
        assert_eq!(m.link_downs, 1);
        assert_eq!(m.reconnect_attempts, 0, "no policy: no reconnection");
        assert_eq!(m.thread_panics, 0, "malformed input must never panic a thread");
    }

    /// A Hello declaring a different node table downs the link with a
    /// non-retryable cause: even an armed policy must not redial.
    #[test]
    fn hello_mismatch_downs_the_link_and_never_redials() {
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let n0 = rt.add_local(Box::new(Collector { peer: None, ..Default::default() }));
        let n1 = rt.add_remote(peer);
        rt.connect(n0, n1);
        rt.set_reconnect_policy(ReconnectPolicy::default());
        let mh = rt.metrics_handle();
        rt.start();

        remote.write_all(&frame_bytes(&Frame::Hello { nodes: 99 })).expect("bad hello");
        assert!(wait_until(Duration::from_secs(5), || rt.peer_status(peer).last_cause.is_some()));
        assert!(!rt.peer_status(peer).up);
        assert_eq!(
            rt.peer_status(peer).last_cause,
            Some(LinkDownCause::HelloMismatch { peer_nodes: 99, local_nodes: 2 })
        );
        rt.stop();
        let m = mh.snapshot();
        assert_eq!(m.link_downs, 1);
        assert_eq!(m.reconnect_attempts, 0, "HelloMismatch is not retryable");
        assert_eq!(m.thread_panics, 0);
    }

    fn fast_policy() -> ReconnectPolicy {
        ReconnectPolicy {
            initial: Duration::from_millis(2),
            max: Duration::from_millis(10),
            jitter: 0.0,
            max_attempts: 400,
        }
    }

    /// Dial-side supervision: when the dialed peer dies, the supervisor
    /// re-dials the same path, replays Hello, and re-broadcasts link state.
    #[test]
    fn reconnect_redials_and_replays_the_handshake() {
        let path = temp_sock("redial");
        let listener = UnixListener::bind(&path).expect("bind");
        let accept = std::thread::spawn(move || {
            let (s, _) = listener.accept().expect("accept");
            (listener, s)
        });

        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.dial_uds(&path, Duration::from_secs(1)).expect("dial");
        let n0 = rt.add_local(Box::new(Collector { peer: None, ..Default::default() }));
        let n1 = rt.add_remote(peer);
        rt.connect(n0, n1);
        rt.set_reconnect_policy(fast_policy());
        let mh = rt.metrics_handle();
        rt.start();

        let (listener, mut conn1) = accept.join().expect("accept thread");
        let mut re = FrameReassembler::new();
        assert_eq!(recv_frame(&mut conn1, &mut re), Frame::Hello { nodes: 2 });
        // What an event loop holds when it is about to write directly
        // into epoch 0.
        let stale = rt.peers[peer.0].live.lock().clone();
        assert_eq!(stale.as_ref().map(|(epoch, _)| *epoch), Some(0), "epoch 0 is live");

        // Kill the first connection: the supervisor must re-dial.
        drop(conn1);
        let (mut conn2, _) = listener.accept().expect("re-accept the supervisor's dial");
        let mut re = FrameReassembler::new();
        assert_eq!(
            recv_frame(&mut conn2, &mut re),
            Frame::Hello { nodes: 2 },
            "handshake replays first on the fresh connection"
        );
        assert_eq!(
            recv_frame(&mut conn2, &mut re),
            Frame::SetLink { a: n0, b: n1, up: true },
            "saved routes are restored and re-broadcast"
        );

        conn2.write_all(&frame_bytes(&Frame::Hello { nodes: 2 })).expect("hello");
        let mut payload = Vec::new();
        Tick(42).encode_into(&mut payload);
        conn2.write_all(&frame_bytes(&Frame::Msg { from: n1, to: n0, payload })).expect("msg");

        assert!(wait_until(Duration::from_secs(5), || {
            let st = rt.peer_status(peer);
            st.up && st.restarts == 1
        }));

        // The zombie direct write: granted on the restarted link (nothing
        // queued, no write in flight), it goes to epoch 0's shut-down
        // socket, fails, and its report must lose to the restart.
        let p = &rt.peers[peer.0];
        let tx = PeerTx {
            peer: peer.0,
            buffer: p.buffer.clone(),
            live: Arc::clone(&p.live),
            lifecycle: Arc::clone(&p.lifecycle),
            events: rt.events_tx.clone().expect("started"),
            counters: Arc::clone(&rt.counters),
        };
        wait_token_idle(&tx.buffer);
        let (_, dead) = stale.clone().expect("epoch 0's stream");
        assert!((&*dead).write_all(&[0]).is_err(), "epoch 0's socket is shut down");
        let mut payload = Vec::new();
        Tick(7).encode_into(&mut payload);
        tx.send_on(stale, &frame_bytes(&Frame::Msg { from: n0, to: n1, payload }), false);
        assert!(!tx.lifecycle.is_down(), "a dead epoch's write cannot down the restarted link");
        assert!(tx.buffer.try_direct(), "the zombie returned the token");
        tx.buffer.end_direct(&[]);

        std::thread::sleep(Duration::from_millis(100));
        assert!(rt.peer_status(peer).up);
        let nodes = rt.stop();
        let c = nodes[0].as_ref().unwrap().as_any().downcast_ref::<Collector>().unwrap();
        assert_eq!(c.received, vec![42], "the healed link delivers");
        let m = mh.snapshot();
        assert_eq!(m.link_downs, 1);
        assert_eq!(m.link_restarts, 1);
        assert!(m.reconnect_attempts >= 1);
        assert_eq!(m.thread_panics, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Sends a numbered tick to `peer`: one per `Tick(0)` it gets, a burst
    /// of 64 per `Tick(1)`.
    struct Script {
        peer: NodeId,
        next: u64,
    }

    impl Node<Tick> for Script {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, _from: NodeId, msg: Tick) {
            let n = if msg.0 == 1 { 64 } else { 1 };
            for _ in 0..n {
                ctx.send(self.peer, Tick(self.next));
                self.next += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A node switching between direct writes (a lone tick, sent with an
    /// empty inbox) and the queue (a burst of 64, sent with a message
    /// behind it, and any send while the writer is busy): the remote
    /// collector sees one strict sequence, nothing lost or duplicated.
    #[test]
    fn fifo_holds_across_direct_and_queued_sends() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut ra: ProcessRuntime<Tick> = ProcessRuntime::new();
        let pa = ra.add_peer(sa);
        let a0 = ra.add_local(Box::new(Script { peer: NodeId::new(1), next: 0 }));
        let a1 = ra.add_remote(pa);
        ra.connect(a0, a1);
        let mut rb: ProcessRuntime<Tick> = ProcessRuntime::new();
        let pb = rb.add_peer(sb);
        let b0 = rb.add_remote(pb);
        let b1 = rb.add_local(Box::new(Collector { peer: None, ..Default::default() }));
        rb.connect(b0, b1);
        ra.start();
        rb.start();

        // The pauses only let lone ticks find an empty inbox and an idle
        // link; the order must hold however the paths interleave.
        const ROUNDS: u64 = 40;
        for _ in 0..ROUNDS {
            ra.send_external(a0, Tick(1));
            ra.send_external(a0, Tick(0));
            std::thread::sleep(Duration::from_millis(1));
            ra.send_external(a0, Tick(0));
            std::thread::sleep(Duration::from_millis(1));
        }
        // A's stop runs its node to the end and ends the stream with a
        // Shutdown frame; once B's reader has seen it, every tick before
        // it is in the collector's inbox, ahead of B's Stop.
        ra.stop();
        assert!(wait_until(Duration::from_secs(10), || {
            rb.peer_status(pb).last_cause == Some(LinkDownCause::PeerShutdown)
        }));
        let nb = rb.stop();
        let cb = nb[1].as_ref().unwrap().as_any().downcast_ref::<Collector>().unwrap();
        let want: Vec<u64> = (0..ROUNDS * 66).collect();
        assert_eq!(cb.received, want, "one strict sequence across both send paths");
    }

    /// A quiet node writes into a peer that stopped reading: the direct
    /// write fails, the link goes down exactly once with a write cause,
    /// no thread panics, and later frames are counted drops.
    #[test]
    fn a_failed_direct_write_is_one_write_down() {
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let n0 = rt.add_local(Box::new(Collector {
            peer: Some(NodeId::new(1)),
            max_hops: u64::MAX,
            ..Default::default()
        }));
        let n1 = rt.add_remote(peer);
        rt.connect(n0, n1);
        let mh = rt.metrics_handle();
        rt.start();
        let mut re = FrameReassembler::new();
        assert_eq!(recv_frame(&mut remote, &mut re), Frame::Hello { nodes: 2 });
        wait_token_idle(&rt.peers[peer.0].buffer);

        // The peer stops reading: a write to it fails with a broken pipe,
        // while our reader sees no end of stream.
        remote.shutdown(std::net::Shutdown::Read).expect("shutdown");
        rt.send_external(n0, Tick(0));
        assert!(wait_until(Duration::from_secs(5), || rt.peer_status(peer).last_cause.is_some()));
        assert_eq!(
            rt.peer_status(peer).last_cause,
            Some(LinkDownCause::Write(std::io::ErrorKind::BrokenPipe))
        );
        assert!(!rt.peer_status(peer).up);

        // Node sends across the downed route are gated off; frames that
        // still reach the link (here: from outside) are counted drops.
        rt.send_external(n1, Tick(10));
        rt.send_external(n1, Tick(20));
        assert!(
            wait_until(Duration::from_secs(5), || mh.snapshot().frames_dropped == 2),
            "frames sent while down are counted drops"
        );
        rt.stop();
        let m = mh.snapshot();
        assert_eq!(m.link_downs, 1);
        assert_eq!(m.thread_panics, 0);
    }

    /// Answers every message with the same tick, and records the name of
    /// the thread each of its handlers ran on.
    #[derive(Default)]
    struct Echo {
        threads: Vec<String>,
    }

    impl Node<Tick> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, from: NodeId, msg: Tick) {
            self.threads.push(std::thread::current().name().unwrap_or_default().to_owned());
            ctx.send(from, msg);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// An unloaded ping-pong: each frame from the peer arrives alone while
    /// the loop is parked, so the reader runs every delivery itself and the
    /// quiet answer is its own direct write. Neither the loop thread nor
    /// the writer thread is woken.
    #[test]
    fn an_unloaded_peer_is_answered_on_the_reader_thread() {
        const ROUNDS: u64 = 200;
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let n0 = rt.add_local(Box::<Echo>::default());
        let n1 = rt.add_remote(peer);
        rt.connect(n0, n1);
        let mh = rt.metrics_handle();
        rt.start();
        let mut re = FrameReassembler::new();
        assert_eq!(recv_frame(&mut remote, &mut re), Frame::Hello { nodes: 2 });
        wait_token_idle(&rt.peers[peer.0].buffer);
        let answer = |i: u64| {
            let mut payload = Vec::new();
            Tick(i).encode_into(&mut payload);
            Frame::Msg { from: n0, to: n1, payload }
        };
        until_borrowed(&mut remote, &tick_frame(n1, n0, 0), &mh, |remote| {
            assert_eq!(recv_frame(remote, &mut re), answer(0));
        });
        let before = mh.snapshot();
        for i in 1..=ROUNDS {
            remote.write_all(&tick_frame(n1, n0, i)).expect("write");
            assert_eq!(recv_frame(&mut remote, &mut re), answer(i));
        }
        // A reader counts its borrowed delivery once its round is over,
        // after the answer left.
        let borrowed = || mh.snapshot().borrowed_deliveries - before.borrowed_deliveries;
        assert!(wait_until(Duration::from_secs(5), || borrowed() == ROUNDS), "{}", borrowed());
        let m = mh.snapshot();
        let nodes = rt.stop();
        let echo = nodes[0].as_ref().unwrap().as_any().downcast_ref::<Echo>().unwrap();
        let measured = &echo.threads[echo.threads.len() - ROUNDS as usize..];
        assert!(
            measured.iter().all(|t| t == "rebeca-rd-0-e0"),
            "every delivery ran on the reader: {measured:?}"
        );
        let refused = |m: &LinkMetrics| {
            m.borrow_refused_busy + m.borrow_refused_pending + m.borrow_refused_not_quiet
        };
        assert_eq!(refused(&m), refused(&before), "no borrow was refused");
        assert_eq!(m.direct_writes - before.direct_writes, ROUNDS, "every answer written directly");
        assert_eq!(m.writer_writes, 1, "the writer thread wrote the Hello only");
        assert_eq!(m.direct_write_timeouts, 0);
    }

    /// Answers each message from outside its loop with a burst of `BURST`
    /// numbered ticks to `peer`, and counts the messages it got.
    struct Chatter {
        peer: NodeId,
        next: u64,
        got: Arc<std::sync::atomic::AtomicU64>,
    }

    impl Node<Tick> for Chatter {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, _: NodeId, _: Tick) {
            for _ in 0..Chatter::BURST {
                ctx.send(self.peer, Tick(self.next));
                self.next += 1;
            }
            // ordering: Relaxed — a test counter, read by polling.
            self.got.fetch_add(1, Ordering::Relaxed);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl Chatter {
        const BURST: u64 = 64;
    }

    /// A peer that stops reading fills our socket: the direct writes of the
    /// borrowed rounds time out and hand their tails to the writer thread,
    /// so our reader keeps taking the peer's frames. Nothing goes down,
    /// and once the peer reads again every frame arrives whole and in order.
    #[test]
    fn a_peer_that_stops_reading_never_stalls_our_reader() {
        const MSGS: u64 = 40;
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let n0 = rt.add_local(Box::new(Chatter {
            peer: NodeId::new(1),
            next: 0,
            got: Arc::clone(&got),
        }));
        let n1 = rt.add_remote(peer);
        rt.connect(n0, n1);
        let mh = rt.metrics_handle();
        rt.start();
        wait_token_idle(&rt.peers[peer.0].buffer);
        for i in 0..MSGS {
            remote.write_all(&tick_frame(n1, n0, i)).expect("write");
            std::thread::sleep(Duration::from_millis(1));
        }
        // ordering: Relaxed — a test counter, read by polling.
        let all_taken = || got.load(Ordering::Relaxed) == MSGS;
        assert!(wait_until(Duration::from_secs(10), all_taken), "the reader stalled");
        let m = mh.snapshot();
        assert!(m.direct_write_timeouts > 0, "the socket never filled: {m:?}");
        assert_eq!(m.link_downs, 0);
        // The peer reads again: the Hello, then every tick in order.
        let mut re = FrameReassembler::new();
        assert_eq!(recv_frame(&mut remote, &mut re), Frame::Hello { nodes: 2 });
        for i in 0..MSGS * Chatter::BURST {
            let mut payload = Vec::new();
            Tick(i).encode_into(&mut payload);
            assert_eq!(recv_frame(&mut remote, &mut re), Frame::Msg { from: n0, to: n1, payload });
        }
        rt.stop();
        let m = mh.snapshot();
        assert_eq!((m.link_downs, m.frames_dropped, m.thread_panics), (0, 0, 0));
    }

    /// A payload of any size; a blob's first 8 bytes number it.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl Payload for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    impl Wire for Blob {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
            Ok(Blob(bytes.to_vec()))
        }
    }

    /// Answers each non-empty blob with `FLOOD` numbered blobs of `SIZE`
    /// bytes to `peer`.
    struct Flood {
        peer: NodeId,
        next: u64,
    }

    impl Flood {
        const FLOOD: u64 = 16;
        const SIZE: usize = 64 * 1024;
    }

    impl Node<Blob> for Flood {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Blob>, _: NodeId, msg: Blob) {
            if msg.0.is_empty() {
                return;
            }
            for _ in 0..Flood::FLOOD {
                let mut blob = vec![0; Flood::SIZE];
                blob[..8].copy_from_slice(&self.next.to_le_bytes());
                ctx.send(self.peer, Blob(blob));
                self.next += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Borrowed rounds answer a peer that stopped reading until its send
    /// buffer is full: the round that finds no room hands the rest of its
    /// sends to the loop thread, which waits for room, and the reader keeps
    /// taking frames meanwhile. Once the peer reads, every blob arrives in
    /// order.
    #[test]
    fn a_borrowed_round_hands_what_would_wait_to_the_loop_thread() {
        const MSGS: u64 = 8;
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let mut rt: ProcessRuntime<Blob> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let n0 = rt.add_local(Box::new(Flood { peer: NodeId::new(1), next: 0 }));
        let n1 = rt.add_remote(peer);
        rt.connect(n0, n1);
        let mh = rt.metrics_handle();
        rt.start();
        let frame = |blob: Vec<u8>| {
            let mut out = Vec::new();
            encode_msg_frame(n1, n0, &Blob(blob), &mut out);
            out
        };
        until_borrowed(&mut remote, &frame(Vec::new()), &mh, |_| {});
        // MSGS × 1 MiB against a 4 MiB buffer: the loop thread ends up
        // waiting for room, and the reader still hands every frame over.
        // Each frame is written once the last was handed over, so each
        // arrives alone.
        let before = mh.snapshot();
        for i in 1..=MSGS {
            remote.write_all(&frame(vec![1])).expect("write");
            let handed = || handed_over(&mh.snapshot()) - handed_over(&before) == i;
            assert!(wait_until(Duration::from_secs(10), handed), "the reader stalled at {i}");
        }
        let m = mh.snapshot();
        assert!(m.borrowed_deliveries > before.borrowed_deliveries, "{m:?}");
        assert!(
            m.borrow_refused_busy > before.borrow_refused_busy,
            "the loop thread waited: {m:?}"
        );
        let mut re = FrameReassembler::new();
        assert_eq!(recv_frame(&mut remote, &mut re), Frame::Hello { nodes: 2 });
        for i in 0..MSGS * Flood::FLOOD {
            let Frame::Msg { from, to, payload } = recv_frame(&mut remote, &mut re) else {
                panic!("a message frame");
            };
            assert_eq!((from, to, payload.len()), (n0, n1, Flood::SIZE));
            assert_eq!(payload[..8], i.to_le_bytes(), "blob {i} out of order");
        }
        rt.stop();
        let m = mh.snapshot();
        assert_eq!((m.link_downs, m.frames_dropped, m.thread_panics), (0, 0, 0));
    }

    /// Holds its handler for `HOLD` on a `Tick(1)`, after telling the test
    /// it started, and records the thread it held.
    struct Slow {
        started: Arc<AtomicBool>,
        held_on: Option<String>,
    }

    impl Slow {
        const HOLD: Duration = Duration::from_millis(200);
    }

    impl Node<Tick> for Slow {
        fn on_message(&mut self, _: &mut Ctx<'_, Tick>, _: NodeId, msg: Tick) {
            if msg.0 == 1 {
                // ordering: Relaxed — a test flag, read by polling.
                self.started.store(true, Ordering::Relaxed);
                std::thread::sleep(Slow::HOLD);
                self.held_on = std::thread::current().name().map(str::to_owned);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// `stop` while a reader runs a borrowed round: the loop thread waits
    /// for the borrower to hand the token back, then returns every node.
    #[test]
    fn stop_while_a_reader_holds_the_token_returns_every_node() {
        let (local, mut remote) = UnixStream::pair().expect("socketpair");
        let started = Arc::new(AtomicBool::new(false));
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.add_peer(local);
        let slow = rt.add_local(Box::new(Slow { started: Arc::clone(&started), held_on: None }));
        let far = rt.add_remote(peer);
        let other = rt.add_local(Box::<Collector>::default());
        rt.connect(slow, far);
        rt.connect(slow, other);
        let mh = rt.metrics_handle();
        rt.start();
        until_borrowed(&mut remote, &tick_frame(far, slow, 0), &mh, |_| {});
        remote.write_all(&tick_frame(far, slow, 1)).expect("write");
        // ordering: Relaxed — a test flag, read by polling.
        assert!(wait_until(Duration::from_secs(5), || started.load(Ordering::Relaxed)));
        let nodes = rt.stop();
        let slow = nodes[slow.raw() as usize].as_ref().expect("the slow node came back");
        let held_on = &slow.as_any().downcast_ref::<Slow>().expect("slow").held_on;
        assert_eq!(held_on.as_deref(), Some("rebeca-rd-0-e0"), "a reader held the token");
        assert!(nodes[other.raw() as usize].is_some(), "the other loop's node came back");
        assert!(nodes[far.raw() as usize].is_none());
    }

    /// Listen-side supervision: the listener is retained, so when the
    /// dialing peer dies the supervisor re-accepts its replacement.
    #[test]
    fn reconnect_reaccepts_on_the_listen_side() {
        let path = temp_sock("reaccept");
        let dial_path = path.clone();
        let dialer = std::thread::spawn(move || connect_retry(&dial_path, Duration::from_secs(5)));

        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let peer = rt.listen_uds(&path).expect("listen");
        let mut conn1 = dialer.join().expect("dialer thread");
        let n0 = rt.add_local(Box::new(Collector { peer: None, ..Default::default() }));
        let n1 = rt.add_remote(peer);
        rt.connect(n0, n1);
        rt.set_reconnect_policy(fast_policy());
        let mh = rt.metrics_handle();
        rt.start();

        let mut re = FrameReassembler::new();
        assert_eq!(recv_frame(&mut conn1, &mut re), Frame::Hello { nodes: 2 });
        drop(conn1);

        // The "restarted process": a fresh dial to the same address.
        let mut conn2 = connect_retry(&path, Duration::from_secs(5));
        let mut re = FrameReassembler::new();
        assert_eq!(recv_frame(&mut conn2, &mut re), Frame::Hello { nodes: 2 });
        assert_eq!(recv_frame(&mut conn2, &mut re), Frame::SetLink { a: n0, b: n1, up: true });
        conn2.write_all(&frame_bytes(&Frame::Hello { nodes: 2 })).expect("hello");
        let mut payload = Vec::new();
        Tick(9).encode_into(&mut payload);
        conn2.write_all(&frame_bytes(&Frame::Msg { from: n1, to: n0, payload })).expect("msg");

        assert!(wait_until(Duration::from_secs(5), || {
            let st = rt.peer_status(peer);
            st.up && st.restarts == 1
        }));
        std::thread::sleep(Duration::from_millis(100));
        let nodes = rt.stop();
        let c = nodes[0].as_ref().unwrap().as_any().downcast_ref::<Collector>().unwrap();
        assert_eq!(c.received, vec![9]);
        let m = mh.snapshot();
        assert_eq!(m.link_restarts, 1);
        assert_eq!(m.thread_panics, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// A socket file left behind by a killed process must not block
    /// rebinding the same address.
    #[test]
    fn listen_uds_rebinds_over_a_stale_socket_file() {
        let path = temp_sock("stale");
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "stale socket file left behind");

        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let dial_path = path.clone();
        let dialer = std::thread::spawn(move || connect_retry(&dial_path, Duration::from_secs(5)));
        rt.listen_uds(&path).expect("rebind over the stale socket");
        drop(dialer.join().expect("dialer thread"));
        let _ = std::fs::remove_file(&path);
    }

    /// Non-healing dial errors fail fast instead of burning the timeout.
    #[test]
    fn dial_uds_fails_fast_on_fatal_errors() {
        // A path through a regular file is NotADirectory: retrying cannot
        // ever heal it.
        let file = temp_sock("notadir");
        std::fs::write(&file, b"x").expect("file");
        let inner = file.join("sock");
        let mut rt: ProcessRuntime<Tick> = ProcessRuntime::new();
        let t = Instant::now();
        let err = rt.dial_uds(&inner, Duration::from_secs(10)).expect_err("must fail");
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "fatal error must not burn the whole timeout"
        );
        assert_eq!(err.kind(), std::io::ErrorKind::NotADirectory);
        let _ = std::fs::remove_file(&file);
    }
}
