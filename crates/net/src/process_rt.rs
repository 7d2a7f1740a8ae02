//! A multi-process runtime: the same [`Node`] state machines, with links
//! that cross OS process boundaries as framed byte streams.
//!
//! [`ProcessRuntime`] is the live counterpart of the simulator
//! ([`World`](crate::World)): one OS thread per local node, and a
//! deployment split over as many processes as it has partitions. A
//! runtime with no peers is a one-process deployment. The contract:
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
//!   in the order they were sent — the same per-link FIFO a local inbox and
//!   the simulator give.
//!
//! Each peer link runs two threads: a **writer** that drains the link's
//! bounded [`SendBuffer`] (blocking node threads when full — backpressure)
//! and issues coalesced stream writes, and a **reader** that feeds raw
//! reads through a [`FrameReassembler`] (partial reads, many frames per
//! read) and routes whole frames to local node inboxes. Node threads run
//! the node loop, putting each local send straight into the destination's
//! inbox and encoding each remote send into one reused frame buffer.
//!
//! A node thread whose inbox is empty after the envelope it handles (a
//! *quiet* send, see the node loop) writes a frame to the peer socket
//! **itself** when the buffer grants it the write token — nothing queued
//! for the link and no write in flight. That saves the writer thread's
//! wake-up on every lightly loaded hop. Otherwise the frame is pushed and
//! the writer thread, the coalescing overflow path, ships it. The
//! supervisor keeps the live epoch's stream for these direct writes: it
//! installs it before the epoch's writer spawns and clears it after
//! teardown. A failed direct write is reported exactly like a writer
//! failure, as a [`LinkDownCause::Write`] of its epoch. A direct write
//! blocks its node thread while the kernel socket buffer is full.
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
//! [`set_link_up`]: ProcessRuntime::set_link_up
//! [`set_reconnect_policy`]: ProcessRuntime::set_reconnect_policy

use crate::metrics::{LinkCounters, LinkMetrics};
use crate::node::{Node, NodeId, Payload};
use crate::node_loop::{run_node, Envelope, LinkSet};
use crate::rng::SplitMix64;
use crate::send_buffer::SendBuffer;
use crate::supervisor::{LinkDownCause, LinkLifecycle, ReconnectPolicy};
use crate::wire::{encode_frame, encode_msg_frame, Frame, FrameReassembler, Wire};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::io::{Read, Write};
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
    Local { node: Option<Box<dyn Node<M>>>, rx: Option<Receiver<Envelope<M>>> },
    Remote { peer: PeerId },
}

/// Where a node's traffic goes: a local inbox or a peer's send buffer.
enum Sink<M> {
    Local(Sender<Envelope<M>>),
    Remote(PeerId),
}

/// Byte capacity of each peer link's send buffer. Producers sending to a
/// peer block once this much is queued ahead of them (backpressure).
pub const PEER_SEND_CAPACITY: usize = 4 * 1024 * 1024;

/// The live epoch's stream of one peer link, with its epoch, for node
/// threads' direct writes. `None` while the link is down.
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

/// One peer link as a node thread sends to it.
struct PeerTx {
    peer: usize,
    buffer: SendBuffer,
    live: LiveStream,
    lifecycle: Arc<LinkLifecycle>,
    events: Sender<SupEvent>,
}

impl PeerTx {
    /// Sends one whole frame: written to the socket by this thread when
    /// `quiet` and the buffer grants the write token, pushed for the
    /// writer thread otherwise.
    fn send(&self, frame: &[u8], quiet: bool) {
        // The stream is taken before the token is asked for. Taken after,
        // a grant from a dying epoch could meet the next epoch's stream and
        // put this frame ahead of that epoch's Hello; taken before, the
        // frame at worst goes to the dead epoch's socket, whose write fails
        // and whose report loses to the restart.
        let live = if quiet { self.live.lock().clone() } else { None };
        self.send_on(live, frame);
    }

    fn send_on(&self, live: Option<(u64, Arc<UnixStream>)>, frame: &[u8]) {
        if let Some((epoch, stream)) = live {
            if self.buffer.try_direct() {
                let written = (&*stream).write_all(frame);
                if let Err(e) = written {
                    // Torn link: reported as a writer thread reports it.
                    if self.lifecycle.report_down(epoch) {
                        let _ = self.events.send(SupEvent::Down {
                            peer: self.peer,
                            cause: LinkDownCause::Write(e.kind()),
                        });
                    }
                }
                self.buffer.end_direct();
                return;
            }
        }
        // Blocking push: a full peer buffer is backpressure on this node
        // thread.
        let _ = self.buffer.push(frame);
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
    senders: Vec<Option<Sender<Envelope<M>>>>,
    links: Arc<RwLock<LinkSet>>,
    peers: Vec<PeerLink>,
    node_handles: Vec<std::thread::JoinHandle<Box<dyn Node<M>>>>,
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
            links: Arc::new(RwLock::new(LinkSet::default())),
            peers: Vec::new(),
            node_handles: Vec::new(),
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
        let (tx, rx) = unbounded();
        self.slots.push(Slot::Local { node: Some(node), rx: Some(rx) });
        self.senders.push(Some(tx));
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
        self.senders.push(None);
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

    /// Spawns node threads, a supervisor thread, and (via the supervisor)
    /// a reader and a writer thread per peer.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "already started");
        self.started = true;
        let t0 = Instant::now();
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
                })
                .collect(),
        );
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
            senders: self.senders.clone(),
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

        for i in 0..self.slots.len() {
            if let Slot::Local { node, rx } = &mut self.slots[i] {
                let node = node.take().expect("node present before start");
                let rx = rx.take().expect("receiver present");
                let me = NodeId::new(i as u32);
                let sinks = Arc::clone(&sinks);
                let peer_txs = Arc::clone(&peer_txs);
                let links = Arc::clone(&self.links);
                let handle = std::thread::Builder::new()
                    .name(format!("rebeca-pnode-{i}"))
                    .spawn(move || {
                        // This thread's one frame buffer, reused by every
                        // remote send.
                        let mut frame = Vec::new();
                        run_node(node, me, rx, links, t0, move |to: NodeId, msg: M, quiet| {
                            match sinks.get(to.raw() as usize) {
                                Some(Sink::Local(tx)) => {
                                    let _ = tx.send(Envelope::Msg { from: me, msg });
                                }
                                Some(Sink::Remote(peer)) => {
                                    frame.clear();
                                    encode_msg_frame(me, to, &msg, &mut frame);
                                    peer_txs[peer.0].send(&frame, quiet);
                                }
                                None => {}
                            }
                        })
                    })
                    .expect("spawn node thread");
                self.node_handles.push(handle);
            }
        }
    }

    /// Marks a link up or down in this process, propagates the flip to
    /// every peer, and nudges the local endpoints.
    pub fn set_link_up(&self, a: NodeId, b: NodeId, up: bool) {
        self.links.write().set(a, b, up);
        let mut bytes = Vec::new();
        encode_frame(&Frame::SetLink { a, b, up }, &mut bytes);
        for peer in &self.peers {
            // A closed buffer means the link is tearing down; the flip is
            // then moot.
            let _ = peer.buffer.push(&bytes);
        }
        for id in [a, b] {
            if let Some(Some(tx)) = self.senders.get(id.raw() as usize) {
                let _ = tx.send(Envelope::SetLinkNotice);
            }
        }
    }

    /// Sends a message into a node from outside ([`NodeId::EXTERNAL`]).
    /// Remote destinations are framed onto their peer connection.
    pub fn send_external(&self, to: NodeId, msg: M) {
        match self.slots.get(to.raw() as usize) {
            Some(Slot::Local { .. }) => {
                if let Some(Some(tx)) = self.senders.get(to.raw() as usize) {
                    let _ = tx.send(Envelope::Msg { from: NodeId::EXTERNAL, msg });
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

    /// Stops local node threads, flushes and tears down peer links, and
    /// returns the local nodes in global id order (`None` in remote slots).
    /// A runtime that was never started returns its nodes untouched.
    pub fn stop(mut self) -> Vec<Option<Box<dyn Node<M>>>> {
        // ordering: Relaxed — the flag is advisory (suppresses further
        // reconnect attempts); the teardown itself is sequenced by the
        // channel sends and joins below.
        self.stopping.store(true, Ordering::Relaxed);
        for tx in self.senders.iter().flatten() {
            let _ = tx.send(Envelope::Stop);
        }
        let local_nodes: Vec<Box<dyn Node<M>>> =
            self.node_handles.drain(..).map(|h| h.join().expect("node thread panicked")).collect();

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

        let mut locals = local_nodes.into_iter();
        self.slots
            .iter_mut()
            .map(|slot| match slot {
                // A runtime that never started still holds its nodes.
                Slot::Local { node, .. } => Some(
                    node.take()
                        .unwrap_or_else(|| locals.next().expect("one joined node per local slot")),
                ),
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
    senders: Vec<Option<Sender<Envelope<M>>>>,
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

    /// Installs `stream` as `epoch`'s live stream for node threads' direct
    /// writes, then spawns the epoch's writer/reader pair over it.
    fn bring_up(&mut self, i: usize, stream: UnixStream, epoch: u64) -> std::io::Result<()> {
        let write_half = stream.try_clone()?;
        let teardown = stream.try_clone()?;
        let direct = stream.try_clone()?;
        let p = &mut self.peers[i];
        p.teardown = Some(teardown);
        *p.live.lock() = Some((epoch, Arc::new(direct)));
        let buffer = p.buffer.clone();
        let lifecycle = Arc::clone(&p.lifecycle);
        let events = self.tx.clone();
        let wr = std::thread::Builder::new()
            .name(format!("rebeca-wr-{i}-e{epoch}"))
            .spawn(move || writer_loop(write_half, buffer, lifecycle, events, i, epoch))
            .expect("spawn writer thread");
        p.writer = Some(wr);

        let lifecycle = Arc::clone(&p.lifecycle);
        let events = self.tx.clone();
        let senders = self.senders.clone();
        let links = Arc::clone(&self.links);
        let expected_nodes = self.expected_nodes;
        let rd = std::thread::Builder::new()
            .name(format!("rebeca-rd-{i}-e{epoch}"))
            .spawn(move || {
                reader_loop(stream, senders, links, expected_nodes, lifecycle, events, i, epoch)
            })
            .expect("spawn reader thread");
        self.peers[i].reader = Some(rd);
        Ok(())
    }

    /// One link died: contain the damage, then (policy permitting) heal.
    fn handle_down(&mut self, i: usize, cause: LinkDownCause) {
        LinkCounters::bump(&self.counters.link_downs);
        {
            let mut st = self.peers[i].status.lock();
            st.up = false;
            st.last_cause = Some(cause.clone());
        }
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
        // Failure-detector verdict to every local node: the nodes behind
        // this peer are unreachable until the link restarts (the
        // replication layer's view-change trigger). It also wakes them.
        let down_nodes = Arc::new(self.peers[i].behind.clone());
        for tx in self.senders.iter().flatten() {
            let _ = tx.send(Envelope::PeerChange { nodes: Arc::clone(&down_nodes), up: false });
        }
        self.peers[i].saved_routes = saved;
        // Drain-and-drop the send buffer: releases any producer blocked on
        // the dead link and tells the old writer (if it is the surviving
        // half) to exit. Every discarded byte is counted.
        self.peers[i].buffer.mark_down();
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
        for tx in self.senders.iter().flatten() {
            let _ = tx.send(Envelope::PeerChange { nodes: Arc::clone(&up_nodes), up: true });
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

#[allow(clippy::too_many_arguments)]
fn writer_loop(
    mut stream: UnixStream,
    buffer: SendBuffer,
    lifecycle: Arc<LinkLifecycle>,
    events: Sender<SupEvent>,
    peer: usize,
    epoch: u64,
) {
    let mut out = Vec::new();
    while buffer.drain_into(&mut out) {
        if let Err(e) = stream.write_all(&out) {
            // Torn link: report it (first reporter of this epoch wins) and
            // exit. The supervisor drains-and-drops the buffer, so
            // producers never block on the dead link.
            if lifecycle.report_down(epoch) {
                let _ = events.send(SupEvent::Down { peer, cause: LinkDownCause::Write(e.kind()) });
            }
            return;
        }
    }
    // Buffer closed (orderly stop) or marked down: flush and half-close so
    // the peer's reader sees EOF after the last frame.
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// What a cleanly parsed batch of frames asks the reader to do next.
enum ReadControl {
    /// Keep reading.
    Continue,
    /// The peer announced an orderly shutdown.
    PeerShutdown,
}

/// Parses and dispatches every whole frame currently buffered in `re`.
/// Malformed input — misframing, undecodable payloads, a Hello that
/// contradicts our node table — is an error, never a panic: the caller
/// turns it into a link-down report. Split out from [`reader_loop`] so
/// property tests can drive it with arbitrary bytes.
fn drain_frames<M: Payload + Wire>(
    re: &mut FrameReassembler,
    senders: &[Option<Sender<Envelope<M>>>],
    links: &Arc<RwLock<LinkSet>>,
    expected_nodes: u32,
) -> Result<ReadControl, LinkDownCause> {
    loop {
        match re.next_frame() {
            Ok(Some(Frame::Msg { from, to, payload })) => {
                let msg = match M::decode(&payload) {
                    Ok(m) => m,
                    Err(e) => return Err(LinkDownCause::Decode(e.to_string())),
                };
                // Frames for nodes this process does not host are dropped:
                // the sender misdeclared the topology, and the Hello
                // handshake already tore the link down for it.
                if let Some(Some(tx)) = senders.get(to.raw() as usize) {
                    let _ = tx.send(Envelope::Msg { from, msg });
                }
            }
            Ok(Some(Frame::SetLink { a, b, up })) => {
                links.write().set(a, b, up);
                for id in [a, b] {
                    if let Some(Some(tx)) = senders.get(id.raw() as usize) {
                        let _ = tx.send(Envelope::SetLinkNotice);
                    }
                }
            }
            Ok(Some(Frame::Hello { nodes })) => {
                if nodes != expected_nodes {
                    return Err(LinkDownCause::HelloMismatch {
                        peer_nodes: nodes,
                        local_nodes: expected_nodes,
                    });
                }
            }
            Ok(Some(Frame::Shutdown)) => return Ok(ReadControl::PeerShutdown),
            Ok(None) => return Ok(ReadControl::Continue), // partial frame
            Err(e) => return Err(LinkDownCause::Misframe(e.to_string())),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop<M: Payload + Wire>(
    mut stream: UnixStream,
    senders: Vec<Option<Sender<Envelope<M>>>>,
    links: Arc<RwLock<LinkSet>>,
    expected_nodes: u32,
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
        match drain_frames(&mut re, &senders, &links, expected_nodes) {
            Ok(ReadControl::Continue) => {}
            Ok(ReadControl::PeerShutdown) => break LinkDownCause::PeerShutdown,
            Err(cause) => break cause,
        }
    };
    if lifecycle.report_down(epoch) {
        let _ = events.send(SupEvent::Down { peer, cause });
    }
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use super::*;
    use crate::node::Ctx;
    use rebeca_core::CoreError;
    use std::any::Any;

    #[derive(Debug, Clone, PartialEq)]
    struct Tick(u64);

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
    struct Collector {
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

    fn collected(nodes: &[Option<Box<dyn Node<Tick>>>], id: NodeId) -> &[u64] {
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

    fn frame_bytes(f: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(f, &mut out);
        out
    }

    /// Reads whole frames off a raw test-side stream.
    fn recv_frame(stream: &mut UnixStream, re: &mut FrameReassembler) -> Frame {
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

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
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
    fn wait_token_idle(buffer: &SendBuffer) {
        let idle = wait_until(Duration::from_secs(5), || {
            let granted = buffer.try_direct();
            if granted {
                buffer.end_direct();
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
        // What a node thread holds when it is about to write directly
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
        };
        wait_token_idle(&tx.buffer);
        let (_, dead) = stale.clone().expect("epoch 0's stream");
        assert!((&*dead).write_all(&[0]).is_err(), "epoch 0's socket is shut down");
        let mut payload = Vec::new();
        Tick(7).encode_into(&mut payload);
        tx.send_on(stale, &frame_bytes(&Frame::Msg { from: n0, to: n1, payload }));
        assert!(!tx.lifecycle.is_down(), "a dead epoch's write cannot down the restarted link");
        assert!(tx.buffer.try_direct(), "the zombie returned the token");
        tx.buffer.end_direct();

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
