//! A live runtime: the same [`Node`] state machines on real threads.
//!
//! Each node runs on its own OS thread with a crossbeam channel as its
//! inbox; links are channel pairs plus a shared up/down set (the
//! "connection awareness" the paper assumes of the wireless hop). There is
//! no virtual clock — `now` is wall-clock time since runtime start — and no
//! artificial latency. The purpose of this runtime is to demonstrate that
//! the protocol layer is runtime-agnostic; quantitative experiments use the
//! deterministic [`World`](crate::World).

use crate::node::{Node, NodeId, Payload};
use crate::node_loop::{run_node, Envelope, LinkSet};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

type Inbox<M> = Receiver<Envelope<M>>;

/// Builder + handle for a threaded deployment of nodes.
///
/// Typical lifecycle: [`ThreadRuntime::new`] → [`add_node`] / [`connect`] →
/// [`start`] → interact via [`send_external`] → [`stop`] (returns the nodes
/// for inspection).
///
/// [`add_node`]: ThreadRuntime::add_node
/// [`connect`]: ThreadRuntime::connect
/// [`start`]: ThreadRuntime::start
/// [`send_external`]: ThreadRuntime::send_external
/// [`stop`]: ThreadRuntime::stop
pub struct ThreadRuntime<M: Payload> {
    /// Each node with its inbox, until `start` moves them onto threads.
    nodes: Vec<(Box<dyn Node<M>>, Inbox<M>)>,
    senders: Vec<Sender<Envelope<M>>>,
    links: Arc<RwLock<LinkSet>>,
    handles: Vec<std::thread::JoinHandle<Box<dyn Node<M>>>>,
    started: bool,
}

impl<M: Payload> fmt::Debug for ThreadRuntime<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadRuntime")
            .field("nodes", &self.senders.len())
            .field("started", &self.started)
            .finish()
    }
}

impl<M: Payload> ThreadRuntime<M> {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        ThreadRuntime {
            nodes: Vec::new(),
            senders: Vec::new(),
            links: Arc::new(RwLock::new(LinkSet::default())),
            handles: Vec::new(),
            started: false,
        }
    }

    /// Adds a node before start.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already started.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        assert!(!self.started, "cannot add nodes after start");
        let id = NodeId::new(self.senders.len() as u32);
        let (tx, rx) = unbounded();
        self.nodes.push((node, rx));
        self.senders.push(tx);
        id
    }

    /// Installs a bidirectional link (initially up).
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        self.links.write().set(a, b, true);
    }

    /// Marks a link up or down; nodes observe the change on their next
    /// action.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.links.write().set(a, b, up);
        for id in [a, b] {
            if let Some(tx) = self.senders.get(id.raw() as usize) {
                let _ = tx.send(Envelope::SetLinkNotice);
            }
        }
    }

    /// Spawns all node threads.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "already started");
        self.started = true;
        let t0 = Instant::now();
        for (i, (node, rx)) in self.nodes.drain(..).enumerate() {
            let senders = self.senders.clone();
            let links = Arc::clone(&self.links);
            let me = NodeId::new(i as u32);
            let handle = std::thread::Builder::new()
                .name(format!("rebeca-node-{i}"))
                .spawn(move || {
                    // A channel send is already as cheap as a send gets:
                    // the quiet flag changes nothing here.
                    run_node(node, me, rx, links, t0, move |to: NodeId, msg, _quiet| {
                        if let Some(tx) = senders.get(to.raw() as usize) {
                            let _ = tx.send(Envelope::Msg { from: me, msg });
                        }
                    })
                })
                .expect("spawn node thread");
            self.handles.push(handle);
        }
    }

    /// Sends a message into a node from outside ([`NodeId::EXTERNAL`]).
    pub fn send_external(&self, to: NodeId, msg: M) {
        if let Some(tx) = self.senders.get(to.raw() as usize) {
            let _ = tx.send(Envelope::Msg { from: NodeId::EXTERNAL, msg });
        }
    }

    /// Stops all threads and returns the nodes (in id order) for
    /// inspection.
    pub fn stop(mut self) -> Vec<Box<dyn Node<M>>> {
        for tx in &self.senders {
            let _ = tx.send(Envelope::Stop);
        }
        self.handles.drain(..).map(|h| h.join().expect("node thread panicked")).collect()
    }
}

impl<M: Payload> Default for ThreadRuntime<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Ctx, TimerId};
    use rebeca_core::SimDuration;
    use std::any::Any;
    use std::time::Duration;

    #[derive(Debug)]
    struct Tick(u64);
    impl Payload for Tick {
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[derive(Default)]
    struct PingPong {
        peer: Option<NodeId>,
        received: Vec<u64>,
        max_hops: u64,
    }

    impl Node<Tick> for PingPong {
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

    #[derive(Default)]
    struct TimerOnce {
        fired: bool,
    }
    impl Node<Tick> for TimerOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Tick>) {
            ctx.set_timer(SimDuration::from_millis(5), 1);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Tick>, _: NodeId, _: Tick) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, Tick>, _: TimerId, _: u64) {
            self.fired = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_across_threads() {
        let mut rt = ThreadRuntime::new();
        let a = rt.add_node(Box::new(PingPong { max_hops: 10, ..Default::default() }));
        let b = rt.add_node(Box::new(PingPong { max_hops: 10, ..Default::default() }));
        rt.connect(a, b);
        // Wire the peers before start (nodes owned until start).
        {
            let pa = &mut rt.nodes[a.raw() as usize].0;
            pa.as_any_mut().downcast_mut::<PingPong>().unwrap().peer = Some(b);
            let pb = &mut rt.nodes[b.raw() as usize].0;
            pb.as_any_mut().downcast_mut::<PingPong>().unwrap().peer = Some(a);
        }
        rt.start();
        rt.send_external(a, Tick(0));
        std::thread::sleep(Duration::from_millis(200));
        let nodes = rt.stop();
        let ra = nodes[a.raw() as usize].as_any().downcast_ref::<PingPong>().unwrap();
        let rb = nodes[b.raw() as usize].as_any().downcast_ref::<PingPong>().unwrap();
        assert_eq!(ra.received, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(rb.received, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn timers_fire_on_threads() {
        let mut rt: ThreadRuntime<Tick> = ThreadRuntime::new();
        let t = rt.add_node(Box::new(TimerOnce::default()));
        rt.start();
        std::thread::sleep(Duration::from_millis(100));
        let nodes = rt.stop();
        assert!(nodes[t.raw() as usize].as_any().downcast_ref::<TimerOnce>().unwrap().fired);
    }

    #[test]
    fn down_links_block_traffic() {
        let mut rt = ThreadRuntime::new();
        let a = rt.add_node(Box::new(PingPong { max_hops: 10, ..Default::default() }));
        let b = rt.add_node(Box::new(PingPong { max_hops: 10, ..Default::default() }));
        rt.connect(a, b);
        {
            let pa = &mut rt.nodes[a.raw() as usize].0;
            pa.as_any_mut().downcast_mut::<PingPong>().unwrap().peer = Some(b);
        }
        rt.set_link_up(a, b, false);
        rt.start();
        rt.send_external(a, Tick(0));
        std::thread::sleep(Duration::from_millis(100));
        let nodes = rt.stop();
        let rb = nodes[b.raw() as usize].as_any().downcast_ref::<PingPong>().unwrap();
        assert!(rb.received.is_empty(), "message crossed a down link");
    }
}
