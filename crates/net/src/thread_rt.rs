//! `ThreadRuntime`: the name of a former all-local runtime, now a
//! [`ProcessRuntime`] with no peers.
//!
//! A `ProcessRuntime` whose nodes are all [`add_local`] already runs them
//! on event loops — a node with one link shares the thread of the node at
//! its other end — gates every send on the same link set and returns the
//! nodes from `stop`. This shim exists only
//! until the benchmark drops its `net.thread_rt.hop_ns` kernel, the one
//! caller of these methods; use [`ProcessRuntime`] or the simulator
//! ([`World`](crate::World)) instead.
//!
//! [`add_local`]: ProcessRuntime::add_local

use crate::node::{Node, NodeId, Payload};
use crate::process_rt::ProcessRuntime;
use crate::wire::Wire;

/// A [`ProcessRuntime`] with only local nodes, under its old name.
#[derive(Debug)]
pub struct ThreadRuntime<M: Payload + Wire>(ProcessRuntime<M>);

impl<M: Payload + Wire> ThreadRuntime<M> {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        ThreadRuntime(ProcessRuntime::new())
    }

    /// Adds a node before start ([`ProcessRuntime::add_local`]).
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        self.0.add_local(node)
    }

    /// Installs a bidirectional link (initially up).
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        self.0.connect(a, b);
    }

    /// Spawns the event-loop threads.
    pub fn start(&mut self) {
        self.0.start();
    }

    /// Sends a message into a node from outside ([`NodeId::EXTERNAL`]).
    pub fn send_external(&self, to: NodeId, msg: M) {
        self.0.send_external(to, msg);
    }

    /// Stops all threads and returns the nodes in id order.
    pub fn stop(self) -> Vec<Box<dyn Node<M>>> {
        self.0.stop().into_iter().flatten().collect()
    }
}

impl<M: Payload + Wire> Default for ThreadRuntime<M> {
    fn default() -> Self {
        Self::new()
    }
}
