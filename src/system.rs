//! [`System`]: a built deployment on the simulator, driven through typed
//! client handles.

use crate::plan::Plan;
use crate::{
    BrokerId, BrokerStats, ClientHandle, ClientId, ClientMobilityMode, DeliveryRecord, Filter,
    FixedClient, LocationMap, Message, MobileClient, MobilityMsg, NetMetrics, NotificationBuilder,
    Predicate, RebecaError, ReplicatorStats, SimDuration, SimTime, SubscriptionId, Topology,
};
use rebeca_broker::replication::{ReplicatedBrokerNode, ReplicationMetrics, ReplicationStats};
use rebeca_broker::{BrokerCore, BrokerNode, ClientNode, LocalBroker};
use rebeca_mobility::{MobileClientNode, ReplicatorNode};
use rebeca_net::{LinkConfig, NodeId, World};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientInfo {
    id: ClientId,
    node: NodeId,
    mobile: bool,
    /// The broker a mobile client is currently attached to (always `None`
    /// for immobile clients, whose attachment is fixed at creation).
    attached: Option<BrokerId>,
}

/// Per-client delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Notifications delivered (after duplicate suppression).
    pub delivered: u64,
    /// Duplicate deliveries suppressed by the client library.
    pub duplicates: u64,
    /// Per-publisher FIFO violations observed.
    pub fifo_violations: u64,
}

/// A complete simulated REBECA deployment.
///
/// Owns the [`World`] and offers an application-level API: add clients,
/// publish, subscribe, move devices between brokers, advance time, inspect
/// deliveries and metrics. Clients are addressed through the typed handles
/// returned by [`System::add_client`] / [`System::add_mobile_client`];
/// every fallible operation returns [`RebecaError`] instead of panicking.
/// See the crate-level example.
#[derive(Debug)]
pub struct System {
    pub(crate) world: World<Message>,
    pub(crate) topology: Arc<Topology>,
    pub(crate) locations: Arc<LocationMap>,
    pub(crate) plan: Plan,
    pub(crate) link: LinkConfig,
    pub(crate) replication: usize,
    pub(crate) replication_metrics: Option<Arc<ReplicationMetrics>>,
    /// Indexed by [`ClientId`].
    pub(crate) clients: Vec<ClientInfo>,
    pub(crate) next_sub: u32,
}

impl System {
    /// The broker topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The broker↔location mapping.
    pub fn locations(&self) -> &LocationMap {
        &self.locations
    }

    /// Replica-group size each broker's mutation state is replicated
    /// across (1 = replication off; see
    /// [`SystemBuilder::replication`](crate::SystemBuilder::replication)).
    pub fn replication_factor(&self) -> usize {
        self.replication
    }

    /// Aggregate replication counters across every broker's replica group;
    /// `None` when replication is off.
    pub fn replication_stats(&self) -> Option<ReplicationStats> {
        self.replication_metrics.as_ref().map(|m| m.snapshot())
    }

    fn check_broker(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        let idx = broker.raw() as usize;
        if idx < self.topology.broker_count() {
            Ok(idx)
        } else {
            Err(RebecaError::UnknownBroker(broker))
        }
    }

    /// Adds an immobile client attached to `broker` (always connected),
    /// returning its [`FixedClient`] handle.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn add_client(&mut self, broker: BrokerId) -> Result<FixedClient, RebecaError> {
        let access = self.plan.access()[self.check_broker(broker)?];
        let id = ClientId::new(self.clients.len() as u32);
        let node = self.world.add_node(Box::new(ClientNode::new(id, Some(access))));
        self.world.connect(node, access, self.link.clone());
        self.clients.push(ClientInfo { id, node, mobile: false, attached: None });
        Ok(FixedClient::new(id))
    }

    /// Adds a mobile client (initially out of coverage; call
    /// [`System::arrive`] to attach it somewhere), returning its
    /// [`MobileClient`] handle. Uses the relocation hand-off protocol.
    pub fn add_mobile_client(&mut self) -> MobileClient {
        self.add_mobile_client_with_mode(ClientMobilityMode::Relocation)
    }

    /// Adds a mobile client with an explicit mobility mode (the naive
    /// JEDI-style baseline or the relocation protocol).
    pub fn add_mobile_client_with_mode(&mut self, mode: ClientMobilityMode) -> MobileClient {
        let id = ClientId::new(self.clients.len() as u32);
        let node = self.world.add_node(Box::new(MobileClientNode::new(
            id,
            mode,
            Arc::clone(self.plan.access()),
        )));
        for &access in self.plan.access().iter() {
            self.world.connect(node, access, self.link.clone());
            self.world.set_link_up(node, access, false);
        }
        self.clients.push(ClientInfo { id, node, mobile: true, attached: None });
        MobileClient::new(id)
    }

    fn info(&self, client: ClientId) -> Result<ClientInfo, RebecaError> {
        self.clients.get(client.raw() as usize).copied().ok_or(RebecaError::UnknownClient(client))
    }

    /// Looks up a mobile client, verifying the handle belongs to this
    /// system *and* refers to a mobile client here (a handle from another
    /// system may alias an immobile client's id).
    fn mobile_info(&self, client: MobileClient) -> Result<ClientInfo, RebecaError> {
        let info = self.info(client.id())?;
        if !info.mobile {
            return Err(RebecaError::NotMobile(info.id));
        }
        Ok(info)
    }

    /// Publishes a notification from `client` (sequence number and
    /// timestamp are stamped by the client library).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn publish(
        &mut self,
        client: impl ClientHandle,
        attrs: NotificationBuilder,
    ) -> Result<(), RebecaError> {
        let node = self.info(client.client_id())?.node;
        self.world.send_external(node, Message::AppPublish { attrs });
        Ok(())
    }

    /// Schedules a publication from `client` at a future simulated time —
    /// used by workload generators to pre-load a whole run.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system, and [`RebecaError::TimeInPast`] if `at` lies
    /// before the current simulated time.
    pub fn publish_at(
        &mut self,
        client: impl ClientHandle,
        attrs: NotificationBuilder,
        at: SimTime,
    ) -> Result<(), RebecaError> {
        let node = self.info(client.client_id())?.node;
        let now = self.world.now();
        if at < now {
            return Err(RebecaError::TimeInPast { at, now });
        }
        self.world.send_external_at(node, Message::AppPublish { attrs }, at);
        Ok(())
    }

    /// Registers a subscription for `client`, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn subscribe(
        &mut self,
        client: impl ClientHandle,
        filter: Filter,
    ) -> Result<SubscriptionId, RebecaError> {
        let node = self.info(client.client_id())?.node;
        let id = SubscriptionId::new(self.next_sub);
        self.next_sub += 1;
        self.world.send_external(node, Message::AppSubscribe { id, filter });
        Ok(id)
    }

    /// Revokes a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn unsubscribe(
        &mut self,
        client: impl ClientHandle,
        id: SubscriptionId,
    ) -> Result<(), RebecaError> {
        let node = self.info(client.client_id())?.node;
        self.world.send_external(node, Message::AppUnsubscribe { id });
        Ok(())
    }

    /// Updates one entry of a mobile client's context (`myctx` markers are
    /// re-resolved and affected subscriptions re-issued).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] or [`RebecaError::NotMobile`]
    /// if the handle does not refer to a mobile client of this system.
    pub fn set_context(
        &mut self,
        client: MobileClient,
        key: impl Into<String>,
        predicate: Predicate,
    ) -> Result<(), RebecaError> {
        let node = self.mobile_info(client)?.node;
        self.world.send_external(
            node,
            Message::Mobility(MobilityMsg::AppSetContext { key: key.into(), predicate }),
        );
        Ok(())
    }

    /// Brings a mobile client into the range of `broker` and attaches it
    /// (flips the wireless links, then injects `AppMoveTo`).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] / [`RebecaError::NotMobile`]
    /// for a handle from another system, [`RebecaError::UnknownBroker`]
    /// for a broker outside the topology, and
    /// [`RebecaError::AlreadyConnected`] if the client has not departed
    /// from its previous broker.
    pub fn arrive(&mut self, client: MobileClient, broker: BrokerId) -> Result<(), RebecaError> {
        let info = self.mobile_info(client)?;
        self.check_broker(broker)?;
        if let Some(at) = info.attached {
            return Err(RebecaError::AlreadyConnected { client: info.id, at });
        }
        for (i, &access) in self.plan.access().iter().enumerate() {
            self.world.set_link_up(info.node, access, i == broker.raw() as usize);
        }
        self.world
            .send_external(info.node, Message::Mobility(MobilityMsg::AppMoveTo { border: broker }));
        self.set_attached(info.id, Some(broker));
        Ok(())
    }

    /// Takes a mobile client out of coverage: announces the move (for the
    /// naive baseline's explicit moveOut), downs all wireless links, and
    /// powers the device off.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] / [`RebecaError::NotMobile`]
    /// for a handle from another system, and [`RebecaError::NotConnected`]
    /// if the client is already out of coverage.
    pub fn depart(&mut self, client: MobileClient) -> Result<(), RebecaError> {
        let info = self.mobile_info(client)?;
        if info.attached.is_none() {
            return Err(RebecaError::NotConnected(info.id));
        }
        self.world.send_external(info.node, Message::Mobility(MobilityMsg::AppPrepareMove));
        // Deliver what is due now, the announcement included, without
        // moving the clock: a (naive) moveOut sent on the still-up link
        // arrives even though the link goes down below.
        let now = self.world.now();
        self.world.run_until(now);
        for &access in self.plan.access().iter() {
            self.world.set_link_up(info.node, access, false);
        }
        self.world.send_external(info.node, Message::Mobility(MobilityMsg::AppDisconnect));
        self.set_attached(info.id, None);
        Ok(())
    }

    fn set_attached(&mut self, client: ClientId, attached: Option<BrokerId>) {
        if let Some(info) = self.clients.get_mut(client.raw() as usize) {
            info.attached = attached;
        }
    }

    /// The broker a mobile client is currently attached to, if any.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] / [`RebecaError::NotMobile`]
    /// for a handle from another system.
    pub fn attached_broker(&self, client: MobileClient) -> Result<Option<BrokerId>, RebecaError> {
        Ok(self.mobile_info(client)?.attached)
    }

    /// Orderly client shutdown: detaches at the current access point so the
    /// middleware garbage-collects all state (including virtual clients).
    /// A mobile client is marked as departed (its wireless links go down),
    /// so the handle can [`System::arrive`] again later.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system and [`RebecaError::UnknownBroker`] if `at` is
    /// outside the topology.
    pub fn shutdown_client(
        &mut self,
        client: impl ClientHandle,
        at: BrokerId,
    ) -> Result<(), RebecaError> {
        let info = self.info(client.client_id())?;
        let access = self.plan.access()[self.check_broker(at)?];
        self.world.send_external(access, Message::ClientDetach { client: info.id });
        if info.mobile && info.attached.is_some() {
            for &access in self.plan.access().iter() {
                self.world.set_link_up(info.node, access, false);
            }
            self.set_attached(info.id, None);
        }
        Ok(())
    }

    /// Advances simulated time by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.world.now() + d;
        self.world.run_until(t);
    }

    /// Advances simulated time to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    fn with_local<R>(
        &self,
        client: ClientId,
        f: impl FnOnce(&LocalBroker) -> R,
    ) -> Result<R, RebecaError> {
        let info = self.info(client)?;
        // The downcasts cannot fail for a validated client id: the node was
        // created by add_client / add_mobile_client with matching mobility.
        if info.mobile {
            Ok(f(self
                .world
                .node_as::<MobileClientNode>(info.node)
                .expect("mobile client node")
                .local()))
        } else {
            Ok(f(self.world.node_as::<ClientNode>(info.node).expect("client node").local()))
        }
    }

    fn with_local_mut<R>(
        &mut self,
        client: ClientId,
        f: impl FnOnce(&mut LocalBroker) -> R,
    ) -> Result<R, RebecaError> {
        let info = self.info(client)?;
        if info.mobile {
            Ok(f(self
                .world
                .node_as_mut::<MobileClientNode>(info.node)
                .expect("mobile client node")
                .local_mut()))
        } else {
            Ok(f(self.world.node_as_mut::<ClientNode>(info.node).expect("client node").local_mut()))
        }
    }

    /// The notifications delivered to `client` (and not yet drained).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn delivered(&self, client: impl ClientHandle) -> Result<Vec<DeliveryRecord>, RebecaError> {
        self.with_local(client.client_id(), |l| l.delivered().to_vec())
    }

    /// Drains and returns the delivery log of `client`.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn take_delivered(
        &mut self,
        client: impl ClientHandle,
    ) -> Result<Vec<DeliveryRecord>, RebecaError> {
        self.with_local_mut(client.client_id(), LocalBroker::take_delivered)
    }

    /// Delivery statistics of `client`.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownClient`] if the handle does not
    /// belong to this system.
    pub fn client_stats(&self, client: impl ClientHandle) -> Result<ClientStats, RebecaError> {
        self.with_local(client.client_id(), |l| ClientStats {
            delivered: l.delivered_count(),
            duplicates: l.duplicates(),
            fifo_violations: l.fifo_violations(),
        })
    }

    /// Link-level traffic metrics of the whole run.
    pub fn metrics(&self) -> &NetMetrics {
        self.world.metrics()
    }

    /// Routing statistics of one broker.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn broker_stats(&self, broker: BrokerId) -> Result<BrokerStats, RebecaError> {
        Ok(self.broker_core(broker)?.stats())
    }

    /// The routing core of one broker, whichever node type hosts it.
    fn broker_core(&self, broker: BrokerId) -> Result<&BrokerCore, RebecaError> {
        let node = self.plan.brokers[self.check_broker(broker)?];
        let w = &self.world;
        let core = w
            .node_as::<BrokerNode>(node)
            .map(BrokerNode::core)
            .or_else(|| w.node_as::<ReplicatedBrokerNode>(node).map(ReplicatedBrokerNode::core));
        Ok(core.expect("build() hosts every broker's core in one of these two node types"))
    }

    /// Routing-table size (entries) of one broker.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn table_size(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        Ok(self.broker_core(broker)?.router().entry_count())
    }

    /// Replicator statistics of one broker; `Ok(None)` for deployments
    /// without a replicator layer.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn replicator_stats(
        &self,
        broker: BrokerId,
    ) -> Result<Option<ReplicatorStats>, RebecaError> {
        Ok(self.replicator(broker)?.map(ReplicatorNode::stats))
    }

    /// Virtual clients hosted at one broker's replicator (0 for
    /// deployments without a replicator layer).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn vc_count(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        Ok(self.replicator(broker)?.map_or(0, ReplicatorNode::vc_count))
    }

    /// Total virtual clients across all replicators.
    pub fn total_vc_count(&self) -> usize {
        self.topology.brokers().map(|b| self.vc_count(b).unwrap_or(0)).sum()
    }

    /// Bytes held in the buffers of one broker's replicator, virtual
    /// clients' and disconnected devices' alike, each notification counted
    /// once (0 for deployments without a replicator layer).
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn buffer_bytes(&self, broker: BrokerId) -> Result<usize, RebecaError> {
        Ok(self.replicator(broker)?.map_or(0, ReplicatorNode::buffer_bytes))
    }

    /// Total buffered bytes across all replicators.
    pub fn total_buffer_bytes(&self) -> usize {
        self.topology.brokers().map(|b| self.buffer_bytes(b).unwrap_or(0)).sum()
    }

    /// The replicator process of one broker, for state inspection;
    /// `Ok(None)` for deployments without a replicator layer.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::UnknownBroker`] if `broker` is outside the
    /// topology.
    pub fn replicator(&self, broker: BrokerId) -> Result<Option<&ReplicatorNode>, RebecaError> {
        let idx = self.check_broker(broker)?;
        Ok(self.plan.replicators.as_ref().and_then(|nodes| self.world.node_as(nodes[idx])))
    }

    /// Direct access to the underlying world (advanced inspection).
    pub fn world(&self) -> &World<Message> {
        &self.world
    }

    /// Mutable access to the underlying world (fault injection).
    pub fn world_mut(&mut self) -> &mut World<Message> {
        &mut self.world
    }
}
