//! [`SystemBuilder`] and [`Deployment`]: what a deployment is made of, and
//! how it is built on the simulator or on one process of a partition.

use crate::plan::{NodeKind, Plan};
use crate::{
    BrokerId, LocationMap, Message, MovementGraph, RebecaError, ReplicatorConfig, RoutingStrategy,
    SimDuration, System, Topology,
};
use rebeca_broker::replication::{ReplicaNode, ReplicatedBrokerNode, ReplicationMetrics};
use rebeca_broker::{BrokerCore, BrokerNode};
use rebeca_mobility::ReplicatorNode;
use rebeca_net::{LinkConfig, Node, NodeId, World};
use std::sync::Arc;

/// Which mobility layers are deployed.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// Plain REBECA: immobile brokers and clients, no mobility support.
    Static,
    /// The full paper: plain brokers + a replicator per border broker
    /// implementing pre-subscriptions and virtual clients over a movement
    /// graph.
    Replicated {
        /// The movement graph constraining client movement; `None` means
        /// "use the broker tree itself" (validated against the topology by
        /// [`SystemBuilder::build`]).
        movement: Option<MovementGraph>,
        /// Replicator-layer configuration (nlb radius, buffering policy).
        config: ReplicatorConfig,
    },
}

impl Deployment {
    /// Replicated deployment with the movement graph equal to the broker
    /// tree and default replicator configuration — the common case.
    pub fn replicated_defaults() -> Deployment {
        Deployment::Replicated { movement: None, config: ReplicatorConfig::default() }
    }

    /// The reactive baseline: the replicator layer with no
    /// pre-subscriptions (`k_hops: 0`). Clients relocate losslessly and
    /// `myloc` subscriptions are resolved when the client arrives.
    pub fn reactive() -> Deployment {
        Deployment::Replicated {
            movement: None,
            config: ReplicatorConfig { k_hops: 0, ..Default::default() },
        }
    }
}

/// What the nodes of a [`Plan`] are made of: the parts every node of one
/// build shares.
struct Parts {
    topology: Arc<Topology>,
    strategy: RoutingStrategy,
    /// Shared by every replica group member; read only when replication
    /// is on.
    metrics: Arc<ReplicationMetrics>,
    /// What replicators are built from; `None` without a replicator layer.
    mobility: Option<(Arc<MovementGraph>, Arc<LocationMap>, ReplicatorConfig)>,
}

impl Parts {
    fn new(
        topology: Topology,
        strategy: RoutingStrategy,
        mobility: Option<(Arc<MovementGraph>, Arc<LocationMap>, ReplicatorConfig)>,
    ) -> Parts {
        Parts { topology: Arc::new(topology), strategy, metrics: Arc::default(), mobility }
    }

    /// Builds the node the plan puts at `kind`. This is where a deployment
    /// chooses what happens to a broker's mutations: a broker with backups
    /// submits them to its replica group and applies them on commit, one
    /// without applies them at once.
    fn node(&self, plan: &Plan, kind: NodeKind) -> Box<dyn Node<Message>> {
        match kind {
            NodeKind::Broker(b) => {
                let core = BrokerCore::new(
                    b,
                    Arc::clone(&self.topology),
                    Arc::clone(&plan.brokers),
                    self.strategy,
                );
                match plan.group(b) {
                    [_] => Box::new(BrokerNode::new(core)),
                    group => Box::new(ReplicatedBrokerNode::new(
                        core,
                        group.to_vec(),
                        Arc::clone(&self.metrics),
                    )),
                }
            }
            NodeKind::Backup { broker, position } => Box::new(ReplicaNode::new(
                plan.group(broker).to_vec(),
                position,
                Arc::clone(&self.metrics),
            )),
            NodeKind::Replicator(b) => {
                let (Some((movement, locations, config)), Some(replicators)) =
                    (&self.mobility, &plan.replicators)
                else {
                    unreachable!("replicators are planned only for a replicated deployment");
                };
                Box::new(ReplicatorNode::new(
                    b,
                    plan.brokers[b.raw() as usize],
                    Arc::clone(replicators),
                    Arc::clone(movement),
                    Arc::clone(locations),
                    config.clone(),
                ))
            }
        }
    }
}

/// Builder for a complete simulated deployment.
#[derive(Debug)]
pub struct SystemBuilder {
    topology: Topology,
    strategy: RoutingStrategy,
    deployment: Deployment,
    locations: Option<LocationMap>,
    link_latency: SimDuration,
    /// What [`SystemBuilder::shards`] was given; anything but 1 fails the
    /// build.
    shards: usize,
    reconnect: Option<rebeca_net::ReconnectPolicy>,
    replication: usize,
}

impl SystemBuilder {
    /// Starts a builder over the given broker topology.
    pub fn new(topology: Topology) -> Self {
        SystemBuilder {
            topology,
            strategy: RoutingStrategy::Simple,
            deployment: Deployment::Static,
            locations: None,
            link_latency: SimDuration::from_millis(1),
            shards: 1,
            reconnect: None,
            replication: 1,
        }
    }

    /// Selects the routing strategy (default: simple routing, as the
    /// paper assumes).
    #[must_use]
    pub fn strategy(mut self, strategy: RoutingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the mobility deployment (default: static).
    #[must_use]
    pub fn deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Overrides the broker↔location mapping (default: one location per
    /// broker).
    #[must_use]
    pub fn locations(mut self, locations: LocationMap) -> Self {
        self.locations = Some(locations);
        self
    }

    /// Sets the constant link latency (default 1 ms).
    #[must_use]
    pub fn link_latency(mut self, latency: SimDuration) -> Self {
        self.link_latency = latency;
        self
    }

    /// Does nothing: a simulated run draws no random numbers, so it has no
    /// seed. Exists only until the benchmark's `roam` workload stops
    /// calling it (`bench/src/roam.rs`).
    #[must_use]
    pub fn seed(self, _seed: u64) -> Self {
        self
    }

    /// Accepts only `shards == 1`: a broker has one routing table. Exists
    /// only until the benchmark stops calling it; any other value is
    /// rejected by [`SystemBuilder::build`].
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replicates every broker's routing state across a replica group of
    /// `group_size` members: the broker itself plus `group_size - 1` log
    /// backups, kept consistent through a Viewstamped-Replication-style op
    /// log (see [`broker::replication`](crate::broker::replication)). A
    /// broker whose process dies is either succeeded by a backup (view
    /// change) or — once respawned — recovers its full routing table from
    /// its group *without any client re-subscribing*. Replication sits on
    /// the mutation path only; the zero-allocation notification route path
    /// is untouched. It composes with every [`Deployment`]: replicators
    /// front replicated brokers exactly as they front plain ones, and their
    /// own state (virtual clients, buffers) is not replicated.
    ///
    /// Default 1 — replication off, brokers run bare. `group_size` must be
    /// between 1 and the broker count (validated by
    /// [`SystemBuilder::build`]).
    #[must_use]
    pub fn replication(mut self, group_size: usize) -> Self {
        self.replication = group_size;
        self
    }

    /// Arms link supervision with automatic reconnection for
    /// [`build_process_partition`](SystemBuilder::build_process_partition)
    /// deployments: a peer process that dies is re-dialed (or re-accepted)
    /// under `policy`'s jittered exponential backoff, the Hello handshake
    /// is replayed, and link state is re-broadcast. Off by default — a
    /// dead peer's links then stay down (traffic towards it is counted
    /// and dropped) while everything else keeps running. Ignored by
    /// [`build`](SystemBuilder::build): the simulator has no sockets.
    #[must_use]
    pub fn reconnect_policy(mut self, policy: rebeca_net::ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Validates the configuration without building the world.
    ///
    /// Returns the movement graph and replicator configuration to deploy
    /// for replicated deployments.
    fn validate(&self) -> Result<Option<(MovementGraph, ReplicatorConfig)>, RebecaError> {
        let n = self.topology.broker_count();
        if n == 0 {
            // Unreachable through `Topology`'s constructors, which reject
            // empty graphs; kept so the facade never trusts its inputs.
            return Err(RebecaError::InvalidTopology("topology has no brokers".into()));
        }
        if self.shards != 1 {
            return Err(RebecaError::InvalidDeployment(format!(
                "shard count {} is not 1: a broker has one routing table",
                self.shards
            )));
        }
        if self.replication == 0 {
            return Err(RebecaError::InvalidDeployment(
                "replication group size must be at least 1 (1 = off)".into(),
            ));
        }
        if self.replication > n {
            return Err(RebecaError::InvalidDeployment(format!(
                "replication group size {} exceeds the broker count {n}: \
                 each backup is co-hosted with a *different* broker so a \
                 process death never takes a whole group down",
                self.replication
            )));
        }
        if let Some(locations) = &self.locations {
            for (broker, _) in locations.iter() {
                if broker.raw() as usize >= n {
                    return Err(RebecaError::InvalidDeployment(format!(
                        "location map assigns a scope to {broker}, but the topology \
                         has only {n} brokers"
                    )));
                }
            }
        }
        match &self.deployment {
            Deployment::Replicated { movement: Some(movement), config } => {
                if movement.broker_count() == 0 {
                    return Err(RebecaError::InvalidDeployment(
                        "replicated deployment with an empty movement graph: \
                         no client could ever move; pass `movement: None` to \
                         use the broker tree"
                            .into(),
                    ));
                }
                if !movement.is_consistent_with(&self.topology) {
                    return Err(RebecaError::InvalidTopology(format!(
                        "movement graph references brokers outside the \
                         {n}-broker topology"
                    )));
                }
                Ok(Some((movement.clone(), config.clone())))
            }
            Deployment::Replicated { movement: None, config } => {
                Ok(Some((MovementGraph::from_topology(&self.topology), config.clone())))
            }
            Deployment::Static => Ok(None),
        }
    }

    /// Builds the world: brokers, their log backups, replicators and every
    /// link between them, as the deployment plan lays them out.
    ///
    /// # Errors
    ///
    /// Returns [`RebecaError::InvalidDeployment`] if the location map
    /// assigns scopes to brokers outside the topology, a replicated
    /// deployment carries an explicitly empty movement graph, or
    /// [`SystemBuilder::shards`] was given anything but 1; and
    /// [`RebecaError::InvalidTopology`] if the movement graph references
    /// brokers the topology does not have.
    pub fn build(self) -> Result<System, RebecaError> {
        let replicated = self.validate()?;
        let plan = Plan::new(&self.topology, &self.deployment, self.replication);
        let locations =
            Arc::new(self.locations.unwrap_or_else(|| LocationMap::one_per_broker(&self.topology)));
        let mobility = replicated
            .map(|(movement, config)| (Arc::new(movement), Arc::clone(&locations), config));
        let parts = Parts::new(self.topology, self.strategy, mobility);
        let link = LinkConfig::constant(self.link_latency);
        let mut world = World::new();
        for node in &plan.nodes {
            world.add_node(parts.node(&plan, node.kind));
        }
        for &(a, b) in &plan.edges {
            world.connect(a, b, link.clone());
        }
        Ok(System {
            world,
            topology: parts.topology,
            locations,
            plan,
            link,
            replication: self.replication,
            replication_metrics: (self.replication > 1).then_some(parts.metrics),
            clients: Vec::new(),
            next_sub: 0,
        })
    }

    /// Deploys this configuration's share for one process of a
    /// multi-process deployment (see
    /// [`ProcessRuntime`](rebeca_net::ProcessRuntime)), instantiating the
    /// same deployment plan as [`build`](SystemBuilder::build).
    ///
    /// The nodes whose host is listed in `hosted` — each such broker and
    /// the log backups placed with it — become local nodes of `rt`; every
    /// other node is declared remote behind the peer connection `peer_of`
    /// returns for its host. `rt` must hold no nodes yet. Every
    /// participating process must call this with the *same* configuration
    /// (so the global node table lines up) but its own `hosted` set; every
    /// link of the plan is connected on all of them. Client nodes are
    /// added by the caller afterwards — again in the same order in every
    /// process, using [`add_local`](rebeca_net::ProcessRuntime::add_local)
    /// here and [`add_remote`](rebeca_net::ProcessRuntime::add_remote)
    /// elsewhere.
    ///
    /// Attribute-name symbols are per-broker: each broker's match index
    /// interns the names it meets — nothing interned ever crosses the
    /// wire. Returns the broker node ids, indexed by
    /// [`BrokerId`]. The simulation-only setting of the builder (link
    /// latency) is ignored. A
    /// [`reconnect_policy`](SystemBuilder::reconnect_policy), if set, is
    /// installed on `rt` so killed peer processes are survivable (see
    /// [`rebeca_net::supervisor`]).
    ///
    /// # Errors
    ///
    /// [`RebecaError::InvalidDeployment`] for a non-static deployment (the
    /// mobility tiers run on the simulator only), a `hosted` broker
    /// outside the topology, or a remote node whose host `peer_of` returns
    /// `None` for; plus anything [`SystemBuilder::build`] would reject.
    pub fn build_process_partition(
        self,
        rt: &mut rebeca_net::ProcessRuntime<Message>,
        hosted: &[BrokerId],
        mut peer_of: impl FnMut(BrokerId) -> Option<rebeca_net::PeerId>,
    ) -> Result<Vec<NodeId>, RebecaError> {
        self.validate()?;
        if !matches!(self.deployment, Deployment::Static) {
            return Err(RebecaError::InvalidDeployment(
                "process partitions deploy the static broker tier; mobility \
                 deployments run on the simulator only"
                    .into(),
            ));
        }
        let n = self.topology.broker_count();
        for b in hosted {
            if b.raw() as usize >= n {
                return Err(RebecaError::InvalidDeployment(format!(
                    "hosted broker {b} is outside the {n}-broker topology"
                )));
            }
        }
        if let Some(policy) = self.reconnect {
            rt.set_reconnect_policy(policy);
        }
        let plan = Plan::new(&self.topology, &self.deployment, self.replication);
        let parts = Parts::new(self.topology, self.strategy, None);
        for node in &plan.nodes {
            if hosted.contains(&node.host) {
                rt.add_local(parts.node(&plan, node.kind));
            } else {
                let host = node.host;
                let peer = peer_of(host).ok_or_else(|| {
                    RebecaError::InvalidDeployment(format!(
                        "broker {host} is not hosted here and has no peer connection"
                    ))
                })?;
                rt.add_remote(peer);
            }
        }
        for &(a, b) in &plan.edges {
            rt.connect(a, b);
        }
        Ok(plan.brokers.to_vec())
    }
}
