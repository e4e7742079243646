//! Node wiring: one durable [`RuleApp`] + HTTP server + a replication
//! role, assembled in the right order so `/health` reports the role from
//! the first request and followers reject writes from the first request.
//!
//! A [`LeaderNode`] serves HTTP (classify + rule CRUD) and the replication
//! port; a [`FollowerNode`] serves HTTP (classify + read-only CRUD — rule
//! mutations answer 409) and tails the leader. Both own their storage and
//! recover from it on start, so either side can crash and return.

use crate::follower::{FollowerConfig, ReplFollower};
use crate::leader::{LeaderConfig, ReplLeader};
use rulekit_chimera::{Chimera, ChimeraConfig};
use rulekit_data::Taxonomy;
use rulekit_net::{NetConfig, NetServer, RuleApp};
use rulekit_obs::Registry;
use rulekit_serve::ServeConfig;
use rulekit_store::{DurableConfig, DurableRepository, Storage, StoreError};
use std::net::SocketAddr;
use std::sync::Arc;

/// Everything below the replication role: HTTP front-end, serving tier,
/// durable store.
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// HTTP front-end tuning (bind address, handler pool).
    pub net: NetConfig,
    /// Serving-tier tuning (shards, refresh interval, admission).
    pub serve: ServeConfig,
    /// Durable-store tuning (fsync policy, compaction).
    pub store: DurableConfig,
}

fn build_app(storage: Arc<dyn Storage>, cfg: &NodeConfig) -> Result<RuleApp, StoreError> {
    let chimera = Arc::new(Chimera::new(Taxonomy::builtin(), ChimeraConfig::default()));
    RuleApp::durable(chimera, storage, cfg.store, cfg.serve.clone())
}

/// A leader: HTTP + replication port, accepts writes.
pub struct LeaderNode {
    // Declaration order is drop order: stop taking HTTP traffic first,
    // then stop shipping.
    server: NetServer,
    repl: ReplLeader,
    store: Arc<DurableRepository>,
    registry: Arc<Registry>,
}

impl LeaderNode {
    /// Recovers the catalog from `storage`, starts the replication port,
    /// then opens the HTTP front-end.
    pub fn start(
        storage: Arc<dyn Storage>,
        cfg: NodeConfig,
        leader_cfg: LeaderConfig,
    ) -> Result<LeaderNode, StoreError> {
        let app = build_app(storage, &cfg)?;
        let store = app.store.clone().expect("durable app has a store");
        let registry = app.registry.clone();
        let repl = ReplLeader::start(store.clone(), leader_cfg, &registry)?;
        let app = app.with_replication(repl.info());
        let server = NetServer::start(app, cfg.net)?;
        Ok(LeaderNode { server, repl, store, registry })
    }

    /// HTTP address (classify + CRUD).
    pub fn http_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Replication address followers dial.
    pub fn repl_addr(&self) -> SocketAddr {
        self.repl.local_addr()
    }

    /// The durable store (direct edit handle for tests/benches).
    pub fn store(&self) -> &Arc<DurableRepository> {
        &self.store
    }

    /// The node's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The replication handle.
    pub fn repl(&self) -> &ReplLeader {
        &self.repl
    }
}

/// A follower: HTTP (reads + classify; writes answer 409) tailing a leader.
pub struct FollowerNode {
    server: NetServer,
    repl: ReplFollower,
    store: Arc<DurableRepository>,
    registry: Arc<Registry>,
}

impl FollowerNode {
    /// Recovers local state from `storage`, starts tailing the leader (the
    /// leader may be down — the follower backoff-retries), then opens the
    /// HTTP front-end.
    pub fn start(
        storage: Arc<dyn Storage>,
        cfg: NodeConfig,
        follower_cfg: FollowerConfig,
    ) -> Result<FollowerNode, StoreError> {
        let app = build_app(storage, &cfg)?;
        let store = app.store.clone().expect("durable app has a store");
        let registry = app.registry.clone();
        let repl = ReplFollower::start(store.clone(), follower_cfg, &registry);
        let app = app.with_replication(repl.info());
        let server = NetServer::start(app, cfg.net)?;
        Ok(FollowerNode { server, repl, store, registry })
    }

    /// HTTP address (classify + read-only CRUD).
    pub fn http_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The durable store (inspection handle for tests/benches).
    pub fn store(&self) -> &Arc<DurableRepository> {
        &self.store
    }

    /// The node's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The replication handle.
    pub fn repl(&self) -> &ReplFollower {
        &self.repl
    }
}
