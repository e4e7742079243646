//! The application behind the socket: a running [`RuleService`], the rule
//! repository it serves, the (optional) durable store that makes rule edits
//! crash-safe, and the shared metrics registry every tier records into.
//!
//! The invariants the handlers rely on live here:
//!
//! * **No side door for traffic**: a single `POST /classify` goes through
//!   the blocking [`RuleService::classify`] (run on the handler's thread
//!   when a shard is idle, queued otherwise) and the `{"items": […]}` form
//!   through [`RuleService::submit`] — admission, deadlines,
//!   and rules-only degradation all apply to network traffic exactly as to
//!   in-process callers.
//! * **No side door for edits**: when the app is durable, rule CRUD goes
//!   through the [`DurableRepository`], so a mutation is WAL-logged before
//!   the HTTP response acknowledges it.
//! * **One registry**: serving-tier, pipeline, store, and front-end metrics
//!   all land in the same [`Registry`], so `GET /metrics` is one scrape.

use rulekit_chimera::Chimera;
use rulekit_core::{RuleId, RuleMeta, RuleParser, RuleRepository};
use rulekit_data::Taxonomy;
use rulekit_obs::Registry;
use rulekit_serve::{ChimeraProvider, RuleService, ServeConfig};
use rulekit_store::{DurableConfig, DurableRepository, Storage, StoreError};
use std::sync::Arc;

/// What a replication role exposes to the HTTP surface: `/health` renders
/// it, and the mutation routes consult [`ReplicationInfo::accepts_writes`]
/// so followers answer rule edits with 409 instead of silently forking
/// their catalog from the leader's. Implemented by `rulekit-repl`'s leader
/// and follower handles; `net` itself only consumes the trait.
pub trait ReplicationInfo: Send + Sync {
    /// `"leader"` or `"follower"`.
    fn role(&self) -> &'static str;
    /// Leader: `"leading"`. Follower: `"syncing"` / `"tailing"` /
    /// `"stale"`.
    fn state(&self) -> &'static str;
    /// Highest WAL revision applied locally.
    fn last_applied(&self) -> u64;
    /// Highest revision known at the leader (for followers: last heard via
    /// the record/heartbeat stream; 0 before the first contact).
    fn leader_seq(&self) -> u64;
    /// Whether this node accepts rule mutations. Only the leader does.
    fn accepts_writes(&self) -> bool {
        self.role() == "leader"
    }
    /// Leader incarnation this node's state is grounded under (leaders:
    /// their own; followers: the one last installed; 0 = unknown).
    fn epoch(&self) -> u64 {
        0
    }
}

/// Everything the HTTP handlers need, bundled. Construct with
/// [`RuleApp::durable`] (production shape) or [`RuleApp::in_memory`]
/// (tests, benchmarks, ephemeral demos).
pub struct RuleApp {
    /// The serving tier network traffic routes through.
    pub service: RuleService,
    /// The durable mutation handle; `None` for in-memory apps.
    pub store: Option<Arc<DurableRepository>>,
    /// The main rule repository (reads for the CRUD surface).
    pub rules: Arc<RuleRepository>,
    /// Parser for the non-durable mutation path.
    pub parser: RuleParser,
    /// Taxonomy for rendering type ids as names on the wire.
    pub taxonomy: Arc<Taxonomy>,
    /// The shared metrics registry `/metrics` renders.
    pub registry: Arc<Registry>,
    /// Replication role, when this app is part of a replica set (set via
    /// [`RuleApp::with_replication`] after the repl layer starts).
    pub replication: Option<Arc<dyn ReplicationInfo>>,
}

impl RuleApp {
    /// A durable app: recovers rules from `storage` before serving, then
    /// WAL-logs every subsequent edit before acknowledging it.
    ///
    /// Construction order is the durability contract: the store opens
    /// *into* `chimera.rules` (recovery replaces its contents) before
    /// [`RuleService`] builds its first snapshot, so traffic never sees an
    /// empty post-restart rule set. Recovery re-parses with the pipeline's
    /// own parser, so register dictionaries before calling.
    pub fn durable(
        chimera: Arc<Chimera>,
        storage: Arc<dyn Storage>,
        store_cfg: DurableConfig,
        serve_cfg: ServeConfig,
    ) -> Result<RuleApp, StoreError> {
        // Share the pipeline's registry so one /metrics scrape covers
        // pipeline + inference-tier + store + serving + route metrics.
        let registry = chimera.metrics().registry().clone();
        let taxonomy = chimera.taxonomy().clone();
        let parser = chimera.parser().clone();
        let rules = chimera.rules.clone();
        let store = Arc::new(DurableRepository::open_into_observed(
            rules.clone(),
            storage,
            parser.clone(),
            store_cfg,
            &registry,
        )?);
        let provider = Arc::new(ChimeraProvider::new(chimera));
        let service = RuleService::start_with_registry(provider, serve_cfg, registry.clone());
        Ok(RuleApp {
            service,
            store: Some(store),
            rules,
            parser,
            taxonomy,
            registry,
            replication: None,
        })
    }

    /// An in-memory app: rule edits apply immediately but do not survive a
    /// restart. Same serving path, no WAL.
    pub fn in_memory(chimera: Arc<Chimera>, serve_cfg: ServeConfig) -> RuleApp {
        let registry = chimera.metrics().registry().clone();
        let taxonomy = chimera.taxonomy().clone();
        let parser = chimera.parser().clone();
        let rules = chimera.rules.clone();
        let provider = Arc::new(ChimeraProvider::new(chimera));
        let service = RuleService::start_with_registry(provider, serve_cfg, registry.clone());
        RuleApp { service, store: None, rules, parser, taxonomy, registry, replication: None }
    }

    /// Attaches a replication role: `/health` gains the role block and
    /// rule mutations are rejected with 409 unless the role accepts writes.
    pub fn with_replication(mut self, info: Arc<dyn ReplicationInfo>) -> RuleApp {
        self.replication = Some(info);
        self
    }

    /// Adds DSL rules through the durable path when there is one. On `Ok`
    /// the rules are applied — and, for durable apps, WAL-logged first.
    pub fn add_rules(&self, text: &str, meta: &RuleMeta) -> Result<Vec<RuleId>, StoreError> {
        match &self.store {
            Some(store) => store.add_rules(text, meta),
            None => {
                let specs =
                    self.parser.parse_rules(text).map_err(|e| StoreError::Parse(e.to_string()))?;
                Ok(self.rules.add_all(specs, meta))
            }
        }
    }

    /// Removes a rule through the durable path when there is one.
    /// `Ok(false)` = no such rule.
    pub fn remove_rule(&self, id: RuleId, reason: &str) -> Result<bool, StoreError> {
        match &self.store {
            Some(store) => store.remove(id, reason),
            None => Ok(self.rules.remove(id, reason)),
        }
    }
}
