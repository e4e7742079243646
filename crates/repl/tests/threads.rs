//! Dropping the serving stack leaves no thread behind: a durable app behind
//! an HTTP server, a replication leader and a tailing follower run their
//! threads (all named `rulekit-…`), and once all four are dropped the
//! process has none of them left. One test per binary, so no other test's
//! threads are counted.

#![cfg(target_os = "linux")]

use rulekit_chimera::{Chimera, ChimeraConfig};
use rulekit_core::RuleParser;
use rulekit_data::Taxonomy;
use rulekit_net::{NetConfig, NetServer, RuleApp};
use rulekit_obs::Registry;
use rulekit_repl::{FollowerConfig, FollowerState, LeaderConfig, ReplFollower, ReplLeader};
use rulekit_serve::ServeConfig;
use rulekit_store::{DurableConfig, DurableRepository, MemStorage, Storage};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The names (as the kernel keeps them, cut to 15 bytes) of this process's
/// threads that the stack started.
fn stack_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("rulekit-"))
        .collect();
    names.sort();
    names
}

#[test]
fn dropping_the_stack_leaves_no_thread_running() {
    let chimera = Arc::new(Chimera::new(Taxonomy::builtin(), ChimeraConfig::default()));
    let storage = Arc::new(MemStorage::new()) as Arc<dyn Storage>;
    let app = RuleApp::durable(chimera, storage, DurableConfig::default(), ServeConfig::default())
        .expect("durable app");
    let store = app.store.clone().expect("durable app has a store");
    let leader_cfg = LeaderConfig { heartbeat: Duration::from_millis(50), ..Default::default() };
    let leader = ReplLeader::start(store, leader_cfg, &app.registry).expect("leader");
    let server =
        NetServer::start(app.with_replication(leader.info()), NetConfig::default()).expect("net");

    let follower_store = Arc::new(
        DurableRepository::open(
            Arc::new(MemStorage::new()),
            RuleParser::new(Taxonomy::builtin()),
            DurableConfig::default(),
        )
        .expect("follower store"),
    );
    let follower = ReplFollower::start(
        follower_store,
        FollowerConfig::new(leader.local_addr()),
        &Registry::new(),
    );
    assert!(follower.wait_for_state(FollowerState::Tailing, Duration::from_secs(10)));

    let running = stack_threads();
    assert!(!running.is_empty(), "no rulekit- thread found while the stack runs");
    println!("{} stack threads while running: {running:?}", running.len());

    drop(server);
    drop(leader);
    drop(follower);
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut left = stack_threads();
    while !left.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        left = stack_threads();
    }
    assert!(left.is_empty(), "threads still running after the drops: {left:?}");
}
