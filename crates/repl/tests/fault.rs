//! Seeded fault injection for the replication layer. Every scenario the
//! tentpole promises to survive, induced on purpose:
//!
//! * torn replication frames (a chaos proxy cuts the byte stream at seeded
//!   offsets, mid-frame included);
//! * network partitions (the proxy refuses connections for a while);
//! * follower crash + reopen with a torn local WAL tail (power loss via
//!   `MemStorage::crash`), *interleaved* with stream truncation — the
//!   crash/reopen fuzz from `rulekit-store`, extended across the wire;
//! * a leader restart that lost an unsynced tail (the follower is *ahead*
//!   and must rebuild from the new leader's snapshot).
//!
//! The invariant everywhere: no divergence (catalog hashes converge), no
//! panic, no stuck state — every fault ends in Tailing.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rulekit_core::{RuleMeta, RuleParser};
use rulekit_data::Taxonomy;
use rulekit_obs::Registry;
use rulekit_repl::{FollowerConfig, FollowerState, LeaderConfig, ReplFollower, ReplLeader};
use rulekit_store::{catalog_hash, DurableConfig, DurableRepository, MemStorage, Storage};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Chaos proxy
// ---------------------------------------------------------------------------

/// What the proxy does with the *next* connection.
#[derive(Debug, Clone, Copy)]
enum Chaos {
    /// Pass bytes through faithfully.
    Forward,
    /// Refuse (accept + immediately close): a partitioned network.
    Partition,
    /// Forward exactly `n` upstream→downstream bytes, then cut both ways —
    /// a torn frame when `n` lands mid-frame (it usually does).
    TruncateAfter(usize),
}

/// A TCP proxy the follower dials instead of the leader, so tests can tear
/// the stream at chosen byte offsets, partition the link, or silently
/// retarget to a different (restarted) leader.
struct ChaosProxy {
    local: SocketAddr,
    upstream: Arc<Mutex<SocketAddr>>,
    mode: Arc<Mutex<Chaos>>,
    live: Arc<Mutex<Vec<TcpStream>>>,
    shutdown: Arc<AtomicBool>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let local = listener.local_addr().expect("proxy addr");
        let upstream = Arc::new(Mutex::new(upstream));
        let mode = Arc::new(Mutex::new(Chaos::Forward));
        let live: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        {
            let upstream = upstream.clone();
            let mode = mode.clone();
            let live = live.clone();
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(client) = conn else { continue };
                    let chaos = *mode.lock().unwrap();
                    let target = *upstream.lock().unwrap();
                    match chaos {
                        Chaos::Partition => drop(client),
                        Chaos::Forward => pump_pair(client, target, usize::MAX, &live),
                        Chaos::TruncateAfter(n) => pump_pair(client, target, n, &live),
                    }
                }
            });
        }
        ChaosProxy { local, upstream, mode, live, shutdown }
    }

    fn set_mode(&self, mode: Chaos) {
        *self.mode.lock().unwrap() = mode;
    }

    /// Kills every live proxied connection (chaos modes only apply to new
    /// connections; this forces the follower through a reconnect so the
    /// next mode actually bites).
    fn cut_live(&self) {
        let mut live = self.live.lock().unwrap();
        for sock in live.drain(..) {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }

    fn retarget(&self, upstream: SocketAddr) {
        *self.upstream.lock().unwrap() = upstream;
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local);
    }
}

/// Wires `client` to `target`, forwarding at most `budget` bytes in the
/// upstream→client direction before cutting both sockets.
fn pump_pair(
    client: TcpStream,
    target: SocketAddr,
    budget: usize,
    live: &Arc<Mutex<Vec<TcpStream>>>,
) {
    let Ok(server) = TcpStream::connect_timeout(&target, Duration::from_secs(2)) else {
        return; // upstream down: equivalent to a refused connection
    };
    {
        let mut reg = live.lock().unwrap();
        reg.push(client.try_clone().unwrap());
        reg.push(server.try_clone().unwrap());
    }
    let up = {
        let (client, server) = (client.try_clone().unwrap(), server.try_clone().unwrap());
        std::thread::spawn(move || pump(client, server, usize::MAX))
    };
    let down = std::thread::spawn(move || pump(server, client, budget));
    // Detach: each pump exits when its sockets die; `pump` tears both
    // directions down when the budget runs out.
    drop((up, down));
}

fn pump(mut from: TcpStream, mut to: TcpStream, mut budget: usize) {
    let mut buf = [0u8; 256];
    loop {
        let want = buf.len().min(budget.max(1)).max(1);
        let n = match from.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let allowed = n.min(budget);
        if allowed > 0 && to.write_all(&buf[..allowed]).is_err() {
            break;
        }
        budget -= allowed;
        if budget == 0 {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Shared setup
// ---------------------------------------------------------------------------

const SOURCES: &[&str] = &[
    "rings? -> rings",
    "wedding bands? -> rings",
    "rugs? -> area rugs",
    "sofas? -> sofas",
    "necklaces? -> necklaces",
    "laptop bags? -> NOT laptop computers",
];

fn parser() -> RuleParser {
    RuleParser::new(Taxonomy::builtin())
}

fn open_store(storage: &Arc<MemStorage>) -> Arc<DurableRepository> {
    Arc::new(
        DurableRepository::open(
            Arc::clone(storage) as Arc<dyn Storage>,
            parser(),
            DurableConfig::default(),
        )
        .expect("open store"),
    )
}

fn leader_cfg() -> LeaderConfig {
    LeaderConfig { heartbeat: Duration::from_millis(50), ..Default::default() }
}

fn follower_cfg(leader_addr: SocketAddr, seed: u64) -> FollowerConfig {
    let mut cfg = FollowerConfig::new(leader_addr);
    cfg.heartbeat_deadline = Duration::from_millis(300);
    cfg.backoff_base = Duration::from_millis(10);
    cfg.backoff_cap = Duration::from_millis(80);
    cfg.seed = seed;
    cfg
}

fn add_random_rule(store: &DurableRepository, rng: &mut StdRng) {
    let source = SOURCES[rng.gen_range(0..SOURCES.len())];
    store.add_rules(source, &RuleMeta::default()).expect("leader edit");
}

fn wait_converged(leader: &DurableRepository, follower: &DurableRepository, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (l, f) = (catalog_hash(leader.repository()), catalog_hash(follower.repository()));
        if l == f {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for convergence after {what}: leader {l:016x} follower {f:016x}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Torn frames at seeded offsets: the stream is cut mid-frame again and
/// again; every cut ends in reconnect + idempotent resume, never
/// divergence or a stuck state.
#[test]
fn torn_frames_at_seeded_offsets_never_diverge() {
    let mut rng = StdRng::seed_from_u64(0x7ea2);
    let leader_store = open_store(&Arc::new(MemStorage::new()));
    let registry = Registry::new();
    let leader = ReplLeader::start(leader_store.clone(), leader_cfg(), &registry).expect("leader");
    let proxy = ChaosProxy::start(leader.local_addr());

    let f_store = open_store(&Arc::new(MemStorage::new()));
    let f_registry = Registry::new();
    let follower =
        ReplFollower::start(f_store.clone(), follower_cfg(proxy.local, 0x7ea2), &f_registry);

    for round in 0..12 {
        // Leave records to catch up on, then cut the live session and make
        // the reconnect's catch-up stream tear somewhere inside its first
        // frames (the replay of those records).
        add_random_rule(&leader_store, &mut rng);
        proxy.set_mode(Chaos::TruncateAfter(rng.gen_range(1..200)));
        proxy.cut_live();
        // Give the torn reconnect a moment to die mid-replay, then heal.
        std::thread::sleep(Duration::from_millis(rng.gen_range(15..60)));
        proxy.set_mode(Chaos::Forward);
        proxy.cut_live();
        wait_converged(&leader_store, &f_store, &format!("torn round {round}"));
    }
    assert!(
        follower.wait_for_state(FollowerState::Tailing, Duration::from_secs(5)),
        "follower stuck in {:?}",
        follower.state()
    );
    assert!(
        f_registry.counter("rulekit_repl_reconnects_total").value() > 0,
        "the chaos proxy never actually tore a session"
    );
}

/// A partition long enough to miss the heartbeat deadline marks the
/// follower Stale; healing the link brings it back to Tailing with the
/// leader's exact catalog.
#[test]
fn partition_marks_follower_stale_then_heals_to_tailing() {
    let leader_store = open_store(&Arc::new(MemStorage::new()));
    let registry = Registry::new();
    let leader = ReplLeader::start(leader_store.clone(), leader_cfg(), &registry).expect("leader");
    let proxy = ChaosProxy::start(leader.local_addr());

    let f_store = open_store(&Arc::new(MemStorage::new()));
    let f_registry = Registry::new();
    let follower =
        ReplFollower::start(f_store.clone(), follower_cfg(proxy.local, 0xbad), &f_registry);
    leader_store.add_rules("rings? -> rings", &RuleMeta::default()).unwrap();
    wait_converged(&leader_store, &f_store, "initial sync");
    assert!(follower.wait_for_state(FollowerState::Tailing, Duration::from_secs(5)));

    // Partition the link: new connections are refused, and the live
    // session dies with the old leader (chaos applies per connection, so
    // dropping the leader is what cuts the already-wired pumps). This
    // doubles as the leader-restart drill: a new leader comes up on the
    // same store and the proxy silently retargets.
    proxy.set_mode(Chaos::Partition);
    drop(leader);
    assert!(
        follower.wait_for_state(FollowerState::Stale, Duration::from_secs(5)),
        "partitioned follower must report stale, got {:?}",
        follower.state()
    );

    let leader2 =
        ReplLeader::start(leader_store.clone(), leader_cfg(), &registry).expect("leader2");
    proxy.retarget(leader2.local_addr());
    leader_store.add_rules("sofas? -> sofas", &RuleMeta::default()).unwrap();
    proxy.set_mode(Chaos::Forward);
    wait_converged(&leader_store, &f_store, "partition heal");
    assert!(
        follower.wait_for_state(FollowerState::Tailing, Duration::from_secs(5)),
        "healed follower must tail again, got {:?}",
        follower.state()
    );
}

/// A restarted leader that lost an unsynced tail leaves the follower
/// *ahead*; the follower must detect it (cursor > leader head ⇒ gap ⇒
/// snapshot) and mirror the new leader's catalog, even backwards.
#[test]
fn leader_restart_with_lost_tail_rebuilds_follower_from_snapshot() {
    let leader1_store = open_store(&Arc::new(MemStorage::new()));
    let registry = Registry::new();
    let leader1 =
        ReplLeader::start(leader1_store.clone(), leader_cfg(), &registry).expect("leader1");
    let proxy = ChaosProxy::start(leader1.local_addr());

    let f_store = open_store(&Arc::new(MemStorage::new()));
    let f_registry = Registry::new();
    let follower =
        ReplFollower::start(f_store.clone(), follower_cfg(proxy.local, 0x10af), &f_registry);
    for _ in 0..5 {
        leader1_store.add_rules("rings? -> rings", &RuleMeta::default()).unwrap();
    }
    wait_converged(&leader1_store, &f_store, "pre-restart sync");
    assert!(f_store.repository().revision() >= 5);

    // "Restart" the leader from a blank disk with a shorter history — the
    // follower is now ahead of the leader it reconnects to.
    proxy.set_mode(Chaos::Partition);
    drop(leader1);
    let leader2_store = open_store(&Arc::new(MemStorage::new()));
    leader2_store.add_rules("sofas? -> sofas", &RuleMeta::default()).unwrap();
    let leader2 =
        ReplLeader::start(leader2_store.clone(), leader_cfg(), &registry).expect("leader2");
    proxy.retarget(leader2.local_addr());
    proxy.set_mode(Chaos::Forward);

    wait_converged(&leader2_store, &f_store, "lost-tail rebuild");
    assert!(follower.wait_for_state(FollowerState::Tailing, Duration::from_secs(5)));
    assert!(
        f_registry.counter("rulekit_repl_snapshots_installed_total").value() >= 1,
        "an ahead-of-leader follower can only reconcile by snapshot"
    );
    assert_eq!(f_store.repository().revision(), leader2_store.repository().revision());
}

/// The nastiest divergence: a leader loses an unsynced WAL tail, restarts,
/// and re-advances to the *same* revision with different history. Revision
/// arithmetic alone cannot see this — the follower's cursor equals the
/// leader's head, so the ring answers UpToDate and the follower would tail
/// a fork forever while reporting healthy. The leader epoch (bumped each
/// start, compared at handshake) must force a snapshot instead.
#[test]
fn leader_restart_at_same_revision_is_caught_by_epoch_not_revision() {
    let leader_mem = Arc::new(MemStorage::new());
    let leader1_store = open_store(&leader_mem);
    let registry = Registry::new();
    let leader1 =
        ReplLeader::start(leader1_store.clone(), leader_cfg(), &registry).expect("leader1");
    let proxy = ChaosProxy::start(leader1.local_addr());

    let f_store = open_store(&Arc::new(MemStorage::new()));
    let f_registry = Registry::new();
    let follower =
        ReplFollower::start(f_store.clone(), follower_cfg(proxy.local, 0xe90c), &f_registry);
    for source in ["rings? -> rings", "rugs? -> area rugs", "sofas? -> sofas"] {
        leader1_store.add_rules(source, &RuleMeta::default()).unwrap();
    }
    wait_converged(&leader1_store, &f_store, "pre-fork sync");

    // Power-loss the leader with its last acknowledged record unsynced:
    // drop everything, then chop the final record off the WAL.
    proxy.set_mode(Chaos::Partition);
    drop(leader1);
    drop(leader1_store);
    let wal_bytes = leader_mem.read(rulekit_store::WAL_NAME).expect("leader wal");
    let scan = rulekit_store::wal::scan(&wal_bytes);
    let cut = *scan.record_starts.last().expect("records in wal");
    leader_mem.truncate(rulekit_store::WAL_NAME, cut).expect("drop unsynced tail");

    // The restarted leader re-advances to the follower's exact revision
    // with *different* history.
    let leader2_store = open_store(&leader_mem);
    assert_eq!(leader2_store.repository().revision() + 1, f_store.repository().revision());
    leader2_store.add_rules("necklaces? -> necklaces", &RuleMeta::default()).unwrap();
    assert_eq!(leader2_store.repository().revision(), f_store.repository().revision());
    assert_ne!(
        catalog_hash(leader2_store.repository()),
        catalog_hash(f_store.repository()),
        "same revision, forked history — the scenario under test"
    );

    let leader2 =
        ReplLeader::start(leader2_store.clone(), leader_cfg(), &registry).expect("leader2");
    assert!(leader2.epoch() > 1, "restart must bump the persisted epoch");
    proxy.retarget(leader2.local_addr());
    proxy.set_mode(Chaos::Forward);

    wait_converged(&leader2_store, &f_store, "epoch-forced resync");
    assert!(follower.wait_for_state(FollowerState::Tailing, Duration::from_secs(5)));
    assert!(
        f_registry.counter("rulekit_repl_snapshots_installed_total").value() >= 2,
        "the fork is only healable by an epoch-forced snapshot"
    );
}

/// The crash/reopen fuzz, extended across the wire: each seeded cycle
/// interleaves leader edits, replication-stream truncation at a random
/// offset, a follower power-loss crash with a randomly torn WAL tail, and
/// a reopen. After every cycle the recovered follower must reconverge to
/// the leader exactly — torn-tail repair and idempotent re-ship composing,
/// never compounding.
#[test]
fn fuzz_stream_truncation_interleaved_with_follower_torn_tail_repair() {
    let seeds: Vec<u64> = std::env::var("RULEKIT_REPL_FUZZ_SEEDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![3, 1729]);
    for seed in seeds {
        fuzz_cycle(seed, 8);
    }
}

fn fuzz_cycle(seed: u64, cycles: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let leader_store = open_store(&Arc::new(MemStorage::new()));
    let registry = Registry::new();
    let leader = ReplLeader::start(leader_store.clone(), leader_cfg(), &registry).expect("leader");
    let proxy = ChaosProxy::start(leader.local_addr());

    let f_mem = Arc::new(MemStorage::new());
    let mut f_store = open_store(&f_mem);
    let mut follower = Some(ReplFollower::start(
        f_store.clone(),
        follower_cfg(proxy.local, seed),
        &Registry::new(),
    ));

    for cycle in 0..cycles {
        for _ in 0..rng.gen_range(1..4) {
            add_random_rule(&leader_store, &mut rng);
        }
        match rng.gen_range(0u32..3) {
            // Torn stream only.
            0 => {
                proxy.set_mode(Chaos::TruncateAfter(rng.gen_range(1..300)));
                proxy.cut_live();
                std::thread::sleep(Duration::from_millis(rng.gen_range(5..30)));
                proxy.set_mode(Chaos::Forward);
                proxy.cut_live();
            }
            // Follower crash: drop the replication thread and the store,
            // then power-loss the storage (each unsynced tail torn at a
            // random cut) and reopen. Torn-tail repair runs on reopen.
            1 => {
                drop(follower.take());
                drop(f_store);
                f_mem.crash(|_, unsynced| rng.gen_range(0..=unsynced));
                f_store = open_store(&f_mem);
                follower = Some(ReplFollower::start(
                    f_store.clone(),
                    follower_cfg(proxy.local, seed ^ u64::from(cycle)),
                    &Registry::new(),
                ));
            }
            // Both at once: crash the follower (torn WAL tail), reopen, and
            // let its *first* catch-up session tear mid-stream too.
            _ => {
                proxy.set_mode(Chaos::TruncateAfter(rng.gen_range(1..150)));
                drop(follower.take());
                drop(f_store);
                f_mem.crash(|_, unsynced| rng.gen_range(0..=unsynced));
                f_store = open_store(&f_mem);
                follower = Some(ReplFollower::start(
                    f_store.clone(),
                    follower_cfg(proxy.local, seed.rotate_left(cycle)),
                    &Registry::new(),
                ));
                std::thread::sleep(Duration::from_millis(rng.gen_range(10..40)));
                proxy.set_mode(Chaos::Forward);
                proxy.cut_live();
            }
        }
        wait_converged(&leader_store, &f_store, &format!("seed {seed} cycle {cycle}"));
    }
    let f = follower.as_ref().expect("follower alive at end");
    assert!(
        f.wait_for_state(FollowerState::Tailing, Duration::from_secs(5)),
        "seed {seed}: follower finished in {:?}, not tailing",
        f.state()
    );
}
