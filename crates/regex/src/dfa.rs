//! Lazy DFA: cached on-the-fly subset construction over the Thompson NFA.
//!
//! The Pike VM answers `is_match` in `O(text × program)` with two thread
//! lists and an `Rc` slot box allocated per call — fine for ad-hoc matching,
//! ruinous when the literal-scan executor confirms ~100 candidate rules per
//! title at 100k-rule scale. The lazy DFA converts the same NFA program into
//! a deterministic automaton *one state at a time, as the input demands*:
//!
//! * a **state** is the sorted epsilon-closure of NFA pcs (consuming
//!   instructions, `Match`, and *pending* end-of-text assertions);
//! * the **alphabet** is compressed into true equivalence classes
//!   (`Alphabet`): two characters share a class exactly when every
//!   distinct `Ranges` set of the program (and `Any`) gives both the same
//!   verdict, so case-insensitive `denim.*jeans?` walks ~16 columns, not the
//!   ~43 intervals its range boundaries cut the code space into;
//! * transitions are discovered on first use and memoized in a flat
//!   `state × class` table of **16-bit words** — steady-state matching is
//!   one table load per character and allocates nothing;
//! * state keys live in **one arena** per cache (`key_pcs` + `key_off`),
//!   found through an open-addressed table of state ids hashed over the
//!   arena slice — no per-state heap block, no second copy of any key;
//! * the state cache is **bounded**: when a pathological pattern mints more
//!   than [`DEFAULT_STATE_BUDGET`] distinct states, the cache is cleared and
//!   rebuilt in place; after [`MAX_CLEARS_PER_SEARCH`] clears within a
//!   single search the engine gives up (`None`) and the caller falls back to
//!   the Pike VM, preserving the linear worst case. A regex whose searches
//!   fall back `HOSTILE_FALLBACK_LIMIT` times *in a row* is marked hostile
//!   and stops trying the DFA at all.
//!
//! A rule set holds tens of thousands of these, so what one costs is what
//! the server costs: static half plus warm cache come to ~2 KB for a
//! rule-shaped pattern (`tests/dfa_alloc.rs` guards the figure), nothing
//! is built before a regex's first search (see [`crate::Regex`]), and the
//! closure scratch is one per thread, not one per cache.
//!
//! Capture extraction always runs on the Pike VM — the DFA answers only the
//! boolean confirmation query, which is all rule execution needs.
//!
//! Thread safety: the immutable construction (`LazyDfa`) is shared by cloned
//! regexes; the memoized states (`Cache`) live in a pooled free-list guarded
//! by a `Mutex` held only to pop/push, never during a search, so concurrent
//! batch workers each warm their own cache without contending.

use crate::nfa::{Inst, Program};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum distinct states cached per search cache before eviction.
pub const DEFAULT_STATE_BUDGET: usize = 256;
/// Largest budget a 16-bit transition word can address: ids stay below
/// [`MATCH_BIT`], and the highest one is left out so that no flagged id
/// reads as [`UNKNOWN`].
const MAX_STATE_BUDGET: usize = (1 << 15) - 1;
/// Cache clears tolerated within one search before falling back to PikeVM.
const MAX_CLEARS_PER_SEARCH: u32 = 3;
/// Consecutive searches that fell back before the regex stops trying the DFA
/// entirely.
const HOSTILE_FALLBACK_LIMIT: u32 = 8;
/// Programs larger than this skip the DFA (counted-repetition bombs would
/// churn the state cache for nothing). Also what lets a pc fit in 16 bits.
const MAX_DFA_PROGRAM: usize = 2048;
/// Alphabet-compression cap: more equivalence classes than this and the
/// transition rows stop paying for themselves.
const MAX_CLASSES: usize = 128;
/// Caches kept in the per-regex free list.
const MAX_POOL: usize = 8;

/// Transition-table sentinel: not yet computed. Checked before
/// [`MATCH_BIT`], so the overlap of the two encodings is harmless. The same
/// value marks an empty slot of the state index.
const UNKNOWN: u16 = u16::MAX;
/// The dead state (empty closure) is always state 0.
const DEAD: u16 = 0;
/// Set on a memoized transition whose target state is a match state, so the
/// hot loop learns "matched" from the transition word itself instead of a
/// second dependent load. State ids stay below 2¹⁵ − 1 (the budget is
/// clamped to [`MAX_STATE_BUDGET`]), so the bit is free.
const MATCH_BIT: u16 = 1 << 15;

/// Per-state flags: the state holds a `Match` pc (a match ends at the
/// current position), and its end-of-input verdict once resolved (neither
/// bit set = not yet computed).
const IS_MATCH: u8 = 1;
const EOI_MATCH: u8 = 2;
const EOI_NO_MATCH: u8 = 4;

/// `Any` as a range set: everything except `\n`.
const ANY_RANGES: &[(char, char)] = &[('\0', '\t'), ('\u{b}', char::MAX)];

/// The program's alphabet compressed into equivalence classes.
///
/// The range boundaries of the program cut the code space into intervals
/// inside which no instruction can tell two characters apart; intervals
/// that belong to exactly the same distinct sets are then merged into one
/// class. Testing a class's representative is therefore exact for every
/// character of the class.
struct Alphabet {
    /// Sorted interval boundaries; interval of `c` = number of boundaries
    /// ≤ `c`. `'\0'` is never listed (it opens interval 0), so no interval
    /// is empty.
    boundaries: Vec<char>,
    /// Interval → class.
    interval_class: Vec<u8>,
    /// Dense `char → class` table for ASCII, the common case for titles.
    ascii: [u8; 128],
    /// Lowest character of each class.
    repr: Vec<char>,
}

impl Alphabet {
    /// `None` when the program needs more than [`MAX_CLASSES`] classes.
    fn new(program: &Program) -> Option<Alphabet> {
        let mut sets: Vec<&[(char, char)]> = program
            .insts
            .iter()
            .filter_map(|inst| match inst {
                Inst::Ranges(ranges) => Some(&ranges[..]),
                Inst::Any => Some(ANY_RANGES),
                _ => None,
            })
            .collect();
        sets.sort_unstable();
        sets.dedup();

        let mut boundaries: Vec<char> = Vec::new();
        for &(lo, hi) in sets.iter().copied().flatten() {
            if lo != '\0' {
                boundaries.push(lo);
            }
            if let Some(s) = char_succ(hi) {
                boundaries.push(s);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.shrink_to_fit();
        let interval_of = |c: char| boundaries.partition_point(|&b| b <= c);

        // Partition refinement, driven by the ranges: each set splits the
        // intervals it covers off whatever group they were in so far, so the
        // cost is the number of covered intervals, not intervals × sets.
        let mut group = vec![0u32; boundaries.len() + 1];
        // Per group: the set that last split it, and the group its covered
        // intervals moved to.
        let mut split: Vec<(usize, u32)> = vec![(usize::MAX, 0)];
        for (round, set) in sets.iter().enumerate() {
            for &(lo, hi) in set.iter() {
                for slot in &mut group[interval_of(lo)..=interval_of(hi)] {
                    let old = *slot as usize;
                    if split[old].0 != round {
                        split[old] = (round, split.len() as u32);
                        split.push((usize::MAX, 0));
                    }
                    *slot = split[old].1;
                }
            }
        }

        // Number the surviving groups densely, in order of first interval.
        let mut class_of_group: Vec<Option<u8>> = vec![None; split.len()];
        let mut repr: Vec<char> = Vec::new();
        let mut interval_class = Vec::with_capacity(group.len());
        for (i, &g) in group.iter().enumerate() {
            let class = match class_of_group[g as usize] {
                Some(class) => class,
                None => {
                    if repr.len() == MAX_CLASSES {
                        return None;
                    }
                    let class = repr.len() as u8;
                    class_of_group[g as usize] = Some(class);
                    repr.push(if i == 0 { '\0' } else { boundaries[i - 1] });
                    class
                }
            };
            interval_class.push(class);
        }
        repr.shrink_to_fit();

        let mut ascii = [0u8; 128];
        for (i, slot) in ascii.iter_mut().enumerate() {
            *slot = interval_class[interval_of(i as u8 as char)];
        }
        Some(Alphabet { boundaries, interval_class, ascii, repr })
    }

    fn class_count(&self) -> usize {
        self.repr.len()
    }

    fn class_of(&self, c: char) -> usize {
        if c.is_ascii() {
            self.ascii[c as usize] as usize
        } else {
            self.interval_class[self.boundaries.partition_point(|&b| b <= c)] as usize
        }
    }
}

/// Shared, immutable part of a lazy DFA for one compiled program.
pub struct LazyDfa {
    program: Arc<Program>,
    alphabet: Alphabet,
    /// Every match must start at position 0 (`^` on all paths): no reseeding,
    /// and the dead state is terminal.
    anchored: bool,
    budget: usize,
    /// Single-slot fast path for the pool: one atomic swap per checkout /
    /// checkin in the common one-thread-per-regex case. Rule execution
    /// calls `is_match` once per admitted candidate, so two mutex ops per
    /// call were a measurable fraction of short-title searches.
    stash: AtomicPtr<Cache>,
    /// Boxed so caches move between `stash` (raw pointer) and the overflow
    /// list without reallocating — the Box *is* the stashed allocation.
    #[allow(clippy::vec_box)]
    pool: Mutex<Vec<Box<Cache>>>,
    /// Set after [`HOSTILE_FALLBACK_LIMIT`] searches in a row fell back: this
    /// pattern thrashes the cache, stop burning work before each PikeVM run.
    hostile: AtomicBool,
    /// Fallbacks since the last search that completed.
    streak: AtomicU32,
    /// Fallbacks over the regex's lifetime (diagnostics only).
    fallbacks: AtomicU64,
}

/// Memoized search state: discovered states and their transitions.
#[derive(Default)]
struct Cache {
    /// Arena of state keys, back to back. A key is the sorted closure:
    /// consuming pcs, `Match` pcs, and pending `AssertEnd` pcs (resolved
    /// only at end of input) — all three influence behaviour, so all three
    /// are part of identity. Pcs fit 16 bits under [`MAX_DFA_PROGRAM`].
    key_pcs: Vec<u16>,
    /// State id → start of its key in `key_pcs`, plus one end sentinel.
    key_off: Vec<u32>,
    /// Open-addressed, power-of-two table of state ids hashed over their
    /// arena slices ([`UNKNOWN`] = empty slot), at most half full.
    index: Vec<u16>,
    /// State id → [`IS_MATCH`] and the end-of-input verdict bits.
    flags: Vec<u8>,
    /// Flat `state × class_count` transition table; `UNKNOWN` = unmemoized.
    trans: Vec<u16>,
    /// Start state id (computed with the at-start assertion satisfied).
    start: u16,
}

/// Closure scratch. One per thread rather than one per cache: only cold
/// transitions touch it, and a rule set holds one cache per pattern.
struct Scratch {
    stack: Vec<u32>,
    /// Pc → epoch of its last visit.
    seen: Vec<u32>,
    epoch: u32,
    /// The closure just computed (sorted).
    key_buf: Vec<u16>,
    /// The current state's key, carried across a cache clear.
    reseed: Vec<u16>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            stack: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
            key_buf: Vec::new(),
            reseed: Vec::new(),
        })
    };
}

impl Scratch {
    /// Starts a traversal over a program of `program_len` instructions:
    /// every pc reads as unvisited.
    fn begin(&mut self, program_len: usize) {
        if self.seen.len() < program_len {
            self.seen.resize(program_len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `pc` visited; false when it already was in this traversal.
    fn visit(&mut self, pc: u32) -> bool {
        let slot = &mut self.seen[pc as usize];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }
}

impl Cache {
    fn states(&self) -> usize {
        self.flags.len()
    }

    fn key(&self, sid: u16) -> &[u16] {
        let sid = sid as usize;
        &self.key_pcs[self.key_off[sid] as usize..self.key_off[sid + 1] as usize]
    }

    fn clear(&mut self) {
        self.key_pcs.clear();
        self.key_off.clear();
        self.key_off.push(0);
        self.index.fill(UNKNOWN);
        self.flags.clear();
        self.trans.clear();
    }

    /// The slot of `index` holding the state whose key is `key`, or the
    /// empty slot where it belongs. `index` must not be empty.
    fn slot_of(&self, key: &[u16]) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = hash_key(key) & mask;
        loop {
            let sid = self.index[slot];
            if sid == UNKNOWN || self.key(sid) == key {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn find(&self, key: &[u16]) -> Option<u16> {
        if self.index.is_empty() {
            return None;
        }
        Some(self.index[self.slot_of(key)]).filter(|&sid| sid != UNKNOWN)
    }

    /// Appends a state known to be absent, with an all-`UNKNOWN` row of
    /// `width` transitions. Rows and keys grow by exactly what they need: a
    /// rule set holds one of these per pattern, and doubling leaves a third
    /// of every table empty.
    fn insert(&mut self, key: &[u16], flags: u8, width: usize) -> u16 {
        debug_assert!(self.states() < MAX_STATE_BUDGET, "callers hold the budget");
        let sid = self.states() as u16;
        self.key_pcs.reserve_exact(key.len());
        self.key_pcs.extend_from_slice(key);
        self.key_off.push(self.key_pcs.len() as u32);
        self.flags.push(flags);
        self.trans.reserve_exact(width);
        self.trans.extend(std::iter::repeat_n(UNKNOWN, width));
        if self.states() * 2 > self.index.len() {
            self.index.clear();
            self.index.resize((self.states() * 2).next_power_of_two().max(8), UNKNOWN);
            for other in 0..sid {
                let slot = self.slot_of(self.key(other));
                self.index[slot] = other;
            }
        }
        let slot = self.slot_of(key);
        self.index[slot] = sid;
        sid
    }
}

/// FNV-1a over the pcs, folded so the low bits the mask keeps see all of it.
fn hash_key(key: &[u16]) -> usize {
    let mut h: u32 = 0x811c_9dc5;
    for &pc in key {
        h = (h ^ u32::from(pc)).wrapping_mul(0x0100_0193);
    }
    (h ^ (h >> 15)) as usize
}

impl LazyDfa {
    /// Builds the shared half of a lazy DFA, or `None` when the program is
    /// too large or its alphabet too fragmented to benefit.
    pub fn new(program: Arc<Program>) -> Option<LazyDfa> {
        Self::with_budget(program, DEFAULT_STATE_BUDGET)
    }

    /// Like [`LazyDfa::new`] with an explicit state budget — exposed so the
    /// eviction tests can force a tiny cache. Clamped to what a 16-bit
    /// transition word can address.
    pub fn with_budget(program: Arc<Program>, budget: usize) -> Option<LazyDfa> {
        if program.insts.len() > MAX_DFA_PROGRAM {
            return None;
        }
        let alphabet = Alphabet::new(&program)?;
        let anchored = program.anchored_start;
        Some(LazyDfa {
            program,
            alphabet,
            anchored,
            budget: budget.clamp(8, MAX_STATE_BUDGET),
            stash: AtomicPtr::new(std::ptr::null_mut()),
            pool: Mutex::new(Vec::new()),
            hostile: AtomicBool::new(false),
            streak: AtomicU32::new(0),
            fallbacks: AtomicU64::new(0),
        })
    }

    /// Whether the pattern matches anywhere in `text`.
    ///
    /// `None` means the DFA gave up (cache thrash) and the caller must run
    /// the Pike VM; the answer is never wrong, only occasionally absent.
    pub fn is_match(&self, text: &str) -> Option<bool> {
        if self.hostile.load(Ordering::Relaxed) {
            return None;
        }
        let mut cache = self.checkout();
        let verdict = self.search(&mut cache, text);
        if verdict.is_some() {
            // Load first: the common case must not dirty a shared line.
            if self.streak.load(Ordering::Relaxed) != 0 {
                self.streak.store(0, Ordering::Relaxed);
            }
        } else {
            // Leave a clean cache for the next search; a few more misses in
            // a row and the regex stops trying altogether.
            *cache = Cache::default();
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            if self.streak.fetch_add(1, Ordering::Relaxed) + 1 >= HOSTILE_FALLBACK_LIMIT {
                self.hostile.store(true, Ordering::Relaxed);
            }
        }
        self.checkin(cache);
        verdict
    }

    /// Searches that fell back to the Pike VM over this regex's lifetime
    /// (diagnostics).
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Number of character equivalence classes (transition-row width).
    #[doc(hidden)]
    pub fn class_count(&self) -> usize {
        self.alphabet.class_count()
    }

    /// The class `c` falls into. Exposed for the class-merge property test.
    #[doc(hidden)]
    pub fn class_of(&self, c: char) -> usize {
        self.alphabet.class_of(c)
    }

    /// The character the DFA tests on behalf of every member of `class`.
    #[doc(hidden)]
    pub fn class_representative(&self, class: usize) -> char {
        self.alphabet.repr[class]
    }

    /// The effective state budget (after clamping).
    #[doc(hidden)]
    pub fn state_budget(&self) -> usize {
        self.budget
    }

    fn checkout(&self) -> Box<Cache> {
        // Fast path: claim the stashed cache with one atomic swap. Only when
        // another thread holds it (or on the very first search) fall through
        // to the mutex-guarded overflow list.
        let p = self.stash.swap(std::ptr::null_mut(), Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: a non-null stash pointer was produced by
            // `Box::into_raw` in `checkin`, and the swap transferred sole
            // ownership to this call.
            return unsafe { Box::from_raw(p) };
        }
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop().unwrap_or_default()
    }

    fn checkin(&self, cache: Box<Cache>) {
        let p = Box::into_raw(cache);
        if self
            .stash
            .compare_exchange(std::ptr::null_mut(), p, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        // SAFETY: the exchange failed, so `p` was never published; this call
        // still owns it.
        let cache = unsafe { Box::from_raw(p) };
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < MAX_POOL {
            pool.push(cache);
        }
    }

    fn search(&self, cache: &mut Cache, text: &str) -> Option<bool> {
        if cache.states() == 0 {
            SCRATCH.with_borrow_mut(|scratch| self.reset(cache, scratch));
        }
        let mut clears = 0;
        let mut sid = cache.start;
        if cache.flags[sid as usize] & IS_MATCH != 0 {
            return Some(true);
        }
        let width = self.alphabet.class_count();
        // Byte-wise walk with an ASCII fast path: titles are almost always
        // pure ASCII, and `chars()` decode overhead is measurable when the
        // per-transition work is two array loads. Multi-byte sequences
        // decode exactly one char and skip its full width.
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            let class = if b < 0x80 {
                i += 1;
                self.alphabet.ascii[b as usize] as usize
            } else {
                let c = text[i..].chars().next().expect("non-empty UTF-8 tail");
                i += c.len_utf8();
                self.alphabet.class_of(c)
            };
            debug_assert!(sid as usize * width + class < cache.trans.len());
            // SAFETY: `Cache::insert` grows `trans` by exactly `width` per
            // state, so every state id (including any re-seeded `sid` after
            // a cache clear) indexes a full row; `class` is always < `width`
            // because `ascii` and `interval_class` only hold ids handed out
            // while `repr` (whose length is `width`) grew.
            let mut next = unsafe { *cache.trans.get_unchecked(sid as usize * width + class) };
            if next == UNKNOWN {
                next = SCRATCH.with_borrow_mut(|scratch| {
                    self.compute_transition(cache, scratch, &mut sid, class, &mut clears)
                })?;
            }
            if next & MATCH_BIT != 0 {
                return Some(true);
            }
            // Match transitions returned above, so `next` is a plain id here.
            if next == DEAD && self.anchored {
                return Some(false);
            }
            sid = next;
        }
        Some(self.eoi_match(cache, sid, text.is_empty()))
    }

    /// (Re)initializes a cache: dead state, then the start state (closure of
    /// pc 0 with the start-of-text assertion satisfied).
    fn reset(&self, cache: &mut Cache, scratch: &mut Scratch) {
        cache.clear();
        let dead = self.insert_state(cache, &[]);
        debug_assert_eq!(dead, DEAD);
        // The dead state has no outgoing NFA threads; for anchored programs
        // it is terminal, for unanchored ones its transitions re-seed from
        // pc 0 (computed lazily like any other row).
        scratch.stack.clear();
        scratch.stack.push(0);
        self.closure(scratch, true);
        cache.start = self.insert_state(cache, &scratch.key_buf);
    }

    fn insert_state(&self, cache: &mut Cache, key: &[u16]) -> u16 {
        if let Some(sid) = cache.find(key) {
            return sid;
        }
        let is_match = key.iter().any(|&pc| matches!(self.program.insts[pc as usize], Inst::Match));
        cache.insert(key, if is_match { IS_MATCH } else { 0 }, self.alphabet.class_count())
    }

    /// Computes (and memoizes) the successor of `*sid` on `class`, returned
    /// as a transition word (state id, plus [`MATCH_BIT`] when the successor
    /// is a match state).
    ///
    /// On cache overflow the whole cache is cleared and `*sid` is re-seeded
    /// into the fresh cache (its key survives the clear), which is why the
    /// current state id is passed by reference. Returns `None` when the
    /// search has thrashed the cache too many times.
    fn compute_transition(
        &self,
        cache: &mut Cache,
        scratch: &mut Scratch,
        sid: &mut u16,
        class: usize,
        clears: &mut u32,
    ) -> Option<u16> {
        let width = self.alphabet.class_count();
        let repr = self.alphabet.repr[class];
        loop {
            // Move: advance every consuming pc that accepts this class.
            // Pending `$` pcs and `Match` pcs die on consumption.
            scratch.stack.clear();
            for &pc in cache.key(*sid) {
                let accepts = match &self.program.insts[pc as usize] {
                    Inst::Ranges(ranges) => ranges_contain(ranges, repr),
                    Inst::Any => repr != '\n',
                    _ => false,
                };
                if accepts {
                    scratch.stack.push(u32::from(pc) + 1);
                }
            }
            if !self.anchored {
                // Unanchored search: a fresh attempt starts at every position.
                scratch.stack.push(0);
            }
            self.closure(scratch, false);
            let next = match cache.find(&scratch.key_buf) {
                Some(next) => next,
                None if cache.states() < self.budget => self.insert_state(cache, &scratch.key_buf),
                None => {
                    *clears += 1;
                    if *clears > MAX_CLEARS_PER_SEARCH {
                        return None;
                    }
                    scratch.reseed.clear();
                    scratch.reseed.extend_from_slice(cache.key(*sid));
                    self.reset(cache, scratch);
                    *sid = self.insert_state(cache, &scratch.reseed);
                    // Recompute against the fresh cache (room is now guaranteed).
                    continue;
                }
            };
            let word =
                next | if cache.flags[next as usize] & IS_MATCH != 0 { MATCH_BIT } else { 0 };
            cache.trans[*sid as usize * width + class] = word;
            return Some(word);
        }
    }

    /// Epsilon closure of the pcs on `scratch.stack` into `scratch.key_buf`
    /// (sorted, deduped).
    ///
    /// Consuming pcs and `Match` pcs are collected; `AssertEnd` pcs are kept
    /// *pending* (they resolve only at end of input); `AssertStart` passes
    /// only when `at_start`.
    fn closure(&self, scratch: &mut Scratch, at_start: bool) {
        scratch.begin(self.program.insts.len());
        scratch.key_buf.clear();
        while let Some(pc) = scratch.stack.pop() {
            if !scratch.visit(pc) {
                continue;
            }
            match &self.program.insts[pc as usize] {
                Inst::Jump(to) => scratch.stack.push(*to),
                Inst::Split(a, b) => {
                    scratch.stack.push(*a);
                    scratch.stack.push(*b);
                }
                Inst::Save(_) => scratch.stack.push(pc + 1),
                Inst::AssertStart => {
                    if at_start {
                        scratch.stack.push(pc + 1);
                    }
                }
                Inst::AssertEnd | Inst::Ranges(_) | Inst::Any | Inst::Match => {
                    scratch.key_buf.push(pc as u16)
                }
            }
        }
        scratch.key_buf.sort_unstable();
    }

    /// Resolves a state at end of input: a match already flagged, or a
    /// pending `$` whose continuation reaches `Match` with the end assertion
    /// satisfied. `at_start` is true only for empty input (the start state is
    /// the only state live at position 0), so the cached verdict covers the
    /// common case and empty input is computed fresh.
    fn eoi_match(&self, cache: &mut Cache, sid: u16, at_start: bool) -> bool {
        let flags = cache.flags[sid as usize];
        if flags & IS_MATCH != 0 {
            return true;
        }
        if !at_start && flags & (EOI_MATCH | EOI_NO_MATCH) != 0 {
            return flags & EOI_MATCH != 0;
        }
        let verdict =
            SCRATCH.with_borrow_mut(|scratch| self.eoi_resolves(scratch, cache.key(sid), at_start));
        if !at_start {
            cache.flags[sid as usize] |= if verdict { EOI_MATCH } else { EOI_NO_MATCH };
        }
        verdict
    }

    fn eoi_resolves(&self, scratch: &mut Scratch, key: &[u16], at_start: bool) -> bool {
        scratch.begin(self.program.insts.len());
        scratch.stack.clear();
        for &pc in key {
            if matches!(self.program.insts[pc as usize], Inst::AssertEnd) {
                scratch.stack.push(u32::from(pc) + 1);
            }
        }
        while let Some(pc) = scratch.stack.pop() {
            if !scratch.visit(pc) {
                continue;
            }
            match &self.program.insts[pc as usize] {
                Inst::Match => return true,
                Inst::Jump(to) => scratch.stack.push(*to),
                Inst::Split(a, b) => {
                    scratch.stack.push(*a);
                    scratch.stack.push(*b);
                }
                Inst::Save(_) | Inst::AssertEnd => scratch.stack.push(pc + 1),
                Inst::AssertStart => {
                    if at_start {
                        scratch.stack.push(pc + 1);
                    }
                }
                // No input remains: consuming instructions are dead ends.
                Inst::Ranges(_) | Inst::Any => {}
            }
        }
        false
    }
}

impl Drop for LazyDfa {
    fn drop(&mut self) {
        let p = self.stash.swap(std::ptr::null_mut(), Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: a non-null stash pointer came from `Box::into_raw` and
            // nothing else can claim it after the swap.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// The next code point after `c`, skipping the surrogate gap.
fn char_succ(c: char) -> Option<char> {
    let mut u = c as u32 + 1;
    if u == 0xD800 {
        u = 0xE000;
    }
    char::from_u32(u)
}

fn ranges_contain(ranges: &[(char, char)], c: char) -> bool {
    // Rule classes are tiny (1–4 ranges); linear scan beats binary search.
    if ranges.len() <= 4 {
        return ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
    }
    ranges
        .binary_search_by(|&(lo, hi)| {
            if c < lo {
                std::cmp::Ordering::Greater
            } else if c > hi {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{compile, CompileOptions};
    use crate::parser::parse;
    use crate::pikevm;

    fn dfa_for(pattern: &str) -> (LazyDfa, Arc<Program>) {
        let program =
            Arc::new(compile(&parse(pattern).unwrap(), CompileOptions::default()).unwrap());
        (LazyDfa::new(program.clone()).expect("dfa built"), program)
    }

    fn check(pattern: &str, text: &str) {
        let (dfa, program) = dfa_for(pattern);
        let expected = pikevm::exec(&program, text, 0, true).is_some();
        assert_eq!(dfa.is_match(text), Some(expected), "pattern {pattern:?} on {text:?}");
    }

    #[test]
    fn agrees_with_pikevm_on_basics() {
        for (p, t) in [
            ("ring", "wedding ring set"),
            ("ring", "necklace"),
            ("rings?", "three rings"),
            ("a+b", "aab"),
            ("a+b", "b"),
            ("a|b|c", "zzz"),
            ("a|b|c", "zbz"),
            ("", ""),
            ("", "abc"),
            ("a.c", "a\nc"),
            ("a.c", "axc"),
            ("denim.*jeans?", "blue denim skinny jean"),
            ("denim.*jeans?", "skinny jean denim"),
        ] {
            check(p, t);
        }
    }

    #[test]
    fn anchors_resolve_at_the_right_positions() {
        for (p, t) in [
            ("^ring", "ring first"),
            ("^ring", "a ring"),
            ("ring$", "wedding ring"),
            ("ring$", "ring size"),
            ("^ring$", "ring"),
            ("^ring$", "ring "),
            ("^$", ""),
            ("^$", "x"),
            ("$", "abc"),
            ("a$|b", "cba"),
            ("a$|b", "cab"),
            ("^(a|b)c$", "bc"),
        ] {
            check(p, t);
        }
    }

    #[test]
    fn non_ascii_inputs_and_patterns() {
        for (p, t) in [
            ("café", "un café noir"),
            ("café", "un cafe noir"),
            ("straße", "hauptstraße 7"),
            ("a", "日本語テキスト"),
            ("日本", "日本語テキスト"),
            ("[α-ω]+", "ΑΒΓ αβγ"),
        ] {
            check(p, t);
        }
    }

    #[test]
    fn earliest_exit_still_correct_mid_text() {
        // Match found long before end of text: DFA must stop early with the
        // same verdict.
        let (dfa, program) = dfa_for("ab");
        let text = format!("ab{}", "x".repeat(1000));
        assert_eq!(dfa.is_match(&text), Some(pikevm::exec(&program, &text, 0, true).is_some()));
    }

    #[test]
    fn tiny_budget_evicts_but_stays_correct() {
        // Enough distinct states to overflow a floor-sized budget repeatedly.
        let program = Arc::new(
            compile(&parse("(a|b)(c|d)(e|f)(g|h)(i|j)k").unwrap(), CompileOptions::default())
                .unwrap(),
        );
        let dfa = LazyDfa::with_budget(program.clone(), 1).expect("dfa built");
        for text in ["acegik", "bdfhjk", "aceg", "zzzzzz", "acegika", "xacegik"] {
            let expected = pikevm::exec(&program, text, 0, true).is_some();
            let got = dfa.is_match(text);
            assert!(
                got == Some(expected) || got.is_none(),
                "wrong verdict for {text:?}: {got:?} vs {expected}"
            );
        }
    }

    /// `[ab]*a[ab]{15}$` needs ~2^15 subsets; on aperiodic input a floor-sized
    /// budget thrashes within one search.
    fn thrashing_dfa() -> LazyDfa {
        let program = Arc::new(
            compile(&parse("[ab]*a[ab]{15}$").unwrap(), CompileOptions::default()).unwrap(),
        );
        LazyDfa::with_budget(program, 8).expect("dfa built")
    }

    /// Aperiodic texts over `{a, b}`: periodic text like "abab…" cycles
    /// through a handful of states and never stresses the cache.
    fn aperiodic_texts() -> impl Iterator<Item = String> {
        let mut state = 0x9e3779b97f4a7c15u64;
        std::iter::repeat_with(move || {
            (0..256)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if state >> 63 == 0 {
                        'a'
                    } else {
                        'b'
                    }
                })
                .collect()
        })
    }

    #[test]
    fn hostile_patterns_fall_back_and_then_disable() {
        let dfa = thrashing_dfa();
        let fell_back = aperiodic_texts().take(16).filter(|t| dfa.is_match(t).is_none()).count();
        assert!(fell_back >= 1, "tiny budget on a subset-explosion pattern must fall back");
        assert!(dfa.is_match("anything").is_none(), "hostile pattern disables the DFA");
        assert!(dfa.fallback_count() >= 1);
    }

    #[test]
    fn hostile_latch_counts_a_streak_not_a_lifetime() {
        // A long-lived regex that thrashes now and then, with ordinary
        // searches in between, must stay on the DFA: the latch is for
        // patterns that fall back every time.
        let dfa = thrashing_dfa();
        for text in aperiodic_texts().take(100) {
            assert_eq!(dfa.is_match(&text), None, "budget 8 must thrash on aperiodic input");
            assert_eq!(dfa.is_match("ordinary title"), Some(false));
        }
        assert_eq!(dfa.fallback_count(), 100, "the lifetime total still counts every fallback");
        assert_eq!(dfa.is_match("still on the dfa"), Some(false));
    }

    #[test]
    fn oversized_programs_are_rejected() {
        let program =
            Arc::new(compile(&parse("(?:a{60}){60}").unwrap(), CompileOptions::default()).unwrap());
        assert!(program.insts.len() > MAX_DFA_PROGRAM);
        assert!(LazyDfa::new(program).is_none());
    }

    #[test]
    fn case_insensitive_programs_match_both_cases() {
        let program = Arc::new(
            compile(&parse("wedding band").unwrap(), CompileOptions { case_insensitive: true })
                .unwrap(),
        );
        let dfa = LazyDfa::new(program).unwrap();
        assert_eq!(dfa.is_match("Sterling Silver WEDDING BAND size 7"), Some(true));
        assert_eq!(dfa.is_match("sterling ring"), Some(false));
    }
}
