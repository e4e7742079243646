//! Rule execution engine (§4 "Rule Execution and Optimization").
//!
//! "A major challenge … is to scale up the execution of tens of thousands to
//! hundreds of thousands of rules. A possible solution is to index the rules
//! so that given a particular data item, we can quickly locate and execute
//! only a (hopefully) small set of rules … Another solution is to execute
//! the rules in parallel on a cluster of machines."
//!
//! One engine and one oracle:
//!
//! * [`LiteralScanExecutor`] — the engine. Every required literal of every
//!   rule is compiled into one Aho-Corasick automaton; a single scan of the
//!   folded title yields all literal hits, and a rule becomes a candidate
//!   only when *each* of its required-literal disjunctions was hit.
//! * [`NaiveExecutor`] — runs every rule; the differential oracle the engine
//!   is checked against, and E7's baseline.
//!
//! Both serve a [`RuleTable`]: flat arrays of ids, bytecode programs and
//! verdict effects, built from the repository's shared
//! [`RuleEntry`]s. A rule's [`CompiledRule`] (program plus admission key) is
//! derived once per entry and reused by every table that holds the entry, so
//! building a table copies pointers and building the engine is only the
//! literal index: interning the literals, one automaton, flat posting
//! arrays. The `Vec<Rule>` constructors are cold compiles that wrap each rule
//! in a fresh entry first.
//!
//! [`ExecutorKind`] names the two for builders and metric labels. Both share
//! the per-product view: a
//! [`PreparedProduct`](crate::prepared::PreparedProduct) folds the title and
//! attributes once, and the engine's candidate generation runs on an
//! epoch-stamped thread-local scratch, so it allocates nothing per product.
//! Batches fan out over scoped threads with [`map_chunks`](crate::map_chunks)
//! (the "cluster" stand-in).

use crate::expr::{ExecContext, Program};
use crate::prepared::{fold_lower, PreparedProduct};
use crate::repository::RuleEntry;
use crate::rule::{Condition, Rule, RuleAction, RuleId};
use rulekit_data::TypeId;
use rulekit_obs::{Counter, Histogram, Registry};
use rulekit_regex::AhoCorasick;
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// How the literal index admits a rule as a candidate.
#[derive(Debug, Clone)]
pub enum Admission {
    /// When every clause of this required-literal CNF (over the folded
    /// title) has a literal in the title.
    Literals(LiteralCnf),
    /// When the product carries this attribute (name folded).
    Attr(String),
    /// On every product.
    Always,
}

/// A rule's required-literal CNF laid out for the index build: every
/// literal in one text buffer with its hash precomputed, so interning a
/// rule's literals reads one buffer and hashes nothing.
#[derive(Debug, Clone)]
pub struct LiteralCnf {
    text: Box<str>,
    /// `(hash, end offset in text)` per literal; each starts where the
    /// previous one ends.
    literals: Box<[(u64, u32)]>,
    /// End index into `literals` of each clause.
    clause_ends: Box<[u32]>,
}

/// The process-wide keyed hasher literal hashes are computed with.
fn literal_hasher() -> &'static RandomState {
    static HASHER: OnceLock<RandomState> = OnceLock::new();
    HASHER.get_or_init(RandomState::new)
}

impl LiteralCnf {
    fn new(cnf: &[Vec<String>]) -> LiteralCnf {
        // Sized exactly, so the boxed slices below need no reallocation.
        let mut text = String::with_capacity(cnf.iter().flatten().map(String::len).sum());
        let mut literals = Vec::with_capacity(cnf.iter().map(Vec::len).sum());
        let mut clause_ends = Vec::with_capacity(cnf.len());
        for clause in cnf {
            for literal in clause {
                text.push_str(literal);
                literals.push((literal_hasher().hash_one(literal.as_str()), text.len() as u32));
            }
            clause_ends.push(literals.len() as u32);
        }
        LiteralCnf { text: text.into(), literals: literals.into(), clause_ends: clause_ends.into() }
    }

    /// Number of clauses (each must be hit for admission).
    fn clause_count(&self) -> usize {
        self.clause_ends.len()
    }

    /// Every literal of every clause.
    pub fn literals(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.literals.len()).map(|i| self.literal(i).1)
    }

    /// The clauses, each as its `(hash, literal)` pairs.
    fn clauses(&self) -> impl Iterator<Item = impl Iterator<Item = (u64, &str)> + '_> + '_ {
        let mut start = 0;
        self.clause_ends.iter().map(move |&end| {
            let literals = start..end as usize;
            start = end as usize;
            literals.map(|i| self.literal(i))
        })
    }

    fn literal(&self, i: usize) -> (u64, &str) {
        let start = if i == 0 { 0 } else { self.literals[i - 1].1 as usize };
        let (hash, end) = self.literals[i];
        (hash, &self.text[start..end as usize])
    }
}

/// An interning key whose hash was computed ahead of time.
#[derive(PartialEq, Eq)]
struct Prehashed<'a>(u64, &'a str);

impl Hash for Prehashed<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
    }
}

/// Passes a [`Prehashed`] key's hash through unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only prehashed keys are hashed");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// What every executor build needs from a rule, derived from its condition
/// once: the bytecode program the hot path evaluates and the key the literal
/// index admits it by.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The condition compiled to stack bytecode.
    pub program: Arc<Program>,
    /// How the literal index admits the rule.
    pub admission: Admission,
}

impl CompiledRule {
    /// Compiles `condition`. Expression conditions return their
    /// already-shared program (the compile cache makes this an `Arc` clone).
    pub(crate) fn of(condition: &Condition) -> CompiledRule {
        // The unified admission interface: regex, dictionary, conjunction and
        // expression conditions all surface their requirement as one literal
        // CNF; rules without one fall back to their attribute key.
        let cnf = condition.required_literal_cnf();
        let admission = if !cnf.is_empty() {
            Admission::Literals(LiteralCnf::new(&cnf))
        } else if let Some(attr) = condition.attr_key() {
            Admission::Attr(fold_lower(attr).into_owned())
        } else {
            Admission::Always
        };
        CompiledRule { program: condition.compile(), admission }
    }
}

/// What a fired rule contributes to a verdict, copied out of its action so
/// the classifier never reads the rule itself.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect {
    /// Whitelist: the type and the rule's confidence weight.
    Assign(TypeId, f64),
    /// Blacklist.
    Forbid(TypeId),
    /// Restriction; the allowed set is read from the entry
    /// ([`RuleTable::restriction`]), so only restriction rules pay that hop.
    Restrict,
    /// Fact inference, which no classification phase reads.
    Infer,
}

/// The rules one executor serves, laid out flat by table position: the ids
/// and programs the executor evaluates and the effects the
/// [`RuleClassifier`](crate::classifier::RuleClassifier) aggregates. Built
/// from shared entries, so it copies pointers; the executor and the
/// classifier over it read this one table.
pub struct RuleTable {
    ids: Vec<RuleId>,
    programs: Vec<Arc<Program>>,
    effects: Vec<Effect>,
    entries: Vec<Arc<RuleEntry>>,
}

impl RuleTable {
    /// A cold compile: a table over fresh entries for `rules`.
    pub(crate) fn from_rules(rules: Vec<Rule>) -> RuleTable {
        let entries = fresh_entries(rules);
        let (ids, programs, effects) = RuleTable::columns(&entries, |_, _| {});
        RuleTable { ids, programs, effects, entries }
    }

    /// The table's columns for `entries`, filled in one pass that compiles
    /// any entry no earlier build has compiled and shows each compiled form,
    /// with its position, to `visit`.
    fn columns<'e>(
        entries: &'e [Arc<RuleEntry>],
        mut visit: impl FnMut(u32, &'e CompiledRule),
    ) -> (Vec<RuleId>, Vec<Arc<Program>>, Vec<Effect>) {
        let mut ids = Vec::with_capacity(entries.len());
        let mut programs = Vec::with_capacity(entries.len());
        let mut effects = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let rule = entry.rule();
            let compiled = entry.compiled();
            visit(i as u32, compiled);
            ids.push(rule.id);
            programs.push(compiled.program.clone());
            effects.push(match &rule.action {
                RuleAction::Assign(ty) => Effect::Assign(*ty, rule.meta.confidence),
                RuleAction::Forbid(ty) => Effect::Forbid(*ty),
                RuleAction::Restrict(_) => Effect::Restrict,
                RuleAction::Infer(_) => Effect::Infer,
            });
        }
        (ids, programs, effects)
    }

    /// Rules in the table.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table holds no rule.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Rule ids by table position.
    pub fn ids(&self) -> &[RuleId] {
        &self.ids
    }

    /// Compiled programs by table position.
    pub fn programs(&self) -> &[Arc<Program>] {
        &self.programs
    }

    /// The shared entries by table position.
    pub fn entries(&self) -> &[Arc<RuleEntry>] {
        &self.entries
    }

    pub(crate) fn effect(&self, i: u32) -> Effect {
        self.effects[i as usize]
    }

    /// The allowed set of the restriction rule at position `i`.
    pub(crate) fn restriction(&self, i: u32) -> &[TypeId] {
        match &self.entries[i as usize].rule().action {
            RuleAction::Restrict(allowed) => allowed,
            _ => &[],
        }
    }
}

/// Wraps each rule in an entry of its own, for the cold-compile constructors.
fn fresh_entries(rules: Vec<Rule>) -> Vec<Arc<RuleEntry>> {
    rules.into_iter().map(|r| Arc::new(RuleEntry::new(r))).collect()
}

/// Finds the rules that fire on a product.
///
/// Implementors serve a [`RuleTable`] and report fired rules both as table
/// positions (what the classifier aggregates over) and as ids; the
/// convenience entry points are derived. External callers that don't manage a
/// [`PreparedProduct`] can keep calling [`RuleExecutor::matching_rules`]
/// with a raw product — preparation then happens once inside the call.
pub trait RuleExecutor: Send + Sync {
    /// The rules served.
    fn table(&self) -> &RuleTable;

    /// Table positions of all rules whose condition matches the prepared
    /// product, plus how many rules were *considered*.
    fn matching_positions(&self, product: &PreparedProduct<'_>) -> (Vec<u32>, usize);

    /// Ids of all enabled rules whose condition matches the prepared
    /// product, plus how many rules were *considered* (condition-evaluated
    /// or admission-checked) — the metric the indexing experiments report.
    /// One call produces both, so stats collection never pays candidate
    /// generation twice.
    fn matching_rules_with_stats(&self, product: &PreparedProduct<'_>) -> (Vec<RuleId>, usize);

    /// Total rules served.
    fn rule_count(&self) -> usize {
        self.table().len()
    }

    /// Ids of all enabled rules whose condition matches the prepared
    /// product.
    fn matching_rules_prepared(&self, product: &PreparedProduct<'_>) -> Vec<RuleId> {
        self.matching_rules_with_stats(product).0
    }

    /// Ids of all enabled rules whose condition matches `product`.
    fn matching_rules(&self, product: &rulekit_data::Product) -> Vec<RuleId> {
        self.matching_rules_prepared(&PreparedProduct::new(product))
    }

    /// How many rules were considered for `product`.
    fn candidates_considered(&self, product: &rulekit_data::Product) -> usize {
        self.matching_rules_with_stats(&PreparedProduct::new(product)).1
    }
}

/// Hot-path executor instrumentation: per-product candidate-set sizes, fire
/// counts, and (for the literal scan) automaton pattern hits. Recording is
/// wait-free — striped counter adds and one histogram record per product —
/// and the whole block is skipped when an executor carries no metrics, so
/// uninstrumented engines pay one branch.
///
/// The candidate accounting here is *defined* to agree with
/// [`execution_stats`]: both views read the `considered` count off the same
/// [`RuleExecutor::matching_rules_with_stats`] call, which the differential
/// test asserts.
pub struct ExecMetrics {
    /// Per-product candidates-considered distribution.
    pub candidates: Histogram,
    /// Products classified through this executor.
    pub products: Counter,
    /// Total rules fired.
    pub fired: Counter,
    /// Aho-Corasick literal occurrences observed (literal-scan only;
    /// stays 0 for other engines).
    pub automaton_hits: Counter,
}

impl ExecMetrics {
    /// Registers the executor metric family for `kind` in `registry`,
    /// labelled `{executor="<kind>"}` so multiple engines can share one
    /// registry.
    pub fn register(registry: &Registry, kind: ExecutorKind) -> Arc<ExecMetrics> {
        let name = |metric: &str| format!("{metric}{{executor=\"{kind}\"}}");
        Arc::new(ExecMetrics {
            candidates: registry.histogram(&name("rulekit_exec_candidates")),
            products: registry.counter(&name("rulekit_exec_products_total")),
            fired: registry.counter(&name("rulekit_exec_fired_total")),
            automaton_hits: registry.counter(&name("rulekit_exec_automaton_hits_total")),
        })
    }

    /// Metrics attached to no registry (tests, ad-hoc measurement).
    pub fn detached() -> Arc<ExecMetrics> {
        Arc::new(ExecMetrics {
            candidates: Histogram::new(),
            products: Counter::new(),
            fired: Counter::new(),
            automaton_hits: Counter::new(),
        })
    }

    #[inline]
    fn record(&self, considered: usize, fired: usize) {
        self.products.inc();
        self.candidates.record(considered as u64);
        self.fired.add(fired as u64);
    }
}

/// Names the engine and its oracle: the builder tests and experiments use to
/// compile a rule snapshot into either, and the `executor` label on
/// [`ExecMetrics`] series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Evaluate every rule (the differential oracle and E7's baseline).
    Naive,
    /// Aho-Corasick literal scan (the engine).
    #[default]
    LiteralScan,
}

impl ExecutorKind {
    /// Compiles `rules` into an executor of this kind, uninstrumented.
    pub fn build(self, rules: Vec<Rule>) -> Arc<dyn RuleExecutor> {
        self.build_with(rules, None)
    }

    /// Compiles `rules` into an executor of this kind, recording per-product
    /// candidate counts (and automaton hits) into `metrics` when given.
    pub fn build_with(
        self,
        rules: Vec<Rule>,
        metrics: Option<Arc<ExecMetrics>>,
    ) -> Arc<dyn RuleExecutor> {
        match self {
            ExecutorKind::Naive => Arc::new(NaiveExecutor::new(rules).with_metrics(metrics)),
            ExecutorKind::LiteralScan => {
                Arc::new(LiteralScanExecutor::new(rules).with_metrics(metrics))
            }
        }
    }
}

impl fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecutorKind::Naive => "naive",
            ExecutorKind::LiteralScan => "literal-scan",
        })
    }
}

impl FromStr for ExecutorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "naive" => Ok(ExecutorKind::Naive),
            "literal-scan" | "literal" | "aho" => Ok(ExecutorKind::LiteralScan),
            other => Err(format!("unknown executor kind {other:?}")),
        }
    }
}

/// Epoch-stamped per-thread scratch for candidate generation. A mark is
/// "set" when its cell equals the current epoch, so starting a new product
/// is one counter increment instead of re-zeroing `O(rules)` bytes.
#[derive(Default)]
struct Scratch {
    epoch: u32,
    rule_marks: Vec<u32>,
    pattern_marks: Vec<u32>,
    group_marks: Vec<u32>,
    /// Distinct-disjunction hit counts per rule, valid when the paired
    /// epoch cell matches.
    rule_hits: Vec<u32>,
    rule_hits_epoch: Vec<u32>,
    candidates: Vec<u32>,
}

impl Scratch {
    /// Starts a new product: bumps the epoch and sizes the mark tables.
    fn begin(&mut self, rules: usize, patterns: usize, groups: usize) {
        if self.epoch == u32::MAX {
            // Epoch wrap: reset every mark so stale cells can't collide.
            self.rule_marks.iter_mut().for_each(|m| *m = 0);
            self.pattern_marks.iter_mut().for_each(|m| *m = 0);
            self.group_marks.iter_mut().for_each(|m| *m = 0);
            self.rule_hits_epoch.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.rule_marks.len() < rules {
            self.rule_marks.resize(rules, 0);
            self.rule_hits.resize(rules, 0);
            self.rule_hits_epoch.resize(rules, 0);
        }
        if self.pattern_marks.len() < patterns {
            self.pattern_marks.resize(patterns, 0);
        }
        if self.group_marks.len() < groups {
            self.group_marks.resize(groups, 0);
        }
        self.candidates.clear();
    }

    /// Marks rule `i`; true when this is the first sighting this epoch.
    fn mark_rule(&mut self, i: u32) -> bool {
        let cell = &mut self.rule_marks[i as usize];
        (*cell != self.epoch) && {
            *cell = self.epoch;
            true
        }
    }

    fn mark_pattern(&mut self, i: u32) -> bool {
        let cell = &mut self.pattern_marks[i as usize];
        (*cell != self.epoch) && {
            *cell = self.epoch;
            true
        }
    }

    fn mark_group(&mut self, i: u32) -> bool {
        let cell = &mut self.group_marks[i as usize];
        (*cell != self.epoch) && {
            *cell = self.epoch;
            true
        }
    }

    /// Credits one distinct disjunction hit to rule `i`, returning the new
    /// count.
    fn hit_rule(&mut self, i: u32) -> u32 {
        let i = i as usize;
        if self.rule_hits_epoch[i] != self.epoch {
            self.rule_hits_epoch[i] = self.epoch;
            self.rule_hits[i] = 0;
        }
        self.rule_hits[i] += 1;
        self.rule_hits[i]
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Baseline: evaluate every rule on every product.
pub struct NaiveExecutor {
    table: RuleTable,
    metrics: Option<Arc<ExecMetrics>>,
}

impl NaiveExecutor {
    /// Wraps a rule snapshot (a cold compile).
    pub fn new(rules: Vec<Rule>) -> Self {
        NaiveExecutor { table: RuleTable::from_rules(rules), metrics: None }
    }

    /// Attaches (or detaches) hot-path instrumentation.
    pub fn with_metrics(mut self, metrics: Option<Arc<ExecMetrics>>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Every rule whose program holds, each mapped through `out`.
    fn fire<T>(&self, product: &PreparedProduct<'_>, out: impl Fn(u32) -> T) -> (Vec<T>, usize) {
        let ctx = ExecContext::new(product);
        let programs = self.table.programs();
        let fired: Vec<T> = (0..programs.len() as u32)
            .filter(|&i| programs[i as usize].eval(&ctx))
            .map(out)
            .collect();
        if let Some(m) = &self.metrics {
            m.record(programs.len(), fired.len());
        }
        (fired, programs.len())
    }
}

impl RuleExecutor for NaiveExecutor {
    fn table(&self) -> &RuleTable {
        &self.table
    }

    fn matching_positions(&self, product: &PreparedProduct<'_>) -> (Vec<u32>, usize) {
        self.fire(product, |i| i)
    }

    fn matching_rules_with_stats(&self, product: &PreparedProduct<'_>) -> (Vec<RuleId>, usize) {
        let ids = self.table.ids();
        self.fire(product, |i| ids[i as usize])
    }

    fn candidates_considered(&self, _product: &rulekit_data::Product) -> usize {
        self.table.len()
    }
}

/// Aho-Corasick literal-scan executor.
///
/// Build time compiles **every** required literal of every rule into one
/// automaton; each rule records how many of its literal disjunctions
/// ("groups") must be hit. At query time one scan of the folded title
/// reports every literal occurrence; a rule is admitted exactly when all of
/// its groups saw a hit. There are no per-window hash probes and no
/// `contains` re-confirmation — the scan *is* the containment check — and
/// literals of any length, ASCII or not, are indexed alike, so only rules
/// with no required literal and no attribute key are always considered.
pub struct LiteralScanExecutor {
    table: RuleTable,
    /// One automaton over all distinct literals (`None` when no rule
    /// contributes a literal).
    automaton: Option<AhoCorasick>,
    /// pattern id → its disjunction groups, as
    /// `pattern_groups[pattern_start[p]..pattern_start[p + 1]]`.
    pattern_start: Vec<u32>,
    pattern_groups: Vec<u32>,
    /// group id → owning rule position.
    group_rule: Vec<u32>,
    /// rule position → number of distinct groups required (0 = not
    /// literal-admitted).
    required: Vec<u32>,
    /// folded attribute name → rule positions.
    attr_postings: HashMap<String, Vec<u32>>,
    /// Rules that must always be considered.
    always: Vec<u32>,
    metrics: Option<Arc<ExecMetrics>>,
}

impl LiteralScanExecutor {
    /// Builds the literal-scan index over a rule snapshot (a cold compile).
    pub fn new(rules: Vec<Rule>) -> Self {
        LiteralScanExecutor::from_entries(fresh_entries(rules))
    }

    /// Builds the literal-scan index over shared repository entries: the
    /// per-rule work is pointer copies, the rest is the index itself.
    pub fn from_entries(entries: Vec<Arc<RuleEntry>>) -> Self {
        // Literals are interned by `&str` borrowed from the entries' compiled
        // forms, on hashes computed when each rule was compiled; each
        // (pattern, group) credit is recorded flat and laid out by pattern
        // afterwards, so the build allocates per distinct literal (and
        // automaton state), never per rule.
        let mut patterns: Vec<&str> = Vec::new();
        let mut pattern_ids: HashMap<Prehashed, u32, BuildHasherDefault<PassThrough>> =
            HashMap::default();
        let mut credits: Vec<(u32, u32)> = Vec::new();
        let mut group_rule: Vec<u32> = Vec::new();
        let mut required: Vec<u32> = Vec::with_capacity(entries.len());
        let mut attr_postings: HashMap<&str, Vec<u32>> = HashMap::new();
        let mut always: Vec<u32> = Vec::new();

        let (ids, programs, effects) =
            RuleTable::columns(&entries, |i, compiled| match &compiled.admission {
                Admission::Literals(cnf) => {
                    // Every disjunction is a requirement; demanding all of
                    // them makes admission strictly tighter than any single-
                    // disjunction index.
                    required.push(cnf.clause_count() as u32);
                    for disjunction in cnf.clauses() {
                        let gid = group_rule.len() as u32;
                        group_rule.push(i);
                        for (hash, literal) in disjunction {
                            let next = patterns.len() as u32;
                            let pid =
                                *pattern_ids.entry(Prehashed(hash, literal)).or_insert_with(|| {
                                    patterns.push(literal);
                                    next
                                });
                            credits.push((pid, gid));
                        }
                    }
                }
                Admission::Attr(key) => {
                    required.push(0);
                    attr_postings.entry(key).or_default().push(i);
                }
                Admission::Always => {
                    required.push(0);
                    always.push(i);
                }
            });

        // Counting sort of the credits by pattern, stable so each pattern
        // credits its groups in rule order.
        let mut pattern_start = vec![0u32; patterns.len() + 1];
        for &(pid, _) in &credits {
            pattern_start[pid as usize + 1] += 1;
        }
        for p in 0..patterns.len() {
            pattern_start[p + 1] += pattern_start[p];
        }
        let mut cursor = pattern_start.clone();
        let mut pattern_groups = vec![0u32; credits.len()];
        for &(pid, gid) in &credits {
            let slot = &mut cursor[pid as usize];
            pattern_groups[*slot as usize] = gid;
            *slot += 1;
        }

        let automaton = if patterns.is_empty() { None } else { Some(AhoCorasick::new(&patterns)) };
        let attr_postings = attr_postings.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        LiteralScanExecutor {
            table: RuleTable { ids, programs, effects, entries },
            automaton,
            pattern_start,
            pattern_groups,
            group_rule,
            required,
            attr_postings,
            always,
            metrics: None,
        }
    }

    /// Attaches (or detaches) hot-path instrumentation.
    pub fn with_metrics(mut self, metrics: Option<Arc<ExecMetrics>>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Number of automaton states (memory/build diagnostics).
    pub fn automaton_states(&self) -> usize {
        self.automaton.as_ref().map_or(0, AhoCorasick::state_count)
    }

    /// Fills `scratch.candidates` with admitted rule indices, returning how
    /// many literal occurrences the automaton reported (every occurrence,
    /// not just first-per-pattern — the raw scan workload signal).
    fn collect_candidates(&self, product: &PreparedProduct<'_>, scratch: &mut Scratch) -> u64 {
        scratch.begin(self.table.len(), self.pattern_start.len() - 1, self.group_rule.len());
        let mut hits = 0u64;
        for &i in &self.always {
            scratch.mark_rule(i);
            scratch.candidates.push(i);
        }
        if let Some(automaton) = &self.automaton {
            automaton.scan(product.title_lower(), |pid| {
                hits += 1;
                // First occurrence of this literal this product: credit each
                // distinct disjunction group it belongs to; a rule whose
                // every group has been credited becomes a candidate.
                if scratch.mark_pattern(pid) {
                    let (start, end) = (
                        self.pattern_start[pid as usize] as usize,
                        self.pattern_start[pid as usize + 1] as usize,
                    );
                    for &gid in &self.pattern_groups[start..end] {
                        if scratch.mark_group(gid) {
                            let rule = self.group_rule[gid as usize];
                            if scratch.hit_rule(rule) == self.required[rule as usize] {
                                scratch.candidates.push(rule);
                            }
                        }
                    }
                }
            });
        }
        for (name, _) in product.attrs_lower() {
            if let Some(list) = self.attr_postings.get(name) {
                for &i in list {
                    if scratch.mark_rule(i) {
                        scratch.candidates.push(i);
                    }
                }
            }
        }
        hits
    }

    /// Every admitted rule whose program holds, each mapped through `out`.
    fn fire<T>(&self, product: &PreparedProduct<'_>, out: impl Fn(u32) -> T) -> (Vec<T>, usize) {
        with_scratch(|scratch| {
            let hits = self.collect_candidates(product, scratch);
            let considered = scratch.candidates.len();
            let ctx = ExecContext::new(product);
            let programs = self.table.programs();
            let fired: Vec<T> = scratch
                .candidates
                .iter()
                .filter(|&&i| programs[i as usize].eval(&ctx))
                .map(|&i| out(i))
                .collect();
            if let Some(m) = &self.metrics {
                m.record(considered, fired.len());
                m.automaton_hits.add(hits);
            }
            (fired, considered)
        })
    }
}

impl RuleExecutor for LiteralScanExecutor {
    fn table(&self) -> &RuleTable {
        &self.table
    }

    fn matching_positions(&self, product: &PreparedProduct<'_>) -> (Vec<u32>, usize) {
        self.fire(product, |i| i)
    }

    fn matching_rules_with_stats(&self, product: &PreparedProduct<'_>) -> (Vec<RuleId>, usize) {
        let ids = self.table.ids();
        self.fire(product, |i| ids[i as usize])
    }
}

/// Statistics comparing executors on a product set (E7's metric).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutionStats {
    /// Total rules in the engine.
    pub rule_count: usize,
    /// Average rules considered per product.
    pub avg_considered: f64,
    /// Average rules fired per product.
    pub avg_fired: f64,
}

/// Measures consideration/fire rates of `executor` over `products`. Each
/// product is prepared once and candidate generation runs once — the fired
/// set and the considered count come from the same
/// [`RuleExecutor::matching_rules_with_stats`] call.
pub fn execution_stats(
    executor: &dyn RuleExecutor,
    products: &[rulekit_data::Product],
) -> ExecutionStats {
    if products.is_empty() {
        return ExecutionStats { rule_count: executor.rule_count(), ..Default::default() };
    }
    let mut considered = 0usize;
    let mut fired = 0usize;
    for p in products {
        let prepared = PreparedProduct::new(p);
        let (matched, candidates) = executor.matching_rules_with_stats(&prepared);
        considered += candidates;
        fired += matched.len();
    }
    ExecutionStats {
        rule_count: executor.rule_count(),
        avg_considered: considered as f64 / products.len() as f64,
        avg_fired: fired as f64 / products.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::RuleParser;
    use crate::repository::RuleRepository;
    use crate::rule::RuleMeta;
    use rulekit_data::{Product, Taxonomy, VendorId};

    fn rules(lines: &[&str]) -> Vec<Rule> {
        let tax = Taxonomy::builtin();
        let parser = RuleParser::new(tax);
        let repo = RuleRepository::new();
        for line in lines {
            repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
        }
        repo.enabled_snapshot()
    }

    fn product(title: &str, attrs: &[(&str, &str)]) -> Product {
        Product {
            id: 0,
            title: title.into(),
            description: String::new(),
            attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            vendor: VendorId(0),
        }
    }

    const LINES: &[&str] = &[
        "rings? -> rings",
        "diamond.*trio sets? -> rings",
        "(area|oriental|braided) rugs? -> area rugs",
        "laptop (bag|case|sleeve)s? -> NOT laptop computers",
        "attr(ISBN) -> books",
        "value(Brand Name = Apple) -> one of laptop computers; smartphones; tablets",
        r"\w+ oils? -> motor oil",
    ];

    fn agreement_products() -> Vec<Product> {
        vec![
            product("Always & Forever Diamond Accent Ring", &[]),
            product("braided area rug 5'x7'", &[]),
            product("padded laptop sleeve", &[]),
            product("bestselling novel", &[("ISBN", "9781111111111")]),
            product("apple phone", &[("Brand Name", "Apple")]),
            product("quaker state motor oil", &[]),
            product("garden hose", &[]),
        ]
    }

    #[test]
    fn expression_rules_are_literal_scan_admissible() {
        // The acceptance property of the expression tier: an expression
        // rule with an extractable literal joins the automaton like a regex
        // rule — its candidate set is NOT universal.
        let mut lines = LINES.to_vec();
        lines.push("rule: price < 20 && title ~ /braided/ => NOT area rugs");
        let rs = rules(&lines);
        let expr_id = rs.last().unwrap().id;
        let scan = LiteralScanExecutor::new(rs);

        let hit = product("braided area rug", &[("Price", "9.99")]);
        assert!(scan.matching_rules(&hit).contains(&expr_id));
        // Price gate holds even when the literal hits.
        let pricey = product("braided area rug", &[("Price", "99")]);
        assert!(!scan.matching_rules(&pricey).contains(&expr_id));

        // A title without "braided" (or any rule literal) admits no
        // literal-gated rule at all — the expression rule did not fall
        // into the always-considered set.
        let (fired, considered) =
            scan.matching_rules_with_stats(&PreparedProduct::new(&product("garden hose", &[])));
        assert!(fired.is_empty());
        assert_eq!(considered, 0, "expression rule admitted universally");
    }

    #[test]
    fn dictionary_rules_are_literal_scan_admissible() {
        // Dictionary entries form one required disjunction, so dict rules
        // also leave the always-considered set.
        let tax = Taxonomy::builtin();
        let mut parser = RuleParser::new(tax);
        parser
            .register_dictionary(crate::rule::Dictionary::new("pc_words", ["thinkpad", "ideapad"]));
        let repo = RuleRepository::new();
        repo.add(
            parser
                .parse_rule("dict(pc_words) -> one of laptop computers; desktop computers")
                .unwrap(),
            RuleMeta::default(),
        );
        let scan = LiteralScanExecutor::new(repo.enabled_snapshot());
        assert_eq!(scan.matching_rules(&product("Lenovo ThinkPad X1", &[])).len(), 1);
        let (fired, considered) =
            scan.matching_rules_with_stats(&PreparedProduct::new(&product("garden hose", &[])));
        assert!(fired.is_empty());
        assert_eq!(considered, 0, "dict rule should be literal-gated");
    }

    #[test]
    fn literal_scan_agrees_with_naive() {
        let rs = rules(LINES);
        let naive = NaiveExecutor::new(rs.clone());
        let scan = LiteralScanExecutor::new(rs);
        for p in &agreement_products() {
            let mut a = naive.matching_rules(p);
            let mut b = scan.matching_rules(p);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "disagreement on {:?}", p.title);
        }
    }

    #[test]
    fn literal_scan_considers_fewer_rules() {
        let rs = rules(LINES);
        let scan = LiteralScanExecutor::new(rs.clone());
        let naive = NaiveExecutor::new(rs);
        let p = product("garden hose", &[]);
        assert_eq!(naive.candidates_considered(&p), LINES.len());
        assert!(scan.candidates_considered(&p) < 2);
    }

    #[test]
    fn conjunctive_admission_requires_every_disjunction() {
        // `diamond.*trio sets?` requires BOTH "diamond" and "trio set": a
        // title containing just "trio set" is not a candidate.
        let scan = LiteralScanExecutor::new(rules(&["diamond.*trio sets? -> rings"]));
        let p = product("trio set of mixing bowls", &[]);
        assert_eq!(scan.candidates_considered(&p), 0);
        assert!(scan.matching_rules(&p).is_empty());
        assert_eq!(scan.candidates_considered(&product("diamond trio set", &[])), 1);
    }

    #[test]
    fn short_literals_are_indexed_by_literal_scan() {
        // "tv" is two bytes; the automaton indexes it like any other literal.
        let scan = LiteralScanExecutor::new(rules(&["tvs? -> televisions"]));
        let miss = product("garden hose", &[]);
        assert_eq!(scan.candidates_considered(&miss), 0);
        let hit = product("55 inch smart tv", &[]);
        assert_eq!(scan.matching_rules(&hit).len(), 1);
    }

    #[test]
    fn non_ascii_literals_are_indexed_by_literal_scan() {
        let scan = LiteralScanExecutor::new(rules(&["café press(es)? -> coffee makers"]));
        // Regex case folding is ASCII-only, so 'é' stays lowercase here
        // while the ASCII words exercise the fold.
        let hit = product("Bodum Café PRESS 8-cup", &[]);
        assert_eq!(scan.matching_rules(&hit).len(), 1);
        let miss = product("coffee grinder", &[]);
        assert_eq!(scan.candidates_considered(&miss), 0);
    }

    #[test]
    fn unindexable_rules_always_considered() {
        let scan = LiteralScanExecutor::new(rules(&[r"\w+\s+\w+ -> books"]));
        let p = product("zz qq", &[]);
        assert_eq!(scan.candidates_considered(&p), 1);
        assert_eq!(scan.matching_rules(&p).len(), 1);
    }

    #[test]
    fn attribute_indexing() {
        let scan = LiteralScanExecutor::new(rules(&[
            "attr(ISBN) -> books",
            "attr(Screen Size) -> televisions",
        ]));
        let book = product("x", &[("ISBN", "978")]);
        assert_eq!(scan.candidates_considered(&book), 1);
        assert_eq!(scan.matching_rules(&book).len(), 1);
        let neither = product("x", &[("Color", "red")]);
        assert_eq!(scan.candidates_considered(&neither), 0);
    }

    #[test]
    fn executor_kind_builds_engine_and_oracle() {
        let rs = rules(LINES);
        let p = product("diamond ring", &[]);
        let mut fired: Vec<Vec<RuleId>> = Vec::new();
        for kind in [ExecutorKind::Naive, ExecutorKind::LiteralScan] {
            assert_eq!(kind.to_string().parse::<ExecutorKind>().unwrap(), kind);
            let executor = kind.build(rs.clone());
            assert_eq!(executor.rule_count(), rs.len());
            let mut ids = executor.matching_rules(&p);
            ids.sort_unstable();
            fired.push(ids);
        }
        assert_eq!(fired[0], fired[1]);
        assert_eq!(ExecutorKind::default(), ExecutorKind::LiteralScan);
        assert!("warp-drive".parse::<ExecutorKind>().is_err());
    }

    #[test]
    fn scratch_reuse_is_stable_over_many_calls() {
        // The epoch-stamped scratch must give identical answers on the
        // 1,000th call as on the first (stale-mark regression guard).
        let rs = rules(LINES);
        let scan = LiteralScanExecutor::new(rs);
        let products = agreement_products();
        let first: Vec<(Vec<RuleId>, usize)> = products
            .iter()
            .map(|p| scan.matching_rules_with_stats(&PreparedProduct::new(p)))
            .collect();
        for _ in 0..1000 {
            for (p, expected) in products.iter().zip(&first) {
                let got = scan.matching_rules_with_stats(&PreparedProduct::new(p));
                assert_eq!(&got, expected);
            }
        }
    }

    #[test]
    fn execution_stats_shape() {
        let rs = rules(LINES);
        let naive = NaiveExecutor::new(rs.clone());
        let products = vec![product("diamond ring", &[]), product("hose", &[])];
        let sn = execution_stats(&naive, &products);
        let si = execution_stats(&LiteralScanExecutor::new(rs), &products);
        assert_eq!(si.rule_count, sn.rule_count);
        assert!(si.avg_considered < sn.avg_considered);
        assert_eq!(si.avg_fired, sn.avg_fired);
    }

    #[test]
    fn exec_metrics_count_candidates_and_hits() {
        let registry = Registry::new();
        let rs = rules(LINES);
        let products = agreement_products();
        for kind in [ExecutorKind::Naive, ExecutorKind::LiteralScan] {
            let metrics = ExecMetrics::register(&registry, kind);
            let executor = kind.build_with(rs.clone(), Some(metrics.clone()));
            let mut considered_total = 0u64;
            let mut fired_total = 0u64;
            for p in &products {
                let (fired, considered) =
                    executor.matching_rules_with_stats(&PreparedProduct::new(p));
                considered_total += considered as u64;
                fired_total += fired.len() as u64;
            }
            assert_eq!(metrics.products.value(), products.len() as u64, "{kind}");
            assert_eq!(metrics.candidates.count(), products.len() as u64, "{kind}");
            assert_eq!(metrics.candidates.sum(), considered_total, "{kind}");
            assert_eq!(metrics.fired.value(), fired_total, "{kind}");
            match kind {
                ExecutorKind::LiteralScan => {
                    assert!(metrics.automaton_hits.value() > 0, "titles contain rule literals")
                }
                ExecutorKind::Naive => assert_eq!(metrics.automaton_hits.value(), 0),
            }
        }
        // Registering the same kind twice shares the underlying metric.
        let again = ExecMetrics::register(&registry, ExecutorKind::Naive);
        assert_eq!(again.products.value(), products.len() as u64);
        // Uninstrumented build records nothing anywhere.
        let before = registry.snapshot();
        ExecutorKind::LiteralScan.build(rs).matching_rules(&products[0]);
        assert_eq!(registry.snapshot(), before);
    }

    #[test]
    fn case_insensitive_index_lookup() {
        let scan = LiteralScanExecutor::new(rules(&["rings? -> rings"]));
        assert_eq!(scan.matching_rules(&product("DIAMOND RING", &[])).len(), 1);
    }
}
