//! Serving (§2's production setting): a sharded classification service over
//! a live Chimera pipeline. Traffic keeps flowing while an analyst adds a
//! rule; the background refresher hot-swaps the compiled snapshot, so the
//! fix reaches responses without a restart or pause. Overload shows up as
//! explicit `Overloaded` admissions instead of unbounded queues.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use rulekit::chimera::{Chimera, ChimeraConfig};
use rulekit::data::{CatalogGenerator, LabeledCorpus, Taxonomy};
use rulekit::serve::{Admission, ChimeraProvider, RuleService, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let taxonomy = Taxonomy::builtin();
    let mut generator = CatalogGenerator::with_seed(taxonomy.clone(), 17);

    // A trained pipeline with one deliberate gap: sofas have no rule AND no
    // training data, so the service initially declines them.
    let sofas = taxonomy.id_of("sofas").expect("built-in type");
    let mut chimera = Chimera::new(taxonomy.clone(), ChimeraConfig::default());
    let corpus = LabeledCorpus::generate(&mut generator, 4_000).without_types(&[sofas]);
    chimera.train(corpus.items());
    chimera.add_rules("rings? -> rings\nattr(ISBN) -> books\n").expect("rules parse");
    let chimera = Arc::new(chimera);

    // Start the service: 4 shard workers, bounded queues, 100ms deadlines.
    let service = RuleService::start(
        Arc::new(ChimeraProvider::new(chimera.clone())),
        ServeConfig {
            shards: 4,
            default_deadline: Some(Duration::from_millis(100)),
            refresh_interval: Duration::from_millis(10),
            ..Default::default()
        },
    );

    let sofa = generator.generate_for_type(sofas).product;

    let before = service.submit(sofa.clone()).expect_enqueued().wait().expect("served");
    println!(
        "before the rule edit: {:?} (snapshot v{})",
        before.decision.type_id(),
        before.snapshot_version
    );

    // The analyst patches the gap while the service keeps running — no
    // restart, no pause. The refresher notices the repository revision
    // change and hot-swaps a freshly compiled snapshot.
    chimera.add_rules("(sofa|couch|loveseat)s? -> sofas\n").expect("rule parses");

    let started = Instant::now();
    loop {
        let outcome = service.submit(sofa.clone()).expect_enqueued().wait().expect("served");
        if outcome.decision.type_id() == Some(sofas) {
            println!(
                "after the rule edit:  {:?} (snapshot v{}, visible after {:?}, {} swap(s))",
                outcome.decision.type_id(),
                outcome.snapshot_version,
                started.elapsed(),
                service.swap_count()
            );
            break;
        }
        assert!(started.elapsed() < Duration::from_secs(10), "swap never became visible");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Push a burst well past capacity: bounded queues reject instead of
    // buffering unboundedly, and queued requests past their deadline are
    // shed with an explicit outcome.
    let mut handles = Vec::new();
    let mut overloaded = 0usize;
    for i in 0..5_000 {
        let mut p = sofa.clone();
        p.id = i;
        match service.submit(p) {
            Admission::Enqueued(h) => handles.push(h),
            Admission::Overloaded => overloaded += 1,
        }
    }
    let mut served = 0usize;
    let mut shed = 0usize;
    for h in handles {
        match h.wait() {
            Ok(_) => served += 1,
            Err(_) => shed += 1,
        }
    }
    let m = service.service_metrics();
    let degraded = m.degraded_served.value();
    println!("\nburst of 5000: served {served}, shed {shed}, rejected {overloaded}");
    println!(
        "metrics: p50 {:?}, p99 {:?}, degraded {} ({}% of completions), max queue depth {}",
        Duration::from_nanos(m.latency.quantile(0.50)),
        Duration::from_nanos(m.latency.quantile(0.99)),
        degraded,
        (100 * degraded).checked_div(m.completed.value()).unwrap_or(0),
        m.max_queue_depth.value()
    );

    // The same numbers as a Prometheus-style scrape (a few of the ~40 lines).
    println!("\ntext exposition sample:");
    for line in service
        .service_metrics()
        .registry()
        .render_text()
        .lines()
        .filter(|l| l.contains("queue_depth") || l.contains("quantile=\"0.99\""))
    {
        println!("  {line}");
    }
}
