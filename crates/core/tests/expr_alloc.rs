//! Zero-allocation guard for the expression VM's steady state.
//!
//! `Program::eval` promises an allocation-free hot path: the operand stack
//! is a fixed array of `Copy` values, string operands are borrowed from the
//! prepared product or the constant pools, and numeric attribute operands
//! come from the per-product parse cache. This test enforces that promise
//! with a counting global allocator — any future change that sneaks a
//! `to_lowercase`, a `format!`, or a per-call `Vec` into the VM (or into the
//! `PreparedProduct` lookups it leans on) fails here, not in a profile.
//!
//! Regex opcodes (`~`, legacy title patterns) are exercised in the
//! differential and fuzz suites but excluded here: they delegate to the
//! Pike-VM engine, which owns its own thread-list allocations.

use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;
use rulekit_core::expr::compile;
use rulekit_core::{CompareOp, Condition, Dictionary, ExecContext, PreparedProduct};
use rulekit_data::{Product, VendorId};

/// Runs `f` with allocation counting enabled and returns how many heap
/// allocations it performed on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    tally(f).0.allocs
}

fn product(title: &str, attrs: &[(&str, &str)], vendor: u32) -> Product {
    Product {
        id: 0,
        title: title.into(),
        description: String::new(),
        attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        vendor: VendorId(vendor),
    }
}

#[test]
fn vm_eval_is_allocation_free() {
    // Cover every non-regex opcode family: constants, title/vendor/attr
    // loads, arithmetic and negation, all six numeric comparisons plus the
    // epsilon opcode, string (in)equality, dictionary hits, string/number
    // list membership, `has`, `!`, and both short-circuit jumps.
    let sources = [
        "price + 1 * 2 - 3 / 4 >= -5",
        "vendor == 7 && price <= 20",
        "price > 5 || price < 3",
        "price != 0 && !(vendor == 0)",
        r#"category == "rug" || category != "mat""#,
        r#"title == "braided area rug 5x7""#,
        "vendor in [1, 7, 9]",
        r#"category in ["rug", "mat"]"#,
        "has(ISBN) || has(`Brand Name`)",
        "!(price < 20) && vendor >= 0",
    ];
    let mut programs: Vec<_> = sources.iter().map(|s| compile(s).expect(s).program_arc()).collect();
    // The two legacy lowerings with their own opcodes: approximate `=`
    // (EqApprox) and dictionary membership.
    programs.push(
        Condition::NumCompare { attr: "Price".into(), op: CompareOp::Eq, value: 17.99 }.compile(),
    );
    programs.push(
        Condition::InDictionary(Arc::new(Dictionary::new("d", ["braided", "shag"]))).compile(),
    );

    let products = [
        product("Braided Area Rug 5x7", &[("Price", "17.99"), ("Category", "Rug")], 7),
        product("no attrs", &[], 0),
        product("bad price", &[("Price", "n/a"), ("ISBN", "978")], 1),
    ];
    let prepared: Vec<PreparedProduct> = products.iter().map(PreparedProduct::new).collect();

    // Warm-up pass outside the counted region (nothing in eval is lazy, but
    // the guard should only ever fail on steady-state behaviour).
    for prep in &prepared {
        let ctx = ExecContext::new(prep);
        for prog in &programs {
            let _ = prog.eval(&ctx);
        }
    }

    let n = count_allocs(|| {
        for prep in &prepared {
            let ctx = ExecContext::new(prep);
            for _ in 0..100 {
                for prog in &programs {
                    std::hint::black_box(prog.eval(std::hint::black_box(&ctx)));
                }
            }
        }
    });
    assert_eq!(n, 0, "Program::eval allocated {n} times in steady state");
}

#[test]
fn prepared_lookups_are_allocation_free() {
    // The VM's guarantee only holds if the `PreparedProduct` lookups it
    // delegates to are themselves allocation-free per call.
    let p = product("Braided Area Rug", &[("Price", " 19.99 "), ("Brand Name", "Apple")], 3);
    let prep = PreparedProduct::new(&p);
    let n = count_allocs(|| {
        for _ in 0..1000 {
            std::hint::black_box(prep.attr_num("price"));
            std::hint::black_box(prep.attr_num("PRICE"));
            std::hint::black_box(prep.attr_num("missing"));
            std::hint::black_box(prep.attr_value_lower("brand name"));
            std::hint::black_box(prep.title_lower());
        }
    });
    assert_eq!(n, 0, "prepared lookups allocated {n} times");
}
