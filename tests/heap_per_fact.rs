//! A stored fact costs its id row, its share of the hash buckets, and the
//! dictionary entries of the values it brought — nothing more.  A node's
//! memory is mostly its `says` facts and their `sig` rows (paper §3.2), so
//! this binary commits a few thousand of them, shaped as the generated
//! policy stores them (arity 4, and arity 5 with a 20-byte signature), and
//! holds the live heap per stored fact under a ceiling.  It also holds a
//! re-assertion of a stored fact at zero allocations.
//!
//! The binary installs its own counting allocator.  Counts are per thread
//! (the harness's other threads never add to them), and nothing reads a
//! clock, so every figure here repeats exactly from run to run.

use secureblox_datalog::relation::Relation;
use secureblox_datalog::{Value, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: isize, allocations: usize) {
    // `try_with`: a thread being torn down has no counters left to move.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
    let _ = ALLOCATIONS.try_with(|total| total.set(total.get() + allocations));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Facts committed: half `says_link`, half `sig_link`.
const FACTS: usize = 4_000;
/// Facts per transaction, as a node's inbox drains them.
const BATCH: usize = 40;
/// Live heap per stored fact after the commits, measured with this binary
/// on x86-64 Linux, debug and release alike.
const MEASURED_BYTES_PER_FACT: isize = 209;
/// Room above the measurement for allocator and hash-table growth steps on
/// another platform or toolchain.
const HEADROOM_BYTES: isize = 40;

const POLICY: &str = "remote_link(A, B) <- says_link(P, Q, A, B).\n\
                      says_link(P, Q, A, B) -> sig_link(P, Q, A, B, S).";

fn node(i: usize) -> Value {
    Value::str(format!("n{}", i % 20))
}

/// The `k`-th `says_link` fact: four node names, distinct over `k`.
fn says(k: usize) -> Vec<Value> {
    vec![node(k), node(k / 20), node(k / 400), node(k / 8000)]
}

/// The `k`-th `sig_link` fact: the `says` row and a 20-byte signature.
fn sig(k: usize) -> Vec<Value> {
    let mut tuple = says(k);
    let signature: Vec<u8> = (0..20u8)
        .map(|i| (k as u8).wrapping_mul(31).wrapping_add(i) ^ (k >> 8) as u8)
        .collect();
    tuple.push(Value::bytes(signature));
    tuple
}

fn policy_workspace() -> Workspace {
    let mut ws = Workspace::new();
    ws.set_strict_typing(false);
    ws.install_source(POLICY).unwrap();
    ws.fixpoint().unwrap();
    ws
}

#[test]
fn live_heap_per_stored_fact_stays_under_its_ceiling() {
    let mut ws = policy_workspace();
    let before = live_bytes();
    for start in (0..FACTS / 2).step_by(BATCH / 2) {
        let batch = (start..start + BATCH / 2)
            .flat_map(|k| {
                [
                    ("says_link".to_string(), says(k)),
                    ("sig_link".to_string(), sig(k)),
                ]
            })
            .collect();
        ws.transaction(batch).unwrap();
    }
    let stored = ws.total_facts();
    assert_eq!(ws.count("says_link") + ws.count("sig_link"), FACTS);
    let per_fact = (live_bytes() - before) / stored as isize;
    println!("{stored} stored facts, {per_fact} live heap bytes each");
    assert!(
        per_fact <= MEASURED_BYTES_PER_FACT + HEADROOM_BYTES,
        "{per_fact} B per stored fact, ceiling {} B",
        MEASURED_BYTES_PER_FACT + HEADROOM_BYTES
    );
}

#[test]
fn re_asserting_a_stored_fact_allocates_nothing() {
    let mut relation = Relation::new("sig_link", None);
    for k in 0..64 {
        relation.insert(sig(k)).unwrap();
    }
    let tuple = sig(7);
    let before = allocations();
    let (id, new) = relation.insert_new(&tuple).unwrap();
    let newly_asserted = relation.set_asserted(id, true);
    relation.set_asserted(id, true);
    assert_eq!(allocations() - before, 0, "a duplicate insert allocated");
    assert!(!new && newly_asserted);

    // Through the workspace: the relation exists, so neither the predicate
    // name nor the row is copied.
    let mut ws = policy_workspace();
    ws.assert_fact("says_link", says(3)).unwrap();
    ws.assert_fact("sig_link", sig(3)).unwrap();
    for (pred, tuple) in [("says_link", says(3)), ("sig_link", sig(3))] {
        let before = allocations();
        ws.assert_fact(pred, tuple).unwrap();
        assert_eq!(allocations() - before, 0, "re-asserting {pred} allocated");
    }
    assert_eq!(ws.asserted("sig_link"), vec![sig(3)]);
}
