//! Workspace-level value interning: the dictionary behind columnar storage.
//!
//! Every [`Value`] that enters a relation is encoded once into a dense `u32`
//! id.  Relations then store column-major id vectors, membership and index
//! maps key on 64-bit FNV hashes of id projections, and the equality checks
//! on the join hot path become integer compares.  `Value`s are rehydrated
//! only at the boundaries — UDF calls, non-interned comparisons, head
//! construction for new tuples, and the codec/signing layer, which must keep
//! seeing real `Value`s so wire bytes and Merkle roots are unchanged.
//!
//! The dictionary is append-only: ids are never reused or remapped, so a
//! transaction snapshot (a `Relation::clone`) can share the same `Arc`'d
//! interner as the live workspace — a rollback merely leaves a few unused
//! ids behind.  Because the mapping `Value -> id` is injective, id equality
//! is value equality for any two rows encoded against the *same* interner
//! (the batch executor checks `Arc::ptr_eq` before joining in id space).
//!
//! Threading contract: one workspace evaluates on one thread, so id
//! assignment order is a pure function of that workspace's operation
//! sequence.  The dictionary is nevertheless `Sync` (a read-write lock):
//! workspace clones share it through the `Arc`, and the reactor executor
//! moves workspaces between threads, so a reader (`try_id`, `try_row`,
//! `value`, `resolve_row`) on one thread can meet an `intern` on another.
//! Readers never observe a half-written entry, and an id once handed out
//! never changes meaning.

use crate::value::{Tuple, Value};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over raw bytes, used for every integer-keyed map in the storage
/// layer (fast on short keys, no per-map random state to re-seed on clone).
pub struct Fnv64Hasher(u64);

impl Default for Fnv64Hasher {
    fn default() -> Self {
        Fnv64Hasher(FNV_OFFSET)
    }
}

impl Hasher for Fnv64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// Hasher for maps whose keys are *already* 64-bit hashes (the id-projection
/// keys of membership and index maps): passes the key through unchanged.
#[derive(Default)]
pub struct PassHasher(u64);

impl Hasher for PassHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached via non-u64 key types; fold bytes FNV-style.
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

/// Build-hasher aliases for the storage layer's integer-keyed maps.
pub type FnvBuild = BuildHasherDefault<Fnv64Hasher>;
pub type PassBuild = BuildHasherDefault<PassHasher>;

// The crate's only map and set types (DESIGN.md §10.1).  Every map of the
// engine — relations by name, deltas, the journal, the plan cache, the UDF
// registry — hashes with FNV-1a: no per-map random state, so iteration order
// is a function of the input, and no SipHash on the per-commit path.  `clippy.toml` disallows the `RandomState` defaults, so
// these aliases carry the crate's only `#[allow]`.

/// A map hashed with [`FnvBuild`].
#[allow(clippy::disallowed_types)]
pub type FnvMap<K, V> = std::collections::HashMap<K, V, FnvBuild>;

/// A set hashed with [`FnvBuild`].
#[allow(clippy::disallowed_types)]
pub type FnvSet<T> = std::collections::HashSet<T, FnvBuild>;

/// A map whose `u64` keys are already hashes ([`fnv_ids`] projections):
/// [`PassBuild`] hands the key through.
#[allow(clippy::disallowed_types)]
pub type PassMap<V> = std::collections::HashMap<u64, V, PassBuild>;

/// FNV-1a over a seed and a sequence of interned ids.  All row, key, and
/// projection hashes in [`crate::relation`] go through this one function so
/// a probe hashes exactly like the insert that built the bucket.
pub fn fnv_ids(seed: u64, ids: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in seed.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    for id in ids {
        for byte in id.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

#[derive(Debug, Default)]
struct InternerState {
    /// id -> value (dense, append-only).
    values: Vec<Value>,
    /// value -> id.
    ids: FnvMap<Value, u32>,
}

/// The append-only value dictionary shared by every relation of a workspace.
#[derive(Debug, Default)]
pub struct Interner {
    inner: RwLock<InternerState>,
}

impl Interner {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Interner::default()
    }

    // The interner stays usable even if a thread panicked while holding a
    // guard: an entry is pushed and mapped under one write guard, nothing
    // in between can panic short of allocation failure, so poisoning
    // carries no information here.
    fn read(&self) -> RwLockReadGuard<'_, InternerState> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, InternerState> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.read().values.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encode `value`, assigning the next dense id on first sight.
    pub fn intern(&self, value: &Value) -> u32 {
        if let Some(id) = self.try_id(value) {
            return id;
        }
        let mut state = self.write();
        if let Some(&id) = state.ids.get(value) {
            return id;
        }
        let id = u32::try_from(state.values.len()).expect("interner id space exhausted");
        state.values.push(value.clone());
        state.ids.insert(value.clone(), id);
        id
    }

    /// The id of `value` if it has been interned; never inserts.  A `None`
    /// means the value occurs in *no* relation sharing this dictionary, so
    /// probes can treat it as a definitive miss.
    pub fn try_id(&self, value: &Value) -> Option<u32> {
        self.read().ids.get(value).copied()
    }

    /// Encode a whole row into `out`, which is as long as `values`: one
    /// read lock when every value is known, one write lock otherwise.
    pub fn intern_ids(&self, values: &[Value], out: &mut [u32]) {
        debug_assert_eq!(values.len(), out.len());
        if self.try_ids(values, out) {
            return;
        }
        let mut state = self.write();
        for (value, slot) in values.iter().zip(out) {
            *slot = match state.ids.get(value) {
                Some(&id) => id,
                None => {
                    let id =
                        u32::try_from(state.values.len()).expect("interner id space exhausted");
                    state.values.push(value.clone());
                    state.ids.insert(value.clone(), id);
                    id
                }
            };
        }
    }

    /// Encode a row without inserting; `false` (with `out` cleared) when any
    /// value is unknown — i.e. the row cannot exist in any sharing relation.
    pub fn try_row(&self, values: &[Value], out: &mut Vec<u32>) -> bool {
        out.clear();
        out.resize(values.len(), 0);
        let known = self.try_ids(values, out);
        if !known {
            out.clear();
        }
        known
    }

    /// [`Interner::try_row`] into `out`, which is as long as `values`; on
    /// `false` its contents are unspecified.  An empty `values` — the key
    /// of a zero-key functional lookup such as a singleton read — takes no
    /// lock.
    pub fn try_ids(&self, values: &[Value], out: &mut [u32]) -> bool {
        debug_assert_eq!(values.len(), out.len());
        if values.is_empty() {
            return true;
        }
        let state = self.read();
        for (value, slot) in values.iter().zip(out) {
            match state.ids.get(value) {
                Some(&id) => *slot = id,
                None => return false,
            }
        }
        true
    }

    /// Rehydrate one id.
    pub fn value(&self, id: u32) -> Value {
        self.read().values[id as usize].clone()
    }

    /// The dictionary under one read guard, for a caller that compares or
    /// binds several values of a stored row without copying them.  Nothing
    /// may take this dictionary's lock while the guard is held: a writer
    /// queued on another thread would deadlock the second read.
    pub fn values(&self) -> Values<'_> {
        Values(self.read())
    }

    /// Rehydrate a row of ids into a fresh tuple under one lock.
    pub fn resolve_row(&self, ids: &[u32]) -> Tuple {
        let state = self.read();
        ids.iter()
            .map(|&id| state.values[id as usize].clone())
            .collect()
    }
}

/// A read guard over the dictionary ([`Interner::values`]).
pub struct Values<'a>(RwLockReadGuard<'a, InternerState>);

impl Values<'_> {
    /// The value behind `id`, borrowed.
    pub fn get(&self, id: u32) -> &Value {
        &self.0.values[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_injective() {
        let interner = Interner::new();
        let a = interner.intern(&Value::Int(7));
        let b = interner.intern(&Value::str("seven"));
        assert_ne!(a, b);
        assert_eq!(interner.intern(&Value::Int(7)), a);
        assert_eq!(interner.try_id(&Value::str("seven")), Some(b));
        assert_eq!(interner.try_id(&Value::Int(8)), None);
        assert_eq!(interner.value(a), Value::Int(7));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn row_round_trip() {
        let interner = Interner::new();
        let row = vec![Value::Int(1), Value::str("x"), Value::Bool(true)];
        let mut ids = vec![0; 3];
        interner.intern_ids(&row, &mut ids);
        assert_eq!(interner.resolve_row(&ids), row);
        let mut probe = Vec::new();
        assert!(interner.try_row(&row, &mut probe));
        assert_eq!(probe, ids);
        assert!(!interner.try_row(&[Value::Int(99)], &mut probe));
        assert!(probe.is_empty());
    }

    #[test]
    fn fnv_ids_depends_on_seed_order_and_content() {
        assert_eq!(fnv_ids(2, [1, 2, 3]), fnv_ids(2, [1, 2, 3]));
        assert_ne!(fnv_ids(2, [1, 2, 3]), fnv_ids(2, [3, 2, 1]));
        assert_ne!(fnv_ids(2, [1, 2, 3]), fnv_ids(3, [1, 2, 3]));
        assert_ne!(fnv_ids(0, []), fnv_ids(1, []));
    }

    #[test]
    fn concurrent_readers_while_interning() {
        let interner = std::sync::Arc::new(Interner::new());
        for i in 0..64 {
            interner.intern(&Value::Int(i));
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let interner = std::sync::Arc::clone(&interner);
                scope.spawn(move || {
                    for i in 0..64 {
                        assert!(interner.try_id(&Value::Int(i)).is_some());
                    }
                });
            }
        });
    }
}
