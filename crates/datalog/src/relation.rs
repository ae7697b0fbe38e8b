//! Interned, columnar relation storage with functional-dependency
//! enforcement and lazily-built, incrementally-maintained secondary indexes.
//!
//! Every value is encoded to a dense `u32` id by the workspace's shared
//! [`Interner`] at insert time, and the id row is the only form a tuple is
//! stored in.  Tuples of the same arity live in one [`ColumnGroup`] whose
//! `arity` parallel `Vec<u32>` columns the batch executor scans directly.
//! Membership, the functional-dependency index, and every secondary index
//! key on 64-bit FNV hashes of id projections ([`fnv_ids`]) — equality and
//! hashing on the hot path are integer ops, and index maintenance projects
//! id rows instead of cloning `Value`s per probe.  Bucket candidates are
//! verified against the exact id projection before they are returned, so a
//! hash collision can never surface a wrong tuple.  A bucket of one id holds
//! it inline ([`Bucket`]); only a shared hash allocates.
//!
//! `Value`s are rehydrated from the dictionary at the boundaries that need
//! them — [`Relation::iter`], [`Relation::tuple`], [`Relation::select`],
//! [`Relation::remove_id`], [`Relation::functional_lookup`] — so the codec,
//! signing and Merkle commitments see exactly the values that went in, and
//! dictionary ids never leak out of the storage layer.  The tuple-at-a-time
//! join reads a stored candidate in place through [`Relation::row`].
//!
//! Beside its id row a tuple carries one *asserted* bit: whether it was
//! stated as an extensional fact, so a retraction never deletes it for lack
//! of a derivation.  The bit lives with the slot; freeing the slot clears
//! it, so a recycled [`TupleId`] starts unasserted.
//!
//! A tuple's [`TupleId`] is stable for its lifetime; removed slots are
//! recycled.  Secondary indexes are built on demand (the planner requests
//! the signatures its probes need via [`Relation::ensure_index`]) and
//! maintained incrementally, so delta application and deletion see a consistent
//! view at all times.
//!
//! Concurrency contract: a workspace — and with it every one of its
//! relations — is evaluated by one thread at a time (DESIGN.md §8); there
//! are no evaluation workers.  A `Relation` is still `Send + Sync`, and every
//! read path ([`Relation::probe`], [`Relation::iter`], [`Relation::select`],
//! [`Relation::matches_any`], [`Relation::functional_lookup`],
//! [`Relation::row`], [`Relation::group`]) takes `&self`, because
//! the reactor executor moves a node's workspace between its threads from
//! one task to the next.  All mutation — inserts, removals, asserted bits,
//! and [`Relation::ensure_index`] builds — takes `&mut self`.

use crate::error::{DatalogError, Result};
use crate::intern::{fnv_ids, FnvMap, Interner, PassMap};
use crate::value::{Tuple, Value};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Stable identifier of a tuple inside one relation.
pub type TupleId = u32;

/// A workspace's relations by predicate name.
pub type Relations = FnvMap<String, Relation>;

/// A bound-column signature: bit `i` set means column `i` is part of the
/// index key.  Relations wider than 64 columns are never indexed — the
/// planner's `probe_signature` falls back to scans for them (see
/// [`column_set`]).
pub type ColumnSet = u64;

/// Build a [`ColumnSet`] from column positions.
///
/// Positions ≥ 64 cannot be represented.  In debug builds this asserts —
/// silently dropping a position would build a *wrong* (too-coarse) index
/// key for a wide predicate.  In release builds the position is ignored,
/// which is safe for every in-tree caller because the planner's
/// `probe_signature` already refuses to plan probes on predicates wider
/// than 64 columns (they fall back to full scans).
pub fn column_set(columns: impl IntoIterator<Item = usize>) -> ColumnSet {
    let mut set = 0u64;
    for column in columns {
        debug_assert!(
            column < 64,
            "column position {column} does not fit a ColumnSet; \
             predicates wider than 64 columns must fall back to scans"
        );
        if column < 64 {
            set |= 1 << column;
        }
    }
    set
}

/// The ids whose key hashes to one value of a membership or index map.
/// Nearly every key has one, held inline; a second spills to a `Vec`, and
/// removal back down to one folds it inline again.  Ids keep the order they
/// were added in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bucket {
    One(TupleId),
    Many(Vec<TupleId>),
}

impl Bucket {
    /// The ids, in the order they were added.
    pub fn as_slice(&self) -> &[TupleId] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    /// Add `id` to `hash`'s bucket of `map`.
    fn add(map: &mut PassMap<Bucket>, hash: u64, id: TupleId) {
        match map.entry(hash) {
            Entry::Vacant(entry) => {
                entry.insert(Bucket::One(id));
            }
            Entry::Occupied(mut entry) => match entry.get_mut() {
                Bucket::One(first) => {
                    let first = *first;
                    entry.insert(Bucket::Many(vec![first, id]));
                }
                Bucket::Many(ids) => ids.push(id),
            },
        }
    }

    /// Take `id` out of `hash`'s bucket of `map`, dropping an emptied one.
    fn remove(map: &mut PassMap<Bucket>, hash: u64, id: TupleId) {
        let Some(bucket) = map.get_mut(&hash) else {
            return;
        };
        match bucket {
            Bucket::One(only) => {
                if *only == id {
                    map.remove(&hash);
                }
            }
            Bucket::Many(ids) => {
                ids.retain(|&candidate| candidate != id);
                match ids[..] {
                    [] => {
                        map.remove(&hash);
                    }
                    [last] => *bucket = Bucket::One(last),
                    _ => {}
                }
            }
        }
    }
}

/// Sentinel group marking a recycled slot.
const FREE_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Position of the tuple's [`ColumnGroup`] in `Relation::groups`, or
    /// [`FREE_SLOT`].
    group: u32,
    /// Row position inside that group.
    row: u32,
}

/// Column-major storage for all live tuples of one arity: `arity` parallel
/// id columns plus a back-pointer from each row to its stable [`TupleId`].
/// This is what the batch executor scans.
#[derive(Debug, Clone, Default)]
pub struct ColumnGroup {
    arity: usize,
    cols: Vec<Vec<u32>>,
    ids: Vec<TupleId>,
}

impl ColumnGroup {
    fn new(arity: usize) -> Self {
        ColumnGroup {
            arity,
            cols: (0..arity).map(|_| Vec::new()).collect(),
            ids: Vec::new(),
        }
    }

    /// The arity shared by every row of this group.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live rows.
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    /// The id column at position `col`.
    pub fn col(&self, col: usize) -> &[u32] {
        &self.cols[col]
    }

    /// Back-pointers: `tuple_ids()[row]` is the [`TupleId`] of row `row`.
    pub fn tuple_ids(&self) -> &[TupleId] {
        &self.ids
    }

    fn push(&mut self, ids: &[u32], tuple_id: TupleId) -> u32 {
        debug_assert_eq!(ids.len(), self.arity);
        for (col, &id) in self.cols.iter_mut().zip(ids) {
            col.push(id);
        }
        self.ids.push(tuple_id);
        (self.ids.len() - 1) as u32
    }

    /// Remove `row` by swapping the last row into its place; returns the
    /// [`TupleId`] of the moved row (if any) so the caller can fix its slot.
    fn swap_remove(&mut self, row: u32) -> Option<TupleId> {
        let row = row as usize;
        for col in &mut self.cols {
            col.swap_remove(row);
        }
        self.ids.swap_remove(row);
        self.ids.get(row).copied()
    }
}

/// One stored tuple read in place: its id row inside its column group.
#[derive(Debug, Clone, Copy)]
pub struct StoredRow<'r> {
    group: &'r ColumnGroup,
    row: usize,
}

impl StoredRow<'_> {
    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.group.arity
    }

    /// The dictionary id at column `col`.
    pub fn id(&self, col: usize) -> u32 {
        self.group.cols[col][self.row]
    }
}

/// An id row encoded on the stack for the common arities, on the heap past
/// them: a lookup or a duplicate insert allocates nothing.
#[derive(Default)]
struct IdBuf {
    stack: [u32; IdBuf::SHORT],
    heap: Vec<u32>,
}

impl IdBuf {
    const SHORT: usize = 8;

    fn slice(&mut self, len: usize) -> &mut [u32] {
        if len <= Self::SHORT {
            &mut self.stack[..len]
        } else {
            self.heap.resize(len, 0);
            &mut self.heap
        }
    }

    /// `values` as ids, `None` when one is in no relation sharing
    /// `interner` (so no stored row can hold it).
    fn known(&mut self, interner: &Interner, values: &[Value]) -> Option<&[u32]> {
        let out = self.slice(values.len());
        interner.try_ids(values, out).then_some(&*out)
    }

    /// `values` as ids, interning the new ones.
    fn interned(&mut self, interner: &Interner, values: &[Value]) -> &[u32] {
        let out = self.slice(values.len());
        interner.intern_ids(values, out);
        out
    }
}

/// A stored relation: the extension of one predicate inside a workspace.
#[derive(Debug)]
pub struct Relation {
    name: String,
    /// `Some(k)` if the predicate is functional with `k` key columns (the
    /// remaining single column is the dependent value).
    key_arity: Option<usize>,
    /// The value dictionary (shared workspace-wide via `Arc`).
    interner: Arc<Interner>,
    /// Per-tuple location: column group + row inside it, indexed by
    /// [`TupleId`].
    slots: Vec<Slot>,
    /// The asserted bit of every slot, 64 to a word.
    asserted: Vec<u64>,
    /// Recyclable slots.
    free: Vec<TupleId>,
    /// Live tuple count.
    len: usize,
    /// Column-major id storage, one group per arity (linear scan: a
    /// relation in practice holds one or two arities).
    groups: Vec<ColumnGroup>,
    /// Membership: hash of (arity, id row) → candidate ids.
    live: PassMap<Bucket>,
    /// Functional predicates: hash of the key-id prefix → candidate ids.
    fd_index: PassMap<Bucket>,
    /// Secondary indexes: signature → (hash of id projection → ids).
    indexes: FnvMap<ColumnSet, PassMap<Bucket>>,
}

impl Default for Relation {
    fn default() -> Self {
        Relation::new("", None)
    }
}

/// Cloning preserves [`TupleId`]s and asserted bits, shares the interner,
/// and drops the secondary indexes: they are rebuildable caches, and a copy
/// (a `Workspace::clone` taken as a test oracle or a what-if analysis)
/// should not pay for copying them.  All other state is integer vectors and
/// integer-keyed maps, so a clone is a flat copy — no value is rehashed.
impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            key_arity: self.key_arity,
            interner: Arc::clone(&self.interner),
            slots: self.slots.clone(),
            asserted: self.asserted.clone(),
            free: self.free.clone(),
            len: self.len,
            groups: self.groups.clone(),
            live: self.live.clone(),
            fd_index: self.fd_index.clone(),
            indexes: FnvMap::default(),
        }
    }
}

impl Relation {
    /// Create an empty relation with a private dictionary.  Inside a
    /// workspace use [`Relation::with_interner`] so every relation shares
    /// one dictionary and the batch executor can join in id space.
    pub fn new(name: impl Into<String>, key_arity: Option<usize>) -> Self {
        Relation::with_interner(name, key_arity, Arc::new(Interner::new()))
    }

    /// Create an empty relation sharing `interner`.
    pub fn with_interner(
        name: impl Into<String>,
        key_arity: Option<usize>,
        interner: Arc<Interner>,
    ) -> Self {
        Relation {
            name: name.into(),
            key_arity,
            interner,
            slots: Vec::new(),
            asserted: Vec::new(),
            free: Vec::new(),
            len: 0,
            groups: Vec::new(),
            live: PassMap::default(),
            fd_index: PassMap::default(),
            indexes: FnvMap::default(),
        }
    }

    /// The relation (predicate) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional key arity, if the predicate is functional.
    pub fn key_arity(&self) -> Option<usize> {
        self.key_arity
    }

    /// The value dictionary this relation encodes against.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column group for `arity`, if any tuple of that arity was ever
    /// inserted.  Rows removed from a group leave it in place (possibly
    /// empty).
    pub fn group(&self, arity: usize) -> Option<&ColumnGroup> {
        self.groups.iter().find(|group| group.arity == arity)
    }

    /// The position of the column group for `arity`, created on first use.
    /// Groups are never removed short of [`Relation::clear`], so a position
    /// stays valid.
    fn group_position(&mut self, arity: usize) -> usize {
        match self.groups.iter().position(|group| group.arity == arity) {
            Some(position) => position,
            None => {
                self.groups.push(ColumnGroup::new(arity));
                self.groups.len() - 1
            }
        }
    }

    /// The live tuple `id`, read in place.  Only ids obtained from this
    /// relation against its current state are meaningful.
    pub fn row(&self, id: TupleId) -> StoredRow<'_> {
        let slot = self.slots[id as usize];
        debug_assert_ne!(slot.group, FREE_SLOT);
        StoredRow {
            group: &self.groups[slot.group as usize],
            row: slot.row as usize,
        }
    }

    /// The id at column `col` of the live tuple `id`, or `None` when the
    /// tuple is shorter.
    fn row_id_at(&self, id: TupleId, col: usize) -> Option<u32> {
        let row = self.row(id);
        (col < row.arity()).then(|| row.id(col))
    }

    /// Gather the full id row of live tuple `id` into `out` (cleared first).
    pub fn row_ids(&self, id: TupleId, out: &mut Vec<u32>) {
        let row = self.row(id);
        out.clear();
        out.extend((0..row.arity()).map(|col| row.id(col)));
    }

    /// The live tuple `id` as values, rehydrated from the dictionary.
    pub fn tuple(&self, id: TupleId) -> Tuple {
        let row = self.row(id);
        let values = self.interner.values();
        (0..row.arity())
            .map(|col| values.get(row.id(col)).clone())
            .collect()
    }

    fn row_hash(ids: &[u32]) -> u64 {
        fnv_ids(ids.len() as u64, ids.iter().copied())
    }

    /// Find the live tuple whose id row equals `ids`, verifying candidates.
    fn find_live(&self, ids: &[u32]) -> Option<TupleId> {
        let bucket = self.live.get(&Self::row_hash(ids))?;
        bucket
            .as_slice()
            .iter()
            .copied()
            .find(|&candidate| self.id_row_equals(candidate, ids))
    }

    fn id_row_equals(&self, id: TupleId, ids: &[u32]) -> bool {
        let row = self.row(id);
        row.arity() == ids.len()
            && ids
                .iter()
                .enumerate()
                .all(|(col, &want)| row.id(col) == want)
    }

    fn fd_hash(key_ids: &[u32]) -> u64 {
        // Seeded differently from row_hash so a functional predicate's key
        // and a full row never collide structurally.
        fnv_ids(0x5d, key_ids.iter().copied())
    }

    /// Find the functional row whose key-id prefix equals `key_ids`.
    fn find_fd(&self, key_ids: &[u32]) -> Option<TupleId> {
        let bucket = self.fd_index.get(&Self::fd_hash(key_ids))?;
        bucket.as_slice().iter().copied().find(|&candidate| {
            key_ids
                .iter()
                .enumerate()
                .all(|(col, &want)| self.row_id_at(candidate, col) == Some(want))
        })
    }

    /// Hash of the projection of `ids` onto `cols`, or `None` when the row
    /// is too short to have every indexed column — such a row can never
    /// match a probe of that signature and is excluded from the index.
    fn project_hash(ids: &[u32], cols: ColumnSet) -> Option<u64> {
        if cols == 0 {
            return None;
        }
        let highest = 63 - cols.leading_zeros() as usize;
        if highest >= ids.len() {
            return None;
        }
        let mut mask = cols;
        Some(fnv_ids(
            cols,
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let position = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                Some(ids[position])
            }),
        ))
    }

    /// True when live tuple `id` projects onto `cols` exactly as `key_ids`.
    pub(crate) fn projection_matches(&self, id: TupleId, cols: ColumnSet, key_ids: &[u32]) -> bool {
        let mut mask = cols;
        for &want in key_ids {
            if mask == 0 {
                return false;
            }
            let position = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.row_id_at(id, position) != Some(want) {
                return false;
            }
        }
        mask == 0
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.find(tuple).is_some()
    }

    /// The [`TupleId`] of `tuple`, if it is stored.
    pub fn find(&self, tuple: &[Value]) -> Option<TupleId> {
        let mut buf = IdBuf::default();
        self.find_live(buf.known(&self.interner, tuple)?)
    }

    /// The [`TupleId`] of the stored row whose dictionary ids are `ids`
    /// (which must come from this relation's own interner), if there is
    /// one: membership in id space, for callers that hold an interned row.
    pub fn find_row(&self, ids: &[u32]) -> Option<TupleId> {
        self.find_live(ids)
    }

    /// Every stored [`TupleId`] in group order — a deterministic function of
    /// the operation sequence applied to the relation.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.groups
            .iter()
            .flat_map(|group| group.ids.iter().copied())
    }

    /// Every stored tuple, rehydrated, in the order of [`Relation::ids`].
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.ids().map(|id| self.tuple(id))
    }

    /// All tuples in a deterministic order (sorted by the total value order),
    /// for stable output and tests.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.iter().collect();
        out.sort_by(|a, b| crate::value::tuple_total_cmp(a, b));
        out
    }

    /// Insert a tuple.
    ///
    /// Returns `Ok(true)` if the tuple is new, `Ok(false)` if it was already
    /// present, and a [`DatalogError::FunctionalDependency`] error if the
    /// predicate is functional and the key already maps to a different value.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.insert_new(&tuple).map(|(_, new)| new)
    }

    /// [`Relation::insert`] for a caller that keeps the tuple and wants its
    /// row: the tuple's [`TupleId`] and whether this call stored it.  A
    /// duplicate allocates nothing.
    pub fn insert_new(&mut self, tuple: &[Value]) -> Result<(TupleId, bool)> {
        let mut buf = IdBuf::default();
        let ids = buf.interned(&self.interner, tuple);
        self.insert_ids(ids)
    }

    /// Insert a pre-encoded id row (the batch executor's insert path; the
    /// ids must come from this relation's own interner).  Identical
    /// semantics to [`Relation::insert_new`].
    pub fn insert_ids(&mut self, ids: &[u32]) -> Result<(TupleId, bool)> {
        Ok(match self.stored_as(ids)? {
            Some(id) => (id, false),
            None => (self.insert_row(ids), true),
        })
    }

    /// Shared admission check: `Ok(Some(id))` = already stored as `id`,
    /// `Ok(None)` = insert may proceed, `Err` = functional-dependency
    /// violation.
    fn stored_as(&self, ids: &[u32]) -> Result<Option<TupleId>> {
        let Some(key_arity) = self.key_arity else {
            return Ok(self.find_live(ids));
        };
        if ids.len() != key_arity + 1 {
            return Err(DatalogError::Eval(format!(
                "functional predicate {} expects {} columns, got {}",
                self.name,
                key_arity + 1,
                ids.len()
            )));
        }
        // A live duplicate always has a matching fd entry, so missing one
        // means the row is new.
        let Some(existing) = self.find_fd(&ids[..key_arity]) else {
            debug_assert!(self.find_live(ids).is_none());
            return Ok(None);
        };
        let existing_value = self.row(existing).id(key_arity);
        if existing_value == ids[key_arity] {
            return Ok(Some(existing));
        }
        Err(DatalogError::FunctionalDependency {
            predicate: self.name.clone(),
            key: self.interner.resolve_row(&ids[..key_arity]),
            existing: vec![self.interner.value(existing_value)],
            attempted: vec![self.interner.value(ids[key_arity])],
        })
    }

    fn insert_row(&mut self, ids: &[u32]) -> TupleId {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                group: FREE_SLOT,
                row: 0,
            });
            if self.slots.len() > self.asserted.len() * 64 {
                self.asserted.push(0);
            }
            (self.slots.len() - 1) as TupleId
        });
        let group = self.group_position(ids.len());
        let row = self.groups[group].push(ids, id);
        self.slots[id as usize] = Slot {
            group: group as u32,
            row,
        };
        Bucket::add(&mut self.live, Self::row_hash(ids), id);
        if let Some(key_arity) = self.key_arity {
            Bucket::add(&mut self.fd_index, Self::fd_hash(&ids[..key_arity]), id);
        }
        for (&cols, index) in &mut self.indexes {
            if let Some(hash) = Self::project_hash(ids, cols) {
                Bucket::add(index, hash, id);
            }
        }
        self.len += 1;
        id
    }

    /// Whether the live tuple `id` is asserted.
    pub fn is_asserted(&self, id: TupleId) -> bool {
        self.asserted[id as usize / 64] & (1 << (id % 64)) != 0
    }

    /// Set or clear the asserted bit of the live tuple `id`; `true` when
    /// that changed it.
    pub fn set_asserted(&mut self, id: TupleId, asserted: bool) -> bool {
        debug_assert_ne!(self.slots[id as usize].group, FREE_SLOT);
        let word = &mut self.asserted[id as usize / 64];
        let bit = 1 << (id % 64);
        let was = *word & bit != 0;
        if asserted {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        was != asserted
    }

    /// Every slot whose asserted bit is set, in id order.  Only live tuples
    /// are ever asserted: a freed slot has its bit cleared.
    pub fn asserted_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.asserted
            .iter()
            .enumerate()
            .flat_map(|(word_index, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(word_index as TupleId * 64 + bit)
                })
            })
    }

    /// Whether slot `id` holds a tuple (it may be free, awaiting reuse).
    pub fn is_live(&self, id: TupleId) -> bool {
        self.slots
            .get(id as usize)
            .is_some_and(|slot| slot.group != FREE_SLOT)
    }

    /// Insert a tuple for a functional predicate, replacing any existing
    /// value for the same key (used by aggregation recomputation, where a
    /// better aggregate legitimately supersedes the previous one).
    pub fn insert_or_replace(&mut self, tuple: Tuple) -> Result<bool> {
        self.insert_or_replace_returning(&tuple)
            .map(|(inserted, _)| inserted)
    }

    /// [`Relation::insert_or_replace`], also returning the displaced tuple
    /// with its asserted bit (if any) so callers keeping an undo journal can
    /// restore both on rollback.  The displaced row's bit goes with it.
    pub fn insert_or_replace_returning(
        &mut self,
        tuple: &[Value],
    ) -> Result<(bool, Option<(Tuple, bool)>)> {
        let mut displaced = None;
        if let Some(key_arity) = self.key_arity {
            if tuple.len() == key_arity + 1 {
                let mut buf = IdBuf::default();
                let existing = buf
                    .known(&self.interner, &tuple[..key_arity])
                    .and_then(|key_ids| self.find_fd(key_ids));
                if let Some(existing) = existing {
                    let value = self.row(existing).id(key_arity);
                    if self.interner.try_id(&tuple[key_arity]) == Some(value) {
                        return Ok((false, None));
                    }
                    let asserted = self.is_asserted(existing);
                    displaced = Some((self.remove_id(existing), asserted));
                }
            }
        }
        self.insert_new(tuple)
            .map(|(_, inserted)| (inserted, displaced))
    }

    /// Remove a tuple, returning whether it was present.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        let Some(id) = self.find(tuple) else {
            return false;
        };
        self.remove_slot(id);
        true
    }

    /// Remove the live tuple `id` and hand its row back, rehydrated.  The
    /// ids of the other live tuples do not change; `id` is recycled by a
    /// later insert.
    pub fn remove_id(&mut self, id: TupleId) -> Tuple {
        let tuple = self.tuple(id);
        self.remove_slot(id);
        tuple
    }

    fn remove_slot(&mut self, id: TupleId) {
        let mut buf = IdBuf::default();
        let ids = {
            let row = self.row(id);
            let out = buf.slice(row.arity());
            for (col, slot) in out.iter_mut().enumerate() {
                *slot = row.id(col);
            }
            &*out
        };
        Bucket::remove(&mut self.live, Self::row_hash(ids), id);
        if let Some(key_arity) = self.key_arity {
            if ids.len() == key_arity + 1 {
                Bucket::remove(&mut self.fd_index, Self::fd_hash(&ids[..key_arity]), id);
            }
        }
        for (&cols, index) in &mut self.indexes {
            if let Some(hash) = Self::project_hash(ids, cols) {
                Bucket::remove(index, hash, id);
            }
        }
        let slot = self.slots[id as usize];
        if let Some(moved) = self.groups[slot.group as usize].swap_remove(slot.row) {
            self.slots[moved as usize].row = slot.row;
        }
        self.set_asserted(id, false);
        self.slots[id as usize] = Slot {
            group: FREE_SLOT,
            row: 0,
        };
        self.free.push(id);
        self.len -= 1;
    }

    /// Remove all tuples (and drop every index).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.asserted.clear();
        self.free.clear();
        self.len = 0;
        self.groups.clear();
        self.live.clear();
        self.fd_index.clear();
        self.indexes.clear();
    }

    /// Look up the dependent value for `key` in a functional predicate.
    pub fn functional_lookup(&self, key: &[Value]) -> Option<Value> {
        let id = self.functional_find(key)?;
        let row = self.row(id);
        Some(self.interner.value(row.id(row.arity() - 1)))
    }

    /// The [`TupleId`] of the functional row keyed by `key`, if any.
    pub fn functional_find(&self, key: &[Value]) -> Option<TupleId> {
        let key_arity = self.key_arity?;
        if key.len() != key_arity {
            return None;
        }
        let mut buf = IdBuf::default();
        self.find_fd(buf.known(&self.interner, key)?)
    }

    /// [`Relation::functional_find`] by the key's dictionary ids (which must
    /// come from this relation's own interner).
    pub fn find_key(&self, key_ids: &[u32]) -> Option<TupleId> {
        if self.key_arity? != key_ids.len() {
            return None;
        }
        self.find_fd(key_ids)
    }

    /// Build the secondary index for `cols` if it does not exist yet.
    /// Returns `true` when an index was actually built.
    pub fn ensure_index(&mut self, cols: ColumnSet) -> bool {
        if cols == 0 || self.indexes.contains_key(&cols) {
            return false;
        }
        let mut index: PassMap<Bucket> = PassMap::default();
        let mut ids = Vec::new();
        for group in &self.groups {
            for row in 0..group.rows() {
                ids.clear();
                ids.extend(group.cols.iter().map(|col| col[row]));
                if let Some(hash) = Self::project_hash(&ids, cols) {
                    Bucket::add(&mut index, hash, group.ids[row]);
                }
            }
        }
        self.indexes.insert(cols, index);
        true
    }

    /// True if an index exists for `cols`.
    pub fn has_index(&self, cols: ColumnSet) -> bool {
        self.indexes.contains_key(&cols)
    }

    /// Number of secondary indexes currently maintained.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Probe the `cols` index for tuples whose projection equals `key`.
    /// Returns `None` when no such index exists (caller falls back to a
    /// scan); `Some(empty)` when the index exists but nothing matches.
    /// Candidates are verified, so the result is exact.
    pub fn probe(&self, cols: ColumnSet, key: &[Value]) -> Option<Vec<TupleId>> {
        let index = self.indexes.get(&cols)?;
        let mut buf = IdBuf::default();
        // A key value in no relation sharing the dictionary is a definitive
        // miss.
        let Some(key_ids) = buf.known(&self.interner, key) else {
            return Some(Vec::new());
        };
        let hash = fnv_ids(cols, key_ids.iter().copied());
        let Some(bucket) = index.get(&hash) else {
            return Some(Vec::new());
        };
        Some(
            bucket
                .as_slice()
                .iter()
                .copied()
                .filter(|&id| self.projection_matches(id, cols, key_ids))
                .collect(),
        )
    }

    /// Probe the `cols` index with a pre-encoded id key.  Returns the raw
    /// bucket: candidates whose projection hash matches.  The batch
    /// executor verifies every constrained column against the candidate's
    /// id row anyway, which subsumes collision filtering — callers that do
    /// not must use [`Relation::probe`].
    pub fn probe_ids(&self, cols: ColumnSet, key_ids: &[u32]) -> Option<&[TupleId]> {
        let index = self.indexes.get(&cols)?;
        let hash = fnv_ids(cols, key_ids.iter().copied());
        Some(index.get(&hash).map_or(&[], Bucket::as_slice))
    }

    /// The secondary index for `cols` as its raw projection-hash map, for
    /// probe loops that resolve the index once per batch step and look up
    /// many precomputed [`fnv_ids`] hashes against it.  Buckets are
    /// collision-unfiltered — callers must re-verify candidates.
    pub fn index_map(&self, cols: ColumnSet) -> Option<&PassMap<Bucket>> {
        self.indexes.get(&cols)
    }

    /// The bound-column signature of a partial binding pattern, or 0 when
    /// the pattern is too wide to index (scan fallback).
    fn pattern_cols(pattern: &[Option<Value>]) -> ColumnSet {
        if pattern.len() > 64 {
            return 0;
        }
        column_set(
            pattern
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(i, _)| i),
        )
    }

    /// The stored ids matching a partial binding pattern, read in id space:
    /// `pattern[i] = Some(v)` requires column `i` to equal `v`.  Candidates
    /// come from an exact-signature secondary index when one exists, from
    /// the pattern's arity group otherwise; none when some bound value is in
    /// no relation sharing the dictionary.
    fn pattern_ids(&self, pattern: &[Option<Value>]) -> impl Iterator<Item = TupleId> + '_ {
        let mut want: Vec<Option<u32>> = Vec::with_capacity(pattern.len());
        let mut known = true;
        for value in pattern {
            let id = value.as_ref().map(|value| self.interner.try_id(value));
            known &= id != Some(None);
            want.push(id.flatten());
        }
        let cols = Self::pattern_cols(pattern);
        let candidates: &[TupleId] = if !known {
            &[]
        } else if let Some(index) = self.indexes.get(&cols) {
            let hash = fnv_ids(cols, want.iter().flatten().copied());
            index.get(&hash).map_or(&[], Bucket::as_slice)
        } else {
            self.group(pattern.len())
                .map_or(&[], ColumnGroup::tuple_ids)
        };
        candidates.iter().copied().filter(move |&id| {
            let row = self.row(id);
            row.arity() == want.len()
                && want
                    .iter()
                    .enumerate()
                    .all(|(col, want)| want.is_none_or(|want| row.id(col) == want))
        })
    }

    /// Tuples matching a partial binding pattern: `pattern[i] = Some(v)`
    /// requires column `i` to equal `v`.  Uses an exact-signature secondary
    /// index when one exists.
    pub fn select(&self, pattern: &[Option<Value>]) -> Vec<Tuple> {
        self.pattern_ids(pattern).map(|id| self.tuple(id)).collect()
    }

    /// True if at least one tuple matches the partial binding pattern.
    pub fn matches_any(&self, pattern: &[Option<Value>]) -> bool {
        // Fully ground: membership on the primary map, no index needed.
        if !pattern.is_empty() && pattern.iter().all(Option::is_some) {
            let tuple: Tuple = pattern.iter().flatten().cloned().collect();
            return self.contains(&tuple);
        }
        self.pattern_ids(pattern).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: &[i64]) -> Tuple {
        values.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn insert_dedup_and_len() {
        let mut rel = Relation::new("link", None);
        assert!(rel.insert(t(&[1, 2])).unwrap());
        assert!(!rel.insert(t(&[1, 2])).unwrap());
        assert!(rel.insert(t(&[2, 3])).unwrap());
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&t(&[1, 2])));
        assert!(!rel.contains(&t(&[3, 1])));
    }

    #[test]
    fn functional_dependency_enforced() {
        let mut rel = Relation::new("bestcost", Some(2));
        rel.insert(t(&[1, 2, 5])).unwrap();
        assert!(!rel.insert(t(&[1, 2, 5])).unwrap());
        let err = rel.insert(t(&[1, 2, 7])).unwrap_err();
        assert!(matches!(err, DatalogError::FunctionalDependency { .. }));
        // Different key is fine.
        rel.insert(t(&[1, 3, 7])).unwrap();
        assert_eq!(rel.functional_lookup(&t(&[1, 2])), Some(Value::Int(5)));
    }

    #[test]
    fn insert_or_replace_updates_value() {
        let mut rel = Relation::new("bestcost", Some(2));
        rel.insert(t(&[1, 2, 5])).unwrap();
        assert!(rel.insert_or_replace(t(&[1, 2, 3])).unwrap());
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.functional_lookup(&t(&[1, 2])), Some(Value::Int(3)));
        assert!(!rel.contains(&t(&[1, 2, 5])));
        assert!(!rel.insert_or_replace(t(&[1, 2, 3])).unwrap());
    }

    #[test]
    fn singleton_value_access() {
        // A singleton's value is the functional lookup of the empty key.
        let mut rel = Relation::new("self", Some(0));
        assert!(rel.functional_lookup(&[]).is_none());
        rel.insert(vec![Value::str("n1")]).unwrap();
        assert_eq!(rel.functional_lookup(&[]), Some(Value::str("n1")));
        // Any other relation has no value under the empty key.
        let mut rel2 = Relation::new("link", None);
        rel2.insert(vec![Value::str("n1")]).unwrap();
        assert!(rel2.functional_lookup(&[]).is_none());
        let rel3 = Relation::new("cost", Some(1));
        assert!(rel3.functional_lookup(&[]).is_none());
    }

    #[test]
    fn remove_maintains_fd_index() {
        let mut rel = Relation::new("m", Some(1));
        rel.insert(t(&[1, 10])).unwrap();
        assert!(rel.remove(&t(&[1, 10])));
        assert!(!rel.remove(&t(&[1, 10])));
        // After removal the key can be remapped without a violation.
        rel.insert(t(&[1, 20])).unwrap();
        assert_eq!(rel.functional_lookup(&t(&[1])), Some(Value::Int(20)));
    }

    #[test]
    fn select_filters_by_pattern() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        let matches = rel.select(&[Some(Value::Int(1)), None]);
        assert_eq!(matches.len(), 2);
        let matches = rel.select(&[None, Some(Value::Int(3))]);
        assert_eq!(matches.len(), 2);
        let matches = rel.select(&[None, None]);
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut rel = Relation::new("edge", None);
        rel.insert(t(&[3, 1])).unwrap();
        rel.insert(t(&[1, 2])).unwrap();
        rel.insert(t(&[1, 1])).unwrap();
        assert_eq!(rel.sorted(), vec![t(&[1, 1]), t(&[1, 2]), t(&[3, 1])]);
    }

    #[test]
    fn arity_mismatch_rejected_for_functional() {
        let mut rel = Relation::new("f", Some(1));
        assert!(rel.insert(t(&[1])).is_err());
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3), (4, 1)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        let cols = column_set([0]);
        assert!(rel.probe(cols, &t(&[1])).is_none(), "no index yet");
        assert!(rel.ensure_index(cols));
        assert!(!rel.ensure_index(cols), "second ensure is a no-op");
        let ids = rel.probe(cols, &t(&[1])).unwrap();
        let mut probed: Vec<Tuple> = ids.iter().map(|&id| rel.tuple(id)).collect();
        probed.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(probed, vec![t(&[1, 2]), t(&[1, 3])]);
        assert_eq!(rel.probe(cols, &t(&[9])).unwrap().len(), 0);
    }

    #[test]
    fn index_maintained_across_insert_and_remove() {
        let mut rel = Relation::new("edge", None);
        let cols = column_set([1]);
        rel.ensure_index(cols);
        rel.insert(t(&[1, 2])).unwrap();
        rel.insert(t(&[3, 2])).unwrap();
        assert_eq!(rel.probe(cols, &t(&[2])).unwrap().len(), 2);
        assert!(rel.remove(&t(&[1, 2])));
        assert_eq!(rel.probe(cols, &t(&[2])).unwrap().len(), 1);
        // Recycled slot gets indexed correctly.
        rel.insert(t(&[5, 2])).unwrap();
        let ids = rel.probe(cols, &t(&[2])).unwrap();
        let mut values: Vec<Tuple> = ids.iter().map(|&id| rel.tuple(id)).collect();
        values.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(values, vec![t(&[3, 2]), t(&[5, 2])]);
        rel.clear();
        assert_eq!(rel.index_count(), 0);
        assert!(rel.is_empty());
    }

    #[test]
    fn select_and_matches_any_use_index_when_present() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        rel.ensure_index(column_set([0]));
        assert_eq!(rel.select(&[Some(Value::Int(1)), None]).len(), 2);
        assert!(rel.matches_any(&[Some(Value::Int(2)), None]));
        assert!(!rel.matches_any(&[Some(Value::Int(9)), None]));
        // Mixed-arity tuples never match a different pattern arity.
        rel.insert(t(&[1, 2, 3])).unwrap();
        assert_eq!(rel.select(&[Some(Value::Int(1)), None]).len(), 2);
    }

    #[test]
    fn clone_drops_indexes_but_keeps_tuples() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        rel.ensure_index(column_set([0]));
        let cloned = rel.clone();
        assert_eq!(cloned.len(), 2);
        assert_eq!(cloned.index_count(), 0);
        assert!(cloned.contains(&t(&[1, 2])));
        assert_eq!(cloned.sorted(), rel.sorted());
        // The dictionary is shared, so id-space ops agree across clones.
        assert!(Arc::ptr_eq(rel.interner(), cloned.interner()));
    }

    #[test]
    fn column_groups_expose_interned_columns() {
        let mut rel = Relation::new("edge", None);
        rel.insert(t(&[1, 2])).unwrap();
        rel.insert(t(&[1, 3])).unwrap();
        rel.insert(vec![Value::Int(9)]).unwrap();
        let group = rel.group(2).unwrap();
        assert_eq!(group.arity(), 2);
        assert_eq!(group.rows(), 2);
        // Column 0 holds the same interned id twice (both tuples start 1).
        assert_eq!(group.col(0)[0], group.col(0)[1]);
        assert_ne!(group.col(1)[0], group.col(1)[1]);
        // Back-pointers round-trip through the boundary rows.
        for (row, &id) in group.tuple_ids().iter().enumerate() {
            let mut ids = Vec::new();
            rel.row_ids(id, &mut ids);
            assert_eq!(ids, vec![group.col(0)[row], group.col(1)[row]]);
            assert_eq!(rel.tuple(id).len(), 2);
        }
        assert_eq!(rel.group(1).unwrap().rows(), 1);
        assert!(rel.group(3).is_none());
    }

    #[test]
    fn insert_ids_matches_value_insert() {
        let interner = Arc::new(Interner::new());
        let mut rel = Relation::with_interner("edge", None, Arc::clone(&interner));
        let mut ids = vec![0; 2];
        interner.intern_ids(&t(&[4, 5]), &mut ids);
        assert!(rel.insert_ids(&ids).unwrap().1);
        assert!(!rel.insert_ids(&ids).unwrap().1, "id insert dedups");
        assert!(!rel.insert(t(&[4, 5])).unwrap(), "value insert sees it");
        assert!(rel.contains(&t(&[4, 5])));
        assert_eq!(rel.sorted(), vec![t(&[4, 5])]);
        // Functional semantics are enforced on the id path too.
        let mut frel = Relation::with_interner("f", Some(1), Arc::clone(&interner));
        let mut row = vec![0; 2];
        interner.intern_ids(&t(&[1, 10]), &mut row);
        assert!(frel.insert_ids(&row).unwrap().1);
        interner.intern_ids(&t(&[1, 11]), &mut row);
        assert!(frel.insert_ids(&row).is_err());
    }

    #[test]
    fn probe_ids_returns_raw_candidates() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        let cols = column_set([0]);
        assert!(rel.probe_ids(cols, &[0]).is_none(), "no index yet");
        rel.ensure_index(cols);
        let one = rel.interner().try_id(&Value::Int(1)).unwrap();
        let candidates = rel.probe_ids(cols, &[one]).unwrap();
        assert_eq!(candidates.len(), 2);
        for &id in candidates {
            assert_eq!(rel.tuple(id)[0], Value::Int(1));
        }
    }

    #[test]
    fn relation_is_shareable_across_worker_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Relation>();
        // Concurrent read-only probe views over one relation.
        let mut rel = Relation::new("edge", None);
        let cols = column_set([0]);
        for i in 0..64 {
            rel.insert(t(&[i % 8, i])).unwrap();
        }
        rel.ensure_index(cols);
        let total: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let rel = &rel;
                    scope.spawn(move || rel.probe(cols, &t(&[k])).map_or(0, |ids| ids.len()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 4 * 8);
    }

    #[test]
    fn a_bucket_holds_one_id_inline_and_keeps_insertion_order() {
        assert_eq!(
            std::mem::size_of::<Bucket>(),
            std::mem::size_of::<Vec<TupleId>>(),
            "the inline id fits beside the vector's niche"
        );
        let mut map: PassMap<Bucket> = PassMap::default();
        Bucket::add(&mut map, 7, 1);
        assert_eq!(map[&7], Bucket::One(1));
        Bucket::add(&mut map, 7, 2);
        Bucket::add(&mut map, 7, 3);
        assert_eq!(map[&7].as_slice(), &[1, 2, 3]);
        Bucket::remove(&mut map, 7, 2);
        assert_eq!(map[&7].as_slice(), &[1, 3]);
        Bucket::remove(&mut map, 7, 1);
        assert_eq!(
            map[&7],
            Bucket::One(3),
            "a bucket back down to one folds inline"
        );
        Bucket::remove(&mut map, 7, 9);
        assert_eq!(
            map[&7],
            Bucket::One(3),
            "removing an absent id changes nothing"
        );
        Bucket::remove(&mut map, 7, 3);
        assert!(map.is_empty());
        // Distinct rows land in distinct buckets: none of them allocates.
        let mut rel = Relation::new("edge", None);
        rel.ensure_index(column_set([1]));
        for i in 0..32 {
            rel.insert(t(&[i, i + 100])).unwrap();
        }
        let inline = |map: &PassMap<Bucket>| map.values().all(|b| matches!(b, Bucket::One(_)));
        assert!(inline(&rel.live));
        assert!(inline(&rel.indexes[&column_set([1])]));
    }

    #[test]
    fn freeing_a_slot_clears_its_asserted_bit() {
        let mut rel = Relation::new("edge", None);
        let (first, new) = rel.insert_new(&t(&[1, 2])).unwrap();
        assert!(new && !rel.is_asserted(first));
        assert!(rel.set_asserted(first, true));
        assert!(!rel.set_asserted(first, true), "already asserted");
        let (other, _) = rel.insert_new(&t(&[3, 4])).unwrap();
        assert_eq!(rel.asserted_ids().collect::<Vec<_>>(), vec![first]);
        let copy = rel.clone();
        assert!(copy.is_asserted(first) && !copy.is_asserted(other));

        assert!(rel.remove(&t(&[1, 2])));
        assert!(!rel.is_live(first));
        assert_eq!(rel.asserted_ids().count(), 0);
        let (recycled, _) = rel.insert_new(&t(&[5, 6])).unwrap();
        assert_eq!(recycled, first, "the freed slot is reused");
        assert!(
            !rel.is_asserted(recycled),
            "a recycled id starts unasserted"
        );
        rel.clear();
        assert_eq!(rel.asserted_ids().count(), 0);
    }

    #[test]
    fn column_set_builds_bitmasks() {
        assert_eq!(column_set([0, 2]), 0b101);
        assert_eq!(column_set([]), 0);
    }

    #[test]
    fn column_set_rejects_wide_positions() {
        // Positions ≥ 64 are a planner bug: loud in debug builds, a
        // documented ignore (scan fallback) in release builds.
        if cfg!(debug_assertions) {
            let result = std::panic::catch_unwind(|| column_set([70]));
            assert!(result.is_err());
        } else {
            assert_eq!(column_set([70]), 0);
        }
    }
}
