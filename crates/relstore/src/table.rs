//! Tables: rows, columns and hash indexes.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use mutsvc_desim::hash::FxHashMap;

use crate::value::{RowId, Value};

/// Identifies a table within a [`Database`](crate::database::Database).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub(crate) usize);

impl TableId {
    /// Dense index of the table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Column description.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Whether an equality hash index is maintained.
    pub indexed: bool,
}

/// Rows addressed by id plus optional per-column hash indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<ColumnDef>,
    /// Average serialized row size, used for result-set byte accounting.
    row_bytes: u64,
    /// Row `RowId(i)` in slot `i - 1`. Ids are handed out from 1 in order
    /// and never reused, so the next id is one past the last slot and a
    /// deleted row leaves `None` behind.
    rows: Vec<Option<Vec<Value>>>,
    /// Live rows: the slots that are not `None`.
    len: usize,
    /// column index -> value -> row ids (insertion-ordered within a value).
    indexes: FxHashMap<usize, FxHashMap<Value, Vec<RowId>>>,
    like_memo: LikeMemo,
}

/// What [`Table::find_like`] answered since the table's last write:
/// column index -> needle -> sorted row ids. Behind a lock so that a shared
/// `&Table` can fill it; an entry is only ever inserted whole, so a lock
/// poisoned by a panicking scan still guards consistent entries.
#[derive(Debug, Default)]
struct LikeMemo(Mutex<HashMap<usize, HashMap<String, Vec<RowId>>>>);

impl LikeMemo {
    fn lock(&self) -> MutexGuard<'_, HashMap<usize, HashMap<String, Vec<RowId>>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn clear(&mut self) {
        self.0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// A clone gets its own copy of the entries, never a shared lock.
impl Clone for LikeMemo {
    fn clone(&self) -> Self {
        LikeMemo(Mutex::new(self.lock().clone()))
    }
}

impl Table {
    pub(crate) fn new(name: String, columns: Vec<ColumnDef>, row_bytes: u64) -> Self {
        let indexes = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed)
            .map(|(i, _)| (i, FxHashMap::default()))
            .collect();
        Table {
            name,
            columns,
            row_bytes,
            rows: Vec::new(),
            len: 0,
            indexes,
            like_memo: LikeMemo::default(),
        }
    }

    /// The slot of row `id`; `RowId(0)` has none.
    fn slot(id: RowId) -> Option<usize> {
        usize::try_from(id.0).ok()?.checked_sub(1)
    }

    /// Live rows in id order.
    fn live(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        (1..)
            .zip(&self.rows)
            .filter_map(|(id, row)| Some((RowId(id), row.as_deref()?)))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Average serialized row size in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column definitions.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Inserts a row, assigning a fresh [`RowId`].
    ///
    /// # Panics
    ///
    /// Panics if the arity of `values` does not match the schema.
    pub fn insert(&mut self, values: Vec<Value>) -> RowId {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row arity mismatch in table {}",
            self.name
        );
        let id = RowId(self.rows.len() as u64 + 1);
        self.like_memo.clear();
        for (&col, index) in &mut self.indexes {
            index.entry(values[col].clone()).or_default().push(id);
        }
        self.rows.push(Some(values));
        self.len += 1;
        id
    }

    /// Fetches a row by primary key.
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(Self::slot(id)?)?.as_deref()
    }

    /// Reads one cell.
    pub fn cell(&self, id: RowId, column: usize) -> Option<&Value> {
        self.get(id)?.get(column)
    }

    /// Updates one cell; returns the previous value, or `None` if the row
    /// does not exist.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of range for an existing row.
    pub fn update(&mut self, id: RowId, column: usize, value: Value) -> Option<Value> {
        let row = self.rows.get_mut(Self::slot(id)?)?.as_mut()?;
        assert!(
            column < row.len(),
            "column {column} out of range in {}",
            self.name
        );
        self.like_memo.clear();
        let old = std::mem::replace(&mut row[column], value.clone());
        if let Some(index) = self.indexes.get_mut(&column) {
            if let Some(ids) = index.get_mut(&old) {
                ids.retain(|&r| r != id);
                if ids.is_empty() {
                    index.remove(&old);
                }
            }
            index.entry(value).or_default().push(id);
        }
        Some(old)
    }

    /// Deletes a row; returns its values if it existed.
    pub fn delete(&mut self, id: RowId) -> Option<Vec<Value>> {
        let row = self.rows.get_mut(Self::slot(id)?)?.take()?;
        self.len -= 1;
        self.like_memo.clear();
        for (&col, index) in &mut self.indexes {
            if let Some(ids) = index.get_mut(&row[col]) {
                ids.retain(|&r| r != id);
                if ids.is_empty() {
                    index.remove(&row[col]);
                }
            }
        }
        Some(row)
    }

    /// Row ids whose `column` equals `value`, sorted. Uses the hash index
    /// when one exists, otherwise scans in id order.
    pub fn find_eq(&self, column: usize, value: &Value) -> Vec<RowId> {
        if let Some(index) = self.indexes.get(&column) {
            let mut ids = index.get(value).cloned().unwrap_or_default();
            ids.sort_unstable();
            ids
        } else {
            self.live()
                .filter(|(_, r)| &r[column] == value)
                .map(|(id, _)| id)
                .collect()
        }
    }

    /// Row ids whose string `column` contains `needle` (ASCII
    /// case-insensitive) — the keyword-search query shape, sorted. The
    /// first search for a `(column, needle)` scans every row; the table
    /// remembers the answer until its next insert, update or delete, so a
    /// repeated search of an unchanged table copies the remembered ids.
    pub fn find_like(&self, column: usize, needle: &str) -> Vec<RowId> {
        let mut memo = self.like_memo.lock();
        let by_needle = memo.entry(column).or_default();
        if let Some(ids) = by_needle.get(needle) {
            return ids.clone();
        }
        let ids: Vec<RowId> = self
            .live()
            .filter(|(_, r)| {
                r[column]
                    .as_str()
                    .is_some_and(|s| contains_ascii_ci(s, needle))
            })
            .map(|(id, _)| id)
            .collect();
        by_needle.insert(needle.to_owned(), ids.clone());
        ids
    }

    /// All row ids, sorted.
    pub fn all_ids(&self) -> Vec<RowId> {
        self.live().map(|(id, _)| id).collect()
    }
}

/// Whether `haystack` contains `needle` with ASCII letters compared
/// case-insensitively and every other byte exactly — the same answer as
/// lowercasing both with `to_ascii_lowercase` and calling `contains`, with
/// no allocation. A match of whole UTF-8 sequences on bytes always lies on
/// character boundaries.
fn contains_ascii_ci(haystack: &str, needle: &str) -> bool {
    let needle = needle.as_bytes();
    needle.is_empty()
        || haystack
            .as_bytes()
            .windows(needle.len())
            .any(|window| window.eq_ignore_ascii_case(needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::new(
            "person".into(),
            vec![
                ColumnDef {
                    name: "name".into(),
                    indexed: false,
                },
                ColumnDef {
                    name: "city".into(),
                    indexed: true,
                },
            ],
            64,
        );
        t.insert(vec!["ann".into(), "nyc".into()]);
        t.insert(vec!["bob".into(), "sf".into()]);
        t.insert(vec!["cal".into(), "nyc".into()]);
        t
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let t = people();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(RowId(1)).unwrap()[0], Value::from("ann"));
        assert_eq!(t.all_ids(), vec![RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn indexed_lookup_matches_scan() {
        let t = people();
        let city = t.column("city").unwrap();
        assert_eq!(t.find_eq(city, &"nyc".into()), vec![RowId(1), RowId(3)]);
        let name = t.column("name").unwrap();
        // Unindexed column falls back to a scan.
        assert_eq!(t.find_eq(name, &"bob".into()), vec![RowId(2)]);
    }

    #[test]
    fn update_maintains_index() {
        let mut t = people();
        let city = t.column("city").unwrap();
        let old = t.update(RowId(1), city, "sf".into());
        assert_eq!(old, Some("nyc".into()));
        assert_eq!(t.find_eq(city, &"nyc".into()), vec![RowId(3)]);
        assert_eq!(t.find_eq(city, &"sf".into()), vec![RowId(1), RowId(2)]);
        assert_eq!(t.update(RowId(99), city, "la".into()), None);
    }

    #[test]
    fn delete_maintains_index() {
        let mut t = people();
        let city = t.column("city").unwrap();
        assert!(t.delete(RowId(3)).is_some());
        assert_eq!(t.find_eq(city, &"nyc".into()), vec![RowId(1)]);
        assert!(t.delete(RowId(3)).is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn like_is_case_insensitive_substring() {
        let t = people();
        let name = t.column("name").unwrap();
        assert_eq!(t.find_like(name, "A"), vec![RowId(1), RowId(3)]);
        assert_eq!(t.find_like(name, "zzz"), Vec::<RowId>::new());
    }

    /// The byte-wise matcher agrees with the lowercase-and-`contains`
    /// predicate it replaced, including on non-ASCII text (which ASCII
    /// folding leaves alone), empty needles and needles longer than the
    /// value.
    #[test]
    fn like_matches_the_lowercase_contains_predicate() {
        let reference = |s: &str, n: &str| s.to_ascii_lowercase().contains(&n.to_ascii_lowercase());
        let values = [
            "",
            "a",
            "Ann",
            "bOb",
            "Café",
            "CAFÉ",
            "café au lait",
            "straße",
            "STRASSE",
            "Straße",
            "ÅRHUS",
            "naïve Ünïcode",
            "x\u{301}",
        ];
        let needles = [
            "",
            "a",
            "A",
            "an",
            "NN",
            "ob",
            "caf",
            "CAFÉ",
            "é",
            "É",
            "fé",
            "ße",
            "SSE",
            "strasse",
            "åR",
            "Å",
            "ünï",
            "\u{301}",
            "Ann Bob",
            "café au lait and more",
        ];
        for value in values {
            for needle in needles {
                assert_eq!(
                    contains_ascii_ci(value, needle),
                    reference(value, needle),
                    "{value:?} LIKE {needle:?}"
                );
            }
        }

        let mut t = people();
        t.insert(vec!["Café".into(), "paris".into()]);
        t.insert(vec!["straße".into(), "berlin".into()]);
        let name = t.column("name").unwrap();
        assert_eq!(t.find_like(name, "CAF"), vec![RowId(4)]);
        assert_eq!(t.find_like(name, "é"), vec![RowId(4)]);
        assert_eq!(t.find_like(name, "É"), Vec::<RowId>::new());
        assert_eq!(t.find_like(name, "SSE"), Vec::<RowId>::new());
        assert_eq!(
            t.find_like(name, "").len(),
            t.len(),
            "empty needle matches every row"
        );
        assert_eq!(t.find_like(name, "annabelle"), Vec::<RowId>::new());
    }

    mod properties {
        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::super::*;
        use crate::database::{CostModel, Database, DatabaseBuilder, Mutation, Query};

        /// `find_like` as it was before the memo: a scan of every row.
        fn reference(t: &Table, column: usize, needle: &str) -> Vec<RowId> {
            t.live()
                .filter(|(_, r)| {
                    r[column]
                        .as_str()
                        .is_some_and(|s| contains_ascii_ci(s, needle))
                })
                .map(|(id, _)| id)
                .collect()
        }

        /// Cells that match some needles in some cases, and one that is not
        /// a string.
        fn value(k: usize) -> Value {
            match k % 6 {
                0 => "".into(),
                1 => "ab".into(),
                2 => "xAby".into(),
                3 => "AB".into(),
                4 => "zz".into(),
                _ => Value::Int(7),
            }
        }

        /// Empty, case variants of one keyword, a substring, and no match.
        const NEEDLES: [&str; 6] = ["", "ab", "AB", "aB", "b", "nomatch"];

        /// Two columns to search and an indexed third, so updates hit the
        /// searched column, the other searched column, or neither.
        fn database() -> (Database, TableId) {
            let mut b = DatabaseBuilder::new();
            let t = b.table("item", &["name", "tag", "*n"], 40);
            let mut db = b.build();
            for k in 0..6 {
                db.table_mut(t)
                    .insert(vec![value(k), value(k + 2), Value::Int(k as i64)]);
            }
            (db, t)
        }

        /// A table with an unindexed column `a` and indexed columns `b` and
        /// `c`, holding `Value`s of both kinds.
        fn model_table() -> Table {
            let column = |name: &str, indexed| ColumnDef {
                name: name.into(),
                indexed,
            };
            Table::new(
                "model".into(),
                vec![column("a", false), column("b", true), column("c", true)],
                16,
            )
        }

        /// A small domain, so equal values are common.
        fn cell(k: usize) -> Value {
            match k % 4 {
                0 => "x".into(),
                1 => "y".into(),
                2 => Value::Int(1),
                _ => Value::Int(2),
            }
        }

        /// Every read of `t` equals the same read of `model`: each id from
        /// `RowId(0)` to two past the last one handed out, each column and
        /// one past the last, and every value of the domain in every column.
        fn assert_matches(t: &Table, model: &BTreeMap<RowId, Vec<Value>>, next: u64) {
            prop_assert_eq!(t.len(), model.len());
            prop_assert_eq!(t.is_empty(), model.is_empty());
            prop_assert_eq!(t.all_ids(), model.keys().copied().collect::<Vec<_>>());
            for id in (0..next + 2).map(RowId) {
                prop_assert_eq!(t.get(id), model.get(&id).map(Vec::as_slice), "get {}", id);
                for column in 0..4 {
                    prop_assert_eq!(
                        t.cell(id, column),
                        model.get(&id).and_then(|r| r.get(column)),
                        "cell {} {}",
                        id,
                        column
                    );
                }
            }
            for column in 0..3 {
                for k in 0..4 {
                    let value = cell(k);
                    let want: Vec<RowId> = model
                        .iter()
                        .filter(|(_, r)| r[column] == value)
                        .map(|(&id, _)| id)
                        .collect();
                    prop_assert_eq!(
                        t.find_eq(column, &value),
                        want,
                        "find_eq {} {:?}",
                        column,
                        value
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Rows addressed by id answer every read as an ordered map of
            /// the live rows does, through inserts, updates of indexed and
            /// unindexed columns, deletes (ids past the end and `RowId(0)`
            /// included, so some are unapplied), and clones that then
            /// diverge.
            #[test]
            fn rows_match_an_ordered_map(
                ops in proptest::collection::vec(
                    (0u8..5, 0usize..2, 0u64..12, 0usize..3, 0usize..4, 0usize..4), 1..80),
            ) {
                let mut tables = [model_table(), model_table()];
                let mut models = [BTreeMap::new(), BTreeMap::new()];
                let mut next = [1u64, 1];
                for (op, i, row, column, v, w) in ops {
                    let id = RowId(row);
                    match op {
                        0 => {
                            let values = vec![cell(v), cell(w), cell(v + w)];
                            prop_assert_eq!(tables[i].insert(values.clone()), RowId(next[i]));
                            models[i].insert(RowId(next[i]), values);
                            next[i] += 1;
                        }
                        1 => {
                            let old = models[i]
                                .get_mut(&id)
                                .map(|r: &mut Vec<Value>| std::mem::replace(&mut r[column], cell(v)));
                            prop_assert_eq!(tables[i].update(id, column, cell(v)), old);
                        }
                        2 => prop_assert_eq!(tables[i].delete(id), models[i].remove(&id)),
                        3 => {
                            tables[1 - i] = tables[i].clone();
                            models[1 - i] = models[i].clone();
                            next[1 - i] = next[i];
                        }
                        _ => {}
                    }
                    assert_matches(&tables[i], &models[i], next[i]);
                }
            }

            /// Every `find_like` answer and every `Like` outcome equals a
            /// fresh scan, through inserts, updates of either searched
            /// column or of neither, deletes (rows 7 and up rarely exist, so
            /// some are unapplied), and clones that then diverge.
            #[test]
            fn memoized_like_equals_a_scan(
                ops in proptest::collection::vec(
                    (0u8..8, 0usize..2, 1u64..10, 0usize..3, 0usize..6, 0usize..6), 1..80),
            ) {
                let (db, t) = database();
                let mut dbs = [db.clone(), db];
                let cost = CostModel::default();
                for (op, i, row, column, v, n) in ops {
                    let write = match op {
                        0 => Some(Mutation::Insert {
                            table: t,
                            values: vec![value(v), value(v + 3), Value::Int(row as i64)],
                        }),
                        1 | 2 => Some(Mutation::Update {
                            table: t,
                            id: RowId(row),
                            column,
                            value: if column == 2 { Value::Int(v as i64) } else { value(v) },
                        }),
                        3 => Some(Mutation::Delete { table: t, id: RowId(row) }),
                        4 => {
                            dbs[1 - i] = dbs[i].clone();
                            None
                        }
                        _ => {
                            let db = &dbs[i];
                            let column = column % 2;
                            let needle = NEEDLES[n];
                            let want = reference(db.table(t), column, needle);
                            prop_assert_eq!(
                                db.table(t).find_like(column, needle), want.clone(),
                                "find_like({}, {:?})", column, needle
                            );
                            let out = db.execute(&Query::Like {
                                table: t,
                                column,
                                needle: needle.to_owned(),
                            });
                            let returned = want.len() as u64;
                            prop_assert_eq!(out.bytes, returned * 40);
                            prop_assert_eq!(
                                out.cpu,
                                cost.statement_base
                                    + cost.per_row_returned * returned
                                    + cost.per_row_scanned * db.table(t).len() as u64
                            );
                            prop_assert_eq!(out.rows, want);
                            None
                        }
                    };
                    if let Some(write) = write {
                        dbs[i].mutate(write);
                    }
                }
            }
        }
    }

    #[test]
    fn cell_access() {
        let t = people();
        assert_eq!(t.cell(RowId(2), 1), Some(&Value::from("sf")));
        assert_eq!(t.cell(RowId(9), 0), None);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut t = people();
        t.insert(vec!["x".into()]);
    }
}
