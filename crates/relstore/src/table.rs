//! Tables: rows, columns and hash indexes.

use std::collections::HashMap;

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

/// A heap of rows plus optional per-column hash indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<ColumnDef>,
    /// Average serialized row size, used for result-set byte accounting.
    row_bytes: u64,
    rows: HashMap<RowId, Vec<Value>>,
    /// column index -> value -> row ids (insertion-ordered within a value).
    indexes: HashMap<usize, HashMap<Value, Vec<RowId>>>,
    next_id: u64,
}

impl Table {
    pub(crate) fn new(name: String, columns: Vec<ColumnDef>, row_bytes: u64) -> Self {
        let indexes = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed)
            .map(|(i, _)| (i, HashMap::new()))
            .collect();
        Table {
            name,
            columns,
            row_bytes,
            rows: HashMap::new(),
            indexes,
            next_id: 1,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
        let id = RowId(self.next_id);
        self.next_id += 1;
        for (&col, index) in &mut self.indexes {
            index.entry(values[col].clone()).or_default().push(id);
        }
        self.rows.insert(id, values);
        id
    }

    /// Fetches a row by primary key.
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(&id).map(Vec::as_slice)
    }

    /// Reads one cell.
    pub fn cell(&self, id: RowId, column: usize) -> Option<&Value> {
        self.rows.get(&id).and_then(|r| r.get(column))
    }

    /// Updates one cell; returns the previous value, or `None` if the row
    /// does not exist.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of range for an existing row.
    pub fn update(&mut self, id: RowId, column: usize, value: Value) -> Option<Value> {
        let row = self.rows.get_mut(&id)?;
        assert!(
            column < row.len(),
            "column {column} out of range in {}",
            self.name
        );
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
        let row = self.rows.remove(&id)?;
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

    /// Row ids whose `column` equals `value`. Uses the hash index when one
    /// exists, otherwise scans. Results are sorted for determinism.
    pub fn find_eq(&self, column: usize, value: &Value) -> Vec<RowId> {
        let mut ids = if let Some(index) = self.indexes.get(&column) {
            index.get(value).cloned().unwrap_or_default()
        } else {
            self.rows
                .iter()
                .filter(|(_, r)| &r[column] == value)
                .map(|(&id, _)| id)
                .collect()
        };
        ids.sort_unstable();
        ids
    }

    /// Row ids whose string `column` contains `needle` (ASCII
    /// case-insensitive) — the keyword-search query shape. Always a scan.
    pub fn find_like(&self, column: usize, needle: &str) -> Vec<RowId> {
        let mut ids: Vec<RowId> = self
            .rows
            .iter()
            .filter(|(_, r)| {
                r[column]
                    .as_str()
                    .is_some_and(|s| contains_ascii_ci(s, needle))
            })
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// All row ids, sorted.
    pub fn all_ids(&self) -> Vec<RowId> {
        let mut ids: Vec<RowId> = self.rows.keys().copied().collect();
        ids.sort_unstable();
        ids
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
