//! Cached-query invalidation.
//!
//! Edge query caches (paper §4.4) must know which writes invalidate which
//! cached results. The paper leaves identification of invalidating operations
//! to the application/deployment descriptor; we implement the precise check a
//! container could derive automatically from EJB QL (§5): a mutation affects
//! a cached query iff it can change the query's result *content*.
//!
//! [`affects`] states that rule for one `(write, query)` pair. A container
//! holds its cached results in a [`QueryCache`], which indexes them by
//! predicate so that [`QueryCache::affected`] finds exactly the results
//! `affects` selects without testing each one: a write's effect names the
//! row it touched, the row's values after it and the value an update
//! replaced, and those are the index keys.

use std::collections::HashMap;

use crate::database::{MutationEffect, Query};
use crate::value::{RowId, Value};

/// Does `effect` invalidate a cached result of `query`?
///
/// Sound but slightly conservative: `Like` queries are invalidated by any
/// mutation of their table (keyword search predicates are opaque), matching
/// the paper's observation that such queries are not worth caching.
pub fn affects(effect: &MutationEffect, query: &Query) -> bool {
    if !effect.applied || effect.table != query.table() {
        return false;
    }
    match query {
        Query::ByPk { id, .. } => effect.row == *id,
        Query::Eq { column, value, .. } => {
            // The row matches the predicate now…
            let matches_now = effect
                .after
                .as_ref()
                .and_then(|r| r.get(*column))
                .is_some_and(|v| v == value);
            // …or matched before an update/delete changed it.
            let matched_before = match (&effect.changed, &effect.after) {
                // An update changed the predicate column: compare the old value.
                (Some((changed_col, old)), _) if changed_col == column => old == value,
                // An update of some other column: membership is unchanged and
                // already decided by `matches_now`.
                (Some(_), _) => false,
                // A delete: the old row is gone, so membership before the
                // write is unknown — be conservative.
                (None, None) => true,
                // An insert: membership is decided by `matches_now`.
                (None, Some(_)) => false,
            };
            matches_now || matched_before
        }
        Query::Like { .. } => true,
        Query::All { .. } => true,
    }
}

/// One container's cached query results, each stored once with its validity
/// bit and indexed by predicate.
///
/// Per table, `ByPk` results are keyed by row id, `Eq` results by column and
/// then value, and `Like`/`All` results sit in a short list. A read hashes a
/// row id or a value instead of a whole [`Query`], and a write visits only
/// the results it can change ([`QueryCache::affected`]).
#[derive(Debug, Clone, Default)]
pub struct QueryCache {
    /// Entries per table, indexed by [`TableId::index`](crate::TableId::index).
    tables: Vec<TableEntries>,
}

/// The cached results on one table.
#[derive(Debug, Clone, Default)]
struct TableEntries {
    /// `ByPk` results: row id → valid?
    by_pk: HashMap<RowId, bool>,
    /// `Eq` results: column → value → valid?. A table has few predicate
    /// columns, so the columns are a list rather than a map.
    eq: Vec<(usize, HashMap<Value, bool>)>,
    /// `Like` and `All` results, which every applied write to the table
    /// affects.
    scans: Vec<(Query, bool)>,
}

impl TableEntries {
    fn get(&self, query: &Query) -> Option<bool> {
        match query {
            Query::ByPk { id, .. } => self.by_pk.get(id),
            Query::Eq { column, value, .. } => self
                .eq
                .iter()
                .find(|(c, _)| c == column)
                .and_then(|(_, m)| m.get(value)),
            Query::Like { .. } | Query::All { .. } => {
                self.scans.iter().find(|(q, _)| q == query).map(|(_, v)| v)
            }
        }
        .copied()
    }

    fn get_mut(&mut self, query: &Query) -> Option<&mut bool> {
        match query {
            Query::ByPk { id, .. } => self.by_pk.get_mut(id),
            Query::Eq { column, value, .. } => self
                .eq
                .iter_mut()
                .find(|(c, _)| c == column)
                .and_then(|(_, m)| m.get_mut(value)),
            Query::Like { .. } | Query::All { .. } => self
                .scans
                .iter_mut()
                .find(|(q, _)| q == query)
                .map(|(_, v)| v),
        }
    }
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `query` is cached and valid.
    pub fn is_valid(&self, query: &Query) -> bool {
        self.tables
            .get(query.table().index())
            .and_then(|t| t.get(query))
            .unwrap_or(false)
    }

    /// Stores `query` as valid, or marks it valid again if already stored.
    pub fn cache(&mut self, query: Query) {
        let index = query.table().index();
        if index >= self.tables.len() {
            self.tables.resize_with(index + 1, TableEntries::default);
        }
        let t = &mut self.tables[index];
        match query {
            Query::ByPk { id, .. } => {
                t.by_pk.insert(id, true);
            }
            Query::Eq { column, value, .. } => {
                let at = t.eq.iter().position(|(c, _)| *c == column);
                let at = at.unwrap_or_else(|| {
                    t.eq.push((column, HashMap::new()));
                    t.eq.len() - 1
                });
                t.eq[at].1.insert(value, true);
            }
            scan @ (Query::Like { .. } | Query::All { .. }) => {
                match t.scans.iter_mut().find(|(q, _)| *q == scan) {
                    Some((_, valid)) => *valid = true,
                    None => t.scans.push((scan, true)),
                }
            }
        }
    }

    /// Marks `query` invalid if it is stored; returns whether it was.
    pub fn invalidate(&mut self, query: &Query) -> bool {
        let bit = self
            .tables
            .get_mut(query.table().index())
            .and_then(|t| t.get_mut(query));
        match bit {
            Some(valid) => {
                *valid = false;
                true
            }
            None => false,
        }
    }

    /// Calls `emit` once for each stored query, valid or not, that `effect`
    /// invalidates: exactly the stored `q` for which [`affects`]`(effect, q)`
    /// holds, in no particular order.
    ///
    /// The lookups mirror `affects` case by case. The `ByPk` entry of
    /// `effect.row`; per indexed column, the `Eq` entry of the row's value
    /// after the write and, when an update changed that column, of its old
    /// value; after a delete, whose old row is gone, every `Eq` entry; and
    /// every `Like` and `All` entry. An unapplied write emits nothing.
    pub fn affected(&self, effect: &MutationEffect, mut emit: impl FnMut(Query)) {
        if !effect.applied {
            return;
        }
        let Some(t) = self.tables.get(effect.table.index()) else {
            return;
        };
        let table = effect.table;
        if t.by_pk.contains_key(&effect.row) {
            emit(Query::ByPk {
                table,
                id: effect.row,
            });
        }
        let deleted = effect.after.is_none() && effect.changed.is_none();
        for (column, entries) in &t.eq {
            let column = *column;
            let mut hit = |value: &Value| {
                emit(Query::Eq {
                    table,
                    column,
                    value: value.clone(),
                });
            };
            if deleted {
                entries.keys().for_each(&mut hit);
                continue;
            }
            let now = effect.after.as_ref().and_then(|row| row.get(column));
            if let Some(value) = now.filter(|v| entries.contains_key(*v)) {
                hit(value);
            }
            if let Some((_, old)) = effect.changed.as_ref().filter(|(c, _)| *c == column) {
                if now != Some(old) && entries.contains_key(old) {
                    hit(old);
                }
            }
        }
        for (query, _) in &t.scans {
            emit(query.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{DatabaseBuilder, Mutation, Query};
    use crate::table::TableId;
    use crate::value::{RowId, Value};

    fn setup() -> (crate::database::Database, TableId, TableId) {
        let mut b = DatabaseBuilder::new();
        let item = b.table("item", &["name", "*product"], 100);
        let inv = b.table("inventory", &["*item", "qty"], 40);
        let mut db = b.build();
        for i in 0..4i64 {
            let id = db
                .table_mut(item)
                .insert(vec![format!("i{i}").into(), Value::Int(i % 2)]);
            db.table_mut(inv).insert(vec![id.into(), Value::Int(100)]);
        }
        (db, item, inv)
    }

    #[test]
    fn cross_table_writes_never_invalidate() {
        let (mut db, item, inv) = setup();
        let products_q = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(0),
        };
        // Decrement inventory: must not invalidate an item query.
        let e = db.mutate(Mutation::Update {
            table: inv,
            id: RowId(1),
            column: 1,
            value: Value::Int(99),
        });
        assert!(!affects(&e, &products_q));
    }

    #[test]
    fn matching_insert_invalidates_eq() {
        let (mut db, item, _) = setup();
        let q0 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(0),
        };
        let q1 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(1),
        };
        let e = db.mutate(Mutation::Insert {
            table: item,
            values: vec!["new".into(), Value::Int(0)],
        });
        assert!(affects(&e, &q0));
        assert!(!affects(&e, &q1));
    }

    #[test]
    fn update_invalidates_old_and_new_groups() {
        let (mut db, item, _) = setup();
        let q0 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(0),
        };
        let q1 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(1),
        };
        let q2 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(2),
        };
        // Move row 1 from product 0 to product 2.
        let e = db.mutate(Mutation::Update {
            table: item,
            id: RowId(1),
            column: 1,
            value: Value::Int(2),
        });
        assert!(affects(&e, &q0), "old group loses a row");
        assert!(affects(&e, &q2), "new group gains a row");
        assert!(!affects(&e, &q1), "unrelated group untouched");
    }

    #[test]
    fn update_of_other_column_invalidates_current_group_only() {
        let (mut db, item, _) = setup();
        let q0 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(0),
        };
        let q1 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(1),
        };
        // Rename row 2 (product 1): content change inside group 1.
        let e = db.mutate(Mutation::Update {
            table: item,
            id: RowId(2),
            column: 0,
            value: "renamed".into(),
        });
        assert!(affects(&e, &q1));
        assert!(!affects(&e, &q0));
    }

    #[test]
    fn pk_query_invalidated_by_its_row_only() {
        let (mut db, _, inv) = setup();
        let q = Query::ByPk {
            table: inv,
            id: RowId(2),
        };
        let hit = db.mutate(Mutation::Update {
            table: inv,
            id: RowId(2),
            column: 1,
            value: Value::Int(0),
        });
        let miss = db.mutate(Mutation::Update {
            table: inv,
            id: RowId(3),
            column: 1,
            value: Value::Int(0),
        });
        assert!(affects(&hit, &q));
        assert!(!affects(&miss, &q));
    }

    #[test]
    fn like_and_all_are_conservatively_invalidated() {
        let (mut db, item, _) = setup();
        let like = Query::Like {
            table: item,
            column: 0,
            needle: "i".into(),
        };
        let all = Query::All { table: item };
        let e = db.mutate(Mutation::Update {
            table: item,
            id: RowId(1),
            column: 0,
            value: "x".into(),
        });
        assert!(affects(&e, &like));
        assert!(affects(&e, &all));
    }

    #[test]
    fn unapplied_mutations_never_invalidate() {
        let (mut db, item, _) = setup();
        let q = Query::All { table: item };
        let e = db.mutate(Mutation::Delete {
            table: item,
            id: RowId(99),
        });
        assert!(!affects(&e, &q));
    }

    /// A write that touches nothing a cached result depends on leaves it
    /// out of the index lookup: only the renamed row's group and the scans
    /// come back.
    #[test]
    fn index_visits_only_the_entries_a_write_names() {
        let (mut db, item, inv) = setup();
        let mut cache = QueryCache::new();
        for product in 0..4 {
            cache.cache(Query::Eq {
                table: item,
                column: 1,
                value: Value::Int(product),
            });
        }
        cache.cache(Query::ByPk {
            table: item,
            id: RowId(3),
        });
        cache.cache(Query::All { table: item });
        cache.cache(Query::All { table: inv });
        let e = db.mutate(Mutation::Update {
            table: item,
            id: RowId(2),
            column: 0,
            value: "renamed".into(),
        });
        let mut got = Vec::new();
        cache.affected(&e, |q| got.push(q));
        got.sort();
        assert_eq!(
            got,
            vec![
                Query::Eq {
                    table: item,
                    column: 1,
                    value: Value::Int(1),
                },
                Query::All { table: item },
            ]
        );
    }

    mod properties {
        use std::collections::HashMap;

        use proptest::prelude::*;

        use super::super::*;
        use crate::database::{Database, DatabaseBuilder, Mutation};
        use crate::table::TableId;
        use crate::value::{RowId, Value};

        /// Small domains so that values, rows and predicates collide.
        fn value(kind: u8, v: i64) -> Value {
            if kind == 0 {
                Value::Int(v)
            } else {
                Value::Str(format!("s{v}"))
            }
        }

        /// Two tables of three columns; `Eq` predicates use columns 0 and 1,
        /// so a write of column 2 is always a write of another column.
        fn database(rows: &[(u8, i64, u8, i64, u8, i64)]) -> (Database, [TableId; 2]) {
            let mut b = DatabaseBuilder::new();
            let t0 = b.table("t0", &["a", "*b", "c"], 10);
            let t1 = b.table("t1", &["*a", "b", "c"], 10);
            let mut db = b.build();
            for (i, &(k0, v0, k1, v1, k2, v2)) in rows.iter().enumerate() {
                let t = if i % 2 == 0 { t0 } else { t1 };
                db.table_mut(t)
                    .insert(vec![value(k0, v0), value(k1, v1), value(k2, v2)]);
            }
            (db, [t0, t1])
        }

        fn query(table: TableId, shape: u8, row: u64, column: usize, v: Value) -> Query {
            match shape % 4 {
                0 => Query::ByPk {
                    table,
                    id: RowId(row),
                },
                1 => Query::Eq {
                    table,
                    column: column % 2,
                    value: v,
                },
                2 => Query::Like {
                    table,
                    column,
                    needle: format!("{v}"),
                },
                _ => Query::All { table },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// The index answers exactly what the `affects` scan over every
            /// stored query answers, for real effects on random caches, and
            /// its validity bits match a `HashMap<Query, bool>` model through
            /// cache, invalidate and re-cache.
            #[test]
            fn index_equals_scan(
                rows in proptest::collection::vec(
                    (0u8..2, 0i64..3, 0u8..2, 0i64..3, 0u8..2, 0i64..3), 8),
                ops in proptest::collection::vec(
                    (0u8..8, 0usize..2, 0u64..8, 0usize..3, 0u8..2, 0i64..3), 1..60),
            ) {
                let (mut db, tables) = database(&rows);
                let mut cache = QueryCache::new();
                let mut model: HashMap<Query, bool> = HashMap::new();
                for (op, t, row, column, kind, v) in ops {
                    let table = tables[t];
                    let probe = query(table, (row + v as u64) as u8, row, column, value(kind, v));
                    let mutation = match op {
                        0..=2 => {
                            cache.cache(probe.clone());
                            model.insert(probe.clone(), true);
                            None
                        }
                        3 => {
                            let stored = model.get_mut(&probe).map(|valid| *valid = false);
                            prop_assert_eq!(cache.invalidate(&probe), stored.is_some());
                            None
                        }
                        4 => Some(Mutation::Insert {
                            table,
                            values: vec![value(kind, v), value(kind ^ 1, v), value(kind, row as i64)],
                        }),
                        // Rows 6 and 7 rarely exist: updates and deletes of
                        // them are mostly unapplied.
                        5 | 6 => Some(Mutation::Update {
                            table,
                            id: RowId(row),
                            column,
                            value: value(kind, v),
                        }),
                        _ => Some(Mutation::Delete {
                            table,
                            id: RowId(row),
                        }),
                    };
                    if let Some(mutation) = mutation {
                        let effect = db.mutate(mutation);
                        let mut got = Vec::new();
                        cache.affected(&effect, |q| got.push(q));
                        got.sort();
                        let emitted = got.len();
                        got.dedup();
                        prop_assert_eq!(emitted, got.len(), "a query emitted twice");
                        let mut want: Vec<Query> =
                            model.keys().filter(|q| affects(&effect, q)).cloned().collect();
                        want.sort();
                        prop_assert_eq!(&got, &want, "effect {:?}", effect);
                        // Pull mode: drop what the write invalidated.
                        if kind == 0 {
                            for q in &got {
                                prop_assert!(cache.invalidate(q));
                                model.insert(q.clone(), false);
                            }
                        }
                    }
                    prop_assert_eq!(cache.is_valid(&probe), model.get(&probe) == Some(&true));
                    for (q, &valid) in &model {
                        prop_assert_eq!(cache.is_valid(q), valid, "{:?}", q);
                    }
                }
            }
        }
    }

    #[test]
    fn delete_invalidates_eq_conservatively() {
        let (mut db, item, _) = setup();
        let q0 = Query::Eq {
            table: item,
            column: 1,
            value: Value::Int(0),
        };
        let e = db.mutate(Mutation::Delete {
            table: item,
            id: RowId(1),
        });
        assert!(affects(&e, &q0));
    }
}
