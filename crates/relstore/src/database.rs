//! The database: named tables, query execution and mutations with effects.
//!
//! Costs follow a simple statement model — a per-statement base (parse +
//! plan + round trip inside the DBMS host) plus per-row scan and return
//! charges — which is all the paper's analysis needs: its databases "never
//! became a performance bottleneck" (§3.1, < 5 % CPU), but *query shape*
//! (indexed lookup vs keyword scan vs write) still determines local response
//! composition.

use std::collections::HashMap;

use mutsvc_desim::time::SimDuration;

use crate::table::{ColumnDef, Table, TableId};
use crate::value::{RowId, Value};

/// CPU cost parameters for statement execution on the database host.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed cost per read statement.
    pub statement_base: SimDuration,
    /// Cost per row in the result set.
    pub per_row_returned: SimDuration,
    /// Cost per row scanned (unindexed predicates, LIKE).
    pub per_row_scanned: SimDuration,
    /// Fixed cost per write statement.
    pub write_base: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            statement_base: SimDuration::from_micros(1_500),
            per_row_returned: SimDuration::from_micros(30),
            per_row_scanned: SimDuration::from_micros(5),
            write_base: SimDuration::from_micros(2_500),
        }
    }
}

/// A read query shape.
///
/// `Ord` gives propagation code a cheap canonical order (variant, then
/// fields) for deterministic invalidation batches without string keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// Primary-key fetch.
    ByPk {
        /// Target table.
        table: TableId,
        /// Key.
        id: RowId,
    },
    /// Equality predicate (`WHERE column = value`).
    Eq {
        /// Target table.
        table: TableId,
        /// Column index.
        column: usize,
        /// Matched value.
        value: Value,
    },
    /// Case-insensitive substring search (`WHERE column LIKE %needle%`).
    Like {
        /// Target table.
        table: TableId,
        /// Column index.
        column: usize,
        /// Search term.
        needle: String,
    },
    /// Full-table fetch.
    All {
        /// Target table.
        table: TableId,
    },
}

impl Query {
    /// The table this query reads.
    pub fn table(&self) -> TableId {
        match self {
            Query::ByPk { table, .. }
            | Query::Eq { table, .. }
            | Query::Like { table, .. }
            | Query::All { table } => *table,
        }
    }
}

/// The result of executing a [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Matching row ids (sorted).
    pub rows: Vec<RowId>,
    /// Serialized size of the result set.
    pub bytes: u64,
    /// CPU cost on the database host.
    pub cpu: SimDuration,
}

impl QueryOutcome {
    /// Number of matching rows.
    pub fn row_count(&self) -> u64 {
        self.rows.len() as u64
    }
}

/// A write operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert a new row.
    Insert {
        /// Target table.
        table: TableId,
        /// Row values (schema order).
        values: Vec<Value>,
    },
    /// Update one cell of an existing row.
    Update {
        /// Target table.
        table: TableId,
        /// Row key.
        id: RowId,
        /// Column index.
        column: usize,
        /// New value.
        value: Value,
    },
    /// Delete a row.
    Delete {
        /// Target table.
        table: TableId,
        /// Row key.
        id: RowId,
    },
}

impl Mutation {
    /// The table this mutation writes.
    pub fn table(&self) -> TableId {
        match self {
            Mutation::Insert { table, .. }
            | Mutation::Update { table, .. }
            | Mutation::Delete { table, .. } => *table,
        }
    }
}

/// What a mutation did — enough information to decide which cached queries
/// it invalidates (see [`crate::invalidation::affects`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MutationEffect {
    /// Table written.
    pub table: TableId,
    /// Row affected (the fresh id for inserts).
    pub row: RowId,
    /// Row contents after the mutation (`None` after a delete or failed update).
    pub after: Option<Vec<Value>>,
    /// For updates: `(column, old value)`.
    pub changed: Option<(usize, Value)>,
    /// CPU cost on the database host.
    pub cpu: SimDuration,
    /// Whether the mutation found its target (updates/deletes of missing rows
    /// are no-ops with `applied == false`).
    pub applied: bool,
}

/// Builds a [`Database`] schema.
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
}

impl DatabaseBuilder {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table. Column names prefixed with `*` get an equality index
    /// (`"*category"` indexes the `category` column).
    ///
    /// # Panics
    ///
    /// Panics on duplicate table names.
    pub fn table(&mut self, name: &str, columns: &[&str], row_bytes: u64) -> TableId {
        assert!(!self.by_name.contains_key(name), "duplicate table {name}");
        let defs = columns
            .iter()
            .map(|c| match c.strip_prefix('*') {
                Some(rest) => ColumnDef {
                    name: rest.to_string(),
                    indexed: true,
                },
                None => ColumnDef {
                    name: c.to_string(),
                    indexed: false,
                },
            })
            .collect();
        let id = TableId(self.tables.len());
        self.tables
            .push(Table::new(name.to_string(), defs, row_bytes));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Finalizes the schema.
    pub fn build(self) -> Database {
        Database {
            tables: self.tables,
            by_name: self.by_name,
            cost: CostModel::default(),
        }
    }
}

/// A set of named in-memory tables with a cost model.
#[derive(Debug, Clone)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    cost: CostModel,
}

impl Database {
    /// Looks up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// Shared access to a table.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this database.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Exclusive access to a table (bulk loading).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this database.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.0]
    }

    /// Executes a read query, returning matching rows, result bytes and the
    /// database-host CPU cost.
    ///
    /// A `Like` is charged `per_row_scanned` for every row of the table even
    /// when [`Table::find_like`] answers from the ids it remembers: the
    /// modeled database scans on every statement, while the host scans an
    /// unchanged table once per needle.
    pub fn execute(&self, query: &Query) -> QueryOutcome {
        let table = self.table(query.table());
        let (rows, scanned) = match query {
            Query::ByPk { id, .. } => (table.get(*id).map(|_| vec![*id]).unwrap_or_default(), 0),
            Query::Eq { column, value, .. } => {
                let indexed = table.columns().get(*column).is_some_and(|c| c.indexed);
                let rows = table.find_eq(*column, value);
                let scanned = if indexed { 0 } else { table.len() };
                (rows, scanned)
            }
            Query::Like { column, needle, .. } => (table.find_like(*column, needle), table.len()),
            Query::All { .. } => (table.all_ids(), 0),
        };
        let returned = rows.len() as u64;
        let cpu = self.cost.statement_base
            + self.cost.per_row_returned * returned
            + self.cost.per_row_scanned * scanned as u64;
        QueryOutcome {
            bytes: returned * table.row_bytes(),
            rows,
            cpu,
        }
    }

    /// Applies a mutation and describes its effect.
    pub fn mutate(&mut self, mutation: Mutation) -> MutationEffect {
        let cpu = self.cost.write_base;
        match mutation {
            Mutation::Insert { table, values } => {
                let id = self.tables[table.0].insert(values.clone());
                MutationEffect {
                    table,
                    row: id,
                    after: Some(values),
                    changed: None,
                    cpu,
                    applied: true,
                }
            }
            Mutation::Update {
                table,
                id,
                column,
                value,
            } => {
                let old = self.tables[table.0].update(id, column, value);
                let applied = old.is_some();
                let after = self.tables[table.0].get(id).map(<[Value]>::to_vec);
                MutationEffect {
                    table,
                    row: id,
                    after,
                    changed: old.map(|o| (column, o)),
                    cpu,
                    applied,
                }
            }
            Mutation::Delete { table, id } => {
                let removed = self.tables[table.0].delete(id);
                MutationEffect {
                    table,
                    row: id,
                    after: None,
                    changed: None,
                    cpu,
                    applied: removed.is_some(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> (Database, TableId) {
        let mut b = DatabaseBuilder::new();
        let items = b.table("item", &["name", "*product", "price"], 250);
        let mut db = b.build();
        for i in 0..6i64 {
            db.table_mut(items).insert(vec![
                format!("item-{i}").into(),
                Value::Int(i % 2),
                Value::Int(100 + i),
            ]);
        }
        (db, items)
    }

    #[test]
    fn pk_query_returns_single_row() {
        let (db, items) = db();
        let out = db.execute(&Query::ByPk {
            table: items,
            id: RowId(3),
        });
        assert_eq!(out.rows, vec![RowId(3)]);
        assert_eq!(out.bytes, 250);
        assert_eq!(out.cpu, SimDuration::from_micros(1_530));
    }

    #[test]
    fn pk_miss_is_empty_but_costs_the_statement() {
        let (db, items) = db();
        let out = db.execute(&Query::ByPk {
            table: items,
            id: RowId(99),
        });
        assert!(out.rows.is_empty());
        assert_eq!(out.bytes, 0);
        assert_eq!(out.cpu, SimDuration::from_micros(1_500));
    }

    #[test]
    fn indexed_eq_does_not_scan() {
        let (db, items) = db();
        let out = db.execute(&Query::Eq {
            table: items,
            column: 1,
            value: Value::Int(0),
        });
        assert_eq!(out.row_count(), 3);
        // base + 3 returned, no scan charge.
        assert_eq!(out.cpu, SimDuration::from_micros(1_500 + 90));
    }

    #[test]
    fn unindexed_eq_scans_the_table() {
        let (db, items) = db();
        let out = db.execute(&Query::Eq {
            table: items,
            column: 2,
            value: Value::Int(103),
        });
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.cpu, SimDuration::from_micros(1_500 + 30 + 6 * 5));
    }

    #[test]
    fn like_scans_and_matches() {
        let (db, items) = db();
        let out = db.execute(&Query::Like {
            table: items,
            column: 0,
            needle: "ITEM-".into(),
        });
        assert_eq!(out.row_count(), 6);
        let out2 = db.execute(&Query::Like {
            table: items,
            column: 0,
            needle: "item-5".into(),
        });
        assert_eq!(out2.rows, vec![RowId(6)]);
    }

    #[test]
    fn all_query_returns_everything() {
        let (db, items) = db();
        assert_eq!(db.execute(&Query::All { table: items }).row_count(), 6);
    }

    #[test]
    fn insert_effect_carries_values() {
        let (mut db, items) = db();
        let e = db.mutate(Mutation::Insert {
            table: items,
            values: vec!["new".into(), Value::Int(1), Value::Int(1)],
        });
        assert!(e.applied);
        assert_eq!(e.row, RowId(7));
        assert_eq!(e.after.as_ref().unwrap()[0], Value::from("new"));
        assert_eq!(db.table(items).len(), 7);
    }

    #[test]
    fn update_effect_records_old_value() {
        let (mut db, items) = db();
        let e = db.mutate(Mutation::Update {
            table: items,
            id: RowId(1),
            column: 2,
            value: Value::Int(999),
        });
        assert!(e.applied);
        assert_eq!(e.changed, Some((2, Value::Int(100))));
        assert_eq!(e.after.as_ref().unwrap()[2], Value::Int(999));
    }

    #[test]
    fn missing_update_and_delete_are_unapplied() {
        let (mut db, items) = db();
        let e = db.mutate(Mutation::Update {
            table: items,
            id: RowId(50),
            column: 0,
            value: Value::Int(0),
        });
        assert!(!e.applied);
        let e = db.mutate(Mutation::Delete {
            table: items,
            id: RowId(50),
        });
        assert!(!e.applied);
    }

    #[test]
    fn delete_then_query_misses() {
        let (mut db, items) = db();
        let e = db.mutate(Mutation::Delete {
            table: items,
            id: RowId(2),
        });
        assert!(e.applied);
        assert!(db
            .execute(&Query::ByPk {
                table: items,
                id: RowId(2)
            })
            .rows
            .is_empty());
    }

    #[test]
    fn table_lookup_by_name() {
        let (db, items) = db();
        assert_eq!(db.table_id("item"), Some(items));
        assert_eq!(db.table_id("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_panics() {
        let mut b = DatabaseBuilder::new();
        b.table("t", &["a"], 10);
        b.table("t", &["b"], 10);
    }
}
