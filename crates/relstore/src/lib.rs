//! # mutsvc-relstore — relational store substrate
//!
//! The paper's applications keep shared persistent state in Oracle/MySQL
//! behind entity beans; this crate is the equivalent substrate for the
//! simulation testbed. It provides
//!
//! * [`table`] — in-memory tables with hash indexes,
//! * [`database`] — schema building, typed queries (PK / equality / keyword
//!   LIKE / full scan), mutations with structured [`MutationEffect`]s, and a
//!   statement cost model,
//! * [`invalidation`] — the write-vs-cached-query dependency check that edge
//!   query-cache containers need (§4.4/§5 of the paper), and
//!   [`QueryCache`], the predicate-indexed result store that answers it for
//!   a whole cache by lookup.
//!
//! ## Example
//!
//! ```
//! use mutsvc_relstore::{DatabaseBuilder, Query, Mutation, Value, affects};
//!
//! let mut b = DatabaseBuilder::new();
//! let product = b.table("product", &["name", "*category"], 180);
//! let mut db = b.build();
//! db.table_mut(product).insert(vec!["Koi".into(), Value::Int(1)]);
//!
//! let by_cat = Query::Eq { table: product, column: 1, value: Value::Int(1) };
//! assert_eq!(db.execute(&by_cat).row_count(), 1);
//!
//! // A write to category 1 invalidates the cached result…
//! let e = db.mutate(Mutation::Insert { table: product, values: vec!["Carp".into(), Value::Int(1)] });
//! assert!(affects(&e, &by_cat));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod invalidation;
pub mod table;
pub mod value;

pub use database::{
    CostModel, Database, DatabaseBuilder, Mutation, MutationEffect, Query, QueryOutcome,
};
pub use invalidation::{affects, QueryCache};
pub use table::{ColumnDef, Table, TableId};
pub use value::{RowId, Value};
