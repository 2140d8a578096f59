//! Cell values and row identifiers.

/// A stable row identifier (primary key), unique within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A cell value. The model only needs integers (including foreign keys) and
/// strings (names, keywords); monetary amounts are stored as integer cents.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer (quantity, price in cents, foreign key…).
    Int(i64),
    /// A string (name, description, keyword…).
    Str(String),
}

impl Value {
    /// Reference to the string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// The integer contents, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// Interprets this value as a foreign key.
    pub fn as_fk(&self) -> Option<RowId> {
        self.as_int().and_then(|i| u64::try_from(i).ok()).map(RowId)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<RowId> for Value {
    fn from(v: RowId) -> Self {
        Value::Int(v.0 as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5), Value::Int(5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(RowId(9)), Value::Int(9));
        assert_eq!(Value::Int(9).as_fk(), Some(RowId(9)));
        assert_eq!(Value::Int(-1).as_fk(), None);
        assert_eq!(Value::Str("a".into()).as_int(), None);
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", Value::Int(3)), "3");
        assert_eq!(format!("{}", Value::Str(String::new())), "\"\"");
        assert_eq!(format!("{}", RowId(4)), "#4");
    }
}
