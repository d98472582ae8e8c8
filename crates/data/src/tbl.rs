//! dbgen-style `.tbl` import/export.
//!
//! TPC-H's `dbgen` writes pipe-separated rows with a trailing pipe:
//!
//! ```text
//! 0|ALGERIA|0|haggle. carefully final deposits detect slyly agai|
//! ```
//!
//! [`read_tbl`] parses such text against a target schema with per-column
//! types, so a real `dbgen` output directory can be loaded into a
//! [`Database`](crate::Database) and run through the same queries as the
//! synthetic generator. [`write_tbl`] produces the same format.

use crate::dict::Dictionary;
use crate::error::DataError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Declared type of a `.tbl` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Parsed as `i64`.
    Int,
    /// Taken verbatim as a string.
    Text,
}

/// Parses dbgen-style pipe-separated text into a relation encoded in
/// `dict` (typically the target [`Database`](crate::Database)'s
/// dictionary, so registering it re-encodes nothing).
///
/// * one row per non-empty line,
/// * fields separated by `|`, with an optional trailing `|`,
/// * `types.len()` must equal the schema arity; extra fields in a line are
///   an error, missing ones too.
pub fn read_tbl(
    reader: impl BufRead,
    schema: Schema,
    types: &[ColumnType],
    dict: &Arc<Dictionary>,
) -> Result<Relation> {
    if types.len() != schema.arity() {
        return Err(DataError::ArityMismatch {
            context: "read_tbl column types".into(),
            expected: schema.arity(),
            actual: types.len(),
        });
    }
    let mut rel = Relation::new_in(schema, dict);
    for (line_no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| DataError::ArityMismatch {
            context: format!("I/O error reading line {}: {e}", line_no + 1),
            expected: 0,
            actual: 0,
        })?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        let body = trimmed.strip_suffix('|').unwrap_or(trimmed);
        let fields: Vec<&str> = body.split('|').collect();
        if fields.len() != types.len() {
            return Err(DataError::ArityMismatch {
                context: format!("line {} of .tbl input", line_no + 1),
                expected: types.len(),
                actual: fields.len(),
            });
        }
        let mut row = Vec::with_capacity(types.len());
        for (field, ty) in fields.iter().zip(types.iter()) {
            match ty {
                ColumnType::Int => {
                    let value: i64 =
                        field.trim().parse().map_err(|_| DataError::ArityMismatch {
                            context: format!(
                                "line {}: expected integer, got {field:?}",
                                line_no + 1
                            ),
                            expected: 0,
                            actual: 0,
                        })?;
                    row.push(Value::Int(value));
                }
                ColumnType::Text => row.push(Value::str(*field)),
            }
        }
        rel.push_row(row)?;
    }
    Ok(rel)
}

/// Writes a relation in dbgen format (pipe-separated, trailing pipe).
pub fn write_tbl(rel: &Relation, mut writer: impl Write) -> std::io::Result<()> {
    for row in rel.rows() {
        for value in row {
            match value {
                Value::Int(i) => write!(writer, "{i}|")?,
                Value::Str(s) => write!(writer, "{s}|")?,
            }
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nation_schema() -> Schema {
        Schema::new(["n_nationkey", "n_name", "n_regionkey"]).unwrap()
    }

    #[test]
    fn parses_dbgen_lines() {
        let input = "0|ALGERIA|0|\n1|ARGENTINA|1|\n";
        let rel = read_tbl(
            input.as_bytes(),
            nation_schema(),
            &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(0)[1], Value::str("ALGERIA"));
        assert_eq!(rel.row(1)[2], Value::Int(1));
    }

    #[test]
    fn accepts_missing_trailing_pipe_and_blank_lines() {
        let input = "0|ALGERIA|0\n\n1|ARGENTINA|1|\n";
        let rel = read_tbl(
            input.as_bytes(),
            nation_schema(),
            &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let input = "0|ALGERIA|\n";
        let err = read_tbl(
            input.as_bytes(),
            nation_schema(),
            &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
            &Arc::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn rejects_non_integer() {
        let input = "zero|ALGERIA|0|\n";
        assert!(read_tbl(
            input.as_bytes(),
            nation_schema(),
            &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
            &Arc::default(),
        )
        .is_err());
    }

    #[test]
    fn rejects_type_arity_mismatch() {
        let dict = Arc::default();
        assert!(read_tbl("".as_bytes(), nation_schema(), &[ColumnType::Int], &dict).is_err());
    }

    #[test]
    fn roundtrip_write_then_read() {
        let rel = Relation::from_rows(
            nation_schema(),
            vec![
                vec![Value::Int(7), Value::str("GERMANY"), Value::Int(3)],
                vec![Value::Int(24), Value::str("UNITED STATES"), Value::Int(1)],
            ],
        )
        .unwrap();
        let mut buffer = Vec::new();
        write_tbl(&rel, &mut buffer).unwrap();
        let back = read_tbl(
            buffer.as_slice(),
            nation_schema(),
            &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn strings_with_spaces_survive() {
        let input = "20|SAUDI ARABIA|4|\n";
        let rel = read_tbl(
            input.as_bytes(),
            nation_schema(),
            &[ColumnType::Int, ColumnType::Text, ColumnType::Int],
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(rel.row(0)[1], Value::str("SAUDI ARABIA"));
    }
}
