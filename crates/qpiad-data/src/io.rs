//! CSV import/export for relations.
//!
//! The paper's datasets were scraped tables; downstream users of this
//! library will have their own CSV extracts. This module reads a CSV with a
//! header row into a [`Relation`] (inferring integer vs. categorical
//! columns, treating empty fields and a configurable null token as missing
//! values) and writes relations back out. The dialect is RFC-4180-style:
//! comma separated, double-quote quoting, quotes escaped by doubling — no
//! external dependency needed for this subset.

use std::fmt::Write as _;
use std::sync::Arc;

use qpiad_db::{AttrType, Relation, Schema, Tuple, TupleId, Value};

/// CSV parsing options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Relation name recorded in the schema.
    pub relation_name: String,
    /// Token (besides the empty string) treated as a missing value.
    pub null_token: String,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            relation_name: "csv".into(),
            null_token: "null".into(),
        }
    }
}

/// A CSV parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input had no header row.
    MissingHeader,
    /// A data row had the wrong number of fields.
    ArityMismatch {
        /// 1-based line number of the offending row.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based line number where the field started.
        line: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => f.write_str("CSV input has no header row"),
            CsvError::ArityMismatch {
                line,
                found,
                expected,
            } => write!(
                f,
                "CSV line {line}: expected {expected} fields, found {found}"
            ),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "CSV line {line}: unterminated quoted field")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Splits CSV text into records of fields, honouring quotes (which may
/// contain commas and newlines).
fn parse_records(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut field_start_line = 1usize;
    let mut chars = text.chars().peekable();

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() => {
                in_quotes = true;
                field_start_line = line;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
            }
            '\r' => {} // tolerate CRLF
            '\n' => {
                line += 1;
                record.push(std::mem::take(&mut field));
                // Skip completely empty trailing lines.
                if !(record.len() == 1 && record[0].is_empty()) {
                    records.push(std::mem::take(&mut record));
                } else {
                    record.clear();
                }
            }
            _ => field.push(c),
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote {
            line: field_start_line,
        });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        if !(record.len() == 1 && record[0].is_empty()) {
            records.push(record);
        }
    }
    Ok(records)
}

/// Parses CSV text (header + data rows) into a relation.
///
/// Column types are inferred: a column where every non-null field parses as
/// an `i64` becomes [`AttrType::Integer`], otherwise it is categorical.
/// Empty fields and `options.null_token` (case-insensitive) become nulls.
pub fn relation_from_csv(text: &str, options: &CsvOptions) -> Result<Relation, CsvError> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = iter.next().ok_or(CsvError::MissingHeader)?;
    let arity = header.len();

    let rows: Vec<Vec<String>> = iter.collect();
    for (i, row) in rows.iter().enumerate() {
        if row.len() != arity {
            return Err(CsvError::ArityMismatch {
                line: i + 2,
                found: row.len(),
                expected: arity,
            });
        }
    }

    let is_null = |s: &str| s.is_empty() || s.eq_ignore_ascii_case(&options.null_token);

    // Every cell is parsed exactly once, before any typing decision. The
    // old two-pass scheme (infer with `parse().is_ok()`, build with
    // `parse().expect(...)`) panicked whenever the passes disagreed —
    // e.g. an i64 overflow that one pass accepted and the other didn't.
    enum RawCell {
        Null,
        Int(i64),
        Text,
    }
    let raw: Vec<Vec<RawCell>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|s| {
                    let s = s.trim();
                    if is_null(s) {
                        RawCell::Null
                    } else {
                        s.parse::<i64>().map(RawCell::Int).unwrap_or(RawCell::Text)
                    }
                })
                .collect()
        })
        .collect();

    // Type inference per column: integer iff no non-null cell failed to
    // parse.
    let mut types = vec![AttrType::Integer; arity];
    for (col, ty) in types.iter_mut().enumerate() {
        if raw.iter().any(|row| matches!(row[col], RawCell::Text)) {
            *ty = AttrType::Categorical;
        }
    }

    let schema = Schema::new(
        options.relation_name.clone(),
        header
            .iter()
            .zip(&types)
            .map(|(name, ty)| qpiad_db::Attribute::new(name.trim(), *ty))
            .collect(),
    );
    let tuples = rows
        .iter()
        .zip(&raw)
        .enumerate()
        .map(|(i, (row, raw_row))| {
            let values = row
                .iter()
                .zip(raw_row)
                .zip(&types)
                .map(|((s, cell), ty)| match (ty, cell) {
                    (_, RawCell::Null) => Value::Null,
                    (AttrType::Integer, RawCell::Int(v)) => Value::int(*v),
                    // A column inferred integer holds only Int/Null cells;
                    // any other combination keeps the raw text.
                    _ => Value::str(s.trim()),
                })
                .collect();
            Tuple::new(TupleId(i as u32), values)
        })
        .collect();
    // The per-row arity pre-check above guarantees this cannot fail, but
    // ingestion must never abort on malformed input: route through the
    // fallible constructor so a future logic bug degrades to an error.
    Relation::try_new(schema, tuples).map_err(|_| CsvError::ArityMismatch {
        line: 0,
        found: 0,
        expected: arity,
    })
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders a relation as CSV text (header + rows); nulls become empty
/// fields.
pub fn relation_to_csv(relation: &Relation) -> String {
    let schema: &Arc<Schema> = relation.schema();
    let mut out = String::new();
    let header: Vec<String> = schema
        .attributes()
        .iter()
        .map(|a| escape(a.name()))
        .collect();
    let _ = writeln!(out, "{}", header.join(","));
    for t in relation.tuples() {
        let row: Vec<String> = t
            .values()
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Int(i) => i.to_string(),
                Value::Str(s) => escape(s),
            })
            .collect();
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cars::CarsConfig;
    use crate::corrupt::{corrupt, CorruptionConfig};

    const SAMPLE: &str = "\
make,model,year,price
Honda,Civic,2004,9500
Honda,Accord,,12000
BMW,\"Z4, Roadster\",2003,null
,\"Quote \"\"EX\"\"\",2001,8000
";

    #[test]
    fn parses_header_types_and_nulls() {
        let r = relation_from_csv(SAMPLE, &CsvOptions::default()).unwrap();
        assert_eq!(r.len(), 4);
        let s = r.schema();
        assert_eq!(s.attr(s.expect_attr("make")).ty(), AttrType::Categorical);
        assert_eq!(s.attr(s.expect_attr("year")).ty(), AttrType::Integer);
        assert_eq!(s.attr(s.expect_attr("price")).ty(), AttrType::Integer);

        let year = s.expect_attr("year");
        let price = s.expect_attr("price");
        let make = s.expect_attr("make");
        let model = s.expect_attr("model");
        // Empty field and "null" token are nulls.
        assert!(r.tuples()[1].value(year).is_null());
        assert!(r.tuples()[2].value(price).is_null());
        assert!(r.tuples()[3].value(make).is_null());
        // Quoted comma and escaped quotes survive.
        assert_eq!(r.tuples()[2].value(model), &Value::str("Z4, Roadster"));
        assert_eq!(r.tuples()[3].value(model), &Value::str("Quote \"EX\""));
        assert_eq!(r.tuples()[0].value(price), &Value::int(9500));
    }

    #[test]
    fn round_trips_generated_data() {
        let ground = CarsConfig::default().with_rows(300).generate(9);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let text = relation_to_csv(&ed);
        let back = relation_from_csv(
            &text,
            &CsvOptions {
                relation_name: "cars".into(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(back.len(), ed.len());
        for (a, b) in ed.tuples().iter().zip(back.tuples()) {
            assert_eq!(a.values(), b.values());
        }
        // Schema types survive the round trip.
        for (a, b) in ed
            .schema()
            .attributes()
            .iter()
            .zip(back.schema().attributes())
        {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.ty(), b.ty());
        }
    }

    #[test]
    fn mixed_columns_fall_back_to_categorical() {
        let text = "x\n1\ntwo\n3\n";
        let r = relation_from_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(
            r.schema().attr(qpiad_db::AttrId(0)).ty(),
            AttrType::Categorical
        );
        assert_eq!(r.tuples()[0].value(qpiad_db::AttrId(0)), &Value::str("1"));
    }

    #[test]
    fn later_rows_contradicting_integer_inference_fall_back_to_text() {
        // The first rows parse as i64; a later row overflows it. The old
        // two-pass parser panicked here ("inference guaranteed integer");
        // the column must instead fall back to categorical with every
        // value's text preserved.
        let text = "n,m\n1,a\n2,b\n99999999999999999999,c\n";
        let r = relation_from_csv(text, &CsvOptions::default()).unwrap();
        let n = r.schema().expect_attr("n");
        assert_eq!(r.schema().attr(n).ty(), AttrType::Categorical);
        assert_eq!(r.tuples()[0].value(n), &Value::str("1"));
        assert_eq!(r.tuples()[2].value(n), &Value::str("99999999999999999999"));
    }

    #[test]
    fn reports_arity_mismatches_with_line_numbers() {
        let text = "a,b\n1,2\n3\n";
        let err = relation_from_csv(text, &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err,
            CsvError::ArityMismatch {
                line: 3,
                found: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn reports_unterminated_quotes() {
        let text = "a\n\"open\n";
        let err = relation_from_csv(text, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn empty_input_is_missing_header() {
        assert_eq!(
            relation_from_csv("", &CsvOptions::default()).unwrap_err(),
            CsvError::MissingHeader
        );
    }

    #[test]
    fn quoted_newlines_stay_in_field() {
        let text = "a,b\n\"line1\nline2\",x\n";
        let r = relation_from_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.tuples()[0].value(qpiad_db::AttrId(0)),
            &Value::str("line1\nline2")
        );
    }

    #[test]
    fn crlf_is_tolerated() {
        let text = "a,b\r\n1,2\r\n";
        let r = relation_from_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].value(qpiad_db::AttrId(1)), &Value::int(2));
    }
}
