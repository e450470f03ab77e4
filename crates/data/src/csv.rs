//! Minimal CSV persistence for raw datasets.
//!
//! Format: a two-line header followed by data rows.
//!
//! ```text
//! #schema,num,cat:3,num          <- column kinds (cat:<cardinality>)
//! #meta,<name>,<protected_attr_index>
//! age,city,sex,__target__
//! 10,1,1,1
//! ,0,0,0                          <- empty cell = missing
//! ```
//!
//! This keeps the synthetic suite inspectable and lets users bring their own
//! data without another dependency.

use crate::dataset::{Column, RawDataset};
use std::fmt::Write as _;
use std::path::Path;

/// Serializes a raw dataset to the CSV format described in the module docs.
pub fn to_csv_string(raw: &RawDataset) -> String {
    let mut out = String::new();
    // Schema line.
    out.push_str("#schema");
    for (_, col) in &raw.columns {
        match col {
            Column::Numeric(_) => out.push_str(",num"),
            Column::Categorical { cardinality, .. } => {
                let _ = write!(out, ",cat:{cardinality}");
            }
        }
    }
    out.push('\n');
    let _ = writeln!(out, "#meta,{},{}", raw.name, raw.protected_attr);
    // Header line.
    let names: Vec<&str> = raw.columns.iter().map(|(n, _)| n.as_str()).collect();
    let _ = writeln!(out, "{},__target__", names.join(","));
    // Data rows.
    for i in 0..raw.n_rows() {
        for (j, (_, col)) in raw.columns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match col {
                Column::Numeric(v) => {
                    if !v[i].is_nan() {
                        let _ = write!(out, "{}", v[i]);
                    }
                }
                Column::Categorical { codes, .. } => {
                    if let Some(c) = codes[i] {
                        let _ = write!(out, "{c}");
                    }
                }
            }
        }
        let _ = writeln!(out, ",{}", if raw.target[i] { 1 } else { 0 });
    }
    out
}

/// Parses a dataset back from [`to_csv_string`]'s format.
pub fn from_csv_string(s: &str) -> Result<RawDataset, String> {
    let mut lines = s.lines();
    let schema_line = lines.next().ok_or("missing schema line")?;
    let schema = schema_line
        .strip_prefix("#schema,")
        .ok_or("first line must start with #schema,")?;
    let kinds: Vec<&str> = schema.split(',').collect();

    let meta_line = lines.next().ok_or("missing meta line")?;
    let meta = meta_line.strip_prefix("#meta,").ok_or("second line must start with #meta,")?;
    let (name, protected) = meta.rsplit_once(',').ok_or("meta line needs name,protected")?;
    let protected_attr: usize =
        protected.trim().parse().map_err(|e| format!("bad protected index: {e}"))?;

    let header = lines.next().ok_or("missing header line")?;
    let names: Vec<&str> = header.split(',').collect();
    if names.len() != kinds.len() + 1 {
        return Err(format!(
            "header has {} columns, schema has {} (+ target)",
            names.len(),
            kinds.len()
        ));
    }
    if names.last() != Some(&"__target__") {
        return Err("last header column must be __target__".into());
    }

    let mut columns: Vec<(String, Column)> = kinds
        .iter()
        .zip(&names)
        .map(|(kind, name)| {
            let col = if *kind == "num" {
                Ok(Column::Numeric(Vec::new()))
            } else if let Some(card) = kind.strip_prefix("cat:") {
                card.parse::<u32>()
                    .map(|cardinality| Column::Categorical { codes: Vec::new(), cardinality })
                    .map_err(|e| format!("bad cardinality in '{kind}': {e}"))
            } else {
                Err(format!("unknown column kind '{kind}'"))
            };
            col.map(|c| (name.to_string(), c))
        })
        .collect::<Result<_, String>>()?;
    let mut target = Vec::new();

    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != columns.len() + 1 {
            return Err(format!("row {lineno}: expected {} cells, got {}", columns.len() + 1, cells.len()));
        }
        for (cell, (_, col)) in cells.iter().zip(columns.iter_mut()) {
            match col {
                Column::Numeric(v) => v.push(if cell.is_empty() {
                    f64::NAN
                } else {
                    cell.parse().map_err(|e| format!("row {lineno}: bad number '{cell}': {e}"))?
                }),
                Column::Categorical { codes, .. } => codes.push(if cell.is_empty() {
                    None
                } else {
                    Some(cell.parse().map_err(|e| format!("row {lineno}: bad code '{cell}': {e}"))?)
                }),
            }
        }
        // The row has exactly one cell past the feature columns: the target.
        target.push(match cells[columns.len()] {
            "1" => true,
            "0" => false,
            other => return Err(format!("row {lineno}: target must be 0/1, got '{other}'")),
        });
    }

    let raw = RawDataset { name: name.to_string(), columns, target, protected_attr };
    raw.validate()?;
    Ok(raw)
}

/// Writes a raw dataset to disk.
pub fn save(raw: &RawDataset, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_csv_string(raw))
}

/// Reads a raw dataset from disk.
pub fn load(path: &Path) -> Result<RawDataset, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    from_csv_string(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate_raw, tiny_spec};

    #[test]
    fn roundtrip_preserves_everything() {
        let mut spec = tiny_spec();
        spec.missing_rate = 0.1;
        let raw = generate_raw(&spec, 3);
        let parsed = from_csv_string(&to_csv_string(&raw)).expect("roundtrip parse");
        assert_eq!(parsed.name, raw.name);
        assert_eq!(parsed.protected_attr, raw.protected_attr);
        assert_eq!(parsed.target, raw.target);
        assert_eq!(parsed.columns.len(), raw.columns.len());
        for ((n1, c1), (n2, c2)) in raw.columns.iter().zip(&parsed.columns) {
            assert_eq!(n1, n2);
            match (c1, c2) {
                (Column::Numeric(a), Column::Numeric(b)) => {
                    for (x, y) in a.iter().zip(b) {
                        assert!(x.is_nan() && y.is_nan() || (x - y).abs() < 1e-9);
                    }
                }
                (c1, c2) => assert_eq!(c1, c2),
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(from_csv_string("").is_err());
        assert!(from_csv_string("#schema,num\nbad meta\n").is_err());
        assert!(from_csv_string("#schema,wat\n#meta,x,0\na,__target__\n").is_err());
        // Target must be binary.
        let bad = "#schema,num\n#meta,x,0\na,__target__\n1.0,2\n";
        assert!(from_csv_string(bad).unwrap_err().contains("target"));
        // Cell count mismatch.
        let ragged = "#schema,num\n#meta,x,0\na,__target__\n1.0,1,9\n";
        assert!(from_csv_string(ragged).is_err());
    }

    #[test]
    fn file_io_roundtrip() {
        let raw = generate_raw(&tiny_spec(), 9);
        let dir = std::env::temp_dir().join("dfs_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.csv");
        save(&raw, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.target, raw.target);
        std::fs::remove_file(&path).ok();
    }
}
