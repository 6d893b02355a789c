//! Loader for genuine LogHub `*_structured.csv` files.
//!
//! When the real corpora are available (placed under `data/<Dataset>/`), every experiment
//! can be run against them instead of the synthetic generators. The structured CSV format
//! used by the LogHub benchmark has a header row and, per log line, a `Content` column
//! (the raw message) and an `EventId`/`EventTemplate` column (the ground-truth template).

use crate::generator::LabeledDataset;
use crate::template::TemplateSpec;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;

/// Load a LogHub structured CSV into a [`LabeledDataset`].
///
/// Only the `Content` and `EventId` (or `EventTemplate`) columns are used. Lines that fail
/// to parse are skipped; an error is returned only when the file cannot be read or has no
/// usable header.
pub fn load_structured_csv(name: &str, path: &Path) -> io::Result<LabeledDataset> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty CSV file"))?;
    let columns = parse_csv_line(header);
    let content_idx = find_column(&columns, &["Content"])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "CSV has no Content column"))?;
    let template_idx = find_column(&columns, &["EventTemplate", "EventId"]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "CSV has no EventTemplate or EventId column",
        )
    })?;

    let mut records = Vec::new();
    let mut labels = Vec::new();
    let mut template_ids: HashMap<String, usize> = HashMap::new();
    let mut templates: Vec<TemplateSpec> = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_csv_line(line);
        let (Some(content), Some(template)) = (fields.get(content_idx), fields.get(template_idx))
        else {
            continue;
        };
        let next_id = template_ids.len();
        let id = *template_ids.entry(template.clone()).or_insert(next_id);
        if id == templates.len() {
            // New template: store its text verbatim as a constant-only spec (the loader
            // does not try to infer variable kinds — ground truth is used only for
            // grouping accuracy, which needs the label, not the slot types).
            templates.push(TemplateSpec {
                id,
                segments: vec![crate::template::Segment::Const(template.clone())],
            });
        }
        records.push(content.clone());
        labels.push(id);
    }
    Ok(LabeledDataset {
        name: name.to_string(),
        records,
        labels,
        templates,
    })
}

/// Try to locate and load the real corpus for `name` under `data_dir`; fall back to `None`
/// when the file does not exist.
pub fn try_load_real(name: &str, data_dir: &Path) -> Option<LabeledDataset> {
    let candidates = [
        data_dir
            .join(name)
            .join(format!("{name}_2k.log_structured.csv")),
        data_dir
            .join(name)
            .join(format!("{name}_full.log_structured.csv")),
        data_dir.join(format!("{name}_2k.log_structured.csv")),
    ];
    for path in candidates {
        if path.exists() {
            if let Ok(ds) = load_structured_csv(name, &path) {
                if !ds.is_empty() {
                    return Some(ds);
                }
            }
        }
    }
    None
}

fn find_column(columns: &[String], names: &[&str]) -> Option<usize> {
    for name in names {
        if let Some(idx) = columns.iter().position(|c| c == name) {
            return Some(idx);
        }
    }
    None
}

/// Minimal CSV line parser handling quoted fields with embedded commas and doubled quotes.
fn parse_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    field.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' if field.is_empty() => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            _ => field.push(c),
        }
    }
    fields.push(field);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A CSV file holding `content`, named by `tag` so that tests running in parallel
    /// never write one file.
    fn write_temp_csv(tag: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bytebrain_loader_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test_{tag}_{}.csv", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    #[test]
    fn parses_simple_structured_csv() {
        let csv = "LineId,Content,EventId,EventTemplate\n\
                   1,Verification succeeded for blk_1,E1,Verification succeeded for <*>\n\
                   2,Verification succeeded for blk_2,E1,Verification succeeded for <*>\n\
                   3,Deleting block blk_9 file /tmp/x,E2,Deleting block <*> file <*>\n";
        let path = write_temp_csv("structured", csv);
        let ds = load_structured_csv("HDFS", &path).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.templates.len(), 2);
        assert_eq!(ds.labels, vec![0, 0, 1]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn quoted_fields_with_commas() {
        let fields = parse_csv_line(r#"1,"hello, world",E1"#);
        assert_eq!(fields, vec!["1", "hello, world", "E1"]);
    }

    #[test]
    fn doubled_quotes_are_unescaped() {
        let fields = parse_csv_line(r#"1,"say ""hi""",E1"#);
        assert_eq!(fields[1], r#"say "hi""#);
    }

    #[test]
    fn missing_content_column_is_an_error() {
        let path = write_temp_csv("no_content", "LineId,Message\n1,foo\n");
        assert!(load_structured_csv("X", &path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn try_load_real_missing_returns_none() {
        let missing = std::path::Path::new("/nonexistent/data/dir");
        assert!(try_load_real("HDFS", missing).is_none());
    }
}
