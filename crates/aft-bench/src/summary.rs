//! Aggregates every `BENCH_*.json` report into one machine-readable
//! `BENCH_summary.json`.
//!
//! Each tracked experiment of `runner::EXPERIMENTS` writes its own report
//! (throughput, pipelining, recovery, service, ...). This module collects whatever reports exist in
//! a directory into a single trajectory document, so the bench history is
//! one file per checkout: CI uploads it, and future PRs can diff their
//! numbers against the last one without knowing every experiment's schema.
//!
//! The aggregation is schema-agnostic: for every report it records the
//! `experiment` name and every *top-level* numeric field, plus the numeric
//! fields of a top-level `summary` object (flattened as `summary.<key>`).
//! Experiments keep their headline metrics top-level precisely so they show
//! up here.

use std::path::Path;

use crate::json::Json;
use crate::report::Table;

/// One aggregated report.
#[derive(Debug, Clone)]
pub struct BenchSource {
    /// File name (e.g. `BENCH_throughput.json`).
    pub file: String,
    /// The report's `experiment` field (file stem when absent).
    pub experiment: String,
    /// Every top-level (and `summary.`-flattened) numeric metric.
    pub metrics: Vec<(String, f64)>,
}

fn numeric_fields(prefix: &str, value: &Json, out: &mut Vec<(String, f64)>) {
    if let Json::Obj(pairs) = value {
        for (key, field) in pairs {
            if let Some(n) = field.as_f64() {
                out.push((format!("{prefix}{key}"), n));
            }
        }
    }
}

/// Parses one report document into a [`BenchSource`].
pub fn summarize_report(file: &str, report: &Json) -> BenchSource {
    let experiment = report
        .get("experiment")
        .and_then(|e| e.as_str())
        .map(str::to_owned)
        .unwrap_or_else(|| {
            file.trim_start_matches("BENCH_")
                .trim_end_matches(".json")
                .to_owned()
        });
    let mut metrics = Vec::new();
    numeric_fields("", report, &mut metrics);
    if let Some(summary) = report.get("summary") {
        numeric_fields("summary.", summary, &mut metrics);
        // One more level: some summaries group per backend/configuration
        // (e.g. fig2_pipelined's `{"S3": {"commit": 2.55, ...}, ...}`).
        if let Json::Obj(pairs) = summary {
            for (group, value) in pairs {
                numeric_fields(&format!("summary.{group}."), value, &mut metrics);
            }
        }
    }
    BenchSource {
        file: file.to_owned(),
        experiment,
        metrics,
    }
}

/// Scans `dir` for `BENCH_*.json` (excluding the summary itself and files
/// that fail to parse) and returns the parsed sources, sorted by file name.
pub fn collect_bench_reports(dir: &Path) -> std::io::Result<Vec<BenchSource>> {
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") || name == "BENCH_summary.json" {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(report) = Json::parse(&text) else {
            continue;
        };
        sources.push(summarize_report(&name, &report));
    }
    sources.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(sources)
}

/// Renders the aggregated trajectory document.
pub fn trajectory_json(sources: &[BenchSource]) -> Json {
    let rows = sources
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("file", Json::str(&s.file)),
                ("experiment", Json::str(&s.experiment)),
                (
                    "metrics",
                    Json::Obj(
                        s.metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::str("bench_summary")),
        ("sources", Json::Num(sources.len() as f64)),
        ("trajectory", Json::Arr(rows)),
    ])
}

/// Renders the trajectory as an aligned text table.
pub fn trajectory_table(sources: &[BenchSource]) -> Table {
    let mut table = Table::new(
        "Bench trajectory — headline metrics of every BENCH_*.json",
        &["report", "experiment", "headline metrics"],
    );
    for source in sources {
        let headline = source
            .metrics
            .iter()
            .take(4)
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("  ");
        table.add_row(vec![
            source.file.clone(),
            source.experiment.clone(),
            headline,
        ]);
    }
    table
}

/// Aggregates `dir`'s reports and writes `BENCH_summary.json` there.
/// Returns the sources for printing.
pub fn aggregate_bench_reports(dir: &Path) -> std::io::Result<Vec<BenchSource>> {
    let sources = collect_bench_reports(dir)?;
    let rendered = trajectory_json(&sources).render();
    std::fs::write(dir.join("BENCH_summary.json"), rendered)?;
    Ok(sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aft-bench-summary-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn aggregates_reports_and_ignores_noise() {
        let dir = temp_dir("basic");
        std::fs::write(
            dir.join("BENCH_alpha.json"),
            r#"{"experiment": "alpha", "peak_rps": 1200.5, "anomalies": 0, "label": "x",
                "summary": {"cells": 27, "lost_commits": 0}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_beta.json"),
            r#"{"ops": 42}"#, // no experiment field: named from the file
        )
        .unwrap();
        std::fs::write(dir.join("BENCH_broken.json"), "{not json").unwrap();
        std::fs::write(dir.join("unrelated.json"), r#"{"x": 1}"#).unwrap();

        let sources = aggregate_bench_reports(&dir).unwrap();
        assert_eq!(sources.len(), 2, "broken + unrelated files are skipped");
        assert_eq!(sources[0].experiment, "alpha");
        assert!(sources[0]
            .metrics
            .contains(&("summary.cells".to_owned(), 27.0)));
        assert!(sources[0]
            .metrics
            .contains(&("peak_rps".to_owned(), 1200.5)));
        assert_eq!(sources[1].experiment, "beta");

        // The written summary parses and is itself excluded from re-runs.
        let text = std::fs::read_to_string(dir.join("BENCH_summary.json")).unwrap();
        let summary = Json::parse(&text).unwrap();
        assert_eq!(
            summary.get("experiment").unwrap().as_str().unwrap(),
            "bench_summary"
        );
        assert_eq!(summary.get("sources").unwrap().as_f64().unwrap(), 2.0);
        let again = aggregate_bench_reports(&dir).unwrap();
        assert_eq!(
            again.len(),
            2,
            "BENCH_summary.json does not aggregate itself"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trajectory_table_renders_one_row_per_source() {
        let sources = vec![
            summarize_report(
                "BENCH_a.json",
                &Json::parse(r#"{"experiment": "a", "x": 1}"#).unwrap(),
            ),
            summarize_report(
                "BENCH_b.json",
                &Json::parse(r#"{"experiment": "b", "y": 2.5}"#).unwrap(),
            ),
        ];
        let table = trajectory_table(&sources);
        assert_eq!(table.len(), 2);
        let rendered = table.render();
        assert!(rendered.contains("BENCH_a.json"));
        assert!(rendered.contains("y=2.5"));
    }
}
