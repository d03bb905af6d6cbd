//! BENCH.md's recorded-baseline tables, rendered from `BENCH_engine.json`.
//!
//! The `bench_engine` bench writes the JSON baseline and, on a full run,
//! re-renders the block of BENCH.md between [`BEGIN`] and [`END`] from
//! it; a unit test fails whenever the committed block differs from the
//! render of the committed JSON, so no number in it is copied by hand.

#![warn(missing_docs)]

use popele_lab::sweep::json::Json;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Opens the generated block of BENCH.md.
pub const BEGIN: &str =
    "<!-- BEGIN tables generated from BENCH_engine.json by bench_engine; do not edit -->";
/// Closes the generated block of BENCH.md.
pub const END: &str = "<!-- END generated tables -->";

/// Caption and column headings of each generated table, in render order.
/// Every table's first column is the workload.
const TABLES: [(&str, &[&str]); 7] = [
    (
        "Per-agent races (speedup = generic median / compiled median, \
         where compiled is the dense or lazy engine of the row):",
        &["engine", "generic median", "compiled median", "speedup"],
    ),
    (
        "The lazy hand-off (`handoff_gain` = lazy executor alone / trial \
         driver with the hand-off):",
        &["with hand-off", "lazy executor alone", "handoff_gain"],
    ),
    (
        "Implicit vs materialized clique (generic engine on both sides; \
         speedup = materialized / implicit):",
        &["materialized median", "implicit median", "speedup"],
    ),
    (
        "Count tier (standalone: no per-agent engine can build these \
         populations):",
        &["agents", "median", "interactions/s"],
    ),
    ("Ahead-of-time compile (standalone):", &["states", "median"]),
    (
        "Campaign scheduler (speedup = serial / worker pool):",
        &["workers", "serial median", "pool median", "speedup"],
    ),
    (
        "Checkpoint save (`io_ratio` = full rewrite / one journal append):",
        &[
            "shards",
            "rewrite median",
            "journal append median",
            "io_ratio",
        ],
    ),
];

/// Path of a file at the workspace root.
#[must_use]
pub fn workspace_file(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name)
}

/// Renders the recorded-baseline tables of a `BENCH_engine.json` text:
/// the host line, then one markdown table per kind of row.
///
/// # Errors
///
/// Returns a message when the text is not JSON, when a row lacks a field
/// its table needs, or when a row's `engine` has no table.
pub fn render_tables(baseline: &str) -> Result<String, String> {
    let root = Json::parse(baseline)?;
    let host = root.get("host").ok_or("baseline has no host")?;
    let mut out = format!(
        "\nHost: {} logical CPUs, {}, AVX-512 {}.\n",
        int(host, "nproc")?,
        text(host, "cpu_model")?,
        if host.get("avx512") == Some(&Json::Bool(true)) {
            "yes"
        } else {
            "no"
        },
    );
    let mut rows: [Vec<String>; TABLES.len()] = Default::default();
    for row in root
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("baseline has no workloads array")?
    {
        let workload = text(row, "workload")?;
        let engine = text(row, "engine")?;
        let (table, cells) = match engine {
            "dense" | "lazy" => (
                0,
                vec![
                    engine.to_string(),
                    duration(row, "generic_median_ns")?,
                    duration(row, &format!("{engine}_median_ns"))?,
                    ratio(row, "speedup", 2, true)?,
                ],
            ),
            "implicit" => (
                2,
                vec![
                    duration(row, "materialized_median_ns")?,
                    duration(row, "implicit_median_ns")?,
                    ratio(row, "speedup", 2, true)?,
                ],
            ),
            "count" => (
                3,
                vec![
                    format!("{:e}", num(row, "num_agents")?),
                    duration(row, "count_median_ns")?,
                    row.get("steps_per_sec")
                        .and_then(Json::as_f64)
                        .map_or("–".into(), |s| format!("{s:.2e}")),
                ],
            ),
            "aot" => (
                4,
                vec![int(row, "num_states")?, duration(row, "compile_median_ns")?],
            ),
            "workers" => (
                5,
                vec![
                    int(row, "num_workers")?,
                    duration(row, "serial_median_ns")?,
                    duration(row, "workers_median_ns")?,
                    ratio(row, "speedup", 2, true)?,
                ],
            ),
            "journal" => (
                6,
                vec![
                    int(row, "num_shards")?,
                    duration(row, "rewrite_median_ns")?,
                    duration(row, "journal_append_median_ns")?,
                    ratio(row, "io_ratio", 1, false)?,
                ],
            ),
            other => return Err(format!("{workload}: no table for engine {other:?}")),
        };
        rows[table].push(table_row(workload, &cells));
        if row.get("no_handoff_median_ns").is_some() {
            let cells = [
                duration(row, "lazy_median_ns")?,
                duration(row, "no_handoff_median_ns")?,
                ratio(row, "handoff_gain", 2, true)?,
            ];
            rows[1].push(table_row(workload, &cells));
        }
    }
    for ((caption, columns), rows) in TABLES.iter().zip(&rows) {
        if rows.is_empty() {
            continue;
        }
        let _ = write!(
            out,
            "\n{caption}\n\n| workload | {} |\n|---|{}\n",
            columns.join(" | "),
            "---|".repeat(columns.len())
        );
        for row in rows {
            out.push_str(row);
        }
    }
    out.push('\n');
    Ok(out)
}

/// `bench_md` with the block between [`BEGIN`] and [`END`] replaced by
/// `tables` (see [`render_tables`]).
///
/// # Errors
///
/// Returns a message when a marker is missing.
pub fn splice_tables(bench_md: &str, tables: &str) -> Result<String, String> {
    let start = bench_md.find(BEGIN).ok_or("BENCH.md has no BEGIN marker")? + BEGIN.len();
    let end = start
        + bench_md[start..]
            .find(END)
            .ok_or("BENCH.md has no END marker after its BEGIN marker")?;
    Ok(format!(
        "{}{tables}{}",
        &bench_md[..start],
        &bench_md[end..]
    ))
}

fn table_row(workload: &str, cells: &[String]) -> String {
    format!("| `{workload}` | {} |\n", cells.join(" | "))
}

fn field<'a>(row: &'a Json, key: &str) -> Result<&'a Json, String> {
    row.get(key)
        .ok_or_else(|| format!("baseline row has no {key:?}: {}", row.render_compact()))
}

fn text<'a>(row: &'a Json, key: &str) -> Result<&'a str, String> {
    field(row, key)?
        .as_str()
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn num(row: &Json, key: &str) -> Result<f64, String> {
    field(row, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn int(row: &Json, key: &str) -> Result<String, String> {
    field(row, key)?
        .as_u64()
        .map(|v| v.to_string())
        .ok_or_else(|| format!("{key:?} is not an integer"))
}

/// A ratio at the precision the baseline records it, bold for the
/// headline columns.
fn ratio(row: &Json, key: &str, decimals: usize, bold: bool) -> Result<String, String> {
    let v = num(row, key)?;
    Ok(if bold {
        format!("**{v:.decimals$}×**")
    } else {
        format!("{v:.decimals$}×")
    })
}

/// A median in nanoseconds, to three significant digits in the largest
/// unit that keeps it at least 1.
fn duration(row: &Json, key: &str) -> Result<String, String> {
    let ns = num(row, key)?;
    let (v, unit) = [(1e9, "s"), (1e6, "ms"), (1e3, "µs")]
        .into_iter()
        .find(|&(scale, _)| ns >= scale)
        .map_or((ns, "ns"), |(scale, unit)| (ns / scale, unit));
    let decimals = if v >= 100.0 {
        0
    } else if v >= 10.0 {
        1
    } else {
        2
    };
    Ok(format!("{v:.decimals$} {unit}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_md_tables_match_bench_engine_json() {
        let read = |name| {
            std::fs::read_to_string(workspace_file(name))
                .unwrap_or_else(|e| panic!("{name} is readable: {e}"))
        };
        let bench_md = read("BENCH.md");
        let baseline = read("BENCH_engine.json");
        let tables = render_tables(&baseline).unwrap();
        assert!(
            bench_md == splice_tables(&bench_md, &tables).unwrap(),
            "BENCH.md's generated tables differ from BENCH_engine.json. A full \
             `cargo bench -p popele-bench --bench bench_engine` rewrites both; \
             after editing the JSON by hand, replace the block with:\n{tables}"
        );
    }

    #[test]
    fn rows_without_a_table_are_refused() {
        let baseline = r#"{"host": {"nproc": 1, "cpu_model": "x", "avx512": false},
            "workloads": [{"workload": "w", "engine": "new", "median_ns": 1}]}"#;
        let err = render_tables(baseline).unwrap_err();
        assert!(err.contains("no table for engine \"new\""), "{err}");
    }
}
