//! Campaign summaries: per-cell statistics, scaling-exponent fits, and
//! the deterministic `summary.json` / CSV renderings.

use super::checkpoint::Checkpoint;
use super::json::Json;
use super::spec::{CellSpec, FaultSpec, SweepSpec};
use crate::report::{fmt_num, Table};
use popele_math::fit::power_fit;
use popele_math::stats::Summary;

/// Digested view of one cell.
struct CellDigest {
    cell: CellSpec,
    n: u32,
    m: u64,
    steps: Summary,
    timeouts: usize,
    /// Reconvergence times (steps from the last fault to renewed
    /// stability) over recovered trials — empty for fault-free cells.
    reconvergence: Summary,
    /// Trials that ended with the unique leader permanently lost.
    leaders_lost: usize,
    /// Worst leader-count excursion observed across the cell's trials.
    peak_leaders: u32,
    /// Whether the cell ran the self-stabilization workload (its
    /// records carry holding metrics).
    has_holding: bool,
    /// Hold durations (steps the unique-leader configuration survived
    /// past election) over trials whose hold was violated in-budget.
    hold: Summary,
    /// Trials whose hold was still intact at the budget
    /// (right-censored holds).
    held_to_budget: usize,
}

/// Digests every runnable cell, in grid order.
fn digest(spec: &SweepSpec, checkpoint: &Checkpoint) -> Vec<CellDigest> {
    spec.cells()
        .into_iter()
        .filter(|cell| spec.cell_skip_reason(cell).is_none())
        .map(|cell| {
            let key = cell.key();
            let meta = checkpoint.cells.get(&key).copied().unwrap_or_default();
            let records = checkpoint.cell_records(&key);
            let steps: Summary = records
                .iter()
                .filter_map(|r| r.steps)
                .map(|s| s as f64)
                .collect();
            let timeouts = records.iter().filter(|r| r.steps.is_none()).count();
            let recoveries = || records.iter().filter_map(|r| r.recovery);
            let reconvergence: Summary = recoveries()
                .filter_map(|r| r.reconvergence_steps)
                .map(|s| s as f64)
                .collect();
            let holdings = || records.iter().filter_map(|r| r.holding);
            let hold: Summary = holdings()
                .filter_map(|h| h.hold)
                .map(|s| s as f64)
                .collect();
            CellDigest {
                cell,
                n: meta.n,
                m: meta.m,
                steps,
                timeouts,
                reconvergence,
                leaders_lost: recoveries().filter(|r| r.leader_lost).count(),
                peak_leaders: recoveries().map(|r| r.peak_leaders).max().unwrap_or(0),
                has_holding: holdings().next().is_some(),
                hold,
                held_to_budget: holdings().filter(|h| h.held_to_budget).count(),
            }
        })
        .collect()
}

/// A fitted scaling law for one (protocol, family, fault) row of the
/// grid.
struct FitDigest {
    protocol: String,
    family: String,
    fault: String,
    points: usize,
    exponent: f64,
    coefficient: f64,
    r_squared: f64,
}

/// Power-law fits of mean stabilization steps against the measured node
/// count, one per (protocol, family, fault) triple with at least two
/// cells that produced successful trials at distinct sizes. Fault
/// profiles fit separately — pooling perturbed and clean cells would
/// blur both laws. Timeout-only cells contribute no point — a fit over
/// censored data would be noise.
fn fits(spec: &SweepSpec, digests: &[CellDigest]) -> Vec<FitDigest> {
    let mut out = Vec::new();
    for &protocol in &spec.protocols {
        for &family in &spec.families {
            for &fault in &spec.faults {
                let points: Vec<(f64, f64)> = digests
                    .iter()
                    .filter(|d| {
                        d.cell.protocol == protocol
                            && d.cell.family == family
                            && d.cell.fault == fault
                            && !d.steps.is_empty()
                    })
                    .map(|d| (f64::from(d.n), d.steps.mean().max(1.0)))
                    .collect();
                let distinct_sizes = {
                    let mut xs: Vec<u64> = points.iter().map(|p| p.0 as u64).collect();
                    xs.sort_unstable();
                    xs.dedup();
                    xs.len()
                };
                if distinct_sizes < 2 {
                    continue;
                }
                let fit = power_fit(&points);
                out.push(FitDigest {
                    protocol: protocol.label().to_string(),
                    family: family.label().to_string(),
                    fault: fault.label().to_string(),
                    points: points.len(),
                    exponent: fit.exponent,
                    coefficient: fit.coefficient,
                    r_squared: fit.r_squared,
                });
            }
        }
    }
    out
}

/// The campaign's report tables (cells, scaling fits, and — when any —
/// skipped cells), ready for rendering and CSV export.
#[must_use]
pub fn tables(spec: &SweepSpec, checkpoint: &Checkpoint) -> Vec<Table> {
    let digests = digest(spec, checkpoint);
    let mut cells = Table::new(
        format!("sweep {} cells", spec.name),
        format!(
            "mean/median/quantiles of stabilization steps over successful trials; \
             budget {} steps/trial, master seed {}",
            spec.max_steps, spec.master_seed
        ),
        &[
            "protocol", "family", "size", "fault", "n", "m", "ok", "timeouts", "mean", "median",
            "q10", "q90",
        ],
    );
    for d in &digests {
        let stat = |v: f64| {
            if d.steps.is_empty() {
                "-".to_string()
            } else {
                fmt_num(v)
            }
        };
        cells.push_row(vec![
            d.cell.protocol.label().to_string(),
            d.cell.family.label().to_string(),
            d.cell.size.to_string(),
            d.cell.fault.label().to_string(),
            d.n.to_string(),
            d.m.to_string(),
            d.steps.len().to_string(),
            d.timeouts.to_string(),
            stat(d.steps.mean()),
            stat(if d.steps.is_empty() {
                0.0
            } else {
                d.steps.median()
            }),
            stat(if d.steps.is_empty() {
                0.0
            } else {
                d.steps.quantile(0.1)
            }),
            stat(if d.steps.is_empty() {
                0.0
            } else {
                d.steps.quantile(0.9)
            }),
        ]);
    }
    let mut fit_table = Table::new(
        format!("sweep {} scaling fits", spec.name),
        "power law mean_steps = C·n^a per (protocol, family, fault), over cells with successes",
        &[
            "protocol", "family", "fault", "points", "exponent", "C", "R^2",
        ],
    );
    for f in fits(spec, &digests) {
        fit_table.push_row(vec![
            f.protocol,
            f.family,
            f.fault,
            f.points.to_string(),
            fmt_num(f.exponent),
            fmt_num(f.coefficient),
            fmt_num(f.r_squared),
        ]);
    }
    let mut out = vec![cells, fit_table];

    if spec.faults.iter().any(|&f| f != FaultSpec::None) {
        let mut recovery = Table::new(
            format!("sweep {} recovery", spec.name),
            "per faulted cell: reconvergence steps after the last fault over recovered trials, \
             trials whose unique leader was permanently lost, and the worst leader-count \
             excursion",
            &[
                "protocol",
                "family",
                "size",
                "fault",
                "recovered",
                "lost",
                "peak",
                "reconv_mean",
                "reconv_median",
                "reconv_q90",
            ],
        );
        for d in digests.iter().filter(|d| d.cell.fault != FaultSpec::None) {
            let stat = |v: f64| {
                if d.reconvergence.is_empty() {
                    "-".to_string()
                } else {
                    fmt_num(v)
                }
            };
            recovery.push_row(vec![
                d.cell.protocol.label().to_string(),
                d.cell.family.label().to_string(),
                d.cell.size.to_string(),
                d.cell.fault.label().to_string(),
                d.reconvergence.len().to_string(),
                d.leaders_lost.to_string(),
                d.peak_leaders.to_string(),
                stat(d.reconvergence.mean()),
                stat(if d.reconvergence.is_empty() {
                    0.0
                } else {
                    d.reconvergence.median()
                }),
                stat(if d.reconvergence.is_empty() {
                    0.0
                } else {
                    d.reconvergence.quantile(0.9)
                }),
            ]);
        }
        out.push(recovery);
    }

    if digests.iter().any(|d| d.has_holding) {
        let mut holding = Table::new(
            format!("sweep {} holding", spec.name),
            "per self-stabilization cell (arbitrary starts): election steps, hold durations \
             over violated trials, and holds still intact at the budget (censored)",
            &[
                "protocol",
                "family",
                "size",
                "fault",
                "elected",
                "timeouts",
                "elect_mean",
                "hold_mean",
                "hold_q90",
                "censored",
            ],
        );
        for d in digests.iter().filter(|d| d.has_holding) {
            let elect = |v: f64| {
                if d.steps.is_empty() {
                    "-".to_string()
                } else {
                    fmt_num(v)
                }
            };
            let held = |v: f64| {
                if d.hold.is_empty() {
                    "-".to_string()
                } else {
                    fmt_num(v)
                }
            };
            holding.push_row(vec![
                d.cell.protocol.label().to_string(),
                d.cell.family.label().to_string(),
                d.cell.size.to_string(),
                d.cell.fault.label().to_string(),
                d.steps.len().to_string(),
                d.timeouts.to_string(),
                elect(d.steps.mean()),
                held(d.hold.mean()),
                held(if d.hold.is_empty() {
                    0.0
                } else {
                    d.hold.quantile(0.9)
                }),
                d.held_to_budget.to_string(),
            ]);
        }
        out.push(holding);
    }

    let skipped: Vec<(CellSpec, String)> = spec
        .cells()
        .into_iter()
        .filter_map(|c| spec.cell_skip_reason(&c).map(|r| (c, r)))
        .collect();
    if !skipped.is_empty() {
        let mut table = Table::new(
            format!("sweep {} skipped cells", spec.name),
            "cells excluded from execution, with the reason",
            &["protocol", "family", "size", "fault", "reason"],
        );
        for (c, reason) in skipped {
            table.push_row(vec![
                c.protocol.label().to_string(),
                c.family.label().to_string(),
                c.size.to_string(),
                c.fault.label().to_string(),
                reason,
            ]);
        }
        out.push(table);
    }
    out
}

/// Renders `summary.json`: everything the tables show, as raw values.
/// A pure function of (spec, checkpoint), rendered canonically — the
/// byte-identity guarantees of the campaign runner extend to this file.
#[must_use]
pub fn render(spec: &SweepSpec, checkpoint: &Checkpoint) -> String {
    let digests = digest(spec, checkpoint);
    let cells = digests
        .iter()
        .map(|d| {
            let stats = if d.steps.is_empty() {
                Json::Null
            } else {
                Json::Obj(vec![
                    ("mean".into(), Json::Num(d.steps.mean())),
                    ("median".into(), Json::Num(d.steps.median())),
                    ("q10".into(), Json::Num(d.steps.quantile(0.1))),
                    ("q90".into(), Json::Num(d.steps.quantile(0.9))),
                    ("min".into(), Json::Num(d.steps.min())),
                    ("max".into(), Json::Num(d.steps.max())),
                ])
            };
            let recovery = if d.cell.fault == FaultSpec::None {
                Json::Null
            } else {
                let reconv = if d.reconvergence.is_empty() {
                    Json::Null
                } else {
                    Json::Obj(vec![
                        ("mean".into(), Json::Num(d.reconvergence.mean())),
                        ("median".into(), Json::Num(d.reconvergence.median())),
                        ("q90".into(), Json::Num(d.reconvergence.quantile(0.9))),
                        ("max".into(), Json::Num(d.reconvergence.max())),
                    ])
                };
                Json::Obj(vec![
                    (
                        "recovered".into(),
                        Json::from_u64(d.reconvergence.len() as u64),
                    ),
                    ("lost".into(), Json::from_u64(d.leaders_lost as u64)),
                    (
                        "peak_leaders".into(),
                        Json::from_u64(u64::from(d.peak_leaders)),
                    ),
                    ("reconvergence".into(), reconv),
                ])
            };
            let holding = if !d.has_holding {
                Json::Null
            } else {
                let hold = if d.hold.is_empty() {
                    Json::Null
                } else {
                    Json::Obj(vec![
                        ("mean".into(), Json::Num(d.hold.mean())),
                        ("median".into(), Json::Num(d.hold.median())),
                        ("q90".into(), Json::Num(d.hold.quantile(0.9))),
                        ("max".into(), Json::Num(d.hold.max())),
                    ])
                };
                Json::Obj(vec![
                    ("violated".into(), Json::from_u64(d.hold.len() as u64)),
                    (
                        "held_to_budget".into(),
                        Json::from_u64(d.held_to_budget as u64),
                    ),
                    ("hold".into(), hold),
                ])
            };
            Json::Obj(vec![
                ("protocol".into(), Json::Str(d.cell.protocol.label().into())),
                ("family".into(), Json::Str(d.cell.family.label().into())),
                ("size".into(), Json::from_u64(u64::from(d.cell.size))),
                ("fault".into(), Json::Str(d.cell.fault.label().into())),
                ("n".into(), Json::from_u64(u64::from(d.n))),
                ("m".into(), Json::from_u64(d.m)),
                ("successes".into(), Json::from_u64(d.steps.len() as u64)),
                ("timeouts".into(), Json::from_u64(d.timeouts as u64)),
                ("steps".into(), stats),
                ("recovery".into(), recovery),
                ("holding".into(), holding),
            ])
        })
        .collect();
    let fit_rows = fits(spec, &digests)
        .into_iter()
        .map(|f| {
            Json::Obj(vec![
                ("protocol".into(), Json::Str(f.protocol)),
                ("family".into(), Json::Str(f.family)),
                ("fault".into(), Json::Str(f.fault)),
                ("points".into(), Json::from_u64(f.points as u64)),
                ("exponent".into(), Json::Num(f.exponent)),
                ("coefficient".into(), Json::Num(f.coefficient)),
                ("r_squared".into(), Json::Num(f.r_squared)),
            ])
        })
        .collect();
    let skipped = spec
        .cells()
        .into_iter()
        .filter_map(|c| {
            spec.cell_skip_reason(&c).map(|reason| {
                Json::Obj(vec![
                    ("protocol".into(), Json::Str(c.protocol.label().into())),
                    ("family".into(), Json::Str(c.family.label().into())),
                    ("size".into(), Json::from_u64(u64::from(c.size))),
                    ("fault".into(), Json::Str(c.fault.label().into())),
                    ("reason".into(), Json::Str(reason)),
                ])
            })
        })
        .collect();
    Json::Obj(vec![
        ("campaign".into(), Json::Str(spec.name.clone())),
        ("fingerprint".into(), Json::Str(spec.fingerprint())),
        // As a string: JSON numbers are f64, which cannot hold every u64.
        (
            "master_seed".into(),
            Json::Str(spec.master_seed.to_string()),
        ),
        ("cells".into(), Json::Arr(cells)),
        ("fits".into(), Json::Arr(fit_rows)),
        ("skipped".into(), Json::Arr(skipped)),
    ])
    .render()
}
