//! The campaign benchmark's library: workload specs, the traced replay
//! of a campaign through each layer's public functions, and per-call
//! probes. `src/main.rs` drives them; `run.py` drives the binary.

pub mod probes;
pub mod replay;
pub mod trace;
pub mod workloads;

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);
