//! Training/evaluation harness for the TGLite reproduction.
//!
//! Provides the pieces the paper's evaluation (§5) is built from:
//!
//! * [`metrics::average_precision`] — the AP score reported in every
//!   accuracy table;
//! * [`Trainer`] — epoch loop with chronological batching, negative
//!   sampling, BCE loss, Adam, and per-epoch timing;
//! * [`runner`] — experiment configuration (framework × model ×
//!   dataset × data placement) and [`run`], the one run path behind
//!   `tgl train|eval`, the quickstart and [`run_experiment`]: it
//!   returns the timing/accuracy numbers each table/figure needs and
//!   writes the artifacts [`ObsOptions`] asks for;
//! * [`table`] — fixed-width text rendering for paper-style tables;
//! * [`health`] — training-health monitor: NaN/Inf sentinels with a
//!   configurable policy (`--health warn|fail`) and per-epoch
//!   gradient-norm / update-ratio / loss-trend gauges;
//! * [`profrep`] — roofline-annotated rendering of the span
//!   aggregate's op rows (`tgl_obs::profile`): top-k table with
//!   achieved GFLOP/s and compute- vs bandwidth-bound verdicts,
//!   per-phase attribution coverage, and the per-stage table;
//! * [`flightdump`] — flight-recorder dump policy: a std panic hook
//!   ([`install_flight_hook`]) plus explicit dumps on health-fail
//!   trips, writing `flight-<ts>.json` post-mortems to
//!   `TGL_FLIGHT_DIR`.

#![forbid(unsafe_code)]

pub mod args;
pub mod flightdump;
pub mod health;
pub mod metrics;
pub mod profrep;
pub mod report;
pub mod runner;
pub mod table;
mod trainer;

pub use args::Args;
pub use runner::{
    run, run_experiment, run_experiment_with_capacity, ExperimentConfig, ExperimentResult, Framework,
    ModelKind, ObsOptions, Placement, RunError,
};
pub use flightdump::install_flight_hook;
pub use health::{EpochHealth, HealthMonitor, HealthPolicy};
pub use report::{EpochReport, HealthSection, RunReport, RunReporter};
pub use tgl_runtime::process_cpu_seconds;
pub use trainer::{CpuTimer, EpochStats, TrainConfig, Trainer};
