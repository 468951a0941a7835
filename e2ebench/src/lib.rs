//! The arithmetic of the repository benchmark, kept apart from the
//! workloads so it can be tested on hand-built inputs:
//!
//! * [`stats`] — medians, nearest-rank percentiles, the
//!   "highest percentile with at least ten samples beyond it" rule, and
//!   the lag/failure extraction from per-window stream lags;
//! * [`procfs`] — parsing the process CPU and peak-RSS readings;
//! * [`report`] — the result line the benchmark prints last;
//! * [`trace`] — the in-memory span recorder of the traced run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod procfs;
pub mod report;
pub mod stats;
pub mod trace;
