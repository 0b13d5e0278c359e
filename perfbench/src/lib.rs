//! The repository benchmark: three closed-loop workloads driven through the
//! structures' public APIs by 2 client threads.  See `README.md` beside this
//! package for the workloads, metrics and the layer → metric map; `run.py`
//! is the entry point that builds, runs and assembles the result.

pub mod engine;
pub mod hist;
pub mod input;
pub mod modes;
pub mod report;
pub mod subject;
