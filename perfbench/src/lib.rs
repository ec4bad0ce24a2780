//! Seeded benchmark of the three paths the paper evaluates: the fleet
//! replay (`fleet_day`), the commit path (`commit_stream`) and the serving
//! path (a probe in both). See `README.md` for the metrics and predictions.

pub mod commit;
pub mod fleet;
pub mod report;
pub mod run;
pub mod serve;
