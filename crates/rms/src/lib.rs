//! # aequus-rms
//!
//! Local resource-manager substrate: the systems Aequus integrates *into*
//! (§III). One [`scheduler::SchedulerCore`] serves both of the paper's
//! integration modes, selected by its [`scheduler::ReprioritizePolicy`]:
//!
//! * [`ReprioritizePolicy::Interval`] — SLURM's priority plugin, rerun once
//!   per recalculation interval (`PriorityCalcPeriod`);
//! * [`ReprioritizePolicy::EveryCycle`] — Maui's patched call-outs,
//!   recomputing priorities on every scheduling iteration.
//!
//! The scheduler prioritizes with a [`multifactor`] linear combination of
//! `[0, 1]` factors (fairshare, age, QoS, size) and dispatches onto a
//! virtual [`nodes::NodePool`] through a pluggable
//! [`dispatch::DispatchPolicy`] (FIFO, EASY, Conservative, or SAF backfill)
//! fed by the [`predict`] runtime estimators. The fairshare factor itself
//! comes through the [`plugin::FairshareSource`] seam — either the full
//! Aequus stack (global fairshare) or the classic
//! [`plugin::LocalFairshare`] baseline it replaces.

#![warn(missing_docs)]

pub mod dispatch;
pub mod job;
pub mod multifactor;
pub mod nodes;
pub mod plugin;
pub mod predict;
pub mod scheduler;

pub use dispatch::{
    pick_next, ConservativeBackfill, DispatchConfig, DispatchOrder, DispatchPlan, DispatchPolicy,
    EasyBackfill, FifoDispatch, PlannedStart, QueuedJob, RunningSlice, SafBackfill,
};
pub use job::{Job, JobState};
pub use multifactor::{
    explain_combined, FactorConfig, FactorTerm, PriorityBreakdown, PriorityWeights,
};
pub use nodes::NodePool;
pub use plugin::{FairshareSource, LocalFairshare};
pub use predict::{MispredictPolicy, PredictionStats, PredictorKind, RuntimePredictor};
pub use scheduler::{ReprioritizePolicy, SchedulerCore, SchedulerStats, SLOWDOWN_TAU_S};
