//! Closed-loop serving benchmark for the CREDENCE REST server.
//!
//! The benchmark boots the real server stack in-process (`AppState` plus
//! `Server::bind`), drives it from `nproc` client threads with at most one
//! connection each, checks every response, and reports end-to-end metrics
//! (`--trace 0`) or per-layer metrics from a separate traced run
//! (`--trace 1`). See `README.md` in this directory.

pub mod checks;
pub mod client;
pub mod layers;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
