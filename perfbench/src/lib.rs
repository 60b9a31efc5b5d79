//! A benchmark of the hosted exq service: seeded workloads driven over
//! loopback TCP against `serve_event`, every answer checked against a
//! plaintext oracle, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md`.

pub mod drive;
mod host;
mod oracle;
pub mod output;
pub mod schedule;
mod spans;
pub mod stats;
