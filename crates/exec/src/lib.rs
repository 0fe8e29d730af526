//! Execution primitives for the crawl orchestrator.
//!
//! This crate is deliberately tiny and dependency-free. It holds two
//! things:
//!
//! * [`Sequencer`] — the orchestrator's one scheduling primitive. Workers
//!   claim ascending positions from a shared counter, may only start a
//!   position inside the window `[base, base + cap)`, and park its result
//!   in a slot; the single consumer takes results in position order and
//!   advances `base`. One mutex and two condvars give the in-flight cap,
//!   the reorder buffer and timeout-free liveness.
//! * [`memmeter`] — the counting allocator the bench harness, the
//!   supervisor's allocation budget and the bounded-memory regression
//!   tests share.
//!
//! Neither knows anything about crawling; the determinism and liveness
//! argument lives in `DESIGN.md` §10 next to the orchestrator that uses
//! the sequencer.

#![deny(unsafe_code)]

pub mod memmeter;
pub mod sequencer;

pub use sequencer::Sequencer;
