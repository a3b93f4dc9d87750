//! # eslurm-simclock
//!
//! The deterministic discrete-event simulation (DES) core used by every
//! other crate in the ESlurm reproduction: a virtual clock ([`SimTime`] /
//! [`SimSpan`]), a total-ordered [`EventQueue`], and seeded random streams
//! ([`rng`]).
//!
//! Determinism contract: given the same master seed and configuration, every
//! simulation built on this crate produces identical output, because
//! (a) events tie-break on insertion sequence and (b) each stochastic
//! component owns an independent derived RNG stream.
//!
//! For the emulator's engine, [`keyed`] provides the canonical ordering
//! `(time, lane, seq)`, which depends on who created an event and not on
//! the order of pushes, and a slab-backed [`KeyedQueue`] that pops in it.

pub mod keyed;
pub mod queue;
pub mod rng;
pub mod time;

pub use keyed::{EventKey, KeyedQueue, SYSTEM_LANE};
pub use queue::EventQueue;
pub use time::{SimSpan, SimTime};
