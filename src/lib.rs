//! Workspace root for the ADVOCAT reproduction.
//!
//! The package owns the runnable examples under `examples/` and the
//! integration tests under `tests/`, which depend on the workspace crates
//! directly; the public API lives in the [`advocat`] crate and the
//! substrate crates it builds on.  The library itself exports nothing: it
//! only compiles the README's Rust snippets as doctests, so
//! `cargo test --doc` keeps them from rotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
