//! Workspace root for the ADVOCAT reproduction.
//!
//! This thin facade re-exports the workspace crates so that the runnable
//! examples under `examples/` and the integration tests under `tests/` can
//! refer to everything through a single dependency. The real public API
//! lives in the [`advocat`] crate and the substrate crates it builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use advocat;
pub use advocat_automata as automata;
pub use advocat_deadlock as deadlock;
pub use advocat_explorer as explorer;
pub use advocat_frontend as frontend;
pub use advocat_invariants as invariants;
pub use advocat_logic as logic;
pub use advocat_noc as noc;
pub use advocat_num as num;
pub use advocat_protocols as protocols;
pub use advocat_xmas as xmas;
