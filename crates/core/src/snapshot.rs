//! Checkpoint / restore for simulation backends.
//!
//! ROADMAP item 4: cluster-scale studies re-run every cell from t=0 even
//! when cells share a long identical prefix and differ only in a late
//! decision (a CC change, an injected failure, a placement tweak at time
//! t). [`Snapshot`] makes the *pay-only-for-the-suffix* alternative
//! possible: simulate the shared prefix once, [`Snapshot::checkpoint`]
//! the backend (and the scheduler driver, which is `Clone`), then
//! [`Snapshot::restore`] per what-if continuation.
//!
//! ## The bit-identity contract
//!
//! Checkpoint-at-t followed by restore-and-continue must produce output
//! **byte-identical** to a straight-through run — not approximately
//! equal, identical: the same makespan, the same per-flow records, the
//! same RNG draws, the same event pop order. This is what lets branched
//! sweep reports be diffed against straight-through goldens
//! (`tests/goldens/branch_smoke.json`) and what
//! `tests/determinism_golden.rs` pins per backend on clean and faulted
//! cells.
//!
//! ## The rule that makes it hold
//!
//! A backend is **immutable configuration plus one state value**:
//!
//! * Everything fixed at construction (topology, LogGOPS parameters, the
//!   configured fault schedule, debug flags) lives on the backend and is
//!   never assigned after `new`.
//! * Everything the event loop mutates — clock, event queue (cursor and
//!   tie-break sequence included), matcher slabs, RNG, per-flow/per-port
//!   engine state, counters — lives in the backend's single `s: State`
//!   field and nowhere else. `checkpoint` is `self.s.clone()`, `restore`
//!   is `self.s.clone_from(state)`, and `simulation_setup` builds one
//!   fresh state from the configuration, so a field cannot be forgotten
//!   by either: there is no per-field list to forget it in.
//! * **Overrides are state.** A what-if override applied mid-run (an
//!   injected fault window, a switched CC algorithm or link model, a
//!   straggler table) changes the state's *effective* copy of that
//!   setting, which starts out as the configuration's. A restore or the
//!   next `simulation_setup` therefore undoes every override by
//!   construction.
//! * **What the state refers to is state.** The packet engine interns
//!   routes into an arena and its flows and packets hold offsets into it;
//!   the arena rides in the state with them, so a state is self-contained:
//!   it restores into *any* backend built from the same configuration —
//!   the one it came from, or a freshly constructed one that was never
//!   set up. Restoring into a differently-configured backend is a
//!   contract violation.
//!
//! `tests/property_backends.rs` checks all of it at random pause points
//! for every backend and fault regime.
//!
//! `restore` takes `&State` (not `State`): one checkpoint fans out into
//! N what-if continuations, so states are reused, never consumed.

/// Checkpoint/restore of a backend's complete mutable simulation state.
///
/// Implemented by `IdealBackend`, `LgsBackend`, the htsim engine, and the
/// fluid-flow testbed emulator (`atlahs_testbed::TestbedBackend`).
/// See the module docs for the bit-identity contract and the rule that
/// keeps it.
pub trait Snapshot {
    /// The captured state. `Clone` so one checkpoint can seed many
    /// branches.
    type State: Clone;

    /// Capture the backend's complete mutable state at the current
    /// simulated time.
    fn checkpoint(&self) -> Self::State;

    /// Reset the backend to a previously captured state. The backend
    /// must have been constructed with the same configuration as the one
    /// `state` was captured from.
    fn restore(&mut self, state: &Self::State);
}
