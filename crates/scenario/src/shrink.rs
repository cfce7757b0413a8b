//! Delta-debugging shrinker for failing scenarios.
//!
//! Given a spec that fails some oracle (an audit violation, a liveness
//! stall, a replay divergence), [`shrink_spec`] searches for a smaller
//! spec that *still* fails, so the committed corpus entry — and the human
//! reading it — sees only the faults that matter. The search is greedy
//! delta debugging in four passes, run to a fixpoint:
//!
//! 1. **Event removal** — drop one fault event at a time; keep the removal
//!    if the spec still fails. At the fixpoint the spec is *1-minimal*:
//!    removing any single remaining event makes the failure vanish.
//! 2. **Byzantine-client reduction** — decrement `byz_clients` toward 0.
//! 3. **Fault simplification** — weaken events toward their mildest form
//!    (an amnesia restart becomes a warm restart), so the repro names the
//!    durability machinery only when it is essential to the failure.
//! 4. **Window narrowing** — halve each remaining event's window toward
//!    its start (1 ms granularity), shortening the repro.
//!
//! Every candidate is checked with [`ScenarioSpec::validate`] first, so
//! the shrinker never hands the oracle (which typically runs a full
//! simulation) an ill-formed spec.

use crate::spec::{FaultEvent, RecoveryMode, ScenarioSpec};

/// Outcome of a shrink run: the smallest still-failing spec found and how
/// many oracle invocations the search spent.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized spec (still fails the oracle).
    pub spec: ScenarioSpec,
    /// Number of times the oracle ran (each is typically a simulation).
    pub oracle_runs: u64,
}

/// Narrows `ev`'s window to roughly half, toward the start. Returns `None`
/// when the event has no window or it can't shrink further.
fn narrowed(ev: &FaultEvent) -> Option<FaultEvent> {
    let halve = |start: u64, end: u64| -> Option<u64> {
        let mid = start + (end - start) / 2;
        (mid > start).then_some(mid)
    };
    let mut out = ev.clone();
    match &mut out {
        FaultEvent::Crash {
            at_ms,
            restart_ms: Some(r),
            ..
        } => *r = halve(*at_ms, *r)?,
        FaultEvent::Link {
            at_ms, until_ms, ..
        } => *until_ms = halve(*at_ms, *until_ms)?,
        FaultEvent::Misbehave {
            at_ms,
            revert_ms: Some(r),
            ..
        } => *r = halve(*at_ms, *r)?,
        _ => return None,
    }
    Some(out)
}

/// Weakens `ev` one notch toward its mildest form. Returns `None` when it
/// is already as mild as it gets.
fn simplified(ev: &FaultEvent) -> Option<FaultEvent> {
    let mut out = ev.clone();
    match &mut out {
        FaultEvent::Crash {
            recovery: recovery @ RecoveryMode::Amnesia,
            ..
        } => *recovery = RecoveryMode::Warm,
        _ => return None,
    }
    Some(out)
}

/// Shrinks `spec` against `still_fails` and returns the smallest
/// still-failing spec found. `still_fails` must return `true` for the
/// original spec (asserted); it is only ever called with valid specs.
pub fn shrink_spec(
    spec: &ScenarioSpec,
    mut still_fails: impl FnMut(&ScenarioSpec) -> bool,
) -> ShrinkResult {
    let mut runs: u64 = 0;
    let mut fails = |candidate: &ScenarioSpec| -> bool {
        if candidate.validate().is_err() {
            return false;
        }
        runs += 1;
        still_fails(candidate)
    };
    assert!(
        fails(spec),
        "shrink_spec needs a failing spec to start from"
    );
    let mut best = spec.clone();

    loop {
        let before_events = best.faults.len();
        let before_byz = best.byz_clients;
        let before = best.clone();

        // Pass 1: greedy single-event removal to a fixpoint (1-minimality).
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = 0;
            while i < best.faults.len() {
                let mut candidate = best.clone();
                candidate.faults.remove(i);
                if fails(&candidate) {
                    best = candidate;
                    changed = true;
                    // Same index now holds the next event.
                } else {
                    i += 1;
                }
            }
        }

        // Pass 2: fewer Byzantine clients.
        while best.byz_clients > 0 {
            let mut candidate = best.clone();
            candidate.byz_clients -= 1;
            if fails(&candidate) {
                best = candidate;
            } else {
                break;
            }
        }

        // Pass 3: weaken events toward their mildest form (amnesia restarts
        // become warm restarts when the WAL/catch-up path is incidental).
        for i in 0..best.faults.len() {
            if let Some(ev) = simplified(&best.faults[i]) {
                let mut candidate = best.clone();
                candidate.faults[i] = ev;
                if fails(&candidate) {
                    best = candidate;
                }
            }
        }

        // Pass 4: narrow each event's window toward its start.
        for i in 0..best.faults.len() {
            while let Some(ev) = narrowed(&best.faults[i]) {
                let mut candidate = best.clone();
                candidate.faults[i] = ev;
                if fails(&candidate) {
                    best = candidate;
                } else {
                    break;
                }
            }
        }

        // Later passes can unlock earlier ones (a narrowed window can make
        // another event removable), so iterate to a joint fixpoint.
        if best.faults.len() == before_events && best.byz_clients == before_byz && best == before {
            break;
        }
    }

    ShrinkResult {
        spec: best,
        oracle_runs: runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{base_spec, partition, FaultEvent, RecoveryMode, Selector};
    use basil_common::Duration;
    use basil_simnet::LinkFaultKind;

    /// A planted synthetic bug: the "failure" fires iff the spec both
    /// crashes replica 2 and cuts a link (one half of a partition). Cheap
    /// to evaluate, so the minimality property can be checked
    /// exhaustively.
    fn planted_bug(spec: &ScenarioSpec) -> bool {
        let crashes_r2 = spec
            .faults
            .iter()
            .any(|ev| matches!(ev, FaultEvent::Crash { replica: 2, .. }));
        let cuts = spec.faults.iter().any(|ev| {
            matches!(ev, FaultEvent::Link {
                kind: LinkFaultKind::Drop { probability },
                ..
            } if *probability >= 1.0)
        });
        crashes_r2 && cuts
    }

    /// A noisy spec that triggers the planted bug: the two essential events
    /// are buried among irrelevant ones.
    fn noisy_failing_spec() -> ScenarioSpec {
        let mut spec = base_spec();
        spec.name = "planted".into();
        spec.budget.crash = 3;
        spec.budget.deceit = 1;
        spec.f = 3; // room for several benign targets within the budget
        let mut faults = vec![
            FaultEvent::Link {
                kind: LinkFaultKind::Drop { probability: 0.1 },
                from: Selector::Any,
                to: Selector::Any,
                at_ms: 40,
                until_ms: 120,
            },
            FaultEvent::Crash {
                replica: 2,
                at_ms: 50,
                restart_ms: Some(90),
                recovery: RecoveryMode::Amnesia,
            },
            FaultEvent::Link {
                kind: LinkFaultKind::Delay {
                    extra: Duration::from_micros(200),
                },
                from: Selector::Clients,
                to: Selector::Replicas,
                at_ms: 30,
                until_ms: 130,
            },
            FaultEvent::SlowReplica {
                replica: 9,
                cores: 1,
            },
        ];
        faults.splice(3..3, partition(7, 60, 110));
        spec.faults = faults;
        assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        assert!(planted_bug(&spec));
        spec
    }

    #[test]
    fn planted_bug_shrinks_to_its_essential_events() {
        let spec = noisy_failing_spec();
        let result = shrink_spec(&spec, planted_bug);
        let shrunk = result.spec;
        assert!(planted_bug(&shrunk), "shrunk spec still reproduces");
        assert!(
            shrunk.faults.iter().all(|ev| !matches!(
                ev,
                FaultEvent::Crash {
                    recovery: RecoveryMode::Amnesia,
                    ..
                }
            )),
            "the planted bug ignores recovery mode, so the amnesia crash \
             simplifies to a warm one: {:?}",
            shrunk.faults
        );
        assert!(
            shrunk.faults.len() <= 3,
            "shrunk to <= 3 events, got {:?}",
            shrunk.faults
        );
        assert_eq!(shrunk.faults.len(), 2, "exactly the two essential events");
        assert_eq!(shrunk.byz_clients, 0, "byz clients were irrelevant");
    }

    #[test]
    fn essential_amnesia_survives_simplification() {
        let needs_amnesia = |spec: &ScenarioSpec| {
            spec.faults.iter().any(|ev| {
                matches!(
                    ev,
                    FaultEvent::Crash {
                        recovery: RecoveryMode::Amnesia,
                        ..
                    }
                )
            })
        };
        let result = shrink_spec(&noisy_failing_spec(), needs_amnesia);
        assert!(needs_amnesia(&result.spec), "amnesia was essential");
        assert_eq!(result.spec.faults.len(), 1, "{:?}", result.spec.faults);
    }

    #[test]
    fn shrunk_spec_is_one_minimal() {
        let result = shrink_spec(&noisy_failing_spec(), planted_bug);
        let shrunk = result.spec;
        for i in 0..shrunk.faults.len() {
            let mut smaller = shrunk.clone();
            smaller.faults.remove(i);
            assert!(
                smaller.validate().is_err() || !planted_bug(&smaller),
                "removing event {i} still fails: not 1-minimal"
            );
        }
    }

    #[test]
    fn shrinking_preserves_validity() {
        let result = shrink_spec(&noisy_failing_spec(), planted_bug);
        result.spec.validate().expect("shrunk spec is valid");
        assert!(result.oracle_runs > 0);
    }

    #[test]
    #[should_panic(expected = "failing spec")]
    fn rejects_a_passing_spec() {
        shrink_spec(&base_spec(), |_| false);
    }
}
