//! Failure accounting for the `fleet` workload: which grid cells were not
//! computed exactly once, or left a missing or unreadable artifact behind.

use store::Event;

/// The verdict over one distributed grid run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetAudit {
    /// Cells in the grid (one operation each).
    pub attempted: u64,
    /// Cells counted as failed (see [`audit`]).
    pub failed: u64,
    /// `CellCompleted` events beyond one per cell.
    pub duplicate_completions: u64,
    /// One line per failed cell, saying why.
    pub problems: Vec<String>,
}

/// Audits a finished distributed grid run.
///
/// A cell fails when its journal holds other than exactly one
/// `CellCompleted` event, or when `artifacts` (the store's public loaders)
/// reports its checkpoint, attack-cache entries or outcome missing or
/// unreadable. Each worker that returned an error adds one failed operation:
/// the cell it was working on when it stopped.
pub fn audit(
    cells: &[String],
    events: &[Event],
    worker_errors: u64,
    artifacts: impl Fn(&str) -> Result<(), String>,
) -> FleetAudit {
    let mut out = FleetAudit {
        attempted: cells.len() as u64,
        ..FleetAudit::default()
    };
    for cell in cells {
        let completions = events
            .iter()
            .filter(|e| matches!(e, Event::CellCompleted { cell: c, .. } if c == cell))
            .count() as u64;
        out.duplicate_completions += completions.saturating_sub(1);
        let mut why = Vec::new();
        if completions != 1 {
            why.push(format!("{completions} CellCompleted events"));
        }
        if let Err(e) = artifacts(cell) {
            why.push(e);
        }
        if !why.is_empty() {
            out.failed += 1;
            out.problems
                .push(format!("cell {cell}: {}", why.join("; ")));
        }
    }
    if worker_errors > 0 {
        out.problems
            .push(format!("{worker_errors} worker(s) stopped with an error"));
    }
    out.failed = (out.failed + worker_errors).min(out.attempted);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(cell: &str) -> Event {
        Event::CellCompleted {
            cell: cell.to_string(),
            pid: 7,
        }
    }

    fn cells() -> Vec<String> {
        ["a", "b", "c"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_clean_journal_has_no_failures() {
        let events = vec![
            Event::CellStarted { cell: "a".into() },
            completed("a"),
            completed("b"),
            completed("c"),
        ];
        let audit = audit(&cells(), &events, 0, |_| Ok(()));
        assert_eq!(audit.attempted, 3);
        assert_eq!(audit.failed, 0);
        assert_eq!(audit.duplicate_completions, 0);
        assert!(audit.problems.is_empty());
    }

    #[test]
    fn duplicate_and_missing_completions_fail_their_cells() {
        let events = vec![
            completed("a"),
            completed("a"),
            completed("a"),
            completed("b"),
        ];
        let audit = audit(&cells(), &events, 0, |_| Ok(()));
        assert_eq!(audit.failed, 2, "a computed three times, c never");
        assert_eq!(audit.duplicate_completions, 2);
        assert!(audit.problems[0].contains("cell a: 3 CellCompleted"));
        assert!(audit.problems[1].contains("cell c: 0 CellCompleted"));
    }

    #[test]
    fn unreadable_artifacts_and_worker_errors_count_as_failures() {
        let events = vec![completed("a"), completed("b"), completed("c")];
        let broken = audit(&cells(), &events, 1, |cell| {
            if cell == "b" {
                Err("checkpoint missing".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(broken.failed, 2);
        assert!(broken.problems[0].contains("cell b: checkpoint missing"));
        // Failures never exceed the cells attempted.
        let crashed = audit(&cells(), &[], 9, |_| Ok(()));
        assert_eq!(crashed.failed, 3);
    }
}
