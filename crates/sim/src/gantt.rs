//! ASCII Gantt rendering of schedules — a debugging/demo aid.

use fairsched_core::model::{Time, Trace};
use fairsched_core::schedule::Schedule;

/// Renders the schedule as one text row per machine over `[0, horizon)`,
/// compressed to at most `width` columns. Each cell shows the organization
/// index (`0`–`9`, then `a`–`z`) of the job occupying the machine for the
/// majority of that cell's time span, or `.` when idle.
pub fn render_gantt(
    trace: &Trace,
    schedule: &Schedule,
    horizon: Time,
    width: usize,
) -> String {
    let info = trace.cluster_info();
    let m = info.n_machines();
    let width = width.clamp(1, horizon.max(1) as usize);
    let mut out = String::new();
    let cell_span = (horizon as f64 / width as f64).max(1.0);

    out.push_str(&format!(
        "t=0 {:·^width$} t={horizon}\n",
        "",
        width = width.saturating_sub(8).max(1)
    ));
    for machine in 0..m {
        let mut row = vec!['.'; width];
        for e in schedule.entries() {
            if e.machine.index() != machine {
                continue;
            }
            let start = e.start.min(horizon);
            let end = e.completion().min(horizon);
            if start >= end {
                continue;
            }
            let c0 = (start as f64 / cell_span) as usize;
            let c1 = (((end as f64) / cell_span).ceil() as usize).min(width);
            let symbol = org_symbol(e.org.index());
            for cell in row.iter_mut().take(c1).skip(c0) {
                *cell = symbol;
            }
        }
        let owner = info.owner(fairsched_core::MachineId(machine as u32));
        out.push_str(&format!(
            "M{machine:<3} (owner {:<4}) |{}|\n",
            format!("{owner}"),
            row.iter().collect::<String>()
        ));
    }
    out
}

fn org_symbol(index: usize) -> char {
    match index {
        0..=9 => (b'0' + index as u8) as char,
        10..=35 => (b'a' + (index - 10) as u8) as char,
        _ => '#',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_core::scheduler::FifoScheduler;
    use fairsched_core::Trace;

    #[test]
    fn renders_rows_per_machine() {
        let mut b = Trace::builder();
        let a = b.org("a", 2);
        let c = b.org("b", 1);
        b.job(a, 0, 4).job(c, 0, 8).job(a, 4, 4);
        let trace = b.build().unwrap();
        let r = crate::run_scheduler(
            &trace,
            &mut FifoScheduler::new(),
            crate::SimOptions { horizon: 8, validate: false },
        )
        .expect("valid run");
        let g = render_gantt(&trace, &r.schedule, 8, 8);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 machines
                                    // Machine rows contain org symbols and pipes.
        assert!(lines[1].contains('|'));
        assert!(g.contains('0'));
        assert!(g.contains('1'));
    }

    #[test]
    fn idle_machines_are_dots() {
        let mut b = Trace::builder();
        let a = b.org("a", 2);
        b.job(a, 0, 2);
        let trace = b.build().unwrap();
        let r = crate::run_scheduler(
            &trace,
            &mut FifoScheduler::new(),
            crate::SimOptions { horizon: 10, validate: false },
        )
        .expect("valid run");
        let g = render_gantt(&trace, &r.schedule, 10, 10);
        // The second machine never works: its row is all dots.
        let row2 = g.lines().nth(2).unwrap();
        assert!(row2.contains(".........."));
    }

    #[test]
    fn symbols_cover_many_orgs() {
        assert_eq!(org_symbol(0), '0');
        assert_eq!(org_symbol(9), '9');
        assert_eq!(org_symbol(10), 'a');
        assert_eq!(org_symbol(35), 'z');
        assert_eq!(org_symbol(99), '#');
    }
}
