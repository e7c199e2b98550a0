//! Shared execution harness for the `paper` binary's commands: the
//! three chores every table and ablation has — generate a
//! deterministic input wave, run a plan on the simulator and assert
//! the output against the host reference, assemble a
//! label-plus-columns table.

use parafft::Complex32;
use xmt_fft::plan::XmtFftPlan;
use xmt_fft::run::{host_reference, plan_builder, read_result, rel_error, MachineRun};
use xmt_sim::XmtConfig;

/// Deterministic complex test wave: `(sin(i·fa), cos(i·fb))`.
pub fn sample_wave(n: usize, fa: f32, fb: f32) -> Vec<Complex32> {
    (0..n)
        .map(|i| Complex32::new((i as f32 * fa).sin(), (i as f32 * fb).cos()))
        .collect()
}

/// Load program, twiddles and input into a fresh machine, run it and
/// validate the result against the host reference library. Panics
/// with `what` context if the simulation fails or the transform is
/// numerically wrong — the regenerator commands must never print
/// numbers from a wrong FFT.
pub fn run_plan_validated(
    plan: &XmtFftPlan,
    cfg: &XmtConfig,
    input: &[Complex32],
    what: &str,
) -> MachineRun {
    let mut m = plan_builder(plan, cfg, input).build();
    let report = m.run().expect(what);
    let output = read_result(plan, &m);
    let err = rel_error(&host_reference(plan, input), &output);
    assert!(err < 1e-3, "{what}: simulated FFT wrong: rel err {err}");
    MachineRun { output, report }
}

/// A table assembled row by row: a corner label, one header per
/// column, and labeled rows of cells. Replaces the per-binary
/// `once(label).chain(values)` boilerplate.
#[derive(Debug, Default)]
pub struct ColumnTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ColumnTable {
    /// Start a table with the corner cell and the column headers.
    pub fn new<I>(corner: &str, columns: I) -> Self
    where
        I: IntoIterator,
        I::Item: ToString,
    {
        let headers = std::iter::once(corner.to_string())
            .chain(columns.into_iter().map(|c| c.to_string()))
            .collect();
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Append a labeled row; `cells` must yield one value per column.
    pub fn row<I>(&mut self, label: &str, cells: I) -> &mut Self
    where
        I: IntoIterator,
        I::Item: ToString,
    {
        let row: Vec<String> = std::iter::once(label.to_string())
            .chain(cells.into_iter().map(|c| c.to_string()))
            .collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Render with the shared aligned-column formatter.
    pub fn render(&self) -> String {
        let href: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        crate::fmt::render_table(&href, &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_table_shapes_and_renders() {
        let mut t = ColumnTable::new("", ["a", "b"]);
        t.row("x", [1, 2]).row("y", [3, 4]);
        let s = t.render();
        assert!(s.contains('a') && s.contains('4'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn column_table_rejects_ragged_rows() {
        ColumnTable::new("", ["a", "b"]).row("x", [1]);
    }

    #[test]
    fn run_plan_validated_round_trips() {
        let plan = XmtFftPlan::new_1d(64, 2);
        let cfg = XmtConfig::xmt_4k().scaled_to(4);
        let x = sample_wave(64, 0.11, 0.07);
        let run = run_plan_validated(&plan, &cfg, &x, "runner self-test");
        assert_eq!(run.report.spawns.len(), plan.num_stages());
        assert!(run.report.stats.cycles > 0);
    }
}
