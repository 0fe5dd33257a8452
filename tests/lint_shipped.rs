//! Every shipped artifact passes the linter: the committed `netlists/`
//! goldens and the full design library produce zero diagnostics. A failure here means a new rule fires on a
//! shipped design — fix the design, adjust the rule, or allowlist the
//! specific finding here with a comment explaining why it is acceptable.

use eblocks::lint::{lint_design, lint_netlist};

fn render(report: &eblocks::lint::LintReport) -> String {
    report
        .diagnostics
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn committed_netlists_lint_clean() {
    let mut checked = 0;
    for file in std::fs::read_dir("netlists").unwrap() {
        let path = file.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let report = lint_netlist(&text);
        assert!(
            report.is_clean(),
            "{} must lint clean but reported:\n{}",
            path.display(),
            render(&report)
        );
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} netlists checked");
}

#[test]
fn library_designs_lint_clean() {
    let designs = eblocks::designs::all()
        .into_iter()
        .map(|e| e.design)
        .chain(eblocks::designs::all_intro().into_iter().map(|(_, d)| d));
    let mut checked = 0;
    for design in designs {
        let report = lint_design(&design);
        assert!(
            report.is_clean(),
            "library design `{}` must lint clean but reported:\n{}",
            design.name(),
            render(&report)
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        eblocks::designs::all().len() + eblocks::designs::all_intro().len()
    );
}
