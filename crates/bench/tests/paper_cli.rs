//! The `paper` binary, driven the way a reader of EXPERIMENTS.md
//! drives it: spawned as a process, from a directory that is not the
//! repository, judged by its exit status, its stdout and the files it
//! leaves behind.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty directory for one test to run `paper` in.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("paper_cli_{test}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

fn paper(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .current_dir(cwd)
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("spawn paper")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

fn repo_file(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The command names `paper` lists when run with no arguments.
fn listed_commands(cwd: &Path) -> BTreeSet<String> {
    let out = paper(cwd, &[]);
    assert_eq!(out.status.code(), Some(2), "no command is a usage error");
    stderr(&out)
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .map(|l| l.split_whitespace().next().expect("a name").to_string())
        .collect()
}

/// One invocation and what its first stdout line must contain.
type Run = (&'static [&'static str], &'static str);

/// Milliseconds each, even unoptimised.
const QUICK: &[Run] = &[
    (&["table1"], "Table I — XMT speedups"),
    (&["table2"], "Table II — XMT architecture configurations"),
    (&["table3"], "Table III — XMT physical configurations"),
    (&["table4", "--quick"], "Table IV — FFT performance on XMT"),
    (
        &["table5", "--quick"],
        "Table V — speedups relative to FFTW",
    ),
    (&["table6"], "Table VI — comparison of Edison"),
    (&["fig3"], "Fig. 3 — Roofline model"),
    (&["scaling"], "XMT problem-size scaling"),
    (&["energy_table"], "Energy per 512^3"),
    (&["prior_work"], "Prior work on the FFT"),
    (&["observe"], "4k: peak 13.2 GFLOPS"),
    (&["fault_sweep"], "fault sweep: 512-point radix-8 FFT"),
    (&["fault_sweep", "--seed", "7"], "(seed 0x7)"),
    (&["golden_capture"], "(\"fft_radix8_n512\", Golden {"),
];

/// Paper-scale simulation or host measurement: release only.
const SLOW: &[Run] = &[
    (&["table4"], "Table IV — FFT performance on XMT"),
    (&["table5"], "Table V — speedups relative to FFTW"),
    (&["ablation_radix"], "Ablation — radix choice"),
    (
        &["ablation_rotation"],
        "Ablation — fused vs separate rotation",
    ),
    (&["ablation_twiddle"], "Ablation — twiddle replication"),
    (
        &["golden_capture", "--scaling"],
        "(\"fft_xmt4k_n32768\", Golden {",
    ),
];

fn run_all(dir: &Path, runs: &[Run]) {
    for (args, title) in runs {
        let out = paper(dir, args);
        assert!(
            out.status.success(),
            "paper {args:?}: {}\n{}",
            out.status,
            stderr(&out)
        );
        let text = stdout(&out);
        let first = text.lines().next().unwrap_or_default();
        assert!(first.contains(title), "paper {args:?} began {first:?}");
    }
}

#[test]
fn every_quick_command_runs_and_the_two_lists_cover_the_table() {
    let dir = scratch("quick");
    run_all(&dir, QUICK);
    let covered: BTreeSet<String> = QUICK
        .iter()
        .chain(SLOW)
        .map(|(args, _)| args[0].to_string())
        .collect();
    assert_eq!(covered, listed_commands(&dir));

    // `observe` writes its trace under the target directory, `fig3`
    // its figure where it was run; nothing else appears.
    let left: BTreeSet<String> = fs::read_dir(&dir)
        .expect("list the scratch directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
        .collect();
    assert_eq!(left, BTreeSet::from(["fig3.svg".into(), "target".into()]));
    assert!(dir.join("target/trace_fft_radix8_n512.json").is_file());
}

#[test]
#[ignore = "seconds of simulation in release, minutes unoptimised; ci.sh runs it"]
fn every_slow_command_runs() {
    run_all(&scratch("slow"), SLOW);
}

#[test]
fn fig3_writes_the_committed_figure() {
    let dir = scratch("fig3");
    assert!(paper(&dir, &["fig3"]).status.success());
    let written = fs::read(dir.join("fig3.svg")).expect("fig3 wrote fig3.svg");
    assert!(
        written == repo_file("fig3.svg"),
        "fig3.svg in the repository is not what `paper fig3` writes"
    );
}

#[test]
fn table4_model_row_is_the_one_experiments_md_quotes() {
    let text = stdout(&paper(&scratch("table4"), &["table4", "--quick"]));
    let row = text
        .lines()
        .find(|l| l.contains("GFLOPS (model)"))
        .expect("a model row");
    let values: Vec<&str> = row.split_whitespace().skip(2).collect();
    assert_eq!(values, ["211", "422", "3358", "9197", "12390"]);
    let quoted = format!("| model | {} |", values.join(" | "));
    let experiments = String::from_utf8(repo_file("EXPERIMENTS.md")).expect("UTF-8");
    assert!(
        experiments.contains(&quoted),
        "EXPERIMENTS.md lacks {quoted}"
    );
}

#[test]
fn bad_arguments_are_usage_errors_naming_the_command() {
    let dir = scratch("usage");
    let cases: &[&[&str]] = &[
        &["table4", "--quik"],
        &["table5", "--quick", "extra"],
        &["golden_capture", "--scalng"],
        &["observe", "--interval"],
        &["observe", "--interval", "often"],
        &["observe", "--out"],
        &["fault_sweep", "--seed"],
        &["fault_sweep", "--seed", "x"],
        &["table1", "--quick"],
    ];
    for args in cases {
        let out = paper(&dir, args);
        assert_eq!(out.status.code(), Some(2), "paper {args:?}");
        assert!(out.stdout.is_empty(), "paper {args:?} printed a result");
        let usage = format!("usage: paper {}", args[0]);
        assert!(
            stderr(&out).contains(&usage),
            "paper {args:?} lacks {usage:?}"
        );
    }
    let out = paper(&dir, &["tabel4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command \"tabel4\""));
    assert_eq!(fs::read_dir(&dir).expect("list").count(), 0);
}

#[test]
fn docs_and_the_command_table_name_the_same_commands() {
    let docs: String = ["README.md", "EXPERIMENTS.md"]
        .iter()
        .map(|f| String::from_utf8(repo_file(f)).expect("UTF-8"))
        .collect();
    let commands = listed_commands(&scratch("docs"));
    for name in &commands {
        assert!(docs.contains(name.as_str()), "no doc mentions `{name}`");
    }
    let invoked: BTreeSet<String> = docs
        .split("--bin paper --")
        .skip(1)
        .map(|rest| rest.trim_start())
        .map(|rest| rest.split(|c: char| !c.is_ascii_alphanumeric() && c != '_'))
        .map(|mut words| words.next().unwrap_or_default().to_string())
        .collect();
    assert!(!invoked.is_empty());
    let unknown: Vec<_> = invoked.difference(&commands).collect();
    assert!(
        unknown.is_empty(),
        "docs invoke unknown commands {unknown:?}"
    );
}
