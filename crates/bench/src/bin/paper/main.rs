//! `paper <command> [flags]` — every table, figure, ablation and
//! tool of the reproduction behind one binary (DESIGN.md §5
//! has the index, EXPERIMENTS.md the recorded output).
//!
//! ```text
//! cargo run --release -p xmt-bench --bin paper -- <command> [flags]
//! ```
//!
//! This file holds the command table and the one argument parser; each
//! command lives in the module named after it. Exit codes: **0** the
//! command ran, **2** it could not be run — no command, an unknown
//! command or argument, a missing or unparsable value — with the usage
//! line of the command on stderr. A command that finds its own result
//! wrong panics (exit 101), as the binaries it replaces did.

mod ablation_radix;
mod ablation_rotation;
mod ablation_twiddle;
mod calibrate;
mod energy_table;
mod fault_sweep;
mod fig3;
mod observe;
mod prior_work;
mod scaling;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;

use std::process::exit;

/// One thing a command accepts after its name.
enum Accepts {
    /// `--name`
    Switch(&'static str),
    /// `--name N`, an unsigned decimal integer.
    Count(&'static str),
    /// `--name PATH`
    Path(&'static str),
    /// One bare word, named for the usage line.
    Word(&'static str),
}
use Accepts::{Count, Path, Switch, Word};

struct Command {
    name: &'static str,
    accepts: &'static [Accepts],
    help: &'static str,
    run: fn(&Args),
}

const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        accepts: &[],
        help: "Table I: published XMT speedups (citation data)",
        run: table1::run,
    },
    Command {
        name: "table2",
        accepts: &[],
        help: "Table II: XMT architecture configurations",
        run: table2::run,
    },
    Command {
        name: "table3",
        accepts: &[],
        help: "Table III: physical configurations, area model vs paper",
        run: table3::run,
    },
    Command {
        name: "table4",
        accepts: &[Switch("--quick")],
        help: "Table IV: FFT GFLOPS per configuration; --quick skips the simulator calibration",
        run: table4::run,
    },
    Command {
        name: "table5",
        accepts: &[Switch("--quick")],
        help: "Table V: speedups relative to FFTW; --quick skips the host measurement",
        run: table5::run,
    },
    Command {
        name: "table6",
        accepts: &[],
        help: "Table VI: Edison (Cray XC30) against XMT 128k x4",
        run: table6::run,
    },
    Command {
        name: "fig3",
        accepts: &[],
        help: "Fig. 3: rooflines with the 3D-FFT points; writes fig3.svg",
        run: fig3::run,
    },
    Command {
        name: "ablation_radix",
        accepts: &[],
        help: "Section IV-A: radix 2 vs 4 vs 8 on the simulator",
        run: ablation_radix::run,
    },
    Command {
        name: "ablation_rotation",
        accepts: &[],
        help: "Section IV-A: fused vs separate rotation pass",
        run: ablation_rotation::run,
    },
    Command {
        name: "ablation_twiddle",
        accepts: &[],
        help: "Section IV-A: twiddle-table replication",
        run: ablation_twiddle::run,
    },
    Command {
        name: "scaling",
        accepts: &[],
        help: "problem-size, weak and strong scaling of the models",
        run: scaling::run,
    },
    Command {
        name: "energy_table",
        accepts: &[],
        help: "energy per 512^3 FFT, activity-based model",
        run: energy_table::run,
    },
    Command {
        name: "prior_work",
        accepts: &[],
        help: "Section I-A: published FFT results vs this workspace's models",
        run: prior_work::run,
    },
    Command {
        name: "observe",
        accepts: &[
            Word("workload"),
            Count("--interval"),
            Path("--out"),
            Switch("--stream"),
        ],
        help: "probe a golden workload: Chrome trace and per-phase stall table",
        run: observe::run,
    },
    Command {
        name: "fault_sweep",
        accepts: &[Count("--seed")],
        help: "golden FFT under soft faults, degraded topologies and a stuck TCU",
        run: fault_sweep::run,
    },
];

impl Command {
    fn usage(&self) -> String {
        let mut s = format!("usage: paper {}", self.name);
        for a in self.accepts {
            s += &match a {
                Switch(n) => format!(" [{n}]"),
                Count(n) => format!(" [{n} N]"),
                Path(n) => format!(" [{n} PATH]"),
                Word(n) => format!(" [{n}]"),
            };
        }
        s
    }

    /// Every argument must be something the command accepts, values
    /// present and well-formed; the last mention of a name wins.
    fn parse(&self, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            let accepted = self.accepts.iter().find(|a| match a {
                Switch(n) | Count(n) | Path(n) => *n == arg,
                Word(_) => !arg.starts_with("--"),
            });
            match accepted {
                None => return Err(format!("unknown argument {arg:?}")),
                Some(Switch(n)) => given.push((*n, String::new())),
                Some(Word(n)) => given.push((*n, arg)),
                Some(Count(n)) => match argv.next() {
                    Some(v) if v.parse::<u64>().is_ok() => given.push((*n, v)),
                    Some(v) => return Err(format!("{n} takes an unsigned integer, got {v:?}")),
                    None => return Err(format!("{n} needs a value")),
                },
                Some(Path(n)) => match argv.next() {
                    Some(v) => given.push((*n, v)),
                    None => return Err(format!("{n} needs a path")),
                },
            }
        }
        Ok(Args(given))
    }
}

/// What followed the command name, already checked against what the
/// command accepts.
pub struct Args(Vec<(&'static str, String)>);

impl Args {
    /// The value given for `name` (empty for a switch).
    pub fn get(&self, name: &str) -> Option<&str> {
        let given = self.0.iter().rev().find(|(n, _)| *n == name);
        given.map(|(_, v)| v.as_str())
    }

    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn count(&self, name: &str) -> Option<u64> {
        self.get(name)
            .map(|v| v.parse().expect("the parser checked the integer"))
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        if !name.is_empty() {
            eprintln!("paper: unknown command {name:?}");
        }
        eprintln!("usage: paper <command> [flags]\n\ncommands:");
        for c in COMMANDS {
            eprintln!("  {:<18} {}", c.name, c.help);
        }
        exit(2);
    };
    match cmd.parse(argv) {
        Ok(args) => (cmd.run)(&args),
        Err(e) => {
            eprintln!("paper {}: {e}\n{}", cmd.name, cmd.usage());
            exit(2);
        }
    }
}
