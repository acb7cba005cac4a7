//! The `dresar` command line: one strict parser shared by every subcommand.
//!
//! ```text
//! dresar fig <1|2|8|9|10|11> [scale] [--json]
//! dresar figures [scale]
//! dresar ablations [scale] [--json]
//! dresar params [scale]
//! dresar cycle-budget [scale]
//! dresar probe [scale] [--json] [--heatmap] [--faults <plan>]
//! dresar scope-overhead [scale] [--repeats N] [--max-overhead-pct P] [--emit-trace]
//! ```
//!
//! `scale` is `tiny|reduced|paper` (default `reduced`) and may stand
//! anywhere among the flags; `params` and `cycle-budget` print
//! scale-independent tables and only validate it. Each subcommand accepts
//! only its own flags. Anything else is refused with exit status 2 and one
//! `error[<code>]: <detail>` line on stderr, using the serve tier's error
//! codes, so a bad command line and a bad `/run` request classify alike.
//! `bench_report` and `dresar_diff` refuse bad input through the same
//! [`CliError`].

use dresar_faults::FaultPlan;
use dresar_workloads::Scale;

/// Why a command line was refused. Each code is the string the serve tier
/// reports for the same mistake in a run request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A flag the subcommand does not accept, or a stray argument.
    UnknownField,
    /// A flag value that is missing or malformed.
    BadField,
    /// A scale other than `tiny|reduced|paper`.
    BadScale,
    /// A `--faults` plan that does not parse.
    BadFaults,
    /// An unknown subcommand or figure.
    NotFound,
}

impl ErrorCode {
    /// Every code the parser can report.
    pub const ALL: [ErrorCode; 5] = [
        ErrorCode::UnknownField,
        ErrorCode::BadField,
        ErrorCode::BadScale,
        ErrorCode::BadFaults,
        ErrorCode::NotFound,
    ];

    /// The stable machine-readable code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownField => "unknown_field",
            ErrorCode::BadField => "bad_field",
            ErrorCode::BadScale => "bad_scale",
            ErrorCode::BadFaults => "bad_faults",
            ErrorCode::NotFound => "not_found",
        }
    }
}

/// A refused command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What kind of mistake it was.
    pub code: ErrorCode,
    /// Human-readable specifics.
    pub detail: String,
}

impl CliError {
    /// A refusal with the given code and specifics.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        CliError { code, detail: detail.into() }
    }

    /// Prints the one-line report on stderr and exits with status 2.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error[{}]: {}", self.code.as_str(), self.detail)
    }
}

impl std::error::Error for CliError {}

/// One `dresar` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `fig <n>`: one of the paper's Figures 1, 2 and 8–11.
    Fig(u8),
    /// `figures`: the whole evaluation as one markdown report.
    Figures,
    /// `ablations`: the DRESAR design-choice ablations.
    Ablations,
    /// `params`: the Table 2 / Table 3 parameters in use.
    Params,
    /// `cycle-budget`: the §4.2/§4.3 port-scheduling budget check.
    CycleBudget,
    /// `probe`: raw figure inputs per workload (calibration, faults).
    Probe,
    /// `scope-overhead`: the flight recorder's cost guard.
    ScopeOverhead,
}

/// The figures `fig` renders.
pub const FIGURES: [u8; 6] = [1, 2, 8, 9, 10, 11];

/// Every subcommand with the flags it accepts. `fig`'s number is read
/// from the argument after it.
const COMMANDS: [(&str, Command, &[&str]); 7] = [
    ("fig", Command::Fig(0), &["--json"]),
    ("figures", Command::Figures, &[]),
    ("ablations", Command::Ablations, &["--json"]),
    ("params", Command::Params, &[]),
    ("cycle-budget", Command::CycleBudget, &[]),
    ("probe", Command::Probe, &["--json", "--heatmap", "--faults"]),
    (
        "scope-overhead",
        Command::ScopeOverhead,
        &["--repeats", "--max-overhead-pct", "--emit-trace"],
    ),
];

/// Flags that take the next argument as their value.
const VALUED: [&str; 3] = ["--faults", "--repeats", "--max-overhead-pct"];

/// A parsed command line. Flags a subcommand does not accept keep their
/// defaults.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload scale (default `reduced`).
    pub scale: Scale,
    /// `--json`: one machine-readable document on stdout.
    pub json: bool,
    /// `--heatmap`: attach contention heatmaps to `probe --json`.
    pub heatmap: bool,
    /// `--faults <plan>`: run `probe` under a fault plan.
    pub faults: Option<FaultPlan>,
    /// `--repeats N`: `scope-overhead` timing repeats (default 3, at least 1).
    pub repeats: usize,
    /// `--max-overhead-pct P`: `scope-overhead` fails above this cost.
    pub max_overhead_pct: Option<f64>,
    /// `--emit-trace`: `scope-overhead` prints one Chrome trace instead.
    pub emit_trace: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Reduced,
            json: false,
            heatmap: false,
            faults: None,
            repeats: 3,
            max_overhead_pct: None,
            emit_trace: false,
        }
    }
}

/// Parses a scale argument, refusing anything but `tiny|reduced|paper`.
pub fn parse_scale(arg: &str) -> Result<Scale, CliError> {
    Scale::parse(arg).ok_or_else(|| {
        CliError::new(
            ErrorCode::BadScale,
            format!("unknown scale '{arg}'; expected tiny|reduced|paper"),
        )
    })
}

fn subcommand_names() -> String {
    COMMANDS.map(|(name, ..)| name).join("|")
}

/// Parses `dresar`'s arguments (without the program name).
pub fn parse_command(argv: &[String]) -> Result<(Command, Args), CliError> {
    let Some(name) = argv.first() else {
        return Err(CliError::new(
            ErrorCode::NotFound,
            format!("missing subcommand; expected one of {}", subcommand_names()),
        ));
    };
    let Some(&(_, command, accepted)) = COMMANDS.iter().find(|(n, ..)| n == name) else {
        return Err(CliError::new(
            ErrorCode::NotFound,
            format!("unknown subcommand '{name}'; expected one of {}", subcommand_names()),
        ));
    };
    let mut rest = &argv[1..];
    let command = match command {
        Command::Fig(_) => {
            let figures = FIGURES.map(|f| f.to_string()).join("|");
            let n = match rest.first() {
                Some(n) if !n.starts_with('-') => n,
                _ => {
                    return Err(CliError::new(
                        ErrorCode::BadField,
                        format!("fig needs a figure number ({figures})"),
                    ))
                }
            };
            rest = &rest[1..];
            match n.parse::<u8>().ok().filter(|f| FIGURES.contains(f)) {
                Some(f) => Command::Fig(f),
                None => {
                    return Err(CliError::new(
                        ErrorCode::NotFound,
                        format!("no figure '{n}'; expected {figures}"),
                    ))
                }
            }
        }
        other => other,
    };
    Ok((command, parse(name, rest, accepted)?))
}

/// Parses one subcommand's arguments against the flags it `accepted`.
fn parse(command: &str, argv: &[String], accepted: &[&str]) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut scale: Option<&str> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if let Some(first) = scale {
                return Err(CliError::new(
                    ErrorCode::UnknownField,
                    format!("unexpected argument '{arg}' after scale '{first}'"),
                ));
            }
            args.scale = parse_scale(arg)?;
            scale = Some(arg);
            continue;
        }
        if !accepted.contains(&arg.as_str()) {
            let known =
                if accepted.is_empty() { "no flags".to_string() } else { accepted.join(" ") };
            return Err(CliError::new(
                ErrorCode::UnknownField,
                format!("unknown flag '{arg}' for {command} (accepts {known})"),
            ));
        }
        let value = if VALUED.contains(&arg.as_str()) {
            match it.next() {
                Some(v) if !v.starts_with("--") => v.as_str(),
                _ => {
                    return Err(CliError::new(ErrorCode::BadField, format!("{arg} needs a value")))
                }
            }
        } else {
            ""
        };
        let malformed = |want: &str| {
            CliError::new(ErrorCode::BadField, format!("{arg} wants {want}, got '{value}'"))
        };
        match arg.as_str() {
            "--json" => args.json = true,
            "--heatmap" => args.heatmap = true,
            "--emit-trace" => args.emit_trace = true,
            "--faults" => {
                let plan = FaultPlan::parse(value).map_err(|e| {
                    CliError::new(ErrorCode::BadFaults, format!("bad fault plan '{value}': {e}"))
                })?;
                args.faults = Some(plan);
            }
            "--repeats" => {
                let n: usize = value.parse().map_err(|_| malformed("a whole number"))?;
                args.repeats = n.max(1);
            }
            "--max-overhead-pct" => {
                let p = value.parse::<f64>().ok().filter(|p| p.is_finite());
                args.max_overhead_pct = Some(p.ok_or_else(|| malformed("a number"))?);
            }
            other => unreachable!("accepted flag {other} has no parser"),
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<(Command, Args), CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_command(&argv)
    }

    fn code(line: &str) -> ErrorCode {
        run(line).expect_err(line).code
    }

    #[test]
    fn defaults_and_figures() {
        let (cmd, a) = run("fig 10").unwrap();
        assert_eq!(cmd, Command::Fig(10));
        assert_eq!(a.scale, Scale::Reduced);
        assert!(!a.json);
        let (_, a) = run("fig 8 --json paper").unwrap();
        assert!(a.json);
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(run("scope-overhead --repeats 0").unwrap().1.repeats, 1);
    }

    #[test]
    fn missing_values_and_stray_arguments_are_refused() {
        assert_eq!(code("fig"), ErrorCode::BadField);
        assert_eq!(code("probe tiny tiny"), ErrorCode::UnknownField);
        assert_eq!(code("probe --faults"), ErrorCode::BadField);
        assert_eq!(code("probe --faults --json"), ErrorCode::BadField);
        assert_eq!(code("scope-overhead --repeats two"), ErrorCode::BadField);
        assert_eq!(code("scope-overhead --max-overhead-pct nan"), ErrorCode::BadField);
    }
}
