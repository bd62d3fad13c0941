//! One strict command-line parser, driven by option tables.
//!
//! Every option is described exactly once, as an [`Opt`] row kept next
//! to the struct it sets: its usage (`--budget MIN`), the default shown
//! in help, a one-line description, an optional environment variable,
//! and an `apply` function that parses the value into the struct. A
//! command's surface is the list of tables it accepts; [`Args::parse`]
//! checks the whole line against it (unknown flags, missing values,
//! repeated flags, surplus positionals) before anything runs, and
//! [`reference()`] / [`synopsis()`] render the help text from the same rows.
//!
//! [`Args::apply`] runs a table's rows **in table order**, whatever the
//! order on the command line. That keeps implications plain setters: a
//! row like `--cache-recharge` does `cache.get_or_insert_with(..)`, and
//! a shorthand row placed before the row it abbreviates loses to an
//! explicit value of the latter.
//!
//! Environment variables are read only by [`Args::parse_env`] (the
//! experiment drivers), which accepts exactly the rows that name one.
//! Argv wins over the environment. An empty value variable counts as
//! unset; a switch variable is off when empty or `0`.

use std::str::FromStr;

/// Sets one option on a `T` from its raw value (a switch ignores it).
pub type Apply<T> = fn(&mut T, &str) -> Result<(), String>;

/// How an environment variable maps onto a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Env {
    /// The variable carries the value (a switch is on unless it is
    /// empty or `0`).
    Var(&'static str),
    /// A switch that is on when the variable is empty or `0`:
    /// `JTUNE_FAIL_FAST=0` turns on `--no-fail-fast`.
    Not(&'static str),
}

impl Env {
    fn name(self) -> &'static str {
        match self {
            Env::Var(name) | Env::Not(name) => name,
        }
    }
}

/// What the parser and the help renderers know about a row.
#[derive(Clone, Copy, Debug)]
pub struct Info {
    /// The flag and its value placeholder, e.g. `--budget MIN`; a
    /// switch has no placeholder.
    pub usage: &'static str,
    /// The default, as help shows it.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
    /// The environment variable that sets the option, if any.
    pub env: Option<Env>,
}

impl Info {
    /// The flag spelling, e.g. `--budget`.
    pub fn flag(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or(self.usage)
    }

    /// Does the flag consume the next argument?
    pub fn takes_value(&self) -> bool {
        self.usage.contains(' ')
    }
}

/// One option: its description and how it sets a `T`.
pub struct Opt<T: 'static> {
    /// Usage, default, help and environment variable.
    pub info: Info,
    /// Parses the raw value into the target.
    pub apply: Apply<T>,
}

impl<T> Opt<T> {
    /// A row; `usage` is `--flag` for a switch or `--flag HINT` for an
    /// option taking a value.
    pub const fn new(
        usage: &'static str,
        default: &'static str,
        help: &'static str,
        apply: Apply<T>,
    ) -> Opt<T> {
        Opt {
            info: Info {
                usage,
                default,
                help,
                env: None,
            },
            apply,
        }
    }

    /// A row also read from environment variable `var`.
    pub const fn env(
        var: &'static str,
        usage: &'static str,
        default: &'static str,
        help: &'static str,
        apply: Apply<T>,
    ) -> Opt<T> {
        let mut row = Opt::new(usage, default, help, apply);
        row.info.env = Some(Env::Var(var));
        row
    }

    /// A switch turned on by `var` being empty or `0`.
    pub const fn env_not(
        var: &'static str,
        usage: &'static str,
        default: &'static str,
        help: &'static str,
        apply: Apply<T>,
    ) -> Opt<T> {
        let mut row = Opt::new(usage, default, help, apply);
        row.info.env = Some(Env::Not(var));
        row
    }
}

/// A table of rows for some target type, as the parser sees it.
pub trait Table {
    /// Every row's description, in table order.
    fn infos(&self) -> Vec<&Info>;
}

impl<T> Table for &[Opt<T>] {
    fn infos(&self) -> Vec<&Info> {
        self.iter().map(|o| &o.info).collect()
    }
}

/// Parse `v`, or say what it should have been (`what` is e.g.
/// `"an integer"`).
pub fn parse<V: FromStr>(v: &str, what: &str) -> Result<V, String> {
    v.parse().map_err(|_| format!("is not {what}"))
}

/// Parse an integer value.
pub fn int<V: FromStr>(v: &str) -> Result<V, String> {
    parse(v, "an integer")
}

/// Parse a floating-point value.
pub fn number(v: &str) -> Result<f64, String> {
    parse(v, "a number")
}

/// One option found on the line or in the environment.
#[derive(Clone, Debug)]
struct Given {
    flag: &'static str,
    value: String,
    /// The flag or variable name, for error messages.
    source: &'static str,
}

/// A command line checked against a surface; apply it to each target.
#[derive(Clone, Debug)]
pub struct Args {
    cmd: String,
    given: Vec<Given>,
    positionals: Vec<String>,
}

impl Args {
    /// Check `argv` against `tables`: every `-`-prefixed argument must be
    /// a known flag given at most once, a value may not itself start
    /// with `--`, and at most `max_positionals` other arguments may
    /// appear, anywhere on the line. Errors are prefixed with `cmd`.
    pub fn parse(
        cmd: &str,
        argv: &[String],
        tables: &[&dyn Table],
        max_positionals: usize,
    ) -> Result<Args, String> {
        let rows: Vec<&Info> = tables.iter().flat_map(|t| t.infos()).collect();
        Args::scan(cmd, argv, &rows, max_positionals)
    }

    /// Like [`Args::parse`], for the experiment drivers: only rows that
    /// name an environment variable are accepted, and each one absent
    /// from `argv` is then looked up with `env`.
    pub fn parse_env(
        cmd: &str,
        argv: &[String],
        tables: &[&dyn Table],
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<Args, String> {
        let rows: Vec<&Info> = tables
            .iter()
            .flat_map(|t| t.infos())
            .filter(|r| r.env.is_some())
            .collect();
        let mut args = Args::scan(cmd, argv, &rows, 0)?;
        for row in rows {
            let Some(var) = row.env.filter(|_| !args.has(row.flag())) else {
                continue;
            };
            let Some(value) = env(var.name()) else {
                continue;
            };
            let off = value.is_empty() || value == "0";
            let on = match var {
                Env::Var(_) if row.takes_value() => !value.is_empty(),
                Env::Var(_) => !off,
                Env::Not(_) => off,
            };
            if on {
                args.push(row, value, var.name());
            }
        }
        Ok(args)
    }

    fn scan(
        cmd: &str,
        argv: &[String],
        rows: &[&Info],
        max_positionals: usize,
    ) -> Result<Args, String> {
        let mut args = Args {
            cmd: cmd.to_string(),
            given: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = argv.iter().peekable();
        while let Some(arg) = rest.next() {
            if let Some(row) = rows.iter().find(|r| r.flag() == arg) {
                if args.has(row.flag()) {
                    return Err(format!("{cmd}: flag {arg} given twice"));
                }
                let value = match rest.peek() {
                    _ if !row.takes_value() => String::new(),
                    Some(v) if !v.starts_with("--") => rest.next().cloned().unwrap_or_default(),
                    _ => return Err(format!("{cmd}: flag {arg} requires a value")),
                };
                args.push(row, value, row.flag());
            } else if arg.starts_with('-') {
                return Err(format!("{cmd}: unknown flag {arg:?}"));
            } else if args.positionals.len() == max_positionals {
                return Err(format!("{cmd}: unexpected argument {arg:?}"));
            } else {
                args.positionals.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn push(&mut self, row: &Info, value: String, source: &'static str) {
        self.given.push(Given {
            flag: row.flag(),
            value,
            source,
        });
    }

    /// Was `flag` given (on the line or through its variable)?
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|g| g.flag == flag)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Run every row of `table` that was given, in table order.
    pub fn apply<T>(&self, target: &mut T, table: &[Opt<T>]) -> Result<(), String> {
        for row in table {
            let Some(g) = self.given.iter().find(|g| g.flag == row.info.flag()) else {
                continue;
            };
            (row.apply)(target, &g.value).map_err(|e| match row.info.takes_value() {
                true => format!("{}: {} {:?} {e}", self.cmd, g.source, g.value),
                false => format!("{}: {} {e}", self.cmd, g.source),
            })?;
        }
        Ok(())
    }
}

/// The flag reference: one line per row (usage, default, help). With
/// `env` set it lists only the rows [`Args::parse_env`] accepts, each
/// with its environment variable.
pub fn reference(tables: &[&dyn Table], env: bool) -> String {
    let mut out = String::new();
    let rows = tables.iter().flat_map(|t| t.infos());
    for row in rows.filter(|r| !env || r.env.is_some()) {
        let line = format!("  {:<20} {:<15} {}", row.usage, row.default, row.help);
        let var = match row.env.filter(|_| env) {
            Some(Env::Var(name)) => format!("  [{name}]"),
            Some(Env::Not(name)) => format!("  [{name}=0]"),
            None => String::new(),
        };
        out += &format!("{}{var}\n", line.trim_end());
    }
    out
}

/// `head` followed by `[--flag HINT]` for every row (no brackets when
/// the default is `required`), wrapped at 80 columns under the first.
pub fn synopsis(head: &str, tables: &[&dyn Table]) -> String {
    let indent = " ".repeat(head.len() + 1);
    let mut out = head.to_string();
    let mut width = out.len();
    for row in tables.iter().flat_map(|t| t.infos()) {
        let item = match row.default {
            "required" => format!(" {}", row.usage),
            _ => format!(" [{}]", row.usage),
        };
        if width + item.len() > 80 {
            out += &format!("\n{indent}");
            width = indent.len() - 1;
        }
        width += item.len();
        out += &item;
    }
    out.replace(&format!("\n{indent} "), &format!("\n{indent}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Knobs {
        n: u64,
        on: bool,
        ratio: Option<f64>,
        name: String,
    }

    const KNOBS: &[Opt<Knobs>] = &[
        Opt::new("--short", "off", "shorthand for --name short", |k, _| {
            k.name = "short".into();
            Ok(())
        }),
        Opt::new("--name NAME", "none", "a name", |k, v| {
            k.name = v.into();
            Ok(())
        }),
        Opt::env("T_N", "--n N", "0", "a count", |k, v| {
            int(v).map(|n| k.n = n)
        }),
        Opt::env("T_ON", "--on", "off", "a switch", |k, _| {
            k.on = true;
            Ok(())
        }),
        Opt::env_not("T_KEEP", "--off", "off", "clears the switch", |k, _| {
            k.on = false;
            Ok(())
        }),
        Opt::env("T_RATIO", "--ratio F", "off", "implies --on", |k, v| {
            k.on = true;
            number(v).map(|r| k.ratio = Some(r))
        }),
    ];

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn run(line: &str, positionals: usize) -> Result<(Knobs, Args), String> {
        let args = Args::parse("t", &argv(line), &[&KNOBS], positionals)?;
        let mut k = Knobs::default();
        args.apply(&mut k, KNOBS)?;
        Ok((k, args))
    }

    fn env_run(line: &str, vars: &[(&str, &str)]) -> Result<Knobs, String> {
        let lookup = |name: &str| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        };
        let args = Args::parse_env("t", &argv(line), &[&KNOBS], &lookup)?;
        let mut k = Knobs::default();
        args.apply(&mut k, KNOBS)?;
        Ok(k)
    }

    #[test]
    fn rows_apply_in_table_order_wherever_they_appear() {
        let (k, args) = run("--name x pos --short --n 3", 1).unwrap();
        assert_eq!(k.name, "x", "the explicit row comes after the shorthand");
        assert_eq!(k.n, 3);
        assert_eq!(args.positional(0), Some("pos"));
        let (k, _) = run("--ratio 2", 0).unwrap();
        assert!(k.on && k.ratio == Some(2.0));
    }

    #[test]
    fn line_errors_name_the_command_once() {
        for (line, want) in [
            ("--bogus", "t: unknown flag \"--bogus\""),
            ("--n", "t: flag --n requires a value"),
            ("--name --on", "t: flag --name requires a value"),
            ("--n 1 --n 2", "t: flag --n given twice"),
            ("a b", "t: unexpected argument \"b\""),
            ("--n x", "t: --n \"x\" is not an integer"),
            ("--ratio 5%", "t: --ratio \"5%\" is not a number"),
        ] {
            assert_eq!(run(line, 1).err().as_deref(), Some(want), "{line}");
        }
    }

    #[test]
    fn a_switch_does_not_swallow_the_next_argument() {
        let (k, args) = run("--on pos --n 2", 1).unwrap();
        assert!(k.on);
        assert_eq!((args.positional(0), k.n), (Some("pos"), 2));
    }

    #[test]
    fn environment_fills_what_argv_leaves_out() {
        let k = env_run("--n 4", &[("T_N", "9"), ("T_ON", "1")]).unwrap();
        assert_eq!((k.n, k.on), (4, true));
        for off in ["0", ""] {
            assert!(!env_run("", &[("T_ON", off)]).unwrap().on, "T_ON={off:?}");
        }
        assert_eq!(env_run("", &[("T_N", "")]).unwrap().n, 0, "empty is unset");
        assert_eq!(
            env_run("", &[("T_N", "3m")]).err().as_deref(),
            Some("t: T_N \"3m\" is not an integer")
        );
    }

    #[test]
    fn negated_switch_variables_turn_their_row_on_when_off() {
        let k = env_run("--on", &[("T_KEEP", "0")]).unwrap();
        assert!(!k.on, "T_KEEP=0 applies --off");
        let k = env_run("--on", &[("T_KEEP", "1")]).unwrap();
        assert!(k.on);
        let k = env_run("--on", &[]).unwrap();
        assert!(k.on, "an unset variable leaves the default");
    }

    #[test]
    fn env_surfaces_accept_only_rows_with_a_variable() {
        assert_eq!(
            env_run("--name x", &[]).err().as_deref(),
            Some("t: unknown flag \"--name\"")
        );
        assert!(env_run("pos", &[]).is_err(), "drivers take no positionals");
    }

    #[test]
    fn help_is_rendered_from_the_rows() {
        let reference = reference(&[&KNOBS], true);
        assert!(reference.contains("  --n N                0               a count  [T_N]\n"));
        assert!(reference.contains("[T_KEEP=0]"));
        assert!(
            !reference.contains("--name"),
            "the env surface lacks --name"
        );
        assert!(!super::reference(&[&KNOBS], false).contains("T_N"));
        let synopsis = synopsis("tool cmd", &[&KNOBS]);
        assert!(synopsis.starts_with("tool cmd [--short] [--name NAME] [--n N]"));
        assert!(synopsis.lines().all(|l| l.len() <= 80));
        assert!(synopsis
            .lines()
            .skip(1)
            .all(|l| l.starts_with("         [")));
    }
}
