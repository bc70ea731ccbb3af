//! `dramctrl` — command-line front end to the simulator family.
//!
//! ```text
//! dramctrl devices
//! dramctrl run --device ddr3-1600 --gen random --reads 70 --requests 100000
//! dramctrl record --gen linear --requests 10000 -o trace.txt
//! dramctrl replay trace.txt --device lpddr3 --policy closed
//! dramctrl sweep --policies open,closed --reads 0,50,100 --jsonl report.jsonl
//! ```

/// `print!` to a stdout that may go away: when the reader closes the pipe
/// (`dramctrl ... | head`) the process ends quietly, as one killed by
/// SIGPIPE would, where std's macro panics with a backtrace. Shadows
/// std's macro in every module below — except in unit tests, which keep
/// std's because the test harness captures only that.
#[cfg(not(test))]
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` over this crate's [`print!`].
#[cfg(not(test))]
macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

mod args;
mod run;
mod service;
mod sweep;

use args::{ArgError, Args, Command, Group};
use dramctrl_mem::presets;
use std::path::Path;
use std::process::ExitCode;

/// Writes to stdout; ends the process if stdout is gone — silently for a
/// closed pipe, with an `error:` line for anything else.
#[cfg(not(test))]
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
        }
        std::process::exit(1);
    }
}

/// Writes one output file atomically, or says which path failed.
fn write_output(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), ArgError> {
    let path = path.as_ref();
    dramctrl_kernel::fsio::write_atomic(path, contents)
        .map_err(|e| ArgError(format!("writing {path:?}: {e}")))
}

use run::{CHECKPOINT, CONTROLLER, DEVICE, MODEL, OBS, RAS, TRACE_OUT, WORKLOAD};
use service::{DAEMON, FLEET, LOGGING, QUERY, STREAM, SUBMISSION};
use sweep::{AXES, EXECUTION, MERGE, REPORT};

/// Every command and the option groups it takes, in the order `dramctrl
/// help` lists them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "devices", synopsis: "", positional: None, about: "list device presets",
        groups: &[], run: devices },
    Command { name: "run", synopsis: "[OPTIONS]", positional: None, about: "run a synthetic workload",
        groups: &[&DEVICE, &WORKLOAD, &CONTROLLER, &MODEL, &RAS, &CHECKPOINT, &OBS], run: run::run },
    Command { name: "record", synopsis: "[OPTIONS] -o FILE", positional: None, about: "write a request trace file (alias: trace-record)",
        groups: &[&DEVICE, &WORKLOAD, &TRACE_OUT], run: run::record },
    Command { name: "replay", synopsis: "FILE [OPTIONS]", positional: Some("trace file"), about: "replay a trace file",
        groups: &[&DEVICE, &CONTROLLER, &RAS, &CHECKPOINT, &OBS], run: run::replay },
    Command { name: "sweep", synopsis: "[OPTIONS]", positional: None, about: "run a parallel parameter-sweep campaign",
        groups: &[&AXES, &EXECUTION, &MERGE, &REPORT], run: sweep::sweep },
    Command { name: "serve", synopsis: "--listen ADDR --store DIR", positional: None, about: "run the always-up simulation service",
        groups: &[&DAEMON, &LOGGING], run: service::serve },
    Command { name: "submit", synopsis: "--to ADDR [AXES]", positional: None, about: "submit a sweep to a running service",
        groups: &[&SUBMISSION, &AXES], run: service::submit },
    Command { name: "watch", synopsis: "ID --to ADDR [OPTIONS]", positional: Some("job id"), about: "stream a submitted job's results",
        groups: &[&STREAM], run: service::watch },
    Command { name: "status", synopsis: "--to ADDR", positional: None, about: "show a service's job table",
        groups: &[&QUERY], run: service::status },
    Command { name: "dispatch", synopsis: "--peer ADDR... [AXES]", positional: None, about: "fan a sweep out to a daemon fleet, surviving dead/slow/lying peers",
        groups: &[&FLEET, &LOGGING, &AXES, &REPORT], run: service::dispatch },
    Command { name: "version", synopsis: "", positional: None, about: "print crate/protocol/format versions",
        groups: &[], run: version },
];

/// Appends the words of `text` to a line already `indent` columns long,
/// wrapped at 79 columns with continuation lines indented as far.
fn wrap(out: &mut String, indent: usize, text: &str) {
    let mut col = indent;
    for (i, word) in text.split_whitespace().enumerate() {
        if i > 0 && col + 1 + word.len() > 79 {
            *out += &format!("\n{:indent$}", "");
            col = indent;
        } else if i > 0 {
            out.push(' ');
            col += 1;
        }
        *out += word;
        col += word.len();
    }
    out.push('\n');
}

/// Every group `cmds` take, once, in the order they first appear.
fn groups_of(cmds: &[Command]) -> Vec<&'static Group> {
    let mut groups: Vec<&Group> = Vec::new();
    for group in cmds.iter().flat_map(|c| c.groups) {
        if !groups.iter().any(|seen| std::ptr::eq(*seen, *group)) {
            groups.push(group);
        }
    }
    groups
}

/// The help for `cmds`: a synopsis line each, then every group they take.
/// A group's heading names every command that takes it, so the text
/// cannot promise a flag to a command that would refuse it.
fn help(cmds: &[Command]) -> String {
    let mut out = String::new();
    for cmd in cmds {
        let synopsis = format!("dramctrl {} {}", cmd.name, cmd.synopsis);
        out += &format!("    {synopsis:<41} ");
        wrap(&mut out, 46, cmd.about);
    }
    for group in groups_of(cmds) {
        let takes = |c: &&Command| c.groups.iter().any(|g| std::ptr::eq(*g, group));
        let users: Vec<&str> = COMMANDS.iter().filter(takes).map(|c| c.name).collect();
        out.push('\n');
        wrap(
            &mut out,
            0,
            &format!("{} [{}]:", group.heading, users.join(", ")),
        );
        for opt in group.opts {
            let dashes = if opt.name.len() == 1 { "-" } else { "--" };
            let entry = format!("    {dashes}{} {}", opt.name, opt.value);
            // Help starts at column 25; a longer flag gets a line to itself.
            if entry.trim_end().len() < 24 {
                out += &format!("{entry:<25}");
            } else {
                out += &format!("{}\n{:25}", entry.trim_end(), "");
            }
            match opt.default {
                Some(default) => wrap(&mut out, 25, &format!("{} (default {default})", opt.help)),
                None => wrap(&mut out, 25, opt.help),
            }
        }
    }
    out
}

const BANNER: &str = "\
dramctrl — event-based DRAM controller simulator (ISPASS 2014 reproduction)

USAGE (`dramctrl <command> --help` shows one command's options):
";

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{BANNER}{}", help(COMMANDS));
        return ExitCode::from(2);
    }
    let name = match argv.remove(0).as_str() {
        "help" | "--help" | "-h" => {
            print!("{BANNER}{}", help(COMMANDS));
            return ExitCode::SUCCESS;
        }
        "trace-record" => "record".to_owned(),
        "--version" | "-V" => "version".to_owned(),
        other => other.to_owned(),
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) if argv.iter().any(|a| a == "--help" || a == "-h") => {
            print!("{}", help(std::slice::from_ref(cmd)));
            Ok(())
        }
        Some(cmd) => Args::parse(argv, cmd).and_then(|a| (cmd.run)(&a)),
        None => Err(ArgError(format!("unknown command {name:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One line, actionable, and the conventional usage-error code
            // (2) so scripts can tell bad invocations from failed runs.
            // Service commands emit the line through the structured logger
            // so daemon/client stderr stays machine-parseable end to end.
            if matches!(
                name.as_str(),
                "serve" | "submit" | "watch" | "status" | "dispatch"
            ) {
                dramctrl_obs::log_error!(
                    name.as_str(), e;
                    "hint" => "run `dramctrl help` for usage"
                );
            } else {
                eprintln!("error: {e} (run `dramctrl help` for usage)");
            }
            ExitCode::from(2)
        }
    }
}

fn devices(_: &Args) -> Result<(), ArgError> {
    println!(
        "{:<18} {:>9} {:>6} {:>6} {:>9} {:>10} {:>11}",
        "device", "bus bits", "banks", "ranks", "burst B", "peak GB/s", "capacity"
    );
    for spec in presets::all() {
        println!(
            "{:<18} {:>9} {:>6} {:>6} {:>9} {:>10.2} {:>8} MiB",
            spec.name,
            spec.org.bus_width_bits(),
            spec.org.banks,
            spec.org.ranks,
            spec.org.burst_bytes(),
            spec.peak_bandwidth_gbps(),
            spec.org.capacity_bytes() >> 20,
        );
    }
    Ok(())
}

/// Prints the version tuple a service handshake exchanges: crate,
/// protocol, snapshot format, journal format. Scripts parse this to
/// check that a client and a daemon binary will interoperate.
fn version(_: &Args) -> Result<(), ArgError> {
    println!(
        "dramctrl {} (proto {}, snap {}, journal {})",
        env!("CARGO_PKG_VERSION"),
        dramctrl_serve::PROTO_VERSION,
        dramctrl_kernel::snap::SNAP_VERSION,
        dramctrl_campaign::JOURNAL_VERSION,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn command(name: &str) -> &'static Command {
        let cmd = COMMANDS.iter().find(|c| c.name == name);
        cmd.unwrap_or_else(|| panic!("no command {name:?}"))
    }

    fn parse(cmd: &'static Command, argv: &[&str]) -> Result<Args, ArgError> {
        Args::parse(argv.iter().map(|s| s.to_string()), cmd)
    }

    /// The PR 20 bug class, both directions: a flag a command declares
    /// and never reads is accepted and ignored; one it reads and does not
    /// declare can never be given. Every command really runs — the
    /// service clients against a daemon in this process — on a command
    /// line that reaches each of its reads.
    #[test]
    fn every_command_reads_exactly_the_flags_it_declares() {
        use dramctrl_serve::{Listener, ServeConfig, Server};
        let dir = std::env::temp_dir().join(format!("dramctrl-tables-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let (sock, trace) = (p("d.sock"), p("t.trace"));
        let server = Server::open(ServeConfig::new(p("store"))).unwrap();
        server.start_scheduler();
        let listener = Listener::bind(&sock).unwrap();
        std::thread::spawn(move || server.serve(&listener));

        let cases: [(&str, &[&str]); 11] = [
            ("devices", &[]),
            ("version", &[]),
            ("record", &["-o", &trace, "--requests", "8"]),
            // `--seed` seeds a replay's fault model and nothing else.
            ("replay", &[&trace, "--ras", "0"]),
            ("run", &["--requests", "8"]),
            ("sweep", &["--requests", "8", "--quiet"]),
            // Reads everything, then cannot open its store.
            (
                "serve",
                &["--listen", &p("s.sock"), "--store", "/dev/null/s"],
            ),
            ("submit", &["--to", &sock, "--requests", "8"]),
            ("watch", &["job-0001", "--to", &sock]),
            ("status", &["--to", &sock]),
            (
                "dispatch",
                &["--peer", &sock, "--requests", "8", "--workdir", &p("wd")],
            ),
        ];
        assert_eq!(cases.len(), COMMANDS.len());
        for (name, argv) in cases {
            let cmd = command(name);
            let a = parse(cmd, argv).unwrap();
            let result = (cmd.run)(&a);
            assert_eq!(result.is_ok(), name != "serve", "{name}: {result:?}");
            let mut declared: Vec<&str> = cmd.opts().map(|o| o.name).collect();
            declared.sort_unstable();
            let asked: Vec<&str> = a.asked.take().into_iter().collect();
            assert_eq!(asked, declared, "{name}");
        }
    }

    /// The option entries of a help text: its lines indented by exactly
    /// four spaces (continuation lines sit at column 25).
    fn entries(help: &str) -> Vec<&str> {
        let entries = help.lines().filter(|l| l.starts_with("    -"));
        entries
            .map(|l| l.split_whitespace().next().unwrap())
            .collect()
    }

    #[test]
    fn help_names_each_declared_flag_exactly_once() {
        for cmd in COMMANDS {
            let mut declared: Vec<String> = (cmd.opts())
                .map(|o| format!("{}{}", if o.name.len() == 1 { "-" } else { "--" }, o.name))
                .collect();
            let own = help(std::slice::from_ref(cmd));
            assert!(own.starts_with(&format!("    dramctrl {} ", cmd.name)));
            assert_eq!(entries(&own), declared, "{}", cmd.name);
            declared.sort_unstable();
            declared.dedup();
            assert_eq!(declared.len(), cmd.opts().count(), "{}", cmd.name);
        }
        // The full help shows every command and every group once.
        let all = help(COMMANDS);
        let groups = groups_of(COMMANDS);
        let shown = groups.iter().map(|g| g.opts.len()).sum::<usize>();
        assert_eq!(entries(&all).len(), shown);
        for cmd in COMMANDS {
            assert!(all.contains(&format!("    dramctrl {} ", cmd.name)));
        }
        // Documented nowhere before the tables.
        let dispatch = help(std::slice::from_ref(command("dispatch")));
        assert!(entries(&dispatch).contains(&"--log-level"));
        assert!(all.lines().all(|l| l.chars().count() <= 79), "{all}");
    }

    /// Every `dramctrl <cmd> ...` command line in a fenced block of the
    /// documentation parses against its command's table — flags known,
    /// values present, arity right — without being run.
    #[test]
    fn documented_command_lines_parse() {
        const DOCS: [&str; 4] = [
            include_str!("../../../README.md"),
            include_str!("../../../DESIGN.md"),
            include_str!("../../../EXPERIMENTS.md"),
            include_str!("../../../.claude/skills/verify/SKILL.md"),
        ];
        let mut checked = 0;
        for doc in DOCS {
            let (mut fenced, mut line) = (false, String::new());
            for raw in doc.lines() {
                if raw.trim_start().starts_with("```") {
                    fenced = !fenced;
                }
                if !fenced {
                    continue;
                }
                // `#` starts a comment, a trailing backslash continues.
                line += match raw.trim_start() {
                    comment if comment.starts_with('#') => "",
                    code => code.split(" #").next().unwrap(),
                };
                if line.ends_with('\\') {
                    line.pop();
                    continue;
                }
                let line = std::mem::take(&mut line);
                // `dramctrl <cmd> ...`, `ID=$(dramctrl <cmd> ...` or cargo's
                // `-p dramctrl-cli -- <cmd> ...`, up to a shell operator.
                let words: Vec<&str> = line.split_whitespace().collect();
                let argv = match words.iter().position(|w| w.ends_with("dramctrl")) {
                    Some(at) => &words[at + 1..],
                    None => match words.iter().position(|w| *w == "dramctrl-cli") {
                        Some(at) if words.get(at + 1) == Some(&"--") => &words[at + 2..],
                        _ => continue,
                    },
                };
                let shell = |w: &&&str| !matches!(**w, "&" | "|" | ">" | "2>");
                let argv: Vec<&str> = argv.iter().take_while(shell).copied().collect();
                if let Err(e) = parse(command(argv[0]), &argv[1..]) {
                    panic!("{line:?}: {e}");
                }
                checked += 1;
            }
        }
        assert!(
            checked >= 30,
            "only {checked} documented command lines found"
        );
    }
}
