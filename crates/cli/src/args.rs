//! Tiny hand-rolled argument parsing (no external dependencies).

use dramctrl::EccMode;
use dramctrl_campaign::TrafficPattern;
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, MemSpec};
use std::collections::BTreeMap;

/// One flag, declared once: everything the parser, the unknown-flag
/// check, the default lookup and `help` know about it.
pub struct Opt {
    /// Spelled `--name`, or `-n` too when a single letter.
    pub name: &'static str,
    /// Placeholder for the value it takes: `""` marks a switch, a trailing
    /// `...` a flag that may be given any number of times.
    pub value: &'static str,
    /// What [`Args::value`] hands back when the flag is absent.
    pub default: Option<&'static str>,
    pub help: &'static str,
}

impl Opt {
    pub const fn new(name: &'static str, value: &'static str, help: &'static str) -> Opt {
        Opt {
            name,
            value,
            default: None,
            help,
        }
    }

    pub const fn or(self, default: &'static str) -> Opt {
        Opt {
            default: Some(default),
            ..self
        }
    }
}

/// Flags that belong together, declared once and referenced by every
/// command that takes them.
pub struct Group {
    /// Its title and what holds for the whole group.
    pub heading: &'static str,
    pub opts: &'static [Opt],
}

/// One `dramctrl` command: its row of the command table, the only place
/// its flags are spelled.
pub struct Command {
    pub name: &'static str,
    /// Its arguments as `help` shows them, e.g. `FILE [OPTIONS]`.
    pub synopsis: &'static str,
    /// What its one positional argument is (`trace file`); `None` for a
    /// command that takes no positional at all.
    pub positional: Option<&'static str>,
    pub about: &'static str,
    pub groups: &'static [&'static Group],
    pub run: fn(&Args) -> Result<(), ArgError>,
}

impl Command {
    pub fn opts(&self) -> impl Iterator<Item = &'static Opt> {
        self.groups.iter().flat_map(|g| g.opts)
    }
}

/// A command line parsed against its [`Command`].
pub struct Args {
    pub cmd: &'static Command,
    /// Every occurrence of each flag given, by declared name (a switch
    /// holds an empty string).
    given: BTreeMap<&'static str, Vec<String>>,
    positional: Option<String>,
    /// Every flag the command asked for, so a test can hold what a
    /// command declares against what it really reads.
    #[cfg(test)]
    pub asked: std::cell::RefCell<std::collections::BTreeSet<&'static str>>,
}

/// A user-facing argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// A usage error, as the `Err` of any result.
pub fn err<T>(msg: impl Into<String>) -> Result<T, ArgError> {
    Err(ArgError(msg.into()))
}

impl Args {
    /// Parses `--flag value` pairs, `--switch`es and the positional
    /// argument `cmd` declares. A flag it does not declare is refused
    /// before anything is taken as its value, and so is a token beyond
    /// the declared positional.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        cmd: &'static Command,
    ) -> Result<Args, ArgError> {
        let mut given: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            // `--name` long options, plus single-letter short options like
            // `-o` (two characters, second alphabetic, so negative numbers
            // stay positional).
            let name = a.strip_prefix("--").or_else(|| {
                a.strip_prefix('-')
                    .filter(|n| n.len() == 1 && n.chars().all(|c| c.is_ascii_alphabetic()))
            });
            let Some(name) = name else {
                positional.push(a);
                continue;
            };
            let Some(opt) = cmd.opts().find(|o| o.name == name) else {
                return err(format!("unknown option --{name}"));
            };
            let seen = given.entry(opt.name).or_default();
            if opt.value.is_empty() {
                seen.push(String::new());
            } else if seen.is_empty() || opt.value.ends_with("...") {
                seen.push(
                    it.next()
                        .ok_or_else(|| ArgError(format!("--{name} needs a value")))?,
                );
            } else {
                return err(format!("--{name} given twice"));
            }
        }
        match (cmd.positional, positional.as_slice()) {
            (None, []) | (Some(_), [_]) => {}
            (None, [stray, ..]) => {
                let name = cmd.name;
                return err(format!(
                    "unexpected argument {stray:?}: {name} takes no positional"
                ));
            }
            (Some(what), _) => return err(format!("{} needs exactly one {what}", cmd.name)),
        }
        let positional = positional.pop();
        Ok(Args {
            cmd,
            given,
            positional,
            #[cfg(test)]
            asked: Default::default(),
        })
    }

    /// The declaration of `name`. Every accessor goes through here, so a
    /// command that reads a flag it does not declare fails the first
    /// test that reaches the read.
    fn opt(&self, name: &str) -> &'static Opt {
        let opt = self.cmd.opts().find(|o| o.name == name);
        let opt = opt.unwrap_or_else(|| panic!("{} does not declare --{name}", self.cmd.name));
        #[cfg(test)]
        self.asked.borrow_mut().insert(opt.name);
        opt
    }

    /// Every occurrence of a flag, in command-line order.
    pub fn get_all(&self, name: &str) -> &[String] {
        self.given
            .get(self.opt(name).name)
            .map_or(&[], Vec::as_slice)
    }

    /// Whether a flag (or a switch) was given.
    pub fn has(&self, name: &str) -> bool {
        !self.get_all(name).is_empty()
    }

    /// A flag's value as given, `None` when absent.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.get_all(name).first().map(String::as_str)
    }

    /// A flag's value, or the default its declaration carries.
    pub fn value(&self, name: &str) -> &str {
        let default = || self.opt(name).default.expect("the flag declares a default");
        self.get(name).unwrap_or_else(default)
    }

    /// [`Args::value`] parsed with `FromStr`.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self.value(name);
        v.parse()
            .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}")))
    }

    /// [`Args::parsed`] for a count that cannot be zero.
    pub fn positive<T: std::str::FromStr + Default + PartialEq>(
        &self,
        name: &str,
    ) -> Result<T, ArgError> {
        match self.parsed::<T>(name)? {
            zero if zero == T::default() => err(format!("--{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A flag the command cannot run without; `hint` says what its value
    /// is.
    pub fn need(&self, name: &str, hint: &str) -> Result<&str, ArgError> {
        let (cmd, value) = (self.cmd.name, self.opt(name).value);
        let missing = || ArgError(format!("{cmd} needs --{name} {value} ({hint})"));
        self.get(name).ok_or_else(missing)
    }

    /// The positional argument of a command that declares one.
    pub fn positional(&self) -> &str {
        self.positional
            .as_deref()
            .expect("the command declares a positional")
    }
}

/// Parses a duration like `10ns`, `1.5us`, `2ms` or a bare picosecond
/// count into ticks.
pub fn parse_duration(s: &str) -> Result<Tick, ArgError> {
    let (num, unit) = s
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| s.split_at(i))
        .unwrap_or((s, "ps"));
    let value: f64 = num
        .parse()
        .map_err(|_| ArgError(format!("bad duration {s:?}")))?;
    let scale = match unit {
        "ps" => 1.0,
        "ns" => 1e3,
        "us" => 1e6,
        "ms" => 1e9,
        "s" => 1e12,
        other => return err(format!("unknown time unit {other:?} in {s:?}")),
    };
    if value < 0.0 {
        return err(format!("negative duration {s:?}"));
    }
    Ok((value * scale).round() as Tick)
}

/// Parses an `--epochs` interval: a duration that is not zero.
pub fn parse_epochs(s: &str) -> Result<Tick, ArgError> {
    match parse_duration(s)? {
        0 => err("--epochs interval must be non-zero"),
        ticks => Ok(ticks),
    }
}

/// Parses a size like `64`, `4KiB`, `2MiB`, `1GiB` into bytes.
pub fn parse_size(s: &str) -> Result<u64, ArgError> {
    let (num, unit) = s
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| s.split_at(i))
        .unwrap_or((s, ""));
    let value: u64 = num
        .parse()
        .map_err(|_| ArgError(format!("bad size {s:?}")))?;
    let scale = match unit {
        "" | "B" => 1,
        "KiB" | "KB" | "K" | "k" => 1 << 10,
        "MiB" | "MB" | "M" | "m" => 1 << 20,
        "GiB" | "GB" | "G" | "g" => 1 << 30,
        other => return err(format!("unknown size unit {other:?} in {s:?}")),
    };
    Ok(value * scale)
}

/// Looks up a device preset by (case-insensitive, punctuation-tolerant)
/// name, e.g. `ddr3-1600`, `DDR3_1600_x64`, `lpddr3`.
pub fn parse_device(name: &str) -> Result<MemSpec, ArgError> {
    let canon = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let want = canon(name);
    let all = presets::all();
    // Exact (canonicalised) match first, then unique prefix.
    if let Some(spec) = all.iter().find(|s| canon(s.name) == want) {
        return Ok(spec.clone());
    }
    let matches: Vec<_> = all
        .iter()
        .filter(|s| canon(s.name).starts_with(&want))
        .collect();
    match matches.len() {
        1 => Ok(matches[0].clone()),
        0 => err(format!(
            "unknown device {name:?}; available: {}",
            all.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        )),
        _ => err(format!(
            "ambiguous device {name:?}: {}",
            matches
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Parses a traffic generator name (`--gen`, an item of `--gens`) into
/// the pattern it names, built from the parameters that kind takes.
pub fn parse_gen(
    s: &str,
    range: u64,
    block: u32,
    stride: u64,
    banks: u32,
) -> Result<TrafficPattern, ArgError> {
    match s {
        "linear" => Ok(TrafficPattern::Linear { range, block }),
        "random" => Ok(TrafficPattern::Random { range, block }),
        "dram-aware" | "dram_aware" => Ok(TrafficPattern::DramAware { stride, banks }),
        other => err(format!("unknown generator {other:?}")),
    }
}

/// Parses an ECC mode name.
pub fn parse_ecc(s: &str) -> Result<EccMode, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "none" => Ok(EccMode::None),
        "secded" | "sec-ded" | "sec_ded" => Ok(EccMode::SecDed),
        "chipkill" => Ok(EccMode::Chipkill),
        other => err(format!(
            "unknown ECC mode {other:?} (none, secded, chipkill)"
        )),
    }
}

/// Parses a `--ras` fault rate (faults per gigabit-hour).
pub fn parse_ras_rate(s: &str) -> Result<f64, ArgError> {
    s.parse::<f64>()
        .ok()
        .filter(|r| r.is_finite() && *r >= 0.0)
        .ok_or_else(|| {
            ArgError(format!(
                "--ras: {s:?} is not a non-negative fault rate (faults per gigabit-hour, e.g. 2e11)"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl::{PagePolicy, SchedPolicy};
    use dramctrl_mem::AddrMapping;

    /// A command with one flag of every kind and one positional.
    const TOOL: Command = Command {
        name: "tool",
        synopsis: "",
        about: "",
        positional: Some("input file"),
        groups: &[&Group {
            heading: "",
            opts: &[
                Opt::new("device", "NAME", "").or("ddr3-1600"),
                Opt::new("requests", "N", "").or("7"),
                Opt::new("o", "FILE", ""),
                Opt::new("csv", "", ""),
                Opt::new("peer", "ADDR...", ""),
            ],
        }],
        run: |_| Ok(()),
    };
    const BARE: Command = Command {
        positional: None,
        ..TOOL
    };

    fn parse(cmd: &'static Command, argv: &[&str]) -> Result<Args, ArgError> {
        Args::parse(argv.iter().map(|s| s.to_string()), cmd)
    }

    #[test]
    fn flags_switches_positionals() {
        let a = parse(&TOOL, &["--device", "ddr3", "trace.txt", "--csv"]).unwrap();
        assert_eq!(a.get("device"), Some("ddr3"));
        assert_eq!(a.value("device"), "ddr3");
        assert!(a.has("csv") && !a.has("o"));
        assert_eq!(a.positional(), "trace.txt");
        // An absent flag reads as the default its declaration carries.
        assert_eq!(a.get("requests"), None);
        assert_eq!(a.parsed::<u64>("requests").unwrap(), 7);
        let a = parse(&TOOL, &["t", "--requests", "five"]).unwrap();
        assert!(a.parsed::<u64>("requests").is_err());
    }

    #[test]
    fn short_options_and_negative_positionals() {
        let a = parse(&TOOL, &["-o", "out.txt", "-5"]).unwrap();
        assert_eq!(a.get("o"), Some("out.txt"));
        assert_eq!(a.positional(), "-5");
    }

    #[test]
    fn positionals_beyond_the_declared_arity_are_refused() {
        for (cmd, argv) in [
            (&TOOL, &["a", "b"][..]),
            (&TOOL, &[]),
            (&BARE, &["stray"]),
            (&BARE, &["--csv", "yes"]),
        ] {
            assert!(parse(cmd, argv).is_err(), "{argv:?}");
        }
        let e = parse(&BARE, &["--csv", "yes"]).err().unwrap();
        assert!(e.0.contains("\"yes\""), "{e}");
        assert!(parse(&BARE, &[]).is_ok());
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        let e = parse(&BARE, &["--device"]).err().unwrap();
        assert_eq!(e.0, "--device needs a value");
        let e = parse(&BARE, &["--device", "a", "--device", "b"]);
        assert_eq!(e.err().unwrap().0, "--device given twice");
    }

    #[test]
    fn repeatable_flags_accumulate_in_order() {
        let a = parse(&BARE, &["--peer", "a", "--device", "d", "--peer", "b"]).unwrap();
        assert_eq!(a.get_all("peer"), ["a", "b"]);
        assert_eq!(a.get_all("device"), ["d"]);
        assert_eq!(a.get_all("o"), [] as [&str; 0]);
    }

    #[test]
    fn unknown_flags_rejected() {
        // Unknown, not "needs a value": nothing is taken as its value.
        for argv in [&["--bogus", "1"][..], &["--bogus"], &["--help"], &["-x"]] {
            let e = parse(&BARE, argv).err().unwrap();
            assert!(e.0.starts_with("unknown option --"), "{argv:?}: {e}");
        }
    }

    #[test]
    #[should_panic(expected = "tool does not declare --model")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse(&BARE, &[]).unwrap().get("model");
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("10ns").unwrap(), 10_000);
        assert_eq!(parse_duration("1.5us").unwrap(), 1_500_000);
        assert_eq!(parse_duration("250").unwrap(), 250);
        assert_eq!(parse_duration("2ms").unwrap(), 2_000_000_000);
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("5parsecs").is_err());
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size("64").unwrap(), 64);
        assert_eq!(parse_size("4KiB").unwrap(), 4096);
        assert_eq!(parse_size("2MiB").unwrap(), 2 << 20);
        assert!(parse_size("9XiB").is_err());
    }

    #[test]
    fn device_lookup() {
        assert_eq!(parse_device("DDR3-1600-x64").unwrap().name, "DDR3-1600-x64");
        assert_eq!(parse_device("ddr3_1600_x64").unwrap().name, "DDR3-1600-x64");
        assert_eq!(parse_device("wideio").unwrap().name, "WideIO-200-x128");
        assert!(parse_device("ddr3").is_err(), "ambiguous");
        assert!(parse_device("sram").is_err());
    }

    #[test]
    fn ecc_and_ras_rate() {
        assert_eq!(parse_ecc("SEC-DED").unwrap(), EccMode::SecDed);
        assert_eq!(parse_ecc("chipkill").unwrap(), EccMode::Chipkill);
        assert!(parse_ecc("parity").is_err());
        assert_eq!(parse_ras_rate("2e11").unwrap(), 2e11);
        assert_eq!(parse_ras_rate("0").unwrap(), 0.0);
        assert!(parse_ras_rate("-1").is_err());
        assert!(parse_ras_rate("NaN").is_err());
        assert!(parse_ras_rate("lots").is_err());
    }

    #[test]
    fn policy_sched_mapping() {
        // The CLI's spellings are the `FromStr` impls' own.
        assert_eq!(
            "open-adaptive".parse::<PagePolicy>().unwrap(),
            PagePolicy::OpenAdaptive
        );
        assert!("half-open".parse::<PagePolicy>().is_err());
        assert_eq!(
            "fr-fcfs".parse::<SchedPolicy>().unwrap(),
            SchedPolicy::FrFcfs
        );
        assert_eq!(
            "rocorabach".parse::<AddrMapping>().unwrap(),
            AddrMapping::RoCoRaBaCh
        );
    }
}
