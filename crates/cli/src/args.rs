//! Tiny hand-rolled argument parsing (no external dependencies).

use dramctrl::{EccMode, PagePolicy, SchedPolicy};
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, AddrMapping, MemSpec};
use std::collections::BTreeMap;

/// A parsed `--flag value` map plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    multi: BTreeMap<String, Vec<String>>,
    positional: Vec<String>,
    switches: Vec<String>,
    /// Every flag name [`Args::get`] was asked for, so a test can hold a
    /// command's option list against what its parser really reads.
    #[cfg(test)]
    pub asked: std::cell::RefCell<std::collections::BTreeSet<String>>,
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

fn err<T>(msg: impl Into<String>) -> Result<T, ArgError> {
    Err(ArgError(msg.into()))
}

impl Args {
    /// Parses `--flag value` pairs, `--switch`es (no value; must be listed
    /// in `switches`) and positional arguments.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        switches: &[&str],
    ) -> Result<Args, ArgError> {
        Self::parse_with_repeats(argv, switches, &[])
    }

    /// Like [`Args::parse`], but flags listed in `repeatable` may appear
    /// any number of times and accumulate into [`Args::get_all`] instead
    /// of the duplicate-flag error (e.g. `--peer A --peer B`).
    pub fn parse_with_repeats(
        argv: impl IntoIterator<Item = String>,
        switches: &[&str],
        repeatable: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            // `--name` long options, plus single-letter short options like
            // `-o` (two characters, second alphabetic, so negative numbers
            // stay positional).
            let name = a.strip_prefix("--").or_else(|| {
                a.strip_prefix('-')
                    .filter(|n| n.len() == 1 && n.chars().all(|c| c.is_ascii_alphabetic()))
            });
            if let Some(name) = name {
                if switches.contains(&name) {
                    args.switches.push(name.to_owned());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError(format!("--{name} needs a value")))?;
                    if repeatable.contains(&name) {
                        args.multi.entry(name.to_owned()).or_default().push(value);
                    } else if args.flags.insert(name.to_owned(), value).is_some() {
                        return err(format!("--{name} given twice"));
                    }
                }
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// A flag's raw value.
    pub fn get(&self, name: &str) -> Option<&str> {
        #[cfg(test)]
        self.asked.borrow_mut().insert(name.to_owned());
        self.flags.get(name).map(String::as_str)
    }

    /// Every occurrence of a repeatable flag, in command-line order.
    pub fn get_all(&self, name: &str) -> &[String] {
        self.multi.get(name).map_or(&[], Vec::as_slice)
    }

    /// Whether a switch was present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A flag parsed with `FromStr`, or `default` when absent.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// Rejects unknown flags (everything consumed must be in `known`).
    pub fn ensure_known(&self, known: &[&str]) -> Result<(), ArgError> {
        for name in self
            .flags
            .keys()
            .chain(self.multi.keys())
            .chain(self.switches.iter())
        {
            if !known.contains(&name.as_str()) {
                return err(format!("unknown option --{name}"));
            }
        }
        Ok(())
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

/// Parses a page policy name.
pub fn parse_policy(s: &str) -> Result<PagePolicy, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "open" => Ok(PagePolicy::Open),
        "open-adaptive" | "open_adaptive" => Ok(PagePolicy::OpenAdaptive),
        "closed" => Ok(PagePolicy::Closed),
        "closed-adaptive" | "closed_adaptive" => Ok(PagePolicy::ClosedAdaptive),
        other => err(format!(
            "unknown page policy {other:?} (open, open-adaptive, closed, closed-adaptive)"
        )),
    }
}

/// Parses a scheduling policy name.
pub fn parse_sched(s: &str) -> Result<SchedPolicy, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "fcfs" => Ok(SchedPolicy::Fcfs),
        "frfcfs" | "fr-fcfs" => Ok(SchedPolicy::FrFcfs),
        other => err(format!("unknown scheduler {other:?} (fcfs, frfcfs)")),
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

/// Parses an address mapping name.
pub fn parse_mapping(s: &str) -> Result<AddrMapping, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "rorabacoch" => Ok(AddrMapping::RoRaBaCoCh),
        "rorabachco" => Ok(AddrMapping::RoRaBaChCo),
        "rocorabach" => Ok(AddrMapping::RoCoRaBaCh),
        other => err(format!(
            "unknown mapping {other:?} (RoRaBaCoCh, RoRaBaChCo, RoCoRaBaCh)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_switches_positionals() {
        let argv = ["--device", "ddr3", "trace.txt", "--csv", "--requests", "5"].map(String::from);
        let a = Args::parse(argv, &["csv"]).unwrap();
        assert_eq!(a.get("device"), Some("ddr3"));
        assert!(a.switch("csv"));
        assert_eq!(a.positional(), ["trace.txt"]);
        assert_eq!(a.parse_or("requests", 0u64).unwrap(), 5);
        assert_eq!(a.parse_or("missing", 7u64).unwrap(), 7);
    }

    #[test]
    fn short_options_and_negative_positionals() {
        let a = Args::parse(["-o", "out.txt", "-5"].map(String::from), &[]).unwrap();
        assert_eq!(a.get("o"), Some("out.txt"));
        assert_eq!(a.positional(), ["-5"]);
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(Args::parse(["--x"].map(String::from), &[]).is_err());
        assert!(Args::parse(["--x", "1", "--x", "2"].map(String::from), &[]).is_err());
    }

    #[test]
    fn repeatable_flags_accumulate_in_order() {
        let argv = ["--peer", "a", "--seed", "7", "--peer", "b"].map(String::from);
        let a = Args::parse_with_repeats(argv, &[], &["peer"]).unwrap();
        assert_eq!(a.get_all("peer"), ["a", "b"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get_all("seed"), [] as [&str; 0]);
        // Repeatable names still count as known flags.
        assert!(a.ensure_known(&["peer", "seed"]).is_ok());
        assert!(a.ensure_known(&["seed"]).is_err());
        // Non-repeatable duplicates stay an error even when another flag
        // is repeatable.
        let argv = ["--seed", "1", "--seed", "2"].map(String::from);
        assert!(Args::parse_with_repeats(argv, &[], &["peer"]).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = Args::parse(["--bogus", "1"].map(String::from), &[]).unwrap();
        assert!(a.ensure_known(&["device"]).is_err());
        assert!(a.ensure_known(&["bogus"]).is_ok());
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
        assert_eq!(
            parse_policy("open-adaptive").unwrap(),
            PagePolicy::OpenAdaptive
        );
        assert!(parse_policy("half-open").is_err());
        assert_eq!(parse_sched("fr-fcfs").unwrap(), SchedPolicy::FrFcfs);
        assert_eq!(
            parse_mapping("rocorabach").unwrap(),
            AddrMapping::RoCoRaBaCh
        );
    }
}
