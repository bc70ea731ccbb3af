//! The controller policies of paper Section II-C, shared by both timing
//! models: the event-based controller runs each as written, and the
//! cycle-based baseline runs an adaptive page policy as its plain form.

use std::fmt;

/// Row-buffer management policy (paper Section II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Leave a row open until a bank conflict forces it closed.
    #[default]
    Open,
    /// Like [`PagePolicy::Open`], but close the row eagerly when queued
    /// accesses target a different row in the same bank and none target the
    /// open row.
    OpenAdaptive,
    /// Auto-precharge after every column access.
    Closed,
    /// Like [`PagePolicy::Closed`], but keep the row open when accesses to
    /// it are already queued.
    ClosedAdaptive,
}

impl PagePolicy {
    /// Whether this is one of the open-page variants.
    #[inline]
    pub fn is_open(self) -> bool {
        matches!(self, PagePolicy::Open | PagePolicy::OpenAdaptive)
    }
}

impl fmt::Display for PagePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PagePolicy::Open => "open",
            PagePolicy::OpenAdaptive => "open_adaptive",
            PagePolicy::Closed => "closed",
            PagePolicy::ClosedAdaptive => "closed_adaptive",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for PagePolicy {
    type Err = String;

    /// Parses a policy name; round-trips [`Display`](fmt::Display) and
    /// also accepts the CLI's dashed spellings.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "open" => Ok(PagePolicy::Open),
            "open_adaptive" | "open-adaptive" => Ok(PagePolicy::OpenAdaptive),
            "closed" => Ok(PagePolicy::Closed),
            "closed_adaptive" | "closed-adaptive" => Ok(PagePolicy::ClosedAdaptive),
            other => Err(format!(
                "unknown page policy '{other}' (open, open-adaptive, closed, closed-adaptive)"
            )),
        }
    }
}

/// Request scheduling policy (paper Section II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// First come, first served (included for comparison).
    Fcfs,
    /// First ready, first come first served: prioritise row hits, then the
    /// first request whose bank is available soonest.
    #[default]
    FrFcfs,
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::FrFcfs => "frfcfs",
        })
    }
}

impl std::str::FromStr for SchedPolicy {
    type Err = String;

    /// Parses a scheduler name; round-trips [`Display`](fmt::Display).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Ok(SchedPolicy::Fcfs),
            "frfcfs" | "fr-fcfs" => Ok(SchedPolicy::FrFcfs),
            other => Err(format!("unknown scheduler '{other}' (fcfs, frfcfs)")),
        }
    }
}
