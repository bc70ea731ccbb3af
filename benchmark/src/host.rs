//! Where a number was measured: the host stamp printed with every
//! output, the process's peak memory, and the thread clamp.
//!
//! The tracked `BENCH_campaign_scaling.json` was recorded on a one-CPU
//! host and its worker-scaling rows measure nothing. Here every thread
//! count goes through [`Host::clamp`], the stamp records what was asked
//! for and what was used, and [`Host::check_threads`] refuses to let a
//! row with more busy threads than CPUs be emitted at all.

use std::path::Path;

/// Description of the measuring host and build.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs available to this process.
    pub nproc: usize,
    cpu_model: String,
    kernel: String,
    workdir_fs: String,
    rustc: String,
    commit: String,
    /// `(what, requested, used)` for every clamped thread count.
    clamps: Vec<(&'static str, usize, usize)>,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn fs_type_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, t)| t)
}

impl Host {
    /// Probes the host; `workdir` is where stores, journals and sockets
    /// of this run live.
    pub fn probe(workdir: &Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            kernel: read_trimmed("/proc/sys/kernel/osrelease")
                .unwrap_or_else(|| "unknown".to_owned()),
            workdir_fs: fs_type_of(workdir),
            // Set by run.sh; a bare `cargo run` leaves them unknown.
            rustc: std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_owned()),
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned()),
            clamps: Vec::new(),
        }
    }

    /// `requested` threads of kind `what`, clamped to the CPUs there
    /// are. The clamp is recorded in the stamp.
    pub fn clamp(&mut self, what: &'static str, requested: usize) -> usize {
        let used = requested.clamp(1, self.nproc);
        self.clamps.push((what, requested, used));
        used
    }

    /// Refuses a row measured with more busy threads than CPUs.
    ///
    /// # Errors
    /// A message naming the offending count.
    pub fn check_threads(&self, what: &str, threads: usize) -> Result<(), String> {
        if threads > self.nproc {
            return Err(format!(
                "refusing to emit: {threads} {what} on a host with {} CPU(s) measures \
                 oversubscription, not {what}",
                self.nproc
            ));
        }
        Ok(())
    }

    /// The stamp as a one-line JSON object.
    pub fn to_json(&self, seed: u64) -> String {
        use dramctrl_obs::json::json_str;
        let clamps: Vec<String> = self
            .clamps
            .iter()
            .map(|(what, req, used)| {
                format!("{}:{{\"requested\":{req},\"used\":{used}}}", json_str(what))
            })
            .collect();
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release (opt-level 3, no LTO, debug info)"
        };
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"workdir_fs\":{},\"rustc\":{},\
             \"commit\":{},\"profile\":{},\"seed\":{seed},\"thread_clamp\":{{{}}}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.kernel),
            json_str(&self.workdir_fs),
            json_str(&self.rustc),
            json_str(&self.commit),
            json_str(profile),
            clamps.join(",")
        )
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_and_refusal() {
        let mut h = Host::probe(Path::new("."));
        h.nproc = 2;
        assert_eq!(h.clamp("workers", 8), 2);
        assert_eq!(h.clamp("clients", 0), 1);
        assert!(h.check_threads("workers", 2).is_ok());
        let e = h.check_threads("workers", 3).unwrap_err();
        assert!(e.contains("refusing to emit"), "{e}");
        let j = h.to_json(9);
        dramctrl_obs::json::validate(&j).expect("stamp validates");
        assert!(
            j.contains("\"workers\":{\"requested\":8,\"used\":2}"),
            "{j}"
        );
        assert!(j.contains("\"seed\":9"));
    }

    #[test]
    fn probes_something() {
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(fs_type_of(Path::new("/proc")), "unknown");
    }
}
