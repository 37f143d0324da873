//! Experiment options (repetition counts, scheduler parallelism, event
//! tracing and the storage backend).

use std::path::PathBuf;
use tc_storage::Backend;

/// How many instances / source sets to average over, how many worker
/// threads the cell scheduler may use, and where (if anywhere) per-cell
/// event traces go.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Graph instances per family (paper: 5).
    pub instances: u64,
    /// Source sets per instance for selection queries (paper: 5).
    pub source_sets: u64,
    /// Worker threads for the experiment grid (`--jobs`).
    /// Purely a throughput knob: every report is byte-identical at any
    /// value. 1 executes cells inline on the calling thread.
    pub jobs: usize,
    /// Directory for per-cell JSONL event traces (`--trace <dir>`).
    /// `None` (the default) runs untraced; trace file contents are a pure
    /// function of each cell's coordinates, so they too are identical at
    /// any worker count.
    pub trace_dir: Option<PathBuf>,
    /// Directory for per-cell wall-clock span trees (`--timing <dir>`),
    /// one single-line JSON tree per query/updates cell. Unlike traces
    /// these hold *measured times* and are therefore never byte-stable
    /// across runs — they are strictly non-gating; the
    /// deterministic outputs of a timed sweep stay byte-identical to an
    /// untimed one (pinned by the determinism-under-timing suite).
    pub timing_dir: Option<PathBuf>,
    /// Storage backend every cell runs on (`--backend sim|file`). The
    /// default is the simulated counting disk; the file backend gives
    /// each cell a fresh auto-cleaned temp directory and — by
    /// construction — identical metrics and trace digests.
    pub backend: Backend,
}

/// The scheduler's default worker count: the host's available
/// parallelism (1 if that cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            instances: 2,
            source_sets: 2,
            jobs: default_jobs(),
            trace_dir: None,
            timing_dir: None,
            backend: Backend::Sim,
        }
    }
}

impl ExpOpts {
    /// The paper's full 5×5 averaging.
    pub fn full() -> ExpOpts {
        ExpOpts {
            instances: 5,
            source_sets: 5,
            ..ExpOpts::default()
        }
    }

    /// A single-run smoke configuration.
    pub fn quick() -> ExpOpts {
        ExpOpts {
            instances: 1,
            source_sets: 1,
            ..ExpOpts::default()
        }
    }

    /// Builder-style: set the scheduler worker count (clamped to ≥ 1).
    pub fn jobs(mut self, jobs: usize) -> ExpOpts {
        self.jobs = jobs.max(1);
        self
    }

    /// Builder-style: write per-cell JSONL event traces under `dir`.
    pub fn trace_dir(mut self, dir: impl Into<PathBuf>) -> ExpOpts {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Builder-style: write per-cell wall-clock span trees under `dir`.
    pub fn timing_dir(mut self, dir: impl Into<PathBuf>) -> ExpOpts {
        self.timing_dir = Some(dir.into());
        self
    }

    /// Builder-style: run every cell on `backend`.
    pub fn backend(mut self, backend: Backend) -> ExpOpts {
        self.backend = backend;
        self
    }

    /// Builds options from command-line arguments (see [`FLAGS`]).
    /// Unknown or malformed arguments are a typed error, not a panic, so
    /// binaries can exit with a usage message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ExpOpts, String> {
        let mut o = ExpOpts::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--full" => (o.instances, o.source_sets) = (5, 5),
                "--quick" => (o.instances, o.source_sets) = (1, 1),
                "--instances" => o.instances = flag_value(&flag, "a number", &mut args)?,
                "--sets" => o.source_sets = flag_value(&flag, "a number", &mut args)?,
                "--jobs" => o.jobs = flag_value(&flag, "a number", &mut args)?,
                "--trace" => o.trace_dir = Some(flag_value(&flag, "a directory", &mut args)?),
                "--timing" => o.timing_dir = Some(flag_value(&flag, "a directory", &mut args)?),
                "--backend" => o.backend = backend_value(&flag, &mut args)?,
                other => return Err(format!("unknown argument {other} (try {FLAGS})")),
            }
        }
        if o.instances < 1 || o.source_sets < 1 || o.jobs < 1 {
            return Err("--instances, --sets and --jobs must all be ≥ 1".into());
        }
        Ok(o)
    }
}

/// Every option [`ExpOpts::parse`] accepts, as `section`'s usage line
/// and the unknown-argument hint show them.
pub const FLAGS: &str = "[--quick|--full] [--instances N] [--sets N] [--jobs N] \
                         [--trace DIR] [--timing DIR] [--backend sim|file|file:DIR]";

/// The value of `flag`: the next argument, which must exist, must not
/// itself be a `--flag`, and must parse as a `T` (`what` names it in the
/// error).
pub fn flag_value<T: std::str::FromStr>(
    flag: &str,
    what: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v = args
        .next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} takes {what}"))?;
    v.parse()
        .map_err(|_| format!("{flag} takes {what}, got {v:?}"))
}

/// [`flag_value`] for a `--backend` ([`Backend`] has its own parser).
pub fn backend_value(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<Backend, String> {
    Backend::parse(&flag_value::<String>(flag, "sim, file or file:DIR", args)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(ExpOpts::full().instances, 5);
        assert_eq!(ExpOpts::quick().source_sets, 1);
        assert_eq!(ExpOpts::default().instances, 2);
        assert!(ExpOpts::default().jobs >= 1);
    }

    #[test]
    fn parse_flags() {
        let o =
            ExpOpts::parse(["--instances", "3", "--sets", "4", "--jobs", "2"].map(String::from))
                .unwrap();
        assert_eq!((o.instances, o.source_sets, o.jobs), (3, 4, 2));
        let o = ExpOpts::parse(["--quick"].map(String::from)).unwrap();
        assert_eq!((o.instances, o.source_sets), (1, 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ExpOpts::parse(["--bogus"].map(String::from)).is_err());
        assert!(ExpOpts::parse(["--jobs"].map(String::from)).is_err());
        assert!(ExpOpts::parse(["--jobs", "zero"].map(String::from)).is_err());
        assert!(ExpOpts::parse(["--jobs", "0"].map(String::from)).is_err());
    }

    #[test]
    fn jobs_builder_clamps() {
        assert_eq!(ExpOpts::default().jobs(0).jobs, 1);
        assert_eq!(ExpOpts::default().jobs(6).jobs, 6);
    }

    #[test]
    fn parse_trace_dir() {
        let o = ExpOpts::parse(["--trace", "/tmp/traces"].map(String::from)).unwrap();
        assert_eq!(
            o.trace_dir.as_deref(),
            Some(std::path::Path::new("/tmp/traces"))
        );
        assert!(ExpOpts::parse(["--trace"].map(String::from)).is_err());
        assert!(ExpOpts::default().trace_dir.is_none());
    }

    #[test]
    fn parse_backend() {
        assert_eq!(ExpOpts::default().backend, Backend::Sim);
        let o = ExpOpts::parse(["--backend", "file"].map(String::from)).unwrap();
        assert_eq!(o.backend, Backend::File { dir: None });
        let o = ExpOpts::parse(["--backend", "sim"].map(String::from)).unwrap();
        assert_eq!(o.backend, Backend::Sim);
        assert!(ExpOpts::parse(["--backend"].map(String::from)).is_err());
        assert!(ExpOpts::parse(["--backend", "mmap"].map(String::from)).is_err());
        assert_eq!(
            ExpOpts::default().backend(Backend::file_temp()).backend,
            Backend::File { dir: None }
        );
    }

    #[test]
    fn parse_timing_dir() {
        let o = ExpOpts::parse(["--timing", "/tmp/spans"].map(String::from)).unwrap();
        assert_eq!(
            o.timing_dir.as_deref(),
            Some(std::path::Path::new("/tmp/spans"))
        );
        assert!(ExpOpts::parse(["--timing"].map(String::from)).is_err());
        assert!(ExpOpts::default().timing_dir.is_none());
    }
}
