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
    /// Worker threads for the experiment grid (`--jobs`, `TC_JOBS`).
    /// Purely a throughput knob: every report is byte-identical at any
    /// value. 1 executes cells inline on the calling thread.
    pub jobs: usize,
    /// Directory for per-cell JSONL event traces (`--trace <dir>`).
    /// `None` (the default) runs untraced; trace file contents are a pure
    /// function of each cell's coordinates, so they too are identical at
    /// any worker count.
    pub trace_dir: Option<PathBuf>,
    /// Directory for per-cell rendered profile reports
    /// (`--profile <dir>`). Like traces, report contents are a pure
    /// function of each cell's coordinates.
    pub profile_dir: Option<PathBuf>,
    /// Directory for per-cell wall-clock span trees (`--timing <dir>`),
    /// one single-line JSON tree per query/updates cell. Unlike traces
    /// and profiles these hold *measured times* and are therefore never
    /// byte-stable across runs — they are strictly non-gating; the
    /// deterministic outputs of a timed sweep stay byte-identical to an
    /// untimed one (pinned by the determinism-under-timing suite).
    pub timing_dir: Option<PathBuf>,
    /// Storage backend every cell runs on (`--backend sim|file`,
    /// `TC_BACKEND`). The default is the simulated counting disk; the
    /// file backend gives each cell a fresh auto-cleaned temp directory
    /// and — by construction — identical metrics and trace digests.
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
            profile_dir: None,
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

    /// Builder-style: write per-cell profile reports under `dir`.
    pub fn profile_dir(mut self, dir: impl Into<PathBuf>) -> ExpOpts {
        self.profile_dir = Some(dir.into());
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

    /// Builds options from (in precedence order) the given command-line
    /// arguments (`--instances k`, `--sets k`, `--jobs n`, `--full`,
    /// `--quick`) and the `TC_INSTANCES` / `TC_SOURCE_SETS` / `TC_JOBS`
    /// environment variables. Unknown or malformed arguments are a typed
    /// error, not a panic, so binaries can exit with a usage message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ExpOpts, String> {
        let mut o = ExpOpts::default();
        if let Some(k) = env_parsed("TC_INSTANCES")? {
            o.instances = k;
        }
        if let Some(k) = env_parsed("TC_SOURCE_SETS")? {
            o.source_sets = k;
        }
        if let Some(k) = env_parsed::<usize>("TC_JOBS")? {
            o.jobs = k;
        }
        if let Ok(v) = std::env::var("TC_BACKEND") {
            o.backend = Backend::parse(&v).map_err(|e| format!("TC_BACKEND: {e}"))?;
        }
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => {
                    o.instances = 5;
                    o.source_sets = 5;
                }
                "--quick" => {
                    o.instances = 1;
                    o.source_sets = 1;
                }
                "--instances" => o.instances = flag_value(&args, &mut i)?,
                "--sets" => o.source_sets = flag_value(&args, &mut i)?,
                "--jobs" => o.jobs = flag_value(&args, &mut i)?,
                "--trace" => {
                    let Some(dir) = args.get(i + 1) else {
                        return Err("--trace takes a directory".into());
                    };
                    i += 1;
                    o.trace_dir = Some(PathBuf::from(dir));
                }
                "--profile" => {
                    let Some(dir) = args.get(i + 1) else {
                        return Err("--profile takes a directory".into());
                    };
                    i += 1;
                    o.profile_dir = Some(PathBuf::from(dir));
                }
                "--timing" => {
                    let Some(dir) = args.get(i + 1) else {
                        return Err("--timing takes a directory".into());
                    };
                    i += 1;
                    o.timing_dir = Some(PathBuf::from(dir));
                }
                "--backend" => {
                    let Some(b) = args.get(i + 1) else {
                        return Err("--backend takes sim, file or file:DIR".into());
                    };
                    i += 1;
                    o.backend = Backend::parse(b)?;
                }
                other => {
                    return Err(format!(
                        "unknown argument {other} (try --full, --quick, --instances k, --sets k, --jobs n, --trace dir, --profile dir, --timing dir, --backend sim|file)"
                    ))
                }
            }
            i += 1;
        }
        if o.instances < 1 || o.source_sets < 1 || o.jobs < 1 {
            return Err("--instances, --sets and --jobs must all be ≥ 1".into());
        }
        Ok(o)
    }
}

fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &args[*i];
    let Some(v) = args.get(*i + 1) else {
        return Err(format!("{flag} takes a number"));
    };
    *i += 1;
    v.parse()
        .map_err(|_| format!("{flag} takes a number, got {v:?}"))
}

fn env_parsed<T: std::str::FromStr>(var: &str) -> Result<Option<T>, String> {
    match std::env::var(var) {
        Ok(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{var} must be a number, got {v:?}")),
        Err(_) => Ok(None),
    }
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

    #[test]
    fn parse_profile_dir() {
        let o = ExpOpts::parse(["--profile", "/tmp/profiles"].map(String::from)).unwrap();
        assert_eq!(
            o.profile_dir.as_deref(),
            Some(std::path::Path::new("/tmp/profiles"))
        );
        assert!(ExpOpts::parse(["--profile"].map(String::from)).is_err());
        assert!(ExpOpts::default().profile_dir.is_none());
    }
}
