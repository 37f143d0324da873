//! System configuration (paper §5.1).

use tc_buffer::PagePolicy;
use tc_obs::SpanRecorder;
use tc_storage::{Backend, FaultConfig};
use tc_succ::ListPolicy;
use tc_trace::Tracer;

/// The system parameters of one experiment: buffer pool size, page and
/// list replacement policies and the Hybrid algorithm's blocking ratio.
/// Estimated I/O time always uses the paper's 20 ms per page
/// ([`tc_storage::MS_PER_IO`]).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Buffer pool size in pages (the paper's `M`; 10, 20 or 50).
    pub buffer_pages: usize,
    /// Page replacement policy.
    pub page_policy: PagePolicy,
    /// Successor-list replacement policy.
    pub list_policy: ListPolicy,
    /// HYB only: fraction of the buffer pool reserved for the diagonal
    /// block (the paper's `ILIMIT`, swept 0–0.3 in Figure 6). 0 disables
    /// blocking, making HYB identical to BTC.
    pub ilimit: f64,
    /// JKB only: derive predecessor lists by external-sorting the magic
    /// arcs instead of random-order insertion. The paper's JKB behaviour
    /// (preprocessing "prohibitively expensive" at high out-degree)
    /// corresponds to `false`; the sort variant is provided as an
    /// ablation.
    pub jkb_sort_preprocessing: bool,
    /// Cross-check every answer against the in-memory oracle (used by the
    /// test suite; adds CPU, no I/O).
    pub validate: bool,
    /// Keep the answer tuples in memory on the [`crate::RunResult`]
    /// (costs memory, no I/O; implied by `validate`).
    pub collect_answer: bool,
    /// Deterministic fault injection: when set, the run arms this plan on
    /// the simulated disk (the same seed replays the same failure trace).
    /// `None` (the default) runs fault-free with zero overhead on the
    /// read path.
    pub fault: Option<FaultConfig>,
    /// Event-trace sink for the run. Disabled by default: every emission
    /// is a single branch on a `None` and costs nothing.
    pub trace: Tracer,
    /// Wall-clock span recorder for the run. Disabled by default (one
    /// `None` branch, no clock read, no allocation). Span timings are
    /// observability only — they never feed a digest, report byte, or
    /// any other gated output.
    pub obs: SpanRecorder,
    /// Storage backend the database is built on: the paper's simulated
    /// counting disk (the default — all published numbers use it) or the
    /// real file-backed store. Consulted by [`crate::Database::build_for`]
    /// and the experiment harness; both backends produce bit-identical
    /// metrics and traces.
    pub backend: Backend,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            buffer_pages: 10,
            page_policy: PagePolicy::Lru,
            // The paper reports "the best combination of list and page
            // replacement policies" (§5.1); the ablation bench finds that
            // to be LRU + MOVE-SHORTEST across the corpus.
            list_policy: ListPolicy::MoveShortest,
            ilimit: 0.2,
            jkb_sort_preprocessing: false,
            validate: false,
            collect_answer: false,
            fault: None,
            trace: Tracer::disabled(),
            obs: SpanRecorder::disabled(),
            backend: Backend::Sim,
        }
    }
}

impl SystemConfig {
    /// A config with the given buffer size and defaults elsewhere.
    pub fn with_buffer(m: usize) -> SystemConfig {
        SystemConfig {
            buffer_pages: m,
            ..SystemConfig::default()
        }
    }

    /// Builder-style: set the page policy.
    pub fn page_policy(mut self, p: PagePolicy) -> Self {
        self.page_policy = p;
        self
    }

    /// Builder-style: set the list policy.
    pub fn list_policy(mut self, p: ListPolicy) -> Self {
        self.list_policy = p;
        self
    }

    /// Builder-style: set HYB's blocking ratio.
    pub fn ilimit(mut self, ilimit: f64) -> Self {
        assert!((0.0..=1.0).contains(&ilimit), "ILIMIT must be in [0,1]");
        self.ilimit = ilimit;
        self
    }

    /// Builder-style: enable oracle validation.
    pub fn validated(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Builder-style: keep the answer tuples on the [`crate::RunResult`].
    pub fn collecting(mut self) -> Self {
        self.collect_answer = true;
        self
    }

    /// Builder-style: arm deterministic fault injection for the run.
    pub fn faulted(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Builder-style: record the run's event trace through `tracer`.
    pub fn traced(mut self, tracer: Tracer) -> Self {
        self.trace = tracer;
        self
    }

    /// Builder-style: record wall-clock phase spans through `obs`
    /// (non-gating; timing never reaches a digest).
    pub fn observed(mut self, obs: SpanRecorder) -> Self {
        self.obs = obs;
        self
    }

    /// Builder-style: select the storage backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_storage::MS_PER_IO;

    #[test]
    fn default_matches_paper_smallest_config() {
        let c = SystemConfig::default();
        assert_eq!(c.buffer_pages, 10);
        assert_eq!(c.page_policy, PagePolicy::Lru);
        assert_eq!(c.list_policy, ListPolicy::MoveShortest);
        assert!((MS_PER_IO - 20.0).abs() < 1e-9);
        assert_eq!(c.backend, Backend::Sim, "published numbers use the sim");
    }

    #[test]
    fn builder_chains() {
        let c = SystemConfig::with_buffer(50)
            .page_policy(PagePolicy::Clock)
            .list_policy(ListPolicy::MoveShortest)
            .ilimit(0.3)
            .validated();
        assert_eq!(c.buffer_pages, 50);
        assert_eq!(c.page_policy, PagePolicy::Clock);
        assert_eq!(c.list_policy, ListPolicy::MoveShortest);
        assert!(c.validate);
    }

    #[test]
    #[should_panic(expected = "ILIMIT")]
    fn rejects_bad_ilimit() {
        let _ = SystemConfig::default().ilimit(1.5);
    }
}
