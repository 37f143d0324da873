//! Table 3 — I/O and CPU cost breakdown of BTC (G6, full closure,
//! M ∈ {10, 20, 50}).
//!
//! The paper's point: comparing CPU time with the estimated I/O time
//! (20 ms × simulated page I/O) shows the computation is clearly
//! I/O-bound, and the computation (expansion) phase dominates the
//! restructuring phase. We stand in for CPU time with the deterministic
//! estimate of [`tc_core::CostMetrics::estimated_cpu_seconds`] (1 µs per
//! tuple-level operation — generous for the paper's hardware) so the
//! report stays bit-identical across machines, reruns and `--jobs`
//! values; wall-clock comparisons are `benchmark/run.sh`'s job.

use crate::corpus::family;
use crate::experiments::{ExpResult, Grid, QuerySpec};
use crate::opts::ExpOpts;
use crate::table::{num, Table};
use tc_core::prelude::*;

/// Regenerates Table 3.
pub fn run(opts: &ExpOpts) -> ExpResult<String> {
    let fam = family("G6");
    let ms = [10usize, 20, 50];
    let mut g = Grid::new(opts);
    let points: Vec<_> = ms
        .iter()
        .map(|&m| {
            g.avg(
                fam,
                Algorithm::Btc,
                QuerySpec::Full,
                &SystemConfig::with_buffer(m),
            )
        })
        .collect();
    let r = g.run()?;

    let mut t = Table::new([
        "M",
        "total I/O",
        "restructure I/O",
        "compute I/O",
        "est. CPU (s)",
        "est. I/O time (s)",
        "I/O-bound?",
    ]);
    for (&m, &p) in ms.iter().zip(&points) {
        let avg = r.avg(p);
        t.row([
            m.to_string(),
            num(avg.total_io),
            num(avg.restructure_io),
            num(avg.compute_io),
            format!("{:.3}", avg.est_cpu_s),
            format!("{:.1}", avg.est_io_s),
            if avg.est_io_s > avg.est_cpu_s {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    Ok(format!(
        "## Table 3 — I/O and CPU cost of BTC (G6, full closure)\n\n\
         Expectation (paper): estimated I/O time dwarfs CPU time at every buffer size\n\
         (I/O-bound), and the computation phase dominates the restructuring phase.\n\n{}",
        t.render()
    ))
}
