//! Deterministic text rendering of a [`Profile`].
//!
//! The report is a pure function of the profile: fixed section order,
//! kind-index row order, integer or fixed-point arithmetic only (ratios
//! are basis points), no wall-clock and no host data — so a rendered
//! report can be pinned by an FNV-1a digest exactly like a trace
//! (`tests/golden_profile.rs` does).

use crate::fold::{kind_label, Profile, KIND_SLOTS};
use tc_trace::PhaseIo;

/// Basis points (hundredths of a percent) as `"NN.NN%"`.
fn pct(bp: u64) -> String {
    format!("{}.{:02}%", bp / 100, bp % 100)
}

fn io_cell(c: PhaseIo) -> String {
    format!("{} (r {}, w {})", c.total(), c.reads, c.writes)
}

struct Out(String);

impl Out {
    fn line(&mut self, s: impl AsRef<str>) {
        self.0.push_str(s.as_ref());
        self.0.push('\n');
    }

    fn heading(&mut self, title: &str) {
        self.line("");
        self.line(title);
        self.line("-".repeat(title.chars().count()));
    }
}

/// Renders the profile as a human-readable, digest-pinnable report.
pub fn render(p: &Profile) -> String {
    let mut out = Out(String::new());
    let algo = p.algorithm.as_deref().unwrap_or("?");
    let title = format!("tc-profile report — {algo}");
    out.line(&title);
    out.line("=".repeat(title.chars().count()));
    out.line(format!("events folded     : {}", p.events));
    if p.runs > 1 {
        out.line(format!("runs (condensed)  : {}", p.runs));
    }
    if let Some(ms) = p.ms_per_io {
        out.line(format!("ms per page I/O   : {ms}"));
    }
    out.line(format!(
        "page I/O          : {}",
        io_cell(PhaseIo {
            reads: p.total_reads(),
            writes: p.total_writes(),
        })
    ));
    out.line(format!(
        "  restructuring   : {}",
        io_cell(p.restructure_io())
    ));
    out.line(format!("  computation     : {}", io_cell(p.compute_io())));
    let counts = &p.counts;
    let disk = &counts.disk;
    if disk.faults_injected + disk.retries + disk.corruptions_detected > 0 {
        out.line(format!(
            "faults            : {} injected, {} retries, {} corruptions",
            disk.faults_injected, disk.retries, disk.corruptions_detected
        ));
    }

    out.heading("Page I/O attribution (phase × file)");
    out.line(format!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "file", "restr.r", "restr.w", "comp.r", "comp.w", "total"
    ));
    for k in 0..KIND_SLOTS {
        let (r, c) = (p.attribution[0][k], p.attribution[1][k]);
        if r.total() + c.total() == 0 {
            continue;
        }
        out.line(format!(
            "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9}",
            kind_label(k),
            r.reads,
            r.writes,
            c.reads,
            c.writes,
            r.total() + c.total()
        ));
    }
    let (r, c) = (p.restructure_io(), p.compute_io());
    out.line(format!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "total",
        r.reads,
        r.writes,
        c.reads,
        c.writes,
        p.total_io()
    ));

    if !p.iterations.is_empty() {
        out.heading("Iteration segments");
        out.line(format!("{:<6} {:>9} {:>9}", "iter", "reads", "writes"));
        const MAX_ROWS: usize = 24;
        for (i, seg) in p.iterations.iter().take(MAX_ROWS).enumerate() {
            out.line(format!("{:<6} {:>9} {:>9}", i, seg.reads, seg.writes));
        }
        if p.iterations.len() > MAX_ROWS {
            out.line(format!("… {} more", p.iterations.len() - MAX_ROWS));
        }
    }

    if !p.hot_pages.is_empty() {
        out.heading(&format!("Hot pages (top {})", p.hot_pages.len()));
        out.line(format!(
            "{:<8} {:<18} {:>9} {:>9}",
            "page", "file", "reads", "writes"
        ));
        for h in &p.hot_pages {
            out.line(format!(
                "{:<8} {:<18} {:>9} {:>9}",
                h.page,
                kind_label(h.kind),
                h.reads,
                h.writes
            ));
        }
    }

    out.heading("Buffer behaviour (per file)");
    out.line(format!(
        "{:<18} {:>9} {:>9} {:>9} {:>10}",
        "file", "requests", "hits", "misses", "read-hit"
    ));
    for k in 0..KIND_SLOTS {
        let b = &p.buffer[k];
        if b.requests == 0 && b.evictions == 0 && b.flush_writes == 0 {
            continue;
        }
        out.line(format!(
            "{:<18} {:>9} {:>9} {:>9} {:>10}",
            kind_label(k),
            b.requests,
            b.hits,
            b.misses,
            b.read_hit_bp().map_or_else(|| "-".into(), pct)
        ));
    }
    let t = p.buffer_totals();
    out.line(format!(
        "{:<18} {:>9} {:>9} {:>9} {:>10}",
        "total",
        t.requests,
        t.hits,
        t.misses,
        t.read_hit_bp().map_or_else(|| "-".into(), pct)
    ));
    if p.failed_requests > 0 {
        out.line(format!("failed requests   : {}", p.failed_requests));
    }

    if t.evictions + t.flush_writes > 0 {
        out.heading("Evictions & write-backs (by victim file)");
        out.line(format!(
            "{:<18} {:>9} {:>9} {:>9}",
            "file", "evictions", "dirty", "flushes"
        ));
        for k in 0..KIND_SLOTS {
            let b = &p.buffer[k];
            if b.evictions + b.flush_writes == 0 {
                continue;
            }
            out.line(format!(
                "{:<18} {:>9} {:>9} {:>9}",
                kind_label(k),
                b.evictions,
                b.dirty_writebacks,
                b.flush_writes
            ));
        }
        out.line(format!(
            "{:<18} {:>9} {:>9} {:>9}",
            "total", t.evictions, t.dirty_writebacks, t.flush_writes
        ));
    }

    out.heading("Miss classes");
    out.line(format!(
        "{:<18} {:>9} {:>9} {:>9}",
        "file", "cold", "capacity", "self"
    ));
    for k in 0..KIND_SLOTS {
        let m = p.misses[k];
        if m.total() == 0 {
            continue;
        }
        out.line(format!(
            "{:<18} {:>9} {:>9} {:>9}",
            kind_label(k),
            m.cold,
            m.capacity,
            m.self_refetch
        ));
    }
    let m = p.miss_totals();
    out.line(format!(
        "{:<18} {:>9} {:>9} {:>9}",
        "total", m.cold, m.capacity, m.self_refetch
    ));

    out.heading("Buffer residency");
    out.line(format!(
        "peak {} pages resident, first reached at event {}",
        p.max_resident, p.max_resident_at
    ));
    if !p.residency.is_empty() {
        // Downsample to at most 16 evenly spaced samples (deterministic:
        // indices are a pure function of the sample count).
        const MAX_SAMPLES: usize = 16;
        let n = p.residency.len();
        let picks: Vec<usize> = if n <= MAX_SAMPLES {
            (0..n).collect()
        } else {
            (0..MAX_SAMPLES)
                .map(|i| i * (n - 1) / (MAX_SAMPLES - 1))
                .collect()
        };
        let row: Vec<String> = picks
            .iter()
            .map(|&i| format!("{}", p.residency[i].resident))
            .collect();
        out.line(format!("timeline ({} samples): {}", n, row.join(" ")));
    }

    out.heading("Logical work (Table-4 metrics)");
    out.line(format!("tuples generated  : {}", counts.tuples_generated));
    out.line(format!(
        "tuple I/O         : {} (reads {}, writes {})",
        counts.tuple_io(),
        counts.tuple_reads,
        counts.tuple_writes
    ));
    out.line(format!("list fetches      : {}", counts.list_fetches));
    out.line(format!("unions            : {}", counts.unions));
    out.line(format!("duplicates        : {}", counts.duplicates));
    out.line(format!("answer tuples     : {}", counts.answer_tuples));

    out.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::ProfileFold;
    use tc_trace::{Event, Kind};

    fn sample_profile() -> Profile {
        let mut f = ProfileFold::new().with_interval(2);
        f.push(Event::RunBegin {
            algorithm: tc_trace::Algorithm::Btc,
            ms_per_io: 20.0,
        });
        for p in 0..3 {
            f.push(Event::BufMiss {
                page: p,
                read: true,
            });
            f.push(Event::PageRead {
                page: p,
                kind: Kind::Relation,
            });
        }
        f.push(Event::BufHit {
            page: 0,
            read: true,
        });
        f.push(Event::Union);
        f.finish()
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let p = sample_profile();
        let a = render(&p);
        let b = render(&p);
        assert_eq!(a, b);
        assert!(a.contains("tc-profile report — BTC"), "{a}");
        assert!(a.contains("Page I/O attribution"), "{a}");
        assert!(a.contains("Miss classes"), "{a}");
        assert!(a.contains("relation"), "{a}");
        assert!(a.contains("unions             : 1") || a.contains("unions            : 1"));
        // Totals line matches the fold.
        assert!(a.contains("page I/O          : 3 (r 3, w 0)"), "{a}");
    }

    #[test]
    fn pct_renders_basis_points() {
        assert_eq!(pct(10_000), "100.00%");
        assert_eq!(pct(9_321), "93.21%");
        assert_eq!(pct(5), "0.05%");
    }
}
