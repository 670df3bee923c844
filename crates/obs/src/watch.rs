//! `rd-inspect watch`: a terminal dashboard over a live run's
//! `/status` endpoint.
//!
//! The binary polls `http://ADDR/status`, reads the reply back into a
//! [`LiveSnapshot`] with the archive reader
//! ([`archive::parse_status`]), and redraws a single fixed-height frame
//! in place. Everything that decides what a frame looks like lives here
//! — [`render_frame`] is a pure function of the snapshot plus a rolling
//! [`WatchState`] — so the dashboard is unit-testable without a server
//! or a terminal.

use crate::archive;
use crate::live::LiveSnapshot;
use std::fmt::Write as _;

/// Width of the rounds/s sparkline (and the history window backing it).
pub const SPARK_WIDTH: usize = 32;

const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Rolling per-session state: the rounds/s history the sparkline draws.
#[derive(Debug, Default)]
pub struct WatchState {
    history: Vec<f64>,
}

impl WatchState {
    /// Records one rounds/s sample, keeping the last [`SPARK_WIDTH`].
    pub fn observe(&mut self, rounds_per_sec: f64) {
        self.history.push(rounds_per_sec.max(0.0));
        if self.history.len() > SPARK_WIDTH {
            self.history.remove(0);
        }
    }

    pub fn history(&self) -> &[f64] {
        &self.history
    }
}

/// Renders `values` as a unicode sparkline scaled to the window max.
/// A flat-zero (or empty) window renders as all-minimum glyphs padded
/// to `width` so the frame height and width never jitter.
pub fn sparkline(values: &[f64], width: usize) -> String {
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    let mut out = String::with_capacity(width * 3);
    for &v in values.iter().rev().take(width).rev() {
        let idx = if max > 0.0 {
            (((v / max) * (SPARK_GLYPHS.len() - 1) as f64).round() as usize)
                .min(SPARK_GLYPHS.len() - 1)
        } else {
            0
        };
        out.push(SPARK_GLYPHS[idx]);
    }
    for _ in values.len().min(width)..width {
        out.insert(0, ' ');
    }
    out
}

/// Renders one dashboard frame from a snapshot and the rolling state.
/// Pure: no IO, no terminal control sequences.
pub fn render_frame(snap: &LiveSnapshot, state: &WatchState) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "rd-live watch | {} on {} | n={} seed={} | {} ({} workers)",
        snap.meta.algorithm,
        snap.meta.topology,
        snap.meta.n,
        snap.meta.seed,
        snap.meta.engine,
        snap.meta.workers,
    );
    let status = if snap.finished {
        format!("finished: {}", snap.verdict)
    } else {
        "running".to_string()
    };
    let _ = writeln!(
        out,
        "  round       {:>10} / {}  [{status}]",
        snap.round, snap.max_rounds
    );
    let _ = writeln!(
        out,
        "  rounds/s    {:>10.1}  {}",
        snap.rounds_per_sec,
        sparkline(state.history(), SPARK_WIDTH)
    );
    let _ = writeln!(out, "  msgs/s      {:>10.0}", snap.msgs_per_sec);

    // Convergence bar: 24 cells; `convergence_pct` is capped at 100.
    let convergence = snap.convergence_pct();
    let cells = ((convergence / 100.0) * 24.0).round() as usize;
    let bar: String = (0..24).map(|i| if i < cells { '#' } else { '.' }).collect();
    let _ = writeln!(out, "  convergence {convergence:>9.1}%  [{bar}]");
    let _ = writeln!(
        out,
        "  messages    {:>10}  (retransmissions {})",
        snap.messages, snap.retransmissions,
    );

    // The three heaviest drop causes; a cause without drops is left out.
    let mut causes = snap.drops.by_cause();
    causes.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let top: Vec<String> = causes
        .iter()
        .filter(|&&(_, count)| count > 0)
        .take(3)
        .map(|(cause, count)| format!("{cause} {count}"))
        .collect();
    if top.is_empty() {
        let _ = writeln!(out, "  drops              none");
    } else {
        let _ = writeln!(
            out,
            "  drops       {:>10}  ({})",
            snap.drops.total(),
            top.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "  shards      {:>9.2}x imbalance, {:>4.0}% utilization",
        snap.imbalance(),
        snap.utilization() * 100.0,
    );
    let _ = writeln!(
        out,
        "  resident    {:>8.1} MiB (pools {:.1} MiB)",
        snap.resident_bytes as f64 / (1024.0 * 1024.0),
        snap.pool_bytes as f64 / (1024.0 * 1024.0),
    );
    if snap.alerts > 0 {
        let _ = writeln!(
            out,
            "  ALERTS      {:>10}  (see run stderr / archive)",
            snap.alerts
        );
    } else {
        let _ = writeln!(out, "  alerts             none");
    }
    out
}

/// One poll step shared by the binary's loop: fetch `/status`, parse,
/// update the sparkline history, render. Returns the frame plus the
/// `finished` flag so the caller knows when to stop; before the run's
/// first snapshot the frame says so.
pub fn poll_frame(addr: &str, state: &mut WatchState) -> Result<(String, bool), String> {
    let (code, body) =
        crate::http::http_get(addr, "/status").map_err(|e| format!("GET {addr}/status: {e}"))?;
    match code {
        200 => {}
        503 => return Ok(("waiting for the run's first snapshot\n".into(), false)),
        _ => return Err(format!("GET {addr}/status: HTTP {code}")),
    }
    let snap = archive::parse_status(&body).map_err(|e| format!("bad /status: {e}"))?;
    state.observe(snap.rounds_per_sec);
    Ok((render_frame(&snap, state), snap.finished))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{DropTally, RunMeta};

    fn sample() -> LiveSnapshot {
        LiveSnapshot {
            meta: RunMeta {
                algorithm: "hm".into(),
                topology: "3-out".into(),
                engine: "sharded:4".into(),
                n: 1024,
                seed: 42,
                workers: 4,
                latency_model: None,
            },
            round: 37,
            max_rounds: 100_000,
            rounds_per_sec: 210.5,
            msgs_per_sec: 80_000.0,
            messages: 123_456,
            retransmissions: 78,
            drops: DropTally {
                coin: 900,
                crash: 40,
                partition: 1200,
                ..DropTally::default()
            },
            knowledge_total: 524_288,
            knowledge_target: 1_048_576,
            shard_busy_ns: vec![100, 200, 300, 400],
            round_wall_ns: 500,
            resident_bytes: 64 * 1024 * 1024,
            ..Default::default()
        }
    }

    #[test]
    fn sparkline_scales_to_window_max() {
        assert_eq!(sparkline(&[], 4), "    ");
        assert_eq!(sparkline(&[0.0, 0.0], 4), "  ▁▁");
        let ramp = sparkline(&[1.0, 4.0, 8.0], 3);
        let glyphs: Vec<char> = ramp.chars().collect();
        assert_eq!(glyphs.len(), 3);
        assert_eq!(glyphs[2], '█', "window max renders full-height");
        assert!(glyphs[0] < glyphs[2]);
    }

    #[test]
    fn state_caps_history_at_the_spark_width() {
        let mut state = WatchState::default();
        for i in 0..(SPARK_WIDTH + 10) {
            state.observe(i as f64);
        }
        assert_eq!(state.history().len(), SPARK_WIDTH);
        assert_eq!(state.history()[0], 10.0, "oldest samples evicted");
    }

    #[test]
    fn frame_renders_identity_rates_drops_and_convergence() {
        let mut state = WatchState::default();
        state.observe(100.0);
        state.observe(210.5);
        let frame = render_frame(&sample(), &state);
        assert!(frame.contains("hm on 3-out"));
        assert!(frame.contains("n=1024"));
        assert!(frame.contains("37 / 100000"));
        assert!(frame.contains("210.5"));
        assert!(frame.contains("50.0%"), "convergence half-way: {frame}");
        // Drop causes sorted heaviest-first.
        assert!(frame.contains("partition 1200, coin 900, crash 40"));
        assert!(frame.contains("1.60x imbalance"), "{frame}");
        assert!(frame.contains("alerts             none"));
        assert!(frame.contains("[running]"));
        assert!(frame.contains('█'), "sparkline present");
    }

    #[test]
    fn a_frame_reads_the_same_through_status() {
        let state = WatchState::default();
        let served = archive::parse_status(&archive::render_status(&sample())).unwrap();
        assert_eq!(
            render_frame(&served, &state),
            render_frame(&sample(), &state)
        );
    }

    #[test]
    fn finished_runs_show_their_verdict_and_alert_count() {
        let snap = LiveSnapshot {
            finished: true,
            verdict: "complete".into(),
            alerts: 2,
            ..Default::default()
        };
        let frame = render_frame(&snap, &WatchState::default());
        assert!(frame.contains("[finished: complete]"));
        assert!(frame.contains("ALERTS               2"));
        assert!(frame.contains("drops              none"));
    }
}
