//! Terminal scatter plots: quick visual shape checks for the figure
//! series, rendered as plain text so they live happily in logs and in
//! EXPERIMENTS.md code blocks.

use std::fmt;

const MARKERS: [char; 6] = ['o', 'x', '+', '*', '#', '@'];

/// A multi-series character-grid scatter plot.
///
/// # Example
///
/// ```
/// use rd_analysis::plot::Plot;
///
/// let mut p = Plot::new(40, 10).with_log_x();
/// p.series("hm", [(256.0, 29.0), (1024.0, 33.0), (8192.0, 34.0)]);
/// p.series("nd", [(256.0, 19.0), (1024.0, 21.0), (4096.0, 26.0)]);
/// let text = p.to_string();
/// assert!(text.contains("o = hm"));
/// assert!(text.contains('x'));
/// ```
#[derive(Debug, Clone)]
pub struct Plot {
    width: usize,
    height: usize,
    log_x: bool,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl Plot {
    /// Creates a plot with the given character-grid dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width >= 2 && height >= 2,
            "plot too small: {width}x{height}"
        );
        Plot {
            width,
            height,
            log_x: false,
            series: Vec::new(),
        }
    }

    /// Scales the x axis logarithmically (base 2).
    pub fn with_log_x(mut self) -> Self {
        self.log_x = true;
        self
    }

    /// Adds a named series. Points with a non-positive x on a
    /// log-scaled x axis are skipped at render time.
    pub fn series(
        &mut self,
        label: impl Into<String>,
        points: impl IntoIterator<Item = (f64, f64)>,
    ) -> &mut Self {
        self.series
            .push((label.into(), points.into_iter().collect()));
        self
    }

    fn scale_x(&self, x: f64) -> Option<f64> {
        if self.log_x {
            (x > 0.0).then(|| x.log2())
        } else {
            Some(x)
        }
    }
}

impl fmt::Display for Plot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Collect scaled points per series.
        let scaled: Vec<(usize, Vec<(f64, f64)>)> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, (_, pts))| {
                let pts = pts
                    .iter()
                    .filter_map(|&(x, y)| Some((self.scale_x(x)?, y)))
                    .collect();
                (i, pts)
            })
            .collect();
        let all: Vec<(f64, f64)> = scaled.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        if all.is_empty() {
            return writeln!(f, "(empty plot)");
        }
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(x, y) in &all {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        let span = |lo: f64, hi: f64| {
            if (hi - lo).abs() < 1e-12 {
                1.0
            } else {
                hi - lo
            }
        };
        let (sx, sy) = (span(min_x, max_x), span(min_y, max_y));

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, pts) in &scaled {
            let marker = MARKERS[si % MARKERS.len()];
            for &(x, y) in pts {
                let col = (((x - min_x) / sx) * (self.width - 1) as f64).round() as usize;
                let row = (((y - min_y) / sy) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - row; // y grows upward
                grid[row][col] = marker;
            }
        }

        let unscale_x = |x: f64| if self.log_x { 2f64.powf(x) } else { x };
        writeln!(f, "{:>10.4} +{}", max_y, "-".repeat(self.width))?;
        for row in &grid {
            writeln!(f, "{:>10} |{}", "", row.iter().collect::<String>())?;
        }
        writeln!(f, "{:>10.4} +{}", min_y, "-".repeat(self.width))?;
        writeln!(
            f,
            "{:>10} {:<.4}{}{:>.4}",
            "",
            unscale_x(min_x),
            " ".repeat(self.width.saturating_sub(8)),
            unscale_x(max_x),
        )?;
        for (i, (label, _)) in self.series.iter().enumerate() {
            writeln!(f, "{:>12} = {}", MARKERS[i % MARKERS.len()], label)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markers_for_each_series() {
        let mut p = Plot::new(20, 6);
        p.series("a", [(0.0, 0.0), (1.0, 1.0)]);
        p.series("b", [(0.5, 0.5)]);
        let s = p.to_string();
        assert!(s.contains('o'));
        assert!(s.contains('x'));
        assert!(s.contains("o = a"));
        assert!(s.contains("x = b"));
    }

    #[test]
    fn empty_plot_renders_placeholder() {
        let p = Plot::new(10, 4);
        assert!(p.to_string().contains("empty"));
    }

    #[test]
    fn log_axis_skips_nonpositive_points() {
        let mut p = Plot::new(10, 4).with_log_x();
        p.series("a", [(0.0, 1.0)]); // unplottable on log x
        assert!(p.to_string().contains("empty"));
        let mut q = Plot::new(10, 4).with_log_x();
        q.series("a", [(1.0, 1.0), (1024.0, 2.0)]);
        assert!(q.to_string().contains('o'));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut p = Plot::new(12, 4);
        p.series("flat", [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]);
        let s = p.to_string();
        assert!(s.contains('o'));
    }

    #[test]
    fn corner_points_land_on_grid_edges() {
        let mut p = Plot::new(10, 5);
        p.series("a", [(0.0, 0.0), (9.0, 4.0)]);
        let s = p.to_string();
        let rows: Vec<&str> = s.lines().collect();
        // Top data row holds the max-y point, bottom data row the min-y.
        assert!(rows[1].contains('o'));
        assert!(rows[5].contains('o'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_dimensions_rejected() {
        Plot::new(1, 5);
    }
}
