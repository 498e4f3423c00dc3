//! Command-line parameters shared by the figure binaries.

/// Parsed harness parameters.
#[derive(Clone, Debug)]
pub struct FigureParams {
    /// Linear scale on the paper's `m = n = 14400`-class dimensions.
    pub scale: f64,
    /// Timed repetitions per point (after one warm-up).
    pub reps: usize,
    /// Pool width, in workers (1 = sequential executors).
    pub threads: usize,
    /// Restrict to the first N algorithms of the Figure 2 table (0 = all).
    pub limit_algos: usize,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

impl Default for FigureParams {
    fn default() -> Self {
        Self { scale: 0.1, reps: 1, threads: 1, limit_algos: 0, csv: false }
    }
}

impl FigureParams {
    /// Parse `--scale X --reps N --threads N --limit N --csv` from args.
    pub fn from_args() -> Self {
        let mut p = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    p.scale = args[i + 1].parse().expect("--scale takes a float");
                    i += 2;
                }
                "--reps" => {
                    p.reps = args[i + 1].parse().expect("--reps takes an integer");
                    i += 2;
                }
                "--threads" => {
                    p.threads = args[i + 1].parse().expect("--threads takes an integer");
                    i += 2;
                }
                "--limit" => {
                    p.limit_algos = args[i + 1].parse().expect("--limit takes an integer");
                    i += 2;
                }
                "--csv" => {
                    p.csv = true;
                    i += 1;
                }
                other => panic!(
                    "unknown argument {other}; expected --scale X, --reps N, --threads N, --limit N or --csv"
                ),
            }
        }
        if p.threads > 1 {
            rayon::ThreadPoolBuilder::new()
                .num_threads(p.threads)
                .build_global()
                .expect("rayon pool");
        }
        p
    }

    /// Scale an `m = n`-type dimension, rounded to a multiple of `multiple`
    /// (at least one multiple).
    pub fn dim(&self, paper: usize, multiple: usize) -> usize {
        let raw = (paper as f64 * self.scale).round() as usize;
        (raw.max(multiple) / multiple) * multiple
    }

    /// The `k` sweep for a figure: paper values scaled, floored at 64, and
    /// deduplicated.
    pub fn k_sweep(&self, paper_points: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = paper_points
            .iter()
            .map(|&k| (((k as f64 * self.scale).round() as usize).max(64) / 8) * 8)
            .collect();
        out.dedup();
        out
    }

    /// True when the executors should run on more than one worker.
    pub fn parallel(&self) -> bool {
        self.threads > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_rounds_to_multiple() {
        let p = FigureParams { scale: 0.1, ..Default::default() };
        assert_eq!(p.dim(14400, 4) % 4, 0);
        assert_eq!(p.dim(14400, 4), 1440);
        assert_eq!(p.dim(10, 4), 4, "floors at one multiple");
    }

    #[test]
    fn k_sweep_scales_and_floors() {
        let p = FigureParams { scale: 0.1, ..Default::default() };
        let ks = p.k_sweep(&[1000, 2000, 12000]);
        assert_eq!(ks.len(), 3);
        assert!(ks.iter().all(|&k| k >= 64 && k % 8 == 0));
        let tiny = FigureParams { scale: 0.001, ..Default::default() };
        let ks = tiny.k_sweep(&[1000, 2000]);
        assert_eq!(ks, vec![64], "collapsed points deduplicate");
    }
}
