//! The megadc benchmark: drives `megadc::Platform` from outside through
//! `Platform::build`, `Platform::step` and the layers' public read-only
//! calls, and changes no program code.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-20k --seed 1 --seconds 15 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) repeats the workload with layer sweeps between steps
//! and reports the per-layer metrics. The last line of standard output
//! is the result object; the lines before it are diagnostics. See
//! `NOTES.md` for the workloads, the metrics and what each should move.

#![forbid(unsafe_code)]

pub mod host;
pub mod measure;
pub mod report;
pub mod scenario;
#[cfg(test)]
mod tests;

use measure::{run_pass, Pass};
use report::Metric;
use scenario::{Scenario, Size};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Platform builds per untraced run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The workload.
    pub scenario: Scenario,
    /// Input seed.
    pub seed: u64,
    /// Host seconds the window should take.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let (mut scenario, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                scenario = Some(Scenario::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=3600).contains(&s))
                        .ok_or_else(|| bad("a whole number of seconds in 1..=3600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        scenario: scenario.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything a run prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Diagnostic lines (host noise, tracing overhead, exact values of
    /// the deterministic results).
    pub diagnostics: Vec<String>,
    /// Every check passed.
    pub correct: bool,
    /// Measured epochs attempted.
    pub attempted: u64,
    /// Measured epochs that failed: all of them when the run panicked
    /// or failed a check, whose timings are then discarded.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line (the last line of standard output).
    pub fn result_line(&self) -> String {
        report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Run the benchmark as the command line asks, at `size`. A panic or a
/// failed check yields an incorrect outcome, never a timing.
pub fn run(args: &Args, size: Size) -> Outcome {
    let window = args.scenario.window_epochs(args.seconds);
    let measured = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            traced(args, size, window)
        } else {
            untraced(args, size, window)
        }
    }));
    let error = match measured {
        Ok(Ok(outcome)) => return outcome,
        Ok(Err(msg)) => msg,
        Err(panic) => panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string()),
    };
    Outcome {
        diagnostics: vec![format!("perfbench: FAILED: {error}")],
        correct: false,
        attempted: window as u64,
        failed: window as u64,
        metrics: vec![Metric {
            name: "failed_ops_frac".into(),
            unit: "fraction",
            value: 1.0,
        }],
    }
}

fn build_prepared(args: &Args, size: Size, window: usize) -> megadc::Platform {
    let mut p = args.scenario.build(size, args.seed);
    args.scenario.prepare(&mut p, window);
    p
}

fn untraced(args: &Args, size: Size, window: usize) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_BUILDS);
    let mut platform = None;
    for _ in 0..SETUP_BUILDS {
        // Drop the previous platform first: peak memory is one platform's.
        drop(platform.take());
        let t = Instant::now();
        platform = Some(args.scenario.build(size, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut p = platform.expect("SETUP_BUILDS > 0");
    args.scenario.prepare(&mut p, window);
    let pass = run_pass(&mut p, args.scenario, window, false)?;
    let peak = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut diagnostics = vec![noise_line(args, &pass)];
    diagnostics.push(format!("perfbench: setup_s_builds={setup_s:?}"));
    diagnostics.push(deterministic_line(&pass));
    Ok(Outcome {
        diagnostics,
        correct: true,
        attempted: window as u64,
        failed: 0,
        metrics: report::end_to_end(median(&mut setup_s), &pass, peak),
    })
}

fn traced(args: &Args, size: Size, window: usize) -> Result<Outcome, String> {
    let base = run_pass(
        &mut build_prepared(args, size, window),
        args.scenario,
        window,
        false,
    )?;
    let pass = run_pass(
        &mut build_prepared(args, size, window),
        args.scenario,
        window,
        true,
    )?;
    if !base.det.same_bits(&pass.det) {
        return Err(format!(
            "traced run diverged from the untraced run: {:?} vs {:?}",
            pass.det, base.det
        ));
    }
    let layers = pass.layers.as_ref().expect("traced pass has layers");
    let phase_sum: f64 = layers.phase_s.iter().sum();
    let mut diagnostics = vec![noise_line(args, &pass)];
    diagnostics.push(format!(
        "perfbench: untraced_epoch_s={} traced_epoch_s={} tracing_overhead_s={} \
         sweep_s_per_epoch={} phase_sum_over_step={}",
        base.epoch_s,
        pass.epoch_s,
        pass.epoch_s - base.epoch_s,
        (pass.window_wall_s / window as f64) - pass.epoch_s,
        phase_sum / window as f64 / pass.epoch_s,
    ));
    diagnostics.push(deterministic_line(&pass));
    Ok(Outcome {
        diagnostics,
        correct: true,
        attempted: window as u64,
        failed: 0,
        metrics: report::per_layer(&pass, layers),
    })
}

/// Host-noise context printed with every result (not gated).
fn noise_line(args: &Args, pass: &Pass) -> String {
    let wait = pass.runqueue_wait_s.map_or("unavailable".to_string(), |w| {
        (w / pass.window_wall_s).to_string()
    });
    format!(
        "perfbench: workload={} seed={} trace={} available_parallelism={} threads={} \
         window_epochs={} window_wall_s={} runqueue_wait_frac={wait}",
        args.scenario.name(),
        args.seed,
        u8::from(args.trace),
        host::available_parallelism(),
        args.scenario.threads(),
        pass.det.epochs,
        pass.window_wall_s,
    )
}

/// The deterministic results with every digit, for comparing runs.
fn deterministic_line(pass: &Pass) -> String {
    let d = &pass.det;
    let mut line = format!(
        "perfbench: deterministic served_fraction_mean={:?} reconfigs_per_epoch={:?} \
         failed_ops_frac={:?} offered_bps_mean={:?}",
        d.served_fraction_mean,
        d.reconfigs_per_epoch(),
        d.failed_ops_frac(),
        d.offered_bps_mean,
    );
    for (name, n) in measure::COUNTER_NAMES.iter().zip(d.counts.0) {
        line.push_str(&format!(" {name}={n}"));
    }
    line
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}
