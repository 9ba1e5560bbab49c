//! Metric names, units and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! crate's tests hold the two in step.

use crate::measure::{Layers, Pass, COUNTER_NAMES};
use megadc::obs::phases::EPOCH_PHASES;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: f64, pass: &Pass, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", setup_s),
        metric("epoch_s", "s", pass.epoch_s),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric(
            "served_fraction_mean",
            "fraction",
            pass.det.served_fraction_mean,
        ),
    ]
}

/// The per-layer metrics of a traced pass: profiler phase seconds and
/// sweep results per epoch, then counter deltas over the window.
pub fn per_layer(pass: &Pass, layers: &Layers) -> Vec<Metric> {
    let per_epoch = 1.0 / pass.det.epochs as f64;
    let mut out: Vec<Metric> = EPOCH_PHASES
        .iter()
        .zip(&layers.phase_s)
        .map(|(ph, &s)| metric(format!("phase.{}_s", ph.id), "s", s * per_epoch))
        .collect();
    let w = &layers.sweeps;
    out.extend(
        [
            ("workload.demand_s", "s", w.workload_demand_s),
            ("dcdns.shares_s", "s", w.dcdns_shares_s),
            ("dcdns.share_entries", "count", w.dcdns_share_entries),
            ("dcnet.routes_s", "s", w.dcnet_routes_s),
            ("dcnet.routes_returned", "count", w.dcnet_routes_returned),
            ("lbswitch.distribute_s", "s", w.lbswitch_distribute_s),
            ("lbswitch.rip_shares", "count", w.lbswitch_rip_shares),
            ("lbswitch.utilization_s", "s", w.lbswitch_utilization_s),
            ("core.pod.plan_s", "s", w.pod_plan_s),
            ("core.pod.plan_s_max", "s", w.pod_plan_s_max),
            ("core.pod.problem_vms", "count", w.pod_problem_vms),
            ("obs.render_s", "s", w.obs_render_s),
        ]
        .map(|(name, unit, total)| metric(name, unit, total * per_epoch)),
    );
    out.extend(
        COUNTER_NAMES
            .iter()
            .zip(pass.det.counts.0)
            .map(|(&name, n)| metric(name, "count", n as f64)),
    );
    out.push(metric(
        "reconfigs_per_epoch",
        "count",
        pass.det.reconfigs_per_epoch(),
    ));
    out.push(metric(
        "failed_ops_frac",
        "fraction",
        pass.det.failed_ops_frac(),
    ));
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Numbers keep every digit (shortest
/// round-trip form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
