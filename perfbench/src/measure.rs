//! One measured pass over a built platform: warm-up, then a closed loop
//! of `Platform::step` calls (the next step starts when the previous one
//! returns), with every epoch's outputs checked. A traced pass also
//! sweeps the layers' public read-only calls between steps and times
//! each sweep outside `step`.

use crate::scenario::Scenario;
use megadc::demand::LoadSnapshot;
use megadc::ids::vip_prefix;
use megadc::obs::footprint::ALL_ACTIONS;
use megadc::obs::phases::EPOCH_PHASES;
use megadc::obs::STRUCTURAL_KINDS;
use megadc::pod::PodManager;
use megadc::{Platform, PodId};
use std::hint::black_box;
use std::time::Instant;

/// Relative slack for float comparisons between a served and an offered
/// total (the two are accumulated in different orders).
const REL_EPS: f64 = 1e-9;

/// The platform's public cumulative counters, by reported name, in the
/// order [`Counters::read`] fills them.
pub const COUNTER_NAMES: [&str; 15] = [
    "core.pod.placement_changes",
    "core.pod.instance_starts",
    "core.pod.instance_stops",
    "core.viprip.requests",
    "core.viprip.failed",
    "core.global.exposure_updates",
    "core.global.vip_transfers",
    "core.global.reweights",
    "core.global.deployments",
    "lbswitch.reconfigs",
    "dcdns.reconfigs",
    "dcnet.route_updates",
    "elastic.proactive_deploys",
    "obs.events",
    "obs.ring_dropped",
];

/// Values of the [`COUNTER_NAMES`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters(pub [u64; COUNTER_NAMES.len()]);

impl Counters {
    /// Read every counter from the live platform.
    pub fn read(p: &Platform) -> Counters {
        let rec = &p.global.recorder;
        let knobs = &p.global.counters;
        let m = &p.metrics;
        let events = ALL_ACTIONS
            .iter()
            .map(|a| rec.total_count(a.name()))
            .chain(STRUCTURAL_KINDS.iter().map(|k| rec.total_count(k.key())))
            .sum();
        Counters([
            m.placement_changes.get(),
            m.instance_starts.get(),
            m.instance_stops.get(),
            p.global.viprip.processed(),
            p.global.viprip.failed(),
            knobs.exposure_updates,
            knobs.vip_transfers_completed,
            knobs.interpod_weight_adjustments,
            knobs.deployments_started,
            p.state.switches.iter().map(|s| s.reconfigurations()).sum(),
            p.state.dns.reconfigurations(),
            p.state.routes.updates_sent(),
            m.proactive_deployments.get(),
            events,
            rec.dropped(),
        ])
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - before.0[i]))
    }

    /// One counter by name.
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTER_NAMES.iter().position(|&n| n == name);
        self.0[i.expect("a name from COUNTER_NAMES")]
    }
}

/// What a pass computes from simulation state alone. It must repeat bit
/// for bit for one seed, and a traced pass must match an untraced one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    /// Measured epochs.
    pub epochs: usize,
    /// Mean served fraction over the window.
    pub served_fraction_mean: f64,
    /// Mean offered demand over the window, bits/s (the generated input).
    pub offered_bps_mean: f64,
    /// Counter deltas over the window.
    pub counts: Counters,
}

impl Deterministic {
    /// LB-switch reconfigurations per measured epoch.
    pub fn reconfigs_per_epoch(&self) -> f64 {
        self.counts.get("lbswitch.reconfigs") as f64 / self.epochs as f64
    }

    /// Failed share of the VIP/RIP requests processed in the window
    /// (0 when none were processed).
    pub fn failed_ops_frac(&self) -> f64 {
        match self.counts.get("core.viprip.requests") {
            0 => 0.0,
            n => self.counts.get("core.viprip.failed") as f64 / n as f64,
        }
    }

    /// Bit-for-bit equality, floats included.
    pub fn same_bits(&self, other: &Deterministic) -> bool {
        self.epochs == other.epochs
            && self.served_fraction_mean.to_bits() == other.served_fraction_mean.to_bits()
            && self.offered_bps_mean.to_bits() == other.offered_bps_mean.to_bits()
            && self.counts == other.counts
    }
}

/// Host seconds of each layer sweep, and the sizes the sweeps saw,
/// summed over the window's epochs (traced passes only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweeps {
    /// `Workload::demand_bps` over every app.
    pub workload_demand_s: f64,
    /// `DnsSystem::effective_shares` over every app.
    pub dcdns_shares_s: f64,
    /// Share entries those calls returned.
    pub dcdns_share_entries: f64,
    /// `RouteTable::preferred_routes` over every VIP.
    pub dcnet_routes_s: f64,
    /// Routes those calls returned.
    pub dcnet_routes_returned: f64,
    /// `LbSwitch::distribute_vip` over every configured VIP.
    pub lbswitch_distribute_s: f64,
    /// RIP shares those calls returned.
    pub lbswitch_rip_shares: f64,
    /// `LbSwitch::utilization` over every switch.
    pub lbswitch_utilization_s: f64,
    /// `PodManager::plan`, over every pod.
    pub pod_plan_s: f64,
    /// The slowest single pod's `plan` in each sweep.
    pub pod_plan_s_max: f64,
    /// VMs in the planning problems.
    pub pod_problem_vms: f64,
    /// `Registry::render_text`.
    pub obs_render_s: f64,
}

/// The per-layer view of a traced pass, summed over the window.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    /// Profiler seconds for each `obs::phases::EPOCH_PHASES` entry, in
    /// declaration order.
    pub phase_s: Vec<f64>,
    /// Sweep totals.
    pub sweeps: Sweeps,
}

/// The result of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Host seconds per measured epoch: the summed `step` time over the
    /// epoch count. Checks and sweeps run between steps, off the clock.
    pub epoch_s: f64,
    /// Host seconds from the window's first step to its last return,
    /// checks and sweeps included.
    pub window_wall_s: f64,
    /// Run-queue wait of the measuring thread over the window, seconds
    /// (`None` where `/proc/thread-self/schedstat` is unreadable).
    pub runqueue_wait_s: Option<f64>,
    /// Results from simulation state.
    pub det: Deterministic,
    /// Traced passes only.
    pub layers: Option<Layers>,
}

/// Check one epoch's snapshot: served never exceeds offered, per app,
/// per VIP and in total, and the served fraction is a fraction.
pub fn check_snapshot(snap: &LoadSnapshot) -> Result<(), String> {
    let slack = |x: f64| x.abs() * REL_EPS + 1e-6;
    for (a, (&offered, &lost)) in snap
        .app_demand_bps
        .iter()
        .zip(&snap.unserved_bps_by_app)
        .enumerate()
    {
        if !(offered.is_finite() && offered >= 0.0) {
            return Err(format!("app {a}: offered demand {offered} is not a rate"));
        }
        if !(lost.is_finite() && lost >= -slack(offered) && lost <= offered + slack(offered)) {
            return Err(format!(
                "app {a}: unserved {lost} outside [0, offered {offered}]"
            ));
        }
    }
    for (vip, &served) in &snap.vip_served_bps {
        let offered = snap.vip_demand_bps.get(vip).copied().unwrap_or(0.0);
        if !(served >= 0.0 && served <= offered + slack(offered)) {
            return Err(format!("{vip}: served {served} exceeds offered {offered}"));
        }
    }
    let offered = snap.total_demand_bps();
    let lost = snap.total_unserved_bps();
    if lost > offered + slack(offered) {
        return Err(format!("unserved {lost} exceeds offered {offered}"));
    }
    let served = snap.served_fraction();
    if !(0.0..=1.0).contains(&served) {
        return Err(format!("served fraction {served} outside [0, 1]"));
    }
    Ok(())
}

/// Run the workload's warm-up, then a window of `window` epochs, on a
/// prepared platform. Every epoch is checked, and the platform's
/// cross-component invariants are asserted after the window (a
/// violation panics). `traced` adds the layer sweeps.
pub fn run_pass(
    p: &mut Platform,
    scenario: Scenario,
    window: usize,
    traced: bool,
) -> Result<Pass, String> {
    for _ in 0..scenario.warmup_epochs() {
        check_snapshot(p.step())?;
    }
    let counts0 = Counters::read(p);
    let phase0: Vec<f64> = (0..EPOCH_PHASES.len())
        .map(|i| p.profiler.total_s(i))
        .collect();
    let mut step_s = 0.0;
    let mut served_sum = 0.0;
    let mut offered_sum = 0.0;
    let mut sweeps = Sweeps::default();
    let wait0 = crate::host::runqueue_wait_s();
    let window_start = Instant::now();
    for _ in 0..window {
        let t = Instant::now();
        let snap = p.step();
        step_s += t.elapsed().as_secs_f64();
        check_snapshot(snap)?;
        served_sum += snap.served_fraction();
        offered_sum += snap.total_demand_bps();
        if traced {
            sweep(p, &mut sweeps);
        }
    }
    let window_wall_s = window_start.elapsed().as_secs_f64();
    let runqueue_wait_s = match (wait0, crate::host::runqueue_wait_s()) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    };
    p.state.assert_invariants();
    let det = Deterministic {
        epochs: window,
        served_fraction_mean: served_sum / window as f64,
        offered_bps_mean: offered_sum / window as f64,
        counts: Counters::read(p).since(&counts0),
    };
    let failed = det.failed_ops_frac();
    if !(0.0..=1.0).contains(&failed) {
        return Err(format!("failed_ops_frac {failed} outside [0, 1]"));
    }
    let layers = traced.then(|| Layers {
        phase_s: phase0
            .iter()
            .enumerate()
            .map(|(i, t0)| p.profiler.total_s(i) - t0)
            .collect(),
        sweeps,
    });
    Ok(Pass {
        epoch_s: step_s / window as f64,
        window_wall_s,
        runqueue_wait_s,
        det,
        layers,
    })
}

/// Time each layer's public read-only calls once over the live state,
/// adding to the window's totals in `s`.
fn sweep(p: &Platform, s: &mut Sweeps) {
    let st = &p.state;
    let now = p.now();

    let t = Instant::now();
    let total: f64 = (0..st.num_apps() as u32)
        .map(|a| p.workload.demand_bps(a, now))
        .sum();
    black_box(total);
    s.workload_demand_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut entries = 0usize;
    for app in st.apps() {
        entries += black_box(st.dns.effective_shares(app.id.dns_key(), now)).len();
    }
    s.dcdns_shares_s += t.elapsed().as_secs_f64();
    s.dcdns_share_entries += entries as f64;

    let t = Instant::now();
    let mut routes = 0usize;
    for (vip, _) in st.vips() {
        routes += black_box(st.routes.preferred_routes(vip_prefix(vip), now)).len();
    }
    s.dcnet_routes_s += t.elapsed().as_secs_f64();
    s.dcnet_routes_returned += routes as f64;

    let t = Instant::now();
    let mut shares = 0usize;
    for sw in &st.switches {
        for (vip, _) in sw.vips() {
            shares += black_box(sw.distribute_vip(vip)).map_or(0, |d| d.len());
        }
    }
    s.lbswitch_distribute_s += t.elapsed().as_secs_f64();
    s.lbswitch_rip_shares += shares as f64;

    let t = Instant::now();
    let util: f64 = st.switches.iter().map(|sw| sw.utilization()).sum();
    black_box(util);
    s.lbswitch_utilization_s += t.elapsed().as_secs_f64();

    let snap = p.last_snapshot().expect("a step ran before the sweep");
    let mut slowest = 0.0f64;
    for pod in 0..st.num_pods() {
        let t = Instant::now();
        let plan = black_box(PodManager::new(PodId(pod as u32)).plan(st, snap));
        let dt = t.elapsed().as_secs_f64();
        s.pod_plan_s += dt;
        slowest = slowest.max(dt);
        s.pod_problem_vms += plan.problem_size.1 as f64;
    }
    s.pod_plan_s_max += slowest;

    let t = Instant::now();
    black_box(p.registry.render_text("perfbench").len());
    s.obs_render_s += t.elapsed().as_secs_f64();
}
