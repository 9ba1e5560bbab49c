//! The two benchmark workloads: how each platform is configured, built
//! and driven. Inputs come only from the workload name, the seed and the
//! window length, so one seed always yields the same inputs.

use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use workload::FlashCrowd;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// E19's scale tier at 20k apps: flat demand, reactive plane, two
    /// worker threads. Demand propagation and pod planning do the work.
    Steady20k,
    /// Paper-shaped fleet at 3k apps under staggered 8x flash crowds
    /// with the proactive plane, one thread. The global knobs, the
    /// VIP/RIP queue and the LB-switch writes do real work.
    Flash3k,
}

/// Fleet size: `Full` is what the benchmark measures; `Tiny` keeps the
/// same shape at a few hundred apps for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A test-sized fleet.
    Tiny,
}

/// Flash-crowd shape (flash-3k): peak multiplier, ramp, the number of
/// most-popular apps hit, and the epochs their starts are staggered over.
const FLASH_PEAK: f64 = 8.0;
const FLASH_RAMP_S: u64 = 60;
const FLASH_APPS: usize = 50;
const FLASH_STAGGER_EPOCHS: usize = 5;
/// The crowds begin this many epochs into the measured window, so the
/// window holds both the pre-crowd and the crowd regime.
const FLASH_START_EPOCH: u64 = 2;

impl Scenario {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Scenario; 2] = [Scenario::Steady20k, Scenario::Flash3k];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Steady20k => "steady-20k",
            Scenario::Flash3k => "flash-3k",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Worker threads, fixed so `MEGADC_THREADS` cannot change them.
    pub fn threads(self) -> usize {
        match self {
            Scenario::Steady20k => 2,
            Scenario::Flash3k => 1,
        }
    }

    /// Unmeasured epochs stepped after set-up, so the initial scale-out
    /// burst has decayed before the window opens.
    pub fn warmup_epochs(self) -> usize {
        match self {
            Scenario::Steady20k => 2,
            Scenario::Flash3k => 4,
        }
    }

    /// Host seconds one measured epoch takes on a 2-core x86-64 host;
    /// converts `--seconds` into a fixed epoch count, so the window (and
    /// every count measured over it) depends on the arguments only.
    pub fn nominal_epoch_s(self) -> f64 {
        match self {
            Scenario::Steady20k => 0.45,
            Scenario::Flash3k => 0.37,
        }
    }

    /// Measured epochs for a run of `seconds` host seconds (at least 4).
    pub fn window_epochs(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_epoch_s()).round() as usize).max(4)
    }

    /// The platform configuration for `seed`.
    pub fn config(self, size: Size, seed: u64) -> PlatformConfig {
        let mut cfg = PlatformConfig::paper_scale();
        match self {
            Scenario::Steady20k => {
                // E19's `tier_config(20_000)`: 1 server, 1 instance and
                // 1 VIP per app (+1 for the top 1%), ~500-server pods,
                // flat demand, reactive plane.
                let apps = match size {
                    Size::Full => 20_000,
                    Size::Tiny => 1_000,
                };
                cfg.num_apps = apps;
                cfg.num_servers = apps;
                cfg.initial_instances_per_app = 1;
                cfg.initial_pods = apps.div_ceil(500);
                cfg.pod_max_servers = 600;
                cfg.pod_max_vms = 2400;
                cfg.vips_per_app = 1;
                cfg.popular_extra_vips = 1;
                cfg.total_demand_bps = apps as f64 * 0.2e6;
                cfg.diurnal_amplitude = 0.0;
            }
            Scenario::Flash3k => {
                // The paper's §II ratios scaled down 100x in apps: 10
                // instances per app, 3 VIPs (+2 for the top 1%), 60 pods
                // of 500 servers, diurnal demand over a 120-epoch day.
                let (apps, pods) = match size {
                    Size::Full => (3_000, 60),
                    Size::Tiny => (300, 6),
                };
                cfg.num_apps = apps;
                cfg.num_servers = apps * 10;
                cfg.initial_instances_per_app = 10;
                cfg.initial_pods = pods;
                cfg.total_demand_bps = apps as f64 * 2e6;
                cfg.diurnal_amplitude = 0.4;
                cfg.diurnal_period = cfg.epoch * 120;
                cfg.elastic = elastic::ElasticConfig::proactive();
            }
        }
        cfg.seed = seed;
        cfg.threads = self.threads();
        cfg
    }

    /// Build the platform (the timed set-up step).
    pub fn build(self, size: Size, seed: u64) -> Platform {
        Platform::build(self.config(size, seed)).expect("benchmark config builds")
    }

    /// Make a freshly built platform ready for a window of `window`
    /// epochs: pin the epoch engine's schedule (no shuffle sanitizer,
    /// whatever `MEGADC_SHUFFLE` says) and register the workload's
    /// demand events. Not part of set-up time.
    pub fn prepare(self, p: &mut Platform, window: usize) {
        p.set_shuffle(None);
        if self == Scenario::Flash3k {
            let epoch = p.state.config.epoch;
            let ramp = SimDuration::from_secs(FLASH_RAMP_S);
            let first = p.now() + epoch * (self.warmup_epochs() as u64 + FLASH_START_EPOCH);
            let popular = p.workload.apps_by_popularity();
            let hit = FLASH_APPS.min(popular.len());
            for (i, &app) in popular[..hit].iter().enumerate() {
                let offset = (i * FLASH_STAGGER_EPOCHS / hit) as u64;
                p.workload.add_flash_crowd(FlashCrowd {
                    app,
                    start: first + epoch * offset,
                    ramp,
                    duration: epoch * window as u64 + ramp * 2,
                    peak: FLASH_PEAK,
                });
            }
        }
    }
}
