//! The server pod manager (§III.A).
//!
//! "A server pod manager only knows the servers and applications of its
//! pod, and dynamically provisions resources to applications within its
//! pod. … Existing resource allocation algorithms, e.g., as proposed in
//! \[23\], \[28\], can be applied here."
//!
//! Each epoch the pod manager builds a *pod-local* placement problem from
//! the load snapshot (its servers, the applications covering the pod, and
//! their pod-local demand with headroom), runs the Tang-style controller
//! from the incumbent placement, and translates the result into the
//! paper's in-pod knobs:
//!
//! * **VM capacity adjustment** (§IV.E) for instances whose allocation
//!   changed,
//! * **instance starts/stops** (cloned/booted/destroyed VMs) where the
//!   controller changed placement,
//! * **RIP weight adjustment requests** (§IV.F) to the global manager's
//!   VIP/RIP queue, so each VIP's in-pod weights track the new allocation
//!   while the pod's total weight stays fixed.
//!
//! The pod manager's **decision time** — the wall-clock cost of its
//! planning rounds — is the quantity that blows up on *elephant pods*
//! (§IV.C). The platform's phase profiler measures it as the
//! `pod-planning` phase; experiments E1/E5 time [`PodManager::plan`]
//! themselves.

use crate::demand::LoadSnapshot;
use crate::ids::{AppId, PodId};
use crate::state::PlatformState;
use lbswitch::VipAddr;
use placement::{
    AppReq, Placement, PlacementAlgorithm, PlacementProblem, ServerCap, TangController,
};
use std::collections::BTreeMap;
use vmm::{ServerId, VmId};

/// The actions a pod manager wants applied after one decision round.
#[derive(Debug, Clone, Default)]
pub struct PodPlan {
    /// The pod that produced this plan.
    pub pod: PodId,
    /// Hot slice adjustments: `(vm, new_cpu_slice)` (§IV.E).
    pub slice_adjustments: Vec<(VmId, f64)>,
    /// New instances to deploy: `(app, server, initial_cpu_slice)`.
    pub new_instances: Vec<(AppId, ServerId, f64)>,
    /// Instances to stop.
    pub remove_instances: Vec<VmId>,
    /// Per-VIP intra-pod weight requests (to be submitted to the VIP/RIP
    /// manager): `(vip, [(vm, relative weight)])` (§IV.F).
    pub weight_requests: Vec<(VipAddr, Vec<(VmId, f64)>)>,
    /// Number of placement changes (instance starts + stops) the
    /// controller decided on.
    pub placement_changes: usize,
    /// Servers and VMs the problem covered (decision-space size).
    pub problem_size: (usize, usize),
}

/// A pod manager. Stateless between rounds except for the algorithm
/// parameters: the incumbent placement is reconstructed from the platform
/// state each round, so server transfers in/out of the pod are picked up
/// automatically.
#[derive(Debug, Clone)]
pub struct PodManager {
    /// The pod this manager owns.
    pub id: PodId,
    controller: TangController,
}

impl PodManager {
    /// Create a manager for `pod`.
    pub fn new(pod: PodId) -> Self {
        PodManager {
            id: pod,
            controller: TangController::default(),
        }
    }

    /// Build the pod-local problem and run one decision round.
    ///
    /// `snapshot` supplies the measured pod-local demand. Read-only with
    /// respect to the platform; the returned [`PodPlan`] is applied by the
    /// platform loop (with actuation latencies).
    pub fn plan(&self, state: &PlatformState, snapshot: &LoadSnapshot) -> PodPlan {
        // Failed servers are invisible to the planner: their instances are
        // already gone, and nothing may be placed on them.
        let servers: Vec<ServerId> = state
            .pod_servers(self.id)
            .iter()
            .copied()
            .filter(|&s| state.server_healthy(s))
            .collect();
        let server_index: BTreeMap<ServerId, usize> =
            servers.iter().enumerate().map(|(i, &s)| (s, i)).collect();

        // Apps covering the pod, plus their pod-local VMs.
        let mut app_vms: BTreeMap<AppId, Vec<VmId>> = BTreeMap::new();
        for &srv in &servers {
            let server = state.fleet.server(srv).expect("pod lists valid");
            for vm in server.vms() {
                app_vms.entry(AppId(vm.app)).or_default().push(vm.id);
            }
        }
        let apps: Vec<AppId> = app_vms.keys().copied().collect();
        let app_index: BTreeMap<AppId, usize> =
            apps.iter().enumerate().map(|(i, &a)| (a, i)).collect();

        // Pod-local demand per app: offered CPU on this pod's VMs, scaled
        // by provisioning headroom. (Unserved demand shows up as offered
        // load on saturated VMs, so it is already included.)
        let cfg = &state.config;
        let mut demand = vec![0.0f64; apps.len()];
        for (&app, vms) in &app_vms {
            let idx = app_index[&app];
            for &vm in vms {
                demand[idx] += snapshot.vm_cpu_offered.get(&vm).copied().unwrap_or(0.0);
            }
            demand[idx] *= cfg.headroom;
            // Availability floor: an app covering the pod always keeps at
            // least one minimum-slice instance here, even with zero
            // measured demand (elastic scale-down never goes to zero).
            demand[idx] = demand[idx].max(cfg.vm_cpu_slice);
        }

        let problem = PlacementProblem {
            servers: servers
                .iter()
                .map(|&s| {
                    let spec = state.fleet.server(s).expect("valid").spec();
                    ServerCap {
                        cpu: spec.cpu,
                        max_vms: (cfg.pod_max_vms / servers.len().max(1)).max(1),
                    }
                })
                .collect(),
            apps: (0..apps.len())
                .map(|i| AppReq {
                    demand_cpu: demand[i],
                    vm_cap: cfg.vm_max_cpu_slice,
                })
                .collect(),
        };

        // Incumbent: current instances with their slices.
        let mut incumbent = Placement::empty(apps.len());
        let mut vm_at: BTreeMap<(usize, usize), VmId> = BTreeMap::new();
        for (&app, vms) in &app_vms {
            let a = app_index[&app];
            for &vm_id in vms {
                let srv = state.fleet.locate(vm_id).expect("live");
                let s = server_index[&srv];
                let vm = state.fleet.vm(vm_id).expect("live");
                incumbent.set(a, s, vm.cpu_slice);
                vm_at.insert((a, s), vm_id);
            }
        }

        let next = self.controller.compute(&problem, Some(&incumbent));

        // Diff the placements into actions.
        let mut plan = PodPlan {
            pod: self.id,
            placement_changes: next.changes_from(&incumbent),
            problem_size: (servers.len(), state.pod_vm_count(self.id)),
            ..PodPlan::default()
        };
        for (a, &app) in apps.iter().enumerate() {
            for (s, cpu) in next.instances(a) {
                match vm_at.get(&(a, s)) {
                    Some(&vm) => {
                        let old = incumbent.get(a, s);
                        // Keep at least the minimum slice; only act on
                        // meaningful moves.
                        let target = cpu.max(cfg.vm_cpu_slice);
                        if (target - old).abs() > 0.05 * old.max(cfg.vm_cpu_slice) {
                            plan.slice_adjustments.push((vm, target));
                        }
                    }
                    None => {
                        plan.new_instances
                            .push((app, servers[s], cpu.max(cfg.vm_cpu_slice)));
                    }
                }
            }
            for (s, _) in incumbent.instances(a) {
                if next.get(a, s) == 0.0 {
                    plan.remove_instances.push(vm_at[&(a, s)]);
                }
            }
        }

        // Weight requests: per VIP with pod-resident RIP-backed VMs, set
        // relative weights proportional to the planned allocation.
        let mut per_vip: BTreeMap<VipAddr, Vec<(VmId, f64)>> = BTreeMap::new();
        for (&app, vms) in &app_vms {
            let a = app_index[&app];
            for &vm_id in vms {
                let Some(rip) = state.rip_of_vm(vm_id) else {
                    continue;
                };
                let vip = state.rip(rip).expect("bound").vip;
                let srv = state.fleet.locate(vm_id).expect("live");
                let s = server_index[&srv];
                let alloc = next.get(a, s);
                if alloc > 0.0 {
                    per_vip.entry(vip).or_default().push((vm_id, alloc));
                }
            }
        }
        plan.weight_requests = per_vip
            .into_iter()
            .filter(|(_, ws)| ws.len() > 1) // single-VM weights are moot
            .collect();
        plan
    }

    /// Whether the pod is overloaded by processing capacity (§III.A):
    /// CPU utilization above the configured threshold, or nonzero unserved
    /// demand attributable to its VMs.
    pub fn is_overloaded(&self, state: &PlatformState, snapshot: &LoadSnapshot) -> bool {
        let utils = snapshot.pod_utilizations(state);
        utils[self.id.index()] > state.config.pod_overload_threshold
    }

    /// Whether the pod manager itself is overloaded — the *elephant pod*
    /// condition (§IV.C): too many servers or VMs for its decision space.
    pub fn is_elephant(&self, state: &PlatformState) -> bool {
        state.pod_servers(self.id).len() > state.config.pod_max_servers
            || state.pod_vm_count(self.id) > state.config.pod_max_vms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::demand::propagate;
    use dcnet::access::AccessRouterId;
    use dcsim::SimTime;
    use lbswitch::SwitchId;

    /// One app with two instances in pod 0 (servers 0 and 2), demand
    /// driven through VIP 0 on switch 0.
    fn state_with_load(demand_bps: f64) -> (PlatformState, LoadSnapshot) {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_apps = 2;
        let mut st = PlatformState::new(cfg);
        let app0 = st.register_app(0);
        let _app1 = st.register_app(1);
        let vip = st.allocate_vip(app0, SwitchId(0)).unwrap();
        st.advertise_vip(vip, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.add_instance_running(app0, ServerId(0), vip, 1.0)
            .unwrap();
        st.add_instance_running(app0, ServerId(2), vip, 1.0)
            .unwrap();
        st.dns.set_exposure(0, vec![(vip, 1.0)], SimTime::ZERO);
        let now = SimTime::ZERO + st.routes.convergence();
        let snap = propagate(&mut st, &[demand_bps, 0.0], now);
        (st, snap)
    }

    #[test]
    fn quiet_pod_scales_down_not_up() {
        // Demand well within one instance's slice: the controller may
        // consolidate to a single instance (elastic scale-down) but must
        // never add capacity, and must keep the availability floor.
        let (st, snap) = state_with_load(1e6);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        assert!(plan.new_instances.is_empty(), "plan {plan:?}");
        assert!(plan.remove_instances.len() <= 1, "over-removal: {plan:?}");
        // At least one instance survives.
        assert!(plan.remove_instances.len() < 2);
    }

    #[test]
    fn overload_grows_slices_or_adds_instances() {
        // ~52 cpu units of demand (25 Mbps ≈ 52 rps × 0.005… scaled) —
        // way over two 0.4-slices; the controller must act.
        let (st, snap) = state_with_load(100e6);
        let mgr = PodManager::new(PodId(0));
        let plan = mgr.plan(&st, &snap);
        assert!(
            !plan.slice_adjustments.is_empty() || !plan.new_instances.is_empty(),
            "plan took no action: {plan:?}"
        );
        // Slice targets respect the configured maximum.
        for &(_, cpu) in &plan.slice_adjustments {
            assert!(cpu <= st.config.vm_max_cpu_slice + 1e-9);
        }
        for &(_, _, cpu) in &plan.new_instances {
            assert!(cpu <= st.config.vm_max_cpu_slice + 1e-9);
        }
    }

    #[test]
    fn new_instances_stay_in_pod() {
        let (st, snap) = state_with_load(200e6);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        for &(_, srv, _) in &plan.new_instances {
            assert_eq!(st.pod_of(srv), PodId(0), "instance left the pod");
        }
    }

    #[test]
    fn weight_requests_cover_multi_instance_vips() {
        // 400 Mbps → ~4.2 CPU units × 1.2 headroom ≈ 5 units: needs ≥3
        // instances at vm_max_cpu_slice = 2.0, so both incumbents stay
        // loaded and the VIP gets a weight request.
        let (st, snap) = state_with_load(400e6);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        assert!(plan.remove_instances.is_empty(), "plan {plan:?}");
        assert_eq!(plan.weight_requests.len(), 1);
        let (_, weights) = &plan.weight_requests[0];
        assert_eq!(weights.len(), 2);
        assert!(weights.iter().all(|&(_, w)| w > 0.0));
    }

    #[test]
    fn elephant_detection() {
        let (st, _snap) = state_with_load(1e6);
        let mgr = PodManager::new(PodId(0));
        assert!(!mgr.is_elephant(&st));
        let mut cfg = st.config;
        cfg.pod_max_servers = 2; // pod 0 has 8 servers
        let mut st2 = st;
        st2.config = cfg;
        assert!(mgr.is_elephant(&st2));
    }

    #[test]
    fn overload_detection_uses_threshold() {
        let (st, snap) = state_with_load(1e6);
        let mgr = PodManager::new(PodId(0));
        assert!(!mgr.is_overloaded(&st, &snap));
    }
}
