//! The benchmark's own tests, run on test-sized fleets.

use crate::measure::{check_snapshot, run_pass};
use crate::scenario::{Scenario, Size};
use crate::{parse_args, run, Args, Outcome};
use megadc::demand::LoadSnapshot;
use megadc::obs::json::{self, Json};

fn args(scenario: Scenario, seed: u64, trace: bool) -> Args {
    Args {
        scenario,
        seed,
        seconds: 1,
        trace,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for scenario in Scenario::ALL {
        let plain = run(&args(scenario, 7, false), Size::Tiny);
        assert!(plain.correct, "{scenario:?}: {:?}", plain.diagnostics);
        assert_eq!(emitted(&plain), declared("end_to_end"), "{scenario:?}");
        let traced = run(&args(scenario, 7, true), Size::Tiny);
        assert!(traced.correct, "{scenario:?}: {:?}", traced.diagnostics);
        assert_eq!(emitted(&traced), declared("per_layer"), "{scenario:?}");
        for m in plain.metrics.iter().chain(&traced.metrics) {
            assert!(m.value.is_finite() && m.value >= 0.0, "{m:?}");
        }
        for o in [&plain, &traced] {
            assert!(o.attempted >= 1 && o.failed == 0);
            let line = json::parse(&o.result_line()).expect("result line is JSON");
            assert!(line.get("metrics").and_then(Json::as_obj).is_some());
        }
    }
}

#[test]
fn declared_workloads_are_the_scenarios() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("readable")).expect("JSON");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn deterministic_results_repeat_for_one_seed() {
    for scenario in Scenario::ALL {
        let once = || {
            let mut p = scenario.build(Size::Tiny, 11);
            scenario.prepare(&mut p, 6);
            run_pass(&mut p, scenario, 6, false)
                .expect("checks pass")
                .det
        };
        let (a, b) = (once(), once());
        assert!(a.same_bits(&b), "{scenario:?}: {a:?} vs {b:?}");
    }
}

#[test]
fn traced_pass_matches_untraced_bit_for_bit() {
    for scenario in Scenario::ALL {
        let pass = |traced| {
            let mut p = scenario.build(Size::Tiny, 5);
            scenario.prepare(&mut p, 6);
            run_pass(&mut p, scenario, 6, traced).expect("checks pass")
        };
        let (plain, traced) = (pass(false), pass(true));
        assert!(plain.layers.is_none() && traced.layers.is_some());
        assert!(plain.det.same_bits(&traced.det), "{scenario:?}");
    }
}

#[test]
fn seed_changes_the_generated_inputs() {
    for scenario in Scenario::ALL {
        let demand = |seed| {
            let mut p = scenario.build(Size::Tiny, seed);
            scenario.prepare(&mut p, 6);
            p.step();
            p.last_snapshot().expect("stepped").app_demand_bps.clone()
        };
        assert_eq!(demand(3), demand(3), "{scenario:?}: same seed");
        assert_ne!(demand(3), demand(4), "{scenario:?}: other seed");
    }
}

#[test]
fn served_above_offered_fails_the_check() {
    let snap = LoadSnapshot {
        app_demand_bps: vec![10.0, 5.0],
        unserved_bps_by_app: vec![0.0, 0.0],
        ..LoadSnapshot::default()
    };
    assert!(check_snapshot(&snap).is_ok());
    let mut over = snap.clone();
    over.unserved_bps_by_app[1] = -1.0; // served 6 of 5 offered
    assert!(check_snapshot(&over).is_err());
    let mut lost = snap;
    lost.unserved_bps_by_app[0] = 11.0;
    assert!(check_snapshot(&lost).is_err());
}

#[test]
fn command_line_is_checked() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let ok = parse("--workload flash-3k --seed 9 --seconds 15 --trace 1").expect("valid");
    assert_eq!(
        ok,
        Args {
            scenario: Scenario::Flash3k,
            seed: 9,
            seconds: 15,
            trace: true,
        }
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload flash-3k --seed x --seconds 1 --trace 0",
        "--workload flash-3k --seed 1 --seconds 0 --trace 0",
        "--workload flash-3k --seed 1 --seconds 1 --trace 2",
        "--workload flash-3k --seed 1 --seconds 1",
        "--workload flash-3k --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}
