//! Scenario files are outside input: an edited internet2 scenario must
//! come back from `trace --all` and `batch --jobs 2` as a report or an
//! error (exit 0, 1 or 2), never as a panic. The loader rejects most
//! edits; extra targets and valid but odd rate limits reach a
//! collection.

use std::net::Ipv4Addr;
use std::process::Command;

use proptest::prelude::*;
use serde_json::{json, Value};

fn internet2() -> Value {
    let text = tracenet_cli::run(&["generate", "internet2", "--seed", "2010"].map(String::from))
        .expect("internet2 generates");
    serde_json::from_str(&text).expect("the scenario is JSON")
}

/// Applies one edit, picked by `kind`, with `a` choosing what to edit
/// and `b` the new value.
fn edit(scenario: &mut Value, (kind, a, b): (u8, u32, u32)) {
    let len = |key: &str| scenario[key].as_array().map_or(0, Vec::len);
    let (routers, subnets, ifaces) = (len("routers"), len("subnets"), len("ifaces"));
    let iface = a as usize % ifaces;
    match kind {
        // A prefix length from 0 to 33.
        0 => {
            let subnet = &mut scenario["subnets"][a as usize % subnets]["prefix"];
            let net = subnet.as_str().and_then(|p| p.split('/').next()).unwrap().to_string();
            *subnet = json!(format!("{net}/{}", b % 34));
        }
        // The address of another interface on the same subnet, or, with
        // `b` odd, of any interface.
        1 => {
            let subnet = scenario["ifaces"][iface]["subnet"].clone();
            let on_subnet = |j: &usize| b % 2 == 1 || scenario["ifaces"][*j]["subnet"] == subnet;
            let other = (1..ifaces).map(|d| (iface + d) % ifaces).find(on_subnet);
            if let Some(other) = other {
                scenario["ifaces"][iface]["addr"] = scenario["ifaces"][other]["addr"].clone();
            }
        }
        // An address that is most likely outside the interface's prefix.
        2 => scenario["ifaces"][iface]["addr"] = json!(Ipv4Addr::from(b).to_string()),
        // A router or subnet index past the end.
        3 => scenario["ifaces"][iface]["router"] = json!(routers + b as usize % 3),
        4 => scenario["ifaces"][iface]["subnet"] = json!(subnets + b as usize % 3),
        // A vantage on no interface: internet2 numbers from 10/8.
        5 => {
            let addr = Ipv4Addr::from(0xcb00_7100 | (b & 0xff)).to_string();
            scenario["vantages"][0]["addr"] = json!(addr);
        }
        // An extra target anywhere in the address space.
        7 => {
            if let Value::Array(targets) = &mut scenario["targets"] {
                targets.push(json!(Ipv4Addr::from(b).to_string()));
            }
        }
        // A rate limit no generator writes: with kind 6 one the loader
        // may refuse, otherwise one it takes.
        _ => {
            let capacity = [json!(0), json!(1), json!(u32::MAX), json!(-1)];
            let refill = [json!(1), json!(u32::MAX), json!(0), json!(0.5)];
            let pick = |n: u32| if kind == 6 { n as usize % 4 } else { n as usize % 2 };
            let (c, r) = (capacity[pick(b)].clone(), refill[pick(b >> 8)].clone());
            let limit = json!({"capacity": c, "refill_every": r});
            scenario["routers"][a as usize % routers]["config"]["rate_limit"] = limit;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn edited_scenarios_run_or_fail_cleanly(
        edits in proptest::collection::vec((0u8..9, any::<u32>(), any::<u32>()), 1..3),
    ) {
        let mut scenario = internet2();
        for &e in &edits {
            edit(&mut scenario, e);
        }
        let mut path = std::env::temp_dir();
        path.push(format!("tracenet-edited-scenario-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&scenario)).unwrap();
        let file = path.to_str().unwrap();
        for args in [vec!["trace", file, "--all"], vec!["batch", file, "--jobs", "2"]] {
            let out = Command::new(env!("CARGO_BIN_EXE_tracenet")).args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            prop_assert!(matches!(out.status.code(), Some(0..=2)), "{edits:?} {args:?}: {stderr}");
            prop_assert!(!stderr.contains("panicked"), "{edits:?} {args:?}: {stderr}");
        }
        std::fs::remove_file(path).ok();
    }
}
