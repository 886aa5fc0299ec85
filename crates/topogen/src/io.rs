//! Scenario serialization: save a generated scenario (topology, router
//! configurations, vantages, targets, ground truth) to JSON and load it
//! back.
//!
//! The format is the released tool's interchange format: experiments can
//! be generated once, archived, shipped to the CLI, and replayed
//! bit-identically. Everything the simulator needs to reproduce behavior
//! is captured — response policies, protocol sets, rate limits, load
//! balancing, firewalls and scoped ACLs.

use std::fmt;

use inet::{Addr, Prefix};
use netsim::{
    LbMode, ProtoSet, RateLimit, ResponsePolicy, RouterConfig, RouterId, Topology, TopologyBuilder,
};
use serde_json::{json, Value};

use crate::scenario::{GroundTruth, GtSubnet, Scenario, SubnetIntent};

/// Errors from loading a scenario file.
#[derive(Debug)]
pub enum LoadError {
    /// The JSON did not parse.
    Json(serde_json::Error),
    /// The JSON parsed but does not describe a valid scenario.
    Shape(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Json(e) => write!(f, "invalid JSON: {e}"),
            LoadError::Shape(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn shape(msg: impl Into<String>) -> LoadError {
    LoadError::Shape(msg.into())
}

/// Serializes a scenario to a JSON string.
pub fn to_json(scenario: &Scenario) -> String {
    let topo = &scenario.topology;
    let routers: Vec<Value> = topo
        .routers()
        .iter()
        .map(|r| {
            json!({
                "name": r.name,
                "host": r.is_host,
                "config": config_to_json(&r.config),
            })
        })
        .collect();
    let subnets: Vec<Value> = topo
        .subnets()
        .iter()
        .map(|s| {
            json!({
                "prefix": s.prefix.to_string(),
                "filtered": s.filtered,
                "filtered_sources":
                    s.filtered_sources.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
            })
        })
        .collect();
    let ifaces: Vec<Value> = topo
        .ifaces()
        .iter()
        .map(|i| {
            json!({
                "router": i.router.0,
                "subnet": i.subnet.0,
                "addr": i.addr.to_string(),
                "responsive": i.responsive,
            })
        })
        .collect();
    let gt: Vec<Value> = scenario
        .ground_truth
        .subnets
        .iter()
        .map(|s| {
            json!({
                "prefix": s.prefix.to_string(),
                "members": s.members.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
                "intent": s.intent.label(),
                "network": s.network,
            })
        })
        .collect();
    serde_json::to_string_pretty(&json!({
        "format": "tracenet-scenario/1",
        "name": scenario.name,
        "routers": routers,
        "subnets": subnets,
        "ifaces": ifaces,
        "vantages": scenario
            .vantages
            .iter()
            .map(|(n, a)| json!({"name": n, "addr": a.to_string()}))
            .collect::<Vec<_>>(),
        "targets": scenario.targets.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        "ground_truth": gt,
    }))
    .expect("json! values always serialize")
}

fn config_to_json(c: &RouterConfig) -> Value {
    json!({
        "direct": policy_to_json(&c.direct),
        "indirect": policy_to_json(&c.indirect),
        "direct_protos": protos_to_json(&c.direct_protos),
        "indirect_protos": protos_to_json(&c.indirect_protos),
        "rate_limit": c.rate_limit.map(|rl| json!({
            "capacity": rl.capacity,
            "refill_every": rl.refill_every,
        })),
        "lb": match c.lb {
            LbMode::PerFlow => "per_flow",
            LbMode::PerPacket => "per_packet",
        },
        "unreachable_replies": c.unreachable_replies,
    })
}

fn policy_to_json(p: &ResponsePolicy) -> Value {
    match p {
        ResponsePolicy::Nil => json!("nil"),
        ResponsePolicy::Probed => json!("probed"),
        ResponsePolicy::Incoming => json!("incoming"),
        ResponsePolicy::ShortestPath => json!("shortest_path"),
        ResponsePolicy::Default(a) => json!({ "default": a.to_string() }),
    }
}

fn protos_to_json(p: &ProtoSet) -> Value {
    json!({ "icmp": p.icmp, "udp": p.udp, "tcp": p.tcp })
}

/// Loads a scenario from a JSON string produced by [`to_json`].
pub fn from_json(text: &str) -> Result<Scenario, LoadError> {
    let v: Value = serde_json::from_str(text).map_err(LoadError::Json)?;
    if v["format"] != "tracenet-scenario/1" {
        return Err(shape("missing or unknown `format` marker"));
    }
    let name = as_str(&v["name"], "name")?.to_string();

    let mut b = TopologyBuilder::new();
    let mut router_ids: Vec<RouterId> = Vec::new();
    for r in as_array(&v["routers"], "routers")? {
        let rname = as_str(&r["name"], "router name")?;
        let config = config_from_json(&r["config"], rname)?;
        let id = b.router(rname, config);
        if r["host"].as_bool().unwrap_or(false) {
            b.set_host(id);
        }
        router_ids.push(id);
    }

    let mut subnet_ids = Vec::new();
    for s in as_array(&v["subnets"], "subnets")? {
        let prefix: Prefix =
            as_str(&s["prefix"], "subnet prefix")?.parse().map_err(|e| shape(format!("{e}")))?;
        let id = if s["filtered"].as_bool().unwrap_or(false) {
            b.filtered_subnet(prefix)
        } else {
            b.subnet(prefix)
        };
        let sources: Vec<Addr> = as_array(&s["filtered_sources"], "filtered_sources")?
            .iter()
            .map(|a| parse_addr(a, "filtered source"))
            .collect::<Result<_, _>>()?;
        if !sources.is_empty() {
            b.set_filtered_sources(id, sources);
        }
        subnet_ids.push(id);
    }

    for i in as_array(&v["ifaces"], "ifaces")? {
        let router = i["router"].as_u64().ok_or_else(|| shape("iface.router"))? as usize;
        let subnet = i["subnet"].as_u64().ok_or_else(|| shape("iface.subnet"))? as usize;
        let addr = parse_addr(&i["addr"], "iface addr")?;
        let responsive = i["responsive"].as_bool().unwrap_or(true);
        let rid = *router_ids.get(router).ok_or_else(|| shape("iface.router out of range"))?;
        let sid = *subnet_ids.get(subnet).ok_or_else(|| shape("iface.subnet out of range"))?;
        b.attach_with(rid, sid, addr, responsive)
            .map_err(|e| shape(format!("attach {addr}: {e}")))?;
    }

    let topology: Topology = b.build().map_err(|e| shape(format!("{e}")))?;

    let mut vantages = Vec::new();
    for w in as_array(&v["vantages"], "vantages")? {
        let name = as_str(&w["name"], "vantage name")?.to_string();
        let addr = parse_addr(&w["addr"], "vantage addr")?;
        // Probes are sourced at the vantage, so it must be an interface.
        if topology.owner_of(addr).is_none() {
            return Err(shape(format!("vantage {name:?} at {addr} is not an interface")));
        }
        vantages.push((name, addr));
    }
    let targets: Vec<Addr> = as_array(&v["targets"], "targets")?
        .iter()
        .map(|t| parse_addr(t, "target"))
        .collect::<Result<_, _>>()?;

    let mut ground_truth = GroundTruth::default();
    for g in as_array(&v["ground_truth"], "ground_truth")? {
        let prefix: Prefix =
            as_str(&g["prefix"], "gt prefix")?.parse().map_err(|e| shape(format!("{e}")))?;
        let members: Vec<Addr> = as_array(&g["members"], "gt members")?
            .iter()
            .map(|m| parse_addr(m, "gt member"))
            .collect::<Result<_, _>>()?;
        let intent = match as_str(&g["intent"], "gt intent")? {
            "normal" => SubnetIntent::Normal,
            "filtered" => SubnetIntent::Filtered,
            "partial" => SubnetIntent::Partial,
            "infrastructure" => SubnetIntent::Infrastructure,
            other => return Err(shape(format!("unknown intent {other:?}"))),
        };
        ground_truth.subnets.push(GtSubnet {
            prefix,
            members,
            intent,
            network: as_str(&g["network"], "gt network")?.to_string(),
        });
    }

    Ok(Scenario { name, topology, vantages, targets, ground_truth })
}

fn config_from_json(v: &Value, router: &str) -> Result<RouterConfig, LoadError> {
    let mut c = RouterConfig::cooperative();
    c.direct = policy_from_json(&v["direct"])?;
    c.indirect = policy_from_json(&v["indirect"])?;
    c.direct_protos = protos_from_json(&v["direct_protos"])?;
    c.indirect_protos = protos_from_json(&v["indirect_protos"])?;
    c.rate_limit = match &v["rate_limit"] {
        Value::Null => None,
        rl => Some(rate_limit_from_json(rl, router)?),
    };
    c.lb = match v["lb"].as_str() {
        Some("per_flow") | None => LbMode::PerFlow,
        Some("per_packet") => LbMode::PerPacket,
        Some(other) => return Err(shape(format!("unknown lb mode {other:?}"))),
    };
    c.unreachable_replies = v["unreachable_replies"].as_bool().unwrap_or(false);
    Ok(c)
}

/// A token bucket the engine can run: `capacity` fits its `u32`, and
/// `refill_every`, which it divides by, is at least one tick.
fn rate_limit_from_json(rl: &Value, router: &str) -> Result<RateLimit, LoadError> {
    let bad = |what: &str| shape(format!("router {router:?}: rate_limit.{what}"));
    let capacity = rl["capacity"]
        .as_u64()
        .and_then(|c| u32::try_from(c).ok())
        .ok_or_else(|| bad("capacity must be an integer below 2^32"))?;
    let refill_every = rl["refill_every"]
        .as_u64()
        .filter(|&r| r > 0)
        .ok_or_else(|| bad("refill_every must be a positive integer"))?;
    Ok(RateLimit { capacity, refill_every })
}

fn policy_from_json(v: &Value) -> Result<ResponsePolicy, LoadError> {
    match v {
        Value::String(s) => match s.as_str() {
            "nil" => Ok(ResponsePolicy::Nil),
            "probed" => Ok(ResponsePolicy::Probed),
            "incoming" => Ok(ResponsePolicy::Incoming),
            "shortest_path" => Ok(ResponsePolicy::ShortestPath),
            other => Err(shape(format!("unknown policy {other:?}"))),
        },
        Value::Object(_) => {
            Ok(ResponsePolicy::Default(parse_addr(&v["default"], "default policy addr")?))
        }
        _ => Err(shape("policy must be a string or {default: addr}")),
    }
}

fn protos_from_json(v: &Value) -> Result<ProtoSet, LoadError> {
    Ok(ProtoSet {
        icmp: v["icmp"].as_bool().ok_or_else(|| shape("protos.icmp"))?,
        udp: v["udp"].as_bool().ok_or_else(|| shape("protos.udp"))?,
        tcp: v["tcp"].as_bool().ok_or_else(|| shape("protos.tcp"))?,
    })
}

fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, LoadError> {
    v.as_str().ok_or_else(|| shape(format!("{what} must be a string")))
}

fn as_array<'v>(v: &'v Value, what: &str) -> Result<&'v Vec<Value>, LoadError> {
    v.as_array().ok_or_else(|| shape(format!("{what} must be an array")))
}

fn parse_addr(v: &Value, what: &str) -> Result<Addr, LoadError> {
    as_str(v, what)?.parse().map_err(|e| shape(format!("{what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{internet2, random_topology};
    use netsim::{ConcurrentNetwork, RoutingTable};

    /// Compares everything observable about two scenarios.
    fn assert_equivalent(a: &Scenario, b: &Scenario) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.vantages, b.vantages);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.topology.router_count(), b.topology.router_count());
        assert_eq!(a.topology.subnets().len(), b.topology.subnets().len());
        assert_eq!(a.topology.ifaces().len(), b.topology.ifaces().len());
        for (x, y) in a.topology.routers().iter().zip(b.topology.routers()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.is_host, y.is_host);
            assert_eq!(x.config, y.config);
            assert_eq!(x.ifaces, y.ifaces);
        }
        for (x, y) in a.topology.subnets().iter().zip(b.topology.subnets()) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.filtered, y.filtered);
            assert_eq!(x.filtered_sources, y.filtered_sources);
        }
        assert_eq!(a.ground_truth.subnets.len(), b.ground_truth.subnets.len());
        for (x, y) in a.ground_truth.subnets.iter().zip(&b.ground_truth.subnets) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.members, y.members);
            assert_eq!(x.intent, y.intent);
            assert_eq!(x.network, y.network);
        }
    }

    #[test]
    fn random_scenario_roundtrips() {
        let a = random_topology(9, 5);
        let b = from_json(&to_json(&a)).expect("roundtrip");
        assert_equivalent(&a, &b);
    }

    #[test]
    fn internet2_roundtrips_and_behaves_identically() {
        let a = internet2(3);
        let b = from_json(&to_json(&a)).expect("roundtrip");
        assert_equivalent(&a, &b);
        // The reloaded network answers probes identically.
        let v = a.vantage("utdallas");
        let t = a.targets[0];
        let na = ConcurrentNetwork::new(a.topology.clone());
        let nb = ConcurrentNetwork::new(b.topology.clone());
        for ttl in 1..8 {
            let probe = wire::builder::icmp_probe(v, t, ttl, 1, ttl as u16);
            assert_eq!(na.inject(&probe), nb.inject(&probe), "ttl {ttl}");
        }
        let ra = RoutingTable::compute(&a.topology);
        let rb = RoutingTable::compute(&b.topology);
        let va = a.topology.owner_of(v).unwrap();
        for target in a.targets.iter().take(20) {
            let o = a.topology.owner_of(*target).unwrap();
            assert_eq!(ra.dist(va, o), rb.dist(va, o));
        }
    }

    #[test]
    fn rejects_garbage_and_wrong_format() {
        assert!(matches!(from_json("not json"), Err(LoadError::Json(_))));
        assert!(matches!(from_json("{}"), Err(LoadError::Shape(_))));
        let wrong = r#"{"format": "tracenet-scenario/99"}"#;
        assert!(matches!(from_json(wrong), Err(LoadError::Shape(_))));
    }

    #[test]
    fn rejects_dangling_iface_reference() {
        let a = random_topology(1, 2);
        let mut v: serde_json::Value = serde_json::from_str(&to_json(&a)).unwrap();
        v["ifaces"][0]["router"] = serde_json::json!(9999);
        let err = from_json(&v.to_string()).unwrap_err();
        assert!(matches!(err, LoadError::Shape(_)), "{err}");
    }

    #[test]
    fn rejects_a_vantage_that_is_not_an_interface() {
        let a = internet2(3);
        let mut v: serde_json::Value = serde_json::from_str(&to_json(&a)).unwrap();
        v["vantages"][0]["addr"] = serde_json::json!("203.0.113.99");
        let err = from_json(&v.to_string()).unwrap_err();
        assert!(matches!(err, LoadError::Shape(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("utdallas") && msg.contains("203.0.113.99"), "{msg}");
    }

    /// Gives every router of internet2 the rate limit `rate_limit` and
    /// loads the result.
    fn load_with_rate_limit(rate_limit: Value) -> Result<Scenario, LoadError> {
        let mut v: Value = serde_json::from_str(&to_json(&internet2(2010))).unwrap();
        let Value::Array(routers) = &mut v["routers"] else { panic!("routers is an array") };
        for r in routers {
            r["config"]["rate_limit"] = rate_limit.clone();
        }
        from_json(&v.to_string())
    }

    #[test]
    fn accepts_a_runnable_rate_limit() {
        let sc = load_with_rate_limit(serde_json::json!({"capacity": 2, "refill_every": 1}))
            .expect("loads");
        let limit = RateLimit { capacity: 2, refill_every: 1 };
        assert!(sc.topology.routers().iter().all(|r| r.config.rate_limit == Some(limit)));
    }

    #[test]
    fn rejects_a_rate_limit_that_never_refills() {
        let err = load_with_rate_limit(serde_json::json!({"capacity": 2, "refill_every": 0}))
            .unwrap_err();
        assert!(matches!(err, LoadError::Shape(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("refill_every") && msg.contains("router \""), "{msg}");
    }

    #[test]
    fn rejects_a_rate_limit_capacity_beyond_32_bits() {
        let err =
            load_with_rate_limit(serde_json::json!({"capacity": 1u64 << 32, "refill_every": 1}))
                .unwrap_err();
        assert!(matches!(err, LoadError::Shape(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("capacity") && msg.contains("router \""), "{msg}");
        let max = serde_json::json!({"capacity": u32::MAX, "refill_every": 1});
        assert!(load_with_rate_limit(max).is_ok());
    }
}
