//! `io::from_json` and `io::to_json` against the `Value`-based loader and
//! writer they replaced, kept below as the oracle. The internet2 and
//! 4-ISP scenario files are edited (keys reordered, duplicated, dropped
//! or unknown at every level, values of the wrong type, strings escaped,
//! whitespace changed, bytes cut, flipped or deleted) and both loaders
//! must build equivalent scenarios or fail with the same message. The
//! writer must print the oracle's bytes for every generator.

mod common;

use std::sync::OnceLock;

use common::assert_equivalent;
use proptest::prelude::*;
use serde_json::Value;
use topogen::io::{self, LoadError};
use topogen::{geant, internet2, isp_internet, random_topology, Scenario};

/// The loader and writer that went through a `serde_json::Value` tree.
mod oracle {
    use inet::{Addr, Prefix};
    use netsim::{
        LbMode, ProtoSet, RateLimit, ResponsePolicy, RouterConfig, RouterId, Topology,
        TopologyBuilder,
    };
    use serde_json::{json, Value};
    use topogen::io::LoadError;
    use topogen::{GroundTruth, GtSubnet, Scenario, SubnetIntent};

    fn shape(msg: impl Into<String>) -> LoadError {
        LoadError::Shape(msg.into())
    }

    pub fn to_json(scenario: &Scenario) -> String {
        let topo = &scenario.topology;
        let routers: Vec<Value> = topo
            .routers()
            .iter()
            .map(|r| {
                json!({
                    "name": &r.name,
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
                    "network": &s.network,
                })
            })
            .collect();
        serde_json::to_string_pretty(&json!({
            "format": "tracenet-scenario/1",
            "name": &scenario.name,
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
            let prefix: Prefix = as_str(&s["prefix"], "subnet prefix")?
                .parse()
                .map_err(|e| shape(format!("{e}")))?;
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
}

/// Both loaders on `text`: equivalent scenarios or the same error.
fn assert_loads_like_the_oracle(text: &str) {
    let excerpt = || {
        let end = text.char_indices().nth(300).map_or(text.len(), |(i, _)| i);
        format!("{:?}… ({} bytes)", &text[..end], text.len())
    };
    match (io::from_json(text), oracle::from_json(text)) {
        (Ok(got), Ok(want)) => assert_equivalent(&got, &want),
        (Err(got), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "on {}", excerpt());
            assert_eq!(
                matches!(got, LoadError::Json(_)),
                matches!(want, LoadError::Json(_)),
                "{got}"
            );
        }
        (got, want) => panic!(
            "loader gave {:?}, oracle {:?}, on {}",
            got.map(|s| s.name),
            want.map(|s| s.name),
            excerpt()
        ),
    }
}

fn internet2_doc() -> &'static Value {
    static DOC: OnceLock<Value> = OnceLock::new();
    DOC.get_or_init(|| serde_json::from_str(&io::to_json(&internet2(2010))).unwrap())
}

fn isp_doc() -> &'static Value {
    static DOC: OnceLock<Value> = OnceLock::new();
    DOC.get_or_init(|| serde_json::from_str(&io::to_json(&isp_internet(2010))).unwrap())
}

/// A document as the edits see it: scalars as JSON text, so an edit can
/// put in any number or literal, and strings decoded, so the printer can
/// escape them its own way.
#[derive(Clone)]
enum Node {
    Raw(String),
    Str(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

impl From<&Value> for Node {
    fn from(v: &Value) -> Node {
        match v {
            Value::String(s) => Node::Str(s.clone()),
            Value::Array(items) => Node::Arr(items.iter().map(Node::from).collect()),
            Value::Object(m) => Node::Obj(m.iter().map(|(k, v)| (k.clone(), v.into())).collect()),
            scalar => Node::Raw(scalar.to_string()),
        }
    }
}

/// Every key the scenario format has, and one it does not.
const KEYS: &[&str] = &[
    "format",
    "name",
    "routers",
    "subnets",
    "ifaces",
    "vantages",
    "targets",
    "ground_truth",
    "host",
    "config",
    "direct",
    "indirect",
    "direct_protos",
    "indirect_protos",
    "rate_limit",
    "lb",
    "unreachable_replies",
    "default",
    "icmp",
    "udp",
    "tcp",
    "capacity",
    "refill_every",
    "prefix",
    "filtered",
    "filtered_sources",
    "router",
    "subnet",
    "addr",
    "responsive",
    "members",
    "intent",
    "network",
    "mystery",
];

/// Values of every JSON type, numbers at and past every range edge, and
/// strings every field reads, valid and not.
const VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "-0",
    "1",
    "2e0",
    "-1",
    "0.5",
    "1e400",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "9999",
    "\"\"",
    "\"x\"",
    "\"tracenet-scenario/1\"",
    "\"10.0.0.1\"",
    "\"10.0.0.256\"",
    "\"010.0.0.1\"",
    "\"10.0.0.0/8\"",
    "\"10.32.0.0/30\"",
    "\"10.0.0.0/33\"",
    "\"nil\"",
    "\"probed\"",
    "\"shortest_path\"",
    "\"bogus\"",
    "\"per_packet\"",
    "\"per_flow\"",
    "\"normal\"",
    "\"infrastructure\"",
    "\"sprintlink\"",
    "[]",
    "[\"10.0.0.1\"]",
    "[\"bad\",1]",
    "{}",
    "{\"default\":\"10.0.0.1\"}",
    "{\"default\":5}",
    "{\"capacity\":3,\"refill_every\":2}",
    "{\"capacity\":4294967296,\"refill_every\":1}",
    "{\"capacity\":1,\"refill_every\":0}",
    "{\"icmp\":true,\"udp\":false,\"tcp\":true}",
    "{\"a\":[{\"b\":null}]}",
];

fn pick<T: Copy>(r: &mut TestRunner, options: &[T]) -> T {
    options[r.below(options.len() as u64) as usize]
}

fn raw(r: &mut TestRunner) -> Node {
    Node::Raw(pick(r, VALUES).into())
}

/// A node on a random path down from `node`, stopping early at random.
fn somewhere<'n>(r: &mut TestRunner, node: &'n mut Node) -> &'n mut Node {
    let len = match node {
        Node::Obj(m) => m.len(),
        Node::Arr(items) => items.len(),
        _ => 0,
    };
    if len == 0 || r.below(4) == 0 {
        return node;
    }
    let i = r.below(len as u64) as usize;
    match node {
        Node::Obj(m) => somewhere(r, &mut m[i].1),
        Node::Arr(items) => somewhere(r, &mut items[i]),
        _ => unreachable!("only containers have children"),
    }
}

/// One edit at a random place: members reordered, duplicated (with the
/// same or another value, before or after), added, dropped or given a
/// value of another type; items dropped, swapped or replaced.
fn edit(r: &mut TestRunner, doc: &mut Node) {
    match somewhere(r, doc) {
        Node::Obj(m) if !m.is_empty() => {
            let i = r.below(m.len() as u64) as usize;
            let at = r.below(m.len() as u64 + 1) as usize;
            match r.below(6) {
                0 => m.reverse(),
                1 => {
                    let j = r.below(m.len() as u64) as usize;
                    m.swap(i, j);
                }
                2 => {
                    let (key, value) = m[i].clone();
                    let value = if r.below(2) == 0 { value } else { raw(r) };
                    m.insert(at, (key, value));
                }
                3 => {
                    let key = pick(r, KEYS).to_string();
                    m.insert(at, (key, raw(r)));
                }
                4 => {
                    m.remove(i);
                }
                _ => m[i].1 = raw(r),
            }
        }
        Node::Arr(items) if !items.is_empty() => {
            let i = r.below(items.len() as u64) as usize;
            match r.below(3) {
                0 => {
                    items.remove(i);
                }
                1 => {
                    let j = r.below(items.len() as u64) as usize;
                    items.swap(i, j);
                }
                _ => items[i] = raw(r),
            }
        }
        other => *other = raw(r),
    }
}

/// Prints a [`Node`] with whitespace drawn from `gaps` between tokens and
/// one in `escape` strings (never, for 0) spelled with escapes.
struct Printer<'r> {
    r: &'r mut TestRunner,
    out: String,
    gaps: &'static [&'static str],
    escape: u64,
}

impl Printer<'_> {
    fn gap(&mut self) {
        if self.gaps.len() > 1 {
            let gap = pick(self.r, self.gaps);
            self.out.push_str(gap);
        }
    }

    fn string(&mut self, s: &str) {
        if self.escape == 0 || self.r.below(self.escape) != 0 {
            serde_json::write_string(&mut self.out, s);
            return;
        }
        self.out.push('"');
        for c in s.chars() {
            match self.r.below(4) {
                0 => self.out.push_str(&format!("\\u{:04x}", c as u32)),
                1 => self.out.push_str(&format!("\\u{:04X}", c as u32)),
                2 if c == '/' => self.out.push_str("\\/"),
                _ => {
                    let mut quoted = String::new();
                    serde_json::write_string(&mut quoted, c.encode_utf8(&mut [0; 4]));
                    self.out.push_str(&quoted[1..quoted.len() - 1]);
                }
            }
        }
        self.out.push('"');
    }

    fn node(&mut self, node: &Node) {
        self.gap();
        match node {
            Node::Raw(text) => self.out.push_str(text),
            Node::Str(s) => self.string(s),
            Node::Arr(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.node(item);
                }
                self.gap();
                self.out.push(']');
            }
            Node::Obj(members) => {
                self.out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.gap();
                    self.string(key);
                    self.gap();
                    self.out.push(':');
                    self.node(value);
                }
                self.gap();
                self.out.push('}');
            }
        }
        self.gap();
    }
}

/// Edits `doc`, prints it, and maybe cuts, flips or deletes bytes.
fn edited(r: &mut TestRunner, doc: &Value) -> String {
    let mut doc = Node::from(doc);
    for _ in 0..r.below(4) {
        edit(r, &mut doc);
    }
    let gaps = pick(r, &[&[""][..], &["", " "], &["\n", "\t", " ", "\r\n  ", ""]]);
    let escape = pick(r, &[0, 1, 50]);
    let mut p = Printer { r, out: String::new(), gaps, escape };
    p.node(&doc);
    let mut text = p.out.into_bytes();
    match r.below(8) {
        0 => text.truncate(r.below(text.len() as u64) as usize),
        1 | 2 => {
            for _ in 0..=r.below(3) {
                let at = r.below(text.len() as u64) as usize;
                if r.below(2) == 0 {
                    text.remove(at);
                } else {
                    text[at] ^= (r.next_u64() as u8).max(1);
                }
            }
        }
        _ => {}
    }
    String::from_utf8_lossy(&text).into_owned()
}

struct Edited(fn() -> &'static Value);

impl Strategy for Edited {
    type Value = String;
    fn generate(&self, r: &mut TestRunner) -> String {
        edited(r, (self.0)())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn edited_internet2_files_load_like_the_oracle(text in Edited(internet2_doc)) {
        assert_loads_like_the_oracle(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn edited_isp_files_load_like_the_oracle(text in Edited(isp_doc)) {
        assert_loads_like_the_oracle(&text);
    }
}

fn generated() -> Vec<Scenario> {
    let mut all = vec![internet2(2010), internet2(3), geant(2010), isp_internet(2010)];
    all.extend([1, 7, 2010].map(|seed| random_topology(seed, 6)));
    all
}

#[test]
fn every_generator_writes_the_oracles_bytes_and_loads_like_it() {
    for scenario in generated() {
        let text = io::to_json(&scenario);
        assert!(text == oracle::to_json(&scenario), "{}: bytes differ", scenario.name);
        assert_loads_like_the_oracle(&text);
        assert_equivalent(&io::from_json(&text).unwrap(), &scenario);
    }
}

/// Fields no generator sets: every policy, including `{"default":
/// addr}`, per-packet balancing, unreachable replies, wide rate limits,
/// names that need escapes and unresponsive interfaces.
#[test]
fn every_field_kind_writes_the_oracles_bytes() {
    let mut doc = internet2_doc().clone();
    let Value::Array(routers) = &mut doc["routers"] else { panic!("routers is an array") };
    let policies = [
        serde_json::json!("nil"),
        serde_json::json!("probed"),
        serde_json::json!("incoming"),
        serde_json::json!("shortest_path"),
        serde_json::json!({"default": "192.0.2.7"}),
    ];
    for (i, r) in routers.iter_mut().enumerate() {
        let c = &mut r["config"];
        c["direct"] = policies[i % 5].clone();
        c["indirect"] = policies[(i / 5) % 5].clone();
        c["direct_protos"]["udp"] = Value::Bool(i % 2 == 0);
        c["lb"] = serde_json::json!(if i % 3 == 0 { "per_packet" } else { "per_flow" });
        c["unreachable_replies"] = Value::Bool(i % 4 == 0);
        c["rate_limit"] =
            serde_json::json!({"capacity": u32::MAX - i as u32, "refill_every": 1u64 << 40});
        if i % 7 == 0 {
            r["name"] = Value::String(format!("r{i} \"quoted\" \\ tab\t nul\u{0} é"));
        }
    }
    let Value::Array(ifaces) = &mut doc["ifaces"] else { panic!("ifaces is an array") };
    for iface in ifaces.iter_mut().step_by(3) {
        iface["responsive"] = Value::Bool(false);
    }
    let text = doc.to_string();
    assert_loads_like_the_oracle(&text);
    let scenario = io::from_json(&text).expect("the edited file loads");
    assert!(scenario.topology.ifaces().iter().any(|i| !i.responsive));
    assert!(io::to_json(&scenario) == oracle::to_json(&scenario), "bytes differ");
    assert_equivalent(&io::from_json(&io::to_json(&scenario)).unwrap(), &scenario);
}

#[test]
fn a_json_error_after_a_shape_defect_is_still_the_json_error() {
    let text = io::to_json(&internet2(2010));
    let wrong_format = text.replacen("tracenet-scenario/1", "tracenet-scenario/0", 1);
    for broken in [&wrong_format[..wrong_format.len() - 1], &format!("{wrong_format},")] {
        let err = io::from_json(broken).unwrap_err();
        assert!(matches!(err, LoadError::Json(_)), "{err}");
        assert_loads_like_the_oracle(broken);
    }
}

#[test]
fn documents_that_are_not_objects_fail_like_the_oracle() {
    for text in ["null", "[]", "\"tracenet-scenario/1\"", "7", "", " ", "{\"format\":1}"] {
        assert_loads_like_the_oracle(text);
    }
}

/// The writer's own layout with exactly one member spelled, typed,
/// repeated, dropped or spaced otherwise, at the first place it occurs:
/// the loader reads the objects up to that member in the writer's key
/// order and the rest of them member by member, and must load like the
/// oracle. Where the edit keeps the meaning, the scenario must be the
/// one written.
#[test]
fn one_member_off_the_writers_layout_loads_like_the_oracle() {
    let scenario = internet2(2010);
    let text = io::to_json(&scenario);
    let edit = |from: &str, to: &str| {
        assert!(text.contains(from), "{from:?} is in the file");
        text.replacen(from, to, 1)
    };
    let compact = serde_json::from_str(&text).unwrap().to_string();
    let cases = [
        // Escaped keys, in a row and at the top level.
        (edit("\"router\": 0,", "\"ro\\u0075ter\": 0,"), true),
        (edit("\"name\": \"internet2\"", "\"n\\u0061me\": \"internet2\""), true),
        // The same number spelled otherwise, another number, past 2^64.
        (edit("\"router\": 1,", "\"router\": 1.0,"), true),
        (edit("\"router\": 1,", "\"router\": 1e0,"), true),
        (edit("\"router\": 1,", "\"router\": 01,"), true),
        (edit("\"router\": 1,", "\"router\": -0,"), false),
        (edit("\"router\": 1,", "\"router\": 18446744073709551616,"), false),
        // A string where a `true` goes: the default for `responsive`
        // is `true`, for `host` `false`.
        (edit("\"responsive\": true", "\"responsive\": \"true\""), true),
        (edit("\"host\": true", "\"host\": \"true\""), false),
        // A duplicate right after the expected key: the first wins.
        (edit("\"router\": 1,", "\"router\": 1, \"router\": 2,"), true),
        (edit("\"name\": \"internet2\",", "\"name\": \"internet2\", \"name\": \"x\","), true),
        // A missing middle key: required, or with a default.
        (edit("\"subnet\": 0,\n      ", ""), false),
        (edit("\"host\": false,\n      ", ""), true),
        // An unknown key between two members.
        (edit("\"router\": 0,", "\"router\": 0, \"mystery\": [1, {\"a\": null}],"), true),
        // Other whitespace throughout.
        (text.replace('\n', "\r\n"), true),
        (text.replace("  ", "\t"), true),
        (compact, true),
    ];
    for (edited, same) in cases {
        assert_ne!(edited, text);
        assert_loads_like_the_oracle(&edited);
        if same {
            assert_equivalent(&io::from_json(&edited).unwrap(), &scenario);
        }
    }
}

/// The 4-ISP file with every object's keys sorted and no whitespace:
/// every object but the rate limits leaves the writer's key order by its
/// second key.
#[test]
fn the_isp_file_with_sorted_keys_loads_the_same_scenario() {
    fn sort_keys(v: &mut Value) {
        match v {
            Value::Object(members) => {
                members.sort_by(|a, b| a.0.cmp(&b.0));
                members.iter_mut().for_each(|(_, v)| sort_keys(v));
            }
            Value::Array(items) => items.iter_mut().for_each(sort_keys),
            _ => {}
        }
    }
    let mut doc = isp_doc().clone();
    sort_keys(&mut doc);
    let sorted = doc.to_string();
    assert_equivalent(&io::from_json(&sorted).unwrap(), &isp_internet(2010));
}
