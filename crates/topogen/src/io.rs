//! Scenario serialization: save a generated scenario (topology, router
//! configurations, vantages, targets, ground truth) to JSON and load it
//! back.
//!
//! The format is the released tool's interchange format: experiments can
//! be generated once, archived, shipped to the CLI, and replayed
//! bit-identically. Everything the simulator needs to reproduce behavior
//! is captured — response policies, protocol sets, rate limits, load
//! balancing, firewalls and scoped ACLs.
//!
//! Neither direction builds a `serde_json::Value`. [`to_json`] prints
//! into one `String` with the shim's `write_string` and `write_u64`, in
//! the layout `serde_json::to_string_pretty` gives the same document:
//! two-space indent, `": "` after a key, `[]` for an empty list. Its
//! integers print exactly, where a `Value` number, an `f64`, would round
//! a `refill_every` above 2^53.
//!
//! [`from_json`] pulls the shim's [`Tokenizer`], matches keys as borrowed
//! slices and parses addresses and prefixes from the borrowed strings.
//! It accepts what indexing a parsed `Value` accepts and builds the same
//! [`Scenario`] (`tests/load_oracle.rs` keeps that reader as the oracle):
//!
//! - keys may come in any order at every level. `ifaces` points into
//!   `routers` and `subnets`, so each top-level list is read into typed
//!   rows and the topology is built after the document ends;
//! - the first of duplicate keys wins;
//! - unknown keys are skipped, but their syntax is still checked;
//! - a missing key reads like a value of the wrong type: `host`,
//!   `filtered` and `unreachable_replies` fall back to `false`,
//!   `responsive` to `true`, `lb` to per flow and a `null` `rate_limit`
//!   to none; every other field is required;
//! - a document that is not JSON fails with [`LoadError::Json`] and the
//!   parser's message, line and column, even when a shape defect comes
//!   earlier in the file;
//! - otherwise the first shape defect is a [`LoadError::Shape`], checked
//!   in this order: `format`, `name`, `routers`, `subnets`, `ifaces`,
//!   the topology build, `vantages`, `targets`, `ground_truth`. Within a
//!   list the items go in order. Within an item the fields go in the
//!   order [`to_json`] writes them, then what they refer to: an
//!   interface's router and subnet, a vantage's interface.
//!
//! The layout [`to_json`] writes is read in place. In each object the
//! reader tries the keys in the writer's order, each spelled without
//! escapes (whitespace around the tokens is free), and reads each value
//! with the shim's take read for its type: a string without escapes, a
//! plain integer of at most 15 digits, `true` or `false`. From the first
//! member that is not the next key so spelled (an escaped key, another
//! order, a duplicate, an unknown or a missing key) the rest of the
//! object is read member by member, its keys matched in any order. A
//! value spelled otherwise (`1.0`, `1e0`, `-0`, a 16-digit number, an
//! escaped string) or of another type is read from the tokenizer's next
//! token. Either way the scenario and the errors are the same.

use std::borrow::Cow;
use std::fmt;

use inet::{Addr, Dotted, Prefix};
use netsim::{
    LbMode, ProtoSet, Protocol, RateLimit, ResponsePolicy, RouterConfig, RouterId, SubnetId,
    TopologyBuilder,
};
use serde_json::{write_string, write_u64, Token, Tokenizer};

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

const FORMAT: &str = "tracenet-scenario/1";

/// Serializes a scenario to a JSON string.
pub fn to_json(scenario: &Scenario) -> String {
    let topo = &scenario.topology;
    let mut w = Pretty::default();
    w.object(|w| {
        w.key("format").string(FORMAT);
        w.key("name").string(&scenario.name);
        w.key("routers").list(topo.routers(), |w, r| {
            w.object(|w| {
                w.key("name").string(&r.name);
                w.key("host").bool(r.is_host);
                w.key("config").config(&r.config);
            })
        });
        w.key("subnets").list(topo.subnets(), |w, s| {
            w.object(|w| {
                w.key("prefix").prefix(s.prefix);
                w.key("filtered").bool(s.filtered);
                w.key("filtered_sources").list(&s.filtered_sources, |w, &a| w.addr(a));
            })
        });
        w.key("ifaces").list(topo.ifaces(), |w, i| {
            w.object(|w| {
                w.key("router").u64(i.router.0.into());
                w.key("subnet").u64(i.subnet.0.into());
                w.key("addr").addr(i.addr);
                w.key("responsive").bool(i.responsive);
            })
        });
        w.key("vantages").list(&scenario.vantages, |w, (name, addr)| {
            w.object(|w| {
                w.key("name").string(name);
                w.key("addr").addr(*addr);
            })
        });
        w.key("targets").list(&scenario.targets, |w, &t| w.addr(t));
        w.key("ground_truth").list(&scenario.ground_truth.subnets, |w, g| {
            w.object(|w| {
                w.key("prefix").prefix(g.prefix);
                w.key("members").list(&g.members, |w, &m| w.addr(m));
                w.key("intent").string(g.intent.label());
                w.key("network").string(&g.network);
            })
        });
    });
    w.out
}

/// A writer with `serde_json::to_string_pretty`'s layout. `empty` says
/// whether the innermost open container has no item yet.
#[derive(Default)]
struct Pretty {
    out: String,
    depth: usize,
    empty: bool,
}

impl Pretty {
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Starts the next item of the innermost container.
    fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Writes `{`, what `members` writes, and `}`.
    fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.container('{', '}', members);
    }

    /// Writes `items` as an array, each through `item`.
    fn list<T>(&mut self, items: impl IntoIterator<Item = T>, mut item: impl FnMut(&mut Self, T)) {
        self.container('[', ']', |w| {
            for x in items {
                w.item();
                item(w, x);
            }
        });
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
        body(self);
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(close);
        // The container was an item of its parent, or the document.
        self.empty = false;
    }

    /// Starts an object member; the value is written next.
    fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_string(&mut self.out, key);
        self.out.push_str(": ");
        self
    }

    fn null(&mut self) {
        self.out.push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    fn u64(&mut self, n: u64) {
        write_u64(&mut self.out, n);
    }

    fn string(&mut self, s: &str) {
        write_string(&mut self.out, s);
    }

    /// A dotted quad needs no escapes, so it is printed in place.
    fn addr(&mut self, a: Addr) {
        self.quoted(a.dotted());
    }

    fn prefix(&mut self, p: Prefix) {
        self.quoted(p.dotted());
    }

    fn quoted(&mut self, text: Dotted) {
        self.out.push('"');
        self.out.push_str(text.as_str());
        self.out.push('"');
    }

    fn config(&mut self, c: &RouterConfig) {
        self.object(|w| {
            w.key("direct").policy(&c.direct);
            w.key("indirect").policy(&c.indirect);
            w.key("direct_protos").protos(&c.direct_protos);
            w.key("indirect_protos").protos(&c.indirect_protos);
            match c.rate_limit {
                None => w.key("rate_limit").null(),
                Some(rl) => w.key("rate_limit").object(|w| {
                    w.key("capacity").u64(rl.capacity.into());
                    w.key("refill_every").u64(rl.refill_every);
                }),
            }
            w.key("lb").string(match c.lb {
                LbMode::PerFlow => "per_flow",
                LbMode::PerPacket => "per_packet",
            });
            w.key("unreachable_replies").bool(c.unreachable_replies);
        });
    }

    fn policy(&mut self, p: &ResponsePolicy) {
        match p {
            ResponsePolicy::Nil => self.string("nil"),
            ResponsePolicy::Probed => self.string("probed"),
            ResponsePolicy::Incoming => self.string("incoming"),
            ResponsePolicy::ShortestPath => self.string("shortest_path"),
            ResponsePolicy::Default(a) => self.object(|w| w.key("default").addr(*a)),
        }
    }

    fn protos(&mut self, p: &ProtoSet) {
        self.object(|w| {
            for proto in PROTOS {
                w.key(proto.label()).bool(p.allows(proto));
            }
        });
    }
}

/// Loads a scenario from a JSON string produced by [`to_json`].
pub fn from_json(text: &str) -> Result<Scenario, LoadError> {
    Document::read(text).map_err(LoadError::Json)?.build()
}

/// A tokenizer result: the JSON errors, which end the read at once.
/// Shape errors wait in the rows until the whole document has parsed.
type Json<T> = Result<T, serde_json::Error>;

/// The items of one array, in order, up to the first that failed its
/// checks, and that item's error. The items after it are still read, so
/// the document is checked as JSON to its end, but they are dropped.
struct Rows<T> {
    rows: Vec<T>,
    bad: Option<LoadError>,
}

impl<T> Rows<T> {
    /// Every item, or the first bad one's error.
    fn all(self) -> Result<Vec<T>, LoadError> {
        match self.bad {
            None => Ok(self.rows),
            Some(e) => Err(e),
        }
    }
}

/// The rows of a member that must be an array.
fn array<T>(rows: Option<Rows<T>>, what: &str) -> Result<Rows<T>, LoadError> {
    rows.ok_or_else(|| shape(format!("{what} must be an array")))
}

/// Hands each good row to `row`, in order, then reports the first bad
/// item: an earlier row's error comes before a later item's.
fn each<T>(
    rows: Option<Rows<T>>,
    what: &str,
    row: impl FnMut(T) -> Result<(), LoadError>,
) -> Result<(), LoadError> {
    let Rows { rows, bad } = array(rows, what)?;
    rows.into_iter().try_for_each(row)?;
    bad.map_or(Ok(()), Err)
}

/// Reads the object `first` starts and hands the first occurrence of
/// each of `keys` to `member`, by its index in `keys`, to read the value.
/// Other keys and later duplicates are skipped, though still checked.
/// Any other value is skipped and has no members, as indexing a `Value`
/// finds none.
///
/// `keys` come in the order [`to_json`] writes them, and while each next
/// one is there, spelled without escapes, it is taken in place. From the
/// first member that is not, the rest of the object is read token by
/// token, its keys matched in any order.
fn members<'a>(
    tokens: &mut Tokenizer<'a>,
    first: Token<'a>,
    keys: &[&str],
    mut member: impl FnMut(&mut Tokenizer<'a>, usize) -> Json<()>,
) -> Json<()> {
    if !matches!(first, Token::ObjectStart) {
        return tokens.skip(first);
    }
    let mut seen = 0u32;
    for (i, key) in keys.iter().enumerate() {
        if !tokens.take_key(key) {
            break;
        }
        seen |= 1 << i;
        member(tokens, i)?;
    }
    loop {
        match tokens.next_token()? {
            Token::ObjectEnd => return Ok(()),
            Token::Key(name) => match keys.iter().position(|&k| k == name) {
                Some(i) if seen & (1 << i) == 0 => {
                    seen |= 1 << i;
                    member(tokens, i)?;
                }
                _ => {
                    let value = tokens.next_token()?;
                    tokens.skip(value)?;
                }
            },
            _ => unreachable!("an object holds keys"),
        }
    }
}

/// [`members`] with the keys written once: `object!(tokens, first, {
/// key => read, ... })` lists each key, in the order [`to_json`] writes
/// them, with the expression that reads its value through `tokens`.
macro_rules! object {
    ($tokens:ident, $first:expr, { $($key:ident => $read:expr,)+ }) => {{
        #[allow(non_camel_case_types)]
        enum Key {
            $($key,)+
        }
        members($tokens, $first, &[$(stringify!($key)),+], |$tokens, at| {
            $(if at == Key::$key as usize {
                $read;
            })+
            Ok(())
        })
    }};
}

/// Reads the array that is the next value, each item through `item`,
/// which reads it from its start and gives `None` at the `]`. `None`
/// for any other value, which is skipped.
fn items<'a, T>(
    tokens: &mut Tokenizer<'a>,
    mut item: impl FnMut(&mut Tokenizer<'a>) -> Json<Option<Result<T, LoadError>>>,
) -> Json<Option<Rows<T>>> {
    let first = tokens.next_token()?;
    if !matches!(first, Token::ArrayStart) {
        tokens.skip(first)?;
        return Ok(None);
    }
    let mut rows = Rows { rows: Vec::new(), bad: None };
    while let Some(checked) = item(tokens)? {
        if rows.bad.is_none() {
            match checked {
                Ok(row) => rows.rows.push(row),
                Err(e) => rows.bad = Some(e),
            }
        }
    }
    Ok(Some(rows))
}

/// The next value, if it is a string; any other value is skipped.
fn string<'a>(tokens: &mut Tokenizer<'a>) -> Json<Option<Cow<'a, str>>> {
    if let Some(s) = tokens.take_str() {
        return Ok(Some(s.into()));
    }
    let first = tokens.next_token()?;
    string_of(tokens, first)
}

/// The string `first` is, if it is one; any other value is skipped.
fn string_of<'a>(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Option<Cow<'a, str>>> {
    match first {
        Token::String(s) => Ok(Some(s)),
        other => tokens.skip(other).map(|()| None),
    }
}

fn boolean(tokens: &mut Tokenizer<'_>) -> Json<Option<bool>> {
    if let Some(b) = tokens.take_bool() {
        return Ok(Some(b));
    }
    match tokens.next_token()? {
        Token::Bool(b) => Ok(Some(b)),
        other => tokens.skip(other).map(|()| None),
    }
}

/// The next value as a `u64`, converted as `Value::as_u64` converts it:
/// a non-negative integer, saturating above `u64::MAX`.
fn integer(tokens: &mut Tokenizer<'_>) -> Json<Option<u64>> {
    if let Some(n) = tokens.take_u64() {
        return Ok(Some(n));
    }
    match tokens.next_token()? {
        Token::Number(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
            Ok(Some(n as u64))
        }
        other => tokens.skip(other).map(|()| None),
    }
}

/// An array of addresses, each read as `what`.
fn addrs(tokens: &mut Tokenizer<'_>, what: &'static str) -> Json<Option<Rows<Addr>>> {
    items(tokens, |tokens| {
        if let Some(s) = tokens.take_str() {
            return Ok(Some(parse_addr(Some(s), what)));
        }
        Ok(match tokens.next_token()? {
            Token::ArrayEnd => None,
            first => Some(parse_addr(string_of(tokens, first)?.as_deref(), what)),
        })
    })
}

/// The members of one array item, read as they come and checked once
/// the item has ended.
trait Item<'a>: Sized {
    type Row;
    fn read(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Self>;
    fn check(self) -> Result<Self::Row, LoadError>;
}

/// An array of `I` items.
fn rows<'a, I: Item<'a>>(tokens: &mut Tokenizer<'a>) -> Json<Option<Rows<I::Row>>> {
    items(tokens, |tokens| {
        Ok(match tokens.next_token()? {
            Token::ArrayEnd => None,
            first => Some(I::read(tokens, first)?.check()),
        })
    })
}

/// The top-level members, each list read into checked rows.
#[derive(Default)]
struct Document<'a> {
    format: Option<Cow<'a, str>>,
    name: Option<Cow<'a, str>>,
    routers: Option<Rows<RouterRow<'a>>>,
    subnets: Option<Rows<SubnetRow>>,
    ifaces: Option<Rows<IfaceRow>>,
    vantages: Option<Rows<(Cow<'a, str>, Addr)>>,
    targets: Option<Rows<Addr>>,
    ground_truth: Option<Rows<GtSubnet>>,
}

impl<'a> Document<'a> {
    /// Reads all of `text`, stopping only at a JSON error.
    fn read(text: &'a str) -> Json<Document<'a>> {
        let tokens = &mut Tokenizer::new(text);
        let mut doc = Document::default();
        let first = tokens.next_token()?;
        object!(tokens, first, {
            format => doc.format = string(tokens)?,
            name => doc.name = string(tokens)?,
            routers => doc.routers = rows::<RouterFields>(tokens)?,
            subnets => doc.subnets = rows::<SubnetFields>(tokens)?,
            ifaces => doc.ifaces = rows::<IfaceFields>(tokens)?,
            vantages => doc.vantages = rows::<VantageFields>(tokens)?,
            targets => doc.targets = addrs(tokens, "target")?,
            ground_truth => doc.ground_truth = rows::<GtFields>(tokens)?,
        })?;
        match tokens.next_token()? {
            Token::End => Ok(doc),
            _ => unreachable!("the tokenizer ends the document after its value"),
        }
    }

    /// Runs the checks in their order and builds the scenario.
    fn build(self) -> Result<Scenario, LoadError> {
        if self.format.as_deref() != Some(FORMAT) {
            return Err(shape("missing or unknown `format` marker"));
        }
        let name = as_str(self.name, "name")?.into_owned();

        let mut b = TopologyBuilder::new();
        let mut routers = 0;
        each(self.routers, "routers", |r| {
            let id = b.router(r.name, r.config);
            if r.host {
                b.set_host(id);
            }
            routers += 1;
            Ok(())
        })?;
        let mut subnets = 0;
        each(self.subnets, "subnets", |s| {
            let id = if s.filtered { b.filtered_subnet(s.prefix) } else { b.subnet(s.prefix) };
            if !s.sources.is_empty() {
                b.set_filtered_sources(id, s.sources);
            }
            subnets += 1;
            Ok(())
        })?;
        each(self.ifaces, "ifaces", |i| {
            if i.router >= routers {
                return Err(shape("iface.router out of range"));
            }
            if i.subnet >= subnets {
                return Err(shape("iface.subnet out of range"));
            }
            let (router, subnet) = (RouterId(i.router as u32), SubnetId(i.subnet as u32));
            match b.attach_with(router, subnet, i.addr, i.responsive) {
                Ok(_) => Ok(()),
                Err(e) => Err(shape(format!("attach {}: {e}", i.addr))),
            }
        })?;
        let topology = b.build().map_err(|e| shape(format!("{e}")))?;

        let mut vantages = Vec::new();
        each(self.vantages, "vantages", |(name, addr)| {
            // Probes are sourced at the vantage, so it must be an interface.
            if topology.owner_of(addr).is_none() {
                return Err(shape(format!("vantage {name:?} at {addr} is not an interface")));
            }
            vantages.push((name.into_owned(), addr));
            Ok(())
        })?;
        let targets = array(self.targets, "targets")?.all()?;
        let subnets = array(self.ground_truth, "ground_truth")?.all()?;
        Ok(Scenario { name, topology, vantages, targets, ground_truth: GroundTruth { subnets } })
    }
}

struct RouterRow<'a> {
    name: Cow<'a, str>,
    config: RouterConfig,
    host: bool,
}

#[derive(Default)]
struct RouterFields<'a> {
    name: Option<Cow<'a, str>>,
    host: Option<bool>,
    config: ConfigFields<'a>,
}

impl<'a> Item<'a> for RouterFields<'a> {
    type Row = RouterRow<'a>;

    fn read(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Self> {
        let mut r = Self::default();
        object!(tokens, first, {
            name => r.name = string(tokens)?,
            host => r.host = boolean(tokens)?,
            config => r.config = ConfigFields::read(tokens)?,
        })?;
        Ok(r)
    }

    fn check(self) -> Result<RouterRow<'a>, LoadError> {
        let name = as_str(self.name, "router name")?;
        let config = self.config.check(&name)?;
        Ok(RouterRow { name, config, host: self.host.unwrap_or(false) })
    }
}

#[derive(Default)]
struct ConfigFields<'a> {
    direct: PolicyField<'a>,
    indirect: PolicyField<'a>,
    direct_protos: ProtoFields,
    indirect_protos: ProtoFields,
    /// `None` for `null` and for a missing key.
    rate_limit: Option<LimitFields>,
    lb: Option<Cow<'a, str>>,
    unreachable_replies: Option<bool>,
}

impl<'a> ConfigFields<'a> {
    /// Reads the next value.
    fn read(tokens: &mut Tokenizer<'a>) -> Json<Self> {
        let mut c = Self::default();
        let first = tokens.next_token()?;
        object!(tokens, first, {
            direct => c.direct = PolicyField::read(tokens)?,
            indirect => c.indirect = PolicyField::read(tokens)?,
            direct_protos => c.direct_protos = ProtoFields::read(tokens)?,
            indirect_protos => c.indirect_protos = ProtoFields::read(tokens)?,
            rate_limit => {
                c.rate_limit = match tokens.next_token()? {
                    Token::Null => None,
                    first => Some(LimitFields::read(tokens, first)?),
                }
            },
            lb => c.lb = string(tokens)?,
            unreachable_replies => c.unreachable_replies = boolean(tokens)?,
        })?;
        Ok(c)
    }

    fn check(self, router: &str) -> Result<RouterConfig, LoadError> {
        Ok(RouterConfig {
            direct: self.direct.check()?,
            indirect: self.indirect.check()?,
            direct_protos: self.direct_protos.check()?,
            indirect_protos: self.indirect_protos.check()?,
            rate_limit: self.rate_limit.map(|rl| rl.check(router)).transpose()?,
            lb: match self.lb.as_deref() {
                Some("per_flow") | None => LbMode::PerFlow,
                Some("per_packet") => LbMode::PerPacket,
                Some(other) => return Err(shape(format!("unknown lb mode {other:?}"))),
            },
            unreachable_replies: self.unreachable_replies.unwrap_or(false),
        })
    }
}

#[derive(Default)]
enum PolicyField<'a> {
    /// A string: one of the named policies.
    Named(Cow<'a, str>),
    /// An object: its `default` member, if that is a string.
    Default(Option<Cow<'a, str>>),
    /// Any other value, or a missing key.
    #[default]
    Other,
}

impl<'a> PolicyField<'a> {
    /// Reads the next value.
    fn read(tokens: &mut Tokenizer<'a>) -> Json<Self> {
        if let Some(s) = tokens.take_str() {
            return Ok(PolicyField::Named(s.into()));
        }
        Ok(match tokens.next_token()? {
            Token::String(s) => PolicyField::Named(s),
            first @ Token::ObjectStart => {
                let mut addr = None;
                object!(tokens, first, {
                    default => addr = string(tokens)?,
                })?;
                PolicyField::Default(addr)
            }
            other => {
                tokens.skip(other)?;
                PolicyField::Other
            }
        })
    }

    fn check(self) -> Result<ResponsePolicy, LoadError> {
        match self {
            PolicyField::Named(s) => match &*s {
                "nil" => Ok(ResponsePolicy::Nil),
                "probed" => Ok(ResponsePolicy::Probed),
                "incoming" => Ok(ResponsePolicy::Incoming),
                "shortest_path" => Ok(ResponsePolicy::ShortestPath),
                other => Err(shape(format!("unknown policy {other:?}"))),
            },
            PolicyField::Default(addr) => {
                Ok(ResponsePolicy::Default(parse_addr(addr.as_deref(), "default policy addr")?))
            }
            PolicyField::Other => Err(shape("policy must be a string or {default: addr}")),
        }
    }
}

/// The protocols a `ProtoSet` object names, in the order it is written.
const PROTOS: [Protocol; 3] = [Protocol::Icmp, Protocol::Udp, Protocol::Tcp];

#[derive(Default)]
struct ProtoFields {
    icmp: Option<bool>,
    udp: Option<bool>,
    tcp: Option<bool>,
}

impl ProtoFields {
    /// Reads the next value.
    fn read(tokens: &mut Tokenizer<'_>) -> Json<Self> {
        let mut p = Self::default();
        let first = tokens.next_token()?;
        members(tokens, first, &PROTOS.map(Protocol::label), |tokens, at| {
            let b = boolean(tokens)?;
            match PROTOS[at] {
                Protocol::Icmp => p.icmp = b,
                Protocol::Udp => p.udp = b,
                Protocol::Tcp => p.tcp = b,
            }
            Ok(())
        })?;
        Ok(p)
    }

    fn check(self) -> Result<ProtoSet, LoadError> {
        Ok(ProtoSet {
            icmp: self.icmp.ok_or_else(|| shape("protos.icmp"))?,
            udp: self.udp.ok_or_else(|| shape("protos.udp"))?,
            tcp: self.tcp.ok_or_else(|| shape("protos.tcp"))?,
        })
    }
}

#[derive(Default)]
struct LimitFields {
    capacity: Option<u64>,
    refill_every: Option<u64>,
}

impl LimitFields {
    fn read<'a>(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Self> {
        let mut rl = Self::default();
        object!(tokens, first, {
            capacity => rl.capacity = integer(tokens)?,
            refill_every => rl.refill_every = integer(tokens)?,
        })?;
        Ok(rl)
    }

    /// A token bucket the engine can run: `capacity` fits its `u32`, and
    /// `refill_every`, which it divides by, is at least one tick.
    fn check(self, router: &str) -> Result<RateLimit, LoadError> {
        let bad = |what: &str| shape(format!("router {router:?}: rate_limit.{what}"));
        let capacity = self
            .capacity
            .and_then(|c| u32::try_from(c).ok())
            .ok_or_else(|| bad("capacity must be an integer below 2^32"))?;
        let refill_every = self
            .refill_every
            .filter(|&r| r > 0)
            .ok_or_else(|| bad("refill_every must be a positive integer"))?;
        Ok(RateLimit { capacity, refill_every })
    }
}

struct SubnetRow {
    prefix: Prefix,
    filtered: bool,
    sources: Vec<Addr>,
}

#[derive(Default)]
struct SubnetFields<'a> {
    prefix: Option<Cow<'a, str>>,
    filtered: Option<bool>,
    filtered_sources: Option<Rows<Addr>>,
}

impl<'a> Item<'a> for SubnetFields<'a> {
    type Row = SubnetRow;

    fn read(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Self> {
        let mut s = Self::default();
        object!(tokens, first, {
            prefix => s.prefix = string(tokens)?,
            filtered => s.filtered = boolean(tokens)?,
            filtered_sources => s.filtered_sources = addrs(tokens, "filtered source")?,
        })?;
        Ok(s)
    }

    fn check(self) -> Result<SubnetRow, LoadError> {
        Ok(SubnetRow {
            prefix: parse_prefix(self.prefix.as_deref(), "subnet prefix")?,
            filtered: self.filtered.unwrap_or(false),
            sources: array(self.filtered_sources, "filtered_sources")?.all()?,
        })
    }
}

struct IfaceRow {
    router: usize,
    subnet: usize,
    addr: Addr,
    responsive: bool,
}

#[derive(Default)]
struct IfaceFields<'a> {
    router: Option<u64>,
    subnet: Option<u64>,
    addr: Option<Cow<'a, str>>,
    responsive: Option<bool>,
}

impl<'a> Item<'a> for IfaceFields<'a> {
    type Row = IfaceRow;

    fn read(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Self> {
        let mut i = Self::default();
        object!(tokens, first, {
            router => i.router = integer(tokens)?,
            subnet => i.subnet = integer(tokens)?,
            addr => i.addr = string(tokens)?,
            responsive => i.responsive = boolean(tokens)?,
        })?;
        Ok(i)
    }

    fn check(self) -> Result<IfaceRow, LoadError> {
        Ok(IfaceRow {
            router: self.router.ok_or_else(|| shape("iface.router"))? as usize,
            subnet: self.subnet.ok_or_else(|| shape("iface.subnet"))? as usize,
            addr: parse_addr(self.addr.as_deref(), "iface addr")?,
            responsive: self.responsive.unwrap_or(true),
        })
    }
}

#[derive(Default)]
struct VantageFields<'a> {
    name: Option<Cow<'a, str>>,
    addr: Option<Cow<'a, str>>,
}

impl<'a> Item<'a> for VantageFields<'a> {
    type Row = (Cow<'a, str>, Addr);

    fn read(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Self> {
        let mut v = Self::default();
        object!(tokens, first, {
            name => v.name = string(tokens)?,
            addr => v.addr = string(tokens)?,
        })?;
        Ok(v)
    }

    fn check(self) -> Result<(Cow<'a, str>, Addr), LoadError> {
        let name = as_str(self.name, "vantage name")?;
        Ok((name, parse_addr(self.addr.as_deref(), "vantage addr")?))
    }
}

#[derive(Default)]
struct GtFields<'a> {
    prefix: Option<Cow<'a, str>>,
    members: Option<Rows<Addr>>,
    intent: Option<Cow<'a, str>>,
    network: Option<Cow<'a, str>>,
}

impl<'a> Item<'a> for GtFields<'a> {
    type Row = GtSubnet;

    fn read(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Json<Self> {
        let mut g = Self::default();
        object!(tokens, first, {
            prefix => g.prefix = string(tokens)?,
            members => g.members = addrs(tokens, "gt member")?,
            intent => g.intent = string(tokens)?,
            network => g.network = string(tokens)?,
        })?;
        Ok(g)
    }

    fn check(self) -> Result<GtSubnet, LoadError> {
        let prefix = parse_prefix(self.prefix.as_deref(), "gt prefix")?;
        let members = array(self.members, "gt members")?.all()?;
        let intent = match as_str(self.intent.as_deref(), "gt intent")? {
            "normal" => SubnetIntent::Normal,
            "filtered" => SubnetIntent::Filtered,
            "partial" => SubnetIntent::Partial,
            "infrastructure" => SubnetIntent::Infrastructure,
            other => return Err(shape(format!("unknown intent {other:?}"))),
        };
        let network = as_str(self.network, "gt network")?.into_owned();
        Ok(GtSubnet { prefix, members, intent, network })
    }
}

/// A member that must be a string: `v` is the string, if it was one.
fn as_str<S>(v: Option<S>, what: &str) -> Result<S, LoadError> {
    v.ok_or_else(|| shape(format!("{what} must be a string")))
}

fn parse_addr(v: Option<&str>, what: &str) -> Result<Addr, LoadError> {
    as_str(v, what)?.parse().map_err(|e| shape(format!("{what}: {e}")))
}

/// A prefix's parse error names no field.
fn parse_prefix(v: Option<&str>, what: &str) -> Result<Prefix, LoadError> {
    as_str(v, what)?.parse().map_err(|e| shape(format!("{e}")))
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::assert_equivalent;
    use super::*;
    use crate::{internet2, random_topology};
    use netsim::{ConcurrentNetwork, RoutingTable};
    use serde_json::Value;

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
