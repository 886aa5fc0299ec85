//! Readers for the flags that several commands share: the probe
//! protocol, the retry policy, and the fault plan and budget. The
//! `repro` binary in `bench-suite` reads its retry and fault flags here
//! too, so a value one rejects the other rejects the same way.

use probe::Protocol;

use crate::args::Opts;

/// The flags [`retry_policy`], [`fault_plan`] and [`fault_budget`] read.
pub const FAULT_FLAGS: [&str; 5] =
    ["retries", "backoff", "fault-profile", "fault-seed", "fault-budget"];

/// Parses `--protocol icmp|udp|tcp` (default ICMP).
pub fn protocol(opts: &Opts) -> Result<Protocol, String> {
    match opts.flag("protocol").unwrap_or("icmp") {
        "icmp" => Ok(Protocol::Icmp),
        "udp" => Ok(Protocol::Udp),
        "tcp" => Ok(Protocol::Tcp),
        other => Err(format!("unknown protocol {other:?} (icmp|udp|tcp)")),
    }
}

/// Parses `--retries` / `--backoff` into a retry policy. `--retries N`
/// is the re-probe budget (the adaptive mode's maximum); `--backoff`
/// picks the shape: `none` (back-to-back, the paper's behavior), `exp`
/// (exponential idle before each retry), or `adaptive` (budget widens
/// with the recent timeout rate).
pub fn retry_policy(opts: &Opts) -> Result<probe::RetryPolicy, String> {
    let retries = opts.flag_parse("retries", probe::DEFAULT_RETRIES)?;
    match opts.flag("backoff").unwrap_or("none") {
        "none" => Ok(probe::RetryPolicy::Fixed { retries }),
        "exp" => Ok(probe::RetryPolicy::Backoff { retries, base: 8 }),
        "adaptive" => Ok(probe::RetryPolicy::Adaptive {
            min: probe::DEFAULT_RETRIES.min(retries),
            max: retries,
        }),
        other => Err(format!("unknown backoff mode {other:?} (none|exp|adaptive)")),
    }
}

/// Parses `--fault-profile` / `--fault-seed` into a fault plan. A seed
/// without a profile attaches an all-zero plan (a no-op, useful for
/// byte-identity checks); a profile without a seed uses `default_seed`.
pub fn fault_plan(opts: &Opts, default_seed: u64) -> Result<Option<netsim::FaultPlan>, String> {
    let seed = opts.flag_parse("fault-seed", default_seed)?;
    match opts.flag("fault-profile") {
        None if opts.flag("fault-seed").is_some() => Ok(Some(netsim::FaultPlan::new(seed))),
        None => Ok(None),
        Some(name) => match netsim::FaultProfile::by_name(name) {
            Some(profile) => Ok(Some(profile.plan(seed))),
            None => {
                let known: Vec<&str> = netsim::FaultProfile::ALL.iter().map(|p| p.name()).collect();
                Err(format!("unknown fault profile {name:?} (one of: {})", known.join("|")))
            }
        },
    }
}

/// Parses `--fault-budget N` (absent means probe to exhaustion). N is at
/// least 1: a zero budget would abandon every hop before its first probe.
pub fn fault_budget(opts: &Opts) -> Result<Option<u16>, String> {
    match opts.flag("fault-budget") {
        Some(v) => match opts.flag_parse::<u16>("fault-budget", 0)? {
            0 => Err(format!("invalid value for --fault-budget: {v:?} (must be at least 1)")),
            n => Ok(Some(n)),
        },
        None => Ok(None),
    }
}
