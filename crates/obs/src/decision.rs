//! The decision event record: one algorithmic verdict of the collection
//! pipeline.
//!
//! Probe events say what went on the wire; decision events say what the
//! algorithms concluded from it — which heuristic fired, on which
//! address, with what evidence. Together they form the flight-recorder
//! stream that `tnet explain` renders as an inference tree and that
//! lets a replayed run be audited without re-probing anything.

use std::fmt;

use inet::Addr;

use crate::event::{Cause, Phase};
use crate::line::{self, Fixed, LineOut};
use crate::read::{self, Field, Key, Line};

/// What the pipeline concluded at one decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecisionVerdict {
    /// The subject address was admitted as a subnet member.
    Accepted,
    /// The subject was admitted as the subnet's single contra-pivot
    /// (H3).
    AcceptedContraPivot,
    /// The subject was examined and rejected (no heuristic stopped the
    /// growth; the address is just not a member).
    Rejected,
    /// A heuristic fired and exploration stopped, shrinking the subnet
    /// back one prefix level (`cause` names the heuristic).
    StoppedAndShrunk,
    /// The subject was designated the hop's pivot address.
    Pivot,
    /// Positioning concluded the hop is on the probing path.
    OnPath,
    /// Positioning concluded the hop is off-path.
    OffPath,
    /// The hop was resolved from the cross-session subnet cache.
    CacheHit,
    /// The cross-session cache matched but reuse was declined.
    CacheSkip,
    /// The hop address already belonged to an earlier subnet;
    /// exploration was skipped.
    Repeated,
    /// Exploration stopped growing because the subnet fell below half
    /// utilization (§3.5).
    Underutilized,
    /// H9 boundary reduction halved the collected prefix.
    BoundaryReduced,
    /// Exploration finished and the subnet was collected as-is.
    Collected,
    /// The hop's observations were degraded by fault-attributed
    /// timeouts (`evidence` carries the cause).
    Degraded,
    /// The per-hop fault budget tripped and the hop was abandoned.
    Abandoned,
}

impl DecisionVerdict {
    /// Every verdict, in declaration order.
    pub const ALL: [DecisionVerdict; 15] = [
        DecisionVerdict::Accepted,
        DecisionVerdict::AcceptedContraPivot,
        DecisionVerdict::Rejected,
        DecisionVerdict::StoppedAndShrunk,
        DecisionVerdict::Pivot,
        DecisionVerdict::OnPath,
        DecisionVerdict::OffPath,
        DecisionVerdict::CacheHit,
        DecisionVerdict::CacheSkip,
        DecisionVerdict::Repeated,
        DecisionVerdict::Underutilized,
        DecisionVerdict::BoundaryReduced,
        DecisionVerdict::Collected,
        DecisionVerdict::Degraded,
        DecisionVerdict::Abandoned,
    ];

    /// Stable snake_case label used in JSON.
    pub fn label(self) -> &'static str {
        match self {
            DecisionVerdict::Accepted => "accepted",
            DecisionVerdict::AcceptedContraPivot => "accepted_contra_pivot",
            DecisionVerdict::Rejected => "rejected",
            DecisionVerdict::StoppedAndShrunk => "stopped_and_shrunk",
            DecisionVerdict::Pivot => "pivot",
            DecisionVerdict::OnPath => "on_path",
            DecisionVerdict::OffPath => "off_path",
            DecisionVerdict::CacheHit => "cache_hit",
            DecisionVerdict::CacheSkip => "cache_skip",
            DecisionVerdict::Repeated => "repeated",
            DecisionVerdict::Underutilized => "underutilized",
            DecisionVerdict::BoundaryReduced => "boundary_reduced",
            DecisionVerdict::Collected => "collected",
            DecisionVerdict::Degraded => "degraded",
            DecisionVerdict::Abandoned => "abandoned",
        }
    }

    /// Parses a [`DecisionVerdict::label`] rendering.
    pub fn from_label(s: &str) -> Option<DecisionVerdict> {
        DecisionVerdict::ALL.into_iter().find(|v| v.label() == s)
    }
}

impl fmt::Display for DecisionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One verdict of the collection pipeline, with full attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionEvent {
    /// Session (target index) attribution, mirroring
    /// [`crate::ProbeEvent::session`].
    pub session: Option<u64>,
    /// Hop number (1-based TTL) the decision belongs to, 0 when the
    /// emitting code has no hop in scope.
    pub hop: u8,
    /// The session phase the decision was made in.
    pub phase: Option<Phase>,
    /// The algorithm step or heuristic that produced the verdict.
    pub cause: Option<Cause>,
    /// The address the verdict is about (candidate member, pivot, hop
    /// address), when one exists.
    pub subject: Option<Addr>,
    /// What was concluded.
    pub verdict: DecisionVerdict,
    /// Free-form human-readable evidence ("mate 10.0.1.3 expired at
    /// d-1", "fault budget tripped after 3 timeouts", ...).
    pub evidence: String,
}

impl DecisionEvent {
    /// Appends the decision's JSONL line, without the newline, to `out`.
    /// The leading `"type": "decision"` key distinguishes it from probe
    /// lines in an exchange log.
    ///
    /// The bytes are exactly what the vendored `serde_json` shim prints
    /// for the same fields as a `Value` (integers above 2^53 aside,
    /// which the shim rounds and this prints exactly): keys `type`,
    /// `session`, `hop`, `phase`, `cause`, `subject`, `verdict`,
    /// `evidence` in that order, `null` for absent values, and the
    /// evidence escaped like the shim's strings. The fields before the
    /// evidence are put together on the stack and appended in one copy;
    /// nothing is allocated beyond the growth of `out`.
    pub fn write_line(&self, out: &mut String) {
        self.render(out);
    }

    /// Appends the line to either kind of destination.
    pub(crate) fn render(&self, out: &mut impl LineOut) {
        let mut f = Fixed::new();
        f.raw("{\"type\":\"decision\",\"session\":");
        f.opt_uint(self.session);
        f.raw(",\"hop\":");
        f.uint(self.hop.into());
        f.raw(",\"phase\":");
        f.opt_label(self.phase.map(Phase::label));
        f.raw(",\"cause\":");
        f.opt_label(self.cause.map(Cause::label));
        f.raw(",\"subject\":");
        f.opt_addr(self.subject);
        f.raw(",\"verdict\":");
        f.label(self.verdict.label());
        f.raw(",\"evidence\":");
        out.fixed(&f);
        line::string(out, &self.evidence);
        out.put("}");
    }

    /// Reads a decision back from its [`DecisionEvent::write_line`]
    /// rendering, on the same terms as [`ProbeEvent::read_line`]: keys
    /// in any order, a missing key read as `null`, the first of
    /// duplicate keys winning. Evidence that is not a string reads as
    /// empty.
    ///
    /// [`ProbeEvent::read_line`]: crate::ProbeEvent::read_line
    pub fn read_line(text: &str) -> Result<DecisionEvent, String> {
        let mut line = Line::default();
        line.read(text).map_err(|e| format!("not JSON: {e}"))?;
        DecisionEvent::from_line(&mut line)
    }

    /// The decision a line's members describe, its evidence moved out
    /// of the line.
    pub(crate) fn from_line(line: &mut Line<'_>) -> Result<DecisionEvent, String> {
        let session = match &line[Key::Session] {
            Field::Null => None,
            s => Some(s.as_u64().ok_or_else(|| "session: expected unsigned integer".to_string())?),
        };
        let hop =
            line[Key::Hop].as_u64().ok_or_else(|| "hop: expected unsigned integer".to_string())?;
        if hop > u8::MAX as u64 {
            return Err(format!("hop: {hop} out of range"));
        }
        let phase = read::opt_label(&line[Key::Phase], "phase", Phase::from_label)?;
        let cause = read::opt_label(&line[Key::Cause], "cause", Cause::from_label)?;
        let subject = match &line[Key::Subject] {
            Field::Null => None,
            s => Some(
                s.as_str()
                    .ok_or_else(|| "subject: expected string".to_string())?
                    .parse()
                    .map_err(|e| format!("subject: {e}"))?,
            ),
        };
        let verdict_label =
            line[Key::Verdict].as_str().ok_or_else(|| "verdict: expected string".to_string())?;
        let verdict = DecisionVerdict::from_label(verdict_label)
            .ok_or_else(|| format!("verdict: unknown value {verdict_label:?}"))?;
        let evidence = match line.take(Key::Evidence) {
            Field::Str(evidence) => evidence.into_owned(),
            _ => String::new(),
        };
        Ok(DecisionEvent { session, hop: hop as u8, phase, cause, subject, verdict, evidence })
    }
}

/// One line of text: `[phase/cause] verdict subject: evidence`, with
/// `-` for a missing phase or subject and no `/cause` when there is
/// none. `tnet explain` prints it under its session and hop headings;
/// the CLI's `-v` puts the session and hop in front of it.
impl fmt::Display for DecisionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        f.write_str(self.phase.map_or("-", Phase::label))?;
        if let Some(cause) = self.cause {
            write!(f, "/{}", cause.label())?;
        }
        write!(f, "] {} ", self.verdict)?;
        match self.subject {
            Some(subject) => write!(f, "{subject}")?,
            None => f.write_str("-")?,
        }
        write!(f, ": {}", self.evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use serde_json::Value;

    /// The decision's rendered line, parsed back into a `Value`.
    fn value(d: &DecisionEvent) -> Value {
        let mut line = String::new();
        d.write_line(&mut line);
        serde_json::from_str(&line).expect("a rendered line is JSON")
    }

    /// Reads a line rendered from `v`.
    fn read(v: &Value) -> Result<DecisionEvent, String> {
        DecisionEvent::read_line(&v.to_string())
    }

    fn sample() -> DecisionEvent {
        DecisionEvent {
            session: Some(2),
            hop: 4,
            phase: Some(Phase::Explore),
            cause: Some(Cause::H6),
            subject: Some("10.0.3.7".parse().unwrap()),
            verdict: DecisionVerdict::StoppedAndShrunk,
            evidence: "stranger 10.0.3.7 expired the probe: fixed entry point violated".into(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let d = sample();
        assert_eq!(read(&value(&d)).unwrap(), d);

        let bare = DecisionEvent {
            session: None,
            hop: 0,
            phase: None,
            cause: None,
            subject: None,
            verdict: DecisionVerdict::Collected,
            evidence: String::new(),
        };
        assert_eq!(read(&value(&bare)).unwrap(), bare);
    }

    #[test]
    fn json_carries_the_type_tag() {
        assert_eq!(value(&sample())["type"].as_str(), Some("decision"));
    }

    #[test]
    fn read_line_rejects_bad_fields() {
        let mut v = value(&sample());
        v["verdict"] = json!("vibes");
        assert!(read(&v).unwrap_err().contains("verdict"));

        let mut v = value(&sample());
        v["hop"] = json!(4000);
        assert!(read(&v).unwrap_err().contains("hop"));

        let mut v = value(&sample());
        v["cause"] = json!("h99");
        assert!(read(&v).unwrap_err().contains("cause"));
    }

    #[test]
    fn display_is_one_explain_line() {
        assert_eq!(
            sample().to_string(),
            "[explore/h6] stopped_and_shrunk 10.0.3.7: stranger 10.0.3.7 expired the probe: \
             fixed entry point violated"
        );
        let bare = DecisionEvent { phase: None, cause: None, subject: None, ..sample() };
        assert_eq!(
            bare.to_string(),
            "[-] stopped_and_shrunk -: stranger 10.0.3.7 expired the probe: fixed entry point \
             violated"
        );
    }

    #[test]
    fn labels_roundtrip_for_all_verdicts() {
        for v in DecisionVerdict::ALL {
            assert_eq!(DecisionVerdict::from_label(v.label()), Some(v));
        }
    }
}
