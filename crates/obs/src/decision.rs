//! The decision event record: one algorithmic verdict of the collection
//! pipeline.
//!
//! Probe events say what went on the wire; decision events say what the
//! algorithms concluded from it — which heuristic fired, on which
//! address, with what evidence. Together they form the flight-recorder
//! stream that `tracenet explain` renders as an inference tree and that
//! lets a replayed run be audited without re-probing anything.

use std::fmt;

use inet::Addr;

use crate::event::{Cause, Phase};
use crate::line::{self, Fixed, LineOut};
use crate::read::{self, Field, Key, Line, LineType};

labels! {
    /// What the pipeline concluded at one decision point.
    pub enum DecisionVerdict {
        /// The subject address was admitted as a subnet member.
        Accepted = "accepted",
        /// The subject was admitted as the subnet's single contra-pivot
        /// (H3).
        AcceptedContraPivot = "accepted_contra_pivot",
        /// The subject was examined and rejected (no heuristic stopped the
        /// growth; the address is just not a member).
        Rejected = "rejected",
        /// A heuristic fired and exploration stopped, shrinking the subnet
        /// back one prefix level (`cause` names the heuristic).
        StoppedAndShrunk = "stopped_and_shrunk",
        /// Positioning concluded the hop is on the probing path.
        OnPath = "on_path",
        /// Positioning concluded the hop is off-path.
        OffPath = "off_path",
        /// The hop was resolved from the cross-session subnet cache.
        CacheHit = "cache_hit",
        /// The cross-session cache matched but reuse was declined.
        CacheSkip = "cache_skip",
        /// The hop address already belonged to an earlier subnet;
        /// exploration was skipped.
        Repeated = "repeated",
        /// Exploration stopped growing because the subnet fell below half
        /// utilization (§3.5).
        Underutilized = "underutilized",
        /// H9 boundary reduction halved the collected prefix.
        BoundaryReduced = "boundary_reduced",
        /// Exploration finished and the subnet was collected as-is.
        Collected = "collected",
        /// The hop's observations were degraded by fault-attributed
        /// timeouts (`evidence` carries the cause).
        Degraded = "degraded",
        /// The per-hop fault budget tripped and the hop was abandoned.
        Abandoned = "abandoned",
    }
}

impl DecisionVerdict {
    /// The phase of a decision that names no cause: the trace's own
    /// verdicts on a hop, exploration's clean pass and growth stops, and
    /// none for a hop's degradation, which spans every phase.
    fn phase_without_cause(self) -> Option<Phase> {
        match self {
            DecisionVerdict::Repeated | DecisionVerdict::CacheHit | DecisionVerdict::CacheSkip => {
                Some(Phase::Trace)
            }
            DecisionVerdict::Accepted
            | DecisionVerdict::Underutilized
            | DecisionVerdict::Collected => Some(Phase::Explore),
            _ => None,
        }
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
    /// The algorithm step or heuristic that produced the verdict. The
    /// decision's phase follows from it, or from the verdict when there
    /// is none ([`DecisionEvent::phase`]).
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
    /// The session phase the decision was made in: its cause's, or with
    /// no cause the verdict's — `repeated`, `cache_hit` and `cache_skip`
    /// are the trace's, `accepted`, `underutilized` and `collected`
    /// exploration's, and the rest (a hop's `degraded` or `abandoned`)
    /// belong to none.
    pub fn phase(&self) -> Option<Phase> {
        self.cause.map_or_else(|| self.verdict.phase_without_cause(), |c| Some(c.phase()))
    }

    /// Appends the decision's JSONL line, without the newline, to `out`.
    /// The leading `"type": "decision"` key distinguishes it from probe
    /// lines in an exchange log.
    ///
    /// The bytes are exactly what the vendored `serde_json` shim prints
    /// for the same fields as a `Value` (integers above 2^53 aside,
    /// which the shim rounds and this prints exactly): keys `type`,
    /// `session`, `hop`, `phase`, `cause`, `subject`, `verdict`,
    /// `evidence` in that order, `null` for absent values, `phase` as
    /// [`DecisionEvent::phase`], and the evidence escaped like the
    /// shim's strings. The fields before the
    /// evidence are put together on the stack and appended in one copy;
    /// nothing is allocated beyond the growth of `out`.
    pub fn write_line(&self, out: &mut String) {
        self.render(out);
    }

    /// Appends the line to either kind of destination.
    pub(crate) fn render(&self, out: &mut impl LineOut) {
        let mut f = DecisionEvent::start();
        f.key(Key::Session);
        f.opt(self.session, Fixed::uint);
        f.key(Key::Hop);
        f.uint(self.hop.into());
        f.key(Key::Phase);
        f.opt(self.phase().map(Phase::label), Fixed::label);
        f.key(Key::Cause);
        f.opt(self.cause.map(Cause::label), Fixed::label);
        f.key(Key::Subject);
        f.opt(self.subject, Fixed::addr);
        f.key(Key::Verdict);
        f.label(self.verdict.label());
        f.key(Key::Evidence);
        out.fixed(&f);
        line::string(out, &self.evidence);
        out.put("}");
    }

    /// How the writer opens a decision line: `{"type":"decision"`. No
    /// probe line starts so, and a line that does is a decision line,
    /// since the first of duplicate keys wins.
    pub(crate) fn start() -> Fixed {
        let mut f = Fixed::open(Key::Type);
        f.label(LineType::Decision.label());
        f
    }

    /// Reads a decision back from its [`DecisionEvent::write_line`]
    /// rendering, on the same terms as [`ProbeEvent::read_line`]: keys
    /// in any order, a missing key read as `null`, the first of
    /// duplicate keys winning, and a logged phase that contradicts the
    /// derived one refused. Evidence that is not a string reads as
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
        let session = line.opt_uint(Key::Session)?;
        let hop = line.uint(Key::Hop, u8::MAX.into())? as u8;
        let phase = line.opt_label(Key::Phase, Phase::from_label)?;
        let cause = line.opt_label(Key::Cause, Cause::from_label)?;
        let subject = line.opt_addr(Key::Subject)?;
        let verdict = line.label(Key::Verdict, DecisionVerdict::from_label)?;
        let evidence = match line.take(Key::Evidence) {
            Field::Str(evidence) => evidence.into_owned(),
            _ => String::new(),
        };
        let decision = DecisionEvent { session, hop, cause, subject, verdict, evidence };
        read::check_phase(phase, decision.phase())?;
        Ok(decision)
    }
}

/// One line of text: `[phase/cause] verdict subject: evidence`, with
/// `-` for a missing phase or subject and no `/cause` when there is
/// none. `tracenet explain` prints it under its session and hop headings;
/// the CLI's `-v` puts the session and hop in front of it.
impl fmt::Display for DecisionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        f.write_str(self.phase().map_or("-", Phase::label))?;
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
            cause: None,
            subject: None,
            verdict: DecisionVerdict::Degraded,
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

        let mut v = value(&sample());
        v["phase"] = json!("trace");
        assert_eq!(read(&v).unwrap_err(), "phase: logged as trace, derived as explore");
        v["cause"] = Value::Null;
        v["verdict"] = json!("cache_hit");
        assert!(read(&v).is_ok(), "a cache hit without a cause is the trace's");
        v["verdict"] = json!("abandoned");
        assert_eq!(read(&v).unwrap_err(), "phase: logged as trace, derived as null");

        let mut v = value(&sample());
        v["verdict"] = json!("pivot");
        assert_eq!(read(&v).unwrap_err(), "verdict: unknown value \"pivot\"");
    }

    #[test]
    fn display_is_one_explain_line() {
        assert_eq!(
            sample().to_string(),
            "[explore/h6] stopped_and_shrunk 10.0.3.7: stranger 10.0.3.7 expired the probe: \
             fixed entry point violated"
        );
        let bare = DecisionEvent { cause: None, subject: None, ..sample() };
        assert_eq!(
            bare.to_string(),
            "[-] stopped_and_shrunk -: stranger 10.0.3.7 expired the probe: fixed entry point \
             violated"
        );
        let collected = DecisionEvent { verdict: DecisionVerdict::Collected, ..bare };
        assert!(collected.to_string().starts_with("[explore] collected -: "));
    }

    /// Every (cause, verdict) pair the collection pipeline records, and
    /// the phase each is filed under.
    #[test]
    fn every_recorded_pair_has_its_phase() {
        use DecisionVerdict::*;
        let trace = [(None, Repeated), (None, CacheHit), (None, CacheSkip)];
        let position = [OnPath, OffPath, Rejected].map(|v| (Some(Cause::PivotDesignation), v));
        let explore = [
            (Some(Cause::H1), StoppedAndShrunk),
            (Some(Cause::H2), StoppedAndShrunk),
            (Some(Cause::H2), Rejected),
            (Some(Cause::H3), StoppedAndShrunk),
            (Some(Cause::H3), AcceptedContraPivot),
            (Some(Cause::H4), StoppedAndShrunk),
            (Some(Cause::H5), Accepted),
            (Some(Cause::H6), StoppedAndShrunk),
            (Some(Cause::H7), StoppedAndShrunk),
            (Some(Cause::H8), StoppedAndShrunk),
            (Some(Cause::H9), BoundaryReduced),
            (None, Accepted),
            (None, Underutilized),
            (None, Collected),
        ];
        let hop = [(None, Degraded), (None, Abandoned)];
        let phase = |(cause, verdict)| DecisionEvent { cause, verdict, ..sample() }.phase();
        assert!(trace.into_iter().all(|p| phase(p) == Some(Phase::Trace)));
        assert!(position.into_iter().all(|p| phase(p) == Some(Phase::Position)));
        assert!(explore.into_iter().all(|p| phase(p) == Some(Phase::Explore)));
        assert!(hop.into_iter().all(|p| phase(p).is_none()));
    }

    #[test]
    fn labels_roundtrip_for_all_verdicts() {
        for v in DecisionVerdict::ALL {
            assert_eq!(DecisionVerdict::from_label(v.label()), Some(v));
        }
    }
}
