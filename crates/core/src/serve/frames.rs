//! The response side of the `piton-serve` wire protocol: checksummed
//! frames, one per line.
//!
//! Every frame is a JSON object carrying a `frame` discriminator,
//! rendered compactly and wrapped in the journal's line framing
//! (`<16-hex FNV-1a-64> <json>`), so a client verifies each line the
//! same way journal recovery does — a truncated or corrupted frame
//! fails loudly instead of yielding a half-read result. Frames carry
//! no cache-state-dependent fields (no hit/miss flags, no timings):
//! a request served cold and the same request served warm produce
//! **byte-identical** frame streams, which is the conformance suite's
//! core assertion. Cache behavior is observed via `op: "metrics"`.
//!
//! A result frame has one layout, [`push_result_line`], which takes
//! its payload as JSON text: the serving loop hands it the journal's
//! stored bytes, [`Frame::encode`] the rendered [`Value`].

use std::fmt::Write as _;

use piton_arch::error::PitonError;
use piton_obs::json::{self, ObjectBuilder, Value};

use crate::journal::{push_frame_line, unframe_line};

/// Appends a result frame's wire line for a payload given as its JSON
/// text. Both encoders use it, so a served point's bytes are the same
/// whichever path made them.
pub fn push_result_line(out: &mut String, section: &str, index: u64, key: u64, payload: &str) {
    push_frame_line(out, |body| {
        body.push_str("{\"frame\":\"result\",\"section\":");
        json::write_escaped(body, section);
        let _ = write!(body, ",\"index\":{index},\"key\":{key},\"payload\":");
        body.push_str(payload);
        body.push('}');
    });
}

/// One permanently-failed grid point in a done frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameHole {
    /// Grid index of the failed point.
    pub index: u64,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Final failure rendered as text.
    pub error: String,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Opens a run response: echoes the request id, names the section
    /// and the derived cache context, and announces how many points
    /// were selected.
    Hello {
        /// Echo of the request's `id`, when one was given.
        id: Option<String>,
        /// Section being served.
        section: String,
        /// The cache-key context string the request resolved to.
        context: String,
        /// Selected grid points.
        points: u64,
    },
    /// One grid-point result, streamed in index order.
    Result {
        /// Section the point belongs to.
        section: String,
        /// Grid index.
        index: u64,
        /// Content-addressed key of (section, index, context).
        key: u64,
        /// The journal-format payload.
        payload: Value,
    },
    /// Closes a run response with the served count and any holes.
    Done {
        /// Echo of the request's `id`, when one was given.
        id: Option<String>,
        /// Section that was served.
        section: String,
        /// Result frames emitted (selected minus holes).
        points: u64,
        /// Points that failed every attempt, in index order.
        holes: Vec<FrameHole>,
    },
    /// A refused request; the connection stays usable.
    Error {
        /// What was wrong with the request.
        message: String,
    },
    /// Liveness reply.
    Pong {
        /// The daemon's crate version.
        version: String,
    },
    /// `serve.*` counter snapshot, sorted by name.
    Metrics {
        /// `(counter name, value)` pairs.
        counters: Vec<(String, u64)>,
    },
    /// Acknowledges a shutdown request.
    Bye,
}

impl Frame {
    /// Encodes the frame body as a JSON value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        match self {
            Self::Hello {
                id,
                section,
                context,
                points,
            } => {
                let mut b = ObjectBuilder::new().field("frame", Value::Str("hello".to_owned()));
                if let Some(id) = id {
                    b = b.field("id", Value::Str(id.clone()));
                }
                b.field("section", Value::Str(section.clone()))
                    .field("context", Value::Str(context.clone()))
                    .field("points", Value::Int(i128::from(*points)))
                    .build()
            }
            Self::Result {
                section,
                index,
                key,
                payload,
            } => ObjectBuilder::new()
                .field("frame", Value::Str("result".to_owned()))
                .field("section", Value::Str(section.clone()))
                .field("index", Value::Int(i128::from(*index)))
                .field("key", Value::Int(i128::from(*key)))
                .field("payload", payload.clone())
                .build(),
            Self::Done {
                id,
                section,
                points,
                holes,
            } => {
                let mut b = ObjectBuilder::new().field("frame", Value::Str("done".to_owned()));
                if let Some(id) = id {
                    b = b.field("id", Value::Str(id.clone()));
                }
                b.field("section", Value::Str(section.clone()))
                    .field("points", Value::Int(i128::from(*points)))
                    .field(
                        "holes",
                        Value::Array(
                            holes
                                .iter()
                                .map(|h| {
                                    ObjectBuilder::new()
                                        .field("index", Value::Int(i128::from(h.index)))
                                        .field("attempts", Value::Int(i128::from(h.attempts)))
                                        .field("error", Value::Str(h.error.clone()))
                                        .build()
                                })
                                .collect(),
                        ),
                    )
                    .build()
            }
            Self::Error { message } => ObjectBuilder::new()
                .field("frame", Value::Str("error".to_owned()))
                .field("message", Value::Str(message.clone()))
                .build(),
            Self::Pong { version } => ObjectBuilder::new()
                .field("frame", Value::Str("pong".to_owned()))
                .field("version", Value::Str(version.clone()))
                .build(),
            Self::Metrics { counters } => {
                let mut c = ObjectBuilder::new();
                for (name, v) in counters {
                    c = c.field(name, Value::Int(i128::from(*v)));
                }
                ObjectBuilder::new()
                    .field("frame", Value::Str("metrics".to_owned()))
                    .field("counters", c.build())
                    .build()
            }
            Self::Bye => ObjectBuilder::new()
                .field("frame", Value::Str("bye".to_owned()))
                .build(),
        }
    }

    /// Encodes the frame as one checksummed wire line (trailing
    /// newline included).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut line = String::new();
        match self {
            Self::Result {
                section,
                index,
                key,
                payload,
            } => push_result_line(&mut line, section, *index, *key, &payload.render()),
            _ => push_frame_line(&mut line, |body| body.push_str(&self.to_value().render())),
        }
        line
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] on a missing/unknown discriminator or
    /// ill-typed fields.
    pub fn from_value(v: &Value) -> Result<Self, PitonError> {
        Self::from_value_inner(v).map_err(|e| PitonError::codec(format!("frame: {e}")))
    }

    fn from_value_inner(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("frame")
            .and_then(Value::as_str)
            .ok_or("missing 'frame' discriminator")?;
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{kind} frame missing string '{key}'"))
        };
        let count = |val: &Value, key: &str| -> Result<u64, String> {
            val.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{kind} frame missing count '{key}'"))
        };
        let id = || -> Result<Option<String>, String> {
            match v.get("id") {
                None | Some(Value::Null) => Ok(None),
                Some(Value::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("{kind} frame 'id' must be a string")),
            }
        };
        match kind {
            "hello" => Ok(Self::Hello {
                id: id()?,
                section: text("section")?,
                context: text("context")?,
                points: count(v, "points")?,
            }),
            "result" => Ok(Self::Result {
                section: text("section")?,
                index: count(v, "index")?,
                key: count(v, "key")?,
                payload: v
                    .get("payload")
                    .cloned()
                    .ok_or("result frame missing 'payload'")?,
            }),
            "done" => {
                let mut holes = Vec::new();
                for h in v
                    .get("holes")
                    .and_then(Value::as_array)
                    .ok_or("done frame missing 'holes'")?
                {
                    holes.push(FrameHole {
                        index: count(h, "index")?,
                        attempts: u32::try_from(count(h, "attempts")?)
                            .map_err(|_| "hole 'attempts' out of range".to_owned())?,
                        error: h
                            .get("error")
                            .and_then(Value::as_str)
                            .ok_or("hole missing 'error'")?
                            .to_owned(),
                    });
                }
                Ok(Self::Done {
                    id: id()?,
                    section: text("section")?,
                    points: count(v, "points")?,
                    holes,
                })
            }
            "error" => Ok(Self::Error {
                message: text("message")?,
            }),
            "pong" => Ok(Self::Pong {
                version: text("version")?,
            }),
            "metrics" => {
                let Some(Value::Object(pairs)) = v.get("counters") else {
                    return Err("metrics frame missing 'counters' object".to_owned());
                };
                let mut counters = Vec::with_capacity(pairs.len());
                for (name, val) in pairs {
                    counters.push((
                        name.clone(),
                        val.as_u64()
                            .ok_or_else(|| format!("counter '{name}' is not a count"))?,
                    ));
                }
                Ok(Self::Metrics { counters })
            }
            "bye" => Ok(Self::Bye),
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }

    /// Decodes one wire line (with or without its trailing newline):
    /// checksum verification first, then JSON, then the typed frame.
    ///
    /// # Errors
    ///
    /// [`PitonError::Codec`] on any framing violation — truncation,
    /// corruption, malformed JSON, or an unknown frame shape.
    pub fn decode(line: &[u8]) -> Result<Self, PitonError> {
        let line = match line.split_last() {
            Some((b'\n', head)) => head,
            _ => line,
        };
        let json = unframe_line(line)
            .ok_or_else(|| PitonError::codec("frame failed its checksum framing"))?;
        let v = json::parse(json).map_err(|e| PitonError::codec(format!("frame: {e}")))?;
        Self::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                id: Some("req-1".to_owned()),
                section: "scaling".to_owned(),
                context: "piton/0.1.0|fidelity=quick|effects=none|backend=cycle".to_owned(),
                points: 12,
            },
            Frame::Hello {
                id: None,
                section: "noc".to_owned(),
                context: "ctx".to_owned(),
                points: 36,
            },
            Frame::Result {
                section: "noc".to_owned(),
                index: 7,
                key: 0xdead_beef_dead_beef,
                payload: Value::Float(1.25),
            },
            Frame::Done {
                id: Some("req-1".to_owned()),
                section: "scaling".to_owned(),
                points: 11,
                holes: vec![FrameHole {
                    index: 3,
                    attempts: 1,
                    error: "injected fault: sweep point killed".to_owned(),
                }],
            },
            Frame::Error {
                message: "unknown section \"nope\"".to_owned(),
            },
            Frame::Pong {
                version: "0.1.0".to_owned(),
            },
            Frame::Metrics {
                counters: vec![
                    ("serve.cache_hits".to_owned(), 36),
                    ("serve.points_computed".to_owned(), 12),
                ],
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn frames_round_trip_through_the_wire_encoding() {
        for f in samples() {
            let line = f.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(Frame::decode(line.as_bytes()).unwrap(), f, "{line}");
            // Newline-stripped lines (BufRead::lines) decode too.
            assert_eq!(
                Frame::decode(line.trim_end().as_bytes()).unwrap(),
                f,
                "{line}"
            );
        }
    }

    #[test]
    fn truncation_and_corruption_fail_the_checksum() {
        let line = samples()[0].encode();
        let bytes = line.trim_end().as_bytes();
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x01;
            assert!(Frame::decode(&corrupt).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn an_upper_cased_checksum_is_refused() {
        let line = samples()[0].encode();
        let letter = line[..16]
            .bytes()
            .position(|b| b.is_ascii_lowercase())
            .expect("the checksum has a hex letter");
        let mut upper = line.into_bytes();
        upper[letter].make_ascii_uppercase();
        assert!(Frame::decode(&upper).is_err());
    }

    #[test]
    fn absent_id_is_omitted_not_null() {
        let f = Frame::Hello {
            id: None,
            section: "noc".to_owned(),
            context: "ctx".to_owned(),
            points: 1,
        };
        assert!(
            !f.to_value().render().contains("id"),
            "{}",
            f.to_value().render()
        );
    }
}
