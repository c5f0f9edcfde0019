//! Typed requests and responses carried inside transport frames.
//!
//! The protocol is deliberately lock-step: a client sends one request per
//! frame and reads exactly one response frame, which bounds per-connection
//! inflight work at one frame by construction. Two requests exist:
//!
//! - [`Request::Hello`] — "who am I, what should I do?" The server answers
//!   with an [`Response::Assignment`]: the authoritative current round,
//!   whether this client is invited to it, and whether the run is over.
//! - [`Request::Upload`] — the client's payload for a round, as raw
//!   [`Wire`](fedpkd_netsim::Wire) bytes of a plain `Message` under the
//!   codec byte of [`Codec::Raw`]. The server answers [`Response::Ack`],
//!   a typed [`Response::Rejected`], [`Response::Stale`] when the round
//!   has moved on (the client re-polls), or [`Response::Overloaded`] with
//!   a retry hint when shedding load.
//!
//! All integers are little-endian, matching the `netsim` wire codec.

use crate::frame::FrameError;
use fedpkd_netsim::wire::{get_u32, get_u64, get_u8, put_u32, put_u64};
use fedpkd_netsim::WireError;

/// A protocol body is fixed-width fields only, so the one way its decoding
/// fails is by running out of bytes.
impl From<WireError> for FrameError {
    fn from(_: WireError) -> Self {
        Self::Truncated
    }
}

/// Frame kind bytes for requests (client → server).
pub const KIND_HELLO: u8 = 1;
/// Frame kind byte for uploads (client → server).
pub const KIND_UPLOAD: u8 = 3;
/// Frame kind bytes for responses (server → client).
pub const KIND_ASSIGNMENT: u8 = 2;
/// Upload accepted and staged.
pub const KIND_ACK: u8 = 4;
/// Upload rejected at the admission front door.
pub const KIND_REJECTED: u8 = 5;
/// Server is shedding load; retry after the hinted delay.
pub const KIND_OVERLOADED: u8 = 6;
/// Upload was for a round the server has moved past (or not reached).
pub const KIND_STALE: u8 = 7;

/// How an upload's payload bytes are encoded. Every upload is a plain
/// `Message`; any other codec byte decodes as an unknown request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Plain `Message` wire bytes.
    Raw,
}

impl Codec {
    /// The codec's on-the-wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            Self::Raw => 0,
        }
    }

    /// Parses the on-the-wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Raw),
            _ => None,
        }
    }
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ask for the current assignment.
    Hello {
        /// The requesting client's index.
        client: u32,
    },
    /// Upload a round payload.
    Upload {
        /// The round the payload is for.
        round: u64,
        /// The uploading client's index.
        client: u32,
        /// How `payload` is encoded.
        codec: Codec,
        /// The encoded payload bytes.
        payload: Vec<u8>,
    },
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Hello`].
    Assignment {
        /// The run is complete; the client should exit.
        done: bool,
        /// Whether the client is invited to `round`.
        invited: bool,
        /// The server's current round.
        round: u64,
    },
    /// Upload accepted and staged for its round.
    Ack {
        /// The round the upload was staged for.
        round: u64,
    },
    /// Upload refused at the admission front door. Its bytes are not
    /// billed; the round proceeds without this client unless it retries
    /// with an admissible payload.
    Rejected {
        /// The snake_case rejection reason (diagnostic).
        reason: String,
    },
    /// The server is shedding load.
    Overloaded {
        /// Hinted delay before retrying, in milliseconds.
        retry_ms: u32,
    },
    /// The upload's round is not the server's current round. The client
    /// should re-poll with [`Request::Hello`] and recompute.
    Stale {
        /// The server's current round.
        round: u64,
    },
}

impl Request {
    /// The frame kind byte this request travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Self::Hello { .. } => KIND_HELLO,
            Self::Upload { .. } => KIND_UPLOAD,
        }
    }

    /// Encodes the request body (the frame layer adds kind + checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Hello { client } => put_u32(&mut out, *client),
            Self::Upload {
                round,
                client,
                codec,
                payload,
            } => {
                put_u64(&mut out, *round);
                put_u32(&mut out, *client);
                out.push(codec.to_byte());
                out.extend_from_slice(payload);
            }
        }
        out
    }

    /// Decodes a request from a frame's kind byte and payload. An unknown
    /// kind or codec byte yields `Ok(None)` — the frame arrived intact, so
    /// the server rejects it as unknown-kind rather than a transport
    /// fault.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on short bodies.
    pub fn decode(kind: u8, mut body: &[u8]) -> Result<Option<Self>, FrameError> {
        match kind {
            KIND_HELLO => Ok(Some(Self::Hello {
                client: get_u32(&mut body)?,
            })),
            KIND_UPLOAD => {
                let round = get_u64(&mut body)?;
                let client = get_u32(&mut body)?;
                let codec = match Codec::from_byte(get_u8(&mut body)?) {
                    Some(c) => c,
                    None => return Ok(None),
                };
                Ok(Some(Self::Upload {
                    round,
                    client,
                    codec,
                    payload: body.to_vec(),
                }))
            }
            _ => Ok(None),
        }
    }
}

impl Response {
    /// The frame kind byte this response travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Self::Assignment { .. } => KIND_ASSIGNMENT,
            Self::Ack { .. } => KIND_ACK,
            Self::Rejected { .. } => KIND_REJECTED,
            Self::Overloaded { .. } => KIND_OVERLOADED,
            Self::Stale { .. } => KIND_STALE,
        }
    }

    /// Encodes the response body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Assignment {
                done,
                invited,
                round,
            } => {
                out.push(u8::from(*done));
                out.push(u8::from(*invited));
                put_u64(&mut out, *round);
            }
            Self::Ack { round } => put_u64(&mut out, *round),
            Self::Rejected { reason } => {
                put_u32(&mut out, reason.len() as u32);
                out.extend_from_slice(reason.as_bytes());
            }
            Self::Overloaded { retry_ms } => put_u32(&mut out, *retry_ms),
            Self::Stale { round } => put_u64(&mut out, *round),
        }
        out
    }

    /// Decodes a response from a frame's kind byte and payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on short bodies; `Ok(None)` on an unknown
    /// kind byte.
    pub fn decode(kind: u8, mut body: &[u8]) -> Result<Option<Self>, FrameError> {
        match kind {
            KIND_ASSIGNMENT => {
                let done = get_u8(&mut body)? != 0;
                let invited = get_u8(&mut body)? != 0;
                let round = get_u64(&mut body)?;
                Ok(Some(Self::Assignment {
                    done,
                    invited,
                    round,
                }))
            }
            KIND_ACK => Ok(Some(Self::Ack {
                round: get_u64(&mut body)?,
            })),
            KIND_REJECTED => {
                let len = get_u32(&mut body)? as usize;
                if body.len() < len {
                    return Err(FrameError::Truncated);
                }
                let reason = String::from_utf8_lossy(&body[..len]).into_owned();
                Ok(Some(Self::Rejected { reason }))
            }
            KIND_OVERLOADED => Ok(Some(Self::Overloaded {
                retry_ms: get_u32(&mut body)?,
            })),
            KIND_STALE => Ok(Some(Self::Stale {
                round: get_u64(&mut body)?,
            })),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Hello { client: 42 },
            Request::Upload {
                round: 7,
                client: 3,
                codec: Codec::Raw,
                payload: vec![1, 2, 3, 4],
            },
            Request::Upload {
                round: u64::MAX,
                client: u32::MAX,
                codec: Codec::Raw,
                payload: Vec::new(),
            },
        ] {
            let got = Request::decode(req.kind(), &req.to_bytes())
                .unwrap()
                .expect("known kind");
            assert_eq!(got, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Assignment {
                done: false,
                invited: true,
                round: 5,
            },
            Response::Ack { round: 5 },
            Response::Rejected {
                reason: "non_finite".to_string(),
            },
            Response::Overloaded { retry_ms: 250 },
            Response::Stale { round: 9 },
        ] {
            let got = Response::decode(resp.kind(), &resp.to_bytes())
                .unwrap()
                .expect("known kind");
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn unknown_kinds_and_codecs_are_none_not_errors() {
        assert!(Request::decode(200, &[]).unwrap().is_none());
        assert!(Response::decode(200, &[]).unwrap().is_none());
        // Uploads with an unknown codec byte.
        for codec in [1, 99] {
            let mut body = Vec::new();
            put_u64(&mut body, 1);
            put_u32(&mut body, 2);
            body.push(codec);
            assert!(Request::decode(KIND_UPLOAD, &body).unwrap().is_none());
        }
    }

    #[test]
    fn short_bodies_are_truncated() {
        assert!(matches!(
            Request::decode(KIND_HELLO, &[1, 2]),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(
            Response::decode(KIND_ASSIGNMENT, &[1]),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(
            Response::decode(KIND_REJECTED, &[5, 0, 0, 0, b'x']),
            Err(FrameError::Truncated)
        ));
    }
}
