//! The `piton-serve` wire framing, re-implemented from its protocol
//! description: every response line is `<16-hex FNV-1a-64 of the JSON>
//! <compact JSON>\n`.

pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a-64 over more bytes (used to digest whole
/// response streams without keeping them).
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The verified JSON body of one framed line (newline already
/// stripped), or `None` on any framing violation.
pub fn verify(line: &[u8]) -> Option<&str> {
    if line.len() < 18 || line[16] != b' ' {
        return None;
    }
    let sum = u64::from_str_radix(std::str::from_utf8(&line[..16]).ok()?, 16).ok()?;
    let body = &line[17..];
    (fnv64(body) == sum)
        .then(|| std::str::from_utf8(body).ok())
        .flatten()
}

/// Result frames dominate every stream (105 000 per `design_space`
/// response) and always render `frame` first, so they are recognised by
/// prefix; every other frame is rare and is parsed in full.
pub fn is_result(body: &str) -> bool {
    body.starts_with("{\"frame\":\"result\"")
}

/// The `index` of a result frame, read without a full parse.
pub fn result_index(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"index\":")? + 8..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// A line captured from a real daemon (`scaling`, index 24,
    /// `s=64,c=10000,w=200000`).
    const REAL_LINE: &str = include_str!("../testdata/result-frame.line");

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv64_extend(fnv64(b"foo"), b"bar"), fnv64(b"foobar"));
    }

    #[test]
    fn a_real_frame_line_verifies_and_any_flip_is_caught() {
        let line = REAL_LINE.trim_end_matches('\n').as_bytes();
        let body = verify(line).expect("committed frame verifies");
        assert!(is_result(body));
        assert_eq!(result_index(body), Some(24));
        let v = json::parse(body).unwrap();
        assert_eq!(v.get("section").and_then(Value::as_str), Some("scaling"));
        for i in 0..line.len() {
            let mut bad = line.to_vec();
            bad[i] ^= 0x01;
            assert!(verify(&bad).is_none(), "flip at byte {i} went unnoticed");
        }
        assert!(verify(&line[..17]).is_none());
        assert!(verify(b"").is_none());
    }
}
