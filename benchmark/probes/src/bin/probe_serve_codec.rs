//! The wire codec: `Frame::{encode, decode}` on a result frame and
//! `Request::parse` on a run request.

#[path = "../timing.rs"]
mod timing;

use piton_core::serve::frames::Frame;
use piton_core::serve::request::Request;
use piton_obs::json::{ObjectBuilder, Value};

fn main() {
    let frame = Frame::Result {
        section: "design_space".to_owned(),
        index: 52_431,
        key: 0x4069_7a3b_11c2_9e5d,
        payload: ObjectBuilder::new()
            .field("power_w", Value::Float(2.431_872_5))
            .field("epi_pj", Value::Float(263.551_2))
            .field("junction_c", Value::Float(47.25))
            .build(),
    };
    timing::report(
        "core.serve.frame_encode_ns",
        timing::ns_per_call(5, 100_000, |_| frame.encode()),
    );
    let line = frame.encode();
    timing::report(
        "core.serve.frame_decode_ns",
        timing::ns_per_call(5, 100_000, |_| {
            Frame::decode(line.as_bytes()).expect("decodes")
        }),
    );
    let request =
        r#"{"op":"run","section":"design_space","grid":"40960-43007","fidelity":"quick"}"#;
    timing::report(
        "core.serve.request_parse_ns",
        timing::ns_per_call(5, 100_000, |_| Request::parse(request).expect("parses")),
    );
}
