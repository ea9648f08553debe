//! The JSON string and number encoders shared by every hand-written
//! JSON/JSONL writer in the workspace: the tracer, history and alerts
//! here, the engine's row sinks and journals, and the serve API.

/// Quotes and escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number: the shortest round-trip decimal,
/// with `.0` on integral values (`3` renders as `3.0`, like the engine's
/// CSV cells); non-finite values render as `null`, since JSON has no
/// Inf/NaN.
pub fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
