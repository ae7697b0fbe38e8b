//! A hand-written JSON value and writer (the repo has no serde; the existing
//! benches format their artifacts by hand too).  Object keys keep insertion
//! order so records read the way the harness built them.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    /// Printed with Rust's shortest round-trip formatting, i.e. with every
    /// digit the measurement had.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(text: impl Into<String>) -> Json {
        Json::Str(text.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // JSON has no NaN or infinity; a metric that failed to compute
            // must not silently read as a number.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
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
}

pub fn selftest() -> Result<(), String> {
    let value = Json::obj([
        ("name", Json::str("a \"quoted\"\nline\\")),
        ("n", Json::Int(-3)),
        ("x", Json::Num(1.2034)),
        ("whole", Json::Num(2.0)),
        ("bad", Json::Num(f64::NAN)),
        ("list", Json::Arr(vec![Json::Bool(true), Json::Null])),
    ]);
    let want = "{\"name\": \"a \\\"quoted\\\"\\nline\\\\\", \"n\": -3, \"x\": 1.2034, \
                \"whole\": 2, \"bad\": null, \"list\": [true, null]}";
    let got = value.render();
    if got != want {
        return Err(format!("json writer: got {got}, want {want}"));
    }
    Ok(())
}
