//! The little JSON the benchmark writes (it reads none).

/// A JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit; a value that is not finite reads 0,
/// and only a failed run produces one.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// An object from `(key, already-encoded value)` pairs, in order.
pub fn object<K: AsRef<str>>(members: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = members
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_finite() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn objects_and_arrays_nest() {
        let inner = array([number(1.0), number(2.5)]);
        assert_eq!(
            object([("a", inner), ("b", string("x"))]),
            "{\"a\":[1,2.5],\"b\":\"x\"}"
        );
    }
}
