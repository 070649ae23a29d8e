//! `json_check` — dependency-free JSON validity checker for CI smoke tests.
//!
//! ```text
//! json_check FILE [FILE...]
//! ```
//!
//! Validates each argument with the RFC 8259 parser from `ripples-trace`
//! (the same one the tracer's own tests use) and exits non-zero if any
//! file is unreadable or not well-formed JSON. Used by CI to check that
//! `--trace`, `--report json`, and `--metrics` outputs all parse
//! without pulling in an external JSON tool.

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: json_check FILE [FILE...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in paths {
        match std::fs::read_to_string(&path) {
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
            }
            Ok(text) => match ripples_trace::json::parse(&text) {
                Ok(_) => println!("{path}: ok"),
                Err(e) => {
                    eprintln!("{path}: invalid JSON: {e}");
                    failed = true;
                }
            },
        }
    }
    std::process::exit(i32::from(failed));
}
