//! Shared helpers for the bench binaries (`engine-bench`, `trace-bench`,
//! `bench-drift`): JSON string escaping and the host-metadata stamp that
//! makes a committed `BENCH_*.json` interpretable later — wall-clock
//! numbers mean nothing without knowing the machine and flags that
//! produced them. The criterion benches live in `benches/`.

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The short git commit of the working tree, or `"unknown"` when git (or
/// the repository) is unavailable — bench reports must never fail over
/// provenance.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `"host": {...}` JSON object stamped into every bench report:
/// logical CPU count (wall-clock figures only compare on like hosts),
/// git commit, and the exact invocation. Rendered as one line, no
/// trailing comma or newline.
pub fn host_meta_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let argv: Vec<String> = std::env::args().collect();
    format!(
        "\"host\": {{\"logical_cpus\": {cpus}, \"git_commit\": \"{}\", \"argv\": \"{}\"}}",
        json_escape(&git_commit()),
        json_escape(&argv.join(" ")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }

    #[test]
    fn host_meta_is_valid_json_fragment() {
        let meta = format!("{{{}}}", host_meta_json());
        let v: serde::Value = serde_json::from_str(&meta).expect("parses");
        let host = v.get("host").expect("host key");
        assert!(host.get("logical_cpus").is_some());
        assert!(host.get("git_commit").is_some());
        assert!(host.get("argv").is_some());
    }
}
