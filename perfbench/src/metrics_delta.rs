//! `/metrics` snapshots and the counter deltas between two of them.

use std::collections::BTreeMap;

use evcap_obs::jsonl::{parse_line, JsonValue};

/// The numeric fields of one `/metrics` JSON body.
pub type Snapshot = BTreeMap<String, f64>;

/// Parses a `/metrics` body, keeping its numeric fields.
///
/// # Errors
///
/// A message when the body is not a JSON object.
pub fn parse(body: &str) -> Result<Snapshot, String> {
    match parse_line(body.trim()) {
        Ok(JsonValue::Object(map)) => Ok(map
            .into_iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k, n)))
            .collect()),
        Ok(_) => Err("metrics body is not a JSON object".to_owned()),
        Err(e) => Err(format!("metrics body does not parse: {e}")),
    }
}

/// `after − before` for every numeric field present in both snapshots.
pub fn delta(before: &Snapshot, after: &Snapshot) -> Snapshot {
    after
        .iter()
        .filter_map(|(k, a)| before.get(k).map(|b| (k.clone(), a - b)))
        .collect()
}

/// Compares observed deltas against the expected counts; returns one line
/// per counter that is missing or differs.
pub fn mismatches(observed: &Snapshot, expected: &[(&str, u64)]) -> Vec<String> {
    expected
        .iter()
        .filter_map(|&(name, want)| match observed.get(name) {
            None => Some(format!("{name}: missing from /metrics")),
            Some(&got) if got != want as f64 => Some(format!("{name}: saw {got}, sent {want}")),
            Some(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"{"type":"metrics","uptime_seconds":1.5,"solve_cache_hits":10,"store_hits":2,"store_enabled":true}"#;
    const AFTER: &str = r#"{"type":"metrics","uptime_seconds":4.0,"solve_cache_hits":25,"store_hits":2,"store_enabled":true,"new_counter":3}"#;

    #[test]
    fn parse_keeps_numbers_only() {
        let s = parse(BEFORE).unwrap();
        assert_eq!(s["solve_cache_hits"], 10.0);
        assert!(!s.contains_key("type") && !s.contains_key("store_enabled"));
        assert!(parse("[1,2]").is_err());
        assert!(parse("{").is_err());
    }

    #[test]
    fn delta_subtracts_shared_fields() {
        let d = delta(&parse(BEFORE).unwrap(), &parse(AFTER).unwrap());
        assert_eq!(d["solve_cache_hits"], 15.0);
        assert_eq!(d["store_hits"], 0.0);
        assert_eq!(d["uptime_seconds"], 2.5);
        assert!(!d.contains_key("new_counter"));
    }

    #[test]
    fn mismatches_name_each_disagreeing_counter() {
        let d = delta(&parse(BEFORE).unwrap(), &parse(AFTER).unwrap());
        assert!(mismatches(&d, &[("solve_cache_hits", 15), ("store_hits", 0)]).is_empty());
        let bad = mismatches(&d, &[("solve_cache_hits", 14), ("absent", 1)]);
        assert_eq!(bad.len(), 2);
        assert!(bad[0].contains("solve_cache_hits") && bad[1].contains("absent"));
    }
}
