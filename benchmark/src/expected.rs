//! The committed seed-42 statistics (`expected/seed42.json`) and the
//! comparison against them. Other seeds have no committed values and rest
//! on the determinism and invariant checks alone.

use serde::Value;

/// The one seed whose outputs are pinned.
pub const SEED: u64 = 42;

/// A numeric field of a JSON object.
pub fn number(doc: &Value, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Value::Number(n)) => n.parse().map_err(|_| format!("{key}: bad number {n}")),
        other => Err(format!("{key}: expected a number, found {other:?}")),
    }
}

/// Whether `actual` carries everything `expected` does: objects are
/// compared by the names `expected` lists, so a report that gains a field
/// still matches; arrays and scalars must be equal.
fn covers(expected: &Value, actual: &Value, at: &str) -> Result<(), String> {
    match (expected, actual) {
        (Value::Object(fields), Value::Object(_)) => {
            fields.iter().try_for_each(|(k, v)| {
                let found =
                    actual.get(k).ok_or_else(|| format!("{at}.{k} is missing"))?;
                covers(v, found, &format!("{at}.{k}"))
            })
        }
        (Value::Array(want), Value::Array(got)) if want.len() == got.len() => want
            .iter()
            .zip(got)
            .enumerate()
            .try_for_each(|(i, (w, g))| covers(w, g, &format!("{at}[{i}]"))),
        (Value::Number(w), Value::Number(g))
            if w == g || w.parse::<f64>().ok() == g.parse::<f64>().ok() =>
        {
            Ok(())
        }
        (w, g) if w == g => Ok(()),
        (w, g) => Err(format!("{at}: expected {}, found {}", w.to_json(), g.to_json())),
    }
}

/// Compares a workload's seed-42 `view` with the committed one.
pub fn matches(workload: &str, view: &Value) -> Result<(), String> {
    let doc = serde_json::parse_value(include_str!("../expected/seed42.json"))
        .map_err(|e| format!("expected/seed42.json: {e}"))?;
    let expected = doc
        .get(workload)
        .ok_or_else(|| format!("expected/seed42.json has no {workload} section"))?;
    covers(expected, view, workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_ignores_added_fields_and_reports_the_path_of_a_difference() {
        let parse = |s: &str| serde_json::parse_value(s).unwrap();
        let expected = parse(r#"{"a": 1, "orgs": [{"psi": 2.50}]}"#);
        let grown = parse(r#"{"a": 1, "new": true, "orgs": [{"psi": 2.5, "extra": 0}]}"#);
        assert_eq!(covers(&expected, &grown, "w"), Ok(()));
        let changed = parse(r#"{"a": 1, "orgs": [{"psi": 3}]}"#);
        assert!(covers(&expected, &changed, "w")
            .unwrap_err()
            .starts_with("w.orgs[0].psi"));
        let shorter = parse(r#"{"a": 1, "orgs": []}"#);
        assert!(covers(&expected, &shorter, "w").is_err());
    }
}
