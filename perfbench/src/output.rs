//! The result line the benchmark prints last, and a reader for it (the
//! steadiness report parses the lines of the runs it starts).

use crate::drive::Metric;

/// Formats the one-line JSON result.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads `(correct, [(name, value)])` back from a [`result_line`].
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let mut rest = &line[line.find("\"metrics\"")?..];
    let mut out = Vec::new();
    const VALUE: &str = "{\"value\": ";
    while let Some(i) = rest.find(VALUE) {
        let head = &rest[..i];
        let end = head.rfind('"')?;
        let start = head[..end].rfind('"')?;
        let after = &rest[i + VALUE.len()..];
        let stop = after.find(',')?;
        out.push((
            head[start + 1..end].to_owned(),
            after[..stop].trim().parse().ok()?,
        ));
        rest = &after[stop..];
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let m = vec![
            Metric {
                name: "latency_ms",
                value: 1.2034,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            },
        ];
        let line = result_line(true, 1000, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let (ok, parsed) = parse_result_line(&line).unwrap();
        assert!(ok);
        assert_eq!(
            parsed,
            vec![
                ("latency_ms".to_owned(), 1.2034),
                ("setup_s".to_owned(), 0.8127)
            ]
        );
    }
}
