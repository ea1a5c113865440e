//! Matching responses to requests and checking every payload.
//!
//! Each planned request carries what its answer must be: the payload the
//! in-process typed core (`amnesiac_cli::run`) returned for the same
//! request during set-up, or, for `stats`, only its shape (its counters
//! are live). A response that is missing, an error, unparseable, or
//! whose payload differs from the expected one counts as failed.

use std::collections::BTreeMap;
use std::sync::Arc;

use amnesiac_serve::{Request, Response};
use amnesiac_telemetry::Json;

use crate::driver::{Planned, Received};

/// What a response's payload must be.
#[derive(Debug, PartialEq)]
pub enum Expect {
    /// Exactly this document.
    Payload(Json),
    /// A live `stats` document: an object with a `verbs` table.
    Stats,
}

impl Expect {
    /// Whether `payload` satisfies the expectation.
    pub fn accepts(&self, payload: &Json) -> bool {
        match self {
            Expect::Payload(expected) => payload == expected,
            Expect::Stats => payload.get("verbs").and_then(Json::as_obj).is_some(),
        }
    }
}

/// One request of a plan: what goes on the wire and what must come back.
#[derive(Debug, Clone)]
pub struct Case {
    /// The wire verb.
    pub verb: String,
    /// The request (its id is set from the plan index).
    pub request: Request,
    /// The expected answer.
    pub expect: Arc<Expect>,
}

/// A checked response.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The verb asked.
    pub verb: String,
    /// Scheduled send to arrival, ms.
    pub latency_ms: f64,
    /// Server-reported `elapsed_ms` (the router's, behind a cluster).
    pub elapsed_ms: f64,
    /// The worker hop behind a router, ms.
    pub worker_ms: Option<f64>,
    /// Actual send to arrival, minus `elapsed_ms`.
    pub wire_ms: f64,
    /// Scheduled send, µs after the epoch.
    pub offset_us: u64,
    /// Arrival, µs after the epoch.
    pub recv_us: u64,
}

/// The checked outcome of one drive.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests planned.
    pub attempted: u64,
    /// Requests that failed (missing, error, mismatch, unparseable).
    pub failed: u64,
    /// Responses that never arrived.
    pub missing: u64,
    /// Successful, correct responses in plan order.
    pub answers: Vec<Answer>,
}

/// Serialises `cases` into a plan at the given offsets; request ids are
/// the plan indices.
pub fn plan(cases: &[Case], offsets_us: &[u64]) -> Vec<Planned> {
    cases
        .iter()
        .zip(offsets_us)
        .enumerate()
        .map(|(index, (case, &offset_us))| {
            let mut line = case
                .request
                .clone()
                .with_id(index as u64)
                .to_json()
                .compact();
            line.push('\n');
            Planned { offset_us, line }
        })
        .collect()
}

/// Checks every response of a drive against its case.
pub fn tally(
    cases: &[Case],
    plan: &[Planned],
    sent_us: &[Option<u64>],
    received: &[Received],
) -> Tally {
    let mut by_id: BTreeMap<u64, (Response, u64)> = BTreeMap::new();
    let mut failed = 0u64;
    for response in received {
        match Response::parse_line(response.line.trim_end()) {
            Ok(parsed) => match parsed.id.as_f64() {
                Some(id) if (id as usize) < cases.len() && !by_id.contains_key(&(id as u64)) => {
                    by_id.insert(id as u64, (parsed, response.recv_us));
                }
                // an unknown or repeated id is a protocol fault
                _ => failed += 1,
            },
            Err(_) => failed += 1,
        }
    }
    let mut tally = Tally {
        attempted: cases.len() as u64,
        ..Tally::default()
    };
    for (index, case) in cases.iter().enumerate() {
        let Some((response, recv_us)) = by_id.remove(&(index as u64)) else {
            tally.missing += 1;
            failed += 1;
            continue;
        };
        let payload_ok = response.payload().is_some_and(|p| case.expect.accepts(p));
        if !payload_ok {
            let why = response
                .error()
                .map_or("payload differs from the typed core".to_string(), |e| {
                    format!("{}: {}", e.code, e.message)
                });
            eprintln!("request {index} ({}) failed: {why}", case.verb);
            failed += 1;
            continue;
        }
        let offset_us = plan[index].offset_us;
        let sent = sent_us.get(index).copied().flatten().unwrap_or(offset_us);
        let worker_ms = response
            .meta
            .as_ref()
            .and_then(|meta| meta.hops.get(1))
            .map(|(_, ms)| *ms);
        tally.answers.push(Answer {
            verb: case.verb.clone(),
            latency_ms: recv_us.saturating_sub(offset_us) as f64 / 1e3,
            elapsed_ms: response.elapsed_ms,
            worker_ms,
            wire_ms: recv_us.saturating_sub(sent) as f64 / 1e3 - response.elapsed_ms,
            offset_us,
            recv_us,
        });
    }
    tally.failed = failed;
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_serve::Response as WireResponse;

    fn case(expected: Json) -> Case {
        Case {
            verb: "disasm".to_string(),
            request: Request::new("disasm").with_target("bench:cg"),
            expect: Arc::new(Expect::Payload(expected)),
        }
    }

    fn answer_line(id: u64, payload: &Json) -> String {
        let response = WireResponse {
            id: Json::from(id),
            verb: "disasm".to_string(),
            elapsed_ms: 0.5,
            result: Ok(payload.clone()),
            meta: None,
        };
        response.to_json().compact()
    }

    fn received(lines: Vec<String>) -> Vec<Received> {
        lines
            .into_iter()
            .enumerate()
            .map(|(i, line)| Received {
                line,
                recv_us: 1_000 * (i as u64 + 1),
            })
            .collect()
    }

    #[test]
    fn payload_checker_catches_a_one_byte_corruption() {
        let expected = Json::obj()
            .with("program", "cg")
            .with("listing", "0000: ld r1, [r2+0]\n0001: halt\n");
        let cases = vec![case(expected.clone()), case(expected.clone())];
        let plan = plan(&cases, &[0, 10]);
        let good = answer_line(0, &expected);
        let line = answer_line(1, &expected);
        let at = line.find("halt").expect("listing is on the wire") + 1;
        let mut corrupt = line.into_bytes();
        corrupt[at] = b'x';
        let corrupt = String::from_utf8(corrupt).expect("still UTF-8");
        let tally = tally(
            &cases,
            &plan,
            &[Some(0), Some(10)],
            &received(vec![good, corrupt]),
        );
        assert_eq!(tally.attempted, 2);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.answers.len(), 1);
    }

    #[test]
    fn a_missing_response_counts_as_failed() {
        let expected = Json::obj().with("program", "cg");
        let cases = vec![
            case(expected.clone()),
            case(expected.clone()),
            case(expected.clone()),
        ];
        let plan = plan(&cases, &[0, 10, 20]);
        let lines = vec![answer_line(0, &expected), answer_line(2, &expected)];
        let tally = tally(
            &cases,
            &plan,
            &[Some(0), Some(10), Some(20)],
            &received(lines),
        );
        assert_eq!(tally.missing, 1);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.answers.len(), 2);
    }

    #[test]
    fn error_responses_and_stray_ids_count_as_failed() {
        let expected = Json::obj().with("program", "cg");
        let cases = vec![case(expected.clone())];
        let plan = plan(&cases, &[0]);
        let error = WireResponse {
            id: Json::from(0u64),
            verb: "disasm".to_string(),
            elapsed_ms: 0.1,
            result: Err(amnesiac_serve::ServeError::new(
                "overloaded",
                "backlog full",
            )),
            meta: None,
        };
        let lines = vec![error.to_json().compact(), answer_line(7, &expected)];
        let tally = tally(&cases, &plan, &[Some(0)], &received(lines));
        assert_eq!(tally.failed, 2, "the error and the stray id");
        assert!(tally.answers.is_empty());
    }

    #[test]
    fn stats_are_checked_by_shape() {
        assert!(Expect::Stats.accepts(&Json::obj().with("verbs", Json::obj())));
        assert!(!Expect::Stats.accepts(&Json::obj().with("uptime_ms", 3.0)));
    }
}
