//! Comparing the counter summaries of two trace JSON files.
//!
//! `crono trace-diff a.json b.json` regression-checks simulator traces:
//! it extracts the `otherData.counters` object that
//! [`Trace::to_chrome_json`](crate::Trace::to_chrome_json) embeds in
//! every trace, lines the two summaries up per event name, and reports
//! count / arg_sum deltas. An *increase* beyond the tolerance in the
//! second trace is a regression (more sync stalls, more coherence
//! traffic); decreases and disappearances never are.
//!
//! The parser is a minimal hand-rolled scanner for exactly the shape
//! this crate writes (`"name": {"count": N, "arg_sum": M}`) — the
//! workspace is hermetic, so there is no general JSON dependency to
//! lean on.

use crate::ring::CounterStat;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The per-event counter summary extracted from one trace JSON.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterSummary {
    /// Count and argument sum per event name, in name order.
    pub counters: BTreeMap<String, CounterStat>,
}

impl CounterSummary {
    /// Extracts the `otherData.counters` summary from a Chrome trace
    /// JSON string produced by
    /// [`Trace::to_chrome_json`](crate::Trace::to_chrome_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct if the
    /// text has no `"counters"` object or it deviates from the shape
    /// this crate writes.
    pub fn parse(json: &str) -> Result<CounterSummary, String> {
        let marker = "\"counters\":";
        let start = json
            .find(marker)
            .ok_or("no \"counters\" object found (not a crono trace JSON?)")?;
        let mut s = Scanner {
            rest: &json[start + marker.len()..],
        };
        s.expect('{')?;
        let mut counters = BTreeMap::new();
        if s.peek() == Some('}') {
            return Ok(CounterSummary { counters });
        }
        loop {
            let name = s.string()?;
            s.expect(':')?;
            s.expect('{')?;
            let key1 = s.string()?;
            if key1 != "count" {
                return Err(format!("expected \"count\", found {key1:?}"));
            }
            s.expect(':')?;
            let count = s.number()?;
            s.expect(',')?;
            let key2 = s.string()?;
            if key2 != "arg_sum" {
                return Err(format!("expected \"arg_sum\", found {key2:?}"));
            }
            s.expect(':')?;
            let arg_sum = s.number()?;
            s.expect('}')?;
            counters.insert(name, CounterStat { count, arg_sum });
            match s.peek() {
                Some(',') => {
                    s.expect(',')?;
                }
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
        Ok(CounterSummary { counters })
    }
}

/// Tiny scanner over the counters object.
struct Scanner<'a> {
    rest: &'a str,
}

impl Scanner<'_> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest.chars().next()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(r) => {
                self.rest = r;
                Ok(())
            }
            None => Err(format!(
                "expected {c:?} at {:?}",
                &self.rest[..self.rest.len().min(20)]
            )),
        }
    }

    /// Parses a double-quoted string, unescaping `\"` and `\\` (the only
    /// escapes the writer emits).
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, esc)) => out.push(esc),
                    None => break,
                },
                _ => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.rest.len());
        let (digits, rest) = self.rest.split_at(end);
        self.rest = rest;
        digits.parse().map_err(|_| {
            format!(
                "expected number at {:?}",
                &digits.chars().take(20).collect::<String>()
            )
        })
    }
}

/// One event name's stats in both traces (`None` = absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// The event name.
    pub name: String,
    /// Stats in the first (baseline) trace.
    pub a: Option<CounterStat>,
    /// Stats in the second (candidate) trace.
    pub b: Option<CounterStat>,
}

impl CounterDelta {
    /// Whether the two sides are identical.
    pub fn is_zero(&self) -> bool {
        self.a == self.b
    }

    /// Whether the candidate regressed beyond `tolerance`: its count or
    /// arg_sum exceeds the baseline's by more than `tolerance × baseline`
    /// (so `0.0` flags any increase, `0.1` allows 10% growth; an event
    /// absent from the baseline regresses on any appearance).
    pub fn regressed(&self, tolerance: f64) -> bool {
        let exceeded = |a: u64, b: u64| b > a && (b - a) as f64 > tolerance * a as f64;
        let a = self.a.unwrap_or(CounterStat {
            count: 0,
            arg_sum: 0,
        });
        let b = self.b.unwrap_or(CounterStat {
            count: 0,
            arg_sum: 0,
        });
        exceeded(a.count, b.count) || exceeded(a.arg_sum, b.arg_sum)
    }
}

/// The full comparison of two counter summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// One row per event name present in either trace, in name order.
    pub rows: Vec<CounterDelta>,
}

impl TraceDiff {
    /// Lines up two summaries per event name.
    pub fn between(a: &CounterSummary, b: &CounterSummary) -> TraceDiff {
        let names: std::collections::BTreeSet<&String> =
            a.counters.keys().chain(b.counters.keys()).collect();
        TraceDiff {
            rows: names
                .into_iter()
                .map(|name| CounterDelta {
                    name: name.clone(),
                    a: a.counters.get(name).copied(),
                    b: b.counters.get(name).copied(),
                })
                .collect(),
        }
    }

    /// Whether every event's stats are identical in both traces.
    pub fn is_zero(&self) -> bool {
        self.rows.iter().all(CounterDelta::is_zero)
    }

    /// The rows that [`CounterDelta::regressed`] beyond `tolerance`.
    pub fn regressions(&self, tolerance: f64) -> Vec<&CounterDelta> {
        self.rows
            .iter()
            .filter(|r| r.regressed(tolerance))
            .collect()
    }

    /// A human-readable delta table: one line per changed event, with a
    /// trailing tally of unchanged events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>16} {:>16}",
            "event", "count a", "count b", "arg_sum a", "arg_sum b"
        );
        let mut unchanged = 0usize;
        for row in &self.rows {
            if row.is_zero() {
                unchanged += 1;
                continue;
            }
            let fmt = |s: Option<CounterStat>, f: fn(CounterStat) -> u64| match s {
                Some(st) => f(st).to_string(),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>12} {:>16} {:>16}",
                row.name,
                fmt(row.a, |s| s.count),
                fmt(row.b, |s| s.count),
                fmt(row.a, |s| s.arg_sum),
                fmt(row.b, |s| s.arg_sum),
            );
        }
        let _ = writeln!(
            out,
            "{} event(s) changed, {unchanged} identical",
            self.rows.len() - unchanged
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThreadTracer, Trace, TraceMeta};

    fn sample_trace(extra_miss: bool) -> String {
        let mut t = ThreadTracer::new(64);
        t.begin("algo", "bfs:level", 0);
        t.instant("mem", "l1_miss_cold", 5, 100);
        if extra_miss {
            t.instant("mem", "l1_miss_cold", 6, 50);
        }
        t.end("algo", "bfs:level", 10);
        Trace {
            meta: TraceMeta::new("BFS", "sim", "test", 1, "cycles"),
            threads: vec![t.finish()],
        }
        .to_chrome_json()
    }

    #[test]
    fn parses_real_trace_json() {
        let summary = CounterSummary::parse(&sample_trace(false)).unwrap();
        let miss = summary.counters["l1_miss_cold"];
        assert_eq!(miss.count, 1);
        assert_eq!(miss.arg_sum, 100);
        assert!(summary.counters.contains_key("bfs:level"));
    }

    #[test]
    fn identical_traces_diff_to_zero() {
        let a = CounterSummary::parse(&sample_trace(false)).unwrap();
        let b = CounterSummary::parse(&sample_trace(false)).unwrap();
        let diff = TraceDiff::between(&a, &b);
        assert!(diff.is_zero());
        assert!(diff.regressions(0.0).is_empty());
        assert!(diff.render().contains("0 event(s) changed"));
    }

    #[test]
    fn increase_is_a_regression_and_respects_tolerance() {
        let a = CounterSummary::parse(&sample_trace(false)).unwrap();
        let b = CounterSummary::parse(&sample_trace(true)).unwrap();
        let diff = TraceDiff::between(&a, &b);
        assert!(!diff.is_zero());
        let regs = diff.regressions(0.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "l1_miss_cold");
        // count 1 -> 2 is a 100% increase; arg_sum 100 -> 150 is 50%.
        assert!(diff.regressions(1.0).is_empty(), "within 100% tolerance");
        assert!(!diff.regressions(0.4).is_empty(), "beyond 40% tolerance");
    }

    #[test]
    fn decrease_is_not_a_regression() {
        let a = CounterSummary::parse(&sample_trace(true)).unwrap();
        let b = CounterSummary::parse(&sample_trace(false)).unwrap();
        let diff = TraceDiff::between(&a, &b);
        assert!(!diff.is_zero());
        assert!(diff.regressions(0.0).is_empty());
    }

    #[test]
    fn appearing_event_regresses_missing_is_fine() {
        let empty = CounterSummary::default();
        let some = CounterSummary::parse(&sample_trace(false)).unwrap();
        assert!(!TraceDiff::between(&empty, &some)
            .regressions(0.0)
            .is_empty());
        assert!(TraceDiff::between(&some, &empty)
            .regressions(0.0)
            .is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(CounterSummary::parse("{}").is_err());
        assert!(CounterSummary::parse("\"counters\": {\"x\": 3}").is_err());
        let ok = CounterSummary::parse("\"counters\": {}").unwrap();
        assert!(ok.counters.is_empty());
    }
}
