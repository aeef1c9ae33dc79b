//! Per-router NoC traffic heatmaps from `noc_route` trace instants.
//!
//! When a trace is captured with [`TraceConfig::noc_geometry`] on, the
//! simulated backend emits one `noc_route` instant per home-slice
//! transaction, carrying the home router's mesh coordinates and the
//! transaction's flit-hop count packed into the instant's 64-bit `arg`
//! (see [`pack_route`]). This module aggregates those instants into a
//! per-router table so the traffic *shape* is visible — e.g. the PR-5
//! ablations move APSP's capture-counter hot spot (one scorching router)
//! to steals spread across every owner's deque line.
//!
//! The input is the Chrome trace-event JSON that `crono trace` writes.
//! Like [`crate::diff::CounterSummary::parse`], the scanner leans on the
//! serializer's fixed layout (one event object per line) rather than a
//! general JSON parser.
//!
//! [`TraceConfig::noc_geometry`]: crate::TraceConfig::noc_geometry

use std::fmt::Write as _;

/// Mesh coordinates saturate at 63 per axis (a 64×64 mesh is 4096
/// cores — far beyond the configs the suite models).
const COORD_MAX: u64 = 63;
/// Flit counts saturate at 2^20 − 1 per transaction; a single home
/// transaction never moves a fraction of that.
const FLITS_MAX: u64 = (1 << 20) - 1;

/// Packs a home router's `(row, col)` mesh position and a transaction's
/// flit-hop count into a `noc_route` instant `arg`.
///
/// Layout: `[row:6][col:6][flits:20]` from the high end of the used 32
/// bits. Each field saturates rather than wraps, and the packed value
/// stays ≤ 2³², so summing args across any realistic event count cannot
/// overflow the `u64` accumulation in [`crate::Trace::counters`].
pub fn pack_route(row: usize, col: usize, flits: u64) -> u64 {
    let row = (row as u64).min(COORD_MAX);
    let col = (col as u64).min(COORD_MAX);
    ((row << 6 | col) << 20) | flits.min(FLITS_MAX)
}

/// Inverse of [`pack_route`]: `(row, col, flits)`.
pub fn unpack_route(arg: u64) -> (usize, usize, u64) {
    let router = arg >> 20;
    (
        (router >> 6) as usize,
        (router & COORD_MAX) as usize,
        arg & FLITS_MAX,
    )
}

/// Flit traffic accumulated at one mesh router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterTraffic {
    /// Total flit-hops of transactions homed at this router.
    pub flits: u64,
    /// Number of home transactions (`noc_route` instants).
    pub events: u64,
}

/// Per-router aggregation of a trace's `noc_route` instants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Heatmap {
    /// Dense row-major `rows × cols` grid (bounding box of the routers
    /// actually seen; untouched routers hold zeroes).
    cells: Vec<RouterTraffic>,
    rows: usize,
    cols: usize,
}

impl Heatmap {
    /// Grid height (0 when the trace held no `noc_route` instants).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Traffic at router `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates lie outside the grid.
    pub fn at(&self, row: usize, col: usize) -> RouterTraffic {
        assert!(row < self.rows && col < self.cols, "router outside grid");
        self.cells[row * self.cols + col]
    }

    /// Total flit-hops across all routers.
    pub fn total_flits(&self) -> u64 {
        self.cells.iter().map(|c| c.flits).sum()
    }

    /// Total `noc_route` instants aggregated.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Builds a heatmap from packed `(row, col, flits)` samples.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Heatmap {
        let mut seen: Vec<(usize, usize, u64)> = Vec::new();
        let (mut rows, mut cols) = (0, 0);
        for arg in samples {
            let (row, col, flits) = unpack_route(arg);
            rows = rows.max(row + 1);
            cols = cols.max(col + 1);
            seen.push((row, col, flits));
        }
        let mut cells = vec![RouterTraffic::default(); rows * cols];
        for (row, col, flits) in seen {
            let cell = &mut cells[row * cols + col];
            cell.flits += flits;
            cell.events += 1;
        }
        Heatmap { cells, rows, cols }
    }

    /// Extracts every `noc_route` instant from a Chrome trace-event JSON
    /// document and aggregates it.
    ///
    /// Errors when the document does not look like a `crono trace`
    /// output, or when it contains no `noc_route` instants (the trace
    /// was captured without NoC geometry — pointing that out beats
    /// writing an all-zero table).
    pub fn from_chrome_json(json: &str) -> Result<Heatmap, String> {
        if !json.contains("\"traceEvents\"") {
            return Err("not a crono trace (no \"traceEvents\" key)".into());
        }
        let mut samples = Vec::new();
        for line in json.lines() {
            if !line.contains("\"name\":\"noc_route\"") {
                continue;
            }
            let arg = line
                .split("\"value\":")
                .nth(1)
                .and_then(|rest| {
                    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                    digits.parse::<u64>().ok()
                })
                .ok_or_else(|| format!("malformed noc_route instant: {line}"))?;
            samples.push(arg);
        }
        if samples.is_empty() {
            return Err(
                "trace contains no noc_route instants; re-capture it with NoC \
                 geometry enabled (crono trace writes it by default)"
                    .into(),
            );
        }
        Ok(Heatmap::from_samples(samples))
    }

    /// Renders the full grid as TSV: header `row\tcol\tflits\tevents`,
    /// then one line per router in row-major order, zero rows included
    /// (a plotting script gets the complete mesh without reindexing).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("row\tcol\tflits\tevents\n");
        for row in 0..self.rows {
            for col in 0..self.cols {
                let c = self.at(row, col);
                let _ = writeln!(out, "{row}\t{col}\t{}\t{}", c.flits, c.events);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips() {
        for (row, col, flits) in [(0, 0, 0), (3, 5, 17), (63, 63, FLITS_MAX)] {
            assert_eq!(unpack_route(pack_route(row, col, flits)), (row, col, flits));
        }
    }

    #[test]
    fn pack_saturates_out_of_range_fields() {
        let (row, col, flits) = unpack_route(pack_route(100, 200, u64::MAX));
        assert_eq!((row, col, flits), (63, 63, FLITS_MAX));
        assert!(pack_route(usize::MAX, usize::MAX, u64::MAX) <= u32::MAX as u64);
    }

    #[test]
    fn aggregates_samples_into_bounding_grid() {
        let map = Heatmap::from_samples([
            pack_route(0, 1, 10),
            pack_route(0, 1, 5),
            pack_route(2, 0, 7),
        ]);
        assert_eq!((map.rows(), map.cols()), (3, 2));
        assert_eq!(
            map.at(0, 1),
            RouterTraffic {
                flits: 15,
                events: 2
            }
        );
        assert_eq!(
            map.at(2, 0),
            RouterTraffic {
                flits: 7,
                events: 1
            }
        );
        assert_eq!(
            map.at(1, 1),
            RouterTraffic::default(),
            "untouched router is zero"
        );
        assert_eq!(map.total_flits(), 22);
        assert_eq!(map.total_events(), 3);
    }

    #[test]
    fn tsv_covers_every_router_including_zeroes() {
        let map = Heatmap::from_samples([pack_route(1, 1, 3)]);
        let tsv = map.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "row\tcol\tflits\tevents");
        assert_eq!(lines.len(), 1 + 4, "2x2 grid: header + 4 routers");
        assert!(lines.contains(&"0\t0\t0\t0"));
        assert!(lines.contains(&"1\t1\t3\t1"));
    }

    #[test]
    fn parses_noc_route_instants_out_of_chrome_json() {
        let json = format!(
            "{{\n\"traceEvents\": [\n\
             {{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"x\"}}}},\n\
             {{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":5,\"name\":\"noc_flits\",\"cat\":\"noc\",\"s\":\"t\",\"args\":{{\"value\":9}}}},\n\
             {{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":5,\"name\":\"noc_route\",\"cat\":\"noc\",\"s\":\"t\",\"args\":{{\"value\":{}}}}},\n\
             {{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":8,\"name\":\"noc_route\",\"cat\":\"noc\",\"s\":\"t\",\"args\":{{\"value\":{}}}}}\n\
             ],\n\"otherData\": {{}}\n}}",
            pack_route(0, 1, 4),
            pack_route(0, 1, 6),
        );
        let map = Heatmap::from_chrome_json(&json).expect("parse");
        assert_eq!(
            map.at(0, 1),
            RouterTraffic {
                flits: 10,
                events: 2
            }
        );
        assert_eq!(
            map.total_events(),
            2,
            "noc_flits instants are not misparsed"
        );
    }

    #[test]
    fn rejects_geometry_free_traces_with_guidance() {
        let err = Heatmap::from_chrome_json("{\"traceEvents\": []}").unwrap_err();
        assert!(err.contains("no noc_route instants"), "{err}");
        let err = Heatmap::from_chrome_json("not json").unwrap_err();
        assert!(err.contains("traceEvents"), "{err}");
    }
}
