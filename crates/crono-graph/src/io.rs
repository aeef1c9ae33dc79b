//! Graph file I/O: plain edge lists (SNAP style) and DIMACS `.gr`.
//!
//! These readers accept the exact formats CRONO's inputs ship in, so real
//! SNAP datasets can replace the synthetic stand-ins without code changes:
//!
//! * *Edge list*: one `src dst [weight]` triple per line, `#` comments,
//!   blank lines ignored. Missing weights default to 1. Vertex count is
//!   `max id + 1` unless given.
//! * *DIMACS shortest-path* (`.gr`): `c` comment lines, one
//!   `p sp <n> <m>` problem line, and `a <src> <dst> <weight>` arcs with
//!   1-based vertex ids.
//! * *Matrix Market* (`.mtx`): the `%%MatrixMarket matrix coordinate`
//!   header with a `real`, `integer` or `pattern` field and `general` or
//!   `symmetric` symmetry (keywords in any case), a `rows cols entries`
//!   size line, then 1-based `row col [value]` entries; `symmetric`
//!   matrices are mirrored.

use crate::{CsrGraph, EdgeList, GraphError, VertexId, Weight};
use std::io::{BufRead, BufReader, Read, Write};

/// Cap on the edge capacity pre-reserved from a file's *declared* sizes.
/// The declared counts are untrusted input: a hostile header like
/// `p sp 4000000000 4000000000` must not reserve gigabytes up front.
/// Larger (honest) files still load — the vectors grow as real edges
/// arrive — this only bounds the speculative reservation.
const MAX_PREALLOC_EDGES: usize = 1 << 20;

/// Reads a whitespace-separated edge list.
///
/// Pass `undirected = true` to mirror every edge (SNAP road networks list
/// each undirected edge once); the graph is then certified symmetric
/// ([`CsrGraph::is_symmetric`]).
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines and
/// [`GraphError::Io`] on read failures.
///
/// # Examples
///
/// ```
/// use crono_graph::io::read_edge_list;
///
/// let text = "# comment\n0 1 5\n1 2\n";
/// let g = read_edge_list(text.as_bytes(), false).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_directed_edges(), 2);
/// ```
pub fn read_edge_list<R: Read>(reader: R, undirected: bool) -> Result<CsrGraph, GraphError> {
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let mut max_v: u64 = 0;
    for edge in stream_edge_list(reader) {
        let (src, dst, w) = edge?;
        max_v = max_v.max(src as u64).max(dst as u64);
        edges.push((src, dst, w));
        if undirected && src != dst {
            edges.push((dst, src, w));
        }
    }
    let n = if edges.is_empty() { 0 } else { max_v as usize + 1 };
    Ok(CsrGraph::try_from_edges(n, edges)?.certified_symmetric(undirected))
}

/// Writes a graph as a plain directed edge list (`src dst weight` lines).
///
/// # Errors
///
/// Returns any I/O error from the writer. Note a `&mut` writer can be
/// passed for `W`.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    for v in 0..graph.num_vertices() as VertexId {
        for (u, w) in graph.neighbors(v) {
            writeln!(writer, "{v} {u} {w}")?;
        }
    }
    Ok(())
}

/// Reads a DIMACS shortest-path `.gr` file (1-based ids).
///
/// # Errors
///
/// Returns [`GraphError::Parse`] if the problem line is missing or
/// malformed, an arc references a vertex outside the declared range, or a
/// field fails to parse.
///
/// # Examples
///
/// ```
/// use crono_graph::io::read_dimacs;
///
/// let text = "c road net\np sp 3 2\na 1 2 10\na 2 3 20\n";
/// let g = read_dimacs(text.as_bytes()).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.neighbors(0).next(), Some((1, 10)));
/// ```
pub fn read_dimacs<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let reader = BufReader::new(reader);
    // Declared arc count + the edges parsed so far, both set by the one
    // `p` line — a single Option so arcs can never exist without it.
    let mut parsed: Option<(usize, EdgeList)> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            if parsed.is_some() {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: "duplicate problem line".to_string(),
                });
            }
            let mut parts = rest.split_whitespace();
            let kind = parts.next().unwrap_or("");
            if kind != "sp" {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("unsupported problem type {kind:?}, expected \"sp\""),
                });
            }
            let n = parse_field(parts.next(), lineno, "vertex count")? as usize;
            let m = parse_field(parts.next(), lineno, "edge count")? as usize;
            parsed = Some((m, EdgeList::with_capacity(n, m.min(MAX_PREALLOC_EDGES))));
        } else if let Some(rest) = line.strip_prefix("a ") {
            let Some((_, el)) = parsed.as_mut() else {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: "arc before problem line".to_string(),
                });
            };
            let mut parts = rest.split_whitespace();
            let src = parse_field(parts.next(), lineno, "arc source")?;
            let dst = parse_field(parts.next(), lineno, "arc destination")?;
            let w = parse_field(parts.next(), lineno, "arc weight")?;
            if src == 0 || dst == 0 {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: "dimacs vertex ids are 1-based".to_string(),
                });
            }
            el.push(src - 1, dst - 1, w)?;
        } else {
            return Err(GraphError::Parse {
                line: lineno,
                message: format!("unrecognized line {line:?}"),
            });
        }
    }
    let Some((m, el)) = parsed else {
        return Err(GraphError::Parse {
            line: 0,
            message: "missing problem line".to_string(),
        });
    };
    if el.len() != m {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("problem line declared {m} arcs but file has {}", el.len()),
        });
    }
    el.try_into_csr()
}

/// Writes a graph in DIMACS `.gr` format.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_dimacs<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "p sp {} {}",
        graph.num_vertices(),
        graph.num_directed_edges()
    )?;
    for v in 0..graph.num_vertices() as VertexId {
        for (u, w) in graph.neighbors(v) {
            writeln!(writer, "a {} {} {}", v + 1, u + 1, w)?;
        }
    }
    Ok(())
}

/// Reads a Matrix Market coordinate file as a graph (rows/columns are
/// vertices, entries are edges). Header keywords are case-insensitive;
/// the field must be `real`, `integer` or `pattern` and the symmetry
/// `general` or `symmetric`. A `symmetric` file mirrors each entry (a
/// diagonal entry is stored once) and gives a graph certified symmetric
/// ([`CsrGraph::is_symmetric`]). Entry values are rounded to
/// non-negative integer weights; `pattern` matrices get weight 1.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for a missing or unsupported header
/// (`complex`, `skew-symmetric` and `hermitian` matrices have no graph
/// reading here), a non-square matrix, out-of-range indices, or
/// malformed entries.
///
/// # Examples
///
/// ```
/// use crono_graph::io::read_matrix_market;
///
/// let text = "%%MatrixMarket matrix coordinate real symmetric\n\
///             % a comment\n\
///             3 3 2\n\
///             1 2 5.0\n\
///             2 3 7.5\n";
/// let g = read_matrix_market(text.as_bytes()).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_directed_edges(), 4, "symmetric entries mirrored");
/// ```
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| GraphError::Parse {
        line: 1,
        message: "empty file".to_string(),
    })?;
    let header = header?.to_ascii_lowercase();
    let fields: Vec<&str> = header.split_whitespace().collect();
    if !fields.starts_with(&["%%matrixmarket", "matrix", "coordinate"]) {
        return Err(GraphError::Parse {
            line: 1,
            message: "expected a \"%%MatrixMarket matrix coordinate\" header".to_string(),
        });
    }
    let unsupported = |what: &str, got: &str, accepted: &str| GraphError::Parse {
        line: 1,
        message: format!("unsupported matrix {what} {got:?}, expected {accepted}"),
    };
    let pattern = match fields.get(3).copied().unwrap_or("") {
        "real" | "integer" => false,
        "pattern" => true,
        got => return Err(unsupported("field", got, "real, integer or pattern")),
    };
    let symmetric = match fields.get(4).copied().unwrap_or("") {
        "general" => false,
        "symmetric" => true,
        got => return Err(unsupported("symmetry", got, "general or symmetric")),
    };

    // Declared entry count + the edges parsed so far, both set by the
    // one size line — a single Option so entries can never exist
    // without it.
    let mut parsed: Option<(usize, EdgeList)> = None;
    let mut seen_entries = 0usize;
    for (idx, line) in lines {
        let line = line?;
        let line = line.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some((_, el)) = parsed.as_mut() else {
            let rows = parse_field(parts.next(), lineno, "row count")? as usize;
            let cols = parse_field(parts.next(), lineno, "column count")? as usize;
            let declared = parse_field(parts.next(), lineno, "entry count")? as usize;
            if rows != cols {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("graph matrices must be square, got {rows}x{cols}"),
                });
            }
            let cap = declared.saturating_mul(2).min(MAX_PREALLOC_EDGES);
            parsed = Some((declared, EdgeList::with_capacity(rows, cap)));
            continue;
        };
        let row = parse_field(parts.next(), lineno, "row index")?;
        let col = parse_field(parts.next(), lineno, "column index")?;
        if row == 0 || col == 0 {
            return Err(GraphError::Parse {
                line: lineno,
                message: "matrix market indices are 1-based".to_string(),
            });
        }
        let weight: Weight = if pattern {
            1
        } else {
            let tok = parts.next().ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "missing entry value".to_string(),
            })?;
            let value: f64 = tok.parse().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid entry value {tok:?}"),
            })?;
            if !value.is_finite() || value < 0.0 {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("edge weights must be finite and non-negative, got {value}"),
                });
            }
            value.round() as Weight
        };
        if symmetric {
            el.push_undirected(row - 1, col - 1, weight)?;
        } else {
            el.push(row - 1, col - 1, weight)?;
        }
        seen_entries += 1;
    }
    let Some((declared_entries, el)) = parsed else {
        return Err(GraphError::Parse {
            line: 0,
            message: "missing size line".to_string(),
        });
    };
    if seen_entries != declared_entries {
        return Err(GraphError::Parse {
            line: 0,
            message: format!(
                "size line declared {declared_entries} entries but file has {seen_entries}"
            ),
        });
    }
    el.try_into_csr()
}

/// Streams an edge iterator to a writer as plain `src dst weight` lines
/// in fixed-size chunks, never materializing the edge list — the
/// emit-side counterpart of [`stream_edge_list`]. Returns the number of
/// lines written.
///
/// `crono gen` uses this to write multi-hundred-million-edge graphs
/// with only one chunk of formatted text resident.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_edge_stream<W, I>(edges: I, writer: W, chunk_lines: usize) -> std::io::Result<u64>
where
    W: Write,
    I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
{
    let mut writer = std::io::BufWriter::new(writer);
    let chunk_lines = chunk_lines.max(1);
    let mut text = String::new();
    let mut pending = 0usize;
    let mut written = 0u64;
    for (s, d, w) in edges {
        use std::fmt::Write as _;
        let _ = writeln!(text, "{s} {d} {w}");
        pending += 1;
        written += 1;
        if pending == chunk_lines {
            writer.write_all(text.as_bytes())?;
            text.clear();
            pending = 0;
        }
    }
    writer.write_all(text.as_bytes())?;
    writer.flush()?;
    Ok(written)
}

/// Streams a whitespace-separated edge list as an iterator of
/// `(src, dst, weight)` triples, one buffered line at a time — the
/// read-side counterpart of [`write_edge_stream`], shaped to feed
/// [`crate::stream::build_sharded`] directly without collecting the
/// file into memory first, and the line parser [`read_edge_list`]
/// collects from. Missing weights default to 1; `#` comments and blank
/// lines are skipped.
///
/// Errors (I/O or parse, with line numbers) surface as `Err` items;
/// the out-of-core builder's `Result` plumbing propagates them.
pub fn stream_edge_list<R: Read>(
    reader: R,
) -> impl Iterator<Item = Result<(VertexId, VertexId, Weight), GraphError>> {
    let reader = BufReader::new(reader);
    reader
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| match line {
            Err(e) => Some(Err(GraphError::Io(e))),
            Ok(line) => {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    return None;
                }
                let parse = || -> Result<(VertexId, VertexId, Weight), GraphError> {
                    let mut parts = line.split_whitespace();
                    let src = parse_field(parts.next(), idx + 1, "source vertex")?;
                    let dst = parse_field(parts.next(), idx + 1, "destination vertex")?;
                    let w = match parts.next() {
                        Some(tok) => tok.parse().map_err(|_| GraphError::Parse {
                            line: idx + 1,
                            message: format!("invalid weight {tok:?}"),
                        })?,
                        None => 1,
                    };
                    Ok((src, dst, w))
                };
                Some(parse())
            }
        })
}

fn parse_field(tok: Option<&str>, line: usize, what: &str) -> Result<u32, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    tok.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("invalid {what} {tok:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_round_trip() {
        let g = CsrGraph::from_edges(4, vec![(0, 1, 3), (1, 2, 4), (3, 0, 5)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice(), false).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn dimacs_round_trip() {
        let g = CsrGraph::from_edges(3, vec![(0, 2, 7), (2, 1, 9)]);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let g2 = read_dimacs(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn undirected_reader_mirrors_edges() {
        let g = read_edge_list("0 1 2\n".as_bytes(), true).unwrap();
        assert_eq!(g.num_directed_edges(), 2);
        assert_eq!(g.neighbors(1).next(), Some((0, 2)));
    }

    #[test]
    fn malformed_weight_reports_line() {
        let err = read_edge_list("0 1 x\n".as_bytes(), false).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("weight"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn dimacs_requires_problem_line() {
        let err = read_dimacs("a 1 2 3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("problem line"));
    }

    #[test]
    fn dimacs_rejects_zero_based_ids() {
        let err = read_dimacs("p sp 2 1\na 0 1 5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn dimacs_arc_count_mismatch_detected() {
        let err = read_dimacs("p sp 2 2\na 1 2 5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared 2 arcs"));
    }

    #[test]
    fn matrix_market_general_is_directed() {
        let text = "%%MatrixMarket matrix coordinate real general
2 2 2
1 2 3.0
2 1 4.0
";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.neighbors(0).next(), Some((1, 3)));
        assert_eq!(g.neighbors(1).next(), Some((0, 4)));
    }

    #[test]
    fn matrix_market_pattern_defaults_weights() {
        let text = "%%MatrixMarket matrix coordinate pattern general
3 3 1
1 3
";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.neighbors(0).next(), Some((2, 1)));
    }

    #[test]
    fn matrix_market_rejects_rectangular() {
        let text = "%%MatrixMarket matrix coordinate real general
2 3 1
1 2 1.0
";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("square"));
    }

    #[test]
    fn matrix_market_rejects_negative_weights() {
        let text = "%%MatrixMarket matrix coordinate real general
2 2 1
1 2 -4.0
";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("non-negative"));
    }

    #[test]
    fn matrix_market_entry_count_checked() {
        let text = "%%MatrixMarket matrix coordinate real general
2 2 2
1 2 1.0
";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared 2 entries"));
    }

    #[test]
    fn matrix_market_missing_header_rejected() {
        let err = read_matrix_market("1 1 0
".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn edge_stream_round_trips_with_reader() {
        let s = crate::stream::UniformStream::new(32, 200, 8, 3).unwrap();
        let mut buf = Vec::new();
        let written = write_edge_stream(s.edges(), &mut buf, 7).unwrap();
        assert_eq!(written as usize, s.edges().count());
        let back: Vec<_> = stream_edge_list(buf.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, s.edges().collect::<Vec<_>>());
        // Chunk size is a buffering detail, not a format change.
        let mut buf2 = Vec::new();
        write_edge_stream(s.edges(), &mut buf2, 1000).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn edge_stream_reader_reports_bad_lines() {
        let items: Vec<_> = stream_edge_list("0 1 2\nbogus\n".as_bytes()).collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert!(matches!(items[1], Err(GraphError::Parse { line: 2, .. })));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = read_edge_list("# hello\n\n0 1\n".as_bytes(), false).unwrap();
        assert_eq!(g.num_directed_edges(), 1);
        assert_eq!(g.weight_slice(), &[1], "missing weight defaults to 1");
    }
}
