//! Malformed-input corpus: every reader must reject hostile or broken
//! files with a [`GraphError`] — never a panic, never an unbounded
//! allocation. Each case here is a file a fuzzer or a typo could
//! produce.

use crono_graph::io::{read_dimacs, read_edge_list, read_matrix_market};
use crono_graph::GraphError;

/// Every fixture must come back as `Err` (and, because these run in the
/// normal test harness, without panicking or aborting).
fn assert_all_rejected(format: &str, parse: impl Fn(&str) -> Result<(), GraphError>, corpus: &[&str]) {
    for (i, fixture) in corpus.iter().enumerate() {
        match parse(fixture) {
            Ok(()) => panic!("{format} fixture #{i} unexpectedly parsed: {fixture:?}"),
            Err(e) => {
                // Errors must render as a single line (the CLI prints
                // them verbatim to stderr).
                assert!(!e.to_string().contains('\n'), "{format} fixture #{i}: {e}");
            }
        }
    }
}

#[test]
fn edge_list_rejects_malformed_lines() {
    assert_all_rejected(
        "edge list",
        |s| read_edge_list(s.as_bytes(), false).map(drop),
        &[
            "0\n",                  // missing destination
            "0 1 x\n",              // non-numeric weight
            "a b\n",                // non-numeric endpoints
            "0 99999999999999999\n", // endpoint overflows the vertex id type
            "0 -1\n",               // negative vertex id
        ],
    );
}

#[test]
fn dimacs_rejects_malformed_lines() {
    assert_all_rejected(
        "dimacs",
        |s| read_dimacs(s.as_bytes()).map(drop),
        &[
            "",                              // empty file: no problem line
            "a 1 2 3\n",                     // arc before problem line
            "p sp\n",                        // truncated problem line
            "p tw 2 1\na 1 2 3\n",           // wrong problem type
            "p sp 2 1\np sp 2 1\na 1 2 3\n", // duplicate problem line
            "p sp 2 1\na 1 2\n",             // truncated arc
            "p sp 2 1\na 0 1 5\n",           // 0-based ids
            "p sp 2 1\na 1 3 5\n",           // endpoint beyond declared count
            "p sp 2 2\na 1 2 5\n",           // fewer arcs than declared
            "p sp 2 1\na 1 2 5\na 2 1 5\n",  // more arcs than declared
            "p sp 2 1\nb 1 2 5\n",           // unrecognized line kind
        ],
    );
}

#[test]
fn matrix_market_rejects_malformed_lines() {
    let h = "%%MatrixMarket matrix coordinate real general\n";
    let cases: Vec<String> = vec![
        String::new(),                                   // empty file
        "1 1 0\n".to_string(),                           // missing header
        "%%MatrixMarket vector coordinate\n".to_string(), // not a matrix
        format!("{h}"),                                  // missing size line
        format!("{h}2 2\n"),                             // truncated size line
        format!("{h}2 3 1\n1 2 1.0\n"),                  // rectangular
        format!("{h}2 2 1\n1 2\n"),                      // missing value
        format!("{h}2 2 1\n0 1 1.0\n"),                  // 0-based indices
        format!("{h}2 2 1\n1 3 1.0\n"),                  // index out of range
        format!("{h}2 2 1\n1 2 nan\n"),                  // non-finite value
        format!("{h}2 2 1\n1 2 -1.0\n"),                 // negative weight
        format!("{h}2 2 2\n1 2 1.0\n"),                  // fewer entries than declared
        format!("{h}2 2 1\n1 2 1.0\n2 1 1.0\n"),         // more entries than declared
        // Legal Matrix Market, but no graph reading here: each used to be
        // read as something else.
        "%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n2 1\n".to_string(),
        "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n2 1 1.0\n".to_string(),
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 1.0 2.0\n".to_string(),
        "%%MatrixMarket matrix coordinate real\n2 2 1\n1 2 1.0\n".to_string(), // no symmetry
    ];
    let corpus: Vec<&str> = cases.iter().map(String::as_str).collect();
    assert_all_rejected(
        "matrix market",
        |s| read_matrix_market(s.as_bytes()).map(drop),
        &corpus,
    );
}

#[test]
fn matrix_market_unsupported_headers_name_the_accepted_values() {
    let err = |header: &str| {
        let text = format!("%%MatrixMarket matrix coordinate {header}\n2 2 1\n2 1 1\n");
        read_matrix_market(text.as_bytes()).unwrap_err().to_string()
    };
    assert!(err("complex general").contains("real, integer or pattern"));
    assert!(err("real skew-symmetric").contains("general or symmetric"));
    assert!(err("pattern hermitian").contains("general or symmetric"));
}

/// Header keywords are case-insensitive in the Matrix Market format.
#[test]
fn matrix_market_accepts_keywords_in_any_case() {
    let text = "%%MatrixMarket matrix coordinate PATTERN symmetric\n3 3 2\n2 1\n3 3\n";
    let g = read_matrix_market(text.as_bytes()).unwrap();
    assert_eq!(g.num_directed_edges(), 3, "mirrored, diagonal once");
    assert_eq!(g.weight_slice(), &[1, 1, 1]);
    assert!(g.is_symmetric());

    let text = "%%MatrixMarket Matrix Coordinate Integer General\n2 2 1\n1 2 7\n";
    let g = read_matrix_market(text.as_bytes()).unwrap();
    assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 7)]);
    assert_eq!(g.num_directed_edges(), 1);
}

#[test]
fn hostile_declared_sizes_do_not_reserve_memory() {
    // A 16-byte file declaring four billion arcs must fail fast on the
    // arc-count check instead of reserving gigabytes for the claim.
    let err = read_dimacs("p sp 4000000000 4000000000\n".as_bytes()).unwrap_err();
    assert!(err.to_string().contains("declared 4000000000 arcs"), "{err}");

    // Same for a matrix-market size line claiming four billion entries.
    let text = "%%MatrixMarket matrix coordinate real general\n4000000 4000000 4000000000\n";
    let err = read_matrix_market(text.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("declared 4000000000 entries"), "{err}");
}
