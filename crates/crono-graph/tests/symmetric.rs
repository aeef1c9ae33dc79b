//! The symmetric certificate: which constructors set it, which drop it,
//! and that a certified graph really equals its transpose.
//!
//! Kernels that read in-edges borrow a certified graph instead of
//! transposing it ([`CsrGraph::in_edges`]), so a wrong certificate would
//! silently feed them out-edges as in-edges.

use crono_graph::gen::catalog::Dataset;
use crono_graph::gen::{preferential_attachment, rmat, road_network, uniform_random, RmatParams};
use crono_graph::io::{read_dimacs, read_edge_list, read_matrix_market};
use crono_graph::{CsrGraph, EdgeList};
use std::borrow::Cow;

fn assert_certified(name: &str, g: &CsrGraph) {
    assert!(g.is_symmetric(), "{name}: not certified symmetric");
    assert_eq!(g.transpose(), *g, "{name}: certified but not symmetric");
    assert!(matches!(g.in_edges(), Cow::Borrowed(_)), "{name}");
}

#[test]
fn every_generator_certifies_its_graph() {
    assert_certified("uniform", &uniform_random(64, 256, 8, 42));
    assert_certified("road", &road_network(12, 12, 8, 0.2, 0.05, 42));
    assert_certified("rmat", &rmat(7, 256, 8, RmatParams::default(), 42));
    assert_certified("preferential", &preferential_attachment(100, 3, 8, 42));
    for dataset in Dataset::ALL {
        assert_certified(dataset.label(), &dataset.generate(14, 7));
    }
}

#[test]
fn push_drops_the_certificate_and_dedup_keeps_it() {
    let mut el = EdgeList::new(4);
    el.push_undirected(0, 1, 5).unwrap();
    el.push_undirected(1, 0, 3).unwrap();
    el.push_undirected(2, 2, 1).unwrap();
    el.push_undirected(2, 3, 4).unwrap();
    assert_certified("undirected", &el.clone().into_csr());

    let mut deduped = el.clone();
    deduped.dedup();
    let g = deduped.try_into_csr().unwrap();
    assert_certified("deduped", &g);
    assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 3)]);

    // Even an edge whose reverse is already present drops it: the list
    // does not look at what it holds.
    el.push(3, 2, 4).unwrap();
    assert!(!el.clone().into_csr().is_symmetric());
    el.dedup();
    assert!(!el.into_csr().is_symmetric(), "dedup does not restore it");

    // A push that fails adds nothing and keeps it.
    let mut el = EdgeList::new(2);
    el.push_undirected(0, 1, 1).unwrap();
    assert!(el.push(0, 9, 1).is_err());
    assert!(el.into_csr().is_symmetric());
}

#[test]
fn only_mirroring_readers_certify() {
    let g = CsrGraph::from_edges(2, vec![(0, 1, 1), (1, 0, 1)]);
    assert!(!g.is_symmetric(), "from_edges cannot vouch for its input");
    assert_eq!(g.transpose(), g);
    assert!(matches!(g.in_edges(), Cow::Owned(_)));

    let dimacs = read_dimacs("p sp 2 2\na 1 2 1\na 2 1 1\n".as_bytes()).unwrap();
    assert!(!dimacs.is_symmetric());
    assert!(!read_edge_list("0 1 2\n1 0 2\n".as_bytes(), false)
        .unwrap()
        .is_symmetric());
    assert_certified(
        "edge list",
        &read_edge_list("0 1 2\n1 1 3\n2 0 4\n".as_bytes(), true).unwrap(),
    );

    let mtx = |symmetry: &str| {
        let text = format!(
            "%%MatrixMarket matrix coordinate real {symmetry}\n3 3 3\n2 1 5\n3 3 2\n3 1 1\n"
        );
        read_matrix_market(text.as_bytes()).unwrap()
    };
    assert!(!mtx("general").is_symmetric());
    let g = mtx("symmetric");
    assert_certified("matrix market", &g);
    assert_eq!(g.num_directed_edges(), 5, "diagonal entry stored once");
}

#[test]
fn derived_graphs_are_not_certified() {
    let g = rmat(6, 128, 8, RmatParams::default(), 3);
    assert!(g.is_symmetric());
    assert!(!g.transpose().is_symmetric());
    let (light, heavy) = g.split_by_weight(4);
    assert!(!light.is_symmetric() && !heavy.is_symmetric());
    assert!(g.clone().is_symmetric(), "a clone keeps it");
}

#[test]
fn the_certificate_is_not_part_of_equality() {
    let g = rmat(8, 1024, 16, RmatParams::default(), 11);
    assert!(g.is_symmetric());
    let triples: Vec<_> = (0..g.num_vertices() as u32)
        .flat_map(|v| g.neighbors(v).map(move |(u, w)| (v, u, w)))
        .collect();
    let plain = CsrGraph::from_edges(g.num_vertices(), triples);
    assert!(!plain.is_symmetric());
    assert_eq!(plain, g);
    assert_eq!(*g.in_edges(), *plain.in_edges());
}
