//! SPICE writer/parser round-trips validated with Gemini isomorphism.

use subgemini_gemini::compare;
use subgemini_spice::{parse, write_netlist, ElaborateOptions};
use subgemini_workloads::{cells, gen};

fn roundtrip_flat(nl: &subgemini_netlist::Netlist) -> subgemini_netlist::Netlist {
    let text = write_netlist(nl);
    let doc = parse(&text).expect("writer output re-parses");
    doc.elaborate_top(nl.name(), &ElaborateOptions::default())
        .expect("writer output re-elaborates")
}

#[test]
fn every_library_cell_roundtrips_isomorphically() {
    for cell in cells::library() {
        let text = write_netlist(&cell);
        let doc = parse(&text).unwrap();
        let back = doc
            .elaborate_cell(cell.name(), &ElaborateOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", cell.name()));
        let outcome = compare(&cell, &back);
        assert!(
            outcome.is_isomorphic(),
            "{} diverged: {:?}",
            cell.name(),
            outcome.mismatch()
        );
        // Port order also survives.
        let names = |nl: &subgemini_netlist::Netlist| -> Vec<String> {
            nl.ports()
                .iter()
                .map(|&p| nl.net_ref(p).name().to_string())
                .collect()
        };
        assert_eq!(names(&cell), names(&back), "{} ports", cell.name());
    }
}

#[test]
fn generated_circuits_roundtrip_isomorphically() {
    for nl in [
        gen::ripple_adder(3).netlist,
        gen::shift_register(3).netlist,
        gen::sram_array(2, 3).netlist,
        gen::random_soup(11, 15).netlist,
    ] {
        let back = roundtrip_flat(&nl);
        let outcome = compare(&nl, &back);
        assert!(
            outcome.is_isomorphic(),
            "{} diverged: {:?}",
            nl.name(),
            outcome.mismatch()
        );
    }
}

#[test]
fn matcher_results_survive_roundtrip() {
    // Matching before and after a SPICE round-trip finds the same count.
    let soup = gen::random_soup(5150, 30);
    let back = roundtrip_flat(&soup.netlist);
    let cell = cells::nand2();
    let before = subgemini::Matcher::new(&cell, &soup.netlist).find_all();
    let after = subgemini::Matcher::new(&cell, &back).find_all();
    assert_eq!(before.count(), after.count());
}

#[test]
fn hierarchical_deck_with_library_cells() {
    // Write the library as .subckts, instantiate via X cards, flatten.
    let mut deck = String::from(".global vdd gnd\n");
    for cell in [cells::inv(), cells::nand2()] {
        deck.push_str(&write_netlist(&cell));
    }
    deck.push_str("Xa in mid inv\nXb mid in2 out nand2\n");
    let doc = parse(&deck).unwrap();
    let flat = doc
        .elaborate_top("mini", &ElaborateOptions::default())
        .unwrap();
    assert_eq!(flat.device_count(), 6);
    let hier = doc
        .elaborate_top("mini", &ElaborateOptions::hierarchical())
        .unwrap();
    assert_eq!(hier.device_count(), 2);
    // The flattened deck contains one real inverter plus... the nand's
    // transistors; matching confirms.
    let found = subgemini::Matcher::new(&cells::inv(), &flat).find_all();
    assert_eq!(found.count(), 1);
    let found = subgemini::Matcher::new(&cells::nand2(), &flat).find_all();
    assert_eq!(found.count(), 1);
}

/// Parsing and elaborating a generated deck and writing it again gives
/// back the same text byte for byte. This pins device order, net order
/// (the `.global` line lists globals in net order) and every name
/// through the parser's token borrowing and the netlist's name index.
#[test]
fn written_decks_reparse_to_the_same_text() {
    let decks = [
        gen::hierarchical_chip(3, 3, 3_000).generated.netlist,
        gen::hierarchical_chip(17, 2, 1_500).generated.netlist,
        gen::tiled_chip(5, 2_000).netlist,
        gen::random_soup(29, 40).netlist,
        gen::sram_array(3, 4).netlist,
    ];
    for nl in decks {
        let text = write_netlist(&nl);
        let doc = parse(&text).expect("writer output re-parses");
        let back = doc
            .elaborate_top(nl.name(), &ElaborateOptions::default())
            .expect("writer output re-elaborates");
        assert!(back.device_count() > 0, "{}", nl.name());
        assert_eq!(write_netlist(&back), text, "{} changed", nl.name());
    }
}
