//! The benchmark's input: one seeded hierarchical chip written to disk
//! as a flat SPICE deck plus its cell library, with the generator's
//! planted instance counts as ground truth.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use subgemini_netlist::Netlist;
use subgemini_workloads::gen;

/// Hierarchy levels of the generated chip (inv/nand2/nor2, then
/// xor_nand/mux_nand, then pipeline_stage).
pub const LEVELS: usize = 3;

/// The six library cells, in the round-robin order `serve_find` uses.
pub const PATTERNS: [&str; 6] = [
    "inv",
    "nand2",
    "nor2",
    "xor_nand",
    "mux_nand",
    "pipeline_stage",
];

/// A generated deck on disk.
#[derive(Clone, Debug)]
pub struct Deck {
    /// Flat transistor-level deck (`flat.sp`).
    pub flat: PathBuf,
    /// Hierarchical cell library (`cells.sp`).
    pub cells: PathBuf,
    /// Planted instance count per cell, nested occurrences included.
    /// This is the ground truth every operation is checked against; it
    /// comes from the generator, never from the matcher.
    pub expected: BTreeMap<String, usize>,
    /// Devices in the flat deck.
    pub devices: usize,
    /// Nets in the flat deck.
    pub nets: usize,
    /// Size of `flat.sp` in bytes.
    pub deck_bytes: u64,
}

impl Deck {
    /// Generates the chip for `seed` with about `devices` devices and
    /// writes it under `dir`.
    ///
    /// # Errors
    ///
    /// File-system errors, with the path.
    pub fn generate(dir: &Path, seed: u64, devices: usize) -> Result<Deck, String> {
        let chip = gen::hierarchical_chip(seed, LEVELS, devices);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let flat = dir.join("flat.sp");
        let cells = dir.join("cells.sp");
        let flat_text = subgemini_spice::write_netlist(&chip.generated.netlist);
        // An empty top yields just the `.subckt` definitions.
        let cells_text = subgemini_spice::write_hierarchical(&Netlist::new("cells"), &chip.library);
        write(&flat, &flat_text)?;
        write(&cells, &cells_text)?;
        Ok(Deck {
            flat,
            cells,
            expected: chip.expected,
            devices: chip.generated.netlist.device_count(),
            nets: chip.generated.netlist.net_count(),
            deck_bytes: flat_text.len() as u64,
        })
    }

    /// The planted count for `cell`.
    pub fn expected(&self, cell: &str) -> usize {
        self.expected.get(cell).copied().unwrap_or(0)
    }

    /// `flat.sp` as a string argument.
    pub fn flat_arg(&self) -> &str {
        self.flat.to_str().expect("work paths are UTF-8")
    }

    /// `cells.sp` as a string argument.
    pub fn cells_arg(&self) -> &str {
        self.cells.to_str().expect("work paths are UTF-8")
    }
}

/// Writes a fresh file (see [`unlink`]).
fn write(path: &Path, text: &str) -> Result<(), String> {
    unlink(path)?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Removes `path` if it exists. Files the benchmark rewrites are
/// unlinked first because truncating one in place makes some file
/// systems flush its old blocks on close, putting disk writeback into
/// the timed work.
///
/// # Errors
///
/// Removal failures other than a missing file.
pub fn unlink(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// The ground-truth gate: `found` must equal the planted count.
///
/// # Errors
///
/// A message naming the cell and both counts.
pub fn check_count(cell: &str, found: usize, expected: usize) -> Result<(), String> {
    if found == expected {
        Ok(())
    } else {
        Err(format!("{cell}: found {found}, planted {expected}"))
    }
}
