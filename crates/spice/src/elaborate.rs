//! Elaboration: turning a parsed [`SpiceDoc`] into [`Netlist`]s.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use subgemini_netlist::{instantiate, DeviceType, DeviceTypeId, NetId, Netlist, TerminalSpec};

use crate::card::{Card, SubcktDef};
use crate::error::SpiceError;
use crate::parse::{lowercase, SpiceDoc};

/// Elaboration options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElaborateOptions {
    /// If `true` (default), `X` instances are flattened recursively down
    /// to primitive devices. If `false`, each `X` instance becomes a
    /// composite device whose type is the subcircuit name and whose
    /// terminals are its ports (each port its own equivalence class).
    pub flatten: bool,
    /// Additional net names treated as global even without `.global`
    /// (defaults: `vdd`, `vss`, `gnd`, `vcc`, `0`).
    pub implicit_globals: Vec<String>,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        Self {
            flatten: true,
            implicit_globals: ["vdd", "vss", "gnd", "vcc", "0"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

impl ElaborateOptions {
    /// Hierarchical (non-flattening) elaboration.
    pub fn hierarchical() -> Self {
        Self {
            flatten: false,
            ..Self::default()
        }
    }
}

/// The built-in device types cards elaborate to.
#[derive(Clone, Copy)]
enum Builtin {
    Nmos,
    Pmos,
    Res,
    Cap,
    Ind,
    Npn,
    Pnp,
}

impl Builtin {
    const COUNT: usize = 7;

    fn mos(model: &str) -> Self {
        if model.starts_with('p') {
            Builtin::Pmos
        } else {
            Builtin::Nmos
        }
    }

    fn bjt(model: &str) -> Self {
        if model.starts_with('p') {
            Builtin::Pnp
        } else {
            Builtin::Npn
        }
    }

    /// The built-in for a parsed `R`/`C`/`L` kind; `None` for any other
    /// kind a caller put in a hand-built card.
    fn two_terminal(kind: &str) -> Option<Self> {
        match kind {
            "res" => Some(Builtin::Res),
            "cap" => Some(Builtin::Cap),
            "ind" => Some(Builtin::Ind),
            _ => None,
        }
    }

    fn device_type(self) -> DeviceType {
        match self {
            Builtin::Nmos => DeviceType::mos("nmos"),
            Builtin::Pmos => DeviceType::mos("pmos"),
            Builtin::Res => DeviceType::two_terminal("res"),
            Builtin::Cap => DeviceType::two_terminal("cap"),
            Builtin::Ind => DeviceType::two_terminal("ind"),
            Builtin::Npn => DeviceType::bjt("npn"),
            Builtin::Pnp => DeviceType::bjt("pnp"),
        }
    }
}

/// A netlist under construction, with what elaboration already knows
/// about it: which built-in types it holds and which nets' global flag
/// is settled.
struct Target {
    nl: Netlist,
    builtins: [Option<DeviceTypeId>; Builtin::COUNT],
    /// By net id: whether a card already named the net, so its global
    /// flag is decided.
    named: Vec<bool>,
}

impl Target {
    fn new(name: impl Into<String>) -> Self {
        Self {
            nl: Netlist::new(name),
            builtins: [None; Builtin::COUNT],
            named: Vec::new(),
        }
    }

    /// The id of a built-in type, registered on first use.
    fn builtin(&mut self, b: Builtin) -> Result<DeviceTypeId, SpiceError> {
        if let Some(id) = self.builtins[b as usize] {
            return Ok(id);
        }
        let id = self.nl.add_type(b.device_type())?;
        self.builtins[b as usize] = Some(id);
        Ok(id)
    }

    /// The net `name`, marked global the first time a card names it if
    /// it is in `globals` (marking is idempotent and never undone, so
    /// deciding once equals deciding on every reference).
    fn net(&mut self, globals: &HashSet<String>, name: &str) -> NetId {
        let id = self.nl.net(name);
        let i = id.index();
        if i >= self.named.len() {
            self.named.resize(self.nl.net_count(), false);
        }
        if !self.named[i] {
            self.named[i] = true;
            if globals.contains(name) {
                self.nl.mark_global(id);
            }
        }
        id
    }
}

struct Elaborator<'a> {
    subckts: HashMap<&'a str, &'a SubcktDef>,
    opts: &'a ElaborateOptions,
    globals: HashSet<String>,
    /// Memoized fully-elaborated cell netlists (flatten mode).
    cells: HashMap<String, Netlist>,
    /// Cycle-detection stack.
    visiting: Vec<String>,
}

impl<'a> Elaborator<'a> {
    fn new(doc: &'a SpiceDoc, opts: &'a ElaborateOptions) -> Self {
        let mut globals: HashSet<String> =
            doc.globals.iter().map(|s| s.to_ascii_lowercase()).collect();
        globals.extend(opts.implicit_globals.iter().map(|s| s.to_ascii_lowercase()));
        Self {
            subckts: doc.subckt_index(),
            opts,
            globals,
            cells: HashMap::new(),
            visiting: Vec::new(),
        }
    }

    fn add_card(&mut self, t: &mut Target, card: &Card) -> Result<(), SpiceError> {
        let g = &self.globals;
        match card {
            Card::Mos {
                name,
                drain,
                gate,
                source,
                model,
            } => {
                let ty = t.builtin(Builtin::mos(model))?;
                let pins = [t.net(g, gate), t.net(g, source), t.net(g, drain)];
                t.nl.add_device(name.clone(), ty, &pins)?;
            }
            Card::TwoTerminal { name, kind, a, b } => {
                let ty = match Builtin::two_terminal(kind) {
                    Some(b) => t.builtin(b)?,
                    None => t.nl.add_type(DeviceType::two_terminal(*kind))?,
                };
                let pins = [t.net(g, a), t.net(g, b)];
                t.nl.add_device(name.clone(), ty, &pins)?;
            }
            Card::Diode { name, p, n, model } => {
                let tyname = if model.is_empty() {
                    "diode".to_string()
                } else {
                    format!("diode:{model}")
                };
                let ty = t.nl.add_type(DeviceType::polarized(tyname))?;
                let pins = [t.net(g, p), t.net(g, n)];
                t.nl.add_device(name.clone(), ty, &pins)?;
            }
            Card::Bjt {
                name,
                c,
                b,
                e,
                model,
                ..
            } => {
                let ty = t.builtin(Builtin::bjt(model))?;
                let pins = [t.net(g, c), t.net(g, b), t.net(g, e)];
                t.nl.add_device(name.clone(), ty, &pins)?;
            }
            Card::Instance { name, nets, subckt } => {
                if self.opts.flatten {
                    let key = self.build_cell(subckt)?;
                    let (cell, g) = (&self.cells[&*key], &self.globals);
                    let bindings: Vec<_> = nets.iter().map(|n| t.net(g, n)).collect();
                    instantiate(&mut t.nl, cell, name, &bindings)?;
                } else {
                    let def = *self.subckts.get(subckt.as_str()).ok_or_else(|| {
                        SpiceError::UnknownSubckt {
                            name: subckt.clone(),
                        }
                    })?;
                    let terms = def
                        .ports
                        .iter()
                        .map(|p| TerminalSpec::new(p.clone(), p.clone()))
                        .collect();
                    let ty = t.nl.add_type(
                        DeviceType::try_new(def.name.clone(), terms)
                            .map_err(|detail| SpiceError::Parse { line: 0, detail })?,
                    )?;
                    if nets.len() != def.ports.len() {
                        return Err(SpiceError::Parse {
                            line: 0,
                            detail: format!(
                                "instance `{name}` has {} nets, subckt `{}` has {} ports",
                                nets.len(),
                                def.name,
                                def.ports.len()
                            ),
                        });
                    }
                    let pins: Vec<_> = nets.iter().map(|n| t.net(g, n)).collect();
                    t.nl.add_device(name.clone(), ty, &pins)?;
                }
            }
        }
        Ok(())
    }

    /// Fully elaborates a subcircuit into a memoized cell netlist
    /// (ports marked); returns its key in `cells`.
    fn build_cell<'n>(&mut self, name: &'n str) -> Result<Cow<'n, str>, SpiceError> {
        let name = lowercase(name);
        if self.cells.contains_key(&*name) {
            return Ok(name);
        }
        if self.visiting.iter().any(|v| *v == *name) {
            return Err(SpiceError::RecursiveSubckt {
                name: name.into_owned(),
            });
        }
        let def = *self
            .subckts
            .get(&*name)
            .ok_or_else(|| SpiceError::UnknownSubckt {
                name: name.to_string(),
            })?;
        self.visiting.push(name.to_string());
        let mut t = Target::new(def.name.clone());
        for p in &def.ports {
            let id = t.net(&self.globals, p);
            t.nl.mark_port(id);
        }
        for card in &def.cards {
            self.add_card(&mut t, card)?;
        }
        self.visiting.pop();
        self.cells.insert(name.to_string(), t.nl);
        Ok(name)
    }
}

impl SpiceDoc {
    /// Elaborates the top-level cards into a netlist named `name`.
    ///
    /// # Errors
    ///
    /// Fails on unknown/recursive subcircuits or netlist construction
    /// problems.
    ///
    /// # Examples
    ///
    /// ```
    /// let doc = subgemini_spice::parse(
    ///     ".subckt inv a y\nMp y a vdd vdd p\nMn y a gnd gnd n\n.ends\n\
    ///      Xu1 in mid inv\nXu2 mid out inv\n",
    /// )?;
    /// let nl = doc.elaborate_top("buf", &Default::default())?;
    /// assert_eq!(nl.device_count(), 4);
    /// # Ok::<(), subgemini_spice::SpiceError>(())
    /// ```
    pub fn elaborate_top(
        &self,
        name: &str,
        opts: &ElaborateOptions,
    ) -> Result<Netlist, SpiceError> {
        let mut el = Elaborator::new(self, opts);
        let mut t = Target::new(name);
        for card in &self.top {
            el.add_card(&mut t, card)?;
        }
        Ok(t.nl)
    }

    /// Elaborates the subcircuit `name` into a standalone cell netlist
    /// with its ports marked — the natural way to obtain a SubGemini
    /// *pattern*.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownCell`] if no such subcircuit exists,
    /// otherwise as [`SpiceDoc::elaborate_top`].
    pub fn elaborate_cell(
        &self,
        name: &str,
        opts: &ElaborateOptions,
    ) -> Result<Netlist, SpiceError> {
        if self.subckt(name).is_none() {
            return Err(SpiceError::UnknownCell {
                name: name.to_string(),
            });
        }
        let mut el = Elaborator::new(self, opts);
        let key = el.build_cell(name)?.into_owned();
        Ok(el.cells.remove(&key).expect("build_cell memoizes the cell"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const DECK: &str = "\
.global vdd gnd
.subckt inv a y
Mp y a vdd vdd pch
Mn y a gnd gnd nch
.ends
.subckt buf a y
Xi1 a m inv
Xi2 m y inv
.ends
Xu1 in out buf
R1 out 0 10k
";

    #[test]
    fn flatten_recurses_through_hierarchy() {
        let doc = parse(DECK).unwrap();
        let nl = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(nl.device_count(), 5); // 4 MOS + 1 R
        assert!(nl.find_device("xu1.xi1.mp").is_some());
        assert!(nl.find_net("xu1.m").is_some());
        let vdd = nl.find_net("vdd").unwrap();
        assert!(nl.net_ref(vdd).is_global());
        assert_eq!(nl.net_ref(vdd).degree(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn hierarchical_mode_keeps_composites() {
        let doc = parse(DECK).unwrap();
        let nl = doc
            .elaborate_top("chip", &ElaborateOptions::hierarchical())
            .unwrap();
        assert_eq!(nl.device_count(), 2); // Xu1 composite + R1
        let x = nl.find_device("xu1").unwrap();
        assert_eq!(nl.device_type_of(x).name(), "buf");
        assert_eq!(nl.device_type_of(x).terminal_count(), 2);
    }

    #[test]
    fn hand_built_two_terminal_cards_keep_their_kind() {
        let mut doc = parse("R1 a b 1\nL1 a b 1\n").unwrap();
        doc.top.push(Card::TwoTerminal {
            name: "v1".into(),
            kind: "vsrc",
            a: "a".into(),
            b: "0".into(),
        });
        let nl = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap();
        let ty = |dev: &str| nl.device_type_of(nl.find_device(dev).unwrap());
        assert_eq!(ty("r1").name(), "res");
        assert_eq!(ty("l1").name(), "ind");
        assert_eq!(ty("v1").name(), "vsrc");
        assert_eq!(ty("v1").terminal_count(), 2);
    }

    #[test]
    fn elaborate_cell_marks_ports() {
        let doc = parse(DECK).unwrap();
        let inv = doc
            .elaborate_cell("inv", &ElaborateOptions::default())
            .unwrap();
        assert_eq!(inv.device_count(), 2);
        assert_eq!(inv.ports().len(), 2);
        assert_eq!(inv.net_ref(inv.ports()[0]).name(), "a");
        // Globals inside the cell are marked.
        assert!(inv.net_ref(inv.find_net("vdd").unwrap()).is_global());
    }

    #[test]
    fn unknown_subckt_reported() {
        let doc = parse("Xu1 a b nosuch\n").unwrap();
        let err = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownSubckt { name } if name == "nosuch"));
    }

    #[test]
    fn recursive_subckt_reported() {
        let doc = parse(".subckt a x\nXq x a\n.ends\nXu1 n a\n").unwrap();
        let err = doc
            .elaborate_top("chip", &ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::RecursiveSubckt { .. }));
    }

    #[test]
    fn unknown_cell_reported() {
        let doc = parse(DECK).unwrap();
        let err = doc
            .elaborate_cell("nand9", &ElaborateOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownCell { .. }));
    }

    #[test]
    fn net_zero_is_global_by_default() {
        let doc = parse("R1 a 0 1k\n").unwrap();
        let nl = doc
            .elaborate_top("t", &ElaborateOptions::default())
            .unwrap();
        let zero = nl.find_net("0").unwrap();
        assert!(nl.net_ref(zero).is_global());
    }
}
