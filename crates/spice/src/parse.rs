//! Line-oriented parser for the supported SPICE subset.
//!
//! Supported syntax:
//!
//! * element cards `M`, `R`, `C`, `L`, `D`, `Q`, `X` (names and nets are
//!   case-insensitive; everything is lowercased),
//! * `.subckt NAME port…` / `.ends`, `.global net…`, `.end`,
//! * `*` comment lines, `;`/`$` trailing comments, `+` continuations,
//! * `k=v` parameter tokens and trailing numeric values are skipped.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::card::{Card, SubcktDef};
use crate::error::SpiceError;

/// A parsed SPICE deck: top-level cards, subcircuit definitions, and
/// global net declarations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpiceDoc {
    /// Title line, if the deck began with a non-card line.
    pub title: Option<String>,
    /// Cards outside any `.subckt`.
    pub top: Vec<Card>,
    /// Subcircuit definitions in file order.
    pub subckts: Vec<SubcktDef>,
    /// Nets declared `.global`.
    pub globals: Vec<String>,
}

impl SpiceDoc {
    /// Looks up a subcircuit definition by (case-insensitive) name.
    pub fn subckt(&self, name: &str) -> Option<&SubcktDef> {
        let name = lowercase(name);
        self.subckts.iter().find(|s| s.name == *name)
    }

    /// Map from subcircuit name to definition.
    pub(crate) fn subckt_index(&self) -> HashMap<&str, &SubcktDef> {
        self.subckts.iter().map(|s| (s.name.as_str(), s)).collect()
    }
}

/// Logical lines of a deck: blank lines and `*` comment lines are
/// dropped, trailing `;`/`$` comments cut, and `+` continuations joined
/// onto the preceding logical line. Yields `(first_line_number, text)`;
/// the text borrows the deck unless a continuation forced a join.
struct LogicalLines<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// The start of the next logical line, read while looking for
    /// continuations of the current one.
    pending: Option<(usize, &'a str)>,
}

impl<'a> LogicalLines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().enumerate(),
            pending: None,
        }
    }

    /// The next physical line with content, comments stripped and
    /// trimmed.
    fn next_content(&mut self) -> Option<(usize, &'a str)> {
        for (i, raw) in &mut self.lines {
            let line = match raw.find([';', '$']) {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let trimmed = line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('*') {
                return Some((i + 1, trimmed));
            }
        }
        None
    }
}

impl<'a> Iterator for LogicalLines<'a> {
    type Item = (usize, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        let (lineno, first) = match self.pending.take() {
            Some(start) => start,
            None => self.next_content()?,
        };
        let mut joined: Option<String> = None;
        while let Some((n, text)) = self.next_content() {
            match text.strip_prefix('+') {
                Some(rest) => {
                    let j = joined.get_or_insert_with(|| first.to_string());
                    j.push(' ');
                    j.push_str(rest.trim());
                }
                None => {
                    self.pending = Some((n, text));
                    break;
                }
            }
        }
        Some((lineno, joined.map_or(Cow::Borrowed(first), Cow::Owned)))
    }
}

/// A token or name lowercased, borrowed when it already is.
pub(crate) fn lowercase(tok: &str) -> Cow<'_, str> {
    if tok.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(tok.to_ascii_lowercase())
    } else {
        Cow::Borrowed(tok)
    }
}

/// Moves a token out as an owned `String` (allocating only if it was
/// borrowed).
fn take(tok: &mut Cow<'_, str>) -> String {
    std::mem::take(tok).into_owned()
}

/// True for tokens we ignore: `k=v` parameters and bare numeric values
/// (`10k`, `2.5u`, `1e-9`).
fn is_param_or_value(tok: &str) -> bool {
    if tok.contains('=') {
        return true;
    }
    tok.chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit() || c == '.' || c == '-' || c == '+')
}

fn parse_err(line: usize, detail: impl Into<String>) -> SpiceError {
    SpiceError::Parse {
        line,
        detail: detail.into(),
    }
}

/// Builds the card for `toks` (name first). Tokens are moved into the
/// card, so `toks` is only consumed on success.
fn parse_card(line: usize, toks: &mut [Cow<'_, str>]) -> Result<Card, SpiceError> {
    let (name_tok, rest) = toks.split_first_mut().expect("a logical line has a token");
    let kind = name_tok.chars().next().expect("token is non-empty");
    // Nets/model tokens: everything after the name that is not a
    // parameter or trailing value.
    let nargs = rest.iter().take_while(|t| !t.contains('=')).count();
    let args = &mut rest[..nargs];
    let name: &str = name_tok;
    match kind {
        'm' => {
            // M d g s [b] model — bulk present when ≥5 structural args.
            let model = match nargs {
                0..=2 => return Err(parse_err(line, format!("MOS card `{name}` is too short"))),
                3 => return Err(parse_err(line, format!("MOS card `{name}` lacks a model"))),
                4 => 3,
                _ => 4, // 4-terminal form: skip the bulk node
            };
            Ok(Card::Mos {
                name: take(name_tok),
                drain: take(&mut args[0]),
                gate: take(&mut args[1]),
                source: take(&mut args[2]),
                model: take(&mut args[model]),
            })
        }
        'r' | 'c' | 'l' => {
            if nargs < 2 {
                return Err(parse_err(line, format!("card `{name}` needs two nets")));
            }
            let kind = match kind {
                'r' => "res",
                'c' => "cap",
                _ => "ind",
            };
            Ok(Card::TwoTerminal {
                name: take(name_tok),
                kind,
                a: take(&mut args[0]),
                b: take(&mut args[1]),
            })
        }
        'd' => {
            if nargs < 2 {
                return Err(parse_err(line, format!("diode `{name}` needs two nets")));
            }
            let model = match args.get_mut(2) {
                Some(t) if !is_param_or_value(t) => take(t),
                _ => String::new(),
            };
            Ok(Card::Diode {
                name: take(name_tok),
                p: take(&mut args[0]),
                n: take(&mut args[1]),
                model,
            })
        }
        'q' => {
            if nargs < 4 {
                return Err(parse_err(
                    line,
                    format!("BJT `{name}` needs c b e and a model"),
                ));
            }
            // Optional substrate node: model is the last non-value token.
            Ok(Card::Bjt {
                name: take(name_tok),
                model: take(&mut args[nargs - 1]),
                c: take(&mut args[0]),
                b: take(&mut args[1]),
                e: take(&mut args[2]),
            })
        }
        'x' => {
            if nargs < 2 {
                return Err(parse_err(
                    line,
                    format!("instance `{name}` needs nets and a subcircuit name"),
                ));
            }
            let (subckt, nets) = args.split_last_mut().expect("nargs >= 2");
            Ok(Card::Instance {
                name: take(name_tok),
                nets: nets.iter_mut().map(take).collect(),
                subckt: take(subckt),
            })
        }
        other => Err(parse_err(line, format!("unsupported element `{other}`"))),
    }
}

/// Parses a SPICE deck from text.
///
/// # Errors
///
/// Returns a [`SpiceError`] describing the first syntactic problem, with
/// its source line.
///
/// # Examples
///
/// ```
/// let doc = subgemini_spice::parse(
///     "* tiny deck\n\
///      .global vdd gnd\n\
///      .subckt inv a y\n\
///      Mp y a vdd vdd pch W=2u\n\
///      Mn y a gnd gnd nch\n\
///      .ends\n\
///      Xu1 in out inv\n",
/// )?;
/// assert_eq!(doc.subckts.len(), 1);
/// assert_eq!(doc.top.len(), 1);
/// assert_eq!(doc.globals, vec!["vdd", "gnd"]);
/// # Ok::<(), subgemini_spice::SpiceError>(())
/// ```
pub fn parse(text: &str) -> Result<SpiceDoc, SpiceError> {
    let mut doc = SpiceDoc::default();
    let mut current: Option<SubcktDef> = None;
    let mut toks = Vec::new();
    for (idx, (lineno, line)) in LogicalLines::new(text).enumerate() {
        // Tokens borrow the deck; a line a continuation joined is owned,
        // and so are its tokens.
        toks.clear();
        match &line {
            Cow::Borrowed(text) => toks.extend(text.split_whitespace().map(lowercase)),
            Cow::Owned(text) => toks.extend(
                text.split_whitespace()
                    .map(|t| Cow::Owned(t.to_ascii_lowercase())),
            ),
        }
        if toks[0].starts_with('.') {
            let head = take(&mut toks[0]);
            match head.as_str() {
                ".subckt" => {
                    if current.is_some() {
                        return Err(parse_err(lineno, "nested .subckt is not supported"));
                    }
                    if toks.len() < 2 {
                        return Err(parse_err(lineno, ".subckt needs a name"));
                    }
                    current = Some(SubcktDef {
                        name: take(&mut toks[1]),
                        ports: toks[2..]
                            .iter_mut()
                            .filter(|t| !t.contains('='))
                            .map(take)
                            .collect(),
                        cards: Vec::new(),
                    });
                }
                ".ends" => match current.take() {
                    Some(def) => doc.subckts.push(def),
                    None => return Err(SpiceError::UnmatchedEnds { line: lineno }),
                },
                ".global" => doc.globals.extend(toks[1..].iter_mut().map(take)),
                ".end" => break,
                ".include" | ".inc" | ".lib" => {
                    return Err(parse_err(
                        lineno,
                        "includes must be resolved first; use parse_file for on-disk decks",
                    ));
                }
                _ => {} // .model, .param, .option, analyses: ignored
            }
            continue;
        }
        // A first logical line that does not parse as a card is the
        // traditional SPICE title line.
        let card = match parse_card(lineno, &mut toks) {
            Ok(card) => card,
            Err(_) if idx == 0 && lineno == 1 => {
                doc.title = Some(line.into_owned());
                continue;
            }
            Err(e) => return Err(e),
        };
        match &mut current {
            Some(def) => def.cards.push(card),
            None => doc.top.push(card),
        }
    }
    if let Some(def) = current {
        return Err(SpiceError::UnclosedSubckt { name: def.name });
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_continuations_and_title() {
        let doc = parse(
            "my amazing chip\n\
             * a comment\n\
             Mn1 out in\n\
             + gnd gnd nch W=2u ; trailing\n",
        )
        .unwrap();
        assert_eq!(doc.title.as_deref(), Some("my amazing chip"));
        assert_eq!(doc.top.len(), 1);
        match &doc.top[0] {
            Card::Mos {
                drain,
                gate,
                source,
                model,
                ..
            } => {
                assert_eq!(drain, "out");
                assert_eq!(gate, "in");
                assert_eq!(source, "gnd");
                assert_eq!(model, "nch");
            }
            other => panic!("unexpected card {other:?}"),
        }
    }

    #[test]
    fn mos_with_bulk_node() {
        let doc = parse("Mp1 y a vdd vdd pch\n").unwrap();
        match &doc.top[0] {
            Card::Mos { model, source, .. } => {
                assert_eq!(model, "pch");
                assert_eq!(source, "vdd");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rc_cards_skip_values() {
        let doc = parse("R1 a b 10k\nC2 b 0 1p\n").unwrap();
        assert_eq!(doc.top.len(), 2);
        assert!(matches!(&doc.top[0], Card::TwoTerminal { kind: "res", .. }));
        assert!(matches!(&doc.top[1], Card::TwoTerminal { kind: "cap", .. }));
    }

    #[test]
    fn subckt_blocks_collect_cards() {
        let doc =
            parse(".subckt inv a y\nMp y a vdd vdd p\nMn y a gnd gnd n\n.ends\nXi1 x z inv\n")
                .unwrap();
        assert_eq!(doc.subckts.len(), 1);
        let inv = doc.subckt("INV").unwrap();
        assert_eq!(inv.ports, vec!["a", "y"]);
        assert_eq!(inv.cards.len(), 2);
        match &doc.top[0] {
            Card::Instance { nets, subckt, .. } => {
                assert_eq!(nets, &["x", "z"]);
                assert_eq!(subckt, "inv");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn diode_and_bjt() {
        let doc = parse("D1 anode cathode dfast\nQ3 c b e npn\n").unwrap();
        assert!(matches!(&doc.top[0], Card::Diode { model, .. } if model == "dfast"));
        assert!(matches!(&doc.top[1], Card::Bjt { model, .. } if model == "npn"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("* ok\nMbad a b\n").unwrap_err();
        match err {
            SpiceError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unclosed_subckt_detected() {
        let err = parse(".subckt inv a y\nMn y a gnd gnd n\n").unwrap_err();
        assert!(matches!(err, SpiceError::UnclosedSubckt { name } if name == "inv"));
    }

    #[test]
    fn unmatched_ends_detected() {
        let err = parse("Mn y a gnd gnd n\n.ends\n").unwrap_err();
        assert!(matches!(err, SpiceError::UnmatchedEnds { line: 2 }));
    }

    #[test]
    fn dot_end_stops_parsing() {
        let doc = parse("R1 a b 1\n.end\nR2 c d 2\n").unwrap();
        assert_eq!(doc.top.len(), 1);
    }

    #[test]
    fn unknown_element_rejected() {
        let err = parse("Zap a b c\n* not a title because of second line rule\n");
        // First line is treated as title; an element on line 2 that is
        // unknown must error.
        assert!(err.is_ok());
        let err = parse("R1 a b\nZap a b c\n").unwrap_err();
        assert!(matches!(err, SpiceError::Parse { line: 2, .. }));
    }
}
