//! Filesystem front end: parsing decks with `.include` resolution.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::error::SpiceError;
use crate::parse::{parse, SpiceDoc};

/// Reads a deck from disk, textually splicing `.include "file"` /
/// `.inc` / `.lib` directives (paths resolve relative to the including
/// file), then parses the result.
///
/// # Errors
///
/// * I/O failures are reported as [`SpiceError::Parse`] with the path
///   in the message.
/// * Circular includes are detected and rejected.
/// * Everything [`parse`] rejects. Its line numbers count lines of the
///   file the error is in; an error inside an included file names that
///   file at the start of the detail.
///
/// # Examples
///
/// ```no_run
/// let doc = subgemini_spice::parse_file("designs/chip.sp")?;
/// println!("{} subcircuits", doc.subckts.len());
/// # Ok::<(), subgemini_spice::SpiceError>(())
/// ```
pub fn parse_file(path: impl AsRef<Path>) -> Result<SpiceDoc, SpiceError> {
    let path = path.as_ref();
    let mut splicer = Splicer::default();
    let canonical = splicer.enter(path)?;
    let text = read(path, &canonical)?;
    splicer.splice(path, &canonical, &text, 0)?;
    parse(&splicer.out).map_err(|e| splicer.locate(e))
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> SpiceError {
    SpiceError::Parse {
        line: 0,
        detail: format!("{}: {e}", path.display()),
    }
}

fn read(path: &Path, canonical: &Path) -> Result<String, SpiceError> {
    std::fs::read_to_string(canonical).map_err(|e| io_err(path, e))
}

/// True for a trimmed line that is an include directive, compared
/// case-insensitively in place (`.include…`, `.inc `, `.lib `).
fn is_include(trimmed: &str) -> bool {
    let starts = |prefix: &str| {
        trimmed
            .get(..prefix.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
    };
    starts(".include") || starts(".inc ") || starts(".lib ")
}

/// A run of spliced lines copied from one file.
struct Segment {
    /// First spliced line (1-based) of the run.
    first: usize,
    /// Index into [`Splicer::files`]; 0 is the file `parse_file` opened.
    file: usize,
    /// The line in that file the run starts at.
    line: usize,
}

/// One spliced copy of a file.
struct Spliced {
    path: PathBuf,
    /// The line of the include directive in the opened file that
    /// brought this copy in, directly or through nested includes; 0 for
    /// the opened file itself.
    directive: usize,
}

/// Textual include expansion that remembers where each spliced line
/// came from, so parse errors can name the original file and line.
#[derive(Default)]
struct Splicer {
    visiting: HashSet<PathBuf>,
    out: String,
    /// Lines written to `out` so far.
    lines: usize,
    files: Vec<Spliced>,
    segments: Vec<Segment>,
}

impl Splicer {
    /// Marks `path` as being expanded; fails on a circular include.
    fn enter(&mut self, path: &Path) -> Result<PathBuf, SpiceError> {
        let canonical = path.canonicalize().map_err(|e| io_err(path, e))?;
        if !self.visiting.insert(canonical.clone()) {
            return Err(SpiceError::Parse {
                line: 0,
                detail: format!("circular include of {}", path.display()),
            });
        }
        Ok(canonical)
    }

    /// Appends one line of `file` (its line `line`) to the output.
    fn push_line(&mut self, file: usize, line: usize, text: &str) {
        self.lines += 1;
        let continues = self
            .segments
            .last()
            .is_some_and(|s| s.file == file && s.line + (self.lines - s.first) == line);
        if !continues {
            self.segments.push(Segment {
                first: self.lines,
                file,
                line,
            });
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Appends `text` (the contents of `path`), expanding its includes
    /// recursively; paths resolve relative to the including file.
    /// `directive` is as in [`Spliced`].
    fn splice(
        &mut self,
        path: &Path,
        canonical: &Path,
        text: &str,
        directive: usize,
    ) -> Result<(), SpiceError> {
        let file = self.files.len();
        self.files.push(Spliced {
            path: path.to_path_buf(),
            directive,
        });
        let base = canonical
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if !is_include(trimmed) {
                self.push_line(file, i + 1, line);
                continue;
            }
            let arg = trimmed
                .split_whitespace()
                .nth(1)
                .ok_or_else(|| SpiceError::Parse {
                    line: i + 1,
                    detail: format!("{}: .include needs a path", path.display()),
                })?
                .trim_matches(['"', '\'']);
            let child = base.join(arg);
            let child_canonical = self.enter(&child)?;
            let child_text = read(&child, &child_canonical)?;
            let directive = if file == 0 { i + 1 } else { directive };
            self.splice(&child, &child_canonical, &child_text, directive)?;
            self.visiting.remove(&child_canonical);
            // The directive's own line becomes a blank line.
            self.push_line(file, i + 1, "");
        }
        Ok(())
    }

    /// Maps a spliced line number back to `(file, line)`; line 0 (no
    /// position) stays as it is.
    fn origin(&self, spliced: usize) -> (usize, usize) {
        if spliced == 0 {
            return (0, 0);
        }
        let at = self.segments.partition_point(|s| s.first <= spliced);
        let s = &self.segments[at - 1];
        (s.file, s.line + (spliced - s.first))
    }

    /// Rewrites a parse error's spliced line number to the line in its
    /// own file. Errors inside an included file name that file first in
    /// the detail. An `UnmatchedEnds` has no detail to name a file in,
    /// so inside an included file it reports the opened file's include
    /// directive that brought the `.ends` in.
    fn locate(&self, err: SpiceError) -> SpiceError {
        match err {
            SpiceError::Parse { line, detail } => {
                let (file, line) = self.origin(line);
                let detail = match file {
                    0 => detail,
                    f => format!("{}: {detail}", self.files[f].path.display()),
                };
                SpiceError::Parse { line, detail }
            }
            SpiceError::UnmatchedEnds { line } => {
                let (file, line) = self.origin(line);
                let line = match file {
                    0 => line,
                    f => self.files[f].directive,
                };
                SpiceError::UnmatchedEnds { line }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spice_inc_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn includes_are_spliced_relative_to_includer() {
        let dir = scratch("basic");
        fs::create_dir_all(dir.join("lib")).unwrap();
        fs::write(
            dir.join("lib/cells.sp"),
            ".subckt inv a y\nmp y a vdd vdd pmos\nmn y a gnd gnd nmos\n.ends\n",
        )
        .unwrap();
        fs::write(
            dir.join("top.sp"),
            "* top\n.include \"lib/cells.sp\"\nXu1 in out inv\n",
        )
        .unwrap();
        let doc = parse_file(dir.join("top.sp")).unwrap();
        assert_eq!(doc.subckts.len(), 1);
        assert_eq!(doc.top.len(), 1);
    }

    #[test]
    fn nested_includes_work() {
        let dir = scratch("nested");
        fs::write(dir.join("c.sp"), "R3 a b 1\n").unwrap();
        fs::write(dir.join("b.sp"), "R2 a b 1\n.include c.sp\n").unwrap();
        fs::write(dir.join("a.sp"), "R1 a b 1\n.include b.sp\n").unwrap();
        let doc = parse_file(dir.join("a.sp")).unwrap();
        assert_eq!(doc.top.len(), 3);
    }

    #[test]
    fn circular_include_detected() {
        let dir = scratch("circular");
        fs::write(dir.join("x.sp"), ".include y.sp\n").unwrap();
        fs::write(dir.join("y.sp"), ".include x.sp\n").unwrap();
        let err = parse_file(dir.join("x.sp")).unwrap_err();
        assert!(err.to_string().contains("circular"), "{err}");
    }

    #[test]
    fn missing_file_reported_with_path() {
        let dir = scratch("missing");
        fs::write(dir.join("top.sp"), ".include nope.sp\n").unwrap();
        let err = parse_file(dir.join("top.sp")).unwrap_err();
        assert!(err.to_string().contains("nope.sp"), "{err}");
    }

    #[test]
    fn diamond_includes_are_allowed() {
        // a includes b and c; both include d. Not circular.
        let dir = scratch("diamond");
        fs::write(dir.join("d.sp"), "R9 x y 1\n").unwrap();
        fs::write(dir.join("b.sp"), ".include d.sp\n").unwrap();
        fs::write(dir.join("c.sp"), ".include d.sp\n").unwrap();
        fs::write(dir.join("a.sp"), ".include b.sp\n.include c.sp\n").unwrap();
        let doc = parse_file(dir.join("a.sp"));
        // R9 appears twice -> duplicate device name error from
        // elaboration would come later; parsing itself must succeed.
        assert!(doc.is_ok(), "{doc:?}");
    }

    #[test]
    fn errors_after_an_include_report_the_files_own_line() {
        let dir = scratch("lines_after");
        fs::write(dir.join("child.sp"), "R1a a b 1\nR1b a b 1\nR1c a b 1\n").unwrap();
        fs::write(
            dir.join("top.sp"),
            "* top\n.include child.sp\nR1 x y 1\nMbad a b\n",
        )
        .unwrap();
        let err = parse_file(dir.join("top.sp")).unwrap_err();
        // Line 4 of top.sp, not line 7 of the spliced text; an error in
        // the top file keeps the message it has without includes.
        assert_eq!(
            err,
            SpiceError::Parse {
                line: 4,
                detail: "MOS card `mbad` is too short".into()
            }
        );
    }

    #[test]
    fn errors_inside_an_include_name_that_file_and_line() {
        let dir = scratch("lines_inside");
        fs::write(dir.join("c.sp"), "* c\nR3 a b 1\nQbad c b\n").unwrap();
        fs::write(dir.join("b.sp"), "R2 a b 1\n.INCLUDE c.sp\n").unwrap();
        fs::write(dir.join("a.sp"), "* a\n\n.inc b.sp\nR1 a b 1\n").unwrap();
        match parse_file(dir.join("a.sp")).unwrap_err() {
            SpiceError::Parse { line, detail } => {
                assert_eq!(line, 3);
                let c = dir.join("c.sp");
                assert!(
                    detail.starts_with(&format!("{}: ", c.display())),
                    "{detail}"
                );
                assert!(detail.ends_with("needs c b e and a model"), "{detail}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // An error after a nested include maps back to the includer.
        fs::write(dir.join("a.sp"), "* a\n.inc b.sp\nR1 a b 1\n.ends\n").unwrap();
        fs::write(dir.join("c.sp"), "R3 a b 1\n").unwrap();
        let err = parse_file(dir.join("a.sp")).unwrap_err();
        assert_eq!(err, SpiceError::UnmatchedEnds { line: 4 });
    }

    #[test]
    fn unmatched_ends_inside_an_include_reports_the_opened_files_directive() {
        let dir = scratch("ends_inside");
        fs::write(dir.join("c.sp"), "R3 a b 1\n.ends\n").unwrap();
        fs::write(dir.join("b.sp"), "R2 a b 1\n\n.include c.sp\n").unwrap();
        fs::write(dir.join("a.sp"), "* a\nR1 a b 1\n.inc b.sp\nR4 a b 1\n").unwrap();
        // The `.ends` is line 2 of c.sp, reached from b.sp line 3; the
        // error names line 3 of a.sp, the directive that brought it in.
        let err = parse_file(dir.join("a.sp")).unwrap_err();
        assert_eq!(err, SpiceError::UnmatchedEnds { line: 3 });
        fs::write(dir.join("b.sp"), ".ends\n").unwrap();
        fs::write(dir.join("a.sp"), ".inc b.sp\n").unwrap();
        let err = parse_file(dir.join("a.sp")).unwrap_err();
        assert_eq!(err, SpiceError::UnmatchedEnds { line: 1 });
    }

    #[test]
    fn continuation_spanning_an_include_boundary_keeps_its_first_line() {
        let dir = scratch("lines_continued");
        fs::write(dir.join("child.sp"), "R7 a b 1\n").unwrap();
        fs::write(dir.join("top.sp"), ".include child.sp\n\nMbad a\n+ b\n").unwrap();
        let err = parse_file(dir.join("top.sp")).unwrap_err();
        assert!(matches!(err, SpiceError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn include_detection_ignores_case_and_needs_the_separator() {
        assert!(is_include(".include x.sp"));
        assert!(is_include(".INCLUDE x.sp"));
        assert!(is_include(".Inc x.sp"));
        assert!(is_include(".LIB x.sp"));
        assert!(!is_include(".inc"));
        assert!(!is_include(".library x"));
        assert!(!is_include(".global vdd"));
        assert!(!is_include("* .include x.sp"));
        assert!(!is_include("é"));
    }

    #[test]
    fn inline_parse_rejects_unresolved_includes() {
        let err = parse(".include foo.sp\n").unwrap_err();
        assert!(err.to_string().contains("parse_file"), "{err}");
    }
}
