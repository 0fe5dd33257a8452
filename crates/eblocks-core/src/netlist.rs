//! Plain-text netlist serialization for [`Design`]s.
//!
//! The format is line-oriented and human-editable, standing in for the
//! paper's GUI capture tool as a storage format:
//!
//! ```text
//! eblocks-netlist v1
//! design garage-open-at-night
//! block door sensor:contact
//! block light sensor:light
//! block inv compute:not
//! block both compute:logic2:AND
//! block led output:led
//! wire door.0 -> both.0
//! wire light.0 -> inv.0
//! wire inv.0 -> both.1
//! wire both.0 -> led.0
//! ```
//!
//! `#` starts a comment; blank lines are ignored. Kind tokens match
//! [`BlockKind`]'s `Display` output.
//!
//! The leading `eblocks-netlist v<N>` header versions the format so
//! external tools can detect incompatible future revisions. Parsing accepts
//! headerless files (everything written before the header existed) as
//! version 1; an unknown version is a parse error.

use crate::design::Design;
use crate::error::DesignError;
use crate::kind::{BlockKind, CommKind, ComputeKind, OutputKind, ProgrammableSpec, SensorKind};
use std::collections::BTreeMap;

/// The format version [`to_netlist`] writes.
pub const NETLIST_VERSION: u32 = 1;

/// The byte range of one netlist line, including its trailing newline (if
/// present), plus its 1-based line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSpan {
    /// Byte offset of the line's first character.
    pub start: usize,
    /// Byte offset one past the line (past the `\n` when there is one), so
    /// deleting `start..end` removes the whole line.
    pub end: usize,
    /// 1-based line number.
    pub line: usize,
}

/// Byte spans of netlist entities, produced by [`from_netlist_spanned`].
///
/// Tools that edit netlist text mechanically (the linter's fixes) look up
/// the line that declared a block or wire by name instead of re-parsing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetlistSpans {
    /// Block name → span of its `block` line.
    pub blocks: BTreeMap<String, LineSpan>,
    /// `(from, from_port, to, to_port)` → span of the `wire` line.
    pub wires: BTreeMap<(String, u8, String, u8), LineSpan>,
}

/// The header directive keyword.
const HEADER_KEYWORD: &str = "eblocks-netlist";

/// Serializes a design to netlist text.
///
/// Blocks appear in id order and wires in deterministic sorted order, so the
/// output is stable and diff-friendly. The first line is the
/// `eblocks-netlist v1` format-version header.
pub fn to_netlist(design: &Design) -> String {
    let mut out = String::new();
    out.push_str(&format!("{HEADER_KEYWORD} v{NETLIST_VERSION}\n"));
    out.push_str(&format!("design {}\n", design.name()));
    for id in design.blocks() {
        let b = design.block(id).expect("iterated id");
        out.push_str(&format!("block {} {}\n", b.name(), b.kind()));
    }
    let mut wires: Vec<String> = design
        .wires()
        .map(|w| {
            let from = design.block(w.from).expect("wire source").name();
            let to = design.block(w.to).expect("wire target").name();
            format!("wire {}.{} -> {}.{}\n", from, w.from_port, to, w.to_port)
        })
        .collect();
    wires.sort();
    for w in wires {
        out.push_str(&w);
    }
    out
}

/// Parses netlist text into a design.
///
/// A leading `eblocks-netlist v<N>` header is validated against
/// [`NETLIST_VERSION`]; headerless files parse as version 1 for backward
/// compatibility.
///
/// # Errors
///
/// Returns [`DesignError::Parse`] with a 1-based line number on malformed
/// input, an unsupported format version, or the underlying construction
/// error (duplicate names, bad ports, cycles) wrapped in context.
pub fn from_netlist(text: &str) -> Result<Design, DesignError> {
    parse(text, None)
}

/// Parses netlist text into a design, also returning the byte span of every
/// `block` and `wire` line (see [`NetlistSpans`]).
///
/// [`from_netlist`] is the same parse without the span table.
///
/// # Errors
///
/// Same as [`from_netlist`].
pub fn from_netlist_spanned(text: &str) -> Result<(Design, NetlistSpans), DesignError> {
    let mut spans = NetlistSpans::default();
    let design = parse(text, Some(&mut spans))?;
    Ok((design, spans))
}

/// The one netlist parser: fills `spans` when given one.
fn parse(text: &str, mut spans: Option<&mut NetlistSpans>) -> Result<Design, DesignError> {
    let mut design = Design::new("unnamed");
    let err = |line: usize, message: String| DesignError::Parse { line, message };
    let mut before_directives = true;
    let mut offset = 0usize;

    for (i, raw) in text.split_inclusive('\n').enumerate() {
        let lineno = i + 1;
        let span = LineSpan {
            start: offset,
            end: offset + raw.len(),
            line: lineno,
        };
        offset += raw.len();
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some(HEADER_KEYWORD) => {
                if !before_directives {
                    return Err(err(
                        lineno,
                        format!("`{HEADER_KEYWORD}` header must precede all directives"),
                    ));
                }
                let version = words
                    .next()
                    .ok_or_else(|| err(lineno, format!("`{HEADER_KEYWORD}` needs a version")))?;
                match version
                    .strip_prefix('v')
                    .and_then(|v| v.parse::<u32>().ok())
                {
                    Some(v) if v == NETLIST_VERSION => {}
                    Some(v) => {
                        return Err(err(
                            lineno,
                            format!(
                                "unsupported netlist format version v{v} \
                                 (this build reads v{NETLIST_VERSION})"
                            ),
                        ))
                    }
                    None => {
                        return Err(err(lineno, format!("bad format version `{version}`")));
                    }
                }
            }
            Some("design") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(lineno, "design needs a name".into()))?;
                design.set_name(name);
            }
            Some("block") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(lineno, "block needs a name".into()))?;
                let kind_tok = words
                    .next()
                    .ok_or_else(|| err(lineno, "block needs a kind".into()))?;
                let kind = parse_kind(kind_tok)
                    .ok_or_else(|| err(lineno, format!("unknown block kind `{kind_tok}`")))?;
                design
                    .try_add_block(name, kind)
                    .map_err(|e| err(lineno, e.to_string()))?;
                if let Some(spans) = spans.as_deref_mut() {
                    spans.blocks.insert(name.to_string(), span);
                }
            }
            Some("wire") => {
                let from = words
                    .next()
                    .ok_or_else(|| err(lineno, "wire needs a source".into()))?;
                let arrow = words.next();
                if arrow != Some("->") {
                    return Err(err(lineno, "wire syntax is `wire a.N -> b.M`".into()));
                }
                let to = words
                    .next()
                    .ok_or_else(|| err(lineno, "wire needs a destination".into()))?;
                let (from_name, from_port) = parse_endpoint(from)
                    .ok_or_else(|| err(lineno, format!("bad wire endpoint `{from}`")))?;
                let (to_name, to_port) = parse_endpoint(to)
                    .ok_or_else(|| err(lineno, format!("bad wire endpoint `{to}`")))?;
                let src = design
                    .block_by_name(from_name)
                    .ok_or_else(|| err(lineno, format!("unknown block `{from_name}`")))?;
                let dst = design
                    .block_by_name(to_name)
                    .ok_or_else(|| err(lineno, format!("unknown block `{to_name}`")))?;
                design
                    .connect((src, from_port), (dst, to_port))
                    .map_err(|e| err(lineno, e.to_string()))?;
                if let Some(spans) = spans.as_deref_mut() {
                    spans.wires.insert(
                        (
                            from_name.to_string(),
                            from_port,
                            to_name.to_string(),
                            to_port,
                        ),
                        span,
                    );
                }
            }
            Some(other) => return Err(err(lineno, format!("unknown directive `{other}`"))),
            None => unreachable!("empty lines filtered above"),
        }
        before_directives = false;
    }
    Ok(design)
}

fn parse_endpoint(s: &str) -> Option<(&str, u8)> {
    let (name, port) = s.rsplit_once('.')?;
    if name.is_empty() {
        return None;
    }
    Some((name, port.parse().ok()?))
}

/// Parses a [`BlockKind`] display token (e.g. `compute:logic2:AND`).
pub fn parse_kind(token: &str) -> Option<BlockKind> {
    if let Some(rest) = token.strip_prefix("sensor:") {
        return SensorKind::parse(rest).map(BlockKind::Sensor);
    }
    if let Some(rest) = token.strip_prefix("output:") {
        return OutputKind::parse(rest).map(BlockKind::Output);
    }
    if let Some(rest) = token.strip_prefix("compute:") {
        return ComputeKind::parse(rest).map(BlockKind::Compute);
    }
    if let Some(rest) = token.strip_prefix("comm:") {
        return CommKind::parse(rest).map(BlockKind::Comm);
    }
    if let Some(rest) = token.strip_prefix("programmable:") {
        // Format emitted by Display: "<i>in/<o>out".
        let (i, rest) = rest.split_once("in/")?;
        let o = rest.strip_suffix("out")?;
        return Some(BlockKind::Programmable(ProgrammableSpec::new(
            i.parse().ok()?,
            o.parse().ok()?,
        )));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{ComputeKind, OutputKind, SensorKind};

    fn sample() -> Design {
        let mut d = Design::new("sample");
        let s1 = d.add_block("btn", SensorKind::Button);
        let s2 = d.add_block("mot", SensorKind::Motion);
        let g = d.add_block("g", ComputeKind::or2());
        let t = d.add_block("t", ComputeKind::Toggle);
        let o = d.add_block("led", OutputKind::Led);
        d.connect((s1, 0), (g, 0)).unwrap();
        d.connect((s2, 0), (g, 1)).unwrap();
        d.connect((g, 0), (t, 0)).unwrap();
        d.connect((t, 0), (o, 0)).unwrap();
        d
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let d = sample();
        let text = to_netlist(&d);
        let d2 = from_netlist(&text).unwrap();
        assert_eq!(d2.name(), "sample");
        assert_eq!(d2.num_blocks(), d.num_blocks());
        assert_eq!(d2.num_wires(), d.num_wires());
        assert_eq!(to_netlist(&d2), text, "emission is canonical");
        d2.validate().unwrap();
    }

    #[test]
    fn roundtrip_all_kind_classes() {
        let mut d = Design::new("kinds");
        d.add_block("s", SensorKind::Temperature);
        d.add_block("o", OutputKind::Display);
        d.add_block("c", ComputeKind::PulseGen { ticks: 7 });
        d.add_block("p", ProgrammableSpec::new(3, 1));
        d.add_block("x", CommKind::WirelessTx);
        let d2 = from_netlist(&to_netlist(&d)).unwrap();
        for name in ["s", "o", "c", "p", "x"] {
            let id = d2.block_by_name(name).unwrap();
            let orig = d.block(d.block_by_name(name).unwrap()).unwrap();
            assert_eq!(d2.block(id).unwrap().kind(), orig.kind());
        }
    }

    #[test]
    fn emission_starts_with_version_header() {
        let text = to_netlist(&sample());
        assert!(text.starts_with("eblocks-netlist v1\n"), "{text}");
    }

    #[test]
    fn headerless_files_parse_as_v1() {
        let headerless = "design legacy\nblock a sensor:button\n";
        let d = from_netlist(headerless).unwrap();
        assert_eq!(d.name(), "legacy");
        assert_eq!(d.num_blocks(), 1);
    }

    #[test]
    fn unsupported_version_rejected() {
        match from_netlist("eblocks-netlist v2\ndesign t\n") {
            Err(DesignError::Parse { line: 1, message }) => {
                assert!(message.contains("unsupported"), "{message}");
                assert!(message.contains("v2"), "{message}");
            }
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(matches!(
            from_netlist("eblocks-netlist banana\n"),
            Err(DesignError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_netlist("eblocks-netlist\n"),
            Err(DesignError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn header_after_directives_rejected() {
        let late = "design t\neblocks-netlist v1\n";
        match from_netlist(late) {
            Err(DesignError::Parse { line: 2, message }) => {
                assert!(message.contains("precede"), "{message}");
            }
            other => panic!("expected placement error, got {other:?}"),
        }
        // A duplicate header counts as "after directives" too.
        assert!(matches!(
            from_netlist("eblocks-netlist v1\neblocks-netlist v1\n"),
            Err(DesignError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn header_may_follow_comments_and_blanks() {
        let text = "# exported by tooling\n\neblocks-netlist v1\ndesign t\n";
        assert_eq!(from_netlist(text).unwrap().name(), "t");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\ndesign t\nblock a sensor:button # trailing\n";
        let d = from_netlist(text).unwrap();
        assert_eq!(d.name(), "t");
        assert_eq!(d.num_blocks(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "design t\nblock a sensor:button\nwire a.0 -> nowhere.0\n";
        match from_netlist(bad) {
            Err(DesignError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("nowhere"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_directive_rejected() {
        assert!(matches!(
            from_netlist("frobnicate x\n"),
            Err(DesignError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn bad_wire_syntax_rejected() {
        for bad in [
            "wire a.0 b.0",
            "wire a.0 ->",
            "wire a -> b.0",
            "wire .0 -> b.0",
            "wire a.x -> b.0",
        ] {
            let text = format!("block a sensor:button\nblock b output:led\n{bad}\n");
            assert!(
                matches!(from_netlist(&text), Err(DesignError::Parse { line: 3, .. })),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn construction_errors_surface_as_parse_errors() {
        let dup = "block a sensor:button\nblock a sensor:motion\n";
        assert!(matches!(
            from_netlist(dup),
            Err(DesignError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn spanned_parse_records_block_and_wire_lines() {
        let text = "eblocks-netlist v1\ndesign t\nblock a sensor:button\nblock b output:led\nwire a.0 -> b.0\n";
        let (_, spans) = from_netlist_spanned(text).unwrap();
        let a = spans.blocks["a"];
        assert_eq!(&text[a.start..a.end], "block a sensor:button\n");
        assert_eq!(a.line, 3);
        let w = spans.wires[&("a".to_string(), 0, "b".to_string(), 0)];
        assert_eq!(&text[w.start..w.end], "wire a.0 -> b.0\n");
        assert_eq!(w.line, 5);
        // Deleting every recorded span leaves only the non-entity lines.
        let mut keep: Vec<(usize, usize)> = spans
            .blocks
            .values()
            .chain(spans.wires.values())
            .map(|s| (s.start, s.end))
            .collect();
        keep.sort_unstable();
        let mut rest = String::new();
        let mut at = 0;
        for (s, e) in keep {
            rest.push_str(&text[at..s]);
            at = e;
        }
        rest.push_str(&text[at..]);
        assert_eq!(rest, "eblocks-netlist v1\ndesign t\n");
    }

    #[test]
    fn parse_kind_rejects_garbage() {
        assert!(parse_kind("sensor:warp").is_none());
        assert!(parse_kind("garbage").is_none());
        assert!(parse_kind("programmable:xin/yout").is_none());
        assert_eq!(
            parse_kind("programmable:4in/3out"),
            Some(BlockKind::Programmable(ProgrammableSpec::new(4, 3)))
        );
    }
}
