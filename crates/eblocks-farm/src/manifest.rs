//! The line-oriented batch manifest format.
//!
//! A manifest is a plain text file, one directive per line; `#` starts a
//! comment and blank lines are ignored:
//!
//! ```text
//! # Three ways to name a design, one job per line.
//! default partitioner=pare-down verify=false
//!
//! job netlist="netlists/garage-open-at-night.netlist"
//! job library="Podium Timer 3" partitioner=refine name=pt3
//! job generated=20 seed=7 mode=partition
//! ```
//!
//! * `job` lines take `key=value` pairs. Exactly one of `netlist=PATH`,
//!   `library=NAME`, or `generated=INNER` names the design source; the
//!   remaining keys (`name`, `partitioner`, `seed`, `mode=synth|partition`,
//!   `verify`, `optimize`, `inputs`, `outputs`) are optional. Values with
//!   spaces go in double quotes.
//! * `default` lines set option defaults for the job lines **after** them
//!   (same keys, minus the source keys). `default partitioner=…` is special:
//!   it becomes the batch-level fallback
//!   ([`BatchRequest::default_partitioner`]), which an engine-level
//!   override — the CLI's `--partitioner` flag — beats, while a per-job
//!   `partitioner=` beats both.
//!
//! Each `job` line reads into the [`JobSpec`] a manifest-v2 JSON job
//! would be, and the `default` lines above it into the [`SynthOptions`]
//! that job starts from, so both formats fill the one [`BatchRequest`].
//!
//! Relative `netlist=` paths are resolved against the manifest file's
//! directory by [`BatchRequest::from_file`]; [`BatchRequest::parse`]
//! leaves them as-is.

use crate::api::{BatchRequest, DesignSource, JobMode, JobSpec, SynthOptions};
use std::path::{Path, PathBuf};

/// A manifest error: what went wrong, on which 1-based line, and — when it
/// came through [`BatchRequest::from_file`] — in which file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// The manifest file, when known ([`BatchRequest::from_file`] fills
    /// this in; the text-level parsers leave it `None`).
    pub path: Option<PathBuf>,
    /// 1-based line the error was found on; 0 when no line applies (an
    /// unreadable file, a JSON shape error).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ManifestError {
    fn at_line(line: usize, message: String) -> Self {
        Self {
            path: None,
            line,
            message,
        }
    }

    /// The same error, attributed to `path`.
    #[must_use]
    pub fn with_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(path) = &self.path {
            write!(f, "{}: ", path.display())?;
        }
        if self.line > 0 {
            write!(f, "manifest line {}: {}", self.line, self.message)
        } else {
            write!(f, "manifest: {}", self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

/// Splits a directive line into words, honoring double quotes (which may
/// enclose a whole word or just the value half of a `key=value` pair). An
/// unquoted `#` starts a comment; inside quotes it is literal.
fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut words = Vec::new();
    let mut word = String::new();
    let mut in_word = false;
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => {
                quoted = !quoted;
                in_word = true; // `a=""` is a present-but-empty value
            }
            '#' if !quoted => break,
            c if c.is_whitespace() && !quoted => {
                if in_word {
                    words.push(std::mem::take(&mut word));
                    in_word = false;
                }
            }
            c => {
                word.push(c);
                in_word = true;
            }
        }
    }
    if quoted {
        return Err("unterminated quote".into());
    }
    if in_word {
        words.push(word);
    }
    Ok(words)
}

fn parse_bool(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        other => Err(format!("bad boolean `{other}` for `{key}`")),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad number `{value}` for `{key}`"))
}

fn parse_mode(value: &str) -> Result<JobMode, String> {
    match value {
        "synth" => Ok(JobMode::Synth),
        "partition" => Ok(JobMode::Partition),
        other => Err(format!("bad mode `{other}` (expected synth|partition)")),
    }
}

/// Applies one option `key=value` shared by `job` and `default` lines.
/// Returns false when the key is not an option key.
fn apply_option(options: &mut SynthOptions, key: &str, value: &str) -> Result<bool, String> {
    match key {
        "mode" => options.mode = Some(parse_mode(value)?),
        "verify" => options.verify = Some(parse_bool(key, value)?),
        "optimize" => options.optimize = Some(parse_bool(key, value)?),
        "inputs" => options.inputs = Some(parse_num(key, value)?),
        "outputs" => options.outputs = Some(parse_num(key, value)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// One `job` line as the [`JobSpec`] a manifest-v2 job would be, starting
/// from the options the `default` lines above it set.
fn parse_job(pairs: &[(String, String)], defaults: &SynthOptions) -> Result<JobSpec, String> {
    let mut source: Option<DesignSource> = None;
    let mut name: Option<String> = None;
    let mut partitioner: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut options = *defaults;
    for (key, value) in pairs {
        let mut set_source = |s: DesignSource| {
            if source.is_some() {
                Err("more than one of netlist=/library=/generated=".to_string())
            } else {
                source = Some(s);
                Ok(())
            }
        };
        match key.as_str() {
            "netlist" => set_source(DesignSource::Netlist(value.into()))?,
            "library" => set_source(DesignSource::Library(value.clone()))?,
            "generated" => set_source(DesignSource::Generated {
                inner: parse_num(key, value)?,
                seed: 0,
            })?,
            "seed" => seed = Some(parse_num(key, value)?),
            "name" => name = Some(value.clone()),
            "partitioner" => partitioner = Some(value.clone()),
            key => {
                if !apply_option(&mut options, key, value)? {
                    return Err(format!("unknown job key `{key}`"));
                }
            }
        }
    }
    let mut source = source.ok_or("job needs one of netlist=/library=/generated=")?;
    match (&mut source, seed) {
        (DesignSource::Generated { seed, .. }, Some(s)) => *seed = s,
        (DesignSource::Generated { .. }, None) => {}
        (_, Some(_)) => return Err("seed= only applies to generated= jobs".into()),
        _ => {}
    }
    Ok(JobSpec {
        name,
        source,
        partitioner,
        options,
    })
}

impl BatchRequest {
    /// Parses a manifest. Relative `netlist=` paths are kept as written;
    /// use [`BatchRequest::from_file`] to resolve them against the
    /// manifest's directory.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] with the offending 1-based line number.
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let mut request = BatchRequest {
            default_partitioner: None,
            jobs: Vec::new(),
        };
        let mut defaults = SynthOptions::default();
        for (i, raw) in text.lines().enumerate() {
            let err = |message: String| ManifestError::at_line(i + 1, message);
            // Comments are stripped inside tokenize (quote-aware: a `#` in
            // a quoted value is literal), so a comment-only line tokenizes
            // to nothing.
            let words = tokenize(raw).map_err(err)?;
            let Some((directive, rest)) = words.split_first() else {
                continue;
            };
            let pairs: Vec<(String, String)> = rest
                .iter()
                .map(|w| {
                    w.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .ok_or_else(|| err(format!("expected key=value, got `{w}`")))
                })
                .collect::<Result<_, _>>()?;
            match directive.as_str() {
                "job" => request
                    .jobs
                    .push(parse_job(&pairs, &defaults).map_err(err)?),
                "default" => {
                    for (key, value) in &pairs {
                        if key == "partitioner" {
                            request.default_partitioner = Some(value.clone());
                        } else if !apply_option(&mut defaults, key, value).map_err(err)? {
                            return Err(err(format!("unknown default key `{key}`")));
                        }
                    }
                }
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        Ok(request)
    }

    /// Parses a manifest-v2 JSON batch: the serialized form of
    /// [`BatchRequest`] (see [`crate::api`]).
    ///
    /// Relative `netlist` paths are kept as written, as in
    /// [`BatchRequest::parse`]; [`BatchRequest::from_file`] resolves them.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] carrying the JSON syntax error's line (or line 0
    /// with the value path for shape errors, e.g.
    /// `jobs[0].source: unknown variant`).
    pub fn from_json(text: &str) -> Result<Self, ManifestError> {
        serde::json::from_str(text).map_err(|e| match e {
            serde::json::Error::Syntax(e) => {
                ManifestError::at_line(e.line, format!("column {}: {}", e.column, e.message))
            }
            serde::json::Error::Data(e) => ManifestError::at_line(0, e.to_string()),
        })
    }

    /// Reads and parses a manifest file — line-oriented (v1) or JSON (v2,
    /// detected by a leading `{`) — resolving relative `netlist` paths
    /// against the file's directory. A job so resolved keeps the name of
    /// the path as written.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] carrying the file path (unreadable file, syntax
    /// error, or JSON shape error).
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, ManifestError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ManifestError::at_line(0, format!("cannot read: {e}")).with_path(path))?;
        // Strip a UTF-8 BOM (Windows tooling) before sniffing the format —
        // it is not whitespace, so trim_start() alone would misroute a
        // BOM-prefixed JSON manifest to the v1 line parser.
        let text = text.strip_prefix('\u{feff}').unwrap_or(&text);
        let parsed = if text.trim_start().starts_with('{') {
            Self::from_json(text)
        } else {
            Self::parse(text)
        };
        let mut request = parsed.map_err(|e| e.with_path(path))?;
        if let Some(base) = path.parent() {
            for job in &mut request.jobs {
                let DesignSource::Netlist(p) = &job.source else {
                    continue;
                };
                if p.is_relative() {
                    let resolved = DesignSource::Netlist(base.join(p));
                    job.name.get_or_insert_with(|| job.source.default_name());
                    job.source = resolved;
                }
            }
        }
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line kind: comments, both `default` forms, all three sources.
    const FULL_MANIFEST: &str = "# a comment\n\
         default partitioner=anneal verify=false\n\
         \n\
         job netlist=\"a dir/garage.netlist\"  # trailing comment\n\
         job library=\"Podium Timer 3\" partitioner=refine name=pt3\n\
         default verify=true inputs=3\n\
         job generated=20 seed=7 mode=partition optimize=false\n";

    #[test]
    fn full_manifest_parses() {
        let batch = BatchRequest::parse(FULL_MANIFEST).unwrap();
        assert_eq!(batch.default_partitioner.as_deref(), Some("anneal"));
        assert_eq!(batch.jobs.len(), 3);

        let j = &batch.jobs[0];
        assert_eq!(j.display_name(), "garage");
        assert_eq!(
            j.source,
            DesignSource::Netlist("a dir/garage.netlist".into())
        );
        assert_eq!(j.partitioner, None, "batch default applies at run time");
        assert_eq!(
            j.options.verify,
            Some(false),
            "default verify=false was in effect"
        );

        let j = &batch.jobs[1];
        assert_eq!(j.display_name(), "pt3");
        assert_eq!(j.source, DesignSource::Library("Podium Timer 3".into()));
        assert_eq!(j.partitioner.as_deref(), Some("refine"));

        let j = &batch.jobs[2];
        assert_eq!(j.source, DesignSource::Generated { inner: 20, seed: 7 });
        assert_eq!(j.options.mode, Some(JobMode::Partition));
        assert_eq!(
            j.options.verify,
            Some(true),
            "later default line flipped it back"
        );
        assert_eq!(j.options.optimize, Some(false));
        assert_eq!(j.options.inputs, Some(3), "default inputs=3 was in effect");
    }

    #[test]
    fn full_manifest_equals_its_v2_json() {
        let json = BatchRequest::from_json(
            r#"{
                "default_partitioner": "anneal",
                "jobs": [
                    {"source": {"netlist": "a dir/garage.netlist"},
                     "options": {"verify": false}},
                    {"name": "pt3", "source": {"library": "Podium Timer 3"},
                     "partitioner": "refine", "options": {"verify": false}},
                    {"source": {"generated": {"inner": 20, "seed": 7}},
                     "options": {"mode": "partition", "optimize": false,
                                 "verify": true, "inputs": 3}}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(json, BatchRequest::parse(FULL_MANIFEST).unwrap());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let check = |text: &str, line: usize, needle: &str| {
            let e = BatchRequest::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            assert!(e.message.contains(needle), "{e}");
            assert!(e.to_string().contains(&format!("line {line}")));
        };
        check("frob x=1\n", 1, "unknown directive");
        check("\njob\n", 2, "needs one of");
        check("job netlist=a library=b\n", 1, "more than one");
        check("job netlist=a bogus=1\n", 1, "unknown job key");
        check("job netlist=a verify=maybe\n", 1, "bad boolean");
        check("job generated=many\n", 1, "bad number");
        check("job netlist=a mode=walk\n", 1, "bad mode");
        check("job netlist=a seed\n", 1, "expected key=value");
        check("job netlist=\"a\n", 1, "unterminated quote");
        check("default frob=1\n", 1, "unknown default key");
        check("job library=x seed=3\n", 1, "only applies to generated");
    }

    #[test]
    fn from_file_resolves_relative_netlists() {
        let dir = std::env::temp_dir().join(format!("eblocks-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("batch.manifest");
        std::fs::write(
            &manifest,
            "job netlist=rel.netlist\njob netlist=/abs.netlist\njob netlist=sub/..\n",
        )
        .unwrap();
        let batch = BatchRequest::from_file(&manifest).unwrap();
        assert_eq!(
            batch.jobs[0].source,
            DesignSource::Netlist(dir.join("rel.netlist"))
        );
        assert_eq!(
            batch.jobs[1].source,
            DesignSource::Netlist("/abs.netlist".into())
        );
        // Rows are named after the path as written.
        let names: Vec<String> = batch.jobs.iter().map(JobSpec::display_name).collect();
        assert_eq!(names, ["rel", "abs", "sub/.."]);
        let missing = dir.join("missing.manifest");
        let err = BatchRequest::from_file(&missing).unwrap_err();
        assert_eq!(err.path.as_deref(), Some(missing.as_path()));
        assert!(err.to_string().contains("cannot read"), "{err}");
        assert!(
            err.to_string().contains("missing.manifest"),
            "the Display output names the file: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_file_errors_carry_the_path() {
        let dir = std::env::temp_dir().join(format!("eblocks-manifest-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("broken.manifest");
        std::fs::write(&manifest, "job netlist=a\nfrob x=1\n").unwrap();
        let err = BatchRequest::from_file(&manifest).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.path.as_deref(), Some(manifest.as_path()));
        let text = err.to_string();
        assert!(
            text.contains("broken.manifest") && text.contains("line 2"),
            "path and line: {text}"
        );
        // Text-level parsing leaves the path empty.
        let err = BatchRequest::parse("frob x=1\n").unwrap_err();
        assert_eq!(err.path, None);
        assert_eq!(err.to_string(), "manifest line 1: unknown directive `frob`");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_manifests_parse_as_v2() {
        let batch = BatchRequest::from_json(
            r#"{
                "default_partitioner": "anneal",
                "jobs": [
                    {"source": {"library": "Podium Timer 3"}, "partitioner": "refine"},
                    {"source": {"generated": {"inner": 20, "seed": 7}},
                     "options": {"mode": "partition", "optimize": false}}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(batch.default_partitioner.as_deref(), Some("anneal"));
        assert_eq!(batch.jobs.len(), 2);
        assert_eq!(batch.jobs[0].partitioner.as_deref(), Some("refine"));
        assert_eq!(
            batch.jobs[1].source,
            DesignSource::Generated { inner: 20, seed: 7 }
        );
        assert_eq!(batch.jobs[1].options.mode, Some(JobMode::Partition));
        assert_eq!(batch.jobs[1].options.optimize, Some(false));
        assert_eq!(
            batch.jobs[1].options.verify, None,
            "unset options stay unset"
        );

        // Syntax errors carry the JSON line; shape errors carry the path
        // into the value tree.
        let err = BatchRequest::from_json("{\n  \"jobs\": [,]\n}").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        let err = BatchRequest::from_json(r#"{"jobs": [{"source": {"library": 3}}]}"#).unwrap_err();
        assert!(err.message.contains("jobs[0].source.library"), "{err}");
    }

    #[test]
    fn from_file_sniffs_json_and_resolves_netlists() {
        let dir =
            std::env::temp_dir().join(format!("eblocks-manifest-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("batch.json");
        std::fs::write(
            &manifest,
            r#"  {"jobs": [{"source": {"netlist": "rel.netlist"}}]}"#,
        )
        .unwrap();
        let batch = BatchRequest::from_file(&manifest).unwrap();
        assert_eq!(
            batch.jobs[0].source,
            DesignSource::Netlist(dir.join("rel.netlist")),
            "v2 manifests get the same relative-path resolution as v1"
        );
        std::fs::write(&manifest, r#"{"jobs": [{"sauce": 1}]}"#).unwrap();
        let err = BatchRequest::from_file(&manifest).unwrap_err();
        assert!(err.to_string().contains("batch.json"), "{err}");
        assert!(err.message.contains("unknown field `sauce`"), "{err}");
        // A UTF-8 BOM (Windows tooling) must not defeat the sniffing.
        std::fs::write(&manifest, "\u{feff}{\"jobs\": []}").unwrap();
        let batch = BatchRequest::from_file(&manifest).unwrap();
        assert!(batch.jobs.is_empty(), "BOM-prefixed JSON parses as v2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quoting_edge_cases() {
        let batch = BatchRequest::parse("job library=\"A B\" name=\"\"\n").unwrap();
        assert_eq!(batch.jobs[0].source, DesignSource::Library("A B".into()));
        assert_eq!(
            batch.jobs[0].display_name(),
            "",
            "explicit empty name is kept"
        );
    }

    #[test]
    fn hash_in_quoted_value_is_literal() {
        let batch = BatchRequest::parse(
            "job netlist=\"dir/garage#1.netlist\" name=\"a#b\"  # real comment\n",
        )
        .unwrap();
        assert_eq!(
            batch.jobs[0].source,
            DesignSource::Netlist("dir/garage#1.netlist".into())
        );
        assert_eq!(batch.jobs[0].display_name(), "a#b");
        // Unquoted `#` still starts a comment mid-line.
        let batch =
            BatchRequest::parse("job library=X partitioner=refine # verify=false\n").unwrap();
        assert_eq!(
            batch.jobs[0].options.verify, None,
            "commented-out key was ignored"
        );
        // A quote opened after a real comment marker is not an error.
        assert!(BatchRequest::parse("# just \"a comment\n")
            .unwrap()
            .jobs
            .is_empty());
    }
}
