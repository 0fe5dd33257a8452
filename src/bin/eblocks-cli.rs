//! Command-line synthesis tool: the headless equivalent of the paper's
//! "minimize" button (Fig. 2 tool chain).
//!
//! ```text
//! eblocks-cli synth <netlist> [-o OUTDIR] [--partitioner NAME|list] [--inputs N] [--outputs N] [--no-verify] [--lint [--deny errors|warnings]] [--json] [--timings]
//! eblocks-cli check <netlist>
//! eblocks-cli lint <netlist|behavior|DIR> [--json] [--deny errors|warnings] [--inputs N] [--outputs N] [--fix [--check]]
//! eblocks-cli partition <netlist> [--partitioner NAME] [--inputs N] [--outputs N]
//! eblocks-cli batch <manifest> [--jobs N] [--partitioner NAME] [--json] [--timings] [--retries N] [--job-timeout-ms N] [--chaos-seed N [--chaos-trace FILE]] [--lint [--deny errors|warnings]]
//! eblocks-cli serve <spool-DIR> [--socket PATH] [--serve-workers N] [--jobs N] [--queue-capacity N] [--poll-ms N] [--lint [--deny errors|warnings]] [--retries N] [--job-timeout-ms N]
//! eblocks-cli sim <netlist> [--stimulus FILE] [--until T] [--vcd FILE]
//! eblocks-cli fleet <spec> [--nodes N] [--topology KIND] [--seed N] [--until T] [--json] [--trace FILE] [--chaos-seed N]
//! eblocks-cli place <netlist> (--grid WxH | --topology FILE) [--pin block=COL,ROW|block=SITE ...] [--iterations N]
//! eblocks-cli --list-partitioners
//! ```
//!
//! Each command takes exactly the flags on its line; any other flag is an
//! error naming the flag and the command. `--partitioner list` or
//! `--list-partitioners`, in any position, prints the registered strategy
//! names.
//!
//! The CLI is a thin argv front end: each command reads its flags straight
//! into the library type it runs — `synth` a `SynthRequest`
//! (`eblocks::api`), `batch` a `FarmConfig`, `serve` a `ServeConfig` — so
//! `batch --json` prints the same `BatchResponse` an RPC server would send.
//!
//! * `synth` writes `<name>-synth.netlist` and one `progN.c` per
//!   programmable block into OUTDIR (default: beside the input); `--json`
//!   prints the full `SynthResponse` instead of the summary, and
//!   `--timings` adds per-stage times.
//! * `check` validates the design and prints its census and any lint
//!   findings; `partition` prints the partitioning the pipeline's
//!   partition stage produces and checks against the pin budget.
//! * `lint` reports every `eblocks::lint` diagnostic of a netlist, a
//!   behavior program (checked against `--inputs`/`--outputs`, default
//!   2/2), or every `*.netlist` in a directory (sorted byte-wise), with a
//!   `file:line:col` anchor where it has one, and exits non-zero past the
//!   `--deny` level (`errors` by default). `--fix` applies machine-applicable
//!   fixes in place until none remain; `--fix --check` writes nothing and
//!   fails while fixes are pending.
//! * `batch` runs a farm manifest — the line-oriented v1 format or a JSON
//!   `BatchRequest` (v2, detected by a leading `{`) — on `--jobs N` workers
//!   (default: all cores). `--partitioner` is the default for jobs that
//!   name none; verify and the pin budget are per-job manifest keys, which
//!   `--no-verify`, `--inputs` and `--outputs` point at. The report goes to
//!   stdout (`--json`: deterministic unless `--timings`); a failed job also
//!   makes the command exit non-zero with a summary on stderr.
//!   `--retries`/`--job-timeout-ms` set each job's retry budget and
//!   cooperative per-attempt limit. `--chaos-seed N` runs the batch under
//!   the seeded chaos harness (`eblocks::chaos`), which the printed seed
//!   replays exactly; `--chaos-trace FILE` writes its injection trace.
//! * `synth`, `batch` and `serve` take `--lint` to run the lint stage as an
//!   admission gate (off by default), with `--deny` setting its level.
//! * `serve` runs the daemon (`eblocks::serve`): JSON requests dropped into
//!   `<spool>/inbox/` are answered in `<spool>/outbox/` (malformed ones
//!   land in `<spool>/rejected/` beside a structured error), and `--socket
//!   PATH` adds line-delimited JSON on a Unix-domain socket.
//!   `--serve-workers` sizes the request pool, `--jobs` the farm pool of
//!   each batch, and `--queue-capacity` the admission queue;
//!   `--retries`/`--job-timeout-ms` apply to every job it runs, each
//!   `synth` request included. The daemon drains on SIGTERM/SIGINT (a
//!   second signal hardens the drain) or a `"shutdown"` request, then
//!   prints its final counters.
//! * `sim` runs a stimulus script (`<time> <sensor> <0|1>` lines, `#`
//!   comments) and prints an ASCII waveform; `--vcd` also writes a VCD dump.
//! * `fleet` co-simulates a fleet spec (`eblocks::net`; JSON or `key = value`
//!   lines), the flags overriding the spec's values; `--json` prints the
//!   deterministic `FleetReport`, `--trace` writes the event trace, and
//!   `--chaos-seed N` adds a seeded network storm that replays exactly.
//! * `place` maps the design onto deployment sites (the paper's §6 future
//!   work), honoring `--pin` anchors, and prints each block's site and the
//!   total routed hops.

use eblocks::api::{self, DesignSource, SynthRequest};
use eblocks::chaos::{run_chaos, ChaosConfig};
use eblocks::core::netlist::from_netlist;
use eblocks::core::{Design, ProgrammableSpec};
use eblocks::farm::{run_batch, BatchRequest, FarmConfig, JsonOptions};
use eblocks::lint::{
    fix_to_fixpoint, lint_behavior, lint_design, lint_netlist, DenyLevel, LintConfig, RunReport,
};
use eblocks::partition::{PartitionConstraints, Registry, DEFAULT_PARTITIONER};
use eblocks::serve::ServeConfig;
use eblocks::synth::Pipeline;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            // A failed `batch` still delivers its report on stdout (e.g.
            // the --json report, whose status/error fields machine
            // consumers need most when jobs fail); the summary goes to
            // stderr and the exit code stays non-zero.
            print!("{}", failure.output);
            eprintln!("error: {}", failure.message);
            ExitCode::FAILURE
        }
    }
}

/// A failed command: the one-line summary for stderr, plus any report
/// payload that still belongs on stdout (a batch report whose jobs failed).
struct Failure {
    message: String,
    output: String,
}

impl Failure {
    /// True when either the stderr summary or the stdout payload mentions
    /// `needle` — the tests' one-stop assertion helper.
    #[cfg(test)]
    fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle) || self.output.contains(needle)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)?;
        if !self.output.is_empty() {
            write!(f, "\n{}", self.output)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Self {
            message,
            output: String::new(),
        }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Self::from(message.to_string())
    }
}

/// One synopsis line per command, as in the module doc.
const USAGE: &str = "usage:
  eblocks-cli synth <netlist> [-o OUTDIR] [--partitioner NAME|list] [--inputs N] [--outputs N] [--no-verify] [--lint [--deny errors|warnings]] [--json] [--timings]
  eblocks-cli check <netlist>
  eblocks-cli lint <netlist|behavior|DIR> [--json] [--deny errors|warnings] [--inputs N] [--outputs N] [--fix [--check]]
  eblocks-cli partition <netlist> [--partitioner NAME] [--inputs N] [--outputs N]
  eblocks-cli batch <manifest> [--jobs N] [--partitioner NAME] [--json] [--timings] [--retries N] [--job-timeout-ms N] [--chaos-seed N [--chaos-trace FILE]] [--lint [--deny errors|warnings]]
  eblocks-cli serve <spool-DIR> [--socket PATH] [--serve-workers N] [--jobs N] [--queue-capacity N] [--poll-ms N] [--lint [--deny errors|warnings]] [--retries N] [--job-timeout-ms N]
  eblocks-cli sim <netlist> [--stimulus FILE] [--until T] [--vcd FILE]
  eblocks-cli fleet <spec> [--nodes N] [--topology KIND] [--seed N] [--until T] [--json] [--trace FILE] [--chaos-seed N]
  eblocks-cli place <netlist> (--grid WxH | --topology FILE) [--pin block=COL,ROW|block=SITE ...] [--iterations N]
  eblocks-cli --list-partitioners";

/// The words after a command's input path. Each command matches the flags
/// it takes and hands any other to [`Flags::unknown`].
struct Flags<'a> {
    command: &'a str,
    words: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// The next word, or `None` once every word is read.
    fn next(&mut self) -> Option<&'a str> {
        self.words.next().map(String::as_str)
    }

    /// The value after `flag`, parsed as a `T`.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let word = self
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        word.parse().map_err(|_| format!("bad {flag} value"))
    }

    /// A path value; `what` names it when it is missing.
    fn path(&mut self, what: &str) -> Result<PathBuf, String> {
        let path = self.next().ok_or_else(|| format!("missing {what} path"))?;
        Ok(PathBuf::from(path))
    }

    /// The `--partitioner` value.
    fn partitioner(&mut self) -> Result<String, String> {
        let name = self.next().ok_or("missing partitioner")?;
        Ok(name.to_string())
    }

    /// The `--deny` value.
    fn deny(&mut self) -> Result<DenyLevel, String> {
        let level: String = self.value("--deny")?;
        DenyLevel::parse(&level)
            .ok_or_else(|| format!("bad --deny value `{level}` (expected errors|warnings)"))
    }

    /// The error for a flag this command does not take.
    fn unknown(&self, flag: &str) -> Failure {
        format!("unknown flag `{flag}` for `{}`\n{USAGE}", self.command).into()
    }
}

/// The `--lint [--deny LEVEL]` admission gate `synth`, `batch` and `serve`
/// take: `None` unless `--lint` is given, and `--deny` alone is an error.
fn lint_gate(lint: bool, deny: Option<DenyLevel>) -> Result<Option<LintConfig>, String> {
    if deny.is_some() && !lint {
        return Err("--deny requires --lint".into());
    }
    Ok(lint.then(|| LintConfig::denying(deny.unwrap_or_default())))
}

/// The registered strategy names, one per line (`--list-partitioners`).
fn list_partitioners() -> String {
    let names = Registry::builtin().names();
    names.iter().map(|name| format!("{name}\n")).collect()
}

fn run(args: &[String]) -> Result<String, Failure> {
    // `--list-partitioners` and `--partitioner list` work from any
    // position and read no input.
    if args.iter().any(|a| a == "--list-partitioners")
        || args
            .windows(2)
            .any(|pair| pair[0] == "--partitioner" && pair[1] == "list")
    {
        return Ok(list_partitioners());
    }
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let run_command: fn(&Path, Flags) -> Result<String, Failure> = match command.as_str() {
        "synth" => synth_command,
        "check" => check_command,
        "lint" => lint_command,
        "partition" => partition_command,
        "batch" => batch_command,
        "serve" => serve_command,
        "sim" => sim_command,
        "fleet" => fleet_command,
        "place" => place_command,
        other => return Err(format!("unknown command `{other}`\n{USAGE}").into()),
    };
    let (input, words) = rest.split_first().ok_or("missing input path")?;
    let flags = Flags {
        command,
        words: words.iter(),
    };
    run_command(Path::new(input), flags)
}

/// Reads a text file, naming it in the error.
fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Reads and parses a netlist file.
fn read_design(path: &Path) -> Result<Design, String> {
    from_netlist(&read(path)?).map_err(|e| e.to_string())
}

/// Runs a farm manifest across the worker pool. The report always goes to
/// stdout; if any job failed the command also prints a summary to stderr
/// and exits non-zero.
fn batch_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    let mut config = FarmConfig::default();
    let mut json = false;
    let mut timings = false;
    let mut lint = false;
    let mut deny = None;
    let mut chaos_seed = None;
    let mut chaos_trace = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--jobs" => config.workers = Some(flags.value(flag)?),
            "--partitioner" => config.partitioner_override = Some(flags.partitioner()?),
            "--json" => json = true,
            "--timings" => timings = true,
            "--retries" => config.max_retries = flags.value(flag)?,
            "--job-timeout-ms" => {
                config.job_timeout = Some(Duration::from_millis(flags.value(flag)?));
            }
            "--chaos-seed" => chaos_seed = Some(flags.value(flag)?),
            "--chaos-trace" => chaos_trace = Some(flags.path("chaos trace")?),
            "--lint" => lint = true,
            "--deny" => deny = Some(flags.deny()?),
            // Per-job settings live in the manifest (`verify=`, `inputs=`,
            // `outputs=`, per job or on `default` lines).
            "--no-verify" => {
                return Err(
                    "--no-verify is not supported by `batch`; set `verify=false` in the manifest"
                        .into(),
                );
            }
            "--inputs" | "--outputs" => {
                return Err(
                    "--inputs/--outputs are not supported by `batch`; set `inputs=`/`outputs=` in the manifest"
                        .into(),
                );
            }
            other => return Err(flags.unknown(other)),
        }
    }
    // --lint gates every job whose options set neither `lint` nor
    // `lint_deny`.
    config.lint = lint_gate(lint, deny)?;
    if chaos_trace.is_some() && chaos_seed.is_none() {
        return Err("--chaos-trace requires --chaos-seed".into());
    }
    // v1 (line-oriented) and v2 (JSON) manifests both fill the one
    // `BatchRequest` the typed API uses.
    let batch = BatchRequest::from_file(input).map_err(|e| e.to_string())?;
    let report = match chaos_seed {
        // Chaos mode: the same report pipeline, but the farm runs under
        // the seeded injector; the whole storm replays from the seed.
        Some(seed) => {
            let outcome = run_chaos(&batch, config, &ChaosConfig::from_seed(seed));
            if let Some(path) = &chaos_trace {
                std::fs::write(path, outcome.trace.render_text())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            outcome.report
        }
        None => run_batch(&batch, &config),
    };
    let rendered = if json {
        let mut json = report.to_json(&JsonOptions { timings });
        json.push('\n');
        json
    } else {
        report.render_text(timings)
    };
    if report.all_ok() {
        Ok(rendered)
    } else {
        let mut message = format!(
            "{} of {} job(s) failed",
            report.batch.failed, report.batch.jobs
        );
        if let Some(seed) = chaos_seed {
            message.push_str(&format!("; reproduce with --chaos-seed {seed}"));
        }
        Err(Failure {
            message,
            output: rendered,
        })
    }
}

/// Runs the service mode until something shuts it down: SIGTERM/SIGINT,
/// a `"shutdown"` request through either front door, or — the usual
/// test path — a pre-spooled shutdown file.
fn serve_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    let mut config = ServeConfig::new(input);
    let mut lint = false;
    let mut deny = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--socket" => config.socket = Some(flags.path("socket")?),
            "--serve-workers" => config.workers = flags.value(flag)?,
            "--jobs" => config.farm_workers = Some(flags.value(flag)?),
            "--queue-capacity" => config.queue_capacity = flags.value(flag)?,
            "--poll-ms" => config.poll_interval = Duration::from_millis(flags.value(flag)?),
            "--lint" => lint = true,
            "--deny" => deny = Some(flags.deny()?),
            "--retries" => config.max_retries = flags.value(flag)?,
            "--job-timeout-ms" => {
                config.job_timeout = Some(Duration::from_millis(flags.value(flag)?));
            }
            other => return Err(flags.unknown(other)),
        }
    }
    config.admission_lint = lint_gate(lint, deny)?;
    config.handle_signals = true;
    let summary = eblocks::serve::serve(config)?;
    Ok(format!(
        "serve: drained; {} accepted, {} rejected, {} completed\n",
        summary.accepted, summary.rejected, summary.completed
    ))
}

/// Runs a fleet co-simulation from a fleet spec file. CLI flags override
/// the spec's node count, topology, seed, and horizon; `--chaos-seed`
/// additionally runs the fleet under a seeded network storm.
fn fleet_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    use eblocks::chaos::{NetChaosInjector, NetChaosPlan};
    use eblocks::net::{FleetRequest, NetFaultInjector, NoFaults};

    let mut nodes = None;
    let mut topology = None;
    let mut seed = None;
    let mut until = None;
    let mut json = false;
    let mut trace: Option<PathBuf> = None;
    let mut chaos_seed = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--nodes" => nodes = Some(flags.value(flag)?),
            "--topology" => topology = Some(flags.value(flag)?),
            "--seed" => seed = Some(flags.value(flag)?),
            "--until" => until = Some(flags.value(flag)?),
            "--json" => json = true,
            "--trace" => trace = Some(flags.path("trace")?),
            "--chaos-seed" => chaos_seed = Some(flags.value(flag)?),
            other => return Err(flags.unknown(other)),
        }
    }
    let mut spec = FleetRequest::parse(&read(input)?).map_err(|e| e.to_string())?;
    spec.nodes = nodes.unwrap_or(spec.nodes);
    spec.topology = topology.unwrap_or(spec.topology);
    spec.seed = seed.or(spec.seed);
    spec.until = until.or(spec.until);
    let base = input
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let fleet = spec.build(&base).map_err(|e| e.to_string())?;
    let until = spec.until();
    let faults: Box<dyn NetFaultInjector> = match chaos_seed {
        Some(seed) => Box::new(NetChaosInjector::new(seed, NetChaosPlan::storm(until))),
        None => Box::new(NoFaults),
    };
    let outcome = fleet
        .run_with(until, trace.is_some(), faults.as_ref())
        .map_err(|e| e.to_string())?;
    if let Some(path) = &trace {
        let text = outcome.trace.as_deref().expect("trace was requested");
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let report = &outcome.report;
    if json {
        let mut json = report.to_json_pretty();
        json.push('\n');
        return Ok(json);
    }
    let mut out = format!(
        "fleet {}: {} node(s) on {}, seed {}, until {}\n",
        report.name, report.nodes, report.topology, report.seed, report.until
    );
    if let Some(seed) = chaos_seed {
        out.push_str(&format!("chaos storm: seed {seed} (replayable)\n"));
    }
    out.push_str(&format!(
        "events: {}; packets: {} sent, {} delivered, {} dropped, {} in flight; crashes: {}\n",
        report.events,
        report.packets_sent,
        report.packets_delivered,
        report.packets_dropped,
        report.packets_in_flight,
        report.crashes
    ));
    for node in &report.node_stats {
        let crashed = node
            .crashed_at
            .map(|t| format!("  (crashed at t={t})"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<8} @ {:<10} sent {:>5}  received {:>5}  energy {:>10.1} nJ{crashed}\n",
            node.name, node.site, node.sent, node.received, node.energy_nj
        ));
    }
    if let Some(path) = &trace {
        out.push_str(&format!("wrote {}\n", path.display()));
    }
    Ok(out)
}

fn check_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    if let Some(flag) = flags.next() {
        return Err(flags.unknown(flag));
    }
    let design = read_design(input)?;
    design.validate().map_err(|e| e.to_string())?;
    let census = design.census();
    let mut out = format!(
        "{design}\nvalid: yes\ndepth: {}\ninner blocks: {}\n",
        eblocks::core::level::depth(&design),
        census.inner
    );
    // Validation only rejects hard errors; the lint rules also catch
    // suspicious-but-legal structure, so surface their findings here.
    let report = lint_design(&design, &LintConfig::default());
    if !report.is_clean() {
        out.push_str(&render_lint_report(&report));
        out.push_str(&format!("lint: {}\n", report.outcome()));
    }
    Ok(out)
}

/// True when `text` reads as a netlist rather than a behavior program:
/// netlists open with the `eblocks-netlist` format header or line-oriented
/// `design`/`block`/`wire` statements, behavior programs with
/// `state`/`on input`/`on tick` blocks.
fn is_netlist_text(text: &str) -> bool {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|line| !line.is_empty())
        .take(1)
        .all(|line| {
            ["eblocks-netlist", "design ", "block ", "wire "]
                .iter()
                .any(|kw| line.starts_with(kw))
        })
}

/// One diagnostic per line, hints indented beneath.
fn render_lint_report(report: &eblocks::lint::LintReport) -> String {
    let mut out = String::new();
    for diagnostic in &report.diagnostics {
        out.push_str(&format!("{diagnostic}\n"));
        if let Some(hint) = &diagnostic.hint {
            out.push_str(&format!("  hint: {hint}\n"));
        }
    }
    out
}

/// Statically analyzes one file — or every `*.netlist` in a directory —
/// without synthesizing anything. Exits non-zero when the findings trip
/// the `--deny` level; `--json` renders the typed `RunReport`.
///
/// Directory contract: every entry is considered but only `*.netlist`
/// files are linted — any other extension is skipped explicitly — and
/// the survivors are sorted byte-wise, so the report order depends
/// neither on readdir order nor on locale.
///
/// `--fix` applies machine-applicable fixes to each file until none
/// remain (the apply-then-relint fixpoint), rewriting the file in place;
/// `--fix --check` is the dry run — nothing is written, and the command
/// exits non-zero if any file still has pending fixes.
fn lint_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    let mut config = LintConfig::default();
    // The pin arities behavior programs are checked against.
    let mut arity = ProgrammableSpec::default();
    let mut json = false;
    let mut fix = false;
    let mut check = false;
    while let Some(flag) = flags.next() {
        match flag {
            "--json" => json = true,
            "--deny" => config.deny = flags.deny()?,
            "--inputs" => arity.inputs = flags.value(flag)?,
            "--outputs" => arity.outputs = flags.value(flag)?,
            "--fix" => fix = true,
            "--check" => check = true,
            other => return Err(flags.unknown(other)),
        }
    }
    if check && !fix {
        return Err("--check requires --fix (it is the dry-run mode of `lint --fix`)".into());
    }
    let mut files: Vec<PathBuf> = if input.is_dir() {
        let mut found = Vec::new();
        let entries = std::fs::read_dir(input)
            .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            // Only `*.netlist` is linted; goldens, docs, and editor
            // droppings sharing the directory are skipped by extension.
            if path.extension().is_some_and(|ext| ext == "netlist") {
                found.push(path);
            }
        }
        if found.is_empty() {
            return Err(format!("no .netlist files in {}", input.display()).into());
        }
        found
    } else {
        vec![input.to_path_buf()]
    };
    files.sort_by(|a, b| {
        a.as_os_str()
            .as_encoded_bytes()
            .cmp(b.as_os_str().as_encoded_bytes())
    });

    let mut run = RunReport::default();
    let mut pending: Vec<String> = Vec::new();
    let mut rewritten = 0usize;
    for file in &files {
        let text = read(file)?;
        let is_netlist = is_netlist_text(&text);
        let lint_one = |t: &str| {
            if is_netlist {
                lint_netlist(t, &config)
            } else {
                lint_behavior(t, arity.inputs, arity.outputs, &config)
            }
        };
        let report = if fix {
            let (fixed, _rounds) = fix_to_fixpoint(&text, lint_one);
            if fixed == text {
                lint_one(&text)
            } else if check {
                pending.push(file.display().to_string());
                lint_one(&text) // dry run: disk is untouched, report what's there
            } else {
                std::fs::write(file, &fixed)
                    .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                rewritten += 1;
                lint_one(&fixed)
            }
        } else {
            lint_one(&text)
        };
        run.push(file.display().to_string(), &report);
    }

    let rendered = if json {
        let mut json = serde::json::to_string_pretty(&run);
        json.push('\n');
        json
    } else {
        let mut out = String::new();
        for file in &run.files {
            if file.diagnostics.is_empty() {
                out.push_str(&format!("{}: clean\n", file.file));
            } else {
                out.push_str(&format!("{}:\n", file.file));
                for diagnostic in &file.diagnostics {
                    // Positioned findings lead with the clickable
                    // file:line:col anchor.
                    match (diagnostic.line, diagnostic.col) {
                        (Some(line), Some(col)) => {
                            out.push_str(&format!("  {}:{line}:{col}: {diagnostic}\n", file.file))
                        }
                        _ => out.push_str(&format!("  {diagnostic}\n")),
                    }
                    if let Some(hint) = &diagnostic.hint {
                        out.push_str(&format!("    hint: {hint}\n"));
                    }
                }
            }
        }
        if rewritten > 0 {
            out.push_str(&format!("fixed {rewritten} file(s)\n"));
        }
        for file in &pending {
            out.push_str(&format!("{file}: has pending fixes\n"));
        }
        let outcome = run.outcome();
        out.push_str(&outcome.to_string());
        if outcome.fix_count() > 0 {
            out.push_str(&format!(", {} fixable", outcome.fix_count()));
        }
        out.push('\n');
        out
    };
    let mut failures: Vec<String> = Vec::new();
    if run.rejects(config.deny) {
        failures.push(format!(
            "lint: {} across {} file(s)",
            run.outcome(),
            run.files.len()
        ));
    }
    if !pending.is_empty() {
        failures.push(format!("{} file(s) have pending fixes", pending.len()));
    }
    if failures.is_empty() {
        Ok(rendered)
    } else {
        Err(Failure {
            message: failures.join("; "),
            output: rendered,
        })
    }
}

/// Prints the partitioning the pipeline's partition stage produces under
/// the `--inputs`/`--outputs` pin budget, checked against it.
fn partition_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    let mut partitioner = None;
    let mut spec = ProgrammableSpec::default();
    while let Some(flag) = flags.next() {
        match flag {
            "--partitioner" => partitioner = Some(flags.partitioner()?),
            "--inputs" => spec.inputs = flags.value(flag)?,
            "--outputs" => spec.outputs = flags.value(flag)?,
            other => return Err(flags.unknown(other)),
        }
    }
    let design = read_design(input)?;
    let strategy =
        Registry::builtin().from_str(partitioner.as_deref().unwrap_or(DEFAULT_PARTITIONER))?;
    let (result, _) = Pipeline::new(&design)
        .constraints(PartitionConstraints::with_spec(spec))
        .partition_only(strategy.as_ref())
        .map_err(|e| e.to_string())?;
    let mut out = format!("{result}\n");
    for (i, partition) in result.partitions().iter().enumerate() {
        let names: Vec<&str> = partition
            .iter()
            .map(|&b| design.block(b).expect("member").name())
            .collect();
        out.push_str(&format!("partition {i}: {}\n", names.join(", ")));
    }
    let uncovered: Vec<&str> = result
        .uncovered()
        .iter()
        .map(|&b| design.block(b).expect("member").name())
        .collect();
    if !uncovered.is_empty() {
        out.push_str(&format!("pre-defined: {}\n", uncovered.join(", ")));
    }
    Ok(out)
}

/// Thin front end over [`api::synthesize`]: read the flags into the typed
/// [`SynthRequest`] a synthesis RPC endpoint would accept, run it, write
/// the response's artifacts to disk, render the summary.
fn synth_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    let mut request = SynthRequest::new(DesignSource::Netlist(input.to_path_buf()));
    let mut outdir: Option<PathBuf> = None;
    let mut lint = false;
    let mut deny = None;
    let mut json = false;
    let mut timings = false;
    while let Some(flag) = flags.next() {
        match flag {
            "-o" | "--outdir" => outdir = Some(flags.value("-o")?),
            "--partitioner" => request.partitioner = Some(flags.partitioner()?),
            "--inputs" => request.options.inputs = Some(flags.value(flag)?),
            "--outputs" => request.options.outputs = Some(flags.value(flag)?),
            "--no-verify" => request.options.verify = Some(false),
            "--lint" => lint = true,
            "--deny" => deny = Some(flags.deny()?),
            "--json" => json = true,
            "--timings" => timings = true,
            other => return Err(flags.unknown(other)),
        }
    }
    if let Some(gate) = lint_gate(lint, deny)? {
        request.options.lint = Some(true);
        request.options.lint_deny = Some(gate.deny);
    }
    let response = api::synthesize(&request)?;

    let outdir = outdir
        .or_else(|| input.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&outdir).map_err(|e| e.to_string())?;

    let netlist_path = outdir.join(format!("{}.netlist", response.synthesized));
    std::fs::write(&netlist_path, &response.netlist).map_err(|e| e.to_string())?;
    let mut written = vec![netlist_path.display().to_string()];
    for source in &response.c_sources {
        let path = outdir.join(format!("{}.c", source.block));
        std::fs::write(&path, &source.code).map_err(|e| e.to_string())?;
        written.push(path.display().to_string());
    }

    if json {
        let mut out = serde::json::to_string_pretty(&response);
        out.push('\n');
        return Ok(out);
    }

    let mut out = format!(
        "{}: {} inner blocks -> {} ({} programmable)\n",
        response.design, response.inner_before, response.inner_after, response.partitions
    );
    if let Some(samples) = response.verified_samples {
        out.push_str(&format!("verified equivalent at {samples} samples\n"));
    }
    // A successful run can only carry admitted findings (warnings under
    // the default deny level); rejections fail before reaching here.
    if let Some(warnings) = response.lint_warnings {
        out.push_str(&format!("lint: {warnings} warning(s)\n"));
    }
    if timings {
        for row in &response.stages_ms {
            out.push_str(&format!(
                "stage {:<9} {:>9.3}ms  {}\n",
                row.stage, row.ms, row.detail
            ));
        }
    }
    for path in written {
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

/// Parses a stimulus script: `<time> <sensor> <0|1|true|false>` per line.
fn parse_stimulus(text: &str) -> Result<eblocks::sim::Stimulus, String> {
    let mut stim = eblocks::sim::Stimulus::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [time, sensor, value] = parts.as_slice() else {
            return Err(format!(
                "stimulus line {}: expected `<time> <sensor> <0|1>`",
                i + 1
            ));
        };
        let time: u64 = time
            .parse()
            .map_err(|_| format!("stimulus line {}: bad time `{time}`", i + 1))?;
        let value = match *value {
            "0" | "false" => false,
            "1" | "true" => true,
            other => return Err(format!("stimulus line {}: bad value `{other}`", i + 1)),
        };
        stim = stim.set(time, *sensor, value);
    }
    Ok(stim)
}

fn sim_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    let mut stimulus = None;
    let mut until = 1000;
    let mut vcd = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--stimulus" => stimulus = Some(flags.path("stimulus")?),
            "--until" => until = flags.value(flag)?,
            "--vcd" => vcd = Some(flags.path("vcd")?),
            other => return Err(flags.unknown(other)),
        }
    }
    let design = read_design(input)?;
    let stim = match &stimulus {
        Some(path) => parse_stimulus(&read(path)?)?,
        None => eblocks::synth::exercise_all_sensors(&design, until / 16),
    };
    let sim = eblocks::sim::Simulator::new(&design).map_err(|e| e.to_string())?;
    let trace = sim.run(&stim, until).map_err(|e| e.to_string())?;

    let mut out = String::new();
    out.push_str(&eblocks::sim::render_all(&trace, until, 64));
    if let Some(path) = &vcd {
        let vcd = eblocks::sim::to_vcd(&trace, design.name(), until);
        std::fs::write(path, vcd).map_err(|e| e.to_string())?;
        out.push_str(&format!("wrote {}\n", path.display()));
    }
    Ok(out)
}

fn place_command(input: &Path, mut flags: Flags) -> Result<String, Failure> {
    use eblocks::place::{anneal_place, PlaceAnnealConfig, PlacementProblem, Topology};

    let mut grid = None;
    let mut topology = None;
    let mut pins: Vec<(String, String)> = Vec::new();
    let mut config = PlaceAnnealConfig::default();
    while let Some(flag) = flags.next() {
        match flag {
            "--grid" => {
                let spec: String = flags.value(flag)?;
                let (w, h) = spec
                    .split_once(['x', 'X'])
                    .ok_or("bad --grid value, expected WxH")?;
                grid = Some((
                    w.parse::<usize>().map_err(|_| "bad --grid width")?,
                    h.parse::<usize>().map_err(|_| "bad --grid height")?,
                ));
            }
            "--topology" => topology = Some(flags.path("topology")?),
            "--pin" => {
                let spec: String = flags.value(flag)?;
                let (name, at) = spec
                    .split_once('=')
                    .ok_or("bad --pin value, expected block=COL,ROW or block=SITE")?;
                pins.push((name.to_string(), at.to_string()));
            }
            "--iterations" => config.iterations = flags.value(flag)?,
            other => return Err(flags.unknown(other)),
        }
    }
    let design = read_design(input)?;
    design.validate().map_err(|e| e.to_string())?;
    let (topo, shape) = match (grid, &topology) {
        (Some(_), Some(_)) => return Err("--grid and --topology are mutually exclusive".into()),
        (Some((w, h)), None) => {
            if w == 0 || h == 0 {
                return Err("--grid dimensions must be positive".into());
            }
            (Topology::grid(w, h), format!("{w}x{h} grid"))
        }
        (None, Some(path)) => {
            let topo = eblocks::place::from_text(&read(path)?).map_err(|e| e.to_string())?;
            (topo, path.display().to_string())
        }
        (None, None) => return Err("place requires --grid WxH or --topology FILE".into()),
    };
    let mut problem = PlacementProblem::new(&design, &topo).map_err(|e| e.to_string())?;
    for (name, at) in &pins {
        let block = design
            .block_by_name(name)
            .ok_or_else(|| format!("unknown block `{name}` in --pin"))?;
        // COL,ROW on grids; otherwise a site name.
        let site = match at.split_once(',') {
            Some((col, row)) => {
                let col: usize = col.parse().map_err(|_| "bad --pin column")?;
                let row: usize = row.parse().map_err(|_| "bad --pin row")?;
                topo.site_at(col, row)
                    .ok_or_else(|| format!("--pin {name}: ({col},{row}) outside the {shape}"))?
            }
            None => topo
                .site_by_name(at)
                .ok_or_else(|| format!("--pin {name}: unknown site `{at}`"))?,
        };
        problem.pin(block, site).map_err(|e| e.to_string())?;
    }

    let placement = anneal_place(&problem, &config).map_err(|e| e.to_string())?;
    placement.verify(&problem).map_err(|e| e.to_string())?;
    let cost = placement.cost(&problem).map_err(|e| e.to_string())?;

    let mut out = format!(
        "placed {} blocks on {shape}; total routed wire: {cost} hops\n",
        design.num_blocks()
    );
    for block in design.blocks() {
        let name = design
            .block(block)
            .expect("iterating blocks")
            .name()
            .to_string();
        let site = placement.site_of(block).expect("complete placement");
        let pinned = if pins.iter().any(|(n, _)| *n == name) {
            "  (pinned)"
        } else {
            ""
        };
        out.push_str(&format!(
            "  {name:<16} -> {}{pinned}\n",
            topo.site(site).expect("valid site").name()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_garage(dir: &Path) -> PathBuf {
        let netlist = "\
design garage
block door sensor:contact
block light sensor:light
block inv compute:not
block both compute:logic2:AND
block led output:led
wire door.0 -> both.0
wire light.0 -> inv.0
wire inv.0 -> both.1
wire both.0 -> led.0
";
        let path = dir.join("garage.netlist");
        std::fs::write(&path, netlist).unwrap();
        path
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eblocks-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn check_reports_stats() {
        let dir = tempdir("check");
        let path = write_garage(&dir);
        let out = run(&s(&["check", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("valid: yes"), "{out}");
        assert!(out.contains("inner blocks: 2"), "{out}");
    }

    #[test]
    fn partition_lists_members() {
        let dir = tempdir("part");
        let path = write_garage(&dir);
        let out = run(&s(&["partition", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("partition 0: inv, both"), "{out}");
    }

    #[test]
    fn synth_writes_artifacts() {
        let dir = tempdir("synth");
        let path = write_garage(&dir);
        let out = run(&s(&[
            "synth",
            path.to_str().unwrap(),
            "-o",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains("2 inner blocks -> 1 (1 programmable)"),
            "{out}"
        );
        assert!(out.contains("verified equivalent"), "{out}");
        let synth_netlist = std::fs::read_to_string(dir.join("garage-synth.netlist")).unwrap();
        assert!(
            synth_netlist.contains("programmable:2in/2out"),
            "{synth_netlist}"
        );
        let c = std::fs::read_to_string(dir.join("prog0.c")).unwrap();
        assert!(c.contains("eblock_on_input"), "{c}");
    }

    #[test]
    fn synth_respects_spec_flags() {
        let dir = tempdir("spec");
        let path = write_garage(&dir);
        // 1-in/1-out blocks cannot absorb the 2-input AND cone.
        let out = run(&s(&[
            "synth",
            path.to_str().unwrap(),
            "-o",
            dir.to_str().unwrap(),
            "--inputs",
            "1",
            "--outputs",
            "1",
            "--no-verify",
        ]))
        .unwrap();
        assert!(
            out.contains("2 inner blocks -> 2 (0 programmable)"),
            "{out}"
        );
    }

    #[test]
    fn all_five_partitioners_selectable() {
        let dir = tempdir("strategies");
        let path = write_garage(&dir);
        for name in Registry::builtin().names() {
            let out = run(&s(&[
                "synth",
                path.to_str().unwrap(),
                "-o",
                dir.to_str().unwrap(),
                "--partitioner",
                name,
            ]))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.contains("2 inner blocks -> 1"), "{name}: {out}");
            let part = run(&s(&[
                "partition",
                path.to_str().unwrap(),
                "--partitioner",
                name,
            ]))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(part.contains("1 partitions"), "{name}: {part}");
        }
    }

    #[test]
    fn unknown_partitioner_lists_available() {
        let dir = tempdir("unknown");
        let path = write_garage(&dir);
        let err = run(&s(&[
            "synth",
            path.to_str().unwrap(),
            "--partitioner",
            "magic",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown partitioner"), "{err}");
        assert!(err.contains("anneal") && err.contains("refine"), "{err}");
    }

    #[test]
    fn algorithm_flag_is_unknown() {
        let dir = tempdir("algorithm");
        let path = write_garage(&dir);
        let err = run(&s(&[
            "partition",
            path.to_str().unwrap(),
            "--algorithm",
            "exhaustive",
        ]))
        .unwrap_err();
        assert!(
            err.message.starts_with("unknown flag `--algorithm`"),
            "{err}"
        );
    }

    #[test]
    fn timings_flag_prints_stage_breakdown() {
        let dir = tempdir("timings");
        let path = write_garage(&dir);
        let out = run(&s(&[
            "synth",
            path.to_str().unwrap(),
            "-o",
            dir.to_str().unwrap(),
            "--timings",
        ]))
        .unwrap();
        for stage in ["partition", "merge", "rewrite", "verify", "emit-c"] {
            assert!(out.contains(&format!("stage {stage}")), "{stage}: {out}");
        }
    }

    #[test]
    fn list_partitioners_paths() {
        let all = ["pare-down", "exhaustive", "aggregation", "refine", "anneal"];
        let out = run(&s(&["--list-partitioners"])).unwrap();
        for name in all {
            assert!(out.contains(name), "{name}: {out}");
        }
        // `--partitioner list` short-circuits before any file is read.
        let out = run(&s(&["synth", "/nonexistent", "--partitioner", "list"])).unwrap();
        for name in all {
            assert!(out.contains(name), "{name}: {out}");
        }
    }

    /// A parseable netlist seeded with several distinct defects: `gate.1`
    /// has no driver (E001), `ghost` dangles (E002), and neither `ghost`
    /// nor `light` ever reaches an output (W007).
    fn write_broken(dir: &Path) -> PathBuf {
        let netlist = "\
design broken
block door sensor:contact
block light sensor:light
block gate compute:logic2:AND
block ghost compute:not
block led output:led
wire door.0 -> gate.0
wire gate.0 -> led.0
wire light.0 -> ghost.0
";
        let path = dir.join("broken.netlist");
        std::fs::write(&path, netlist).unwrap();
        path
    }

    #[test]
    fn lint_reports_every_defect_in_one_run() {
        let dir = tempdir("lint-broken");
        let path = write_broken(&dir);
        let failure = run(&s(&["lint", path.to_str().unwrap()])).unwrap_err();
        for code in ["E001", "E002", "W007"] {
            assert!(failure.output.contains(code), "{code}: {}", failure.output);
        }
        assert!(failure.message.contains("error(s)"), "{}", failure.message);
        // Stable order: errors sort before warnings, codes ascending.
        let e001 = failure.output.find("E001").unwrap();
        let e002 = failure.output.find("E002").unwrap();
        let w007 = failure.output.find("W007").unwrap();
        assert!(e001 < e002 && e002 < w007, "{}", failure.output);

        // --json renders the typed RunReport, byte-identically per run.
        let a = run(&s(&["lint", path.to_str().unwrap(), "--json"])).unwrap_err();
        let b = run(&s(&["lint", path.to_str().unwrap(), "--json"])).unwrap_err();
        assert_eq!(a.output, b.output);
        assert!(a.output.contains(r#""code": "E001""#), "{}", a.output);
    }

    #[test]
    fn lint_clean_inputs_and_deny_levels() {
        let dir = tempdir("lint-clean");
        let netlist = write_garage(&dir);
        let out = run(&s(&["lint", netlist.to_str().unwrap()])).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("0 error(s), 0 warning(s)"), "{out}");

        // A warnings-only behavior program passes by default but is
        // rejected under --deny warnings.
        let program = dir.join("toggle.behavior");
        std::fs::write(&program, "state unused = 0;\non input { out0 = in0; }\n").unwrap();
        let out = run(&s(&["lint", program.to_str().unwrap()])).unwrap();
        assert!(out.contains("W120"), "{out}");
        let failure = run(&s(&[
            "lint",
            program.to_str().unwrap(),
            "--deny",
            "warnings",
        ]))
        .unwrap_err();
        assert!(failure.output.contains("W120"), "{}", failure.output);

        let err = run(&s(&["lint", program.to_str().unwrap(), "--deny", "hard"])).unwrap_err();
        assert!(err.contains("bad --deny value"), "{err}");
    }

    #[test]
    fn lint_walks_directories_in_stable_order() {
        let dir = tempdir("lint-dir");
        write_garage(&dir);
        write_broken(&dir);
        let failure = run(&s(&["lint", dir.to_str().unwrap()])).unwrap_err();
        let broken = failure.output.find("broken.netlist").unwrap();
        let garage = failure.output.find("garage.netlist").unwrap();
        assert!(broken < garage, "sorted by name: {}", failure.output);
        assert!(
            failure.output.contains("garage.netlist: clean"),
            "{}",
            failure.output
        );

        let empty = dir.join("no-netlists");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&s(&["lint", empty.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no .netlist files"), "{err}");
    }

    #[test]
    fn check_surfaces_lint_findings() {
        let dir = tempdir("check-lint");
        let path = write_garage(&dir);
        let out = run(&s(&["check", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("valid: yes"), "{out}");
        assert!(!out.contains("lint:"), "clean designs stay quiet: {out}");

        // Valid (every port wired) but suspicious: one sensor fanning
        // out to nine sinks blows the fan-out budget (W008).
        let mut netlist = String::from("design fanout\nblock s sensor:light\n");
        for i in 0..9 {
            netlist.push_str(&format!("block led{i} output:led\n"));
        }
        for i in 0..9 {
            netlist.push_str(&format!("wire s.0 -> led{i}.0\n"));
        }
        let path = dir.join("fanout.netlist");
        std::fs::write(&path, netlist).unwrap();
        let out = run(&s(&["check", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("valid: yes"), "{out}");
        assert!(out.contains("W008"), "{out}");
        assert!(out.contains("lint: 0 error(s), 1 warning(s)"), "{out}");
    }

    #[test]
    fn synth_and_batch_accept_the_lint_gate() {
        let dir = tempdir("lint-gate");
        let netlist = write_garage(&dir);
        // Clean design: --lint changes nothing observable.
        let out = run(&s(&[
            "synth",
            netlist.to_str().unwrap(),
            "-o",
            dir.to_str().unwrap(),
            "--lint",
            "--deny",
            "warnings",
        ]))
        .unwrap();
        assert!(out.contains("2 inner blocks -> 1"), "{out}");
        assert!(!out.contains("lint:"), "{out}");

        let broken = write_broken(&dir);
        let err = run(&s(&[
            "synth",
            broken.to_str().unwrap(),
            "-o",
            dir.to_str().unwrap(),
            "--lint",
        ]))
        .unwrap_err();
        assert!(err.contains("lint rejected the design"), "{err}");
        assert!(err.contains("E001"), "{err}");

        // batch --lint gates every job the same way.
        let manifest = dir.join("lint.manifest");
        std::fs::write(
            &manifest,
            format!(
                "job netlist=\"{}\"\njob netlist=\"{}\"\n",
                netlist.display(),
                broken.display()
            ),
        )
        .unwrap();
        let failure = run(&s(&["batch", manifest.to_str().unwrap(), "--lint"])).unwrap_err();
        assert!(
            failure.message.contains("1 of 2 job(s) failed"),
            "{}",
            failure.message
        );
        assert!(
            failure.output.contains("lint rejected the design"),
            "{}",
            failure.output
        );
        // Without the gate both jobs synthesize (the defects are legal,
        // merely suspicious — `broken` fails validation though, so it
        // still fails, just not on lint).
        let no_gate = run(&s(&["batch", manifest.to_str().unwrap()])).unwrap_err();
        assert!(
            !no_gate.output.contains("lint rejected"),
            "{}",
            no_gate.output
        );
    }

    #[test]
    fn batch_runs_a_manifest() {
        let dir = tempdir("batch");
        let netlist = write_garage(&dir);
        let manifest = dir.join("batch.manifest");
        std::fs::write(
            &manifest,
            format!(
                "default partitioner=pare-down\n\
                 job netlist=\"{}\"\n\
                 job library=\"Ignition Illuminator\" partitioner=refine\n\
                 job generated=10 seed=3 mode=partition\n",
                netlist.display()
            ),
        )
        .unwrap();
        let out = run(&s(&[
            "batch",
            manifest.to_str().unwrap(),
            "--jobs",
            "2",
            "--timings",
        ]))
        .unwrap();
        assert!(out.contains("3 job(s), 3 ok, 0 failed"), "{out}");
        assert!(out.contains("garage") && out.contains("gen10-3"), "{out}");
        assert!(out.contains("stage totals"), "{out}");

        // JSON mode, deterministic across worker counts.
        let json1 = run(&s(&[
            "batch",
            manifest.to_str().unwrap(),
            "--jobs",
            "1",
            "--json",
        ]))
        .unwrap();
        let json8 = run(&s(&[
            "batch",
            manifest.to_str().unwrap(),
            "--jobs",
            "8",
            "--json",
        ]))
        .unwrap();
        assert_eq!(json1, json8, "byte-identical across worker counts");
        assert!(json1.contains(r#""succeeded":3"#), "{json1}");
        assert!(!json1.contains("elapsed_ms"), "{json1}");

        // A failing job makes the whole command fail, with the report.
        std::fs::write(
            &manifest,
            "job netlist=ghost.netlist\njob library=\"Carpool Alert\"\n",
        )
        .unwrap();
        let err = run(&s(&["batch", manifest.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("1 of 2 job(s) failed"), "{err}");
        assert!(err.contains("cannot read"), "{err}");

        // Manifest syntax errors carry line numbers.
        std::fs::write(&manifest, "job\n").unwrap();
        let err = run(&s(&["batch", manifest.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn batch_failure_keeps_report_on_stdout() {
        let dir = tempdir("batch-fail-split");
        let manifest = dir.join("batch.manifest");
        std::fs::write(&manifest, "job netlist=ghost.netlist\n").unwrap();
        let failure = run(&s(&["batch", manifest.to_str().unwrap(), "--json"])).unwrap_err();
        assert_eq!(failure.message, "1 of 1 job(s) failed");
        assert!(failure.output.starts_with('{'), "{}", failure.output);
        assert!(
            failure.output.contains(r#""status":"failed""#),
            "{}",
            failure.output
        );
    }

    /// A small all-generated manifest for the chaos CLI tests.
    fn write_chaos_manifest(dir: &Path) -> PathBuf {
        let manifest = dir.join("chaos.manifest");
        std::fs::write(
            &manifest,
            "job generated=8 seed=1 mode=partition\n\
             job generated=10 seed=2 mode=partition\n\
             job generated=12 seed=3 mode=partition\n\
             job library=\"Ignition Illuminator\"\n",
        )
        .unwrap();
        manifest
    }

    #[test]
    fn chaos_run_is_replayable_from_the_seed() {
        let dir = tempdir("chaos-replay");
        let manifest = write_chaos_manifest(&dir);
        let trace_a = dir.join("a.trace");
        let trace_b = dir.join("b.trace");
        let run_once = |trace: &Path| {
            run(&s(&[
                "batch",
                manifest.to_str().unwrap(),
                "--chaos-seed",
                "42",
                "--retries",
                "3",
                "--json",
                "--chaos-trace",
                trace.to_str().unwrap(),
            ]))
        };
        let out_a = run_once(&trace_a).expect("seed 42 with retries recovers");
        let out_b = run_once(&trace_b).expect("seed 42 with retries recovers");
        assert_eq!(out_a, out_b, "report must replay byte-identically");
        let bytes_a = std::fs::read_to_string(&trace_a).unwrap();
        let bytes_b = std::fs::read_to_string(&trace_b).unwrap();
        assert_eq!(bytes_a, bytes_b, "trace must replay byte-identically");
        assert!(
            bytes_a.starts_with("chaos trace v1: seed 42, 4 job(s)"),
            "{bytes_a}"
        );
        assert!(bytes_a.contains("pickup order:"), "{bytes_a}");
    }

    #[test]
    fn chaos_failure_prints_the_reproducing_seed() {
        // With no retry budget the storm eventually kills a job; the
        // failure must name the seed, and that seed must replay the same
        // failure exactly.
        let dir = tempdir("chaos-fail");
        let manifest = write_chaos_manifest(&dir);
        let storm = |seed: u64| {
            run(&s(&[
                "batch",
                manifest.to_str().unwrap(),
                "--chaos-seed",
                &seed.to_string(),
                "--json",
            ]))
        };
        let (seed, failure) = (1..=64)
            .find_map(|seed| storm(seed).err().map(|f| (seed, f)))
            .expect("some seed in 1..=64 fails a job with no retry budget");
        assert!(
            failure
                .message
                .ends_with(&format!("; reproduce with --chaos-seed {seed}")),
            "{}",
            failure.message
        );
        assert!(failure.output.starts_with('{'), "{}", failure.output);

        let replay = storm(seed).expect_err("the printed seed replays the failure");
        assert_eq!(failure.message, replay.message);
        assert_eq!(failure.output, replay.output);
    }

    #[test]
    fn chaos_flags_are_validated() {
        let dir = tempdir("chaos-flags");
        let manifest = write_chaos_manifest(&dir);
        let path = manifest.to_str().unwrap();

        let err = run(&s(&["batch", path, "--chaos-trace", "t.txt"])).unwrap_err();
        assert!(err.contains("--chaos-trace requires --chaos-seed"), "{err}");

        let err = run(&s(&["batch", path, "--chaos-seed", "many"])).unwrap_err();
        assert!(err.contains("bad --chaos-seed value"), "{err}");

        let err = run(&s(&["batch", path, "--retries", "-1"])).unwrap_err();
        assert!(err.contains("bad --retries value"), "{err}");

        let err = run(&s(&["batch", path, "--job-timeout-ms", "soon"])).unwrap_err();
        assert!(err.contains("bad --job-timeout-ms value"), "{err}");

        let err = run(&s(&["batch", path, "--chaos-seed"])).unwrap_err();
        assert!(err.contains("--chaos-seed"), "{err}");
    }

    #[test]
    fn batch_rejects_unsupported_flags() {
        let dir = tempdir("batch-flags");
        let manifest = dir.join("batch.manifest");
        std::fs::write(&manifest, "job library=\"Ignition Illuminator\"\n").unwrap();
        let path = manifest.to_str().unwrap();
        let err = run(&s(&["batch", path, "--no-verify"])).unwrap_err();
        assert!(err.contains("--no-verify is not supported"), "{err}");
        assert!(
            err.contains("verify=false"),
            "points at the manifest: {err}"
        );
        let err = run(&s(&["batch", path, "--inputs", "3"])).unwrap_err();
        assert!(err.contains("--inputs/--outputs"), "{err}");
    }

    #[test]
    fn batch_partitioner_flag_is_a_default_override() {
        let dir = tempdir("batch-override");
        let manifest = dir.join("batch.manifest");
        std::fs::write(
            &manifest,
            "job library=\"Ignition Illuminator\"\n\
             job library=\"Carpool Alert\" partitioner=aggregation\n",
        )
        .unwrap();
        let out = run(&s(&[
            "batch",
            manifest.to_str().unwrap(),
            "--partitioner",
            "refine",
        ]))
        .unwrap();
        assert!(out.contains("refine"), "{out}");
        assert!(out.contains("aggregation"), "per-job choice wins: {out}");
    }

    #[test]
    fn serve_answers_the_spool_then_drains_on_shutdown() {
        let dir = tempdir("serve-shutdown");
        let spool = dir.join("spool");
        let inbox = spool.join("inbox");
        std::fs::create_dir_all(&inbox).unwrap();
        // One scan claims files in name order: the batch request is
        // admitted before the shutdown file begins the drain.
        std::fs::write(
            inbox.join("00-request.json"),
            r#"{"jobs": [{"source": {"library": "Carpool Alert"}}]}"#,
        )
        .unwrap();
        std::fs::write(inbox.join("99-shutdown.json"), "\"shutdown\"").unwrap();
        let out = run(&s(&["serve", spool.to_str().unwrap(), "--jobs", "1"])).unwrap();
        assert!(out.contains("1 accepted, 0 rejected, 1 completed"), "{out}");

        let response = std::fs::read_to_string(spool.join("outbox/00-request.json")).unwrap();
        assert!(response.contains(r#""succeeded":1"#), "{response}");
        let ack = std::fs::read_to_string(spool.join("outbox/99-shutdown.json")).unwrap();
        assert_eq!(ack, "\"shutdown\"\n");
        assert!(
            std::fs::read_dir(&inbox).unwrap().next().is_none(),
            "inbox fully consumed"
        );
    }

    #[test]
    fn serve_flags_are_validated() {
        let err = run(&s(&["serve", "/tmp/x", "--queue-capacity", "many"])).unwrap_err();
        assert!(err.contains("bad --queue-capacity value"), "{err}");
        let err = run(&s(&["serve", "/tmp/x", "--poll-ms", "soon"])).unwrap_err();
        assert!(err.contains("bad --poll-ms value"), "{err}");
        let err = run(&s(&["serve", "/tmp/x", "--serve-workers", "-2"])).unwrap_err();
        assert!(err.contains("bad --serve-workers value"), "{err}");
        let err = run(&s(&["serve", "/tmp/x", "--socket"])).unwrap_err();
        assert!(err.contains("missing socket path"), "{err}");
    }

    #[test]
    fn deny_requires_lint() {
        let dir = tempdir("deny-lint");
        let netlist = write_garage(&dir);
        let manifest = dir.join("deny.manifest");
        std::fs::write(&manifest, "job library=\"Carpool Alert\"\n").unwrap();
        let spool = dir.join("spool");
        let out = dir.join("out");
        for args in [
            [
                "synth",
                netlist.to_str().unwrap(),
                "-o",
                out.to_str().unwrap(),
            ],
            ["batch", manifest.to_str().unwrap(), "--jobs", "1"],
            ["serve", spool.to_str().unwrap(), "--jobs", "1"],
        ] {
            let mut args = s(&args);
            args.extend(s(&["--deny", "warnings"]));
            let err = run(&args).unwrap_err();
            assert_eq!(err.message, "--deny requires --lint", "{args:?}");
            assert!(err.output.is_empty(), "{args:?}: {err}");
        }
        assert!(!out.exists(), "synth wrote nothing");
        assert!(!spool.exists(), "the daemon never started");
    }

    #[test]
    fn no_lint_is_an_unknown_flag() {
        for command in ["synth", "batch", "serve"] {
            let err = run(&s(&[command, "/nonexistent", "--no-lint"])).unwrap_err();
            assert!(
                err.message
                    .starts_with(&format!("unknown flag `--no-lint` for `{command}`\nusage:")),
                "{err}"
            );
        }
    }

    #[test]
    fn partition_reports_invalid_designs_like_synth() {
        let dir = tempdir("partition-invalid");
        let broken = write_broken(&dir);
        let path = broken.to_str().unwrap();
        let err = run(&s(&["partition", path])).unwrap_err();
        assert!(err.message.starts_with("invalid input design: "), "{err}");
        let synth = run(&s(&["synth", path, "-o", dir.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.message, synth.message);
    }

    #[test]
    fn usage_is_the_module_doc_synopsis() {
        let source = include_str!("eblocks-cli.rs");
        let synopsis: Vec<&str> = USAGE.lines().skip(1).map(str::trim).collect();
        let documented: Vec<&str> = source
            .lines()
            .filter_map(|line| line.strip_prefix("//! "))
            .filter(|line| line.starts_with("eblocks-cli "))
            .collect();
        assert_eq!(synopsis, documented);
    }

    #[test]
    fn bad_usage_is_an_error() {
        assert!(run(&[]).is_err());
        assert!(run(&s(&["frob", "x"])).is_err());
        assert!(run(&s(&["check"])).is_err());
        assert!(run(&s(&["check", "/nonexistent/file"])).is_err());
        let dir = tempdir("flags");
        let path = write_garage(&dir);
        assert!(run(&s(&[
            "synth",
            path.to_str().unwrap(),
            "--algorithm",
            "magic"
        ]))
        .is_err());
        assert!(run(&s(&["synth", path.to_str().unwrap(), "--bogus"])).is_err());
    }

    #[test]
    fn malformed_netlist_reported() {
        let dir = tempdir("bad");
        let path = dir.join("bad.netlist");
        std::fs::write(&path, "block a sensor:warpcore\n").unwrap();
        let err = run(&s(&["check", path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}

#[cfg(test)]
mod place_tests {
    use super::*;
    use std::path::Path;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eblocks-cli-place-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_garage(dir: &Path) -> PathBuf {
        let netlist = "\
design garage
block door sensor:contact
block light sensor:light
block inv compute:not
block both compute:logic2:AND
block led output:led
wire door.0 -> both.0
wire light.0 -> inv.0
wire inv.0 -> both.1
wire both.0 -> led.0
";
        let path = dir.join("garage.netlist");
        std::fs::write(&path, netlist).unwrap();
        path
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn place_reports_assignment_and_cost() {
        let dir = tempdir("basic");
        let path = write_garage(&dir);
        let out = run(&s(&["place", path.to_str().unwrap(), "--grid", "3x2"])).unwrap();
        assert!(out.contains("placed 5 blocks on 3x2 grid"), "{out}");
        assert!(out.contains("led"), "{out}");
        assert!(out.contains("hops"), "{out}");
    }

    #[test]
    fn place_accepts_topology_files_and_named_pins() {
        let dir = tempdir("topo");
        let netlist = write_garage(&dir);
        let topo = dir.join("office.topo");
        std::fs::write(
            &topo,
            "topology office
site closet 3
site garage
site bedroom
             link closet garage
link closet bedroom
",
        )
        .unwrap();
        let out = run(&s(&[
            "place",
            netlist.to_str().unwrap(),
            "--topology",
            topo.to_str().unwrap(),
            "--pin",
            "door=garage",
            "--pin",
            "led=bedroom",
            "--iterations",
            "500",
        ]))
        .unwrap();
        assert!(out.contains("garage") && out.contains("bedroom"), "{out}");
        assert!(out.contains("(pinned)"), "{out}");
        // Malformed topology file is a line-numbered error.
        std::fs::write(
            &topo,
            "site a
link a ghost
",
        )
        .unwrap();
        let err = run(&s(&[
            "place",
            netlist.to_str().unwrap(),
            "--topology",
            topo.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn place_honors_pins() {
        let dir = tempdir("pins");
        let path = write_garage(&dir);
        let out = run(&s(&[
            "place",
            path.to_str().unwrap(),
            "--grid",
            "3x2",
            "--pin",
            "door=0,0",
            "--iterations",
            "500",
        ]))
        .unwrap();
        assert!(out.contains("door"), "{out}");
        assert!(out.contains("(pinned)"), "{out}");
        assert!(out.contains("r0c0"), "{out}");
    }

    #[test]
    fn place_flag_errors() {
        let dir = tempdir("err");
        let path = write_garage(&dir);
        let p = path.to_str().unwrap();
        assert!(run(&s(&["place", p])).unwrap_err().contains("--grid"));
        assert!(run(&s(&["place", p, "--grid", "nope"])).is_err());
        assert!(
            run(&s(&["place", p, "--grid", "1x1"]))
                .unwrap_err()
                .contains("5"),
            "capacity error mentions block count"
        );
        assert!(
            run(&s(&["place", p, "--grid", "3x2", "--pin", "ghost=0,0"]))
                .unwrap_err()
                .contains("ghost")
        );
        assert!(run(&s(&["place", p, "--grid", "3x2", "--pin", "door=9,9"]))
            .unwrap_err()
            .contains("outside"));
    }
}

#[cfg(test)]
mod sim_tests {
    use super::*;
    use std::path::Path;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eblocks-cli-sim-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_garage(dir: &Path) -> PathBuf {
        let netlist = "\
design garage
block door sensor:contact
block light sensor:light
block inv compute:not
block both compute:logic2:AND
block led output:led
wire door.0 -> both.0
wire light.0 -> inv.0
wire inv.0 -> both.1
wire both.0 -> led.0
";
        let path = dir.join("garage.netlist");
        std::fs::write(&path, netlist).unwrap();
        path
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn sim_renders_waveform_and_vcd() {
        let dir = tempdir("wave");
        let netlist = write_garage(&dir);
        let script = dir.join("stim.txt");
        std::fs::write(&script, "# open at night\n100 door 1\n500 door 0\n").unwrap();
        let vcd_path = dir.join("out.vcd");
        let out = run(&s(&[
            "sim",
            netlist.to_str().unwrap(),
            "--stimulus",
            script.to_str().unwrap(),
            "--until",
            "800",
            "--vcd",
            vcd_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("led"), "{out}");
        assert!(out.contains('#'), "waveform shows a high phase: {out}");
        let vcd = std::fs::read_to_string(vcd_path).unwrap();
        assert!(vcd.contains("$var wire 1 ! led $end"), "{vcd}");
    }

    #[test]
    fn default_stimulus_used_without_script() {
        let dir = tempdir("nostim");
        let netlist = write_garage(&dir);
        let out = run(&s(&["sim", netlist.to_str().unwrap(), "--until", "400"])).unwrap();
        assert!(out.contains("led"), "{out}");
    }

    #[test]
    fn stimulus_parse_errors_have_line_numbers() {
        assert!(parse_stimulus("10 door banana")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_stimulus("x door 1").unwrap_err().contains("bad time"));
        assert!(parse_stimulus("10 door").unwrap_err().contains("expected"));
        assert!(parse_stimulus("# only comments\n\n").is_ok());
    }
}

#[cfg(test)]
mod fleet_tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eblocks-cli-fleet-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn write_spec(dir: &Path) -> PathBuf {
        let spec = "\
name = lamps
nodes = 4
topology = star
library = Night Lamp Controller
until = 120
seed = 7
";
        let path = dir.join("lamps.fleet");
        std::fs::write(&path, spec).unwrap();
        path
    }

    #[test]
    fn fleet_runs_a_spec_and_reports() {
        let dir = tempdir("run");
        let path = write_spec(&dir);
        let out = run(&s(&["fleet", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("fleet lamps: 4 node(s) on star(4)"), "{out}");
        assert!(out.contains("seed 7, until 120"), "{out}");
        assert!(out.contains("n0") && out.contains("n3"), "{out}");
        assert!(out.contains("nJ"), "{out}");
    }

    #[test]
    fn fleet_json_and_trace_are_deterministic() {
        let dir = tempdir("det");
        let path = write_spec(&dir);
        let trace_a = dir.join("a.trace");
        let trace_b = dir.join("b.trace");
        let once = |trace: &Path| {
            run(&s(&[
                "fleet",
                path.to_str().unwrap(),
                "--json",
                "--trace",
                trace.to_str().unwrap(),
            ]))
            .unwrap()
        };
        let a = once(&trace_a);
        let b = once(&trace_b);
        assert_eq!(a, b, "report must be byte-identical across runs");
        assert!(a.starts_with('{'), "{a}");
        assert!(a.contains("\"packets_delivered\""), "{a}");
        let bytes_a = std::fs::read_to_string(&trace_a).unwrap();
        let bytes_b = std::fs::read_to_string(&trace_b).unwrap();
        assert_eq!(bytes_a, bytes_b, "trace must be byte-identical");
        assert!(bytes_a.starts_with("# eblocks-fleet-trace v1"), "{bytes_a}");
    }

    #[test]
    fn fleet_flags_override_the_spec() {
        let dir = tempdir("override");
        let path = write_spec(&dir);
        let out = run(&s(&[
            "fleet",
            path.to_str().unwrap(),
            "--nodes",
            "6",
            "--topology",
            "grid",
            "--seed",
            "9",
            "--until",
            "80",
        ]))
        .unwrap();
        assert!(out.contains("6 node(s) on grid(3x2)"), "{out}");
        assert!(out.contains("seed 9, until 80"), "{out}");
    }

    #[test]
    fn fleet_chaos_storm_replays_from_the_seed() {
        let dir = tempdir("chaos");
        let path = write_spec(&dir);
        let storm = || {
            run(&s(&[
                "fleet",
                path.to_str().unwrap(),
                "--chaos-seed",
                "3",
                "--json",
            ]))
            .unwrap()
        };
        let a = storm();
        assert_eq!(a, storm(), "the seed alone replays the storm");
        // The healthy run differs from the storm (faults really fired).
        let healthy = run(&s(&["fleet", path.to_str().unwrap(), "--json"])).unwrap();
        assert_ne!(a, healthy, "the storm must perturb the fleet");
    }

    #[test]
    fn fleet_errors_are_reported() {
        let dir = tempdir("err");
        let bad = dir.join("bad.fleet");
        std::fs::write(&bad, "nodes = 2\nwat = 9\n").unwrap();
        let err = run(&s(&["fleet", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let path = write_spec(&dir);
        let err = run(&s(&[
            "fleet",
            path.to_str().unwrap(),
            "--topology",
            "moebius",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");
        let err = run(&s(&["fleet", path.to_str().unwrap(), "--nodes", "some"])).unwrap_err();
        assert!(err.contains("bad --nodes value"), "{err}");
    }
}
