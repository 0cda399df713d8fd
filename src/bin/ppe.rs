//! `ppe` — command-line driver for parameterized partial evaluation.
//!
//! ```text
//! ppe run <file.sexp> ARG...            evaluate the main function
//! ppe specialize <file.sexp> INPUT...   specialize (online by default)
//! ppe analyze <file.sexp> INPUT...      facet analysis report (Figure 9 style)
//! ppe check <file.sexp> [INPUT...]      static diagnostics (see below); with
//!     [--format text|json]              INPUTs the binding-time certificate
//!                                       of the offline analysis is checked
//!                                       too; exits nonzero on any error
//! ppe check --impact <old> <new>        per-entry incremental impact of
//!     [--format text|json]              editing old into new: `unchanged`
//!                                       entries keep every cached residual,
//!                                       `invalidated` ones name the changed
//!                                       definition and a call path to it
//! ppe verify-facets [--facets LIST]     run the Definition-2 safety
//!                                       obligations over every shipped
//!                                       facet; exits nonzero on violation
//! ppe batch <requests.jsonl|->          answer a batch of JSON requests
//!     [--jobs N] [--cache-mb N]         through the shared residual cache;
//!     [--program <file.sexp>]           residuals on stdout (input order),
//!     [--cache-dir DIR]                 metrics JSON on stderr
//!     [--cache-mode rw|ro|off]
//! ppe serve [--jobs N] [--cache-mb N]   JSON-lines service on stdin/stdout
//!     [--cache-dir DIR]                 (one request line in, one response
//!     [--cache-mode rw|ro|off]          line out, in order)
//! ppe cache <stats|export|import|gc>    inspect and maintain a disk cache
//!     --cache-dir DIR [FILE|-]          directory (see DESIGN.md §15);
//!     [--max-bytes N]                   export/import move entries between
//!     [--purge-quarantine]              machines as validated JSON lines;
//!     [--stale-against <file.sexp>]     gc --stale-against drops exactly the
//!                                       entries whose closure fingerprint no
//!                                       longer matches the given program
//!
//! `--cache-dir` puts a crash-safe disk tier under the in-memory residual
//! cache: entries survive restarts, corrupt files are quarantined and
//! recomputed (never trusted, never fatal). `--cache-mode ro` reads an
//! existing directory without writing; `off` ignores `--cache-dir`.
//!
//! ARG    ::= 5 | -3 | 2.5 | #t | #f | vec:1.0,2.0,3.0
//! INPUT  ::= ARG                         a known input
//!          | _                           a dynamic input
//!          | _:FACET=SPEC[:FACET=SPEC]…  dynamic with facet refinements
//! SPEC   ::= sign=pos|neg|zero | parity=even|odd | size=N
//!          | range=LO..HI (either bound may be empty)
//!
//! options: --facets LIST   comma-separated: sign,parity,range,size,
//!                          contents,const-set,type (default: all)
//!          --format FMT    check output: text (default) or json (one
//!                          deterministic object per run)
//!          --offline       specialize through facet analysis
//!          --constraints   propagate conditional constraints (online)
//!          --optimize      run the residual cleanup passes
//!          --polyvariant   per-call-pattern variants (analyze only)
//!
//! resource governance (see DESIGN.md § Resource governance):
//!          --fuel N                  reduction-step budget
//!          --deadline-ms N           wall-clock budget in milliseconds
//!          --max-residual-size N     residual-program node cap
//!          --on-exhaustion=POLICY    fail (default) or degrade: under
//!                                    degrade a tripped budget generalizes
//!                                    to dynamic instead of erroring, and
//!                                    the degradation report is printed on
//!                                    stderr
//! ```
//!
//! Example:
//!
//! ```sh
//! ppe specialize iprod.sexp '_:size=3' '_:size=3'
//! ```

use std::process::ExitCode;
use std::time::Duration;

use ppe::analyze::depgraph::{self, DepGraph, EntryImpact};
use ppe::analyze::{check_certificate, check_inputs, check_source, check_unfolding, CheckReport};
use ppe::core::consistency::default_candidates;
use ppe::core::safety::validate_facet;
use ppe::lang::{
    optimize_residual, parse_program, pretty_program, Diagnostic, Evaluator, OptLevel, Program,
    Value,
};
use ppe::offline::{analyze_with_config, AbstractInput, OfflinePe};
use ppe::online::{ExhaustionPolicy, OnlinePe, PeConfig, PeInput};
use ppe::server::request::diagnostic_json;
use ppe::server::spec::{build_facets, parse_input, parse_value, ALL_FACETS};
use ppe::server::{
    run_batch, serve, BatchOptions, Json, NetOptions, NetServer, PersistConfig, PersistMode,
    PersistTier, ServeOptions, ServiceConfig, SpecializeRequest, SpecializeService,
};

/// Stack size for the worker thread. Deeply recursive source programs drive
/// equally deep recursion in the specializer walks; the guarded recursion
/// limits (`PeConfig::max_recursion_depth`, the evaluator's expression-depth
/// cap) are calibrated against this, not against the OS default main-thread
/// stack.
const WORKER_STACK_BYTES: usize = 256 * 1024 * 1024;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `RUST_MIN_STACK` only sizes stacks of threads spawned by the Rust
    // runtime, never the main thread, so run the driver on a worker thread
    // with an explicit stack: recursion limits then fail structurally
    // (DepthLimit) instead of faulting the process.
    let worker = std::thread::Builder::new()
        .name("ppe-driver".to_owned())
        .stack_size(WORKER_STACK_BYTES)
        .spawn(move || run(&args));
    let outcome = match worker {
        Ok(handle) => match handle.join() {
            Ok(result) => result,
            Err(_) => Err("driver thread panicked".to_owned()),
        },
        // Thread creation can fail under memory pressure; degrade to the
        // main thread rather than refusing to run at all.
        Err(_) => {
            let args: Vec<String> = std::env::args().skip(1).collect();
            run(&args)
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ppe: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "specialize" => cmd_specialize(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "verify-facets" => cmd_verify_facets(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "cache" => cmd_cache(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: ppe run <file> [inputs…] [--engine vm|ast] [--fuel N] [--deadline-ms N]\n\
     \u{20}      ppe <specialize|analyze> <file> [inputs…] [--facets LIST] [--offline] [--constraints]\n\
     \u{20}       [--spec-engine vm|ast] [--fuel N] [--deadline-ms N] [--max-residual-size N]\n\
     \u{20}       [--on-exhaustion=fail|degrade]\n\
     \u{20}      ppe check <file> [inputs…] [--facets LIST] [--format text|json]\n\
     \u{20}      ppe check --impact <old.sexp> <new.sexp> [--format text|json]\n\
     \u{20}      ppe verify-facets [--facets LIST]\n\
     \u{20}      ppe batch <requests.jsonl|-> [--jobs N] [--cache-mb N] [--program <file.sexp>]\n\
     \u{20}       [--cache-dir DIR] [--cache-mode rw|ro|off]\n\
     \u{20}      ppe serve [--jobs N] [--cache-mb N] [--cache-dir DIR] [--cache-mode rw|ro|off]\n\
     \u{20}       [--listen ADDR] [--max-connections N] [--request-deadline-ms N]\n\
     \u{20}      ppe cache <stats|export|import|gc> --cache-dir DIR [FILE|-]\n\
     \u{20}       [--max-bytes N] [--purge-quarantine] [--stale-against <file.sexp>]\n\
     see `cargo doc` or the README for the input syntax"
        .to_owned()
}

/// One command-line argument, as [`Args`] reads it.
enum Arg<'a> {
    /// A `--flag`, without any `=VALUE`; [`Args::value`] reads its value.
    Flag(&'a str),
    /// Any argument that does not start with `--`.
    Positional(&'a str),
}

/// The flag reader every command parses its arguments with. A flag that
/// takes a value accepts both `--flag VALUE` and `--flag=VALUE`; each
/// parser rejects a `--flag` it does not know.
struct Args<'a> {
    args: std::slice::Iter<'a, String>,
    /// The flag read last, and its `=VALUE` if it had one.
    last: (&'a str, Option<&'a str>),
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Args<'a> {
        Args {
            args: args.iter(),
            last: ("", None),
        }
    }

    /// The value of the flag read last: its `=VALUE`, or else the next
    /// argument.
    fn value(&mut self) -> Result<&'a str, String> {
        let (flag, inline) = self.last;
        inline
            .or_else(|| self.args.next().map(String::as_str))
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value of the flag read last as a number; `what` says which
    /// numbers it takes, for the error.
    fn number<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String> {
        let v = self.value()?;
        v.parse()
            .map_err(|_| format!("{} must be {what}, got `{v}`", self.last.0))
    }

    /// The value of the flag read last, one of `choices`; `what` lists
    /// them, for the error.
    fn choice<T: Copy>(&mut self, choices: &[(&str, T)], what: &str) -> Result<T, String> {
        let v = self.value()?;
        match choices.iter().find(|(name, _)| *name == v) {
            Some(&(_, choice)) => Ok(choice),
            None => Err(format!("{} must be {what}, got `{v}`", self.last.0)),
        }
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = Arg<'a>;

    fn next(&mut self) -> Option<Arg<'a>> {
        let arg = self.args.next()?.as_str();
        if !arg.starts_with("--") {
            return Some(Arg::Positional(arg));
        }
        self.last = match arg.split_once('=') {
            Some((flag, v)) => (flag, Some(v)),
            None => (arg, None),
        };
        Some(Arg::Flag(self.last.0))
    }
}

/// What [`Args::number`] says a count or a budget takes.
const NON_NEGATIVE: &str = "a non-negative integer";

/// The error for a `--flag` the command does not take.
fn unknown_option(flag: &str) -> String {
    format!("unknown option `{flag}`\n{}", usage())
}

/// A comma-separated `--facets` list.
fn facet_list(list: &str) -> Vec<String> {
    list.split(',').map(|s| s.trim().to_owned()).collect()
}

/// Parsed command-line options.
struct Opts {
    file: String,
    inputs: Vec<String>,
    facets: Vec<String>,
    offline: bool,
    constraints: bool,
    optimize: bool,
    polyvariant: bool,
    fuel: Option<u64>,
    deadline_ms: Option<u64>,
    max_residual_size: Option<usize>,
    on_exhaustion: ExhaustionPolicy,
    json: bool,
    engine: ExecEngine,
    /// Run the specializer's static evaluation on the bytecode VM
    /// (`--spec-engine`, default on; `ast` selects the oracle tree walk).
    spec_vm: bool,
    impact: bool,
}

/// Which execution engine `ppe run` uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ExecEngine {
    /// The Figure-1 tree-walking evaluator (the differential oracle).
    Ast,
    /// The bytecode VM (`ppe-vm`).
    Vm,
}

impl Opts {
    /// Folds the resource-governance flags into a [`PeConfig`].
    fn pe_config(&self) -> PeConfig {
        let mut config = PeConfig {
            propagate_constraints: self.constraints,
            on_exhaustion: self.on_exhaustion,
            ..PeConfig::default()
        };
        if let Some(fuel) = self.fuel {
            config.fuel = fuel;
        }
        if let Some(ms) = self.deadline_ms {
            config.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(cap) = self.max_residual_size {
            config.max_residual_size = cap;
        }
        if self.spec_vm {
            config.spec_eval = Some(std::sync::Arc::new(ppe_vm::VmStaticEval));
        }
        config
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut file = None;
    let mut inputs = Vec::new();
    let mut facets = ALL_FACETS.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut offline = false;
    let mut constraints = false;
    let mut optimize = false;
    let mut polyvariant = false;
    let mut fuel = None;
    let mut deadline_ms = None;
    let mut max_residual_size = None;
    let mut on_exhaustion = ExhaustionPolicy::Fail;
    let mut json = false;
    let mut engine = ExecEngine::Ast;
    let mut spec_vm = true;
    let mut impact = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Arg::Positional(arg) if file.is_none() => file = Some(arg.to_owned()),
            Arg::Positional(arg) => inputs.push(arg.to_owned()),
            Arg::Flag("--facets") => facets = facet_list(args.value()?),
            Arg::Flag("--offline") => offline = true,
            Arg::Flag("--impact") => impact = true,
            Arg::Flag("--constraints") => constraints = true,
            Arg::Flag("--optimize") => optimize = true,
            Arg::Flag("--polyvariant") => polyvariant = true,
            Arg::Flag("--fuel") => fuel = Some(args.number(NON_NEGATIVE)?),
            Arg::Flag("--deadline-ms") => deadline_ms = Some(args.number(NON_NEGATIVE)?),
            Arg::Flag("--max-residual-size") => {
                max_residual_size = Some(args.number(NON_NEGATIVE)?)
            }
            Arg::Flag("--on-exhaustion") => {
                on_exhaustion = args.choice(
                    &[
                        ("fail", ExhaustionPolicy::Fail),
                        ("degrade", ExhaustionPolicy::Degrade),
                    ],
                    "fail or degrade",
                )?;
            }
            Arg::Flag("--format") => {
                json = args.choice(&[("text", false), ("json", true)], "text or json")?;
            }
            Arg::Flag("--engine") => {
                engine = args.choice(
                    &[("ast", ExecEngine::Ast), ("vm", ExecEngine::Vm)],
                    "vm or ast",
                )?;
            }
            Arg::Flag("--spec-engine") => {
                spec_vm = args.choice(&[("vm", true), ("ast", false)], "vm or ast")?;
            }
            Arg::Flag(flag) => return Err(unknown_option(flag)),
        }
    }
    Ok(Opts {
        file: file.ok_or_else(|| format!("missing program file\n{}", usage()))?,
        inputs,
        facets,
        offline,
        constraints,
        optimize,
        polyvariant,
        fuel,
        deadline_ms,
        max_residual_size,
        on_exhaustion,
        json,
        engine,
        spec_vm,
        impact,
    })
}

fn load(file: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    parse_program(&src).map_err(|e| e.to_string())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let program = load(&opts.file)?;
    let vals: Result<Vec<Value>, String> = opts.inputs.iter().map(|s| parse_value(s)).collect();
    let vals = vals?;
    let out = match opts.engine {
        ExecEngine::Ast => {
            let mut ev = match opts.fuel {
                Some(fuel) => Evaluator::with_fuel(&program, fuel),
                None => Evaluator::new(&program),
            };
            ev.set_max_depth(10_000);
            if let Some(ms) = opts.deadline_ms {
                ev.set_deadline(Some(Duration::from_millis(ms)));
            }
            ev.run_main(&vals).map_err(|e| e.to_string())?
        }
        ExecEngine::Vm => {
            let vm_opts = ppe_vm::VmOptions {
                fuel: opts.fuel.unwrap_or(ppe::lang::DEFAULT_FUEL),
                max_depth: 10_000,
                deadline: opts.deadline_ms.map(Duration::from_millis),
            };
            let (out, _report) = ppe_vm::execute_main(&program, &vals, vm_opts);
            out.map_err(|e| e.to_string())?
        }
    };
    println!("{out}");
    Ok(())
}

fn cmd_specialize(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let program = load(&opts.file)?;
    let facets = build_facets(&opts.facets)?;
    let inputs: Result<Vec<PeInput>, String> = opts.inputs.iter().map(|s| parse_input(s)).collect();
    let inputs = inputs?;
    let config = opts.pe_config();
    let residual = if opts.offline {
        let abstract_inputs: Result<Vec<AbstractInput>, String> = inputs
            .iter()
            .map(|i| {
                i.to_product(&facets)
                    .map(AbstractInput::of_product)
                    .map_err(|e| e.to_string())
            })
            .collect();
        let analysis = analyze_with_config(&program, &facets, &abstract_inputs?, &config)
            .map_err(|e| e.to_string())?;
        OfflinePe::with_config(&program, &facets, &analysis, config)
            .specialize(&inputs)
            .map_err(|e| e.to_string())?
    } else {
        OnlinePe::with_config(&program, &facets, config)
            .specialize_main(&inputs)
            .map_err(|e| e.to_string())?
    };
    let final_program = if opts.optimize {
        optimize_residual(residual.program, OptLevel::Safe)
    } else {
        residual.program
    };
    print!("{}", pretty_program(&final_program));
    eprintln!(
        "; {} reductions, {} static branches, {} unfolds, {} specializations",
        residual.stats.reductions,
        residual.stats.static_branches,
        residual.stats.unfolds,
        residual.stats.specializations
    );
    if !residual.report.is_empty() {
        eprintln!("; degradation report:");
        for line in residual.report.to_string().lines() {
            eprintln!(";   {line}");
        }
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let program = load(&opts.file)?;
    let facets = build_facets(&opts.facets)?;
    let inputs: Result<Vec<PeInput>, String> = opts.inputs.iter().map(|s| parse_input(s)).collect();
    let abstract_inputs: Result<Vec<AbstractInput>, String> = inputs?
        .iter()
        .map(|i| {
            i.to_product(&facets)
                .map(AbstractInput::of_product)
                .map_err(|e| e.to_string())
        })
        .collect();
    let abstract_inputs = abstract_inputs?;
    if opts.polyvariant {
        let poly =
            ppe::offline::polyvariant::analyze_polyvariant(&program, &facets, &abstract_inputs)
                .map_err(|e| e.to_string())?;
        println!("polyvariant variants:");
        let mut names: Vec<_> = program.defs().iter().map(|d| d.name).collect();
        names.sort_by_key(|f| f.as_str());
        for f in names {
            for sig in poly.signatures_of(f) {
                println!("  {f}: {}", sig.display());
            }
        }
        println!("result: {}", poly.result.display());
        return Ok(());
    }
    let analysis = analyze_with_config(&program, &facets, &abstract_inputs, &opts.pe_config())
        .map_err(|e| e.to_string())?;
    if !analysis.degradation.is_empty() {
        eprintln!("; degradation report:");
        for line in analysis.degradation.to_string().lines() {
            eprintln!(";   {line}");
        }
    }
    print!("{}", analysis.report(&program));
    let mut sigs: Vec<_> = analysis.signatures.iter().collect();
    sigs.sort_by_key(|(f, _)| f.as_str());
    println!("\nsignatures:");
    for (f, sig) in sigs {
        println!("  {f}: {}", sig.display());
    }
    Ok(())
}

/// `ppe check`: static diagnostics over a program file, and — when input
/// specs are given — over the inputs (Definition-6 consistency), the
/// offline analysis's unfold decisions, and its binding-time certificate.
///
/// Output is one [`Diagnostic`] per line (`--format text`, the default) or
/// one deterministic JSON object (`--format json`; keys sorted, diagnostics
/// in analysis order). Exit status is nonzero iff any diagnostic is an
/// error, so the command slots into CI pipelines directly.
fn cmd_check(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    if opts.impact {
        return cmd_check_impact(&opts);
    }
    let src = std::fs::read_to_string(&opts.file)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.file))?;
    let mut report = check_source(&src);
    // The input-driven passes presuppose a program that parses and binds;
    // skip them (rather than crash into the engines) if pass 1 failed.
    if !report.has_errors() && !opts.inputs.is_empty() {
        check_against_inputs(&opts, &src, &mut report.diagnostics)?;
    }
    emit_check_report(&opts, &report)
}

/// `ppe check --impact <old> <new>`: classify every definition of the
/// edited program against the original. `unchanged` is a cache-validity
/// verdict — by the closure-fingerprint keying (DESIGN.md §17) every
/// residual cached for that entry, in memory or on disk, is still
/// addressed by a live key — while `invalidated` names the nearest
/// changed definition and a shortest call path from the entry to it.
/// Output order is sorted by name in both formats, so runs are
/// byte-for-byte deterministic.
fn cmd_check_impact(opts: &Opts) -> Result<(), String> {
    let (old_file, new_file) = match opts.inputs.as_slice() {
        [new] => (opts.file.as_str(), new.as_str()),
        _ => {
            return Err(format!(
                "check --impact takes exactly two program files (old, new)\n{}",
                usage()
            ))
        }
    };
    let old = DepGraph::of_program(&load(old_file)?);
    let new = DepGraph::of_program(&load(new_file)?);
    let report = depgraph::impact(&old, &new);
    if opts.json {
        let entries: Vec<Json> = report
            .entries
            .iter()
            .map(|(f, verdict)| {
                let mut fields = vec![("entry", Json::str(f.as_str()))];
                match verdict {
                    EntryImpact::Unchanged => fields.push(("status", Json::str("unchanged"))),
                    EntryImpact::Added => fields.push(("status", Json::str("added"))),
                    EntryImpact::Invalidated { changed, via } => {
                        fields.push(("changed", Json::str(changed.as_str())));
                        fields.push(("status", Json::str("invalidated")));
                        fields.push((
                            "via",
                            Json::Arr(via.iter().map(|s| Json::str(s.as_str())).collect()),
                        ));
                    }
                }
                Json::obj(fields)
            })
            .collect();
        let obj = Json::obj(vec![
            ("entries", Json::Arr(entries)),
            ("new", Json::str(new_file)),
            ("old", Json::str(old_file)),
            (
                "removed",
                Json::Arr(
                    report
                        .removed
                        .iter()
                        .map(|s| Json::str(s.as_str()))
                        .collect(),
                ),
            ),
        ]);
        println!("{}", obj.render());
    } else {
        for (f, verdict) in &report.entries {
            match verdict {
                EntryImpact::Unchanged => println!("{f}: unchanged"),
                EntryImpact::Added => println!("{f}: added"),
                EntryImpact::Invalidated { changed, via } => {
                    let path: Vec<&str> = via.iter().map(|s| s.as_str()).collect();
                    println!(
                        "{f}: invalidated (changed `{changed}`, via {})",
                        path.join(" -> ")
                    );
                }
            }
        }
        for f in &report.removed {
            println!("{f}: removed");
        }
    }
    Ok(())
}

/// The input-driven half of `ppe check`: input-product consistency
/// (`E0007`/`E0008`), then facet analysis, then the unfold-safety and
/// binding-time-certificate checks over its annotated output.
fn check_against_inputs(opts: &Opts, src: &str, out: &mut Vec<Diagnostic>) -> Result<(), String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let facets = match build_facets(&opts.facets) {
        Ok(facets) => facets,
        Err(e) => {
            out.push(Diagnostic::error("E0008", e));
            return Ok(());
        }
    };
    let arity = program.main().arity();
    if opts.inputs.len() != arity {
        out.push(Diagnostic::error(
            "E0008",
            format!(
                "`{}` takes {arity} inputs but {} were given",
                program.main().name,
                opts.inputs.len()
            ),
        ));
        return Ok(());
    }
    let mut products = Vec::new();
    for (i, s) in opts.inputs.iter().enumerate() {
        let product = parse_input(s).and_then(|p| p.to_product(&facets).map_err(|e| e.to_string()));
        match product {
            Ok(p) => products.push(p),
            Err(e) => out.push(Diagnostic::error(
                "E0008",
                format!("input {i} (`{s}`) is rejected: {e}"),
            )),
        }
    }
    if products.len() != arity {
        return Ok(());
    }
    let before = out.len();
    out.extend(check_inputs(&products, &facets));
    if out[before..].iter().any(Diagnostic::is_error) {
        // Inconsistent products denote no concrete value; analyzing from
        // them would only manufacture follow-on noise.
        return Ok(());
    }
    let abstract_inputs: Vec<AbstractInput> = products
        .into_iter()
        .map(AbstractInput::of_product)
        .collect();
    let analysis = analyze_with_config(&program, &facets, &abstract_inputs, &opts.pe_config())
        .map_err(|e| e.to_string())?;
    out.extend(check_unfolding(&program, &analysis));
    out.extend(check_certificate(&analysis));
    Ok(())
}

/// Prints a [`CheckReport`] in the selected format and converts it to the
/// process outcome (error diagnostics ⇒ failure exit).
fn emit_check_report(opts: &Opts, report: &CheckReport) -> Result<(), String> {
    if opts.json {
        let diags: Vec<Json> = report.diagnostics.iter().map(diagnostic_json).collect();
        let obj = Json::obj(vec![
            ("diagnostics", Json::Arr(diags)),
            ("errors", Json::num(report.errors() as u64)),
            ("file", Json::str(opts.file.clone())),
            ("warnings", Json::num(report.warnings() as u64)),
        ]);
        println!("{}", obj.render());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{}: {} error(s), {} warning(s)",
            opts.file,
            report.errors(),
            report.warnings()
        );
    }
    if report.has_errors() {
        Err(format!("`{}` has errors", opts.file))
    } else {
        Ok(())
    }
}

/// `ppe verify-facets`: run the executable Definition-2 safety
/// obligations (`ppe::core::safety::validate_facet` — Properties 1–8 of
/// the paper) over every selected facet against the shared candidate
/// pool. Exits nonzero if any facet fails any obligation.
fn cmd_verify_facets(args: &[String]) -> Result<(), String> {
    let mut names: Vec<String> = ALL_FACETS.iter().map(|s| s.to_string()).collect();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Arg::Flag("--facets") => names = facet_list(args.value()?),
            Arg::Flag(other) | Arg::Positional(other) => {
                return Err(format!(
                    "verify-facets does not take `{other}`\n{}",
                    usage()
                ))
            }
        }
    }
    let facets = build_facets(&names)?;
    let candidates = default_candidates();
    let mut violations = 0usize;
    for facet in facets.iter() {
        match validate_facet(facet, &candidates) {
            Ok(()) => println!(
                "facet `{}`: ok ({} sample values)",
                facet.name(),
                candidates.len()
            ),
            Err(v) => {
                violations += 1;
                println!("facet `{}`: VIOLATION: {v}", facet.name());
            }
        }
    }
    if violations > 0 {
        Err(format!(
            "{violations} facet(s) violate the Definition 2 obligations"
        ))
    } else {
        println!(
            "all {} facet(s) satisfy the safety obligations",
            names.len()
        );
        Ok(())
    }
}

/// What `--cache-mode` asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CacheMode {
    ReadWrite,
    ReadOnly,
    Off,
}

/// Options shared by the `batch` and `serve` service commands.
struct ServerOpts {
    jobs: usize,
    cache_mb: usize,
    program: Option<String>,
    cache_dir: Option<String>,
    cache_mode: CacheMode,
    /// `serve` only: bind a TCP front-end here instead of stdio.
    listen: Option<String>,
    /// `serve --listen` only: concurrent-connection bound.
    max_connections: usize,
    /// `serve --listen` only: per-request deadline cap, milliseconds.
    request_deadline_ms: Option<u64>,
    positional: Vec<String>,
}

impl ServerOpts {
    /// The disk-tier configuration, if one was requested and not `off`.
    fn persist_config(&self) -> Option<PersistConfig> {
        let dir = self.cache_dir.as_ref()?;
        let mode = match self.cache_mode {
            CacheMode::ReadWrite => PersistMode::ReadWrite,
            CacheMode::ReadOnly => PersistMode::ReadOnly,
            CacheMode::Off => return None,
        };
        Some(PersistConfig {
            mode,
            ..PersistConfig::new(dir)
        })
    }
}

fn parse_server_opts(args: &[String]) -> Result<ServerOpts, String> {
    let mut opts = ServerOpts {
        jobs: 1,
        cache_mb: 64,
        program: None,
        cache_dir: None,
        cache_mode: CacheMode::ReadWrite,
        listen: None,
        max_connections: 64,
        request_deadline_ms: None,
        positional: Vec::new(),
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Arg::Positional(arg) => opts.positional.push(arg.to_owned()),
            Arg::Flag("--jobs") => opts.jobs = args.number("a positive integer")?,
            Arg::Flag("--cache-mb") => opts.cache_mb = args.number(NON_NEGATIVE)?,
            Arg::Flag("--program") => opts.program = Some(args.value()?.to_owned()),
            Arg::Flag("--cache-dir") => opts.cache_dir = Some(args.value()?.to_owned()),
            Arg::Flag("--listen") => opts.listen = Some(args.value()?.to_owned()),
            Arg::Flag("--max-connections") => {
                opts.max_connections = args.number("a positive integer")?;
            }
            Arg::Flag("--request-deadline-ms") => {
                opts.request_deadline_ms = Some(args.number(NON_NEGATIVE)?);
            }
            Arg::Flag("--cache-mode") => {
                opts.cache_mode = args.choice(
                    &[
                        ("rw", CacheMode::ReadWrite),
                        ("ro", CacheMode::ReadOnly),
                        ("off", CacheMode::Off),
                    ],
                    "rw, ro, or off",
                )?;
            }
            Arg::Flag(flag) => return Err(unknown_option(flag)),
        }
    }
    Ok(opts)
}

fn service_for(opts: &ServerOpts) -> SpecializeService {
    let service = SpecializeService::new(ServiceConfig {
        cache_bytes: opts.cache_mb << 20,
        persist: opts.persist_config(),
        ..ServiceConfig::default()
    });
    if let Some(error) = service.persist_error() {
        eprintln!("ppe: warning: disk cache disabled: {error}");
    }
    service
}

/// Prints the disk tier's fault summary on stderr, if anything went wrong.
fn report_disk_faults(service: &SpecializeService) {
    if let Some(tier) = service.persist() {
        let report = tier.fault_report();
        if !report.is_empty() {
            let action = if tier.read_only() {
                "left in place (read-only mode)"
            } else {
                "quarantined under `quarantine/`"
            };
            eprintln!("; disk faults: {report} ({action})");
        }
    }
}

/// `ppe batch`: answer every request line of a JSONL file (or stdin with
/// `-`) through one shared service. Residuals go to stdout in request
/// order; everything run-dependent (cache dispositions, wall times,
/// metrics) goes to stderr, so the stdout of a batch is byte-identical
/// whatever `--jobs` is.
fn cmd_batch(args: &[String]) -> Result<(), String> {
    let opts = parse_server_opts(args)?;
    let path = match opts.positional.as_slice() {
        [path] => path,
        [] => {
            return Err(format!(
                "batch needs a requests file (or `-` for stdin)\n{}",
                usage()
            ))
        }
        [_, extra, ..] => {
            return Err(format!(
                "batch takes one requests file, got a second `{extra}`"
            ))
        }
    };
    let text = if path == "-" {
        use std::io::Read as _;
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
    };
    let default_program = match &opts.program {
        Some(file) => {
            Some(std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?)
        }
        None => None,
    };
    // Requests that fail to parse keep their slot so output stays aligned
    // with input lines.
    let parsed: Vec<Result<SpecializeRequest, String>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut v = Json::parse(line)?;
            if v.get("program").is_none() {
                if let (Json::Obj(map), Some(src)) = (&mut v, &default_program) {
                    map.insert("program".to_owned(), Json::str(src.clone()));
                }
            }
            SpecializeRequest::from_json(&v)
        })
        .collect();
    let good: Vec<SpecializeRequest> = parsed
        .iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    let service = service_for(&opts);
    let mut responses = run_batch(&service, &good, BatchOptions { jobs: opts.jobs }).into_iter();
    for (i, p) in parsed.iter().enumerate() {
        let outcome = match p {
            Err(msg) => Err(msg.clone()),
            Ok(_) => {
                let r = responses.next().expect("one response per request");
                r.outcome.map_err(|e| e.to_string())
            }
        };
        match outcome {
            Err(msg) => println!(";; request {i} error: {msg}"),
            Ok(out) => {
                println!(";; request {i}");
                for e in &out.degradations {
                    println!(";; degraded: {e}");
                }
                println!("{}", out.residual.trim_end());
            }
        }
    }
    let mut metrics = service.metrics().snapshot().to_json();
    if let Json::Obj(map) = &mut metrics {
        // VM chunk-cache effectiveness, process-wide (the service's vm_*
        // counters above are per-service; these include every VM run in
        // the process).
        let vm = ppe::vm::vm_stats();
        map.insert(
            "vm_total_chunks_compiled".to_owned(),
            Json::num(vm.chunks_compiled),
        );
        map.insert(
            "vm_total_chunk_cache_hits".to_owned(),
            Json::num(vm.chunk_cache_hits),
        );
        map.insert(
            "vm_total_opcodes_executed".to_owned(),
            Json::num(vm.opcodes_executed),
        );
    }
    eprintln!("{}", metrics.render());
    report_disk_faults(&service);
    Ok(())
}

/// `ppe serve`: the JSON-lines request/response loop on stdin/stdout, or
/// (with `--listen ADDR`) the concurrent TCP front-end on that address.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = parse_server_opts(args)?;
    if let Some(extra) = opts.positional.first() {
        return Err(format!("serve takes no positional argument, got `{extra}`"));
    }
    let service = service_for(&opts);
    if let Some(addr) = &opts.listen {
        let server = NetServer::bind(addr.as_str())
            .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
        eprintln!("; listening on {}", server.local_addr());
        let summary = server
            .run(
                &service,
                NetOptions {
                    max_connections: opts.max_connections,
                    max_inflight: opts.jobs.max(1) as u64,
                    request_deadline: opts.request_deadline_ms.map(Duration::from_millis),
                    ..NetOptions::default()
                },
            )
            .map_err(|e| format!("serve network error: {e}"))?;
        eprintln!(
            "; served {} connections ({} refused), {} lines: {} requests, {} errors",
            summary.connections, summary.refused, summary.lines, summary.requests, summary.errors
        );
    } else {
        let stdin = std::io::stdin();
        let summary = serve(
            &service,
            stdin.lock(),
            std::io::stdout(),
            ServeOptions { jobs: opts.jobs },
        )
        .map_err(|e| format!("serve I/O error: {e}"))?;
        eprintln!(
            "; served {} lines: {} requests, {} errors",
            summary.lines, summary.requests, summary.errors
        );
    }
    eprintln!("{}", service.metrics().snapshot().to_json().render());
    report_disk_faults(&service);
    Ok(())
}

/// `ppe cache`: offline maintenance of one disk-cache directory.
fn cmd_cache(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first().map(String::as_str) else {
        return Err(format!("cache needs an action\n{}", usage()));
    };
    let opts = parse_cache_opts(&args[1..])?;
    let Some(dir) = opts.cache_dir.clone() else {
        return Err(format!("cache {action} needs --cache-dir DIR\n{}", usage()));
    };
    let open = |mode: PersistMode| -> Result<PersistTier, String> {
        PersistTier::open(PersistConfig {
            mode,
            ..PersistConfig::new(&dir)
        })
    };
    match action {
        "stats" => {
            let tier = open(PersistMode::ReadOnly)?;
            let stats = tier
                .stats()
                .map_err(|e| format!("cannot walk `{dir}`: {e}"))?;
            let mut json = stats.to_json();
            if let Json::Obj(map) = &mut json {
                map.insert("dir".to_owned(), Json::str(dir.clone()));
            }
            println!("{}", json.render());
            Ok(())
        }
        "export" => {
            let tier = open(PersistMode::ReadOnly)?;
            let target = opts.file.as_deref().unwrap_or("-");
            let report = if target == "-" {
                let stdout = std::io::stdout();
                tier.export(&mut stdout.lock())
            } else {
                let mut file = std::fs::File::create(target)
                    .map_err(|e| format!("cannot create `{target}`: {e}"))?;
                tier.export(&mut file)
            }
            .map_err(|e| format!("export failed: {e}"))?;
            eprintln!(
                "; exported {} entries, skipped {} corrupt",
                report.exported, report.skipped
            );
            Ok(())
        }
        "import" => {
            let tier = open(PersistMode::ReadWrite)?;
            let source = opts.file.as_deref().unwrap_or("-");
            let report = if source == "-" {
                let stdin = std::io::stdin();
                tier.import(&mut stdin.lock())
            } else {
                let file = std::fs::File::open(source)
                    .map_err(|e| format!("cannot read `{source}`: {e}"))?;
                tier.import(&mut std::io::BufReader::new(file))
            }
            .map_err(|e| format!("import failed: {e}"))?;
            eprintln!(
                "; imported {} entries, rejected {}",
                report.imported, report.rejected
            );
            Ok(())
        }
        "gc" => {
            let tier = open(PersistMode::ReadWrite)?;
            if let Some(program_file) = &opts.stale_against {
                if opts.max_bytes.is_some() {
                    return Err(
                        "--stale-against and --max-bytes are different gc policies; \
                         run them as two separate invocations"
                            .to_owned(),
                    );
                }
                let reference = DepGraph::of_program(&load(program_file)?);
                let report = tier
                    .gc_stale(&reference, opts.purge_quarantine)
                    .map_err(|e| format!("gc --stale-against failed: {e}"))?;
                println!("{}", report.to_json().render());
                return Ok(());
            }
            let report = tier
                .gc(opts.max_bytes.unwrap_or(u64::MAX), opts.purge_quarantine)
                .map_err(|e| format!("gc failed: {e}"))?;
            println!(
                "{}",
                Json::obj(vec![
                    ("kept_bytes", Json::num(report.kept_bytes)),
                    ("kept_entries", Json::num(report.kept_entries)),
                    ("purged_quarantine", Json::num(report.purged_quarantine)),
                    ("removed_bytes", Json::num(report.removed_bytes)),
                    ("removed_entries", Json::num(report.removed_entries)),
                    ("removed_tmp", Json::num(report.removed_tmp)),
                ])
                .render()
            );
            Ok(())
        }
        other => Err(format!(
            "unknown cache action `{other}` (expected stats, export, import, or gc)\n{}",
            usage()
        )),
    }
}

/// Options for `ppe cache`.
struct CacheOpts {
    cache_dir: Option<String>,
    file: Option<String>,
    max_bytes: Option<u64>,
    purge_quarantine: bool,
    stale_against: Option<String>,
}

fn parse_cache_opts(args: &[String]) -> Result<CacheOpts, String> {
    let mut opts = CacheOpts {
        cache_dir: None,
        file: None,
        max_bytes: None,
        purge_quarantine: false,
        stale_against: None,
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Arg::Positional(arg) => {
                if opts.file.replace(arg.to_owned()).is_some() {
                    return Err(format!(
                        "cache takes one FILE argument, got a second `{arg}`"
                    ));
                }
            }
            Arg::Flag("--cache-dir") => opts.cache_dir = Some(args.value()?.to_owned()),
            Arg::Flag("--max-bytes") => opts.max_bytes = Some(args.number(NON_NEGATIVE)?),
            Arg::Flag("--purge-quarantine") => opts.purge_quarantine = true,
            Arg::Flag("--stale-against") => opts.stale_against = Some(args.value()?.to_owned()),
            Arg::Flag(flag) => return Err(format!("unknown cache option `{flag}`\n{}", usage())),
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_server_options() {
        let to_args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let opts =
            parse_server_opts(&to_args(&["reqs.jsonl", "--jobs", "8", "--cache-mb=16"])).unwrap();
        assert_eq!(opts.positional, vec!["reqs.jsonl"]);
        assert_eq!(opts.jobs, 8);
        assert_eq!(opts.cache_mb, 16);
        assert!(opts.program.is_none());
        let opts = parse_server_opts(&to_args(&["-", "--program", "p.sexp"])).unwrap();
        assert_eq!(opts.program.as_deref(), Some("p.sexp"));
        assert!(parse_server_opts(&to_args(&["--jobs", "many"])).is_err());
        assert!(parse_server_opts(&to_args(&["reqs.jsonl", "--jbos", "4"])).is_err());
    }

    #[test]
    fn parses_cache_tier_flags() {
        let to_args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let opts = parse_server_opts(&to_args(&["--cache-dir", "/tmp/c"])).unwrap();
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(opts.cache_mode, CacheMode::ReadWrite);
        let persist = opts.persist_config().expect("tier configured");
        assert_eq!(persist.mode, PersistMode::ReadWrite);

        let opts = parse_server_opts(&to_args(&["--cache-dir=/tmp/c", "--cache-mode=ro"])).unwrap();
        assert_eq!(opts.cache_mode, CacheMode::ReadOnly);
        assert_eq!(
            opts.persist_config().expect("tier configured").mode,
            PersistMode::ReadOnly
        );

        let opts =
            parse_server_opts(&to_args(&["--cache-dir=/tmp/c", "--cache-mode=off"])).unwrap();
        assert!(opts.persist_config().is_none(), "off disables the tier");
        let opts = parse_server_opts(&to_args(&["--cache-mode=rw"])).unwrap();
        assert!(opts.persist_config().is_none(), "no dir, no tier");
        assert!(parse_server_opts(&to_args(&["--cache-mode=sometimes"])).is_err());
    }

    #[test]
    fn parses_cache_command_options() {
        let to_args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let opts = parse_cache_opts(&to_args(&[
            "--cache-dir",
            "/tmp/c",
            "dump.jsonl",
            "--max-bytes=4096",
            "--purge-quarantine",
        ]))
        .unwrap();
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(opts.file.as_deref(), Some("dump.jsonl"));
        assert_eq!(opts.max_bytes, Some(4096));
        assert!(opts.purge_quarantine);
        let opts = parse_cache_opts(&to_args(&[
            "--cache-dir=/tmp/c",
            "--stale-against",
            "p.sexp",
        ]))
        .unwrap();
        assert_eq!(opts.stale_against.as_deref(), Some("p.sexp"));
        assert!(parse_cache_opts(&to_args(&["--stale-against"])).is_err());
        assert!(parse_cache_opts(&to_args(&["--max-bytes", "lots"])).is_err());
        assert!(parse_cache_opts(&to_args(&["--mystery-flag"])).is_err());
        assert!(parse_cache_opts(&to_args(&["a.jsonl", "b.jsonl"])).is_err());
    }

    #[test]
    fn parses_options() {
        let args: Vec<String> = ["prog.sexp", "_", "5", "--facets", "sign,range", "--offline"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(opts.file, "prog.sexp");
        assert_eq!(opts.inputs, vec!["_", "5"]);
        assert_eq!(opts.facets, vec!["sign", "range"]);
        assert!(opts.offline);
        assert!(!opts.constraints);
        assert!(!opts.optimize);
        assert_eq!(opts.fuel, None);
        assert_eq!(opts.on_exhaustion, ExhaustionPolicy::Fail);
        assert!(!opts.impact);
        let args: Vec<String> = ["--impact", "old.sexp", "new.sexp"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_opts(&args).unwrap();
        assert!(opts.impact);
        assert_eq!(opts.file, "old.sexp");
        assert_eq!(opts.inputs, vec!["new.sexp"]);
        let args: Vec<String> = ["prog.sexp", "5", "--ofline"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_opts(&args).is_err());
    }

    #[test]
    fn parses_governance_flags() {
        let args: Vec<String> = [
            "prog.sexp",
            "_:range=0..10",
            "--fuel",
            "500",
            "--deadline-ms=10",
            "--max-residual-size",
            "4096",
            "--on-exhaustion=degrade",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(opts.file, "prog.sexp");
        assert_eq!(opts.inputs, vec!["_:range=0..10"]);
        assert_eq!(opts.fuel, Some(500));
        assert_eq!(opts.deadline_ms, Some(10));
        assert_eq!(opts.max_residual_size, Some(4096));
        assert_eq!(opts.on_exhaustion, ExhaustionPolicy::Degrade);
        let config = opts.pe_config();
        assert_eq!(config.fuel, 500);
        assert_eq!(config.deadline, Some(Duration::from_millis(10)));
        assert_eq!(config.max_residual_size, 4096);
        assert_eq!(config.on_exhaustion, ExhaustionPolicy::Degrade);
    }

    #[test]
    fn rejects_bad_governance_flags() {
        let to_args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_opts(&to_args(&["p.sexp", "--fuel", "lots"])).is_err());
        assert!(parse_opts(&to_args(&["p.sexp", "--deadline-ms"])).is_err());
        assert!(parse_opts(&to_args(&["p.sexp", "--on-exhaustion=maybe"])).is_err());
    }
}
