//! `ppfx` — interactive XPath-on-relations shell.
//!
//! ```text
//! ppfx --schema library.dsl data1.xml data2.xml
//! ppfx --dtd site.dtd site.xml
//! ppfx --xsd library.xsd library.xml
//! ppfx --edge data.xml                 # schema-oblivious mapping
//! ```
//!
//! Then type XPath queries, or dot-commands:
//!
//! ```text
//! > //book[author='Codd']
//! > .sql //book            show the generated SQL
//! > .explain //book        show the physical plan
//! > .analyze //book        execute and show the plan with actual rows/probes/time
//! > .stats                 show the metrics registry + per-table planner statistics
//! > .trace on|off          print each query's phase trace
//! > .timeout 250           abort queries after 250 ms (.timeout off to clear)
//! > .maxrows 100000        abort queries past a scanned-row budget
//! > .publish 42            reconstruct element 42 as XML
//! > .tables                list relations and row counts
//! > .marking               show the §4.5 U-P/F-P/I-P marks
//! > .help  .quit
//! ```
//!
//! `--trace-json FILE` appends one JSON-lines trace record per query.

use std::io::{BufRead, Write};

use obs::TraceSink;
use ppf_core::{publish_element, EdgeDb, QueryLimits, XmlDb};

enum Backend {
    Schema(Box<XmlDb>),
    Edge(Box<EdgeDb>),
}

/// REPL state: the database plus the observability switches.
struct Session {
    backend: Backend,
    /// `.trace on` — print each query's span tree after the rows.
    show_trace: bool,
    /// `.timeout MS` — per-query deadline.
    timeout: Option<std::time::Duration>,
    /// `.maxrows N` — per-query scanned-row budget.
    max_rows: Option<u64>,
    /// `--trace-json FILE` — one JSON record per query.
    trace_sink: Option<obs::JsonLinesSink<std::fs::File>>,
}

impl Session {
    fn limits(&self) -> QueryLimits {
        let mut l = QueryLimits::none();
        if let Some(t) = self.timeout {
            l = l.with_timeout(t);
        }
        if let Some(n) = self.max_rows {
            l = l.with_max_rows(n);
        }
        l
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut schema: Option<xmlschema::Schema> = None;
    let mut edge = false;
    let mut docs: Vec<String> = Vec::new();
    let mut trace_json: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-json" => {
                trace_json = Some(
                    args.next()
                        .ok_or_else(|| format!("{arg} requires a file path"))?,
                );
            }
            "--schema" | "--dtd" | "--xsd" => {
                let path = args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a file path"))?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let parsed = match arg.as_str() {
                    "--schema" => xmlschema::parse_schema(&text),
                    "--dtd" => xmlschema::parse_dtd(&text),
                    _ => xmlschema::parse_xsd(&text),
                }
                .map_err(|e| e.to_string())?;
                schema = Some(parsed);
            }
            "--edge" => edge = true,
            "--help" | "-h" => {
                println!("usage: ppfx [--schema FILE | --dtd FILE | --xsd FILE | --edge] [--trace-json FILE] doc.xml...");
                return Ok(());
            }
            other => docs.push(other.to_string()),
        }
    }

    let mut backend = match (edge, schema) {
        (true, _) => Backend::Edge(Box::new(EdgeDb::new())),
        (false, Some(s)) => Backend::Schema(Box::new(XmlDb::new(&s).map_err(|e| e.to_string())?)),
        (false, None) => {
            return Err(
                "provide --schema/--dtd/--xsd (schema-aware) or --edge (oblivious)".to_string(),
            )
        }
    };

    for path in &docs {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let loaded = match &mut backend {
            Backend::Schema(db) => db.load_xml(&xml).map_err(|e| e.to_string())?,
            Backend::Edge(db) => db.load_xml(&xml).map_err(|e| e.to_string())?,
        };
        eprintln!("loaded {path} as document {}", loaded.doc_id);
    }
    match &mut backend {
        Backend::Schema(db) => db.finalize().map_err(|e| e.to_string())?,
        Backend::Edge(db) => db.finalize().map_err(|e| e.to_string())?,
    }
    let db_ref = match &backend {
        Backend::Schema(db) => db.db(),
        Backend::Edge(db) => db.db(),
    };
    eprintln!(
        "{} relations, {} rows total. Type an XPath query or .help",
        db_ref.len(),
        db_ref.total_rows()
    );

    let trace_sink = match trace_json {
        None => None,
        Some(path) => {
            let file =
                std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
            eprintln!("writing query traces to {path}");
            Some(obs::JsonLinesSink::new(file))
        }
    };
    let mut session = Session {
        backend,
        show_trace: false,
        timeout: None,
        max_rows: None,
        trace_sink,
    };

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match handle(&mut session, line) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if let Some(sink) = &mut session.trace_sink {
        sink.flush();
    }
    Ok(())
}

/// Process one REPL line. Returns Ok(true) to quit.
fn handle(session: &mut Session, line: &str) -> Result<bool, String> {
    let backend = &session.backend;
    if line == ".quit" || line == ".exit" {
        return Ok(true);
    }
    if line == ".help" {
        println!(
            ".sql XPATH      show the generated SQL\n\
             .explain XPATH  show the physical plan\n\
             .analyze XPATH  execute; show the plan with actual rows/probes/time\n\
             .stats          show the metrics registry + per-table planner statistics\n\
             .trace on|off   print each query's phase trace (currently {})\n\
             .timeout MS|off abort queries past a deadline (currently {})\n\
             .maxrows N|off  abort queries past a scanned-row budget (currently {})\n\
             .publish ID     reconstruct element ID as XML (schema-aware only)\n\
             .tables         list relations and row counts\n\
             .marking        show the §4.5 marks (schema-aware only)\n\
             .quit           exit",
            if session.show_trace { "on" } else { "off" },
            session
                .timeout
                .map(|t| format!("{}ms", t.as_millis()))
                .unwrap_or_else(|| "off".to_string()),
            session
                .max_rows
                .map(|n| n.to_string())
                .unwrap_or_else(|| "off".to_string()),
        );
        return Ok(false);
    }
    if line == ".stats" {
        let snap = obs::Registry::global().snapshot();
        if snap.counters.is_empty() && snap.histograms.is_empty() {
            println!("(no metrics recorded yet)");
        } else {
            print!("{}", snap.render());
        }
        // Planner statistics for the loaded document's tables: one line
        // per table, one indented line per column with data.
        let db = match backend {
            Backend::Schema(db) => db.db(),
            Backend::Edge(db) => db.db(),
        };
        for name in db.table_names() {
            let Some(table) = db.table(name) else {
                continue;
            };
            let Some(st) = relstore::stats::lookup(table) else {
                continue;
            };
            println!(
                "table {name}: {} rows ({} memoized filter scans, {} hash sides)",
                st.rows,
                table.filter_memo_len(),
                table.hash_sides_len()
            );
            for (col, cs) in table.schema.columns.iter().zip(&st.columns) {
                if cs.non_null == 0 {
                    continue;
                }
                let fanout = match cs.prefix_fanout {
                    Some(f) => format!(", prefix_fanout={f:.2}"),
                    None => String::new(),
                };
                println!(
                    "    {}: distinct={} nulls={} buckets={}{fanout}",
                    col.name,
                    cs.distinct,
                    cs.nulls,
                    cs.buckets.len(),
                );
            }
        }
        return Ok(false);
    }
    if let Some(arg) = line.strip_prefix(".trace") {
        match arg.trim() {
            "on" => {
                session.show_trace = true;
                println!("trace on");
            }
            "off" => {
                session.show_trace = false;
                println!("trace off");
            }
            _ => return Err("usage: .trace on|off".to_string()),
        }
        return Ok(false);
    }
    if let Some(arg) = line.strip_prefix(".timeout") {
        match arg.trim() {
            "off" => {
                session.timeout = None;
                println!("timeout off");
            }
            ms => match ms.parse::<u64>() {
                Ok(ms) => {
                    session.timeout = Some(std::time::Duration::from_millis(ms));
                    println!("timeout {ms}ms");
                }
                Err(_) => return Err("usage: .timeout MILLIS|off".to_string()),
            },
        }
        return Ok(false);
    }
    if let Some(arg) = line.strip_prefix(".maxrows") {
        match arg.trim() {
            "off" => {
                session.max_rows = None;
                println!("maxrows off");
            }
            n => match n.parse::<u64>() {
                Ok(n) => {
                    session.max_rows = Some(n);
                    println!("maxrows {n}");
                }
                Err(_) => return Err("usage: .maxrows N|off".to_string()),
            },
        }
        return Ok(false);
    }
    if let Some(q) = line.strip_prefix(".analyze ") {
        let (db, t) = match backend {
            Backend::Schema(db) => (db.db(), db.translate(q.trim()).map_err(|e| e.to_string())?),
            Backend::Edge(db) => (db.db(), db.translate(q.trim()).map_err(|e| e.to_string())?),
        };
        // `.analyze` executes the statement, so the session's
        // `.timeout`/`.maxrows` knobs apply exactly as they do to a
        // bare query.
        match t.stmt {
            None => println!("(statically empty)"),
            Some(stmt) => print!(
                "{}",
                sqlexec::explain_analyze_with_limits(
                    db,
                    &stmt,
                    session.limits(),
                    sqlexec::ExecOptions::default()
                )
                .map_err(|e| format!("[{}] {e}", e.kind()))?
            ),
        }
        return Ok(false);
    }
    if line == ".tables" {
        let db = match backend {
            Backend::Schema(db) => db.db(),
            Backend::Edge(db) => db.db(),
        };
        for name in db.table_names() {
            println!(
                "{name}: {} rows",
                db.table(name).map(|t| t.len()).unwrap_or(0)
            );
        }
        return Ok(false);
    }
    if line == ".marking" {
        match backend {
            Backend::Schema(db) => {
                for (name, mark) in db.store().marking().iter() {
                    println!("{name}: {mark:?}");
                }
            }
            Backend::Edge(_) => println!("(the Edge mapping has no schema marking)"),
        }
        return Ok(false);
    }
    if let Some(rest) = line.strip_prefix(".publish ") {
        let id: i64 = rest
            .trim()
            .parse()
            .map_err(|_| "usage: .publish <element id>".to_string())?;
        match backend {
            Backend::Schema(db) => {
                println!(
                    "{}",
                    publish_element(db.store(), id).map_err(|e| e.to_string())?
                )
            }
            Backend::Edge(_) => println!("(publishing needs the schema-aware mapping)"),
        }
        return Ok(false);
    }
    if let Some(q) = line.strip_prefix(".sql ") {
        let sql = match backend {
            Backend::Schema(db) => db.sql_for(q.trim()).map_err(|e| e.to_string())?,
            Backend::Edge(db) => db.sql_for(q.trim()).map_err(|e| e.to_string())?,
        };
        println!(
            "{}",
            sql.unwrap_or_else(|| "(statically empty)".to_string())
        );
        return Ok(false);
    }
    if let Some(q) = line.strip_prefix(".explain ") {
        let (db, t) = match backend {
            Backend::Schema(db) => (db.db(), db.translate(q.trim()).map_err(|e| e.to_string())?),
            Backend::Edge(db) => (db.db(), db.translate(q.trim()).map_err(|e| e.to_string())?),
        };
        match t.stmt {
            None => println!("(statically empty)"),
            Some(stmt) => print!(
                "{}",
                sqlexec::explain_stmt(db, &stmt).map_err(|e| e.to_string())?
            ),
        }
        return Ok(false);
    }
    if line.starts_with('.') {
        return Err(format!("unknown command `{line}` (try .help)"));
    }

    // A bare XPath query, under the session's .timeout/.maxrows limits.
    // Typed failures print tagged by lifecycle phase, e.g.
    // `[limit] engine error: resource limit exceeded: row budget exceeded`.
    let limits = session.limits();
    let t0 = std::time::Instant::now();
    let (result, trace) = match backend {
        Backend::Schema(db) => db
            .query_traced_with_limits(line, limits)
            .map_err(|e| format!("[{}] {e}", e.kind()))?,
        Backend::Edge(db) => db
            .query_traced_with_limits(line, limits)
            .map_err(|e| format!("[{}] {e}", e.kind()))?,
    };
    let elapsed = t0.elapsed();
    if let Some(sink) = &mut session.trace_sink {
        sink.emit(&trace);
        sink.flush();
    }
    for row in result.rows.rows.iter().take(20) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    if result.rows.rows.len() > 20 {
        println!("... ({} more rows)", result.rows.rows.len() - 20);
    }
    println!(
        "{} row(s) in {:.2}ms ({} rows scanned, {} index probes, {} path filters, {} regex matches)",
        result.rows.rows.len(),
        elapsed.as_secs_f64() * 1e3,
        result.stats.rows_scanned,
        result.stats.index_probes,
        result.engine.path_filters,
        result.stats.regex.match_calls,
    );
    if session.show_trace {
        print!("{}", trace.render());
    }
    Ok(false)
}
