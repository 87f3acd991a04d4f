//! The in-process layer probe: link the crates, build the same document,
//! and time each layer's public entry point on every probed query of a
//! workload. The server stamps nothing yet, so this is where per-layer
//! times come from; each call is a span in the trace.
//!
//! Per-query values are medians over `REPS` calls; per-workload values
//! are medians over the probed queries (every text is sent equally
//! often, so that median is request-weighted).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppf_core::{SharedEngine, XmlDb};
use ppf_server::{proto, Admission, AdmissionPolicy, Response, Verb};
use sqlexec::{Expr, Select, SelectStmt};

use crate::stats::{median, ratio};
use crate::trace::Trace;
use crate::workloads::{Query, DOC_SCALE, DOC_SEED};
use crate::{Metrics, EMPTY_QUERY};

const REPS: usize = 3;
/// Calls per timing of a fixed-cost primitive (admission, counters).
const BATCH: u32 = 1000;
/// `request` of spans that belong to no query.
const NO_REQUEST: u32 = u32::MAX;

/// What the wire phases of a traced run need from the probe.
pub struct Probed {
    /// `SharedEngine::query` on a plan-cache hit, median over queries.
    pub warm_us: f64,
    /// First touch of a text (parse + translate + plan + execute).
    pub cold_us: f64,
    /// The median request's time in probed layers outside the engine
    /// call: frame, request parse, admission, id extraction, encode.
    pub outside_engine_us: f64,
    /// Warm time of a statically-empty query, for `server.spawn_us`.
    pub empty_warm_us: f64,
}

fn regex_patterns(stmt: &SelectStmt) -> Vec<&str> {
    fn in_select<'a>(s: &'a Select, out: &mut Vec<&'a str>) {
        for p in &s.projections {
            in_expr(&p.expr, out);
        }
        if let Some(w) = &s.where_clause {
            in_expr(w, out);
        }
    }
    fn in_expr<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
        match e {
            Expr::RegexpLike { subject, pattern } => {
                out.push(pattern);
                in_expr(subject, out);
            }
            Expr::And(xs) | Expr::Or(xs) => xs.iter().for_each(|x| in_expr(x, out)),
            Expr::Not(x) | Expr::IsNull { expr: x, .. } => in_expr(x, out),
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } | Expr::Concat(lhs, rhs) => {
                in_expr(lhs, out);
                in_expr(rhs, out);
            }
            Expr::Between { expr, lo, hi, .. } => {
                in_expr(expr, out);
                in_expr(lo, out);
                in_expr(hi, out);
            }
            Expr::Exists(s) | Expr::ScalarSubquery(s) => in_select(s, out),
            Expr::Literal(_) | Expr::Column { .. } | Expr::CountStar => {}
        }
    }
    let mut out = Vec::new();
    for branch in &stmt.branches {
        in_select(branch, &mut out);
    }
    out
}

/// The query response body exactly as `ppf_server` builds it.
fn response_body(ids: &[i64]) -> String {
    let mut body = format!("rows {}\n", ids.len());
    for id in ids {
        body.push_str(&id.to_string());
        body.push('\n');
    }
    body
}

/// Median duration in µs of `REPS` timed calls, each a span.
fn reps<T>(
    trace: &mut Trace,
    name: &'static str,
    request: u32,
    parent: Option<u32>,
    mut f: impl FnMut() -> T,
) -> f64 {
    median(
        (0..REPS)
            .map(|_| trace.time(name, request, parent, || black_box(f())).1 as f64 / 1e3)
            .collect(),
    )
}

/// ns per call of a primitive too cheap to time singly.
fn per_call_ns(trace: &mut Trace, name: &'static str, mut f: impl FnMut()) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let (_, ns, ()) =
                    trace.time(name, NO_REQUEST, None, || (0..BATCH).for_each(|_| f()));
                ns as f64 / f64::from(BATCH)
            })
            .collect(),
    )
}

/// Run the probe over `sample` (indices into `universe`), adding the
/// in-process per-layer metrics to `m`.
pub fn run(
    universe: &[Query],
    sample: &[u32],
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<Probed, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // Set-up path: the same calls `ppfd` makes before it listens.
    let (_, gen_ns, doc) = trace.time("xmark.generate", NO_REQUEST, None, || {
        xmark::generate_xmark(xmark::XMarkConfig {
            scale: DOC_SCALE,
            seed: DOC_SEED,
        })
    });
    let xml_bytes = xmldom::to_xml(&doc).len() as f64;
    let mut db = XmlDb::new(&xmark::xmark_schema()).map_err(|e| err(&e))?;
    let (_, load_ns, loaded) = trace.time("shred.load", NO_REQUEST, None, || db.load(&doc));
    loaded.map_err(|e| err(&e))?;
    let (fin, finalize_ns, finalized) =
        trace.time("core.finalize", NO_REQUEST, None, || db.finalize());
    finalized.map_err(|e| err(&e))?;
    // finalize ran this inside itself; run it again, cold, as its child.
    relstore::stats::clear();
    let (_, stats_ns, _) = trace.time("relstore.stats_build", NO_REQUEST, Some(fin), || {
        relstore::stats::analyze_db(db.db())
    });
    m.put("xmark.generate_ms", gen_ns as f64 / 1e6);
    m.put("shred.load_ms", load_ns as f64 / 1e6);
    m.put("core.finalize_ms", finalize_ns as f64 / 1e6);
    m.put("relstore.stats_build_ms", stats_ns as f64 / 1e6);
    m.put("relstore.rows", db.db().total_rows() as f64);
    m.put("xmark.xml_bytes", xml_bytes);
    drop(doc);

    let engine = SharedEngine::new(db);
    let snap = engine.snapshot();
    let db = snap.db();
    let paths: Vec<String> = db
        .table(shred::naming::PATHS_TABLE)
        .and_then(|t| {
            let col = t.schema.col(shred::naming::PATHS_PATH)?;
            Some(
                t.rows()
                    .filter_map(|(_, row)| row[col].as_str().map(str::to_string))
                    .collect(),
            )
        })
        .unwrap_or_default();

    // Per-query layer times, one vector entry per probed query.
    let mut layer: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut outside_engine = Vec::new();
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    let (mut encode_ns, mut encode_rows) = (0.0, 0.0);
    let (mut match_ns, mut match_calls) = (0.0, 0.0);

    for &qi in sample {
        let text = universe[qi as usize].xpath.as_str();
        let mut put = |name: &'static str, v: f64| layer.entry(name).or_default().push(v);

        // First touch before anything else can warm a cache for it.
        let (cold, cold_ns, first) = trace.time("core.query_cold", qi, None, || engine.query(text));
        first.map_err(|e| format!("{text}: {e}"))?;
        put("core.query_cold_us", cold_ns as f64 / 1e3);

        let (tr, translate_ns, translated) =
            trace.time("core.translate", qi, Some(cold), || snap.translate(text));
        let translation = translated.map_err(|e| format!("{text}: {e}"))?;
        let parse_us = reps(trace, "xpath.parse", qi, Some(tr), || {
            xpath::parse_xpath(text)
        });
        put("xpath.parse_us", parse_us);
        put(
            "core.translate_us",
            (translate_ns as f64 / 1e3 - parse_us).max(0.0),
        );

        let mut warm_result = None;
        let warm_spans: Vec<(u32, u64)> = (0..REPS)
            .map(|_| {
                let (span, ns, r) = trace.time("core.query_warm", qi, None, || engine.query(text));
                warm_result = r.ok();
                (span, ns)
            })
            .collect();
        let warm_us = median(warm_spans.iter().map(|(_, ns)| *ns as f64 / 1e3).collect());
        let warm_span = warm_spans.last().map(|(span, _)| *span);
        let result = warm_result.ok_or_else(|| format!("{text}: warm query failed"))?;
        put("core.query_warm_us", warm_us);
        memo_hits += result.engine.path_memo_hits;
        memo_misses += result.engine.path_memo_misses;

        let (mut plan_us, mut compile_us, mut exec_us, mut render_us) = (0.0, 0.0, 0.0, 0.0);
        match &translation.stmt {
            None => {}
            Some(stmt) => {
                let mut plans = HashMap::new();
                let (_, plan_ns, planned) = trace.time("sqlexec.plan", qi, Some(cold), || {
                    for branch in &stmt.branches {
                        let plan = sqlexec::plan::plan_select(db, branch, &[])?;
                        plans.insert(branch as *const Select as usize, Arc::new(plan));
                    }
                    Ok::<(), sqlexec::ExecError>(())
                });
                planned.map_err(|e| format!("{text}: {e}"))?;
                plan_us = plan_ns as f64 / 1e3;

                let patterns = regex_patterns(stmt);
                let (_, compile_ns, compiled) =
                    trace.time("regexlite.compile", qi, Some(cold), || {
                        patterns
                            .iter()
                            .map(|p| regexlite::Regex::new(p))
                            .collect::<Result<Vec<_>, _>>()
                    });
                let regexes = compiled.map_err(|e| format!("{text}: {e}"))?;
                compile_us = compile_ns as f64 / 1e3;
                if !regexes.is_empty() {
                    let (_, ns, _) = trace.time("regexlite.match", qi, None, || {
                        regexes
                            .iter()
                            .map(|r| paths.iter().filter(|p| r.is_match(p)).count())
                            .sum::<usize>()
                    });
                    match_ns += ns as f64;
                    match_calls += (regexes.len() * paths.len()) as f64;
                }

                exec_us = reps(trace, "sqlexec.exec", qi, warm_span, || {
                    let exec = sqlexec::Executor::new(db);
                    exec.seed_plans(&plans);
                    exec.run(stmt).map(|rs| rs.rows.len())
                });
                render_us = reps(trace, "sqlexec.render", qi, warm_span, || {
                    sqlexec::render_stmt(stmt)
                });
            }
        }
        put("sqlexec.plan_us", plan_us);
        put("regexlite.compile_us", compile_us);
        put("sqlexec.exec_us", exec_us);
        put("sqlexec.render_us", render_us);
        put("core.overhead_us", (warm_us - exec_us).max(0.0));

        // Result path and per-request fixed cost around the engine call.
        let ids = result.ids();
        let ids_us = reps(trace, "core.ids", qi, None, || result.ids());
        let mut payload = String::new();
        let encode_us = reps(trace, "server.encode", qi, None, || {
            payload = Response::ok("c1-1", response_body(&ids))
                .with_version(1)
                .render();
        });
        encode_ns += encode_us * 1e3;
        encode_rows += ids.len().max(1) as f64;
        let request = proto::render_request("c1-1", Verb::Query, &[], text);
        let parse_request_us = reps(trace, "server.parse_request", qi, None, || {
            proto::parse_request(&request)
        });
        let frame_us = reps(trace, "server.frame", qi, None, || {
            let mut wire = Vec::with_capacity(payload.len() + 16);
            proto::write_frame(&mut wire, &payload).expect("write to memory");
            proto::read_frame(&mut &wire[..]).expect("read from memory")
        });
        put("core.ids_us", ids_us);
        put("server.parse_request_us", parse_request_us);
        put("server.frame_us", frame_us);
        outside_engine.push(ids_us + encode_us + parse_request_us + frame_us);
    }

    let mut medians: HashMap<&'static str, f64> = HashMap::new();
    for (name, values) in layer {
        let v = median(values);
        medians.insert(name, v);
        m.put(name, v);
    }
    m.put(
        "sqlexec.path_memo_hit_ratio",
        ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
    );
    m.put("regexlite.match_ns_per_path", ratio(match_ns, match_calls));
    m.put("server.encode_ns_per_row", ratio(encode_ns, encode_rows));

    // Fixed-cost primitives every request pays, whatever the query.
    let admission = Admission::new(4, 16, Duration::from_millis(200), AdmissionPolicy::Queue);
    let admission_ns = per_call_ns(trace, "server.admission", || {
        black_box(admission.try_admit());
    });
    m.put("server.admission_ns", admission_ns);
    let reg = obs::Registry::global();
    let incr_ns = per_call_ns(trace, "obs.incr", || reg.incr("serve_bench.probe", 1));
    m.put("obs.incr_ns", incr_ns);
    let observe_ns = per_call_ns(trace, "obs.observe", || {
        reg.observe("serve_bench.probe_ns", 1)
    });
    m.put("obs.observe_ns", observe_ns);
    let pool = ppf_pool::global();
    let ranges = ppf_pool::even_ranges(pool.threads() * 2, pool.threads() * 2);
    let fork: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            black_box(pool.map_ranges(&ranges, |i, _| i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.put("pool.fork_us", median(fork));

    // The wire floor's query, warm, to split that floor into engine
    // time and the server's admission + worker spawn.
    engine.query(EMPTY_QUERY).map_err(|e| err(&e))?;
    let empty_warm_us = reps(trace, "core.query_warm", NO_REQUEST, None, || {
        engine.query(EMPTY_QUERY).map(|r| r.rows.rows.len())
    });

    Ok(Probed {
        warm_us: medians["core.query_warm_us"],
        cold_us: medians["core.query_cold_us"],
        outside_engine_us: median(outside_engine) + admission_ns / 1e3,
        empty_warm_us,
    })
}
