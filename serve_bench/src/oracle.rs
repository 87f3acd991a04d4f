//! The correctness oracle: every distinct query's expected row count,
//! from the native evaluator (`xpath::evaluate`) on the same generated
//! document — an implementation that shares no code with the PPF path
//! being served.
//!
//! A `//` step costs the native evaluator a whole-document walk (6–10 ms
//! at scale 1.0), so `adhoc_cold`'s 8192 texts take ~10 s on two cores.
//! The universes do not depend on `--seed`, so the counts are cached
//! under the bench's temp dir, keyed by document and texts.

use std::path::Path;

use crate::workloads::{Query, Workload, DOC_SCALE, DOC_SEED};

fn cache_key(universe: &[Query]) -> u64 {
    // FNV-1a over everything the counts depend on.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&DOC_SCALE.to_bits().to_le_bytes());
    eat(&DOC_SEED.to_le_bytes());
    for q in universe {
        eat(q.xpath.as_bytes());
        eat(b"\n");
    }
    h
}

fn evaluate_all(universe: &[Query]) -> Result<Vec<u32>, String> {
    let doc = xmark::generate_xmark(xmark::XMarkConfig {
        scale: DOC_SCALE,
        seed: DOC_SEED,
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = universe.len().div_ceil(threads);
    let parts: Vec<Result<Vec<u32>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = universe
            .chunks(chunk)
            .map(|qs| {
                let doc = &doc;
                s.spawn(move || {
                    qs.iter()
                        .map(|q| {
                            let expr = xpath::parse_xpath(&q.xpath)
                                .map_err(|e| format!("{}: {e}", q.xpath))?;
                            let items = xpath::evaluate(doc, &expr)
                                .map_err(|e| format!("{}: {}", q.xpath, e.0))?;
                            Ok(items.len() as u32)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut counts = Vec::with_capacity(universe.len());
    for part in parts {
        counts.extend(part?);
    }
    Ok(counts)
}

/// Expected row count per universe entry, from the cache when it holds
/// this exact universe, else evaluated and cached.
pub fn expected_counts(w: &Workload, universe: &[Query], tmp: &Path) -> Result<Vec<u32>, String> {
    let path = tmp.join(format!("oracle_{:016x}.txt", cache_key(universe)));
    let cached = std::fs::read_to_string(&path).ok().and_then(|text| {
        let counts: Vec<u32> = text.lines().map_while(|l| l.parse().ok()).collect();
        (counts.len() == universe.len()).then_some(counts)
    });
    let counts = match cached {
        Some(counts) => counts,
        None => {
            let counts = evaluate_all(universe)?;
            let text: String = counts.iter().map(|c| format!("{c}\n")).collect();
            // Rename into place: a concurrent run sees all of it or none.
            let part = path.with_extension(format!("{}.part", std::process::id()));
            std::fs::write(&part, text)
                .and_then(|()| std::fs::rename(&part, &path))
                .map_err(|e| format!("cannot cache the oracle at {}: {e}", path.display()))?;
            counts
        }
    };
    if w.max_rows > 0 {
        if let Some(i) = counts.iter().position(|c| *c as usize > w.max_rows) {
            return Err(format!(
                "{}: {} returns {} rows, the workload allows {}",
                w.name, universe[i].xpath, counts[i], w.max_rows
            ));
        }
    }
    Ok(counts)
}
