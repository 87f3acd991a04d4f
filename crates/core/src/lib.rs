//! `ppf_core` — PPF-based XPath processing on a relational back end.
//!
//! The primary contribution of the reproduced paper: XPath expressions are
//! split into *Primitive Path Fragments* (PPFs), each PPF is evaluated
//! holistically through a root-to-node path index filtered by a regular
//! expression, and consecutive PPFs are combined with structural joins
//! over a binary Dewey encoding (or foreign keys for single child/parent
//! steps).
//!
//! * [`ppf`] — PPF identification (§4.1)
//! * [`pattern`] — symbolic path patterns → `REGEXP_LIKE` patterns (Table 1)
//! * [`nav`] — schema-graph navigation for prominent-relation assignment
//! * [`translate`](translate/index.html) — the XPath→SQL translation (Algorithm 1, §4.3–4.5)
//! * [`engine`] — a high-level façade: load documents, run XPath, get rows
pub mod engine;
pub mod error;
pub mod nav;
pub mod pattern;
pub mod ppf;
pub mod publish;
pub mod translate;

pub use engine::{
    cache_poison_recoveries, EdgeDb, EngineError, EngineSnapshot, EngineStats, QueryResult,
    SharedEngine, XmlDb,
};
pub use error::{QueryError, ReloadError};
pub use publish::publish_element;
pub use sqlexec::{CancelToken, ExecOptions, QueryLimits};
pub use translate::{
    translate, Mapping, OutputKind, TranslateError, TranslateOptions, Translation,
};
