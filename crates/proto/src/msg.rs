//! Typed request/response messages for the DFS query protocol.
//!
//! Every message converts to/from a [`Json`] payload. Encoding is
//! deterministic (insertion-ordered objects, shortest-roundtrip floats),
//! so identical results serialize to identical bytes — the property the
//! chaos suite checks across thread counts. `u64` fields that must keep
//! full precision (`req_id`, `seed`) travel as decimal strings; floats
//! that may be non-finite (constraint distances) use the `"inf"` /
//! `"-inf"` / `"nan"` string spellings.

use crate::json::Json;
use std::fmt;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn u64_str(v: u64) -> Json {
    Json::Str(v.to_string())
}

/// Encodes an `f64` including non-finite values.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("nan".into())
    } else if v > 0.0 {
        Json::Str("inf".into())
    } else {
        Json::Str("-inf".into())
    }
}

fn parse_num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        _ => None,
    }
}

fn need<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn need_u64(j: &Json, key: &str) -> Result<u64, String> {
    need(j, key)?.as_u64().ok_or_else(|| format!("field '{key}' is not a u64"))
}

fn need_f64(j: &Json, key: &str) -> Result<f64, String> {
    parse_num(need(j, key)?).ok_or_else(|| format!("field '{key}' is not a number"))
}

fn need_str(j: &Json, key: &str) -> Result<String, String> {
    Ok(need(j, key)?.as_str().ok_or_else(|| format!("field '{key}' is not a string"))?.to_string())
}

fn opt_f64(j: &Json, key: &str) -> Result<Option<f64>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => parse_num(v).map(Some).ok_or_else(|| format!("field '{key}' is not a number")),
    }
}

fn opt_u64(j: &Json, key: &str) -> Result<Option<u64>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| format!("field '{key}' is not a u64")),
    }
}

/// One constraint query: which dataset/model/strategy to run and under
/// what constraints and quotas.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Client-chosen request id, echoed in every response and used as the
    /// key for deterministic server-side fault injection.
    pub req_id: u64,
    /// Built-in synthetic dataset name (see `dfs-data`).
    pub dataset: String,
    /// Optional row cap applied before splitting (keeps test queries fast).
    pub rows: Option<u64>,
    /// Model id: `lr`, `nb`, `dt`, `svm`.
    pub model: String,
    /// Strategy id (same names as the CLI); `auto` is dynamic switching
    /// over SFFS, TPE(FCBF) and TPE(NR), and answers as strategy `auto`.
    pub strategy: String,
    /// Mandatory minimum validation F1.
    pub min_f1: f64,
    /// Optional fairness floor (equal opportunity).
    pub min_fairness: Option<f64>,
    /// Optional robustness floor (safety).
    pub min_safety: Option<f64>,
    /// Optional cap on the kept-feature fraction.
    pub max_feature_frac: Option<f64>,
    /// Optional privacy epsilon.
    pub privacy_epsilon: Option<f64>,
    /// Per-query search-time quota in milliseconds (0 → server default;
    /// values above the server quota are rejected, not clamped).
    pub time_ms: u64,
    /// Per-query evaluation cap (0 → server default; above-quota rejected).
    pub max_evals: u64,
    /// Enable per-fit hyperparameter search.
    pub hpo: bool,
    /// Dataset/split seed.
    pub seed: u64,
    /// Client deadline for the whole request in milliseconds, counted from
    /// admission: the server stops the search at its first evaluation past
    /// it and answers `deadline_exceeded`, at most one evaluation late.
    /// `None` → server default.
    pub deadline_ms: Option<u64>,
}

impl QuerySpec {
    /// A small, fast query useful as a starting point.
    pub fn example(req_id: u64) -> Self {
        Self {
            req_id,
            dataset: "compas".into(),
            rows: Some(160),
            model: "nb".into(),
            strategy: "variance".into(),
            min_f1: 0.1,
            min_fairness: None,
            min_safety: None,
            max_feature_frac: None,
            privacy_epsilon: None,
            time_ms: 0,
            max_evals: 0,
            hpo: false,
            seed: 13,
            deadline_ms: None,
        }
    }

    pub fn to_json(&self) -> Json {
        obj(vec![
            ("req_id", u64_str(self.req_id)),
            ("dataset", Json::Str(self.dataset.clone())),
            ("rows", self.rows.map_or(Json::Null, |r| Json::Num(r as f64))),
            ("model", Json::Str(self.model.clone())),
            ("strategy", Json::Str(self.strategy.clone())),
            ("min_f1", num(self.min_f1)),
            ("min_fairness", self.min_fairness.map_or(Json::Null, num)),
            ("min_safety", self.min_safety.map_or(Json::Null, num)),
            ("max_feature_frac", self.max_feature_frac.map_or(Json::Null, num)),
            ("privacy_epsilon", self.privacy_epsilon.map_or(Json::Null, num)),
            ("time_ms", Json::Num(self.time_ms as f64)),
            ("max_evals", Json::Num(self.max_evals as f64)),
            ("hpo", Json::Bool(self.hpo)),
            ("seed", u64_str(self.seed)),
            ("deadline_ms", self.deadline_ms.map_or(Json::Null, |d| Json::Num(d as f64))),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(Self {
            req_id: need_u64(j, "req_id")?,
            dataset: need_str(j, "dataset")?,
            rows: opt_u64(j, "rows")?,
            model: need_str(j, "model")?,
            strategy: need_str(j, "strategy")?,
            min_f1: need_f64(j, "min_f1")?,
            min_fairness: opt_f64(j, "min_fairness")?,
            min_safety: opt_f64(j, "min_safety")?,
            max_feature_frac: opt_f64(j, "max_feature_frac")?,
            privacy_epsilon: opt_f64(j, "privacy_epsilon")?,
            time_ms: need_u64(j, "time_ms")?,
            max_evals: need_u64(j, "max_evals")?,
            hpo: need(j, "hpo")?.as_bool().ok_or("field 'hpo' is not a bool")?,
            seed: need_u64(j, "seed")?,
            deadline_ms: opt_u64(j, "deadline_ms")?,
        })
    }
}

/// Result of a served query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Echo of the request id.
    pub req_id: u64,
    /// Strategy that actually ran (resolved when the query said `auto`).
    pub strategy: String,
    /// All constraints satisfied on validation and confirmed on test.
    pub success: bool,
    /// Returned feature subset (sorted indices).
    pub subset: Vec<u64>,
    /// Eq. 1 distance on the validation split.
    pub val_distance: f64,
    /// Eq. 1 distance on the test split.
    pub test_distance: f64,
    /// Wrapper evaluations consumed.
    pub evaluations: u64,
    /// Wall-clock service time in milliseconds (timing: excluded from
    /// [`QueryResult::fingerprint`]).
    pub elapsed_ms: u64,
    /// Models trained for this query.
    pub model_fits: u64,
    /// Rankings computed fresh for this query (cache-state dependent:
    /// excluded from the fingerprint).
    pub ranking_computes: u64,
    /// Rankings served from the warm artifact cache (cache-state
    /// dependent: excluded from the fingerprint).
    pub ranking_hits: u64,
}

impl QueryResult {
    /// Canonical string over the deterministic fields only — everything
    /// that must be bit-identical across thread counts and cache
    /// temperature. Floats are rendered as exact bit patterns.
    pub fn fingerprint(&self) -> String {
        let subset: Vec<String> = self.subset.iter().map(u64::to_string).collect();
        format!(
            "req={} strat={} success={} subset=[{}] val={:016x} test={:016x} evals={}",
            self.req_id,
            self.strategy,
            self.success,
            subset.join(","),
            self.val_distance.to_bits(),
            self.test_distance.to_bits(),
            self.evaluations,
        )
    }

    pub fn to_json(&self) -> Json {
        obj(vec![
            ("req_id", u64_str(self.req_id)),
            ("strategy", Json::Str(self.strategy.clone())),
            ("success", Json::Bool(self.success)),
            ("subset", Json::Arr(self.subset.iter().map(|&i| Json::Num(i as f64)).collect())),
            ("val_distance", num(self.val_distance)),
            ("test_distance", num(self.test_distance)),
            ("evaluations", Json::Num(self.evaluations as f64)),
            ("elapsed_ms", Json::Num(self.elapsed_ms as f64)),
            ("model_fits", Json::Num(self.model_fits as f64)),
            ("ranking_computes", Json::Num(self.ranking_computes as f64)),
            ("ranking_hits", Json::Num(self.ranking_hits as f64)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let subset = need(j, "subset")?
            .as_arr()
            .ok_or("field 'subset' is not an array")?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| "subset entry is not a u64".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        Ok(Self {
            req_id: need_u64(j, "req_id")?,
            strategy: need_str(j, "strategy")?,
            success: need(j, "success")?.as_bool().ok_or("field 'success' is not a bool")?,
            subset,
            val_distance: need_f64(j, "val_distance")?,
            test_distance: need_f64(j, "test_distance")?,
            evaluations: need_u64(j, "evaluations")?,
            elapsed_ms: need_u64(j, "elapsed_ms")?,
            model_fits: need_u64(j, "model_fits")?,
            ranking_computes: need_u64(j, "ranking_computes")?,
            ranking_hits: need_u64(j, "ranking_hits")?,
        })
    }
}

/// Error taxonomy on the wire. The split between retryable and terminal
/// codes is the contract the client's backoff policy relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Request queue full or server draining: try again later.
    Overloaded,
    /// The query missed its (client-supplied or default) deadline.
    DeadlineExceeded,
    /// The request could not be parsed or referenced unknown entities.
    MalformedQuery,
    /// Requested quotas exceed what the server admits.
    BudgetExceeded,
    /// The query cell panicked or the server failed internally.
    Internal,
}

impl ErrorCode {
    /// `true` when the client may retry the same request verbatim.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::MalformedQuery => "malformed_query",
            ErrorCode::BudgetExceeded => "budget_exceeded",
            ErrorCode::Internal => "internal",
        }
    }

    pub fn from_str_code(s: &str) -> Result<Self, String> {
        match s {
            "overloaded" => Ok(ErrorCode::Overloaded),
            "deadline_exceeded" => Ok(ErrorCode::DeadlineExceeded),
            "malformed_query" => Ok(ErrorCode::MalformedQuery),
            "budget_exceeded" => Ok(ErrorCode::BudgetExceeded),
            "internal" => Ok(ErrorCode::Internal),
            other => Err(format!("unknown error code '{other}'")),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An error response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Request id the error answers (0 when no request could be parsed).
    pub req_id: u64,
    pub code: ErrorCode,
    /// Human-readable detail (e.g. the parse failure).
    pub message: String,
    /// For [`ErrorCode::DeadlineExceeded`]: the heartbeat phase the query
    /// was in when it stopped (`queue` when its queue wait spent the
    /// deadline) — `CellTimedOut`-style attribution.
    pub phase: Option<String>,
}

impl WireError {
    pub fn new(req_id: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Self { req_id, code, message: message.into(), phase: None }
    }

    pub fn with_phase(mut self, phase: impl Into<String>) -> Self {
        self.phase = Some(phase.into());
        self
    }

    pub fn to_json(&self) -> Json {
        obj(vec![
            ("req_id", u64_str(self.req_id)),
            ("code", Json::Str(self.code.as_str().into())),
            ("message", Json::Str(self.message.clone())),
            ("phase", self.phase.clone().map_or(Json::Null, Json::Str)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(Self {
            req_id: need_u64(j, "req_id")?,
            code: ErrorCode::from_str_code(&need_str(j, "code")?)?,
            message: need_str(j, "message")?,
            phase: match j.get("phase") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_str().ok_or("field 'phase' is not a string")?.to_string()),
            },
        })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)?;
        if let Some(phase) = &self.phase {
            write!(f, " (phase: {phase})")?;
        }
        Ok(())
    }
}

/// Server-side counters, served by [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Queries answered with a result.
    pub served: u64,
    /// Of those, queries whose constraints were satisfied.
    pub succeeded: u64,
    /// Requests shed by admission control (queue full or draining).
    pub shed: u64,
    /// Query cells that panicked (isolated, answered with `internal`).
    pub panicked: u64,
    /// Queries that missed their deadline.
    pub deadline_exceeded: u64,
    /// Frames or queries that failed to parse.
    pub malformed: u64,
    /// Rankings computed into the warm artifact cache.
    pub ranking_computes: u64,
    /// Rankings served from the warm artifact cache.
    pub ranking_hits: u64,
    /// Splits in the engine's cache.
    pub cache_entries: u64,
    /// Bytes charged for them: each split's matrix and label bytes plus
    /// its cached artifacts (rankings, bins, memo and fit store).
    pub cache_bytes: u64,
    /// Splits evicted from the cache past its byte budget.
    pub cache_evictions: u64,
    /// Per-request latency histogram, `Histogram::encode_sparse` wire
    /// form (`"count;sum;i:c,..."`, nanoseconds). Empty from peers that
    /// predate tail reporting.
    pub latency_hist: String,
    /// Queue-wait histogram (admission to execution start), same encoding.
    /// Only queries that took the queue record a wait: warm answers,
    /// served on the connection thread, record none.
    pub queue_hist: String,
}

impl ServerStats {
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("connections", Json::Num(self.connections as f64)),
            ("served", Json::Num(self.served as f64)),
            ("succeeded", Json::Num(self.succeeded as f64)),
            ("shed", Json::Num(self.shed as f64)),
            ("panicked", Json::Num(self.panicked as f64)),
            ("deadline_exceeded", Json::Num(self.deadline_exceeded as f64)),
            ("malformed", Json::Num(self.malformed as f64)),
            ("ranking_computes", Json::Num(self.ranking_computes as f64)),
            ("ranking_hits", Json::Num(self.ranking_hits as f64)),
            ("cache_entries", Json::Num(self.cache_entries as f64)),
            ("cache_bytes", Json::Num(self.cache_bytes as f64)),
            ("cache_evictions", Json::Num(self.cache_evictions as f64)),
            ("latency_hist", Json::Str(self.latency_hist.clone())),
            ("queue_hist", Json::Str(self.queue_hist.clone())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        // Hist fields default to empty and cache counters to 0 so stats
        // from older peers decode.
        let opt_hist = |key: &str| -> String {
            j.get(key).and_then(|v| v.as_str()).unwrap_or("").to_string()
        };
        let opt_count = |key: &str| if j.get(key).is_some() { need_u64(j, key) } else { Ok(0) };
        Ok(Self {
            connections: need_u64(j, "connections")?,
            served: need_u64(j, "served")?,
            succeeded: need_u64(j, "succeeded")?,
            shed: need_u64(j, "shed")?,
            panicked: need_u64(j, "panicked")?,
            deadline_exceeded: need_u64(j, "deadline_exceeded")?,
            malformed: need_u64(j, "malformed")?,
            ranking_computes: need_u64(j, "ranking_computes")?,
            ranking_hits: need_u64(j, "ranking_hits")?,
            cache_entries: opt_count("cache_entries")?,
            cache_bytes: opt_count("cache_bytes")?,
            cache_evictions: opt_count("cache_evictions")?,
            latency_hist: opt_hist("latency_hist"),
            queue_hist: opt_hist("queue_hist"),
        })
    }
}

/// Client → server messages.
// A query spec is ~200 bytes; requests are built once per round trip, so
// the size asymmetry against Ping/Stats is not worth a Box indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Query(QuerySpec),
    /// Liveness probe.
    Ping,
    /// Fetch server counters.
    Stats,
    /// Ask the server to drain and exit (same path as SIGTERM).
    Shutdown,
}

impl Request {
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query(spec) => obj(vec![("type", Json::Str("query".into())), ("query", spec.to_json())]),
            Request::Ping => obj(vec![("type", Json::Str("ping".into()))]),
            Request::Stats => obj(vec![("type", Json::Str("stats".into()))]),
            Request::Shutdown => obj(vec![("type", Json::Str("shutdown".into()))]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        match need_str(j, "type")?.as_str() {
            "query" => Ok(Request::Query(QuerySpec::from_json(need(j, "query")?)?)),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type '{other}'")),
        }
    }

    /// Encodes to frame-payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string().into_bytes()
    }

    /// Decodes from frame-payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "request is not utf-8".to_string())?;
        Self::from_json(&Json::parse(text)?)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Result(QueryResult),
    Error(WireError),
    Pong,
    Stats(ServerStats),
    /// Acknowledges a shutdown request; the connection closes after this.
    Bye,
}

impl Response {
    pub fn to_json(&self) -> Json {
        match self {
            Response::Result(r) => obj(vec![("type", Json::Str("result".into())), ("result", r.to_json())]),
            Response::Error(e) => obj(vec![("type", Json::Str("error".into())), ("error", e.to_json())]),
            Response::Pong => obj(vec![("type", Json::Str("pong".into()))]),
            Response::Stats(s) => obj(vec![("type", Json::Str("stats".into())), ("stats", s.to_json())]),
            Response::Bye => obj(vec![("type", Json::Str("bye".into()))]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        match need_str(j, "type")?.as_str() {
            "result" => Ok(Response::Result(QueryResult::from_json(need(j, "result")?)?)),
            "error" => Ok(Response::Error(WireError::from_json(need(j, "error")?)?)),
            "pong" => Ok(Response::Pong),
            "stats" => Ok(Response::Stats(ServerStats::from_json(need(j, "stats")?)?)),
            "bye" => Ok(Response::Bye),
            other => Err(format!("unknown response type '{other}'")),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string().into_bytes()
    }

    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "response is not utf-8".to_string())?;
        Self::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> QueryResult {
        QueryResult {
            req_id: u64::MAX - 1,
            strategy: "sfs".into(),
            success: true,
            subset: vec![0, 3, 17],
            val_distance: 0.0,
            test_distance: f64::INFINITY,
            evaluations: 12,
            elapsed_ms: 48,
            model_fits: 30,
            ranking_computes: 1,
            ranking_hits: 2,
        }
    }

    #[test]
    fn query_spec_roundtrips_with_full_u64_precision() {
        let mut spec = QuerySpec::example(u64::MAX);
        spec.seed = u64::MAX - 7;
        spec.min_fairness = Some(0.85);
        spec.deadline_ms = Some(1500);
        let req = Request::Query(spec.clone());
        let back = Request::decode(&req.encode()).expect("decode");
        assert_eq!(back, req);
        match back {
            Request::Query(s) => {
                assert_eq!(s.req_id, u64::MAX);
                assert_eq!(s.seed, u64::MAX - 7);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip_including_nonfinite_distances() {
        let cases = vec![
            Response::Result(sample_result()),
            Response::Error(
                WireError::new(7, ErrorCode::DeadlineExceeded, "missed 50ms deadline")
                    .with_phase("eval:sfs"),
            ),
            Response::Pong,
            Response::Stats(ServerStats { connections: 3, served: 9, shed: 1, ..Default::default() }),
            Response::Bye,
        ];
        for resp in cases {
            let back = Response::decode(&resp.encode()).expect("decode");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn stats_carry_cache_counters_and_older_peers_read_zero() {
        let stats = ServerStats {
            served: 4,
            cache_entries: 2,
            cache_bytes: 1 << 20,
            cache_evictions: 9,
            ..Default::default()
        };
        let back = Response::decode(&Response::Stats(stats.clone()).encode()).expect("decode");
        assert_eq!(back, Response::Stats(stats));
        // A peer that predates the cache counters sends none.
        let mut older = ServerStats { served: 4, ..Default::default() }.to_json().to_string();
        for key in ["cache_entries", "cache_bytes", "cache_evictions"] {
            older = older.replace(&format!("\"{key}\":0,"), "");
        }
        assert!(!older.contains("cache_"), "{older}");
        let back = Response::decode(format!("{{\"type\":\"stats\",\"stats\":{older}}}").as_bytes());
        assert_eq!(back, Ok(Response::Stats(ServerStats { served: 4, ..Default::default() })));
    }

    #[test]
    fn encoding_is_deterministic() {
        let r = Response::Result(sample_result());
        assert_eq!(r.encode(), r.encode());
        let decoded = Response::decode(&r.encode()).expect("decode");
        assert_eq!(decoded.encode(), r.encode(), "decode→encode must be byte-stable");
    }

    #[test]
    fn fingerprint_ignores_timing_and_cache_state() {
        let a = sample_result();
        let mut b = sample_result();
        b.elapsed_ms = 9999;
        b.ranking_hits = 0;
        b.ranking_computes = 5;
        b.model_fits = 1;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample_result();
        c.subset = vec![0, 3];
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn error_code_retryability_matrix() {
        assert!(ErrorCode::Overloaded.retryable());
        for terminal in [
            ErrorCode::DeadlineExceeded,
            ErrorCode::MalformedQuery,
            ErrorCode::BudgetExceeded,
            ErrorCode::Internal,
        ] {
            assert!(!terminal.retryable(), "{terminal} must be terminal");
        }
    }

    #[test]
    fn error_codes_roundtrip_via_strings() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::MalformedQuery,
            ErrorCode::BudgetExceeded,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_str_code(code.as_str()), Ok(code));
        }
        assert!(ErrorCode::from_str_code("nope").is_err());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(b"\xff\xfe").is_err());
        assert!(Request::decode(b"{}").is_err());
        assert!(Request::decode(br#"{"type":"warp"}"#).is_err());
        assert!(Response::decode(br#"{"type":"result","result":{}}"#).is_err());
    }
}
