//! The what-if query model: one line of JSON in, one typed [`Query`] out.
//!
//! A query names a cluster spec, a workload, a fault plan and (optionally)
//! a policy, and asks for a wasted-time / recoverability report — the unit
//! of traffic the service is built around. Four kinds exist:
//!
//! * `drill` — the Fig. 14 single-failure recovery drill against an
//!   arbitrary deployment (model × instance × machines × replicas) in any
//!   recovery mode. [`parse_drill`] is the one drill schema: the
//!   `scenario` bin reads its config with it too.
//! * `recoverability` — the analytic `P(recovery | k failures)` curve for
//!   a placement spec, served from the keyed memo cache.
//! * `chaos` — one named chaos plan under an optional policy, rendered
//!   through the canonical [`gemini_harness::ChaosReport::render`].
//! * `lookahead` — fork the plan's deployment and price N candidate
//!   policies forward, answering with the cheapest (Chameleon-style
//!   speculative policy selection).
//!
//! Everything is validated at parse time: unknown models, instances,
//! plans, policies, malformed failure lists, zero iteration indices and
//! absurd fleet sizes all come back as per-query errors instead of
//! reaching the simulation layer.

use gemini_cluster::{FailureKind, InstanceType, OperatorConfig};
use gemini_core::RecoveryMode;
use gemini_harness::{ChaosPlan, Deployment, DrillConfig};
use gemini_telemetry::json::{self, Json};
use gemini_training::{ModelConfig, WorkloadSpec};

/// Hard cap on `machines` in a query: large enough for the fleet-scale
/// paths (10k machines), small enough that a hostile query cannot make
/// the engine allocate per-machine state without bound.
pub const MAX_QUERY_MACHINES: usize = 20_000;

/// Hard cap on `max_k` in a recoverability query.
pub const MAX_QUERY_K: usize = 256;

/// Hard cap on lookahead candidate lists.
pub const MAX_LOOKAHEAD_CANDIDATES: usize = 16;

/// A parsed, validated query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Echoed verbatim in the response; not part of the canonical key.
    pub id: String,
    /// What is being asked.
    pub kind: QueryKind,
}

/// The four query kinds.
#[derive(Clone, Debug)]
pub enum QueryKind {
    /// A single-failure recovery drill.
    Drill(DrillConfig),
    /// The analytic recovery-probability curve.
    Recoverability(RecoverabilityQuery),
    /// One chaos plan under an optional policy.
    Chaos(ChaosQuery),
    /// Price N candidate policies forward on a forked deployment.
    Lookahead(LookaheadQuery),
}

/// `kind: "recoverability"`.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverabilityQuery {
    /// Fleet size `N`.
    pub machines: usize,
    /// Checkpoint replicas `m`.
    pub replicas: usize,
    /// The curve is reported for `k = 0 ..= max_k` failures.
    pub max_k: usize,
}

/// `kind: "chaos"`.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosQuery {
    /// A plan name from [`ChaosPlan::extended_catalog`].
    pub plan: String,
    /// RNG seed.
    pub seed: u64,
    /// `"adaptive"` or a fixed policy/scheme/mode comparator name; `None`
    /// runs the plan without a policy engine.
    pub policy: Option<String>,
    /// Pin the failure response: `"wait"`, `"shrink"` or `"step_up"`.
    /// Shorthand for the matching `mode_*` fixed policy; mutually
    /// exclusive with `policy`.
    pub mode: Option<RecoveryMode>,
    /// Optional fleet-size override, applied to a fork of the plan's
    /// deployment.
    pub machines: Option<usize>,
    /// Optional replica-count override, applied to the same fork.
    pub replicas: Option<usize>,
}

/// `kind: "lookahead"`.
#[derive(Clone, Debug, PartialEq)]
pub struct LookaheadQuery {
    /// A plan name from [`ChaosPlan::extended_catalog`].
    pub plan: String,
    /// RNG seed (every candidate is priced under the same seed).
    pub seed: u64,
    /// Candidate policies, priced in order; ties go to the earlier one.
    pub candidates: Vec<String>,
    /// Optional fleet-size override (forked, never mutating the plan).
    pub machines: Option<usize>,
    /// Optional replica-count override.
    pub replicas: Option<usize>,
}

impl Query {
    /// Parses and validates one request line.
    pub fn parse(line: &str) -> Result<Query, String> {
        let v = json::parse(line)?;
        if !matches!(v, Json::Obj(_)) {
            return Err("query must be a JSON object".to_string());
        }
        let id = query_id(&v)?;
        let kind = match v.get("kind").map(|k| k.as_str()) {
            None => "drill",
            Some(Some(k)) => k,
            Some(None) => return Err("\"kind\" must be a string".to_string()),
        };
        let kind = match kind {
            "drill" => QueryKind::Drill(drill_from_json(&v)?),
            "recoverability" => QueryKind::Recoverability(RecoverabilityQuery::from_json(&v)?),
            "chaos" => QueryKind::Chaos(ChaosQuery::from_json(&v)?),
            "lookahead" => QueryKind::Lookahead(LookaheadQuery::from_json(&v)?),
            other => return Err(format!("unknown query kind {other:?}")),
        };
        Ok(Query { id, kind })
    }

    /// The canonical key: a deterministic rendering of everything except
    /// `id`. Two tenants asking the same question produce the same key,
    /// which is what the single-flight layer dedups on.
    pub fn canonical(&self) -> String {
        match &self.kind {
            QueryKind::Drill(q) => {
                let failures: Vec<String> = q
                    .failures
                    .iter()
                    .map(|(rank, kind)| format!("{rank}:{}", kind_name(*kind)))
                    .collect();
                let d = &q.scenario;
                format!(
                    "drill|model={}|instance={}|machines={}|replicas={}|standbys={}|workload={}|mode={}|failures={}|fail_iter={}|seed={}",
                    d.model.name,
                    d.instance.name,
                    d.machines,
                    d.config.replicas,
                    q.operator.standbys,
                    d.workload.label(),
                    q.mode.label(),
                    failures.join(","),
                    q.fail_during_iteration,
                    q.seed,
                )
            }
            QueryKind::Recoverability(q) => format!(
                "recoverability|machines={}|replicas={}|max_k={}",
                q.machines, q.replicas, q.max_k
            ),
            QueryKind::Chaos(q) => format!(
                "chaos|plan={}|seed={}|policy={}|mode={}|machines={}|replicas={}",
                q.plan,
                q.seed,
                q.policy.as_deref().unwrap_or("-"),
                q.mode.map_or("-", |m| m.label()),
                opt(q.machines),
                opt(q.replicas),
            ),
            QueryKind::Lookahead(q) => format!(
                "lookahead|plan={}|seed={}|candidates={}|machines={}|replicas={}",
                q.plan,
                q.seed,
                q.candidates.join(","),
                opt(q.machines),
                opt(q.replicas),
            ),
        }
    }

    /// The kind tag echoed in responses.
    pub fn kind_tag(&self) -> &'static str {
        match &self.kind {
            QueryKind::Drill(_) => "drill",
            QueryKind::Recoverability(_) => "recoverability",
            QueryKind::Chaos(_) => "chaos",
            QueryKind::Lookahead(_) => "lookahead",
        }
    }
}

/// The id a query line echoes back: a string as is, a number as
/// [`format_f64`] prints it, `""` when absent. Error responses recover the
/// id with this too, so a numeric id survives a failed validation.
pub(crate) fn query_id(v: &Json) -> Result<String, String> {
    match v.get("id") {
        None => Ok(String::new()),
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(id) => id
            .as_f64()
            .map(format_f64)
            .ok_or_else(|| "\"id\" must be a string or number".to_string()),
    }
}

/// The kind a query object names (`"drill"` when absent), when it is one
/// of the four the service answers. A line that gets this far but fails
/// a field check is answered with its kind, like an execution error.
pub(crate) fn known_kind(v: &Json) -> Option<&'static str> {
    if !matches!(v, Json::Obj(_)) {
        return None;
    }
    let named = match v.get("kind") {
        None => "drill",
        Some(k) => k.as_str()?,
    };
    ["drill", "recoverability", "chaos", "lookahead"]
        .into_iter()
        .find(|&k| k == named)
}

fn opt(v: Option<usize>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    }
}

fn kind_name(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Hardware => "hardware",
        FailureKind::Software => "software",
    }
}

fn format_f64(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn usize_field(v: &Json, key: &str, default: usize) -> Result<usize, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn u64_field(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn opt_usize_field(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(j) => j
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn check_fleet(machines: usize, replicas: usize) -> Result<(), String> {
    if machines == 0 {
        return Err("\"machines\" must be at least 1".to_string());
    }
    if machines > MAX_QUERY_MACHINES {
        return Err(format!(
            "\"machines\" exceeds the query cap ({MAX_QUERY_MACHINES})"
        ));
    }
    if replicas == 0 {
        return Err("\"replicas\" must be at least 1".to_string());
    }
    Ok(())
}

fn plan_name_field(v: &Json) -> Result<String, String> {
    let name = v
        .get("plan")
        .and_then(|p| p.as_str())
        .ok_or("\"plan\" must name a chaos plan")?;
    if !ChaosPlan::extended_catalog().iter().any(|p| p.name == name) {
        return Err(format!("unknown chaos plan {name:?}"));
    }
    Ok(name.to_string())
}

fn policy_name_ok(name: &str) -> bool {
    name == "adaptive"
        || gemini_baselines::fixed_policies()
            .iter()
            .chain(gemini_baselines::fixed_scheme_policies().iter())
            .chain(gemini_baselines::fixed_mode_policies().iter())
            .any(|p| p.name == name)
}

fn workload_field(v: &Json) -> Result<WorkloadSpec, String> {
    match v.get("workload") {
        None => Ok(WorkloadSpec::dense()),
        Some(j) => match j.as_str() {
            Some("dense") => Ok(WorkloadSpec::dense()),
            Some("moe") => Ok(WorkloadSpec::moe_default()),
            _ => Err("\"workload\" must be \"dense\" or \"moe\"".to_string()),
        },
    }
}

fn mode_field(v: &Json) -> Result<Option<RecoveryMode>, String> {
    match v.get("mode") {
        None | Some(Json::Null) => Ok(None),
        Some(j) => match j.as_str() {
            Some("wait") => Ok(Some(RecoveryMode::Wait)),
            Some("shrink") => Ok(Some(RecoveryMode::Shrink)),
            Some("step_up") => Ok(Some(RecoveryMode::StepUp)),
            _ => Err("\"mode\" must be \"wait\", \"shrink\" or \"step_up\"".to_string()),
        },
    }
}

/// Parses one `drill` query line into the drill it describes. This is the
/// one drill schema: a `kind` other than `"drill"` is an error, `id` is
/// ignored, and every field is read, capped and range-checked exactly as
/// the service reads it (see `docs/SERVICE.md`). The `scenario` bin's
/// config is such a line.
pub fn parse_drill(line: &str) -> Result<DrillConfig, String> {
    match Query::parse(line)?.kind {
        QueryKind::Drill(cfg) => Ok(cfg),
        _ => Err("expected a drill query (no \"kind\", or \"kind\":\"drill\")".to_string()),
    }
}

/// The fields of a `drill` query; absent ones take the Fig. 14 defaults.
fn drill_from_json(v: &Json) -> Result<DrillConfig, String> {
    let model_name = match v.get("model") {
        None => "GPT-2 100B",
        Some(j) => j.as_str().ok_or("\"model\" must be a string")?,
    };
    let model = ModelConfig::by_name(model_name)
        .ok_or_else(|| format!("unknown model {model_name:?}; see Table 2"))?;
    let instance_name = match v.get("instance") {
        None => "p4d.24xlarge",
        Some(j) => j.as_str().ok_or("\"instance\" must be a string")?,
    };
    let instance = InstanceType::by_name(instance_name)
        .ok_or_else(|| format!("unknown instance {instance_name:?}; see Table 1"))?;
    let machines = usize_field(v, "machines", 16)?;
    let replicas = usize_field(v, "replicas", 2)?;
    check_fleet(machines, replicas)?;
    let standbys = usize_field(v, "standbys", 0)?;
    let workload = workload_field(v)?;
    let fail_during_iteration = u64_field(v, "fail_during_iteration", 4)?;
    if fail_during_iteration == 0 {
        return Err("\"fail_during_iteration\" is 1-based; 0 never strikes".to_string());
    }
    let seed = u64_field(v, "seed", 1)?;
    let mode = mode_field(v)?.unwrap_or(RecoveryMode::Wait);
    let mut failures = Vec::new();
    if let Some(list) = v.get("failures") {
        let list = list.as_array().ok_or("\"failures\" must be an array")?;
        let mut struck = vec![false; machines];
        for entry in list {
            let pair = entry
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("failure entries are [rank, kind] pairs")?;
            let rank = pair[0]
                .as_u64()
                .ok_or("failure rank must be a non-negative integer")?
                as usize;
            if rank >= machines {
                return Err(format!("failure rank {rank} out of range (N={machines})"));
            }
            if std::mem::replace(&mut struck[rank], true) {
                return Err(format!("duplicate failure rank {rank}"));
            }
            let kind = match pair[1].as_str() {
                Some("hardware") => FailureKind::Hardware,
                Some("software") => FailureKind::Software,
                _ => return Err("failure kind must be \"hardware\" or \"software\"".to_string()),
            };
            failures.push((rank, kind));
        }
    }
    if failures.is_empty() {
        failures.push((machines.saturating_sub(1) / 2, FailureKind::Hardware));
    }
    let mut scenario = Deployment::with_workload(model, instance, machines, workload);
    scenario.config.replicas = replicas;
    Ok(DrillConfig {
        scenario,
        failures,
        fail_during_iteration,
        operator: OperatorConfig {
            standbys,
            ..OperatorConfig::default()
        },
        seed,
        mode,
    })
}

impl RecoverabilityQuery {
    fn from_json(v: &Json) -> Result<RecoverabilityQuery, String> {
        let machines = usize_field(v, "machines", 16)?;
        let replicas = usize_field(v, "replicas", 2)?;
        check_fleet(machines, replicas)?;
        let max_k = usize_field(v, "max_k", 4)?;
        if max_k > MAX_QUERY_K {
            return Err(format!("\"max_k\" exceeds the query cap ({MAX_QUERY_K})"));
        }
        Ok(RecoverabilityQuery {
            machines,
            replicas,
            max_k,
        })
    }
}

impl ChaosQuery {
    fn from_json(v: &Json) -> Result<ChaosQuery, String> {
        let plan = plan_name_field(v)?;
        let seed = u64_field(v, "seed", 1)?;
        let policy = match v.get("policy") {
            None | Some(Json::Null) => None,
            Some(j) => {
                let name = j.as_str().ok_or("\"policy\" must be a string")?;
                if !policy_name_ok(name) {
                    return Err(format!("unknown policy {name:?}"));
                }
                Some(name.to_string())
            }
        };
        let mode = mode_field(v)?;
        if mode.is_some() && policy.is_some() {
            return Err(
                "\"mode\" and \"policy\" are mutually exclusive; \"mode\" is shorthand \
                 for the matching mode_* fixed policy"
                    .to_string(),
            );
        }
        let (machines, replicas) = override_fields(v)?;
        Ok(ChaosQuery {
            plan,
            seed,
            policy,
            mode,
            machines,
            replicas,
        })
    }
}

impl LookaheadQuery {
    fn from_json(v: &Json) -> Result<LookaheadQuery, String> {
        let plan = plan_name_field(v)?;
        let seed = u64_field(v, "seed", 1)?;
        let list = v
            .get("candidates")
            .and_then(|c| c.as_array())
            .ok_or("\"candidates\" must be an array of policy names")?;
        if list.is_empty() {
            return Err("\"candidates\" must not be empty".to_string());
        }
        if list.len() > MAX_LOOKAHEAD_CANDIDATES {
            return Err(format!(
                "\"candidates\" exceeds the query cap ({MAX_LOOKAHEAD_CANDIDATES})"
            ));
        }
        let mut candidates = Vec::with_capacity(list.len());
        for entry in list {
            let name = entry.as_str().ok_or("candidate names must be strings")?;
            if !policy_name_ok(name) {
                return Err(format!("unknown policy {name:?}"));
            }
            candidates.push(name.to_string());
        }
        let (machines, replicas) = override_fields(v)?;
        Ok(LookaheadQuery {
            plan,
            seed,
            candidates,
            machines,
            replicas,
        })
    }
}

fn override_fields(v: &Json) -> Result<(Option<usize>, Option<usize>), String> {
    let machines = opt_usize_field(v, "machines")?;
    let replicas = opt_usize_field(v, "replicas")?;
    if let Some(n) = machines {
        check_fleet(n, replicas.unwrap_or(1))?;
    } else if let Some(m) = replicas {
        if m == 0 {
            return Err("\"replicas\" must be at least 1".to_string());
        }
    }
    Ok((machines, replicas))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_drill_fields_take_the_documented_defaults() {
        let q = Query::parse(r#"{"id":"a"}"#).unwrap();
        let QueryKind::Drill(c) = &q.kind else {
            panic!("expected drill, got {:?}", q.kind);
        };
        let d = &c.scenario;
        assert_eq!(
            (d.model.name, d.instance.name),
            ("GPT-2 100B", "p4d.24xlarge")
        );
        assert_eq!(
            (d.machines, d.config.replicas, c.operator.standbys),
            (16, 2, 0)
        );
        assert_eq!(d.workload, WorkloadSpec::dense());
        assert_eq!(c.mode, RecoveryMode::Wait);
        assert_eq!(c.failures, vec![(7, FailureKind::Hardware)]);
        assert_eq!((c.fail_during_iteration, c.seed), (4, 1));
    }

    #[test]
    fn present_drill_fields_are_read() {
        let c = parse_drill(
            r#"{"model":"GPT-2 40B","instance":"p3dn.24xlarge","machines":32,"replicas":3,
                "standbys":1,"workload":"moe","mode":"shrink","failures":[[5,"hardware"],[3,"software"]],
                "fail_during_iteration":2,"seed":9}"#,
        )
        .unwrap();
        let d = &c.scenario;
        assert_eq!(
            (d.model.name, d.instance.name),
            ("GPT-2 40B", "p3dn.24xlarge")
        );
        assert_eq!(
            (d.machines, d.config.replicas, c.operator.standbys),
            (32, 3, 1)
        );
        assert_eq!(d.workload, WorkloadSpec::moe_default());
        assert_eq!(c.mode, RecoveryMode::Shrink);
        assert_eq!(
            c.failures,
            vec![(5, FailureKind::Hardware), (3, FailureKind::Software)]
        );
        assert_eq!((c.fail_during_iteration, c.seed), (2, 9));
        // `id` is ignored and an explicit drill kind is the default one.
        let tagged = parse_drill(r#"{"id":"x","kind":"drill","mode":"step_up"}"#).unwrap();
        assert_eq!(tagged.mode, RecoveryMode::StepUp);
    }

    #[test]
    fn wrong_drill_field_types_are_rejected_by_name() {
        for bad in [r#""32""#, "1.5", "-1", "null", "[16]"] {
            assert_eq!(
                parse_drill(&format!(r#"{{"machines":{bad}}}"#)).unwrap_err(),
                "\"machines\" must be a non-negative integer"
            );
        }
        for key in ["replicas", "standbys", "fail_during_iteration", "seed"] {
            assert_eq!(
                parse_drill(&format!(r#"{{"{key}":"1"}}"#)).unwrap_err(),
                format!("{key:?} must be a non-negative integer")
            );
        }
        for key in ["model", "instance", "workload", "mode"] {
            let err = parse_drill(&format!(r#"{{"{key}":1}}"#)).unwrap_err();
            assert!(err.starts_with(&format!("{key:?} must be ")), "{err}");
        }
        for (failures, err) in [
            (r#""5""#, "\"failures\" must be an array"),
            ("[5]", "failure entries are [rank, kind] pairs"),
            ("[[5]]", "failure entries are [rank, kind] pairs"),
            (
                r#"[["5","hardware"]]"#,
                "failure rank must be a non-negative integer",
            ),
            (
                "[[5,1]]",
                "failure kind must be \"hardware\" or \"software\"",
            ),
        ] {
            assert_eq!(
                parse_drill(&format!(r#"{{"failures":{failures}}}"#)).unwrap_err(),
                err,
                "{failures}"
            );
        }
    }

    #[test]
    fn duplicate_failure_ranks_are_rejected_at_parse_time() {
        for (failures, rank) in [
            (r#"[[5,"hardware"],[5,"hardware"]]"#, 5),
            (r#"[[3,"software"],[5,"hardware"],[3,"hardware"]]"#, 3),
        ] {
            assert_eq!(
                parse_drill(&format!(r#"{{"failures":{failures}}}"#)).unwrap_err(),
                format!("duplicate failure rank {rank}"),
                "{failures}"
            );
        }
        // Distinct ranks of either kind still parse.
        assert!(parse_drill(r#"{"failures":[[5,"hardware"],[3,"hardware"]]}"#).is_ok());
        // The service answers it as a parse error: nothing executes, so
        // neither the answer memo nor the single-flight layer sees it.
        let engine = crate::ServiceEngine::new(gemini_telemetry::TelemetrySink::disabled());
        let resp = engine.serve_line(
            r#"{"id":"dup","kind":"drill","failures":[[5,"hardware"],[5,"hardware"]]}"#,
        );
        assert!(
            resp.starts_with(r#"{"id":"dup","kind":"drill","ok":false"#)
                && resp.contains("duplicate failure rank 5"),
            "{resp}"
        );
        assert_eq!(engine.flight_counters(), (0, 0));
        assert_eq!(engine.answer_memo_len(), 0);
    }

    #[test]
    fn non_objects_and_unknown_names_are_rejected() {
        for text in ["[]", "16", r#""GPT-2 100B""#, "null"] {
            assert_eq!(
                parse_drill(text).unwrap_err(),
                "query must be a JSON object"
            );
        }
        assert_eq!(parse_drill("{").unwrap_err(), "expected '\"' at byte 1");
        assert!(parse_drill(r#"{"model":"GPT-5"}"#)
            .unwrap_err()
            .starts_with("unknown model \"GPT-5\""));
        assert!(parse_drill(r#"{"instance":"p9.huge"}"#)
            .unwrap_err()
            .starts_with("unknown instance \"p9.huge\""));
        assert_eq!(
            parse_drill(r#"{"workload":"sparse"}"#).unwrap_err(),
            "\"workload\" must be \"dense\" or \"moe\""
        );
        assert_eq!(
            parse_drill(r#"{"mode":"pause"}"#).unwrap_err(),
            "\"mode\" must be \"wait\", \"shrink\" or \"step_up\""
        );
        assert_eq!(
            parse_drill(r#"{"failures":[[1,"cosmic"]]}"#).unwrap_err(),
            "failure kind must be \"hardware\" or \"software\""
        );
        assert!(parse_drill(r#"{"kind":"chaos","plan":"root_churn"}"#)
            .unwrap_err()
            .starts_with("expected a drill query"));
    }

    #[test]
    fn canonical_is_id_independent() {
        let a = Query::parse(r#"{"id":"tenant-a","kind":"drill","seed":3}"#).unwrap();
        let b = Query::parse(r#"{"id":"tenant-b","seed":3,"kind":"drill"}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        let c = Query::parse(r#"{"id":"tenant-a","kind":"drill","seed":4}"#).unwrap();
        assert_ne!(a.canonical(), c.canonical());
    }

    /// Every answer-relevant field is in the key: a collision would hand
    /// one question's memoized answer to every later asker of another.
    #[test]
    fn canonical_changes_with_every_answer_relevant_field() {
        let cases: [(&str, &[&str]); 4] = [
            (
                r#""kind":"drill","failures":[[3,"hardware"]]"#,
                &[
                    r#""model":"GPT-2 40B""#,
                    r#""instance":"p3dn.24xlarge""#,
                    r#""machines":32"#,
                    r#""replicas":3"#,
                    r#""standbys":1"#,
                    r#""workload":"moe""#,
                    r#""mode":"shrink""#,
                    r#""failures":[[4,"hardware"]]"#,
                    r#""failures":[[3,"software"]]"#,
                    r#""failures":[[3,"hardware"],[4,"hardware"]]"#,
                    r#""fail_during_iteration":5"#,
                    r#""seed":2"#,
                ],
            ),
            (
                r#""kind":"recoverability""#,
                &[r#""machines":32"#, r#""replicas":3"#, r#""max_k":5"#],
            ),
            (
                r#""kind":"chaos","plan":"kill_mid_checkpoint""#,
                &[
                    r#""plan":"root_churn""#,
                    r#""seed":2"#,
                    r#""policy":"adaptive""#,
                    r#""mode":"shrink""#,
                    r#""machines":32"#,
                    r#""replicas":3"#,
                ],
            ),
            (
                r#""kind":"lookahead","plan":"kill_mid_checkpoint","candidates":["adaptive","paper_3h"]"#,
                &[
                    r#""plan":"root_churn""#,
                    r#""seed":2"#,
                    r#""candidates":["paper_3h","adaptive"]"#,
                    r#""machines":32"#,
                    r#""replicas":3"#,
                ],
            ),
        ];
        let mut keys = std::collections::BTreeSet::new();
        let mut asked = 0;
        for (base, changes) in cases {
            // A later duplicate key wins, so each change overrides the base.
            let lines = std::iter::once(format!("{{{base}}}"))
                .chain(changes.iter().map(|c| format!("{{{base},{c}}}")));
            for line in lines {
                let q = Query::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert!(
                    keys.insert(q.canonical()),
                    "{line} collides: {}",
                    q.canonical()
                );
                asked += 1;
            }
        }
        assert_eq!(keys.len(), asked);
    }

    #[test]
    fn validation_rejects_the_sharp_edges() {
        for bad in [
            r#"{"kind":"warp"}"#,
            r#"{"machines":0}"#,
            r#"{"machines":1000000}"#,
            r#"{"replicas":0}"#,
            r#"{"fail_during_iteration":0}"#,
            r#"{"failures":[[99,"hardware"]]}"#,
            r#"{"failures":[[1,"cosmic"]]}"#,
            r#"{"failures":[5]}"#,
            r#"{"kind":"recoverability","max_k":10000}"#,
            r#"{"kind":"chaos","plan":"nope"}"#,
            r#"{"kind":"chaos","plan":"root_churn","policy":"nope"}"#,
            r#"{"workload":"sparse"}"#,
            r#"{"workload":7}"#,
            r#"{"kind":"chaos","plan":"root_churn","mode":"regrow"}"#,
            r#"{"kind":"chaos","plan":"root_churn","mode":"shrink","policy":"adaptive"}"#,
            r#"{"kind":"lookahead","plan":"root_churn"}"#,
            r#"{"kind":"lookahead","plan":"root_churn","candidates":[]}"#,
            r#"{"kind":"lookahead","plan":"root_churn","candidates":["nope"]}"#,
            "not json",
            "[1,2]",
        ] {
            assert!(Query::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn chaos_and_lookahead_parse_fully() {
        let q = Query::parse(
            r#"{"id":"c","kind":"chaos","plan":"kill_mid_checkpoint","seed":7,"policy":"adaptive","machines":32}"#,
        )
        .unwrap();
        assert_eq!(q.kind_tag(), "chaos");
        assert!(q.canonical().contains("plan=kill_mid_checkpoint"));
        let q = Query::parse(
            r#"{"kind":"lookahead","plan":"root_churn","candidates":["adaptive","paper_3h"]}"#,
        )
        .unwrap();
        match &q.kind {
            QueryKind::Lookahead(l) => assert_eq!(l.candidates.len(), 2),
            other => panic!("expected lookahead, got {other:?}"),
        }
    }

    #[test]
    fn workload_parses_and_keys_the_canonical_form() {
        let dense = Query::parse(r#"{"id":"a","kind":"drill"}"#).unwrap();
        let moe = Query::parse(r#"{"id":"a","kind":"drill","workload":"moe"}"#).unwrap();
        match &moe.kind {
            QueryKind::Drill(d) => assert!(d.scenario.workload.is_moe()),
            other => panic!("expected drill, got {other:?}"),
        }
        assert!(dense.canonical().contains("workload=dense"));
        assert!(moe.canonical().contains("workload=moe"));
        assert_ne!(dense.canonical(), moe.canonical());
    }

    #[test]
    fn mode_parses_and_keys_the_canonical_form() {
        let q = Query::parse(
            r#"{"id":"m","kind":"chaos","plan":"kill_mid_checkpoint","mode":"shrink"}"#,
        )
        .unwrap();
        match &q.kind {
            QueryKind::Chaos(c) => assert_eq!(c.mode, Some(RecoveryMode::Shrink)),
            other => panic!("expected chaos, got {other:?}"),
        }
        assert!(q.canonical().contains("mode=shrink"));
        // Mode comparators are addressable as plain fixed policies too.
        for name in ["mode_wait", "mode_shrink", "mode_step_up"] {
            assert!(policy_name_ok(name), "{name} must be a known policy");
        }
    }
}
