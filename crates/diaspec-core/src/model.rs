//! The resolved semantic model of a checked specification.
//!
//! A [`CheckedSpec`] is produced by [`check`](crate::check::check) from a
//! parsed [`Spec`](crate::ast::Spec). It is the single source of truth for
//! code generation ([`diaspec-codegen`]) and orchestration
//! ([`diaspec-runtime`]): names are resolved, device inheritance is
//! flattened, every type reference is a [`Type`], and the
//! Sense-Compute-Control layering rules have been verified.
//!
//! [`diaspec-codegen`]: https://docs.rs/diaspec-codegen
//! [`diaspec-runtime`]: https://docs.rs/diaspec-runtime

use crate::span::Span;
use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A resolved non-functional annotation (`@error`, `@qos`, ...).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedAnnotation {
    /// Annotation name.
    pub name: String,
    /// Key/value arguments.
    pub args: BTreeMap<String, AnnotationArg>,
}

/// The value of a resolved annotation argument.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnnotationArg {
    /// String argument.
    Str(String),
    /// Integer argument.
    Int(u64),
    /// Symbolic (bare identifier) argument.
    Symbol(String),
}

impl AnnotationArg {
    /// The string payload, if this is a string argument.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AnnotationArg::Str(s) | AnnotationArg::Symbol(s) => Some(s),
            AnnotationArg::Int(_) => None,
        }
    }

    /// The integer payload, if this is an integer argument.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            AnnotationArg::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl ResolvedAnnotation {
    /// Looks up an argument by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<&AnnotationArg> {
        self.args.get(key)
    }
}

/// The first annotation called `name`, if declared.
fn annotation<'a>(
    annotations: &'a [ResolvedAnnotation],
    name: &str,
) -> Option<&'a ResolvedAnnotation> {
    annotations.iter().find(|a| a.name == name)
}

/// The integer argument `key` of the first `@qos` annotation.
fn qos_int(annotations: &[ResolvedAnnotation], key: &str) -> Option<u64> {
    annotation(annotations, "qos")?.arg(key)?.as_int()
}

/// How the runtime reacts when a device driver fails.
///
/// Read from the `@error(policy = "...", attempts = N, fallback = "a")`
/// annotation of the paper's §III non-functional extension by
/// [`Device::error_policy`]. The default policy is
/// [`PolicyKind::Escalate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorPolicy {
    /// Reaction kind.
    pub kind: PolicyKind,
    /// Total attempts for `retry` (including the first call). At least 1.
    pub attempts: u32,
    /// Declared fallback action: when an actuation fails beyond what the
    /// policy can mask, this parameterless action is invoked instead — on
    /// the failed entity first, then on its device family (a safe-state
    /// actuation, e.g. `neutral` on a redundant elevator).
    pub fallback: Option<String>,
}

/// The reaction kinds of an `@error` policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Re-issue the operation on the same entity up to `attempts` times.
    Retry,
    /// Try another bound entity of the same device type with identical
    /// attributes.
    Failover,
    /// Swallow the failure; queries yield no reading, actuations no-op.
    Ignore,
    /// Propagate the failure to the caller (default).
    Escalate,
}

impl Default for ErrorPolicy {
    fn default() -> Self {
        ErrorPolicy {
            kind: PolicyKind::Escalate,
            attempts: 1,
            fallback: None,
        }
    }
}

/// A context's declared batch-quality expectations
/// (`@quality(coverage = N, deadlineMs = M)`), read by
/// [`Context::quality`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityBudget {
    /// Minimum acceptable input coverage, in whole percent (1–100).
    pub coverage_pct: u32,
    /// Wall-clock processing deadline for one batch, when declared.
    pub deadline_ms: Option<u64>,
}

impl Default for QualityBudget {
    fn default() -> Self {
        QualityBudget {
            coverage_pct: 100,
            deadline_ms: None,
        }
    }
}

/// A device attribute, possibly inherited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub ty: Type,
    /// Name of the device that declared this attribute (may be an ancestor).
    pub declared_in: String,
}

/// A device source, possibly inherited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Source {
    /// Source name.
    pub name: String,
    /// Type of produced values.
    pub ty: Type,
    /// Optional `indexed by` clause: (index name, index type).
    pub index: Option<(String, Type)>,
    /// Name of the device that declared this source.
    pub declared_in: String,
}

/// A device action, possibly inherited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Action {
    /// Action name.
    pub name: String,
    /// Ordered parameters: (name, type).
    pub params: Vec<(String, Type)>,
    /// Name of the device that declared this action.
    pub declared_in: String,
}

/// A resolved device: its own members plus everything inherited.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    /// Device name.
    pub name: String,
    /// Direct parent, if any.
    pub parent: Option<String>,
    /// All attributes, ancestors' first.
    pub attributes: Vec<Attribute>,
    /// All sources, ancestors' first.
    pub sources: Vec<Source>,
    /// All actions, ancestors' first.
    pub actions: Vec<Action>,
    /// Non-functional annotations (own only).
    pub annotations: Vec<ResolvedAnnotation>,
    /// Span of the declaring name in the source (DUMMY when synthesized).
    #[serde(default)]
    pub span: Span,
}

impl Device {
    /// Looks up an attribute (own or inherited) by name.
    #[must_use]
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Looks up a source (own or inherited) by name.
    #[must_use]
    pub fn source(&self, name: &str) -> Option<&Source> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// Looks up an action (own or inherited) by name.
    #[must_use]
    pub fn action(&self, name: &str) -> Option<&Action> {
        self.actions.iter().find(|a| a.name == name)
    }

    /// The declared `@error` policy, or the default when there is none.
    /// `attempts` defaults to 3 and is clamped to 1..=100.
    #[must_use]
    pub fn error_policy(&self) -> ErrorPolicy {
        let Some(ann) = annotation(&self.annotations, "error") else {
            return ErrorPolicy::default();
        };
        let kind = match ann.arg("policy").and_then(AnnotationArg::as_str) {
            Some("retry") => PolicyKind::Retry,
            Some("failover") => PolicyKind::Failover,
            Some("ignore") => PolicyKind::Ignore,
            _ => PolicyKind::Escalate,
        };
        let attempts = ann
            .arg("attempts")
            .and_then(AnnotationArg::as_int)
            .map_or(3, |n| n.clamp(1, 100) as u32);
        let fallback = ann
            .arg("fallback")
            .and_then(AnnotationArg::as_str)
            .map(str::to_owned);
        ErrorPolicy {
            kind,
            attempts,
            fallback,
        }
    }

    /// The `@qos(periodMs = …)` hint, when declared: the design promise
    /// of how often each deployed instance publishes.
    #[must_use]
    pub fn qos_period_ms(&self) -> Option<u64> {
        qos_int(&self.annotations, "periodMs")
    }

    /// The `@qos(capacityPerHour = …)` budget, when declared: how many
    /// messages an hour the device family is provisioned for.
    #[must_use]
    pub fn qos_capacity_per_hour(&self) -> Option<u64> {
        qos_int(&self.annotations, "capacityPerHour")
    }
}

/// What activates a context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationTrigger {
    /// Event-driven: fires on each publication of a device source.
    DeviceSource {
        /// Device declaring the source.
        device: String,
        /// Source name.
        source: String,
    },
    /// Event-driven: fires on each publication of another context.
    Context(String),
    /// Periodic batched delivery of a device source.
    Periodic {
        /// Device declaring the source.
        device: String,
        /// Source name.
        source: String,
        /// Delivery period in milliseconds.
        period_ms: u64,
    },
    /// `when required`: the context computes on demand when queried.
    OnDemand,
}

impl fmt::Display for ActivationTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivationTrigger::DeviceSource { device, source } => {
                write!(f, "when provided {source} from {device}")
            }
            ActivationTrigger::Context(name) => write!(f, "when provided {name}"),
            ActivationTrigger::Periodic {
                device,
                source,
                period_ms,
            } => write!(f, "when periodic {source} from {device} <{period_ms} ms>"),
            ActivationTrigger::OnDemand => f.write_str("when required"),
        }
    }
}

/// A query-driven (`get`) input of an activation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputRef {
    /// Query a device source.
    DeviceSource {
        /// Device declaring the source.
        device: String,
        /// Source name.
        source: String,
    },
    /// Query another context (which must declare `when required`).
    Context(String),
}

impl fmt::Display for InputRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputRef::DeviceSource { device, source } => write!(f, "{source} from {device}"),
            InputRef::Context(name) => f.write_str(name),
        }
    }
}

/// Resolved `grouped by` information of an activation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupingModel {
    /// The device attribute partitioning the readings.
    pub attribute: String,
    /// Type of the grouping attribute.
    pub attribute_ty: Type,
    /// Optional aggregation window in milliseconds (`every <24 hr>`).
    pub window_ms: Option<u64>,
    /// Span of the `every <...>` window literal, when declared.
    #[serde(default)]
    pub window_span: Option<Span>,
    /// Optional MapReduce typing: (map output type, reduce output type).
    pub map_reduce: Option<(Type, Type)>,
}

/// Publication mode of an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PublishMode {
    /// Every activation publishes a value.
    Always,
    /// An activation may decline to publish.
    Maybe,
    /// Never publishes; value only reachable via `get`.
    No,
}

impl fmt::Display for PublishMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishMode::Always => f.write_str("always publish"),
            PublishMode::Maybe => f.write_str("maybe publish"),
            PublishMode::No => f.write_str("no publish"),
        }
    }
}

/// One resolved activation contract of a context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Activation {
    /// What triggers the activation.
    pub trigger: ActivationTrigger,
    /// Query-driven inputs read during the activation.
    pub gets: Vec<InputRef>,
    /// Optional grouping (only on device-source triggers).
    pub grouping: Option<GroupingModel>,
    /// Publication mode.
    pub publish: PublishMode,
    /// Span of the whole `when ...;` interaction in the source.
    #[serde(default)]
    pub span: Span,
}

/// A resolved context component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Context {
    /// Context name.
    pub name: String,
    /// Declared output type.
    pub output: Type,
    /// Activation contracts in source order.
    pub activations: Vec<Activation>,
    /// Non-functional annotations.
    pub annotations: Vec<ResolvedAnnotation>,
    /// Span of the declaring name in the source (DUMMY when synthesized).
    #[serde(default)]
    pub span: Span,
}

impl Context {
    /// Whether the context declares `when required` (pull access).
    #[must_use]
    pub fn is_required(&self) -> bool {
        self.activations
            .iter()
            .any(|a| a.trigger == ActivationTrigger::OnDemand)
    }

    /// Whether any activation publishes (`always` or `maybe`).
    #[must_use]
    pub fn publishes(&self) -> bool {
        self.activations
            .iter()
            .any(|a| matches!(a.publish, PublishMode::Always | PublishMode::Maybe))
    }

    /// Whether any activation declares a MapReduce processing phase.
    #[must_use]
    pub fn uses_map_reduce(&self) -> bool {
        self.activations
            .iter()
            .any(|a| a.grouping.as_ref().is_some_and(|g| g.map_reduce.is_some()))
    }

    /// The `@qos(latencyMs = …)` delivery budget, when declared.
    #[must_use]
    pub fn qos_latency_ms(&self) -> Option<u64> {
        qos_int(&self.annotations, "latencyMs")
    }

    /// The declared `@quality` budget, when there is one. `coverage`
    /// defaults to 100 and is capped there.
    #[must_use]
    pub fn quality(&self) -> Option<QualityBudget> {
        let ann = annotation(&self.annotations, "quality")?;
        let coverage_pct = ann
            .arg("coverage")
            .and_then(AnnotationArg::as_int)
            .map_or(100, |pct| u32::try_from(pct.min(100)).unwrap_or(100));
        let deadline_ms = ann.arg("deadlineMs").and_then(AnnotationArg::as_int);
        Some(QualityBudget {
            coverage_pct,
            deadline_ms,
        })
    }
}

/// One `when provided Ctx do ...` binding of a controller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerBinding {
    /// The triggering context.
    pub context: String,
    /// Actions performed when triggered: (action name, device name).
    pub actions: Vec<(String, String)>,
    /// Span of the triggering-context name in the source.
    #[serde(default)]
    pub context_span: Span,
    /// Spans of each `do ... on ...` clause, parallel to [`actions`].
    ///
    /// May be empty for synthesized bindings; use [`action_span`] for a
    /// lookup that falls back to [`context_span`].
    ///
    /// [`actions`]: ControllerBinding::actions
    /// [`action_span`]: ControllerBinding::action_span
    /// [`context_span`]: ControllerBinding::context_span
    #[serde(default)]
    pub action_spans: Vec<Span>,
}

impl ControllerBinding {
    /// The span of the `index`-th `do` clause, falling back to the
    /// binding's context span for synthesized bindings.
    #[must_use]
    pub fn action_span(&self, index: usize) -> Span {
        self.action_spans
            .get(index)
            .copied()
            .unwrap_or(self.context_span)
    }
}

/// A resolved controller component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Controller {
    /// Controller name.
    pub name: String,
    /// Bindings in source order.
    pub bindings: Vec<ControllerBinding>,
    /// Non-functional annotations.
    pub annotations: Vec<ResolvedAnnotation>,
    /// Span of the declaring name in the source (DUMMY when synthesized).
    #[serde(default)]
    pub span: Span,
}

/// A resolved structure (record) type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Structure {
    /// Structure name.
    pub name: String,
    /// Ordered fields: (name, type).
    pub fields: Vec<(String, Type)>,
}

impl Structure {
    /// Looks up a field type by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Type> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// A resolved enumeration type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Enumeration {
    /// Enumeration name.
    pub name: String,
    /// Variants in source order.
    pub variants: Vec<String>,
}

impl Enumeration {
    /// Whether `variant` is declared by this enumeration.
    #[must_use]
    pub fn has_variant(&self, variant: &str) -> bool {
        self.variants.iter().any(|v| v == variant)
    }
}

/// Who consumes a publication: a context or a controller.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Subscriber {
    /// A context component.
    Context(String),
    /// A controller component.
    Controller(String),
}

impl Subscriber {
    /// The component name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Subscriber::Context(n) | Subscriber::Controller(n) => n,
        }
    }
}

impl fmt::Display for Subscriber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subscriber::Context(n) => write!(f, "context {n}"),
            Subscriber::Controller(n) => write!(f, "controller {n}"),
        }
    }
}

/// A fully checked and resolved specification.
///
/// Construction goes through [`check`](crate::check::check) (or the
/// [`compile_str`](crate::compile_str) convenience), which guarantees all
/// invariants documented on the accessors. Component maps are ordered
/// (`BTreeMap`) so iteration — and therefore code generation — is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckedSpec {
    pub(crate) devices: BTreeMap<String, Device>,
    pub(crate) contexts: BTreeMap<String, Context>,
    pub(crate) controllers: BTreeMap<String, Controller>,
    pub(crate) structures: BTreeMap<String, Structure>,
    pub(crate) enums: BTreeMap<String, Enumeration>,
}

impl CheckedSpec {
    /// Looks up a device by name.
    #[must_use]
    pub fn device(&self, name: &str) -> Option<&Device> {
        self.devices.get(name)
    }

    /// Looks up a context by name.
    #[must_use]
    pub fn context(&self, name: &str) -> Option<&Context> {
        self.contexts.get(name)
    }

    /// Looks up a controller by name.
    #[must_use]
    pub fn controller(&self, name: &str) -> Option<&Controller> {
        self.controllers.get(name)
    }

    /// Looks up a structure by name.
    #[must_use]
    pub fn structure(&self, name: &str) -> Option<&Structure> {
        self.structures.get(name)
    }

    /// Looks up an enumeration by name.
    #[must_use]
    pub fn enumeration(&self, name: &str) -> Option<&Enumeration> {
        self.enums.get(name)
    }

    /// Iterates over devices in name order.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }

    /// Iterates over contexts in name order.
    pub fn contexts(&self) -> impl Iterator<Item = &Context> {
        self.contexts.values()
    }

    /// Iterates over controllers in name order.
    pub fn controllers(&self) -> impl Iterator<Item = &Controller> {
        self.controllers.values()
    }

    /// Iterates over structures in name order.
    pub fn structures(&self) -> impl Iterator<Item = &Structure> {
        self.structures.values()
    }

    /// Iterates over enumerations in name order.
    pub fn enumerations(&self) -> impl Iterator<Item = &Enumeration> {
        self.enums.values()
    }

    /// Whether `descendant` equals `ancestor` or transitively extends it.
    #[must_use]
    pub fn device_is_subtype(&self, descendant: &str, ancestor: &str) -> bool {
        let mut current = Some(descendant);
        while let Some(name) = current {
            if name == ancestor {
                return true;
            }
            current = self.devices.get(name).and_then(|d| d.parent.as_deref());
        }
        false
    }

    /// All devices that are `ancestor` or extend it, in name order.
    #[must_use]
    pub fn device_family(&self, ancestor: &str) -> Vec<&Device> {
        self.devices
            .values()
            .filter(|d| self.device_is_subtype(&d.name, ancestor))
            .collect()
    }

    /// The components subscribed (event-driven) to publications of the
    /// context `name`, in deterministic order: contexts first, then
    /// controllers, each in name order.
    #[must_use]
    pub fn subscribers_of_context(&self, name: &str) -> Vec<Subscriber> {
        let mut out = Vec::new();
        for ctx in self.contexts.values() {
            let hit = ctx
                .activations
                .iter()
                .any(|a| matches!(&a.trigger, ActivationTrigger::Context(c) if c == name));
            if hit {
                out.push(Subscriber::Context(ctx.name.clone()));
            }
        }
        for ctrl in self.controllers.values() {
            if ctrl.bindings.iter().any(|b| b.context == name) {
                out.push(Subscriber::Controller(ctrl.name.clone()));
            }
        }
        out
    }

    /// The contexts subscribed (event-driven or periodic) to the source
    /// `source` of device `device` — including subscriptions declared
    /// against an ancestor of `device`.
    #[must_use]
    pub fn subscribers_of_source(&self, device: &str, source: &str) -> Vec<&Context> {
        self.contexts
            .values()
            .filter(|ctx| {
                ctx.activations.iter().any(|a| match &a.trigger {
                    ActivationTrigger::DeviceSource {
                        device: d,
                        source: s,
                    }
                    | ActivationTrigger::Periodic {
                        device: d,
                        source: s,
                        ..
                    } => s == source && self.device_is_subtype(device, d),
                    _ => false,
                })
            })
            .collect()
    }

    /// Total number of declared components (devices + contexts +
    /// controllers + structures + enumerations).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.devices.len()
            + self.contexts.len()
            + self.controllers.len()
            + self.structures.len()
            + self.enums.len()
    }

    /// Contexts in dependency order: if context `B` subscribes to context
    /// `A`, then `A` precedes `B`. Ties are broken by name.
    ///
    /// The checker rejects subscription cycles, so this is always a valid
    /// topological order.
    #[must_use]
    pub fn context_topo_order(&self) -> Vec<&Context> {
        let mut order: Vec<&Context> = Vec::with_capacity(self.contexts.len());
        let mut placed: std::collections::BTreeSet<&str> = Default::default();
        // Kahn's algorithm over the context-to-context subscription edges.
        // BTreeMap iteration gives deterministic tie-breaking.
        let deps: BTreeMap<&str, Vec<&str>> = self
            .contexts
            .values()
            .map(|ctx| {
                let mut ds: Vec<&str> = ctx
                    .activations
                    .iter()
                    .filter_map(|a| match &a.trigger {
                        ActivationTrigger::Context(c) => Some(c.as_str()),
                        _ => None,
                    })
                    .chain(ctx.activations.iter().flat_map(|a| {
                        a.gets.iter().filter_map(|g| match g {
                            InputRef::Context(c) => Some(c.as_str()),
                            _ => None,
                        })
                    }))
                    .collect();
                ds.sort_unstable();
                ds.dedup();
                (ctx.name.as_str(), ds)
            })
            .collect();
        while order.len() < self.contexts.len() {
            let before = order.len();
            for ctx in self.contexts.values() {
                if placed.contains(ctx.name.as_str()) {
                    continue;
                }
                let ready = deps[ctx.name.as_str()]
                    .iter()
                    .all(|d| placed.contains(d) || !self.contexts.contains_key(*d));
                if ready {
                    placed.insert(&ctx.name);
                    order.push(ctx);
                }
            }
            assert!(
                order.len() > before,
                "context subscription cycle survived checking"
            );
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    const PARKING: &str = r#"
        device PresenceSensor {
          attribute parkingLot as ParkingLotEnum;
          source presence as Boolean;
        }
        device DisplayPanel { action update(status as String); }
        device ParkingEntrancePanel extends DisplayPanel {
          attribute location as ParkingLotEnum;
        }
        context ParkingAvailability as Availability[] {
          when periodic presence from PresenceSensor <10 min>
            grouped by parkingLot
            with map as Boolean reduce as Integer
            always publish;
        }
        context ParkingUsagePattern as Availability[] {
          when periodic presence from PresenceSensor <1 hr>
            grouped by parkingLot
            no publish;
          when required;
        }
        context ParkingSuggestion as ParkingLotEnum[] {
          when provided ParkingAvailability
            get ParkingUsagePattern
            always publish;
        }
        controller ParkingEntrancePanelController {
          when provided ParkingAvailability
            do update on ParkingEntrancePanel;
        }
        structure Availability {
          parkingLot as ParkingLotEnum;
          count as Integer;
        }
        enumeration ParkingLotEnum { A22, B16, D6 }
    "#;

    fn parking() -> CheckedSpec {
        compile_str(PARKING).expect("parking spec must check")
    }

    #[test]
    fn inherited_members_are_flattened() {
        let spec = parking();
        let panel = spec.device("ParkingEntrancePanel").unwrap();
        assert!(panel.action("update").is_some(), "inherits update");
        assert_eq!(panel.action("update").unwrap().declared_in, "DisplayPanel");
        assert!(panel.attribute("location").is_some());
        assert_eq!(panel.parent.as_deref(), Some("DisplayPanel"));
    }

    #[test]
    fn subtype_queries() {
        let spec = parking();
        assert!(spec.device_is_subtype("ParkingEntrancePanel", "DisplayPanel"));
        assert!(spec.device_is_subtype("DisplayPanel", "DisplayPanel"));
        assert!(!spec.device_is_subtype("DisplayPanel", "ParkingEntrancePanel"));
        assert!(!spec.device_is_subtype("PresenceSensor", "DisplayPanel"));
        let family = spec.device_family("DisplayPanel");
        assert_eq!(family.len(), 2);
    }

    #[test]
    fn subscriber_queries() {
        let spec = parking();
        let subs = spec.subscribers_of_context("ParkingAvailability");
        assert_eq!(
            subs,
            vec![
                Subscriber::Context("ParkingSuggestion".into()),
                Subscriber::Controller("ParkingEntrancePanelController".into()),
            ]
        );
        let source_subs = spec.subscribers_of_source("PresenceSensor", "presence");
        assert_eq!(source_subs.len(), 2);
    }

    #[test]
    fn context_flags() {
        let spec = parking();
        let avail = spec.context("ParkingAvailability").unwrap();
        assert!(avail.publishes());
        assert!(!avail.is_required());
        assert!(avail.uses_map_reduce());
        let usage = spec.context("ParkingUsagePattern").unwrap();
        assert!(!usage.publishes());
        assert!(usage.is_required());
        assert!(!usage.uses_map_reduce());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let spec = parking();
        let order: Vec<&str> = spec
            .context_topo_order()
            .into_iter()
            .map(|c| c.name.as_str())
            .collect();
        let avail = order
            .iter()
            .position(|n| *n == "ParkingAvailability")
            .unwrap();
        let usage = order
            .iter()
            .position(|n| *n == "ParkingUsagePattern")
            .unwrap();
        let suggestion = order
            .iter()
            .position(|n| *n == "ParkingSuggestion")
            .unwrap();
        assert!(avail < suggestion);
        assert!(usage < suggestion);
    }

    #[test]
    fn component_count_counts_everything() {
        let spec = parking();
        assert_eq!(spec.component_count(), 3 + 3 + 1 + 1 + 1);
    }

    #[test]
    fn model_serializes_to_json() {
        let spec = parking();
        let json = serde_json::to_string(&spec).unwrap();
        let back: CheckedSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn structure_and_enum_lookups() {
        let spec = parking();
        let avail = spec.structure("Availability").unwrap();
        assert_eq!(avail.field("count"), Some(&Type::Integer));
        assert_eq!(avail.field("missing"), None);
        let lots = spec.enumeration("ParkingLotEnum").unwrap();
        assert!(lots.has_variant("A22"));
        assert!(!lots.has_variant("Z99"));
    }

    #[test]
    fn annotation_accessors_read_declared_values_and_defaults() {
        let spec = compile_str(
            r#"
            @error(policy = "retry")
            @qos(periodMs = 500, capacityPerHour = 7200)
            device Probe { source v as Integer; }
            device Plain { source v as Integer; action absorb; }
            @qos(latencyMs = 100)
            @quality(deadlineMs = 40)
            context Fast as Integer { when provided v from Probe always publish; }
            context Loose as Integer { when provided v from Plain always publish; }
            "#,
        )
        .unwrap();
        let probe = spec.device("Probe").unwrap();
        assert_eq!(
            probe.error_policy(),
            ErrorPolicy {
                kind: PolicyKind::Retry,
                attempts: 3,
                fallback: None
            }
        );
        assert_eq!(probe.qos_period_ms(), Some(500));
        assert_eq!(probe.qos_capacity_per_hour(), Some(7200));
        let plain = spec.device("Plain").unwrap();
        assert_eq!(plain.error_policy(), ErrorPolicy::default());
        assert_eq!(plain.qos_period_ms(), None);
        assert_eq!(plain.qos_capacity_per_hour(), None);

        let fast = spec.context("Fast").unwrap();
        assert_eq!(fast.qos_latency_ms(), Some(100));
        assert_eq!(
            fast.quality(),
            Some(QualityBudget {
                coverage_pct: 100,
                deadline_ms: Some(40)
            })
        );
        let loose = spec.context("Loose").unwrap();
        assert_eq!(loose.qos_latency_ms(), None);
        assert_eq!(loose.quality(), None);
    }
}
