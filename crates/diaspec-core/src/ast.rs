//! Abstract syntax tree for the DiaSpec design language.
//!
//! The AST is a faithful, span-carrying representation of the source text.
//! It is produced by the [`parser`](crate::parser) and consumed by the
//! [`checker`](crate::check), which resolves it into the semantic
//! [`model`](crate::model) used by code generation and the runtime.

use crate::span::Span;
use std::fmt;

/// An identifier with its source location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// The identifier text.
    pub name: String,
    /// Where it appears in the source.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier.
    #[must_use]
    pub fn new(name: impl Into<String>, span: Span) -> Self {
        Ident {
            name: name.into(),
            span,
        }
    }

    /// Creates an identifier with a dummy span (for synthesized nodes).
    #[must_use]
    pub fn synthetic(name: impl Into<String>) -> Self {
        Ident::new(name, Span::DUMMY)
    }

    /// The identifier text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.name
    }
}

/// A syntactic reference to a type, e.g. `Integer`, `Availability[]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// A named type: one of the built-ins (`Integer`, `Float`, `Boolean`,
    /// `String`) or a user-declared structure/enumeration.
    Named(Ident),
    /// An array of the element type, written `T[]`.
    Array(Box<TypeRef>, Span),
}

impl TypeRef {
    /// The overall source span of the type reference.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            TypeRef::Named(id) => id.span,
            TypeRef::Array(elem, bracket) => elem.span().to(*bracket),
        }
    }

    /// The innermost named type (unwrapping arrays).
    #[must_use]
    pub fn base_name(&self) -> &str {
        match self {
            TypeRef::Named(id) => &id.name,
            TypeRef::Array(elem, _) => elem.base_name(),
        }
    }
}

impl fmt::Display for TypeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeRef::Named(id) => write!(f, "{id}"),
            TypeRef::Array(elem, _) => write!(f, "{elem}[]"),
        }
    }
}

/// Units accepted inside period brackets, e.g. `<10 min>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimeUnit {
    /// Milliseconds (`ms`).
    Millis,
    /// Seconds (`sec` or `s`).
    Seconds,
    /// Minutes (`min`).
    Minutes,
    /// Hours (`hr` or `h`).
    Hours,
    /// Days (`day` or `d`).
    Days,
}

impl TimeUnit {
    /// Parses a unit from its source spelling.
    #[must_use]
    // Not `FromStr`: lookup is infallible-by-`Option`, with no error payload.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<TimeUnit> {
        Some(match s {
            "ms" => TimeUnit::Millis,
            "s" | "sec" => TimeUnit::Seconds,
            "min" => TimeUnit::Minutes,
            "h" | "hr" => TimeUnit::Hours,
            "d" | "day" => TimeUnit::Days,
            _ => return None,
        })
    }

    /// Canonical spelling used by the pretty-printer.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TimeUnit::Millis => "ms",
            TimeUnit::Seconds => "sec",
            TimeUnit::Minutes => "min",
            TimeUnit::Hours => "hr",
            TimeUnit::Days => "day",
        }
    }

    /// Milliseconds per unit.
    fn millis(self) -> u64 {
        match self {
            TimeUnit::Millis => 1,
            TimeUnit::Seconds => 1_000,
            TimeUnit::Minutes => 60_000,
            TimeUnit::Hours => 60 * 60_000,
            TimeUnit::Days => 86_400_000,
        }
    }
}

impl fmt::Display for TimeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A duration literal such as `<10 min>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Duration {
    /// Magnitude in `unit`s.
    pub value: u64,
    /// The unit of `value`.
    pub unit: TimeUnit,
    /// Source span of the bracketed literal.
    pub span: Span,
}

impl Duration {
    /// Creates a duration literal.
    #[must_use]
    pub fn new(value: u64, unit: TimeUnit, span: Span) -> Self {
        Duration { value, unit, span }
    }

    /// Total duration in milliseconds (saturating on overflow).
    #[must_use]
    pub fn as_millis(&self) -> u64 {
        self.value.saturating_mul(self.unit.millis())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} {}>", self.value, self.unit)
    }
}

/// The value of an annotation argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AnnotationValue {
    /// A string literal value.
    Str(String),
    /// An integer literal value.
    Int(u64),
    /// A bare identifier value (e.g. an enum-like symbol).
    Ident(String),
}

impl fmt::Display for AnnotationValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnotationValue::Str(s) => write!(f, "{s:?}"),
            AnnotationValue::Int(v) => write!(f, "{v}"),
            AnnotationValue::Ident(s) => write!(f, "{s}"),
        }
    }
}

/// A non-functional annotation attached to a declaration, e.g.
/// `@error(policy = "retry", attempts = 3)` or `@qos(latency = 50)`.
///
/// Annotations carry the paper's §III extension for expressing potential
/// errors and quality-of-service constraints at the design level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Annotation name (`error`, `qos`, ...). Open-ended by design.
    pub name: Ident,
    /// Key/value arguments in source order.
    pub args: Vec<(Ident, AnnotationValue)>,
    /// Full source span including the `@`.
    pub span: Span,
}

impl Annotation {
    /// Looks up an argument by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<&AnnotationValue> {
        self.args
            .iter()
            .find(|(k, _)| k.name == key)
            .map(|(_, v)| v)
    }
}

/// `attribute name as Type;` inside a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDecl {
    /// Attribute name.
    pub name: Ident,
    /// Attribute type.
    pub ty: TypeRef,
    /// Declaration span.
    pub span: Span,
}

/// `source name as Type [indexed by idx as Type];` inside a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDecl {
    /// Source name.
    pub name: Ident,
    /// Type of values this source produces.
    pub ty: TypeRef,
    /// Optional `indexed by` clause: (index name, index type).
    pub index: Option<(Ident, TypeRef)>,
    /// Declaration span.
    pub span: Span,
}

/// A parameter of an action: `name as Type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Ident,
    /// Parameter type.
    pub ty: TypeRef,
}

/// `action Name[(params)];` inside a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDecl {
    /// Action name.
    pub name: Ident,
    /// Parameters, possibly empty.
    pub params: Vec<Param>,
    /// Declaration span.
    pub span: Span,
}

/// A `device` declaration (paper §III, Figures 5 and 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDecl {
    /// Device name.
    pub name: Ident,
    /// Optional parent device (`extends`).
    pub extends: Option<Ident>,
    /// Non-functional annotations.
    pub annotations: Vec<Annotation>,
    /// Declared attributes (not including inherited ones).
    pub attributes: Vec<AttributeDecl>,
    /// Declared sources.
    pub sources: Vec<SourceDecl>,
    /// Declared actions.
    pub actions: Vec<ActionDecl>,
    /// Full declaration span.
    pub span: Span,
}

/// What a context interaction consumes: a device source or another context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataRef {
    /// `source from Device` — a device source.
    DeviceSource {
        /// Source name on the device.
        source: Ident,
        /// Device name.
        device: Ident,
    },
    /// A bare context name.
    Context(Ident),
}

impl DataRef {
    /// The overall span of the reference.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            DataRef::DeviceSource { source, device } => source.span.to(device.span),
            DataRef::Context(id) => id.span,
        }
    }
}

impl fmt::Display for DataRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataRef::DeviceSource { source, device } => write!(f, "{source} from {device}"),
            DataRef::Context(id) => write!(f, "{id}"),
        }
    }
}

/// The optional `with map as X reduce as Y` clause of `grouped by`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapReduceSig {
    /// Type of intermediate values emitted by the Map phase.
    pub map_ty: TypeRef,
    /// Type of values produced by the Reduce phase.
    pub reduce_ty: TypeRef,
    /// Span of the `with ...` clause.
    pub span: Span,
}

/// A `grouped by attr [every <T>] [with map ... reduce ...]` clause
/// (paper §IV.2, Figure 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    /// The device attribute to group sensor readings by.
    pub attribute: Ident,
    /// Optional aggregation window (`every <24 hr>`).
    pub window: Option<Duration>,
    /// Optional MapReduce typing, enabling parallel processing.
    pub map_reduce: Option<MapReduceSig>,
    /// Span of the whole clause.
    pub span: Span,
}

/// Publication mode of a context interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Publish {
    /// `always publish` — every activation produces a value.
    Always,
    /// `maybe publish` — an activation may decline to produce a value.
    Maybe,
    /// `no publish` — the context never pushes; it is only `get`-queried.
    No,
}

impl fmt::Display for Publish {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Publish::Always => f.write_str("always publish"),
            Publish::Maybe => f.write_str("maybe publish"),
            Publish::No => f.write_str("no publish"),
        }
    }
}

/// One `when ...` interaction contract of a context (paper §IV, Figures 7
/// and 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interaction {
    /// `when provided X [get Y]* [grouped by ...] <publish>;` — event-driven
    /// activation on every published value of `X`.
    Provided {
        /// What triggers the activation.
        trigger: DataRef,
        /// Query-driven (`get`) inputs read during activation.
        gets: Vec<DataRef>,
        /// Optional grouping of the trigger data.
        grouping: Option<Grouping>,
        /// Publication mode of the produced value.
        publish: Publish,
        /// Span of the whole interaction.
        span: Span,
    },
    /// `when periodic src from Dev <T> [grouped by ...] [get ...]*
    /// <publish>;` — periodic batched delivery.
    Periodic {
        /// The device source polled periodically.
        source: Ident,
        /// The device declaring the source.
        device: Ident,
        /// Delivery period.
        period: Duration,
        /// Query-driven inputs read during activation.
        gets: Vec<DataRef>,
        /// Optional grouping of the gathered batch.
        grouping: Option<Grouping>,
        /// Publication mode of the produced value.
        publish: Publish,
        /// Span of the whole interaction.
        span: Span,
    },
    /// `when required;` — the context computes on demand when `get`-queried.
    Required {
        /// Span of the clause.
        span: Span,
    },
}

impl Interaction {
    /// The source span of the interaction.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Interaction::Provided { span, .. }
            | Interaction::Periodic { span, .. }
            | Interaction::Required { span } => *span,
        }
    }

    /// The publication mode, if this interaction produces values.
    #[must_use]
    pub fn publish(&self) -> Option<Publish> {
        match self {
            Interaction::Provided { publish, .. } | Interaction::Periodic { publish, .. } => {
                Some(*publish)
            }
            Interaction::Required { .. } => None,
        }
    }
}

/// A `context` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextDecl {
    /// Context name.
    pub name: Ident,
    /// Declared output type (`context Alert as Integer`).
    pub output: TypeRef,
    /// Non-functional annotations.
    pub annotations: Vec<Annotation>,
    /// Interaction contracts in source order.
    pub interactions: Vec<Interaction>,
    /// Full declaration span.
    pub span: Span,
}

impl ContextDecl {
    /// Whether any interaction declares `when required` (pull-only access).
    #[must_use]
    pub fn is_required(&self) -> bool {
        self.interactions
            .iter()
            .any(|i| matches!(i, Interaction::Required { .. }))
    }

    /// Whether any interaction publishes (`always` or `maybe`).
    #[must_use]
    pub fn publishes(&self) -> bool {
        self.interactions
            .iter()
            .any(|i| matches!(i.publish(), Some(Publish::Always | Publish::Maybe)))
    }
}

/// `do action on Device` inside a controller interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoAction {
    /// The action name on the device.
    pub action: Ident,
    /// The target device.
    pub device: Ident,
    /// Clause span.
    pub span: Span,
}

/// One `when provided Ctx do a on D [do b on E ...];` clause of a controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerInteraction {
    /// The context whose publications trigger this controller.
    pub context: Ident,
    /// Actions the controller may perform when triggered.
    pub actions: Vec<DoAction>,
    /// Clause span.
    pub span: Span,
}

/// A `controller` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerDecl {
    /// Controller name.
    pub name: Ident,
    /// Non-functional annotations.
    pub annotations: Vec<Annotation>,
    /// Interaction clauses in source order.
    pub interactions: Vec<ControllerInteraction>,
    /// Full declaration span.
    pub span: Span,
}

/// A field of a `structure` declaration: `name as Type;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: Ident,
    /// Field type.
    pub ty: TypeRef,
    /// Declaration span.
    pub span: Span,
}

/// A `structure` declaration (record type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Structure name.
    pub name: Ident,
    /// Fields in source order.
    pub fields: Vec<FieldDecl>,
    /// Full declaration span.
    pub span: Span,
}

/// An `enumeration` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDecl {
    /// Enumeration name.
    pub name: Ident,
    /// Variants in source order.
    pub variants: Vec<Ident>,
    /// Full declaration span.
    pub span: Span,
}

/// A top-level item of a specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A device declaration.
    Device(DeviceDecl),
    /// A context declaration.
    Context(ContextDecl),
    /// A controller declaration.
    Controller(ControllerDecl),
    /// A structure declaration.
    Structure(StructDecl),
    /// An enumeration declaration.
    Enumeration(EnumDecl),
}

impl Item {
    /// The declared name of the item.
    #[must_use]
    pub fn name(&self) -> &Ident {
        match self {
            Item::Device(d) => &d.name,
            Item::Context(c) => &c.name,
            Item::Controller(c) => &c.name,
            Item::Structure(s) => &s.name,
            Item::Enumeration(e) => &e.name,
        }
    }

    /// The full source span of the item.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Item::Device(d) => d.span,
            Item::Context(c) => c.span,
            Item::Controller(c) => c.span,
            Item::Structure(s) => s.span,
            Item::Enumeration(e) => e.span,
        }
    }
}

/// A parsed specification: the ordered list of top-level items.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spec {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Spec {
    /// Iterates over device declarations.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Device(d) => Some(d),
            _ => None,
        })
    }

    /// Iterates over context declarations.
    pub fn contexts(&self) -> impl Iterator<Item = &ContextDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Context(c) => Some(c),
            _ => None,
        })
    }

    /// Iterates over controller declarations.
    pub fn controllers(&self) -> impl Iterator<Item = &ControllerDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Controller(c) => Some(c),
            _ => None,
        })
    }

    /// Iterates over structure declarations.
    pub fn structures(&self) -> impl Iterator<Item = &StructDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Structure(s) => Some(s),
            _ => None,
        })
    }

    /// Iterates over enumeration declarations.
    pub fn enumerations(&self) -> impl Iterator<Item = &EnumDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Enumeration(e) => Some(e),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(s: &str) -> Ident {
        Ident::synthetic(s)
    }

    #[test]
    fn duration_conversions() {
        let d = Duration::new(10, TimeUnit::Minutes, Span::DUMMY);
        assert_eq!(d.as_millis(), 600_000);
        assert_eq!(d.to_string(), "<10 min>");
        let d = Duration::new(24, TimeUnit::Hours, Span::DUMMY);
        assert_eq!(d.as_millis(), 86_400_000);
        // Saturates rather than overflowing.
        let d = Duration::new(u64::MAX, TimeUnit::Days, Span::DUMMY);
        assert_eq!(d.as_millis(), u64::MAX);
    }

    #[test]
    fn time_unit_parsing() {
        assert_eq!(TimeUnit::from_str("min"), Some(TimeUnit::Minutes));
        assert_eq!(TimeUnit::from_str("hr"), Some(TimeUnit::Hours));
        assert_eq!(TimeUnit::from_str("h"), Some(TimeUnit::Hours));
        assert_eq!(TimeUnit::from_str("sec"), Some(TimeUnit::Seconds));
        assert_eq!(TimeUnit::from_str("s"), Some(TimeUnit::Seconds));
        assert_eq!(TimeUnit::from_str("ms"), Some(TimeUnit::Millis));
        assert_eq!(TimeUnit::from_str("day"), Some(TimeUnit::Days));
        assert_eq!(TimeUnit::from_str("fortnight"), None);
    }

    #[test]
    fn type_ref_display_and_base() {
        let t = TypeRef::Array(Box::new(TypeRef::Named(ident("Availability"))), Span::DUMMY);
        assert_eq!(t.to_string(), "Availability[]");
        assert_eq!(t.base_name(), "Availability");
    }

    #[test]
    fn context_publish_queries() {
        let ctx = ContextDecl {
            name: ident("C"),
            output: TypeRef::Named(ident("Integer")),
            annotations: vec![],
            interactions: vec![
                Interaction::Periodic {
                    source: ident("presence"),
                    device: ident("PresenceSensor"),
                    period: Duration::new(1, TimeUnit::Hours, Span::DUMMY),
                    gets: vec![],
                    grouping: None,
                    publish: Publish::No,
                    span: Span::DUMMY,
                },
                Interaction::Required { span: Span::DUMMY },
            ],
            span: Span::DUMMY,
        };
        assert!(ctx.is_required());
        assert!(!ctx.publishes());
    }

    #[test]
    fn annotation_argument_lookup() {
        let ann = Annotation {
            name: ident("error"),
            args: vec![
                (ident("policy"), AnnotationValue::Str("retry".into())),
                (ident("attempts"), AnnotationValue::Int(3)),
            ],
            span: Span::DUMMY,
        };
        assert_eq!(
            ann.arg("policy"),
            Some(&AnnotationValue::Str("retry".into()))
        );
        assert_eq!(ann.arg("attempts"), Some(&AnnotationValue::Int(3)));
        assert_eq!(ann.arg("missing"), None);
    }

    #[test]
    fn spec_item_filters() {
        let spec = Spec {
            items: vec![
                Item::Device(DeviceDecl {
                    name: ident("D"),
                    extends: None,
                    annotations: vec![],
                    attributes: vec![],
                    sources: vec![],
                    actions: vec![],
                    span: Span::DUMMY,
                }),
                Item::Enumeration(EnumDecl {
                    name: ident("E"),
                    variants: vec![ident("A")],
                    span: Span::DUMMY,
                }),
            ],
        };
        assert_eq!(spec.devices().count(), 1);
        assert_eq!(spec.enumerations().count(), 1);
        assert_eq!(spec.contexts().count(), 0);
        assert_eq!(spec.items[1].name().as_str(), "E");
    }
}
