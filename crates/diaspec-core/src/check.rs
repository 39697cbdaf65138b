//! Semantic analysis: from a parsed [`Spec`] to a resolved [`CheckedSpec`].
//!
//! The checker enforces the rules that make a DiaSpec design meaningful and
//! executable, in particular the Sense-Compute-Control layering of paper
//! §II: *"contexts can invoke other contexts or controllers, but controllers
//! cannot invoke context components"*. Every rule has a stable diagnostic
//! code so tests and tooling can assert on the kind of violation:
//!
//! | Code | Rule |
//! |------|------|
//! | E0201 | duplicate top-level name |
//! | E0202 | unknown parent device |
//! | E0203 | device inheritance cycle |
//! | E0204 | duplicate member within a device |
//! | E0205 | member overrides an inherited member |
//! | E0206 | unknown type name |
//! | E0210 | duplicate structure field |
//! | E0211 | duplicate enumeration variant |
//! | E0212 | empty enumeration |
//! | E0220 | unknown device |
//! | E0221 | unknown source on device |
//! | E0222 | unknown context |
//! | E0223 | SCC violation: context triggered by a controller |
//! | E0224 | `get` of a context that does not declare `when required` |
//! | E0225 | subscription to a context that never publishes |
//! | E0226 | `grouped by` on a context-triggered interaction |
//! | E0227 | grouping attribute not declared on the device |
//! | E0229 | cycle among context subscriptions |
//! | E0230 | zero period |
//! | E0240 | controller bound to unknown context |
//! | E0241 | controller bound to a non-publishing context |
//! | E0242 | unknown device in `do` clause |
//! | E0243 | unknown action on device |
//! | E0250 | invalid `@error` policy or argument |
//! | E0251 | invalid `@qos` argument |
//! | E0252 | `@error` fallback is not a declared parameterless action |
//! | E0253 | invalid `@quality` argument |
//! | E0301 | grouping attribute type is not groupable |
//! | W0301 | grouped context output is not an array type |
//! | W0302 | context neither publishes nor is required |
//! | W0303 | published context value is never consumed |
//! | W0305 | aggregation window is not a multiple of the period |
//! | W0306 | unknown annotation name |
//! | W0307 | unknown `@qos` argument |
//! | W0308 | unknown `@error` argument |
//! | W0309 | unknown `@quality` argument |

use crate::ast::{self, Spec};
use crate::diag::{Diagnostic, Diagnostics};
use crate::model::*;
use crate::span::Span;
use crate::types::Type;
use std::collections::{BTreeMap, BTreeSet};

/// Checks a parsed specification, resolving it into a [`CheckedSpec`].
///
/// All problems are reported in the returned [`Diagnostics`]. The model is
/// `Some` exactly when no *error*-severity diagnostic was produced
/// (warnings do not block).
///
/// # Examples
///
/// ```
/// use diaspec_core::{parser::parse, check::check};
///
/// let (spec, parse_diags) = parse("device Cooker { source consumption as Float; action Off; }");
/// assert!(!parse_diags.has_errors());
/// let (model, diags) = check(&spec);
/// assert!(!diags.has_errors());
/// assert!(model.unwrap().device("Cooker").is_some());
/// ```
#[must_use]
pub fn check(spec: &Spec) -> (Option<CheckedSpec>, Diagnostics) {
    let mut checker = Checker {
        spec,
        diags: Diagnostics::new(),
        names: BTreeMap::new(),
        model: CheckedSpec {
            devices: BTreeMap::new(),
            contexts: BTreeMap::new(),
            controllers: BTreeMap::new(),
            structures: BTreeMap::new(),
            enums: BTreeMap::new(),
        },
    };
    checker.run();
    let Checker { diags, model, .. } = checker;
    if diags.has_errors() {
        (None, diags)
    } else {
        (Some(model), diags)
    }
}

/// What kind of declaration a top-level name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NameKind {
    Device,
    Context,
    Controller,
    Structure,
    Enumeration,
}

impl NameKind {
    fn noun(self) -> &'static str {
        match self {
            NameKind::Device => "device",
            NameKind::Context => "context",
            NameKind::Controller => "controller",
            NameKind::Structure => "structure",
            NameKind::Enumeration => "enumeration",
        }
    }
}

struct Checker<'a> {
    spec: &'a Spec,
    diags: Diagnostics,
    /// Top-level name table: name -> (kind, declaration span).
    names: BTreeMap<String, (NameKind, Span)>,
    model: CheckedSpec,
}

impl<'a> Checker<'a> {
    fn run(&mut self) {
        self.collect_names();
        self.resolve_enums();
        self.resolve_structures();
        self.resolve_devices();
        self.resolve_contexts();
        self.resolve_controllers();
        if !self.diags.has_errors() {
            self.detect_context_cycles();
            self.lint_unused();
        }
    }

    // ---- phase 1: names ---------------------------------------------------

    fn collect_names(&mut self) {
        for item in &self.spec.items {
            let kind = match item {
                ast::Item::Device(_) => NameKind::Device,
                ast::Item::Context(_) => NameKind::Context,
                ast::Item::Controller(_) => NameKind::Controller,
                ast::Item::Structure(_) => NameKind::Structure,
                ast::Item::Enumeration(_) => NameKind::Enumeration,
            };
            let name = item.name();
            if let Some((prev_kind, prev_span)) = self.names.get(&name.name) {
                let diag = Diagnostic::error(
                    "E0201",
                    format!(
                        "the name `{name}` is already used by a {}",
                        prev_kind.noun()
                    ),
                    name.span,
                )
                .with_note("first declared here", Some(*prev_span));
                self.diags.push(diag);
            } else {
                self.names.insert(name.name.clone(), (kind, name.span));
            }
        }
    }

    fn name_kind(&self, name: &str) -> Option<NameKind> {
        self.names.get(name).map(|(k, _)| *k)
    }

    // ---- phase 2: types ---------------------------------------------------

    fn resolve_type(&mut self, ty: &ast::TypeRef) -> Type {
        match ty {
            ast::TypeRef::Named(id) => {
                if let Some(t) = Type::builtin(&id.name) {
                    return t;
                }
                match self.name_kind(&id.name) {
                    Some(NameKind::Enumeration) => Type::Enum(id.name.clone()),
                    Some(NameKind::Structure) => Type::Struct(id.name.clone()),
                    Some(other) => {
                        self.diags.push(Diagnostic::error(
                            "E0206",
                            format!(
                                "`{}` is a {}, not a type (expected a built-in, structure, or enumeration)",
                                id.name,
                                other.noun()
                            ),
                            id.span,
                        ));
                        Type::String
                    }
                    None => {
                        self.diags.push(Diagnostic::error(
                            "E0206",
                            format!("unknown type `{}`", id.name),
                            id.span,
                        ));
                        Type::String
                    }
                }
            }
            ast::TypeRef::Array(elem, _) => self.resolve_type(elem).array(),
        }
    }

    fn resolve_enums(&mut self) {
        for decl in self.spec.enumerations() {
            if self.names.get(&decl.name.name).map(|(_, s)| *s) != Some(decl.name.span) {
                continue; // duplicate; only the first declaration is modeled
            }
            if decl.variants.is_empty() {
                self.diags.push(Diagnostic::error(
                    "E0212",
                    format!("enumeration `{}` has no variants", decl.name),
                    decl.span,
                ));
            }
            let mut seen: BTreeMap<&str, Span> = BTreeMap::new();
            let mut variants = Vec::new();
            for v in &decl.variants {
                if let Some(prev) = seen.get(v.as_str()) {
                    let diag = Diagnostic::error(
                        "E0211",
                        format!("duplicate variant `{v}` in enumeration `{}`", decl.name),
                        v.span,
                    )
                    .with_note("first declared here", Some(*prev));
                    self.diags.push(diag);
                } else {
                    seen.insert(v.as_str(), v.span);
                    variants.push(v.name.clone());
                }
            }
            self.model.enums.insert(
                decl.name.name.clone(),
                Enumeration {
                    name: decl.name.name.clone(),
                    variants,
                },
            );
        }
    }

    fn resolve_structures(&mut self) {
        for decl in self.spec.structures() {
            if self.names.get(&decl.name.name).map(|(_, s)| *s) != Some(decl.name.span) {
                continue;
            }
            let mut seen: BTreeMap<&str, Span> = BTreeMap::new();
            let mut fields = Vec::new();
            for f in &decl.fields {
                if let Some(prev) = seen.get(f.name.as_str()) {
                    let diag = Diagnostic::error(
                        "E0210",
                        format!("duplicate field `{}` in structure `{}`", f.name, decl.name),
                        f.name.span,
                    )
                    .with_note("first declared here", Some(*prev));
                    self.diags.push(diag);
                    continue;
                }
                seen.insert(f.name.as_str(), f.name.span);
                let ty = self.resolve_type(&f.ty);
                fields.push((f.name.name.clone(), ty));
            }
            self.model.structures.insert(
                decl.name.name.clone(),
                Structure {
                    name: decl.name.name.clone(),
                    fields,
                },
            );
        }
    }

    // ---- phase 3: devices ---------------------------------------------------

    fn resolve_devices(&mut self) {
        // Resolve parents and detect cycles first, then flatten in an order
        // where every parent is flattened before its children.
        let decls: BTreeMap<&str, &ast::DeviceDecl> = self
            .spec
            .devices()
            .filter(|d| self.names.get(&d.name.name).map(|(_, s)| *s) == Some(d.name.span))
            .map(|d| (d.name.as_str(), d))
            .collect();

        // Validate parents.
        let mut parent_of: BTreeMap<&str, &str> = BTreeMap::new();
        for decl in decls.values() {
            if let Some(parent) = &decl.extends {
                match self.name_kind(&parent.name) {
                    Some(NameKind::Device) => {
                        parent_of.insert(decl.name.as_str(), parent.as_str());
                    }
                    Some(other) => {
                        self.diags.push(Diagnostic::error(
                            "E0202",
                            format!(
                                "device `{}` extends `{parent}`, which is a {}, not a device",
                                decl.name,
                                other.noun()
                            ),
                            parent.span,
                        ));
                    }
                    None => {
                        self.diags.push(Diagnostic::error(
                            "E0202",
                            format!("device `{}` extends unknown device `{parent}`", decl.name),
                            parent.span,
                        ));
                    }
                }
            }
        }

        // Detect inheritance cycles.
        let mut in_cycle: BTreeSet<&str> = BTreeSet::new();
        for &start in decls.keys() {
            let mut slow = start;
            let mut seen = BTreeSet::new();
            seen.insert(slow);
            while let Some(&next) = parent_of.get(slow) {
                if !seen.insert(next) {
                    if !in_cycle.contains(start) {
                        let decl = decls[start];
                        self.diags.push(Diagnostic::error(
                            "E0203",
                            format!(
                                "device `{}` participates in an inheritance cycle",
                                decl.name
                            ),
                            decl.name.span,
                        ));
                    }
                    in_cycle.insert(start);
                    break;
                }
                slow = next;
            }
        }

        // Flatten, parents first, skipping anything in a cycle.
        let mut done: BTreeSet<&str> = BTreeSet::new();
        while done.len() < decls.len() {
            let mut progressed = false;
            for (&name, decl) in &decls {
                if done.contains(name) {
                    continue;
                }
                let parent_ready = match parent_of.get(name) {
                    Some(p) => done.contains(p),
                    // Unknown/invalid parent: treat as root so members still
                    // resolve and later references don't cascade.
                    None => true,
                };
                if in_cycle.contains(name) {
                    done.insert(name);
                    progressed = true;
                    continue;
                }
                if parent_ready {
                    self.flatten_device(decl, parent_of.get(name).copied());
                    done.insert(name);
                    progressed = true;
                }
            }
            if !progressed {
                // Remaining devices all have unflattened parents due to
                // cycles already reported; stop.
                break;
            }
        }
    }

    fn flatten_device(&mut self, decl: &ast::DeviceDecl, parent: Option<&str>) {
        let mut attributes = Vec::new();
        let mut sources = Vec::new();
        let mut actions = Vec::new();
        if let Some(parent) = parent.and_then(|p| self.model.devices.get(p)) {
            attributes.extend(parent.attributes.iter().cloned());
            sources.extend(parent.sources.iter().cloned());
            actions.extend(parent.actions.iter().cloned());
        }

        // Track member names to reject duplicates/overrides. Attributes,
        // sources and actions live in separate namespaces on a device.
        let check_member = |diags: &mut Diagnostics,
                            existing: &mut BTreeMap<String, (String, Span)>,
                            kind: &str,
                            name: &ast::Ident|
         -> bool {
            if let Some((owner, prev_span)) = existing.get(name.as_str()) {
                let (code, what) = if owner == decl.name.as_str() {
                    ("E0204", format!("duplicate {kind} `{name}`"))
                } else {
                    (
                        "E0205",
                        format!("{kind} `{name}` overrides a member inherited from `{owner}`"),
                    )
                };
                let prev = *prev_span;
                let mut diag = Diagnostic::error(code, what, name.span);
                if !prev.is_empty() || prev != Span::DUMMY {
                    diag = diag.with_note("previously declared here", Some(prev));
                }
                diags.push(diag);
                false
            } else {
                existing.insert(name.name.clone(), (decl.name.name.clone(), name.span));
                true
            }
        };

        let mut attr_names: BTreeMap<String, (String, Span)> = attributes
            .iter()
            .map(|a: &Attribute| (a.name.clone(), (a.declared_in.clone(), Span::DUMMY)))
            .collect();
        for a in &decl.attributes {
            if check_member(&mut self.diags, &mut attr_names, "attribute", &a.name) {
                let ty = self.resolve_type(&a.ty);
                attributes.push(Attribute {
                    name: a.name.name.clone(),
                    ty,
                    declared_in: decl.name.name.clone(),
                });
            }
        }

        let mut source_names: BTreeMap<String, (String, Span)> = sources
            .iter()
            .map(|s: &Source| (s.name.clone(), (s.declared_in.clone(), Span::DUMMY)))
            .collect();
        for s in &decl.sources {
            if check_member(&mut self.diags, &mut source_names, "source", &s.name) {
                let ty = self.resolve_type(&s.ty);
                let index = s
                    .index
                    .as_ref()
                    .map(|(n, t)| (n.name.clone(), self.resolve_type(t)));
                sources.push(Source {
                    name: s.name.name.clone(),
                    ty,
                    index,
                    declared_in: decl.name.name.clone(),
                });
            }
        }

        let mut action_names: BTreeMap<String, (String, Span)> = actions
            .iter()
            .map(|a: &Action| (a.name.clone(), (a.declared_in.clone(), Span::DUMMY)))
            .collect();
        for a in &decl.actions {
            if check_member(&mut self.diags, &mut action_names, "action", &a.name) {
                let params = a
                    .params
                    .iter()
                    .map(|p| (p.name.name.clone(), self.resolve_type(&p.ty)))
                    .collect();
                actions.push(Action {
                    name: a.name.name.clone(),
                    params,
                    declared_in: decl.name.name.clone(),
                });
            }
        }

        let annotations = self.resolve_annotations(&decl.annotations);
        // The declared @error fallback must be an action the runtime can
        // invoke blind — declared (or inherited) on this device, with no
        // parameters.
        for ann in &decl.annotations {
            if ann.name.as_str() != "error" {
                continue;
            }
            let fallback = match ann.arg("fallback") {
                Some(ast::AnnotationValue::Str(name) | ast::AnnotationValue::Ident(name)) => name,
                _ => continue,
            };
            match actions.iter().find(|a: &&Action| a.name == *fallback) {
                Some(action) if action.params.is_empty() => {}
                Some(_) => {
                    self.diags.push(Diagnostic::error(
                        "E0252",
                        format!(
                            "@error fallback `{fallback}` takes parameters; a fallback action must be parameterless"
                        ),
                        ann.span,
                    ));
                }
                None => {
                    self.diags.push(Diagnostic::error(
                        "E0252",
                        format!(
                            "@error fallback `{fallback}` is not an action of device `{}`",
                            decl.name
                        ),
                        ann.span,
                    ));
                }
            }
        }
        self.model.devices.insert(
            decl.name.name.clone(),
            Device {
                name: decl.name.name.clone(),
                parent: parent.map(str::to_owned),
                attributes,
                sources,
                actions,
                annotations,
                span: decl.name.span,
            },
        );
    }

    // ---- phase 4: annotations ----------------------------------------------

    fn resolve_annotations(&mut self, annotations: &[ast::Annotation]) -> Vec<ResolvedAnnotation> {
        const ERROR_POLICIES: [&str; 4] = ["retry", "failover", "ignore", "escalate"];
        let mut out = Vec::new();
        for ann in annotations {
            match ann.name.as_str() {
                "error" => {
                    if let Some(policy) = ann.arg("policy") {
                        let ok = matches!(
                            policy,
                            ast::AnnotationValue::Str(p) | ast::AnnotationValue::Ident(p)
                                if ERROR_POLICIES.contains(&p.as_str())
                        );
                        if !ok {
                            self.diags.push(Diagnostic::error(
                                "E0250",
                                format!(
                                    "invalid @error policy `{policy}` (expected one of {})",
                                    ERROR_POLICIES.join(", ")
                                ),
                                ann.span,
                            ));
                        }
                    } else {
                        self.diags.push(Diagnostic::error(
                            "E0250",
                            "@error requires a `policy` argument".to_string(),
                            ann.span,
                        ));
                    }
                    for (key, value) in &ann.args {
                        match key.as_str() {
                            "policy" => {}
                            "attempts" => {
                                let ok = matches!(
                                    value,
                                    ast::AnnotationValue::Int(v) if *v >= 1
                                );
                                if !ok {
                                    self.diags.push(Diagnostic::error(
                                        "E0250",
                                        format!(
                                            "@error argument `attempts` must be a positive integer, got `{value}`"
                                        ),
                                        ann.span,
                                    ));
                                }
                            }
                            "fallback" => {
                                let ok = matches!(
                                    value,
                                    ast::AnnotationValue::Str(_) | ast::AnnotationValue::Ident(_)
                                );
                                if !ok {
                                    self.diags.push(Diagnostic::error(
                                        "E0250",
                                        format!(
                                            "@error argument `fallback` must name an action, got `{value}`"
                                        ),
                                        ann.span,
                                    ));
                                }
                            }
                            other => {
                                self.diags.push(Diagnostic::warning(
                                    "W0308",
                                    format!(
                                        "unknown @error argument `{other}` (known: policy, attempts, fallback)"
                                    ),
                                    ann.span,
                                ));
                            }
                        }
                    }
                }
                "qos" => {
                    for (key, value) in &ann.args {
                        match key.as_str() {
                            "latencyMs" | "periodMs" | "priority" | "capacityPerHour" => {
                                let ok = matches!(
                                    value,
                                    ast::AnnotationValue::Int(v) if *v > 0
                                );
                                if !ok {
                                    self.diags.push(Diagnostic::error(
                                        "E0251",
                                        format!(
                                            "@qos argument `{key}` must be a positive \
                                             integer, got `{value}`"
                                        ),
                                        ann.span,
                                    ));
                                }
                            }
                            other => {
                                self.diags.push(Diagnostic::warning(
                                    "W0307",
                                    format!(
                                        "unknown @qos argument `{other}` (known: \
                                         latencyMs, periodMs, priority, \
                                         capacityPerHour)"
                                    ),
                                    ann.span,
                                ));
                            }
                        }
                    }
                }
                "quality" => {
                    for (key, value) in &ann.args {
                        match key.as_str() {
                            "coverage" => {
                                let ok = matches!(
                                    value,
                                    ast::AnnotationValue::Int(v) if (1..=100).contains(v)
                                );
                                if !ok {
                                    self.diags.push(Diagnostic::error(
                                        "E0253",
                                        format!(
                                            "@quality argument `coverage` must be a percentage \
                                             between 1 and 100, got `{value}`"
                                        ),
                                        ann.span,
                                    ));
                                }
                            }
                            "deadlineMs" => {
                                let ok = matches!(
                                    value,
                                    ast::AnnotationValue::Int(v) if *v > 0
                                );
                                if !ok {
                                    self.diags.push(Diagnostic::error(
                                        "E0253",
                                        format!(
                                            "@quality argument `deadlineMs` must be a positive \
                                             integer, got `{value}`"
                                        ),
                                        ann.span,
                                    ));
                                }
                            }
                            other => {
                                self.diags.push(Diagnostic::warning(
                                    "W0309",
                                    format!(
                                        "unknown @quality argument `{other}` (known: coverage, \
                                         deadlineMs)"
                                    ),
                                    ann.span,
                                ));
                            }
                        }
                    }
                }
                other => {
                    self.diags.push(Diagnostic::warning(
                        "W0306",
                        format!("unknown annotation `@{other}` (known: @error, @qos, @quality)"),
                        ann.span,
                    ));
                }
            }
            let args = ann
                .args
                .iter()
                .map(|(k, v)| {
                    let arg = match v {
                        ast::AnnotationValue::Str(s) => AnnotationArg::Str(s.clone()),
                        ast::AnnotationValue::Int(i) => AnnotationArg::Int(*i),
                        ast::AnnotationValue::Ident(s) => AnnotationArg::Symbol(s.clone()),
                    };
                    (k.name.clone(), arg)
                })
                .collect();
            out.push(ResolvedAnnotation {
                name: ann.name.name.clone(),
                args,
            });
        }
        out
    }

    // ---- phase 5: contexts ---------------------------------------------------

    /// Resolves `source from Device`, reporting errors. Returns the source
    /// type on success.
    fn resolve_device_source(&mut self, device: &ast::Ident, source: &ast::Ident) -> Option<Type> {
        match self.name_kind(&device.name) {
            Some(NameKind::Device) => {}
            Some(other) => {
                self.diags.push(Diagnostic::error(
                    "E0220",
                    format!("`{device}` is a {}, not a device", other.noun()),
                    device.span,
                ));
                return None;
            }
            None => {
                self.diags.push(Diagnostic::error(
                    "E0220",
                    format!("unknown device `{device}`"),
                    device.span,
                ));
                return None;
            }
        }
        let Some(dev) = self.model.devices.get(&device.name) else {
            return None; // device errored out earlier (e.g. cycle)
        };
        match dev.source(&source.name) {
            Some(s) => Some(s.ty.clone()),
            None => {
                let available: Vec<&str> = dev.sources.iter().map(|s| s.name.as_str()).collect();
                let mut diag = Diagnostic::error(
                    "E0221",
                    format!("device `{device}` has no source `{source}`"),
                    source.span,
                );
                if !available.is_empty() {
                    diag = diag
                        .with_note(format!("available sources: {}", available.join(", ")), None);
                }
                self.diags.push(diag);
                None
            }
        }
    }

    /// Checks a context name used as a subscription trigger.
    fn check_context_trigger(&mut self, name: &ast::Ident) {
        match self.name_kind(&name.name) {
            Some(NameKind::Context) => {
                // Its publish mode is validated after all contexts resolve.
            }
            Some(NameKind::Controller) => {
                self.diags.push(Diagnostic::error(
                    "E0223",
                    format!(
                        "context cannot subscribe to controller `{name}`: in the \
                         Sense-Compute-Control paradigm controllers do not feed contexts"
                    ),
                    name.span,
                ));
            }
            Some(other) => {
                self.diags.push(Diagnostic::error(
                    "E0222",
                    format!("`{name}` is a {}, not a context", other.noun()),
                    name.span,
                ));
            }
            None => {
                self.diags.push(Diagnostic::error(
                    "E0222",
                    format!("unknown context `{name}`"),
                    name.span,
                ));
            }
        }
    }

    fn resolve_data_ref(&mut self, r: &ast::DataRef, as_get: bool) -> Option<InputRef> {
        match r {
            ast::DataRef::DeviceSource { source, device } => {
                self.resolve_device_source(device, source)?;
                Some(InputRef::DeviceSource {
                    device: device.name.clone(),
                    source: source.name.clone(),
                })
            }
            ast::DataRef::Context(name) => {
                if as_get {
                    match self.name_kind(&name.name) {
                        Some(NameKind::Context) => {}
                        Some(NameKind::Controller) => {
                            self.diags.push(Diagnostic::error(
                                "E0223",
                                format!("context cannot `get` controller `{name}`"),
                                name.span,
                            ));
                            return None;
                        }
                        Some(other) => {
                            self.diags.push(Diagnostic::error(
                                "E0222",
                                format!("`{name}` is a {}, not a context", other.noun()),
                                name.span,
                            ));
                            return None;
                        }
                        None => {
                            self.diags.push(Diagnostic::error(
                                "E0222",
                                format!("unknown context `{name}` in `get`"),
                                name.span,
                            ));
                            return None;
                        }
                    }
                } else {
                    self.check_context_trigger(name);
                }
                Some(InputRef::Context(name.name.clone()))
            }
        }
    }

    fn resolve_grouping(
        &mut self,
        grouping: &ast::Grouping,
        device: Option<&ast::Ident>,
        period_ms: Option<u64>,
    ) -> Option<GroupingModel> {
        let Some(device) = device else {
            self.diags.push(Diagnostic::error(
                "E0226",
                "`grouped by` requires a device-source trigger: grouping partitions \
                 sensor readings by a device attribute",
                grouping.span,
            ));
            return None;
        };
        let attribute_ty = match self
            .model
            .devices
            .get(&device.name)
            .and_then(|d| d.attribute(&grouping.attribute.name))
        {
            Some(attr) => attr.ty.clone(),
            None => {
                if self.model.devices.contains_key(&device.name) {
                    self.diags.push(Diagnostic::error(
                        "E0227",
                        format!(
                            "device `{device}` has no attribute `{}` to group by",
                            grouping.attribute
                        ),
                        grouping.attribute.span,
                    ));
                }
                return None;
            }
        };
        if !attribute_ty.is_groupable() {
            self.diags.push(Diagnostic::error(
                "E0301",
                format!(
                    "attribute `{}` has type `{attribute_ty}`, which cannot key a \
                     `grouped by` partition (no stable equality)",
                    grouping.attribute
                ),
                grouping.attribute.span,
            ));
        }
        let window_ms = grouping.window.map(|w| w.as_millis());
        let window_span = grouping.window.map(|w| w.span);
        if let (Some(window), Some(period)) = (window_ms, period_ms) {
            if period > 0 && window % period != 0 {
                let cadence = crate::analysis::rates::cadence_ms(period, Some(window));
                self.diags.push(Diagnostic::warning(
                    "W0305",
                    format!(
                        "aggregation window ({window} ms) is not a multiple of the \
                         delivery period ({period} ms); every window stretches to the \
                         next poll, so the context is activated every {cadence} ms"
                    ),
                    grouping.window.expect("window present").span,
                ));
            }
        }
        let map_reduce = grouping.map_reduce.as_ref().map(|mr| {
            let map_ty = self.resolve_type(&mr.map_ty);
            let reduce_ty = self.resolve_type(&mr.reduce_ty);
            (map_ty, reduce_ty)
        });
        Some(GroupingModel {
            attribute: grouping.attribute.name.clone(),
            attribute_ty,
            window_ms,
            window_span,
            map_reduce,
        })
    }

    fn resolve_contexts(&mut self) {
        for decl in self.spec.contexts() {
            if self.names.get(&decl.name.name).map(|(_, s)| *s) != Some(decl.name.span) {
                continue;
            }
            let output = self.resolve_type(&decl.output);
            let mut activations = Vec::new();
            for interaction in &decl.interactions {
                match interaction {
                    ast::Interaction::Provided {
                        trigger,
                        gets,
                        grouping,
                        publish,
                        span,
                    } => {
                        let trigger_model = match trigger {
                            ast::DataRef::DeviceSource { source, device } => {
                                self.resolve_device_source(device, source);
                                ActivationTrigger::DeviceSource {
                                    device: device.name.clone(),
                                    source: source.name.clone(),
                                }
                            }
                            ast::DataRef::Context(name) => {
                                self.check_context_trigger(name);
                                ActivationTrigger::Context(name.name.clone())
                            }
                        };
                        let gets = gets
                            .iter()
                            .filter_map(|g| self.resolve_data_ref(g, true))
                            .collect();
                        let trigger_device = match trigger {
                            ast::DataRef::DeviceSource { device, .. } => Some(device),
                            ast::DataRef::Context(_) => None,
                        };
                        let grouping_model = grouping
                            .as_ref()
                            .and_then(|g| self.resolve_grouping(g, trigger_device, None));
                        self.lint_grouped_output(&decl.name, &output, &grouping_model, *span);
                        activations.push(Activation {
                            trigger: trigger_model,
                            gets,
                            grouping: grouping_model,
                            publish: convert_publish(*publish),
                            span: *span,
                        });
                    }
                    ast::Interaction::Periodic {
                        source,
                        device,
                        period,
                        gets,
                        grouping,
                        publish,
                        span,
                    } => {
                        self.resolve_device_source(device, source);
                        let period_ms = period.as_millis();
                        if period_ms == 0 {
                            self.diags.push(Diagnostic::error(
                                "E0230",
                                "periodic delivery period must be positive",
                                period.span,
                            ));
                        }
                        let gets = gets
                            .iter()
                            .filter_map(|g| self.resolve_data_ref(g, true))
                            .collect();
                        let grouping_model = grouping
                            .as_ref()
                            .and_then(|g| self.resolve_grouping(g, Some(device), Some(period_ms)));
                        self.lint_grouped_output(&decl.name, &output, &grouping_model, *span);
                        activations.push(Activation {
                            trigger: ActivationTrigger::Periodic {
                                device: device.name.clone(),
                                source: source.name.clone(),
                                period_ms,
                            },
                            gets,
                            grouping: grouping_model,
                            publish: convert_publish(*publish),
                            span: *span,
                        });
                    }
                    ast::Interaction::Required { span } => {
                        activations.push(Activation {
                            trigger: ActivationTrigger::OnDemand,
                            gets: Vec::new(),
                            grouping: None,
                            publish: PublishMode::No,
                            span: *span,
                        });
                    }
                }
            }
            if !decl.publishes() && !decl.is_required() {
                self.diags.push(Diagnostic::warning(
                    "W0302",
                    format!(
                        "context `{}` neither publishes nor declares `when required`; \
                         its value can never be observed",
                        decl.name
                    ),
                    decl.name.span,
                ));
            }
            let annotations = self.resolve_annotations(&decl.annotations);
            self.model.contexts.insert(
                decl.name.name.clone(),
                Context {
                    name: decl.name.name.clone(),
                    output,
                    activations,
                    annotations,
                    span: decl.name.span,
                },
            );
        }

        // Second pass, with all contexts resolved: validate publish/required
        // constraints on context-to-context references.
        for decl in self.spec.contexts() {
            for interaction in &decl.interactions {
                let (trigger, gets) = match interaction {
                    ast::Interaction::Provided { trigger, gets, .. } => (Some(trigger), gets),
                    ast::Interaction::Periodic { gets, .. } => (None, gets),
                    ast::Interaction::Required { .. } => continue,
                };
                if let Some(ast::DataRef::Context(name)) = trigger {
                    if let Some(target) = self.model.contexts.get(&name.name) {
                        if !target.publishes() {
                            self.diags.push(Diagnostic::error(
                                "E0225",
                                format!(
                                    "context `{}` subscribes to `{name}`, but `{name}` \
                                     never publishes (all its interactions are `no publish`)",
                                    decl.name
                                ),
                                name.span,
                            ));
                        }
                    }
                }
                for get in gets {
                    if let ast::DataRef::Context(name) = get {
                        if let Some(target) = self.model.contexts.get(&name.name) {
                            if !target.is_required() {
                                self.diags.push(Diagnostic::error(
                                    "E0224",
                                    format!(
                                        "`get {name}` requires context `{name}` to declare \
                                         `when required` so it can be queried on demand",
                                    ),
                                    name.span,
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    fn lint_grouped_output(
        &mut self,
        ctx_name: &ast::Ident,
        output: &Type,
        grouping: &Option<GroupingModel>,
        span: Span,
    ) {
        if grouping.is_some() && !matches!(output, Type::Array(_)) {
            self.diags.push(Diagnostic::warning(
                "W0301",
                format!(
                    "context `{ctx_name}` groups readings by an attribute but its output \
                     type `{output}` is not an array; one value per group is conventional"
                ),
                span,
            ));
        }
    }

    // ---- phase 6: controllers ------------------------------------------------

    fn resolve_controllers(&mut self) {
        for decl in self.spec.controllers() {
            if self.names.get(&decl.name.name).map(|(_, s)| *s) != Some(decl.name.span) {
                continue;
            }
            let mut bindings = Vec::new();
            for interaction in &decl.interactions {
                match self.name_kind(&interaction.context.name) {
                    Some(NameKind::Context) => {
                        if let Some(ctx) = self.model.contexts.get(&interaction.context.name) {
                            if !ctx.publishes() {
                                self.diags.push(Diagnostic::error(
                                    "E0241",
                                    format!(
                                        "controller `{}` subscribes to context `{}`, which \
                                         never publishes",
                                        decl.name, interaction.context
                                    ),
                                    interaction.context.span,
                                ));
                            }
                        }
                    }
                    Some(other) => {
                        self.diags.push(Diagnostic::error(
                            "E0240",
                            format!(
                                "controller `{}` must subscribe to a context, but `{}` is a {}",
                                decl.name,
                                interaction.context,
                                other.noun()
                            ),
                            interaction.context.span,
                        ));
                    }
                    None => {
                        self.diags.push(Diagnostic::error(
                            "E0240",
                            format!("unknown context `{}`", interaction.context),
                            interaction.context.span,
                        ));
                    }
                }
                let mut actions = Vec::new();
                let mut action_spans = Vec::new();
                for do_action in &interaction.actions {
                    match self.name_kind(&do_action.device.name) {
                        Some(NameKind::Device) => {
                            if let Some(dev) = self.model.devices.get(&do_action.device.name) {
                                if dev.action(&do_action.action.name).is_none() {
                                    let available: Vec<&str> =
                                        dev.actions.iter().map(|a| a.name.as_str()).collect();
                                    let mut diag = Diagnostic::error(
                                        "E0243",
                                        format!(
                                            "device `{}` has no action `{}`",
                                            do_action.device, do_action.action
                                        ),
                                        do_action.action.span,
                                    );
                                    if !available.is_empty() {
                                        diag = diag.with_note(
                                            format!("available actions: {}", available.join(", ")),
                                            None,
                                        );
                                    }
                                    self.diags.push(diag);
                                }
                            }
                        }
                        Some(other) => {
                            self.diags.push(Diagnostic::error(
                                "E0242",
                                format!(
                                    "`{}` is a {}, not a device",
                                    do_action.device,
                                    other.noun()
                                ),
                                do_action.device.span,
                            ));
                        }
                        None => {
                            self.diags.push(Diagnostic::error(
                                "E0242",
                                format!("unknown device `{}`", do_action.device),
                                do_action.device.span,
                            ));
                        }
                    }
                    actions.push((do_action.action.name.clone(), do_action.device.name.clone()));
                    action_spans.push(do_action.span);
                }
                bindings.push(ControllerBinding {
                    context: interaction.context.name.clone(),
                    actions,
                    context_span: interaction.context.span,
                    action_spans,
                });
            }
            let annotations = self.resolve_annotations(&decl.annotations);
            self.model.controllers.insert(
                decl.name.name.clone(),
                Controller {
                    name: decl.name.name.clone(),
                    bindings,
                    annotations,
                    span: decl.name.span,
                },
            );
        }
    }

    // ---- phase 7: whole-graph properties --------------------------------------

    fn detect_context_cycles(&mut self) {
        // DFS over context -> context edges (both subscriptions and gets).
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Visiting,
            Done,
        }
        let mut states: BTreeMap<&str, State> = BTreeMap::new();
        let edges: BTreeMap<&str, Vec<&str>> = self
            .model
            .contexts
            .values()
            .map(|ctx| {
                let mut out: Vec<&str> = Vec::new();
                for a in &ctx.activations {
                    if let ActivationTrigger::Context(c) = &a.trigger {
                        out.push(c.as_str());
                    }
                    for g in &a.gets {
                        if let InputRef::Context(c) = g {
                            out.push(c.as_str());
                        }
                    }
                }
                (ctx.name.as_str(), out)
            })
            .collect();

        fn dfs<'m>(
            node: &'m str,
            edges: &BTreeMap<&'m str, Vec<&'m str>>,
            states: &mut BTreeMap<&'m str, State>,
            stack: &mut Vec<&'m str>,
        ) -> Option<Vec<String>> {
            match states.get(node) {
                Some(State::Done) => return None,
                Some(State::Visiting) => {
                    let pos = stack.iter().position(|n| *n == node).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[pos..].iter().map(|s| (*s).to_owned()).collect();
                    cycle.push(node.to_owned());
                    return Some(cycle);
                }
                None => {}
            }
            states.insert(node, State::Visiting);
            stack.push(node);
            if let Some(nexts) = edges.get(node) {
                for next in nexts {
                    if edges.contains_key(next) {
                        if let Some(cycle) = dfs(next, edges, states, stack) {
                            return Some(cycle);
                        }
                    }
                }
            }
            stack.pop();
            states.insert(node, State::Done);
            None
        }

        let roots: Vec<&str> = edges.keys().copied().collect();
        for root in roots {
            let mut stack = Vec::new();
            if let Some(cycle) = dfs(root, &edges, &mut states, &mut stack) {
                let names = self.names.clone();
                let span = names
                    .get(cycle[0].as_str())
                    .map_or(Span::DUMMY, |(_, s)| *s);
                self.diags.push(Diagnostic::error(
                    "E0229",
                    format!("cycle among context subscriptions: {}", cycle.join(" -> ")),
                    span,
                ));
                return; // one cycle report is enough to act on
            }
        }
    }

    fn lint_unused(&mut self) {
        for ctx in self.model.contexts.values() {
            if ctx.publishes() && self.model_subscriber_count(&ctx.name) == 0 {
                let span = self.names.get(&ctx.name).map_or(Span::DUMMY, |(_, s)| *s);
                self.diags.push(Diagnostic::warning(
                    "W0303",
                    format!(
                        "context `{}` publishes values but no context or controller \
                         subscribes to it",
                        ctx.name
                    ),
                    span,
                ));
            }
        }
    }

    fn model_subscriber_count(&self, context: &str) -> usize {
        self.model.subscribers_of_context(context).len()
    }
}

fn convert_publish(p: ast::Publish) -> PublishMode {
    match p {
        ast::Publish::Always => PublishMode::Always,
        ast::Publish::Maybe => PublishMode::Maybe,
        ast::Publish::No => PublishMode::No,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> (Option<CheckedSpec>, Diagnostics) {
        let (spec, parse_diags) = parse(src);
        assert!(
            !parse_diags.has_errors(),
            "parse errors in test fixture: {parse_diags:?}"
        );
        check(&spec)
    }

    fn expect_error(src: &str, code: &str) {
        let (model, diags) = check_src(src);
        assert!(
            diags.find(code).is_some(),
            "expected {code}, got: {diags:?}"
        );
        assert!(model.is_none());
    }

    fn expect_warning(src: &str, code: &str) {
        let (model, diags) = check_src(src);
        assert!(
            diags.find(code).is_some(),
            "expected {code}, got: {diags:?}"
        );
        assert!(model.is_some(), "warnings must not block: {diags:?}");
    }

    fn expect_clean(src: &str) -> CheckedSpec {
        let (model, diags) = check_src(src);
        assert!(diags.is_empty(), "expected clean check, got: {diags:?}");
        model.unwrap()
    }

    #[test]
    fn full_cooker_spec_checks_cleanly() {
        let model = expect_clean(
            r#"
            device Clock { source tickSecond as Integer; }
            device Cooker { source consumption as Float; action On; action Off; }
            device TvPrompter {
              source answer as String indexed by questionId as String;
              action askQuestion(question as String);
            }
            context Alert as Integer {
              when provided tickSecond from Clock
                get consumption from Cooker
                maybe publish;
            }
            controller Notify {
              when provided Alert do askQuestion on TvPrompter;
            }
            context RemoteTurnOff as Boolean {
              when provided answer from TvPrompter
                get consumption from Cooker
                maybe publish;
            }
            controller TurnOff {
              when provided RemoteTurnOff do Off on Cooker;
            }
            "#,
        );
        assert_eq!(model.devices().count(), 3);
        assert_eq!(model.contexts().count(), 2);
        assert_eq!(model.controllers().count(), 2);
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        expect_error(
            "device X { source s as Integer; } structure X { f as Integer; }",
            "E0201",
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        expect_error("device D extends Ghost { }", "E0202");
    }

    #[test]
    fn parent_must_be_device() {
        expect_error(
            "structure S { f as Integer; } device D extends S { }",
            "E0202",
        );
    }

    #[test]
    fn inheritance_cycle_rejected() {
        expect_error(
            "device A extends B { } device B extends C { } device C extends A { }",
            "E0203",
        );
    }

    #[test]
    fn self_inheritance_rejected() {
        expect_error("device A extends A { }", "E0203");
    }

    #[test]
    fn duplicate_member_rejected() {
        expect_error(
            "device D { source s as Integer; source s as Float; }",
            "E0204",
        );
    }

    #[test]
    fn override_of_inherited_member_rejected() {
        expect_error(
            r#"
            device Base { action update(status as String); }
            device Child extends Base { action update(status as String); }
            "#,
            "E0205",
        );
    }

    #[test]
    fn unknown_type_rejected() {
        expect_error("device D { source s as Mystery; }", "E0206");
    }

    #[test]
    fn device_used_as_type_rejected() {
        expect_error(
            "device D { source s as Integer; } device E { source t as D; }",
            "E0206",
        );
    }

    #[test]
    fn duplicate_struct_field_rejected() {
        expect_error("structure S { f as Integer; f as Float; }", "E0210");
    }

    #[test]
    fn duplicate_enum_variant_rejected() {
        expect_error("enumeration E { A, A }", "E0211");
    }

    #[test]
    fn empty_enum_rejected() {
        expect_error("enumeration E { }", "E0212");
    }

    #[test]
    fn unknown_device_in_trigger_rejected() {
        expect_error(
            "context C as Integer { when provided s from Ghost always publish; }",
            "E0220",
        );
    }

    #[test]
    fn unknown_source_rejected_with_suggestions() {
        let (_, diags) = check_src(
            r#"
            device Cooker { source consumption as Float; }
            context C as Integer {
              when provided power from Cooker always publish;
            }
            "#,
        );
        let diag = diags.find("E0221").expect("E0221");
        assert!(
            diag.notes.iter().any(|(n, _)| n.contains("consumption")),
            "{diag:?}"
        );
    }

    #[test]
    fn unknown_context_trigger_rejected() {
        expect_error(
            "context C as Integer { when provided Ghost always publish; }",
            "E0222",
        );
    }

    #[test]
    fn scc_violation_context_subscribing_to_controller() {
        expect_error(
            r#"
            device D { source s as Integer; action a; }
            context C1 as Integer { when provided s from D always publish; }
            controller Ctl { when provided C1 do a on D; }
            context C2 as Integer { when provided Ctl always publish; }
            "#,
            "E0223",
        );
    }

    #[test]
    fn get_of_non_required_context_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; }
            context A as Integer { when provided s from D always publish; }
            context B as Integer {
              when provided s from D get A always publish;
            }
            "#,
            "E0224",
        );
    }

    #[test]
    fn get_of_required_context_allowed() {
        expect_clean(
            r#"
            device D { source s as Integer; action act; }
            context A as Integer {
              when periodic s from D <1 min> no publish;
              when required;
            }
            context B as Integer {
              when provided s from D get A always publish;
            }
            controller Ctl { when provided B do act on D; }
            "#,
        );
    }

    #[test]
    fn subscription_to_non_publishing_context_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; }
            context A as Integer {
              when periodic s from D <1 min> no publish;
              when required;
            }
            context B as Integer { when provided A always publish; }
            "#,
            "E0225",
        );
    }

    #[test]
    fn grouping_requires_device_trigger() {
        expect_error(
            r#"
            device D { source s as Integer; action a; }
            context A as Integer { when provided s from D always publish; }
            context B as Integer[] {
              when provided A grouped by lot always publish;
            }
            controller Ctl { when provided B do a on D; }
            "#,
            "E0226",
        );
    }

    #[test]
    fn grouping_attribute_must_exist() {
        expect_error(
            r#"
            device Sensor { source presence as Boolean; }
            context C as Integer[] {
              when periodic presence from Sensor <10 min>
                grouped by parkingLot always publish;
            }
            "#,
            "E0227",
        );
    }

    #[test]
    fn float_attribute_cannot_group() {
        expect_error(
            r#"
            device Sensor {
              attribute position as Float;
              source presence as Boolean;
            }
            context C as Integer[] {
              when periodic presence from Sensor <10 min>
                grouped by position always publish;
            }
            "#,
            "E0301",
        );
    }

    #[test]
    fn context_cycle_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; }
            context A as Integer { when provided B always publish; }
            context B as Integer { when provided A always publish; }
            "#,
            "E0229",
        );
    }

    #[test]
    fn zero_period_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; }
            context C as Integer { when periodic s from D <0 min> always publish; }
            "#,
            "E0230",
        );
    }

    #[test]
    fn controller_unknown_context_rejected() {
        expect_error(
            "device D { action a; } controller C { when provided Ghost do a on D; }",
            "E0240",
        );
    }

    #[test]
    fn controller_on_non_publishing_context_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; action a; }
            context A as Integer {
              when periodic s from D <1 min> no publish;
              when required;
            }
            controller C { when provided A do a on D; }
            "#,
            "E0241",
        );
    }

    #[test]
    fn controller_unknown_device_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; }
            context A as Integer { when provided s from D always publish; }
            controller C { when provided A do a on Ghost; }
            "#,
            "E0242",
        );
    }

    #[test]
    fn controller_unknown_action_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; action real; }
            context A as Integer { when provided s from D always publish; }
            controller C { when provided A do fake on D; }
            "#,
            "E0243",
        );
    }

    #[test]
    fn invalid_error_policy_rejected() {
        expect_error(
            r#"
            @error(policy = "explode")
            device D { source s as Integer; }
            "#,
            "E0250",
        );
    }

    #[test]
    fn valid_error_policy_accepted() {
        let (model, diags) = check_src(
            r#"
            @error(policy = "retry", attempts = 3)
            device D { source s as Integer; action a; }
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
        );
        assert!(!diags.has_errors(), "{diags:?}");
        let model = model.unwrap();
        let ann = &model.device("D").unwrap().annotations[0];
        assert_eq!(ann.name, "error");
        assert_eq!(ann.arg("attempts").and_then(AnnotationArg::as_int), Some(3));
        assert_eq!(
            ann.arg("policy").and_then(AnnotationArg::as_str),
            Some("retry")
        );
    }

    #[test]
    fn error_without_policy_rejected() {
        expect_error(
            r#"
            @error(attempts = 3)
            device D { source s as Integer; }
            "#,
            "E0250",
        );
    }

    #[test]
    fn error_with_bad_attempts_rejected() {
        expect_error(
            r#"
            @error(policy = "retry", attempts = 0)
            device D { source s as Integer; }
            "#,
            "E0250",
        );
        expect_error(
            r#"
            @error(policy = "retry", attempts = "three")
            device D { source s as Integer; }
            "#,
            "E0250",
        );
    }

    #[test]
    fn error_with_non_action_fallback_rejected() {
        expect_error(
            r#"
            @error(policy = "retry", fallback = 7)
            device D { source s as Integer; action safe; }
            "#,
            "E0250",
        );
    }

    #[test]
    fn unknown_error_argument_warned() {
        expect_warning(
            r#"
            @error(policy = "retry", atempts = 3)
            device D { source s as Integer; action a; }
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
            "W0308",
        );
    }

    #[test]
    fn fallback_must_name_a_declared_action() {
        expect_error(
            r#"
            @error(policy = "retry", fallback = "vanish")
            device D { source s as Integer; action safe; }
            "#,
            "E0252",
        );
    }

    #[test]
    fn fallback_must_be_parameterless() {
        expect_error(
            r#"
            @error(policy = "retry", fallback = "adjust")
            device D { source s as Integer; action adjust(level as Integer); }
            "#,
            "E0252",
        );
    }

    #[test]
    fn fallback_may_be_inherited() {
        let (model, diags) = check_src(
            r#"
            device Base { action neutral; }
            @error(policy = "retry", attempts = 2, fallback = "neutral")
            device D extends Base { source s as Integer; action a; }
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
        );
        assert!(!diags.has_errors(), "{diags:?}");
        let model = model.unwrap();
        let ann = &model.device("D").unwrap().annotations[0];
        assert_eq!(
            ann.arg("fallback").and_then(AnnotationArg::as_str),
            Some("neutral")
        );
    }

    #[test]
    fn warn_grouped_output_not_array() {
        expect_warning(
            r#"
            device Sensor {
              attribute lot as String;
              source presence as Boolean;
            }
            device Panel { action update(s as String); }
            context C as Integer {
              when periodic presence from Sensor <10 min>
                grouped by lot always publish;
            }
            controller Ct { when provided C do update on Panel; }
            "#,
            "W0301",
        );
    }

    #[test]
    fn warn_context_never_observable() {
        expect_warning(
            r#"
            device D { source s as Integer; }
            context C as Integer {
              when periodic s from D <1 min> no publish;
            }
            "#,
            "W0302",
        );
    }

    #[test]
    fn warn_published_but_unconsumed() {
        expect_warning(
            r#"
            device D { source s as Integer; }
            context C as Integer { when provided s from D always publish; }
            "#,
            "W0303",
        );
    }

    #[test]
    fn warn_window_not_multiple_of_period() {
        expect_warning(
            r#"
            device Sensor {
              attribute lot as String;
              source presence as Boolean;
            }
            device Panel { action update(s as String); }
            context C as Integer[] {
              when periodic presence from Sensor <7 min>
                grouped by lot every <1 hr>
                always publish;
            }
            controller Ct { when provided C do update on Panel; }
            "#,
            "W0305",
        );
    }

    #[test]
    fn warn_unknown_annotation() {
        expect_warning(
            r#"
            @shiny(level = 9)
            device D { source s as Integer; action a; }
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
            "W0306",
        );
    }

    #[test]
    fn subscription_against_ancestor_source_resolves() {
        let model = expect_clean(
            r#"
            device BaseSensor { source reading as Float; }
            device Thermometer extends BaseSensor {
              attribute room as String;
            }
            device Heater { action setLevel(level as Integer); }
            context RoomTemp as Float {
              when provided reading from Thermometer always publish;
            }
            controller HeatCtl { when provided RoomTemp do setLevel on Heater; }
            "#,
        );
        let thermo = model.device("Thermometer").unwrap();
        assert_eq!(thermo.source("reading").unwrap().declared_in, "BaseSensor");
    }

    #[test]
    fn multiple_errors_reported_in_one_run() {
        let (_, diags) = check_src(
            r#"
            device D extends Ghost { source s as Mystery; }
            context C as Unknown { when provided x from Nowhere always publish; }
            "#,
        );
        assert!(diags.error_count() >= 4, "want many errors, got {diags:?}");
    }

    #[test]
    fn map_reduce_types_resolved() {
        let model = expect_clean(
            r#"
            device PresenceSensor {
              attribute parkingLot as Lot;
              source presence as Boolean;
            }
            device Panel { action update(s as String); }
            context Availability as Count[] {
              when periodic presence from PresenceSensor <10 min>
                grouped by parkingLot
                with map as Boolean reduce as Integer
                always publish;
            }
            controller P { when provided Availability do update on Panel; }
            structure Count { lot as Lot; count as Integer; }
            enumeration Lot { A, B }
            "#,
        );
        let ctx = model.context("Availability").unwrap();
        let grouping = ctx.activations[0].grouping.as_ref().unwrap();
        assert_eq!(grouping.attribute_ty, Type::Enum("Lot".into()));
        assert_eq!(grouping.map_reduce, Some((Type::Boolean, Type::Integer)));
        assert_eq!(grouping.window_ms, None);
    }

    #[test]
    fn invalid_qos_argument_rejected() {
        expect_error(
            r#"
            device D { source s as Integer; }
            @qos(latencyMs = "fast")
            context C as Integer { when provided s from D always publish; }
            "#,
            "E0251",
        );
        expect_error(
            r#"
            @qos(latencyMs = 0)
            device D { source s as Integer; }
            "#,
            "E0251",
        );
    }

    #[test]
    fn unknown_qos_argument_warns() {
        expect_warning(
            r#"
            @qos(throughput = 9)
            device D { source s as Integer; action a; }
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
            "W0307",
        );
    }

    #[test]
    fn valid_qos_accepted() {
        let (model, diags) = check_src(
            r#"
            device D { source s as Integer; action a; }
            @qos(latencyMs = 50, priority = 2)
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
        let ctx = model.unwrap();
        let ann = &ctx.context("C").unwrap().annotations[0];
        assert_eq!(
            ann.arg("latencyMs").and_then(AnnotationArg::as_int),
            Some(50)
        );
    }

    #[test]
    fn invalid_quality_argument_rejected() {
        // Coverage is a percentage: zero and >100 are both out of range.
        expect_error(
            r#"
            device D { source s as Integer; }
            @quality(coverage = 0)
            context C as Integer { when provided s from D always publish; }
            "#,
            "E0253",
        );
        expect_error(
            r#"
            device D { source s as Integer; }
            @quality(coverage = 120)
            context C as Integer { when provided s from D always publish; }
            "#,
            "E0253",
        );
        expect_error(
            r#"
            device D { source s as Integer; }
            @quality(deadlineMs = "soon")
            context C as Integer { when provided s from D always publish; }
            "#,
            "E0253",
        );
    }

    #[test]
    fn unknown_quality_argument_warns() {
        expect_warning(
            r#"
            device D { source s as Integer; action a; }
            @quality(freshness = 9)
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
            "W0309",
        );
    }

    #[test]
    fn valid_quality_accepted() {
        let (model, diags) = check_src(
            r#"
            device D { source s as Integer; action a; }
            @quality(coverage = 80, deadlineMs = 500)
            context C as Integer { when provided s from D always publish; }
            controller Ct { when provided C do a on D; }
            "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
        let ctx = model.unwrap();
        let ann = &ctx.context("C").unwrap().annotations[0];
        assert_eq!(
            ann.arg("coverage").and_then(AnnotationArg::as_int),
            Some(80)
        );
        assert_eq!(
            ann.arg("deadlineMs").and_then(AnnotationArg::as_int),
            Some(500)
        );
    }
}
