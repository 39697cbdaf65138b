//! The compiled design: the checked spec lowered, once per orchestrator,
//! to dense ids and `Vec`-indexed tables.
//!
//! The design compiler resolves everything it can before run time (paper
//! §V); so does the engine. [`Design::build`] interns every context,
//! controller, device type and event source into a [`Names`] table and
//! resolves, per id, what the declaration fixes: publish modes, output
//! type, budgets, subscription routes and actuation permissions. The
//! pipeline then moves `u32` ids and shared handles; a name is read back
//! from its table only where a person reads it — an error message, or a
//! trace or span label built inside a telemetry verb's closure.
//!
//! The tables are read-only after construction and shared as an
//! `Arc<Design>`, so a stage can hold them (and borrow names from them)
//! while it mutates the engine.

use super::deliver::RouteTable;
use crate::names::Names;
use diaspec_core::model::{ActivationTrigger, CheckedSpec, InputRef, PublishMode, QualityBudget};
use diaspec_core::types::Type;

/// The compiled design. See the [module docs](self).
pub(crate) struct Design {
    pub(crate) contexts: Names,
    pub(crate) controllers: Names,
    /// The registry's device-type table: an entity record caches its id.
    pub(crate) types: Names,
    /// Every source name some device declares.
    pub(crate) sources: Names,
    /// Every action name some device declares.
    actions: Names,
    /// Per context id.
    context_decls: Vec<ContextDecl>,
    /// Per `type * sources.len() + source`: whether the device type
    /// declares (or inherits) the source.
    declared_sources: Vec<bool>,
    /// `(controller, device type, action)` triples a `do ... on ...`
    /// clause permits — the declared device or any subtype — sorted for
    /// a binary search. Flat, so a thousand one-clause controllers cost
    /// a thousand triples, not a thousand tables.
    permits: Vec<(u32, u32, u32)>,
    /// Per `controller * types.len() + type`: whether the controller
    /// actuates a type of that device's family (a subtype or an ancestor
    /// of a declared device), which is what it may discover and hear
    /// recoveries of.
    addresses: Vec<bool>,
    /// Per `context * types.len() + type`: whether the context
    /// subscribes to, polls or `get`s a source of a device that type is
    /// (or extends), which is what it hears recoveries of.
    references: Vec<bool>,
    /// Subscription routes, by id.
    pub(crate) routes: RouteTable,
}

/// What a context's declaration fixes.
pub(crate) struct ContextDecl {
    /// Per activation, its declared publish mode.
    pub(crate) publish: Vec<PublishMode>,
    /// Per activation, its `when periodic` trigger, if it has one.
    pub(crate) periodic: Vec<Option<Periodic>>,
    /// Whether the context declares `when required`.
    pub(crate) required: bool,
    pub(crate) output: Type,
    /// Whether an activation declares `with map ... reduce ...`.
    pub(crate) map_reduce: bool,
    /// `@qos(latencyMs = N)`.
    pub(crate) qos_ms: Option<u64>,
    /// `@quality(...)`; without the annotation a batch must be complete
    /// and has no deadline.
    pub(crate) quality: QualityBudget,
}

/// What a `when periodic <src> from <Dev> <P>` activation fixes.
pub(crate) struct Periodic {
    /// The polled device type.
    pub(crate) device: u32,
    pub(crate) source: u32,
    pub(crate) period_ms: u64,
    /// The `grouped by` attribute.
    pub(crate) group_by: Option<String>,
    /// `every <W>`.
    pub(crate) window_ms: Option<u64>,
    /// Whether the grouping declares `with map ... reduce ...`.
    pub(crate) map_reduce: bool,
}

/// The component a delivery event is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    Context(u32),
    Controller(u32),
}

impl Design {
    /// Compiles `spec` against the registry's device-type table.
    pub(crate) fn build(spec: &CheckedSpec, types: Names) -> Self {
        // The spec enumerates each kind in name order, which is id order.
        let contexts = Names::new(spec.contexts().map(|c| c.name.as_str()));
        let controllers = Names::new(spec.controllers().map(|c| c.name.as_str()));
        let sources = Names::new(
            spec.devices()
                .flat_map(|d| d.sources.iter().map(|s| s.name.as_str())),
        );
        let mut declared_sources = vec![false; types.len() * sources.len()];
        for device in spec.devices() {
            let Some(ty) = types.id(&device.name) else {
                continue;
            };
            for source in device.sources.iter().filter_map(|s| sources.id(&s.name)) {
                declared_sources[ty as usize * sources.len() + source as usize] = true;
            }
        }
        let context_decls = spec
            .contexts()
            .map(|c| ContextDecl {
                publish: c.activations.iter().map(|a| a.publish).collect(),
                periodic: c
                    .activations
                    .iter()
                    .map(|a| {
                        let ActivationTrigger::Periodic {
                            device,
                            source,
                            period_ms,
                        } = &a.trigger
                        else {
                            return None;
                        };
                        Some(Periodic {
                            device: types.id(device)?,
                            source: sources.id(source)?,
                            period_ms: *period_ms,
                            group_by: a.grouping.as_ref().map(|g| g.attribute.clone()),
                            window_ms: a.grouping.as_ref().and_then(|g| g.window_ms),
                            map_reduce: a.grouping.as_ref().is_some_and(|g| g.map_reduce.is_some()),
                        })
                    })
                    .collect(),
                required: c.is_required(),
                output: c.output.clone(),
                map_reduce: c.uses_map_reduce(),
                qos_ms: c.qos_latency_ms(),
                quality: c.quality().unwrap_or_default(),
            })
            .collect();
        let actions = Names::new(
            spec.devices()
                .flat_map(|d| d.actions.iter().map(|a| a.name.as_str())),
        );
        // `is_subtype[a * types + b]`: type `a` is `b` or extends it.
        let is_subtype: Vec<bool> = types
            .ids()
            .flat_map(|a| types.ids().map(move |b| (a, b)))
            .map(|(a, b)| spec.device_is_subtype(types.name(a), types.name(b)))
            .collect();
        let mut permits = Vec::new();
        let mut addresses = vec![false; controllers.len() * types.len()];
        for (ctl, ctrl) in (0u32..).zip(spec.controllers()) {
            for (action, device) in ctrl.bindings.iter().flat_map(|b| &b.actions) {
                let (Some(declared), Some(act)) = (types.id(device), actions.id(action)) else {
                    continue;
                };
                for ty in types.ids() {
                    let at = ctl as usize * types.len() + ty as usize;
                    if is_subtype[ty as usize * types.len() + declared as usize] {
                        permits.push((ctl, ty, act));
                        addresses[at] = true;
                    } else if is_subtype[declared as usize * types.len() + ty as usize] {
                        addresses[at] = true;
                    }
                }
            }
        }
        permits.sort_unstable();
        permits.dedup();
        let mut references = vec![false; contexts.len() * types.len()];
        for (ctx, context) in (0u32..).zip(spec.contexts()) {
            let devices = context.activations.iter().flat_map(|a| {
                let trigger = match &a.trigger {
                    ActivationTrigger::DeviceSource { device, .. }
                    | ActivationTrigger::Periodic { device, .. } => Some(device),
                    _ => None,
                };
                let gets = a.gets.iter().filter_map(|g| match g {
                    InputRef::DeviceSource { device, .. } => Some(device),
                    InputRef::Context(_) => None,
                });
                trigger.into_iter().chain(gets)
            });
            for declared in devices.filter_map(|d| types.id(d)) {
                for ty in types.ids() {
                    if is_subtype[ty as usize * types.len() + declared as usize] {
                        references[ctx as usize * types.len() + ty as usize] = true;
                    }
                }
            }
        }
        let routes = RouteTable::build(spec, &contexts, &types, &sources);
        Design {
            contexts,
            controllers,
            types,
            sources,
            actions,
            context_decls,
            declared_sources,
            permits,
            addresses,
            references,
            routes,
        }
    }

    /// What context `id`'s declaration fixes.
    pub(crate) fn context(&self, id: u32) -> &ContextDecl {
        &self.context_decls[id as usize]
    }

    /// The id of `source` when device type `ty` declares it.
    pub(crate) fn source_of(&self, ty: u32, source: &str) -> Option<u32> {
        let id = self.sources.id(source)?;
        let at = ty as usize * self.sources.len() + id as usize;
        self.declared_sources[at].then_some(id)
    }

    /// Whether controller `ctl` declares `do action on` device type `ty`
    /// (or an ancestor of it).
    pub(crate) fn may_invoke(&self, ctl: u32, ty: u32, action: &str) -> bool {
        self.actions
            .id(action)
            .is_some_and(|act| self.permits.binary_search(&(ctl, ty, act)).is_ok())
    }

    /// Whether controller `ctl` actuates a device of `device_type`'s
    /// family; false for an undeclared type.
    pub(crate) fn addresses(&self, ctl: u32, device_type: &str) -> bool {
        self.types
            .id(device_type)
            .is_some_and(|ty| self.addresses[ctl as usize * self.types.len() + ty as usize])
    }

    /// Whether context `ctx` reads a source of `device_type`'s family
    /// (the type or an ancestor is declared); false for an undeclared
    /// type.
    pub(crate) fn references(&self, ctx: u32, device_type: &str) -> bool {
        self.types
            .id(device_type)
            .is_some_and(|ty| self.references[ctx as usize * self.types.len() + ty as usize])
    }

    /// The name of a delivery's target.
    pub(crate) fn target_name(&self, target: Target) -> &str {
        match target {
            Target::Context(id) => self.contexts.name(id),
            Target::Controller(id) => self.controllers.name(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;

    const SPEC: &str = r#"
        device Lamp { source lit as Boolean; action setOn; action setOff; }
        device Spot extends Lamp { source angle as Integer; }
        device Siren { action wail; }
        context Lit as Boolean { when provided lit from Lamp maybe publish; }
        controller Dim { when provided Lit do setOff on Spot; }
        controller Panic { when provided Lit do wail on Siren do setOn on Lamp; }
    "#;

    fn design() -> Design {
        let spec = compile_str(SPEC).unwrap();
        let types = Names::new(spec.devices().map(|d| d.name.as_str()));
        Design::build(&spec, types)
    }

    #[test]
    fn permissions_follow_the_subtype_relation() {
        let d = design();
        let ty = |name| d.types.id(name).unwrap();
        let ctl = |name| d.controllers.id(name).unwrap();
        // `do setOn on Lamp` permits a Spot (a subtype), not the reverse.
        assert!(d.may_invoke(ctl("Panic"), ty("Lamp"), "setOn"));
        assert!(d.may_invoke(ctl("Panic"), ty("Spot"), "setOn"));
        assert!(!d.may_invoke(ctl("Dim"), ty("Lamp"), "setOff"));
        assert!(d.may_invoke(ctl("Dim"), ty("Spot"), "setOff"));
        assert!(!d.may_invoke(ctl("Dim"), ty("Spot"), "setOn"));
        // Discovery reaches the family both ways; undeclared types never.
        assert!(d.addresses(ctl("Dim"), "Lamp"));
        assert!(!d.addresses(ctl("Dim"), "Siren"));
        assert!(d.addresses(ctl("Panic"), "Siren"));
        assert!(!d.addresses(ctl("Panic"), "Ghost"));
        // A context hears recoveries of the declared device and its
        // subtypes only.
        let lit = d.contexts.id("Lit").unwrap();
        assert!(d.references(lit, "Lamp"));
        assert!(d.references(lit, "Spot"));
        assert!(!d.references(lit, "Siren"));
        assert!(!d.references(lit, "Ghost"));
    }

    #[test]
    fn declared_sources_include_inherited_ones() {
        let d = design();
        let spot = d.types.id("Spot").unwrap();
        let lamp = d.types.id("Lamp").unwrap();
        assert_eq!(d.source_of(spot, "lit"), d.sources.id("lit"));
        assert!(d.source_of(spot, "angle").is_some());
        assert!(d.source_of(lamp, "angle").is_none());
        assert!(d.source_of(lamp, "ghost").is_none());
    }
}
