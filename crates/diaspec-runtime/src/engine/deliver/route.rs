//! Stage 2 — **route**: resolve an admitted payload to its subscribers.
//!
//! Subscriptions are declared in the spec and the spec is immutable, so
//! the engine resolves them once, at construction, into a [`RouteTable`]
//! indexed by the compiled design's ids
//! ([`Design`](crate::engine::design::Design)): `(device type, source)`
//! → the event-driven context subscribers, and `context` → the downstream
//! context/controller subscribers. The hot fan-out paths then index a
//! precomputed slice instead of re-filtering every declared context, or
//! building a name key, per emission.
//!
//! Ordering is part of the engine's determinism contract: routes preserve
//! the name-ordered subscriber enumeration of
//! [`CheckedSpec::subscribers_of_source`] and
//! [`CheckedSpec::subscribers_of_context`] (contexts before controllers),
//! so the refactor from dynamic lookup to table lookup is
//! trace-invisible. Activation indices are resolved at build time with
//! the same predicate the dynamic lookup used, which makes the stored
//! index provably equal to a delivery-time resolution.

use crate::engine::design::Design;
use crate::engine::Orchestrator;
use crate::entity::EntityId;
use crate::names::Names;
use crate::payload::Payload;
use crate::spans::{SpanCtx, SpanStage};
use diaspec_core::model::{ActivationTrigger, CheckedSpec};
use std::collections::BTreeSet;
use std::sync::Arc;

use super::Event;

/// One event-driven subscription of a context to a `(device, source)`
/// emission.
pub(crate) struct SourceRoute {
    /// The subscribed context.
    pub(crate) context: u32,
    /// Index of the matching `when provided ... from ...` activation.
    pub(crate) activation_idx: usize,
}

/// One subscription to a context's publications.
pub(crate) enum ContextRoute {
    /// A downstream context (`when provided Ctx`); QoS budgets apply.
    Context {
        id: u32,
        /// Index of the matching `when provided Ctx` activation.
        activation_idx: usize,
    },
    /// A subscribed controller.
    Controller { id: u32 },
}

/// The precomputed subscription tables. Built once per orchestrator from
/// the immutable spec; see the [module docs](self).
pub(crate) struct RouteTable {
    /// Row length of `source_routes`: the number of source names.
    sources: usize,
    /// `concrete device type * sources + source` → event-driven
    /// subscribers, in spec (name) order.
    source_routes: Vec<Vec<SourceRoute>>,
    /// Publishing context → subscribers (contexts first, then
    /// controllers, each in name order).
    context_routes: Vec<Vec<ContextRoute>>,
}

impl RouteTable {
    /// Resolves every possible subscription in `spec` to the ids of the
    /// given name tables.
    pub(crate) fn build(
        spec: &CheckedSpec,
        contexts: &Names,
        types: &Names,
        sources: &Names,
    ) -> Self {
        // Candidate sources: every source name appearing in an
        // event-driven (`when provided ... from ...`) trigger. Periodic
        // subscriptions poll; they never consume emissions.
        let mut event_sources: BTreeSet<&str> = BTreeSet::new();
        for ctx in spec.contexts() {
            for activation in &ctx.activations {
                if let ActivationTrigger::DeviceSource { source, .. } = &activation.trigger {
                    event_sources.insert(source);
                }
            }
        }
        let mut source_routes: Vec<Vec<SourceRoute>> = Vec::new();
        source_routes.resize_with(types.len() * sources.len(), Vec::new);
        for ty in types.ids() {
            let device = types.name(ty);
            for source in &event_sources {
                let Some(src) = sources.id(source) else {
                    continue;
                };
                source_routes[ty as usize * sources.len() + src as usize] = spec
                    .subscribers_of_source(device, source)
                    .into_iter()
                    .filter_map(|ctx| {
                        let activation_idx = ctx.activations.iter().position(|a| {
                            matches!(
                                &a.trigger,
                                ActivationTrigger::DeviceSource { device: d, source: s }
                                    if s == *source && spec.device_is_subtype(device, d)
                            )
                        })?;
                        Some(SourceRoute {
                            context: contexts.id(&ctx.name)?,
                            activation_idx,
                        })
                    })
                    .collect();
            }
        }
        // Subscribers of each publisher, contexts before controllers, each
        // in name (= id) order: `CheckedSpec::subscribers_of_context`'s
        // order and predicate, resolved to ids without a lookup.
        let context_routes = spec
            .contexts()
            .map(|publisher| {
                let publisher = publisher.name.as_str();
                let downstream = spec.contexts().zip(0u32..).filter_map(|(ctx, id)| {
                    let activation_idx = ctx.activations.iter().position(|a| {
                        matches!(&a.trigger, ActivationTrigger::Context(from) if from == publisher)
                    })?;
                    Some(ContextRoute::Context { id, activation_idx })
                });
                let controllers = spec
                    .controllers()
                    .zip(0u32..)
                    .filter(|(ctrl, _)| ctrl.bindings.iter().any(|b| b.context == publisher))
                    .map(|(_, id)| ContextRoute::Controller { id });
                downstream.chain(controllers).collect()
            })
            .collect();
        RouteTable {
            sources: sources.len(),
            source_routes,
            context_routes,
        }
    }

    /// Event-driven subscribers of a `(concrete device type, source)`
    /// emission, in deterministic spec order. Empty when nothing
    /// subscribes.
    pub(crate) fn source_subscribers(&self, device_type: u32, source: u32) -> &[SourceRoute] {
        &self.source_routes[device_type as usize * self.sources + source as usize]
    }

    /// Subscribers of `context`'s publications (contexts first, then
    /// controllers). Empty when nothing subscribes.
    pub(crate) fn context_subscribers(&self, context: u32) -> &[ContextRoute] {
        &self.context_routes[context as usize]
    }
}

impl Orchestrator {
    /// Fans an admitted emission out to its subscribed contexts: one
    /// [`Event::SourceDeliver`] per route, each carrying a clone of the
    /// shared payload handle. One route span covers the whole fan-out;
    /// each scheduled delivery parents under it.
    pub(crate) fn fan_out_emission(
        &mut self,
        device_type: u32,
        entity: &EntityId,
        source: u32,
        value: &Payload,
        index: Option<&Payload>,
        span: SpanCtx,
    ) {
        let design = Arc::clone(&self.design);
        let now = self.queue.now();
        let route_scope = self.begin(span, SpanStage::Route, None, || {
            let device = design.types.name(device_type);
            format!("{device}.{}", design.sources.name(source)).into()
        });
        let ctx = route_scope.ctx();
        for route in design.routes.source_subscribers(device_type, source) {
            let event = Event::SourceDeliver {
                context: route.context,
                entity: entity.clone(),
                device_type,
                source,
                value: value.clone(),
                index: index.cloned(),
                activation_idx: route.activation_idx,
                span: ctx,
            };
            self.send_event(&design, event, 1, now);
        }
        self.end(route_scope);
    }

    /// Fans an admitted publication out to its subscribers — downstream
    /// contexts (QoS-budgeted) first, then controllers, as declared.
    pub(crate) fn fan_out_publication(
        &mut self,
        design: &Design,
        context: u32,
        value: &Payload,
        span: SpanCtx,
    ) {
        let now = self.queue.now();
        let route_scope = self.begin(span, SpanStage::Route, None, || {
            design.contexts.name(context).into()
        });
        let ctx = route_scope.ctx();
        for route in design.routes.context_subscribers(context) {
            let event = match *route {
                ContextRoute::Context { id, activation_idx } => Event::ContextDeliver {
                    context: id,
                    from: context,
                    value: value.clone(),
                    activation_idx,
                    span: ctx,
                },
                ContextRoute::Controller { id } => Event::ControllerDeliver {
                    controller: id,
                    from: context,
                    value: value.clone(),
                    span: ctx,
                },
            };
            self.send_event(design, event, 1, now);
        }
        self.end(route_scope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;

    const SPEC: &str = r#"
        device Sensor { source reading as Integer; }
        device FineSensor extends Sensor { source precision as Integer; }
        device Panel { action show(v as Integer); }
        context First as Integer {
          when provided reading from Sensor always publish;
        }
        context Second as Integer {
          when provided reading from FineSensor always publish;
        }
        context Chained as Integer {
          when provided First maybe publish;
        }
        controller Show { when provided First do show on Panel; }
    "#;

    fn design(spec: &CheckedSpec) -> Design {
        Design::build(spec, Names::new(spec.devices().map(|d| d.name.as_str())))
    }

    /// The subscribers of a `(device, source)` emission, by name.
    fn subscribers<'d>(design: &'d Design, device: &str, source: &str) -> Vec<&'d str> {
        let ty = design.types.id(device).unwrap();
        let Some(src) = design.sources.id(source) else {
            return Vec::new();
        };
        design
            .routes
            .source_subscribers(ty, src)
            .iter()
            .map(|r| design.contexts.name(r.context))
            .collect()
    }

    #[test]
    fn source_routes_respect_subtyping_and_order() {
        let spec = compile_str(SPEC).unwrap();
        let design = design(&spec);
        // A base-type emission reaches only the base-type subscriber...
        assert_eq!(subscribers(&design, "Sensor", "reading"), ["First"]);
        // ...while a subtype emission reaches both, in name order.
        assert_eq!(
            subscribers(&design, "FineSensor", "reading"),
            ["First", "Second"]
        );
        assert!(subscribers(&design, "Panel", "reading").is_empty());
        assert!(subscribers(&design, "Sensor", "precision").is_empty());
        assert!(subscribers(&design, "Sensor", "absent").is_empty());
    }

    #[test]
    fn stored_activation_indices_match_dynamic_resolution() {
        let spec = compile_str(SPEC).unwrap();
        let design = design(&spec);
        for ty in design.types.ids() {
            let device = design.types.name(ty);
            for src in design.sources.ids() {
                let source = design.sources.name(src);
                for route in design.routes.source_subscribers(ty, src) {
                    let dynamic = spec
                        .context(design.contexts.name(route.context))
                        .unwrap()
                        .activations
                        .iter()
                        .position(|a| {
                            matches!(
                                &a.trigger,
                                ActivationTrigger::DeviceSource { device: d, source: s }
                                    if s == source && spec.device_is_subtype(device, d)
                            )
                        });
                    assert_eq!(dynamic, Some(route.activation_idx));
                }
            }
        }
    }

    #[test]
    fn context_routes_list_contexts_before_controllers() {
        let spec = compile_str(SPEC).unwrap();
        let design = design(&spec);
        let id = |name| design.contexts.id(name).unwrap();
        let routes = design.routes.context_subscribers(id("First"));
        assert_eq!(routes.len(), 2);
        assert!(
            matches!(&routes[0], ContextRoute::Context { id: c, activation_idx }
                if *c == id("Chained") && *activation_idx == 0)
        );
        assert!(matches!(&routes[1], ContextRoute::Controller { id: c }
            if design.controllers.name(*c) == "Show"));
        assert!(design.routes.context_subscribers(id("Chained")).is_empty());
    }
}
