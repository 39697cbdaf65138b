//! Stage 2 — **route**: resolve an admitted payload to its subscribers.
//!
//! Subscriptions are declared in the spec and the spec is immutable, so
//! the engine resolves them once, at construction, into a [`RouteTable`]:
//! `(device type, source)` → the event-driven context subscribers, and
//! `context` → the downstream context/controller subscribers. The hot
//! fan-out paths then walk a precomputed slice instead of re-filtering
//! every declared context per emission.
//!
//! Ordering is part of the engine's determinism contract: routes preserve
//! the name-ordered subscriber enumeration of
//! [`CheckedSpec::subscribers_of_source`] and
//! [`CheckedSpec::subscribers_of_context`] (contexts before controllers),
//! so the refactor from dynamic lookup to table lookup is
//! trace-invisible. Activation indices are resolved at build time with
//! the same predicate the dynamic lookup used, which makes the stored
//! index provably equal to a delivery-time resolution.

use crate::engine::Orchestrator;
use crate::entity::EntityId;
use crate::payload::Payload;
use crate::spans::{SpanCtx, SpanStage};
use diaspec_core::model::{ActivationTrigger, CheckedSpec, Subscriber};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use super::Event;

/// One event-driven subscription of a context to a `(device, source)`
/// emission.
pub(crate) struct SourceRoute {
    /// The subscribed context.
    pub(crate) context: String,
    /// Index of the matching `when provided ... from ...` activation.
    pub(crate) activation_idx: usize,
}

/// One subscription to a context's publications.
pub(crate) enum ContextRoute {
    /// A downstream context (`when provided Ctx`); QoS budgets apply.
    Context {
        name: String,
        /// Index of the matching `when provided Ctx` activation.
        activation_idx: usize,
    },
    /// A subscribed controller.
    Controller { name: String },
}

/// The precomputed subscription tables. Built once per orchestrator from
/// the immutable spec; see the [module docs](self).
pub(crate) struct RouteTable {
    /// `(concrete device type, source)` → event-driven subscribers, in
    /// spec (name) order. Only non-empty routes are stored.
    source_routes: BTreeMap<(String, String), Vec<SourceRoute>>,
    /// Publishing context → subscribers (contexts first, then
    /// controllers, each in name order). Only non-empty routes are stored.
    context_routes: BTreeMap<String, Vec<ContextRoute>>,
}

impl RouteTable {
    /// Resolves every possible subscription in `spec`.
    pub(crate) fn build(spec: &CheckedSpec) -> Self {
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
        let mut source_routes = BTreeMap::new();
        for device in spec.devices() {
            for source in &event_sources {
                let routes: Vec<SourceRoute> = spec
                    .subscribers_of_source(&device.name, source)
                    .into_iter()
                    .filter_map(|ctx| {
                        ctx.activations
                            .iter()
                            .position(|a| {
                                matches!(
                                    &a.trigger,
                                    ActivationTrigger::DeviceSource { device: d, source: s }
                                        if s == *source && spec.device_is_subtype(&device.name, d)
                                )
                            })
                            .map(|activation_idx| SourceRoute {
                                context: ctx.name.clone(),
                                activation_idx,
                            })
                    })
                    .collect();
                if !routes.is_empty() {
                    source_routes.insert((device.name.clone(), (*source).to_owned()), routes);
                }
            }
        }
        let mut context_routes = BTreeMap::new();
        for ctx in spec.contexts() {
            let routes: Vec<ContextRoute> = spec
                .subscribers_of_context(&ctx.name)
                .into_iter()
                .map(|subscriber| match subscriber {
                    Subscriber::Context(name) => {
                        let activation_idx = spec
                            .context(&name)
                            .and_then(|c| {
                                c.activations.iter().position(|a| {
                                    matches!(
                                        &a.trigger,
                                        ActivationTrigger::Context(from) if *from == ctx.name
                                    )
                                })
                            })
                            .expect("subscriber has a matching activation");
                        ContextRoute::Context {
                            name,
                            activation_idx,
                        }
                    }
                    Subscriber::Controller(name) => ContextRoute::Controller { name },
                })
                .collect();
            if !routes.is_empty() {
                context_routes.insert(ctx.name.clone(), routes);
            }
        }
        RouteTable {
            source_routes,
            context_routes,
        }
    }

    /// Event-driven subscribers of a `(concrete device type, source)`
    /// emission, in deterministic spec order. Empty when nothing
    /// subscribes.
    pub(crate) fn source_subscribers(&self, device_type: &str, source: &str) -> &[SourceRoute] {
        self.source_routes
            .get(&(device_type.to_owned(), source.to_owned()))
            .map_or(&[], Vec::as_slice)
    }

    /// Subscribers of `context`'s publications (contexts first, then
    /// controllers). Empty when nothing subscribes.
    pub(crate) fn context_subscribers(&self, context: &str) -> &[ContextRoute] {
        self.context_routes.get(context).map_or(&[], Vec::as_slice)
    }
}

impl Orchestrator {
    /// Fans an admitted emission out to its subscribed contexts: one
    /// [`Event::SourceDeliver`] per route, each carrying a clone of the
    /// shared payload handle. One route span covers the whole fan-out;
    /// each scheduled delivery parents under it.
    pub(crate) fn fan_out_emission(
        &mut self,
        device_type: &str,
        entity: &EntityId,
        source: &str,
        value: &Payload,
        index: Option<&Payload>,
        span: SpanCtx,
    ) {
        let routes = Arc::clone(&self.routes);
        let now = self.queue.now();
        let route_scope = self.begin(span, SpanStage::Route, None, || {
            format!("{device_type}.{source}").into()
        });
        let ctx = route_scope.ctx();
        for route in routes.source_subscribers(device_type, source) {
            let event = Event::SourceDeliver {
                context: route.context.clone(),
                entity: entity.clone(),
                device_type: device_type.to_owned(),
                source: source.to_owned(),
                value: value.clone(),
                index: index.cloned(),
                activation_idx: route.activation_idx,
                span: ctx,
            };
            self.send_event(&route.context, true, event, 1, now);
        }
        self.end(route_scope);
    }

    /// Fans an admitted publication out to its subscribers — downstream
    /// contexts (QoS-budgeted) first, then controllers, as declared.
    pub(crate) fn fan_out_publication(&mut self, context: &str, value: &Payload, span: SpanCtx) {
        let routes = Arc::clone(&self.routes);
        let now = self.queue.now();
        let route_scope = self.begin(span, SpanStage::Route, None, || context.into());
        let ctx = route_scope.ctx();
        for route in routes.context_subscribers(context) {
            let (target, qos_context, event) = match route {
                ContextRoute::Context {
                    name,
                    activation_idx,
                } => (
                    name.as_str(),
                    true,
                    Event::ContextDeliver {
                        context: name.clone(),
                        from: context.to_owned(),
                        value: value.clone(),
                        activation_idx: *activation_idx,
                        span: ctx,
                    },
                ),
                ContextRoute::Controller { name } => (
                    name.as_str(),
                    false,
                    Event::ControllerDeliver {
                        controller: name.clone(),
                        from: context.to_owned(),
                        value: value.clone(),
                        span: ctx,
                    },
                ),
            };
            self.send_event(target, qos_context, event, 1, now);
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

    #[test]
    fn source_routes_respect_subtyping_and_order() {
        let spec = compile_str(SPEC).unwrap();
        let table = RouteTable::build(&spec);
        // A base-type emission reaches only the base-type subscriber...
        let base: Vec<&str> = table
            .source_subscribers("Sensor", "reading")
            .iter()
            .map(|r| r.context.as_str())
            .collect();
        assert_eq!(base, ["First"]);
        // ...while a subtype emission reaches both, in name order.
        let fine: Vec<&str> = table
            .source_subscribers("FineSensor", "reading")
            .iter()
            .map(|r| r.context.as_str())
            .collect();
        assert_eq!(fine, ["First", "Second"]);
        assert!(table.source_subscribers("Panel", "reading").is_empty());
        assert!(table.source_subscribers("Sensor", "absent").is_empty());
    }

    #[test]
    fn stored_activation_indices_match_dynamic_resolution() {
        let spec = compile_str(SPEC).unwrap();
        let table = RouteTable::build(&spec);
        for ((device, source), routes) in &table.source_routes {
            for route in routes {
                let dynamic = spec
                    .context(&route.context)
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

    #[test]
    fn context_routes_list_contexts_before_controllers() {
        let spec = compile_str(SPEC).unwrap();
        let table = RouteTable::build(&spec);
        let routes = table.context_subscribers("First");
        assert_eq!(routes.len(), 2);
        assert!(
            matches!(&routes[0], ContextRoute::Context { name, activation_idx }
                if name == "Chained" && *activation_idx == 0)
        );
        assert!(matches!(&routes[1], ContextRoute::Controller { name } if name == "Show"));
        assert!(table.context_subscribers("Chained").is_empty());
    }
}
