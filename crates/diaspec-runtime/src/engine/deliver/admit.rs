//! Stage 1 — **admit**: a value enters the delivery pipeline.
//!
//! Admission is the single place where a raw [`Value`] becomes a shared
//! [`Payload`] handle (one allocation); every later stage — routing
//! fan-out, injected duplicates, retry re-sends, window accumulation —
//! clones the handle. Admission also owns the entry-side design checks
//! and bookkeeping, in this order (the order is pinned by the golden
//! traces):
//!
//! - **emissions**: crashed-device gate → emission metric → `Emission`
//!   trace → device-type lookup, then hand-off to the route stage;
//! - **publications**: publish-mode contract (`always` must publish, `no`
//!   must not) → output-type conformance → publication metric →
//!   `Publication` trace → cache as the context's last value, then
//!   hand-off to the route stage.

use crate::engine::Orchestrator;
use crate::entity::EntityId;
use crate::error::RuntimeError;
use crate::payload::Payload;
use crate::spans::{SpanCtx, SpanStage};
use crate::trace::TraceKind;
use crate::value::Value;
use diaspec_core::model::PublishMode;

use super::super::design::Design;

use super::Event;

impl Orchestrator {
    /// Emits a source value from an entity at absolute time `at`
    /// (event-driven delivery). Primarily used by tests and examples;
    /// simulation processes use
    /// [`ProcessApi::emit`](crate::engine::ProcessApi::emit).
    ///
    /// The value is wrapped into a shared [`Payload`] handle here, once;
    /// downstream fan-out clones the handle.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] if the entity is not bound or its device
    /// does not declare `source`.
    pub fn emit_at(
        &mut self,
        at: crate::clock::SimTime,
        entity: &EntityId,
        source: &str,
        value: Value,
        index: Option<Value>,
    ) -> Result<(), RuntimeError> {
        let device_type =
            self.registry
                .device_type_id(entity)
                .ok_or_else(|| RuntimeError::Unknown {
                    kind: "entity",
                    name: entity.to_string(),
                })?;
        let Some(source) = self.design.source_of(device_type, source) else {
            return Err(RuntimeError::Unknown {
                kind: "source",
                name: format!("{source} on {}", self.design.types.name(device_type)),
            });
        };
        self.queue.schedule(
            at,
            Event::Emit {
                entity: entity.clone(),
                source,
                value: Payload::new(value),
                index: index.map(Payload::new),
            },
        );
        Ok(())
    }

    /// Admits one due emission and hands it to the route stage. Every
    /// emission mints a fresh trace when span tracing is on; the admit
    /// span closes before routing begins (the stages are sequential, not
    /// nested).
    pub(crate) fn dispatch_emit(
        &mut self,
        design: &Design,
        entity: &EntityId,
        source: u32,
        value: &Payload,
        index: Option<&Payload>,
    ) {
        let source_name = design.sources.name(source);
        let root = self.flow(SpanCtx::NONE);
        let admit = self.begin(root, SpanStage::Admit, None, || {
            format!("{entity}.{source_name}").into()
        });
        let device_type = self.admit_emission(entity, source_name);
        let span = admit.ctx();
        self.end(admit);
        let Some(device_type) = device_type else {
            return;
        };
        self.fan_out_emission(device_type, entity, source, value, index, span);
    }

    /// Entry checks and bookkeeping for an emission; returns the emitting
    /// entity's concrete device type when the emission proceeds.
    fn admit_emission(&mut self, entity: &EntityId, source: &str) -> Option<u32> {
        // A crashed device emits nothing until it restarts.
        if self.faults.is_some() && self.registry.is_crashed(entity) {
            return None;
        }
        self.metrics.emissions += 1;
        self.note(|| TraceKind::Emission {
            entity: entity.to_string(),
            source: source.to_owned(),
        });
        // The entity may have been unbound between emission and dispatch.
        self.registry.device_type_id(entity)
    }

    /// Enforces an activation's declared publish mode on its result.
    /// `span` carries the activating computation's trace so the resulting
    /// publication joins it ([`SpanCtx::NONE`] starts a fresh trace).
    pub(crate) fn handle_publication(
        &mut self,
        design: &Design,
        context: u32,
        mode: PublishMode,
        value: Option<Value>,
        span: SpanCtx,
    ) {
        let violation = |message: &str| RuntimeError::ContractViolation {
            component: design.contexts.name(context).to_owned(),
            message: message.to_owned(),
        };
        match (mode, value) {
            (PublishMode::Always, None) => {
                let error = violation("activation declared `always publish` but produced no value");
                self.contain(error);
            }
            (PublishMode::No, Some(_)) => {
                let error = violation("activation declared `no publish` but produced a value");
                self.contain(error);
            }
            (PublishMode::Maybe, None) => {
                self.metrics.publications_declined += 1;
            }
            (PublishMode::No, None) => {}
            (PublishMode::Always | PublishMode::Maybe, Some(value)) => {
                self.publish(design, context, value, span);
            }
        }
    }

    /// Admits one context publication — conformance check, bookkeeping,
    /// last-value cache — then hands it to the route stage.
    fn publish(&mut self, design: &Design, context: u32, value: Value, span: SpanCtx) {
        let name = design.contexts.name(context);
        let output_ty = &design.context(context).output;
        if !value.conforms_to(output_ty, &self.spec) {
            self.contain(RuntimeError::TypeMismatch {
                at: format!("publication of context `{name}`"),
                expected: output_ty.to_string(),
                found: value.to_string(),
            });
            return;
        }
        let flow = self.flow(span);
        let admit = self.begin(flow, SpanStage::Admit, None, || name.into());
        let payload = Payload::new(value);
        self.metrics.publications += 1;
        self.note(|| TraceKind::Publication {
            context: name.to_owned(),
            value: payload.to_string(),
        });
        self.contexts[context as usize].last_value = Some(payload.clone());
        let ctx = admit.ctx();
        self.end(admit);
        self.fan_out_publication(design, context, &payload, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;
    use std::sync::Arc;

    fn orchestrator() -> Orchestrator {
        let spec = Arc::new(
            compile_str(
                r#"
                device Sensor { source reading as Integer; }
                context Watch as Integer {
                  when provided reading from Sensor always publish;
                }
                "#,
            )
            .unwrap(),
        );
        let mut orch = Orchestrator::new(spec);
        orch.bind_entity(
            "s1".into(),
            "Sensor",
            Default::default(),
            Box::new(|_: &str, _: u64| Ok(Value::Int(1))),
        )
        .unwrap();
        orch
    }

    #[test]
    fn emit_at_rejects_unbound_entities_and_undeclared_sources() {
        let mut orch = orchestrator();
        assert!(matches!(
            orch.emit_at(0, &"ghost".into(), "reading", Value::Int(1), None),
            Err(RuntimeError::Unknown { kind: "entity", .. })
        ));
        assert!(matches!(
            orch.emit_at(0, &"s1".into(), "humidity", Value::Int(1), None),
            Err(RuntimeError::Unknown { kind: "source", .. })
        ));
        assert!(orch
            .emit_at(0, &"s1".into(), "reading", Value::Int(1), None)
            .is_ok());
    }

    #[test]
    fn publication_must_conform_to_the_declared_output_type() {
        let mut orch = orchestrator();
        orch.register_context(
            "Watch",
            |_: &mut crate::engine::ContextApi<'_>, _: crate::component::ContextActivation<'_>| {
                Ok(Some(Value::Str("not an int".into())))
            },
        )
        .unwrap();
        orch.launch().unwrap();
        orch.emit_at(1, &"s1".into(), "reading", Value::Int(7), None)
            .unwrap();
        orch.run_until(10);
        assert_eq!(orch.metrics().publications, 0);
        let errors = orch.drain_errors();
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0].error, RuntimeError::TypeMismatch { .. }));
    }

    #[test]
    fn always_publish_without_a_value_is_a_contract_violation() {
        let mut orch = orchestrator();
        orch.register_context(
            "Watch",
            |_: &mut crate::engine::ContextApi<'_>, _: crate::component::ContextActivation<'_>| {
                Ok(None)
            },
        )
        .unwrap();
        orch.launch().unwrap();
        orch.emit_at(1, &"s1".into(), "reading", Value::Int(7), None)
            .unwrap();
        orch.run_until(10);
        let errors = orch.drain_errors();
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            errors[0].error,
            RuntimeError::ContractViolation { .. }
        ));
    }
}
