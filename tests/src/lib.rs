//! Cross-crate integration tests live in tests/; this library holds the
//! generic wiring more than one of them runs designs with.

pub mod multi;

use diaspec_core::model::{ActivationTrigger, CheckedSpec, Context, PublishMode};
use diaspec_core::types::Type;
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::error::RuntimeError;
use diaspec_runtime::value::Value;
use std::sync::Arc;

/// A placeholder value of `ty`: the generic components only produce
/// traffic, so the payloads are irrelevant (structures and enumerations
/// get a string, which their consumers never inspect).
#[must_use]
pub fn placeholder(ty: &Type) -> Value {
    match ty {
        Type::Integer => Value::Int(0),
        Type::Float => Value::Float(0.0),
        Type::Boolean => Value::Bool(false),
        Type::Array(_) => Value::Array(Vec::new()),
        _ => Value::Str("probe".to_owned()),
    }
}

/// Whether `ctx` may publish on `activation`: not when the clause that
/// triggered it is `no publish` (an on-demand computation always answers
/// its `get`).
fn may_publish(spec: &CheckedSpec, ctx: &Context, activation: &ContextActivation<'_>) -> bool {
    let clause = ctx
        .activations
        .iter()
        .find(|a| match (&a.trigger, activation) {
            (ActivationTrigger::Context(from), ContextActivation::ContextEvent { context, .. }) => {
                from == context
            }
            (
                ActivationTrigger::DeviceSource { device, source },
                ContextActivation::SourceEvent {
                    device_type,
                    source: emitted,
                    ..
                },
            ) => source == emitted && spec.device_is_subtype(device_type, device),
            (
                ActivationTrigger::Periodic { device, source, .. },
                ContextActivation::Batch(batch),
            ) => *source == batch.source && spec.device_is_subtype(&batch.device_type, device),
            _ => false,
        });
    clause.is_none_or(|a| a.publish != PublishMode::No)
}

/// Registers every component of `spec` generically: each context
/// publishes a placeholder of its output type on every activation that
/// may publish, each controller performs each declared `do` clause on
/// every discovered entity of the target family. This is the most any
/// concrete implementation is contractually allowed to do, so the
/// observed publications and actuations are exactly the ones the design
/// declares.
///
/// # Errors
///
/// Propagates a registration [`RuntimeError`] (an undeclared component).
pub fn register_all(orch: &mut Orchestrator, spec: &CheckedSpec) -> Result<(), RuntimeError> {
    let shared = Arc::new(spec.clone());
    for ctx in spec.contexts() {
        let value = placeholder(&ctx.output);
        let (spec, name) = (Arc::clone(&shared), ctx.name.clone());
        orch.register_context(
            &ctx.name,
            move |_api: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
                let ctx = spec
                    .context(&name)
                    .expect("registered contexts are declared");
                Ok(may_publish(&spec, ctx, &activation).then(|| value.clone()))
            },
        )?;
    }
    for ctrl in spec.controllers() {
        let acts: Vec<(String, String, Vec<Value>)> = ctrl
            .bindings
            .iter()
            .flat_map(|b| b.actions.iter())
            .map(|(action, device)| {
                let args = spec
                    .device(device)
                    .and_then(|d| d.action(action))
                    .map(|a| a.params.iter().map(|(_, ty)| placeholder(ty)).collect())
                    .unwrap_or_default();
                (action.clone(), device.clone(), args)
            })
            .collect();
        orch.register_controller(
            &ctrl.name,
            move |api: &mut ControllerApi<'_>, _context: &str, _value: &Value| {
                for (action, device, args) in &acts {
                    for id in api.discover(device)?.ids() {
                        api.invoke(&id, action, args)?;
                    }
                }
                Ok(())
            },
        )?;
    }
    Ok(())
}
