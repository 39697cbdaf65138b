//! Differential test of the `grouped by` layout.
//!
//! `BatchData::grouped` holds a grouped batch as one record per reading,
//! in batch order, each naming its group by a small id: as a reading is
//! appended it finds its group by its canonical handle, and a handle seen
//! for the first time joins the group of an equal value. Sealing the
//! batch indexes the records in group order. The reference is the
//! obvious map the test builds from the batch-order records by their key
//! values, not their ids (or, for a registry poll, from its
//! `PolledReading`s): `BTreeMap<Value, Vec<Value>>`, each group's readings
//! pushed in batch order. Every batch a context is handed must agree
//! with it on the keys, their order, and each group's readings and their
//! order.
//!
//! The cases are the ones where one value arrives under several handles
//! or a reading arrives without one:
//! - transport drops and injected duplicates (a seeded fault plan);
//! - a subtype family whose two exact types share a grouping value, so
//!   the handles differ and the value is the same;
//! - an entity unbound and a replacement rebound between the polls of
//!   one `every` window, so the registry mints a second handle for a
//!   value the window already holds;
//! - a member type without the attribute (a sweep asked to group by an
//!   attribute only some member types declare), whose readings are in
//!   the batch but in no group.
//!
//! A MapReduce context in the same design checks that the Map phase
//! reads the grouped readings in batch order.

use diaspec_core::compile_str;
use diaspec_runtime::component::{ContextActivation, Groups, MapReduceLogic};
use diaspec_runtime::engine::{ContextApi, Orchestrator};
use diaspec_runtime::entity::{AttributeMap, BindingTime};
use diaspec_runtime::fault::FaultPlan;
use diaspec_runtime::registry::{PolledReading, Registry};
use diaspec_runtime::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// A partition compared by value: each key with its readings.
type Partition = Vec<(Value, Vec<Value>)>;

/// The reference partition of `(key, reading)` pairs in batch order.
fn reference<'a>(records: impl Iterator<Item = (&'a Value, &'a Value)>) -> Partition {
    let mut groups: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    for (key, reading) in records {
        groups.entry(key.clone()).or_default().push(reading.clone());
    }
    groups.into_iter().collect()
}

/// The grouped readings of a poll (or a window of polls), as the
/// reference reads them.
fn keyed(readings: &[PolledReading]) -> impl Iterator<Item = (&Value, &Value)> {
    readings
        .iter()
        .filter_map(|r| Some((r.group.as_ref()?.value(), r.value.value())))
}

/// What the view yields.
fn view(groups: &Groups) -> Partition {
    groups
        .iter()
        .map(|(key, values)| {
            (
                key.value().clone(),
                values.iter().map(|v| v.value().clone()).collect(),
            )
        })
        .collect()
}

/// The most distinct handles one grouping value arrived under in
/// `readings`.
fn most_handles(readings: &[PolledReading]) -> usize {
    let mut handles: BTreeMap<Value, BTreeSet<usize>> = BTreeMap::new();
    for group in readings.iter().filter_map(|r| r.group.as_ref()) {
        let at: *const Value = group.value();
        handles
            .entry(group.value().clone())
            .or_default()
            .insert(at as usize);
    }
    handles.values().map(BTreeSet::len).max().unwrap_or(0)
}

const MINUTE: u64 = 60_000;

/// One delivered batch: how many readings it held, its records'
/// partition by the reference and by the view, and what the MapReduce
/// context reduced (or would have, by the reference).
#[derive(Debug, Default)]
struct Seen {
    readings: usize,
    reference: Partition,
    view: Partition,
    reduced: Option<(BTreeMap<Value, Value>, BTreeMap<Value, Value>)>,
}

/// Map emits each reading under its group; reduce lists a group's
/// readings in the order the shuffle hands them over.
struct Collect;

impl MapReduceLogic for Collect {
    fn map(&self, group: &Value, reading: &Value, emit: &mut dyn FnMut(Value, Value)) {
        emit(group.clone(), reading.clone());
    }

    fn reduce(&self, _key: &Value, values: &[Value]) -> Value {
        Value::Array(values.to_vec())
    }
}

const PANELS: &str = r#"
    device Panel { attribute zone as String; source level as Integer; }
    device EntrancePanel extends Panel { }
    context Levels as Integer {
      when periodic level from Panel <10 min>
        grouped by zone every <30 min>
        no publish;
    }
    context Lists as Integer {
      when periodic level from Panel <10 min>
        grouped by zone with map as Integer reduce as Integer[]
        no publish;
    }
"#;

/// The panels bound at the start, `(n, type, zone)` for `p-{n}`.
const PANEL_BINDINGS: [(u64, &str, &str); 4] = [
    (1, "EntrancePanel", "north"),
    (2, "Panel", "south"),
    (3, "EntrancePanel", "south"),
    (4, "Panel", "north"),
];

/// The `Panel` family (two `Panel`s, two `EntrancePanel`s, one of each
/// in `north`) polled every 10 minutes for `minutes`, grouped by `zone`
/// into 30-minute windows (`Levels`) and into MapReduce batches
/// (`Lists`). At minute 15 the only plain `Panel` in `north` is unbound
/// and a replacement is bound in `north`, so the first window holds two
/// handles of `north` for the type, and a third for `EntrancePanel`
/// (`the_panel_script_mints_three_handles_of_one_value`).
fn panel_batches(faults: Option<u64>, minutes: u64) -> Vec<Seen> {
    let spec = Arc::new(compile_str(PANELS).unwrap());
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::default();
    let mut orch = Orchestrator::new(spec);
    for context in ["Levels", "Lists"] {
        let sink = Arc::clone(&seen);
        orch.register_context(
            context,
            move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
                let ContextActivation::Batch(batch) = activation else {
                    return Ok(None);
                };
                let grouped = batch.grouped.as_ref().expect("grouping declared");
                // Every panel has a zone: each reading is a record.
                assert!(batch.readings.is_empty());
                let reference = reference(grouped.records().map(|(k, v)| (k.value(), v.value())));
                let reduced = batch.reduced.clone().map(|reduced| {
                    let lists = reference
                        .iter()
                        .map(|(k, vs)| (k.clone(), Value::Array(vs.clone())))
                        .collect();
                    (reduced, lists)
                });
                sink.lock().unwrap().push(Seen {
                    readings: grouped.records().len(),
                    view: view(grouped),
                    reference,
                    reduced,
                });
                Ok(None)
            },
        )
        .unwrap();
    }
    orch.register_map_reduce("Lists", Collect).unwrap();
    let bind = |orch: &mut Orchestrator, n: u64, ty: &str, zone: &str| {
        let mut attrs = AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::from(zone));
        let driver = move |_: &str, now: u64| Ok(Value::Int((now / MINUTE * 10 + n) as i64));
        orch.bind_entity(format!("p-{n}").into(), ty, attrs, Box::new(driver))
            .unwrap();
    };
    for (n, ty, zone) in PANEL_BINDINGS {
        bind(&mut orch, n, ty, zone);
    }
    if let Some(seed) = faults {
        orch.enable_faults(
            FaultPlan::seeded(seed)
                .drop_messages(0.25)
                .duplicate_messages(0.25),
        )
        .unwrap();
    }
    orch.launch().unwrap();
    orch.run_until(15 * MINUTE);
    orch.unbind_entity(&"p-4".into()).unwrap();
    bind(&mut orch, 5, "Panel", "north");
    orch.run_until(minutes * MINUTE);
    assert!(orch.drain_errors().is_empty());
    let batches = std::mem::take(&mut *seen.lock().unwrap());
    batches
}

fn assert_agrees(batches: &[Seen], label: &str) {
    for (n, batch) in batches.iter().enumerate() {
        assert_eq!(batch.view, batch.reference, "{label}, batch {n}");
        if let Some((reduced, lists)) = &batch.reduced {
            assert_eq!(reduced, lists, "{label}, batch {n}: Map read batch order");
        }
    }
}

#[test]
fn equal_values_under_different_handles_share_one_group() {
    let batches = panel_batches(None, 65);
    // Six MapReduce batches and two windows.
    assert_eq!(batches.len(), 8);
    assert_eq!(batches.iter().filter(|b| b.reduced.is_some()).count(), 6);
    assert_agrees(&batches, "no faults");
    // The first window held `north` under three handles and each poll
    // under two (`the_panel_script_mints_three_handles_of_one_value`);
    // each is one group.
    let window = batches.iter().find(|b| b.reduced.is_none()).unwrap();
    assert_eq!(window.view.len(), 2, "north and south, once each");
    assert_eq!(window.readings, 12);
    assert!(batches.iter().all(|b| b.view.len() == 2));
}

/// The handles the engine's batches above arrive under: the same
/// bindings, unbind and rebind in a bare registry, polled at the same
/// minutes. A window of polls 1–3 holds `north` under three handles:
/// the two exact types', and the plain type's before and after its
/// rebind; one poll holds it under two.
#[test]
fn the_panel_script_mints_three_handles_of_one_value() {
    let mut registry = Registry::new(Arc::new(compile_str(PANELS).unwrap()));
    let bind = |registry: &mut Registry, n: u64, ty: &str, zone: &str| {
        let mut attrs = AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::from(zone));
        let driver = move |_: &str, now: u64| Ok(Value::Int((now / MINUTE * 10 + n) as i64));
        registry
            .bind(
                format!("p-{n}").into(),
                ty,
                attrs,
                Box::new(driver),
                BindingTime::Runtime,
                0,
            )
            .unwrap();
    };
    for (n, ty, zone) in PANEL_BINDINGS {
        bind(&mut registry, n, ty, zone);
    }
    let mut window: Vec<PolledReading> = Vec::new();
    for minute in [10, 20, 30] {
        if minute == 20 {
            registry.unbind(&"p-4".into()).unwrap();
            bind(&mut registry, 5, "Panel", "north");
        }
        let poll = registry.poll("Panel", "level", Some("zone"), minute * MINUTE);
        assert_eq!(most_handles(&poll), 2, "minute {minute}");
        window.extend(poll);
    }
    assert_eq!(most_handles(&window), 3);
    assert_eq!(view(&Groups::of(&window)), reference(keyed(&window)));
}

#[test]
fn drops_and_duplicates_are_grouped_as_delivered() {
    for seed in [3, 17, 4242] {
        let batches = panel_batches(Some(seed), 125);
        assert_eq!(batches.len(), 12 + 4, "seed {seed}");
        // Twelve polls of four panels, each also in one of four windows.
        let clean = 2 * 12 * 4;
        let delivered: usize = batches.iter().map(|b| b.readings).sum();
        assert_ne!(delivered, clean, "seed {seed}: the plan injected faults");
        assert_agrees(&batches, &format!("seed {seed}"));
    }
}

const FAMILY: &str = r#"
    device Meter { source level as Integer; }
    device ZonedMeter extends Meter { attribute zone as String; }
    device RoomMeter extends Meter { attribute zone as String; attribute room as Integer; }
"#;

/// A seeded script of binds and unbinds over a family whose root lacks
/// the grouping attribute; each poll's readings join a window, and every
/// few polls the window is grouped and compared.
#[test]
fn a_member_type_without_the_attribute_is_in_no_group() {
    const ZONES: [&str; 3] = ["north", "south", "east"];
    const TYPES: [&str; 3] = ["Meter", "ZonedMeter", "RoomMeter"];
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut registry = Registry::new(Arc::new(compile_str(FAMILY).unwrap()));
        let mut live: Vec<String> = Vec::new();
        let mut window: Vec<PolledReading> = Vec::new();
        let mut most = 0;
        for step in 0..60u64 {
            for _ in 0..rng.gen_range(0..4) {
                let n = rng.gen_range(0..40);
                let id = format!("m-{n:02}");
                if live.contains(&id) {
                    registry.unbind(&id.as_str().into()).unwrap();
                    live.retain(|l| *l != id);
                    continue;
                }
                let ty = TYPES[rng.gen_range(0..TYPES.len())];
                let mut attrs = AttributeMap::new();
                if ty != "Meter" {
                    let zone = ZONES[rng.gen_range(0..ZONES.len())];
                    attrs.insert("zone".to_owned(), Value::from(zone));
                }
                if ty == "RoomMeter" {
                    attrs.insert("room".to_owned(), Value::Int(n));
                }
                let driver = move |_: &str, now: u64| Ok(Value::Int(now as i64 + n));
                registry
                    .bind(
                        id.as_str().into(),
                        ty,
                        attrs,
                        Box::new(driver),
                        BindingTime::Runtime,
                        step,
                    )
                    .unwrap();
                live.push(id);
            }
            window.extend(registry.poll("Meter", "level", Some("zone"), step));
            if step % 5 == 4 {
                let groups = Groups::of(&window);
                assert_eq!(
                    view(&groups),
                    reference(keyed(&window)),
                    "seed {seed}, step {step}"
                );
                let grouped: usize = groups.iter().map(|(_, vs)| vs.len()).sum();
                assert_eq!(grouped, groups.records().len());
                let ungrouped = window.iter().filter(|r| r.group.is_none()).count();
                assert_eq!(grouped + ungrouped, window.len());
                most = most.max(most_handles(&window));
                window.clear();
            }
        }
        assert!(most >= 2, "seed {seed}: one value never had two handles");
    }
}

#[test]
fn an_empty_batch_has_no_groups() {
    let groups = Groups::of(&[]);
    assert!(groups.is_empty());
    assert_eq!(groups.iter().count(), 0);
    assert_eq!(format!("{groups:?}"), "{}");
}
