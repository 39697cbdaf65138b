//! One exchange per sweep: a periodic poll of remote devices crosses
//! each link as one `QueryBatch` / `Values` pair.
//!
//! [`Registry::poll`](crate::registry::Registry::poll) opens a [`Scope`]
//! around its loop: a thread-local record of the sweep's source, sim
//! time and members (the non-crashed ids it is about to query, in family
//! order). The first [`RemoteDeviceProxy`](super::RemoteDeviceProxy)
//! query on a link inside the scope sends one `QueryBatch` for every
//! member whose proxy was built on that link, and each member's entry
//! of the reply answers that member's **first** query in the sweep. A
//! later query of the same member — an `@error` retry, or a failover
//! to it after its entry was taken — goes out as a single `Query`, so
//! every edge driver receives the calls, `(source, now)` stamps and
//! per-device order it would receive in process. Crashed members are
//! not in the scope and are never sent. The batch's replies are dropped
//! when the scope closes; nothing is kept across sweeps.

use super::{Link, LIVE_PROXIES};
use crate::entity::EntityId;
use crate::spans::SpanCtx;
use crate::transport::wire::query_batch_entry_len;
use crate::transport::{
    decode_values, encode_query_batch, Envelope, FrameError, MessageKind, TransportError, MAX_FRAME,
};
use crate::value::Value;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// A member's reply: the value, or the message of the `DeviceError` a
/// single `Query` would have returned.
pub(super) type Reply = Result<Value, String>;

thread_local! {
    static SWEEP: RefCell<Sweep> = RefCell::new(Sweep::default());
}

/// The open sweep of this thread.
#[derive(Default)]
struct Sweep {
    open: bool,
    /// A batch exchange is in flight: a query reached from inside it
    /// (an in-process edge handler on this thread) is not a member's.
    busy: bool,
    source: String,
    now: u64,
    members: Vec<EntityId>,
    /// The batch each link sent in this sweep.
    batches: Vec<Batch>,
}

/// One link's batch in the open sweep: its members (indices into
/// `Sweep::members`, in family order) and their replies.
struct Batch {
    link: Weak<Link>,
    members: Vec<usize>,
    replies: Vec<Reply>,
    taken: Vec<bool>,
    /// Every reply before it has been taken.
    cursor: usize,
    /// The reply taken last.
    last: Option<usize>,
}

impl Batch {
    /// The reply for `device`'s first query in the sweep, or `None` when
    /// this is not one.
    fn take(&mut self, device: &str, members: &[EntityId]) -> Option<Reply> {
        let named = |at: usize| members[self.members[at]].as_str() == device;
        // An `@error` retry asks the member that was just served.
        if self.last.is_some_and(named) {
            return None;
        }
        while self.taken.get(self.cursor) == Some(&true) {
            self.cursor += 1;
        }
        let at = (self.cursor..self.replies.len()).find(|&at| !self.taken[at] && named(at))?;
        self.taken[at] = true;
        self.last = Some(at);
        Some(std::mem::replace(&mut self.replies[at], Err(String::new())))
    }
}

/// The guard of an open sweep; dropping it closes the sweep.
pub(crate) struct Scope {
    /// The scope is this thread's.
    _thread: PhantomData<*const ()>,
}

impl Scope {
    /// Opens a sweep of `source` at `now` over `members`, in the order
    /// they will be queried. Returns `None` — and leaves `members`
    /// unread — when no remote proxy exists, or when a sweep is already
    /// open on this thread.
    pub(crate) fn open<'a>(
        source: &str,
        now: u64,
        members: impl IntoIterator<Item = &'a EntityId>,
    ) -> Option<Scope> {
        if LIVE_PROXIES.load(Ordering::Relaxed) == 0 {
            return None;
        }
        SWEEP.with(|cell| {
            let mut sweep = cell.borrow_mut();
            if sweep.open {
                return None;
            }
            sweep.open = true;
            sweep.source.clear();
            sweep.source.push_str(source);
            sweep.now = now;
            sweep.members.extend(members.into_iter().cloned());
            Some(Scope {
                _thread: PhantomData,
            })
        })
    }
}

impl Drop for Scope {
    /// Closes the sweep and drops its buffers: the replies of one sweep
    /// never answer another, and nothing a sweep held outlives it.
    fn drop(&mut self) {
        SWEEP.with(|cell| {
            let sweep = &mut *cell.borrow_mut();
            sweep.open = false;
            sweep.busy = false;
            sweep.members = Vec::new();
            sweep.batches = Vec::new();
        });
    }
}

/// The batched reply to `device`'s query of `source` at `now` over
/// `link`, or `None` when the query must go out on its own: no sweep
/// of `(source, now)` is open, or this is not the member's first query
/// in it. The first such call on a link in a sweep sends the link's
/// batch.
pub(super) fn take(link: &Arc<Link>, device: &str, source: &str, now: u64) -> Option<Reply> {
    SWEEP.with(|cell| {
        {
            let sweep = &mut *cell.borrow_mut();
            if !sweep.open || sweep.busy || sweep.now != now || sweep.source != source {
                return None;
            }
            let link_ptr = Arc::as_ptr(link);
            if let Some(batch) = sweep
                .batches
                .iter_mut()
                .find(|b| b.link.as_ptr() == link_ptr)
            {
                return batch.take(device, &sweep.members);
            }
            let members = link.covered(&sweep.members);
            sweep.batches.push(Batch {
                link: Arc::downgrade(link),
                taken: vec![false; members.len()],
                replies: Vec::new(),
                members,
                cursor: 0,
                last: None,
            });
            sweep.busy = true;
        }
        // Each exchange runs with the scope released: an in-process edge
        // handler on this thread may call back into it (and is refused).
        loop {
            let chunk = {
                let sweep = cell.borrow();
                let batch = sweep.batches.last().expect("pushed above");
                let rest = &batch.members[batch.replies.len()..];
                next_chunk(&sweep.source, &sweep.members, rest)
            };
            let Some((payload, count)) = chunk else {
                break;
            };
            let mut replies = exchange(link, source, now, payload, count);
            let sweep = &mut *cell.borrow_mut();
            let batch = sweep.batches.last_mut().expect("pushed above");
            if batch.replies.is_empty() {
                batch.replies = replies;
            } else {
                batch.replies.append(&mut replies);
            }
        }
        let sweep = &mut *cell.borrow_mut();
        sweep.busy = false;
        let batch = sweep.batches.last_mut().expect("pushed above");
        batch.take(device, &sweep.members)
    })
}

/// The `QueryBatch` payload for the longest prefix of `rest` (at least
/// one member) whose frame stays within [`MAX_FRAME`], with the count
/// it carries; `None` when `rest` is empty.
fn next_chunk(source: &str, members: &[EntityId], rest: &[usize]) -> Option<(Vec<u8>, usize)> {
    let header = Envelope::new(
        MessageKind::QueryBatch,
        SpanCtx::NONE,
        0,
        "",
        source,
        Vec::new(),
    )
    .body_len()
        + 4;
    let mut size = header;
    let mut count = 0;
    for &member in rest {
        let len = query_batch_entry_len(members[member].as_str());
        if count > 0 && size + len > MAX_FRAME {
            break;
        }
        size += len;
        count += 1;
    }
    if count == 0 {
        return None;
    }
    let names = rest[..count].iter().map(|&m| members[m].as_str());
    // Names longer than a 2-byte length never join a batch
    // (`Link::covered`), so encoding cannot fail.
    let payload = encode_query_batch(names).expect("batched names fit their length field");
    Some((payload, count))
}

/// One `QueryBatch` exchange of `count` devices: their replies in
/// request order. A failed exchange, or a reply that does not answer
/// every device, fails every device with that error.
fn exchange(link: &Link, source: &str, now: u64, payload: Vec<u8>, count: usize) -> Vec<Reply> {
    let request = |seq| {
        Envelope::new(
            MessageKind::QueryBatch,
            SpanCtx::NONE,
            seq,
            "",
            source,
            payload,
        )
        .at(now)
    };
    let failure = match link.request(request) {
        Ok(reply) if reply.kind == MessageKind::Values => match decode_values(&reply.payload) {
            Ok(values) if values.len() == count => {
                return values
                    .into_iter()
                    .map(|entry| entry.map_err(|m| TransportError::Remote(m).to_string()))
                    .collect()
            }
            Ok(_) | Err(_) => TransportError::Frame(FrameError::BadPayload).to_string(),
        },
        Ok(reply) => format!("unexpected reply kind {:?}", reply.kind),
        Err(e) => e.to_string(),
    };
    vec![Err(failure); count]
}
