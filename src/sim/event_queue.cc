#include "sim/event_queue.hh"

#include "obs/profiler.hh"
#include "sim/snapshot.hh"

namespace vip
{

bool
EventQueue::serviceOne()
{
    if (_heap.empty())
        return false;
    const Entry top = _heap.front();
    // Take the payload and free the slot before the callback runs:
    // the callback may schedule (reusing the slot) and the event's own
    // handle is already stale, as for any serviced event.
    Slot &slot = _slots[top.slot];
    Callback cb = std::move(slot.cb);
    const char *kind = slot.kind;
    releaseSlot(top.slot);
    removeAt(0);

    vip_assert(top.when >= _curTick, "time went backwards");
    if (top.when != _curTick) {
        _curTick = top.when;
        _tickServiced = 0;
    }
    if (++_tickServiced > _maxPerTick) {
        panic("event queue livelock: ", _tickServiced,
              " events serviced at tick ", _curTick,
              " without time advancing (", pending(),
              " still pending)");
    }
    ++_serviced;
    if (!_prof) {
        cb();
        return true;
    }
    // Profiled dispatch: the hooks are observational (count +
    // occasional steady_clock read); the callback itself runs
    // identically, so digests cannot diverge.
    if (_prof->beginDispatch(kind, _curTick, pending())) {
        cb();
        _prof->endDispatch();
    } else {
        cb();
    }
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    return runUntil(limit, PreServiceHook{});
}

Tick
EventQueue::runUntil(Tick limit, const PreServiceHook &hook)
{
    while (!_heap.empty() && !_stopRequested) {
        const Tick when = _heap.front().when;
        if (when > limit)
            break;
        // The hook observes the queue between events (checkpointing):
        // it must not schedule, cancel, or mutate simulated state.
        if (hook)
            hook(when);
        if (_stopRequested)
            break;
        serviceOne();
    }
    // A stopped run keeps its true last-serviced tick: the caller is
    // abandoning the remaining simulated time, not skipping it.
    if (!_stopRequested && _curTick < limit && limit != MaxTick)
        _curTick = limit;
    _stopRequested = false;
    return _curTick;
}

bool
EventQueue::saveEvent(SnapshotWriter &w, EventId id) const
{
    const bool live = isLive(id);
    w.b(live);
    if (live) {
        w.u64(id.seq);
        w.tick(_heap[_slots[id.slot].pos].when);
    }
    return live;
}

EventId
EventQueue::restoreEvent(SnapshotReader &r, Callback cb,
                         EventPriority prio, const char *kind)
{
    if (!r.b())
        return InvalidEventId;
    const std::uint64_t seq = r.u64();
    const Tick when = r.tick();
    vip_assert(seq != 0 && seq < _nextSeq,
               "restoreEvent id ", seq, " outside issued range");
    vip_assert(when >= _curTick, "restoreEvent in the past: when=",
               when, " cur=", _curTick);
    for (const Entry &e : _heap) {
        vip_assert((e.key & kSeqMask) != seq, "restoreEvent id ", seq,
                   " already live");
    }
    return insert(when, prio, seq, std::move(cb), kind);
}

void
EventQueue::auditInvariants(AuditContext &ctx) const
{
    std::size_t misordered = 0;
    std::size_t badLinks = 0;
    std::size_t badIds = 0;
    for (std::size_t i = 0; i < _heap.size(); ++i) {
        const Entry &e = _heap[i];
        if (i > 0 && before(e, _heap[(i - 1) / 4]))
            ++misordered;
        const std::uint64_t seq = e.key & kSeqMask;
        if (e.slot >= _slots.size() || _slots[e.slot].pos != i ||
            _slots[e.slot].seq != seq)
            ++badLinks;
        if (seq == 0 || seq >= _nextSeq)
            ++badIds;
    }
    ctx.checkEq("eventq.heap_order", misordered, 0,
                "heap entries ordered before their parent");
    ctx.checkEq("eventq.slot_links", badLinks, 0,
                "heap entries whose slot does not point back");
    std::size_t free = 0;
    for (std::uint32_t s = _freeHead;
         s != kNoSlot && free < _slots.size(); s = _slots[s].pos)
        ++free;
    ctx.checkEq("eventq.slab_accounting", _slots.size(),
                _heap.size() + free, "slab slots != pending + free");
    ctx.checkEq("eventq.id_valid", badIds, 0,
                "pending id outside issued range");
}

void
EventQueue::saveState(SnapshotWriter &w) const
{
    w.tick(_curTick);
    w.u64(_nextSeq);
    w.u64(_serviced);
    w.u64(_tickServiced);
    // The pending sequence numbers, sorted: they identify which
    // periodic events are pending.  Their (when, prio, callback) are
    // re-created by the owning components; restore is verified
    // against this exact set.
    std::vector<std::uint64_t> ids;
    ids.reserve(_heap.size());
    for (const Entry &e : _heap)
        ids.push_back(e.key & kSeqMask);
    std::sort(ids.begin(), ids.end());
    w.u64(ids.size());
    for (std::uint64_t id : ids)
        w.u64(id);
}

void
EventQueue::loadState(SnapshotReader &r)
{
    vip_assert(_heap.empty(), "restoring into a non-empty event queue");
    _curTick = r.tick();
    _nextSeq = r.u64();
    _serviced = r.u64();
    _tickServiced = r.u64();
    std::uint64_t n = r.u64();
    _restoreIds.clear();
    _restoreIds.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        _restoreIds.push_back(r.u64());
}

void
EventQueue::verifyRestore() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(_heap.size());
    for (const Entry &e : _heap)
        ids.push_back(e.key & kSeqMask);
    std::sort(ids.begin(), ids.end());
    if (ids != _restoreIds) {
        fatal("checkpoint restore re-armed ", ids.size(),
              " pending events where the snapshot recorded ",
              _restoreIds.size(),
              " (or with different ids) -- a component failed to "
              "re-create its pending events");
    }
}

void
EventQueue::stateDigest(StateDigest &d) const
{
    d.add(static_cast<std::uint64_t>(_curTick));
    d.add(_nextSeq);
    d.add(_serviced);
    d.add(static_cast<std::uint64_t>(_heap.size()));
}

} // namespace vip
