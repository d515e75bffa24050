/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue owns simulated time.  Components schedule callbacks at
 * absolute ticks; the queue services them in (tick, priority, insertion
 * order) order, which makes simulations fully deterministic.
 */

#ifndef VIP_SIM_EVENT_QUEUE_HH
#define VIP_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/audit.hh"
#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace vip
{

/** Scheduling priority; lower value runs first within a tick. */
enum class EventPriority : int
{
    ClockTick = -10,   ///< clock/vsync edges fire before normal work
    Default = 0,
    Stats = 10,        ///< sampling events observe post-update state
    Audit = 20,        ///< invariant audits see fully settled state
    Teardown = 100,
};

/**
 * Handle to a scheduled event: its slab slot plus its sequence number.
 *
 * The sequence number is the event's identity -- monotonic, never
 * reused, the tie-breaker within a (tick, priority) and the only id
 * that enters digests and snapshots.  The slot locates the event in
 * O(1).  A slot is recycled once its event runs or is cancelled, but
 * the newcomer carries a new sequence number, so a stale handle never
 * aliases a live event.
 */
struct EventId
{
    std::uint64_t seq = 0; ///< 0 = no event
    std::uint32_t slot = 0;

    friend bool operator==(const EventId &, const EventId &) = default;
};
inline constexpr EventId InvalidEventId{};

class SnapshotWriter;
class SnapshotReader;
class Profiler;

/**
 * A deterministic discrete-event queue.
 *
 * Pending events live in two arrays.  A slab holds each event's
 * callback and kind tag, recycled through a free list.  An indexed
 * 4-ary min-heap holds 24-byte plain entries {when, key, slot}, where
 * key = (priority + 2^15) << 48 | seq, so one (when, key) comparison
 * gives the (tick, priority, insertion order) service order.  Each
 * slab slot records its entry's heap position, so deschedule() removes
 * the entry at once in O(log n): there are no tombstones, and memory
 * is O(peak pending events).
 */
class EventQueue : public Auditable
{
  public:
    using Callback = vip::Callback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * @p kind is an optional profiling tag: a string *literal* (the
     * profiler compares pointers on the hot path and merges aliases
     * by name at report time) naming the event's kind, ideally from
     * kProfKindCatalog.  Untagged events profile as "other".  Kinds
     * are purely observational — they enter no digest or snapshot.
     *
     * @return a handle usable with deschedule().
     */
    template <class F>
    EventId
    schedule(Tick when, F &&cb,
             EventPriority prio = EventPriority::Default,
             const char *kind = nullptr)
    {
        vip_assert(when >= _curTick,
                   "scheduling in the past: when=", when,
                   " cur=", _curTick);
        return insert(when, prio, _nextSeq++, std::forward<F>(cb), kind);
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    template <class F>
    EventId
    scheduleIn(Tick delta, F &&cb,
               EventPriority prio = EventPriority::Default,
               const char *kind = nullptr)
    {
        return schedule(_curTick + delta, std::forward<F>(cb), prio,
                        kind);
    }

    /**
     * Cancel a scheduled event.  Harmless if the event already ran or
     * was cancelled: the stale handle matches no live event.
     */
    void
    deschedule(EventId id)
    {
        if (!isLive(id))
            return;
        const std::uint32_t pos = _slots[id.slot].pos;
        releaseSlot(id.slot);
        removeAt(pos);
    }

    /** Number of scheduled, not-yet-run, not-cancelled events. */
    std::size_t pending() const { return _heap.size(); }

    /** True when no live events remain. */
    bool empty() const { return _heap.empty(); }

    /**
     * Service the single next live event.
     * @return false when the queue is empty.
     */
    bool serviceOne();

    /**
     * Run until the queue drains or simulated time reaches @p limit,
     * calling @p hook with the tick of the next event before servicing
     * it.  Events scheduled exactly at @p limit do run.  The hook is a
     * template parameter, so a run without one pays nothing for it.
     * It must be purely observational: checkpointing and sampling use
     * it to look at the state between events, and it must not
     * schedule, cancel or change simulated state.
     * @return the final current tick.
     */
    template <class Hook>
    Tick
    runUntil(Tick limit, Hook &&hook)
    {
        while (!_heap.empty() && !_stopRequested) {
            const Tick when = _heap.front().when;
            if (when > limit)
                break;
            hook(when);
            if (_stopRequested)
                break;
            serviceOne();
        }
        // A stopped run keeps its true last-serviced tick: the caller
        // is abandoning the remaining simulated time, not skipping it.
        if (!_stopRequested && _curTick < limit && limit != MaxTick)
            _curTick = limit;
        _stopRequested = false;
        return _curTick;
    }

    /** As runUntil(Tick, Hook) with no hook. */
    Tick runUntil(Tick limit) { return runUntil(limit, [](Tick) {}); }

    /** Run until the queue drains completely. */
    Tick run() { return runUntil(MaxTick); }

    /** @{ Checkpoint/restore (quiescent-point snapshots).
     *
     * saveState() records the kernel counters and the sorted sequence
     * numbers of the pending events; loadState() restores the
     * counters and remembers the sequence numbers.  Each component
     * saves its own pending events with saveEvent() and re-arms them
     * with restoreEvent(), and verifyRestore() checks that the
     * re-armed set matches the snapshot exactly.
     */
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);

    /**
     * Write event @p id as (live, seq, when): a bool, then the
     * sequence number and tick only when the event is pending.
     * @return whether it was pending.
     */
    bool saveEvent(SnapshotWriter &w, EventId id) const;

    /**
     * Read an event written by saveEvent() and, when it was pending,
     * re-arm @p cb under its original sequence number and tick.  Only
     * valid between loadState() and verifyRestore().
     * @return the new handle, or InvalidEventId when none was pending.
     */
    EventId restoreEvent(SnapshotReader &r, Callback cb,
                         EventPriority prio = EventPriority::Default,
                         const char *kind = nullptr);

    /** SimFatal unless re-armed events match the snapshot's id set. */
    void verifyRestore() const;
    /** @} */

    /** Total number of events ever serviced (for kernel stats). */
    std::uint64_t servicedEvents() const { return _serviced; }

    /**
     * Ask the current runUntil() to return between events, leaving
     * simulated time at the last serviced tick instead of
     * fast-forwarding to the limit.  One-shot: consumed when the run
     * loop returns.  Used for graceful SIGINT/SIGTERM handling — a
     * pre-service hook that has flushed its final checkpoint calls
     * this to end the run early.
     */
    void requestStop() { _stopRequested = true; }
    bool stopRequested() const { return _stopRequested; }

    /**
     * Same-tick livelock guard: cap on events serviced without
     * simulated time advancing.  Zero-latency callback cycles
     * (signal ping-pong, retry storms) never advance the clock, so
     * the time-limit backstop cannot catch them; crossing this cap
     * aborts with SimPanic instead of spinning forever.  The default
     * is far above anything a legitimate burst produces.
     */
    void setMaxEventsPerTick(std::uint64_t cap) { _maxPerTick = cap; }
    std::uint64_t maxEventsPerTick() const { return _maxPerTick; }

    /** Slab slots ever allocated: the peak number of events pending
     *  at once (memory-bound regression test). */
    std::size_t slabSize() const { return _slots.size(); }

    /**
     * Attach (or detach, with nullptr) the hot-path self-profiler.
     * Purely observational: the profiler sees every dispatch's kind
     * tag and queue occupancy but cannot perturb the event stream,
     * so digests stay bit-identical with profiling on (see
     * obs/profiler.hh).
     */
    void setProfiler(Profiler *p) { _prof = p; }
    Profiler *profiler() const { return _prof; }

    /** @{ Auditable */
    void auditInvariants(AuditContext &ctx) const override;
    void stateDigest(StateDigest &d) const override;
    /** @} */

  private:
    /** One pending event in heap order (24 bytes, trivially copied). */
    struct Entry
    {
        Tick when;
        std::uint64_t key; ///< (prio + 2^15) << 48 | seq
        std::uint32_t slot;
    };

    /** One slab slot: the event's payload and its heap back-pointer. */
    struct Slot
    {
        Callback cb;
        /** Profiling tag (string literal or null); never ordered on,
         *  digested, or serialized. */
        const char *kind = nullptr;
        std::uint64_t seq = 0; ///< 0 while the slot is free
        /** Index of the event's heap entry; the next free slot while
         *  the slot is free. */
        std::uint32_t pos = 0;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    static constexpr int kSeqBits = 48;
    static constexpr std::uint64_t kSeqMask =
        (std::uint64_t(1) << kSeqBits) - 1;

    static std::uint64_t
    keyOf(EventPriority prio, std::uint64_t seq)
    {
        return std::uint64_t(static_cast<int>(prio) + (1 << 15))
                   << kSeqBits |
               seq;
    }

    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : a.key < b.key;
    }

    bool
    isLive(EventId id) const
    {
        return id.seq != 0 && id.slot < _slots.size() &&
               _slots[id.slot].seq == id.seq;
    }

    /** Add an event; @p cb is a callable or a Callback, built or
     *  moved straight into the slab slot. */
    template <class F>
    EventId
    insert(Tick when, EventPriority prio, std::uint64_t seq, F &&cb,
           const char *kind)
    {
        vip_assert(seq <= kSeqMask, "event sequence numbers exhausted");
        std::uint32_t s = _freeHead;
        if (s == kNoSlot) {
            s = static_cast<std::uint32_t>(_slots.size());
            _slots.emplace_back();
        } else {
            _freeHead = _slots[s].pos;
        }
        Slot &slot = _slots[s];
        slot.cb = std::forward<F>(cb);
        vip_assert(slot.cb, "scheduling an empty callback");
        slot.kind = kind;
        slot.seq = seq;
        _heap.emplace_back();
        siftUp(_heap.size() - 1, Entry{when, keyOf(prio, seq), s});
        return EventId{seq, s};
    }

    /** Put slot @p s on the free list, dropping any callback a
     *  cancelled event left there. */
    void
    releaseSlot(std::uint32_t s)
    {
        Slot &slot = _slots[s];
        slot.cb.reset();
        slot.seq = 0;
        slot.pos = _freeHead;
        _freeHead = s;
    }

    void
    place(std::size_t i, const Entry &e)
    {
        _heap[i] = e;
        _slots[e.slot].pos = static_cast<std::uint32_t>(i);
    }

    /** Put @p e at hole @p i, moving parents down past it. */
    void
    siftUp(std::size_t i, const Entry &e)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!before(e, _heap[parent]))
                break;
            place(i, _heap[parent]);
            i = parent;
        }
        place(i, e);
    }

    /** Put @p e at hole @p i, moving smaller children up past it. */
    void
    siftDown(std::size_t i, const Entry &e)
    {
        const std::size_t n = _heap.size();
        while (true) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            const std::size_t last = std::min(first + 4, n);
            std::size_t best = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before(_heap[c], _heap[best]))
                    best = c;
            }
            if (!before(_heap[best], e))
                break;
            place(i, _heap[best]);
            i = best;
        }
        place(i, e);
    }

    /** Remove the heap entry at @p i (its slot already released). */
    void
    removeAt(std::size_t i)
    {
        const Entry last = _heap.back();
        _heap.pop_back();
        if (i == _heap.size())
            return;
        if (i > 0 && before(last, _heap[(i - 1) / 4]))
            siftUp(i, last);
        else
            siftDown(i, last);
    }

    Tick _curTick = 0;
    /** Next sequence number; every issued one is below it. */
    std::uint64_t _nextSeq = 1;
    std::uint64_t _serviced = 0;
    std::uint64_t _maxPerTick = 5'000'000;
    std::uint64_t _tickServiced = 0;
    /** Transient graceful-stop request; never serialized. */
    bool _stopRequested = false;
    /** Nullable hot-path observer; never serialized. */
    Profiler *_prof = nullptr;
    /** Indexed 4-ary min-heap of the pending events. */
    std::vector<Entry> _heap;
    /** Event payloads, indexed by EventId::slot. */
    std::vector<Slot> _slots;
    /** Head of the free-slot list threaded through Slot::pos, reused
     *  last-in first-out. */
    std::uint32_t _freeHead = kNoSlot;
    /** Sorted pending sequence numbers from the snapshot
     *  (verifyRestore()). */
    std::vector<std::uint64_t> _restoreIds;
};

} // namespace vip

#endif // VIP_SIM_EVENT_QUEUE_HH
