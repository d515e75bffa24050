/**
 * @file
 * System: owns the event queue, the SimObject registry and the RNG.
 *
 * One System corresponds to one simulated platform run.  All components
 * register with it on construction and are visited for startup() /
 * finalize() around the event loop.
 */

#ifndef VIP_SIM_SYSTEM_HH
#define VIP_SIM_SYSTEM_HH

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace vip
{

class SimObject;
class Tracer;
class LatencyCollector;

/** The root container of a simulation. */
class System
{
  public:
    explicit System(std::uint64_t seed = 1);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    EventQueue &eventq() { return _eventq; }
    const EventQueue &eventq() const { return _eventq; }

    Tick curTick() const { return _eventq.curTick(); }

    Random &random() { return _random; }

    /** @{ Registry; called by SimObject's ctor/dtor. */
    void registerObject(SimObject *obj);
    void unregisterObject(SimObject *obj);
    /** @} */

    /** Find a registered object by full name (nullptr if absent). */
    SimObject *find(const std::string &name) const;

    /** All registered objects in registration order. */
    const std::vector<SimObject *> &objects() const { return _objects; }

    /**
     * Run the simulation until @p limit (absolute tick), threading the
     * pre-service @p hook into the event loop (see
     * EventQueue::runUntil; used for checkpointing and sampling).
     * Calls startup() on first use and finalize() on every object
     * after the loop.  May be called repeatedly to extend a run;
     * finalize() is re-applied each time so stats are always
     * consistent.
     */
    template <class Hook>
    Tick
    run(Tick limit, Hook &&hook)
    {
        startOnce();
        Tick t = _eventq.runUntil(limit, std::forward<Hook>(hook));
        finalizeAll();
        return t;
    }

    /** As run(Tick, Hook) with no hook. */
    Tick run(Tick limit) { return run(limit, [](Tick) {}); }

    /** True once run() was called at least once. */
    bool started() const { return _started; }

    /**
     * Suppress the one-time startup() pass of the next run() call.
     * Used when restoring a checkpoint: the snapshot already contains
     * the events startup() would have scheduled.
     */
    void markStarted() { _started = true; }

    /**
     * @{ Observability hooks (see src/obs/).  Both are optional and
     * purely observational: a null pointer means "disabled", and
     * emission sites reduce to one pointer test.  The System does not
     * own either object; the Simulation wires them in before build.
     */
    Tracer *tracer() const { return _tracer; }
    void setTracer(Tracer *t) { _tracer = t; }
    LatencyCollector *latency() const { return _latency; }
    void setLatencyCollector(LatencyCollector *c) { _latency = c; }
    /** @} */

  private:
    /** startup() every object on the first run() only. */
    void startOnce();
    void finalizeAll();

    EventQueue _eventq;
    Random _random;
    Tracer *_tracer = nullptr;
    LatencyCollector *_latency = nullptr;
    bool _started = false;
    std::vector<SimObject *> _objects;
    std::unordered_map<std::string, SimObject *> _byName;
};

} // namespace vip

#endif // VIP_SIM_SYSTEM_HH
