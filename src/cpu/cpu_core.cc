#include "cpu/cpu_core.hh"

#include <algorithm>
#include <cmath>

#include "obs/stat_registry.hh"
#include "obs/tracer.hh"
#include "sim/system.hh"

namespace vip
{

void
CpuCore::obsIntern(Tracer *tr)
{
    if (_obsTrk)
        return;
    _obsTrk = tr->intern(name());
    _obsNmTask = tr->intern("task");
    _obsNmIsr = tr->intern("isr");
    _obsNmIrq = tr->intern("irq");
    _obsNmSleep = tr->intern("sleep");
    _obsNmWake = tr->intern("wake");
}

CpuCore::CpuCore(System &system, std::string name, const CpuConfig &cfg,
                 EnergyLedger &ledger)
    : ClockedObject(system, std::move(name), ClockDomain(cfg.freqHz)),
      _cfg(cfg),
      _energy(ledger.account("cpu", this->name())),
      _stats(this->name()),
      _statTasks(_stats, "tasks", "software tasks executed"),
      _statInterrupts(_stats, "interrupts", "interrupts serviced"),
      _statUtil(_stats, "utilization", "1 while running a task")
{
    _energy.setPower(_cfg.power.idleWatts, 0);
    // Start at the nominal step (scale 1.0) when governed, else fixed.
    _curStep = 0;
    _curFreqHz = _cfg.freqHz;
    if (_cfg.governor != CpuGovernor::None) {
        vip_assert(!_cfg.freqSteps.empty(), "governor needs steps");
        for (std::size_t i = 0; i < _cfg.freqSteps.size(); ++i) {
            if (_cfg.freqSteps[i] <= 1.0)
                _curStep = i;
        }
        _curFreqHz = _cfg.freqHz * _cfg.freqSteps[_curStep];
    }
}

void
CpuCore::enterState(State s)
{
    Tick now = curTick();
    if (_state == State::Active)
        _activeTicks += now - _stateSince;
    else if (_state == State::Sleep)
        _sleepTicks += now - _stateSince;

    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Power) && s != _state) {
        obsIntern(tr);
        if (s == State::Sleep)
            tr->instant(TraceCat::Power, _obsTrk, _obsNmSleep, now);
        else if (_state == State::Sleep)
            tr->instant(TraceCat::Power, _obsTrk, _obsNmWake, now);
    }

    _state = s;
    _stateSince = now;

    double watts = 0.0;
    double activeW = _cfg.power.activeWatts *
                     std::pow(freqScale(), _cfg.powerExponent);
    switch (s) {
      case State::Active:
        watts = activeW;
        break;
      case State::Idle:
        watts = _cfg.power.idleWatts;
        break;
      case State::Sleep:
        watts = _cfg.power.sleepWatts;
        break;
      case State::Waking:
        // Waking burns near-active power restoring state.
        watts = activeW;
        break;
    }
    _energy.setPower(watts, now);
    _statUtil.set(s == State::Active ? 1.0 : 0.0, now);
}

std::size_t
CpuCore::load() const
{
    return _queue.size() + (_running ? 1 : 0);
}

void
CpuCore::dispatch(CpuTask task)
{
    if (task.isr)
        _queue.push_front(std::move(task));
    else
        _queue.push_back(std::move(task));

    if (_sleepEvent != InvalidEventId) {
        deschedule(_sleepEvent);
        _sleepEvent = InvalidEventId;
    }

    if (_state == State::Sleep) {
        enterState(State::Waking);
        scheduleIn(_cfg.wakeLatency, [this] {
            vip_assert(_state == State::Waking, "wake from wrong state");
            enterState(State::Idle);
            tryStart();
        }, EventPriority::Default, "cpu.wake");
        return;
    }
    if (_state == State::Waking)
        return; // will start when awake
    tryStart();
}

void
CpuCore::interrupt(CpuTask isr)
{
    ++_interrupts;
    ++_statInterrupts;
    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Cpu)) {
        obsIntern(tr);
        tr->instant(TraceCat::Cpu, _obsTrk, _obsNmIrq, curTick());
    }
    isr.isr = true;
    isr.instructions += static_cast<std::uint64_t>(
        toSec(_cfg.irqEntryLatency) * _cfg.freqHz * _cfg.ipc);
    dispatch(std::move(isr));
}

void
CpuCore::tryStart()
{
    if (_running || _queue.empty() || _state == State::Waking ||
        _state == State::Sleep) {
        if (!_running && _queue.empty())
            maybeSleep();
        return;
    }

    _running = true;
    _current = std::move(_queue.front());
    _queue.pop_front();
    _obsTaskStart = curTick();
    enterState(State::Active);

    double ips = _curFreqHz * _cfg.ipc;
    Tick duration = fromSec(
        static_cast<double>(_current.instructions) / ips);
    // Even a trivial task costs one cycle.
    duration = std::max<Tick>(duration, clock().period());

    scheduleIn(duration, [this] { finishTask(); },
               EventPriority::Default, "cpu.task");
}

void
CpuCore::finishTask()
{
    vip_assert(_running, "finishTask with no running task");
    _instructions += _current.instructions;
    _energy.addDynamicNj(_cfg.power.energyPerInstrNj *
                         static_cast<double>(_current.instructions));
    ++_statTasks;

    if (Tracer *tr = system().tracer();
        tr && tr->enabled(TraceCat::Cpu)) {
        obsIntern(tr);
        tr->complete(TraceCat::Cpu, _obsTrk,
                     _current.isr ? _obsNmIsr : _obsNmTask,
                     _obsTaskStart, curTick(), -1, -1, -1,
                     static_cast<double>(_current.instructions));
    }

    auto cb = std::move(_current.onComplete);
    _running = false;
    enterState(State::Idle);

    if (cb)
        cb();

    if (!_queue.empty())
        tryStart();
    else
        maybeSleep();
}

void
CpuCore::startup()
{
    // A core that never received work still enters deep sleep after
    // the governor threshold.
    maybeSleep();
    if (_cfg.governor == CpuGovernor::OnDemand) {
        _lastGovActive = _activeTicks;
        _govEvent = scheduleIn(_cfg.governorPeriod,
                               [this] { governorTick(); },
                               EventPriority::Stats, "cpu.gov");
    }
}

void
CpuCore::governorTick()
{
    // Utilization over the last window (include the running segment).
    Tick active = _activeTicks;
    if (_state == State::Active)
        active += curTick() - _stateSince;
    double util = static_cast<double>(active - _lastGovActive) /
                  static_cast<double>(_cfg.governorPeriod);
    _lastGovActive = active;

    std::size_t step = _curStep;
    if (util > _cfg.upThreshold &&
        step + 1 < _cfg.freqSteps.size()) {
        ++step;
    } else if (util < _cfg.downThreshold && step > 0) {
        --step;
    }
    if (step != _curStep) {
        _curStep = step;
        _curFreqHz = _cfg.freqHz * _cfg.freqSteps[step];
        ++_dvfsTransitions;
        // Re-apply the current state's power at the new voltage/freq.
        enterState(_state);
    }
    _govEvent = scheduleIn(_cfg.governorPeriod,
                           [this] { governorTick(); },
                           EventPriority::Stats, "cpu.gov");
}

void
CpuCore::maybeSleep()
{
    if (_state != State::Idle || _sleepEvent != InvalidEventId)
        return;
    _sleepEvent = scheduleIn(_cfg.sleepThreshold,
                             [this] { sleepTimerFired(); },
                             EventPriority::Default, "cpu.sleep");
}

void
CpuCore::sleepTimerFired()
{
    _sleepEvent = InvalidEventId;
    if (_state == State::Idle && !_running && _queue.empty())
        enterState(State::Sleep);
}

Tick
CpuCore::sleepTicks() const
{
    Tick total = _sleepTicks;
    if (_state == State::Sleep)
        total += curTick() - _stateSince;
    return total;
}

void
CpuCore::finalize()
{
    Tick now = curTick();
    if (_state == State::Active)
        _activeTicks += now - _stateSince;
    else if (_state == State::Sleep)
        _sleepTicks += now - _stateSince;
    _stateSince = now;
    _energy.close(now);
    _statUtil.close(now);
}

void
CpuCore::registerStats(StatRegistry &r)
{
    // "soc.cpu.core0" -> "cpu.core0.*"
    std::string p = "cpu." + name().substr(name().rfind('.') + 1);
    r.addExact(p + ".instructions", "instructions retired", "",
               [this] { return double(_instructions); });
    r.addExact(p + ".interrupts", "interrupts serviced", "",
               [this] { return double(_interrupts); });
    r.addExact(p + ".dvfs_transitions", "DVFS steps taken (up+down)",
               "", [this] { return double(_dvfsTransitions); });
    r.addTiming(p + ".active_ms", "time executing tasks", "ms",
                [this] { return toMs(_activeTicks); });
    r.addTiming(p + ".sleep_ms", "time in the sleep state", "ms",
                [this] { return toMs(sleepTicks()); });
}

void
CpuCore::auditInvariants(AuditContext &ctx) const
{
    // Accumulated state time plus the open interval never exceeds
    // elapsed simulated time.
    Tick open = curTick() - _stateSince;
    ctx.checkLe("cpu.time_accounting",
                static_cast<std::uint64_t>(_activeTicks + _sleepTicks +
                                           open),
                static_cast<std::uint64_t>(curTick()),
                "state buckets exceed elapsed time");
    ctx.checkTrue("cpu.run_queue", !_running || _state == State::Active,
                  "task running on a non-active core");
}

void
CpuCore::saveState(SnapshotWriter &w) const
{
    vip_assert(quiescent(), "checkpointing a non-quiescent core ",
               name());
    EventQueue &eq = system().eventq();
    w.u8(static_cast<std::uint8_t>(_state));
    w.tick(_stateSince);
    w.tick(_activeTicks);
    w.tick(_sleepTicks);
    w.u64(_instructions);
    w.u64(_interrupts);
    w.d(_curFreqHz);
    w.u64(_curStep);
    w.tick(_lastGovActive);
    w.u64(_dvfsTransitions);
    // Pending timers: the sleep countdown (idle cores) and the DVFS
    // governor tick.  Ids + fire times; callbacks are re-created.
    eq.saveEvent(w, _sleepEvent);
    eq.saveEvent(w, _govEvent);
    _stats.saveState(w);
}

void
CpuCore::loadState(SnapshotReader &r)
{
    EventQueue &eq = system().eventq();
    _state = static_cast<State>(r.u8());
    _stateSince = r.tick();
    _activeTicks = r.tick();
    _sleepTicks = r.tick();
    _instructions = r.u64();
    _interrupts = r.u64();
    _curFreqHz = r.d();
    _curStep = r.u64();
    _lastGovActive = r.tick();
    _dvfsTransitions = r.u64();
    _sleepEvent = eq.restoreEvent(r, [this] { sleepTimerFired(); },
                                  EventPriority::Default, "cpu.sleep");
    _govEvent = eq.restoreEvent(r, [this] { governorTick(); },
                                EventPriority::Stats, "cpu.gov");
    _stats.loadState(r);
    // The restored power level is re-integrated by the energy ledger
    // (serialized separately); nothing to re-apply here.
}

void
CpuCore::stateDigest(StateDigest &d) const
{
    d.add(name());
    d.add(static_cast<std::uint64_t>(_state));
    d.add(static_cast<std::uint64_t>(_stateSince));
    d.add(static_cast<std::uint64_t>(_activeTicks));
    d.add(static_cast<std::uint64_t>(_sleepTicks));
    d.add(_instructions);
    d.add(_interrupts);
    d.add(static_cast<std::uint64_t>(_queue.size()));
    d.add(_running);
    d.add(_curFreqHz);
    d.add(_dvfsTransitions);
}

} // namespace vip
