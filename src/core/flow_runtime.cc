#include "core/flow_runtime.hh"

#include <algorithm>

#include "core/header_packet.hh"
#include "obs/latency.hh"
#include "obs/tracer.hh"

namespace vip
{

namespace
{
/** Instructions to process one touch/flick input in software. */
constexpr std::uint64_t kInputProcInstr = 500'000;
} // namespace

std::uint64_t
FlowRuntime::appWork()
{
    // Per-frame software cost varies in practice (garbage collection,
    // scheduler interference, codec work per frame): model it as a
    // uniform jitter around the nominal cost.  This is what gives the
    // baseline its deadline-miss tail.
    double scale = _p.sys->random().uniform(0.65, 1.45);
    return static_cast<std::uint64_t>(
        static_cast<double>(_spec.appInstrPerFrame) * scale);
}

FlowRuntime::FlowRuntime(PlatformRefs refs, FlowSpec spec, AppClass cls,
                         FlowId id, Tick phase, FrameTrace *trace)
    : _p(refs), _spec(std::move(spec)), _cls(cls), _id(id),
      _phase(phase), _trace(trace)
{
    vip_assert(_p.sys && _p.cfg && _p.stack && _p.chains && _p.sa &&
               _p.alloc && _p.ipFor, "incomplete platform refs");
    _spec.validate();
    _nominalFps = _spec.fps;
    _traits = traitsOf(_p.cfg->system);

    for (IpKind k : _spec.hwStages()) {
        IpCore *ip = _p.ipFor(k);
        vip_assert(ip, "no IP instance for ", ipKindName(k));
        _ips.push_back(ip);
    }
    _numStages = _ips.size();

    buildBurstPolicy();
    if (_cls == AppClass::Game && isInteractive())
        _touch = makeTouchModel(_spec.name);
}

void
FlowRuntime::buildBurstPolicy()
{
    if (!_traits.frameBurst)
        return;
    // Section 4.3's class-specific policy, applied per flow: only
    // the interactive render flow of a game is input-limited.
    // Rebuilt after admission down-rates the FPS, since the policies
    // size bursts from the flow spec.
    AppClass effective = _cls;
    if (!(_cls == AppClass::Game && isInteractive()))
        effective = _spec.hasGop ? AppClass::VideoPlayback
                                 : AppClass::AudioOnly;
    _burst = makeBurstPolicy(effective, _spec,
                             _p.cfg->burstFrames,
                             _p.cfg->gameBurstCap);
}

bool
FlowRuntime::isInteractive() const
{
    return _spec.qosCritical && !_ips.empty() &&
           _ips.front()->kind() == IpKind::GPU;
}

Tick
FlowRuntime::frameTick(std::uint64_t k) const
{
    return _phase + static_cast<Tick>(k) * _spec.period();
}

Tick
FlowRuntime::genSpan() const
{
    // Sensor readout occupies ~40% of the frame interval: camera
    // sensors read out at roughly twice line rate, and two flows of
    // the same app (preview + record) tap the same capture.
    return _spec.sourceGenerated()
        ? static_cast<Tick>(0.4 * static_cast<double>(_spec.period()))
        : 0;
}

FlowRuntime::FrameCtx &
FlowRuntime::makeCtx(std::uint64_t k)
{
    FrameCtx ctx;
    ctx.edges = _spec.frameEdges(k);
    ctx.addrs.reserve(ctx.edges.size());
    for (auto b : ctx.edges)
        ctx.addrs.push_back(_p.alloc->allocate(b));
    ctx.gen = frameTick(k);
    ctx.deadline = ctx.gen + static_cast<Tick>(
        _p.cfg->deadlineFrames * static_cast<double>(_spec.period()));
    ++_generated;
    auto [it, ok] = _frames.emplace(k, std::move(ctx));
    vip_assert(ok, "duplicate frame ", k, " in flow ", _spec.name);
    if (Tracer *tr = _p.sys->tracer();
        tr && tr->enabled(TraceCat::Frame)) {
        if (!_obsFrameNm)
            _obsFrameNm = tr->intern("frame " + _spec.name);
        tr->asyncBegin(TraceCat::Frame, _obsFrameNm, it->second.gen,
                       static_cast<std::int32_t>(_id),
                       static_cast<std::int64_t>(k));
    }
    return it->second;
}

bool
FlowRuntime::shouldShed() const
{
    if (_p.cfg->overloadPolicy != OverloadPolicy::Degrade)
        return false;
    // The pipeline is hopelessly behind: new frames could only queue.
    if (_frames.size() >=
        static_cast<std::size_t>(_p.cfg->overloadMaxInFlight)) {
        return true;
    }
    // EDF slack has been negative for K consecutive frames.
    return _consecLate >= _p.cfg->shedAfterLateFrames;
}

void
FlowRuntime::shedFrame(std::uint64_t k)
{
    // Drop the whole frame at the chain head -- the cheapest point:
    // no buffers, no app work, no driver call, no chain traffic.
    // Resetting the late counter sheds proportionally (every K-th
    // frame) instead of starving the flow outright.
    (void)k;
    ++_generated;
    ++_shed;
    _consecLate = 0;
    if (Tracer *tr = _p.sys->tracer();
        tr && tr->enabled(TraceCat::Fault)) {
        if (!_obsTrack)
            _obsTrack = tr->intern("flow." + _spec.name);
        tr->instant(TraceCat::Fault, _obsTrack,
                    tr->intern("frame-shed"), _p.sys->curTick(),
                    static_cast<std::int32_t>(_id),
                    static_cast<std::int64_t>(k));
    }
}

void
FlowRuntime::noteDegraded(std::uint64_t k)
{
    auto it = _frames.find(k);
    if (it != _frames.end())
        it->second.degraded = true;
    if (Tracer *tr = _p.sys->tracer();
        tr && tr->enabled(TraceCat::Fault)) {
        if (!_obsTrack)
            _obsTrack = tr->intern("flow." + _spec.name);
        tr->instant(TraceCat::Fault, _obsTrack,
                    tr->intern("frame-degraded"), _p.sys->curTick(),
                    static_cast<std::int32_t>(_id),
                    static_cast<std::int64_t>(k));
    }
}

void
FlowRuntime::recordStart(std::uint64_t k)
{
    auto it = _frames.find(k);
    if (it != _frames.end() && it->second.started == 0) {
        it->second.started = _p.sys->curTick();
        if (Tracer *tr = _p.sys->tracer();
            tr && tr->enabled(TraceCat::Frame)) {
            tr->asyncInstant(TraceCat::Frame, tr->intern("started"),
                             it->second.started,
                             static_cast<std::int32_t>(_id),
                             static_cast<std::int64_t>(k));
        }
    }
}

void
FlowRuntime::frameDone(std::uint64_t k)
{
    auto it = _frames.find(k);
    vip_assert(it != _frames.end(), "completion for unknown frame ", k,
               " in ", _spec.name);
    FrameCtx &ctx = it->second;
    Tick now = _p.sys->curTick();

    // Display-bound frames become visible at the next vsync scanout.
    Tick judged = now;
    if (_p.cfg->vsyncAligned && !_ips.empty() &&
        _ips.back()->kind() == IpKind::DC) {
        Tick vs = fromSec(1.0 / _p.cfg->vsyncHz);
        judged = (now + vs - 1) / vs * vs;
    }
    bool violated = ctx.degraded || judged > ctx.deadline;
    bool dropped = ctx.degraded ||
                   judged > ctx.deadline + _spec.period();
    if (violated)
        ++_consecLate;
    else
        _consecLate = 0;
    ++_completed;
    if (violated)
        ++_violations;
    if (dropped)
        ++_drops;
    // Two latency views (Fig 17 is ambiguous about which the paper
    // plots, so RunStats carries both):
    //  - flow time: from the frame's nominal generation instant (or
    //    later first-stage start) to completion -- burst modes that
    //    run the hardware ahead of the frame cadence score near zero;
    //  - transit: from the first stage touching the frame's data to
    //    completion -- the pure pipeline latency, queueing included.
    Tick startRef = ctx.started ? std::max(ctx.gen, ctx.started)
                                : ctx.gen;
    Tick flowTime = now > startRef ? now - startRef : 0;
    _flowTimeSumMs += toMs(flowTime);
    Tick transitRef = ctx.started ? ctx.started : ctx.gen;
    Tick transit = now > transitRef ? now - transitRef : 0;
    _transitSumMs += toMs(transit);

    if (LatencyCollector *lc = _p.sys->latency())
        lc->recordFrame(flowTime, transit);
    if (Tracer *tr = _p.sys->tracer();
        tr && tr->enabled(TraceCat::Frame)) {
        if (!_obsFrameNm)
            _obsFrameNm = tr->intern("frame " + _spec.name);
        tr->asyncEnd(TraceCat::Frame, _obsFrameNm, now,
                     static_cast<std::int32_t>(_id),
                     static_cast<std::int64_t>(k), ctx.deadline);
        if (violated || dropped) {
            if (!_obsTrack)
                _obsTrack = tr->intern("flow." + _spec.name);
            tr->instant(TraceCat::Frame, _obsTrack,
                        tr->intern(dropped ? "frame-dropped"
                                           : "deadline-miss"),
                        now, static_cast<std::int32_t>(_id),
                        static_cast<std::int64_t>(k));
        }
    }

    if (_trace) {
        FrameEvent ev;
        ev.flowId = _id;
        ev.flowName = _spec.name;
        ev.frameId = k;
        ev.generated = ctx.gen;
        ev.started = startRef;
        ev.completed = now;
        ev.deadline = ctx.deadline;
        ev.violated = violated;
        ev.dropped = dropped;
        _trace->record(std::move(ev));
    }
    _frames.erase(it);
    maybeTeardown();
}

Tick
FlowRuntime::inputHint() const
{
    if (!_touch)
        return MaxTick;
    Tick now = _p.sys->curTick();
    if (now < _inputBusyUntil)
        return now; // finger down right now
    return _nextInput;
}

// --------------------------------------------------------------------
// Startup
// --------------------------------------------------------------------

void
FlowRuntime::applyAdmission()
{
    _nominalFps = _spec.fps;
    if (_ips.empty())
        return;

    const double headroom = _p.cfg->admissionHeadroom;
    AdmissionCheck chk = _p.chains->checkAdmission(
        _ips, _spec.edgeBytes, _spec.fps, headroom);
    if (!chk.feasible) {
        switch (_p.cfg->overloadPolicy) {
          case OverloadPolicy::Reject:
            _rejected = true;
            warn("flow ", _spec.name, ": admission rejected (",
                 chk.bottleneck ? chk.bottleneck->name() : "?",
                 " would reach ", chk.worstLoad, " utilization)");
            break;
          case OverloadPolicy::Degrade:
            // Halve the target rate until the flow fits (bounded:
            // below 1/8 of nominal the flow is useless anyway and is
            // admitted as-is, shedding the rest at run time).
            for (int halvings = 0; halvings < 3 && !chk.feasible;
                 ++halvings) {
                _spec.fps /= 2.0;
                chk = _p.chains->checkAdmission(
                    _ips, _spec.edgeBytes, _spec.fps, headroom);
            }
            buildBurstPolicy();
            warn("flow ", _spec.name, ": admission down-rated ",
                 _nominalFps, " -> ", _spec.fps, " FPS");
            break;
          case OverloadPolicy::BestEffort:
            break;
        }
    }
    if (!_rejected) {
        _p.chains->recordAdmission(_ips, _spec.edgeBytes, _spec.fps);
        _admitted = true;
    }
    // The feasibility math is driver work at open() time.  Under the
    // legacy BestEffort default open() has no admission stage, so no
    // CPU time is charged (keeps the seed CPU profile bit-exact).
    if (_p.cfg->overloadPolicy != OverloadPolicy::BestEffort)
        _p.stack->runAdmissionCheck([] {});
}

void
FlowRuntime::start()
{
    applyAdmission();
    if (_rejected)
        return;

    if (_traits.ipToIp) {
        _chain = _p.chains->create(
            _id, _ips, _spec.edgeBytes,
            [this](FlowId, std::uint64_t k) { onChainExit(k); },
            [this](FlowId, std::uint64_t k) { recordStart(k); });
        _chainCreated = true;

        // open(): the one-time chain instantiation API call.
        _p.stack->runTask(_p.stack->costs().chainOpenInstr, [] {});

        // Every chained mode routes data through lane buffers; the
        // single-context constraint of non-virtualized IPs is
        // enforced by their switch granularity instead of exclusive
        // chain ownership.  When lanes are exhausted (more flows than
        // buffer lanes at some IP) the flow degrades to transactional
        // whole-chain acquisition -- the paper's "stall the sender"
        // option.
        if (!_p.chains->bindPersistent(_chain)) {
            warn("flow ", _spec.name,
                 ": lanes exhausted, falling back to transactional "
                 "chain acquisition");
            _vipFallback = true;
        }
    }

    if (_touch)
        scheduleNextInput();

    armGen(0);
}

void
FlowRuntime::armGen(std::uint64_t k)
{
    _genNextK = k;
    _genEvent = _p.sys->eventq().schedule(
        frameTick(k), [this, k] { dispatchGen(k); },
        EventPriority::Default, "flow.gen");
}

void
FlowRuntime::dispatchGen(std::uint64_t k)
{
    _genEvent = InvalidEventId;
    if (_traits.frameBurst) {
        if (!_traits.ipToIp)
            genBurstJobs(k);
        else if (_traits.virtualized && !_vipFallback)
            genBurstVip(k);
        else
            genBurstChained(k);
    } else {
        if (_traits.ipToIp)
            genFrameChained(k);
        else
            genFrameBaseline(k);
    }
}

void
FlowRuntime::stop()
{
    if (_stopping)
        return;
    _stopping = true;
    // The close() call costs software work like the open() did.
    _p.stack->runTask(_p.stack->costs().chainOpenInstr / 2, [] {});
    maybeTeardown();
}

void
FlowRuntime::maybeTeardown()
{
    if (!_stopping || _tornDown || !_frames.empty())
        return;
    _tornDown = true;
    if (_admitted) {
        _p.chains->releaseAdmission(_ips, _spec.edgeBytes, _spec.fps);
        _admitted = false;
    }
    if (_chainCreated && !_vipFallback && _p.chains->bound(_chain))
        _p.chains->close(_chain);
}

// --------------------------------------------------------------------
// User input (game flows)
// --------------------------------------------------------------------

void
FlowRuntime::scheduleNextInput()
{
    Tick gap = _touch->nextGap(_p.sys->random());
    Tick dur = _touch->inputDuration(_p.sys->random());
    _nextInput = _p.sys->curTick() + gap;
    _inputDur = dur;
    _inputEvent = _p.sys->eventq().schedule(_nextInput, [this, dur] {
        _inputEvent = InvalidEventId;
        onInputEvent(dur);
    }, EventPriority::Default, "flow.input");
}

void
FlowRuntime::onInputEvent(Tick duration)
{
    _inputBusyUntil = _p.sys->curTick() + duration;

    // Touch processing wakes the CPU in every configuration.
    _p.stack->runTask(kInputProcInstr, [] {});

    // Mid-burst input: pre-computed frames whose presentation time is
    // still ahead show stale game state; the rollback path re-computes
    // them in software (Fig 11's rollback branch).  The hardware may
    // already have rendered them -- the redo cost is what matters.
    if (_traits.frameBurst && _p.cfg->enableRollback &&
        _activeBurstSize > 0) {
        Tick now = _p.sys->curTick();
        Tick burstEnd = frameTick(_activeBurstFirst + _activeBurstSize);
        if (now < burstEnd) {
            std::uint64_t stale =
                (burstEnd - now + _spec.period() - 1) / _spec.period();
            stale = std::min<std::uint64_t>(stale, _activeBurstSize);
            _p.stack->runTask(_spec.appInstrPerFrame * stale, [] {});
        }
    }
    scheduleNextInput();
}

// --------------------------------------------------------------------
// Baseline: per-frame, per-stage CPU orchestration
// --------------------------------------------------------------------

void
FlowRuntime::genFrameBaseline(std::uint64_t k)
{
    if (_stopping)
        return;
    if (shouldShed()) {
        shedFrame(k);
    } else {
        makeCtx(k);
        _p.stack->runTask(
            appWork() + _p.stack->costs().driverSetupInstr,
            [this, k] { submitStage(k, 0, /*burst_mode=*/false); });
    }

    armGen(k + 1);
}

void
FlowRuntime::submitStage(std::uint64_t k, std::size_t i, bool burst_mode)
{
    auto it = _frames.find(k);
    vip_assert(it != _frames.end(), "stage for unknown frame");
    FrameCtx &ctx = it->second;

    StageJob j;
    j.flowId = _id;
    j.frameId = k;
    j.inputBytes = ctx.edges[i];
    j.outputBytes = i + 1 < _numStages ? ctx.edges[i + 1] : 0;
    j.inputAddr = ctx.addrs[i];
    j.outputAddr = i + 1 < _numStages ? ctx.addrs[i + 1] : 0;
    j.readsMemory = !(i == 0 && _spec.sourceGenerated());
    j.writesMemory = i + 1 < _numStages;
    j.deadline = ctx.deadline;
    if (i == 0)
        j.onStart = [this, k] { recordStart(k); };

    if (!burst_mode) {
        j.onComplete = [this, k, i] {
            _p.stack->raiseInterrupt([this, k, i] {
                if (i + 1 < _numStages) {
                    _p.stack->runTask(
                        _p.stack->costs().driverSetupInstr,
                        [this, k, i] {
                            submitStage(k, i + 1, false);
                        });
                } else {
                    frameDone(k);
                }
            });
        };
    } else {
        j.onComplete = [this, k, i] {
            if (i + 1 < _numStages) {
                // Hardware doorbell: next stage starts with no CPU.
                submitStage(k, i + 1, true);
            } else {
                auto left = _frames.at(k).burstLeft;
                frameDone(k);
                if (left && --*left == 0) {
                    // One interrupt per completed burst.
                    _p.stack->raiseInterrupt([] {});
                }
            }
        };
    }
    _p.stack->submitWithRetry(*_ips[i], std::move(j));
}

// --------------------------------------------------------------------
// FrameBurst over the memory-staged pipeline
// --------------------------------------------------------------------

void
FlowRuntime::burstPipeline(std::uint64_t k0, std::uint32_t n,
                           std::uint64_t k, BurstAction action)
{
    const auto &c = _p.stack->costs();

    // Interactive (game) frames must be *generated* by the CPU before
    // the hardware can consume them, so the pipeline gates each frame
    // on its software work.  Media frames already exist (a video's
    // compressed data is on disk): the Schedule_FrameBurst call hands
    // the whole burst to the hardware after one setup task and the
    // per-frame software bookkeeping runs alongside, off the critical
    // path — which is exactly why a burst can occupy an IP chain
    // continuously (Fig 7).
    bool gating = _cls == AppClass::Game && isInteractive();

    if (!gating) {
        vip_assert(k == k0, "non-gating burst re-entered");
        std::uint64_t setup =
            c.burstSetupBaseInstr + c.burstSetupPerFrameInstr;
        _p.stack->runTask(setup, [this, k0, n, action] {
            for (std::uint64_t kk = k0; kk < k0 + n; ++kk)
                action(kk, kk + 1 == k0 + n);
            // Account the remaining per-frame software work without
            // gating the hardware.
            const auto &cc = _p.stack->costs();
            std::uint64_t rest =
                (n - 1) * cc.burstSetupPerFrameInstr;
            for (std::uint32_t j = 0; j < n; ++j)
                rest += appWork();
            if (rest > 0)
                _p.stack->runTask(rest, [] {});
        });
        return;
    }

    std::uint64_t cost = c.burstSetupPerFrameInstr + appWork();
    if (k == k0)
        cost += c.burstSetupBaseInstr;
    _p.stack->runTask(cost, [this, k0, n, k, action] {
        action(k, k + 1 == k0 + n);
        if (k + 1 < k0 + n)
            burstPipeline(k0, n, k + 1, action);
    });
}

void
FlowRuntime::genBurstJobs(std::uint64_t k0)
{
    if (_stopping)
        return;
    Tick now = _p.sys->curTick();
    std::uint32_t n = _burst->nextBurst(k0, now, inputHint());
    if (shouldShed()) {
        for (std::uint64_t k = k0; k < k0 + n; ++k)
            shedFrame(k);
        armGen(k0 + n);
        return;
    }
    auto left = std::make_shared<std::uint32_t>(n);
    _activeBurstLeft = left;
    _activeBurstSize = n;
    _activeBurstFirst = k0;

    for (std::uint64_t k = k0; k < k0 + n; ++k)
        makeCtx(k).burstLeft = left;

    burstPipeline(k0, n, k0, [this](std::uint64_t k, bool) {
        submitStage(k, 0, /*burst_mode=*/true);
    });

    armGen(k0 + n);
}

// --------------------------------------------------------------------
// IP-to-IP: chained streaming
// --------------------------------------------------------------------

void
FlowRuntime::feedNow(std::uint64_t k, bool txn_end)
{
    auto it = _frames.find(k);
    vip_assert(it != _frames.end(), "feeding unknown frame");
    FrameCtx &ctx = it->second;
    _p.chains->feed(_chain, k, ctx.edges, ctx.addrs[0], ctx.deadline,
                    genSpan(), txn_end);
}

void
FlowRuntime::genFrameChained(std::uint64_t k)
{
    if (_stopping)
        return;
    if (shouldShed()) {
        shedFrame(k);
        armGen(k + 1);
        return;
    }
    makeCtx(k);
    _p.stack->runTask(
        appWork() + _p.stack->costs().chainSetupInstr,
        [this, k] {
            if (_vipFallback) {
                _p.chains->acquire(_chain,
                                   [this, k] { feedNow(k, true); });
            } else {
                feedNow(k, true);
            }
        });

    armGen(k + 1);
}

void
FlowRuntime::genBurstChained(std::uint64_t k0)
{
    if (_stopping)
        return;
    Tick now = _p.sys->curTick();
    std::uint32_t n = _burst->nextBurst(k0, now, inputHint());
    if (shouldShed()) {
        for (std::uint64_t k = k0; k < k0 + n; ++k)
            shedFrame(k);
        armGen(k0 + n);
        return;
    }
    auto left = std::make_shared<std::uint32_t>(n);
    _activeBurstLeft = left;
    _activeBurstSize = n;
    _activeBurstFirst = k0;

    for (std::uint64_t k = k0; k < k0 + n; ++k)
        makeCtx(k).burstLeft = left;

    // The burst occupies each single-context IP until its last frame
    // drains (the head-of-line blocking regime of Fig 7), expressed
    // through the Transaction switch granularity.
    auto feed = [this](std::uint64_t k, bool last) {
        feedNow(k, /*txn_end=*/last);
    };
    if (_vipFallback) {
        _p.chains->acquire(_chain, [this, k0, n, feed] {
            burstPipeline(k0, n, k0, feed);
        });
    } else {
        burstPipeline(k0, n, k0, feed);
    }

    armGen(k0 + n);
}

void
FlowRuntime::genBurstVip(std::uint64_t k0)
{
    if (_stopping)
        return;
    Tick now = _p.sys->curTick();
    std::uint32_t n = _burst->nextBurst(k0, now, inputHint());
    if (shouldShed()) {
        for (std::uint64_t k = k0; k < k0 + n; ++k)
            shedFrame(k);
        armGen(k0 + n);
        return;
    }
    auto left = std::make_shared<std::uint32_t>(n);
    _activeBurstLeft = left;
    _activeBurstSize = n;
    _activeBurstFirst = k0;

    for (std::uint64_t k = k0; k < k0 + n; ++k)
        makeCtx(k).burstLeft = left;

    burstPipeline(k0, n, k0, [this, k0, n](std::uint64_t k,
                                           bool last) {
        if (k == k0) {
            // Ship the header packet (Fig 12) through the SA ahead of
            // the burst's data; the chain then runs autonomously.
            HeaderPacket hp;
            std::vector<IpKind> kinds;
            kinds.reserve(_ips.size());
            for (auto *ip : _ips)
                kinds.push_back(ip->kind());
            hp.setIps(kinds);
            hp.setFrameSizeKb(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(_spec.edgeBytes[0] / 1024,
                                        0xffff)));
            hp.setBurstSize(std::min(n, 15u));
            hp.setFrameRate(static_cast<std::uint32_t>(
                std::min(15.0, _spec.fps / 10.0)));
            auto it = _frames.find(k0);
            if (it != _frames.end()) {
                hp.setSrcAddr(it->second.addrs.front());
                hp.setDestAddr(it->second.addrs.back());
            }
            _p.sa->peerTransfer(hp.sizeBytes(), [] {});
        }
        feedNow(k, /*txn_end=*/last);
    });

    armGen(k0 + n);
}

void
FlowRuntime::onChainExit(std::uint64_t k)
{
    if (!_traits.frameBurst) {
        // Per-frame completion: interrupt the host.
        if (_vipFallback)
            _p.chains->release(_chain);
        _p.stack->raiseInterrupt([this, k] { frameDone(k); });
        return;
    }

    auto left = _frames.at(k).burstLeft;
    frameDone(k);
    if (left && --*left == 0) {
        if (_vipFallback)
            _p.chains->release(_chain);
        _p.stack->raiseInterrupt([] {});
    }
}

// --------------------------------------------------------------------
// Results
// --------------------------------------------------------------------

FlowResult
FlowRuntime::result(double seconds) const
{
    FlowResult r;
    r.name = _spec.name;
    r.qosCritical = _spec.qosCritical;
    r.fps = _spec.fps;
    r.nominalFps = _nominalFps;
    r.admitted = !_rejected;
    r.generated = _generated;
    r.completed = _completed;
    r.violations = _violations;
    r.drops = _drops;
    r.shed = _shed;
    r.inFlight = _frames.size();
    r.meanFlowTimeMs =
        _completed ? _flowTimeSumMs / static_cast<double>(_completed)
                   : 0.0;
    r.meanTransitMs =
        _completed ? _transitSumMs / static_cast<double>(_completed)
                   : 0.0;
    r.achievedFps = seconds > 0.0
        ? static_cast<double>(_completed - _drops) / seconds
        : 0.0;
    return r;
}

void
FlowRuntime::auditInvariants(AuditContext &ctx) const
{
    // Frame conservation: every generated frame is completed, shed at
    // the chain head, or still in flight -- continuously, not just at
    // teardown.
    ctx.checkEq("flow.conservation", _generated,
                _completed + _shed + _frames.size(),
                _spec.name + " leaks frames");
    ctx.checkLe("flow.violations_le_completed", _violations, _completed,
                _spec.name);
    ctx.checkLe("flow.drops_le_completed", _drops, _completed,
                _spec.name);
    ctx.checkTrue("flow.rejected_idle",
                  !_rejected || (_generated == 0 && _frames.empty()),
                  _spec.name + " generated frames while rejected");
}

void
FlowRuntime::stateDigest(StateDigest &d) const
{
    d.add(_spec.name);
    d.add(_generated);
    d.add(_completed);
    d.add(_violations);
    d.add(_drops);
    d.add(_shed);
    d.add(_flowTimeSumMs);
    d.add(_transitSumMs);
    d.add(_stopping);
    d.add(_tornDown);
    d.add(_rejected);
    d.add(_spec.fps);
    // In-flight frame contexts live in an unordered_map: walk the
    // keys sorted so the digest is independent of hash order.
    std::vector<std::uint64_t> keys;
    keys.reserve(_frames.size());
    for (const auto &[k, ctx] : _frames)
        keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t k : keys) {
        const FrameCtx &f = _frames.at(k);
        d.add(k);
        d.add(static_cast<std::uint64_t>(f.gen));
        d.add(static_cast<std::uint64_t>(f.deadline));
        d.add(static_cast<std::uint64_t>(f.started));
        d.add(f.degraded);
    }
}

// --------------------------------------------------------------------
// Checkpoint / restore
// --------------------------------------------------------------------

ChainId
FlowRuntime::recreateChain()
{
    vip_assert(_chainCreated,
               "chain restore for flow ", _spec.name,
               " which never created one");
    ChainId id = _p.chains->create(
        _id, _ips, _spec.edgeBytes,
        [this](FlowId, std::uint64_t k) { onChainExit(k); },
        [this](FlowId, std::uint64_t k) { recordStart(k); });
    vip_assert(id == _chain, "chain ", _chain, " of flow ", _spec.name,
               " recreated out of order as ", id);
    return id;
}

void
FlowRuntime::saveState(SnapshotWriter &w) const
{
    vip_assert(quiescent(), "checkpointing flow ", _spec.name,
               " with frames in flight");
    w.d(_spec.fps);
    w.d(_nominalFps);
    w.u32(_chain);
    w.b(_chainCreated);
    w.b(_vipFallback);
    w.b(_stopping);
    w.b(_tornDown);
    w.b(_rejected);
    w.b(_admitted);
    w.u32(_consecLate);
    w.tick(_nextInput);
    w.tick(_inputBusyUntil);
    w.b(static_cast<bool>(_activeBurstLeft));
    w.u32(_activeBurstLeft ? *_activeBurstLeft : 0);
    w.u32(_activeBurstSize);
    w.u64(_activeBurstFirst);
    w.u64(_generated);
    w.u64(_completed);
    w.u64(_violations);
    w.u64(_drops);
    w.u64(_shed);
    w.d(_flowTimeSumMs);
    w.d(_transitSumMs);

    // Pending cadence events.  A stopped flow's generation event may
    // still be live as a no-op; it is saved and re-armed all the same
    // so the restored event queue matches the snapshot exactly.
    const EventQueue &eq = _p.sys->eventq();
    if (eq.saveEvent(w, _genEvent))
        w.u64(_genNextK);
    if (eq.saveEvent(w, _inputEvent))
        w.tick(_inputDur);
}

void
FlowRuntime::loadState(SnapshotReader &r)
{
    _spec.fps = r.d();
    _nominalFps = r.d();
    _chain = r.u32();
    _chainCreated = r.b();
    _vipFallback = r.b();
    _stopping = r.b();
    _tornDown = r.b();
    _rejected = r.b();
    _admitted = r.b();
    _consecLate = r.u32();
    _nextInput = r.tick();
    _inputBusyUntil = r.tick();
    bool haveBurst = r.b();
    std::uint32_t burstLeft = r.u32();
    _activeBurstLeft = haveBurst
        ? std::make_shared<std::uint32_t>(burstLeft) : nullptr;
    _activeBurstSize = r.u32();
    _activeBurstFirst = r.u64();
    _generated = r.u64();
    _completed = r.u64();
    _violations = r.u64();
    _drops = r.u64();
    _shed = r.u64();
    _flowTimeSumMs = r.d();
    _transitSumMs = r.d();
    // Burst policies size bursts from the (possibly down-rated) spec.
    buildBurstPolicy();

    // The re-armed callbacks read the frame index and touch duration
    // that follow each event in the snapshot; both stay fixed while
    // their event is pending.
    auto &eq = _p.sys->eventq();
    _genEvent = eq.restoreEvent(r, [this] { dispatchGen(_genNextK); },
                                EventPriority::Default, "flow.gen");
    if (_genEvent != InvalidEventId)
        _genNextK = r.u64();
    _inputEvent = eq.restoreEvent(r, [this] {
        _inputEvent = InvalidEventId;
        onInputEvent(_inputDur);
    }, EventPriority::Default, "flow.input");
    if (_inputEvent != InvalidEventId)
        _inputDur = r.tick();
}

} // namespace vip
