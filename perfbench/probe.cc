/**
 * @file
 * perfbench_probe: the benchmark's in-process legs.
 *
 * Calls the simulator library's public entry points and records a span
 * (name, start, end, parent) around each call, on CLOCK_MONOTONIC in
 * nanoseconds (the clock Python's time.monotonic_ns() reads, so run.py
 * can nest these spans under its own process spans).  Every timing is
 * host time; simulated quantities are named as such.
 *
 *   perfbench_probe sim <config> <workload> <seed> <sim-seconds> <pairs> <dir>
 *       <pairs> interleaved untraced/traced Simulation runs plus one
 *       observer run per pair:
 *         untraced  bare, as vip_sim runs it (interrupt flag armed)
 *         traced    --prof at sampling stride 1: exact per-kind
 *                   counts and wall time, written to <dir>/prof-<i>.json
 *         obs       the fleet worker's observers (metrics CSV at 1 ms,
 *                   --ts over every stat); times writeStatsJson,
 *                   writeSeriesJson and, at the next quiescent point
 *                   within 1 simulated s, saveCheckpoint into <dir>
 *   perfbench_probe kernel <depth> <events> <seed> <trials>
 *       EventQueue schedule + serviceOne at a constant queue depth with
 *       a trivial callback; prints ns per event for each trial
 *   perfbench_probe mem <requests> <seed> <trials>
 *       MemoryController::access of seeded requests, 16 outstanding,
 *       served by System::run until all complete; prints ns per request
 *
 * Output is one JSON object on stdout.  Exit 1 on a usage or
 * simulation error.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "fleet/job_spec.hh"
#include "mem/memory_controller.hh"
#include "power/energy_account.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/system.hh"

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; ///< index into the run's span list; -1 = process
};

/** Spans of one probe invocation, kept in memory until exit. */
class SpanLog
{
  public:
    int
    open(std::string name, int parent = -1)
    {
        _spans.push_back({std::move(name), nowNs(), 0, parent});
        return static_cast<int>(_spans.size()) - 1;
    }
    void close(int idx) { _spans[idx].end = nowNs(); }
    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
};

std::atomic<int> gNoSignal{0};

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

void
writeFile(const std::string &path, const vip::Simulation &sim,
          void (vip::Simulation::*write)(std::ostream &) const)
{
    std::ofstream out(path);
    if (!out)
        vip::fatal("cannot write ", path);
    (sim.*write)(out);
}

/** One Simulation run of the `sim` leg; returns its JSON record. */
std::string
simRun(const std::string &mode, int pair, vip::SocConfig cfg,
       const std::string &workload, const std::string &dir, SpanLog &log)
{
    cfg.interruptFlag = &gNoSignal;
    const std::string tag = "-" + std::to_string(pair);
    if (mode == "traced") {
        cfg.prof.out = dir + "/prof" + tag + ".json";
        cfg.prof.sampleEvery = 1;
    } else if (mode == "obs") {
        cfg.metrics.out = dir + "/metrics" + tag + ".csv";
        cfg.metrics.intervalMs = 1.0;
        cfg.ts.armed = true;
    }
    const int top = log.open(mode);
    int s = log.open("Simulation()", top);
    vip::Simulation sim(cfg, vip::fleet::workloadByName(workload));
    log.close(s);
    s = log.open("run()", top);
    sim.run();
    log.close(s);
    const std::uint64_t events = sim.system().eventq().servicedEvents();

    std::string extra;
    if (mode == "traced") {
        s = log.open("writeProfJson", top);
        writeFile(cfg.prof.out, sim, &vip::Simulation::writeProfJson);
        log.close(s);
    } else if (mode == "obs") {
        const std::string stats = dir + "/stats" + tag + ".json";
        const std::string series = dir + "/series" + tag + ".json";
        const std::string ckpt = dir + "/checkpoint" + tag + ".vips";
        s = log.open("writeStatsJson", top);
        writeFile(stats, sim, &vip::Simulation::writeStatsJson);
        log.close(s);
        s = log.open("writeSeriesJson", top);
        writeFile(series, sim, &vip::Simulation::writeSeriesJson);
        log.close(s);
        // saveCheckpoint needs a quiescent point: step the finished
        // run forward to the next one (untimed), then time the write.
        // Streaming cells may have none within the bound; they write
        // no checkpoint (as their fleet jobs' rings stay empty).
        s = log.open("quiesce", top);
        const vip::Tick endTick = sim.system().curTick();
        vip::EventQueue &eq = sim.system().eventq();
        sim.system().run(endTick + vip::fromSec(1.0), [&](vip::Tick) {
            if (sim.quiescent())
                eq.requestStop();
        });
        log.close(s);
        if (sim.quiescent()) {
            s = log.open("saveCheckpoint", top);
            sim.saveCheckpoint(ckpt);
            log.close(s);
        }
        extra = ",\"stats_json_bytes\":" + std::to_string(fileBytes(stats)) +
                ",\"series_json_bytes\":" +
                std::to_string(fileBytes(series)) +
                ",\"checkpoint_bytes\":" + std::to_string(fileBytes(ckpt)) +
                ",\"metrics_csv_bytes\":" +
                std::to_string(fileBytes(cfg.metrics.out));
    }
    log.close(top);
    return "{\"mode\":\"" + mode + "\",\"pair\":" + std::to_string(pair) +
           ",\"events\":" + std::to_string(events) + extra + "}";
}

int
simLeg(char **argv)
{
    vip::SocConfig cfg;
    cfg.system = vip::fleet::configByCliName(argv[0]);
    const std::string workload = argv[1];
    cfg.seed = std::strtoull(argv[2], nullptr, 10);
    cfg.simSeconds = std::atof(argv[3]);
    const int pairs = std::atoi(argv[4]);
    const std::string dir = argv[5];
    if (!(cfg.simSeconds > 0.0) || pairs < 1)
        vip::fatal("sim leg needs positive seconds and pairs");

    SpanLog log;
    std::string runs;
    for (int i = 0; i < pairs; ++i) {
        // Alternate which side runs first, so drift in the host's
        // state does not favour one of them.
        const char *first = i % 2 ? "traced" : "untraced";
        const char *second = i % 2 ? "untraced" : "traced";
        for (const char *mode : {first, second, "obs"}) {
            runs += runs.empty() ? "" : ",";
            runs += simRun(mode, i, cfg, workload, dir, log);
        }
    }
    std::string spans;
    for (const Span &s : log.spans()) {
        spans += spans.empty() ? "" : ",";
        spans += "{\"name\":\"" + s.name + "\",\"start_ns\":" +
                 std::to_string(s.start) + ",\"end_ns\":" +
                 std::to_string(s.end) + ",\"parent\":" +
                 std::to_string(s.parent) + "}";
    }
    std::printf("{\"runs\":[%s],\"spans\":[%s]}\n", runs.c_str(),
                spans.c_str());
    return 0;
}

/** splitmix64: seeded, deterministic input generation. */
std::uint64_t
mix(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
joinNs(const std::vector<double> &v)
{
    std::string s;
    for (double x : v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", x);
        s += (s.empty() ? "" : ",") + std::string(buf);
    }
    return s;
}

int
kernelLeg(char **argv)
{
    const std::size_t depth = std::strtoull(argv[0], nullptr, 10);
    const std::uint64_t events = std::strtoull(argv[1], nullptr, 10);
    std::uint64_t rng = std::strtoull(argv[2], nullptr, 10);
    const int trials = std::atoi(argv[3]);
    if (depth < 1 || events < 1 || trials < 1)
        vip::fatal("kernel leg needs positive depth, events, trials");

    std::vector<double> ns;
    std::uint64_t sink = 0;
    for (int t = 0; t < trials; ++t) {
        vip::EventQueue eq;
        const vip::Tick spread = 4 * depth;
        for (std::size_t i = 0; i < depth; ++i)
            eq.schedule(1 + mix(rng) % spread, [&sink] { ++sink; });
        // Deltas are drawn before timing, so the loop times the queue.
        std::vector<vip::Tick> deltas(4096);
        for (auto &d : deltas)
            d = 1 + mix(rng) % spread;
        const std::int64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < events; ++i) {
            eq.schedule(eq.curTick() + deltas[i & 4095],
                        [&sink] { ++sink; });
            eq.serviceOne();
        }
        ns.push_back(static_cast<double>(nowNs() - t0) /
                     static_cast<double>(events));
    }
    if (sink != events * static_cast<std::uint64_t>(trials))
        vip::fatal("kernel leg serviced ", sink, " events, expected ",
                   events * trials);
    std::printf("{\"depth\":%zu,\"events\":%llu,\"ns_per_event\":[%s]}\n",
                depth, static_cast<unsigned long long>(events),
                joinNs(ns).c_str());
    return 0;
}

/** Requests the mem leg keeps outstanding: a shallow queue, not one
 *  request per entry of a thousands-deep backlog. */
constexpr int kMemDepth = 16;

int
memLeg(char **argv)
{
    const int requests = std::atoi(argv[0]);
    std::uint64_t rng = std::strtoull(argv[1], nullptr, 10);
    const int trials = std::atoi(argv[2]);
    if (requests < 1 || trials < 1)
        vip::fatal("mem leg needs positive requests and trials");

    std::vector<double> ns;
    for (int t = 0; t < trials; ++t) {
        vip::System sys(1);
        vip::EnergyLedger ledger;
        vip::MemoryController mem(sys, "perfbench.mem", vip::DramConfig{},
                                  ledger);
        // Closed loop with kMemDepth requests outstanding: each
        // completion issues the next request.
        int done = 0;
        int issued = 0;
        std::vector<vip::MemRequest> reqs(requests);
        for (auto &r : reqs) {
            r.addr = (mix(rng) % (vip::Addr(1) << 30)) & ~vip::Addr(63);
            r.bytes = 64u << (mix(rng) % 6); // 64 B .. 2 KiB
            r.write = mix(rng) % 4 == 0;
            r.onComplete = [&] {
                ++done;
                if (issued < requests)
                    mem.access(std::move(reqs[issued++]));
            };
        }
        const std::int64_t t0 = nowNs();
        while (issued < std::min(requests, kMemDepth))
            mem.access(std::move(reqs[issued++]));
        // The controller's periodic events keep the queue non-empty:
        // stop once the last request has completed.
        sys.run(vip::fromSec(10.0), [&](vip::Tick) {
            if (done == requests)
                sys.eventq().requestStop();
        });
        ns.push_back(static_cast<double>(nowNs() - t0) / requests);
        if (done != requests)
            vip::fatal("mem leg completed ", done, " of ", requests);
    }
    std::printf("{\"requests\":%d,\"ns_per_req\":[%s]}\n", requests,
                joinNs(ns).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string leg = argc > 1 ? argv[1] : "";
        if (leg == "sim" && argc == 8)
            return simLeg(argv + 2);
        if (leg == "kernel" && argc == 6)
            return kernelLeg(argv + 2);
        if (leg == "mem" && argc == 5)
            return memLeg(argv + 2);
        std::fprintf(stderr,
                     "usage: perfbench_probe sim <config> <workload> "
                     "<seed> <sim-seconds> <pairs> <dir>\n"
                     "       perfbench_probe kernel <depth> <events> "
                     "<seed> <trials>\n"
                     "       perfbench_probe mem <requests> <seed> "
                     "<trials>\n");
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
    }
    return 1;
}
