/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event-queue throughput, DRAM transaction service, stream-engine
 * unit processing and a whole-platform frames-per-wall-second figure.
 * These guard the simulator's own performance (a full Fig 15 matrix
 * is 75 platform runs).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <ostream>
#include <streambuf>
#include <vector>

#include "bench_util.hh"
#include "core/simulation.hh"
#include "ip/ip_core.hh"
#include "sim/random.hh"

namespace
{

using namespace vip;

/**
 * An event queue held at a constant depth: each step() schedules one
 * event and services one.  Depth 16 is what whole-platform runs reach
 * (vip_prof's max pending is about 20); 1024 is a deep stress point.
 * Delays come from a fixed seed and are drawn up front, so timing
 * covers only the queue.
 */
class ConstantDepthQueue
{
  public:
    explicit ConstantDepthQueue(std::size_t depth) : _deltas(4096)
    {
        Random rng(1);
        for (Tick &d : _deltas)
            d = 1 + rng.uniformInt(0, 4 * depth - 1);
        for (std::size_t i = 0; i < depth; ++i)
            _eq.schedule(_deltas[i], [this] { ++_sink; });
    }

    void
    step()
    {
        _eq.schedule(_eq.curTick() + _deltas[_next++ & 4095],
                     [this] { ++_sink; });
        _eq.serviceOne();
    }

    std::uint64_t sink() const { return _sink; }

  private:
    EventQueue _eq;
    std::vector<Tick> _deltas;
    std::size_t _next = 0;
    std::uint64_t _sink = 0;
};

void
BM_EventQueueScheduleService(benchmark::State &state)
{
    ConstantDepthQueue q(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        q.step();
    benchmark::DoNotOptimize(q.sink());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleService)->Arg(16)->Arg(1024);

/** Median ns per event of ConstantDepthQueue over 5 trials (the
 *  benchmark above, as a plain loop for the --sim-throughput report). */
double
kernelNsPerEvent(std::size_t depth)
{
    constexpr int kEvents = 400'000;
    std::vector<double> ns;
    for (int trial = 0; trial < 5; ++trial) {
        ConstantDepthQueue q(depth);
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kEvents; ++i)
            q.step();
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(q.sink());
        ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            kEvents);
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

void
BM_DramTransactions(benchmark::State &state)
{
    for (auto _ : state) {
        System sys(1);
        EnergyLedger ledger;
        MemoryController mem(sys, "b.mem", DramConfig{}, ledger);
        int done = 0;
        for (int i = 0; i < 512; ++i) {
            MemRequest req;
            req.addr = static_cast<Addr>(i) * 1024;
            req.bytes = 1024;
            req.onComplete = [&] { ++done; };
            mem.access(std::move(req));
        }
        sys.run(fromMs(1));
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DramTransactions);

void
BM_StreamChainFrame(benchmark::State &state)
{
    const std::uint64_t bytes = state.range(0);
    for (auto _ : state) {
        System sys(1);
        EnergyLedger ledger;
        DramConfig dc;
        dc.ideal = true;
        MemoryController mem(sys, "b.mem", dc, ledger);
        SystemAgent sa(sys, "b.sa", SaConfig{}, mem, ledger);
        IpParams p = defaultIpParams(IpKind::VD);
        p.clockHz = 1e9;
        p.bytesPerCycle = 4.0;
        IpCore prod(sys, "b.prod", p, sa, ledger);
        IpCore sink(sys, "b.sink", defaultIpParams(IpKind::DC), sa,
                    ledger);
        int pl = prod.bindLane(1);
        int sl = sink.bindLane(1);
        prod.connectLane(pl, &sink, sl);
        bool done = false;
        sink.makeLaneSink(sl, [&](FlowId, std::uint64_t) {
            done = true;
        });
        prod.announceFrame(pl, 0, bytes, bytes, MaxTick, true);
        sink.announceFrame(sl, 0, bytes, 0, MaxTick, true);
        prod.feedFrame(pl, 0, bytes, 0, false);
        sys.run(fromSec(1));
        benchmark::DoNotOptimize(done);
    }
    state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_StreamChainFrame)->Arg(64 * 1024)->Arg(1024 * 1024);

void
BM_FullPlatformVipRun(benchmark::State &state)
{
    for (auto _ : state) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.05;
        auto s = Simulation::run(cfg, WorkloadCatalog::byIndex(4));
        benchmark::DoNotOptimize(s.framesCompleted);
    }
}
BENCHMARK(BM_FullPlatformVipRun)->Unit(benchmark::kMillisecond);

/**
 * Same platform run with the tracer enabled, so tracing overhead is
 * measured rather than assumed.  Two points on the cost curve:
 * everything-on records per-unit execution spans (hundreds of
 * thousands of events per run, tens of percent overhead), while the
 * frame-lifecycle mask used for QoS triage stays within a few percent
 * of untraced.  With tracing off the System's tracer pointer is null
 * and every emission site is a single branch (~0%).
 */
void
BM_FullPlatformVipRunTraced(benchmark::State &state,
                            std::uint32_t categories)
{
    for (auto _ : state) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.05;
        // Any non-empty path constructs the tracer; nothing is
        // written unless the caller asks for it after the run.
        cfg.trace.out = "(buffer)";
        cfg.trace.categories = categories;
        auto s = Simulation::run(cfg, WorkloadCatalog::byIndex(4));
        benchmark::DoNotOptimize(s.framesCompleted);
    }
}
BENCHMARK_CAPTURE(BM_FullPlatformVipRunTraced, AllCats, kAllTraceCats)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullPlatformVipRunTraced, FrameLifecycle,
                  static_cast<std::uint32_t>(TraceCat::Frame)
                      | static_cast<std::uint32_t>(TraceCat::Sched)
                      | static_cast<std::uint32_t>(TraceCat::Fault))
    ->Unit(benchmark::kMillisecond);

/** Stream buffer that counts and discards every byte written. */
class NullBuf : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return _bytes; }

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        _bytes += static_cast<std::uint64_t>(n);
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        ++_bytes;
        return traits_type::not_eof(c);
    }

  private:
    std::uint64_t _bytes = 0;
};

/**
 * The series.json writer alone: one W4 VIP 0.2 s run with --ts (every
 * stat selected), then writeSeriesJson into a null stream per
 * iteration.  This is the cost every "timeseries" fleet job pays at
 * its end, separate from the sampling cost inside the run.
 */
void
BM_SeriesJsonWrite(benchmark::State &state)
{
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.2;
    cfg.ts.armed = true;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();
    NullBuf buf;
    std::ostream os(&buf);
    for (auto _ : state)
        sim.writeSeriesJson(os);
    state.SetBytesProcessed(static_cast<std::int64_t>(buf.bytes()));
}
BENCHMARK(BM_SeriesJsonWrite)->Unit(benchmark::kMillisecond);

/**
 * --sim-throughput: the simulator-speed trajectory behind fleet
 * capacity planning.  One W4 run per system configuration, reporting
 * how fast the simulator itself executes — millions of simulated
 * ticks (ps) per wall second, serviced events per wall second, and
 * the headline "simulated ms per wall second" a sweep scheduler
 * multiplies out to size a fleet.  Each configuration then reruns
 * with the --prof hot-path profiler armed (default sampling), and
 * again with the --ts time-series plane armed (full-glob selection),
 * so the report tracks both observers' wall-time overhead — the
 * numbers the <5% overhead budget in CI gates on.  A kernel table
 * adds the event queue's own ns per event at depths 16 and 1024.
 * Results land in a
 * schemaVersion'd JSON (default BENCH_microbench.json) whose
 * checked-in copy records the trajectory across PRs.
 */
int
simThroughputReport(const char *outPath)
{
    const double seconds = bench::simSeconds(0.1);
    const char *path = outPath ? outPath : "BENCH_microbench.json";

    struct Row
    {
        const char *config;
        double simMs = 0.0;
        double wallMs = 0.0;
        double wallProfMs = 0.0;
        double profOverheadPct = 0.0;
        double wallTsMs = 0.0;
        double tsOverheadPct = 0.0;
        std::uint64_t events = 0;
        std::uint64_t ticks = 0;
    };
    std::vector<Row> rows;
    std::printf("%-10s %9s %9s %12s %12s %14s %9s %9s\n", "config",
                "sim-ms", "wall-ms", "MTicks/s", "Mevents/s",
                "sim-ms/wall-s", "prof-ovh%", "ts-ovh%");
    for (auto sc : kAllConfigs) {
        Row r;
        r.config = systemConfigName(sc);
        SocConfig cfg;
        cfg.system = sc;
        cfg.simSeconds = seconds;

        // Interleaved off/on pairs, overhead = the *median* of the
        // per-pair wall ratios: single passes can't resolve a <5%
        // budget on a shared machine, and even a best-of-N min is
        // defeated by slow frequency / load drift.  Back-to-back
        // pairs see the same machine state, so their ratio cancels
        // the drift; the median discards the pairs a neighbor
        // disturbed.  The prof path only arms the instrumentation —
        // nothing is written unless writeProfJson() is called — so
        // the ratio is pure hot-path overhead.
        constexpr int kReps = 5;
        r.wallMs = 1e300;
        r.wallProfMs = 1e300;
        r.wallTsMs = 1e300;
        std::vector<double> ratios;
        std::vector<double> tsRatios;
        for (int rep = 0; rep < kReps; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            Simulation sim(cfg, WorkloadCatalog::byIndex(4));
            sim.run();
            const auto t1 = std::chrono::steady_clock::now();
            const double wall =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            r.wallMs = std::min(r.wallMs, wall);
            if (rep == 0) {
                r.simMs = toMs(sim.system().curTick());
                r.events = sim.system().eventq().servicedEvents();
                r.ticks = sim.system().curTick();
            }

            SocConfig pcfg = cfg;
            pcfg.prof.out = "(unwritten)";
            const auto p0 = std::chrono::steady_clock::now();
            Simulation psim(pcfg, WorkloadCatalog::byIndex(4));
            psim.run();
            const auto p1 = std::chrono::steady_clock::now();
            const double pwall =
                std::chrono::duration<double, std::milli>(p1 - p0)
                    .count();
            r.wallProfMs = std::min(r.wallProfMs, pwall);
            ratios.push_back(pwall / wall);

            // Third leg of the pair trick: the time-series plane
            // with the worst-case full-glob selection, rows kept in
            // memory only (no ts.out), same machine state as its
            // bare sibling.
            SocConfig tcfg = cfg;
            tcfg.ts.armed = true;
            const auto s0 = std::chrono::steady_clock::now();
            Simulation tsim(tcfg, WorkloadCatalog::byIndex(4));
            tsim.run();
            const auto s1 = std::chrono::steady_clock::now();
            const double twall =
                std::chrono::duration<double, std::milli>(s1 - s0)
                    .count();
            r.wallTsMs = std::min(r.wallTsMs, twall);
            tsRatios.push_back(twall / wall);
        }
        std::sort(ratios.begin(), ratios.end());
        r.profOverheadPct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
        std::sort(tsRatios.begin(), tsRatios.end());
        r.tsOverheadPct =
            (tsRatios[tsRatios.size() / 2] - 1.0) * 100.0;

        const double wallS = r.wallMs / 1e3;
        std::printf("%-10s %9.1f %9.1f %12.0f %12.2f %14.1f %9.2f "
                    "%9.2f\n",
                    r.config, r.simMs, r.wallMs,
                    static_cast<double>(r.ticks) / wallS / 1e6,
                    static_cast<double>(r.events) / wallS / 1e6,
                    r.simMs / wallS, r.profOverheadPct,
                    r.tsOverheadPct);
        rows.push_back(r);
    }

    const std::size_t kDepths[] = {16, 1024};
    std::vector<double> kernelNs;
    for (std::size_t depth : kDepths) {
        kernelNs.push_back(kernelNsPerEvent(depth));
        std::printf("kernel depth %-5zu %.1f ns/event\n", depth,
                    kernelNs.back());
    }

    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    os << "{\n  \"schemaVersion\": "
       << bench::kBenchSchemaVersion << ",\n"
       << "  \"kind\": \"vip-bench-microbench\",\n";
    bench::writeProvenanceJson(os);
    os << ",\n  \"workload\": \"W4\",\n  \"seconds\": " << seconds
       << ",\n  \"throughput\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const double wallS = r.wallMs / 1e3;
        char buf[440];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"config\": \"%s\", \"sim_ms\": %.3f, "
            "\"wall_ms\": %.1f, \"events\": %llu, "
            "\"mticks_per_s\": %.0f, \"mevents_per_s\": %.3f, "
            "\"sim_ms_per_wall_s\": %.1f, "
            "\"wall_prof_ms\": %.1f, \"prof_overhead_pct\": %.2f, "
            "\"wall_ts_ms\": %.1f, \"ts_overhead_pct\": %.2f}",
            r.config, r.simMs, r.wallMs,
            static_cast<unsigned long long>(r.events),
            static_cast<double>(r.ticks) / wallS / 1e6,
            static_cast<double>(r.events) / wallS / 1e6,
            r.simMs / wallS, r.wallProfMs, r.profOverheadPct,
            r.wallTsMs, r.tsOverheadPct);
        os << buf << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"kernel\": [\n";
    for (std::size_t i = 0; i < kernelNs.size(); ++i) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "    {\"depth\": %zu, \"ns_per_event\": %.1f}",
                      kDepths[i], kernelNs[i]);
        os << buf << (i + 1 < kernelNs.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    std::printf("throughput report written to %s\n", path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The throughput trajectory is a plain report, not a
    // google-benchmark: a single pass per configuration is the
    // figure fleet planning consumes.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sim-throughput") == 0) {
            const char *out =
                i + 1 < argc ? argv[i + 1] : nullptr;
            return simThroughputReport(out);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
