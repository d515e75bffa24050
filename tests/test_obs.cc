/**
 * @file
 * Tests for the execution-observability subsystem: tracer ring
 * semantics, trace JSON well-formedness and span nesting across all
 * configurations, same-seed trace determinism, histogram percentile
 * math, the periodic metrics CSV, frame lifecycles reconstructed
 * from spans alone, and the zero-perturbation guarantee (tracing or a
 * metrics CSV on vs off leaves the audit digest stream bit-identical).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "obs/trace_check.hh"

namespace vip
{
namespace
{

SocConfig
tracedConfig(SystemConfig system)
{
    SocConfig cfg;
    cfg.system = system;
    cfg.simSeconds = 0.02;
    cfg.trace.out = "(buffer)";
    return cfg;
}

std::string
traceJson(Simulation &sim)
{
    std::ostringstream os;
    sim.tracer()->writeJson(os, {{"workload", "test"}});
    return os.str();
}

TEST(LogHistogramTest, ExactBelowSubBucketRange)
{
    LogHistogram h;
    for (Tick v = 0; v < 16; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 16u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 15u);
    // Values below 2^kSubBits land in exact buckets.
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(100.0), 15u);
}

TEST(LogHistogramTest, PercentilesWithinRelativeErrorBound)
{
    LogHistogram h;
    for (Tick v = 1; v <= 10000; ++v)
        h.sample(v);
    // Log-linear buckets bound relative error by 2^-kSubBits.
    const double tol = 1.0 / (1u << LogHistogram::kSubBits);
    EXPECT_NEAR(static_cast<double>(h.percentile(50.0)), 5000.0,
                5000.0 * tol);
    EXPECT_NEAR(static_cast<double>(h.percentile(95.0)), 9500.0,
                9500.0 * tol);
    EXPECT_NEAR(static_cast<double>(h.percentile(99.0)), 9900.0,
                9900.0 * tol);
    EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(LogHistogramTest, SingleSampleAllPercentilesAgree)
{
    LogHistogram h;
    h.sample(fromMs(7));
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
        EXPECT_NEAR(static_cast<double>(h.percentile(p)),
                    static_cast<double>(fromMs(7)),
                    static_cast<double>(fromMs(7))
                        / (1u << LogHistogram::kSubBits));
    }
}

TEST(TracerTest, RingDropsOldestBeyondCapacity)
{
    // Capacity is rounded up to whole blocks; fill past it.
    Tracer tr(kAllTraceCats, 1);
    const std::size_t cap = tr.capacity();
    auto trk = tr.intern("t");
    auto nm = tr.intern("n");
    for (std::size_t i = 0; i < cap + 100; ++i)
        tr.instant(TraceCat::Ip, trk, nm, i);
    EXPECT_EQ(tr.size(), cap);
    EXPECT_EQ(tr.dropped(), 100u);
    // Oldest-first iteration starts at the first surviving event.
    Tick expect = 100;
    tr.forEach([&](const TraceEvent &ev) { EXPECT_EQ(ev.ts, expect++); });
    EXPECT_EQ(expect, cap + 100);
}

TEST(TracerTest, CategoryFilteringAndInternStability)
{
    Tracer tr(static_cast<std::uint32_t>(TraceCat::Frame), 4096);
    EXPECT_TRUE(tr.enabled(TraceCat::Frame));
    EXPECT_FALSE(tr.enabled(TraceCat::Ip));
    EXPECT_EQ(tr.intern("alpha"), tr.intern("alpha"));
    EXPECT_NE(tr.intern("alpha"), tr.intern("beta"));
    EXPECT_NE(tr.intern("alpha"), 0u);
}

TEST(TraceCatTest, ParseRoundTrips)
{
    EXPECT_EQ(parseTraceCats("all"), kAllTraceCats);
    EXPECT_EQ(parseTraceCats(""), kAllTraceCats);
    std::uint32_t m = parseTraceCats("ip,frame,fault");
    EXPECT_EQ(m, static_cast<std::uint32_t>(TraceCat::Ip)
                     | static_cast<std::uint32_t>(TraceCat::Frame)
                     | static_cast<std::uint32_t>(TraceCat::Fault));
    EXPECT_EQ(parseTraceCats(traceCatsToString(m)), m);
    EXPECT_THROW(parseTraceCats("bogus"), SimFatal);
}

/** Trace JSON parses and every span/async pairing is well-formed. */
class TraceWellFormed : public ::testing::TestWithParam<SystemConfig>
{
};

TEST_P(TraceWellFormed, SpansNestAndPairAcrossChain)
{
    Simulation sim(tracedConfig(GetParam()),
                   WorkloadCatalog::byIndex(4));
    sim.run();
    ASSERT_NE(sim.tracer(), nullptr);
    EXPECT_GT(sim.tracer()->size(), 0u);

    std::istringstream in(traceJson(sim));
    TraceFile f = parseTraceJson(in);
    EXPECT_EQ(f.droppedEvents, 0u);
    EXPECT_EQ(f.otherData.at("workload"), "test");
    EXPECT_FALSE(f.otherData.at("git").empty());

    auto r = checkTrace(f);
    EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
    EXPECT_EQ(r.events, f.events.size());
    EXPECT_GT(r.spans, 0u);
    // An engine busy/stall span may be cut off by the end of the
    // run; that is in-flight state, not a nesting violation.
    EXPECT_LE(r.openAtEof, f.threadNames.size());
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, TraceWellFormed,
                         ::testing::ValuesIn(kAllConfigs),
                         [](const auto &info) {
                             std::string n = systemConfigName(info.param);
                             for (char &c : n)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

TEST(TraceDeterminism, SameSeedSameTraceBytes)
{
    auto once = [] {
        Simulation sim(tracedConfig(SystemConfig::VIP),
                       WorkloadCatalog::byIndex(4));
        sim.run();
        return traceJson(sim);
    };
    std::string a = once();
    std::string b = once();
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(a, b);
}

TEST(TraceFrameLifecycle, ReproducesRunStatsLatencyFromSpansAlone)
{
    SocConfig cfg = tracedConfig(SystemConfig::VIP);
    cfg.recordTrace = true;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    RunStats stats = sim.run();

    std::istringstream in(traceJson(sim));
    TraceFile f = parseTraceJson(in);
    auto frames = frameLifecycles(f);
    ASSERT_FALSE(frames.empty());

    // Every completed frame in the authoritative FrameTrace must be
    // reconstructible from the trace events with the exact same
    // end-to-end tick count the QoS clock measured.
    std::size_t matched = 0;
    for (const FrameEvent &ev : stats.trace.events()) {
        if (ev.completed == 0)
            continue;
        const FrameLifecycle *lc = nullptr;
        for (const auto &x : frames) {
            if (x.flow == static_cast<std::int64_t>(ev.flowId)
                && x.frame == static_cast<std::int64_t>(ev.frameId))
                lc = &x;
        }
        ASSERT_NE(lc, nullptr)
            << "frame " << ev.flowId << ":" << ev.frameId
            << " missing from trace";
        if (!lc->complete)
            continue;
        Tick start = std::max(ev.generated, ev.started);
        Tick e2e = ev.completed >= start ? ev.completed - start : 0;
        EXPECT_EQ(lc->endToEndTicks(), e2e)
            << "frame " << ev.flowId << ":" << ev.frameId;
        ++matched;
    }
    EXPECT_GT(matched, 0u);

    // Lifecycles carry per-stage marks from at least two distinct
    // chain stages (announce/done pairs threaded through the chain).
    std::size_t multiStage = 0;
    for (const auto &lc : frames) {
        std::set<std::string> stages;
        for (const auto &[tick, nm] : lc.stageMarks) {
            auto sep = nm.rfind(':');
            if (sep != std::string::npos)
                stages.insert(nm.substr(0, sep));
        }
        if (stages.size() >= 2)
            ++multiStage;
    }
    EXPECT_GT(multiStage, 0u);
}

TEST(LatencySummaryTest, RunStatsCarriesPerStageBreakdowns)
{
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.02;
    RunStats stats = Simulation::run(cfg, WorkloadCatalog::byIndex(4));

    EXPECT_GT(stats.latency.endToEnd.count, 0u);
    // Burst-scheduled frames can complete before their nominal
    // generation tick and clamp to zero, so only the upper end of the
    // distribution is guaranteed positive.
    EXPECT_GT(stats.latency.endToEnd.maxMs, 0.0);
    EXPECT_GE(stats.latency.endToEnd.p95Ms,
              stats.latency.endToEnd.p50Ms);
    EXPECT_GE(stats.latency.endToEnd.p99Ms,
              stats.latency.endToEnd.p95Ms);
    EXPECT_GE(stats.latency.endToEnd.maxMs,
              stats.latency.endToEnd.p99Ms);

    ASSERT_FALSE(stats.latency.stages.empty());
    for (const auto &st : stats.latency.stages) {
        EXPECT_FALSE(st.stage.empty());
        EXPECT_EQ(st.total.count, st.wait.count);
        EXPECT_EQ(st.total.count, st.compute.count);
        EXPECT_EQ(st.total.count, st.blocked.count);
        // wait + compute + blocked decompose total (mean identity
        // holds exactly; percentiles are per-histogram).
        EXPECT_NEAR(st.wait.meanMs + st.compute.meanMs
                        + st.blocked.meanMs,
                    st.total.meanMs, st.total.meanMs * 0.13 + 1e-9);
    }
}

/** A metrics CSV path in the temp directory, unique to this test. */
std::string
tempCsv(const std::string &tag = "")
{
    return (std::filesystem::temp_directory_path() /
            ("vip-metrics-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             tag + ".csv"))
        .string();
}

/** The data rows of a metrics CSV; @p headers counts tick_ms lines. */
std::vector<std::string>
csvRows(const std::string &path, std::size_t *headers = nullptr)
{
    std::ifstream in(path);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("tick_ms", 0) == 0) {
            if (headers)
                ++*headers;
        } else if (!line.empty() && line[0] != '#') {
            rows.push_back(line);
        }
    }
    return rows;
}

TEST(MetricsSamplerTest, RowCountMatchesInterval)
{
    const std::string csv = tempCsv();
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.02;
    cfg.metrics.out = csv;
    cfg.metrics.intervalMs = 1.0;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();
    ASSERT_NE(sim.metrics(), nullptr);
    // 20 ms of simulated time at a 1 ms interval: first sample one
    // interval in, last at t=20ms.
    EXPECT_EQ(sim.metrics()->rows(), 20u);
    EXPECT_GT(sim.metrics()->probes(), 0u);
    EXPECT_EQ(sim.metrics()->interval(), fromMs(1.0));

    std::size_t headers = 0;
    std::vector<std::string> rows = csvRows(csv, &headers);
    EXPECT_EQ(headers, 1u);
    ASSERT_EQ(rows.size(), 20u);
    EXPECT_EQ(rows.front().rfind("1.000000,", 0), 0u);
    EXPECT_EQ(rows.back().rfind("20.000000,", 0), 0u);
    std::filesystem::remove(csv);
}

TEST(MetricsSamplerTest, HalfMillisecondIntervalDoublesRows)
{
    const std::string csv = tempCsv();
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.02;
    cfg.metrics.out = csv;
    cfg.metrics.intervalMs = 0.5;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();
    ASSERT_NE(sim.metrics(), nullptr);
    EXPECT_EQ(sim.metrics()->rows(), 40u);
    EXPECT_EQ(csvRows(csv).size(), 40u);
    std::filesystem::remove(csv);
}

TEST(MetricsSamplerTest, UnwritablePathIsFatalAtStart)
{
    SocConfig cfg;
    cfg.simSeconds = 0.02;
    cfg.metrics.out = (std::filesystem::temp_directory_path() /
                       "vip-no-such-dir" / "m.csv")
                          .string();
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    EXPECT_THROW(sim.run(), SimFatal);
}

/**
 * The zero-perturbation guarantee: enabling the tracer or the metrics
 * CSV must leave the architectural state digests bit-identical,
 * because neither schedules events, consumes randomness, or
 * contributes to any component digest.
 */
TEST(TraceZeroPerturbation, DigestStreamIdenticalTracedVsUntraced)
{
    auto digests = [](bool traced) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.02;
        cfg.audit.mode = AuditMode::Periodic;
        cfg.audit.periodMs = 1.0;
        if (traced)
            cfg.trace.out = "(buffer)";
        Simulation sim(cfg, WorkloadCatalog::byIndex(4));
        sim.run();
        EXPECT_GT(sim.auditor().stream().records.size(), 0u);
        return sim.auditor().streamDigest();
    };
    EXPECT_EQ(digests(false), digests(true));
}

TEST(TraceZeroPerturbation, MetricsCsvLeavesDigestsAndStatsUnchanged)
{
    // The metrics CSV samples from the pre-service hook, so even the
    // kernel's own counters (sim.events_serviced, sim.eventq.live)
    // must match a bare run's.
    const std::string csv = tempCsv();
    auto run = [&](bool metrics) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.02;
        cfg.audit.mode = AuditMode::Periodic;
        cfg.audit.periodMs = 1.0;
        if (metrics) {
            cfg.metrics.out = csv;
            cfg.metrics.intervalMs = 0.5;
        }
        Simulation sim(cfg, WorkloadCatalog::byIndex(4));
        sim.run();
        std::ostringstream stats;
        sim.writeStatsJson(stats);
        return std::make_pair(sim.auditor().streamDigest(),
                              stats.str());
    };
    auto bare = run(false);
    auto armed = run(true);
    EXPECT_EQ(csvRows(csv).size(), 40u);
    EXPECT_EQ(bare.first, armed.first);
    EXPECT_EQ(bare.second, armed.second);
    std::filesystem::remove(csv);
}

} // namespace
} // namespace vip
