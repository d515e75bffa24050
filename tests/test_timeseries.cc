/**
 * @file
 * Time-series plane (--ts) tests: digest neutrality across every
 * system configuration, byte-identical series output for identical
 * runs (decimation included), stat-export gating, glob selection,
 * steady-state detection on every configuration, and the
 * --checkpoint-on-steady snapshot restoring to a byte-identical
 * series.json and digest stream.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/simulation.hh"
#include "obs/timeseries.hh"
#include "sim/snapshot.hh"

using namespace vip;

namespace
{

SocConfig
auditedCfg(SystemConfig sc, double seconds = 0.2)
{
    SocConfig cfg;
    cfg.system = sc;
    cfg.simSeconds = seconds;
    cfg.audit.mode = AuditMode::Periodic;
    cfg.audit.periodMs = 1.0;
    return cfg;
}

std::string
seriesOf(const Simulation &sim)
{
    std::ostringstream os;
    sim.writeSeriesJson(os);
    return os.str();
}

std::string
statsOf(const Simulation &sim)
{
    std::ostringstream os;
    sim.writeStatsJson(os);
    return os.str();
}

/** Fresh scratch directory per test, removed on teardown. */
class TimeSeriesSnapshotTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        namespace fs = std::filesystem;
        _dir = fs::temp_directory_path() /
               ("vip-ts-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }

    void TearDown() override { std::filesystem::remove_all(_dir); }

    std::string
    path(const std::string &name) const
    {
        return (_dir / name).string();
    }

    std::filesystem::path _dir;
};

} // namespace

TEST(TimeSeriesGlob, MatchesStarQuestionAndAlternatives)
{
    EXPECT_TRUE(TimeSeries::globMatch("*", "anything.at.all"));
    EXPECT_TRUE(TimeSeries::globMatch("flow.*", "flow.3.completed"));
    EXPECT_FALSE(TimeSeries::globMatch("flow.*", "sim.eventq.live"));
    EXPECT_TRUE(
        TimeSeries::globMatch("flow.*.completed", "flow.12.completed"));
    EXPECT_FALSE(
        TimeSeries::globMatch("flow.*.completed", "flow.12.deadline"));
    EXPECT_TRUE(TimeSeries::globMatch("flow.?.completed",
                                      "flow.3.completed"));
    EXPECT_FALSE(TimeSeries::globMatch("flow.?.completed",
                                       "flow.12.completed"));
    EXPECT_TRUE(TimeSeries::globMatch("a,b", "b"));
    EXPECT_TRUE(TimeSeries::globMatch("flow.*,sim.eventq.live",
                                      "sim.eventq.live"));
    EXPECT_FALSE(TimeSeries::globMatch("flow.*,sim.eventq.live",
                                       "dram.reads"));
    EXPECT_FALSE(TimeSeries::globMatch("", "x"));
    EXPECT_TRUE(TimeSeries::globMatch("**", ""));
}

TEST(TimeSeriesPlane, DigestNeutralAcrossAllConfigs)
{
    // Same contract as --prof, one layer up: an armed time-series
    // plane must not change one bit of simulated behavior.  Audit
    // every 1 ms and require the full digest stream to match a bare
    // run, for every configuration.
    auto wl = WorkloadCatalog::byIndex(4);
    for (auto sc : kAllConfigs) {
        SCOPED_TRACE(systemConfigName(sc));

        Simulation ref(auditedCfg(sc), wl);
        ref.run();

        SocConfig cfg = auditedCfg(sc);
        cfg.ts.armed = true;
        Simulation armed(cfg, wl);
        armed.run();

        ASSERT_NE(armed.timeseries(), nullptr);
        EXPECT_GT(armed.timeseries()->rows(), 0u);
        EXPECT_EQ(ref.auditor().streamDigest(),
                  armed.auditor().streamDigest());
        EXPECT_EQ(ref.system().curTick(), armed.system().curTick());
        EXPECT_EQ(ref.system().eventq().servicedEvents(),
                  armed.system().eventq().servicedEvents());
    }
}

TEST(TimeSeriesPlane, StatsExportGatedOnArming)
{
    // ts.* and sim.steady.tick ride along only when --ts is armed,
    // so baseline (disarmed) stats dumps stay comparable across
    // tooling that diffs them bit for bit.
    SocConfig cfg = auditedCfg(SystemConfig::VIP);
    cfg.ts.armed = true;
    Simulation armed(cfg, WorkloadCatalog::byIndex(4));
    armed.run();
    const std::string on = statsOf(armed);
    EXPECT_NE(on.find("\"ts.samples\""), std::string::npos);
    EXPECT_NE(on.find("\"ts.rows\""), std::string::npos);
    EXPECT_NE(on.find("\"ts.stride\""), std::string::npos);
    EXPECT_NE(on.find("\"sim.steady.tick\""), std::string::npos);

    Simulation off(auditedCfg(SystemConfig::VIP),
                   WorkloadCatalog::byIndex(4));
    off.run();
    const std::string bare = statsOf(off);
    EXPECT_EQ(bare.find("\"ts."), std::string::npos);
    EXPECT_EQ(bare.find("\"sim.steady."), std::string::npos);
    EXPECT_EQ(off.timeseries(), nullptr);
}

TEST(TimeSeriesPlane, GlobSelectsSubsetAndSeriesReflectsIt)
{
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.1);
    cfg.ts.armed = true;
    cfg.ts.glob = "flow.*";
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();

    const TimeSeries *ts = sim.timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_GT(ts->selected(), 0u);

    SocConfig all = auditedCfg(SystemConfig::VIP, 0.1);
    all.ts.armed = true;
    Simulation simAll(all, WorkloadCatalog::byIndex(4));
    simAll.run();
    ASSERT_NE(simAll.timeseries(), nullptr);
    EXPECT_LT(ts->selected(), simAll.timeseries()->selected());

    const std::string doc = seriesOf(sim);
    EXPECT_NE(doc.find("\"flow."), std::string::npos);
    EXPECT_EQ(doc.find("\"path\": \"dram."), std::string::npos);
}

TEST(TimeSeriesPlane, SeriesBytesDeterministicUnderDecimation)
{
    // 0.3 simulated s sampled every 0.1 ms is ~3000 boundaries
    // against a 512-row ring: the keep-stride must have doubled, and
    // two identical runs must still dump byte-identical series.json
    // (no wall-clock content, no iteration-order leaks).
    SocConfig cfg = auditedCfg(SystemConfig::VIP, 0.3);
    cfg.metrics.intervalMs = 0.1;
    cfg.ts.armed = true;

    Simulation a(cfg, WorkloadCatalog::byIndex(4));
    a.run();
    Simulation b(cfg, WorkloadCatalog::byIndex(4));
    b.run();

    const TimeSeries *ts = a.timeseries();
    ASSERT_NE(ts, nullptr);
    EXPECT_GT(ts->samplesSeen(), TimeSeries::kRowCap);
    EXPECT_GT(ts->stride(), 1u);
    EXPECT_LE(ts->rows(), TimeSeries::kRowCap);
    EXPECT_GT(ts->rows(), 0u);

    EXPECT_EQ(seriesOf(a), seriesOf(b));
}

TEST(TimeSeriesPlane, SteadyDetectedOnAllConfigs)
{
    // The shipped detector defaults must find steady state for the
    // W4 reference workload on every paper configuration, after the
    // warmup and before the run ends (~150-270 simulated ms).
    auto wl = WorkloadCatalog::byIndex(4);
    for (auto sc : kAllConfigs) {
        SCOPED_TRACE(systemConfigName(sc));
        SocConfig cfg = auditedCfg(sc, 0.35);
        cfg.ts.armed = true;
        Simulation sim(cfg, wl);
        sim.run();

        const TimeSeries *ts = sim.timeseries();
        ASSERT_NE(ts, nullptr);
        EXPECT_TRUE(ts->steadyDetected());
        EXPECT_GE(ts->steadyTickMs(), cfg.ts.steadyWarmupMs);
        EXPECT_LT(ts->steadyTickMs(), 350.0);
    }
}

TEST_F(TimeSeriesSnapshotTest, MetricsCsvLeavesSteadyVerdictUnchanged)
{
    // The detector tracks sim.eventq.live.  A metrics CSV must not
    // move the verdict: Baseline/W1 seed 1 latches at the same tick
    // with and without one.
    auto steadyMs = [](const std::string &csv) {
        SocConfig cfg;
        cfg.system = SystemConfig::Baseline;
        cfg.seed = 1;
        cfg.simSeconds = 0.2;
        cfg.ts.armed = true;
        cfg.metrics.out = csv;
        Simulation sim(cfg, WorkloadCatalog::byIndex(1));
        sim.run();
        return sim.timeseries()->steadyTickMs();
    };
    const double bare = steadyMs("");
    EXPECT_GT(bare, 0.0);
    EXPECT_EQ(steadyMs(path("m.csv")), bare);
}

TEST_F(TimeSeriesSnapshotTest, SteadyCheckpointRestoresByteIdentical)
{
    // The warm-start contract end to end: --checkpoint-on-steady
    // writes one snapshot at the first quiescent point after
    // detection, and a run restored from it finishes with a digest
    // stream, stats dump AND series.json byte-identical to the
    // uninterrupted run's — rows resume mid-ring, the detector
    // verdict survives, and the one-shot plan never re-arms.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("steady.vips");

    SocConfig base = auditedCfg(SystemConfig::VIP, 0.4);
    base.ts.armed = true;

    Simulation ref(base, wl);
    ref.run();
    ASSERT_NE(ref.timeseries(), nullptr);
    ASSERT_TRUE(ref.timeseries()->steadyDetected());
    const std::string wantSeries = seriesOf(ref);
    const std::string wantStats = statsOf(ref);

    SocConfig wcfg = base;
    wcfg.ts.checkpointOnSteady = snap;
    Simulation writer(wcfg, wl);
    writer.run();
    // Exactly the one steady snapshot, written past the detection
    // tick, and the write must not have perturbed the run.
    EXPECT_EQ(writer.checkpointsWritten(), 1u);
    ASSERT_TRUE(std::filesystem::exists(snap));
    auto meta = SnapshotReader::readMeta(snap);
    EXPECT_GE(toMs(meta.tick),
              writer.timeseries()->steadyTickMs());
    EXPECT_EQ(writer.auditor().streamDigest(),
              ref.auditor().streamDigest());
    EXPECT_EQ(seriesOf(writer), wantSeries);

    SocConfig rcfg = wcfg; // identical flags on resume
    rcfg.restorePath = snap;
    Simulation resumed(rcfg, wl);
    resumed.run();
    // The restored plan state says "already written": no second
    // steady snapshot may appear.
    EXPECT_EQ(resumed.checkpointsWritten(), 0u);
    ASSERT_NE(resumed.timeseries(), nullptr);
    EXPECT_TRUE(resumed.timeseries()->steadyDetected());
    EXPECT_EQ(resumed.timeseries()->steadyTickMs(),
              ref.timeseries()->steadyTickMs());
    EXPECT_EQ(seriesOf(resumed), wantSeries);
    EXPECT_EQ(statsOf(resumed), wantStats);
    EXPECT_EQ(resumed.auditor().streamDigest(),
              ref.auditor().streamDigest());
}

TEST_F(TimeSeriesSnapshotTest, ArmingMustMatchAcrossRestore)
{
    // Arming is excluded from checkpoint *identity* but the series
    // rows live in the snapshot: restoring a ts-armed snapshot into
    // a bare run (or vice versa) must fail crisply, not desync.
    auto wl = WorkloadCatalog::byIndex(4);
    const std::string snap = path("mid.vips");

    SocConfig wcfg = auditedCfg(SystemConfig::VIP, 0.4);
    wcfg.ts.armed = true;
    Simulation writer(wcfg, wl);
    writer.checkpointAt(fromMs(300), snap);
    writer.run();
    ASSERT_EQ(writer.checkpointsWritten(), 1u);

    SocConfig bare = auditedCfg(SystemConfig::VIP, 0.4);
    bare.restorePath = snap;
    Simulation resumed(bare, wl);
    EXPECT_THROW(resumed.run(), SimFatal);
}
