/**
 * @file
 * Windowed time-series telemetry configuration (--ts).
 *
 * Kept in its own tiny header (like prof_config.hh) so SocConfig can
 * embed it without pulling the time-series implementation into every
 * translation unit.
 */

#ifndef VIP_OBS_TS_CONFIG_HH
#define VIP_OBS_TS_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vip
{

/**
 * Arms the windowed time-series plane (--ts[=<glob>]): stats matching
 * @ref glob are sampled from the StatRegistry at the metrics cadence
 * (cfg.metrics.intervalMs, whether or not a metrics CSV is armed)
 * into one bounded row ring with stride-doubling decimation
 * (DecimatingRing), and a steady-state detector runs a sliding-window
 * relative-spread test over the @ref steadyStats series.
 *
 * Everything here is purely observational: the plane samples from the
 * event loop's pre-service hook, like the metrics CSV (no scheduled
 * events, no randomness, nothing in any stateDigest()), so arming it
 * leaves audit digest streams bit-identical — and like --prof it is deliberately excluded
 * from checkpoint *identity*; arming, however, must match across a
 * save/restore pair (the series rows resume from the snapshot).
 */
struct TsConfig
{
    /** --ts given; the master switch. */
    bool armed = false;

    /**
     * Stat-selection glob(s) over StatRegistry paths; '*' matches any
     * run of characters, ',' separates alternatives
     * ("flow.*,sim.eventq.live").  Default: every registered stat.
     */
    std::string glob = "*";

    /** series.json destination; empty = in-memory only. */
    std::string out;

    /**
     * Series the steady-state detector watches (globs).  Stats with
     * Tolerance::Exact that rise monotonically over the detector
     * window are treated as counters and judged on their cumulative
     * mean rate (value / elapsed time, which converges once the boot
     * transient has been amortized and is immune to the frame-count
     * quantization a short windowed rate suffers); everything else is
     * judged on its raw value.
     */
    std::vector<std::string> steadyStats{"flow.*.completed",
                                         "sim.eventq.live"};

    /**
     * Relative-spread ceiling: a tracked series is steady when
     * (max - min) <= threshold% of |mean| over the sliding window
     * (counters additionally need a positive mean rate).  The run is
     * steady at the first detector step where every tracked series
     * passes at once.  The defaults detect W4 on all five paper
     * configurations between ~150 and ~270 simulated ms.
     */
    double steadyThresholdPct = 50.0;

    /** Sliding-window length, in detector samples. */
    std::uint32_t steadyWindow = 16;

    /** Detector cadence: one detector sample per N series samples. */
    std::uint32_t steadyEvery = 4;

    /** Simulated ms before the detector starts watching at all. */
    double steadyWarmupMs = 50.0;

    /**
     * --checkpoint-on-steady: when non-empty, detection arms a
     * one-shot checkpoint written to this path at the first quiescent
     * point at or after the detected steady tick — the warm-start
     * seed snapshot for fanned-out sweeps.
     */
    std::string checkpointOnSteady;

    bool enabled() const { return armed; }
};

} // namespace vip

#endif // VIP_OBS_TS_CONFIG_HH
