/**
 * @file
 * Windowed time-series telemetry over the StatRegistry (--ts), with
 * steady-state detection.
 *
 * Every surface the simulator had was either an end-of-run scalar
 * (the stats registry) or a raw dump (metrics CSV, trace ring).  This
 * plane sits between them: stats selected by glob are sampled at the
 * metrics cadence into one DecimatingRing covering the whole run (at
 * capacity every second row is dropped and the keep-stride doubles),
 * so memory is O(capacity) regardless of run length while the series
 * still spans start to finish.  Derived views (rates from counters,
 * EWMA, windowed min/max) are computed at dump time from the stored
 * rows, never during the run.
 *
 * Digest neutrality is by construction, as for the metrics CSV:
 * sampling happens from the event loop's pre-service hook, so the
 * plane schedules no events, consumes no randomness and contributes
 * nothing to any stateDigest() -- an armed run's digest stream is
 * bit-identical to a bare one.
 *
 * The steady-state detector answers "has this run left the boot
 * transient yet?": every steadyEvery-th sample it pushes each tracked
 * series' value into a sliding window and declares steady at the
 * first step where every window's relative spread
 * ((max - min) / |mean|) is under the threshold — counters (Exact
 * tolerance, monotone over the window) are judged on their windowed
 * rate, which must also be positive, so an idle all-zero counter can
 * never vote steady.  The verdict latches; sim.steady.tick exports it
 * through stats and metrics, and --checkpoint-on-steady turns it into
 * the warm-start seed snapshot.
 *
 * Snapshot-safe: rows, decimation state and detector windows
 * serialize into the "timeseries" checkpoint section, so a restored
 * run's series.json is byte-identical to an uninterrupted run's —
 * no duplicated, missing or rewound rows.
 */

#ifndef VIP_OBS_TIMESERIES_HH
#define VIP_OBS_TIMESERIES_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/decimating_ring.hh"
#include "obs/stat_registry.hh"
#include "obs/ts_config.hh"
#include "sim/types.hh"

namespace vip
{

class SnapshotWriter;
class SnapshotReader;

class TimeSeries
{
  public:
    /** Version stamped as "schemaVersion" into every series.json. */
    static constexpr int kSchemaVersion = 1;

    /** Row-ring capacity; at capacity the keep-stride doubles. */
    static constexpr std::size_t kRowCap = 512;

    /**
     * Select every stat of @p reg matching cfg.glob (must select at
     * least one; an empty selection is a configuration error) and
     * resolve the detector's tracked set from cfg.steadyStats.
     * @p intervalMs is the sampling cadence in simulated ms (the
     * metrics cadence, armed or not).
     */
    TimeSeries(const TsConfig &cfg, double intervalMs,
               const StatRegistry &reg);

    /**
     * Pre-service hook entry: called with the tick of the event about
     * to be serviced; emits one sample per interval boundary passed
     * since the last call.  The fast path (no boundary crossed) is a
     * single comparison.
     */
    void
    observe(Tick next)
    {
        if (next < _nextBoundary)
            return;
        catchUp(next);
    }

    /** Flush boundaries up to the final tick (end of run). */
    void finish(Tick end) { catchUp(end); }

    /** @{ steady-state verdict (latched). */
    bool steadyDetected() const { return _steady; }
    Tick steadyTick() const { return _steadyTick; }
    /** Detection tick in ms, or -1 while undetected (the stats /
     *  metrics representation). */
    double
    steadyTickMs() const
    {
        return _steady ? toMs(_steadyTick) : -1.0;
    }
    /** @} */

    /** @{ introspection (tests, stats export). */
    std::size_t selected() const { return _sel.size(); }
    std::size_t rows() const { return _rows.size(); }
    std::uint64_t samplesSeen() const { return _samples; }
    std::uint64_t stride() const { return _rows.stride(); }
    const std::vector<std::string> &trackedPaths() const
    {
        return _trackedPaths;
    }
    /** @} */

    /**
     * Write the self-describing series.json: schemaVersion, build
     * provenance, run context (@p meta), the decimated tick axis,
     * and per-stat raw values plus derived series (rate for
     * counters, EWMA, windowed min/max).  Contains no wall-clock
     * content, so two identical runs produce identical bytes.
     */
    void writeJson(
        std::ostream &os,
        const std::vector<std::pair<std::string, std::string>> &meta
        = {}) const;

    /** @{ checkpoint/restore ("timeseries" snapshot section). */
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /** @} */

    /**
     * Glob match: '*' matches any run of characters, '?' one
     * character, ',' separates alternatives.  Exposed for tests.
     */
    static bool globMatch(const std::string &pat,
                          const std::string &path);

  private:
    /** One selected stat: identity + how to read it, copied from the
     *  registry at construction. */
    struct Sel
    {
        std::string path;
        std::string unit;
        Tolerance tol;
        std::function<double()> get;
    };

    /** One stored sample row: tick + every selected stat's value. */
    struct Row
    {
        Tick tick;
        std::vector<double> vals;
    };

    /** Sliding-window state for one detector-tracked series. */
    struct Track
    {
        std::size_t sel;           ///< index into _sel
        std::deque<double> vals;   ///< last window+1 raw samples
        std::deque<double> metric; ///< last window judged values
    };

    void catchUp(Tick next);
    void sampleAt(Tick t);
    void detectStep(Tick t);

    TsConfig _cfg;
    Tick _interval;
    Tick _nextBoundary;

    std::vector<Sel> _sel;
    DecimatingRing<Row> _rows{kRowCap};
    std::uint64_t _samples = 0; ///< boundaries sampled (pre-decimation)

    std::vector<Track> _tracks;
    std::vector<std::string> _trackedPaths;
    bool _steady = false;
    Tick _steadyTick = 0;
};

} // namespace vip

#endif // VIP_OBS_TIMESERIES_HH
