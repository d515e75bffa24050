/**
 * @file
 * Periodic metrics CSV.
 *
 * Samples a set of registered probes (buffer/lane occupancy, credits,
 * DRAM bandwidth, power states, ...) every N simulated milliseconds
 * and streams each row to the output file as it is taken, flushed, so
 * the series survives a run killed by the no-progress guard or a
 * SimFatal -- the flight recorder points at this file from its crash
 * bundle, and the fleet reads its last row as a heartbeat.
 *
 * Sampling is passive, like the TimeSeries plane: the event loop's
 * pre-service hook calls observe() with the tick of the event about
 * to run, and every interval boundary strictly before it is sampled
 * then.  No event intervenes between such a boundary and that call,
 * so each row sees the same post-update state a sampling event at the
 * boundary would.  The sampler schedules nothing and keeps no rows,
 * so a run with a metrics CSV has the digest stream and event counts
 * of a bare run, and its checkpoint section has a fixed size.
 */

#ifndef VIP_OBS_METRICS_HH
#define VIP_OBS_METRICS_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace vip
{

class SnapshotWriter;
class SnapshotReader;

class MetricsSampler
{
  public:
    using Probe = std::function<double()>;

    /** Sample every @p interval ticks into the CSV at @p path. */
    MetricsSampler(std::string path, Tick interval);

    /** Register a named probe; call before start(). */
    void addProbe(std::string name, Probe fn);

    /** Truncate-open the CSV and write its header (fresh runs).  An
     *  unwritable path is a SimFatal. */
    void start();

    /**
     * Re-open the CSV after a checkpoint restore, in place of
     * start(): append mode (the rows written before the checkpoint
     * stay in place, no second header), stamped with a
     * '# resumed-at-tick=@p now' comment so the seam is visible.
     * Call after loadState().
     */
    void resume(Tick now);

    /** Pre-service hook: sample every boundary before @p next.  The
     *  fast path (no boundary crossed) is a single comparison. */
    void
    observe(Tick next)
    {
        if (next > _nextBoundary)
            catchUp(next - 1);
    }

    /** End of run: sample every boundary up to and including @p end. */
    void finish(Tick end) { catchUp(end); }

    /** @{ checkpoint serialization (next boundary + probe count) */
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /** @} */

    /** Rows sampled so far, including those before a restore. */
    std::size_t
    rows() const
    {
        return static_cast<std::size_t>(_nextBoundary / _interval - 1);
    }
    std::size_t probes() const { return _probes.size(); }
    Tick interval() const { return _interval; }
    const std::string &path() const { return _path; }

  private:
    void catchUp(Tick last);
    void openOrDie(std::ios::openmode mode);

    std::string _path;
    Tick _interval;
    Tick _nextBoundary; ///< first boundary not yet sampled
    std::vector<std::pair<std::string, Probe>> _probes;
    std::ofstream _out;
};

} // namespace vip

#endif // VIP_OBS_METRICS_HH
