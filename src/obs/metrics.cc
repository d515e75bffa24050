#include "obs/metrics.hh"

#include <cstdio>

#include "obs/provenance.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace vip
{

MetricsSampler::MetricsSampler(std::string path, Tick interval)
    : _path(std::move(path)), _interval(interval),
      _nextBoundary(interval)
{
    vip_assert(interval > 0, "metrics interval must be positive");
}

void
MetricsSampler::addProbe(std::string name, Probe fn)
{
    _probes.emplace_back(std::move(name), std::move(fn));
}

void
MetricsSampler::openOrDie(std::ios::openmode mode)
{
    _out.open(_path, mode);
    if (!_out)
        fatal("metrics: cannot open ", _path, " for writing");
}

void
MetricsSampler::start()
{
    openOrDie(std::ios::out | std::ios::trunc);
    _out << "# vip-metrics v1\n";
    for (const auto &line : provenanceMetaLines())
        _out << "# " << line << "\n";
    _out << "# intervalMs=" << toMs(_interval) << "\n";
    _out << "tick_ms";
    for (const auto &[name, fn] : _probes)
        _out << "," << name;
    _out << "\n";
    _out.flush();
}

void
MetricsSampler::resume(Tick now)
{
    openOrDie(std::ios::out | std::ios::app);
    _out << "# resumed-at-tick=" << now << "\n";
    _out.flush();
}

void
MetricsSampler::catchUp(Tick last)
{
    char buf[48];
    for (; _nextBoundary <= last; _nextBoundary += _interval) {
        std::snprintf(buf, sizeof(buf), "%.6f", toMs(_nextBoundary));
        _out << buf;
        for (const auto &[name, fn] : _probes) {
            std::snprintf(buf, sizeof(buf), "%.6g", fn());
            _out << "," << buf;
        }
        // One row per flush: a killed run loses at most the row
        // being written when the axe fell.
        _out << "\n";
        _out.flush();
    }
}

void
MetricsSampler::saveState(SnapshotWriter &w) const
{
    w.tick(_nextBoundary);
    w.u32(static_cast<std::uint32_t>(_probes.size()));
}

void
MetricsSampler::loadState(SnapshotReader &r)
{
    _nextBoundary = r.tick();
    std::uint32_t nProbes = r.u32();
    if (nProbes != _probes.size())
        fatal("metrics: snapshot has ", nProbes,
              " probes, this run registered ", _probes.size(),
              " (config mismatch)");
}

} // namespace vip
