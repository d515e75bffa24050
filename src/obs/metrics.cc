#include "obs/metrics.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/provenance.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"

namespace vip
{

MetricsSampler::MetricsSampler(System &sys, Tick interval)
    : _sys(sys), _interval(interval)
{
    vip_assert(interval > 0, "metrics interval must be positive");
}

MetricsSampler::~MetricsSampler() = default;

void
MetricsSampler::addProbe(std::string name, Probe fn)
{
    _probes.emplace_back(std::move(name), std::move(fn));
}

void
MetricsSampler::streamTo(std::string path)
{
    _path = std::move(path);
}

void
MetricsSampler::start()
{
    if (!_path.empty()) {
        _stream = std::make_unique<std::ofstream>(_path);
        if (!*_stream) {
            warn("metrics: cannot open ", _path,
                 "; falling back to in-memory only");
            _stream.reset();
        } else {
            writeHeader(*_stream);
            _stream->flush();
        }
    }
    _sampleEvent = _sys.eventq().scheduleIn(
        _interval, [this] { sampleNow(); }, EventPriority::Stats,
        "obs.metrics");
}

void
MetricsSampler::resume()
{
    if (!_path.empty()) {
        _stream = std::make_unique<std::ofstream>(_path,
                                                  std::ios::app);
        if (!*_stream) {
            warn("metrics: cannot reopen ", _path,
                 "; falling back to in-memory only");
            _stream.reset();
        } else {
            *_stream << "# resumed-at-tick=" << _sys.curTick()
                     << "\n";
            _stream->flush();
        }
    }
}

void
MetricsSampler::sampleNow()
{
    _ticks.push_back(_sys.curTick());
    for (const auto &[name, fn] : _probes)
        _data.push_back(fn());
    if (_stream) {
        // One row per flush: a killed run loses at most the sample
        // being taken when the axe fell.
        writeRow(*_stream, _ticks.size() - 1);
        _stream->flush();
    }
    _sampleEvent = _sys.eventq().scheduleIn(
        _interval, [this] { sampleNow(); }, EventPriority::Stats,
        "obs.metrics");
}

void
MetricsSampler::writeHeader(std::ostream &os) const
{
    os << "# vip-metrics v1\n";
    for (const auto &line : provenanceMetaLines())
        os << "# " << line << "\n";
    os << "# intervalMs=" << toMs(_interval) << "\n";
    os << "tick_ms";
    for (const auto &[name, fn] : _probes)
        os << "," << name;
    os << "\n";
}

void
MetricsSampler::writeRow(std::ostream &os, std::size_t r) const
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", toMs(_ticks[r]));
    os << buf;
    for (std::size_t c = 0; c < _probes.size(); ++c) {
        std::snprintf(buf, sizeof(buf), "%.6g",
                      _data[r * _probes.size() + c]);
        os << "," << buf;
    }
    os << "\n";
}

void
MetricsSampler::writeCsv(std::ostream &os) const
{
    writeHeader(os);
    for (std::size_t r = 0; r < _ticks.size(); ++r)
        writeRow(os, r);
}

void
MetricsSampler::saveState(SnapshotWriter &w) const
{
    _sys.eventq().saveEvent(w, _sampleEvent);
    // The in-memory rows are restored too, so a post-run writeCsv()
    // is bit-identical to an uninterrupted run's.
    w.u32(static_cast<std::uint32_t>(_probes.size()));
    w.u64(_ticks.size());
    for (Tick t : _ticks)
        w.tick(t);
    for (double v : _data)
        w.d(v);
}

void
MetricsSampler::loadState(SnapshotReader &r)
{
    _sampleEvent = _sys.eventq().restoreEvent(
        r, [this] { sampleNow(); }, EventPriority::Stats, "obs.metrics");
    std::uint32_t nProbes = r.u32();
    if (nProbes != _probes.size())
        fatal("metrics: snapshot has ", nProbes,
              " probes, this run registered ", _probes.size(),
              " (config mismatch)");
    std::uint64_t nRows = r.u64();
    _ticks.assign(nRows, 0);
    for (std::uint64_t i = 0; i < nRows; ++i)
        _ticks[i] = r.tick();
    _data.assign(nRows * _probes.size(), 0.0);
    for (double &v : _data)
        v = r.d();
}

} // namespace vip
