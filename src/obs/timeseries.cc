#include "obs/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/json_writer.hh"
#include "obs/provenance.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace vip
{

namespace
{

/** Single-pattern glob: '*' = any run, '?' = one character. */
bool
matchOne(const char *p, const char *s)
{
    for (; *p; ++p, ++s) {
        if (*p == '*') {
            while (*(p + 1) == '*')
                ++p;
            for (const char *t = s;; ++t) {
                if (matchOne(p + 1, t))
                    return true;
                if (!*t)
                    return false;
            }
        }
        if (!*s || (*p != '?' && *p != *s))
            return false;
    }
    return !*s;
}

} // namespace

bool
TimeSeries::globMatch(const std::string &pat, const std::string &path)
{
    std::size_t start = 0;
    while (start <= pat.size()) {
        std::size_t comma = pat.find(',', start);
        std::string one = pat.substr(
            start, comma == std::string::npos ? comma : comma - start);
        if (!one.empty() && matchOne(one.c_str(), path.c_str()))
            return true;
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return false;
}

TimeSeries::TimeSeries(const TsConfig &cfg, double intervalMs,
                       const StatRegistry &reg)
    : _cfg(cfg)
{
    if (!(intervalMs > 0.0))
        fatal("time series: sampling interval must be positive, got ",
              intervalMs, " ms");
    _interval = fromMs(intervalMs);
    _nextBoundary = _interval;

    for (const StatDef &d : reg.defs()) {
        if (!globMatch(_cfg.glob, d.path))
            continue;
        _sel.push_back({d.path, d.unit, d.tol, d.get});
    }
    if (_sel.empty())
        fatal("--ts glob '", _cfg.glob,
              "' selects no registered stat");

    for (std::size_t i = 0; i < _sel.size(); ++i) {
        for (const std::string &g : _cfg.steadyStats) {
            if (globMatch(g, _sel[i].path)) {
                _tracks.push_back({i, {}, {}});
                _trackedPaths.push_back(_sel[i].path);
                break;
            }
        }
    }
    if (_cfg.steadyWindow < 2)
        fatal("time series: steadyWindow must be at least 2");
    if (_cfg.steadyEvery < 1)
        fatal("time series: steadyEvery must be at least 1");
}

void
TimeSeries::catchUp(Tick next)
{
    while (_nextBoundary <= next) {
        sampleAt(_nextBoundary);
        _nextBoundary += _interval;
    }
}

void
TimeSeries::sampleAt(Tick t)
{
    ++_samples;

    // The detector sees every boundary sample regardless of what the
    // storage ring later keeps: its verdict must not depend on
    // decimation history.
    if (!_tracks.empty() && !_steady &&
        t >= fromMs(_cfg.steadyWarmupMs) &&
        _samples % _cfg.steadyEvery == 0)
        detectStep(t);

    _rows.offer([&] {
        Row r;
        r.tick = t;
        r.vals.reserve(_sel.size());
        for (const Sel &s : _sel)
            r.vals.push_back(s.get());
        return r;
    });
}

void
TimeSeries::detectStep(Tick t)
{
    const std::size_t W = _cfg.steadyWindow;
    bool allSteady = true;
    for (Track &tr : _tracks) {
        const Sel &s = _sel[tr.sel];
        tr.vals.push_back(s.get());
        if (tr.vals.size() > W + 1)
            tr.vals.pop_front();

        bool pass = false;
        if (tr.vals.size() == W + 1) {
            // Counter: an exactly-compared stat that never decreased
            // over the window.  Judged on its cumulative mean rate
            // (value / elapsed time): a short windowed rate is
            // dominated by frame-count quantization for slow flows,
            // while the cumulative rate converges exactly when the
            // boot transient has been amortized — which is what
            // "steady" means here.  It must be positive: an idle
            // all-zero counter is "dead", not "steady".
            bool counter = s.tol == Tolerance::Exact;
            for (std::size_t i = 1; counter && i < tr.vals.size();
                 ++i)
                counter = tr.vals[i] >= tr.vals[i - 1];
            const double m =
                counter ? tr.vals.back() / toSec(t)
                        : tr.vals.back();
            tr.metric.push_back(m);
            if (tr.metric.size() > W)
                tr.metric.pop_front();
            if (tr.metric.size() == W) {
                double lo = tr.metric[0], hi = tr.metric[0],
                       sum = 0.0;
                for (double v : tr.metric) {
                    lo = std::min(lo, v);
                    hi = std::max(hi, v);
                    sum += v;
                }
                const double mean =
                    sum / static_cast<double>(tr.metric.size());
                const double denom = std::max(std::fabs(mean), 1e-9);
                pass = (hi - lo) <=
                       _cfg.steadyThresholdPct / 100.0 * denom;
                if (counter && !(mean > 0.0))
                    pass = false;
            }
        }
        allSteady = allSteady && pass;
    }
    if (allSteady) {
        _steady = true;
        _steadyTick = t;
    }
}

void
TimeSeries::writeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    JsonChunkWriter w(os);
    w << "{\n  \"kind\": \"vip-series\",\n  \"schemaVersion\": ";
    w.uint(kSchemaVersion) << ",\n  \"provenance\": ";
    w.strObject(provenanceFields()) << ",\n  \"run\": ";
    w.strObject(meta) << ",\n";
    w << "  \"interval_ms\": ";
    w.num(toMs(_interval)) << ",\n  \"glob\": ";
    w.str(_cfg.glob) << ",\n  \"samples\": ";
    w.uint(_samples) << ",\n  \"stride\": ";
    w.uint(_rows.stride()) << ",\n  \"rows\": ";
    w.uint(_rows.size()) << ",\n";

    w << "  \"steady\": {\"detected\": "
      << (_steady ? "true" : "false") << ", \"tick_ms\": ";
    w.num(steadyTickMs()) << ", \"threshold_pct\": ";
    w.num(_cfg.steadyThresholdPct) << ", \"window\": ";
    w.uint(_cfg.steadyWindow) << ", \"every\": ";
    w.uint(_cfg.steadyEvery) << ", \"warmup_ms\": ";
    w.num(_cfg.steadyWarmupMs) << ", \"tracked\": [";
    for (std::size_t i = 0; i < _trackedPaths.size(); ++i) {
        w << (i ? ", " : "");
        w.str(_trackedPaths[i]);
    }
    w << "]},\n";

    const std::vector<Row> &rows = _rows.items();
    const std::size_t n = rows.size();
    std::vector<double> ticks(n);
    for (std::size_t i = 0; i < n; ++i)
        ticks[i] = toMs(rows[i].tick);
    w << "  \"ticks_ms\": ";
    w.array(ticks.data(), n) << ",\n";

    // Raw samples only: readers derive rates from values and
    // ticks_ms.  "kind" says which series are counters (an
    // exactly-compared stat, never decreasing, that moved).
    std::vector<double> vals(n);
    w << "  \"series\": [\n";
    for (std::size_t si = 0; si < _sel.size(); ++si) {
        const Sel &s = _sel[si];
        for (std::size_t i = 0; i < n; ++i)
            vals[i] = rows[i].vals[si];

        bool counter = s.tol == Tolerance::Exact && n > 0;
        for (std::size_t i = 1; counter && i < n; ++i)
            counter = vals[i] >= vals[i - 1];
        counter = counter && vals[n - 1] > vals[0];

        w << "    {\"path\": ";
        w.str(s.path) << ", \"unit\": ";
        w.str(s.unit) << ", \"kind\": \""
                      << (counter ? "counter" : "gauge")
                      << "\",\n     \"values\": ";
        w.array(vals.data(), n)
            << (si + 1 < _sel.size() ? "},\n" : "}\n");
    }
    w << "  ]\n}\n";
    w.flush();
}

void
TimeSeries::saveState(SnapshotWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(_sel.size()));
    for (const Sel &s : _sel)
        w.str(s.path);
    w.tick(_nextBoundary);
    w.u64(_samples);
    w.u64(_rows.stride());
    w.u64(_rows.skip());
    w.u64(_rows.size());
    for (const Row &r : _rows.items()) {
        w.tick(r.tick);
        for (double v : r.vals)
            w.d(v);
    }
    w.b(_steady);
    w.tick(_steadyTick);
    w.u32(static_cast<std::uint32_t>(_tracks.size()));
    for (const Track &t : _tracks) {
        w.u32(static_cast<std::uint32_t>(t.sel));
        w.u32(static_cast<std::uint32_t>(t.vals.size()));
        for (double v : t.vals)
            w.d(v);
        w.u32(static_cast<std::uint32_t>(t.metric.size()));
        for (double v : t.metric)
            w.d(v);
    }
}

void
TimeSeries::loadState(SnapshotReader &r)
{
    std::uint32_t nSel = r.u32();
    if (nSel != _sel.size())
        fatal("restore: snapshot time series selects ", nSel,
              " stats, this run selects ", _sel.size(),
              " (--ts glob mismatch)");
    for (const Sel &s : _sel) {
        std::string path = r.str();
        if (path != s.path)
            fatal("restore: snapshot time-series stat '", path,
                  "' != this run's '", s.path,
                  "' (--ts glob mismatch)");
    }
    _nextBoundary = r.tick();
    _samples = r.u64();
    const std::uint64_t stride = r.u64();
    const std::uint64_t skip = r.u64();
    std::vector<Row> rows(r.u64());
    for (Row &row : rows) {
        row.tick = r.tick();
        row.vals.reserve(_sel.size());
        for (std::size_t j = 0; j < _sel.size(); ++j)
            row.vals.push_back(r.d());
    }
    _rows.restore(stride, skip, std::move(rows));
    _steady = r.b();
    _steadyTick = r.tick();
    std::uint32_t nTracks = r.u32();
    if (nTracks != _tracks.size())
        fatal("restore: snapshot tracks ", nTracks,
              " steady-state series, this run tracks ",
              _tracks.size(), " (steadyStats mismatch)");
    for (Track &t : _tracks) {
        std::uint32_t sel = r.u32();
        if (sel != t.sel)
            fatal("restore: steady-state track index mismatch");
        t.vals.clear();
        std::uint32_t nv = r.u32();
        for (std::uint32_t i = 0; i < nv; ++i)
            t.vals.push_back(r.d());
        t.metric.clear();
        std::uint32_t nm = r.u32();
        for (std::uint32_t i = 0; i < nm; ++i)
            t.metric.push_back(r.d());
    }
}

} // namespace vip
