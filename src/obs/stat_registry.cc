#include "obs/stat_registry.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/json_writer.hh"
#include "obs/latency.hh"
#include "obs/provenance.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"

namespace vip
{

void
StatRegistry::add(StatDef def)
{
    vip_assert(!def.path.empty(), "stat path must not be empty");
    vip_assert(static_cast<bool>(def.get),
               "stat needs a getter: ", def.path);
    if (!_paths.insert(def.path).second)
        panic("duplicate stat path registered: ", def.path);
    _defs.push_back(std::move(def));
}

void
StatRegistry::addScalar(std::string path, std::string unit,
                        const stats::Scalar &s)
{
    const stats::Scalar *p = &s;
    addExact(std::move(path), s.desc(), std::move(unit),
             [p] { return p->value(); });
}

void
StatRegistry::addTimeWeighted(std::string path, std::string unit,
                              const stats::TimeWeighted &s)
{
    const stats::TimeWeighted *p = &s;
    addTiming(std::move(path), s.desc(), std::move(unit),
              [p] { return p->average(); });
}

void
StatRegistry::addAccumulator(std::string path, std::string unit,
                             const stats::Accumulator &s)
{
    const stats::Accumulator *p = &s;
    addExact(path + ".count", s.desc() + " (samples)", "samples",
             [p] { return static_cast<double>(p->count()); });
    addTiming(path + ".mean", s.desc() + " (mean)", unit,
              [p] { return p->mean(); });
    addTiming(path + ".min", s.desc() + " (min)", unit,
              [p] { return p->min(); });
    addTiming(path + ".max", s.desc() + " (max)", unit,
              [p] { return p->max(); });
}

void
StatRegistry::addLogHistogramMs(std::string path, std::string desc,
                                const LogHistogram &h)
{
    const LogHistogram *p = &h;
    auto ms = [](Tick t) { return static_cast<double>(t) / 1e9; };
    addExact(path + ".count", desc + " (samples)", "samples",
             [p] { return static_cast<double>(p->count()); });
    addTiming(path + ".mean_ms", desc + " (mean)", "ms",
              [p] { return p->mean() / 1e9; });
    addTiming(path + ".p50_ms", desc + " (p50)", "ms",
              [p, ms] { return ms(p->percentile(50)); });
    addTiming(path + ".p95_ms", desc + " (p95)", "ms",
              [p, ms] { return ms(p->percentile(95)); });
    addTiming(path + ".p99_ms", desc + " (p99)", "ms",
              [p, ms] { return ms(p->percentile(99)); });
    addTiming(path + ".max_ms", desc + " (max)", "ms",
              [p, ms] { return ms(p->max()); });
}

CounterHandle
StatRegistry::counter(std::string path, std::string desc,
                      std::string unit)
{
    _slots.push_back(0.0);
    double *slot = &_slots.back();
    addExact(std::move(path), std::move(desc), std::move(unit),
             [slot] { return *slot; });
    return CounterHandle(slot);
}

bool
StatRegistry::has(const std::string &path) const
{
    return _paths.count(path) != 0;
}

std::vector<std::pair<std::string, double>>
StatRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(_defs.size());
    for (const StatDef &d : _defs)
        out.emplace_back(d.path, d.get());
    std::sort(out.begin(), out.end());
    return out;
}

void
StatRegistry::writeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    // Sort by path so the file is stable under registration-order
    // changes: vip_stats_diff keys on paths, but humans diff files.
    std::vector<const StatDef *> order;
    order.reserve(_defs.size());
    for (const StatDef &d : _defs)
        order.push_back(&d);
    std::sort(order.begin(), order.end(),
              [](const StatDef *a, const StatDef *b) {
                  return a->path < b->path;
              });

    JsonChunkWriter w(os);
    w << "{\n  \"schemaVersion\": ";
    w.uint(kStatsSchemaVersion) << ",\n  \"kind\": \"vip-stats\",\n"
                                << "  \"provenance\": ";
    w.strObject(provenanceFields()) << ",\n  \"run\": ";
    w.strObject(meta) << ",\n";
    w << "  \"stats\": [\n";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const StatDef &d = *order[i];
        double v = d.get();
        if (!std::isfinite(v)) {
            warn("stat ", d.path, " is not finite; dumping as 0");
            v = 0.0;
        }
        w << "    {\"path\": ";
        w.str(d.path) << ", \"value\": ";
        w.num(v) << ", \"unit\": ";
        w.str(d.unit) << ", \"tol\": \"";
        if (d.tol == Tolerance::Exact)
            w << "exact";
        else
            (w << "pct:").num(d.tolPct);
        w << "\", \"desc\": ";
        w.str(d.desc) << "}" << (i + 1 < order.size() ? ",\n" : "\n");
    }
    w << "  ]\n}\n";
    w.flush();
}

} // namespace vip
