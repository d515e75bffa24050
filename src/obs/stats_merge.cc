#include "obs/stats_merge.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"

namespace vip
{

double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    vip_assert(!sorted.empty(), "percentile of an empty sample");
    vip_assert(pct >= 0.0 && pct <= 100.0, "percentile ", pct);
    if (pct <= 0.0)
        return sorted.front();
    // Nearest-rank: the smallest value with at least pct% of the
    // sample at or below it.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

std::map<std::string, StatAggregate>
aggregateStats(const std::vector<const StatsFile *> &shards)
{
    struct Series
    {
        std::vector<double> values;
        std::string unit;
    };
    std::map<std::string, Series> byPath;
    for (const StatsFile *f : shards) {
        if (!f)
            continue;
        for (const StatEntry &e : f->stats) {
            Series &s = byPath[e.path];
            if (s.values.empty())
                s.unit = e.unit;
            s.values.push_back(e.value);
        }
    }

    std::map<std::string, StatAggregate> out;
    for (auto &[path, series] : byPath) {
        std::vector<double> &v = series.values;
        std::sort(v.begin(), v.end());
        StatAggregate a;
        a.count = v.size();
        a.min = v.front();
        a.max = v.back();
        double sum = 0.0;
        for (double x : v)
            sum += x;
        a.mean = sum / static_cast<double>(v.size());
        a.p25 = percentileSorted(v, 25.0);
        a.p50 = percentileSorted(v, 50.0);
        a.p75 = percentileSorted(v, 75.0);
        a.p90 = percentileSorted(v, 90.0);
        a.p99 = percentileSorted(v, 99.0);
        a.unit = series.unit;
        out.emplace(path, std::move(a));
    }
    return out;
}

void
writeAggregateJson(std::ostream &os,
                   const std::map<std::string, StatAggregate> &agg,
                   const char *indent)
{
    auto num = [](double v) {
        // Full round-trip precision, but keep integers readable.
        if (std::isfinite(v) && v == std::floor(v) &&
            std::fabs(v) < 1e15) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.1f", v);
            return std::string(buf);
        }
        return fmtG17(v);
    };
    os << "{";
    bool first = true;
    for (const auto &[path, a] : agg) {
        os << (first ? "\n" : ",\n") << indent << "  "
           << json::quoted(path) << ": {\"count\": " << a.count
           << ", \"unit\": " << json::quoted(a.unit)
           << ", \"min\": " << num(a.min) << ", \"max\": " << num(a.max)
           << ", \"mean\": " << num(a.mean)
           << ", \"p25\": " << num(a.p25) << ", \"p50\": " << num(a.p50)
           << ", \"p75\": " << num(a.p75) << ", \"p90\": " << num(a.p90)
           << ", \"p99\": " << num(a.p99) << "}";
        first = false;
    }
    os << "\n" << indent << "}";
}

void
writeAggregateDocument(std::ostream &os,
                       const std::map<std::string, StatAggregate> &agg,
                       std::size_t shardCount,
                       const std::string &sweepName)
{
    os << "{\n"
       << "  \"kind\": \"vip-fleet-aggregate\",\n"
       << "  \"schemaVersion\": 1,\n"
       << "  \"name\": " << json::quoted(sweepName) << ",\n"
       << "  \"shards\": " << shardCount << ",\n"
       << "  \"aggregate\": ";
    writeAggregateJson(os, agg, "  ");
    os << "\n}\n";
}

} // namespace vip
