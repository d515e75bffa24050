/**
 * @file
 * Observer output kernels: appendG9 must spell every double exactly
 * as printf("%.9g") does (edge cases, random bit patterns and
 * stat-like values), json::quoted must escape every control
 * character, the chunk writer must stream documents longer than its
 * chunk unchanged, and TimeSeries::writeJson must keep its exact text
 * and stay parseable whatever the --ts glob contains.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/json_writer.hh"
#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"

using namespace vip;

namespace
{

std::string
printfG9(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
g9(double v)
{
    std::string s;
    appendG9(s, v);
    return s;
}

/** Count and report mismatches instead of flooding the log. */
void
expectMatchesPrintf(const std::vector<double> &vals)
{
    std::size_t bad = 0;
    std::string out;
    for (double v : vals) {
        out.clear();
        appendG9(out, v);
        if (out != printfG9(v) && ++bad <= 10)
            ADD_FAILURE() << "appendG9(" << printfG9(v) << ") wrote '"
                          << out << "'";
    }
    EXPECT_EQ(bad, 0u);
}

} // namespace

TEST(AppendG9, MatchesPrintfOnEdgeCases)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> edges = {
        0.0, -0.0, 1.0, -1.0, 999999999.0, -999999999.0, 1e9, -1e9,
        999999999.5, 1e9 + 1, 9007199254740992.0 /* 2^53 */,
        -9007199254740992.0, 123456789.5, 9.9999999950, 9.99999999,
        99999999.95, 0.1, 1e-5, 1e-4, -1e-5, 0.000123456789,
        1.5e-300, DBL_MIN, DBL_MIN / 2 /* denormal */,
        std::numeric_limits<double>::denorm_min(), -DBL_MIN / 3,
        DBL_MAX, -DBL_MAX, 1e300, 1e15, 1e16, 1e21, 0.5, 2.5e-7,
        inf, -inf, nan, -nan};
    for (double v : edges)
        EXPECT_EQ(g9(v), printfG9(v)) << "bits of " << printfG9(v);
}

TEST(AppendG9, MatchesPrintfOnRandomBitPatterns)
{
    std::mt19937_64 rng(20150613);
    std::vector<double> vals;
    vals.reserve(1'000'000);
    while (vals.size() < 1'000'000) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        vals.push_back(v);
    }
    expectMatchesPrintf(vals);
}

TEST(AppendG9, MatchesPrintfOnStatLikeValues)
{
    // What the writers actually see: counters, simulated-ms ticks,
    // percentages, rates, EWMAs of small integers, energies in
    // joules, and differences of nearly equal values.
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<std::int64_t> count(0, 4'000'000'000);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> vals;
    vals.reserve(1'000'000);
    while (vals.size() < 1'000'000) {
        const double u = unit(rng);
        switch (vals.size() % 8) {
          case 0: vals.push_back(static_cast<double>(count(rng))); break;
          case 1: vals.push_back(std::round(u * 4e5) * 0.0025); break;
          case 2: vals.push_back(u * 100.0); break;
          case 3: vals.push_back(std::pow(10.0, u * 12.0)); break;
          case 4: {
            double e = 0.0;
            for (int i = 0; i < 6; ++i)
                e = 0.2 * static_cast<double>(count(rng) % 50) +
                    0.8 * e;
            vals.push_back(e);
            break;
          }
          case 5: vals.push_back(u * 1e-3); break;
          case 6: vals.push_back(-u * 1e6); break;
          default: {
            const double a = std::round(u * 1e6) / 7.0;
            vals.push_back((a + 1e-9 * u) - a);
          }
        }
    }
    expectMatchesPrintf(vals);
}

TEST(JsonQuoted, EscapesEveryControlCharacter)
{
    EXPECT_EQ(json::quoted("plain.path_1"), "\"plain.path_1\"");
    EXPECT_EQ(json::quoted("q\"b\\n\nt\tr\r"),
              "\"q\\\"b\\\\n\\nt\\tr\\r\"");
    EXPECT_EQ(json::quoted(std::string("\x01\x1f\x7f", 3)),
              "\"\\u0001\\u001f\x7f\"");
    EXPECT_EQ(json::quoted(std::string("a\0b", 3)), "\"a\\u0000b\"");

    std::string all;
    for (int c = 1; c < 128; ++c)
        all += static_cast<char>(c);
    EXPECT_EQ(json::parse(json::quoted(all)).str, all);
}

TEST(JsonChunkWriter, StreamsLongDocumentsUnchanged)
{
    // Longer than several chunks, with a string literal larger than
    // one chunk, so every spill path runs.
    std::ostringstream os;
    std::string want;
    {
        JsonChunkWriter w(os);
        w << "[";
        want += "[";
        for (int i = 0; i < 20000; ++i) {
            const double v = i * 1.25 - 3.0;
            w << (i ? "," : "");
            w.num(v);
            want += i ? "," : "";
            want += printfG9(v);
        }
        const std::string big(3 * JsonChunkWriter::kChunk / 2, '\t');
        w << ",";
        w.str(big);
        want += ",";
        want += json::quoted(big);
        const std::string mid(JsonChunkWriter::kChunk / 8, '"');
        w << ",";
        w.str(mid) << ",";
        w.uint(18446744073709551615ull) << "]";
        want += ",";
        want += json::quoted(mid);
        want += ",18446744073709551615]";
        w.flush();
    }
    EXPECT_EQ(os.str(), want);
    EXPECT_EQ(json::parse(os.str()).arr.size(), 20003u);
}

namespace
{

/** Four samples of a counter, a fractional gauge and a gauge that
 *  holds -0.0, at 1 ms boundaries. */
struct HandBuiltSeries
{
    double count = 0, frac = 0, negz = 0;
    StatRegistry reg;

    HandBuiltSeries()
    {
        reg.addExact("t.count", "events", "events",
                     [this] { return count; });
        reg.addTiming("t.frac", "fractional gauge", "ms",
                      [this] { return frac; });
        reg.addExact("t.negz", "signed zero gauge", "",
                     [this] { return negz; });
    }

    std::string
    write(const std::string &glob,
          const std::vector<std::pair<std::string, std::string>> &meta)
    {
        TsConfig cfg;
        cfg.armed = true;
        cfg.glob = glob;
        TimeSeries ts(cfg, 1.0, reg);
        const double counts[] = {0, 3, 7, 10};
        const double fracs[] = {0.5, 1.25, -2.75, 1e-5};
        const double negzs[] = {-0.0, -0.0, -1.0, -0.0};
        for (int i = 0; i < 4; ++i) {
            count = counts[i];
            frac = fracs[i];
            negz = negzs[i];
            ts.observe(fromMs(i + 1.0));
        }
        std::ostringstream os;
        ts.writeJson(os, meta);
        return os.str();
    }
};

} // namespace

TEST(SeriesJsonWriter, ExactTextOfTicksAndSeries)
{
    HandBuiltSeries h;
    const std::string doc = h.write("t.*", {{"config", "hand"}});
    const std::size_t at = doc.find("  \"ticks_ms\"");
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(
        doc.substr(at),
        "  \"ticks_ms\": [1,2,3,4],\n"
        "  \"series\": [\n"
        "    {\"path\": \"t.count\", \"unit\": \"events\", "
        "\"kind\": \"counter\",\n"
        "     \"values\": [0,3,7,10],\n"
        "     \"rate_per_s\": [0,3000,4000,3000],\n"
        "     \"ewma\": [0,0.6,1.88,3.504],\n"
        "     \"win_min\": [0,0,0,0],\n"
        "     \"win_max\": [0,3,7,10]},\n"
        "    {\"path\": \"t.frac\", \"unit\": \"ms\", "
        "\"kind\": \"gauge\",\n"
        "     \"values\": [0.5,1.25,-2.75,1e-05],\n"
        "     \"ewma\": [0.5,0.65,-0.03,-0.023998],\n"
        "     \"win_min\": [0.5,0.5,-2.75,-2.75],\n"
        "     \"win_max\": [0.5,1.25,1.25,1.25]},\n"
        "    {\"path\": \"t.negz\", \"unit\": \"\", "
        "\"kind\": \"gauge\",\n"
        "     \"values\": [-0,-0,-1,-0],\n"
        "     \"ewma\": [-0,-0,-0.2,-0.16],\n"
        "     \"win_min\": [-0,-0,-1,-1],\n"
        "     \"win_max\": [-0,-0,-0,-0]}\n"
        "  ]\n"
        "}\n");
    EXPECT_NE(doc.find("\"run\": {\"config\": \"hand\"},\n"
                       "  \"interval_ms\": 1,\n"
                       "  \"glob\": \"t.*\",\n"
                       "  \"samples\": 4,\n"
                       "  \"stride\": 1,\n"
                       "  \"rows\": 4,\n"),
              std::string::npos)
        << doc;
}

TEST(SeriesJsonWriter, QuotesAndBackslashesInGlobStayValidJson)
{
    HandBuiltSeries h;
    const std::string glob = "t.*,x\"y\\z";
    const std::string doc =
        h.write(glob, {{"workload", "W\"4\\"}, {"note", "a\tb"}});
    const json::JsonValue v = json::parse(doc);
    EXPECT_EQ(json::strField(v, "glob"), glob);
    const json::JsonValue *run = v.find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(json::strField(*run, "workload"), "W\"4\\");
    EXPECT_EQ(json::strField(*run, "note"), "a\tb");
    const json::JsonValue *series = v.find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->arr.size(), 3u);
    EXPECT_EQ(json::strField(series->arr[1], "path"), "t.frac");
}
