/**
 * @file
 * Minimal recursive-descent JSON parser — just enough DOM for the
 * observability file formats (trace_event files, stats.json, crash
 * bundles), with no external dependencies.  Extracted from
 * trace_check.cc so every tool parses the same dialect.
 */

#ifndef VIP_OBS_JSON_HH
#define VIP_OBS_JSON_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vip
{
namespace json
{

/** One parsed JSON value; object members keep file order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }
};

/** Parse a complete JSON document.  Throws SimFatal on bad input. */
JsonValue parse(const std::string &text);

/** Parse a complete JSON document from a stream (reads to EOF). */
JsonValue parse(std::istream &is);

/** Object member as string ("" when missing or not a string). */
std::string strField(const JsonValue &obj, const char *key);

/** Object member as number (0.0 when missing or not a number). */
double numField(const JsonValue &obj, const char *key);

/**
 * Append @p s to @p out as a JSON string literal, quotes included.
 * Quote, backslash and every control character are escaped (newline,
 * tab and carriage return by their short names, the rest as a
 * lower-case \\u00xx escape), so any input yields valid JSON.  This
 * is the one escaper behind every JSON file the project writes.
 */
void appendQuoted(std::string &out, std::string_view s);

/** @p s as a JSON string literal (appendQuoted into a new string). */
std::string quoted(std::string_view s);

} // namespace json
} // namespace vip

#endif // VIP_OBS_JSON_HH
