/**
 * @file
 * Fast, byte-stable output for the observer files (series.json,
 * stats.json) and the fleet's reports: one number formatter with the
 * exact printf("%.9g") spelling, one with the exact "%.17g" spelling,
 * and a bounded chunk buffer that streams a JSON document without
 * building it whole in memory.
 */

#ifndef VIP_OBS_JSON_WRITER_HH
#define VIP_OBS_JSON_WRITER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vip
{

/**
 * Append @p v to @p out exactly as printf("%.9g") spells it.
 * Integral values below 1e9 in magnitude (except -0.0) take the
 * integer std::to_chars path; other finite values use
 * std::to_chars(general, 9), which the standard defines as
 * printf-equivalent; NaN and infinities go through snprintf itself.
 */
void appendG9(std::string &out, double v);

/** @p v exactly as printf("%.17g") spells it (round-trips losslessly). */
std::string fmtG17(double v);

/**
 * Output buffer of at most kChunk bytes in front of a stream.  Every
 * append that would overflow the chunk first hands it to the stream,
 * so a writer's memory stays bounded however long the document is.
 * Call flush() once at the end.
 */
class JsonChunkWriter
{
  public:
    static constexpr std::size_t kChunk = 64 * 1024;

    explicit JsonChunkWriter(std::ostream &os);

    /** Raw text (punctuation, keys, pre-quoted literals). */
    JsonChunkWriter &
    operator<<(std::string_view s)
    {
        if (_buf.size() + s.size() > kChunk)
            spill(s);
        else
            _buf.append(s);
        return *this;
    }

    /** A number in the appendG9 (%.9g) spelling. */
    JsonChunkWriter &
    num(double v)
    {
        room();
        appendG9(_buf, v);
        return *this;
    }

    /** An unsigned integer in decimal. */
    JsonChunkWriter &uint(std::uint64_t v);

    /** A JSON string literal (json::appendQuoted). */
    JsonChunkWriter &str(std::string_view s);

    /** {"k": "v", ...} with every key and value a string literal. */
    JsonChunkWriter &strObject(
        const std::vector<std::pair<std::string, std::string>> &fields);

    /** "[a,b,...]" with every element in the appendG9 spelling. */
    JsonChunkWriter &array(const double *v, std::size_t n);

    /** Hand whatever is buffered to the stream. */
    void flush();

  private:
    /** Longest number appendG9 can write ("-1.23456789e-308"), with
     *  slack for a separator. */
    static constexpr std::size_t kMaxNum = 32;

    void
    room()
    {
        if (_buf.size() + kMaxNum > kChunk)
            flush();
    }

    void spill(std::string_view s);

    std::ostream &_os;
    std::string _buf;
};

} // namespace vip

#endif // VIP_OBS_JSON_WRITER_HH
