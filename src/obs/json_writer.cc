#include "obs/json_writer.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.hh"

namespace vip
{

void
appendG9(std::string &out, double v)
{
    char buf[40];
    char *end;
    if (v == std::trunc(v) && std::fabs(v) < 1e9 &&
        !(v == 0.0 && std::signbit(v))) {
        // %.9g prints every integer below 1e9 in full, without a
        // fraction or an exponent.
        end = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<std::int64_t>(v))
                  .ptr;
    } else if (std::isfinite(v)) {
        end = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, 9)
                  .ptr;
    } else {
        end = buf + std::snprintf(buf, sizeof(buf), "%.9g", v);
    }
    out.append(buf, end);
}

std::string
fmtG17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

JsonChunkWriter::JsonChunkWriter(std::ostream &os) : _os(os)
{
    _buf.reserve(kChunk);
}

JsonChunkWriter &
JsonChunkWriter::uint(std::uint64_t v)
{
    room();
    char buf[24];
    _buf.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return *this;
}

JsonChunkWriter &
JsonChunkWriter::str(std::string_view s)
{
    // An escape is at most 6 bytes ("\u00xx") per input byte.
    if (_buf.size() + 6 * s.size() + 2 > kChunk) {
        flush();
        if (6 * s.size() + 2 > kChunk) {
            spill(json::quoted(s));
            return *this;
        }
    }
    json::appendQuoted(_buf, s);
    return *this;
}

JsonChunkWriter &
JsonChunkWriter::strObject(
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    *this << "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        *this << (i ? ", " : "");
        str(fields[i].first) << ": ";
        str(fields[i].second);
    }
    return *this << "}";
}

JsonChunkWriter &
JsonChunkWriter::array(const double *v, std::size_t n)
{
    *this << "[";
    for (std::size_t i = 0; i < n; ++i) {
        room();
        if (i)
            _buf += ',';
        appendG9(_buf, v[i]);
    }
    return *this << "]";
}

void
JsonChunkWriter::flush()
{
    _os.write(_buf.data(), static_cast<std::streamsize>(_buf.size()));
    _buf.clear();
}

void
JsonChunkWriter::spill(std::string_view s)
{
    flush();
    if (s.size() > kChunk)
        _os.write(s.data(), static_cast<std::streamsize>(s.size()));
    else
        _buf.append(s);
}

} // namespace vip
