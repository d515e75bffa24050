#include "fleet/journal.hh"

#include "obs/json.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"

namespace vip
{
namespace fleet
{

void
FleetJournal::open(const std::string &path)
{
    if (path.empty())
        return;
    _out.open(path, std::ios::trunc);
    if (!_out)
        fatal("fleet: cannot open journal ", path);
}

FleetJournal::Record::Record(FleetJournal *j, double wallMs,
                             const char *type)
    : _j(j)
{
    if (!_j)
        return;
    _line = "{\"seq\": " + std::to_string(_j->_seq++) +
            ", \"wall_ms\": " + fmtG17(wallMs) + ", \"type\": \"" +
            type + "\"";
}

FleetJournal::Record::~Record()
{
    if (!_j)
        return;
    // Flushed per record: the journal must survive a SIGKILL
    // mid-sweep (that is its whole point).
    _j->_out << _line << "}\n" << std::flush;
}

FleetJournal::Record &
FleetJournal::Record::str(const char *key, const std::string &v)
{
    if (_j)
        _line += ", \"" + std::string(key) + "\": " + json::quoted(v);
    return *this;
}

FleetJournal::Record &
FleetJournal::Record::num(const char *key, double v)
{
    if (_j)
        _line += ", \"" + std::string(key) + "\": " + fmtG17(v);
    return *this;
}

FleetJournal::Record &
FleetJournal::Record::u64(const char *key, std::uint64_t v)
{
    if (_j)
        _line += ", \"" + std::string(key) + "\": " +
                 std::to_string(v);
    return *this;
}

FleetJournal::Record &
FleetJournal::Record::b(const char *key, bool v)
{
    if (_j)
        _line += ", \"" + std::string(key) +
                 (v ? "\": true" : "\": false");
    return *this;
}

FleetJournal::Record
FleetJournal::event(double wallMs, const char *type)
{
    return Record(enabled() ? this : nullptr, wallMs, type);
}

} // namespace fleet
} // namespace vip
