#include "sim/system.hh"

#include "sim/sim_object.hh"

namespace vip
{

System::System(std::uint64_t seed) : _random(seed) {}

void
System::registerObject(SimObject *obj)
{
    auto [it, inserted] = _byName.emplace(obj->name(), obj);
    if (!inserted)
        fatal("duplicate SimObject name: ", obj->name());
    _objects.push_back(obj);
}

void
System::unregisterObject(SimObject *obj)
{
    _byName.erase(obj->name());
    for (auto it = _objects.begin(); it != _objects.end(); ++it) {
        if (*it == obj) {
            _objects.erase(it);
            break;
        }
    }
}

SimObject *
System::find(const std::string &name) const
{
    auto it = _byName.find(name);
    return it == _byName.end() ? nullptr : it->second;
}

void
System::startOnce()
{
    if (_started)
        return;
    _started = true;
    // startup() may create new objects; iterate by index.
    for (std::size_t i = 0; i < _objects.size(); ++i)
        _objects[i]->startup();
}

void
System::finalizeAll()
{
    for (std::size_t i = 0; i < _objects.size(); ++i)
        _objects[i]->finalize();
}

} // namespace vip
