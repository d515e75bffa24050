/**
 * @file
 * DecimatingRing: a bounded sample store that spans a whole run.
 *
 * Every offered sample is kept until the ring holds its capacity.
 * Then every second stored sample is dropped and the keep-stride
 * doubles, so from then on only every stride-th offered sample is
 * stored.  Memory stays O(capacity) however long the run, while the
 * stored history still reaches from the first sample to the latest.
 *
 * Used by the time-series plane (its row ring) and the profiler (its
 * queue-occupancy timeline).  Header-only: the event queue's
 * translation unit inlines the profiler's sampling path and must not
 * depend on the vip_obs archive.
 */

#ifndef VIP_OBS_DECIMATING_RING_HH
#define VIP_OBS_DECIMATING_RING_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vip
{

template <typename T>
class DecimatingRing
{
  public:
    explicit DecimatingRing(std::size_t cap) : _cap(cap)
    {
        _items.reserve(cap);
    }

    /**
     * Offer one sample.  @p make builds it and is only called when
     * the sample is kept, so a skipped sample costs one decrement.
     */
    template <typename Make>
    void
    offer(Make &&make)
    {
        if (_skip > 0) {
            --_skip;
            return;
        }
        if (_items.size() >= _cap) {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < _items.size(); i += 2) {
                if (kept != i) // a self-move would empty item 0
                    _items[kept] = std::move(_items[i]);
                ++kept;
            }
            _items.resize(kept);
            _stride *= 2;
        }
        _items.push_back(make());
        _skip = _stride - 1;
    }

    const std::vector<T> &items() const { return _items; }
    std::size_t size() const { return _items.size(); }
    /** Keep every stride-th offered sample (1 until the first fill). */
    std::uint64_t stride() const { return _stride; }
    /** Offered samples still to drop before the next keep. */
    std::uint64_t skip() const { return _skip; }

    /** Reinstate a saved state (checkpoint restore). */
    void
    restore(std::uint64_t stride, std::uint64_t skip,
            std::vector<T> items)
    {
        _stride = stride;
        _skip = skip;
        _items = std::move(items);
    }

  private:
    std::size_t _cap;
    std::vector<T> _items;
    std::uint64_t _stride = 1;
    std::uint64_t _skip = 0;
};

} // namespace vip

#endif // VIP_OBS_DECIMATING_RING_HH
