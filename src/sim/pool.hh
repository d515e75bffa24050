/**
 * @file
 * Allocation-free containers for the model's hot paths.
 *
 * Both reuse their storage once warmed up, so steady-state traffic
 * (DRAM bursts, DMA transfers) makes no heap allocations:
 *
 *  - IndexPool<T>: records parked by a small index, so a callback can
 *    reach its record through `{this, index}` and stay inside
 *    Callback's inline buffer;
 *  - Ring<T>: a growable FIFO over one power-of-two array, replacing
 *    std::deque's node churn; iterate it by index.
 */

#ifndef VIP_SIM_POOL_HH
#define VIP_SIM_POOL_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vip
{

/** Records addressed by index, recycled through a free list. */
template <class T>
class IndexPool
{
  public:
    /** Park @p v; returns its index until take(). */
    std::uint32_t
    put(T v)
    {
        if (_free.empty()) {
            _items.push_back(std::move(v));
            return static_cast<std::uint32_t>(_items.size() - 1);
        }
        const std::uint32_t i = _free.back();
        _free.pop_back();
        _items[i] = std::move(v);
        return i;
    }

    T &operator[](std::uint32_t i) { return _items[i]; }

    /** Move the record at @p i out and recycle its index. */
    T
    take(std::uint32_t i)
    {
        T v = std::move(_items[i]);
        _free.push_back(i);
        return v;
    }

  private:
    std::vector<T> _items;
    std::vector<std::uint32_t> _free;
};

/** A FIFO ring that doubles its power-of-two array when full. */
template <class T>
class Ring
{
  public:
    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    T &operator[](std::size_t i) { return _buf[(_head + i) & _mask]; }
    const T &
    operator[](std::size_t i) const
    {
        return _buf[(_head + i) & _mask];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }

    void
    push_back(T v)
    {
        if (_size == _buf.size())
            grow();
        (*this)[_size++] = std::move(v);
    }

    /** Move out the element at @p i, closing the gap behind it. */
    T
    take(std::size_t i)
    {
        T v = std::move((*this)[i]);
        if (i == 0) {
            _head = (_head + 1) & _mask;
        } else {
            for (std::size_t j = i; j + 1 < _size; ++j)
                (*this)[j] = std::move((*this)[j + 1]);
        }
        --_size;
        return v;
    }

    void pop_front() { take(0); }

  private:
    void
    grow()
    {
        std::vector<T> bigger(_buf.empty() ? 8 : 2 * _buf.size());
        for (std::size_t i = 0; i < _size; ++i)
            bigger[i] = std::move((*this)[i]);
        _buf = std::move(bigger);
        _head = 0;
        _mask = _buf.size() - 1;
    }

    std::vector<T> _buf;
    std::size_t _head = 0;
    std::size_t _size = 0;
    std::size_t _mask = 0;
};

} // namespace vip

#endif // VIP_SIM_POOL_HH
