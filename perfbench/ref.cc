/**
 * @file
 * perfbench_ref: a fixed workload that measures the host's current speed.
 *
 * The host this benchmark runs on is shared, and its speed drifts by
 * tens of percent within minutes.  run.py runs this program between the
 * measured runs and scales each measured wall time by how fast the host
 * ran this reference around it.  The work resembles a discrete-event
 * simulator's (a binary heap of timed std::function callbacks that read
 * and write a 512 KiB table), and it uses nothing from the simulator,
 * so no change to the simulator can change it.
 *
 *   perfbench_ref <events>
 *
 * Prints the seconds the work took (steady_clock, process start-up
 * excluded) and a checksum.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <vector>

namespace
{

struct Event
{
    std::uint64_t when;
    std::uint64_t seq;
    std::function<void()> cb;
};

struct Later
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t events =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 0;
    if (events == 0) {
        std::fprintf(stderr, "usage: perfbench_ref <events>\n");
        return 1;
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::priority_queue<Event, std::vector<Event>, Later> q;
    std::vector<std::uint64_t> table(1 << 16);
    std::uint64_t x = 88172645463325252ULL, sink = 0, seq = 0;
    for (std::uint64_t i = 0; i < 16; ++i)
        q.push({i, seq++, [&sink] { ++sink; }});
    for (std::uint64_t i = 0; i < events; ++i) {
        Event e = q.top();
        q.pop();
        e.cb();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x & 0xffff] += x;
        q.push({e.when + 1 + x % 64, seq++,
                [&sink, &table, x] { sink += table[(x >> 16) & 0xffff]; }});
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Printing the result keeps the loop from being optimised away.
    std::printf("%.9f %llu\n", secs, static_cast<unsigned long long>(sink));
    return 0;
}
