/**
 * @file
 * Heap-allocation budget of the simulator's hot path.
 *
 * This executable replaces the global operator new with a counting
 * one, so it is built apart from vip_tests.  Each case runs the same
 * configuration twice, for a short and a long simulated time, and
 * divides the extra allocations of the long run by its extra events:
 * start-up, warm-up and end-of-run work cancel out, leaving what the
 * steady-state event loop allocates per event.  The ceilings guard
 * the allocation-free kernel, DRAM and System Agent paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/simulation.hh"
#include "fleet/job_spec.hh"

namespace
{

std::atomic<std::uint64_t> gNews{0};

void *
countedAlloc(std::size_t n)
{
    gNews.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    gNews.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace vip
{
namespace
{

struct LoopCost
{
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
};

/** Allocations and events of one bare run()'s whole event loop. */
LoopCost
runCost(const char *config, const char *workload, double seconds)
{
    SocConfig cfg;
    cfg.system = fleet::configByCliName(config);
    cfg.simSeconds = seconds;
    Simulation sim(cfg, fleet::workloadByName(workload));
    const std::uint64_t before = gNews.load();
    sim.run();
    return {gNews.load() - before,
            sim.system().eventq().servicedEvents()};
}

/** Steady-state allocations per event between two run lengths. */
double
allocsPerEvent(const char *config, const char *workload)
{
    const LoopCost warm = runCost(config, workload, 0.05);
    const LoopCost full = runCost(config, workload, 0.25);
    EXPECT_GT(full.events, warm.events);
    const double allocs =
        static_cast<double>(full.allocs) - static_cast<double>(warm.allocs);
    return allocs / static_cast<double>(full.events - warm.events);
}

TEST(AllocBudget, CounterSeesOperatorNew)
{
    const std::uint64_t before = gNews.load();
    auto *p = new std::uint64_t(7);
    EXPECT_EQ(gNews.load(), before + 1);
    delete p;
}

TEST(AllocBudget, VipW4StaysUnderBudget)
{
    // Frames move IP-to-IP: ip.unit and sa.transfer events.
    EXPECT_LE(allocsPerEvent("vip", "W4"), 0.05);
}

TEST(AllocBudget, BaselineW7StaysUnderBudget)
{
    // Every frame goes through DRAM: dram.burst events.
    EXPECT_LE(allocsPerEvent("baseline", "W7"), 0.1);
}

} // namespace
} // namespace vip
