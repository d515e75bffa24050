/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/pool.hh"

namespace vip
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ServicesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickUsesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTieBeforeInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(1); },
                EventPriority::Default);
    eq.schedule(50, [&] { order.push_back(0); },
                EventPriority::ClockTick);
    eq.schedule(50, [&] { order.push_back(2); },
                EventPriority::Stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [&] {
        EXPECT_THROW(eq.schedule(50, [] {}), SimPanic);
    });
    eq.run();
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(100, [&] { ran = true; });
    eq.deschedule(id);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, DescheduleIsIdempotentAndSafeAfterRun)
{
    EventQueue eq;
    int runs = 0;
    EventId id = eq.schedule(10, [&] { ++runs; });
    eq.run();
    EXPECT_EQ(runs, 1);
    eq.deschedule(id); // already ran: harmless
    eq.deschedule(id);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CancelledEventDoesNotAdvanceTime)
{
    EventQueue eq;
    EventId id = eq.schedule(1000, [] {});
    eq.schedule(2000, [] {});
    eq.deschedule(id);
    eq.serviceOne();
    EXPECT_EQ(eq.curTick(), 2000u);
}

TEST(EventQueue, RunUntilStopsAtLimitAndAdvancesTime)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(100, [&] { ++ran; });
    eq.schedule(300, [&] { ++ran; });
    Tick t = eq.runUntil(200);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(t, 200u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil(400);
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, EventExactlyAtLimitRuns)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(200, [&] { ran = true; });
    eq.runUntil(200);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recur = [&] {
        if (++depth < 100)
            eq.scheduleIn(1, recur);
    };
    eq.schedule(0, recur);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.curTick(), 99u);
    EXPECT_EQ(eq.servicedEvents(), 100u);
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CancelledEntriesDoNotAccumulate)
{
    // Regression: descheduling used to leave a tombstone per
    // cancelled id forever.  Schedule/deschedule 100k events and
    // check memory stays bounded by the peak live population: the
    // slab only grows when every slot is in use.
    EventQueue eq;
    std::vector<EventId> live;
    std::size_t peak = 0;
    for (int i = 0; i < 100'000; ++i) {
        EventId id = eq.schedule(1'000'000 + i, [] {});
        peak = std::max(peak, eq.pending());
        if (i % 10 == 9) {
            live.push_back(id); // keep 10% alive
        } else {
            eq.deschedule(id);
        }
        ASSERT_LE(eq.slabSize(), peak) << "after " << i << " schedules";
    }
    EXPECT_EQ(eq.pending(), live.size());
    EXPECT_EQ(eq.slabSize(), peak);

    // Draining by cancellation alone empties the queue, and the
    // freed slots are reused rather than grown past the peak.
    for (EventId id : live)
        eq.deschedule(id);
    EXPECT_TRUE(eq.empty());
    for (int i = 0; i < 1000; ++i)
        eq.schedule(2'000'000 + i, [] {});
    EXPECT_LE(eq.slabSize(), peak);
}

TEST(EventQueue, CancelledEventsNeverRun)
{
    // Cancelled events interleaved with live ones at nearby ticks:
    // only the live ones run, in order, and time never stops at a
    // cancelled event's tick.
    EventQueue eq;
    std::vector<int> ran;
    std::vector<EventId> doomed;
    for (int i = 0; i < 500; ++i)
        eq.schedule(10'000 + 2 * i, [&ran, i] { ran.push_back(i); });
    for (int i = 0; i < 400; ++i) {
        doomed.push_back(
            eq.schedule(10'001 + 2 * i, [&ran] { ran.push_back(-1); }));
    }
    for (EventId id : doomed)
        eq.deschedule(id);
    eq.run();
    ASSERT_EQ(ran.size(), 500u);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(ran[i], i);
    EXPECT_EQ(eq.curTick(), 10'998u);
    EXPECT_TRUE(eq.empty());
    EXPECT_LE(eq.slabSize(), 900u);
}

TEST(EventQueue, StaleHandleNeverAliasesLiveEvent)
{
    // A serviced or cancelled event's slot is recycled for the next
    // schedule(); its old handle must not reach the newcomer.
    EventQueue eq;
    int runs = 0;
    EventId first = eq.schedule(10, [&] { ++runs; });
    eq.run();
    EventId second = eq.schedule(20, [&] { ++runs; });
    EXPECT_EQ(second.slot, first.slot);
    EXPECT_NE(second, first);
    eq.deschedule(first);
    EXPECT_EQ(eq.pending(), 1u);

    eq.deschedule(second);
    EventId third = eq.schedule(30, [&] { ++runs; });
    eq.deschedule(second);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(eq.curTick(), 30u);
    EXPECT_NE(third, second);
}

TEST(EventQueue, DescheduleReleasesCaptures)
{
    // A cancelled event's closure is destroyed at once, not when its
    // slot is next reused.
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    EventId id = eq.schedule(10, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    eq.deschedule(id);
    EXPECT_EQ(token.use_count(), 1);
    eq.run();
    EXPECT_EQ(*token, 0);
}

TEST(EventQueue, DescheduleFromHeapMiddleKeepsOrder)
{
    // Cancelling entries anywhere in the heap (not just the top)
    // must leave the remaining service order intact.
    EventQueue eq;
    std::vector<std::uint64_t> log;
    std::vector<EventId> ids;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        Tick when = 1 + (i * 7919) % 1024;
        ids.push_back(eq.schedule(when, [&log, when] {
            log.push_back(when);
        }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3)
        eq.deschedule(ids[i]);
    std::vector<AuditViolation> sink;
    AuditContext ctx("eventq", eq.curTick(), /*strict=*/true, sink);
    eq.auditInvariants(ctx);
    eq.run();
    EXPECT_EQ(log.size(), ids.size() - (ids.size() + 2) / 3);
    EXPECT_TRUE(std::is_sorted(log.begin(), log.end()));
}

TEST(EventQueue, AuditInvariantsHoldUnderChurn)
{
    EventQueue eq;
    std::vector<AuditViolation> sink;
    std::vector<EventId> ids;
    for (int i = 0; i < 10'000; ++i)
        ids.push_back(eq.schedule(100 + i, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 3)
        eq.deschedule(ids[i]);
    AuditContext ctx("eventq", eq.curTick(), /*strict=*/true, sink);
    eq.auditInvariants(ctx); // strict: throws on violation
    EXPECT_TRUE(sink.empty());

    StateDigest a, b;
    eq.stateDigest(a);
    eq.stateDigest(b);
    EXPECT_EQ(a.value(), b.value());
}

TEST(EventQueue, DigestReflectsProgress)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    StateDigest before;
    eq.stateDigest(before);
    eq.run();
    StateDigest after;
    eq.stateDigest(after);
    EXPECT_NE(before.value(), after.value());
}

TEST(EventQueue, ManyEventsStressDeterminism)
{
    // Two identical queues fed the same schedule must service events
    // identically (the whole simulator depends on this).
    auto runOnce = [] {
        EventQueue eq;
        std::vector<std::uint64_t> log;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            Tick when = (i * 7919) % 4096;
            eq.schedule(when, [&log, i] { log.push_back(i); });
        }
        eq.run();
        return log;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Callback, OwnsMoveOnlyAndOversizedCaptures)
{
    // A move-only capture lives inline; one larger than the inline
    // buffer goes to the heap.  Both run once and are destroyed with
    // their Callback, wherever it was moved.
    auto token = std::make_shared<int>(0);
    std::array<std::uint64_t, 16> big{};
    big[15] = 5;
    Callback small = [p = std::make_unique<int>(2), token] {
        *token += *p;
    };
    Callback large = [big, token] { *token += int(big[15]); };
    EXPECT_EQ(token.use_count(), 3);
    Callback moved = std::move(large);
    EXPECT_FALSE(large);
    small();
    moved();
    EXPECT_EQ(*token, 7);
    small = Callback();
    moved = Callback();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, EmptyStdFunctionStaysEmpty)
{
    Callback empty = std::function<void()>();
    EXPECT_FALSE(empty);
    int runs = 0;
    Callback full = std::function<void()>([&] { ++runs; });
    ASSERT_TRUE(full);
    full();
    EXPECT_EQ(runs, 1);
}

TEST(Ring, KeepsFifoOrderAcrossGrowthAndMidTake)
{
    Ring<int> r;
    for (int i = 0; i < 5; ++i)
        r.push_back(i);
    EXPECT_EQ(r.take(0), 0); // head advances, then the ring wraps
    for (int i = 5; i < 20; ++i)
        r.push_back(i); // grows past its first 8 slots
    EXPECT_EQ(r.take(3), 4); // out of the middle, as FR-FCFS does
    std::vector<int> rest;
    while (!r.empty())
        rest.push_back(r.take(0));
    std::vector<int> want{1, 2, 3};
    for (int i = 5; i < 20; ++i)
        want.push_back(i);
    EXPECT_EQ(rest, want);
}

TEST(IndexPool, RecyclesIndices)
{
    IndexPool<std::string> pool;
    const std::uint32_t a = pool.put("a");
    const std::uint32_t b = pool.put("b");
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.take(a), "a");
    EXPECT_EQ(pool.put("c"), a);
    EXPECT_EQ(pool[b], "b");
    EXPECT_EQ(pool.take(a), "c");
}

} // namespace
} // namespace vip
