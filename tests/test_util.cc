/**
 * @file
 * Unit tests for src/util: bit helpers, BitVector, Rng, stats, and the
 * thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/util/bits.hh"
#include "src/util/bitvector.hh"
#include "src/util/error.hh"
#include "src/util/hash.hh"
#include "src/util/parse.hh"
#include "src/util/rng.hh"
#include "src/util/stats.hh"
#include "src/util/thread_pool.hh"

namespace davf {
namespace {

TEST(Bits, Extract)
{
    EXPECT_EQ(bits(0xdeadbeef, 31, 28), 0xdu);
    EXPECT_EQ(bits(0xdeadbeef, 7, 0), 0xefu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 0), 0xdeadbeefu);
    EXPECT_EQ(bit(0x80000000, 31), 1u);
    EXPECT_EQ(bit(0x80000000, 30), 0u);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0xfff, 12), -1);
    EXPECT_EQ(signExtend(0x7ff, 12), 2047);
    EXPECT_EQ(signExtend(0x800, 12), -2048);
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(42, 8), 42);
}

TEST(Bits, Parity)
{
    EXPECT_EQ(parity32(0), 0u);
    EXPECT_EQ(parity32(1), 1u);
    EXPECT_EQ(parity32(0b1011), 1u);
    EXPECT_EQ(parity32(0xffffffff), 0u);
}

TEST(Bits, Clog2)
{
    EXPECT_EQ(clog2(1), 0u);
    EXPECT_EQ(clog2(2), 1u);
    EXPECT_EQ(clog2(3), 2u);
    EXPECT_EQ(clog2(32), 5u);
    EXPECT_EQ(clog2(33), 6u);
}

TEST(Bits, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(96));
}

TEST(Hash, Fnv1a64KnownAnswers)
{
    // These hashes name on-disk data (store keys and record sums,
    // workspace fingerprints, quarantine files, config hashes): the
    // published FNV-1a-64 test vectors pin them.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
    EXPECT_EQ(fnv1a64Hex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(fnv1a64Extend(fnv1a64("foo"), "bar"), fnv1a64("foobar"));
}

TEST(BitVector, SetGetFlip)
{
    BitVector bv(130);
    EXPECT_EQ(bv.size(), 130u);
    EXPECT_TRUE(bv.none());
    bv.set(0, true);
    bv.set(64, true);
    bv.set(129, true);
    EXPECT_TRUE(bv.get(0));
    EXPECT_TRUE(bv.get(64));
    EXPECT_TRUE(bv.get(129));
    EXPECT_FALSE(bv.get(1));
    EXPECT_EQ(bv.popcount(), 3u);
    bv.flip(64);
    EXPECT_FALSE(bv.get(64));
    EXPECT_EQ(bv.popcount(), 2u);
}

TEST(BitVector, FillAndTailMasking)
{
    BitVector bv(70, true);
    EXPECT_EQ(bv.popcount(), 70u);
    bv.fill(false);
    EXPECT_TRUE(bv.none());
    bv.fill(true);
    EXPECT_EQ(bv.popcount(), 70u);
}

TEST(BitVector, ResizeGrowWithValue)
{
    BitVector bv(10, false);
    bv.resize(20, true);
    EXPECT_EQ(bv.popcount(), 10u);
    for (size_t i = 10; i < 20; ++i)
        EXPECT_TRUE(bv.get(i));
}

TEST(BitVector, BitwiseOps)
{
    BitVector a(100);
    BitVector b(100);
    a.set(3, true);
    a.set(70, true);
    b.set(70, true);
    b.set(99, true);

    BitVector x = a;
    x ^= b;
    EXPECT_TRUE(x.get(3));
    EXPECT_FALSE(x.get(70));
    EXPECT_TRUE(x.get(99));

    BitVector o = a;
    o |= b;
    EXPECT_EQ(o.popcount(), 3u);

    BitVector n = a;
    n &= b;
    EXPECT_EQ(n.popcount(), 1u);
    EXPECT_TRUE(n.get(70));
}

TEST(BitVector, SetBitsEnumeration)
{
    BitVector bv(200);
    const std::vector<size_t> want = {0, 63, 64, 127, 128, 199};
    for (size_t i : want)
        bv.set(i, true);
    EXPECT_EQ(bv.setBits(), want);
}

TEST(BitVector, Equality)
{
    BitVector a(50);
    BitVector b(50);
    EXPECT_EQ(a, b);
    a.set(20, true);
    EXPECT_NE(a, b);
    b.set(20, true);
    EXPECT_EQ(a, b);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t value = rng.below(10);
        EXPECT_LT(value, 10u);
        seen.insert(value);
    }
    EXPECT_EQ(seen.size(), 10u); // All buckets hit.
}

TEST(Rng, UniformRange)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    // Zero entries are floored, not fatal.
    EXPECT_GT(geomean({0.0, 1.0}), 0.0);
    EXPECT_DOUBLE_EQ(maxOf({1.0, 5.0, 2.0}), 5.0);
}

TEST(Stats, Histogram)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.count(), 10u);
    for (size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(h.bins()[i], 1u);
        EXPECT_NEAR(h.fraction(i), 0.1, 1e-12);
    }
    // Clamping at the edges.
    h.add(-5.0);
    h.add(50.0);
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[9], 2u);
    EXPECT_FALSE(h.render("label").empty());
}

TEST(Stats, HistogramNonFiniteAndHugeSamples)
{
    // Regression: the bin index used to be computed by casting an
    // unclamped double to size_t — UB for NaN and for values far
    // outside the range. Now the clamp happens in the double domain
    // and NaN is routed to a dedicated invalid count.
    Histogram h(0.0, 10.0, 10);
    h.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.invalidCount(), 1u);

    h.add(std::numeric_limits<double>::infinity());
    h.add(-std::numeric_limits<double>::infinity());
    h.add(1e300);
    h.add(-1e300);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.invalidCount(), 1u);
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[9], 2u);
}

TEST(Stats, MaxOfAllNegativeInputs)
{
    // Regression: maxOf folded from 0.0, so any all-negative input
    // reported a spurious maximum of zero.
    EXPECT_DOUBLE_EQ(maxOf({-3.0, -1.0, -2.0}), -1.0);
    EXPECT_DOUBLE_EQ(maxOf({-7.5}), -7.5);
    EXPECT_DOUBLE_EQ(maxOf({}), 0.0);
    EXPECT_DOUBLE_EQ(maxOf({-1.0, 0.0, -2.0}), 0.0);
}

TEST(ThreadPool, CoversAllIndices)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleThreadFallback)
{
    std::vector<int> hits(100, 0);
    parallelFor(100, [&](size_t i) { hits[i] += 1; }, 1);
    for (int hit : hits)
        EXPECT_EQ(hit, 1);
}

TEST(ThreadPool, EmptyRange)
{
    bool ran = false;
    parallelFor(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, RethrowsWorkerException)
{
    // A worker exception must surface on the calling thread, not
    // std::terminate the process.
    EXPECT_THROW(
        parallelFor(64,
                    [&](size_t i) {
                        if (i == 13)
                            throw std::runtime_error("boom");
                    },
                    4),
        std::runtime_error);
}

TEST(ThreadPool, RethrowsFirstExceptionAndStopsScheduling)
{
    // Every scheduled index either runs or is skipped after the
    // failure; none runs twice, and exactly one exception escapes.
    std::vector<std::atomic<int>> hits(5000);
    bool caught = false;
    try {
        parallelFor(5000, [&](size_t i) {
            hits[i].fetch_add(1);
            if (i == 100)
                throw std::runtime_error("first failure");
        });
    } catch (const std::runtime_error &error) {
        caught = true;
        EXPECT_STREQ(error.what(), "first failure");
    }
    EXPECT_TRUE(caught);
    for (const auto &hit : hits)
        EXPECT_LE(hit.load(), 1);
}

TEST(ThreadPool, FirstIndexThrowsWhileLaterWorkIsQueued)
{
    // Index 0 is the first index handed out, so its exception is the
    // chronologically first failure; it must be the one rethrown, and
    // scheduling must stop long before the queue drains — the workers
    // still in flight only finish their current body.
    const size_t count = 100000;
    std::atomic<size_t> executed{0};
    bool caught = false;
    try {
        parallelFor(count,
                    [&](size_t i) {
                        executed.fetch_add(1);
                        if (i == 0)
                            throw std::runtime_error("index zero");
                        // Keep later bodies slow enough that the
                        // failure flag is observed mid-queue.
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(50));
                    },
                    4);
    } catch (const std::runtime_error &error) {
        caught = true;
        EXPECT_STREQ(error.what(), "index zero");
    }
    EXPECT_TRUE(caught);
    EXPECT_GE(executed.load(), 1u);
    EXPECT_LT(executed.load(), count / 2)
        << "scheduling did not stop after the first failure";
}

TEST(ThreadPool, RethrowsOnSingleThread)
{
    std::vector<int> hits(100, 0);
    EXPECT_THROW(parallelFor(100,
                             [&](size_t i) {
                                 hits[i] += 1;
                                 if (i == 10)
                                     throw std::runtime_error("stop");
                             },
                             1),
                 std::runtime_error);
    // The single-thread path runs in order and stops at the throw.
    EXPECT_EQ(hits[10], 1);
    EXPECT_EQ(hits[11], 0);
}

TEST(Parse, U64StrictAcceptsPlainDecimal)
{
    EXPECT_EQ(parseU64Strict("0", "--n"), 0u);
    EXPECT_EQ(parseU64Strict("42", "--n"), 42u);
    EXPECT_EQ(parseU64Strict("18446744073709551615", "--n"),
              std::numeric_limits<uint64_t>::max());
}

TEST(Parse, U64StrictRejectsGarbageAndOverflow)
{
    // The libc behaviors these guard against: strtoull("4x") returns 4,
    // and an over-wide literal saturates to ULLONG_MAX — both silently.
    EXPECT_THROW(parseU64Strict("4x", "--workers"), DavfError);
    EXPECT_THROW(parseU64Strict("", "--workers"), DavfError);
    EXPECT_THROW(parseU64Strict(" 4", "--workers"), DavfError);
    EXPECT_THROW(parseU64Strict("-1", "--workers"), DavfError);
    EXPECT_THROW(parseU64Strict("+4", "--workers"), DavfError);
    EXPECT_THROW(parseU64Strict("0x10", "--workers"), DavfError);
    EXPECT_THROW(parseU64Strict("99999999999999999999", "--workers"),
                 DavfError);
    EXPECT_THROW(parseU64Strict("18446744073709551616", "--workers"),
                 DavfError);
    try {
        parseU64Strict("4x", "--workers");
        FAIL() << "expected a throw";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::BadArgument);
        EXPECT_NE(std::string(error.what()).find("--workers"),
                  std::string::npos);
    }
}

TEST(Parse, U64InRange)
{
    EXPECT_EQ(parseU64InRange("8", "--lanes", 2, 64), 8u);
    EXPECT_THROW(parseU64InRange("1", "--lanes", 2, 64), DavfError);
    EXPECT_THROW(parseU64InRange("65", "--lanes", 2, 64), DavfError);
}

TEST(Parse, DoubleStrict)
{
    EXPECT_DOUBLE_EQ(parseDoubleStrict("0.5", "--d"), 0.5);
    EXPECT_DOUBLE_EQ(parseDoubleStrict("-1e3", "--d"), -1000.0);
    // Whole-token and finiteness rules.
    EXPECT_THROW(parseDoubleStrict("0.5x", "--d"), DavfError);
    EXPECT_THROW(parseDoubleStrict("", "--d"), DavfError);
    EXPECT_THROW(parseDoubleStrict("nan", "--d"), DavfError);
    EXPECT_THROW(parseDoubleStrict("inf", "--d"), DavfError);
    EXPECT_THROW(parseDoubleStrict("1e99999", "--d"), DavfError);
    // A very wide integer literal is fine as a double (it rounds); the
    // u64 parser is the one that must reject it.
    EXPECT_DOUBLE_EQ(parseDoubleStrict("99999999999999999999", "--d"),
                     1e20);
}

TEST(Parse, PositiveHexDouble)
{
    // The form a clock period travels in: hexDouble() output of a
    // positive, finite value round-trips bit for bit; nothing else
    // parses.
    for (double value : {1.5, 1155.7, 0.1 * 3.0, 5e-324, 1.7e308}) {
        double parsed = 0.0;
        ASSERT_TRUE(textToPositiveHexDouble(hexDouble(value), parsed))
            << hexDouble(value);
        EXPECT_EQ(std::bit_cast<uint64_t>(parsed),
                  std::bit_cast<uint64_t>(value));
    }
    for (const char *bad :
         {"", "1.5", "1e3", "0x", "0x0p+0", "-0x1p+0", "+0x1p+0",
          " 0x1p+0", "0x1p+0 ", "0x1p+0x", "0x1p+99999", "inf", "nan",
          "0xinf"}) {
        double parsed = 0.0;
        EXPECT_FALSE(textToPositiveHexDouble(bad, parsed))
            << '"' << bad << '"';
    }
}

} // namespace
} // namespace davf
