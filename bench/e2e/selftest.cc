/**
 * @file
 * e2e_selftest: the benchmark's pure helpers — nearest-rank statistics,
 * the tail-percentile rule, the query-mix and pool-order generators,
 * the span recorder's self-time arithmetic, and SHA-256.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "e2e.hh"
#include "util/json.hh"

namespace davf::e2e {
namespace {

TEST(Percentile, NearestRankReturnsAMeasuredSample)
{
    const std::vector<double> samples = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(samples, 0), 1);
    EXPECT_EQ(percentile(samples, 20), 1);
    EXPECT_EQ(percentile(samples, 21), 2);
    EXPECT_EQ(percentile(samples, 50), 3);
    EXPECT_EQ(percentile(samples, 100), 5);
    // Even count: the median is the lower middle sample, not a mean.
    EXPECT_EQ(percentile({4, 1, 3, 2}, 50), 2);
    EXPECT_EQ(percentile({7}, 95), 7);
}

TEST(Percentile, Quartiles)
{
    std::vector<double> samples;
    for (int i = 1; i <= 8; ++i)
        samples.push_back(i * 10.0);
    const Quartiles q = quartiles(samples);
    EXPECT_EQ(q.q1, 20);
    EXPECT_EQ(q.median, 40);
    EXPECT_EQ(q.q3, 60);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(0), 50u);
    EXPECT_EQ(tailPercentile(39), 50u);
    EXPECT_EQ(tailPercentile(40), 75u);
    EXPECT_EQ(tailPercentile(99), 75u);
    EXPECT_EQ(tailPercentile(100), 90u);
    EXPECT_EQ(tailPercentile(199), 90u);
    EXPECT_EQ(tailPercentile(200), 95u);
    EXPECT_EQ(tailPercentile(999), 95u);
    EXPECT_EQ(tailPercentile(1000), 99u);
    EXPECT_EQ(tailPercentile(1800), 99u);
}

std::vector<size_t>
rankCounts(const std::vector<std::vector<size_t>> &mix, size_t pool_size)
{
    std::vector<size_t> counts(pool_size, 0);
    for (const auto &client : mix) {
        for (size_t rank : client) {
            EXPECT_LT(rank, pool_size);
            if (rank < pool_size)
                ++counts[rank];
        }
    }
    return counts;
}

TEST(QueryMix, DeterministicPerSeed)
{
    const auto a = queryMix(7, 2, 32, 20, 1.1);
    const auto b = queryMix(7, 2, 32, 20, 1.1);
    const auto c = queryMix(8, 2, 32, 20, 1.1);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].size(), 32u);
    EXPECT_EQ(a[1].size(), 32u);
    EXPECT_NE(a[0], a[1]);
    // Another seed reorders the same queries.
    EXPECT_EQ(rankCounts(a, 20), rankCounts(c, 20));
}

TEST(QueryMix, ApportionsZipfSharesByLargestRemainder)
{
    // Four ranks, s = 1: shares 12/25, 6/25, 4/25, 3/25 of 10 queries
    // are 4.8, 2.4, 1.6, 1.2. Floors give 8; the two largest remainders
    // (ranks 0 and 2) take the rest.
    EXPECT_EQ(rankCounts(queryMix(1, 1, 10, 4, 1.0), 4),
              (std::vector<size_t>{5, 2, 2, 1}));

    const std::vector<size_t> counts =
        rankCounts(queryMix(3, 4, 5000, 20, 1.1), 20);
    // Weight 1/(r+1)^1.1 over 20 ranks: rank 0 holds ~31% of queries.
    EXPECT_NEAR(counts[0] / 20000.0, 0.313, 0.001);
    for (size_t rank = 1; rank < counts.size(); ++rank)
        EXPECT_GE(counts[rank - 1], counts[rank]);
}

TEST(PoolOrder, SeededPermutation)
{
    const std::vector<size_t> a = poolOrder(7, 10);
    EXPECT_EQ(a, poolOrder(7, 10));
    EXPECT_NE(a, poolOrder(8, 10));
    std::vector<size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
    EXPECT_EQ(poolOrder(3, 1), std::vector<size_t>{0});
    EXPECT_TRUE(poolOrder(3, 0).empty());
}

SpanRecord
span(uint64_t id, uint64_t parent, double start, double end)
{
    return {"span", id, parent, start, end};
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    const std::vector<SpanRecord> spans = {
        span(1, 0, 0, 100),  // root
        span(2, 1, 10, 30),  // child
        span(3, 1, 20, 50),  // overlapping child: union is [10, 50)
        span(4, 1, 90, 120), // runs past its parent: clipped to [90, 100)
        span(5, 2, 12, 18),  // grandchild: only its parent subtracts it
    };
    const std::vector<double> self = selfTimes(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
    EXPECT_DOUBLE_EQ(self[1], 20 - 6);
    EXPECT_DOUBLE_EQ(self[2], 30);
    EXPECT_DOUBLE_EQ(self[3], 30);
    EXPECT_DOUBLE_EQ(self[4], 6);
}

TEST(SpanRecorder, NestsByScopeAndExportsValidJson)
{
    SpanRecorder recorder;
    {
        SpanRecorder::Scope outer(recorder, "outer");
        SpanRecorder::Scope inner(recorder, "inner");
    }
    SpanRecorder::Scope next(recorder, "next");
    const auto &spans = recorder.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[2].parent, 0u);
    EXPECT_LE(spans[0].startUs, spans[1].startUs);
    EXPECT_LE(spans[1].endUs, spans[0].endUs);
    EXPECT_TRUE(jsonValidate(recorder.chromeJson()).valid);
}

TEST(Sha256, KnownVectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    // 56 bytes: the length no longer fits the first padding block.
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(sha256Hex(std::string(1000, 'a')),
              "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

TEST(FormatNumber, KeepsTenSignificantDigits)
{
    EXPECT_EQ(formatNumber(1.25), "1.25");
    EXPECT_EQ(formatNumber(0.000123456789), "0.000123456789");
    EXPECT_EQ(formatNumber(12345.678901234), "12345.6789");
}

} // namespace
} // namespace davf::e2e
