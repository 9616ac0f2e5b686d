#include "e2e.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/rng.hh"

namespace davf::e2e {

namespace {

/** Fisher-Yates shuffle of @p items seeded by @p seed. */
template <typename T>
void
seededShuffle(uint64_t seed, std::vector<T> &items)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    davf_assert(!samples.empty(), "percentile of no samples");
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    const size_t rank = static_cast<size_t>(
        std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
    return samples[rank - 1];
}

Quartiles
quartiles(const std::vector<double> &samples)
{
    return {percentile(samples, 25), percentile(samples, 50),
            percentile(samples, 75)};
}

unsigned
tailPercentile(size_t n)
{
    for (unsigned p : {99u, 95u, 90u, 75u}) {
        // n * (100 - p) / 100 >= 10, in integers.
        if (n * (100 - p) >= 1000)
            return p;
    }
    return 50;
}

std::vector<std::vector<size_t>>
queryMix(uint64_t seed, size_t clients, size_t per_client,
         size_t pool_size, double s)
{
    davf_assert(pool_size > 0 && clients > 0, "empty query mix");
    const size_t total = clients * per_client;
    std::vector<double> weights(pool_size);
    double weight_sum = 0.0;
    for (size_t rank = 0; rank < pool_size; ++rank) {
        weights[rank] = 1.0 / std::pow(static_cast<double>(rank + 1), s);
        weight_sum += weights[rank];
    }
    // Largest remainder: floor every exact share, then hand the queries
    // left over to the largest fractional parts, lower rank first on ties.
    std::vector<size_t> counts(pool_size);
    std::vector<std::pair<double, size_t>> remainders;
    size_t given = 0;
    for (size_t rank = 0; rank < pool_size; ++rank) {
        const double exact =
            static_cast<double>(total) * weights[rank] / weight_sum;
        counts[rank] = static_cast<size_t>(exact);
        given += counts[rank];
        remainders.emplace_back(exact - static_cast<double>(counts[rank]),
                                rank);
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (size_t i = 0; given < total; ++i, ++given)
        ++counts[remainders[i].second];

    std::vector<size_t> order;
    for (size_t rank = 0; rank < pool_size; ++rank)
        order.insert(order.end(), counts[rank], rank);
    seededShuffle(seed, order);

    std::vector<std::vector<size_t>> mix(clients);
    for (size_t i = 0; i < order.size(); ++i)
        mix[i % clients].push_back(order[i]);
    return mix;
}

std::vector<size_t>
poolOrder(uint64_t seed, size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    seededShuffle(seed, order);
    return order;
}

std::vector<double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<double> self;
    self.reserve(spans.size());
    for (const SpanRecord &span : spans) {
        std::vector<std::pair<double, double>> children;
        for (const SpanRecord &child : spans) {
            if (child.parent != span.id || child.id == span.id)
                continue;
            const double lo = std::max(child.startUs, span.startUs);
            const double hi = std::min(child.endUs, span.endUs);
            if (hi > lo)
                children.emplace_back(lo, hi);
        }
        std::sort(children.begin(), children.end());
        double covered = 0.0;
        double run_lo = 0.0;
        double run_hi = -1.0;
        for (const auto &[lo, hi] : children) {
            if (lo > run_hi) {
                if (run_hi > run_lo)
                    covered += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo)
            covered += run_hi - run_lo;
        self.push_back(span.endUs - span.startUs - covered);
    }
    return self;
}

SpanRecorder::SpanRecorder() : origin(std::chrono::steady_clock::now()) {}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

SpanRecorder::Scope::Scope(SpanRecorder &the_recorder, std::string name)
    : recorder(the_recorder), index(recorder.records.size())
{
    SpanRecord record;
    record.name = std::move(name);
    record.id = index + 1;
    record.parent =
        recorder.open.empty() ? 0 : recorder.records[recorder.open.back()].id;
    record.startUs = recorder.nowUs();
    record.endUs = record.startUs;
    recorder.records.push_back(std::move(record));
    recorder.open.push_back(index);
}

SpanRecorder::Scope::~Scope()
{
    recorder.records[index].endUs = recorder.nowUs();
    recorder.open.pop_back();
}

double
SpanRecorder::Scope::elapsedS() const
{
    return (recorder.nowUs() - recorder.records[index].startUs) * 1e-6;
}

std::string
SpanRecorder::chromeJson() const
{
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord &span : records) {
        if (!first)
            os << ',';
        first = false;
        // Span names are the harness's own dotted identifiers; nothing
        // in them needs JSON escaping.
        os << "{\"name\":\"" << span.name
           << "\",\"cat\":\"davf_e2e\",\"ph\":\"X\",\"ts\":"
           << formatNumber(span.startUs)
           << ",\"dur\":" << formatNumber(span.endUs - span.startUs)
           << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << span.id
           << ",\"parent\":" << span.parent << "}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}";
    return os.str();
}

namespace {

constexpr std::array<uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

uint32_t
rotr(uint32_t value, int amount)
{
    return (value >> amount) | (value << (32 - amount));
}

void
sha256Block(std::array<uint32_t, 8> &h, const unsigned char *block)
{
    std::array<uint32_t, 64> w{};
    for (size_t i = 0; i < 16; ++i) {
        w[i] = static_cast<uint32_t>(block[4 * i]) << 24
            | static_cast<uint32_t>(block[4 * i + 1]) << 16
            | static_cast<uint32_t>(block[4 * i + 2]) << 8
            | static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (size_t i = 16; i < 64; ++i) {
        const uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<uint32_t, 8> v = h;
    for (size_t i = 0; i < 64; ++i) {
        const uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
        const uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
        const uint32_t t1 = v[7] + s1 + ch + kSha256K[i] + w[i];
        const uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
        const uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
        const uint32_t t2 = s0 + maj;
        v = {t1 + t2, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (size_t i = 0; i < 8; ++i)
        h[i] += v[i];
}

} // namespace

std::string
sha256Hex(std::string_view data)
{
    std::array<uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};
    const auto *bytes = reinterpret_cast<const unsigned char *>(data.data());
    size_t full = data.size() / 64;
    for (size_t i = 0; i < full; ++i)
        sha256Block(h, bytes + 64 * i);

    // Tail: the remaining bytes, 0x80, zero padding, 64-bit bit length.
    std::array<unsigned char, 128> tail{};
    const size_t rest = data.size() - 64 * full;
    std::copy(bytes + 64 * full, bytes + data.size(), tail.begin());
    tail[rest] = 0x80;
    const size_t tail_len = rest + 1 + 8 <= 64 ? 64 : 128;
    const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
    for (size_t i = 0; i < 8; ++i)
        tail[tail_len - 1 - i] = static_cast<unsigned char>(bits >> (8 * i));
    for (size_t off = 0; off < tail_len; off += 64)
        sha256Block(h, tail.data() + off);

    std::string hex;
    char buf[9];
    for (uint32_t word : h) {
        std::snprintf(buf, sizeof buf, "%08x", word);
        hex += buf;
    }
    return hex;
}

std::string
formatNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    return buf;
}

} // namespace davf::e2e
