/**
 * @file
 * Pure helpers of the end-to-end benchmark (bench/e2e): sample
 * statistics, the served query-mix generator, the harness-owned span
 * recorder with its self-time arithmetic, and SHA-256 for the report
 * digests. Everything here is deterministic and process-free, so
 * e2e_selftest covers it directly.
 */

#ifndef DAVF_BENCH_E2E_E2E_HH
#define DAVF_BENCH_E2E_E2E_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace davf::e2e {

/**
 * Nearest-rank percentile: the smallest sample with at least @p p
 * percent of the samples at or below it, so the result is always a
 * measured value. @p samples must be non-empty; @p p lies in [0, 100].
 */
double percentile(std::vector<double> samples, double p);

/** Nearest-rank first quartile, median, and third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

Quartiles quartiles(const std::vector<double> &samples);

/**
 * The tail percentile a timing over @p n samples may report: the
 * highest of 99, 95, 90 and 75 with at least ten samples beyond it,
 * or 50 when even p75 has fewer.
 */
unsigned tailPercentile(size_t n);

/**
 * The closed-loop query sequences of a served mix: for each of
 * @p clients, @p per_client ranks into a pool of @p pool_size specs.
 * Rank r gets its Zipf share 1/(r+1)^s of all queries, apportioned by
 * largest remainder, so every seed sends the same multiset of ranks;
 * @p seed shuffles their order, which is then dealt to the clients in
 * turn. Equal seeds give equal sequences.
 */
std::vector<std::vector<size_t>> queryMix(uint64_t seed, size_t clients,
                                          size_t per_client,
                                          size_t pool_size, double s);

/**
 * A seeded permutation of 0 .. @p n - 1: the order in which a run
 * visits a pool of @p n inputs. Equal seeds give equal orders.
 */
std::vector<size_t> poolOrder(uint64_t seed, size_t n);

/** One recorded span; times are microseconds since the recorder began. */
struct SpanRecord
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span.
    double startUs = 0.0;
    double endUs = 0.0;
};

/**
 * Self time of every span in @p spans (same order): its duration minus
 * the part of its interval that its children's intervals cover. Children
 * may overlap each other; the covered part is their union.
 */
std::vector<double> selfTimes(const std::vector<SpanRecord> &spans);

/**
 * In-memory span recorder for the traced pass. Spans nest by scope: a
 * span opened while another is open becomes its child. Single-threaded
 * by design: the harness records around its own calls into each layer.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Closes its span when destroyed. */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, std::string name);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the span opened. */
        double elapsedS() const;

      private:
        SpanRecorder &recorder;
        size_t index;
    };

    const std::vector<SpanRecord> &spans() const { return records; }

    /** Microseconds since the recorder was constructed. */
    double nowUs() const;

    /** Chrome trace_event JSON of every closed span. */
    std::string chromeJson() const;

  private:
    std::chrono::steady_clock::time_point origin;
    std::vector<SpanRecord> records;
    std::vector<size_t> open; ///< Indices into records, innermost last.
};

/** Lower-case hex SHA-256 of @p data. */
std::string sha256Hex(std::string_view data);

/** @p value with ten significant digits, for JSON and tables. */
std::string formatNumber(double value);

} // namespace davf::e2e

#endif // DAVF_BENCH_E2E_E2E_HH
