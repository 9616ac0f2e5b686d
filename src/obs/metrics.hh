/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and value
 * histograms with lock-free hot paths (docs/OBSERVABILITY.md).
 *
 * Design constraints, in priority order:
 *
 *  1. **Never perturb results.** Collection only ever writes to metric
 *     storage — reports, CSVs, and store records are byte-identical
 *     with metrics on or off. The engine guards any bookkeeping that
 *     allocates behind MetricsRegistry::enabled().
 *  2. **Compiled-in but cheap.** Collection is disabled by default; a
 *     disabled Counter::add() is one relaxed atomic load. Enabled
 *     counters add with a relaxed fetch_add on a per-thread cache-line
 *     stripe, so hot loops never contend on a shared line and never
 *     take a lock.
 *  3. **Deterministic snapshots.** A snapshot's *content* (which metrics
 *     exist, and every count not derived from a clock) is identical
 *     across thread counts and across the scalar and vector engines.
 *     Only metrics whose name ends in `_ns` or `_ms` carry wall-time and
 *     are exempt (docs/OBSERVABILITY.md).
 *
 * Registration (name -> state) takes a mutex but happens once per metric
 * per process: call sites keep a static Counter/Gauge/ValueHistogram
 * handle and pay only the stripe add afterwards.
 */

#ifndef DAVF_OBS_METRICS_HH
#define DAVF_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace davf::obs {

/** Number of cache-line stripes each counter spreads its adds over. */
constexpr size_t kStripes = 16;

/** Number of power-of-two buckets in a ValueHistogram (bit widths 0..64). */
constexpr size_t kHistBuckets = 65;

namespace detail {

/** One cache line holding one stripe's partial sum. */
struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
};

/** Index of the calling thread's stripe (stable for the thread's life). */
size_t threadStripe();

/** Striped monotonic sum. Stable address for the process lifetime. */
struct CounterState {
    std::array<Stripe, kStripes> stripes;

    void
    add(uint64_t delta)
    {
        stripes[threadStripe()].value.fetch_add(delta,
                                                std::memory_order_relaxed);
    }

    uint64_t total() const;
    void reset();
};

/** Last-writer-wins signed value. */
struct GaugeState {
    std::atomic<int64_t> value{0};
};

/** Power-of-two-bucket histogram of uint64 samples. */
struct HistogramState {
    std::array<std::atomic<uint64_t>, kHistBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};

    void observe(uint64_t sample);
    void reset();
};

} // namespace detail

/** Point-in-time copy of one histogram's buckets. */
struct HistogramSnapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kHistBuckets> buckets{};
};

/**
 * Point-in-time copy of the whole registry, keyed by metric name.
 * std::map keeps iteration (and thus serialisation) order deterministic.
 */
struct MetricsSnapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /**
     * Serialise as a JSON object (schema `davf-metrics v1`). Histogram
     * buckets are emitted sparsely as [lo, hi, count) triples; non-finite
     * values cannot occur (everything is integral).
     */
    std::string toJson() const;
};

/** The process-wide registry. See the file comment for the contract. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Whether collection is on. One relaxed load; safe in hot loops. */
    static bool
    enabled()
    {
        return collecting.load(std::memory_order_relaxed);
    }

    /** Turn collection on or off process-wide. */
    static void setEnabled(bool on);

    /** Register (or look up) a metric by name. The pointer never moves. */
    detail::CounterState *counter(std::string_view name);
    detail::GaugeState *gauge(std::string_view name);
    detail::HistogramState *histogram(std::string_view name);

    /** Copy every registered metric's current value. */
    MetricsSnapshot snapshot() const;

    /**
     * Zero every registered value (registrations survive). Test support:
     * callers must guarantee no concurrent collection.
     */
    void reset();

  private:
    MetricsRegistry() = default;

    static std::atomic<bool> collecting;

    struct Impl;
    Impl &impl() const;
};

/**
 * A named counter handle. Construct once (typically as a function-local
 * static) and call add() from any thread.
 */
class Counter
{
  public:
    explicit Counter(std::string_view name)
        : state(MetricsRegistry::instance().counter(name))
    {}

    void
    add(uint64_t delta = 1) const
    {
        if (MetricsRegistry::enabled())
            state->add(delta);
    }

  private:
    detail::CounterState *state;
};

/** A named gauge handle (last-writer-wins signed value). */
class Gauge
{
  public:
    explicit Gauge(std::string_view name)
        : state(MetricsRegistry::instance().gauge(name))
    {}

    void
    set(int64_t value) const
    {
        if (MetricsRegistry::enabled())
            state->value.store(value, std::memory_order_relaxed);
    }

    void
    add(int64_t delta) const
    {
        if (MetricsRegistry::enabled())
            state->value.fetch_add(delta, std::memory_order_relaxed);
    }

  private:
    detail::GaugeState *state;
};

/** A named histogram handle over uint64 samples (power-of-two buckets). */
class ValueHistogram
{
  public:
    explicit ValueHistogram(std::string_view name)
        : state(MetricsRegistry::instance().histogram(name))
    {}

    void
    observe(uint64_t sample) const
    {
        if (MetricsRegistry::enabled())
            state->observe(sample);
    }

  private:
    detail::HistogramState *state;
};

/**
 * RAII phase timer: accumulates the scope's wall time (in nanoseconds)
 * into @p counter on destruction. The counter's name must end in `_ns`
 * so snapshot-determinism checks know to skip it. Costs one relaxed
 * load when collection is disabled.
 */
class ScopedTimeNs
{
  public:
    explicit ScopedTimeNs(const Counter &counter)
        : counter(counter), active(MetricsRegistry::enabled()),
          start_ns(active ? nowNs() : 0)
    {}

    ~ScopedTimeNs()
    {
        if (active)
            counter.add(nowNs() - start_ns);
    }

    ScopedTimeNs(const ScopedTimeNs &) = delete;
    ScopedTimeNs &operator=(const ScopedTimeNs &) = delete;

    /** Monotonic nanoseconds since an arbitrary process-stable origin. */
    static uint64_t nowNs();

  private:
    const Counter &counter;
    bool active;
    uint64_t start_ns;
};

} // namespace davf::obs

#endif // DAVF_OBS_METRICS_HH
