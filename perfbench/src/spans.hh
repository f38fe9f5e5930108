/**
 * @file
 * In-memory span log for the benchmark's traced run.  Every span is one
 * call into a layer's public API, bracketed from the outside with
 * std::chrono::steady_clock; nothing inside the library is instrumented.
 * Spans are top-level and sequential, so a layer's time is the sum of its
 * spans, and the traced wall time minus every span is the residual the
 * benchmark reports as `study.other_s`.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
double seconds(Clock::time_point from, Clock::time_point to);

struct Span
{
    std::string layer;
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const { return perfbench::seconds(start, end); }
};

class SpanLog
{
  public:
    /** Run `fn`, record it as one span of `layer`, return its result. */
    template <typename Fn>
    decltype(auto)
    time(const std::string &layer, Fn &&fn)
    {
        const Clock::time_point start = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            spans.push_back({layer, start, Clock::now()});
        } else {
            decltype(auto) result = fn();
            spans.push_back({layer, start, Clock::now()});
            return result;
        }
    }

    /** Record a span whose instants the caller took. */
    void
    add(const std::string &layer, Clock::time_point start,
        Clock::time_point end)
    {
        spans.push_back({layer, start, end});
    }

    /** Total seconds of every span of `layer`. */
    double total(const std::string &layer) const;

    /** Durations of `layer`'s spans in seconds, in record order. */
    std::vector<double> durations(const std::string &layer) const;

    /** Total seconds of every span. */
    double sum() const;

    /** No two spans overlap in time (the partition's precondition). */
    bool disjoint() const;

    std::size_t size() const { return spans.size(); }

  private:
    std::vector<Span> spans;
};

/** Linear-interpolated quantile (q in [0, 1]) of `values`; 0 if empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
