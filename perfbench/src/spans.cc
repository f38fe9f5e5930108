#include "spans.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
SpanLog::total(const std::string &layer) const
{
    double t = 0.0;
    for (const Span &s : spans) {
        if (s.layer == layer)
            t += s.seconds();
    }
    return t;
}

std::vector<double>
SpanLog::durations(const std::string &layer) const
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (s.layer == layer)
            out.push_back(s.seconds());
    }
    return out;
}

double
SpanLog::sum() const
{
    double t = 0.0;
    for (const Span &s : spans)
        t += s.seconds();
    return t;
}

bool
SpanLog::disjoint() const
{
    std::vector<std::pair<Clock::time_point, Clock::time_point>> order;
    order.reserve(spans.size());
    for (const Span &s : spans)
        order.emplace_back(s.start, s.end);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i].first < order[i - 1].second)
            return false;
    }
    return true;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

} // namespace perfbench
