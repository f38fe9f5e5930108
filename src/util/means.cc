#include "util/means.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace fo4::util
{

double
harmonicMean(const std::vector<double> &values)
{
    FO4_ASSERT(!values.empty(), "harmonic mean of empty set");
    double denom = 0.0;
    for (double v : values) {
        FO4_ASSERT(v > 0.0, "harmonic mean requires positive values, got %f",
                   v);
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

double
arithmeticMean(const std::vector<double> &values)
{
    FO4_ASSERT(!values.empty(), "arithmetic mean of empty set");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geometricMean(const std::vector<double> &values)
{
    FO4_ASSERT(!values.empty(), "geometric mean of empty set");
    double log_sum = 0.0;
    for (double v : values) {
        FO4_ASSERT(v > 0.0, "geometric mean requires positive values, got %f",
                   v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
StreamingMoments::add(double x)
{
    if (n == 0) {
        lo = hi = x;
    } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    ++n;
    const double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
}

double
StreamingMoments::mean() const
{
    FO4_ASSERT(n > 0, "mean of an empty stream");
    return mu;
}

double
StreamingMoments::variance() const
{
    return n < 2 ? 0.0 : m2 / static_cast<double>(n - 1);
}

double
StreamingMoments::stddev() const
{
    return std::sqrt(variance());
}

double
StreamingMoments::min() const
{
    FO4_ASSERT(n > 0, "min of an empty stream");
    return lo;
}

double
StreamingMoments::max() const
{
    FO4_ASSERT(n > 0, "max of an empty stream");
    return hi;
}

P2Quantile::P2Quantile(double q) : q(q)
{
    FO4_ASSERT(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got %f", q);
}

void
P2Quantile::add(double x)
{
    // The first five observations are stored directly (heights double
    // as the sample buffer until the markers initialize).
    if (n < 5) {
        heights[n++] = x;
        if (n == 5) {
            std::sort(heights, heights + 5);
            for (int i = 0; i < 5; ++i)
                positions[i] = i + 1;
            desired[0] = 1.0;
            desired[1] = 1.0 + 2.0 * q;
            desired[2] = 1.0 + 4.0 * q;
            desired[3] = 3.0 + 2.0 * q;
            desired[4] = 5.0;
            increment[0] = 0.0;
            increment[1] = q / 2.0;
            increment[2] = q;
            increment[3] = (1.0 + q) / 2.0;
            increment[4] = 1.0;
        }
        return;
    }

    // Locate the cell containing x, extending the extremes if needed.
    int cell;
    if (x < heights[0]) {
        heights[0] = x;
        cell = 0;
    } else if (x >= heights[4]) {
        heights[4] = std::max(heights[4], x);
        cell = 3;
    } else {
        cell = 0;
        while (cell < 3 && x >= heights[cell + 1])
            ++cell;
    }

    for (int i = cell + 1; i < 5; ++i)
        positions[i] += 1.0;
    for (int i = 0; i < 5; ++i)
        desired[i] += increment[i];
    ++n;

    // Nudge the three interior markers toward their desired positions,
    // adjusting heights by the piecewise-parabolic (P^2) prediction, or
    // linearly when the parabola would leave the bracketing heights.
    for (int i = 1; i <= 3; ++i) {
        const double d = desired[i] - positions[i];
        const bool right = d >= 1.0 && positions[i + 1] - positions[i] > 1.0;
        const bool left = d <= -1.0 && positions[i - 1] - positions[i] < -1.0;
        if (!right && !left)
            continue;
        const double s = right ? 1.0 : -1.0;
        const double np = positions[i + 1] - positions[i];
        const double pp = positions[i - 1] - positions[i];
        const double parabolic =
            heights[i] +
            s / (np - pp) *
                ((s - pp) * (heights[i + 1] - heights[i]) / np +
                 (np - s) * (heights[i] - heights[i - 1]) / -pp);
        if (heights[i - 1] < parabolic && parabolic < heights[i + 1]) {
            heights[i] = parabolic;
        } else {
            const int j = right ? i + 1 : i - 1;
            heights[i] += s * (heights[j] - heights[i]) /
                          (positions[j] - positions[i]);
        }
        positions[i] += s;
    }
}

double
P2Quantile::value() const
{
    FO4_ASSERT(n > 0, "quantile of an empty stream");
    if (n >= 5)
        return heights[2];
    // Exact quantile of the few stored samples: the nearest-rank value
    // of a sorted copy.
    // Sort all five slots, unused ones padded with +inf, so the sort
    // has a constant bound: the n stored samples come first.
    double sorted[5];
    std::fill(sorted, sorted + 5, std::numeric_limits<double>::infinity());
    std::copy(heights, heights + n, sorted);
    std::sort(sorted, sorted + 5);
    const double rank = q * static_cast<double>(n - 1);
    auto idx = static_cast<std::uint64_t>(rank + 0.5);
    if (idx >= n)
        idx = n - 1;
    return sorted[idx];
}

} // namespace fo4::util
