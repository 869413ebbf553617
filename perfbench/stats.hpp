/// @file stats.hpp
/// @brief Order statistics for the layer-ladder benchmark: medians,
/// interpolated percentiles, quartiles with the same "exclusive" rule as
/// Python's `statistics.quantiles`, and the tail rule that reports the highest
/// percentile that still has at least ten samples beyond it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of `v` by linear interpolation between closest
/// ranks (position p/100 * (n-1)). `v` is reordered. Returns 0 for no data.
inline double percentile(std::vector<double>& v, double p) {
    if (v.empty()) return 0.0;
    double const pos = p / 100.0 * static_cast<double>(v.size() - 1);
    auto const lo = static_cast<std::size_t>(std::floor(pos));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
    double const a = v[lo];
    if (lo + 1 >= v.size()) return a;
    double const b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
    return a + (pos - static_cast<double>(lo)) * (b - a);
}

inline double median(std::vector<double> v) { return percentile(v, 50.0); }

/// Quartiles q1, q2, q3 with the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`: the k-th cut point sits at 1-based
/// position k*(n+1)/4, interpolated; needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> v) {
    std::array<double, 3> q{0.0, 0.0, 0.0};
    if (v.size() < 2) {
        if (!v.empty()) q = {v[0], v[0], v[0]};
        return q;
    }
    std::sort(v.begin(), v.end());
    auto const n = static_cast<long>(v.size());
    for (int k = 1; k <= 3; ++k) {
        long const num = k * (n + 1);
        long const j = std::clamp(num / 4, 1L, n - 1);
        double const delta = static_cast<double>(num - 4 * j) / 4.0;
        q[static_cast<std::size_t>(k - 1)] =
            v[static_cast<std::size_t>(j - 1)] +
            delta * (v[static_cast<std::size_t>(j)] - v[static_cast<std::size_t>(j - 1)]);
    }
    return q;
}

/// The percentile ladder the tail rule picks from.
inline constexpr std::array<double, 7> kTailLadder{50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99};

/// Highest percentile of kTailLadder that leaves at least ten of `n` samples
/// beyond it, i.e. n * (1 - p/100) >= 10; 0 when even the median does not.
inline double tail_percentile(std::size_t n) {
    double best = 0.0;
    for (double const p : kTailLadder) {
        // Compare in integer hundredths of a percent to avoid rounding at the
        // boundary (n = 100 must admit p90 exactly).
        auto const beyond_x10000 =
            static_cast<long long>(n) * (10000 - static_cast<long long>(std::llround(p * 100)));
        if (beyond_x10000 >= 10LL * 10000) best = p;
    }
    return best;
}

/// Summary of one timing series: median, p90, the tail percentile chosen by
/// the rule above with its value, and the sample count.
struct Summary {
    double p50 = 0.0;
    double p90 = 0.0;
    double tail_pct = 0.0;
    double tail = 0.0;
    std::size_t n = 0;
};

inline Summary summarize(std::vector<double> v) {
    Summary s;
    s.n = v.size();
    if (v.empty()) return s;
    s.p50 = percentile(v, 50.0);
    s.p90 = percentile(v, 90.0);
    s.tail_pct = tail_percentile(v.size());
    s.tail = s.tail_pct > 0.0 ? percentile(v, s.tail_pct) : s.p50;
    return s;
}

/// Fixed-capacity uniform sample of a stream (Algorithm R). The storage is
/// allocated and written up front, so the benchmark's own resident memory
/// does not grow with the number of calls it times.
class Reservoir {
public:
    Reservoir(std::size_t capacity, std::uint64_t seed) : buf_(capacity, 0.0f), state_(seed | 1) {}

    void add(double x) {
        sum_ += x;
        if (seen_ < buf_.size()) {
            buf_[seen_] = static_cast<float>(x);
        } else {
            // xorshift64: a cheap, deterministic index stream.
            state_ ^= state_ << 13;
            state_ ^= state_ >> 7;
            state_ ^= state_ << 17;
            std::uint64_t const j = state_ % (seen_ + 1);
            if (j < buf_.size()) buf_[j] = static_cast<float>(x);
        }
        ++seen_;
    }
    std::uint64_t seen() const { return seen_; }
    double sum() const { return sum_; }
    /// The retained samples: all of them while fewer than the capacity arrived.
    std::vector<double> values() const {
        std::size_t const n = seen_ < buf_.size() ? static_cast<std::size_t>(seen_) : buf_.size();
        return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n)};
    }

private:
    std::vector<float> buf_;
    std::uint64_t state_;
    std::uint64_t seen_ = 0;
    double sum_ = 0;
};

}  // namespace perfbench
