/// @file selftest.cpp
/// @brief Self-tests of the benchmark's own statistics and result checks:
/// medians and quartiles on hand-computed samples, the "ten samples beyond
/// the percentile" rule, the sample reservoir, and deliberately corrupted
/// results being rejected.
/// Runs every expectation and exits non-zero if any failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool cond, char const* what) {
    if (!cond) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++g_failures;
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_order_statistics() {
    using namespace perfbench;
    expect(near(median({3, 1, 2}), 2), "median of odd count");
    expect(near(median({4, 1, 3, 2}), 2.5), "median of even count interpolates");
    expect(near(median({7}), 7), "median of one sample");
    expect(near(median({}), 0), "median of nothing is 0");
    std::vector<double> ten{10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expect(near(percentile(ten, 90), 9.1), "p90 of 1..10 is 9.1 by linear interpolation");
    expect(near(percentile(ten, 0), 1) && near(percentile(ten, 100), 10), "p0/p100 are min/max");

    // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25), "quartiles of 1..10");
    // Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    q = quartiles({16, 1, 8, 2, 4});
    expect(near(q[0], 1.5) && near(q[1], 4.0) && near(q[2], 12.0), "quartiles of 1,2,4,8,16");
    // Python: statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0] (extrapolates)
    q = quartiles({9, 5});
    expect(near(q[0], 4.0) && near(q[1], 7.0) && near(q[2], 10.0), "quartiles of two samples");
}

void test_tail_rule() {
    using perfbench::tail_percentile;
    expect(tail_percentile(9) == 0.0, "9 samples: no percentile leaves ten beyond");
    expect(tail_percentile(20) == 50.0, "20 samples: p50 leaves exactly ten beyond");
    expect(tail_percentile(39) == 50.0, "39 samples: p75 would leave 9.75");
    expect(tail_percentile(40) == 75.0, "40 samples: p75 leaves ten beyond");
    expect(tail_percentile(99) == 75.0, "99 samples: p90 would leave 9.9");
    expect(tail_percentile(100) == 90.0, "100 samples: p90 leaves ten beyond");
    expect(tail_percentile(1000) == 99.0, "1000 samples: p99");
    expect(tail_percentile(99999) == 99.9, "99999 samples: p99.99 would leave 9.9999");
    expect(tail_percentile(100000) == 99.99, "100000 samples: p99.99");
    auto const s = perfbench::summarize(std::vector<double>(100, 1.0));
    expect(s.n == 100 && s.tail_pct == 90.0 && near(s.tail, 1.0), "summary carries the tail rule");
}

void test_reservoir() {
    perfbench::Reservoir r(10, 7);
    for (int i = 1; i <= 5; ++i) r.add(i);
    expect((r.values() == std::vector<double>{1, 2, 3, 4, 5}), "reservoir keeps everything below capacity");
    for (int i = 6; i <= 1000; ++i) r.add(i);
    auto const v = r.values();
    bool in_range = true;
    for (double const x : v) in_range = in_range && x >= 1 && x <= 1000;
    expect(v.size() == 10 && r.seen() == 1000 && in_range, "reservoir stays at capacity");
    expect(near(r.sum(), 500500), "reservoir sums every sample, kept or not");
}

void test_checks_reject_corruption() {
    using namespace perfbench;
    // Sort: two sorted blocks; corruptions that keep each block sorted must
    // still be caught by the cross-block order and the checksum.
    std::vector<std::vector<std::uint64_t>> blocks{{1, 3, 5}, {7, 9}};
    Checksum in;
    in.add({9, 1, 7, 5, 3});
    expect(check_sort(blocks, in), "correct sort passes");
    auto bad = blocks;
    bad[1][0] = 4;  // breaks the order across blocks
    expect(!check_sort(bad, in), "cross-block order violation fails");
    bad = blocks;
    bad[0][1] = 4;  // still sorted, but a different multiset
    expect(!check_sort(bad, in), "changed element fails the checksum");
    bad = blocks;
    bad[1].pop_back();  // lost element
    expect(!check_sort(bad, in), "lost element fails");
    bad = blocks;
    std::swap(bad[0][0], bad[0][1]);
    expect(!check_sort(bad, in), "unsorted block fails");

    // Suffix array of a short text over the benchmark's alphabet.
    std::vector<unsigned char> text{'g', 'a', 't', 'a', 't', 'a'};
    auto const sa = naive_suffix_array(text);
    expect((sa == std::vector<std::uint64_t>{5, 3, 1, 0, 4, 2}), "naive suffix array of gatata");
    std::vector<std::vector<std::uint64_t>> sa_blocks{{5, 3, 1}, {0, 4, 2}};
    expect(check_blocks(sa_blocks, sa), "correct SA blocks pass");
    std::swap(sa_blocks[0][2], sa_blocks[1][0]);
    expect(!check_blocks(sa_blocks, sa), "swapped SA entries fail");
    expect(!check_blocks(std::vector<std::vector<std::uint64_t>>{{5, 3, 1}}, sa), "short SA fails");

    // BFS on a path 0-1-2-3 plus an isolated vertex 4.
    GlobalGraph g;
    append_block(g, {0, 1, 3}, {1, 0, 2});
    append_block(g, {0, 2, 3, 3}, {1, 3, 2});
    auto const dist = reference_bfs(g, 0);
    expect((dist == std::vector<std::size_t>{0, 1, 2, 3, kUnreached}), "reference BFS distances");
    std::vector<std::vector<std::size_t>> d_blocks{{0, 1}, {2, 3, kUnreached}};
    expect(check_blocks(d_blocks, dist), "correct BFS blocks pass");
    d_blocks[1][1] = 2;
    expect(!check_blocks(d_blocks, dist), "wrong BFS distance fails");

    // Closed-form collective results.
    std::uint64_t const sum = small_sum(42, 4, 7);
    std::uint64_t manual = 0;
    for (int r = 0; r < 4; ++r) manual += small_value(42, r, 7);
    expect(sum == manual, "closed-form allreduce sum");
    expect(small_value(42, 0, 7) != small_value(42, 0, 8), "payload changes per iteration");
    expect(small_value(42, 0, 7) != small_value(43, 0, 7), "payload changes with the seed");
    expect(sort_keys(5, 0, 1, 4) == sort_keys(5, 0, 1, 4) && sort_keys(5, 0, 1, 4) != sort_keys(6, 0, 1, 4),
           "sort keys are a function of the seed");

    // The planted repeat fixes the longest common prefix of a text to
    // [kPlantedRepeat, 31] whatever the seed.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto const t = dna_text(seed, 4096);
        auto const order = naive_suffix_array(t);
        std::size_t max_lcp = 0;
        for (std::size_t i = 1; i < order.size(); ++i) {
            std::size_t l = 0;
            while (order[i] + l < t.size() && order[i - 1] + l < t.size() &&
                   t[order[i] + l] == t[order[i - 1] + l])
                ++l;
            max_lcp = std::max(max_lcp, l);
        }
        expect(max_lcp >= kPlantedRepeat && max_lcp < 32, "planted repeat bounds the longest repeat");
    }
}

}  // namespace

int main() {
    test_order_statistics();
    test_tail_rule();
    test_reservoir();
    test_checks_reject_corruption();
    if (g_failures == 0) std::printf("selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
