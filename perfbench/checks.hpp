/// @file checks.hpp
/// @brief Seeded input generation and result checks for the layer-ladder
/// benchmark. Everything here is independent of the MPI substrate: inputs are
/// produced from the workload seed, and results are checked against closed
/// forms or sequential references computed over the gathered inputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

/// SplitMix64 finaliser: the one hash every generator derives from.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) { return mix64(a ^ mix64(b)); }

/// Per-(rank, iteration) 8-byte payload of the small-collective mix. Kept
/// below 2^48 so the sum over a handful of ranks never wraps.
inline std::uint64_t small_value(std::uint64_t seed, int rank, std::uint64_t iter) {
    return mix64(seed, (iter << 8) | static_cast<std::uint64_t>(rank)) >> 16;
}

/// Closed-form result of the mix's sum-allreduce over `p` ranks.
inline std::uint64_t small_sum(std::uint64_t seed, int p, std::uint64_t iter) {
    std::uint64_t s = 0;
    for (int r = 0; r < p; ++r) s += small_value(seed, r, iter);
    return s;
}

/// Element `j` of rank `rank`'s large payload in iteration `iter`: small
/// integers, so sums of doubles stay exact.
inline double large_value(int rank, std::uint64_t iter, std::size_t j) {
    return static_cast<double>((j * 7 + static_cast<std::size_t>(rank) * 13 + iter) % 1024);
}

/// `n` sort keys of one rank for one input set.
inline std::vector<std::uint64_t> sort_keys(std::uint64_t seed, int set, int rank, std::size_t n) {
    std::vector<std::uint64_t> keys(n);
    std::uint64_t const base = mix64(seed, (static_cast<std::uint64_t>(set) << 16) | rank);
    for (std::size_t i = 0; i < n; ++i) keys[i] = mix64(base + i);
    return keys;
}

/// Order-independent fingerprint of a multiset of keys.
struct Checksum {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t hash_sum = 0;

    void add(std::vector<std::uint64_t> const& keys) {
        count += keys.size();
        for (std::uint64_t const k : keys) {
            sum += k;
            hash_sum += mix64(k);
        }
    }
    friend bool operator==(Checksum const&, Checksum const&) = default;
};

/// A distributed sort result is correct when every block is sorted, the
/// blocks are ordered across ranks, and the multiset is the input's.
inline bool check_sort(std::vector<std::vector<std::uint64_t>> const& blocks,
                       Checksum const& input) {
    Checksum out;
    bool have_prev = false;
    std::uint64_t prev = 0;
    for (auto const& b : blocks) {
        if (!std::is_sorted(b.begin(), b.end())) return false;
        if (!b.empty()) {
            if (have_prev && b.front() < prev) return false;
            prev = b.back();
            have_prev = true;
        }
        out.add(b);
    }
    return out == input;
}

/// Length of the repeat dna_text plants.
inline constexpr std::size_t kPlantedRepeat = 24;

/// Text of `n` >= 4 * kPlantedRepeat characters over {a, c, g, t}, with one
/// substring of the first half copied into the second half. The longest
/// repeat of a random text is about 2 log4(n) characters (17 at n = 2^17) and
/// varies with the seed, and so does the number of prefix-doubling rounds.
/// The planted copy puts the longest common prefix in [24, 31] for any seed,
/// so every seed needs the same number of rounds.
inline std::vector<unsigned char> dna_text(std::uint64_t seed, std::size_t n) {
    static constexpr unsigned char kAlphabet[4] = {'a', 'c', 'g', 't'};
    std::vector<unsigned char> t(n);
    std::uint64_t const base = mix64(seed ^ 0x5a5a5a5aULL);
    for (std::size_t i = 0; i < n; ++i) t[i] = kAlphabet[mix64(base + i) & 3];
    std::size_t const span = n / 2 - kPlantedRepeat;
    std::size_t const src = mix64(base, 1) % span;
    std::size_t const dst = n / 2 + mix64(base, 2) % span;
    std::copy_n(t.begin() + static_cast<std::ptrdiff_t>(src), kPlantedRepeat,
                t.begin() + static_cast<std::ptrdiff_t>(dst));
    return t;
}

/// Suffix array of `text` by comparison sort of suffixes (reference only).
inline std::vector<std::uint64_t> naive_suffix_array(std::vector<unsigned char> const& text) {
    std::vector<std::uint64_t> sa(text.size());
    std::iota(sa.begin(), sa.end(), std::uint64_t{0});
    std::size_t const n = text.size();
    std::sort(sa.begin(), sa.end(), [&](std::uint64_t a, std::uint64_t b) {
        std::size_t const la = n - a;
        std::size_t const lb = n - b;
        int const c = std::memcmp(text.data() + a, text.data() + b, std::min(la, lb));
        return c != 0 ? c < 0 : la < lb;
    });
    return sa;
}

/// Per-rank result blocks (suffix-array blocks, BFS distance blocks),
/// concatenated in rank order, must equal the sequential reference.
template <typename T>
bool check_blocks(std::vector<std::vector<T>> const& blocks, std::vector<T> const& reference) {
    std::size_t pos = 0;
    for (auto const& b : blocks) {
        if (pos + b.size() > reference.size()) return false;
        if (!std::equal(b.begin(), b.end(), reference.begin() + static_cast<std::ptrdiff_t>(pos)))
            return false;
        pos += b.size();
    }
    return pos == reference.size();
}

inline constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();

/// Global adjacency array (CSR) of a gathered graph.
struct GlobalGraph {
    std::vector<std::size_t> xadj{0};
    std::vector<std::uint64_t> adjncy;
    std::size_t n() const { return xadj.size() - 1; }
};

/// Appends one rank's CSR block (vertices in global order) to `g`.
inline void append_block(GlobalGraph& g, std::vector<std::size_t> const& xadj,
                         std::vector<std::uint64_t> const& adjncy) {
    std::size_t const base = g.adjncy.size();
    for (std::size_t i = 1; i < xadj.size(); ++i) g.xadj.push_back(base + xadj[i]);
    g.adjncy.insert(g.adjncy.end(), adjncy.begin(), adjncy.end());
}

/// Sequential BFS distances from `source` (kUnreached where unreachable).
inline std::vector<std::size_t> reference_bfs(GlobalGraph const& g, std::uint64_t source) {
    std::vector<std::size_t> dist(g.n(), kUnreached);
    std::deque<std::uint64_t> queue{source};
    dist[source] = 0;
    while (!queue.empty()) {
        std::uint64_t const u = queue.front();
        queue.pop_front();
        for (std::size_t e = g.xadj[u]; e < g.xadj[u + 1]; ++e) {
            std::uint64_t const v = g.adjncy[e];
            if (dist[v] == kUnreached) {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    return dist;
}

}  // namespace perfbench
