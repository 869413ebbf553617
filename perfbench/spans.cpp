/// @file spans.cpp
/// @brief Traced-build implementation of spans.hpp, including the
/// `-finstrument-functions` hooks that open KaMPIng spans.
#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

extern "C" {
void __cyg_profile_func_enter(void*, void*);
void __cyg_profile_func_exit(void*, void*);
}

namespace perfbench::trace {
namespace {

enum Kind : std::uint8_t { kOp, kKamping, kMpi };
constexpr char const* kKindNames[] = {"op", "kamping", "mpi"};
constexpr std::size_t kSpanCap = 50000;

struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    char const* name;
    std::int32_t parent;
    std::int32_t rank;
    Kind kind;
};

struct Frame {
    std::int64_t start_ns;
    double child_ns;
    char const* name;
    std::int32_t span;
    Kind kind;
};

/// OpTotals while recording: keyed by the names' addresses, so the
/// bookkeeping after a span's end stays cheap (it lands in the parent span).
struct LaneTotals {
    double op_ns = 0;
    double kamping_ns = 0;
    double kamping_self_ns = 0;
    double mpi_ns = 0;
    std::uint64_t ops = 0;
    std::uint64_t nested_hooks = 0;
    std::unordered_map<char const*, std::uint64_t> mpi_calls;
};

struct Lane {
    int rank = -1;
    bool active = false;
    int kamping_depth = 0;
    int mpi_depth = 0;
    bool kamping_open = false;
    bool mpi_open = false;
    std::uint64_t nested_hooks = 0;  // since the current op opened
    std::vector<Frame> stack;
    std::vector<Span> spans;
    std::unordered_map<char const*, LaneTotals> totals;  // by op name ("" outside any op)
    LaneTotals* cur = &totals[""];                         // totals of the open op
};

struct Registry {
    std::mutex mu;
    std::vector<std::unique_ptr<Lane>> lanes;  // guarded by mu
    std::vector<Span> retired;                 // guarded by mu
};

__attribute__((no_instrument_function)) Registry& registry() {
    static Registry r;
    return r;
}

thread_local Lane* tl_lane = nullptr;

__attribute__((no_instrument_function)) Lane& lane() {
    if (tl_lane == nullptr) {
        auto owned = std::make_unique<Lane>();
        tl_lane = owned.get();
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.lanes.push_back(std::move(owned));
    }
    return *tl_lane;
}

__attribute__((no_instrument_function)) std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

__attribute__((no_instrument_function)) void open(Lane& l, Kind kind, char const* name) {
    std::int32_t const parent = l.stack.empty() ? -1 : l.stack.back().span;
    std::int32_t index = -1;
    std::int64_t const t = now_ns();
    if (l.spans.size() < kSpanCap) {  // beyond the cap, spans only feed the totals
        index = static_cast<std::int32_t>(l.spans.size());
        l.spans.push_back({t, 0, name, parent, l.rank, kind});
    }
    l.stack.push_back({t, 0.0, name, index, kind});
}

__attribute__((no_instrument_function)) void close(Lane& l) {
    if (l.stack.empty()) return;
    std::int64_t const end = now_ns();
    Frame const f = l.stack.back();
    l.stack.pop_back();
    if (f.span >= 0) l.spans[static_cast<std::size_t>(f.span)].end_ns = end;
    double const dur = static_cast<double>(end - f.start_ns);
    if (!l.stack.empty()) l.stack.back().child_ns += dur;
    LaneTotals& t = *l.cur;
    switch (f.kind) {
        case kOp:
            t.op_ns += dur;
            ++t.ops;
            t.nested_hooks += l.nested_hooks;
            l.nested_hooks = 0;
            l.cur = &l.totals[""];
            break;
        case kKamping:
            t.kamping_ns += dur;
            t.kamping_self_ns += dur - f.child_ns;
            break;
        case kMpi:
            t.mpi_ns += dur;
            ++t.mpi_calls[f.name];
            break;
    }
}

}  // namespace

void set_rank(int rank) { lane().rank = rank; }

void set_active(bool active) { lane().active = active; }

void op_begin(char const* name) {
    Lane& l = lane();
    if (!l.active) return;
    l.cur = &l.totals[name];
    l.nested_hooks = 0;
    open(l, kOp, name);
}

void op_end() {
    Lane& l = lane();
    if (l.active && !l.stack.empty() && l.stack.back().kind == kOp) close(l);
}

void mpi_enter(char const* name) {
    Lane& l = lane();
    if (l.mpi_depth++ > 0 || !l.active) return;
    l.mpi_open = true;
    open(l, kMpi, name);
}

void mpi_exit() {
    Lane& l = lane();
    if (--l.mpi_depth > 0 || !l.mpi_open) return;
    l.mpi_open = false;
    close(l);
}

Totals collect() {
    Totals sum;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& l : r.lanes) {
        for (auto const& [op, t] : l->totals) {
            OpTotals& s = sum[std::string(op)];
            s.op_ns += t.op_ns;
            s.kamping_ns += t.kamping_ns;
            s.kamping_self_ns += t.kamping_self_ns;
            s.mpi_ns += t.mpi_ns;
            s.ops += t.ops;
            s.nested_hooks += t.nested_hooks;
            for (auto const& [name, n] : t.mpi_calls) s.mpi_calls[name] += n;
        }
        for (auto& [op, t] : l->totals) t = LaneTotals{};
        // Parent indices are lane-local; rebase them onto the merged store.
        auto const base = static_cast<std::int32_t>(r.retired.size());
        for (Span s : l->spans) {
            if (s.parent >= 0) s.parent += base;
            r.retired.push_back(s);
        }
        l->spans.clear();
    }
    return sum;
}

double nested_hook_cost_ns() {
    Lane& l = lane();
    constexpr int kPairs = 1 << 20;
    int const saved_depth = l.kamping_depth;
    std::uint64_t const saved_hooks = l.nested_hooks;
    bool const saved_active = l.active;
    l.active = true;
    l.kamping_depth = 1;  // as if inside an open KaMPIng span
    std::int64_t const t0 = now_ns();
    for (int i = 0; i < kPairs; ++i) {
        __cyg_profile_func_enter(nullptr, nullptr);
        __cyg_profile_func_exit(nullptr, nullptr);
    }
    std::int64_t const t1 = now_ns();
    l.kamping_depth = saved_depth;
    l.nested_hooks = saved_hooks;
    l.active = saved_active;
    return static_cast<double>(t1 - t0) / kPairs;
}

bool write(std::string const& path) {
    collect();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,rank,kind,name,start_ns,end_ns,parent\n");
    for (std::size_t i = 0; i < r.retired.size(); ++i) {
        Span const& s = r.retired[i];
        std::fprintf(f, "%zu,%d,%s,%s,%lld,%lld,%d\n", i, s.rank, kKindNames[s.kind], s.name,
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     s.parent);
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench::trace

extern "C" __attribute__((no_instrument_function)) void __cyg_profile_func_enter(void*, void*) {
    using namespace perfbench::trace;
    Lane& l = lane();
    if (l.kamping_depth++ > 0) {
        if (l.active) ++l.nested_hooks;
        return;
    }
    if (!l.active || l.mpi_depth > 0) return;
    l.kamping_open = true;
    open(l, kKamping, "kamping");
}

extern "C" __attribute__((no_instrument_function)) void __cyg_profile_func_exit(void*, void*) {
    using namespace perfbench::trace;
    Lane& l = lane();
    if (--l.kamping_depth > 0 || !l.kamping_open) return;
    l.kamping_open = false;
    close(l);
}
