/// @file registry.cpp
/// @brief Algorithm registry and selection: per-family tables (single-tier
/// algorithms plus the leader-based hierarchical composition), the two-tier
/// cost-model automatic choice, the per-family `alg.*` control variables
/// (XMPI_ALG_<FAMILY>, pinned by XMPI_T_alg_set) and the schedule cache.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <string>

#include "../cvar.hpp"
#include "../shm/shm.hpp"
#include "../topo/topo.hpp"
#include "../tune/tune.hpp"
#include "algorithms.hpp"

namespace xmpi::detail::alg {
namespace {

/// Adapts a single-tier bench::model cost formula to the registry signature.
/// Single-tier algorithms are always priced with the inter-node machine —
/// exactly the PR-2 pricing — so their relative order (and therefore
/// selection on any non-hierarchical topology) is unchanged by the topology
/// subsystem.
template <double (*F)(bench::model::Machine const&, double, double)>
double adapt(bench::model::TwoTier const& t, bench::model::NodeShape const&, double p,
             double bytes) {
    return F(t.inter, p, bytes);
}

std::vector<AlgInfo> const& table(Family f) {
    // Index 0 is always the flat reference of each family (the PR-1
    // behavior); the hierarchical composition is always last.
    // Star-shaped flat entries are priced with the *_flat_select variants:
    // the tape-exact star forms (a star root's messages overlap in flight)
    // would make "flat" nearly free in virtual time and displace the
    // logarithmic algorithms everywhere, so selection charges the root's
    // egress serialization on top. The bench/sim divergence tables use the
    // tape-exact forms.
    static std::vector<AlgInfo> const bcast_t = {
        {"flat", false, false, false, adapt<bench::model::bcast_flat_select>},
        {"binomial", false, false, false, adapt<bench::model::bcast_binomial>},
        {"ring", false, false, false, adapt<bench::model::bcast_ring_pipelined>},
        {"hierarchical", false, false, false, nullptr, true},
    };
    static std::vector<AlgInfo> const reduce_t = {
        {"flat", false, false, false, adapt<bench::model::reduce_flat_select>},
        {"binomial", false, false, false, adapt<bench::model::reduce_binomial>},
        {"hierarchical", false, false, false, nullptr, true},
    };
    static std::vector<AlgInfo> const allgather_t = {
        {"flat", false, false, false, adapt<bench::model::allgather_flat_select>},
        {"rdoubling", true, false, false, adapt<bench::model::allgather_rdoubling>},
        {"ring", false, false, false, adapt<bench::model::allgather_ring>},
        {"hierarchical", false, false, false, nullptr, true},
    };
    static std::vector<AlgInfo> const allreduce_t = {
        {"flat", false, false, false, adapt<bench::model::allreduce_flat_select>},
        {"binomial", false, false, false, adapt<bench::model::allreduce_binomial>},
        {"rdoubling", true, false, false, adapt<bench::model::allreduce_rdoubling>},
        // Recursive halving pairs ranks at distance p/2 first, so an
        // element combines as e.g. (v0 op v2) op (v1 op v3) — an interleave,
        // not a rank-order bracketing: commutative ops only.
        {"rabenseifner", true, true, true, adapt<bench::model::allreduce_rabenseifner>},
        {"ring", false, true, true, adapt<bench::model::allreduce_ring>},
        {"hierarchical", false, false, false, nullptr, true},
    };
    static std::vector<AlgInfo> const alltoall_t = {
        {"flat", false, false, false, adapt<bench::model::alltoall_flat>},
        {"bruck", false, false, false, adapt<bench::model::alltoall_bruck>},
        {"hierarchical", false, false, false, nullptr, true},
    };
    switch (f) {
        case Family::bcast: return bcast_t;
        case Family::reduce: return reduce_t;
        case Family::allgather: return allgather_t;
        case Family::allreduce: return allreduce_t;
        case Family::alltoall: return alltoall_t;
    }
    return bcast_t;  // unreachable
}

char const* const kFamilyNames[kFamilies] = {"bcast", "reduce", "allgather", "allreduce",
                                             "alltoall"};
/// Index the calling process most recently selected per family (-1 before
/// the first invocation); reported by XMPI_T_alg_selected.
std::atomic<int> g_selected[kFamilies] = {-1, -1, -1, -1, -1};

int family_index(char const* name) {
    if (name == nullptr) return -1;
    for (int i = 0; i < kFamilies; ++i) {
        if (cvar::iequals(name, kFamilyNames[i])) return i;
    }
    return -1;
}

bool is_pow2(int p) { return (p & (p - 1)) == 0; }

/// Per-entry operation/shape validity shared by select() and select_flat()
/// (select() layers the topology-dependent hierarchical checks on top).
bool flags_valid(AlgInfo const& a, int p, bool commutative, bool elementwise) {
    if (a.needs_pow2 && !is_pow2(p)) return false;
    if (a.needs_commutative && !commutative) return false;
    if (a.needs_elementwise && !elementwise) return false;
    return true;
}

/// Epoch of the schedule-affecting controls; cached schedules are stamped
/// with it and dropped when it moves.
std::atomic<std::uint64_t> g_sched_epoch{1};

cvar::Id alg_row(int family) {
    return static_cast<cvar::Id>(static_cast<int>(cvar::Id::alg_bcast) + family);
}

/// Cost of a hierarchical entry; needs the operation's properties because
/// the allreduce composition differs between element-wise (2D slice) and
/// leader-based shapes. With the zero-copy shm transport enabled the shm
/// intra-phase variants join each composition's candidate set — the
/// builders take the same minimum, so "hierarchical" stays one registry
/// entry whose internal shape follows the transport switch. The closed
/// form is scaled by the family's measured kHierFitRatio.
double hier_cost(Family f, bench::model::TwoTier const& t, bench::model::NodeShape const& shape,
                 double p, double bytes, bool commutative, bool elementwise) {
    bool const shm = shm::enabled();
    double c = std::numeric_limits<double>::infinity();
    switch (f) {
        case Family::bcast: c = bench::model::bcast_hier(t, shape, p, bytes, shm); break;
        case Family::reduce: c = bench::model::reduce_hier(t, shape, p, bytes, shm); break;
        case Family::allgather: c = bench::model::allgather_hier(t, shape, p, bytes, shm); break;
        case Family::allreduce:
            c = bench::model::allreduce_hier(t, shape, p, bytes, commutative, elementwise, shm);
            break;
        case Family::alltoall: c = bench::model::alltoall_hier(t, shape, p, bytes); break;
    }
    return c * kHierFitRatio[static_cast<int>(f)];
}

}  // namespace

std::vector<AlgInfo> const& algorithms(Family f) { return table(f); }

char const* family_name(Family f) { return kFamilyNames[static_cast<int>(f)]; }

// select() runs once per *invocation* for the one-shot collectives and once
// per *initialization* for the persistent ones (MPI_*_init): a persistent
// schedule keeps the algorithm chosen at init for its whole lifetime, so
// later XMPI_T_alg_set / environment refreshes only affect future inits.
int select(Family f, MPI_Comm comm, std::size_t bytes, bool commutative, bool elementwise) {
    // Pricing below may consult the pipeline-segment formulas, which honor
    // the (lazily resolved) XMPI_SEGMENT_BYTES override.
    cvar::get(cvar::Id::segment_bytes);
    auto const& t = table(f);
    int const p = comm->size();
    topo::NodeInfo const& ni = topo::node_info(comm);
    auto valid = [&](AlgInfo const& a) {
        if (!flags_valid(a, p, commutative, elementwise)) return false;
        if (a.hier) {
            if (!ni.is_hierarchical()) return false;
            // The leader-based fold is a rank-order bracketing only when
            // node membership is comm-rank contiguous.
            if ((f == Family::reduce || f == Family::allreduce) && !commutative &&
                !ni.contiguous)
                return false;
            // Leader aggregation ships multi-block messages whose counts
            // must stay within MPI's int-count limit (the per-block flat
            // algorithms are not subject to it): allgather's largest is the
            // p-block phase-C bcast, alltoall additionally exchanges
            // per-node-pair bundles of up to ppn^2 blocks.
            if (f == Family::alltoall || f == Family::allgather) {
                double blocks = static_cast<double>(p);
                if (f == Family::alltoall) {
                    blocks = std::max(blocks, static_cast<double>(ni.max_ppn) *
                                                  static_cast<double>(ni.max_ppn));
                }
                if (static_cast<double>(bytes) * blocks >
                    static_cast<double>(std::numeric_limits<int>::max()))
                    return false;
            }
        }
        return true;
    };
    auto chosen = [&](int idx) {
        g_selected[static_cast<int>(f)].store(idx, std::memory_order_relaxed);
        return idx;
    };

    // A pin (control write, else XMPI_ALG_<FAMILY>) that is invalid for
    // this invocation falls back to cost-based selection.
    auto const pinned = static_cast<std::size_t>(cvar::get(alg_row(static_cast<int>(f))));
    if (pinned < t.size() && valid(t[pinned])) return chosen(static_cast<int>(pinned));

    bench::model::TwoTier const machine = machine_of(comm);
    bench::model::NodeShape const shape{static_cast<double>(ni.num_nodes()),
                                        static_cast<double>(ni.max_ppn),
                                        static_cast<double>(ni.min_ppn)};
    int best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!valid(t[i])) continue;
        double const c =
            t[i].hier
                ? hier_cost(f, machine, shape, static_cast<double>(p),
                            static_cast<double>(bytes), commutative, elementwise)
                : t[i].cost(machine, shape, static_cast<double>(p), static_cast<double>(bytes));
        if (c < best_cost) {
            best_cost = c;
            best = static_cast<int>(i);
        }
    }
    // Measured-selection feedback: when tuning is on, the feedback table may
    // override the model's argmin (a demotion) or schedule a probe of an
    // under-sampled candidate. The decision is frozen per generation of
    // coll_seq — identical on every rank of this collective — so ranks can
    // never mix algorithms within one call (see tune.hpp).
    if (tune::feedback_enabled() && t.size() > 1) {
        unsigned valid_mask = 0;
        for (std::size_t i = 0; i < t.size() && i < 32; ++i) {
            if (valid(t[i])) valid_mask |= 1u << i;
        }
        best = tune::pick(static_cast<int>(f), p, bytes, comm->coll_seq, best, valid_mask);
    }
    return chosen(best);
}

int run_observed(Schedule& s, Family f, int alg, std::size_t bytes) {
    RankState* const rs = tls_rank();
    if (rs == nullptr) return run_blocking(s);
    double const t0 = rs->vnow;
    int const rc = run_blocking(s);
    if (rc == MPI_SUCCESS) {
        double const elapsed = rs->vnow - t0;
        trace::hist_record(static_cast<int>(f), alg, bytes, elapsed);
        if (tune::feedback_enabled()) {
            tune::record(static_cast<int>(f), s.size(), bytes, alg, elapsed);
        }
    }
    return rc;
}

int select_flat(Family f, int p, std::size_t bytes, bool commutative, bool elementwise,
                bench::model::Machine const& m) {
    auto const& t = table(f);
    bench::model::TwoTier machine;
    machine.inter = m;
    bench::model::NodeShape const flat_shape{1, 1, 1};
    int best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < t.size(); ++i) {
        AlgInfo const& a = t[i];
        if (a.hier) continue;
        if (!flags_valid(a, p, commutative, elementwise)) continue;
        double const c =
            a.cost(machine, flat_shape, static_cast<double>(p), static_cast<double>(bytes));
        if (c < best_cost) {
            best_cost = c;
            best = static_cast<int>(i);
        }
    }
    return best;
}

bool sched_cache_enabled() { return cvar::get(cvar::Id::sched_cache) != 0; }

void bump_sched_epoch() { g_sched_epoch.fetch_add(1, std::memory_order_relaxed); }

std::uint64_t sched_epoch() { return g_sched_epoch.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Schedule cache.
// ---------------------------------------------------------------------------

namespace {
/// Entries per communicator copy. Small: the hot-loop pattern the cache
/// exists for touches a handful of distinct collectives per communicator.
constexpr std::size_t kSchedCacheCap = 16;
}  // namespace

struct SchedCache {
    struct Entry {
        SchedSpec spec;
        std::shared_ptr<Schedule> sched;
        std::uint64_t last_use = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t epoch = 0;
    std::uint64_t use_counter = 0;
};

bool spec_cacheable(SchedSpec const& spec) {
    return sched_cache_enabled() && spec.type1 != nullptr && spec.type1->is_builtin &&
           (spec.type2 == nullptr || spec.type2->is_builtin) &&
           (spec.op == nullptr || spec.op->builtin);
}

namespace {

/// The communicator's cache with its epoch reconciled (stale entries
/// dropped and counted as evictions).
SchedCache& reconciled_cache(MPI_Comm comm, RankState* rs) {
    if (comm->sched_cache == nullptr) comm->sched_cache = std::make_shared<SchedCache>();
    SchedCache& cache = *comm->sched_cache;
    std::uint64_t const epoch = g_sched_epoch.load(std::memory_order_relaxed);
    if (cache.epoch != epoch) {
        if (rs != nullptr) rs->counters.schedule_cache_evictions += cache.entries.size();
        cache.entries.clear();
        cache.epoch = epoch;
    }
    return cache;
}

}  // namespace

std::shared_ptr<Schedule> cache_take(MPI_Comm comm, std::uint64_t seq, SchedSpec const& spec) {
    if (!spec_cacheable(spec)) return nullptr;
    RankState* const rs = tls_rank();
    SchedCache& cache = reconciled_cache(comm, rs);
    for (auto& e : cache.entries) {
        // use_count == 1 <=> only the cache references the schedule; a
        // higher count means an in-flight nonblocking request still owns
        // it, so it must not be re-armed underneath.
        if (e.spec == spec && e.sched.use_count() == 1) {
            e.last_use = ++cache.use_counter;
            e.sched->reset();
            e.sched->set_seq(seq);
            if (rs != nullptr) ++rs->counters.schedule_cache_hits;
            trace::ev(trace::Ev::sched_cache_hit, -1, -1, 0, seq,
                      static_cast<int>(spec.family), spec.alg);
            return e.sched;
        }
    }
    return nullptr;
}

void cache_insert(MPI_Comm comm, SchedSpec const& spec, std::shared_ptr<Schedule> const& s) {
    if (!spec_cacheable(spec)) return;
    RankState* const rs = tls_rank();
    SchedCache& cache = reconciled_cache(comm, rs);
    if (cache.entries.size() >= kSchedCacheCap) {
        auto lru = cache.entries.begin();
        for (auto it = cache.entries.begin(); it != cache.entries.end(); ++it) {
            if (it->last_use < lru->last_use) lru = it;
        }
        if (rs != nullptr) ++rs->counters.schedule_cache_evictions;
        cache.entries.erase(lru);
    }
    cache.entries.push_back(SchedCache::Entry{spec, s, ++cache.use_counter});
}

}  // namespace xmpi::detail::alg

// ---------------------------------------------------------------------------
// MPI_T-style control API (declared in <xmpi/mpi.h>).
// ---------------------------------------------------------------------------

using namespace xmpi::detail::alg;

int XMPI_T_alg_set(const char* family, const char* algorithm) {
    int const fi = family_index(family);
    if (fi < 0) return MPI_ERR_ARG;
    // "auto" here drops the pin; XMPI_T_cvar_write can pin "auto" itself.
    bool const unpin = algorithm == nullptr || xmpi::detail::cvar::iequals(algorithm, "auto");
    return xmpi::detail::cvar::write(alg_row(fi), unpin ? nullptr : algorithm);
}

int XMPI_T_alg_get(const char* family, const char** algorithm) {
    namespace cvar = xmpi::detail::cvar;
    int const fi = family_index(family);
    if (fi < 0 || algorithm == nullptr) return MPI_ERR_ARG;
    bool const pinned = cvar::source(alg_row(fi)) == cvar::Source::control;
    long long const idx = pinned ? cvar::get(alg_row(fi)) : -1;
    *algorithm = idx < 0 ? "auto"
                         : table(static_cast<Family>(fi))[static_cast<std::size_t>(idx)].name;
    return MPI_SUCCESS;
}

int XMPI_T_alg_selected(const char* family, const char** algorithm) {
    int const fi = family_index(family);
    if (fi < 0 || algorithm == nullptr) return MPI_ERR_ARG;
    int const sel = g_selected[fi].load(std::memory_order_relaxed);
    *algorithm = sel < 0 ? "none"
                         : table(static_cast<Family>(fi))[static_cast<std::size_t>(sel)].name;
    return MPI_SUCCESS;
}

int XMPI_T_alg_list(const char* family, char* buf, int buflen) {
    int const fi = family_index(family);
    if (fi < 0 || buf == nullptr || buflen <= 0) return MPI_ERR_ARG;
    auto const& t = table(static_cast<Family>(fi));
    int pos = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        int const need = static_cast<int>(std::strlen(t[i].name)) + (i > 0 ? 1 : 0);
        if (pos + need >= buflen) return MPI_ERR_ARG;  // buffer too small
        if (i > 0) buf[pos++] = ',';
        std::memcpy(buf + pos, t[i].name, std::strlen(t[i].name));
        pos += static_cast<int>(std::strlen(t[i].name));
    }
    buf[pos] = '\0';
    return MPI_SUCCESS;
}
