/// @file sim.cpp
/// @brief The virtual-time executor: synthesizes a payload-free communicator
/// at the simulated size, dry-builds every rank's schedule through the real
/// builders (Schedule::begin_dry), and replays the recorded tapes in a
/// single-threaded event loop whose arithmetic mirrors the p2p engine's
/// deposit()/wait_one() virtual-clock updates term for term — so at small p
/// the simulator's per-rank finish times reproduce the threaded executor's
/// (the equivalence gate in tests/xmpi/test_sim.cpp), and at large p the
/// tape is the ground truth the closed-form model is checked against.
#include "sim.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <limits>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "../cvar.hpp"
#include "../internal.hpp"
#include "../topo/topo.hpp"

namespace xmpi::detail::sim {
namespace {

// Process-wide accounting, read by the `sim.*` pvars.
std::atomic<unsigned long long> g_dry_builds{0};
std::atomic<unsigned long long> g_tape_steps{0};
std::atomic<unsigned long long> g_events{0};
std::atomic<double> g_last_makespan{0.0};

// ---------------------------------------------------------------------------
// The synthetic communicator: a stack universe whose topology is the
// caller's explicit node map (no threads, no rank states) plus one
// communicator copy whose my_rank is repointed per simulated rank. The
// registry's select() and every builder see exactly the objects they see in
// a real run — which is the point: the simulator must not reimplement them.
// ---------------------------------------------------------------------------

struct FakeComm {
    Universe uni;
    xmpi_comm_t comm;

    explicit FakeComm(World const& w) {
        uni.cfg = w.cfg;
        uni.size = w.size;
        uni.node_of_world = w.node_map;
        comm.universe = &uni;
        comm.context = 0;
        comm.group.resize(static_cast<std::size_t>(w.size));
        std::iota(comm.group.begin(), comm.group.end(), 0);
        comm.world_to_comm = comm.group;
        comm.my_rank = 0;
    }

    /// Repoints the copy at simulated rank `r` (the node cache is shared
    /// across ranks; only the my_node shortcut is per-rank).
    void set_rank(int r) {
        comm.my_rank = r;
        if (comm.node_cache != nullptr) {
            comm.node_cache->my_node = comm.node_cache->node_of[static_cast<std::size_t>(r)];
        }
    }
};

/// Builtin datatype of one simulated element (tapes carry only byte counts,
/// but builders compute element offsets, so the type must be real).
MPI_Datatype type_of(int elem_size) {
    switch (elem_size) {
        case 1: return MPI_BYTE;
        case 4: return MPI_INT;
        case 8: return MPI_DOUBLE;
        default: return nullptr;
    }
}

/// Reduction-op stand-in matching the spec's (commutative, elementwise)
/// properties. Element-wise commutative reductions use the real MPI_SUM
/// singleton; user-op stand-ins carry a function that can never run (dry
/// builds discard local steps).
MPI_Op op_of(bool commutative, bool elementwise) {
    if (elementwise) return commutative ? MPI_SUM : nullptr;
    static xmpi_op_t user_commutative = [] {
        xmpi_op_t op;
        op.fn = [](void*, void*, int*, MPI_Datatype*) {};
        op.commutative = true;
        op.builtin = false;
        return op;
    }();
    static xmpi_op_t user_noncommutative = [] {
        xmpi_op_t op;
        op.fn = [](void*, void*, int*, MPI_Datatype*) {};
        op.commutative = false;
        op.builtin = false;
        return op;
    }();
    return commutative ? &user_commutative : &user_noncommutative;
}

bool is_pow2(int p) { return p > 0 && (p & (p - 1)) == 0; }

/// Largest per-message element count a builder of this algorithm computes,
/// as a multiple of the spec's count. Builders form these counts as ints
/// (the real substrate never sees a communicator this large), so infeasible
/// combinations must be refused *before* building — skipped and reported,
/// never silently mis-built.
long long count_multiplier(Family f, alg::AlgInfo const& a, int p, int max_ppn) {
    if (f == Family::allgather) {
        if (a.hier) return p;  // phase-C bcast of the full p-block vector
        if (std::strcmp(a.name, "rdoubling") == 0) return p / 2;  // doubling windows
        return 1;  // flat / ring move single blocks
    }
    if (f == Family::alltoall) {
        if (a.hier)  // node-pair bundles of up to ppn^2 blocks, p-block tapes
            return std::max<long long>(p, static_cast<long long>(max_ppn) * max_ppn);
        if (std::strcmp(a.name, "bruck") == 0) return (p + 1) / 2;  // round bundles
        return 1;  // pairwise moves single blocks
    }
    return 1;  // bcast / reduce / allreduce counts never exceed the vector
}

/// Fake user buffers live in address ranges no real allocation (or the dry
/// scratch base at 1 << 46) can occupy; builders offset into them but only
/// dereference inside discarded local steps.
void* fake_sendbuf() { return reinterpret_cast<void*>(std::uintptr_t{1} << 44); }
void* fake_recvbuf() { return reinterpret_cast<void*>(std::uintptr_t{3} << 44); }

int dry_build_one(Family f, int alg_idx, alg::Schedule& s, CollSpec const& spec, MPI_Datatype type,
                  MPI_Op op) {
    switch (f) {
        case Family::bcast:
            return alg::build_bcast(alg_idx, s, fake_recvbuf(), spec.count, type, spec.root);
        case Family::reduce:
            return alg::build_reduce(alg_idx, s, fake_sendbuf(), fake_recvbuf(), spec.count,
                                     type, op, spec.root);
        case Family::allgather:
            return alg::build_allgather(alg_idx, s, fake_recvbuf(), spec.count, type);
        case Family::allreduce:
            return alg::build_allreduce(alg_idx, s, fake_sendbuf(), fake_recvbuf(), spec.count,
                                        type, op);
        case Family::alltoall:
            return alg::build_alltoall(alg_idx, s, fake_sendbuf(), spec.count, type,
                                       fake_recvbuf(), spec.count, type);
    }
    return MPI_ERR_ARG;  // unreachable
}

Result fail(Result res, int err, std::string detail) {
    res.error = err;
    res.detail = std::move(detail);
    return res;
}

// ---------------------------------------------------------------------------
// Event loop. Run-to-block scheduling over the concatenated per-rank tapes:
// each ready rank executes steps until it finishes or blocks on a wait whose
// matching send has not happened yet; the send that covers the wait re-readies
// the rank. Matching is positional FIFO per (destination, source, tag) — the
// k-th post on a channel pairs with the k-th send, exactly the mailbox's
// deterministic-tag discipline (collective tags are unique per (seq, step),
// and within one tag the transport is FIFO).
//
// Clock arithmetic per step mirrors p2p.cpp verbatim (with compute charging
// absent — tapes carry no local work, i.e. compute_scale = 0):
//   send: vnow += o_tier; arrival = vnow + alpha_tier + beta_tier * bytes
//   post: free
//   wait: vnow = max(vnow, arrival of the matched send)
//
// Shared-memory copy steps ride the same channel algebra (their tape tags
// carry a high marker bit, so a copy channel can never alias a message
// channel) with the executor's copy-tier pricing:
//   copy_pub:  publisher's clock unchanged; arrival = vnow + copy_sync
//   copy_wait: vnow = max(vnow, arrival) + gamma_copy * bytes
// ---------------------------------------------------------------------------

constexpr std::uint32_t kNoRank = 0xFFFFFFFFu;

struct Channel {
    double a0 = 0.0;               ///< arrival of the first send (inline: most
                                   ///< channels carry exactly one message)
    std::vector<double> more;      ///< arrivals of sends 1.. (rare)
    std::uint32_t nsends = 0;
    std::uint32_t nposts = 0;
    std::uint32_t waiter = kNoRank;  ///< rank blocked on this channel, if any
    std::uint32_t waiter_k = 0;      ///< ...waiting for send index waiter_k
};

struct SlotRef {
    std::uint32_t ch = 0;  ///< channel index
    std::uint32_t k = 0;   ///< post position on that channel
};

struct EventLoop {
    std::vector<alg::TapeStep> const& steps;
    std::vector<std::uint32_t> const& step_begin;  // size p+1
    std::vector<std::uint32_t> const& slot_begin;  // size p+1
    std::vector<int> const& node_map;              // empty = flat
    Config const& cfg;

    std::vector<Channel> channels;
    std::unordered_map<std::uint64_t, std::uint32_t> channel_index;

    static std::uint64_t key(std::uint32_t dst, std::uint32_t src, std::uint32_t tag) {
        return (static_cast<std::uint64_t>(dst) << 40) | (static_cast<std::uint64_t>(src) << 16) |
               tag;
    }

    std::uint32_t chan(std::uint64_t k) {
        auto const [it, inserted] =
            channel_index.try_emplace(k, static_cast<std::uint32_t>(channels.size()));
        if (inserted) channels.emplace_back();
        return it->second;
    }

    /// Runs all tapes to completion; returns MPI_SUCCESS or fills *detail.
    int run(std::vector<double>& vnow, std::uint64_t* events_out, std::string* detail) {
        int const p = static_cast<int>(step_begin.size()) - 1;
        std::vector<std::uint32_t> pos(step_begin.begin(), step_begin.end() - 1);
        std::vector<std::uint32_t> next_slot(static_cast<std::size_t>(p), 0);
        std::vector<SlotRef> slots(slot_begin[static_cast<std::size_t>(p)]);
        std::vector<std::uint32_t> ready(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) ready[static_cast<std::size_t>(p - 1 - r)] = static_cast<std::uint32_t>(r);

        long long const limit = cvar::get(cvar::Id::sim_event_limit);
        std::uint64_t events = 0;
        int finished = 0;

        while (!ready.empty()) {
            std::uint32_t const r = ready.back();
            ready.pop_back();
            std::uint32_t const end = step_begin[static_cast<std::size_t>(r) + 1];
            double t = vnow[r];
            bool blocked = false;
            while (pos[r] < end) {
                alg::TapeStep const& st = steps[pos[r]];
                if (st.kind == alg::TapeStep::kWait || st.kind == alg::TapeStep::kCopyWait) {
                    SlotRef const sr = slots[slot_begin[r] + st.a];
                    Channel& ch = channels[sr.ch];
                    if (ch.nsends > sr.k) {
                        double const arrival = sr.k == 0 ? ch.a0 : ch.more[sr.k - 1];
                        if (arrival > t) t = arrival;
                        if (st.kind == alg::TapeStep::kCopyWait) {
                            t += cfg.gamma_copy * static_cast<double>(st.bytes);
                        }
                    } else {
                        ch.waiter = r;
                        ch.waiter_k = sr.k;
                        blocked = true;
                        break;
                    }
                } else if (st.kind == alg::TapeStep::kSend ||
                           st.kind == alg::TapeStep::kCopyPub) {
                    std::uint32_t const dst = st.a;
                    double arrival;
                    if (st.kind == alg::TapeStep::kCopyPub) {
                        // Rendezvous publish: the producer's clock does not
                        // advance; the cell becomes visible one sync constant
                        // later and the per-byte copy cost lands on the
                        // consumer's kCopyWait.
                        arrival = t + cfg.copy_sync;
                    } else {
                        bool const intra =
                            !node_map.empty() && node_map[r] == node_map[dst];
                        t += intra ? cfg.o_intra : cfg.o;
                        arrival = t + (intra ? cfg.alpha_intra : cfg.alpha) +
                                  (intra ? cfg.beta_intra : cfg.beta) *
                                      static_cast<double>(st.bytes);
                    }
                    Channel& ch = channels[chan(key(dst, r, st.tag))];
                    std::uint32_t const k = ch.nsends++;
                    if (k == 0) {
                        ch.a0 = arrival;
                    } else {
                        ch.more.push_back(arrival);
                    }
                    if (ch.waiter != kNoRank && ch.waiter_k == k) {
                        ready.push_back(ch.waiter);
                        ch.waiter = kNoRank;
                    }
                } else {  // kPost: reserve the next FIFO position, zero cost
                    std::uint32_t const ci = chan(key(r, st.a, st.tag));
                    Channel& ch = channels[ci];
                    slots[slot_begin[r] + next_slot[r]++] = SlotRef{ci, ch.nposts++};
                }
                ++pos[r];
                ++events;
                if (limit > 0 && events > static_cast<std::uint64_t>(limit)) {
                    *events_out = events;
                    *detail = "event limit (" + std::to_string(limit) +
                              ") exceeded; raise the sim.event_limit control variable "
                              "(XMPI_SIM_EVENT_LIMIT)";
                    return MPI_ERR_OTHER;
                }
            }
            vnow[r] = t;
            if (!blocked) ++finished;
        }
        *events_out = events;
        if (finished < p) {
            *detail = "simulated deadlock: " + std::to_string(p - finished) + " of " +
                      std::to_string(p) + " ranks blocked on receives no send covers";
            return MPI_ERR_OTHER;
        }
        std::uint64_t mismatched = 0;
        for (auto const& ch : channels) {
            if (ch.nsends != ch.nposts) ++mismatched;
        }
        if (mismatched != 0) {
            *detail = std::to_string(mismatched) +
                      " channels with unmatched sends/posts (tape is not a closed "
                      "collective exchange)";
            return MPI_ERR_OTHER;
        }
        return MPI_SUCCESS;
    }
};

}  // namespace

char const* alg_name(Family f, int alg) {
    auto const& t = alg::algorithms(f);
    if (alg < 0 || alg >= static_cast<int>(t.size())) return "?";
    return t[static_cast<std::size_t>(alg)].name;
}

int select_at_scale(World const& w, CollSpec const& spec) {
    if (w.size < 1) return -1;
    if (spec.force_alg >= 0) return spec.force_alg;
    FakeComm fc(w);
    return alg::select(spec.family, &fc.comm, spec.bytes(), spec.commutative, spec.elementwise);
}

Result simulate(World const& w, CollSpec const& spec, Options const& opt) {
    Result res;
    if (w.size < 1 || spec.count < 0 ||
        (!w.node_map.empty() && static_cast<int>(w.node_map.size()) != w.size) ||
        spec.root < 0 || spec.root >= w.size) {
        return fail(std::move(res), MPI_ERR_ARG, "malformed simulated world / spec");
    }
    MPI_Datatype const type = type_of(spec.elem_size);
    if (type == nullptr) {
        return fail(std::move(res), MPI_ERR_ARG, "elem_size must be 1, 4 or 8");
    }
    MPI_Op const op = op_of(spec.commutative, spec.elementwise);
    bool const needs_op = spec.family == Family::reduce || spec.family == Family::allreduce;
    if (needs_op && op == nullptr) {
        return fail(std::move(res), MPI_ERR_ARG,
                    "non-commutative element-wise reductions have no builtin stand-in");
    }

    FakeComm fc(w);
    MPI_Comm const comm = &fc.comm;
    int const p = w.size;
    auto const& table = alg::algorithms(spec.family);
    topo::NodeInfo const& ni = topo::node_info(comm);

    int alg_idx;
    if (spec.force_alg >= 0) {
        if (spec.force_alg >= static_cast<int>(table.size())) {
            return fail(std::move(res), MPI_ERR_ARG, "force_alg out of range");
        }
        alg::AlgInfo const& a = table[static_cast<std::size_t>(spec.force_alg)];
        if ((a.needs_pow2 && !is_pow2(p)) || (a.needs_commutative && !spec.commutative) ||
            (a.needs_elementwise && !spec.elementwise) || (a.hier && !ni.is_hierarchical())) {
            return fail(std::move(res), MPI_ERR_ARG,
                        std::string("algorithm \"") + a.name +
                            "\" is invalid for this (p, op, topology) combination");
        }
        alg_idx = spec.force_alg;
    } else {
        alg_idx = alg::select(spec.family, comm, spec.bytes(), spec.commutative,
                              spec.elementwise);
    }
    res.alg = alg_idx;
    res.alg_name = table[static_cast<std::size_t>(alg_idx)].name;

    // Feasibility before building: builders form per-message element counts
    // as ints, and fake buffer offsets must stay inside their 16 TiB ranges.
    long long const mult =
        count_multiplier(spec.family, table[static_cast<std::size_t>(alg_idx)], p, ni.max_ppn);
    if (static_cast<long long>(spec.count) * mult > INT_MAX) {
        return fail(std::move(res), MPI_ERR_OTHER,
                    std::string("infeasible: algorithm \"") + res.alg_name +
                        "\" would form per-message int counts above INT_MAX at p = " +
                        std::to_string(p) + " (count * " + std::to_string(mult) + ")");
    }
    if ((spec.family == Family::allgather || spec.family == Family::alltoall) &&
        static_cast<double>(spec.bytes()) * static_cast<double>(p) > 8e12) {
        return fail(std::move(res), MPI_ERR_OTHER,
                    "infeasible: aggregate buffer span exceeds the fake address range");
    }

    // Dry-build one tape per simulated rank through the real builders.
    auto const t_build0 = std::chrono::steady_clock::now();
    alg::DrySink sink;
    std::vector<std::uint32_t> step_begin(static_cast<std::size_t>(p) + 1, 0);
    std::vector<std::uint32_t> slot_begin(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r < p; ++r) {
        fc.set_rank(r);
        alg::Schedule s(comm, /*seq=*/0);
        s.begin_dry(&sink);
        step_begin[static_cast<std::size_t>(r)] = static_cast<std::uint32_t>(sink.steps.size());
        int const rc = dry_build_one(spec.family, alg_idx, s, spec, type, op);
        g_dry_builds.fetch_add(1, std::memory_order_relaxed);
        if (rc != MPI_SUCCESS) {
            return fail(std::move(res), rc,
                        std::string("builder \"") + res.alg_name + "\" failed at rank " +
                            std::to_string(r));
        }
        if (sink.over_tag >= 0) {
            return fail(
                std::move(res), MPI_ERR_OTHER,
                std::string("dry-built tape for \"") + res.alg_name +
                    "\" exceeds the 10-bit step-tag budget (tag " +
                    std::to_string(sink.over_tag) + " >= 1024): messages of distinct phases "
                    "would alias under coll_tag(); raise the pipeline segment size via "
                    "XMPI_SEGMENT_BYTES / XMPI_T_segment_set, or coarsen the topology via "
                    "XMPI_RANKS_PER_NODE / XMPI_T_topo_set");
        }
        if (sink.steps.size() > opt.max_tape_steps) {
            return fail(std::move(res), MPI_ERR_OTHER,
                        std::string("tape exceeds the step cap (") +
                            std::to_string(opt.max_tape_steps) +
                            " steps) — combination skipped, not truncated");
        }
        slot_begin[static_cast<std::size_t>(r) + 1] =
            slot_begin[static_cast<std::size_t>(r)] + static_cast<std::uint32_t>(sink.nslots);
    }
    step_begin[static_cast<std::size_t>(p)] = static_cast<std::uint32_t>(sink.steps.size());
    res.tape_steps = sink.steps.size();
    g_tape_steps.fetch_add(res.tape_steps, std::memory_order_relaxed);
    auto const t_build1 = std::chrono::steady_clock::now();
    res.build_seconds = std::chrono::duration<double>(t_build1 - t_build0).count();

    // Replay.
    std::vector<double> vnow(static_cast<std::size_t>(p), 0.0);
    EventLoop loop{sink.steps, step_begin, slot_begin, w.node_map, w.cfg, {}, {}};
    std::string detail;
    int const rc = loop.run(vnow, &res.events, &detail);
    g_events.fetch_add(res.events, std::memory_order_relaxed);
    res.run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_build1).count();
    if (rc != MPI_SUCCESS) return fail(std::move(res), rc, std::move(detail));
    res.makespan = *std::max_element(vnow.begin(), vnow.end());
    g_last_makespan.store(res.makespan, std::memory_order_relaxed);
    if (opt.keep_finish) res.finish = std::move(vnow);
    return res;
}

Stats stats() {
    Stats s;
    s.dry_builds = g_dry_builds.load(std::memory_order_relaxed);
    s.tape_steps = g_tape_steps.load(std::memory_order_relaxed);
    s.events = g_events.load(std::memory_order_relaxed);
    s.last_makespan = g_last_makespan.load(std::memory_order_relaxed);
    return s;
}

}  // namespace xmpi::detail::sim
