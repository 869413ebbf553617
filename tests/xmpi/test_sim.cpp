/// @file test_sim.cpp
/// @brief Virtual-time simulator tests: the small-p equivalence gate against
/// the threaded executor (same builders, same cost arithmetic — per-rank
/// virtual finish times must agree), the tag-budget hard check, the
/// dry-build / real-build counter separation, the XMPI_T_sim_* knob
/// validation, and a small-scale model-match assertion mirroring the bench
/// acceptance criterion.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/model/analytic.hpp"
#include "src/xmpi/sim/sim.hpp"
#include "src/xmpi/topo/topo.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

#include "../testing_utils.hpp"

namespace sim = xmpi::detail::sim;
namespace alg = xmpi::detail::alg;
namespace topo = xmpi::detail::topo;
namespace model = bench::model;

using sim::Family;
using testing_utils::ScrubAlgEnv;
using testing_utils::SeededRng;
using testing_utils::SegPin;
using testing_utils::TopoPin;

namespace {

/// Pins one family's algorithm through the control channel for a scope.
struct AlgPin {
    char const* family;
    AlgPin(char const* fam, char const* name) : family(fam) {
        EXPECT_EQ(MPI_SUCCESS, XMPI_T_alg_set(fam, name));
    }
    ~AlgPin() { XMPI_T_alg_set(family, "auto"); }
    AlgPin(AlgPin const&) = delete;
    AlgPin& operator=(AlgPin const&) = delete;
};

xmpi::Config pure_comm_config() {
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;  // deterministic: virtual time advances only by
                              // the modeled message costs, on both executors
    return cfg;
}

/// Validity of algorithm `a` for a block topology (p, rpn) with a builtin
/// commutative op — the registry's flag gates plus is_hierarchical.
bool alg_valid(alg::AlgInfo const& a, int p, int rpn) {
    if (a.needs_pow2 && (p & (p - 1)) != 0) return false;
    if (a.hier && !(rpn >= 2 && p > rpn)) return false;
    return true;
}

/// Runs `family` once on every rank of the threaded executor and returns the
/// per-rank virtual finish times (plus the auto-selected algorithm name).
xmpi::RunResult run_threaded(Family family, int p, int count, int root, xmpi::Config const& cfg,
                             std::string* selected) {
    return xmpi::run(
        p,
        [&](int rank) {
            std::vector<int> send(static_cast<std::size_t>(count) * static_cast<std::size_t>(p),
                                  rank);
            std::vector<int> recv(static_cast<std::size_t>(count) * static_cast<std::size_t>(p),
                                  0);
            switch (family) {
                case Family::bcast:
                    MPI_Bcast(recv.data(), count, MPI_INT, root, MPI_COMM_WORLD);
                    break;
                case Family::reduce:
                    MPI_Reduce(send.data(), recv.data(), count, MPI_INT, MPI_SUM, root,
                               MPI_COMM_WORLD);
                    break;
                case Family::allgather:
                    MPI_Allgather(send.data(), count, MPI_INT, recv.data(), count, MPI_INT,
                                  MPI_COMM_WORLD);
                    break;
                case Family::allreduce:
                    MPI_Allreduce(send.data(), recv.data(), count, MPI_INT, MPI_SUM,
                                  MPI_COMM_WORLD);
                    break;
                case Family::alltoall:
                    MPI_Alltoall(send.data(), count, MPI_INT, recv.data(), count, MPI_INT,
                                 MPI_COMM_WORLD);
                    break;
            }
            if (rank == 0 && selected != nullptr) {
                char const* name = nullptr;
                XMPI_T_alg_selected(alg::family_name(family), &name);
                *selected = name;
            }
        },
        cfg);
}

/// One equivalence trial: simulate and thread-execute the same collective on
/// the same (p, rpn, count, root) and compare per-rank virtual finish times.
void check_equivalence(Family family, int alg_idx, int p, int rpn, int count, int root) {
    SCOPED_TRACE("family=" + std::string(alg::family_name(family)) +
                 " alg=" + (alg_idx < 0 ? "auto" : sim::alg_name(family, alg_idx)) +
                 " p=" + std::to_string(p) + " rpn=" + std::to_string(rpn) +
                 " count=" + std::to_string(count) + " root=" + std::to_string(root));
    xmpi::Config const cfg = pure_comm_config();

    sim::World w;
    w.size = p;
    w.node_map = topo::block_map(p, rpn);
    w.cfg = cfg;
    sim::CollSpec spec;
    spec.family = family;
    spec.count = count;
    spec.elem_size = 4;  // MPI_INT on both sides
    spec.root = root;
    spec.force_alg = alg_idx;
    sim::Options opt;
    opt.keep_finish = true;
    sim::Result const res = sim::simulate(w, spec, opt);
    ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
    ASSERT_EQ(static_cast<std::size_t>(p), res.finish.size());

    TopoPin topo_pin(rpn);
    std::string selected;
    xmpi::RunResult threaded;
    if (alg_idx >= 0) {
        AlgPin pin(alg::family_name(family), sim::alg_name(family, alg_idx));
        threaded = run_threaded(family, p, count, root, cfg, nullptr);
    } else {
        threaded = run_threaded(family, p, count, root, cfg, &selected);
        // Same cost model, same topology: auto-selection must agree.
        EXPECT_EQ(selected, res.alg_name);
    }
    ASSERT_EQ(static_cast<std::size_t>(p), threaded.rank_vtimes.size());
    for (int r = 0; r < p; ++r) {
        double const want = threaded.rank_vtimes[static_cast<std::size_t>(r)];
        double const got = res.finish[static_cast<std::size_t>(r)];
        EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want)) + 1e-15)
            << "rank " << r << " sim=" << got << " threaded=" << want;
    }
}

}  // namespace

TEST(SimEquivalence, MatchesThreadedExecutorAcrossShapes) {
    SeededRng rng;
    int const kRpns[] = {1, 2, 3, 4, 8};
    int const kCounts[] = {1, 13, 257};
    for (int trial = 0; trial < 3; ++trial) {
        int const p = rng.uniform(2, 16);
        int const rpn = rng.pick(kRpns);
        int const count = rng.pick(kCounts);
        int const root = rng.uniform(0, p - 1);
        for (int fi = 0; fi < alg::kFamilies; ++fi) {
            auto const family = static_cast<Family>(fi);
            check_equivalence(family, -1, p, rpn, count, root);
            auto const& table = alg::algorithms(family);
            for (int a = 0; a < static_cast<int>(table.size()); ++a) {
                if (!alg_valid(table[static_cast<std::size_t>(a)], p, rpn)) continue;
                check_equivalence(family, a, p, rpn, count, root);
            }
        }
    }
}

TEST(SimTagBudget, HierarchicalAtManyNodesWithTinySegmentsIsRefused) {
    // 4100 ranks at 4 per node = 1025 nodes: the inter-node phase alone
    // needs more step tags than coll_tag() can encode (and a non-pow2 node
    // count keeps the phase on a linear-tag algorithm); tiny pipeline
    // segments maximize tag pressure on the segmented phases.
    SegPin seg(64);
    sim::World w;
    w.size = 4100;
    w.node_map = topo::block_map(w.size, 4);
    w.cfg = pure_comm_config();
    sim::CollSpec spec;
    spec.family = Family::allgather;
    spec.count = 4096;
    spec.elem_size = 1;
    spec.force_alg = 3;  // hierarchical
    sim::Result const res = sim::simulate(w, spec);
    ASSERT_EQ(MPI_ERR_OTHER, res.error);
    // The error must name both escape hatches.
    EXPECT_NE(res.detail.find("tag budget"), std::string::npos) << res.detail;
    EXPECT_NE(res.detail.find("XMPI_SEGMENT_BYTES"), std::string::npos) << res.detail;
    EXPECT_NE(res.detail.find("XMPI_RANKS_PER_NODE"), std::string::npos) << res.detail;

    // Control: the same collective on a coarser topology (65 nodes) fits the
    // budget and simulates cleanly.
    w.node_map = topo::block_map(w.size, 64);
    sim::Result const ok = sim::simulate(w, spec);
    EXPECT_EQ(MPI_SUCCESS, ok.error) << ok.detail;
    EXPECT_GT(ok.makespan, 0.0);
}

TEST(SimCounters, DryBuildsAreAccountedSeparatelyFromRealBuilds) {
    xmpi::Config const cfg = pure_comm_config();
    xmpi::run(
        4,
        [&](int rank) {
            std::vector<int> buf(128, rank);
            std::vector<int> out(128, 0);
            MPI_Allreduce(buf.data(), out.data(), 128, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
            if (rank != 0) return;

            using testing_utils::pvar_u64;
            unsigned long long const builds0 = pvar_u64("counters.schedule_builds");
            unsigned long long const hits0 = pvar_u64("counters.schedule_cache_hits");
            unsigned long long const dry0 = pvar_u64("sim.dry_builds");
            unsigned long long const steps0 = pvar_u64("sim.tape_steps");
            EXPECT_GE(builds0, 1ull);  // the real allreduce above compiled a schedule

            sim::World w;
            w.size = 64;
            w.cfg = cfg;
            sim::CollSpec spec;
            spec.family = Family::allreduce;
            spec.count = 128;
            spec.elem_size = 4;
            sim::Result const res = sim::simulate(w, spec);
            ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;

            // 64 per-rank dry builds land in the sim counters only; the
            // rank's real schedule accounting must not move.
            EXPECT_EQ(pvar_u64("counters.schedule_builds"), builds0);
            EXPECT_EQ(pvar_u64("counters.schedule_cache_hits"), hits0);
            EXPECT_EQ(pvar_u64("sim.dry_builds"), dry0 + 64);
            EXPECT_EQ(pvar_u64("sim.tape_steps"), steps0 + res.tape_steps);
            EXPECT_EQ(pvar_u64("sim.last_makespan_ns"),
                      static_cast<unsigned long long>(res.makespan * 1e9));
        },
        cfg);
}

TEST(SimKnobs, EventLimitEnforced) {
    // The sim.event_limit row's precedence and environment validation are
    // covered by test_cvar; this pins the cap the simulator enforces.
    int const idx = testing_utils::cvar_index("sim.event_limit");
    ASSERT_GE(idx, 0);
    ASSERT_EQ(MPI_SUCCESS, XMPI_T_cvar_write(idx, "7"));
    long long limit = -99;
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_get(&limit));
    EXPECT_EQ(7, limit);

    // A 64-rank allreduce needs far more than 7 events.
    sim::World w;
    w.size = 64;
    w.cfg = pure_comm_config();
    sim::CollSpec spec;
    spec.family = Family::allreduce;
    spec.count = 16;
    spec.elem_size = 4;
    sim::Result const res = sim::simulate(w, spec);
    EXPECT_EQ(MPI_ERR_OTHER, res.error);
    EXPECT_NE(res.detail.find("event limit"), std::string::npos) << res.detail;

    // 0 means unlimited.
    ASSERT_EQ(MPI_SUCCESS, XMPI_T_cvar_write(idx, "0"));
    EXPECT_EQ(MPI_SUCCESS, sim::simulate(w, spec).error);
    ASSERT_EQ(MPI_SUCCESS, XMPI_T_cvar_write(idx, nullptr));
}

TEST(SimModelMatch, AutoSelectedFlatAlgorithmsWithinFivePercent) {
    // The bench acceptance criterion at unit-test scale: on a flat pow2
    // world the auto-selected algorithm of every family is a lock-step
    // round-structured schedule whose tape reproduces the closed-form
    // two-tier model. This asserts *automatic* selection, so any
    // forced-algorithms environment from the CI matrix is scrubbed.
    ScrubAlgEnv const scrub;
    xmpi::Config const cfg = pure_comm_config();
    model::Machine m;
    m.alpha = cfg.alpha;
    m.beta = cfg.beta;
    m.o = cfg.o;
    int const p = 1024;
    struct Case {
        Family family;
        int count;  // MPI_INT elements
    };
    Case const cases[] = {{Family::bcast, 1024},     {Family::reduce, 1024},
                          {Family::allgather, 1024}, {Family::allreduce, 1024},
                          {Family::alltoall, 64}};
    for (auto const& c : cases) {
        sim::World w;
        w.size = p;
        w.cfg = cfg;
        sim::CollSpec spec;
        spec.family = c.family;
        spec.count = c.count;
        spec.elem_size = 4;
        sim::Result const res = sim::simulate(w, spec);
        ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
        double const bytes = static_cast<double>(spec.bytes());
        double const dp = static_cast<double>(p);
        std::string const name = res.alg_name;
        double want = 0.0;
        if (name == "binomial" && c.family == Family::bcast) {
            want = model::bcast_binomial(m, dp, bytes);
        } else if (name == "binomial" && c.family == Family::reduce) {
            want = model::reduce_binomial(m, dp, bytes);
        } else if (name == "rdoubling" && c.family == Family::allgather) {
            want = model::allgather_rdoubling(m, dp, bytes);
        } else if (c.family == Family::allreduce &&
                   (name == "rdoubling" || name == "rabenseifner")) {
            want = name == "rdoubling" ? model::allreduce_rdoubling(m, dp, bytes)
                                       : model::allreduce_rabenseifner(m, dp, bytes);
        } else if (name == "bruck" && c.family == Family::alltoall) {
            want = model::alltoall_bruck(m, dp, bytes);
        } else {
            FAIL() << "unexpected auto selection \"" << name << "\" for family "
                   << alg::family_name(c.family);
        }
        double const rel = std::abs(res.makespan - want) / want;
        EXPECT_LT(rel, 0.05) << alg::family_name(c.family) << "/" << name
                             << " sim=" << res.makespan << " model=" << want;
    }
}

TEST(SimShapes, RaggedNodeSizesSimulateCleanly) {
    // Auto selection: an inherited XMPI_ALG_* pin (e.g. ring allreduce,
    // which the tag budget correctly refuses at 1000 ranks) is scrubbed.
    ScrubAlgEnv const scrub;
    std::vector<int> sizes;
    for (int n = 0; n < 250; ++n) sizes.push_back(n % 2 == 0 ? 3 : 5);
    sim::World w;
    w.node_map = topo::node_map_from_sizes(sizes);
    w.size = static_cast<int>(w.node_map.size());
    ASSERT_EQ(1000, w.size);
    w.cfg = pure_comm_config();
    sim::CollSpec spec;
    spec.family = Family::allreduce;
    spec.count = 100;
    spec.elem_size = 8;
    sim::Options opt;
    opt.keep_finish = true;
    sim::Result const res = sim::simulate(w, spec, opt);
    ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
    EXPECT_EQ(1000u, res.finish.size());
    EXPECT_GT(res.makespan, 0.0);
    EXPECT_GT(res.events, 0u);
}
