/// @file test_schedule_cache.cpp
/// @brief The compiled-schedule reuse cache and its observability: repeated
/// blocking/nonblocking collectives with stable arguments must re-arm a
/// cached schedule (schedule_cache_hits), a cached re-run after the buffer
/// contents changed must be byte-identical to a fresh build (the
/// stale-snapshot hazard class), control-epoch bumps must evict, and the
/// persistent gather/scatter(v) schedules must restart correctly with fresh
/// inputs. The XMPI_SCHED_CACHE / XMPI_SEGMENT_BYTES rows' precedence and
/// validation are covered by test_cvar.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "../testing_utils.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace {

using testing_utils::TopoPin;

/// Pins the schedule cache on/off for the scope via the control channel
/// (beats the XMPI_SCHED_CACHE environment, so these tests behave
/// identically under the cache-disabled CI leg).
struct CachePin {
    explicit CachePin(int enabled) { XMPI_T_sched_cache_set(enabled); }
    ~CachePin() { XMPI_T_sched_cache_set(-1); }
    CachePin(CachePin const&) = delete;
    CachePin& operator=(CachePin const&) = delete;
};

struct SchedStats {
    unsigned long long builds = 0;
    unsigned long long hits = 0;
    unsigned long long evictions = 0;
    unsigned long long peak_scratch = 0;
};

SchedStats stats_now() {
    using testing_utils::pvar_u64;
    return {pvar_u64("counters.schedule_builds"), pvar_u64("counters.schedule_cache_hits"),
            pvar_u64("counters.schedule_cache_evictions"),
            pvar_u64("counters.schedule_peak_scratch_bytes.rank")};
}

}  // namespace

TEST(SchedCache, CountersAreRankLocal) {
    // The schedule counters are per rank; outside a rank body there is
    // nothing to report.
    int const builds = testing_utils::pvar_index("counters.schedule_builds");
    ASSERT_GE(builds, 0);
    unsigned long long v = 0;
    int count = 1;
    EXPECT_EQ(XMPI_T_pvar_read(builds, &v, &count), MPI_ERR_OTHER);
}

TEST(SchedCache, RepeatedBlockingAllreduceHitsCache) {
    CachePin const pin(1);
    TopoPin const topo(1);
    xmpi::run(4, [](int rank) {
        std::vector<int> in(8), out(8);
        for (int round = 0; round < 3; ++round) {
            std::iota(in.begin(), in.end(), rank + round);
            ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 8, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                      MPI_SUCCESS);
            // Cached re-runs must see the *current* buffer contents: sum of
            // iota(rank + round) over 4 ranks.
            for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 4 * (round + i) + 6);
        }
        auto const s = stats_now();
        EXPECT_EQ(s.builds, 1u);
        EXPECT_EQ(s.hits, 2u);
        EXPECT_GT(s.peak_scratch, 0u);
    });
}

TEST(SchedCache, DistinctArgumentsDoNotFalselyHit) {
    CachePin const pin(1);
    TopoPin const topo(1);
    xmpi::run(4, [](int rank) {
        std::vector<int> in(8, rank), out(8, -1), out2(8, -1);
        ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 8, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        // Different count: a fresh schedule, not the cached 8-element one.
        ASSERT_EQ(MPI_Allreduce(in.data(), out2.data(), 4, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        // Different output buffer: also a fresh schedule.
        ASSERT_EQ(MPI_Allreduce(in.data(), out2.data(), 8, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        auto const s = stats_now();
        EXPECT_EQ(s.builds, 3u);
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(out[0], 6);
        EXPECT_EQ(out2[0], 6);
    });
}

TEST(SchedCache, CachedRerunByteIdenticalToFreshBuild) {
    // The stale-snapshot hazard class PR 4's restart flavor exists to
    // catch, applied to the transparent cache: run the same collective
    // twice with different contents, once with the cache on (second run is
    // a cached re-arm) and once with it off (second run is a fresh build);
    // the two second-run results must be byte-identical. Covers every
    // cacheable family, including a hierarchical topology.
    for (int rpn : {1, 4}) {
        TopoPin const topo(rpn);
        std::vector<std::vector<std::uint64_t>> reference;
        for (int cache_on : {0, 1}) {
            CachePin const pin(cache_on);
            std::vector<std::vector<std::uint64_t>> collected(8);
            xmpi::run(8, [&](int rank) {
                std::vector<std::uint64_t> bc(5), red(7), ag(3), agout(24), a2a(16), a2aout(16);
                auto& sink = collected[static_cast<std::size_t>(rank)];
                for (int round = 0; round < 3; ++round) {
                    auto const salt = static_cast<std::uint64_t>(round) * 1000u + 17u;
                    for (std::size_t i = 0; i < bc.size(); ++i)
                        bc[i] = rank == 1 ? salt + i : 0xEE;
                    for (std::size_t i = 0; i < red.size(); ++i)
                        red[i] = salt + static_cast<std::uint64_t>(rank) * 31u + i;
                    for (std::size_t i = 0; i < ag.size(); ++i)
                        ag[i] = salt + static_cast<std::uint64_t>(rank) * 100u + i;
                    for (std::size_t i = 0; i < a2a.size(); ++i)
                        a2a[i] = salt + static_cast<std::uint64_t>(rank) * 1000u + i;
                    std::vector<std::uint64_t> redout(red.size());
                    ASSERT_EQ(MPI_Bcast(bc.data(), 5, MPI_UINT64_T, 1, MPI_COMM_WORLD),
                              MPI_SUCCESS);
                    ASSERT_EQ(MPI_Allreduce(red.data(), redout.data(), 7, MPI_UINT64_T, MPI_SUM,
                                            MPI_COMM_WORLD),
                              MPI_SUCCESS);
                    ASSERT_EQ(MPI_Allgather(ag.data(), 3, MPI_UINT64_T, agout.data(), 3,
                                            MPI_UINT64_T, MPI_COMM_WORLD),
                              MPI_SUCCESS);
                    ASSERT_EQ(MPI_Alltoall(a2a.data(), 2, MPI_UINT64_T, a2aout.data(), 2,
                                           MPI_UINT64_T, MPI_COMM_WORLD),
                              MPI_SUCCESS);
                    sink.insert(sink.end(), bc.begin(), bc.end());
                    sink.insert(sink.end(), redout.begin(), redout.end());
                    sink.insert(sink.end(), agout.begin(), agout.end());
                    sink.insert(sink.end(), a2aout.begin(), a2aout.end());
                }
                if (cache_on == 1) {
                    auto const s = stats_now();
                    EXPECT_GT(s.hits, 0u) << "rank " << rank;
                }
            });
            if (cache_on == 0) {
                reference = std::move(collected);
            } else {
                EXPECT_EQ(collected, reference) << "rpn=" << rpn;
            }
        }
    }
}

TEST(SchedCache, ControlEpochBumpEvicts) {
    CachePin const pin(1);
    TopoPin const topo(1);
    xmpi::run(2, [](int rank) {
        std::vector<int> in(4, rank), out(4);
        ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 4, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        // Any schedule-affecting control bump (an algorithm pin here)
        // invalidates cached schedules: the next identical call rebuilds.
        if (rank == 0) {
            // Rank-0-only control write is fine: the epoch is process-global.
            ASSERT_EQ(XMPI_T_alg_set("allreduce", "flat"), MPI_SUCCESS);
        }
        ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
        ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 4, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        auto const s = stats_now();
        EXPECT_EQ(s.hits, 0u);
        EXPECT_GE(s.evictions, 1u);
        EXPECT_EQ(out[0], 1);
        if (rank == 0) {
            ASSERT_EQ(XMPI_T_alg_set("allreduce", "auto"), MPI_SUCCESS);
        }
    });
    XMPI_T_alg_set("allreduce", "auto");
}

TEST(SchedCache, NonblockingReuseAfterCompletionNotWhileInFlight) {
    CachePin const pin(1);
    TopoPin const topo(1);
    xmpi::run(4, [](int rank) {
        std::vector<int> in(6, rank + 1), out(6);
        // Sequential i-variants with identical arguments: the second
        // re-arms the schedule the first released at completion.
        for (int round = 0; round < 2; ++round) {
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Iallreduce(in.data(), out.data(), 6, MPI_INT, MPI_SUM, MPI_COMM_WORLD,
                                     &req),
                      MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(out[0], 10);
        }
        auto const after_sequential = stats_now();
        EXPECT_EQ(after_sequential.builds, 1u);
        EXPECT_EQ(after_sequential.hits, 1u);

        // Two in flight at once with the *identical* signature: the first
        // takes the cached schedule, the second finds it busy (still
        // referenced by the in-flight request) and must build fresh — and
        // both must complete correctly (distinct sequence numbers keep
        // their traffic apart; they compute the same value into the same
        // output, which is what makes the overlap well-defined here).
        MPI_Request r1 = MPI_REQUEST_NULL, r2 = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iallreduce(in.data(), out.data(), 6, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r1),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Iallreduce(in.data(), out.data(), 6, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r2),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r1, MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r2, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(out[0], 10);
        auto const after_concurrent = stats_now();
        EXPECT_EQ(after_concurrent.builds, 2u);  // the busy entry was not reused
        EXPECT_EQ(after_concurrent.hits, 2u);    // ...but the idle first take hit
    });
}

TEST(SchedCache, DisabledCacheNeverHits) {
    CachePin const pin(0);
    TopoPin const topo(1);
    xmpi::run(2, [](int rank) {
        std::vector<int> in(4, rank), out(4);
        for (int round = 0; round < 3; ++round) {
            ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 4, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                      MPI_SUCCESS);
        }
        auto const s = stats_now();
        EXPECT_EQ(s.builds, 3u);
        EXPECT_EQ(s.hits, 0u);
    });
}

TEST(SchedCache, UserOpAndDerivedTypeAreNotCached) {
    // User handles can be freed and recreated at the same address; such
    // schedules must bypass the cache entirely.
    CachePin const pin(1);
    TopoPin const topo(1);
    xmpi::run(2, [](int rank) {
        MPI_Op op = MPI_OP_NULL;
        ASSERT_EQ(MPI_Op_create(
                      [](void* in, void* inout, int* len, MPI_Datatype*) {
                          for (int i = 0; i < *len; ++i)
                              static_cast<int*>(inout)[i] += static_cast<int*>(in)[i];
                      },
                      1, &op),
                  MPI_SUCCESS);
        std::vector<int> in(4, rank + 1), out(4);
        ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 4, MPI_INT, op, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 4, MPI_INT, op, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        MPI_Op_free(&op);
        MPI_Datatype pair = nullptr;
        ASSERT_EQ(MPI_Type_contiguous(2, MPI_INT, &pair), MPI_SUCCESS);
        ASSERT_EQ(MPI_Type_commit(&pair), MPI_SUCCESS);
        std::vector<int> buf(4, rank == 0 ? 7 : 0);
        ASSERT_EQ(MPI_Bcast(buf.data(), 2, pair, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        ASSERT_EQ(MPI_Bcast(buf.data(), 2, pair, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        MPI_Type_free(&pair);
        auto const s = stats_now();
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(out[0], 3);
        EXPECT_EQ(buf[0], 7);
    });
}

// ---------------------------------------------------------------------------
// Persistent gather/scatter(v): linear schedules restarted with fresh input
// contents per round, each round byte-identical to the per-round blocking
// reference. Counts/displacements are frozen at init (stack arrays passed
// to *_init may die immediately).
// ---------------------------------------------------------------------------

TEST(PersistentGatherScatter, GatherRestartSeesFreshContents) {
    xmpi::run(5, [](int rank) {
        int const root = 2;
        std::vector<int> send(3), recv(rank == root ? 15 : 0);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Gather_init(send.data(), 3, MPI_INT, recv.data(), 3, MPI_INT, root,
                                  MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 3; ++i) send[static_cast<std::size_t>(i)] = 100 * round + 10 * rank + i;
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            if (rank == root) {
                for (int r = 0; r < 5; ++r)
                    for (int i = 0; i < 3; ++i)
                        EXPECT_EQ(recv[static_cast<std::size_t>(3 * r + i)], 100 * round + 10 * r + i)
                            << "round " << round;
            }
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST(PersistentGatherScatter, GathervFrozenCountsAndDispls) {
    xmpi::run(4, [](int rank) {
        int const root = 1;
        int const counts[4] = {2, 0, 3, 1};
        // Deliberately gappy and out of order: rank 3's block first.
        int const displs[4] = {6, 9, 2, 0};
        std::vector<int> send(static_cast<std::size_t>(counts[rank]));
        std::vector<int> recv(rank == root ? 10 : 0, -1);
        MPI_Request req = MPI_REQUEST_NULL;
        {
            // Frozen at init: pass copies that die before the first start.
            std::vector<int> c(counts, counts + 4), d(displs, displs + 4);
            ASSERT_EQ(MPI_Gatherv_init(send.data(), counts[rank], MPI_INT, recv.data(), c.data(),
                                       d.data(), MPI_INT, root, MPI_COMM_WORLD, MPI_INFO_NULL,
                                       &req),
                      MPI_SUCCESS);
        }
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < counts[rank]; ++i)
                send[static_cast<std::size_t>(i)] = 1000 * round + 10 * rank + i;
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            if (rank == root) {
                for (int r = 0; r < 4; ++r)
                    for (int i = 0; i < counts[r]; ++i)
                        EXPECT_EQ(recv[static_cast<std::size_t>(displs[r] + i)],
                                  1000 * round + 10 * r + i)
                            << "round " << round << " rank " << r;
            }
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST(PersistentGatherScatter, ScatterAndScattervRestart) {
    xmpi::run(4, [](int rank) {
        int const root = 0;
        std::vector<int> send(rank == root ? 8 : 0);
        std::vector<int> recv(2, -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Scatter_init(send.data(), 2, MPI_INT, recv.data(), 2, MPI_INT, root,
                                   MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            if (rank == root)
                for (int i = 0; i < 8; ++i) send[static_cast<std::size_t>(i)] = 50 * round + i;
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(recv[0], 50 * round + 2 * rank);
            EXPECT_EQ(recv[1], 50 * round + 2 * rank + 1);
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);

        // Scatterv with uneven counts, restarted.
        int const counts[4] = {1, 3, 0, 2};
        int const displs[4] = {5, 0, 4, 3};  // out of order, overlapping gaps
        std::vector<int> vsend(rank == root ? 6 : 0);
        std::vector<int> vrecv(static_cast<std::size_t>(counts[rank]), -1);
        MPI_Request vreq = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Scatterv_init(vsend.data(), counts, displs, MPI_INT, vrecv.data(),
                                    counts[rank], MPI_INT, root, MPI_COMM_WORLD, MPI_INFO_NULL,
                                    &vreq),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            if (rank == root)
                for (int i = 0; i < 6; ++i) vsend[static_cast<std::size_t>(i)] = 7 * round + i;
            ASSERT_EQ(MPI_Start(&vreq), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&vreq, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int i = 0; i < counts[rank]; ++i)
                EXPECT_EQ(vrecv[static_cast<std::size_t>(i)], 7 * round + displs[rank] + i)
                    << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&vreq), MPI_SUCCESS);
    });
}

TEST(PersistentGatherScatter, InPlaceRootForms) {
    xmpi::run(3, [](int rank) {
        int const root = 1;
        // Gather with MPI_IN_PLACE on the root: the root's own block is
        // already in recv and must survive every restart.
        std::vector<int> send(2), recv(rank == root ? 6 : 0);
        MPI_Request req = MPI_REQUEST_NULL;
        if (rank == root) {
            ASSERT_EQ(MPI_Gather_init(MPI_IN_PLACE, 0, MPI_DATATYPE_NULL, recv.data(), 2, MPI_INT,
                                      root, MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                      MPI_SUCCESS);
        } else {
            ASSERT_EQ(MPI_Gather_init(send.data(), 2, MPI_INT, nullptr, 2, MPI_INT, root,
                                      MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                      MPI_SUCCESS);
        }
        for (int round = 0; round < 2; ++round) {
            if (rank == root) {
                recv[2] = 900 + round;  // own block, written in place
                recv[3] = 901 + round;
            } else {
                send[0] = 10 * rank + round;
                send[1] = 10 * rank + round + 1;
            }
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            if (rank == root) {
                EXPECT_EQ(recv[0], round);
                EXPECT_EQ(recv[2], 900 + round);
                EXPECT_EQ(recv[4], 20 + round);
            }
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}
