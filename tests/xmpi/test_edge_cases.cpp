/// @file test_edge_cases.cpp
/// @brief Substrate edge cases: zero-size transfers, nested derived types,
/// request management corner cases, communicator algebra, many concurrent
/// communicators, tag selectivity, and stress patterns.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

TEST(EdgeCases, ZeroSizeMessages) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            ASSERT_EQ(MPI_Send(nullptr, 0, MPI_INT, 1, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        } else {
            MPI_Status st;
            ASSERT_EQ(MPI_Recv(nullptr, 0, MPI_INT, 0, 0, MPI_COMM_WORLD, &st), MPI_SUCCESS);
            int count = -1;
            MPI_Get_count(&st, MPI_INT, &count);
            EXPECT_EQ(count, 0);
        }
    });
}

TEST(EdgeCases, ZeroCountCollectives) {
    xmpi::run(3, [](int) {
        std::vector<int> empty;
        std::vector<int> counts(3, 0), displs(3, 0);
        std::vector<int> recv;
        EXPECT_EQ(MPI_Allgatherv(empty.data(), 0, MPI_INT, recv.data(), counts.data(),
                                 displs.data(), MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        EXPECT_EQ(MPI_Alltoallv(empty.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                                counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
    });
}

// An out-of-range root is rejected with MPI_ERR_ROOT by every flavor of the
// rooted gather/scatter family, before any rank reads the root's group entry
// or communicates.
TEST(EdgeCases, InvalidRootRejectedByEveryGatherScatterFlavor) {
    xmpi::run(2, [](int) {
        std::vector<int> send(2, 1), recv(4, 0);
        int const counts[] = {2, 2};
        int const displs[] = {0, 2};
        for (int const root : {7, 2, -1}) {
            MPI_Request req = MPI_REQUEST_NULL;
            auto const s = send.data();
            auto const r = recv.data();
            EXPECT_EQ(MPI_Gather(s, 2, MPI_INT, r, 2, MPI_INT, root, MPI_COMM_WORLD), MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Gatherv(s, 2, MPI_INT, r, counts, displs, MPI_INT, root, MPI_COMM_WORLD),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Scatter(s, 2, MPI_INT, r, 2, MPI_INT, root, MPI_COMM_WORLD),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Scatterv(s, counts, displs, MPI_INT, r, 2, MPI_INT, root, MPI_COMM_WORLD),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Igather(s, 2, MPI_INT, r, 2, MPI_INT, root, MPI_COMM_WORLD, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Igatherv(s, 2, MPI_INT, r, counts, displs, MPI_INT, root,
                                   MPI_COMM_WORLD, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Iscatter(s, 2, MPI_INT, r, 2, MPI_INT, root, MPI_COMM_WORLD, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Iscatterv(s, counts, displs, MPI_INT, r, 2, MPI_INT, root,
                                    MPI_COMM_WORLD, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Gather_init(s, 2, MPI_INT, r, 2, MPI_INT, root, MPI_COMM_WORLD,
                                      MPI_INFO_NULL, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Gatherv_init(s, 2, MPI_INT, r, counts, displs, MPI_INT, root,
                                       MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Scatter_init(s, 2, MPI_INT, r, 2, MPI_INT, root, MPI_COMM_WORLD,
                                       MPI_INFO_NULL, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(MPI_Scatterv_init(s, counts, displs, MPI_INT, r, 2, MPI_INT, root,
                                        MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                      MPI_ERR_ROOT);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
        }
        // The communicator is still usable afterwards.
        EXPECT_EQ(MPI_Gather(send.data(), 2, MPI_INT, recv.data(), 2, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
    });
}

// An out-of-range destination is rejected with MPI_ERR_RANK before the send
// reads the destination's group entry; no request is handed out.
TEST(EdgeCases, IsendRejectsOutOfRangeDest) {
    xmpi::run(2, [](int rank) {
        int v = rank;
        for (int const dest : {2, 99, -5}) {
            MPI_Request req = MPI_REQUEST_NULL;
            EXPECT_EQ(MPI_Isend(&v, 1, MPI_INT, dest, 0, MPI_COMM_WORLD, &req), MPI_ERR_RANK)
                << "dest " << dest;
            EXPECT_EQ(req, MPI_REQUEST_NULL);
        }
        // The communicator is still usable afterwards.
        int got = -1;
        EXPECT_EQ(MPI_Sendrecv(&v, 1, MPI_INT, 1 - rank, 0, &got, 1, MPI_INT, 1 - rank, 0,
                               MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
        EXPECT_EQ(got, 1 - rank);
    });
}

// Probe and Iprobe validate `source` as MPI_Recv does: an out-of-range
// source is MPI_ERR_RANK (it used to index the group out of bounds), and
// MPI_PROC_NULL (-3) finds an empty message at once.
TEST(EdgeCases, ProbeAndIprobeValidateSource) {
    static_assert(MPI_PROC_NULL == -3);
    xmpi::run(2, [](int) {
        for (int const source : {42, 2, -5}) {
            MPI_Status st;
            int flag = -1;
            EXPECT_EQ(MPI_Probe(source, 0, MPI_COMM_WORLD, &st), MPI_ERR_RANK) << source;
            EXPECT_EQ(MPI_Iprobe(source, 0, MPI_COMM_WORLD, &flag, &st), MPI_ERR_RANK) << source;
        }
        MPI_Status st{};
        ASSERT_EQ(MPI_Probe(-3, 0, MPI_COMM_WORLD, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
        EXPECT_EQ(st.MPI_TAG, MPI_ANY_TAG);
        int count = -1;
        MPI_Get_count(&st, MPI_INT, &count);
        EXPECT_EQ(count, 0);
        int flag = 0;
        st = MPI_Status{};
        ASSERT_EQ(MPI_Iprobe(-3, 0, MPI_COMM_WORLD, &flag, &st), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
        MPI_Barrier(MPI_COMM_WORLD);
    });
}

TEST(EdgeCases, NestedDerivedTypes) {
    // vector of contiguous of int: every second pair from a 2-column matrix.
    xmpi::run(2, [](int rank) {
        MPI_Datatype pair_t, every_other;
        MPI_Type_contiguous(2, MPI_INT, &pair_t);
        MPI_Type_vector(3, 1, 2, pair_t, &every_other);
        MPI_Type_commit(&every_other);
        if (rank == 0) {
            std::vector<int> data(12);
            std::iota(data.begin(), data.end(), 0);  // pairs: (0,1) (2,3) ...
            MPI_Send(data.data(), 1, every_other, 1, 0, MPI_COMM_WORLD);
        } else {
            std::vector<int> recv(6, -1);
            MPI_Recv(recv.data(), 6, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(recv, (std::vector<int>{0, 1, 4, 5, 8, 9}));
        }
        MPI_Type_free(&every_other);
        MPI_Type_free(&pair_t);
    });
}

TEST(EdgeCases, TagSelectivityAcrossManyMessages) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            for (int t = 0; t < 20; ++t) {
                int const v = t * 100;
                MPI_Send(&v, 1, MPI_INT, 1, t, MPI_COMM_WORLD);
            }
        } else {
            // Receive in reverse tag order: matching must be by tag.
            for (int t = 19; t >= 0; --t) {
                int v = -1;
                MPI_Recv(&v, 1, MPI_INT, 0, t, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
                EXPECT_EQ(v, t * 100);
            }
        }
    });
}

TEST(EdgeCases, RequestFreeCancelsPostedRecv) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int v = 0;
            MPI_Request req;
            MPI_Irecv(&v, 1, MPI_INT, 1, 99, MPI_COMM_WORLD, &req);
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
            // The freed recv must not consume the later message on tag 1.
            MPI_Recv(&v, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v, 7);
        } else {
            int const v = 7;
            MPI_Send(&v, 1, MPI_INT, 0, 1, MPI_COMM_WORLD);
        }
    });
}

TEST(EdgeCases, TestallAndWaitsome) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int a = -1, b = -1;
            MPI_Request reqs[2];
            MPI_Irecv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &reqs[0]);
            MPI_Irecv(&b, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, &reqs[1]);
            int go = 1;
            MPI_Send(&go, 1, MPI_INT, 1, 5, MPI_COMM_WORLD);
            int outcount = 0;
            int indices[2];
            ASSERT_EQ(MPI_Waitsome(2, reqs, &outcount, indices, MPI_STATUSES_IGNORE),
                      MPI_SUCCESS);
            EXPECT_GE(outcount, 1);
            // Drain the rest.
            while (reqs[0] != MPI_REQUEST_NULL || reqs[1] != MPI_REQUEST_NULL) {
                int flag = 0;
                MPI_Testall(2, reqs, &flag, MPI_STATUSES_IGNORE);
                if (flag != 0) break;
            }
            EXPECT_EQ(a, 10);
            EXPECT_EQ(b, 11);
        } else {
            int go = 0;
            MPI_Recv(&go, 1, MPI_INT, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            int const x = 10, y = 11;
            MPI_Send(&x, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
            MPI_Send(&y, 1, MPI_INT, 0, 1, MPI_COMM_WORLD);
        }
    });
}

TEST(EdgeCases, ManySimultaneousCommunicators) {
    xmpi::run(4, [](int rank) {
        std::vector<MPI_Comm> comms(16);
        for (auto& c : comms) MPI_Comm_dup(MPI_COMM_WORLD, &c);
        // Interleave traffic across all of them; isolation must hold.
        for (std::size_t i = 0; i < comms.size(); ++i) {
            int v = rank + static_cast<int>(i);
            int sum = 0;
            MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, comms[i]);
            EXPECT_EQ(sum, 6 + 4 * static_cast<int>(i));
        }
        for (auto& c : comms) MPI_Comm_free(&c);
    });
}

TEST(EdgeCases, CommCompareSemantics) {
    xmpi::run(2, [](int rank) {
        MPI_Comm dup, reversed;
        MPI_Comm_dup(MPI_COMM_WORLD, &dup);
        MPI_Comm_split(MPI_COMM_WORLD, 0, -rank, &reversed);
        int r = -1;
        MPI_Comm_compare(MPI_COMM_WORLD, MPI_COMM_WORLD, &r);
        EXPECT_EQ(r, MPI_IDENT);
        MPI_Comm_compare(MPI_COMM_WORLD, dup, &r);
        EXPECT_EQ(r, MPI_CONGRUENT);
        MPI_Comm_compare(MPI_COMM_WORLD, reversed, &r);
        EXPECT_EQ(r, MPI_SIMILAR);
        MPI_Comm_free(&dup);
        MPI_Comm_free(&reversed);
    });
}

TEST(EdgeCases, LargeMessageIntegrity) {
    xmpi::run(2, [](int rank) {
        std::size_t const n = 1u << 20;  // 8 MB of uint64
        if (rank == 0) {
            std::vector<std::uint64_t> data(n);
            for (std::size_t i = 0; i < n; ++i) data[i] = i * 2654435761u;
            MPI_Send(data.data(), static_cast<int>(n), MPI_UINT64_T, 1, 0, MPI_COMM_WORLD);
        } else {
            std::vector<std::uint64_t> data(n, 0);
            MPI_Recv(data.data(), static_cast<int>(n), MPI_UINT64_T, 0, 0, MPI_COMM_WORLD,
                     MPI_STATUS_IGNORE);
            bool ok = true;
            for (std::size_t i = 0; i < n; ++i) ok = ok && data[i] == i * 2654435761u;
            EXPECT_TRUE(ok);
        }
    });
}

TEST(EdgeCases, StressManySmallMessagesInterleaved) {
    xmpi::run(4, [](int rank) {
        // Every rank sends 50 messages to every other rank with mixed tags;
        // receivers drain with wildcards and verify per-source ordering.
        int const kMsgs = 50;
        std::vector<MPI_Request> reqs;
        for (int peer = 0; peer < 4; ++peer) {
            if (peer == rank) continue;
            for (int i = 0; i < kMsgs; ++i) {
                int const v = rank * 1000 + i;
                MPI_Send(&v, 1, MPI_INT, peer, i % 3, MPI_COMM_WORLD);
            }
        }
        std::vector<int> next_from(4, 0);
        for (int got = 0; got < 3 * kMsgs; ++got) {
            int v = -1;
            MPI_Status st;
            MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &st);
            int const src = st.MPI_SOURCE;
            // Values from one source arrive in send order (non-overtaking is
            // per (src, tag); with ANY_TAG the first match in arrival order
            // is still monotonic per source here because sends are ordered).
            EXPECT_EQ(v, src * 1000 + next_from[static_cast<std::size_t>(src)]);
            ++next_from[static_cast<std::size_t>(src)];
        }
        (void)reqs;
    });
}
