/// @file test_collectives.cpp
/// @brief Every xmpi collective against a sequential oracle, across a sweep
/// of communicator sizes (powers of two and odd sizes exercise both the
/// recursive-doubling and composite code paths).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

class CollectiveP : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveP, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST_P(CollectiveP, Barrier) {
    xmpi::run(GetParam(), [](int) { ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS); });
}

TEST_P(CollectiveP, BcastFromEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> data(16, rank == root ? root + 1 : -1);
            ASSERT_EQ(MPI_Bcast(data.data(), 16, MPI_INT, root, MPI_COMM_WORLD), MPI_SUCCESS);
            for (int v : data) EXPECT_EQ(v, root + 1);
        }
    });
}

TEST_P(CollectiveP, GatherToEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> send{rank * 2, rank * 2 + 1};
            std::vector<int> recv(static_cast<std::size_t>(2 * p), -1);
            ASSERT_EQ(MPI_Gather(send.data(), 2, MPI_INT, recv.data(), 2, MPI_INT, root,
                                 MPI_COMM_WORLD),
                      MPI_SUCCESS);
            if (rank == root) {
                for (int i = 0; i < 2 * p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i);
            }
        }
    });
}

TEST_P(CollectiveP, GathervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Rank r contributes r+1 copies of r.
        std::vector<int> send(static_cast<std::size_t>(rank + 1), rank);
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i + 1;
            displs[static_cast<std::size_t>(i)] = total;
            total += i + 1;
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Gatherv(send.data(), rank + 1, MPI_INT, recv.data(), counts.data(),
                              displs.data(), MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            std::size_t k = 0;
            for (int i = 0; i < p; ++i) {
                for (int j = 0; j <= i; ++j) {
                    EXPECT_EQ(recv[k++], i);
                }
            }
        }
    });
}

TEST_P(CollectiveP, ScatterFromRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(3 * p));
            std::iota(send.begin(), send.end(), 0);
        }
        std::vector<int> recv(3, -1);
        ASSERT_EQ(MPI_Scatter(send.data(), 3, MPI_INT, recv.data(), 3, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int j = 0; j < 3; ++j) EXPECT_EQ(recv[static_cast<std::size_t>(j)], rank * 3 + j);
    });
}

TEST_P(CollectiveP, ScattervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i % 3;
            displs[static_cast<std::size_t>(i)] = total;
            total += i % 3;
        }
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(total));
            std::iota(send.begin(), send.end(), 100);
        }
        std::vector<int> recv(static_cast<std::size_t>(rank % 3), -1);
        ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                               rank % 3, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int j = 0; j < rank % 3; ++j)
            EXPECT_EQ(recv[static_cast<std::size_t>(j)], 100 + displs[static_cast<std::size_t>(rank)] + j);
    });
}

TEST_P(CollectiveP, ScattervEmptySegments) {
    int const p = GetParam();
    // Every odd rank (and the root) receives nothing; counts of 0 must
    // neither send garbage nor desynchronize the pattern.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = (i % 2 == 0 && i != 0) ? 2 : 0;
            displs[static_cast<std::size_t>(i)] = total;
            total += counts[static_cast<std::size_t>(i)];
        }
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(total));
            std::iota(send.begin(), send.end(), 500);
        }
        int const mine = counts[static_cast<std::size_t>(rank)];
        std::vector<int> recv(static_cast<std::size_t>(mine), -1);
        ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                               mine, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int j = 0; j < mine; ++j)
            EXPECT_EQ(recv[static_cast<std::size_t>(j)],
                      500 + displs[static_cast<std::size_t>(rank)] + j);
    });
}

TEST_P(CollectiveP, GathervEmptySegments) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int const mine = rank % 2;  // odd ranks contribute one element
        std::vector<int> send(static_cast<std::size_t>(mine), rank + 40);
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i % 2;
            displs[static_cast<std::size_t>(i)] = total;
            total += i % 2;
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Gatherv(send.data(), mine, MPI_INT, recv.data(), counts.data(),
                              displs.data(), MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            for (int i = 0; i < p; ++i) {
                if (i % 2 == 0) continue;
                EXPECT_EQ(recv[static_cast<std::size_t>(displs[static_cast<std::size_t>(i)])],
                          i + 40);
            }
        }
    });
}

TEST_P(CollectiveP, ScattervOverlappingSourceSegmentsOnRoot) {
    int const p = GetParam();
    // Scatterv only reads the root's send buffer, so several destination
    // ranks may legally be served from the same (overlapping) region.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p), 3);
        std::vector<int> displs(static_cast<std::size_t>(p), 0);  // all overlap at offset 0
        std::vector<int> send;
        if (rank == 0) send = {11, 22, 33, 44};
        std::vector<int> recv(3, -1);
        ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(), 3,
                               MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        EXPECT_EQ(recv[0], 11);
        EXPECT_EQ(recv[1], 22);
        EXPECT_EQ(recv[2], 33);
    });
}

TEST_P(CollectiveP, GathervReversedDisplacementsOnRoot) {
    int const p = GetParam();
    // Non-monotone displacements: rank i's segment lands at slot p-1-i.
    xmpi::run(p, [p](int rank) {
        int const mine = rank + 1000;
        std::vector<int> counts(static_cast<std::size_t>(p), 1);
        std::vector<int> displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = p - 1 - i;
        std::vector<int> recv(static_cast<std::size_t>(p), -1);
        ASSERT_EQ(MPI_Gatherv(&mine, 1, MPI_INT, recv.data(), counts.data(), displs.data(),
                              MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            for (int i = 0; i < p; ++i)
                EXPECT_EQ(recv[static_cast<std::size_t>(p - 1 - i)], i + 1000);
        }
    });
}

TEST_P(CollectiveP, ScattervInPlaceOnRoot) {
    int const p = GetParam();
    // MPI_IN_PLACE as the root's recvbuf: the root's own segment stays in
    // the send buffer untouched.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p), 2), displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = 2 * i;
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(2 * p));
            std::iota(send.begin(), send.end(), 0);
        }
        if (rank == 0) {
            ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT,
                                   MPI_IN_PLACE, 2, MPI_INT, 0, MPI_COMM_WORLD),
                      MPI_SUCCESS);
            EXPECT_EQ(send[0], 0);
            EXPECT_EQ(send[1], 1);
        } else {
            std::vector<int> recv(2, -1);
            ASSERT_EQ(MPI_Scatterv(nullptr, nullptr, nullptr, MPI_INT, recv.data(), 2, MPI_INT, 0,
                                   MPI_COMM_WORLD),
                      MPI_SUCCESS);
            EXPECT_EQ(recv[0], 2 * rank);
            EXPECT_EQ(recv[1], 2 * rank + 1);
        }
    });
}

TEST_P(CollectiveP, GathervInPlaceOnRoot) {
    int const p = GetParam();
    // MPI_IN_PLACE as the root's sendbuf: the root's contribution is
    // already in place in the receive buffer.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p), 1), displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i;
        if (rank == 0) {
            std::vector<int> recv(static_cast<std::size_t>(p), -1);
            recv[0] = 70;  // root's own contribution, pre-placed
            ASSERT_EQ(MPI_Gatherv(MPI_IN_PLACE, 0, MPI_DATATYPE_NULL, recv.data(), counts.data(),
                                  displs.data(), MPI_INT, 0, MPI_COMM_WORLD),
                      MPI_SUCCESS);
            for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i + 70);
        } else {
            int const mine = rank + 70;
            ASSERT_EQ(MPI_Gatherv(&mine, 1, MPI_INT, nullptr, nullptr, nullptr, MPI_INT, 0,
                                  MPI_COMM_WORLD),
                      MPI_SUCCESS);
        }
    });
}

TEST_P(CollectiveP, AllgatherUniform) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<long> send{rank * 10L, rank * 10L + 1};
        std::vector<long> recv(static_cast<std::size_t>(2 * p), -1);
        ASSERT_EQ(
            MPI_Allgather(send.data(), 2, MPI_LONG, recv.data(), 2, MPI_LONG, MPI_COMM_WORLD),
            MPI_SUCCESS);
        for (int i = 0; i < p; ++i) {
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i)], i * 10L);
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i + 1)], i * 10L + 1);
        }
    });
}

TEST_P(CollectiveP, AllgatherInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> buf(static_cast<std::size_t>(p), -1);
        buf[static_cast<std::size_t>(rank)] = rank + 7;
        ASSERT_EQ(MPI_Allgather(MPI_IN_PLACE, 0, MPI_DATATYPE_NULL, buf.data(), 1, MPI_INT,
                                MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i)], i + 7);
    });
}

TEST_P(CollectiveP, AllgathervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(rank % 4 + 1), rank);
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i % 4 + 1;
            displs[static_cast<std::size_t>(i)] = total;
            total += counts[static_cast<std::size_t>(i)];
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Allgatherv(send.data(), static_cast<int>(send.size()), MPI_INT, recv.data(),
                                 counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        std::size_t k = 0;
        for (int i = 0; i < p; ++i) {
            for (int j = 0; j < i % 4 + 1; ++j) {
                EXPECT_EQ(recv[k++], i);
            }
        }
    });
}

TEST_P(CollectiveP, AlltoallUniform) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) send[static_cast<std::size_t>(i)] = rank * 100 + i;
        std::vector<int> recv(static_cast<std::size_t>(p), -1);
        ASSERT_EQ(MPI_Alltoall(send.data(), 1, MPI_INT, recv.data(), 1, MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * 100 + rank);
    });
}

TEST_P(CollectiveP, AlltoallvTriangular) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Rank r sends i+1 copies of (r*1000 + i) to rank i.
        std::vector<int> scounts(static_cast<std::size_t>(p)), sdispls(static_cast<std::size_t>(p));
        int stotal = 0;
        for (int i = 0; i < p; ++i) {
            scounts[static_cast<std::size_t>(i)] = i + 1;
            sdispls[static_cast<std::size_t>(i)] = stotal;
            stotal += i + 1;
        }
        std::vector<int> send(static_cast<std::size_t>(stotal));
        for (int i = 0; i < p; ++i)
            for (int j = 0; j <= i; ++j)
                send[static_cast<std::size_t>(sdispls[static_cast<std::size_t>(i)] + j)] =
                    rank * 1000 + i;
        std::vector<int> rcounts(static_cast<std::size_t>(p), rank + 1);
        std::vector<int> rdispls(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) rdispls[static_cast<std::size_t>(i)] = i * (rank + 1);
        std::vector<int> recv(static_cast<std::size_t>(p * (rank + 1)), -1);
        ASSERT_EQ(MPI_Alltoallv(send.data(), scounts.data(), sdispls.data(), MPI_INT, recv.data(),
                                rcounts.data(), rdispls.data(), MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int i = 0; i < p; ++i) {
            for (int j = 0; j <= rank; ++j) {
                EXPECT_EQ(recv[static_cast<std::size_t>(i * (rank + 1) + j)], i * 1000 + rank);
            }
        }
    });
}

TEST_P(CollectiveP, ReduceSumToEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> send(8);
            for (int i = 0; i < 8; ++i) send[static_cast<std::size_t>(i)] = rank + i;
            std::vector<int> recv(8, -1);
            ASSERT_EQ(
                MPI_Reduce(send.data(), recv.data(), 8, MPI_INT, MPI_SUM, root, MPI_COMM_WORLD),
                MPI_SUCCESS);
            if (rank == root) {
                int const ranksum = p * (p - 1) / 2;
                for (int i = 0; i < 8; ++i) {
                    EXPECT_EQ(recv[static_cast<std::size_t>(i)], ranksum + p * i);
                }
            }
        }
    });
}

TEST_P(CollectiveP, AllreduceMinMax) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        double v = 100.0 - rank;
        double mn = 0, mx = 0;
        ASSERT_EQ(MPI_Allreduce(&v, &mn, 1, MPI_DOUBLE, MPI_MIN, MPI_COMM_WORLD), MPI_SUCCESS);
        ASSERT_EQ(MPI_Allreduce(&v, &mx, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD), MPI_SUCCESS);
        EXPECT_DOUBLE_EQ(mn, 100.0 - (p - 1));
        EXPECT_DOUBLE_EQ(mx, 100.0);
    });
}

TEST_P(CollectiveP, AllreduceInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> buf(4, rank + 1);
        ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, buf.data(), 4, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int v : buf) EXPECT_EQ(v, p * (p + 1) / 2);
    });
}

namespace {
/// 2x2 int64 matrix product c = a * b (associative, non-commutative).
void matmul2(long long const* a, long long const* b, long long* c) {
    c[0] = a[0] * b[0] + a[1] * b[2];
    c[1] = a[0] * b[1] + a[1] * b[3];
    c[2] = a[2] * b[0] + a[3] * b[2];
    c[3] = a[2] * b[1] + a[3] * b[3];
}
}  // namespace

TEST_P(CollectiveP, AllreduceUserOpNonCommutative) {
    int const p = GetParam();
    // Matrix multiplication is associative but not commutative; the result
    // must equal the rank-ordered product M_0 * M_1 * ... * M_{p-1}.
    xmpi::run(p, [p](int rank) {
        MPI_Op op;
        ASSERT_EQ(MPI_Op_create(
                      [](void* in, void* inout, int* len, MPI_Datatype*) {
                          auto* a = static_cast<long long*>(in);     // left operand
                          auto* b = static_cast<long long*>(inout);  // right operand
                          for (int i = 0; i + 3 < *len; i += 4) {
                              long long c[4];
                              matmul2(a + i, b + i, c);
                              for (int j = 0; j < 4; ++j) b[i + j] = c[j];
                          }
                      },
                      /*commute=*/0, &op),
                  MPI_SUCCESS);
        long long mine[4] = {rank + 1, 1, 0, 1};
        long long out[4] = {0, 0, 0, 0};
        ASSERT_EQ(MPI_Allreduce(mine, out, 4, MPI_INT64_T, op, MPI_COMM_WORLD), MPI_SUCCESS);
        long long expect[4] = {1, 1, 0, 1};
        for (int i = 1; i < p; ++i) {
            long long m[4] = {i + 1, 1, 0, 1};
            long long c[4];
            matmul2(expect, m, c);
            for (int j = 0; j < 4; ++j) expect[j] = c[j];
        }
        for (int j = 0; j < 4; ++j) EXPECT_EQ(out[j], expect[j]);
        MPI_Op_free(&op);
    });
}

TEST_P(CollectiveP, ScanPrefixSums) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        int v = rank + 1;
        int out = -1;
        ASSERT_EQ(MPI_Scan(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        EXPECT_EQ(out, (rank + 1) * (rank + 2) / 2);
    });
}

TEST_P(CollectiveP, ExscanPrefixSums) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        int v = rank + 1;
        int out = -1;
        ASSERT_EQ(MPI_Exscan(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        if (rank > 0) {
            EXPECT_EQ(out, rank * (rank + 1) / 2);
        }
    });
}

TEST_P(CollectiveP, ReduceScatterBlock) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(2 * p));
        for (int i = 0; i < 2 * p; ++i) send[static_cast<std::size_t>(i)] = rank + i;
        std::vector<int> recv(2, -1);
        ASSERT_EQ(MPI_Reduce_scatter_block(send.data(), recv.data(), 2, MPI_INT, MPI_SUM,
                                           MPI_COMM_WORLD),
                  MPI_SUCCESS);
        int const ranksum = p * (p - 1) / 2;
        EXPECT_EQ(recv[0], ranksum + p * (2 * rank));
        EXPECT_EQ(recv[1], ranksum + p * (2 * rank + 1));
    });
}

TEST_P(CollectiveP, IbarrierCompletes) {
    int const p = GetParam();
    xmpi::run(p, [](int) {
        MPI_Request req;
        ASSERT_EQ(MPI_Ibarrier(MPI_COMM_WORLD, &req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, IbarrierViaTestLoop) {
    int const p = GetParam();
    xmpi::run(p, [](int) {
        MPI_Request req;
        ASSERT_EQ(MPI_Ibarrier(MPI_COMM_WORLD, &req), MPI_SUCCESS);
        int flag = 0;
        while (flag == 0) {
            ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        }
    });
}

TEST(Collective, ConcurrentCollectivesOnDifferentComms) {
    xmpi::run(4, [](int rank) {
        MPI_Comm half;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, rank % 2, rank, &half), MPI_SUCCESS);
        int v = rank;
        int sum_half = 0, sum_world = 0;
        MPI_Allreduce(&v, &sum_half, 1, MPI_INT, MPI_SUM, half);
        MPI_Allreduce(&v, &sum_world, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
        EXPECT_EQ(sum_world, 6);
        EXPECT_EQ(sum_half, rank % 2 == 0 ? 2 : 4);
        MPI_Comm_free(&half);
    });
}

TEST(Collective, BcastLatencyIsLogarithmic) {
    // Under the cost model, a binomial bcast of 1 byte over p ranks costs
    // ~ceil(log2 p) * alpha on the critical path, not p * alpha. Pin the
    // binomial algorithm: the property being asserted is its tree shape,
    // independent of a forced XMPI_ALG_BCAST environment.
    ASSERT_EQ(XMPI_T_alg_set("bcast", "binomial"), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_topo_set(1), MPI_SUCCESS);  // flat: single-tier latency
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;  // isolate the network terms from CPU noise
    auto t8 = xmpi::run(
        8,
        [](int) {
            char c = 1;
            MPI_Bcast(&c, 1, MPI_CHAR, 0, MPI_COMM_WORLD);
        },
        cfg);
    auto t64 = xmpi::run(
        64,
        [](int) {
            char c = 1;
            MPI_Bcast(&c, 1, MPI_CHAR, 0, MPI_COMM_WORLD);
        },
        cfg);
    ASSERT_EQ(XMPI_T_alg_set("bcast", "auto"), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_topo_set(0), MPI_SUCCESS);
    // log2 ratio is 2x, allow generous slack for compute noise.
    EXPECT_LT(t64.max_vtime, t8.max_vtime * 4.0);
}

// ---------------------------------------------------------------------------
// Non-blocking collectives: every MPI_I* against the same oracles as its
// blocking counterpart, plus completion-order robustness.
// ---------------------------------------------------------------------------

TEST_P(CollectiveP, IbcastFromEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> data(16, rank == root ? root + 1 : -1);
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Ibcast(data.data(), 16, MPI_INT, root, MPI_COMM_WORLD, &req),
                      MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int v : data) EXPECT_EQ(v, root + 1);
        }
    });
}

TEST_P(CollectiveP, IgatherMatchesOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send{rank * 2, rank * 2 + 1};
        std::vector<int> recv(static_cast<std::size_t>(2 * p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Igather(send.data(), 2, MPI_INT, recv.data(), 2, MPI_INT, 0, MPI_COMM_WORLD,
                              &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        if (rank == 0) {
            for (int i = 0; i < 2 * p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i);
        }
    });
}

TEST_P(CollectiveP, IscattervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send, counts(static_cast<std::size_t>(p)),
            displs(static_cast<std::size_t>(p));
        if (rank == 0) {
            int off = 0;
            for (int i = 0; i < p; ++i) {
                counts[static_cast<std::size_t>(i)] = i + 1;
                displs[static_cast<std::size_t>(i)] = off;
                for (int j = 0; j <= i; ++j) send.push_back(i);
                off += i + 1;
            }
        }
        std::vector<int> recv(static_cast<std::size_t>(rank + 1), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iscatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                                rank + 1, MPI_INT, 0, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        for (int v : recv) EXPECT_EQ(v, rank);
    });
}

TEST_P(CollectiveP, IallgatherMatchesOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int const mine = rank + 7;
        std::vector<int> recv(static_cast<std::size_t>(p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(
            MPI_Iallgather(&mine, 1, MPI_INT, recv.data(), 1, MPI_INT, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i + 7);
    });
}

TEST_P(CollectiveP, IalltoallvMatchesOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Rank r sends one element (r*p + dest) to every destination.
        std::vector<int> send(static_cast<std::size_t>(p)), recv(static_cast<std::size_t>(p), -1);
        std::vector<int> counts(static_cast<std::size_t>(p), 1), displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            send[static_cast<std::size_t>(i)] = rank * p + i;
            displs[static_cast<std::size_t>(i)] = i;
        }
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Ialltoallv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                                 counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * p + rank);
    });
}

TEST_P(CollectiveP, IreduceAndIallreduceMatchOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int const mine = rank + 1;
        int reduced = -1, allreduced = -1;
        MPI_Request r1 = MPI_REQUEST_NULL, r2 = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Ireduce(&mine, &reduced, 1, MPI_INT, MPI_SUM, 0, MPI_COMM_WORLD, &r1),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Iallreduce(&mine, &allreduced, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r2),
                  MPI_SUCCESS);
        MPI_Request reqs[2] = {r1, r2};
        ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
        int const expect = p * (p + 1) / 2;
        if (rank == 0) EXPECT_EQ(reduced, expect);
        EXPECT_EQ(allreduced, expect);
    });
}

TEST_P(CollectiveP, IscanAndIexscanMatchOracle) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        int const mine = rank + 1;
        int incl = -1, excl = -1;
        MPI_Request r1 = MPI_REQUEST_NULL, r2 = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iscan(&mine, &incl, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r1), MPI_SUCCESS);
        ASSERT_EQ(MPI_Iexscan(&mine, &excl, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r2),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r1, MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r2, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(incl, (rank + 1) * (rank + 2) / 2);
        if (rank > 0) EXPECT_EQ(excl, rank * (rank + 1) / 2);
    });
}

// Blocking and nonblocking scans share one schedule, so they bracket the
// additions identically and give the same floating-point result. With the
// inputs {1e16, 1, -1e16, 1}, rank 3 gets (1e16 + 1) + (-1e16 + 1) = 0 under
// the Hillis–Steele bracketing, but ((1e16 + 1) + -1e16) + 1 = 1 under a
// left fold, because 1e16 + 1 rounds back to 1e16.
TEST(Collective, ScanAndIscanAgreeInFloatingPoint) {
    xmpi::run(4, [](int rank) {
        double const in[] = {1e16, 1.0, -1e16, 1.0};
        double const mine = in[rank];
        double scanned = -1, iscanned = -1, exscanned = -1, iexscanned = -1;
        ASSERT_EQ(MPI_Scan(&mine, &scanned, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        ASSERT_EQ(MPI_Exscan(&mine, &exscanned, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        MPI_Request reqs[2];
        ASSERT_EQ(MPI_Iscan(&mine, &iscanned, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD, &reqs[0]),
                  MPI_SUCCESS);
        ASSERT_EQ(
            MPI_Iexscan(&mine, &iexscanned, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD, &reqs[1]),
            MPI_SUCCESS);
        ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(iscanned, scanned) << "rank " << rank;
        if (rank > 0) {
            EXPECT_EQ(iexscanned, exscanned) << "rank " << rank;
        }
        if (rank == 3) {
            EXPECT_EQ(scanned, (in[0] + in[1]) + (in[2] + in[3]));
        }
    });
}

TEST_P(CollectiveP, NonblockingCollectivesCompleteOutOfOrder) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Initiate two collectives, wait for the second before the first.
        std::vector<int> a(static_cast<std::size_t>(p), -1);
        int const mine = rank;
        int sum = -1;
        MPI_Request r1 = MPI_REQUEST_NULL, r2 = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iallgather(&mine, 1, MPI_INT, a.data(), 1, MPI_INT, MPI_COMM_WORLD, &r1),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Iallreduce(&mine, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r2),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r2, MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r1, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(sum, p * (p - 1) / 2);
        for (int i = 0; i < p; ++i) EXPECT_EQ(a[static_cast<std::size_t>(i)], i);
    });
}

TEST_P(CollectiveP, IallreduceInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int value = rank + 1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iallreduce(MPI_IN_PLACE, &value, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(value, p * (p + 1) / 2);
    });
}

// ---------------------------------------------------------------------------
// Persistent collectives (MPI_*_init + MPI_Start): restartable schedules
// with selection frozen at init. Input buffers are re-read on every start.
// ---------------------------------------------------------------------------

TEST_P(CollectiveP, BarrierInitRestarts) {
    int const p = GetParam();
    xmpi::run(p, [](int) {
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Barrier_init(MPI_COMM_WORLD, MPI_INFO_NULL, &req), MPI_SUCCESS);
        for (int round = 0; round < 4; ++round) {
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            ASSERT_NE(req, MPI_REQUEST_NULL);
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, BcastInitRereadsRootBufferEachStart) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        std::vector<int> buf(8, -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Bcast_init(buf.data(), 8, MPI_INT, 0, MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            // Root rewrites the bound buffer per round; non-roots clobber it
            // so stale contents cannot masquerade as a fresh broadcast.
            std::fill(buf.begin(), buf.end(), rank == 0 ? round * 7 + 1 : -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int v : buf) EXPECT_EQ(v, round * 7 + 1) << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AllreduceInitRestartsWithFreshInputs) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<long long> send(5), recv(5, -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(send.data(), recv.data(), 5, MPI_INT64_T, MPI_SUM,
                                     MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 5; ++i)
                send[static_cast<std::size_t>(i)] = (round + 1) * (rank + 1) + i;
            std::fill(recv.begin(), recv.end(), -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int i = 0; i < 5; ++i) {
                long long expect = 0;
                for (int r = 0; r < p; ++r) expect += (round + 1) * (r + 1) + i;
                EXPECT_EQ(recv[static_cast<std::size_t>(i)], expect)
                    << "round " << round << " i " << i;
            }
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AllreduceInitInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int value = 0;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(MPI_IN_PLACE, &value, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD,
                                     MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 1; round <= 3; ++round) {
            value = round * (rank + 1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(value, round * p * (p + 1) / 2) << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, ReduceInitToNonzeroRoot) {
    int const p = GetParam();
    int const root = p - 1;
    xmpi::run(p, [p, root](int rank) {
        int v = 0, out = -1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Reduce_init(&v, &out, 1, MPI_INT, MPI_SUM, root, MPI_COMM_WORLD,
                                  MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 1; round <= 3; ++round) {
            v = round + rank;
            out = -1;
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            if (rank == root) EXPECT_EQ(out, p * round + p * (p - 1) / 2) << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AllgatherInitRereadsSendBuffer) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(3), recv(static_cast<std::size_t>(3 * p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allgather_init(send.data(), 3, MPI_INT, recv.data(), 3, MPI_INT,
                                     MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 3; ++i) send[static_cast<std::size_t>(i)] = 100 * round + 10 * rank + i;
            std::fill(recv.begin(), recv.end(), -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int r = 0; r < p; ++r)
                for (int i = 0; i < 3; ++i)
                    EXPECT_EQ(recv[static_cast<std::size_t>(3 * r + i)], 100 * round + 10 * r + i)
                        << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AlltoallInitRestarts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(p)), recv(static_cast<std::size_t>(p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Alltoall_init(send.data(), 1, MPI_INT, recv.data(), 1, MPI_INT,
                                    MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int d = 0; d < p; ++d)
                send[static_cast<std::size_t>(d)] = 1000 * round + 10 * rank + d;
            std::fill(recv.begin(), recv.end(), -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int s = 0; s < p; ++s)
                EXPECT_EQ(recv[static_cast<std::size_t>(s)], 1000 * round + 10 * s + rank)
                    << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST(PersistentCollective, SelectionFrozenAtInit) {
    // Pinning a different algorithm after init must not affect a live
    // persistent operation: the schedule was materialized at init time.
    XMPI_T_topo_set(1);
    ASSERT_EQ(XMPI_T_alg_set("allreduce", "binomial"), MPI_SUCCESS);
    xmpi::run(4, [](int rank) {
        int v = 0, out = -1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, MPI_INFO_NULL,
                                     &req),
                  MPI_SUCCESS);
        char const* selected = nullptr;
        ASSERT_EQ(XMPI_T_alg_selected("allreduce", &selected), MPI_SUCCESS);
        EXPECT_STREQ(selected, "binomial");
        // Every rank must have frozen its schedule before the (global) pin
        // changes, otherwise ranks would init mismatched algorithms.
        MPI_Barrier(MPI_COMM_WORLD);
        // Re-pin mid-life: the live request keeps its frozen binomial
        // schedule and must stay correct across restarts.
        if (rank == 0) XMPI_T_alg_set("allreduce", "flat");
        MPI_Barrier(MPI_COMM_WORLD);
        for (int round = 1; round <= 3; ++round) {
            v = round * (rank + 1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(out, round * 10);  // 1+2+3+4 = 10
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
    XMPI_T_alg_set("allreduce", "auto");
    XMPI_T_topo_set(0);
}

TEST(PersistentCollective, TwoOutstandingPersistentOpsInterleave) {
    // Two persistent collectives on the same communicator, started in the
    // same order by every rank, must not cross-match (distinct frozen
    // sequence numbers).
    xmpi::run(3, [](int rank) {
        int a = 0, asum = -1;
        std::vector<int> bbuf(4, -1);
        MPI_Request ra = MPI_REQUEST_NULL, rb = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(&a, &asum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD,
                                     MPI_INFO_NULL, &ra),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Bcast_init(bbuf.data(), 4, MPI_INT, 0, MPI_COMM_WORLD, MPI_INFO_NULL, &rb),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            a = rank + round;
            std::fill(bbuf.begin(), bbuf.end(), rank == 0 ? 5 * round : -1);
            // Start both before completing either.
            MPI_Request both[2] = {ra, rb};
            ASSERT_EQ(MPI_Startall(2, both), MPI_SUCCESS);
            ASSERT_EQ(MPI_Waitall(2, both, MPI_STATUSES_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(asum, 3 * round + 3);  // 0+1+2 + 3*round
            for (int v : bbuf) EXPECT_EQ(v, 5 * round);
        }
        ASSERT_EQ(MPI_Request_free(&ra), MPI_SUCCESS);
        ASSERT_EQ(MPI_Request_free(&rb), MPI_SUCCESS);
    });
}

TEST(PersistentCollective, FreeWhileStartedDrivesToCompletion) {
    xmpi::run(4, [](int rank) {
        int v = rank, out = -1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, MPI_INFO_NULL,
                                     &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        // Freeing a started persistent collective first drives it to
        // completion on every rank (so peers cannot deadlock).
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        EXPECT_EQ(out, 6);
    });
}
