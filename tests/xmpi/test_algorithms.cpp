/// @file test_algorithms.cpp
/// @brief Property-based cross-algorithm equivalence: for randomized
/// communicator sizes (power-of-two and not), message lengths (including 0
/// and lengths not divisible by p), datatypes and roots, every registered
/// algorithm of every collective family must produce byte-identical results
/// to the flat reference — in three execution flavors: blocking, i-variant
/// (driven to completion via kamping::RequestPool::test_all()), and
/// *persistent* (MPI_*_init restarted kPersistRounds times through one
/// request, with fresh input contents every round — catching stale-scratch
/// and missing-re-snapshot bugs). Commutative and non-commutative reductions
/// included. The fixed-shape families (barrier, gather(v), scatter(v),
/// allgatherv, alltoallv/w, scan/exscan) are compared flavor against flavor
/// and against closed-form oracles on ragged count vectors. Failures log the
/// seed; replay with XMPI_TEST_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "../testing_utils.hpp"
#include "kamping/request.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace {

using testing_utils::SeededRng;

std::vector<std::string> list_algorithms(char const* family) {
    char buf[256];
    EXPECT_EQ(XMPI_T_alg_list(family, buf, sizeof buf), MPI_SUCCESS);
    std::vector<std::string> names;
    std::string cur;
    for (char const* c = buf;; ++c) {
        if (*c == ',' || *c == '\0') {
            names.push_back(cur);
            cur.clear();
            if (*c == '\0') break;
        } else {
            cur.push_back(*c);
        }
    }
    return names;
}

/// Pins `alg` for `family` around `fn` and restores automatic selection.
template <typename Fn>
auto with_alg(char const* family, std::string const& alg, Fn&& fn) {
    EXPECT_EQ(XMPI_T_alg_set(family, alg.c_str()), MPI_SUCCESS);
    auto result = fn();
    EXPECT_EQ(XMPI_T_alg_set(family, "auto"), MPI_SUCCESS);
    return result;
}

using testing_utils::TopoPin;

/// Node shapes the equivalence trials randomize over: flat, several block
/// widths (ragged last node whenever p % rpn != 0), and everything-on-one-
/// node. Results must be byte-identical under every one of them.
int const kNodeShapes[] = {1, 2, 3, 4, 64};

/// Completes `req` through a kamping request pool's test_all() loop — the
/// i-variants must make progress purely from repeated non-blocking tests.
void drive(MPI_Request req) {
    kamping::RequestPool pool;
    pool.add(req);
    while (!pool.test_all()) {
    }
}

/// Execution flavors every (family, algorithm, node-shape) case runs in.
enum class Exec { block, nb, persist };
Exec const kExecModes[] = {Exec::block, Exec::nb, Exec::persist};

char const* mode_name(Exec m) {
    return m == Exec::block ? "blocking" : m == Exec::nb ? "nonblocking" : "persistent";
}

/// Restart count of the persistent flavor: every round rewrites the bound
/// input buffers (salt + round), so a schedule that fails to re-snapshot or
/// re-arm scratch produces a previous round's bytes and diverges.
int const kPersistRounds = 3;

template <typename T>
using PerRank = std::vector<std::vector<T>>;

/// Reference for the persistent flavor: the per-round flat blocking results,
/// concatenated per rank in round order (the persistent runners append each
/// round's output the same way).
template <typename T, typename OneRound>
PerRank<T> persist_ref(OneRound&& one_round, unsigned salt) {
    PerRank<T> out;
    for (int k = 0; k < kPersistRounds; ++k) {
        auto const round = one_round(salt + static_cast<unsigned>(k));
        if (out.empty()) out.resize(round.size());
        for (std::size_t i = 0; i < round.size(); ++i)
            out[i].insert(out[i].end(), round[i].begin(), round[i].end());
    }
    return out;
}

// Each case runs one collective on a fresh universe and returns every
// rank's result buffer. Inputs are deterministic in (salt, rank, index) so
// repeated runs under different algorithms see identical operands.

template <typename T>
PerRank<T> bcast_case(int p, int count, MPI_Datatype dt, int root, Exec mode, unsigned salt) {
    PerRank<T> out(static_cast<std::size_t>(p));
    xmpi::run(p, [&](int r) {
        std::vector<T> buf(static_cast<std::size_t>(count));
        auto fill = [&](unsigned s) {
            for (int i = 0; i < count; ++i)
                buf[static_cast<std::size_t>(i)] =
                    r == root ? static_cast<T>(s + 3u * static_cast<unsigned>(i) + 1u)
                              : static_cast<T>(0xEE);
        };
        if (mode == Exec::persist) {
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Bcast_init(buf.data(), count, dt, root, MPI_COMM_WORLD, MPI_INFO_NULL,
                                     &req),
                      MPI_SUCCESS);
            for (int k = 0; k < kPersistRounds; ++k) {
                fill(salt + static_cast<unsigned>(k));
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                out[static_cast<std::size_t>(r)].insert(out[static_cast<std::size_t>(r)].end(),
                                                        buf.begin(), buf.end());
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            return;
        }
        fill(salt);
        if (mode == Exec::nb) {
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Ibcast(buf.data(), count, dt, root, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            drive(req);
        } else {
            ASSERT_EQ(MPI_Bcast(buf.data(), count, dt, root, MPI_COMM_WORLD), MPI_SUCCESS);
        }
        out[static_cast<std::size_t>(r)] = buf;
    });
    return out;
}

template <typename T>
PerRank<T> allgather_case(int p, int count, MPI_Datatype dt, Exec mode, unsigned salt) {
    PerRank<T> out(static_cast<std::size_t>(p));
    xmpi::run(p, [&](int r) {
        std::vector<T> send(static_cast<std::size_t>(count));
        std::vector<T> recv(static_cast<std::size_t>(count) * static_cast<std::size_t>(p));
        auto fill = [&](unsigned s) {
            for (int i = 0; i < count; ++i)
                send[static_cast<std::size_t>(i)] = static_cast<T>(
                    s + 100u * static_cast<unsigned>(r) + static_cast<unsigned>(i));
            std::fill(recv.begin(), recv.end(), static_cast<T>(0xEE));
        };
        if (mode == Exec::persist) {
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Allgather_init(send.data(), count, dt, recv.data(), count, dt,
                                         MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                      MPI_SUCCESS);
            for (int k = 0; k < kPersistRounds; ++k) {
                fill(salt + static_cast<unsigned>(k));
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                out[static_cast<std::size_t>(r)].insert(out[static_cast<std::size_t>(r)].end(),
                                                        recv.begin(), recv.end());
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            return;
        }
        fill(salt);
        if (mode == Exec::nb) {
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Iallgather(send.data(), count, dt, recv.data(), count, dt,
                                     MPI_COMM_WORLD, &req),
                      MPI_SUCCESS);
            drive(req);
        } else {
            ASSERT_EQ(MPI_Allgather(send.data(), count, dt, recv.data(), count, dt,
                                    MPI_COMM_WORLD),
                      MPI_SUCCESS);
        }
        out[static_cast<std::size_t>(r)] = recv;
    });
    return out;
}

template <typename T>
PerRank<T> alltoall_case(int p, int count, MPI_Datatype dt, Exec mode, unsigned salt) {
    PerRank<T> out(static_cast<std::size_t>(p));
    xmpi::run(p, [&](int r) {
        std::vector<T> send(static_cast<std::size_t>(count) * static_cast<std::size_t>(p));
        std::vector<T> recv(send.size());
        auto fill = [&](unsigned s) {
            for (std::size_t i = 0; i < send.size(); ++i)
                send[i] = static_cast<T>(s + 1000u * static_cast<unsigned>(r) +
                                         static_cast<unsigned>(i));
            std::fill(recv.begin(), recv.end(), static_cast<T>(0xEE));
        };
        if (mode == Exec::persist) {
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Alltoall_init(send.data(), count, dt, recv.data(), count, dt,
                                        MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                      MPI_SUCCESS);
            for (int k = 0; k < kPersistRounds; ++k) {
                fill(salt + static_cast<unsigned>(k));
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                out[static_cast<std::size_t>(r)].insert(out[static_cast<std::size_t>(r)].end(),
                                                        recv.begin(), recv.end());
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            return;
        }
        fill(salt);
        if (mode == Exec::nb) {
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Ialltoall(send.data(), count, dt, recv.data(), count, dt,
                                    MPI_COMM_WORLD, &req),
                      MPI_SUCCESS);
            drive(req);
        } else {
            ASSERT_EQ(
                MPI_Alltoall(send.data(), count, dt, recv.data(), count, dt, MPI_COMM_WORLD),
                MPI_SUCCESS);
        }
        out[static_cast<std::size_t>(r)] = recv;
    });
    return out;
}

/// 2x2 int64 matrix product c = a * b (associative, non-commutative).
void matmul2(long long const* a, long long const* b, long long* c) {
    c[0] = a[0] * b[0] + a[1] * b[2];
    c[1] = a[0] * b[1] + a[1] * b[3];
    c[2] = a[2] * b[0] + a[3] * b[2];
    c[3] = a[2] * b[1] + a[3] * b[3];
}

void matmul_op(void* in, void* inout, int* len, MPI_Datatype*) {
    auto* a = static_cast<long long*>(in);     // left operand
    auto* b = static_cast<long long*>(inout);  // right operand
    for (int i = 0; i + 3 < *len; i += 4) {
        long long c[4];
        matmul2(a + i, b + i, c);
        for (int j = 0; j < 4; ++j) b[i + j] = c[j];
    }
}

enum class Red { sum, bxor, matmul };

template <typename T>
PerRank<T> reduce_case(int p, int count, MPI_Datatype dt, Red red, int root, bool all, Exec mode,
                       unsigned salt) {
    PerRank<T> out(static_cast<std::size_t>(p));
    xmpi::run(p, [&](int r) {
        MPI_Op op = MPI_SUM;
        MPI_Op user_op = MPI_OP_NULL;
        if (red == Red::bxor) op = MPI_BXOR;
        if (red == Red::matmul) {
            ASSERT_EQ(MPI_Op_create(&matmul_op, /*commute=*/0, &user_op), MPI_SUCCESS);
            op = user_op;
        }
        std::vector<T> send(static_cast<std::size_t>(count));
        std::vector<T> recv(static_cast<std::size_t>(count), T{});
        auto fill = [&](unsigned s) {
            for (int i = 0; i < count; ++i) {
                if (red == Red::matmul) {
                    // Block i/4 is the matrix {{r+i+1, 1}, {0, 1}}-ish: keep
                    // entries small to avoid overflow while staying
                    // order-sensitive. Salt enters the off-diagonal bit so
                    // persistent rounds see genuinely fresh operands.
                    int const pos = i % 4;
                    send[static_cast<std::size_t>(i)] = static_cast<T>(
                        pos == 0 ? (r % 3) + 1
                                 : (pos == 3
                                        ? 1
                                        : (pos == 1 ? (r + i + static_cast<int>(s % 7u)) % 2
                                                    : 0)));
                } else {
                    send[static_cast<std::size_t>(i)] = static_cast<T>(
                        s + 17u * static_cast<unsigned>(r) + static_cast<unsigned>(i));
                }
            }
            std::fill(recv.begin(), recv.end(), static_cast<T>(0xEE));
        };
        if (mode == Exec::persist) {
            MPI_Request req = MPI_REQUEST_NULL;
            int const rc =
                all ? MPI_Allreduce_init(send.data(), recv.data(), count, dt, op, MPI_COMM_WORLD,
                                         MPI_INFO_NULL, &req)
                    : MPI_Reduce_init(send.data(), recv.data(), count, dt, op, root,
                                      MPI_COMM_WORLD, MPI_INFO_NULL, &req);
            ASSERT_EQ(rc, MPI_SUCCESS);
            for (int k = 0; k < kPersistRounds; ++k) {
                fill(salt + static_cast<unsigned>(k));
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                if (all || r == root)
                    out[static_cast<std::size_t>(r)].insert(out[static_cast<std::size_t>(r)].end(),
                                                            recv.begin(), recv.end());
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            if (user_op != MPI_OP_NULL) MPI_Op_free(&user_op);
            return;
        }
        fill(salt);
        int rc;
        MPI_Request req = MPI_REQUEST_NULL;
        bool const nb = mode == Exec::nb;
        if (all) {
            rc = nb ? MPI_Iallreduce(send.data(), recv.data(), count, dt, op, MPI_COMM_WORLD, &req)
                    : MPI_Allreduce(send.data(), recv.data(), count, dt, op, MPI_COMM_WORLD);
        } else {
            rc = nb ? MPI_Ireduce(send.data(), recv.data(), count, dt, op, root, MPI_COMM_WORLD,
                                  &req)
                    : MPI_Reduce(send.data(), recv.data(), count, dt, op, root, MPI_COMM_WORLD);
        }
        ASSERT_EQ(rc, MPI_SUCCESS);
        if (nb) drive(req);
        if (all || r == root) out[static_cast<std::size_t>(r)] = recv;
        if (user_op != MPI_OP_NULL) MPI_Op_free(&user_op);
    });
    return out;
}

int const kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16};
int const kCounts[] = {0, 1, 3, 7, 16, 33};
int const kMatmulCounts[] = {0, 4, 8, 20};

}  // namespace

TEST(Algorithms, EveryFamilyHasAtLeastTwoAlgorithms) {
    for (char const* family : {"bcast", "reduce", "allgather", "allreduce", "alltoall"}) {
        auto const names = list_algorithms(family);
        EXPECT_GE(names.size(), 2u) << family;
        EXPECT_EQ(names.front(), "flat") << family;
    }
}

TEST(Algorithms, BcastEquivalence) {
    SeededRng rng;
    auto const algs = list_algorithms("bcast");
    for (int trial = 0; trial < 6; ++trial) {
        TopoPin const topo(rng.pick(kNodeShapes));
        int const p = rng.pick(kSizes);
        int const count = rng.pick(kCounts);
        int const root = rng.uniform(0, p - 1);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        bool const use_char = rng.uniform(0, 1) == 1;
        auto check = [&](auto tag, MPI_Datatype dt) {
            using T = decltype(tag);
            auto flat_ref = [&](unsigned s) {
                return with_alg("bcast", "flat",
                                [&] { return bcast_case<T>(p, count, dt, root, Exec::block, s); });
            };
            auto const ref = flat_ref(salt);
            auto const refp = persist_ref<T>(flat_ref, salt);
            for (auto const& alg : algs) {
                for (Exec mode : kExecModes) {
                    auto const got = with_alg(
                        "bcast", alg, [&] { return bcast_case<T>(p, count, dt, root, mode, salt); });
                    EXPECT_EQ(got, mode == Exec::persist ? refp : ref)
                        << "alg=" << alg << " mode=" << mode_name(mode) << " p=" << p
                        << " count=" << count << " root=" << root;
                }
            }
        };
        if (use_char)
            check(static_cast<unsigned char>(0), MPI_UNSIGNED_CHAR);
        else
            check(static_cast<int>(0), MPI_INT);
    }
}

TEST(Algorithms, AllgatherEquivalence) {
    SeededRng rng;
    auto const algs = list_algorithms("allgather");
    for (int trial = 0; trial < 6; ++trial) {
        TopoPin const topo(rng.pick(kNodeShapes));
        int const p = rng.pick(kSizes);
        int const count = rng.pick(kCounts);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        auto flat_ref = [&](unsigned s) {
            return with_alg("allgather", "flat",
                            [&] { return allgather_case<int>(p, count, MPI_INT, Exec::block, s); });
        };
        auto const ref = flat_ref(salt);
        auto const refp = persist_ref<int>(flat_ref, salt);
        for (auto const& alg : algs) {
            for (Exec mode : kExecModes) {
                auto const got = with_alg("allgather", alg, [&] {
                    return allgather_case<int>(p, count, MPI_INT, mode, salt);
                });
                EXPECT_EQ(got, mode == Exec::persist ? refp : ref)
                    << "alg=" << alg << " mode=" << mode_name(mode) << " p=" << p
                    << " count=" << count;
            }
        }
    }
}

TEST(Algorithms, AlltoallEquivalence) {
    SeededRng rng;
    auto const algs = list_algorithms("alltoall");
    for (int trial = 0; trial < 6; ++trial) {
        TopoPin const topo(rng.pick(kNodeShapes));
        int const p = rng.pick(kSizes);
        int const count = rng.pick(kCounts);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        bool const use_char = rng.uniform(0, 1) == 1;
        auto check = [&](auto tag, MPI_Datatype dt) {
            using T = decltype(tag);
            auto flat_ref = [&](unsigned s) {
                return with_alg("alltoall", "flat",
                                [&] { return alltoall_case<T>(p, count, dt, Exec::block, s); });
            };
            auto const ref = flat_ref(salt);
            auto const refp = persist_ref<T>(flat_ref, salt);
            for (auto const& alg : algs) {
                for (Exec mode : kExecModes) {
                    auto const got = with_alg(
                        "alltoall", alg, [&] { return alltoall_case<T>(p, count, dt, mode, salt); });
                    EXPECT_EQ(got, mode == Exec::persist ? refp : ref)
                        << "alg=" << alg << " mode=" << mode_name(mode) << " p=" << p
                        << " count=" << count;
                }
            }
        };
        if (use_char)
            check(static_cast<unsigned char>(0), MPI_UNSIGNED_CHAR);
        else
            check(static_cast<int>(0), MPI_INT);
    }
}

namespace {

void reduction_equivalence(char const* family, bool all, SeededRng& rng) {
    auto const algs = list_algorithms(family);
    for (int trial = 0; trial < 6; ++trial) {
        TopoPin const topo(rng.pick(kNodeShapes));
        int const p = rng.pick(kSizes);
        Red const red = trial % 3 == 2 ? Red::matmul : (trial % 3 == 1 ? Red::bxor : Red::sum);
        int const count = red == Red::matmul ? rng.pick(kMatmulCounts) : rng.pick(kCounts);
        int const root = rng.uniform(0, p - 1);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        auto check = [&](auto tag, MPI_Datatype dt) {
            using T = decltype(tag);
            auto flat_ref = [&](unsigned s) {
                return with_alg(family, "flat", [&] {
                    return reduce_case<T>(p, count, dt, red, root, all, Exec::block, s);
                });
            };
            auto const ref = flat_ref(salt);
            auto const refp = persist_ref<T>(flat_ref, salt);
            for (auto const& alg : algs) {
                for (Exec mode : kExecModes) {
                    auto const got = with_alg(family, alg, [&] {
                        return reduce_case<T>(p, count, dt, red, root, all, mode, salt);
                    });
                    EXPECT_EQ(got, mode == Exec::persist ? refp : ref)
                        << family << " alg=" << alg << " mode=" << mode_name(mode) << " p=" << p
                        << " count=" << count << " root=" << root
                        << " op=" << (red == Red::sum ? "sum" : red == Red::bxor ? "bxor" : "matmul");
                }
            }
        };
        if (red == Red::matmul)
            check(static_cast<long long>(0), MPI_INT64_T);
        else
            check(static_cast<int>(0), MPI_INT);
    }
}

}  // namespace

TEST(Algorithms, ReduceEquivalence) {
    SeededRng rng;
    reduction_equivalence("reduce", /*all=*/false, rng);
}

TEST(Algorithms, AllreduceEquivalence) {
    SeededRng rng;
    reduction_equivalence("allreduce", /*all=*/true, rng);
}

TEST(Algorithms, AllreduceInPlaceEquivalentAcrossAlgorithms) {
    // MPI_IN_PLACE must behave identically under every algorithm.
    SeededRng rng;
    auto const algs = list_algorithms("allreduce");
    for (int trial = 0; trial < 3; ++trial) {
        TopoPin const topo(rng.pick(kNodeShapes));
        int const p = rng.pick(kSizes);
        int const count = rng.pick(kCounts);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        auto run_inplace = [&](std::string const& alg, Exec mode, unsigned s) {
            return with_alg("allreduce", alg, [&] {
                PerRank<int> out(static_cast<std::size_t>(p));
                xmpi::run(p, [&](int r) {
                    std::vector<int> buf(static_cast<std::size_t>(count));
                    auto fill = [&](unsigned sv) {
                        for (int i = 0; i < count; ++i)
                            buf[static_cast<std::size_t>(i)] =
                                static_cast<int>(sv + 17u * static_cast<unsigned>(r)) + i;
                    };
                    if (mode == Exec::persist) {
                        MPI_Request req = MPI_REQUEST_NULL;
                        ASSERT_EQ(MPI_Allreduce_init(MPI_IN_PLACE, buf.data(), count, MPI_INT,
                                                     MPI_SUM, MPI_COMM_WORLD, MPI_INFO_NULL,
                                                     &req),
                                  MPI_SUCCESS);
                        for (int k = 0; k < kPersistRounds; ++k) {
                            fill(s + static_cast<unsigned>(k));
                            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                            out[static_cast<std::size_t>(r)].insert(
                                out[static_cast<std::size_t>(r)].end(), buf.begin(), buf.end());
                        }
                        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
                        return;
                    }
                    fill(s);
                    if (mode == Exec::nb) {
                        MPI_Request req = MPI_REQUEST_NULL;
                        ASSERT_EQ(MPI_Iallreduce(MPI_IN_PLACE, buf.data(), count, MPI_INT,
                                                 MPI_SUM, MPI_COMM_WORLD, &req),
                                  MPI_SUCCESS);
                        drive(req);
                    } else {
                        ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, buf.data(), count, MPI_INT, MPI_SUM,
                                                MPI_COMM_WORLD),
                                  MPI_SUCCESS);
                    }
                    out[static_cast<std::size_t>(r)] = buf;
                });
                return out;
            });
        };
        auto const ref = run_inplace("flat", Exec::block, salt);
        auto const refp = persist_ref<int>(
            [&](unsigned s) { return run_inplace("flat", Exec::block, s); }, salt);
        for (auto const& alg : algs) {
            for (Exec mode : kExecModes) {
                EXPECT_EQ(run_inplace(alg, mode, salt), mode == Exec::persist ? refp : ref)
                    << "alg=" << alg << " mode=" << mode_name(mode) << " p=" << p
                    << " count=" << count;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed-shape families: barrier, gather(v), scatter(v), allgatherv,
// alltoallv/w and scan/exscan. One builder serves every flavor of a family,
// so the blocking, nonblocking and persistent (where *_init exists) calls
// must be byte-identical, and the blocking call must match a closed-form
// oracle. Count vectors are ragged: zero counts, gaps between blocks and
// blocks laid out in reverse rank order.
// ---------------------------------------------------------------------------

namespace {

Exec const kNoInitModes[] = {Exec::block, Exec::nb};

constexpr int kPoison = -7777;

/// Element i of rank r's input in the round salted `salt`.
int value(unsigned salt, int r, int i) {
    return static_cast<int>(salt % 100000u) + 1000 * r + i;
}

/// Drives one rank's part of a case in `mode`. `fill(s)` writes the inputs
/// of round s and poisons the outputs, `call(mode, &req)` makes the call
/// (the blocking call ignores req), `result()` is the rank's observable
/// output. The persistent flavor restarts one request kPersistRounds times
/// with fresh inputs and appends every round's output.
template <typename T, typename Fill, typename Call, typename Result>
void run_rank(Exec mode, unsigned salt, std::vector<T>& out, Fill fill, Call call,
              Result result) {
    MPI_Request req = MPI_REQUEST_NULL;
    if (mode == Exec::persist) {
        fill(salt);
        ASSERT_EQ(call(mode, &req), MPI_SUCCESS);
        for (int k = 0; k < kPersistRounds; ++k) {
            fill(salt + static_cast<unsigned>(k));
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            auto const round = result();
            out.insert(out.end(), round.begin(), round.end());
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        return;
    }
    fill(salt);
    ASSERT_EQ(call(mode, &req), MPI_SUCCESS);
    if (mode == Exec::nb) drive(req);
    out = result();
}

/// One block per rank inside a buffer of `size` elements.
struct Layout {
    std::vector<int> counts;
    std::vector<int> displs;
    int size = 0;
};

std::vector<int> ragged_counts(SeededRng& rng, int n) {
    std::vector<int> counts(static_cast<std::size_t>(n));
    for (int& c : counts) c = rng.uniform(0, 2) == 0 ? 0 : rng.uniform(1, 4);
    return counts;
}

/// Blocks in reverse rank order with random gaps before, between and after.
Layout ragged_layout(SeededRng& rng, std::vector<int> counts) {
    Layout l{std::move(counts), {}, 0};
    l.displs.resize(l.counts.size());
    for (std::size_t i = l.counts.size(); i-- > 0;) {
        l.size += rng.uniform(0, 2);
        l.displs[i] = l.size;
        l.size += l.counts[i];
    }
    l.size += rng.uniform(0, 1);
    return l;
}

Layout uniform_layout(int p, int count) {
    Layout l{std::vector<int>(static_cast<std::size_t>(p), count), {}, p * count};
    for (int i = 0; i < p; ++i) l.displs.push_back(i * count);
    return l;
}

std::size_t at(int i) { return static_cast<std::size_t>(i); }

/// Gather (uniform layout, MPI_Gather*) or gatherv (MPI_Gatherv*) to
/// `root`; with `in_place` the root's block is already in its receive
/// buffer. Only the root has an output.
PerRank<int> gather_case(int p, int root, Layout const& l, bool uniform, bool in_place, Exec mode,
                         unsigned salt) {
    PerRank<int> out(at(p));
    xmpi::run(p, [&](int r) {
        std::vector<int> send(at(l.counts[at(r)]));
        std::vector<int> recv(r == root ? at(l.size) : 0);
        bool const own_in_place = in_place && r == root;
        auto fill = [&](unsigned s) {
            std::fill(recv.begin(), recv.end(), kPoison);
            for (int i = 0; i < l.counts[at(r)]; ++i) {
                (own_in_place ? recv[at(l.displs[at(r)] + i)] : send[at(i)]) = value(s, r, i);
            }
        };
        auto call = [&](Exec m, MPI_Request* q) {
            void const* const sb = own_in_place ? MPI_IN_PLACE : send.data();
            int const sc = l.counts[at(r)];
            int const c = l.counts[0];
            int const* const rc = l.counts.data();
            int const* const rd = l.displs.data();
            if (uniform) {
                return m == Exec::block
                           ? MPI_Gather(sb, sc, MPI_INT, recv.data(), c, MPI_INT, root,
                                        MPI_COMM_WORLD)
                       : m == Exec::nb
                           ? MPI_Igather(sb, sc, MPI_INT, recv.data(), c, MPI_INT, root,
                                         MPI_COMM_WORLD, q)
                           : MPI_Gather_init(sb, sc, MPI_INT, recv.data(), c, MPI_INT, root,
                                             MPI_COMM_WORLD, MPI_INFO_NULL, q);
            }
            return m == Exec::block
                       ? MPI_Gatherv(sb, sc, MPI_INT, recv.data(), rc, rd, MPI_INT, root,
                                     MPI_COMM_WORLD)
                   : m == Exec::nb
                       ? MPI_Igatherv(sb, sc, MPI_INT, recv.data(), rc, rd, MPI_INT, root,
                                      MPI_COMM_WORLD, q)
                       : MPI_Gatherv_init(sb, sc, MPI_INT, recv.data(), rc, rd, MPI_INT, root,
                                          MPI_COMM_WORLD, MPI_INFO_NULL, q);
        };
        run_rank(mode, salt, out[at(r)], fill, call, [&] { return recv; });
    });
    return out;
}

/// Scatter / scatterv from `root`; with `in_place` the root keeps its block
/// in the send buffer and has no output.
PerRank<int> scatter_case(int p, int root, Layout const& l, bool uniform, bool in_place, Exec mode,
                          unsigned salt) {
    PerRank<int> out(at(p));
    xmpi::run(p, [&](int r) {
        std::vector<int> send(r == root ? at(l.size) : 0);
        bool const own_in_place = in_place && r == root;
        std::vector<int> recv(own_in_place ? 0 : at(l.counts[at(r)]));
        auto fill = [&](unsigned s) {
            for (int i = 0; i < static_cast<int>(send.size()); ++i) send[at(i)] = value(s, r, i);
            std::fill(recv.begin(), recv.end(), kPoison);
        };
        auto call = [&](Exec m, MPI_Request* q) {
            void* const rb = own_in_place ? MPI_IN_PLACE : recv.data();
            int const rcount = l.counts[at(r)];
            int const c = l.counts[0];
            int const* const sc = l.counts.data();
            int const* const sd = l.displs.data();
            if (uniform) {
                return m == Exec::block
                           ? MPI_Scatter(send.data(), c, MPI_INT, rb, rcount, MPI_INT, root,
                                         MPI_COMM_WORLD)
                       : m == Exec::nb
                           ? MPI_Iscatter(send.data(), c, MPI_INT, rb, rcount, MPI_INT, root,
                                          MPI_COMM_WORLD, q)
                           : MPI_Scatter_init(send.data(), c, MPI_INT, rb, rcount, MPI_INT, root,
                                              MPI_COMM_WORLD, MPI_INFO_NULL, q);
            }
            return m == Exec::block
                       ? MPI_Scatterv(send.data(), sc, sd, MPI_INT, rb, rcount, MPI_INT, root,
                                      MPI_COMM_WORLD)
                   : m == Exec::nb
                       ? MPI_Iscatterv(send.data(), sc, sd, MPI_INT, rb, rcount, MPI_INT, root,
                                       MPI_COMM_WORLD, q)
                       : MPI_Scatterv_init(send.data(), sc, sd, MPI_INT, rb, rcount, MPI_INT,
                                           root, MPI_COMM_WORLD, MPI_INFO_NULL, q);
        };
        run_rank(mode, salt, out[at(r)], fill, call, [&] { return recv; });
    });
    return out;
}

/// Allgatherv over one shared layout; with `in_place` every rank's own
/// block is already in its receive buffer.
PerRank<int> allgatherv_case(int p, Layout const& l, bool in_place, Exec mode, unsigned salt) {
    PerRank<int> out(at(p));
    xmpi::run(p, [&](int r) {
        std::vector<int> send(at(l.counts[at(r)]));
        std::vector<int> recv(at(l.size));
        auto fill = [&](unsigned s) {
            std::fill(recv.begin(), recv.end(), kPoison);
            for (int i = 0; i < l.counts[at(r)]; ++i)
                (in_place ? recv[at(l.displs[at(r)] + i)] : send[at(i)]) = value(s, r, i);
        };
        auto call = [&](Exec m, MPI_Request* q) {
            void const* const sb = in_place ? MPI_IN_PLACE : send.data();
            int const sc = l.counts[at(r)];
            return m == Exec::block
                       ? MPI_Allgatherv(sb, sc, MPI_INT, recv.data(), l.counts.data(),
                                        l.displs.data(), MPI_INT, MPI_COMM_WORLD)
                       : MPI_Iallgatherv(sb, sc, MPI_INT, recv.data(), l.counts.data(),
                                         l.displs.data(), MPI_INT, MPI_COMM_WORLD, q);
        };
        run_rank(mode, salt, out[at(r)], fill, call, [&] { return recv; });
    });
    return out;
}

/// Alltoallv (or, with `typed`, alltoallw with byte displacements and
/// per-peer types) where rank r sends counts[r][j] elements to rank j,
/// from send layout `sl[r]` into receive layout `rl[j]`.
PerRank<int> alltoallv_case(int p, std::vector<Layout> const& sl, std::vector<Layout> const& rl,
                            bool typed, Exec mode, unsigned salt) {
    PerRank<int> out(at(p));
    xmpi::run(p, [&](int r) {
        Layout const& s_l = sl[at(r)];
        Layout const& r_l = rl[at(r)];
        std::vector<int> send(at(s_l.size));
        std::vector<int> recv(at(r_l.size));
        auto fill = [&](unsigned s) {
            for (int i = 0; i < s_l.size; ++i) send[at(i)] = value(s, r, i);
            std::fill(recv.begin(), recv.end(), kPoison);
        };
        auto bytes = [](std::vector<int> v) {
            for (int& d : v) d *= static_cast<int>(sizeof(int));
            return v;
        };
        std::vector<int> const sbytes = bytes(s_l.displs), rbytes = bytes(r_l.displs);
        std::vector<MPI_Datatype> const types(at(p), MPI_INT);
        auto call = [&](Exec m, MPI_Request* q) {
            if (typed) {
                return MPI_Alltoallw(send.data(), s_l.counts.data(), sbytes.data(), types.data(),
                                     recv.data(), r_l.counts.data(), rbytes.data(), types.data(),
                                     MPI_COMM_WORLD);
            }
            return m == Exec::block
                       ? MPI_Alltoallv(send.data(), s_l.counts.data(), s_l.displs.data(), MPI_INT,
                                       recv.data(), r_l.counts.data(), r_l.displs.data(), MPI_INT,
                                       MPI_COMM_WORLD)
                       : MPI_Ialltoallv(send.data(), s_l.counts.data(), s_l.displs.data(),
                                        MPI_INT, recv.data(), r_l.counts.data(),
                                        r_l.displs.data(), MPI_INT, MPI_COMM_WORLD, q);
        };
        run_rank(mode, salt, out[at(r)], fill, call, [&] { return recv; });
    });
    return out;
}

/// Rank r's scan input in the round salted `s`: the value() ramp (sum), an
/// upper triangular 2x2 matrix per four elements (matmul, non-commutative),
/// or the doubles 1e16, 1, -1e16, 1, ... whose sum depends on the
/// bracketing (T = double).
template <typename T>
std::vector<T> scan_input(Red red, unsigned s, int r, int count) {
    std::vector<T> in(at(count));
    for (int i = 0; i < count; ++i) {
        int const pos = i % 4;
        if (red == Red::matmul) {
            int const bit = (r + i + static_cast<int>(s % 2u)) % 2;
            in[at(i)] = static_cast<T>(pos == 0 ? r % 3 + 1 : pos == 3 ? 1 : pos == 1 ? bit : 0);
        } else if constexpr (std::is_floating_point_v<T>) {
            int const q = (r + i + static_cast<int>(s % 4u)) % 4;
            in[at(i)] = q == 0 ? 1e16 : q == 2 ? -1e16 : 1.0;
        } else {
            in[at(i)] = static_cast<T>(value(s, r, i));
        }
    }
    return in;
}

/// Inclusive or exclusive scan of `count` elements of scan_input(); rank
/// 0's exscan output is left out (undefined by the standard).
template <typename T>
PerRank<T> scan_case(int p, int count, MPI_Datatype dt, Red red, bool exclusive, bool in_place,
                     Exec mode, unsigned salt) {
    PerRank<T> out(at(p));
    xmpi::run(p, [&](int r) {
        MPI_Op op = MPI_SUM;
        if (red == Red::matmul) {
            ASSERT_EQ(MPI_Op_create(&matmul_op, 0, &op), MPI_SUCCESS);
        }
        std::vector<T> send(at(count));
        std::vector<T> recv(at(count));
        auto fill = [&](unsigned s) {
            std::fill(recv.begin(), recv.end(), static_cast<T>(kPoison));
            auto const in = scan_input<T>(red, s, r, count);
            std::copy(in.begin(), in.end(), (in_place ? recv : send).begin());
        };
        auto call = [&](Exec m, MPI_Request* q) {
            void const* const sb = in_place ? MPI_IN_PLACE : send.data();
            if (exclusive) {
                return m == Exec::block
                           ? MPI_Exscan(sb, recv.data(), count, dt, op, MPI_COMM_WORLD)
                           : MPI_Iexscan(sb, recv.data(), count, dt, op, MPI_COMM_WORLD, q);
            }
            return m == Exec::block ? MPI_Scan(sb, recv.data(), count, dt, op, MPI_COMM_WORLD)
                                    : MPI_Iscan(sb, recv.data(), count, dt, op, MPI_COMM_WORLD, q);
        };
        run_rank(mode, salt, out[at(r)], fill, call,
                 [&] { return exclusive && r == 0 ? std::vector<T>{} : recv; });
        if (red == Red::matmul) MPI_Op_free(&op);
    });
    return out;
}

/// Scan oracle: the Hillis–Steele bracketing over every rank's scan_input()
/// — in round k, prefix[r] = prefix[r - 2^k] (+) prefix[r] — which is the
/// library's, and for floating point decides the result bits.
template <typename T>
PerRank<T> scan_oracle(int p, int count, Red red, bool exclusive, unsigned salt) {
    PerRank<T> v;
    for (int r = 0; r < p; ++r) v.push_back(scan_input<T>(red, salt, r, count));
    for (int dist = 1; dist < p; dist *= 2) {
        for (int r = p - 1; r >= dist; --r) {
            std::vector<T> const& left = v[at(r - dist)];
            std::vector<T>& right = v[at(r)];
            if constexpr (std::is_same_v<T, long long>) {
                for (int i = 0; red == Red::matmul && i + 3 < count; i += 4) {
                    long long c[4];
                    matmul2(&left[at(i)], &right[at(i)], c);
                    std::copy_n(c, 4, &right[at(i)]);
                }
            }
            for (int i = 0; red != Red::matmul && i < count; ++i) right[at(i)] += left[at(i)];
        }
    }
    if (exclusive) {
        for (int r = p - 1; r > 0; --r) v[at(r)] = v[at(r - 1)];
        v[0].clear();
    }
    return v;
}

/// Barrier: per round, whether every rank had entered when this rank left
/// (1 or 0) and the virtual time it left at. With compute_scale = 0 the
/// vtime depends on the message pattern only, so it must not change with
/// the flavor either.
PerRank<double> barrier_case(int p, Exec mode, unsigned salt) {
    PerRank<double> out(at(p));
    std::vector<std::atomic<unsigned>> entered(at(p));
    xmpi::Config cfg;
    cfg.compute_scale = 0;
    xmpi::run(
        p,
        [&](int r) {
            unsigned round = 0;
            auto fill = [&](unsigned s) {
                round = s;
                entered[at(r)].store(s);
            };
            auto call = [&](Exec m, MPI_Request* q) {
                return m == Exec::block ? MPI_Barrier(MPI_COMM_WORLD)
                       : m == Exec::nb  ? MPI_Ibarrier(MPI_COMM_WORLD, q)
                                        : MPI_Barrier_init(MPI_COMM_WORLD, MPI_INFO_NULL, q);
            };
            run_rank(mode, salt, out[at(r)], fill, call, [&] {
                bool all = true;
                for (auto const& e : entered) all = all && e.load() >= round;
                return std::vector<double>{all ? 1.0 : 0.0, xmpi::vtime_now()};
            });
        },
        cfg);
    return out;
}

/// Checks blocking == oracle, and nonblocking / persistent == blocking, for
/// one case; `run(mode, salt)` returns every rank's output.
template <typename T, typename Run, std::size_t N>
void expect_flavors_identical(Exec const (&modes)[N], PerRank<T> const& oracle, Run run,
                              unsigned salt, std::string const& what) {
    auto const ref = run(Exec::block, salt);
    EXPECT_EQ(ref, oracle) << what << " blocking vs oracle";
    for (Exec mode : modes) {
        if (mode == Exec::block) continue;
        auto const expect =
            mode == Exec::persist
                ? persist_ref<T>([&](unsigned s) { return run(Exec::block, s); }, salt)
                : ref;
        EXPECT_EQ(run(mode, salt), expect) << what << " mode=" << mode_name(mode);
    }
}

}  // namespace

TEST(Algorithms, BarrierFlavorsIdentical) {
    for (int const p : kSizes) {
        PerRank<double> const ref = barrier_case(p, Exec::block, 1);
        for (auto const& rank : ref) EXPECT_EQ(rank[0], 1.0) << "p=" << p;
        EXPECT_EQ(barrier_case(p, Exec::nb, 1), ref) << "p=" << p;
        PerRank<double> const restarted = barrier_case(p, Exec::persist, 1);
        for (auto const& rank : restarted) {
            ASSERT_EQ(rank.size(), 2u * kPersistRounds) << "p=" << p;
            for (int k = 0; k < kPersistRounds; ++k) EXPECT_EQ(rank[2 * at(k)], 1.0) << "p=" << p;
            EXPECT_EQ(rank[1], ref[at(&rank - restarted.data())][1]) << "p=" << p;
        }
    }
}

TEST(Algorithms, GatherScatterFlavorsByteIdentical) {
    SeededRng rng;
    for (int trial = 0; trial < 8; ++trial) {
        int const p = rng.pick(kSizes);
        int const root = rng.uniform(0, p - 1);
        bool const uniform = trial % 2 == 0;
        bool const in_place = trial % 4 >= 2;
        Layout const l = uniform ? uniform_layout(p, rng.pick(kCounts))
                                 : ragged_layout(rng, ragged_counts(rng, p));
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        std::string const what = std::string(uniform ? "uniform" : "ragged") +
                                 (in_place ? " in-place" : "") + " p=" + std::to_string(p) +
                                 " root=" + std::to_string(root);

        PerRank<int> gathered(at(p));
        gathered[at(root)].assign(at(l.size), kPoison);
        for (int i = 0; i < p; ++i)
            for (int e = 0; e < l.counts[at(i)]; ++e)
                gathered[at(root)][at(l.displs[at(i)] + e)] = value(salt, i, e);
        expect_flavors_identical(
            kExecModes, gathered,
            [&](Exec m, unsigned s) { return gather_case(p, root, l, uniform, in_place, m, s); },
            salt, "gather " + what);

        PerRank<int> scattered(at(p));
        for (int i = 0; i < p; ++i) {
            if (in_place && i == root) continue;
            for (int e = 0; e < l.counts[at(i)]; ++e)
                scattered[at(i)].push_back(value(salt, root, l.displs[at(i)] + e));
        }
        expect_flavors_identical(
            kExecModes, scattered,
            [&](Exec m, unsigned s) { return scatter_case(p, root, l, uniform, in_place, m, s); },
            salt, "scatter " + what);
    }
}

TEST(Algorithms, AllgathervAlltoallvFlavorsByteIdentical) {
    SeededRng rng;
    for (int trial = 0; trial < 6; ++trial) {
        int const p = rng.pick(kSizes);
        bool const in_place = trial % 2 == 1;
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        std::string const what = "p=" + std::to_string(p);

        Layout const l = ragged_layout(rng, ragged_counts(rng, p));
        PerRank<int> gathered(at(p), std::vector<int>(at(l.size), kPoison));
        for (int r = 0; r < p; ++r)
            for (int i = 0; i < p; ++i)
                for (int e = 0; e < l.counts[at(i)]; ++e)
                    gathered[at(r)][at(l.displs[at(i)] + e)] = value(salt, i, e);
        expect_flavors_identical(
            kNoInitModes, gathered,
            [&](Exec m, unsigned s) { return allgatherv_case(p, l, in_place, m, s); }, salt,
            std::string("allgatherv") + (in_place ? " in-place " : " ") + what);

        // counts[r][j]: elements rank r sends to rank j.
        std::vector<std::vector<int>> counts;
        for (int r = 0; r < p; ++r) counts.push_back(ragged_counts(rng, p));
        std::vector<Layout> sl, rl;
        for (int r = 0; r < p; ++r) {
            std::vector<int> from(at(p));
            for (int j = 0; j < p; ++j) from[at(j)] = counts[at(j)][at(r)];
            sl.push_back(ragged_layout(rng, counts[at(r)]));
            rl.push_back(ragged_layout(rng, std::move(from)));
        }
        PerRank<int> exchanged(at(p));
        for (int r = 0; r < p; ++r) {
            exchanged[at(r)].assign(at(rl[at(r)].size), kPoison);
            for (int j = 0; j < p; ++j)
                for (int e = 0; e < counts[at(j)][at(r)]; ++e)
                    exchanged[at(r)][at(rl[at(r)].displs[at(j)] + e)] =
                        value(salt, j, sl[at(j)].displs[at(r)] + e);
        }
        expect_flavors_identical(
            kNoInitModes, exchanged,
            [&](Exec m, unsigned s) { return alltoallv_case(p, sl, rl, false, m, s); }, salt,
            "alltoallv " + what);
        EXPECT_EQ(alltoallv_case(p, sl, rl, true, Exec::block, salt), exchanged)
            << "alltoallw " << what;
    }
}

TEST(Algorithms, ScanExscanFlavorsByteIdentical) {
    SeededRng rng;
    for (int trial = 0; trial < 6; ++trial) {
        int const p = rng.pick(kSizes);
        bool const in_place = trial % 2 == 1;
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        for (bool const exclusive : {false, true}) {
            std::string const what = std::string(exclusive ? "exscan" : "scan") +
                                     (in_place ? " in-place" : "") + " p=" + std::to_string(p);
            auto check = [&](auto tag, MPI_Datatype dt, Red red, int count, char const* name) {
                using T = decltype(tag);
                expect_flavors_identical(
                    kNoInitModes, scan_oracle<T>(p, count, red, exclusive, salt),
                    [&](Exec m, unsigned s) {
                        return scan_case<T>(p, count, dt, red, exclusive, in_place, m, s);
                    },
                    salt, what + " " + name + " count=" + std::to_string(count));
            };
            check(0, MPI_INT, Red::sum, rng.pick(kCounts), "int sum");
            check(0.0, MPI_DOUBLE, Red::sum, rng.pick(kCounts), "double sum");
            check(0LL, MPI_INT64_T, Red::matmul, rng.pick(kMatmulCounts), "matmul");
        }
    }
}

// ---------------------------------------------------------------------------
// Hierarchical algorithms across node shapes (topology subsystem). Every
// family's "hierarchical" entry must be byte-identical to the flat
// reference under 1-node, equal-node and ragged-last-node shapes — blocking
// and i-variant, commutative and non-commutative reductions. On shapes
// without a hierarchy the pin is invalid and falls back, which must also be
// byte-identical.
// ---------------------------------------------------------------------------

TEST(Algorithms, HierarchicalByteIdenticalAcrossNodeShapes) {
    SeededRng rng;
    struct Shape {
        int p;
        int rpn;
    };
    Shape const shapes[] = {
        {16, 4},   // equal nodes
        {11, 4},   // ragged last node (4, 4, 3)
        {9, 3},    // equal, non-power-of-two p
        {5, 2},    // ragged (2, 2, 1)
        {8, 64},   // one node holds everything
        {6, 1},    // flat: hierarchical invalid, falls back
    };
    for (auto const& sh : shapes) {
        TopoPin const topo(sh.rpn);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        int const count = rng.pick(kCounts);
        int const mcount = rng.pick(kMatmulCounts);
        int const root = rng.uniform(0, sh.p - 1);
        for (Exec mode : kExecModes) {
            bool const persist = mode == Exec::persist;
            auto const tag = [&](char const* fam) {
                return std::string(fam) + " p=" + std::to_string(sh.p) +
                       " rpn=" + std::to_string(sh.rpn) + " mode=" + mode_name(mode) +
                       " count=" + std::to_string(count);
            };
            auto flat_or_persist = [&](char const* fam, auto one_round) {
                return persist ? persist_ref<int>(one_round, salt) : one_round(salt);
                (void)fam;
            };
            EXPECT_EQ(with_alg("bcast", "hierarchical",
                               [&] { return bcast_case<int>(sh.p, count, MPI_INT, root, mode, salt); }),
                      flat_or_persist("bcast", [&](unsigned s) {
                          return with_alg("bcast", "flat", [&] {
                              return bcast_case<int>(sh.p, count, MPI_INT, root, Exec::block, s);
                          });
                      }))
                << tag("bcast");
            EXPECT_EQ(with_alg("allgather", "hierarchical",
                               [&] { return allgather_case<int>(sh.p, count, MPI_INT, mode, salt); }),
                      flat_or_persist("allgather", [&](unsigned s) {
                          return with_alg("allgather", "flat", [&] {
                              return allgather_case<int>(sh.p, count, MPI_INT, Exec::block, s);
                          });
                      }))
                << tag("allgather");
            EXPECT_EQ(with_alg("alltoall", "hierarchical",
                               [&] { return alltoall_case<int>(sh.p, count, MPI_INT, mode, salt); }),
                      flat_or_persist("alltoall", [&](unsigned s) {
                          return with_alg("alltoall", "flat", [&] {
                              return alltoall_case<int>(sh.p, count, MPI_INT, Exec::block, s);
                          });
                      }))
                << tag("alltoall");
            // Builtin (element-wise 2D path) and non-commutative user op
            // (leader path; node-contiguous block mapping keeps it exact).
            for (Red red : {Red::sum, Red::matmul}) {
                int const c = red == Red::matmul ? mcount : count;
                auto run_red = [&](char const* fam, std::string const& alg, bool all, Exec m,
                                   unsigned s) {
                    return with_alg(fam, alg, [&] {
                        return reduce_case<long long>(sh.p, c, MPI_INT64_T, red, root, all, m, s);
                    });
                };
                auto red_ref = [&](char const* fam, bool all) {
                    auto one = [&](unsigned s) { return run_red(fam, "flat", all, Exec::block, s); };
                    return persist ? persist_ref<long long>(one, salt) : one(salt);
                };
                EXPECT_EQ(run_red("reduce", "hierarchical", false, mode, salt),
                          red_ref("reduce", false))
                    << tag("reduce") << " op=" << (red == Red::sum ? "sum" : "matmul");
                EXPECT_EQ(run_red("allreduce", "hierarchical", true, mode, salt),
                          red_ref("allreduce", true))
                    << tag("allreduce") << " op=" << (red == Red::sum ? "sum" : "matmul");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-copy shm transport equivalence: XMPI_T_shm_set(1) and (0) must be
// byte-identical for every hierarchical family, on equal and ragged node
// shapes, in all three execution flavors (the persistent flavor restarts
// the schedule with fresh operands, exercising cell re-publication),
// including MPI_IN_PLACE (the shm builders publish the user input buffer
// itself) and the non-commutative user op (leader-path tree reduce).
// ---------------------------------------------------------------------------

TEST(Algorithms, ShmOnOffByteIdentical) {
    using testing_utils::ShmPin;
    SeededRng rng;
    struct Shape {
        int p;
        int rpn;
    };
    Shape const shapes[] = {
        {16, 4},  // equal nodes
        {11, 4},  // ragged last node (4, 4, 3)
        {6, 3},   // two equal nodes
    };
    for (auto const& sh : shapes) {
        TopoPin const topo(sh.rpn);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        int const count = rng.pick(kCounts);
        int const mcount = rng.pick(kMatmulCounts);
        int const root = rng.uniform(0, sh.p - 1);
        for (Exec mode : kExecModes) {
            auto const tag = [&](std::string const& what) {
                return what + " p=" + std::to_string(sh.p) + " rpn=" + std::to_string(sh.rpn) +
                       " mode=" + mode_name(mode) + " count=" + std::to_string(count);
            };
            auto same = [&](std::string const& what, auto run_one) {
                ShmPin const on(1);
                auto const with_shm = run_one();
                ShmPin const off(0);
                EXPECT_EQ(with_shm, run_one()) << tag(what);
            };
            same("bcast", [&] {
                return with_alg("bcast", "hierarchical",
                                [&] { return bcast_case<int>(sh.p, count, MPI_INT, root, mode, salt); });
            });
            same("allgather", [&] {
                return with_alg("allgather", "hierarchical",
                                [&] { return allgather_case<int>(sh.p, count, MPI_INT, mode, salt); });
            });
            for (Red red : {Red::sum, Red::matmul}) {
                int const c = red == Red::matmul ? mcount : count;
                std::string const op = red == Red::sum ? "sum" : "matmul";
                same("reduce " + op, [&] {
                    return with_alg("reduce", "hierarchical", [&] {
                        return reduce_case<long long>(sh.p, c, MPI_INT64_T, red, root, false,
                                                      mode, salt);
                    });
                });
                same("allreduce " + op, [&] {
                    return with_alg("allreduce", "hierarchical", [&] {
                        return reduce_case<long long>(sh.p, c, MPI_INT64_T, red, root, true,
                                                      mode, salt);
                    });
                });
            }
            same("allreduce in-place", [&] {
                return with_alg("allreduce", "hierarchical", [&] {
                    PerRank<int> out(static_cast<std::size_t>(sh.p));
                    xmpi::run(sh.p, [&](int r) {
                        std::vector<int> buf(static_cast<std::size_t>(count));
                        auto fill = [&](unsigned sv) {
                            for (int i = 0; i < count; ++i)
                                buf[static_cast<std::size_t>(i)] =
                                    static_cast<int>(sv + 17u * static_cast<unsigned>(r)) + i;
                        };
                        if (mode == Exec::persist) {
                            MPI_Request req = MPI_REQUEST_NULL;
                            ASSERT_EQ(MPI_Allreduce_init(MPI_IN_PLACE, buf.data(), count,
                                                         MPI_INT, MPI_SUM, MPI_COMM_WORLD,
                                                         MPI_INFO_NULL, &req),
                                      MPI_SUCCESS);
                            for (int k = 0; k < kPersistRounds; ++k) {
                                fill(salt + static_cast<unsigned>(k));
                                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                                out[static_cast<std::size_t>(r)].insert(
                                    out[static_cast<std::size_t>(r)].end(), buf.begin(),
                                    buf.end());
                            }
                            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
                            return;
                        }
                        fill(salt);
                        if (mode == Exec::nb) {
                            MPI_Request req = MPI_REQUEST_NULL;
                            ASSERT_EQ(MPI_Iallreduce(MPI_IN_PLACE, buf.data(), count, MPI_INT,
                                                     MPI_SUM, MPI_COMM_WORLD, &req),
                                      MPI_SUCCESS);
                            drive(req);
                        } else {
                            ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, buf.data(), count, MPI_INT,
                                                    MPI_SUM, MPI_COMM_WORLD),
                                      MPI_SUCCESS);
                        }
                        out[static_cast<std::size_t>(r)] = buf;
                    });
                    return out;
                });
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Pipelined hierarchical schedules across forced segment sizes. The
// XMPI_T_segment_set pin engages the segment-pipelined allgather/alltoall
// compositions (and re-segments the ring bcast) at any granularity; results
// must stay byte-identical to the flat reference for every segment size —
// one element per segment, sizes that do not divide the message, and
// segment >= message (which degenerates to the unpipelined composition) —
// in all three execution flavors, on equal and ragged node shapes.
// ---------------------------------------------------------------------------

TEST(Algorithms, PipelinedSegmentSweepByteIdentical) {
    using testing_utils::SegPin;
    SeededRng rng;
    struct Shape {
        int p;
        int rpn;
    };
    Shape const shapes[] = {
        {8, 4},    // 2 equal nodes
        {11, 4},   // ragged last node (4, 4, 3)
        {10, 3},   // ragged (3, 3, 3, 1): a single-rank node in the ring
    };
    int const counts[] = {0, 1, 5, 16, 33};
    for (auto const& sh : shapes) {
        TopoPin const topo(sh.rpn);
        int const count = rng.pick(counts);
        auto const salt = static_cast<unsigned>(rng.uniform(1, 1 << 20));
        int const root = rng.uniform(0, sh.p - 1);
        // Segment pins in bytes of MPI_INT payload: one element, a
        // non-divisible prime, and far beyond any message in the sweep.
        long long const seg_bytes[] = {4, 12, 28, 1 << 20};
        for (long long seg : seg_bytes) {
            SegPin const pin(seg);
            auto const tag = [&](char const* fam, Exec mode) {
                return std::string(fam) + " p=" + std::to_string(sh.p) +
                       " rpn=" + std::to_string(sh.rpn) + " seg=" + std::to_string(seg) +
                       " count=" + std::to_string(count) + " mode=" + mode_name(mode);
            };
            for (Exec mode : kExecModes) {
                bool const persist = mode == Exec::persist;
                auto ref_of = [&](auto one_round) {
                    return persist ? persist_ref<int>(one_round, salt) : one_round(salt);
                };
                EXPECT_EQ(
                    with_alg("allgather", "hierarchical",
                             [&] { return allgather_case<int>(sh.p, count, MPI_INT, mode, salt); }),
                    ref_of([&](unsigned s) {
                        return with_alg("allgather", "flat", [&] {
                            return allgather_case<int>(sh.p, count, MPI_INT, Exec::block, s);
                        });
                    }))
                    << tag("allgather", mode);
                EXPECT_EQ(
                    with_alg("alltoall", "hierarchical",
                             [&] { return alltoall_case<int>(sh.p, count, MPI_INT, mode, salt); }),
                    ref_of([&](unsigned s) {
                        return with_alg("alltoall", "flat", [&] {
                            return alltoall_case<int>(sh.p, count, MPI_INT, Exec::block, s);
                        });
                    }))
                    << tag("alltoall", mode);
                EXPECT_EQ(
                    with_alg("bcast", "hierarchical",
                             [&] { return bcast_case<int>(sh.p, count, MPI_INT, root, mode, salt); }),
                    ref_of([&](unsigned s) {
                        return with_alg("bcast", "flat", [&] {
                            return bcast_case<int>(sh.p, count, MPI_INT, root, Exec::block, s);
                        });
                    }))
                    << tag("bcast", mode);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hierarchical alltoall with mixed send/receive shapes: `count` MPI_INTs per
// destination arrive as one contiguous(count, MPI_INT) element. Segmenting
// needs the same block shape on both sides, so these run the one-segment
// composition even under a segment pin — the path where members send and
// receive their user rows directly. Results must match the flat reference
// in every execution flavor, on equal and ragged node shapes.
// ---------------------------------------------------------------------------

TEST(Algorithms, HierarchicalAlltoallMixedShapes) {
    using testing_utils::SegPin;
    struct Shape {
        int p;
        int rpn;
    };
    Shape const shapes[] = {{8, 4}, {11, 4}, {10, 3}};
    int const count = 5;
    for (auto const& sh : shapes) {
        TopoPin const topo(sh.rpn);
        for (long long seg : {0LL, 4LL}) {
            SegPin const pin(seg);
            for (Exec mode : kExecModes) {
                auto run_alg = [&](char const* alg) {
                    return with_alg("alltoall", alg, [&] {
                        PerRank<int> out(static_cast<std::size_t>(sh.p));
                        xmpi::run(sh.p, [&](int r) {
                            MPI_Datatype block = MPI_DATATYPE_NULL;
                            ASSERT_EQ(MPI_Type_contiguous(count, MPI_INT, &block), MPI_SUCCESS);
                            ASSERT_EQ(MPI_Type_commit(&block), MPI_SUCCESS);
                            std::vector<int> send(static_cast<std::size_t>(sh.p * count));
                            std::vector<int> recv(send.size(), -1);
                            for (std::size_t i = 0; i < send.size(); ++i)
                                send[i] = 1000 * r + static_cast<int>(i);
                            MPI_Request req = MPI_REQUEST_NULL;
                            if (mode == Exec::block) {
                                ASSERT_EQ(MPI_Alltoall(send.data(), count, MPI_INT, recv.data(),
                                                       1, block, MPI_COMM_WORLD),
                                          MPI_SUCCESS);
                            } else if (mode == Exec::nb) {
                                ASSERT_EQ(MPI_Ialltoall(send.data(), count, MPI_INT, recv.data(),
                                                        1, block, MPI_COMM_WORLD, &req),
                                          MPI_SUCCESS);
                                drive(req);
                            } else {
                                ASSERT_EQ(MPI_Alltoall_init(send.data(), count, MPI_INT,
                                                            recv.data(), 1, block, MPI_COMM_WORLD,
                                                            MPI_INFO_NULL, &req),
                                          MPI_SUCCESS);
                                for (int k = 0; k < kPersistRounds; ++k) {
                                    for (int& x : send) x += 7;
                                    ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                                    ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                                }
                                ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
                            }
                            ASSERT_EQ(MPI_Type_free(&block), MPI_SUCCESS);
                            out[static_cast<std::size_t>(r)] = recv;
                        });
                        return out;
                    });
                };
                EXPECT_EQ(run_alg("hierarchical"), run_alg("flat"))
                    << "p=" << sh.p << " rpn=" << sh.rpn << " seg=" << seg
                    << " mode=" << mode_name(mode);
            }
        }
    }
}

