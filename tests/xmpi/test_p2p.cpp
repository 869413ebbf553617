/// @file test_p2p.cpp
/// @brief Point-to-point semantics of the xmpi substrate: matching order,
/// wildcards, non-blocking completion, synchronous mode, probes, statuses.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

TEST(P2P, SendRecvRoundTrip) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> data(100);
            std::iota(data.begin(), data.end(), 0);
            ASSERT_EQ(MPI_Send(data.data(), 100, MPI_INT, 1, 7, MPI_COMM_WORLD), MPI_SUCCESS);
        } else {
            std::vector<int> data(100, -1);
            MPI_Status st;
            ASSERT_EQ(MPI_Recv(data.data(), 100, MPI_INT, 0, 7, MPI_COMM_WORLD, &st), MPI_SUCCESS);
            EXPECT_EQ(st.MPI_SOURCE, 0);
            EXPECT_EQ(st.MPI_TAG, 7);
            int count = 0;
            MPI_Get_count(&st, MPI_INT, &count);
            EXPECT_EQ(count, 100);
            for (int i = 0; i < 100; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
        }
    });
}

TEST(P2P, NonOvertakingSameSourceTag) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int a = 1, b = 2;
            MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
            MPI_Send(&b, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
        } else {
            int x = 0, y = 0;
            MPI_Recv(&x, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            MPI_Recv(&y, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(x, 1);
            EXPECT_EQ(y, 2);
        }
    });
}

TEST(P2P, AnySourceAnyTag) {
    xmpi::run(4, [](int rank) {
        if (rank == 0) {
            int seen = 0;
            for (int i = 1; i < 4; ++i) {
                int v = 0;
                MPI_Status st;
                MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &st);
                EXPECT_EQ(v, st.MPI_SOURCE * 10);
                EXPECT_EQ(st.MPI_TAG, st.MPI_SOURCE);
                seen |= 1 << st.MPI_SOURCE;
            }
            EXPECT_EQ(seen, 0b1110);
        } else {
            int const v = rank * 10;
            MPI_Send(&v, 1, MPI_INT, 0, rank, MPI_COMM_WORLD);
        }
    });
}

TEST(P2P, IsendIrecvWaitall) {
    xmpi::run(2, [](int rank) {
        int const peer = 1 - rank;
        std::vector<double> out(64, rank + 0.5);
        std::vector<double> in(64, -1);
        MPI_Request reqs[2];
        MPI_Irecv(in.data(), 64, MPI_DOUBLE, peer, 3, MPI_COMM_WORLD, &reqs[0]);
        MPI_Isend(out.data(), 64, MPI_DOUBLE, peer, 3, MPI_COMM_WORLD, &reqs[1]);
        ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
        for (double v : in) EXPECT_DOUBLE_EQ(v, peer + 0.5);
    });
}

TEST(P2P, SsendCompletesAfterMatch) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int v = 42;
            ASSERT_EQ(MPI_Ssend(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        } else {
            int v = 0;
            MPI_Recv(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v, 42);
        }
    });
}

TEST(P2P, IssendTestReflectsMatch) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int v = 9;
            MPI_Request req;
            MPI_Issend(&v, 1, MPI_INT, 1, 5, MPI_COMM_WORLD, &req);
            // Signal readiness, then wait for the match.
            int go = 1;
            MPI_Send(&go, 1, MPI_INT, 1, 6, MPI_COMM_WORLD);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
        } else {
            int go = 0;
            MPI_Recv(&go, 1, MPI_INT, 0, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            int v = 0;
            MPI_Recv(&v, 1, MPI_INT, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v, 9);
        }
    });
}

TEST(P2P, ProbeThenRecvSizedBuffer) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> payload(37, 5);
            MPI_Send(payload.data(), 37, MPI_INT, 1, 11, MPI_COMM_WORLD);
        } else {
            MPI_Status st;
            ASSERT_EQ(MPI_Probe(0, 11, MPI_COMM_WORLD, &st), MPI_SUCCESS);
            int count = 0;
            MPI_Get_count(&st, MPI_INT, &count);
            ASSERT_EQ(count, 37);
            std::vector<int> data(static_cast<std::size_t>(count));
            MPI_Recv(data.data(), count, MPI_INT, 0, 11, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            for (int v : data) EXPECT_EQ(v, 5);
        }
    });
}

TEST(P2P, IprobeNoMessage) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int flag = 1;
            MPI_Iprobe(1, 99, MPI_COMM_WORLD, &flag, MPI_STATUS_IGNORE);
            EXPECT_EQ(flag, 0);
        }
        MPI_Barrier(MPI_COMM_WORLD);
    });
}

TEST(P2P, TruncationReportsError) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> big(10, 1);
            MPI_Send(big.data(), 10, MPI_INT, 1, 0, MPI_COMM_WORLD);
        } else {
            std::vector<int> small(4, 0);
            MPI_Status st;
            int const rc = MPI_Recv(small.data(), 4, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
            EXPECT_EQ(rc, MPI_ERR_TRUNCATE);
            // The first four elements are delivered.
            for (int v : small) EXPECT_EQ(v, 1);
        }
    });
}

TEST(P2P, SendrecvExchange) {
    xmpi::run(2, [](int rank) {
        int const peer = 1 - rank;
        int out = rank + 100;
        int in = -1;
        MPI_Sendrecv(&out, 1, MPI_INT, peer, 0, &in, 1, MPI_INT, peer, 0, MPI_COMM_WORLD,
                     MPI_STATUS_IGNORE);
        EXPECT_EQ(in, peer + 100);
    });
}

TEST(P2P, ProcNullIsNoop) {
    xmpi::run(1, [](int) {
        int v = 3;
        EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        MPI_Status st;
        EXPECT_EQ(MPI_Recv(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
        EXPECT_EQ(v, 3);  // untouched
    });
}

TEST(P2P, SelfCommunication) {
    xmpi::run(3, [](int rank) {
        int out = rank;
        int in = -1;
        MPI_Request req;
        MPI_Irecv(&in, 1, MPI_INT, 0, 0, MPI_COMM_SELF, &req);
        MPI_Send(&out, 1, MPI_INT, 0, 0, MPI_COMM_SELF);
        MPI_Wait(&req, MPI_STATUS_IGNORE);
        EXPECT_EQ(in, rank);
    });
}

TEST(P2P, WaitanyFindsCompleted) {
    xmpi::run(3, [](int rank) {
        if (rank == 0) {
            MPI_Request reqs[2];
            int a = -1, b = -1;
            MPI_Irecv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &reqs[0]);
            MPI_Irecv(&b, 1, MPI_INT, 2, 0, MPI_COMM_WORLD, &reqs[1]);
            int idx1 = -1, idx2 = -1;
            MPI_Waitany(2, reqs, &idx1, MPI_STATUS_IGNORE);
            MPI_Waitany(2, reqs, &idx2, MPI_STATUS_IGNORE);
            EXPECT_NE(idx1, idx2);
            EXPECT_EQ(a, 10);
            EXPECT_EQ(b, 20);
            int idx3 = -1;
            MPI_Waitany(2, reqs, &idx3, MPI_STATUS_IGNORE);
            EXPECT_EQ(idx3, MPI_UNDEFINED);
        } else {
            int const v = rank * 10;
            MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
        }
    });
}

TEST(P2P, VirtualTimeAdvancesWithMessages) {
    // Pin the flat single-tier topology: the asserted latency is alpha per
    // hop, which a forced XMPI_RANKS_PER_NODE >= 2 would replace with the
    // cheaper intra-node tier.
    XMPI_T_topo_set(1);
    auto result = xmpi::run(2, [](int rank) {
        for (int i = 0; i < 100; ++i) {
            int v = i;
            if (rank == 0) {
                MPI_Send(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
                MPI_Recv(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            } else {
                MPI_Recv(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
                MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
            }
        }
    });
    XMPI_T_topo_set(0);
    // 200 messages in a ping-pong chain: at least 200 * alpha of modeled time.
    EXPECT_GE(result.max_vtime, 200 * 2e-6);
    EXPECT_EQ(result.total.p2p_messages, 200u);
}

TEST(P2P, CountersTrackBytes) {
    auto result = xmpi::run(2, [](int rank) {
        std::vector<char> buf(1024);
        if (rank == 0) {
            MPI_Send(buf.data(), 1024, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
        } else {
            MPI_Recv(buf.data(), 1024, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        }
    });
    EXPECT_EQ(result.total.p2p_bytes, 1024u);
}

namespace {

/// What one receive delivered, and both ranks' clocks afterwards.
struct Delivery {
    std::vector<int> buf;
    int error = -1;
    MPI_Status status{};
    int bytes = -1;
    double recv_vtime = -1.0;
    double send_vtime = -1.0;
};

enum class RecvCase { contiguous, vector_type, truncation, zero_count, wildcards, ssend, persistent };

char const* case_name(RecvCase c) {
    switch (c) {
        case RecvCase::contiguous: return "contiguous";
        case RecvCase::vector_type: return "vector_type";
        case RecvCase::truncation: return "truncation";
        case RecvCase::zero_count: return "zero_count";
        case RecvCase::wildcards: return "wildcards";
        case RecvCase::ssend: return "ssend";
        case RecvCase::persistent: return "persistent";
    }
    return "?";
}

/// Sends one message from rank 0 to rank 1 at compute_scale 0, with the
/// receive posted before the message is deposited (`posted_first`: the
/// sender packs straight into a fitting receive buffer) or after the message
/// waits in the unexpected queue (the envelope path). The ranks order their
/// calls through a plain atomic, so the ordering costs no modelled time.
Delivery deliver_once(RecvCase c, bool posted_first) {
    constexpr int kN = 16;
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    std::atomic<bool> first_done{false};
    auto await_first = [&] {
        while (!first_done.load(std::memory_order_acquire)) std::this_thread::yield();
    };
    Delivery d;
    xmpi::run(
        2,
        [&](int rank) {
            if (rank == 0) {
                std::vector<int> src(kN);
                std::iota(src.begin(), src.end(), 100);
                int const n = c == RecvCase::zero_count ? 0 : c == RecvCase::vector_type ? 8 : kN;
                if (posted_first) await_first();
                MPI_Request req = MPI_REQUEST_NULL;
                if (c == RecvCase::ssend)
                    ASSERT_EQ(MPI_Issend(src.data(), n, MPI_INT, 1, 7, MPI_COMM_WORLD, &req),
                              MPI_SUCCESS);
                else
                    ASSERT_EQ(MPI_Isend(src.data(), n, MPI_INT, 1, 7, MPI_COMM_WORLD, &req),
                              MPI_SUCCESS);
                if (!posted_first) first_done.store(true, std::memory_order_release);
                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                d.send_vtime = xmpi::vtime_now();
                return;
            }
            d.buf.assign(2 * kN, -1);
            MPI_Datatype type = MPI_INT;
            int count = 2 * kN;  // room to spare: the message fits
            if (c == RecvCase::vector_type) {
                // Every second int: not flat, so the envelope path unpacks.
                ASSERT_EQ(MPI_Type_vector(8, 1, 2, MPI_INT, &type), MPI_SUCCESS);
                ASSERT_EQ(MPI_Type_commit(&type), MPI_SUCCESS);
                count = 1;
            } else if (c == RecvCase::truncation) {
                count = kN / 2;
            }
            bool const wild = c == RecvCase::wildcards;
            int const source = wild ? MPI_ANY_SOURCE : 0;
            int const tag = wild ? MPI_ANY_TAG : 7;
            if (!posted_first) await_first();
            MPI_Request req = MPI_REQUEST_NULL;
            if (c == RecvCase::persistent) {
                ASSERT_EQ(MPI_Recv_init(d.buf.data(), count, type, source, tag, MPI_COMM_WORLD,
                                        &req),
                          MPI_SUCCESS);
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            } else {
                ASSERT_EQ(MPI_Irecv(d.buf.data(), count, type, source, tag, MPI_COMM_WORLD, &req),
                          MPI_SUCCESS);
            }
            if (posted_first) first_done.store(true, std::memory_order_release);
            d.error = MPI_Wait(&req, &d.status);
            d.recv_vtime = xmpi::vtime_now();
            MPI_Get_count(&d.status, MPI_BYTE, &d.bytes);
            if (c == RecvCase::persistent) MPI_Request_free(&req);
            if (type != MPI_INT) MPI_Type_free(&type);
        },
        cfg);
    return d;
}

}  // namespace

// A receive completes identically whether the sender packed straight into
// its posted buffer or the message waited as an envelope: buffer (including
// untouched gaps), status, error and both ranks' virtual clocks.
TEST(P2P, PostedAndUnexpectedPathsByteIdentical) {
    for (RecvCase const c :
         {RecvCase::contiguous, RecvCase::vector_type, RecvCase::truncation, RecvCase::zero_count,
          RecvCase::wildcards, RecvCase::ssend, RecvCase::persistent}) {
        SCOPED_TRACE(case_name(c));
        Delivery const posted = deliver_once(c, true);
        Delivery const unexpected = deliver_once(c, false);
        EXPECT_EQ(posted.buf, unexpected.buf);
        EXPECT_EQ(posted.error, unexpected.error);
        EXPECT_EQ(posted.status.MPI_SOURCE, unexpected.status.MPI_SOURCE);
        EXPECT_EQ(posted.status.MPI_TAG, unexpected.status.MPI_TAG);
        EXPECT_EQ(posted.status.MPI_ERROR, unexpected.status.MPI_ERROR);
        EXPECT_EQ(posted.bytes, unexpected.bytes);
        EXPECT_EQ(posted.recv_vtime, unexpected.recv_vtime);
        EXPECT_EQ(posted.send_vtime, unexpected.send_vtime);

        // Both paths agree with what the case must deliver.
        EXPECT_EQ(posted.status.MPI_SOURCE, 0);
        EXPECT_EQ(posted.status.MPI_TAG, 7);
        EXPECT_GT(posted.recv_vtime, 0.0);
        std::vector<int> want(32, -1);
        switch (c) {
            case RecvCase::zero_count:
                EXPECT_EQ(posted.bytes, 0);
                break;
            case RecvCase::vector_type:
                for (int i = 0; i < 8; ++i) want[static_cast<std::size_t>(2 * i)] = 100 + i;
                EXPECT_EQ(posted.bytes, 32);
                break;
            case RecvCase::truncation:
                std::iota(want.begin(), want.begin() + 8, 100);
                EXPECT_EQ(posted.error, MPI_ERR_TRUNCATE);
                EXPECT_EQ(posted.status.MPI_ERROR, MPI_ERR_TRUNCATE);
                break;
            default:
                std::iota(want.begin(), want.begin() + 16, 100);
                EXPECT_EQ(posted.bytes, 64);
                break;
        }
        if (c != RecvCase::truncation) {
            EXPECT_EQ(posted.error, MPI_SUCCESS);
        }
        EXPECT_EQ(posted.buf, want);
    }
}

// ---------------------------------------------------------------------------
// Persistent point-to-point (MPI_Send_init / MPI_Recv_init / MPI_Start).
// ---------------------------------------------------------------------------

TEST(Persistent, SendRecvRestartLoop) {
    xmpi::run(2, [](int rank) {
        int const rounds = 5;
        if (rank == 0) {
            int v = -1;
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Send_init(&v, 1, MPI_INT, 1, 3, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            for (int i = 0; i < rounds; ++i) {
                v = 10 * i;  // the bound buffer is re-read on every start
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                EXPECT_NE(req, MPI_REQUEST_NULL);  // persistent handles survive completion
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
        } else {
            int v = -1;
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Recv_init(&v, 1, MPI_INT, 0, 3, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            for (int i = 0; i < rounds; ++i) {
                v = -1;
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                MPI_Status st;
                ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
                EXPECT_EQ(v, 10 * i);
                EXPECT_EQ(st.MPI_SOURCE, 0);
                EXPECT_EQ(st.MPI_TAG, 3);
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        }
    });
}

TEST(Persistent, StartallAndTestDrivenCompletion) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int a = 1, b = 2;
            MPI_Request reqs[2];
            ASSERT_EQ(MPI_Send_init(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Send_init(&b, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, &reqs[1]), MPI_SUCCESS);
            for (int round = 0; round < 3; ++round) {
                a = round;
                b = round + 100;
                ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
                ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
                ASSERT_NE(reqs[0], MPI_REQUEST_NULL);
                ASSERT_NE(reqs[1], MPI_REQUEST_NULL);
            }
            ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
        } else {
            int a = -1, b = -1;
            MPI_Request reqs[2];
            ASSERT_EQ(MPI_Recv_init(&a, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, &reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Recv_init(&b, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, &reqs[1]), MPI_SUCCESS);
            for (int round = 0; round < 3; ++round) {
                ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
                // Drive completion purely through MPI_Test.
                for (bool done0 = false, done1 = false; !done0 || !done1;) {
                    int f = 0;
                    if (!done0) {
                        ASSERT_EQ(MPI_Test(&reqs[0], &f, MPI_STATUS_IGNORE), MPI_SUCCESS);
                        done0 = f != 0;
                    }
                    f = 0;
                    if (!done1) {
                        ASSERT_EQ(MPI_Test(&reqs[1], &f, MPI_STATUS_IGNORE), MPI_SUCCESS);
                        done1 = f != 0;
                    }
                }
                EXPECT_EQ(a, round);
                EXPECT_EQ(b, round + 100);
            }
            ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
        }
    });
}

TEST(Persistent, InactiveSemanticsAndErrors) {
    xmpi::run(1, [](int) {
        int v = 0;
        MPI_Request req = MPI_REQUEST_NULL;
        // Wait/Test on an inactive persistent request return immediately
        // with an empty status; the handle stays valid.
        ASSERT_EQ(MPI_Send_init(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        MPI_Status st;
        ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
        EXPECT_NE(req, MPI_REQUEST_NULL);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
        int flag = 0;
        ASSERT_EQ(MPI_Test(&req, &flag, &st), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_NE(req, MPI_REQUEST_NULL);
        // Starting a started-but-uncompleted request is rejected; here:
        // start a PROC_NULL send (completes instantly), complete, restart.
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        EXPECT_EQ(MPI_Start(&req), MPI_ERR_REQUEST);  // still active
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);  // restart after completion
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        // Free while inactive releases the request.
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        EXPECT_EQ(req, MPI_REQUEST_NULL);
        // Starting a non-persistent or null request is an error.
        EXPECT_EQ(MPI_Start(&req), MPI_ERR_REQUEST);
        MPI_Request oneshot = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Isend(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &oneshot),
                  MPI_SUCCESS);
        EXPECT_EQ(MPI_Start(&oneshot), MPI_ERR_REQUEST);
        ASSERT_EQ(MPI_Wait(&oneshot, MPI_STATUS_IGNORE), MPI_SUCCESS);
    });
}

TEST(Persistent, FreeWhileActiveCancelsRecvAndPreservesMatching) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int v = -1;
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Recv_init(&v, 1, MPI_INT, 1, 99, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            // Free while the started receive is still unmatched: cancels it.
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
            // The canceled receive must not consume the later tag-1 message.
            MPI_Recv(&v, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v, 7);
        } else {
            int const v = 7;
            MPI_Send(&v, 1, MPI_INT, 0, 1, MPI_COMM_WORLD);
        }
    });
}

TEST(Persistent, TestanyOverInactivePersistentRequestsReportsDone) {
    // A poll loop over a set whose every member is null or a retired
    // (inactive) persistent request must terminate: MPI semantics are
    // flag=1 with index=MPI_UNDEFINED, not an eternal flag=0.
    xmpi::run(1, [](int) {
        int v = 0;
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        ASSERT_EQ(MPI_Send_init(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &reqs[0]),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Start(&reqs[0]), MPI_SUCCESS);
        int flag = 0, index = -1;
        ASSERT_EQ(MPI_Testany(2, reqs, &index, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_EQ(index, 0);  // completes and retires the persistent request
        // The retired request is inactive: a second poll reports done with
        // MPI_UNDEFINED instead of spinning.
        flag = 0;
        index = -1;
        ASSERT_EQ(MPI_Testany(2, reqs, &index, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_EQ(index, MPI_UNDEFINED);
        ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
    });
}

TEST(Persistent, RecvInitFromProcNull) {
    xmpi::run(1, [](int) {
        int v = 42;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Recv_init(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 2; ++round) {
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            MPI_Status st;
            ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
            EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
            EXPECT_EQ(v, 42);  // untouched
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

// ---------------------------------------------------------------------------
// Request-lifecycle hardening: completion calls on MPI_REQUEST_NULL and
// double frees have well-defined results.
// ---------------------------------------------------------------------------

TEST(RequestLifecycle, WaitAndTestOnNullRequest) {
    xmpi::run(1, [](int) {
        MPI_Request req = MPI_REQUEST_NULL;
        MPI_Status st;
        st.MPI_SOURCE = -42;
        ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);  // empty status
        EXPECT_EQ(req, MPI_REQUEST_NULL);
        int flag = 0;
        ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        // Null request *pointers* are rejected.
        EXPECT_EQ(MPI_Wait(nullptr, MPI_STATUS_IGNORE), MPI_ERR_REQUEST);
        EXPECT_EQ(MPI_Test(nullptr, &flag, MPI_STATUS_IGNORE), MPI_ERR_REQUEST);
    });
}

TEST(RequestLifecycle, DoubleFreeIsWellDefined) {
    xmpi::run(1, [](int) {
        int v = 0;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Isend(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        EXPECT_EQ(req, MPI_REQUEST_NULL);
        // The second free sees MPI_REQUEST_NULL: erroneous per the standard,
        // reported as MPI_ERR_REQUEST instead of touching freed memory.
        EXPECT_EQ(MPI_Request_free(&req), MPI_ERR_REQUEST);
        EXPECT_EQ(MPI_Request_free(nullptr), MPI_ERR_REQUEST);
    });
}
