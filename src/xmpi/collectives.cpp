/// @file collectives.cpp
/// @brief The MPI collective entry points, all on one executor: the schedule
/// layer in algorithms/. Each family has one builder that appends its step
/// program to a schedule, and the call's flavor decides how that schedule
/// runs — to completion on the calling thread (blocking), as a progressable
/// generalized request the asynchronous progress engine may take over
/// (MPI_I*), or as a re-armable persistent request (*_init + MPI_Start). The
/// flavors of a family therefore share one message pattern, one result and
/// one virtual time, and all of them get step tracing and progress offload.
///
/// Bcast, reduce, allgather, allreduce and alltoall select their algorithm
/// per call from the analytic cost model (overridable via XMPI_ALG_* /
/// XMPI_T_alg_set) and reuse compiled schedules through the
/// per-communicator cache. The other families have one fixed shape and build
/// a fresh schedule per call: dissemination barrier, linear gather(v) and
/// scatter(v), flat allgatherv, pairwise alltoallv/w and Hillis–Steele
/// scan/exscan.
#include <cstring>
#include <memory>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "internal.hpp"

using namespace xmpi::detail;
using xmpi::detail::alg::Blocks;

namespace {

/// How one call runs its family's schedule.
enum class Flavor { blocking, nonblocking, persistent };

/// Resolves and validates the communicator of one collective call, and the
/// request handle of the nonblocking and persistent flavors.
int entry(MPI_Comm& comm, Flavor f, MPI_Request* request) {
    if (f != Flavor::blocking && request == nullptr) return MPI_ERR_REQUEST;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (any_member_dead(comm)) return MPIX_ERR_PROC_FAILED;
    return MPI_SUCCESS;
}

/// entry() plus the root check of the rooted families.
int rooted_entry(MPI_Comm& comm, int root, Flavor f, MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    return root < 0 || root >= comm->size() ? MPI_ERR_ROOT : MPI_SUCCESS;
}

/// Runs a fixed-shape family: `build` appends the step program to a fresh
/// schedule for the next collective sequence number, which then runs in
/// flavor `f`.
template <typename Build>
int execute(MPI_Comm comm, Flavor f, MPI_Request* request, Build&& build) {
    std::uint64_t const seq = comm->coll_seq++;
    if (f == Flavor::blocking) {
        alg::Schedule s(comm, seq);
        build(s);
        return alg::run_blocking(s);
    }
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    build(*s);
    if (f == Flavor::persistent) return alg::launch_persistent(comm, std::move(s), request);
    return alg::launch_nonblocking(comm, std::move(s), MPI_SUCCESS, request);
}

/// Runs an algorithm-backed family whose algorithm `spec.alg` was selected
/// for this call (selection runs first because its result is part of the
/// cache key). Blocking and nonblocking calls take the schedule from the
/// per-communicator cache or build it and offer it there; `seq` is always
/// the caller's fresh coll_seq, so cached and fresh schedules emit identical
/// tags. A persistent call builds its own schedule, which freezes the
/// selection for the request's lifetime.
template <typename Build>
int execute_selected(MPI_Comm comm, Flavor f, MPI_Request* request, alg::SchedSpec const& spec,
                     std::size_t bytes, Build&& build) {
    std::uint64_t const seq = comm->coll_seq++;
    if (f == Flavor::persistent) {
        auto s = std::make_shared<alg::Schedule>(comm, seq);
        if (int rc = build(*s); rc != MPI_SUCCESS) return rc;
        return alg::launch_persistent(comm, std::move(s), request);
    }
    int const fam = static_cast<int>(spec.family);
    if (f == Flavor::blocking) trace::ev(trace::Ev::coll_enter, -1, -1, bytes, seq, fam, spec.alg);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(comm, seq, spec, &err, build);
    if (f == Flavor::nonblocking) return alg::launch_nonblocking(comm, std::move(s), err, request);
    if (err == MPI_SUCCESS) err = alg::run_observed(*s, spec.family, spec.alg, bytes);
    trace::ev(trace::Ev::coll_exit, -1, -1, bytes, seq, fam, spec.alg);
    return err;
}

// ---------------------------------------------------------------------------
// Fixed-shape families
// ---------------------------------------------------------------------------

/// Dissemination barrier: in round k, signal rank r + 2^k and wait for
/// rank r - 2^k.
int barrier(MPI_Comm comm, Flavor f, MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    return execute(comm, f, request, [](alg::Schedule& s) {
        int const p = s.size();
        int const r = s.rank();
        for (int k = 0, dist = 1; dist < p; ++k, dist <<= 1) {
            s.send((r + dist) % p, k, nullptr, 0, MPI_BYTE);
            s.recv((r - dist % p + p) % p, k, nullptr, 0, MPI_BYTE);
        }
    });
}

/// Linear gather: every other rank sends its block to the root, which copies
/// its own block into place, posts every receive and drains them in rank
/// order.
int gather(void const* sendbuf, int sendcount, MPI_Datatype sendtype, Blocks const& recv,
           int root, MPI_Comm comm, Flavor f, MPI_Request* request) {
    if (int rc = rooted_entry(comm, root, f, request); rc != MPI_SUCCESS) return rc;
    return execute(comm, f, request, [&](alg::Schedule& s) {
        int const p = s.size();
        int const r = s.rank();
        if (r != root) {
            s.send(root, 0, sendbuf, sendcount, sendtype);
            return;
        }
        if (sendbuf != MPI_IN_PLACE)
            alg::append_copy(s, sendbuf, sendcount, sendtype, recv.at(r), recv.type_of(r));
        std::vector<int> slots;
        slots.reserve(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            if (i == r) continue;
            slots.push_back(s.post(i, 0, recv.at(i), recv.count_of(i), recv.type_of(i)));
        }
        for (int const slot : slots) s.wait(slot);
    });
}

/// Linear scatter: the root sends every other rank its block, then copies
/// its own; every other rank receives.
int scatter(Blocks const& send, void* recvbuf, int recvcount, MPI_Datatype recvtype, int root,
            MPI_Comm comm, Flavor f, MPI_Request* request) {
    if (int rc = rooted_entry(comm, root, f, request); rc != MPI_SUCCESS) return rc;
    return execute(comm, f, request, [&](alg::Schedule& s) {
        int const p = s.size();
        int const r = s.rank();
        if (r != root) {
            s.recv(root, 0, recvbuf, recvcount, recvtype);
            return;
        }
        for (int i = 0; i < p; ++i) {
            if (i != r) s.send(i, 0, send.at(i), send.count_of(i), send.type_of(i));
        }
        if (recvbuf != MPI_IN_PLACE)
            alg::append_copy(s, send.at(r), send.count_of(r), send.type_of(r), recvbuf, recvtype);
    });
}

int allgatherv(void const* sendbuf, int sendcount, MPI_Datatype sendtype, Blocks const& recv,
               MPI_Comm comm, Flavor f, MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    return execute(comm, f, request, [&](alg::Schedule& s) {
        int const r = s.rank();
        if (sendbuf != MPI_IN_PLACE)
            alg::append_copy(s, sendbuf, sendcount, sendtype, recv.at(r), recv.type_of(r));
        alg::build_allgatherv(s, recv);
    });
}

int alltoallv(Blocks const& send, Blocks const& recv, MPI_Comm comm, Flavor f,
              MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    return execute(comm, f, request,
                   [&](alg::Schedule& s) { alg::build_alltoallv(s, send, recv); });
}

/// Hillis–Steele scan: in round k every rank sends its running prefix to
/// rank r + 2^k and folds the prefix received from rank r - 2^k in as the
/// left operand, so operands combine in rank order (non-commutative
/// operations stay exact). Exscan then shifts the inclusive result one rank
/// up; rank 0's exscan result is undefined and its buffer is left as is.
int scan(void const* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
         bool exclusive, MPI_Comm comm, Flavor f, MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    void const* const input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    return execute(comm, f, request, [&](alg::Schedule& s) {
        int const p = s.size();
        int const r = s.rank();
        std::byte* const acc = s.alloc(bytes);
        std::byte* const tmp = s.alloc(bytes);
        auto copy = [bytes](void* dst, void const* src) {
            if (bytes > 0) std::memcpy(dst, src, bytes);
            return MPI_SUCCESS;
        };
        s.local([=] { return copy(acc, input); });
        int k = 0;
        for (int dist = 1; dist < p; dist <<= 1, ++k) {
            if (r + dist < p) s.send(r + dist, k, acc, count, type);
            if (r - dist < 0) continue;
            s.recv(r - dist, k, tmp, count, type);
            s.local([=] {
                apply_op(op, tmp, acc, count, type);
                return MPI_SUCCESS;
            });
        }
        if (!exclusive) {
            s.local([=] { return copy(recvbuf, acc); });
            return;
        }
        if (r + 1 < p) s.send(r + 1, k, acc, count, type);
        if (r > 0) s.recv(r - 1, k, recvbuf, count, type);
    });
}

// ---------------------------------------------------------------------------
// Algorithm-backed families
// ---------------------------------------------------------------------------

int bcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm, Flavor f,
          MPI_Request* request) {
    if (int rc = rooted_entry(comm, root, f, request); rc != MPI_SUCCESS) return rc;
    if (f == Flavor::blocking && comm->size() == 1) return MPI_SUCCESS;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::bcast, comm, bytes, true);
    return execute_selected(
        comm, f, request,
        alg::SchedSpec{alg::Family::bcast, idx, count, 0, root, buf, nullptr, type, nullptr,
                       nullptr},
        bytes, [&](alg::Schedule& s) { return alg::build_bcast(idx, s, buf, count, type, root); });
}

int reduce(void const* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op, int root,
           MPI_Comm comm, Flavor f, MPI_Request* request) {
    if (int rc = rooted_entry(comm, root, f, request); rc != MPI_SUCCESS) return rc;
    void const* const input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::reduce, comm, bytes, op->commutative, op->builtin);
    return execute_selected(
        comm, f, request,
        alg::SchedSpec{alg::Family::reduce, idx, count, 0, root, input, recvbuf, type, nullptr,
                       op},
        bytes, [&](alg::Schedule& s) {
            return alg::build_reduce(idx, s, input, recvbuf, count, type, op, root);
        });
}

int allreduce(void const* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
              MPI_Comm comm, Flavor f, MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    void const* const input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::allreduce, comm, bytes, op->commutative, op->builtin);
    return execute_selected(
        comm, f, request,
        alg::SchedSpec{alg::Family::allreduce, idx, count, 0, 0, input, recvbuf, type, nullptr,
                       op},
        bytes, [&](alg::Schedule& s) {
            return alg::build_allreduce(idx, s, input, recvbuf, count, type, op);
        });
}

int allgather(void const* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
              int recvcount, MPI_Datatype recvtype, MPI_Comm comm, Flavor f,
              MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    std::byte* const own =
        alg::at_offset(recvbuf, static_cast<long long>(comm->rank()) * recvcount, recvtype);
    bool const copy_own = sendbuf != MPI_IN_PLACE;
    // The cache key does not cover the send buffer, so cached schedules
    // start with the own block in place; a persistent schedule copies it
    // per start instead.
    if (copy_own && f != Flavor::persistent)
        typed_copy(sendbuf, sendcount, sendtype, own, recvtype);
    if (f == Flavor::blocking && comm->size() == 1) return MPI_SUCCESS;
    std::size_t const bytes =
        static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(recvtype->size);
    int const idx = alg::select(alg::Family::allgather, comm, bytes, true);
    return execute_selected(
        comm, f, request,
        alg::SchedSpec{alg::Family::allgather, idx, recvcount, 0, 0, recvbuf, nullptr, recvtype,
                       nullptr, nullptr},
        bytes, [&](alg::Schedule& s) {
            if (copy_own && f == Flavor::persistent)
                alg::append_copy(s, sendbuf, sendcount, sendtype, own, recvtype);
            return alg::build_allgather(idx, s, recvbuf, recvcount, recvtype);
        });
}

int alltoall(void const* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
             int recvcount, MPI_Datatype recvtype, MPI_Comm comm, Flavor f,
             MPI_Request* request) {
    if (int rc = entry(comm, f, request); rc != MPI_SUCCESS) return rc;
    std::size_t const bytes =
        static_cast<std::size_t>(sendcount) * static_cast<std::size_t>(sendtype->size);
    int const idx = alg::select(alg::Family::alltoall, comm, bytes, true);
    return execute_selected(
        comm, f, request,
        alg::SchedSpec{alg::Family::alltoall, idx, sendcount, recvcount, 0, sendbuf, recvbuf,
                       sendtype, recvtype, nullptr},
        bytes, [&](alg::Schedule& s) {
            return alg::build_alltoall(idx, s, sendbuf, sendcount, sendtype, recvbuf, recvcount,
                                       recvtype);
        });
}

}  // namespace

// ---------------------------------------------------------------------------
// Blocking collectives
// ---------------------------------------------------------------------------

int MPI_Barrier(MPI_Comm comm) { return barrier(comm, Flavor::blocking, nullptr); }

int MPI_Bcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm) {
    return bcast(buf, count, type, root, comm, Flavor::blocking, nullptr);
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
               int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
    return gather(sendbuf, sendcount, sendtype, Blocks::uniform(recvbuf, recvcount, recvtype),
                  root, comm, Flavor::blocking, nullptr);
}

int MPI_Gatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                MPI_Comm comm) {
    return gather(sendbuf, sendcount, sendtype,
                  Blocks::ragged(recvbuf, recvcounts, displs, recvtype), root, comm,
                  Flavor::blocking, nullptr);
}

int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
    return scatter(Blocks::uniform(sendbuf, sendcount, sendtype), recvbuf, recvcount, recvtype,
                   root, comm, Flavor::blocking, nullptr);
}

int MPI_Scatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                 MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm) {
    return scatter(Blocks::ragged(sendbuf, sendcounts, displs, sendtype), recvbuf, recvcount,
                   recvtype, root, comm, Flavor::blocking, nullptr);
}

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    return allgather(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                     Flavor::blocking, nullptr);
}

int MPI_Allgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm) {
    return allgatherv(sendbuf, sendcount, sendtype,
                      Blocks::ragged(recvbuf, recvcounts, displs, recvtype), comm,
                      Flavor::blocking, nullptr);
}

int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    return alltoall(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                    Flavor::blocking, nullptr);
}

int MPI_Alltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                  MPI_Datatype recvtype, MPI_Comm comm) {
    return alltoallv(Blocks::ragged(sendbuf, sendcounts, sdispls, sendtype),
                     Blocks::ragged(recvbuf, recvcounts, rdispls, recvtype), comm,
                     Flavor::blocking, nullptr);
}

int MPI_Alltoallw(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  const MPI_Datatype* sendtypes, void* recvbuf, const int* recvcounts,
                  const int* rdispls, const MPI_Datatype* recvtypes, MPI_Comm comm) {
    return alltoallv(Blocks::typed(sendbuf, sendcounts, sdispls, sendtypes),
                     Blocks::typed(recvbuf, recvcounts, rdispls, recvtypes), comm,
                     Flavor::blocking, nullptr);
}

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               int root, MPI_Comm comm) {
    return reduce(sendbuf, recvbuf, count, type, op, root, comm, Flavor::blocking, nullptr);
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                  MPI_Comm comm) {
    return allreduce(sendbuf, recvbuf, count, type, op, comm, Flavor::blocking, nullptr);
}

int MPI_Scan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
             MPI_Comm comm) {
    return scan(sendbuf, recvbuf, count, type, op, false, comm, Flavor::blocking, nullptr);
}

int MPI_Exscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               MPI_Comm comm) {
    return scan(sendbuf, recvbuf, count, type, op, true, comm, Flavor::blocking, nullptr);
}

int MPI_Reduce_scatter_block(const void* sendbuf, void* recvbuf, int recvcount, MPI_Datatype type,
                             MPI_Op op, MPI_Comm comm) {
    if (int rc = entry(comm, Flavor::blocking, nullptr); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    std::vector<std::byte> full(static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(p) *
                                static_cast<std::size_t>(type->extent));
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    if (int rc = MPI_Reduce(input, full.data(), recvcount * p, type, op, 0, comm);
        rc != MPI_SUCCESS)
        return rc;
    return MPI_Scatter(full.data(), recvcount, type, recvbuf, recvcount, type, 0, comm);
}

// ---------------------------------------------------------------------------
// Nonblocking collectives: the same schedules as generalized requests
// ---------------------------------------------------------------------------

int MPI_Ibarrier(MPI_Comm comm, MPI_Request* request) {
    return barrier(comm, Flavor::nonblocking, request);
}

int MPI_Ibcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm,
               MPI_Request* request) {
    return bcast(buf, count, type, root, comm, Flavor::nonblocking, request);
}

int MPI_Igather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                MPI_Request* request) {
    return gather(sendbuf, sendcount, sendtype, Blocks::uniform(recvbuf, recvcount, recvtype),
                  root, comm, Flavor::nonblocking, request);
}

int MPI_Igatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                 MPI_Comm comm, MPI_Request* request) {
    return gather(sendbuf, sendcount, sendtype,
                  Blocks::ragged(recvbuf, recvcounts, displs, recvtype), root, comm,
                  Flavor::nonblocking, request);
}

int MPI_Iscatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                 MPI_Request* request) {
    return scatter(Blocks::uniform(sendbuf, sendcount, sendtype), recvbuf, recvcount, recvtype,
                   root, comm, Flavor::nonblocking, request);
}

int MPI_Iscatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                  MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  int root, MPI_Comm comm, MPI_Request* request) {
    return scatter(Blocks::ragged(sendbuf, sendcounts, displs, sendtype), recvbuf, recvcount,
                   recvtype, root, comm, Flavor::nonblocking, request);
}

int MPI_Iallgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    return allgather(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                     Flavor::nonblocking, request);
}

int MPI_Iallgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm,
                    MPI_Request* request) {
    return allgatherv(sendbuf, sendcount, sendtype,
                      Blocks::ragged(recvbuf, recvcounts, displs, recvtype), comm,
                      Flavor::nonblocking, request);
}

int MPI_Ialltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    return alltoall(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                    Flavor::nonblocking, request);
}

int MPI_Ialltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                   MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                   MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    return alltoallv(Blocks::ragged(sendbuf, sendcounts, sdispls, sendtype),
                     Blocks::ragged(recvbuf, recvcounts, rdispls, recvtype), comm,
                     Flavor::nonblocking, request);
}

int MPI_Ireduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                int root, MPI_Comm comm, MPI_Request* request) {
    return reduce(sendbuf, recvbuf, count, type, op, root, comm, Flavor::nonblocking, request);
}

int MPI_Iallreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                   MPI_Comm comm, MPI_Request* request) {
    return allreduce(sendbuf, recvbuf, count, type, op, comm, Flavor::nonblocking, request);
}

int MPI_Iscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
              MPI_Comm comm, MPI_Request* request) {
    return scan(sendbuf, recvbuf, count, type, op, false, comm, Flavor::nonblocking, request);
}

int MPI_Iexscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                MPI_Comm comm, MPI_Request* request) {
    return scan(sendbuf, recvbuf, count, type, op, true, comm, Flavor::nonblocking, request);
}

// ---------------------------------------------------------------------------
// Persistent collectives (MPI-4 *_init + MPI_Start). Initialization freezes
// everything the blocking call decides per invocation — algorithm selection
// (cost model / XMPI_ALG_* / XMPI_T_alg_set), topology composition, the
// v-variants' count and displacement arrays (read while building, so the
// caller's arrays need not outlive the call) and the collective sequence
// number — and materializes the schedule exactly once. MPI_Start re-arms
// the schedule (Schedule::reset) and replays it: bound user buffers are
// re-read by the execution-time steps, so each start observes the buffer
// contents current at that start. Rounds of one persistent request match
// each other FIFO per (source, tag); interleaved one-shot collectives use
// fresh sequence numbers and cannot interfere.
// ---------------------------------------------------------------------------

int MPI_Barrier_init(MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return barrier(comm, Flavor::persistent, request);
}

int MPI_Bcast_init(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm, int /*info*/,
                   MPI_Request* request) {
    return bcast(buf, count, type, root, comm, Flavor::persistent, request);
}

int MPI_Reduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                    int root, MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return reduce(sendbuf, recvbuf, count, type, op, root, comm, Flavor::persistent, request);
}

int MPI_Allreduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                       MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return allreduce(sendbuf, recvbuf, count, type, op, comm, Flavor::persistent, request);
}

int MPI_Allgather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                       int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int /*info*/,
                       MPI_Request* request) {
    return allgather(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                     Flavor::persistent, request);
}

int MPI_Alltoall_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                      int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int /*info*/,
                      MPI_Request* request) {
    return alltoall(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                    Flavor::persistent, request);
}

int MPI_Gather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int /*info*/,
                    MPI_Request* request) {
    return gather(sendbuf, sendcount, sendtype, Blocks::uniform(recvbuf, recvcount, recvtype),
                  root, comm, Flavor::persistent, request);
}

int MPI_Gatherv_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                     MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return gather(sendbuf, sendcount, sendtype,
                  Blocks::ragged(recvbuf, recvcounts, displs, recvtype), root, comm,
                  Flavor::persistent, request);
}

int MPI_Scatter_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int /*info*/,
                     MPI_Request* request) {
    return scatter(Blocks::uniform(sendbuf, sendcount, sendtype), recvbuf, recvcount, recvtype,
                   root, comm, Flavor::persistent, request);
}

int MPI_Scatterv_init(const void* sendbuf, const int* sendcounts, const int* displs,
                      MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                      int root, MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return scatter(Blocks::ragged(sendbuf, sendcounts, displs, sendtype), recvbuf, recvcount,
                   recvtype, root, comm, Flavor::persistent, request);
}
