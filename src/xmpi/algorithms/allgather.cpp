/// @file allgather.cpp
/// @brief Allgather algorithms over `recvbuf` (the caller's own block is
/// already in place): flat (everyone sends to everyone), recursive doubling
/// (power-of-two comm sizes, log2 p rounds of doubling windows), and a ring
/// (p-1 rounds, each forwarding the newest block to the right neighbor).
/// The flat exchange is written over per-rank blocks, so it is allgatherv's
/// builder too.
#include "algorithms.hpp"

namespace xmpi::detail::alg {

void build_allgatherv(Schedule& s, Blocks const& recv) {
    int const p = s.size();
    int const r = s.rank();
    std::vector<int> slots(static_cast<std::size_t>(p), -1);
    // Deposit the sends, post every receive, then drain in ascending source
    // order. Posting is free in virtual time, so the order only matters for
    // wall time: sending first lets peers find the messages already queued
    // when they post, instead of parking until a deposit wakes them (~4 us
    // of a 4-rank 8-byte call).
    for (int i = 0; i < p; ++i) {
        if (i == r) continue;
        s.send(i, 0, recv.at(r), recv.count_of(r), recv.type_of(r));
    }
    for (int i = 0; i < p; ++i) {
        if (i == r) continue;
        slots[static_cast<std::size_t>(i)] =
            s.post(i, 0, recv.at(i), recv.count_of(i), recv.type_of(i));
    }
    for (int i = 0; i < p; ++i) {
        if (i == r) continue;
        s.wait(slots[static_cast<std::size_t>(i)]);
    }
}

namespace {

void build_rdoubling(Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    int const p = s.size();
    int const r = s.rank();
    for (int bit = 1, k = 0; bit < p; bit <<= 1, ++k) {
        int const partner = r ^ bit;
        int const mine = r & ~(bit - 1);
        int const theirs = partner & ~(bit - 1);
        int const slot =
            s.post(partner, k,
                   at_offset(recvbuf, static_cast<long long>(theirs) * recvcount, recvtype),
                   bit * recvcount, recvtype);
        s.send(partner, k, at_offset(recvbuf, static_cast<long long>(mine) * recvcount, recvtype),
               bit * recvcount, recvtype);
        s.wait(slot);
    }
}

void build_ring(Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    int const p = s.size();
    int const r = s.rank();
    int const right = (r + 1) % p;
    int const left = (r - 1 + p) % p;
    for (int k = 0; k < p - 1; ++k) {
        int const sblock = (r - k + p) % p;
        int const rblock = (r - k - 1 + p) % p;
        int const slot =
            s.post(left, k, at_offset(recvbuf, static_cast<long long>(rblock) * recvcount, recvtype),
                   recvcount, recvtype);
        s.send(right, k, at_offset(recvbuf, static_cast<long long>(sblock) * recvcount, recvtype),
               recvcount, recvtype);
        s.wait(slot);
    }
}

}  // namespace

int build_allgather(int alg, Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    if (s.size() == 1) return MPI_SUCCESS;
    switch (alg) {
        case 0: build_allgatherv(s, Blocks::uniform(recvbuf, recvcount, recvtype)); break;
        case 1: build_rdoubling(s, recvbuf, recvcount, recvtype); break;
        case 2: build_ring(s, recvbuf, recvcount, recvtype); break;
        case 3: return build_hier_allgather(s, recvbuf, recvcount, recvtype);
        default: return MPI_ERR_ARG;
    }
    return MPI_SUCCESS;
}

}  // namespace xmpi::detail::alg
