/// @file alltoall.cpp
/// @brief Alltoall algorithms: pairwise exchange (p-1 rounds, one partner
/// per round — the flat reference) and Bruck's algorithm (ceil(log2 p)
/// rounds over packed blocks: a local rotation, log-many shifted exchanges
/// of the blocks whose index has the round's bit set, and an inverse
/// rotation on unpack — latency-optimal for small blocks). The pairwise
/// exchange is written over per-peer blocks, so it is the alltoallv and
/// alltoallw builder too.
#include <algorithm>
#include <cstring>

#include "algorithms.hpp"

namespace xmpi::detail::alg {

void build_alltoallv(Schedule& s, Blocks const& send, Blocks const& recv) {
    int const p = s.size();
    int const r = s.rank();
    // Own block as an execution-time step (not at build time) so a restarted
    // schedule re-reads the send buffer contents current at that start.
    append_copy(s, send.at(r), send.count_of(r), send.type_of(r), recv.at(r), recv.type_of(r));
    for (int i = 1; i < p; ++i) {
        int const dst = (r + i) % p;
        int const src = (r - i + p) % p;
        int const slot = s.post(src, i, recv.at(src), recv.count_of(src), recv.type_of(src));
        s.send(dst, i, send.at(dst), send.count_of(dst), send.type_of(dst));
        s.wait(slot);
    }
}

namespace {

void build_bruck(Schedule& s, void const* sendbuf, int sendcount, MPI_Datatype sendtype,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    int const p = s.size();
    int const r = s.rank();
    std::size_t const bb =
        static_cast<std::size_t>(sendcount) * static_cast<std::size_t>(sendtype->size);
    std::byte* const tmp = s.alloc(static_cast<std::size_t>(p) * bb);

    // Phase 1 (an input-snapshot step, re-run on every start): rotate so
    // tmp[j] holds the packed block destined for rank (r+j) % p.
    if (bb > 0) {
        s.local([tmp, sendbuf, sendcount, sendtype, bb, p, r]() {
            for (int j = 0; j < p; ++j) {
                sendtype->pack(
                    at_offset(sendbuf, static_cast<long long>((r + j) % p) * sendcount, sendtype),
                    sendcount, tmp + static_cast<std::size_t>(j) * bb);
            }
            return MPI_SUCCESS;
        });
    }

    // Phase 2: for each bit, forward the blocks whose index has that bit set
    // by 2^k positions around the ring. Invariant: after processing bit b,
    // tmp[j] holds data destined to rank (r + j) % p that already traveled
    // the bits of j below b.
    int k = 0;
    for (int pof2 = 1; pof2 < p; pof2 <<= 1, ++k) {
        // The blocks with this bit set are the runs [b, b+pof2) for
        // b = pof2, 3*pof2, ...: counted in closed form here and enumerated
        // only inside the execution-time pack/unpack steps, so building the
        // schedule — in particular dry-building it for millions of simulated
        // ranks — costs O(1) per round instead of O(p).
        int const cycle = pof2 << 1;
        auto const n = static_cast<std::size_t>((p / cycle) * pof2 +
                                                std::max(0, p % cycle - pof2));
        std::byte* const pack = s.alloc(n * bb);
        std::byte* const unpack = s.alloc(n * bb);
        int const dst = (r + pof2) % p;
        int const src = (r - pof2 + p) % p;
        int const slot = s.post(src, k, unpack, static_cast<int>(n * bb), MPI_BYTE);
        s.local([tmp, pack, bb, p, pof2]() {
            if (bb == 0) return MPI_SUCCESS;
            std::size_t i = 0;
            for (int b = pof2; b < p; b += pof2 << 1)
                for (int j = b; j < std::min(b + pof2, p); ++j, ++i)
                    std::memcpy(pack + i * bb, tmp + static_cast<std::size_t>(j) * bb, bb);
            return MPI_SUCCESS;
        });
        s.send(dst, k, pack, static_cast<int>(n * bb), MPI_BYTE);
        s.wait(slot);
        s.local([tmp, unpack, bb, p, pof2]() {
            if (bb == 0) return MPI_SUCCESS;
            std::size_t i = 0;
            for (int b = pof2; b < p; b += pof2 << 1)
                for (int j = b; j < std::min(b + pof2, p); ++j, ++i)
                    std::memcpy(tmp + static_cast<std::size_t>(j) * bb, unpack + i * bb, bb);
            return MPI_SUCCESS;
        });
    }

    // Phase 3: tmp[j] now holds the data from rank (r - j + p) % p; inverse
    // rotation while unpacking into the caller's layout.
    s.local([tmp, recvbuf, recvcount, recvtype, bb, p, r]() {
        if (bb == 0) return MPI_SUCCESS;
        for (int j = 0; j < p; ++j) {
            int const src = (r - j + p) % p;
            recvtype->unpack(tmp + static_cast<std::size_t>(j) * bb, recvcount,
                             at_offset(recvbuf, static_cast<long long>(src) * recvcount, recvtype));
        }
        return MPI_SUCCESS;
    });
}

}  // namespace

int build_alltoall(int alg, Schedule& s, void const* sendbuf, int sendcount, MPI_Datatype sendtype,
                   void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    if (s.size() == 1) alg = 0;
    switch (alg) {
        case 0:
            build_alltoallv(s, Blocks::uniform(sendbuf, sendcount, sendtype),
                            Blocks::uniform(recvbuf, recvcount, recvtype));
            break;
        case 1: build_bruck(s, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype); break;
        case 2: return build_hier_alltoall(s, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype);
        default: return MPI_ERR_ARG;
    }
    return MPI_SUCCESS;
}

}  // namespace xmpi::detail::alg
