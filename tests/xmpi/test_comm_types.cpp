/// @file test_comm_types.cpp
/// @brief Communicator management, derived datatypes (pack/unpack round
/// trips, and the dense fast path checked against a recursive reference
/// walk), topology/neighborhood collectives and ULFM fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "kamping/mpi_datatype.hpp"
#include "src/xmpi/internal.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

// ---------------------------------------------------------------------------
// Communicators
// ---------------------------------------------------------------------------

TEST(Comm, WorldSizeRank) {
    xmpi::run(5, [](int rank) {
        int size = 0, r = -1;
        MPI_Comm_size(MPI_COMM_WORLD, &size);
        MPI_Comm_rank(MPI_COMM_WORLD, &r);
        EXPECT_EQ(size, 5);
        EXPECT_EQ(r, rank);
    });
}

TEST(Comm, DupIsIsolated) {
    xmpi::run(3, [](int rank) {
        MPI_Comm dup;
        ASSERT_EQ(MPI_Comm_dup(MPI_COMM_WORLD, &dup), MPI_SUCCESS);
        int size = 0;
        MPI_Comm_size(dup, &size);
        EXPECT_EQ(size, 3);
        // A message on the dup must not match a receive on world.
        if (rank == 0) {
            int v = 1;
            MPI_Send(&v, 1, MPI_INT, 1, 0, dup);
            v = 2;
            MPI_Send(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
        } else if (rank == 1) {
            int w = 0;
            MPI_Recv(&w, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(w, 2);
            MPI_Recv(&w, 1, MPI_INT, 0, 0, dup, MPI_STATUS_IGNORE);
            EXPECT_EQ(w, 1);
        }
        int cmp = -1;
        MPI_Comm_compare(MPI_COMM_WORLD, dup, &cmp);
        EXPECT_EQ(cmp, MPI_CONGRUENT);
        MPI_Comm_free(&dup);
        EXPECT_EQ(dup, MPI_COMM_NULL);
    });
}

TEST(Comm, SplitEvenOdd) {
    xmpi::run(6, [](int rank) {
        MPI_Comm sub;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, rank % 2, rank, &sub), MPI_SUCCESS);
        int size = 0, r = -1;
        MPI_Comm_size(sub, &size);
        MPI_Comm_rank(sub, &r);
        EXPECT_EQ(size, 3);
        EXPECT_EQ(r, rank / 2);
        MPI_Comm_free(&sub);
    });
}

TEST(Comm, SplitWithKeyReversesOrder) {
    xmpi::run(4, [](int rank) {
        MPI_Comm sub;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, 0, -rank, &sub), MPI_SUCCESS);
        int r = -1;
        MPI_Comm_rank(sub, &r);
        EXPECT_EQ(r, 3 - rank);
        MPI_Comm_free(&sub);
    });
}

TEST(Comm, SplitUndefinedYieldsNull) {
    xmpi::run(4, [](int rank) {
        MPI_Comm sub;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, rank == 0 ? MPI_UNDEFINED : 1, rank, &sub),
                  MPI_SUCCESS);
        if (rank == 0) {
            EXPECT_EQ(sub, MPI_COMM_NULL);
        } else {
            int size = 0;
            MPI_Comm_size(sub, &size);
            EXPECT_EQ(size, 3);
            MPI_Comm_free(&sub);
        }
    });
}

TEST(Comm, NestedSplits) {
    xmpi::run(8, [](int rank) {
        MPI_Comm half, quarter;
        MPI_Comm_split(MPI_COMM_WORLD, rank / 4, rank, &half);
        MPI_Comm_split(half, rank % 2, rank, &quarter);
        int v = 1, sum = 0;
        MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, quarter);
        EXPECT_EQ(sum, 2);
        MPI_Comm_free(&quarter);
        MPI_Comm_free(&half);
    });
}

// ---------------------------------------------------------------------------
// Derived datatypes
// ---------------------------------------------------------------------------

TEST(Types, ContiguousRoundTrip) {
    xmpi::run(2, [](int rank) {
        MPI_Datatype triple;
        MPI_Type_contiguous(3, MPI_INT, &triple);
        MPI_Type_commit(&triple);
        int sz = 0;
        MPI_Type_size(triple, &sz);
        EXPECT_EQ(sz, 12);
        if (rank == 0) {
            std::vector<int> data{1, 2, 3, 4, 5, 6};
            MPI_Send(data.data(), 2, triple, 1, 0, MPI_COMM_WORLD);
        } else {
            std::vector<int> data(6, 0);
            MPI_Status st;
            MPI_Recv(data.data(), 2, triple, 0, 0, MPI_COMM_WORLD, &st);
            int count = 0;
            MPI_Get_count(&st, triple, &count);
            EXPECT_EQ(count, 2);
            for (int i = 0; i < 6; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i + 1);
        }
        MPI_Type_free(&triple);
    });
}

TEST(Types, VectorStridedColumns) {
    // Send a column of a 4x4 row-major matrix.
    xmpi::run(2, [](int rank) {
        MPI_Datatype col;
        MPI_Type_vector(4, 1, 4, MPI_INT, &col);
        MPI_Type_commit(&col);
        if (rank == 0) {
            std::array<int, 16> m{};
            for (int i = 0; i < 16; ++i) m[static_cast<std::size_t>(i)] = i;
            MPI_Send(m.data() + 1, 1, col, 1, 0, MPI_COMM_WORLD);  // column 1
        } else {
            std::array<int, 4> colvals{};
            MPI_Recv(colvals.data(), 4, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(colvals[0], 1);
            EXPECT_EQ(colvals[1], 5);
            EXPECT_EQ(colvals[2], 9);
            EXPECT_EQ(colvals[3], 13);
        }
        MPI_Type_free(&col);
    });
}

TEST(Types, IndexedGapsSkipped) {
    xmpi::run(2, [](int rank) {
        int blocklens[] = {2, 1};
        int displs[] = {0, 4};
        MPI_Datatype ty;
        MPI_Type_indexed(2, blocklens, displs, MPI_INT, &ty);
        MPI_Type_commit(&ty);
        if (rank == 0) {
            std::array<int, 5> src{10, 11, 12, 13, 14};
            MPI_Send(src.data(), 1, ty, 1, 0, MPI_COMM_WORLD);
        } else {
            std::array<int, 3> dst{};
            MPI_Recv(dst.data(), 3, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(dst[0], 10);
            EXPECT_EQ(dst[1], 11);
            EXPECT_EQ(dst[2], 14);
        }
        MPI_Type_free(&ty);
    });
}

namespace {
struct Padded {
    char c;
    // 7 bytes padding
    double d;
    int i;
};
}  // namespace

TEST(Types, StructWithPadding) {
    xmpi::run(2, [](int rank) {
        int blocklens[] = {1, 1, 1};
        MPI_Aint displs[] = {offsetof(Padded, c), offsetof(Padded, d), offsetof(Padded, i)};
        MPI_Datatype fields[] = {MPI_CHAR, MPI_DOUBLE, MPI_INT};
        MPI_Datatype raw, ty;
        MPI_Type_create_struct(3, blocklens, displs, fields, &raw);
        MPI_Type_create_resized(raw, 0, sizeof(Padded), &ty);
        MPI_Type_commit(&ty);
        int sz = 0;
        MPI_Type_size(ty, &sz);
        EXPECT_EQ(sz, static_cast<int>(sizeof(char) + sizeof(double) + sizeof(int)));
        MPI_Aint lb = 0, extent = 0;
        MPI_Type_get_extent(ty, &lb, &extent);
        EXPECT_EQ(extent, static_cast<MPI_Aint>(sizeof(Padded)));
        if (rank == 0) {
            std::array<Padded, 3> src{{{'a', 1.5, 10}, {'b', 2.5, 20}, {'c', 3.5, 30}}};
            MPI_Send(src.data(), 3, ty, 1, 0, MPI_COMM_WORLD);
        } else {
            std::array<Padded, 3> dst{};
            MPI_Recv(dst.data(), 3, ty, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(dst[1].c, 'b');
            EXPECT_DOUBLE_EQ(dst[2].d, 3.5);
            EXPECT_EQ(dst[0].i, 10);
        }
        MPI_Type_free(&ty);
        MPI_Type_free(&raw);
    });
}

TEST(Types, ContiguousBytesForTriviallyCopyable) {
    // The KaMPIng default for trivially copyable structs: contiguous bytes.
    xmpi::run(2, [](int rank) {
        MPI_Datatype bytes;
        MPI_Type_contiguous(sizeof(Padded), MPI_BYTE, &bytes);
        MPI_Type_commit(&bytes);
        if (rank == 0) {
            Padded v{'x', 9.25, 77};
            MPI_Send(&v, 1, bytes, 1, 0, MPI_COMM_WORLD);
        } else {
            Padded v{};
            MPI_Recv(&v, 1, bytes, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v.c, 'x');
            EXPECT_DOUBLE_EQ(v.d, 9.25);
            EXPECT_EQ(v.i, 77);
        }
        MPI_Type_free(&bytes);
    });
}

// ---------------------------------------------------------------------------
// Dense fast path vs. the recursive reference walk
// ---------------------------------------------------------------------------

namespace {

using xmpi::detail::DatatypeImpl;

/// The recursive pack/unpack the datatype engine used before the dense flag
/// was computed at construction, kept verbatim (per-level flat check
/// included) as the reference pack and unpack must reproduce byte for byte.
bool ref_is_flat(DatatypeImpl const& t) {
    if (t.is_builtin) return true;
    if (t.extent != t.size || t.lb != 0) return false;
    switch (t.kind) {
        case DatatypeImpl::Kind::builtin: return true;
        case DatatypeImpl::Kind::contiguous: return ref_is_flat(*t.child);
        default: return false;
    }
}

void ref_pack(DatatypeImpl const& t, void const* src, int n, std::byte* dst) {
    auto const* s = static_cast<std::byte const*>(src);
    if (ref_is_flat(t)) {
        std::memcpy(dst, s, static_cast<std::size_t>(n) * static_cast<std::size_t>(t.size));
        return;
    }
    for (int e = 0; e < n; ++e) {
        std::byte const* base = s + static_cast<std::ptrdiff_t>(e) * t.extent;
        switch (t.kind) {
            case DatatypeImpl::Kind::builtin:
                std::memcpy(dst, base, static_cast<std::size_t>(t.size));
                dst += t.size;
                break;
            case DatatypeImpl::Kind::contiguous:
                ref_pack(*t.child, base, t.count, dst);
                dst += static_cast<std::size_t>(t.count) * static_cast<std::size_t>(t.child->size);
                break;
            case DatatypeImpl::Kind::vector:
                for (int b = 0; b < t.count; ++b) {
                    ref_pack(*t.child, base + static_cast<std::ptrdiff_t>(b) * t.stride * t.child->extent,
                             t.blocklength, dst);
                    dst += static_cast<std::size_t>(t.blocklength) *
                           static_cast<std::size_t>(t.child->size);
                }
                break;
            case DatatypeImpl::Kind::indexed:
                for (std::size_t b = 0; b < t.blocklengths.size(); ++b) {
                    ref_pack(*t.child, base + t.displacements[b] * t.child->extent,
                             t.blocklengths[b], dst);
                    dst += static_cast<std::size_t>(t.blocklengths[b]) *
                           static_cast<std::size_t>(t.child->size);
                }
                break;
            case DatatypeImpl::Kind::strct:
                for (std::size_t b = 0; b < t.blocklengths.size(); ++b) {
                    ref_pack(*t.children[b], base + t.displacements[b] - t.lb, t.blocklengths[b],
                             dst);
                    dst += static_cast<std::size_t>(t.blocklengths[b]) *
                           static_cast<std::size_t>(t.children[b]->size);
                }
                break;
        }
    }
}

void ref_unpack(DatatypeImpl const& t, std::byte const* src, int n, void* dst) {
    auto* d = static_cast<std::byte*>(dst);
    if (ref_is_flat(t)) {
        std::memcpy(d, src, static_cast<std::size_t>(n) * static_cast<std::size_t>(t.size));
        return;
    }
    for (int e = 0; e < n; ++e) {
        std::byte* base = d + static_cast<std::ptrdiff_t>(e) * t.extent;
        switch (t.kind) {
            case DatatypeImpl::Kind::builtin:
                std::memcpy(base, src, static_cast<std::size_t>(t.size));
                src += t.size;
                break;
            case DatatypeImpl::Kind::contiguous:
                ref_unpack(*t.child, src, t.count, base);
                src += static_cast<std::size_t>(t.count) * static_cast<std::size_t>(t.child->size);
                break;
            case DatatypeImpl::Kind::vector:
                for (int b = 0; b < t.count; ++b) {
                    ref_unpack(*t.child, src, t.blocklength,
                               base + static_cast<std::ptrdiff_t>(b) * t.stride * t.child->extent);
                    src += static_cast<std::size_t>(t.blocklength) *
                           static_cast<std::size_t>(t.child->size);
                }
                break;
            case DatatypeImpl::Kind::indexed:
                for (std::size_t b = 0; b < t.blocklengths.size(); ++b) {
                    ref_unpack(*t.child, src, t.blocklengths[b],
                               base + t.displacements[b] * t.child->extent);
                    src += static_cast<std::size_t>(t.blocklengths[b]) *
                           static_cast<std::size_t>(t.child->size);
                }
                break;
            case DatatypeImpl::Kind::strct:
                for (std::size_t b = 0; b < t.blocklengths.size(); ++b) {
                    ref_unpack(*t.children[b], src, t.blocklengths[b],
                               base + t.displacements[b] - t.lb);
                    src += static_cast<std::size_t>(t.blocklengths[b]) *
                           static_cast<std::size_t>(t.children[b]->size);
                }
                break;
        }
    }
}

/// Byte range [lo, hi) one element at offset `off` touches, by the same
/// walk as ref_pack (lo > hi when it touches nothing).
void ref_bounds(DatatypeImpl const& t, MPI_Aint off, MPI_Aint& lo, MPI_Aint& hi) {
    auto elems = [&](DatatypeImpl const& c, MPI_Aint at, int n) {
        for (int j = 0; j < n; ++j) ref_bounds(c, at + j * c.extent, lo, hi);
    };
    switch (t.kind) {
        case DatatypeImpl::Kind::builtin:
            lo = std::min(lo, off);
            hi = std::max(hi, off + t.size);
            break;
        case DatatypeImpl::Kind::contiguous: elems(*t.child, off, t.count); break;
        case DatatypeImpl::Kind::vector:
            for (int b = 0; b < t.count; ++b)
                elems(*t.child, off + static_cast<MPI_Aint>(b) * t.stride * t.child->extent,
                      t.blocklength);
            break;
        case DatatypeImpl::Kind::indexed:
            for (std::size_t b = 0; b < t.blocklengths.size(); ++b)
                elems(*t.child, off + t.displacements[b] * t.child->extent, t.blocklengths[b]);
            break;
        case DatatypeImpl::Kind::strct:
            for (std::size_t b = 0; b < t.blocklengths.size(); ++b)
                elems(*t.children[b], off + t.displacements[b] - t.lb, t.blocklengths[b]);
            break;
    }
}

/// Memory holding `n` elements of `t` with guard bytes on both sides, all
/// filled from `rng`; element 0 starts at `base()`.
struct TypedBuffer {
    TypedBuffer(DatatypeImpl const& t, int n, std::mt19937& rng) {
        MPI_Aint lo = 0, hi = 0;
        ref_bounds(t, 0, lo, hi);
        MPI_Aint const span = static_cast<MPI_Aint>(std::max(n - 1, 0)) * t.extent;
        lo += std::min<MPI_Aint>(0, span);
        hi += std::max<MPI_Aint>(0, span);
        bytes.resize(static_cast<std::size_t>(hi - lo + 2 * kGuard));
        for (auto& b : bytes) b = static_cast<std::byte>(rng());
        origin = kGuard - lo;
    }
    std::byte* base() { return bytes.data() + origin; }
    static constexpr MPI_Aint kGuard = 64;
    std::vector<std::byte> bytes;
    MPI_Aint origin;
};

/// Seeded random type trees: contiguous, vector (positive and negative
/// stride), indexed (zero-length blocks allowed), struct (in-order,
/// padded or shuffled members) and resized (lb may be nonzero), nested up
/// to `depth` levels over a few builtins. A `wide` forest also draws
/// leaves of 100-300 separate chars, so its trees have many blocks.
/// Owns every type it builds.
struct TypeForest {
    explicit TypeForest(unsigned seed) : rng(seed) {}
    ~TypeForest() {
        for (auto& t : built) MPI_Type_free(&t);
    }
    TypeForest(TypeForest const&) = delete;
    TypeForest& operator=(TypeForest const&) = delete;

    int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); }

    MPI_Datatype keep(MPI_Datatype t) {
        MPI_Type_commit(&t);
        built.push_back(t);
        return t;
    }

    MPI_Datatype make(int depth) {
        static MPI_Datatype const leaves[] = {MPI_CHAR, MPI_SHORT, MPI_INT, MPI_DOUBLE,
                                              MPI_UINT64_T};
        MPI_Datatype t = MPI_DATATYPE_NULL;
        if (depth == 0 && wide && pick(0, 1) == 0) {
            MPI_Type_vector(pick(100, 300), 1, 2, MPI_CHAR, &t);
            return keep(t);
        }
        if (depth == 0 || pick(0, 5) == 0) return leaves[pick(0, 4)];
        switch (pick(0, 4)) {
            case 0: MPI_Type_contiguous(pick(0, 3), make(depth - 1), &t); break;
            case 1: {
                int const count = pick(0, 3);
                int const bl = pick(0, 2);
                MPI_Type_vector(count, bl, pick(-3, 3), make(depth - 1), &t);
                break;
            }
            case 2: {
                int const count = pick(0, 3);
                std::vector<int> bl, displs;
                for (int i = 0; i < count; ++i) {
                    bl.push_back(pick(0, 2));
                    displs.push_back(pick(0, 5));
                }
                MPI_Type_indexed(count, bl.data(), displs.data(), make(depth - 1), &t);
                break;
            }
            case 3: {
                int const count = pick(1, 3);
                int const mode = pick(0, 2);  // in order, padded, shuffled
                std::vector<int> bl;
                std::vector<MPI_Aint> displs;
                std::vector<MPI_Datatype> types;
                MPI_Aint at = 0;
                for (int i = 0; i < count; ++i) {
                    types.push_back(make(depth - 1));
                    bl.push_back(pick(0, 2));
                    if (mode == 1) at += pick(0, 8);
                    displs.push_back(at);
                    at += bl.back() * std::max<MPI_Aint>(types.back()->extent, 0);
                }
                if (mode == 2) std::shuffle(displs.begin(), displs.end(), rng);
                MPI_Type_create_struct(count, bl.data(), displs.data(), types.data(), &t);
                break;
            }
            default: {
                MPI_Datatype const child = make(depth - 1);
                MPI_Type_create_resized(child, pick(-8, 8),
                                        std::max<MPI_Aint>(child->extent, 0) + pick(0, 8), &t);
                break;
            }
        }
        return keep(t);
    }

    std::mt19937 rng;
    bool wide = false;
    std::vector<MPI_Datatype> built;
};

/// Seeds 1-300 build 3-deep trees; 301-400 build wide 1-deep ones (kept
/// shallow so 1000 elements stay a few MiB).
MPI_Datatype make_tree(TypeForest& forest, unsigned seed) {
    forest.wide = seed > 300;
    return forest.make(forest.wide ? 1 : 3);
}

/// Asserts pack, unpack and typed_copy of `n` elements of `t` are
/// byte-identical to the reference walk, guard bytes included.
void expect_matches_reference(MPI_Datatype t, int n, std::mt19937& rng) {
    std::size_t const packed = static_cast<std::size_t>(n) * static_cast<std::size_t>(t->size);
    TypedBuffer src(*t, n, rng);
    std::vector<std::byte> want(packed + 16, std::byte{0x5a});
    std::vector<std::byte> got(want);
    ref_pack(*t, src.base(), n, want.data());
    t->pack(src.base(), n, got.data());
    ASSERT_EQ(got, want) << "pack, n=" << n;

    TypedBuffer const fresh(*t, n, rng);  // every destination starts as this
    TypedBuffer ref_dst = fresh;
    TypedBuffer dst = fresh;
    ref_unpack(*t, want.data(), n, ref_dst.base());
    t->unpack(want.data(), n, dst.base());
    ASSERT_EQ(dst.bytes, ref_dst.bytes) << "unpack, n=" << n;

    // typed_copy to the same type and to the packed bytes, both ways.
    TypedBuffer same = fresh;
    xmpi::detail::typed_copy(src.base(), n, t, same.base(), t);
    ASSERT_EQ(same.bytes, ref_dst.bytes) << "typed_copy same type, n=" << n;
    if (t->size > 0) {
        MPI_Datatype bytes_t = MPI_DATATYPE_NULL;
        MPI_Type_contiguous(t->size, MPI_BYTE, &bytes_t);
        std::vector<std::byte> flat(want.size(), std::byte{0x5a});
        xmpi::detail::typed_copy(src.base(), n, t, flat.data(), bytes_t);
        ASSERT_EQ(flat, want) << "typed_copy to bytes, n=" << n;
        TypedBuffer back = fresh;
        xmpi::detail::typed_copy(want.data(), n, bytes_t, back.base(), t);
        ASSERT_EQ(back.bytes, ref_dst.bytes) << "typed_copy from bytes, n=" << n;
        MPI_Type_free(&bytes_t);
    }
}

}  // namespace

TEST(TypeLayout, RandomTreesMatchRecursiveReference) {
    for (unsigned seed = 1; seed <= 400; ++seed) {
        TypeForest forest(seed);
        MPI_Datatype const t = make_tree(forest, seed);
        std::mt19937 rng(seed);
        for (int n : {0, 1, 7, 1000}) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " size " << t->size
                                            << " extent " << t->extent << " lb " << t->lb);
            expect_matches_reference(t, n, rng);
            if (testing::Test::HasFatalFailure()) return;
        }
    }
}

TEST(TypeLayout, RandomTreesReachBothPaths) {
    int dense = 0;  // derived types only: builtin leaves are dense trivially
    int walked = 0;
    for (unsigned seed = 1; seed <= 400; ++seed) {
        TypeForest forest(seed);
        MPI_Datatype const t = make_tree(forest, seed);
        if (!t->is_builtin) ++(t->dense ? dense : walked);
    }
    EXPECT_GT(dense, 0);
    EXPECT_GT(walked, 0);
}

TEST(TypeLayout, DenseTypes) {
    using U64Pair = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_TRUE(kamping::mpi_datatype<U64Pair>()->dense);
    EXPECT_TRUE(MPI_INT->dense);

    MPI_Datatype four;
    MPI_Type_contiguous(4, MPI_INT, &four);
    EXPECT_TRUE(four->dense);

    // Padding-free struct {int, float, double} wrapped like struct_type<T>.
    int bl[] = {1, 1, 1};
    MPI_Aint displs[] = {0, 4, 8};
    MPI_Datatype fields[] = {MPI_INT, MPI_FLOAT, MPI_DOUBLE};
    MPI_Datatype raw, packed;
    MPI_Type_create_struct(3, bl, displs, fields, &raw);
    MPI_Type_create_resized(raw, 0, 16, &packed);
    EXPECT_TRUE(packed->dense);

    // Blocks abutting is enough only when pack order is memory order.
    MPI_Aint swapped_displs[] = {4, 0};
    int bl2[] = {1, 1};
    MPI_Datatype ints[] = {MPI_INT, MPI_INT};
    MPI_Datatype swapped;
    MPI_Type_create_struct(2, bl2, swapped_displs, ints, &swapped);
    EXPECT_FALSE(swapped->dense);

    MPI_Datatype shifted;
    MPI_Type_create_resized(MPI_INT, -4, 8, &shifted);
    EXPECT_FALSE(shifted->dense);

    for (MPI_Datatype* t : {&four, &raw, &packed, &swapped, &shifted}) MPI_Type_free(t);
}

TEST(TypeLayout, SparseVectorRoundTrips) {
    // Every other int of 300, and two of those: both take the recursive
    // walk, pack to 300 and 600 ints, and travel through send/recv.
    MPI_Datatype sparse, twice;
    MPI_Type_vector(300, 1, 2, MPI_INT, &sparse);
    MPI_Type_contiguous(2, sparse, &twice);
    MPI_Type_commit(&sparse);
    MPI_Type_commit(&twice);
    EXPECT_FALSE(sparse->dense);
    EXPECT_FALSE(twice->dense);
    std::mt19937 rng(7);
    for (int n : {0, 1, 7}) {
        expect_matches_reference(sparse, n, rng);
        expect_matches_reference(twice, n, rng);
    }
    xmpi::run(2, [&](int rank) {
        std::vector<int> buf(1200);
        if (rank == 0) {
            std::iota(buf.begin(), buf.end(), 0);
            MPI_Send(buf.data(), 1, twice, 1, 0, MPI_COMM_WORLD);
        } else {
            MPI_Recv(buf.data(), 1, twice, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            // sparse spans 599 ints, so the second element starts at int 599.
            for (int i = 0; i < 1200; ++i) {
                bool const touched = i < 2 * 599 && (i % 599) % 2 == 0;
                EXPECT_EQ(buf[static_cast<std::size_t>(i)], touched ? i : 0) << i;
            }
        }
    });
    MPI_Type_free(&twice);
    MPI_Type_free(&sparse);
}

// ---------------------------------------------------------------------------
// Topology + neighborhood collectives
// ---------------------------------------------------------------------------

TEST(Topology, RingNeighborAlltoall) {
    xmpi::run(4, [](int rank) {
        int const left = (rank + 3) % 4;
        int const right = (rank + 1) % 4;
        int sources[] = {left, right};
        int dests[] = {left, right};
        MPI_Comm ring;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 2, sources, nullptr, 2, dests,
                                                 nullptr, MPI_INFO_NULL, 0, &ring),
                  MPI_SUCCESS);
        int in_deg = 0, out_deg = 0, weighted = -1;
        MPI_Dist_graph_neighbors_count(ring, &in_deg, &out_deg, &weighted);
        EXPECT_EQ(in_deg, 2);
        EXPECT_EQ(out_deg, 2);
        int send[] = {rank * 10, rank * 10 + 1};  // to left, to right
        int recv[2] = {-1, -1};                   // from left, from right
        ASSERT_EQ(MPI_Neighbor_alltoall(send, 1, MPI_INT, recv, 1, MPI_INT, ring), MPI_SUCCESS);
        EXPECT_EQ(recv[0], left * 10 + 1);   // left neighbor sent "to right"
        EXPECT_EQ(recv[1], right * 10);      // right neighbor sent "to left"
        MPI_Comm_free(&ring);
    });
}

TEST(Topology, NeighborAlltoallvVariableSizes) {
    xmpi::run(3, [](int rank) {
        // Complete graph; rank r sends r+1 ints to each neighbor.
        std::vector<int> nbrs;
        for (int i = 0; i < 3; ++i)
            if (i != rank) nbrs.push_back(i);
        MPI_Comm g;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 2, nbrs.data(), nullptr, 2,
                                                 nbrs.data(), nullptr, MPI_INFO_NULL, 0, &g),
                  MPI_SUCCESS);
        std::vector<int> send(static_cast<std::size_t>(2 * (rank + 1)), rank);
        int scounts[] = {rank + 1, rank + 1};
        int sdispls[] = {0, rank + 1};
        int rcounts[2], rdispls[2];
        int total = 0;
        for (int j = 0; j < 2; ++j) {
            rcounts[j] = nbrs[static_cast<std::size_t>(j)] + 1;
            rdispls[j] = total;
            total += rcounts[j];
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Neighbor_alltoallv(send.data(), scounts, sdispls, MPI_INT, recv.data(),
                                         rcounts, rdispls, MPI_INT, g),
                  MPI_SUCCESS);
        for (int j = 0; j < 2; ++j)
            for (int k = 0; k < rcounts[j]; ++k)
                EXPECT_EQ(recv[static_cast<std::size_t>(rdispls[j] + k)],
                          nbrs[static_cast<std::size_t>(j)]);
        MPI_Comm_free(&g);
    });
}

TEST(Topology, EmptyAdjacencyListsAreValid) {
    // A rank with no sources and no destinations participates in the
    // collective without sending or receiving anything.
    xmpi::run(4, [](int rank) {
        MPI_Comm g;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 0, nullptr, nullptr, 0, nullptr,
                                                 nullptr, MPI_INFO_NULL, 0, &g),
                  MPI_SUCCESS);
        int in_deg = -1, out_deg = -1;
        MPI_Dist_graph_neighbors_count(g, &in_deg, &out_deg, nullptr);
        EXPECT_EQ(in_deg, 0);
        EXPECT_EQ(out_deg, 0);
        int sentinel = 0xBEEF + rank;
        EXPECT_EQ(MPI_Neighbor_alltoall(nullptr, 1, MPI_INT, &sentinel, 1, MPI_INT, g),
                  MPI_SUCCESS);
        EXPECT_EQ(sentinel, 0xBEEF + rank);  // untouched
        EXPECT_EQ(MPI_Neighbor_allgather(nullptr, 1, MPI_INT, &sentinel, 1, MPI_INT, g),
                  MPI_SUCCESS);
        EXPECT_EQ(sentinel, 0xBEEF + rank);
        MPI_Comm_free(&g);
    });
}

TEST(Topology, SelfLoopDeliversOwnBlock) {
    xmpi::run(3, [](int rank) {
        int self = rank;
        MPI_Comm g;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 1, &self, nullptr, 1, &self,
                                                 nullptr, MPI_INFO_NULL, 0, &g),
                  MPI_SUCCESS);
        int const send = rank * 7 + 1;
        int recv = -1;
        ASSERT_EQ(MPI_Neighbor_alltoall(&send, 1, MPI_INT, &recv, 1, MPI_INT, g), MPI_SUCCESS);
        EXPECT_EQ(recv, send);
        MPI_Comm_free(&g);
    });
}

TEST(Topology, AsymmetricInOutDegrees) {
    // 0 -> {1, 2}, 1 -> {2}: rank 0 only sends, rank 2 only receives, and
    // in/out degrees differ on every rank.
    xmpi::run(3, [](int rank) {
        std::vector<int> sources, dests;
        if (rank == 1) sources = {0};
        if (rank == 2) sources = {0, 1};
        if (rank == 0) dests = {1, 2};
        if (rank == 1) dests = {2};
        MPI_Comm g;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(
                      MPI_COMM_WORLD, static_cast<int>(sources.size()), sources.data(), nullptr,
                      static_cast<int>(dests.size()), dests.data(), nullptr, MPI_INFO_NULL, 0, &g),
                  MPI_SUCCESS);
        // Variable counts: rank r sends r+1 ints to each destination.
        std::vector<int> send(static_cast<std::size_t>(2 * (rank + 1)), rank + 100);
        std::vector<int> scounts(dests.size(), rank + 1), sdispls(dests.size());
        for (std::size_t i = 0; i < dests.size(); ++i)
            sdispls[i] = static_cast<int>(i) * (rank + 1);
        std::vector<int> rcounts(sources.size()), rdispls(sources.size());
        int total = 0;
        for (std::size_t j = 0; j < sources.size(); ++j) {
            rcounts[j] = sources[j] + 1;
            rdispls[j] = total;
            total += rcounts[j];
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Neighbor_alltoallv(send.data(), scounts.data(), sdispls.data(), MPI_INT,
                                         recv.data(), rcounts.data(), rdispls.data(), MPI_INT, g),
                  MPI_SUCCESS);
        for (std::size_t j = 0; j < sources.size(); ++j)
            for (int k = 0; k < rcounts[j]; ++k)
                EXPECT_EQ(recv[static_cast<std::size_t>(rdispls[j] + k)], sources[j] + 100);
        MPI_Comm_free(&g);
    });
}

TEST(Topology, NeighborAllgatherRing) {
    // Every rank contributes one block; each rank collects its two ring
    // neighbors' blocks in source order.
    xmpi::run(4, [](int rank) {
        int const left = (rank + 3) % 4;
        int const right = (rank + 1) % 4;
        int nbrs[] = {left, right};
        MPI_Comm ring;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 2, nbrs, nullptr, 2, nbrs,
                                                 nullptr, MPI_INFO_NULL, 0, &ring),
                  MPI_SUCCESS);
        int const mine[2] = {rank * 10, rank * 10 + 1};
        int got[4] = {-1, -1, -1, -1};
        ASSERT_EQ(MPI_Neighbor_allgather(mine, 2, MPI_INT, got, 2, MPI_INT, ring), MPI_SUCCESS);
        EXPECT_EQ(got[0], left * 10);
        EXPECT_EQ(got[1], left * 10 + 1);
        EXPECT_EQ(got[2], right * 10);
        EXPECT_EQ(got[3], right * 10 + 1);
        MPI_Comm_free(&ring);
    });
}

namespace {

/// Drives a generalized request to completion with non-blocking tests only.
void drive_request(MPI_Request req) {
    int flag = 0;
    while (flag == 0) ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
}

}  // namespace

TEST(Topology, IneighborAlltoallMatchesBlocking) {
    xmpi::run(4, [](int rank) {
        int const left = (rank + 3) % 4;
        int const right = (rank + 1) % 4;
        int nbrs[] = {left, right};
        MPI_Comm ring;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 2, nbrs, nullptr, 2, nbrs,
                                                 nullptr, MPI_INFO_NULL, 0, &ring),
                  MPI_SUCCESS);
        int send[] = {rank * 10, rank * 10 + 1};  // to left, to right
        int recv[2] = {-1, -1};
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Ineighbor_alltoall(send, 1, MPI_INT, recv, 1, MPI_INT, ring, &req),
                  MPI_SUCCESS);
        drive_request(req);
        EXPECT_EQ(recv[0], left * 10 + 1);
        EXPECT_EQ(recv[1], right * 10);
        MPI_Comm_free(&ring);
    });
}

TEST(Topology, IneighborAllgatherOverlapsCompute) {
    xmpi::run(4, [](int rank) {
        int const left = (rank + 3) % 4;
        int const right = (rank + 1) % 4;
        int nbrs[] = {left, right};
        MPI_Comm ring;
        ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 2, nbrs, nullptr, 2, nbrs,
                                                 nullptr, MPI_INFO_NULL, 0, &ring),
                  MPI_SUCCESS);
        int const mine = rank + 1;
        int got[2] = {-1, -1};
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Ineighbor_allgather(&mine, 1, MPI_INT, got, 1, MPI_INT, ring, &req),
                  MPI_SUCCESS);
        // Arbitrary local work between initiation and completion.
        volatile int work = 0;
        for (int i = 0; i < 1000; ++i) work = work + i;
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(got[0], left + 1);
        EXPECT_EQ(got[1], right + 1);
        MPI_Comm_free(&ring);
    });
}

// ---------------------------------------------------------------------------
// ULFM
// ---------------------------------------------------------------------------

namespace {

/// Canonical ULFM recovery pattern (paper Fig. 12): run collectives until a
/// failure surfaces, revoke so blocked peers unblock, then the caller can
/// shrink. Returns the error code that surfaced.
int detect_failure_and_revoke(MPI_Comm comm) {
    int rc;
    int v = 1, sum = 0;
    do {
        rc = MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, comm);
    } while (rc == MPI_SUCCESS);
    int revoked = 0;
    MPIX_Comm_is_revoked(comm, &revoked);
    if (revoked == 0) MPIX_Comm_revoke(comm);
    return rc;
}

}  // namespace

TEST(Ulfm, DeadRankFailsSends) {
    xmpi::run(3, [](int rank) {
        if (rank == 2) XMPI_Die();
        int v = 1;
        int rc;
        do {
            rc = MPI_Send(&v, 1, MPI_INT, 2, 0, MPI_COMM_WORLD);
        } while (rc == MPI_SUCCESS);
        EXPECT_EQ(rc, MPIX_ERR_PROC_FAILED);
    });
}

TEST(Ulfm, CollectiveReportsFailure) {
    xmpi::run(4, [](int rank) {
        if (rank == 3) XMPI_Die();
        int const rc = detect_failure_and_revoke(MPI_COMM_WORLD);
        EXPECT_TRUE(rc == MPIX_ERR_PROC_FAILED || rc == MPIX_ERR_REVOKED);
    });
}

TEST(Ulfm, RevokeShrinkContinue) {
    xmpi::run(4, [](int rank) {
        if (rank == 1) XMPI_Die();
        int const rc = detect_failure_and_revoke(MPI_COMM_WORLD);
        EXPECT_TRUE(rc == MPIX_ERR_PROC_FAILED || rc == MPIX_ERR_REVOKED);
        MPI_Comm survivors;
        ASSERT_EQ(MPIX_Comm_shrink(MPI_COMM_WORLD, &survivors), MPI_SUCCESS);
        int size = 0;
        MPI_Comm_size(survivors, &size);
        EXPECT_EQ(size, 3);
        int v = 1, sum = 0;
        ASSERT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, survivors), MPI_SUCCESS);
        EXPECT_EQ(sum, 3);
        MPI_Comm_free(&survivors);
    });
}

TEST(Ulfm, RevokedCommRejectsOperations) {
    xmpi::run(2, [](int rank) {
        MPI_Comm dup;
        MPI_Comm_dup(MPI_COMM_WORLD, &dup);
        MPI_Barrier(dup);
        if (rank == 0) MPIX_Comm_revoke(dup);
        // Wait until the revoke is visible everywhere.
        for (;;) {
            int flag = 0;
            MPIX_Comm_is_revoked(dup, &flag);
            if (flag != 0) break;
        }
        int v = 0;
        EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 1 - rank, 0, dup), MPIX_ERR_REVOKED);
        // World still works.
        int sum = 0;
        v = 1;
        EXPECT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        EXPECT_EQ(sum, 2);
        MPI_Comm_free(&dup);
    });
}

TEST(Ulfm, AgreeAcrossSurvivors) {
    xmpi::run(4, [](int rank) {
        if (rank == 2) XMPI_Die();
        detect_failure_and_revoke(MPI_COMM_WORLD);
        int flag = rank == 0 ? 0 : 1;  // one dissenter
        ASSERT_EQ(MPIX_Comm_agree(MPI_COMM_WORLD, &flag), MPI_SUCCESS);
        EXPECT_EQ(flag, 0);
    });
}
