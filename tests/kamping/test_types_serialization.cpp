/// @file test_types_serialization.cpp
/// @brief The type system (paper §III-D): builtin mapping, the
/// contiguous-bytes default for trivially copyable types, PFR-style struct
/// reflection, explicit mpi_type_traits, dynamic types, and serialization
/// round trips for nested STL structures.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "kamping/kamping.hpp"
#include "xmpi/xmpi.hpp"

using namespace kamping;

namespace {

// The paper's Fig. 4 example struct.
struct MyType {
    int a;
    double b;
    char c;
    std::array<int, 3> d;

    friend bool operator==(MyType const&, MyType const&) = default;
};

// A type registered through the built-in struct serializer (reflection).
struct Reflected {
    std::uint8_t x;
    double y;
    std::int16_t z;

    friend bool operator==(Reflected const&, Reflected const&) = default;
};

// A type with an explicitly constructed MPI datatype.
struct Explicit {
    double values[4];

    friend bool operator==(Explicit const& a, Explicit const& b) {
        for (int i = 0; i < 4; ++i)
            if (a.values[i] != b.values[i]) return false;
        return true;
    }
};

}  // namespace

// Register the reflection-based trait (paper Fig. 4, first variant).
template <>
struct kamping::mpi_type_traits<Reflected> : kamping::struct_type<Reflected> {};

// Register an explicitly constructed type (paper Fig. 4, second variant).
template <>
struct kamping::mpi_type_traits<Explicit> {
    static constexpr bool has_to_be_committed = true;
    static MPI_Datatype data_type() {
        MPI_Datatype t;
        MPI_Type_contiguous(4, MPI_DOUBLE, &t);
        return t;
    }
};

// ---------------------------------------------------------------------------
// Reflection
// ---------------------------------------------------------------------------

TEST(Reflection, ArityOfAggregates) {
    static_assert(kamping::reflection::arity<MyType>() == 4);
    static_assert(kamping::reflection::arity<Reflected>() == 3);
    struct One {
        int a;
    };
    struct Empty {};
    static_assert(kamping::reflection::arity<One>() == 1);
    static_assert(kamping::reflection::arity<Empty>() == 0);
}

TEST(Reflection, VisitsMembersInOrder) {
    MyType t{1, 2.5, 'x', {7, 8, 9}};
    int index = 0;
    kamping::reflection::for_each_member(t, [&](auto& member) {
        using M = std::remove_cvref_t<decltype(member)>;
        if constexpr (std::is_same_v<M, int>) {
            EXPECT_EQ(index, 0);
        } else if constexpr (std::is_same_v<M, double>) {
            EXPECT_EQ(index, 1);
        } else if constexpr (std::is_same_v<M, char>) {
            EXPECT_EQ(index, 2);
        }
        ++index;
    });
    EXPECT_EQ(index, 4);
}

// ---------------------------------------------------------------------------
// Datatype mapping
// ---------------------------------------------------------------------------

TEST(Datatypes, BuiltinsMapToMpiConstants) {
    EXPECT_EQ(mpi_datatype<int>(), MPI_INT);
    EXPECT_EQ(mpi_datatype<double>(), MPI_DOUBLE);
    EXPECT_EQ(mpi_datatype<unsigned long long>(), MPI_UNSIGNED_LONG_LONG);
    EXPECT_EQ(mpi_datatype<bool>(), MPI_CXX_BOOL);
    EXPECT_EQ(mpi_datatype<char>(), MPI_CHAR);
}

TEST(Datatypes, TriviallyCopyableDefaultsToContiguousBytes) {
    MPI_Datatype const t = mpi_datatype<MyType>();
    int size = 0;
    MPI_Type_size(t, &size);
    // The byte-contiguous default covers the full object including padding.
    EXPECT_EQ(size, static_cast<int>(sizeof(MyType)));
    // Construct-on-first-use: same handle every time.
    EXPECT_EQ(mpi_datatype<MyType>(), t);
}

TEST(Datatypes, ReflectedStructTypeSkipsPadding) {
    MPI_Datatype const t = mpi_datatype<Reflected>();
    int size = 0;
    MPI_Type_size(t, &size);
    // True data only: 1 + 8 + 2 bytes, no alignment gaps.
    EXPECT_EQ(size, 11);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    EXPECT_EQ(extent, static_cast<MPI_Aint>(sizeof(Reflected)));
}

TEST(Datatypes, RoundTripCustomTypes) {
    xmpi::run(2, [](int rank) {
        Communicator comm;
        if (rank == 0) {
            std::vector<MyType> v{{1, 1.5, 'a', {1, 2, 3}}, {2, 2.5, 'b', {4, 5, 6}}};
            comm.send(send_buf(v), destination(1));
            std::vector<Reflected> r{{9, 3.25, -5}};
            comm.send(send_buf(r), destination(1));
            std::vector<Explicit> e{{{1, 2, 3, 4}}};
            comm.send(send_buf(e), destination(1));
        } else {
            auto v = comm.recv<MyType>(source(0));
            ASSERT_EQ(v.size(), 2u);
            EXPECT_EQ(v[0], (MyType{1, 1.5, 'a', {1, 2, 3}}));
            EXPECT_EQ(v[1], (MyType{2, 2.5, 'b', {4, 5, 6}}));
            auto r = comm.recv<Reflected>(source(0));
            ASSERT_EQ(r.size(), 1u);
            EXPECT_EQ(r[0], (Reflected{9, 3.25, -5}));
            auto e = comm.recv<Explicit>(source(0));
            ASSERT_EQ(e.size(), 1u);
            EXPECT_EQ(e[0], (Explicit{{1, 2, 3, 4}}));
        }
    });
}

TEST(Datatypes, PairsWorkInCollectives) {
    xmpi::run(3, [](int rank) {
        Communicator comm;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> v{{rank, rank * 10ull}};
        auto all = comm.allgatherv(send_buf(v));
        ASSERT_EQ(all.size(), 3u);
        for (std::uint64_t r = 0; r < 3; ++r) {
            EXPECT_EQ(all[r].first, r);
            EXPECT_EQ(all[r].second, r * 10);
        }
    });
}

namespace {

// A reflected aggregate with 3 + 4 bytes of padding: its struct type is
// segmented, not dense.
struct PaddedRecord {
    std::uint8_t tag;
    std::uint32_t value;
    std::uint64_t key;

    friend bool operator==(PaddedRecord const&, PaddedRecord const&) = default;
};

using U64Pair = std::pair<std::uint64_t, std::uint64_t>;

/// Element j of the block rank `from` addresses to rank `to` (-1: to all).
template <typename T>
T element(int from, int to, int j) {
    auto const a = static_cast<std::uint64_t>(from);
    auto const b = static_cast<std::uint64_t>(to + 1);
    auto const c = static_cast<std::uint64_t>(j);
    if constexpr (std::is_same_v<T, U64Pair>) {
        return {a * 1000003 + b * 1009 + c, ~(a << 40 | b << 20 | c)};
    } else {
        return {static_cast<std::uint8_t>(a * 16 + b), static_cast<std::uint32_t>(c * 7 + b),
                a << 48 | b << 24 | c};
    }
}

/// Alltoallv, allgatherv and a send/recv ring of `T` on 4 ranks, each
/// result compared element-wise with the expected values. Rank r sends
/// (r + i) % 3 + 1 elements to rank i; the ring's receives are posted
/// before the matching send on odd ranks.
template <typename T>
void exchange_typed() {
    xmpi::run(4, [](int rank) {
        Communicator comm;
        int const p = 4;
        auto nto = [](int from, int to) { return (from + to) % 3 + 1; };

        std::vector<T> send;
        std::vector<int> counts;
        for (int i = 0; i < p; ++i) {
            counts.push_back(nto(rank, i));
            for (int j = 0; j < nto(rank, i); ++j) send.push_back(element<T>(rank, i, j));
        }
        auto const got = comm.alltoallv(send_buf(send), send_counts(counts));
        std::vector<T> want;
        for (int s = 0; s < p; ++s)
            for (int j = 0; j < nto(s, rank); ++j) want.push_back(element<T>(s, rank, j));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(got[k], want[k]) << "alltoallv " << k;

        std::vector<T> mine;
        for (int j = 0; j <= rank; ++j) mine.push_back(element<T>(rank, -1, j));
        auto const all = comm.allgatherv(send_buf(mine));
        std::vector<T> want_all;
        for (int s = 0; s < p; ++s)
            for (int j = 0; j <= s; ++j) want_all.push_back(element<T>(s, -1, j));
        ASSERT_EQ(all.size(), want_all.size());
        for (std::size_t k = 0; k < want_all.size(); ++k)
            EXPECT_EQ(all[k], want_all[k]) << "allgatherv " << k;

        int const next = (rank + 1) % p;
        int const prev = (rank + p - 1) % p;
        std::vector<T> out;
        for (int j = 0; j < 5; ++j) out.push_back(element<T>(rank, next, j));
        std::vector<T> in;
        if (rank % 2 == 1) {
            auto req = comm.irecv<T>(recv_count(5), source(prev));
            comm.send(send_buf(out), destination(next));
            in = req.wait();
        } else {
            comm.send(send_buf(out), destination(next));
            in = comm.recv<T>(source(prev));
        }
        ASSERT_EQ(in.size(), 5u);
        for (int j = 0; j < 5; ++j)
            EXPECT_EQ(in[static_cast<std::size_t>(j)], element<T>(prev, rank, j)) << "ring " << j;
    });
}

}  // namespace

template <>
struct kamping::mpi_type_traits<PaddedRecord> : kamping::struct_type<PaddedRecord> {};

TEST(Datatypes, PairExchangesMatchExpected) { exchange_typed<U64Pair>(); }

TEST(Datatypes, PaddedStructExchangesMatchExpected) {
    int size = 0;
    MPI_Type_size(mpi_datatype<PaddedRecord>(), &size);
    ASSERT_EQ(size, 13);  // 1 + 4 + 8 bytes of data in a 16-byte object
    exchange_typed<PaddedRecord>();
}

TEST(Datatypes, DynamicTypeViaNativeConstructors) {
    // Paper §III-D2: runtime-sized types via MPI's type constructors, usable
    // directly with the native handle.
    xmpi::run(2, [](int rank) {
        int const runtime_size = 5;  // known only at runtime
        MPI_Datatype dyn;
        MPI_Type_contiguous(runtime_size, MPI_INT, &dyn);
        MPI_Type_commit(&dyn);
        if (rank == 0) {
            std::vector<int> data(10);
            std::iota(data.begin(), data.end(), 0);
            MPI_Send(data.data(), 2, dyn, 1, 0, MPI_COMM_WORLD);
        } else {
            std::vector<int> data(10, -1);
            MPI_Recv(data.data(), 2, dyn, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            for (int i = 0; i < 10; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
        }
        MPI_Type_free(&dyn);
    });
}

// ---------------------------------------------------------------------------
// Serialization archives
// ---------------------------------------------------------------------------

namespace {

struct Custom {
    int id = 0;
    std::string name;
    std::vector<double> weights;

    template <typename Archive>
    void serialize(Archive& ar) {
        ar(id, name, weights);
    }

    friend bool operator==(Custom const&, Custom const&) = default;
};

template <typename T>
T round_trip(T const& value) {
    auto bytes = serialize_to_bytes(value);
    return deserialize_from_bytes<T>(bytes.data(), bytes.size());
}

}  // namespace

TEST(Serialization, StlRoundTrips) {
    EXPECT_EQ(round_trip(std::string{"hello world"}), "hello world");
    EXPECT_EQ(round_trip(std::vector<int>{1, 2, 3}), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(round_trip(std::vector<std::string>{"a", "bb", ""}),
              (std::vector<std::string>{"a", "bb", ""}));
    std::unordered_map<std::string, std::string> m{{"k1", "v1"}, {"k2", "v2"}};
    EXPECT_EQ(round_trip(m), m);
    std::map<int, std::vector<double>> nested{{1, {1.5}}, {2, {2.5, 3.5}}};
    EXPECT_EQ(round_trip(nested), nested);
    std::set<int> s{5, 3, 1};
    EXPECT_EQ(round_trip(s), s);
    EXPECT_EQ(round_trip(std::optional<int>{}), std::nullopt);
    EXPECT_EQ(round_trip(std::optional<int>{7}), 7);
    auto t = std::make_tuple(1, std::string{"x"}, 2.5);
    EXPECT_EQ(round_trip(t), t);
}

TEST(Serialization, CustomTypeWithMemberSerialize) {
    Custom const c{42, "model", {0.1, 0.2, 0.3}};
    EXPECT_EQ(round_trip(c), c);
    std::vector<Custom> const v{c, Custom{1, "", {}}};
    EXPECT_EQ(round_trip(v), v);
}

TEST(Serialization, SendRecvUnorderedMap) {
    // Paper Fig. 5, verbatim usage.
    xmpi::run(2, [](int rank) {
        using dict = std::unordered_map<std::string, std::string>;
        Communicator comm;
        if (rank == 0) {
            dict data{{"alpha", "1"}, {"beta", "two"}};
            comm.send(send_buf(as_serialized(data)), destination(1));
        } else {
            dict recv_dict = comm.recv(recv_buf(as_deserializable<dict>()));
            EXPECT_EQ(recv_dict.size(), 2u);
            EXPECT_EQ(recv_dict["beta"], "two");
        }
    });
}

TEST(Serialization, BcastSerializedInPlace) {
    xmpi::run(4, [](int rank) {
        Communicator comm;
        Custom obj;
        if (rank == 2) obj = Custom{7, "root", {9.5}};
        comm.bcast(send_recv_buf(as_serialized(obj)), root(2));
        EXPECT_EQ(obj, (Custom{7, "root", {9.5}}));
    });
}

TEST(Serialization, BcastSerializedByValue) {
    xmpi::run(2, [](int rank) {
        Communicator comm;
        Custom obj;
        if (rank == 0) obj = Custom{1, "moved", {2.0}};
        // Moving the object in returns it by value on every rank.
        Custom result = comm.bcast(send_recv_buf(as_serialized(std::move(obj))));
        EXPECT_EQ(result, (Custom{1, "moved", {2.0}}));
    });
}

// ---------------------------------------------------------------------------
// Error handling (paper §III-G)
// ---------------------------------------------------------------------------

TEST(ErrorHandling, TruncationSurfacesAsException) {
    xmpi::run(2, [](int rank) {
        Communicator comm;
        if (rank == 1) {
            std::vector<int> big(10, 1);
            comm.send(send_buf(big), destination(0));
        } else {
            bool threw = false;
            try {
                // Receiving 10 elements into a 2-element buffer truncates.
                std::vector<int> tiny(2);
                comm.recv(recv_buf(tiny), source(1), recv_count(2));
            } catch (MpiErrorException const& e) {
                threw = true;
                EXPECT_EQ(e.mpi_error_code(), MPI_ERR_TRUNCATE);
            }
            EXPECT_TRUE(threw);
        }
    });
}

TEST(ErrorHandling, AssertionMacroThrows) {
    EXPECT_THROW(KAMPING_ASSERT(1 == 2, "must throw"), MpiErrorException);
    EXPECT_NO_THROW(KAMPING_ASSERT(1 == 1, "must not throw"));
}
