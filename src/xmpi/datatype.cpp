/// @file datatype.cpp
/// @brief MPI datatype engine: builtin singletons, derived-type constructors
/// (contiguous/vector/indexed/struct/resized), the dense flag each
/// constructor computes once, and the pack/unpack/typed_copy machinery
/// every transfer goes through.
#include <cstring>
#include <new>
#include <vector>

#include "internal.hpp"

namespace xmpi::detail {

namespace {

/// Whether one element of `t` — its children's flags already computed —
/// packs to exactly its own memory image (see DatatypeImpl::dense): every
/// block that holds data is a run of a dense child, and the runs abut in
/// pack order starting at byte 0.
bool compute_dense(DatatypeImpl const& t) {
    if (t.extent != t.size || t.lb != 0) return false;
    MPI_Aint next = 0;  // byte offset the next run must start at
    // `n` elements of `c` at byte offset `off`; a dense child's elements
    // abut, so they are one run.
    auto run = [&next](DatatypeImpl const& c, MPI_Aint off, MPI_Aint n) {
        if (n <= 0 || c.size == 0) return true;
        if (!c.dense || off != next) return false;
        next += n * c.size;
        return true;
    };
    switch (t.kind) {
        case DatatypeImpl::Kind::builtin:
            return true;
        case DatatypeImpl::Kind::contiguous:
            return run(*t.child, 0, t.count);
        case DatatypeImpl::Kind::vector:
            for (int b = 0; b < t.count; ++b) {
                if (!run(*t.child, static_cast<MPI_Aint>(b) * t.stride * t.child->extent,
                         t.blocklength))
                    return false;
            }
            return true;
        case DatatypeImpl::Kind::indexed:
            for (std::size_t b = 0; b < t.blocklengths.size(); ++b) {
                if (!run(*t.child, t.displacements[b] * t.child->extent, t.blocklengths[b]))
                    return false;
            }
            return true;
        case DatatypeImpl::Kind::strct:
            for (std::size_t b = 0; b < t.blocklengths.size(); ++b) {
                if (!run(*t.children[b], t.displacements[b] - t.lb, t.blocklengths[b]))
                    return false;
            }
            return true;
    }
    return false;
}

}  // namespace

void DatatypeImpl::pack(void const* src, int n, std::byte* dst) const {
    auto const* s = static_cast<std::byte const*>(src);
    if (dense) {
        std::memcpy(dst, s, static_cast<std::size_t>(n) * static_cast<std::size_t>(size));
        return;
    }
    for (int e = 0; e < n; ++e) {
        std::byte const* base = s + static_cast<std::ptrdiff_t>(e) * extent;
        switch (kind) {
            case Kind::builtin:
                std::memcpy(dst, base, static_cast<std::size_t>(size));
                dst += size;
                break;
            case Kind::contiguous:
                child->pack(base, count, dst);
                dst += static_cast<std::size_t>(count) * static_cast<std::size_t>(child->size);
                break;
            case Kind::vector:
                for (int b = 0; b < count; ++b) {
                    child->pack(base + static_cast<std::ptrdiff_t>(b) * stride * child->extent,
                                blocklength, dst);
                    dst += static_cast<std::size_t>(blocklength) *
                           static_cast<std::size_t>(child->size);
                }
                break;
            case Kind::indexed:
                for (std::size_t b = 0; b < blocklengths.size(); ++b) {
                    child->pack(base + displacements[b] * child->extent, blocklengths[b], dst);
                    dst += static_cast<std::size_t>(blocklengths[b]) *
                           static_cast<std::size_t>(child->size);
                }
                break;
            case Kind::strct:
                for (std::size_t b = 0; b < blocklengths.size(); ++b) {
                    children[b]->pack(base + displacements[b] - lb, blocklengths[b], dst);
                    dst += static_cast<std::size_t>(blocklengths[b]) *
                           static_cast<std::size_t>(children[b]->size);
                }
                break;
        }
    }
}

void DatatypeImpl::unpack(std::byte const* src, int n, void* dst) const {
    auto* d = static_cast<std::byte*>(dst);
    if (dense) {
        std::memcpy(d, src, static_cast<std::size_t>(n) * static_cast<std::size_t>(size));
        return;
    }
    for (int e = 0; e < n; ++e) {
        std::byte* base = d + static_cast<std::ptrdiff_t>(e) * extent;
        switch (kind) {
            case Kind::builtin:
                std::memcpy(base, src, static_cast<std::size_t>(size));
                src += size;
                break;
            case Kind::contiguous:
                child->unpack(src, count, base);
                src += static_cast<std::size_t>(count) * static_cast<std::size_t>(child->size);
                break;
            case Kind::vector:
                for (int b = 0; b < count; ++b) {
                    child->unpack(src, blocklength,
                                  base + static_cast<std::ptrdiff_t>(b) * stride * child->extent);
                    src += static_cast<std::size_t>(blocklength) *
                           static_cast<std::size_t>(child->size);
                }
                break;
            case Kind::indexed:
                for (std::size_t b = 0; b < blocklengths.size(); ++b) {
                    child->unpack(src, blocklengths[b], base + displacements[b] * child->extent);
                    src += static_cast<std::size_t>(blocklengths[b]) *
                           static_cast<std::size_t>(child->size);
                }
                break;
            case Kind::strct:
                for (std::size_t b = 0; b < blocklengths.size(); ++b) {
                    children[b]->unpack(src, blocklengths[b], base + displacements[b] - lb);
                    src += static_cast<std::size_t>(blocklengths[b]) *
                           static_cast<std::size_t>(children[b]->size);
                }
                break;
        }
    }
}

void typed_copy(void const* src, int scount, MPI_Datatype stype, void* dst, MPI_Datatype rtype) {
    if (scount <= 0 || stype->size == 0 || rtype->size == 0) return;
    std::size_t const bytes =
        static_cast<std::size_t>(scount) * static_cast<std::size_t>(stype->size);
    auto const rsize = static_cast<std::size_t>(rtype->size);
    int const rcount = static_cast<int>(bytes / rsize);
    if (stype->dense) {
        rtype->unpack(static_cast<std::byte const*>(src), rcount, dst);
        return;
    }
    // A trailing partial receive element is dropped, so packing straight
    // into the receive buffer is only exact for whole elements.
    if (rtype->dense && bytes % rsize == 0) {
        stype->pack(src, scount, static_cast<std::byte*>(dst));
        return;
    }
    std::vector<std::byte> tmp(bytes);
    stype->pack(src, scount, tmp.data());
    rtype->unpack(tmp.data(), rcount, dst);
}

namespace {

xmpi_datatype_t make_builtin(int size, int builtin_id) {
    xmpi_datatype_t t;
    t.kind = DatatypeImpl::Kind::builtin;
    t.size = size;
    t.extent = size;
    t.committed = true;
    t.is_builtin = true;
    t.builtin_id = builtin_id;
    t.dense = true;
    return t;
}

}  // namespace
}  // namespace xmpi::detail

// ---------------------------------------------------------------------------
// Builtin singletons. builtin_id doubles as the reduction-dispatch index and
// is shared between equally-sized integer aliases (long == int64 on LP64).
// ---------------------------------------------------------------------------
namespace xmpi::detail {
// builtin_id values (see ops.cpp dispatch table)
inline constexpr int kI8 = 0, kU8 = 1, kI16 = 2, kU16 = 3, kI32 = 4, kU32 = 5, kI64 = 6, kU64 = 7,
                     kF32 = 8, kF64 = 9, kF80 = 10, kBool = 11, kByte = 12;
}  // namespace xmpi::detail

using xmpi::detail::make_builtin;
namespace xd = xmpi::detail;

namespace {
xmpi_datatype_t g_char = make_builtin(sizeof(char), xd::kI8);
xmpi_datatype_t g_schar = make_builtin(sizeof(signed char), xd::kI8);
xmpi_datatype_t g_uchar = make_builtin(sizeof(unsigned char), xd::kU8);
xmpi_datatype_t g_byte = make_builtin(1, xd::kByte);
xmpi_datatype_t g_short = make_builtin(sizeof(short), xd::kI16);
xmpi_datatype_t g_ushort = make_builtin(sizeof(unsigned short), xd::kU16);
xmpi_datatype_t g_int = make_builtin(sizeof(int), xd::kI32);
xmpi_datatype_t g_uint = make_builtin(sizeof(unsigned), xd::kU32);
xmpi_datatype_t g_long = make_builtin(sizeof(long), xd::kI64);
xmpi_datatype_t g_ulong = make_builtin(sizeof(unsigned long), xd::kU64);
xmpi_datatype_t g_llong = make_builtin(sizeof(long long), xd::kI64);
xmpi_datatype_t g_ullong = make_builtin(sizeof(unsigned long long), xd::kU64);
xmpi_datatype_t g_float = make_builtin(sizeof(float), xd::kF32);
xmpi_datatype_t g_double = make_builtin(sizeof(double), xd::kF64);
xmpi_datatype_t g_ldouble = make_builtin(sizeof(long double), xd::kF80);
xmpi_datatype_t g_i8 = make_builtin(1, xd::kI8);
xmpi_datatype_t g_i16 = make_builtin(2, xd::kI16);
xmpi_datatype_t g_i32 = make_builtin(4, xd::kI32);
xmpi_datatype_t g_i64 = make_builtin(8, xd::kI64);
xmpi_datatype_t g_u8 = make_builtin(1, xd::kU8);
xmpi_datatype_t g_u16 = make_builtin(2, xd::kU16);
xmpi_datatype_t g_u32 = make_builtin(4, xd::kU32);
xmpi_datatype_t g_u64 = make_builtin(8, xd::kU64);
xmpi_datatype_t g_bool = make_builtin(sizeof(bool), xd::kBool);
xmpi_datatype_t g_aint = make_builtin(sizeof(MPI_Aint), xd::kI64);
}  // namespace

MPI_Datatype MPI_CHAR = &g_char;
MPI_Datatype MPI_SIGNED_CHAR = &g_schar;
MPI_Datatype MPI_UNSIGNED_CHAR = &g_uchar;
MPI_Datatype MPI_BYTE = &g_byte;
MPI_Datatype MPI_SHORT = &g_short;
MPI_Datatype MPI_UNSIGNED_SHORT = &g_ushort;
MPI_Datatype MPI_INT = &g_int;
MPI_Datatype MPI_UNSIGNED = &g_uint;
MPI_Datatype MPI_LONG = &g_long;
MPI_Datatype MPI_UNSIGNED_LONG = &g_ulong;
MPI_Datatype MPI_LONG_LONG = &g_llong;
MPI_Datatype MPI_UNSIGNED_LONG_LONG = &g_ullong;
MPI_Datatype MPI_FLOAT = &g_float;
MPI_Datatype MPI_DOUBLE = &g_double;
MPI_Datatype MPI_LONG_DOUBLE = &g_ldouble;
MPI_Datatype MPI_INT8_T = &g_i8;
MPI_Datatype MPI_INT16_T = &g_i16;
MPI_Datatype MPI_INT32_T = &g_i32;
MPI_Datatype MPI_INT64_T = &g_i64;
MPI_Datatype MPI_UINT8_T = &g_u8;
MPI_Datatype MPI_UINT16_T = &g_u16;
MPI_Datatype MPI_UINT32_T = &g_u32;
MPI_Datatype MPI_UINT64_T = &g_u64;
MPI_Datatype MPI_CXX_BOOL = &g_bool;
MPI_Datatype MPI_AINT = &g_aint;

// ---------------------------------------------------------------------------
// Type constructors
// ---------------------------------------------------------------------------

int MPI_Type_contiguous(int count, MPI_Datatype oldtype, MPI_Datatype* newtype) {
    if (oldtype == nullptr || newtype == nullptr || count < 0) return MPI_ERR_TYPE;
    auto* t = new xmpi_datatype_t();
    t->kind = xd::DatatypeImpl::Kind::contiguous;
    t->count = count;
    t->child = oldtype;
    t->size = count * oldtype->size;
    t->extent = count * oldtype->extent;
    t->dense = xd::compute_dense(*t);
    *newtype = t;
    return MPI_SUCCESS;
}

int MPI_Type_vector(int count, int blocklength, int stride, MPI_Datatype oldtype,
                    MPI_Datatype* newtype) {
    if (oldtype == nullptr || newtype == nullptr || count < 0 || blocklength < 0)
        return MPI_ERR_TYPE;
    auto* t = new xmpi_datatype_t();
    t->kind = xd::DatatypeImpl::Kind::vector;
    t->count = count;
    t->blocklength = blocklength;
    t->stride = stride;
    t->child = oldtype;
    t->size = count * blocklength * oldtype->size;
    // Extent per the standard: span from first to last byte touched.
    MPI_Aint const span =
        count > 0 ? (static_cast<MPI_Aint>(count - 1) * stride + blocklength) * oldtype->extent : 0;
    t->extent = span;
    t->dense = xd::compute_dense(*t);
    *newtype = t;
    return MPI_SUCCESS;
}

int MPI_Type_indexed(int count, const int* blocklengths, const int* displacements,
                     MPI_Datatype oldtype, MPI_Datatype* newtype) {
    if (oldtype == nullptr || newtype == nullptr || count < 0) return MPI_ERR_TYPE;
    auto* t = new xmpi_datatype_t();
    t->kind = xd::DatatypeImpl::Kind::indexed;
    t->child = oldtype;
    t->blocklengths.assign(blocklengths, blocklengths + count);
    t->displacements.reserve(static_cast<std::size_t>(count));
    MPI_Aint max_end = 0;
    int total = 0;
    for (int i = 0; i < count; ++i) {
        t->displacements.push_back(displacements[i]);
        total += blocklengths[i];
        MPI_Aint const end = (static_cast<MPI_Aint>(displacements[i]) + blocklengths[i]);
        max_end = end > max_end ? end : max_end;
    }
    t->size = total * oldtype->size;
    t->extent = max_end * oldtype->extent;
    t->dense = xd::compute_dense(*t);
    *newtype = t;
    return MPI_SUCCESS;
}

int MPI_Type_create_struct(int count, const int* blocklengths, const MPI_Aint* displacements,
                           const MPI_Datatype* types, MPI_Datatype* newtype) {
    if (newtype == nullptr || count < 0) return MPI_ERR_TYPE;
    auto* t = new xmpi_datatype_t();
    t->kind = xd::DatatypeImpl::Kind::strct;
    t->blocklengths.assign(blocklengths, blocklengths + count);
    t->displacements.assign(displacements, displacements + count);
    t->children.assign(types, types + count);
    MPI_Aint max_end = 0;
    int total = 0;
    for (int i = 0; i < count; ++i) {
        total += blocklengths[i] * types[i]->size;
        MPI_Aint const end = displacements[i] + blocklengths[i] * types[i]->extent;
        max_end = end > max_end ? end : max_end;
    }
    t->size = total;
    t->extent = max_end;
    t->dense = xd::compute_dense(*t);
    *newtype = t;
    return MPI_SUCCESS;
}

int MPI_Type_create_resized(MPI_Datatype oldtype, MPI_Aint lb, MPI_Aint extent,
                            MPI_Datatype* newtype) {
    if (oldtype == nullptr || newtype == nullptr) return MPI_ERR_TYPE;
    // Wrap as a single-element struct so pack/unpack recurse into the child
    // while the outer extent/lb follow the resize.
    auto* t = new xmpi_datatype_t();
    t->kind = xd::DatatypeImpl::Kind::strct;
    t->blocklengths = {1};
    t->displacements = {0};
    t->children = {oldtype};
    t->size = oldtype->size;
    t->lb = lb;
    t->extent = extent;
    t->dense = xd::compute_dense(*t);
    *newtype = t;
    return MPI_SUCCESS;
}

int MPI_Type_commit(MPI_Datatype* type) {
    if (type == nullptr || *type == nullptr) return MPI_ERR_TYPE;
    (*type)->committed = true;
    return MPI_SUCCESS;
}

int MPI_Type_free(MPI_Datatype* type) {
    if (type == nullptr || *type == nullptr) return MPI_ERR_TYPE;
    if (!(*type)->is_builtin) delete *type;
    *type = MPI_DATATYPE_NULL;
    return MPI_SUCCESS;
}

int MPI_Type_size(MPI_Datatype type, int* size) {
    if (type == nullptr || size == nullptr) return MPI_ERR_TYPE;
    *size = type->size;
    return MPI_SUCCESS;
}

int MPI_Type_get_extent(MPI_Datatype type, MPI_Aint* lb, MPI_Aint* extent) {
    if (type == nullptr) return MPI_ERR_TYPE;
    if (lb != nullptr) *lb = type->lb;
    if (extent != nullptr) *extent = type->extent;
    return MPI_SUCCESS;
}

int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, int* count) {
    if (status == nullptr || type == nullptr || count == nullptr) return MPI_ERR_ARG;
    if (type->size == 0) {
        *count = 0;
        return MPI_SUCCESS;
    }
    if (status->_bytes % type->size != 0) {
        *count = MPI_UNDEFINED;
        return MPI_SUCCESS;
    }
    *count = status->_bytes / type->size;
    return MPI_SUCCESS;
}
