/// @file hierarchical.cpp
/// @brief Leader-based hierarchical collective algorithms. Every builder
/// composes an inter-node phase — an existing schedule builder run as a
/// sub-schedule over a group scope (see Schedule::push_group) among node
/// leaders or slice peer groups — with four intra-node phase primitives:
///
/// - share_back: a leader's buffer reaches the other members of a group;
/// - gather_to_leader: every member's block lands at the node leader, at
///   the final offset the builder names (nothing is unpacked afterwards);
/// - tree_reduce: binomial reduce to the node leader, in place under shm;
/// - slice_reduce_scatter: each of the first S members reduces one slice of
///   every member's vector.
///
/// Each primitive holds both of its lowerings side by side — eager p2p
/// messages and zero-copy rendezvous cells priced on the copy tier
/// (src/xmpi/shm) — and takes the transport as an argument. Builders decide
/// it once, from the same formulas the registry prices the composition with
/// (bench::model::*_hier; machine_of carries the copy tier), and choose
/// inner-phase algorithms with the registry's select_flat, so selection,
/// emission and the analytic curves stay consistent. The compositions:
///
/// - bcast: leader ring or tree from the root + share_back, per segment;
/// - reduce: tree_reduce + binomial reduce among leaders + share_back from
///   the root node's leader to the root;
/// - allreduce: slice_reduce_scatter + S slice-group allreduces + one flat
///   share_back per slice (builtin ops), or tree_reduce + allreduce among
///   leaders + share_back (user ops);
/// - allgather: gather_to_leader + leader ring + share_back, per segment
///   (one segment is the unpipelined composition), or the shm-only 2D
///   column composition;
/// - alltoall: gather_to_leader + pairwise leader exchange + one result
///   row per member, per segment (p2p only).
///
/// Builders run only on hierarchical topologies (the registry refuses the
/// entry below two nodes), so none special-cases a single node.
///
/// Tag and cell layout within one collective sequence number: intra-node
/// phases use tag bases 0 (up) and 512 (down), inter-node phases use 256,
/// and a segmented phase adds its segment index (< 64, the segment cap).
/// Phases can never match each other's messages (distinct bases), and
/// concurrent subgroups of one phase are disjoint rank sets. Shm cells use
/// the same bases — gather, slice and tree-reduce cells add the publishing
/// member's index, share-back cells the segment or slice index — so copy
/// cells keep the phase-separation discipline too; they are emitted outside
/// group scopes (peers are comm ranks), and a cell id equal to a step tag
/// cannot alias it (copy channels have their own namespace). Every builder
/// ends with drain_published(), so no user or scratch buffer is handed back
/// (or overwritten by a restart) while a same-node peer still reads it.
///
/// Fold-order discipline: intra-node reductions fold members in comm-rank
/// order and inter-node phases fold nodes in dense node order (ascending
/// first member), so when every node's members are a contiguous comm-rank
/// range the whole composition is a rank-order bracketing and
/// non-commutative operations stay exact; the registry only selects
/// hierarchical reductions for non-commutative operations in that case.
#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "../cvar.hpp"
#include "../shm/shm.hpp"
#include "../topo/topo.hpp"
#include "algorithms.hpp"
#include "fold.hpp"

namespace xmpi::detail::alg {
namespace {

using topo::NodeInfo;

int const kIntraUp = 0;     ///< tag base: intra-node gather/reduce phase
int const kInter = 256;     ///< tag base: inter-node phase
int const kIntraDown = 512; ///< tag base: intra-node bcast/scatter phase

/// The calling rank's place in the node structure and the machine its
/// transport decisions are priced on: the preamble every builder shares.
struct NodeView {
    explicit NodeView(Schedule const& s)
        : ni(topo::node_info(s.comm())),
          mem(ni.members[static_cast<std::size_t>(ni.my_node)]),
          n(ni.num_nodes()),
          p(s.size()),
          r(s.rank()),
          m(static_cast<int>(mem.size())),
          mi(ni.index_in_node[static_cast<std::size_t>(r)]),
          t(machine_of(s.comm())),
          shape{static_cast<double>(n), static_cast<double>(ni.max_ppn),
                static_cast<double>(ni.min_ppn)} {}

    NodeInfo const& ni;
    std::vector<int> const& mem;  ///< my node's members (comm ranks, ascending)
    int n;                        ///< nodes
    int p;                        ///< communicator size
    int r;                        ///< my comm rank
    int m;                        ///< members on my node
    int mi;                       ///< my index in `mem`; 0 is the node leader
    bench::model::TwoTier t;
    bench::model::NodeShape shape;

    bool leader() const { return mi == 0; }
    /// Comm rank of member `i` of node `g`.
    int member(int g, int i) const {
        return ni.members[static_cast<std::size_t>(g)][static_cast<std::size_t>(i)];
    }
    /// Node-leader comm ranks in dense node order (the inter-phase group map).
    std::vector<int> leaders() const {
        std::vector<int> out;
        out.reserve(static_cast<std::size_t>(n));
        for (int g = 0; g < n; ++g) out.push_back(ni.leader(g));
        return out;
    }
};

// ---------------------------------------------------------------------------
// Segmented-phase composer. A pipelined hierarchical collective splits its
// payload into near-even element segments and emits its phases once per
// segment, seg-major: because the transport is eager and receives are
// posted per phase, segment k+1's cheap phases execute while segment k's
// expensive phase is still in flight — the intra gather of segment k+1
// overlaps the inter-node exchange of segment k, which overlaps the intra
// share-back of segment k-1. One segment is the unpipelined composition.
// ---------------------------------------------------------------------------

/// Emits `phase(k, elem_off, elem_len)` for each of `nseg` near-even
/// segments of `count` elements (earlier segments take the remainder, so
/// segment 0 is the largest — size scratch for it).
template <typename Phase>
void compose_segments(int count, int nseg, Phase&& phase) {
    int const base = count / nseg;
    int const rem = count % nseg;
    long long off = 0;
    for (int k = 0; k < nseg; ++k) {
        int const len = base + (k < rem ? 1 : 0);
        phase(k, off, len);
        off += len;
    }
}

/// Largest segment's element count under compose_segments' split.
int max_seg_len(int count, int nseg) { return count / nseg + (count % nseg != 0 ? 1 : 0); }

/// True when the caller pinned a segment size (XMPI_SEGMENT_BYTES /
/// XMPI_T_segment_set): a pin engages the pipelined composition whenever it
/// yields more than one segment, bypassing the cost-model comparison, so
/// harnesses can exercise the pipeline at any granularity. A pin of at
/// least the message size yields one segment: the same builder, unpipelined.
bool segment_forced() { return cvar::get(cvar::Id::segment_bytes) > 0; }

/// Element count of block j under block_offsets' prefix sums `off`.
int block_len(std::vector<long long> const& off, int j) {
    return static_cast<int>(off[static_cast<std::size_t>(j) + 1] -
                            off[static_cast<std::size_t>(j)]);
}

/// Packs elements [off, off + len) of each of the `p` consecutive
/// `blockcount`-element blocks at `base` into `dst`, slice q at q * len
/// elements. A whole-block segment is one contiguous run: a single pack.
void pack_slices(Schedule& s, std::byte* dst, void const* base, int blockcount,
                 MPI_Datatype type, long long off, int len, int p) {
    std::size_t const sb = static_cast<std::size_t>(len) * static_cast<std::size_t>(type->size);
    if (sb == 0) return;
    if (len == blockcount) {
        s.local([dst, base, type, len, p]() {
            type->pack(base, p * len, dst);
            return MPI_SUCCESS;
        });
        return;
    }
    s.local([dst, base, blockcount, type, off, len, sb, p]() {
        for (int q = 0; q < p; ++q) {
            type->pack(at_offset(base, static_cast<long long>(q) * blockcount + off, type), len,
                       dst + static_cast<std::size_t>(q) * sb);
        }
        return MPI_SUCCESS;
    });
}

/// Inverse of pack_slices: scatters `p` packed slices from `src` into
/// elements [off, off + len) of each block at `base`.
void unpack_slices(Schedule& s, void* base, std::byte const* src, int blockcount,
                   MPI_Datatype type, long long off, int len, int p) {
    std::size_t const sb = static_cast<std::size_t>(len) * static_cast<std::size_t>(type->size);
    if (sb == 0) return;
    if (len == blockcount) {
        s.local([base, src, type, len, p]() {
            type->unpack(src, p * len, base);
            return MPI_SUCCESS;
        });
        return;
    }
    s.local([base, src, blockcount, type, off, len, sb, p]() {
        for (int q = 0; q < p; ++q) {
            type->unpack(src + static_cast<std::size_t>(q) * sb, len,
                         at_offset(base, static_cast<long long>(q) * blockcount + off, type));
        }
        return MPI_SUCCESS;
    });
}

// ---------------------------------------------------------------------------
// Intra-node phase primitives. Each emits one phase for the calling rank
// under the transport the builder chose; `Route` carries that choice plus
// the matching key of each lowering, because the p2p tag and the shm cell
// of one phase are laid out independently (see the file comment).
// ---------------------------------------------------------------------------

struct Route {
    bool shm;  ///< copy tier (true) or eager messages (false)
    int tag;   ///< p2p step tag
    int cell;  ///< shm cell id (the per-member primitives add the member index)
};

/// One rank's side of a gather: `count` elements of `type` at `buf`.
struct Span {
    void* buf;
    int count;
    MPI_Datatype type;
};

/// Share-back from a leader: `group[leader]` hands `count` elements to the
/// other members of `group` (comm ranks; the caller is `group[me]`). The
/// leader reads `src`, the others land the data in `dst`. p2p lowering: a
/// binomial relay rooted at the leader (`tree`), or one direct send per
/// member — the flat form lets several leaders share concurrently without
/// relaying through each other. Shm lowering: one publish, read
/// concurrently by the other members (direct loads instead of a log(m)-deep
/// relay).
void share_back(Schedule& s, Route route, bool tree, std::vector<int> const& group, int me,
                int leader, void* src, void* dst, int count, MPI_Datatype type) {
    int const g = static_cast<int>(group.size());
    if (g < 2) return;
    int const from = group[static_cast<std::size_t>(leader)];
    if (route.shm) {
        if (me == leader) {
            std::vector<int> readers;
            readers.reserve(static_cast<std::size_t>(g) - 1);
            for (int w : group) {
                if (w != from) readers.push_back(w);
            }
            s.copy_pub(route.cell, src, count, type, readers);
        } else {
            s.copy_get(route.cell, from, dst, /*src_byte_off=*/0, count, type);
        }
    } else if (tree) {
        GroupScope scope(s, group, me, 0);
        append_binomial_bcast(s, me == leader ? src : dst, count, type, leader, route.tag);
    } else if (me == leader) {
        for (int w : group) {
            if (w != from) s.send(w, route.tag, src, count, type);
        }
    } else {
        s.recv(from, route.tag, dst, count, type);
    }
}

/// Gather to the leader: `block(i)` names member i's block on the calling
/// rank — on member i its source, on the leader (member 0) its destination
/// at the final offset, so nothing is unpacked afterwards. p2p lowering:
/// one eager send per member, received in member order. Shm lowering: each
/// member publishes its block once (cell `route.cell + i`) and the leader
/// loads it straight into place. A rank emits only its own side, so a
/// builder may place the two sides at different program points (the
/// pipelined allgather ships every segment up front while the leader
/// receives segment by segment).
template <typename Block>
void gather_to_leader(Schedule& s, NodeView const& v, Route route, Block&& block) {
    if (!v.leader()) {
        Span const mine = block(v.mi);
        if (route.shm) {
            s.copy_pub(route.cell + v.mi, mine.buf, mine.count, mine.type, {v.mem.front()});
        } else {
            s.send(v.mem.front(), route.tag, mine.buf, mine.count, mine.type);
        }
        return;
    }
    for (int i = 1; i < v.m; ++i) {
        Span const d = block(i);
        int const w = v.mem[static_cast<std::size_t>(i)];
        if (route.shm) {
            s.copy_get(route.cell + i, w, d.buf, /*src_byte_off=*/0, d.count, d.type);
        } else {
            s.recv(w, route.tag, d.buf, d.count, d.type);
        }
    }
}

/// Tree reduce: the node's inputs folded in member order land in the
/// leader's `out`. p2p lowering: append_binomial_reduce over the member
/// group. Shm lowering: the same binomial tree with each (send, recv) pair
/// replaced by a (copy_pub, copy_get) rendezvous, and byte-identical
/// results — FoldChain emits the exact apply_op bracketing
/// append_binomial_reduce does. Ranks that never fold (odd member index)
/// publish the user input itself: zero copies on the way up, safe because
/// the parent's read completes (ack) before the leader can publish onward,
/// and the final drain precedes any buffer reuse. A single-rank node
/// snapshots its input as a schedule step (not at build time), keeping the
/// builder composable with execution-produced inputs. No member but the
/// leader touches `out`, so it may be null there.
void tree_reduce(Schedule& s, NodeView const& v, Route route, void const* input, void* out,
                 int count, MPI_Datatype type, MPI_Op op) {
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    if (v.m == 1) {
        if (bytes > 0) {
            s.local([out, input, bytes]() {
                std::memcpy(out, input, bytes);
                return MPI_SUCCESS;
            });
        }
        return;
    }
    if (!route.shm) {
        GroupScope scope(s, v.mem, v.mi, 0);
        append_binomial_reduce(s, input, out, count, type, op, /*root=*/0, route.tag);
        return;
    }
    int const mi = v.mi;
    auto const& mem = v.mem;
    if ((mi & 1) != 0) {
        s.copy_pub(route.cell + mi, input, count, type, {mem[static_cast<std::size_t>(mi) - 1]});
        return;
    }
    std::byte* const acc = s.alloc(bytes);
    if (bytes > 0) {
        s.local([acc, input, bytes]() {
            std::memcpy(acc, input, bytes);
            return MPI_SUCCESS;
        });
    }
    FoldChain chain{s, op, count, type};
    chain.cur = acc;
    chain.free = {s.alloc(bytes)};
    for (int mask = 1; mask < v.m; mask <<= 1) {
        if ((mi & mask) != 0) {
            s.copy_pub(route.cell + mi, chain.cur, count, type,
                       {mem[static_cast<std::size_t>(mi - mask)]});
            return;
        }
        if (mi + mask < v.m) {
            std::byte* const target = chain.take();
            s.copy_get(route.cell + mi + mask, mem[static_cast<std::size_t>(mi + mask)], target,
                       0, count, type);
            chain.fold_right(target);
        }
    }
    // Only member 0 (the leader) reaches this point with the node result.
    chain.emit_copy_out(out, bytes);
}

/// Slice reduce-scatter: member j < S (a slice owner) ends with slice j —
/// elements [off[j], off[j+1]) — of every member's `input` folded in member
/// order, and gets that slice's buffer back (nullptr for the other
/// members). p2p lowering: every member sends each owner its slice (all
/// sends first — the transport is eager, so no emission order can
/// deadlock), then each owner drains contributions in member order. Shm
/// lowering: each member publishes its whole input once and every owner
/// loads just its slice out of it (src_off selects the slice) — one data
/// copy per contribution, no per-slice messages.
std::byte* slice_reduce_scatter(Schedule& s, NodeView const& v, Route route, void const* input,
                                std::vector<long long> const& off, MPI_Datatype type, MPI_Op op) {
    int const S = static_cast<int>(off.size()) - 1;
    auto slice_count = [&](int j) { return block_len(off, j); };
    auto const& mem = v.mem;
    if (route.shm) {
        std::vector<int> readers;
        readers.reserve(static_cast<std::size_t>(S));
        for (int j = 0; j < S; ++j) {
            if (j != v.mi) readers.push_back(mem[static_cast<std::size_t>(j)]);
        }
        if (!readers.empty()) {
            s.copy_pub(route.cell + v.mi, input, static_cast<int>(off.back()), type, readers);
        }
    } else {
        for (int j = 0; j < S; ++j) {
            if (j == v.mi) continue;
            s.send(mem[static_cast<std::size_t>(j)], route.tag + j,
                   at_offset(input, off[static_cast<std::size_t>(j)], type), slice_count(j), type);
        }
    }
    if (v.mi >= S) return nullptr;
    int const cnt = slice_count(v.mi);
    long long const my_off = off[static_cast<std::size_t>(v.mi)];
    std::size_t const sbytes =
        static_cast<std::size_t>(cnt) * static_cast<std::size_t>(type->extent);
    FoldChain chain{s, op, cnt, type};
    std::byte* const own = s.alloc(sbytes);
    if (sbytes > 0) {
        std::byte const* const src = at_offset(input, my_off, type);
        s.local([own, src, sbytes]() {
            std::memcpy(own, src, sbytes);
            return MPI_SUCCESS;
        });
    }
    chain.free = {s.alloc(sbytes), s.alloc(sbytes)};
    for (int i = 0; i < v.m; ++i) {
        if (i == v.mi) {
            chain.fold_right(own);
            continue;
        }
        std::byte* const target = chain.take();
        if (route.shm) {
            s.copy_get(route.cell + i, mem[static_cast<std::size_t>(i)], target,
                       my_off * static_cast<long long>(type->extent), cnt, type);
        } else {
            s.recv(mem[static_cast<std::size_t>(i)], route.tag + v.mi, target, cnt, type);
        }
        chain.fold_right(target);
    }
    return chain.cur;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bcast: root -> node leaders (segment-pipelined ring or binomial tree among
// leaders, whichever the cost model prefers) with a per-segment share-back
// into each node. The root acts as its own node's leader so the payload
// never takes a detour.
// ---------------------------------------------------------------------------

int build_hier_bcast(Schedule& s, void* buf, int count, MPI_Datatype type, int root) {
    NodeView const v(s);
    NodeInfo const& ni = v.ni;
    int const n = v.n;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);

    // Leaders in ring order starting at the root's node, with the root
    // standing in as its node's leader.
    int const root_node = ni.node_of[static_cast<std::size_t>(root)];
    std::vector<int> leaders(static_cast<std::size_t>(n));
    int my_lrank = -1;
    for (int j = 0; j < n; ++j) {
        int const g = (root_node + j) % n;
        leaders[static_cast<std::size_t>(j)] = g == root_node ? root : ni.leader(g);
        if (leaders[static_cast<std::size_t>(j)] == v.r) my_lrank = j;
    }

    double const c_ring = bench::model::bcast_hier_ring(v.t, v.shape, static_cast<double>(bytes));
    double const c_tree = bench::model::bcast_hier_tree(v.t, v.shape, static_cast<double>(bytes));
    double const c_ring_shm =
        bench::model::bcast_hier_ring_shm(v.t, v.shape, static_cast<double>(bytes));
    double const c_tree_shm =
        bench::model::bcast_hier_tree_shm(v.t, v.shape, static_cast<double>(bytes));
    // Zero-copy share-back: the leader publishes each arrived segment once
    // and the other members read it concurrently.
    bool const shm_intra = shm::enabled() && ni.max_ppn > 1 &&
                           std::min(c_ring_shm, c_tree_shm) < std::min(c_ring, c_tree);
    bool const use_ring = shm_intra ? c_ring_shm <= c_tree_shm : c_ring <= c_tree;
    int nseg = 1;
    if (use_ring) nseg = clamp_segments_to_count(ring_segments(bytes), count);

    int const node_leader = ni.my_node == root_node ? root : ni.leader(ni.my_node);
    int const leader_mi = ni.index_in_node[static_cast<std::size_t>(node_leader)];

    compose_segments(count, nseg, [&](int k, long long off, int len) {
        std::byte* const seg = at_offset(buf, off, type);
        if (my_lrank >= 0) {
            GroupScope scope(s, leaders, my_lrank, kInter);
            if (use_ring) {
                if (my_lrank != 0) s.recv(my_lrank - 1, k, seg, len, type);
                if (my_lrank != n - 1) s.send(my_lrank + 1, k, seg, len, type);
            } else {
                append_binomial_bcast(s, seg, len, type, /*root=*/0, /*tag_base=*/k);
            }
        }
        // The p2p relay uses tag base 0: bcast has no gather phase to collide with.
        share_back(s, {shm_intra, kIntraUp + k, kIntraDown + k}, /*tree=*/true, v.mem, v.mi,
                   leader_mi, seg, seg, len, type);
    });
    s.drain_published();
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Reduce: tree_reduce to each node's first member, binomial reduce among
// leaders in dense node order (a rank-order bracketing on node-contiguous
// communicators), then a share-back from the root node's leader to the root
// when the root is not its node's leader.
// ---------------------------------------------------------------------------

int build_hier_reduce(Schedule& s, void const* input, void* recvbuf, int count, MPI_Datatype type,
                      MPI_Op op, int root) {
    NodeView const v(s);
    NodeInfo const& ni = v.ni;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    int const root_node = ni.node_of[static_cast<std::size_t>(root)];
    int const root_leader = ni.leader(root_node);

    double const mb = static_cast<double>(count) * static_cast<double>(type->size);
    double const pd = static_cast<double>(v.p);
    bool const use_shm =
        shm::enabled() && bench::model::reduce_hier(v.t, v.shape, pd, mb, /*shm=*/true) <
                              bench::model::reduce_hier(v.t, v.shape, pd, mb, /*shm=*/false);

    // Phase A: reduce this node's contributions to its leader (tree_reduce
    // writes `out` on the leader only, so only the leader allocates it).
    std::byte* const node_acc = v.leader() ? s.alloc(bytes) : nullptr;
    tree_reduce(s, v, {use_shm, kIntraUp, kIntraUp}, input, node_acc, count, type, op);

    // Phase B: reduce the node results among leaders toward the root node's
    // leader (dense node order keeps the fold a bracketing). Phase C hands
    // the result from that leader to the root when they differ.
    void* out = nullptr;  // only the root node's leader's is ever dereferenced
    if (v.leader()) {
        if (v.r == root) {
            out = recvbuf;
        } else if (ni.my_node == root_node) {
            out = s.alloc(bytes);
        }
        GroupScope scope(s, v.leaders(), ni.my_node, kInter);
        append_binomial_reduce(s, node_acc, out, count, type, op, root_node, /*tag_base=*/0);
        if (root_node != 0 && s.rank() == root_node) s.recv(0, 1, out, count, type);
    }
    if (root_leader != root && (v.r == root || v.r == root_leader)) {
        share_back(s, {use_shm, kIntraDown, kIntraDown}, /*tree=*/false, {root_leader, root},
                   v.r == root ? 1 : 0, /*leader=*/0, out, recvbuf, count, type);
    }
    s.drain_published();
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Allreduce. Element-wise (builtin) operations use the "2D" composition:
// slice_reduce_scatter over S = min_ppn slices, S *parallel* inter-node
// allreduces (slice peer groups: the j-th member of every node), and a flat
// share-back of each reduced slice. Splitting the inter-node work across the
// node's members divides the expensive-tier traffic per critical path by S,
// which is where hierarchy genuinely beats the best flat algorithm at scale.
// Non-element-wise user operations fall back to the leader composition
// (tree_reduce, allreduce among leaders, share-back), which keeps whole
// vectors intact and rank-order bracketings exact.
// ---------------------------------------------------------------------------

namespace {

void build_hier_allreduce_2d(Schedule& s, void const* input, void* recvbuf, int count,
                             MPI_Datatype type, MPI_Op op) {
    NodeView const v(s);
    int const S = v.ni.min_ppn;
    auto const off = block_offsets(count, S);
    auto slice_count = [&](int j) { return block_len(off, j); };
    bool const owner = v.mi < S;  // owner of slice v.mi

    double const mb = static_cast<double>(count) * static_cast<double>(type->size);
    double const pd = static_cast<double>(v.p);
    bool const use_shm =
        shm::enabled() && v.m > 1 &&
        bench::model::allreduce_hier(v.t, v.shape, pd, mb, /*commutative=*/true,
                                     /*elementwise=*/true, /*shm=*/true) <
            bench::model::allreduce_hier(v.t, v.shape, pd, mb, /*commutative=*/true,
                                         /*elementwise=*/true, /*shm=*/false);

    // Phase A. Safe under MPI_IN_PLACE with shm: every later write to
    // recvbuf slice j is gated on owner j's phase C publish, which happens
    // after owner j — the sole reader of slice j — acked every phase A cell.
    std::byte* const acc =
        slice_reduce_scatter(s, v, {use_shm, kIntraUp, kIntraUp}, input, off, type, op);

    // Phase B: inter-node allreduce of each slice within its peer group
    // (the j-th member of every node; S groups run concurrently on disjoint
    // ranks). The inner algorithm is the cost model's best single-tier
    // choice for n ranks on a slice.
    std::byte* result = nullptr;
    if (owner) {
        int const cnt = slice_count(v.mi);
        result = s.alloc(static_cast<std::size_t>(cnt) * static_cast<std::size_t>(type->extent));
        std::vector<int> peers;
        peers.reserve(static_cast<std::size_t>(v.n));
        for (int g = 0; g < v.n; ++g) peers.push_back(v.member(g, v.mi));
        int const inner = select_flat(
            Family::allreduce, v.n,
            static_cast<std::size_t>(cnt) * static_cast<std::size_t>(type->size),
            /*commutative=*/true, /*elementwise=*/true, v.t.inter);
        GroupScope scope(s, std::move(peers), v.ni.my_node, kInter);
        build_allreduce(inner, s, acc, result, cnt, type, op);
    }

    // Phase C: each owner shares its reduced slice with the other members
    // and keeps its own copy; then every rank collects the other slices.
    auto down = [&](int j) { return Route{use_shm, kIntraDown + j, kIntraDown + j}; };
    if (owner) {
        int const cnt = slice_count(v.mi);
        share_back(s, down(v.mi), /*tree=*/false, v.mem, v.mi, v.mi, result, nullptr, cnt, type);
        std::size_t const sbytes =
            static_cast<std::size_t>(cnt) * static_cast<std::size_t>(type->extent);
        if (sbytes > 0) {
            std::byte* const dst = at_offset(recvbuf, off[static_cast<std::size_t>(v.mi)], type);
            s.local([dst, result, sbytes]() {
                std::memcpy(dst, result, sbytes);
                return MPI_SUCCESS;
            });
        }
    }
    for (int j = 0; j < S; ++j) {
        if (j == v.mi) continue;
        share_back(s, down(j), /*tree=*/false, v.mem, v.mi, j, nullptr,
                   at_offset(recvbuf, off[static_cast<std::size_t>(j)], type), slice_count(j),
                   type);
    }
    s.drain_published();
}

void build_hier_allreduce_leader(Schedule& s, void const* input, void* recvbuf, int count,
                                 MPI_Datatype type, MPI_Op op) {
    NodeView const v(s);
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);

    double const mb = static_cast<double>(count) * static_cast<double>(type->size);
    double const pd = static_cast<double>(v.p);
    bool const use_shm =
        shm::enabled() && v.m > 1 &&
        bench::model::allreduce_hier(v.t, v.shape, pd, mb, op->commutative,
                                     /*elementwise=*/false, /*shm=*/true) <
            bench::model::allreduce_hier(v.t, v.shape, pd, mb, op->commutative,
                                         /*elementwise=*/false, /*shm=*/false);

    // Phase A: intra-node reduce to the leader (byte-identical fold
    // bracketing under either transport); only the leader reads node_acc.
    std::byte* const node_acc = v.leader() ? s.alloc(bytes) : nullptr;
    tree_reduce(s, v, {use_shm, kIntraUp, kIntraUp}, input, node_acc, count, type, op);

    // Phase B: allreduce among leaders (rank-order-safe inner algorithm for
    // non-commutative operations; select_flat filters by the flags).
    if (v.leader()) {
        int const inner = select_flat(
            Family::allreduce, v.n,
            static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size),
            op->commutative, /*elementwise=*/false, v.t.inter);
        GroupScope scope(s, v.leaders(), v.ni.my_node, kInter);
        build_allreduce(inner, s, node_acc, recvbuf, count, type, op);
    }

    // Phase C: the final vector leaves the leader.
    share_back(s, {use_shm, kIntraDown, kIntraDown}, /*tree=*/true, v.mem, v.mi, /*leader=*/0,
               recvbuf, recvbuf, count, type);
    s.drain_published();
}

}  // namespace

int build_hier_allreduce(Schedule& s, void const* input, void* recvbuf, int count,
                         MPI_Datatype type, MPI_Op op) {
    // Builtin operations are element-wise (and commutative) by construction,
    // which is what makes slicing the vector across node members legal.
    if (op->builtin) {
        build_hier_allreduce_2d(s, input, recvbuf, count, type, op);
    } else {
        build_hier_allreduce_leader(s, input, recvbuf, count, type, op);
    }
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Allgather: gather_to_leader (blocks land directly at their comm-rank
// offsets), a leader ring forwarding packed per-node bundles, and a
// share-back of the assembled result — per segment, where one segment is
// the unpipelined composition and the only one the shm transport runs. The
// shm-only 2D composition replaces the leader with per-member rings.
// build_hier_allgather picks by the shared cost model (or by the
// segment-size pin).
// ---------------------------------------------------------------------------

namespace {

/// Phase B of the leader composition for elements [off, off + len) of every
/// block: round j forwards the bundle of node (my_node - j) to the next
/// leader. Bundles are packed because a node's blocks need not be
/// contiguous in recvbuf. Round j reuses tag kInter + j across segments —
/// matching is FIFO per (source, tag) and both sides emit segments in
/// ascending order. `cur` and `next` are reused across segments (program
/// order completes each buffer's previous use before its next).
void leader_ring(Schedule& s, NodeView const& v, std::vector<int> const& leaders,
                 std::byte*& cur, std::byte*& next, void* recvbuf, int recvcount,
                 MPI_Datatype recvtype, long long off, int len) {
    int const n = v.n;
    int const my_node = v.ni.my_node;
    std::size_t const sb = static_cast<std::size_t>(len) * static_cast<std::size_t>(recvtype->size);
    auto bundle = [&](int g) {
        return static_cast<int>(v.ni.members[static_cast<std::size_t>(g)].size() * sb);
    };
    // Moves node g's blocks between recvbuf and a packed bundle (a local
    // step: program order lands every phase A receive first).
    auto copy_node = [&](int g, std::byte* b, bool pack) {
        if (sb == 0) return;
        auto const* members = &v.ni.members[static_cast<std::size_t>(g)];
        s.local([b, pack, members, recvbuf, recvcount, recvtype, off, len, sb]() {
            for (std::size_t i = 0; i < members->size(); ++i) {
                std::byte* const blk = at_offset(
                    recvbuf, static_cast<long long>((*members)[i]) * recvcount + off, recvtype);
                if (pack) {
                    recvtype->pack(blk, len, b + i * sb);
                } else {
                    recvtype->unpack(b + i * sb, len, blk);
                }
            }
            return MPI_SUCCESS;
        });
    };
    copy_node(my_node, cur, /*pack=*/true);
    int const right = leaders[static_cast<std::size_t>((my_node + 1) % n)];
    int const left = leaders[static_cast<std::size_t>((my_node - 1 + n) % n)];
    for (int j = 0; j < n - 1; ++j) {
        int const send_node = (my_node - j + n) % n;
        int const recv_node = (my_node - j - 1 + n) % n;
        int const slot = s.post(left, kInter + j, next, bundle(recv_node), MPI_BYTE);
        s.send(right, kInter + j, cur, bundle(send_node), MPI_BYTE);
        s.wait(slot);
        copy_node(recv_node, next, /*pack=*/false);
        std::swap(cur, next);
    }
}

/// Leader composition over `nseg` segments of every rank's block. Members
/// deposit all their slices up front (eager sends make every slice
/// available as soon as the member reaches it); per segment the leader
/// receives the slices in place, rings the node bundles and shares the
/// assembled segment back. Segment-major emission pipelines: while the
/// leader sits in segment k's ring waits, the members relay segment k-1,
/// and segment k+1's slices are already en route. With one segment every
/// phase moves recvbuf itself; with more, the share-back moves a packed
/// bundle of the segment's p strided slices. `shm` requires one segment.
int build_hier_allgather_leader(Schedule& s, NodeView const& v, void* recvbuf, int recvcount,
                                MPI_Datatype recvtype, int nseg, bool shm) {
    int const p = v.p;
    std::size_t const sb_max = static_cast<std::size_t>(max_seg_len(recvcount, nseg)) *
                               static_cast<std::size_t>(recvtype->size);
    auto gather = [&](int k, long long off, int len) {
        gather_to_leader(s, v, {shm, kIntraUp + k, kIntraUp}, [&](int i) {
            long long const w = v.mem[static_cast<std::size_t>(i)];
            return Span{at_offset(recvbuf, w * recvcount + off, recvtype), len, recvtype};
        });
    };
    if (!v.leader()) compose_segments(recvcount, nseg, gather);

    std::byte* ring_cur = nullptr;
    std::byte* ring_next = nullptr;
    std::vector<int> leaders;
    if (v.leader()) {
        std::size_t const max_bundle = static_cast<std::size_t>(v.ni.max_ppn) * sb_max;
        ring_cur = s.alloc(max_bundle);
        ring_next = s.alloc(max_bundle);
        leaders = v.leaders();
    }
    std::byte* const bundle =
        nseg > 1 && v.m > 1 ? s.alloc(static_cast<std::size_t>(p) * sb_max) : nullptr;

    compose_segments(recvcount, nseg, [&](int k, long long off, int len) {
        if (v.leader()) {
            gather(k, off, len);
            leader_ring(s, v, leaders, ring_cur, ring_next, recvbuf, recvcount, recvtype, off,
                        len);
        }
        Route const down{shm, kIntraDown + k, kIntraDown};
        if (nseg == 1) {
            share_back(s, down, /*tree=*/true, v.mem, v.mi, 0, recvbuf, recvbuf, p * recvcount,
                       recvtype);
        } else if (v.m > 1) {
            if (v.leader()) pack_slices(s, bundle, recvbuf, recvcount, recvtype, off, len, p);
            int const bytes = static_cast<int>(static_cast<std::size_t>(p) * len * recvtype->size);
            share_back(s, down, /*tree=*/true, v.mem, v.mi, 0, bundle, bundle, bytes, MPI_BYTE);
            if (!v.leader()) unpack_slices(s, recvbuf, bundle, recvcount, recvtype, off, len, p);
        }
    });
    s.drain_published();
    return MPI_SUCCESS;
}

/// "2D" zero-copy composition, uniform node shapes only (min_ppn ==
/// max_ppn): the m-th members of all nodes form m concurrent inter-node
/// rings moving single blocks (B bytes per hop instead of the leader ring's
/// m·B packed bundles) directly into their final recvbuf offsets, then each
/// member publishes its assembled ring column once and loads the other m-1
/// columns — (m-1)·n strided reads — straight out of its same-node peers'
/// recvbufs. Writes during the publish window touch only columns no reader
/// of this rank's cell loads, so the concurrency is race-free. It has no
/// p2p twin, so its copy steps are its own rather than a primitive's.
int build_hier_allgather_shm2d(Schedule& s, NodeView const& v, void* recvbuf, int recvcount,
                               MPI_Datatype recvtype) {
    int const n = v.n;
    int const mi = v.mi;
    int const my_node = v.ni.my_node;
    auto block = [&](int w) {
        return at_offset(recvbuf, static_cast<long long>(w) * recvcount, recvtype);
    };

    // Phase B directly (no gather phase: every block already sits at its
    // final offset): ring among the mi-th members of all nodes. Concurrent
    // rings share tags kInter + k but are disjoint rank sets, so matching
    // is unambiguous.
    int const right = v.member((my_node + 1) % n, mi);
    int const left = v.member((my_node - 1 + n) % n, mi);
    for (int k = 0; k < n - 1; ++k) {
        int const sw = v.member((my_node - k + n) % n, mi);
        int const rw = v.member((my_node - k - 1 + n) % n, mi);
        int const slot = s.post(left, kInter + k, block(rw), recvcount, recvtype);
        s.send(right, kInter + k, block(sw), recvcount, recvtype);
        s.wait(slot);
    }

    // Phase C: column share within the node. Reader lists repeat each peer
    // n times — one expected get per block of this rank's column.
    if (v.m > 1) {
        std::vector<int> readers;
        readers.reserve(static_cast<std::size_t>(v.m - 1) * static_cast<std::size_t>(n));
        for (int i = 0; i < v.m; ++i) {
            if (i == mi) continue;
            for (int g = 0; g < n; ++g) readers.push_back(v.mem[static_cast<std::size_t>(i)]);
        }
        s.copy_pub(kIntraUp + mi, recvbuf, v.p * recvcount, recvtype, readers);
        for (int i = 0; i < v.m; ++i) {
            if (i == mi) continue;
            for (int g = 0; g < n; ++g) {
                int const w = v.member(g, i);
                s.copy_get(kIntraUp + i, v.mem[static_cast<std::size_t>(i)], block(w),
                           static_cast<long long>(w) * recvcount *
                               static_cast<long long>(recvtype->extent),
                           recvcount, recvtype);
            }
        }
        s.drain_published();
    }
    return MPI_SUCCESS;
}

}  // namespace

int build_hier_allgather(Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    NodeView const v(s);
    double const pd = static_cast<double>(v.p);
    double const bb =
        static_cast<double>(recvcount) * static_cast<double>(recvtype->size);
    // The model segments by bytes; emission additionally clamps to the
    // element count (no empty segments). For blocks with fewer elements
    // than the model's segment count the pipelined cost below was priced
    // with more segments than get emitted — at such tiny sizes the two
    // compositions' costs converge, so the decision error is bounded and
    // correctness is unaffected.
    int const nseg = clamp_segments_to_count(
        static_cast<int>(bench::model::allgather_hier_segments(v.t, v.shape, pd, bb)), recvcount);
    double const c_pipelined = bench::model::allgather_hier_pipelined(v.t, v.shape, pd, bb);
    double const c_unpipelined = bench::model::allgather_hier_unpipelined(v.t, v.shape, pd, bb);
    bool const pipelined = nseg > 1 && (segment_forced() || c_pipelined < c_unpipelined);
    // Zero-copy compositions, keyed on the same formulas the registry
    // prices hierarchical allgather with. A segment-size pin keeps the
    // pipelined p2p composition so segmentation harnesses stay exercised.
    if (shm::enabled() && !(segment_forced() && nseg > 1)) {
        double const c_leader = bench::model::allgather_hier_leader_shm(v.t, v.shape, pd, bb);
        double const c_2d = v.ni.min_ppn == v.ni.max_ppn
                                ? bench::model::allgather_hier_shm2d(v.t, v.shape, pd, bb)
                                : std::numeric_limits<double>::infinity();
        if (std::min(c_leader, c_2d) < std::min(c_unpipelined, c_pipelined)) {
            return c_2d <= c_leader
                       ? build_hier_allgather_shm2d(s, v, recvbuf, recvcount, recvtype)
                       : build_hier_allgather_leader(s, v, recvbuf, recvcount, recvtype, 1, true);
        }
    }
    return build_hier_allgather_leader(s, v, recvbuf, recvcount, recvtype, pipelined ? nseg : 1,
                                       false);
}

// ---------------------------------------------------------------------------
// Alltoall: members ship their send row to the leader, leaders exchange one
// packed bundle per node pair (pairwise order), and leaders ship each member
// its reassembled result row. Aggregation trades bandwidth on the leader for
// an (n-1)-message network phase, so the cost model picks this in the
// latency-bound regime. As with allgather, the phases run per segment of the
// per-destination block; one segment is the unpipelined composition, in
// which members send and receive their user rows directly.
// ---------------------------------------------------------------------------

namespace {

/// Per segment k: members ship the row segment (one slice per destination
/// comm rank) to the leader, leaders exchange per-node-pair bundle
/// segments pairwise, and leaders ship each member its reassembled
/// result-row segment. More than one segment requires element-aligned
/// segmentation on both sides (the dispatcher gates on sendcount ==
/// recvcount with equal type sizes); one segment accepts any
/// signature-compatible pair of shapes.
int build_hier_alltoall_leader(Schedule& s, NodeView const& v, void const* sendbuf, int sendcount,
                               MPI_Datatype sendtype, void* recvbuf, int recvcount,
                               MPI_Datatype recvtype, int nseg) {
    NodeInfo const& ni = v.ni;
    int const n = v.n;
    int const p = v.p;
    int const m = v.m;
    std::size_t const esz = static_cast<std::size_t>(sendtype->size);
    std::size_t const sb_max = static_cast<std::size_t>(max_seg_len(sendcount, nseg)) * esz;
    std::size_t const rowseg_max = static_cast<std::size_t>(p) * sb_max;

    if (!v.leader()) {
        // Row segments travel as packed bundles through one shared buffer
        // each way, reused across segments: the upstream send copies into
        // the transport eagerly, and the downstream unpack completes before
        // the next segment's receive. One segment needs neither.
        std::byte* const up = nseg > 1 ? s.alloc(rowseg_max) : nullptr;
        std::byte* const down = nseg > 1 ? s.alloc(rowseg_max) : nullptr;
        compose_segments(sendcount, nseg, [&](int k, long long off, int len) {
            Span row{const_cast<void*>(sendbuf), p * sendcount, sendtype};  // only read: sent
            if (nseg > 1) {
                pack_slices(s, up, sendbuf, sendcount, sendtype, off, len, p);
                row = Span{up, static_cast<int>(static_cast<std::size_t>(p * len) * esz), MPI_BYTE};
            }
            gather_to_leader(s, v, {false, kIntraUp + k, kIntraUp}, [&](int) { return row; });
        });
        compose_segments(recvcount, nseg, [&](int k, long long off, int len) {
            if (nseg == 1) {
                s.recv(v.mem.front(), kIntraDown + k, recvbuf, p * recvcount, recvtype);
                return;
            }
            s.recv(v.mem.front(), kIntraDown + k, down,
                   static_cast<int>(static_cast<std::size_t>(p * len) * esz), MPI_BYTE);
            unpack_slices(s, recvbuf, down, recvcount, recvtype, off, len, p);
        });
        return MPI_SUCCESS;
    }

    // Leader scratch, all reused across segments. rows: one packed row
    // segment per member (stride rowseg_max, blocks by destination comm
    // rank); per-pair in/out bundles; one result-row buffer per member.
    std::byte* const rows = s.alloc(static_cast<std::size_t>(m) * rowseg_max);
    std::vector<int> const leaders = v.leaders();
    std::vector<std::byte*> outb(static_cast<std::size_t>(n), nullptr);
    std::vector<std::byte*> inb(static_cast<std::size_t>(n), nullptr);
    for (int i = 1; i < n; ++i) {
        int const dst = (ni.my_node + i) % n;
        int const src = (ni.my_node - i + n) % n;
        outb[static_cast<std::size_t>(dst)] = s.alloc(
            static_cast<std::size_t>(m) * ni.members[static_cast<std::size_t>(dst)].size() *
            sb_max);
        inb[static_cast<std::size_t>(src)] = s.alloc(
            ni.members[static_cast<std::size_t>(src)].size() * static_cast<std::size_t>(m) *
            sb_max);
    }
    std::vector<std::byte*> out_rows(static_cast<std::size_t>(m), nullptr);
    for (int w = 0; w < m; ++w) out_rows[static_cast<std::size_t>(w)] = s.alloc(rowseg_max);
    NodeInfo const* const nip = &ni;

    compose_segments(sendcount, nseg, [&](int k, long long off, int len) {
        std::size_t const sb = static_cast<std::size_t>(len) * esz;
        std::size_t const rowseg = static_cast<std::size_t>(p) * sb;
        // Phase A: own row segment packed in place; member row segments
        // received as packed bytes.
        pack_slices(s, rows, sendbuf, sendcount, sendtype, off, len, p);
        gather_to_leader(s, v, {false, kIntraUp + k, kIntraUp}, [&](int i) {
            return Span{rows + static_cast<std::size_t>(i) * rowseg_max, static_cast<int>(rowseg),
                        MPI_BYTE};
        });

        // Phase B: pairwise bundle-segment exchange. The bundle for node d
        // holds blocks (sender member i, destination member w) in that
        // order. Tag kInter + i is reused across segments (FIFO per source;
        // both sides emit segments in ascending order).
        for (int i = 1; i < n; ++i) {
            int const dst = (ni.my_node + i) % n;
            int const src = (ni.my_node - i + n) % n;
            auto const& dmem = ni.members[static_cast<std::size_t>(dst)];
            auto const& smem = ni.members[static_cast<std::size_t>(src)];
            std::size_t const out_bytes = static_cast<std::size_t>(m) * dmem.size() * sb;
            std::size_t const in_bytes = smem.size() * static_cast<std::size_t>(m) * sb;
            std::byte* const out = outb[static_cast<std::size_t>(dst)];
            std::byte* const in = inb[static_cast<std::size_t>(src)];
            int const slot = s.post(leaders[static_cast<std::size_t>(src)], kInter + i, in,
                                    static_cast<int>(in_bytes), MPI_BYTE);
            if (sb > 0) {
                auto const* dptr = &dmem;
                s.local([out, rows, dptr, rowseg_max, sb, m]() {
                    std::size_t pos = 0;
                    for (int i2 = 0; i2 < m; ++i2) {
                        for (int w : *dptr) {
                            std::memcpy(out + pos,
                                        rows + static_cast<std::size_t>(i2) * rowseg_max +
                                            static_cast<std::size_t>(w) * sb,
                                        sb);
                            pos += sb;
                        }
                    }
                    return MPI_SUCCESS;
                });
            }
            s.send(leaders[static_cast<std::size_t>(dst)], kInter + i, out,
                   static_cast<int>(out_bytes), MPI_BYTE);
            s.wait(slot);
        }

        // Phase C: reassemble each member's result-row segment (blocks by
        // source comm rank, exactly the alltoall receive layout) and ship
        // it down; unpack our own. Runs after every phase B wait by program
        // order.
        for (int w = 0; w < m; ++w) {
            std::byte* const out_row = out_rows[static_cast<std::size_t>(w)];
            int const dest_comm_rank = v.mem[static_cast<std::size_t>(w)];
            if (sb > 0) {
                s.local([out_row, nip, inb, rows, rowseg_max, sb, w, p, m, dest_comm_rank]() {
                    for (int q = 0; q < p; ++q) {
                        int const g = nip->node_of[static_cast<std::size_t>(q)];
                        auto const j = static_cast<std::size_t>(  // q's index within its node
                            nip->index_in_node[static_cast<std::size_t>(q)]);
                        std::byte const* const src =
                            g == nip->my_node
                                // Member j's row, block destined to comm
                                // rank `dest_comm_rank` (rows are indexed
                                // by destination comm rank).
                                ? rows + j * rowseg_max +
                                      static_cast<std::size_t>(dest_comm_rank) * sb
                                // Remote bundle order: (sender member j,
                                // destination member index w).
                                : inb[static_cast<std::size_t>(g)] +
                                      (j * static_cast<std::size_t>(m) +
                                       static_cast<std::size_t>(w)) *
                                          sb;
                        std::memcpy(out_row + static_cast<std::size_t>(q) * sb, src, sb);
                    }
                    return MPI_SUCCESS;
                });
            }
            if (w == v.mi) {
                // Segments are element-aligned on both sides, except that one
                // segment spans the whole receive block of any shape.
                unpack_slices(s, recvbuf, out_row, recvcount, recvtype, off,
                              nseg == 1 ? recvcount : len, p);
            } else {
                s.send(dest_comm_rank, kIntraDown + k, out_row, static_cast<int>(rowseg),
                       MPI_BYTE);
            }
        }
    });
    return MPI_SUCCESS;
}

}  // namespace

int build_hier_alltoall(Schedule& s, void const* sendbuf, int sendcount, MPI_Datatype sendtype,
                        void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    NodeView const v(s);
    // Element-aligned segmentation needs the same block shape on both
    // sides; mixed-shape (but signature-compatible) type pairs run one
    // segment. As in build_hier_allgather, the element clamp below can emit
    // fewer segments than the model priced for tiny blocks — bounded
    // decision error, no correctness impact.
    int nseg = 1;
    if (sendcount == recvcount && sendtype->size == recvtype->size) {
        double const pd = static_cast<double>(v.p);
        double const bb = static_cast<double>(sendcount) * static_cast<double>(sendtype->size);
        nseg = clamp_segments_to_count(
            static_cast<int>(bench::model::alltoall_hier_segments(v.t, v.shape, pd, bb)),
            sendcount);
        if (nseg > 1 && !segment_forced() &&
            !(bench::model::alltoall_hier_pipelined(v.t, v.shape, pd, bb) <
              bench::model::alltoall_hier_unpipelined(v.t, v.shape, pd, bb))) {
            nseg = 1;
        }
    }
    return build_hier_alltoall_leader(s, v, sendbuf, sendcount, sendtype, recvbuf, recvcount,
                                      recvtype, nseg);
}

}  // namespace xmpi::detail::alg
