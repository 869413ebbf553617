/// @file internal.hpp
/// @brief Substrate-internal data structures: universe, rank state, mailbox
/// transport with MPI matching semantics, requests, communicators, datatypes
/// and reduction ops. Shared across the xmpi translation units; not installed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "topo/topo.hpp"
#include "trace/trace.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace xmpi::detail {

struct RankState;
struct Universe;

namespace shm {
struct State;
}  // namespace shm

namespace progress {
class Engine;
}  // namespace progress

// ---------------------------------------------------------------------------
// Datatypes
// ---------------------------------------------------------------------------

/// Internal representation of an MPI datatype. Builtins are immutable
/// singletons; derived types form a DAG (children refcounted by ownership of
/// the creating code: MPI requires the user keep constituent types alive
/// until commit, we additionally snapshot what we need so frees are safe).
struct DatatypeImpl {
    enum class Kind { builtin, contiguous, vector, indexed, strct };

    Kind kind = Kind::builtin;
    /// Packed (true data) size of one element of this type, in bytes.
    int size = 0;
    /// Extent and lower bound in the caller's memory layout.
    MPI_Aint extent = 0;
    MPI_Aint lb = 0;
    bool committed = false;
    bool is_builtin = false;
    /// Identifies builtin types for reduction dispatch (index into table).
    int builtin_id = -1;

    // contiguous/vector/indexed
    int count = 0;
    int blocklength = 0;
    int stride = 0;  // in elements of child
    std::vector<int> blocklengths;
    std::vector<MPI_Aint> displacements;  // indexed: element displs; struct: byte displs
    MPI_Datatype child = nullptr;
    std::vector<MPI_Datatype> children;  // struct

    /// True when the packed representation equals the memory layout for any
    /// element count: the typemap, walked in pack order, covers [0, size)
    /// with no gaps, extent == size and lb == 0, so pack and unpack are one
    /// memcpy. Each constructor computes it once from its children's flags
    /// (datatype.cpp, compute_dense). False, the default, keeps the
    /// recursive walk, which is correct for every type.
    bool dense = false;

    /// Packs `count` elements starting at `src` into contiguous bytes at `dst`.
    void pack(void const* src, int n, std::byte* dst) const;
    /// Unpacks `n` elements from contiguous bytes at `src` into `dst`.
    void unpack(std::byte const* src, int n, void* dst) const;
};

/// Copies `scount` elements of `stype` at `src` into `dst` as elements of
/// the signature-compatible `rtype` (as many whole ones as the bytes fill).
/// Dense on both sides is one memcpy; dense on one side packs straight into,
/// or unpacks straight out of, the other buffer; only two non-dense types
/// stage through a temporary.
void typed_copy(void const* src, int scount, MPI_Datatype stype, void* dst, MPI_Datatype rtype);

// ---------------------------------------------------------------------------
// Reduction ops
// ---------------------------------------------------------------------------

struct OpImpl {
    /// Applies `inout[i] = in[i] op inout[i]` reversed per MPI: the standard
    /// computes inout = in op inout with `in` being the lower-rank operand?
    /// We use the convention apply(in, inout, len): inout[i] = op(in[i],
    /// inout[i]) where `in` holds the *left* (lower-rank) operand.
    std::function<void(void*, void*, int*, MPI_Datatype*)> fn;
    bool commutative = true;
    bool builtin = false;
    int builtin_id = -1;  // index into builtin op table for fast dispatch
};

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Completion backlink for synchronous-mode sends: the sender blocks (or its
/// request stays incomplete) until a receiver matched the envelope.
struct SsendToken {
    std::atomic<bool> matched{false};
    double match_vtime = 0.0;  // written before `matched` is released
    RankState* sender = nullptr;
};

/// A message in flight (already "on the wire": xmpi is fully eager).
struct Envelope {
    int context = 0;
    int src = 0;  // comm rank of the sender within `context`'s communicator
    int tag = 0;
    /// Packed payload of `size` bytes. Only messages that wait in the
    /// unexpected queue carry one (a matched posted receive is copied into
    /// directly); allocated uninitialised, since pack writes every byte.
    std::unique_ptr<std::byte[]> bytes;
    std::size_t size = 0;
    double arrival = 0.0;  // virtual time at which the payload is available
    /// Latency of the link this message traveled (intra- or inter-node);
    /// prices the synchronous-mode acknowledgement hop.
    double ack_alpha = 0.0;
    std::shared_ptr<SsendToken> ssend;  // non-null for synchronous-mode sends
};

/// Request object backing MPI_Request. Lifetime: created by the initiating
/// call, destroyed by MPI_Wait*/MPI_Test* completion or MPI_Request_free.
struct xmpi_request_t_internal;

// ---------------------------------------------------------------------------
// Mailbox: per-rank matching engine. All state is guarded by `m`; waiters
// block on `cv`. Completing a request owned by rank R requires holding R's
// mailbox mutex (requests are completed either by R itself or by a sender
// currently holding R's mutex).
// ---------------------------------------------------------------------------
struct Mailbox {
    std::mutex m;
    std::condition_variable cv;
    std::deque<Envelope> unexpected;
    std::vector<xmpi_request_t*> posted;  // posted receives, in post order
    /// Threads asleep on `cv`. Wakers read it under `m` and skip the notify
    /// when it is 0: a waiter re-checks its predicate under `m` before it
    /// parks, so it cannot sleep through a change made before that check.
    int parked = 0;

    /// Sleeps on `cv`; the caller holds `lock` on `m`.
    void park(std::unique_lock<std::mutex>& lock) {
        ++parked;
        cv.wait(lock);
        --parked;
    }
    /// Sleeps on `cv` for at most `d` (for waits whose wakers do not all
    /// notify this mailbox, e.g. shm publishes).
    void park_for(std::unique_lock<std::mutex>& lock, std::chrono::microseconds d) {
        ++parked;
        cv.wait_for(lock, d);
        --parked;
    }
    /// Wakes the parked waiters, if any; the caller holds `m`.
    void notify_parked() {
        if (parked > 0) cv.notify_all();
    }
};

// ---------------------------------------------------------------------------
// Rank state
// ---------------------------------------------------------------------------

/// A rank's virtual clock. Plain double semantics at the call sites, but
/// independently atomic underneath: with the asynchronous progress engine a
/// schedule owned by rank R may be advanced by a progress thread while R's
/// own application thread keeps charging compute, so reads and updates must
/// not tear. Updates use CAS loops (no lost increments within one
/// operation); cross-thread *ordering* of clock advances during genuine
/// overlap is inherently approximate — completion values are made coherent
/// by the request's release/acquire completion flag.
struct VTime {
    std::atomic<double> v{0.0};

    operator double() const { return v.load(std::memory_order_relaxed); }
    VTime& operator=(double x) {
        v.store(x, std::memory_order_relaxed);
        return *this;
    }
    VTime& operator+=(double dt) {
        double cur = v.load(std::memory_order_relaxed);
        while (!v.compare_exchange_weak(cur, cur + dt, std::memory_order_relaxed)) {
        }
        return *this;
    }
    /// Monotone advance to at least `t` (message arrival semantics).
    void advance_to(double t) {
        double cur = v.load(std::memory_order_relaxed);
        while (t > cur && !v.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
        }
    }
};

struct RankState {
    Universe* universe = nullptr;
    int world_rank = 0;
    Mailbox mbox;

    // Virtual clock.
    VTime vnow;
    /// Thread CPU time up to which compute has been charged (or skipped).
    /// Never sampled when the universe's compute_scale is 0.
    double last_cpu = 0.0;

    std::atomic<bool> dead{false};

    Counters counters;

    /// Wall-clock nanoseconds spent asleep in blocking wait/test paths
    /// (p2p.cpp samples the steady clock only when a wait actually blocks).
    /// Deliberately *not* a Counters field: Counters is a stable
    /// user-visible aggregate struct; this is exposed via the
    /// `p2p.wait_time_ns` pvar instead.
    std::uint64_t wait_time_ns = 0;

    /// Number of generalized-request progress invocations made from this
    /// rank's application thread (wait/test/free paths). The overlap test
    /// and `bench_overhead --progress-smoke` assert this stays zero while
    /// the asynchronous progress engine owns the armed schedules. Exposed
    /// via the `progress.app_progress_calls` pvar.
    std::uint64_t app_progress_calls = 0;

    /// Event-trace ring; non-null only while this universe is traced
    /// (XMPI_TRACE set). Written exclusively by the owning rank thread.
    std::unique_ptr<trace::Ring> trace_ring;

    // Per-rank world/self communicator objects (sentinels resolve here).
    MPI_Comm world = nullptr;
    MPI_Comm self = nullptr;

    std::exception_ptr error;
};

// ---------------------------------------------------------------------------
// Universe
// ---------------------------------------------------------------------------
struct Universe {
    Config cfg;
    int size = 0;
    std::uint64_t id = 0;
    /// True when every rank thread can have a CPU of its own, so blocking
    /// waits spin briefly before they park (see spin_then_park). Resolved
    /// once in xmpi::run from the process's CPU affinity mask; on an
    /// oversubscribed machine waits park at once.
    bool spin_waits = false;
    /// Rank threads that have started; waits do not spin before all have
    /// (a peer that is not spawned yet cannot answer soon).
    std::atomic<int> ranks_started{0};
    /// Whether a blocking wait may spin now (see spin_then_park).
    bool may_spin() const {
        return spin_waits && ranks_started.load(std::memory_order_relaxed) == size;
    }
    /// world rank -> node id of the hierarchical topology; empty on a flat
    /// (single-tier) network. Resolved once at universe creation
    /// (see topo/topo.hpp) and immutable afterwards.
    std::vector<int> node_of_world;
    std::vector<std::unique_ptr<RankState>> ranks;
    /// Next free context id; communicator creation agrees on a common value
    /// via an internal allreduce-max.
    std::atomic<int> next_context{16};
    std::atomic<int> dead_count{0};
    /// Shared-memory transport state: per-node rendezvous-cell registries
    /// (see shm/shm.hpp). Built once at universe creation alongside the node
    /// map; shared_ptr for the type-erased deleter, the full type is only
    /// visible to the transport and the schedule executor.
    std::shared_ptr<shm::State> shm;
    /// Asynchronous progress engine; non-null only when XMPI_ASYNC_PROGRESS
    /// (or the XMPI_T_progress_set control) enabled it at universe start.
    /// shared_ptr for the type-erased deleter — progress::Engine is complete
    /// only inside progress.cpp and its clients.
    std::shared_ptr<progress::Engine> progress_engine;
    /// Trace rings owned by the progress-engine threads (one per engine
    /// thread, allocated via trace::add_engine_ring before rank threads
    /// exist, merged into the timeline at trace::end_universe).
    std::vector<std::unique_ptr<trace::Ring>> engine_trace_rings;
};

/// Thread-local pointer to the calling rank's state (null outside ranks).
RankState*& tls_rank();

/// Samples the calling thread's CPU clock in seconds.
double thread_cpu_now();

/// Advances the calling rank's virtual clock by the CPU time consumed since
/// the last charge. Samples no clock when compute_scale is 0.
void charge_compute(RankState* rs);

/// Moves the compute anchor to now without charging: the CPU time since the
/// last charge was spent waiting, not computing. No-op at compute_scale 0.
void skip_compute(RankState* rs);

/// Result of a spin_then_park `park` step that did not end the wait.
inline constexpr int kKeepWaiting = -1;

/// How long a blocking wait spins before it parks.
inline constexpr auto kSpinBudget = std::chrono::microseconds(50);

/// The substrate's one blocking-wait idiom: a bounded spin, then park.
///   - `ready()` polls without any lock and may do work (a generalized
///     request advances its schedule in it); true ends the wait with
///     MPI_SUCCESS.
///   - `blocked()` runs once, at the first failed poll, so wait accounting
///     that starts there includes the spin.
///   - `park()` takes the caller's lock, re-checks the predicate and the
///     failure conditions and sleeps on the caller's condition variable. It
///     returns kKeepWaiting, or the wait's result (MPI_SUCCESS or an error).
/// The spin yields on every turn and only runs when Universe::may_spin says
/// each rank thread has a CPU of its own and all have started; otherwise
/// the first failed poll parks at once. CPU time burnt while waiting is never charged as
/// compute: the anchor is moved past it before every poll and at the end.
template <typename Ready, typename Blocked, typename Park>
int spin_then_park(RankState* rs, Ready&& ready, Blocked&& blocked, Park&& park) {
    if (ready()) return MPI_SUCCESS;
    blocked();
    int rc = kKeepWaiting;
    if (rs->universe->may_spin()) {
        auto const until = std::chrono::steady_clock::now() + kSpinBudget;
        do {
            std::this_thread::yield();
            skip_compute(rs);
            if (ready()) rc = MPI_SUCCESS;
        } while (rc == kKeepWaiting && std::chrono::steady_clock::now() < until);
    }
    while (rc == kKeepWaiting) {
        rc = park();
        skip_compute(rs);
        if (rc == kKeepWaiting && ready()) rc = MPI_SUCCESS;
    }
    skip_compute(rs);
    return rc;
}

/// Wakes every rank blocked on its mailbox (used on rank death / revoke so
/// blocked operations re-evaluate their failure predicates).
void wake_all(Universe* u);

/// Wakes one rank blocked on its mailbox condition variable, if any is
/// parked (the count is read under the mailbox lock, so a concurrently
/// parking waiter cannot miss the notify). Used by the progress engine to
/// publish schedule completion.
void wake_rank(RankState* rs);

// ---------------------------------------------------------------------------
// Communicators
// ---------------------------------------------------------------------------

struct TopoInfo {
    std::vector<int> sources;
    std::vector<int> destinations;
};

}  // namespace xmpi::detail

namespace xmpi::detail::alg {
/// Per-communicator compiled-schedule cache (algorithms/registry.cpp).
struct SchedCache;
}  // namespace xmpi::detail::alg

/// Communicator object. xmpi gives every member rank its *own* copy of the
/// communicator (same context id, identical group vector), which removes any
/// need for cross-thread synchronization on communicator state: matching
/// only ever consults the integer context id carried by messages.
struct xmpi_comm_t {
    xmpi::detail::Universe* universe = nullptr;
    /// Point-to-point context id. Collective traffic uses `context + 1`.
    int context = 0;
    /// comm rank -> world rank.
    std::vector<int> group;
    /// world rank -> comm rank (-1 if not a member).
    std::vector<int> world_to_comm;
    /// This copy's owner rank (comm rank).
    int my_rank = 0;
    /// Per-copy collective sequence number; aligned across members because
    /// collectives on a communicator are ordered.
    std::uint64_t coll_seq = 0;
    /// Revoke fast-path cache: re-checked against the global registry when
    /// the revoke epoch moves (revokes are rare; the hot path is one load).
    /// Atomic because the progress engine re-evaluates revocation on behalf
    /// of the owner while the owner may do the same on its own operations.
    std::atomic<std::uint64_t> seen_revoke_epoch{0};
    std::atomic<bool> revoked_cached{false};
    /// Acknowledged failures (ULFM): operations ignore acked dead ranks for
    /// MPI_ANY_SOURCE receives.
    std::vector<int> acked_failures;
    std::unique_ptr<xmpi::detail::TopoInfo> topo;
    /// Lazily built node structure of this communicator under the
    /// universe's topology (see topo::node_info); owned per-copy.
    std::unique_ptr<xmpi::detail::topo::NodeInfo> node_cache;
    /// Compiled-schedule reuse cache (see alg::acquire_schedule); per-copy
    /// like everything else on the communicator, so no locking. shared_ptr
    /// for the type-erased deleter — SchedCache is complete only inside the
    /// algorithms layer.
    std::shared_ptr<xmpi::detail::alg::SchedCache> sched_cache;

    int size() const { return static_cast<int>(group.size()); }
    int rank() const { return my_rank; }
    int world_of(int comm_rank) const { return group[static_cast<std::size_t>(comm_rank)]; }
};

struct xmpi_datatype_t : xmpi::detail::DatatypeImpl {};
struct xmpi_op_t : xmpi::detail::OpImpl {};

/// Request backing store; see detail::Mailbox for the locking discipline.
struct xmpi_request_t {
    enum class Kind { send, ssend, recv, generalized, null };
    Kind kind = Kind::null;

    std::atomic<bool> complete{false};
    double completion_vtime = 0.0;
    MPI_Status status{MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_SUCCESS, 0};
    int error = MPI_SUCCESS;

    // --- persistent requests (MPI_Send_init/MPI_Recv_init and the
    // MPI_*_init collectives). A persistent request cycles between
    // *inactive* (allocated, not running an operation) and *active*
    // (started). MPI_Start flips inactive -> active through `start_fn`;
    // wait/test completion flips active -> inactive *without* deallocating,
    // so the request can be started again. Only MPI_Request_free releases
    // it. Non-persistent requests are born active and are consumed by
    // completion, exactly as before.
    bool persistent = false;
    bool active = true;
    std::function<int(xmpi_request_t*)> start_fn;

    xmpi::detail::RankState* owner = nullptr;

    // --- receive matching spec (posted receives) ---
    int context = 0;
    int match_src = MPI_ANY_SOURCE;  // comm rank or wildcard
    int match_tag = MPI_ANY_TAG;
    void* buf = nullptr;
    int count = 0;
    MPI_Datatype type = nullptr;
    MPI_Comm comm = nullptr;  // communicator the op runs on (for failure checks)
    bool posted = false;      // still linked in owner's mailbox `posted` list

    // --- synchronous send ---
    std::shared_ptr<xmpi::detail::SsendToken> tok;

    // --- generalized requests (MPI_Ibarrier and the MPI_I* collectives,
    // whose algorithm schedules — see algorithms/schedule.hpp — are advanced
    // from here): progress state machine. Invoked with the owner's mailbox
    // *unlocked*; returns completion.
    std::function<bool(xmpi_request_t*)> progress;

    /// True while the asynchronous progress engine owns this generalized
    /// request's schedule: wait/test/free must NOT invoke `progress` and
    /// instead park on the completion flag (the engine wakes the owner).
    /// Written by the initiating/starting application thread before the
    /// handle can be observed by wait/test on that same thread; cleared on
    /// each persistent restart that stays synchronous.
    bool offloaded = false;
};

namespace xmpi::detail {

// ---------------------------------------------------------------------------
// Internal point-to-point engine (used by both the public p2p API and the
// collective algorithms, which pass `context + 1` and synthesized tags).
// ---------------------------------------------------------------------------

/// Packs and deposits a message at `dest_world`'s mailbox; performs
/// sender-side matching against posted receives. Returns an MPI error code.
/// `sync != nullptr` requests synchronous-mode semantics via the token.
int deposit(RankState* sender, MPI_Comm comm, int context, int dest_comm_rank, int tag,
            void const* buf, int count, MPI_Datatype type,
            std::shared_ptr<SsendToken> const& sync, bool collective);

/// Creates and posts (or immediately satisfies from the unexpected queue) a
/// receive request. The returned request is heap-allocated.
int post_recv(RankState* self, MPI_Comm comm, int context, int src, int tag, void* buf, int count,
              MPI_Datatype type, bool collective, xmpi_request_t** out);

/// Blocks until `req` completes (runs `progress` state machines as needed).
/// Consumes the request on success. Returns its error code.
int wait_one(xmpi_request_t* req, MPI_Status* status);

/// Non-blocking completion check; consumes the request when complete.
int test_one(xmpi_request_t* req, int* flag, MPI_Status* status);

/// Blocking receive convenience wrapper.
int recv_blocking(RankState* self, MPI_Comm comm, int context, int src, int tag, void* buf,
                  int count, MPI_Datatype type, bool collective, MPI_Status* status);

/// True if world rank `w` has failed.
bool rank_dead(Universe* u, int w);

/// Resolves the public sentinel handles to the calling rank's comm objects.
MPI_Comm resolve(MPI_Comm comm);

/// Checks common preconditions (inside rank, live comm, not revoked).
/// Returns MPI_SUCCESS or an error code.
int check_comm(MPI_Comm comm);

/// @name Revoked-context registry (ULFM); implemented in runtime.cpp
/// @{
void revoke_context(Universe* u, int context);
bool context_revoked_slow(int context);
std::uint64_t revoke_epoch();
void clear_revoked_registry();
/// True if `comm` (this rank's copy) refers to a revoked context.
bool comm_revoked(MPI_Comm comm);
/// @}

/// True if any unacked member of `comm` has failed; used for fail-fast
/// collective entry and MPI_ANY_SOURCE failure detection.
bool any_member_dead(MPI_Comm comm);

/// Returns an available fresh context id agreed by all members of `comm`
/// (internal allreduce-max over the collective context).
int agree_context(MPI_Comm comm);

/// Encodes collective step tags: (seq, step) -> tag.
inline int coll_tag(std::uint64_t seq, int step) {
    return static_cast<int>(((seq & 0x3FFFFu) << 10) | static_cast<unsigned>(step & 0x3FF));
}

/// Builds a fresh communicator copy for the calling rank.
MPI_Comm make_comm(Universe* u, int context, std::vector<int> group, int my_world_rank);

/// Reduction application: inout[i] = op(in[i], inout[i]) with `in` the
/// left/lower-rank operand. `len` elements of `type`.
void apply_op(MPI_Op op, void const* in, void* inout, int len, MPI_Datatype type);

}  // namespace xmpi::detail
