/// @file cvar.cpp
/// @brief The control-variable table, its one resolution path, and the
/// MPI_T-style control API over it: XMPI_T_cvar_* plus the per-knob setters
/// and getters, each a one-line wrapper over a row.
#include "cvar.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "algorithms/algorithms.hpp"
#include "xmpi/mpi.h"

namespace xmpi::detail::cvar {
namespace {

template <alg::Family F>
char const* alg_choice(int i) {
    auto const& t = alg::algorithms(F);
    return i >= 0 && i < static_cast<int>(t.size()) ? t[static_cast<std::size_t>(i)].name
                                                     : nullptr;
}

/// Builders and the cost formulas segment identically because both read
/// the override from the model's hook.
void publish_segment(long long bytes) {
    bench::model::forced_segment_bytes().store(static_cast<double>(bytes),
                                               std::memory_order_relaxed);
}

constexpr long long kMax = LLONG_MAX;
constexpr char kAuto[] = "falling back to automatic selection";

// The table. Adding a knob is one row here plus its Id.
Row const kRows[kCount] = {
    // name, env, type, min, max, default, fallback, invalidates, onoff, effect, choice, publish
    {"alg.bcast", "XMPI_ALG_BCAST", Type::choice, 0, 0, -1, -1, true, false, kAuto,
     alg_choice<alg::Family::bcast>, nullptr},
    {"alg.reduce", "XMPI_ALG_REDUCE", Type::choice, 0, 0, -1, -1, true, false, kAuto,
     alg_choice<alg::Family::reduce>, nullptr},
    {"alg.allgather", "XMPI_ALG_ALLGATHER", Type::choice, 0, 0, -1, -1, true, false, kAuto,
     alg_choice<alg::Family::allgather>, nullptr},
    {"alg.allreduce", "XMPI_ALG_ALLREDUCE", Type::choice, 0, 0, -1, -1, true, false, kAuto,
     alg_choice<alg::Family::allreduce>, nullptr},
    {"alg.alltoall", "XMPI_ALG_ALLTOALL", Type::choice, 0, 0, -1, -1, true, false, kAuto,
     alg_choice<alg::Family::alltoall>, nullptr},
    // 0 = the cost model sizes segments.
    {"sched.segment_bytes", "XMPI_SEGMENT_BYTES", Type::integer, 1, kMax, 0, 0, true, false,
     "falling back to the cost model's segment size", nullptr, publish_segment},
    {"sched.cache", "XMPI_SCHED_CACHE", Type::integer, 0, 1, 1, 1, true, true,
     "the schedule cache stays enabled", nullptr, nullptr},
    // A mistyped XMPI_SHM must never leave direct peer-buffer access on.
    {"shm.enabled", "XMPI_SHM", Type::integer, 0, 1, 1, 0, true, false,
     "disabling the shared-memory transport", nullptr, nullptr},
    // 0 = unset: topology falls through to XMPI_NODES, then Config.
    {"topo.ranks_per_node", "XMPI_RANKS_PER_NODE", Type::integer, 1, INT_MAX, 0, 0, true, false,
     "falling back to the configured topology", nullptr, nullptr},
    {"topo.nodes", "XMPI_NODES", Type::integer, 1, INT_MAX, 0, 0, true, false,
     "falling back to the configured topology", nullptr, nullptr},
    {"tune.feedback", "XMPI_TUNE", Type::integer, 0, 1, 0, 0, true, false,
     "tuning feedback stays disabled", nullptr, nullptr},
    {"tune.profile", "XMPI_TUNE_PROFILE", Type::path, 0, 0, 0, 0, false, false, "", nullptr,
     nullptr},
    {"progress.enabled", "XMPI_ASYNC_PROGRESS", Type::integer, 0, 1, 0, 0, false, false,
     "leaving asynchronous progress disabled", nullptr, nullptr},
    {"progress.threads", "XMPI_PROGRESS_THREADS", Type::integer, 1, 16, 1, 1, false, false,
     "using 1 progress thread", nullptr, nullptr},
    // Default crossover: a parked-worker wakeup costs O(10us) wall latency
    // (Config::progress_wakeup); at host memcpy/mailbox bandwidth that is
    // roughly 32 KiB of payload the engine could have hidden instead.
    {"progress.min_bytes", "XMPI_PROGRESS_MIN_BYTES", Type::integer, 0, 1ll << 40, 32768, 32768,
     false, false, "keeping the 32 KiB offload floor", nullptr, nullptr},
    {"trace.path", "XMPI_TRACE", Type::path, 0, 0, 0, 0, false, false, "", nullptr, nullptr},
    // Fallback 0 = tracing disabled for the run.
    {"trace.ring_events", "XMPI_TRACE_RING_EVENTS", Type::integer, 16, 1 << 22, 65536, 0, false,
     false, "tracing disabled", nullptr, nullptr},
    // 0 = unlimited.
    {"sim.event_limit", "XMPI_SIM_EVENT_LIMIT", Type::integer, 0, kMax, 0, 0, false, false,
     "the simulator runs unlimited", nullptr, nullptr},
};

/// Per-row resolution state, guarded by g_mutex. The effective value lives
/// in the row's atomic slot, readable without the lock.
struct State {
    bool pinned = false;
    long long control = 0;
    bool env_read = false;  ///< the environment was read this refresh cycle
    long long env_value = 0;
    Source env_source = Source::default_value;
    std::string raw;  ///< the environment string ("" when unset)
    bool warned = false;
};

std::mutex g_mutex;
State g_state[kCount];
std::atomic<std::uint64_t> g_generation{0};

int index_of(Id id) { return static_cast<int>(id); }

/// Strict parse of a non-empty `text` for `r`; false when it does not parse.
bool parse(Row const& r, char const* text, long long* out) {
    switch (r.type) {
        case Type::path:
            *out = 1;
            return true;
        case Type::choice:
            if (iequals(text, "auto")) {
                *out = -1;
                return true;
            }
            for (int i = 0; r.choice(i) != nullptr; ++i) {
                if (iequals(text, r.choice(i))) {
                    *out = i;
                    return true;
                }
            }
            return false;
        case Type::integer: {
            if (r.onoff && (iequals(text, "off") || iequals(text, "on"))) {
                *out = iequals(text, "on") ? 1 : 0;
                return true;
            }
            char* end = nullptr;
            errno = 0;
            long long const v = std::strtoll(text, &end, 10);
            if (end == text || *end != '\0' || errno == ERANGE || v < r.min || v > r.max)
                return false;
            *out = v;
            return true;
        }
    }
    return false;
}

/// What a valid value looks like, for the warning.
std::string expected(Row const& r) {
    if (r.type == Type::choice) {
        std::string s = "one of ";
        for (int i = 0; r.choice(i) != nullptr; ++i) s += std::string(r.choice(i)) + ", ";
        return s + "auto";
    }
    std::string s = "an integer in [" + std::to_string(r.min) + ", " + std::to_string(r.max) + "]";
    return r.onoff ? s + " or off/on" : s;
}

void read_env_locked(int i) {
    State& s = g_state[i];
    if (s.env_read) return;
    s.env_read = true;
    Row const& r = kRows[i];
    char const* const raw = std::getenv(r.env);
    s.raw = raw != nullptr ? raw : "";
    s.env_value = r.def;
    s.env_source = Source::default_value;
    if (s.raw.empty()) return;
    s.env_source = Source::env;
    if (parse(r, raw, &s.env_value)) return;
    s.env_value = r.fallback;
    if (!s.warned) {
        s.warned = true;
        std::fprintf(stderr, "xmpi: %s=\"%s\" is not %s; %s\n", r.env, raw, expected(r).c_str(),
                     r.effect);
    }
}

long long resolve_locked(int i) {
    long long v = detail::g_slots[i].value.load(std::memory_order_relaxed);
    if (v != detail::kUnresolved) return v;
    State& s = g_state[i];
    if (s.pinned) {
        v = s.control;
    } else {
        read_env_locked(i);
        v = s.env_value;
    }
    if (kRows[i].publish != nullptr) kRows[i].publish(v);
    detail::g_slots[i].value.store(v, std::memory_order_release);
    return v;
}

/// Re-resolves row `i` after its pin moved, then invalidates cached
/// schedules if the row says so.
int repin(int i, bool pinned, long long control) {
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        g_state[i].pinned = pinned;
        g_state[i].control = control;
        detail::g_slots[i].value.store(detail::kUnresolved, std::memory_order_relaxed);
        resolve_locked(i);
    }
    if (kRows[i].invalidates) alg::bump_sched_epoch();
    return MPI_SUCCESS;
}

}  // namespace

namespace detail {

Slot g_slots[kCount];

long long resolve(Id id) {
    std::lock_guard<std::mutex> lock(g_mutex);
    return resolve_locked(index_of(id));
}

}  // namespace detail

Row const& row(Id id) { return kRows[index_of(id)]; }

bool iequals(char const* a, char const* b) {
    for (; *a != '\0' && *b != '\0'; ++a, ++b) {
        if (std::tolower(static_cast<unsigned char>(*a)) !=
            std::tolower(static_cast<unsigned char>(*b)))
            return false;
    }
    return *a == '\0' && *b == '\0';
}

Source source(Id id) {
    int const i = index_of(id);
    std::lock_guard<std::mutex> lock(g_mutex);
    resolve_locked(i);
    return g_state[i].pinned ? Source::control : g_state[i].env_source;
}

std::string path(Id id) {
    int const i = index_of(id);
    std::lock_guard<std::mutex> lock(g_mutex);
    resolve_locked(i);
    return g_state[i].raw;
}

int set(Id id, long long value) {
    Row const& r = row(id);
    bool const ok = r.type == Type::choice
                        ? value >= -1 && value <= INT_MAX &&
                              (value < 0 || r.choice(static_cast<int>(value)) != nullptr)
                        : r.type == Type::integer && value >= r.min && value <= r.max;
    return ok ? repin(index_of(id), true, value) : MPI_ERR_ARG;
}

int unpin(Id id) {
    return row(id).type == Type::path ? MPI_ERR_ARG : repin(index_of(id), false, 0);
}

int write(Id id, char const* value) {
    if (value == nullptr || *value == '\0') return unpin(id);
    long long v = 0;
    Row const& r = row(id);
    return r.type != Type::path && parse(r, value, &v) ? set(id, v) : MPI_ERR_ARG;
}

std::string text(Id id) {
    Row const& r = row(id);
    long long const v = get(id);
    switch (r.type) {
        case Type::path: return path(id);
        case Type::choice: return v < 0 ? "auto" : r.choice(static_cast<int>(v));
        case Type::integer: break;
    }
    return std::to_string(v);
}

bool warn_once(Id id) {
    std::lock_guard<std::mutex> lock(g_mutex);
    return !std::exchange(g_state[index_of(id)].warned, true);
}

std::uint64_t generation() { return g_generation.load(std::memory_order_acquire); }

void refresh() {
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        for (int i = 0; i < kCount; ++i) {
            g_state[i].env_read = false;
            g_state[i].warned = false;
            detail::g_slots[i].value.store(detail::kUnresolved, std::memory_order_relaxed);
        }
        for (int i = 0; i < kCount; ++i) {
            if (kRows[i].publish != nullptr) resolve_locked(i);
        }
        g_generation.fetch_add(1, std::memory_order_acq_rel);
    }
    alg::bump_sched_epoch();
}

}  // namespace xmpi::detail::cvar

// ---------------------------------------------------------------------------
// MPI_T-style control API (declared in <xmpi/mpi.h>).
// ---------------------------------------------------------------------------

namespace cvar = xmpi::detail::cvar;
using cvar::Id;

namespace {

bool valid_index(int index) { return index >= 0 && index < cvar::kCount; }

template <typename T>
int read_into(T* out, Id id) {
    if (out == nullptr) return MPI_ERR_ARG;
    *out = static_cast<T>(cvar::get(id));
    return MPI_SUCCESS;
}

}  // namespace

int XMPI_T_cvar_num(int* num) {
    if (num == nullptr) return MPI_ERR_ARG;
    *num = cvar::kCount;
    return MPI_SUCCESS;
}

int XMPI_T_cvar_name(int index, char* name, int namelen, char* env, int envlen) {
    if (!valid_index(index)) return MPI_ERR_ARG;
    cvar::Row const& r = cvar::row(static_cast<Id>(index));
    if (name != nullptr && namelen > 0)
        std::snprintf(name, static_cast<std::size_t>(namelen), "%s", r.name);
    if (env != nullptr && envlen > 0)
        std::snprintf(env, static_cast<std::size_t>(envlen), "%s", r.env);
    return MPI_SUCCESS;
}

int XMPI_T_cvar_read(int index, char* value, int valuelen, int* source) {
    if (!valid_index(index)) return MPI_ERR_ARG;
    auto const id = static_cast<Id>(index);
    if (value != nullptr) {
        std::string const v = cvar::text(id);
        if (valuelen <= static_cast<int>(v.size())) return MPI_ERR_ARG;
        std::snprintf(value, static_cast<std::size_t>(valuelen), "%s", v.c_str());
    }
    if (source != nullptr) *source = static_cast<int>(cvar::source(id));
    return MPI_SUCCESS;
}

int XMPI_T_cvar_write(int index, const char* value) {
    return valid_index(index) ? cvar::write(static_cast<Id>(index), value) : MPI_ERR_ARG;
}

int XMPI_T_alg_env_refresh(void) {
    cvar::refresh();
    return MPI_SUCCESS;
}

int XMPI_T_segment_set(long long bytes) { return cvar::pin(Id::segment_bytes, bytes, 0); }
int XMPI_T_segment_get(long long* bytes) { return read_into(bytes, Id::segment_bytes); }
int XMPI_T_sched_cache_set(int enabled) { return cvar::pin(Id::sched_cache, enabled, -1); }
int XMPI_T_sched_cache_get(int* enabled) { return read_into(enabled, Id::sched_cache); }
int XMPI_T_shm_set(int enabled) { return cvar::pin(Id::shm, enabled, -1); }
int XMPI_T_shm_get(int* enabled) { return read_into(enabled, Id::shm); }
int XMPI_T_progress_set(int enabled) { return cvar::pin(Id::async_progress, enabled, -1); }
int XMPI_T_progress_get(int* enabled) { return read_into(enabled, Id::async_progress); }
int XMPI_T_topo_set(int ranks_per_node) { return cvar::pin(Id::ranks_per_node, ranks_per_node, 0); }
int XMPI_T_sim_event_limit_get(long long* limit) { return read_into(limit, Id::sim_event_limit); }

int XMPI_T_topo_get(int* ranks_per_node) {
    if (ranks_per_node == nullptr) return MPI_ERR_ARG;
    bool const pinned = cvar::source(Id::ranks_per_node) == cvar::Source::control;
    *ranks_per_node = pinned ? static_cast<int>(cvar::get(Id::ranks_per_node)) : 0;
    return MPI_SUCCESS;
}
