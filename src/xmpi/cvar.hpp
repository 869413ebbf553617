/// @file cvar.hpp
/// @brief Control variables (MPI_T-style cvars): one table holding every
/// runtime knob of the substrate, and the one resolution path they share.
///
/// Each row names the knob, its environment variable, its type and range,
/// its default, the value an invalid environment setting falls back to, and
/// whether a write invalidates cached schedules. Precedence is control write
/// (XMPI_T_cvar_write or a per-knob XMPI_T_* setter) > environment >
/// default. The environment is read lazily, once per refresh cycle
/// (XMPI_T_alg_env_refresh starts a new one); a set but invalid value warns
/// once per cycle on stderr, naming the variable, and resolves to the row's
/// fallback. After the first resolution a read is one atomic load.
#pragma once

#include <atomic>
#include <climits>
#include <cstdint>
#include <string>

namespace xmpi::detail::cvar {

/// Row identifiers; the order is the table order and the XMPI_T_cvar_*
/// index order.
enum class Id : int {
    alg_bcast,
    alg_reduce,
    alg_allgather,
    alg_allreduce,
    alg_alltoall,
    segment_bytes,
    sched_cache,
    shm,
    ranks_per_node,
    nodes,
    tune,
    tune_profile,
    async_progress,
    progress_threads,
    progress_min_bytes,
    trace,
    trace_ring_events,
    sim_event_limit,
    count
};
inline constexpr int kCount = static_cast<int>(Id::count);

enum class Type : std::uint8_t {
    integer,  ///< strict base-10 integer in [min, max]
    choice,   ///< one of the row's names (case-insensitive) or "auto" (-1)
    path,     ///< environment-only string; the value is 1 when set, else 0
};

/// Where a value came from; the numbers are the XMPI_T_CVAR_SOURCE_* codes.
enum class Source : int { default_value = 0, env = 1, control = 2 };

struct Row {
    char const* name;  ///< dotted cvar name, pvar-style ("shm.enabled")
    char const* env;   ///< environment variable
    Type type;
    long long min;       ///< integer rows: accepted range
    long long max;
    long long def;       ///< value when neither control nor environment sets it
    long long fallback;  ///< value when the environment holds garbage
    bool invalidates;    ///< a write bumps the schedule-cache epoch
    bool onoff;          ///< integer rows: "off"/"on" also parse as 0/1
    char const* effect;  ///< what the fallback means, for the warning
    /// Choice rows: the i-th choice, nullptr past the end.
    char const* (*choice)(int i);
    /// Mirrors every newly resolved value somewhere a lock-free reader
    /// outside this table needs it; such rows resolve eagerly on refresh.
    void (*publish)(long long value);
};

Row const& row(Id id);

/// ASCII case-insensitive equality, the rule every name-valued row parses by.
bool iequals(char const* a, char const* b);

namespace detail {
inline constexpr long long kUnresolved = LLONG_MIN;
struct Slot {
    std::atomic<long long> value{kUnresolved};
};
extern Slot g_slots[kCount];
long long resolve(Id id);
}  // namespace detail

/// Effective value (control > environment > default).
inline long long get(Id id) {
    long long const v =
        detail::g_slots[static_cast<int>(id)].value.load(std::memory_order_acquire);
    return v != detail::kUnresolved ? v : detail::resolve(id);
}

/// Where the effective value came from. A garbage environment value counts
/// as the environment: it decided that the fallback applies.
Source source(Id id);

/// The raw environment string of a path row ("" when unset).
std::string path(Id id);

/// Pins `value` (MPI_ERR_ARG when outside the row's range or a path row).
int set(Id id, long long value);

/// Drops the control pin, exposing the environment again.
int unpin(Id id);

/// The per-knob setters' convention: one sentinel value unpins.
inline int pin(Id id, long long value, long long unpin_value) {
    return value == unpin_value ? unpin(id) : set(id, value);
}

/// Parses `text` as the environment would (strictly, no fallback) and pins
/// it; null or "" unpins. MPI_ERR_ARG when it does not parse.
int write(Id id, char const* text);

/// Text form of the effective value: a number, a choice name or a path.
std::string text(Id id);

/// True once per refresh cycle for `id`: gates a subsystem's own warning
/// about the row's value (for example an unparsable profile file).
bool warn_once(Id id);

/// Counts refresh cycles, so state derived from a row (a parsed profile)
/// knows when to re-derive it.
std::uint64_t generation();

/// Starts a new refresh cycle: forgets every environment resolution and
/// re-arms the warnings. Control pins stay.
void refresh();

}  // namespace xmpi::detail::cvar
