/// @file spans.hpp
/// @brief Span recorder for the traced build of the layer-ladder benchmark.
///
/// Three kinds of span nest inside each other on a rank thread:
///  - `op`: one measured unit of work (a collective call of the mix, one
///    application solve), opened by the benchmark around the call;
///  - `kamping`: the outermost call into the KaMPIng bindings, opened by the
///    `-finstrument-functions` hooks, which the traced build enables only for
///    the binding headers;
///  - `mpi`: the outermost `MPI_*` entry on the thread, opened by the
///    link-time `--wrap` trampolines generated by gen_wraps.py.
/// Spans are recorded only while the calling thread has an active phase, kept
/// in memory (up to a cap per thread) and written out at exit. Self times are
/// accumulated online: a span's self time is its duration minus the part of
/// it that child spans cover.
///
/// In the untraced build every entry point compiles to nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

#ifdef PERFBENCH_TRACED
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Span totals of one op name (summed over threads). KaMPIng and MPI spans
/// count towards the op span that encloses them.
struct OpTotals {
    double op_ns = 0;             ///< summed duration of the op spans
    double kamping_ns = 0;        ///< summed duration of outermost KaMPIng spans
    double kamping_self_ns = 0;   ///< ... minus the MPI time inside them
    double mpi_ns = 0;            ///< summed duration of outermost MPI spans
    std::uint64_t ops = 0;        ///< number of op spans
    std::uint64_t nested_hooks = 0;  ///< instrumented calls nested in KaMPIng spans
    std::map<std::string, std::uint64_t> mpi_calls;  ///< outermost MPI calls by name
};

/// Totals since the last collect(), keyed by op name ("" outside any op).
using Totals = std::map<std::string, OpTotals>;

#ifdef PERFBENCH_TRACED
void set_rank(int rank);
/// Starts or stops recording on the calling thread.
void set_active(bool active);
void op_begin(char const* name);
void op_end();
void mpi_enter(char const* name);
void mpi_exit();
/// Sums and resets every thread's totals; retained spans move to the
/// process-wide store written by write().
Totals collect();
/// Cost in ns of one nested enter/exit hook pair on the calling thread.
double nested_hook_cost_ns();
/// Writes every retained span as CSV (id,rank,kind,name,start_ns,end_ns,parent;
/// parent is the id of the enclosing span, -1 for none).
bool write(std::string const& path);
#else
inline void set_rank(int) {}
inline void set_active(bool) {}
inline void op_begin(char const*) {}
inline void op_end() {}
inline Totals collect() { return {}; }
inline double nested_hook_cost_ns() { return 0.0; }
inline bool write(std::string const&) { return true; }
#endif

/// RAII op span.
struct OpScope {
    explicit OpScope(char const* name) { op_begin(name); }
    ~OpScope() { op_end(); }
    OpScope(OpScope const&) = delete;
    OpScope& operator=(OpScope const&) = delete;
};

}  // namespace perfbench::trace
