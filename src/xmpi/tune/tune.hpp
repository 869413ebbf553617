/// @file tune.hpp
/// @brief The self-tuning subsystem: measured machine parameters and a
/// measured-selection feedback loop layered over the analytic cost model.
///
/// Three parameter layers, in precedence order (same idiom as the topology
/// knobs: control call > environment > built-in default):
///
///   1. XMPI_T_tune_set("alpha"|"beta"|"o"|"alpha_intra"|...|"gamma_copy"|
///      "copy_sync", value) pins one machine parameter programmatically;
///   2. XMPI_T_tune_calibrate(comm) fits both tiers' alpha/beta/o from the
///      observed virtual-time of a small probe schedule (isolated sends for
///      the sender overhead, two-size ping-pongs for latency and bandwidth)
///      and, when the shm transport is enabled, gamma_copy from two-size
///      zero-copy cell reads through the real rendezvous protocol;
///   3. XMPI_TUNE_PROFILE names a hostfile-style machine description
///      ("inter alpha=2e-6 beta=8e-10 o=2e-7" / "intra ..." /
///      "copy gamma_copy=2e-11 copy_sync=1e-7" lines, plus optional
///      "prefer family=.. p=.. bytes=.. alg=.." lines seeding the feedback
///      table) that is parsed once per process (re-armed by
///      XMPI_T_alg_env_refresh). XMPI_T_tune_save writes the same format,
///      including learned preferences, so tuning state round-trips.
///
/// Unset parameters fall through to the universe Config's defaults; the
/// overlay is applied inside alg::machine_of(), so selection, the
/// hierarchical builders' inner-phase choices and the bench model all see
/// the same effective machine.
///
/// Independently, when feedback is enabled (XMPI_TUNE=1 or
/// XMPI_T_tune_set("feedback", 1)), every executed blocking collective
/// records its measured per-rank virtual-time makespan into a per-(family,
/// comm-size-bucket, message-size-bucket) table. Selection consults the
/// table after the cost-model argmin: algorithms whose measured time is
/// consistently beaten by a sampled alternative are demoted (the preferred
/// alternative overrides the model's pick and the schedule-cache epoch is
/// bumped so stale cached schedules are dropped), and an epsilon-greedy
/// re-probe keeps sampling so a demotion can be recovered. Decisions are
/// frozen per generation of collective sequence numbers, which keeps every
/// rank of one collective on the same algorithm without communication (all
/// ranks share the collective's seq).
#pragma once

#include <cstddef>

#include "bench/model/analytic.hpp"

namespace xmpi::detail::tune {

/// Overwrites the fields of `t` for which a tuned value (control >
/// calibrated > profile file) is set; no-op (one relaxed atomic load) when
/// no layer is active.
void overlay(bench::model::TwoTier& t);

/// True when the measured-selection feedback loop is on (control pin,
/// else XMPI_TUNE, else off). Off keeps the default build/hit counters of
/// the schedule-cache tests byte-stable: no probing, no recording.
bool feedback_enabled();

/// Feedback-table consultation, called by alg::select() after the cost
/// model's argmin. `seq` is the collective's sequence number (identical on
/// every rank of the call), `model_pick` the argmin, `valid_mask` bit i set
/// iff algorithm i is executable for this call. Returns the algorithm to
/// use: a frozen probe, the bucket's preferred (demotion) override, or
/// `model_pick`.
int pick(int family, int p, std::size_t bytes, unsigned long long seq, int model_pick,
         unsigned valid_mask);

/// Records one executed schedule's measured per-rank virtual-time makespan
/// and re-evaluates the bucket's preference (demote / recover), bumping the
/// schedule-cache epoch when the preference flips.
void record(int family, int p, std::size_t bytes, int alg, double elapsed);

/// Process-wide feedback-loop accounting, read by the `tune.*` pvars.
struct Stats {
    unsigned long long records = 0;
    unsigned long long probes = 0;
    unsigned long long demotions = 0;
    unsigned long long recoveries = 0;
};
Stats stats();

}  // namespace xmpi::detail::tune
