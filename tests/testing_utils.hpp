/// @file testing_utils.hpp
/// @brief Shared helpers for randomized tests: a seeded RNG that announces
/// its seed in the test log (and as a gtest property) so any failure can be
/// replayed deterministically with XMPI_TEST_SEED=<seed>.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <string>

#include "xmpi/mpi.h"

namespace testing_utils {

/// Pins ranks-per-node for the scope via the XMPI_T_topo_set control
/// channel (which beats the environment, so tests behave identically under
/// the forced-topology CI matrix). TopoPin(1) forces the flat single-tier
/// network; the destructor restores automatic resolution.
struct TopoPin {
    explicit TopoPin(int rpn) { XMPI_T_topo_set(rpn); }
    ~TopoPin() { XMPI_T_topo_set(0); }
    TopoPin(TopoPin const&) = delete;
    TopoPin& operator=(TopoPin const&) = delete;
};

/// Pins the zero-copy shared-memory transport on (1) or off (0) for the
/// scope via the XMPI_T_shm_set control channel (beats XMPI_SHM, so tests
/// behave identically under the shm-off CI leg). The destructor restores
/// automatic resolution from the environment.
struct ShmPin {
    explicit ShmPin(int on) { XMPI_T_shm_set(on); }
    ~ShmPin() { XMPI_T_shm_set(-1); }
    ShmPin(ShmPin const&) = delete;
    ShmPin& operator=(ShmPin const&) = delete;
};

/// Pins the asynchronous progress engine on (1) or off (0) for the scope
/// via the XMPI_T_progress_set control channel (beats XMPI_ASYNC_PROGRESS,
/// so tests behave identically under the progress-on CI leg). The
/// destructor restores automatic resolution from the environment.
struct ProgressPin {
    explicit ProgressPin(int on) { XMPI_T_progress_set(on); }
    ~ProgressPin() { XMPI_T_progress_set(-1); }
    ProgressPin(ProgressPin const&) = delete;
    ProgressPin& operator=(ProgressPin const&) = delete;
};

/// Pins the pipeline segment size (bytes) for the scope via the
/// XMPI_T_segment_set control channel (beats XMPI_SEGMENT_BYTES, so tests
/// behave identically under the forced-segment CI matrix). The destructor
/// restores automatic sizing.
struct SegPin {
    explicit SegPin(long long bytes) { XMPI_T_segment_set(bytes); }
    ~SegPin() { XMPI_T_segment_set(0); }
    SegPin(SegPin const&) = delete;
    SegPin& operator=(SegPin const&) = delete;
};

/// Clears every XMPI_ALG_* pin for a scope, so tests of *automatic*
/// selection behave identically under the forced-algorithms CI matrix (an
/// XMPI_T_alg_set "auto" defers to the environment by design, and the
/// scope's own pins go through it). The destructor restores the variables
/// and re-resolves.
struct ScrubAlgEnv {
    static constexpr char const* kVars[5] = {"XMPI_ALG_BCAST", "XMPI_ALG_REDUCE",
                                             "XMPI_ALG_ALLGATHER", "XMPI_ALG_ALLREDUCE",
                                             "XMPI_ALG_ALLTOALL"};
    std::string saved[5];
    bool had[5] = {};
    ScrubAlgEnv() {
        for (int i = 0; i < 5; ++i) {
            if (char const* v = std::getenv(kVars[i])) {
                had[i] = true;
                saved[i] = v;
            }
            unsetenv(kVars[i]);
        }
        XMPI_T_alg_env_refresh();
    }
    ~ScrubAlgEnv() {
        for (int i = 0; i < 5; ++i) {
            if (had[i]) setenv(kVars[i], saved[i].c_str(), 1);
        }
        XMPI_T_alg_env_refresh();
    }
    ScrubAlgEnv(ScrubAlgEnv const&) = delete;
    ScrubAlgEnv& operator=(ScrubAlgEnv const&) = delete;
};

/// Sets (or, without a value, unsets) an environment variable for a scope,
/// starting a new control-variable cycle (XMPI_T_alg_env_refresh) on entry
/// and exit so the change is seen.
struct EnvVar {
    explicit EnvVar(char const* name, char const* value = nullptr) : name_(name) {
        if (char const* const old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value != nullptr) {
            setenv(name, value, 1);
        } else {
            unsetenv(name);
        }
        XMPI_T_alg_env_refresh();
    }
    EnvVar(char const* name, std::string const& value) : EnvVar(name, value.c_str()) {}
    ~EnvVar() {
        if (had_) {
            setenv(name_, old_.c_str(), 1);
        } else {
            unsetenv(name_);
        }
        XMPI_T_alg_env_refresh();
    }
    EnvVar(EnvVar const&) = delete;
    EnvVar& operator=(EnvVar const&) = delete;

private:
    char const* name_;
    bool had_ = false;
    std::string old_;
};

/// Number of non-overlapping occurrences of `needle` in `hay`.
inline std::size_t count_occurrences(std::string const& hay, std::string const& needle) {
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

/// Index of the control variable called `name` ("shm.enabled"), -1 when
/// there is none.
inline int cvar_index(std::string const& name) {
    int num = 0;
    XMPI_T_cvar_num(&num);
    char buf[128];
    for (int i = 0; i < num; ++i) {
        if (XMPI_T_cvar_name(i, buf, sizeof(buf), nullptr, 0) == MPI_SUCCESS && name == buf)
            return i;
    }
    return -1;
}

/// Index of the pvar called `name`, -1 when there is none.
inline int pvar_index(std::string const& name) {
    int num = 0;
    XMPI_T_pvar_num(&num);
    char buf[128];
    for (int i = 0; i < num; ++i) {
        if (XMPI_T_pvar_name(i, buf, sizeof(buf), nullptr) == MPI_SUCCESS && name == buf) return i;
    }
    return -1;
}

/// Reads scalar pvar `index`; an unreadable variable fails the calling test.
inline unsigned long long pvar_u64(int index) {
    unsigned long long v = 0;
    int count = 1;
    EXPECT_EQ(XMPI_T_pvar_read(index, &v, &count), MPI_SUCCESS) << "pvar " << index;
    EXPECT_EQ(count, 1);
    return v;
}

/// Reads the scalar pvar called `name` ("counters.schedule_builds"); a
/// missing or unreadable variable fails the calling test.
inline unsigned long long pvar_u64(std::string const& name) {
    int const index = pvar_index(name);
    EXPECT_GE(index, 0) << "no pvar " << name;
    return pvar_u64(index);
}

/// The seed for this test's randomness: XMPI_TEST_SEED if set (replay),
/// otherwise a fresh nondeterministic one.
inline std::uint64_t pick_seed() {
    if (char const* env = std::getenv("XMPI_TEST_SEED")) {
        return std::strtoull(env, nullptr, 10);
    }
    return std::random_device{}();
}

/// Construct one per randomized test body. Logs the seed up front so a
/// failing run's output always contains the replay command.
class SeededRng {
public:
    SeededRng() : seed_(pick_seed()), engine_(seed_) {
        std::cerr << "[   SEED   ] replay with XMPI_TEST_SEED=" << seed_ << "\n";
        ::testing::Test::RecordProperty("xmpi_test_seed", std::to_string(seed_));
    }

    std::uint64_t seed() const { return seed_; }
    std::mt19937_64& engine() { return engine_; }

    /// Uniform integer in [lo, hi].
    int uniform(int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(engine_);
    }

    /// One element of a fixed candidate list.
    template <typename T, std::size_t N>
    T const& pick(T const (&candidates)[N]) {
        return candidates[static_cast<std::size_t>(uniform(0, static_cast<int>(N) - 1))];
    }

private:
    std::uint64_t seed_;
    std::mt19937_64 engine_;
};

}  // namespace testing_utils
