/// @file test_tune.cpp
/// @brief The self-tuning subsystem: the layered machine-parameter overlay
/// (control > calibrated fit > XMPI_TUNE_PROFILE > defaults), the virtual-
/// time calibration pass (which must recover the configured LogP constants
/// *exactly* — the tape is deterministic), the measured-selection feedback
/// loop (a mis-set cost model must be demoted to the measured winner within
/// a pinned number of calls), the feedback/schedule-cache epoch interaction
/// (a tuning update must rebuild exactly once, accounted by the
/// counters.schedule_* pvars), and the warn-once validation of
/// XMPI_TUNE_PROFILE. The XMPI_TUNE row itself is covered by test_cvar.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../testing_utils.hpp"
#include "src/xmpi/algorithms/algorithms.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace {

using testing_utils::count_occurrences;
using testing_utils::EnvVar;
using testing_utils::pvar_u64;
using testing_utils::TopoPin;

/// Restores every tuning layer this test may have touched: control pins,
/// the calibrated fit, the feedback tables and statistics.
struct TuneReset {
    TuneReset() { clear(); }
    ~TuneReset() { clear(); }
    static void clear() {
        char const* const keys[] = {"alpha",      "beta",       "o",
                                    "alpha_intra", "beta_intra", "o_intra",
                                    "gamma_copy",  "copy_sync"};
        for (char const* k : keys) EXPECT_EQ(XMPI_T_tune_set(k, -1.0), MPI_SUCCESS);
        EXPECT_EQ(XMPI_T_tune_set("feedback", -1.0), MPI_SUCCESS);
        EXPECT_EQ(XMPI_T_tune_reset(), MPI_SUCCESS);
    }
    TuneReset(TuneReset const&) = delete;
    TuneReset& operator=(TuneReset const&) = delete;
};

/// Pins the schedule cache on for the scope (beats the XMPI_SCHED_CACHE
/// environment, so the epoch-accounting test behaves identically under the
/// cache-disabled CI leg).
struct CachePin {
    explicit CachePin(int enabled) { XMPI_T_sched_cache_set(enabled); }
    ~CachePin() { XMPI_T_sched_cache_set(-1); }
    CachePin(CachePin const&) = delete;
    CachePin& operator=(CachePin const&) = delete;
};

double tune_get(char const* key) {
    double v = -1.0;
    EXPECT_EQ(XMPI_T_tune_get(key, &v), MPI_SUCCESS) << key;
    return v;
}

std::string selected(char const* family) {
    char const* name = nullptr;
    EXPECT_EQ(XMPI_T_alg_selected(family, &name), MPI_SUCCESS);
    return name != nullptr ? name : "";
}

void write_file(std::string const& path, char const* content) {
    std::FILE* const f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(content, f);
    std::fclose(f);
}

}  // namespace

TEST(Tune, ControlApiValidation) {
    TuneReset const guard;
    double v = 0.0;
    EXPECT_EQ(XMPI_T_tune_set("warp_factor", 9.0), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_tune_get("warp_factor", &v), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_tune_get("alpha", nullptr), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_tune_save(nullptr), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_tune_save(""), MPI_ERR_ARG);
    // Calibration is only meaningful inside a rank body...
    EXPECT_EQ(XMPI_T_tune_calibrate(MPI_COMM_WORLD), MPI_ERR_OTHER);
    // ...and needs a peer to probe against.
    xmpi::run(1, [](int) { EXPECT_EQ(XMPI_T_tune_calibrate(MPI_COMM_WORLD), MPI_ERR_OTHER); });

    // Defaults shine through; a control pin beats them; -1 clears the pin.
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 2e-6);
    EXPECT_DOUBLE_EQ(tune_get("beta_intra"), 5e-11);
    ASSERT_EQ(XMPI_T_tune_set("alpha", 5e-6), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 5e-6);
    ASSERT_EQ(XMPI_T_tune_set("alpha", -1.0), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 2e-6);

    // The feedback switch round-trips through the control layer.
    ASSERT_EQ(XMPI_T_tune_set("feedback", 1.0), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("feedback"), 1.0);
    ASSERT_EQ(XMPI_T_tune_set("feedback", 0.0), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("feedback"), 0.0);
    ASSERT_EQ(XMPI_T_tune_set("feedback", -1.0), MPI_SUCCESS);

    // The guard just reset the feedback-loop counters.
    for (char const* name : {"tune.records", "tune.probes", "tune.demotions", "tune.recoveries"})
        EXPECT_EQ(pvar_u64(name), 0u) << name;
}

TEST(Tune, CalibrationRecoversConfiguredMachineExactly) {
    TuneReset const guard;
    TopoPin const topo(4);  // 8 ranks -> 2 nodes of 4: both tiers present
    xmpi::Config cfg;
    cfg.alpha = 3e-6;
    cfg.beta = 2e-9;
    cfg.o = 4e-7;
    cfg.alpha_intra = 6e-7;
    cfg.beta_intra = 9e-11;
    cfg.o_intra = 9e-8;
    cfg.compute_scale = 0.0;  // pure communication tape: the fit is exact
    xmpi::run(8, [](int) { ASSERT_EQ(XMPI_T_tune_calibrate(MPI_COMM_WORLD), MPI_SUCCESS); }, cfg);

    // The virtual-time tape is deterministic, so the two-point fit recovers
    // the configured constants up to floating-point rounding — the fitted
    // values now layer over the defaults (fit > profile > defaults).
    EXPECT_NEAR(tune_get("alpha"), cfg.alpha, cfg.alpha * 1e-9);
    EXPECT_NEAR(tune_get("beta"), cfg.beta, cfg.beta * 1e-9);
    EXPECT_NEAR(tune_get("o"), cfg.o, cfg.o * 1e-9);
    EXPECT_NEAR(tune_get("alpha_intra"), cfg.alpha_intra, cfg.alpha_intra * 1e-9);
    EXPECT_NEAR(tune_get("beta_intra"), cfg.beta_intra, cfg.beta_intra * 1e-9);
    EXPECT_NEAR(tune_get("o_intra"), cfg.o_intra, cfg.o_intra * 1e-9);

    // A control pin still beats the calibrated fit.
    ASSERT_EQ(XMPI_T_tune_set("o", 1e-5), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("o"), 1e-5);
    ASSERT_EQ(XMPI_T_tune_set("o", -1.0), MPI_SUCCESS);
    EXPECT_NEAR(tune_get("o"), cfg.o, cfg.o * 1e-9);

    // XMPI_T_tune_reset drops the fit; defaults shine through again.
    ASSERT_EQ(XMPI_T_tune_reset(), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 2e-6);
    EXPECT_DOUBLE_EQ(tune_get("beta_intra"), 5e-11);
}

TEST(Tune, CalibrationFitsGammaCopyThroughShmTransport) {
    TuneReset const guard;
    TopoPin const topo(4);  // 8 ranks -> 2 nodes of 4: an intra peer exists
    xmpi::Config cfg;
    cfg.gamma_copy = 7e-11;   // not the default: the fit must recover it
    cfg.compute_scale = 0.0;  // deterministic copy pricing: the fit is exact
    {
        // The gamma probe reads rendezvous cells through the real transport,
        // so it only runs when shm is enabled.
        testing_utils::ShmPin const shm(1);
        xmpi::run(
            8, [](int) { ASSERT_EQ(XMPI_T_tune_calibrate(MPI_COMM_WORLD), MPI_SUCCESS); }, cfg);
    }
    EXPECT_NEAR(tune_get("gamma_copy"), cfg.gamma_copy, cfg.gamma_copy * 1e-9);
    EXPECT_DOUBLE_EQ(tune_get("copy_sync"), 1e-7);  // not fitted: default

    ASSERT_EQ(XMPI_T_tune_reset(), MPI_SUCCESS);
    {
        // With the transport disabled the probe is skipped and the copy tier
        // falls through to the defaults.
        testing_utils::ShmPin const shm(0);
        xmpi::run(
            8, [](int) { ASSERT_EQ(XMPI_T_tune_calibrate(MPI_COMM_WORLD), MPI_SUCCESS); }, cfg);
    }
    EXPECT_DOUBLE_EQ(tune_get("gamma_copy"), 2e-11);
}

TEST(Tune, FeedbackDemotesMisSetModelToMeasuredWinner) {
    // Mis-set the model's inter-node beta so selection believes the network
    // is ~4000x faster than it is: the model then picks "flat" for a 2 MiB
    // allreduce on 16 ranks / 4 nodes, while the *measured* winner on the
    // real (default) machine is "hierarchical" (the BENCH_hierarchy.json
    // regime). The feedback loop must probe the alternatives, demote the
    // model's pick, and converge onto the measured winner within 76 calls.
    // An XMPI_ALG_* pin would bypass the feedback hook entirely (user
    // demand beats tuning), so scrub the env: this asserts *automatic*
    // selection under any CI matrix leg.
    testing_utils::ScrubAlgEnv const scrub;
    TuneReset const guard;
    TopoPin const topo(4);
    ASSERT_EQ(XMPI_T_tune_set("beta", 1e-13), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_tune_set("feedback", 1.0), MPI_SUCCESS);

    int const kCount = 524288;  // 2 MiB of MPI_INT
    int const kWarmCalls = 72;  // probing + demotion window
    int const kFinalCalls = 4;  // steady state: no probe generation falls here
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    xmpi::run(
        16,
        [&](int rank) {
            std::vector<int> in(static_cast<std::size_t>(kCount), rank + 1);
            std::vector<int> out(static_cast<std::size_t>(kCount), 0);
            for (int k = 0; k < kWarmCalls + kFinalCalls; ++k) {
                ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), kCount, MPI_INT, MPI_SUM,
                                        MPI_COMM_WORLD),
                          MPI_SUCCESS);
                EXPECT_EQ(out.front(), 136);  // 1 + 2 + ... + 16: still correct
            }
        },
        cfg);

    // After the warm-up window the bucket's preference is frozen on the
    // measured winner and the final calls all select it.
    EXPECT_EQ(selected("allreduce"), "hierarchical");
    EXPECT_GT(pvar_u64("tune.records"), 0u);
    EXPECT_GE(pvar_u64("tune.probes"), 5u);     // every non-model candidate was measured
    EXPECT_GE(pvar_u64("tune.demotions"), 1u);  // the mis-set model's pick was overruled
}

TEST(Tune, TuningUpdateRebuildsCachedScheduleExactlyOnce) {
    // A tuning-parameter update bumps the schedule epoch: the next collective
    // must rebuild its schedule (exactly one extra build per rank), not
    // replay one compiled under the stale machine model.
    TuneReset const guard;
    TopoPin const topo(1);
    CachePin const cache(1);
    ASSERT_EQ(XMPI_T_alg_set("allreduce", "rdoubling"), MPI_SUCCESS);
    xmpi::run(4, [](int) {
        auto stats = [] {
            return std::pair(pvar_u64("counters.schedule_builds"),
                             pvar_u64("counters.schedule_cache_hits"));
        };
        int v = 1, sum = 0;
        ASSERT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        auto const [b1, h1] = stats();
        ASSERT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        auto const [b2, h2] = stats();
        EXPECT_EQ(b2, b1);      // identical call: served from the cache...
        EXPECT_EQ(h2, h1 + 1);  // ...as a hit

        // Every rank bumps the epoch; the barrier orders all bumps before
        // any rank's next build so the accounting below is exact.
        ASSERT_EQ(XMPI_T_tune_set("o", 3e-7), MPI_SUCCESS);
        ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
        auto const [b3, h3] = stats();
        ASSERT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        auto const [b4, h4] = stats();
        EXPECT_EQ(b4, b3 + 1);  // stale schedule not replayed: one rebuild
        EXPECT_EQ(h4, h3);
        ASSERT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        auto const [b5, h5] = stats();
        EXPECT_EQ(b5, b4);      // steady again
        EXPECT_EQ(h5, h4 + 1);
    });
    ASSERT_EQ(XMPI_T_alg_set("allreduce", "auto"), MPI_SUCCESS);
}

TEST(Tune, GarbageProfileWarnsOnceAndFallsBack) {
    TuneReset const guard;
    std::string const path = ::testing::TempDir() + "xmpi_tune_garbage.profile";
    write_file(path, "inter alpha=warp9 beta=8e-10\n");
    EnvVar const env("XMPI_TUNE_PROFILE", path);
    ::testing::internal::CaptureStderr();
    ASSERT_EQ(XMPI_T_alg_env_refresh(), MPI_SUCCESS);
    // The file is discarded all-or-nothing: no value is half-applied, the
    // defaults shine through, and repeated reads do not re-warn.
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 2e-6);
    EXPECT_DOUBLE_EQ(tune_get("beta"), 8e-10);
    std::string const err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(count_occurrences(err, "XMPI_TUNE_PROFILE"), 1u) << err;
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Tune, ControlBeatsEnvProfileBeatsDefaults) {
    TuneReset const guard;
    std::string const path = ::testing::TempDir() + "xmpi_tune_valid.profile";
    write_file(path,
               "# test fabric\n"
               "inter alpha=9e-6\n"
               "intra o=7e-8\n");
    EnvVar const env("XMPI_TUNE_PROFILE", path);
    ASSERT_EQ(XMPI_T_alg_env_refresh(), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 9e-6);    // profile value
    EXPECT_DOUBLE_EQ(tune_get("o_intra"), 7e-8);  // profile value
    EXPECT_DOUBLE_EQ(tune_get("beta"), 8e-10);    // unlisted: default

    ASSERT_EQ(XMPI_T_tune_set("alpha", 4e-6), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 4e-6);  // control beats env
    ASSERT_EQ(XMPI_T_tune_set("alpha", -1.0), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 9e-6);  // clearing re-exposes env
    std::remove(path.c_str());
}

TEST(Tune, SaveProfileRoundTrips) {
    TuneReset const guard;
    std::string const path = ::testing::TempDir() + "xmpi_tune_saved.profile";
    ASSERT_EQ(XMPI_T_tune_set("alpha", 7e-6), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_tune_set("beta_intra", 1.25e-11), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_tune_set("gamma_copy", 4.5e-11), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_tune_save(path.c_str()), MPI_SUCCESS);
    TuneReset::clear();  // the pins are gone...

    EnvVar const env("XMPI_TUNE_PROFILE", path);
    ASSERT_EQ(XMPI_T_alg_env_refresh(), MPI_SUCCESS);
    // ...but the saved profile reproduces the effective machine exactly.
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 7e-6);
    EXPECT_DOUBLE_EQ(tune_get("beta_intra"), 1.25e-11);
    EXPECT_DOUBLE_EQ(tune_get("gamma_copy"), 4.5e-11);
    EXPECT_DOUBLE_EQ(tune_get("o"), 2e-7);        // defaults round-trip too
    EXPECT_DOUBLE_EQ(tune_get("copy_sync"), 1e-7);
    std::remove(path.c_str());
}

TEST(Tune, CopyTierProfileAndControlLayering) {
    TuneReset const guard;
    std::string const path = ::testing::TempDir() + "xmpi_tune_copy.profile";
    write_file(path,
               "# DDR shared memory\n"
               "copy gamma_copy=5e-11 copy_sync=3e-7\n");
    EnvVar const env("XMPI_TUNE_PROFILE", path);
    ASSERT_EQ(XMPI_T_alg_env_refresh(), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("gamma_copy"), 5e-11);  // profile value
    EXPECT_DOUBLE_EQ(tune_get("copy_sync"), 3e-7);    // profile value
    EXPECT_DOUBLE_EQ(tune_get("alpha"), 2e-6);        // unlisted: default

    ASSERT_EQ(XMPI_T_tune_set("gamma_copy", 9e-11), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("gamma_copy"), 9e-11);  // control beats env
    ASSERT_EQ(XMPI_T_tune_set("gamma_copy", -1.0), MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(tune_get("gamma_copy"), 5e-11);  // clearing re-exposes env
    std::remove(path.c_str());
}

TEST(Tune, PreferenceLinesSeedFeedbackAndRoundTripThroughSave) {
    // A `prefer` profile line must seed the feedback table: with feedback on
    // and a mis-set model, the very first collective selects the persisted
    // winner instead of paying the full probe-and-demote convergence. Saving
    // then writes the same preference back out (the round-trip contract).
    testing_utils::ScrubAlgEnv const scrub;
    TuneReset const guard;
    TopoPin const topo(4);

    // Bucket coordinates of a 2 MiB MPI_INT allreduce on 16 ranks, and the
    // algorithm index the preference pins (the hierarchical entry).
    int const family = static_cast<int>(xmpi::detail::alg::Family::allreduce);
    auto const& algs = xmpi::detail::alg::algorithms(xmpi::detail::alg::Family::allreduce);
    int alg_idx = -1;
    for (std::size_t i = 0; i < algs.size(); ++i) {
        if (std::string(algs[i].name) == "hierarchical") alg_idx = static_cast<int>(i);
    }
    ASSERT_GE(alg_idx, 0);
    auto bit_width = [](unsigned long long v) {
        int w = 0;
        while (v != 0) {
            ++w;
            v >>= 1;
        }
        return w;
    };
    int const kCount = 524288;  // 2 MiB of MPI_INT
    std::string const path = ::testing::TempDir() + "xmpi_tune_prefer.profile";
    write_file(path, ("prefer family=" + std::to_string(family) +
                      " p=" + std::to_string(bit_width(16)) +
                      " bytes=" + std::to_string(bit_width(
                                      static_cast<unsigned long long>(kCount) * sizeof(int))) +
                      " alg=" + std::to_string(alg_idx) + "\n")
                         .c_str());
    EnvVar const env("XMPI_TUNE_PROFILE", path);
    ASSERT_EQ(XMPI_T_alg_env_refresh(), MPI_SUCCESS);

    // Model believes the network is ~4000x faster than it is and would pick
    // "flat"; the seeded preference must override it from call one.
    ASSERT_EQ(XMPI_T_tune_set("beta", 1e-13), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_tune_set("feedback", 1.0), MPI_SUCCESS);
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    xmpi::run(
        16,
        [&](int rank) {
            std::vector<int> in(static_cast<std::size_t>(kCount), rank + 1);
            std::vector<int> out(static_cast<std::size_t>(kCount), 0);
            ASSERT_EQ(
                MPI_Allreduce(in.data(), out.data(), kCount, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                MPI_SUCCESS);
            EXPECT_EQ(out.front(), 136);
        },
        cfg);
    EXPECT_EQ(selected("allreduce"), "hierarchical");

    // The still-active preference survives a save: the written profile
    // carries the same prefer line.
    std::string const saved = ::testing::TempDir() + "xmpi_tune_prefer_saved.profile";
    ASSERT_EQ(XMPI_T_tune_save(saved.c_str()), MPI_SUCCESS);
    std::ifstream in(saved);
    std::string const text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(count_occurrences(text, "prefer family=" + std::to_string(family)), 1u) << text;
    EXPECT_EQ(count_occurrences(text, "alg=" + std::to_string(alg_idx)), 1u) << text;
    std::remove(path.c_str());
    std::remove(saved.c_str());
}

TEST(Tune, GarbagePreferLineDiscardsWholeProfile) {
    TuneReset const guard;
    std::string const path = ::testing::TempDir() + "xmpi_tune_bad_prefer.profile";
    write_file(path,
               "inter alpha=9e-6\n"
               "prefer family=1 p=3\n");  // missing bytes= and alg=
    EnvVar const env("XMPI_TUNE_PROFILE", path);
    ::testing::internal::CaptureStderr();
    ASSERT_EQ(XMPI_T_alg_env_refresh(), MPI_SUCCESS);
    double v = 0;
    ASSERT_EQ(XMPI_T_tune_get("alpha", &v), MPI_SUCCESS);
    std::string const err = ::testing::internal::GetCapturedStderr();
    EXPECT_DOUBLE_EQ(v, 2e-6) << "half-applied profile";  // default, not 9e-6
    EXPECT_EQ(count_occurrences(err, "XMPI_TUNE_PROFILE"), 1u) << err;
    std::remove(path.c_str());
}
