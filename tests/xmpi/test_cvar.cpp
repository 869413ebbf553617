/// @file test_cvar.cpp
/// @brief The control-variable table: one parameterised test runs every row
/// through the shared precedence and validation contract (default, env
/// beats default, garbage falls back with exactly one warning, control
/// beats env and unpinning exposes env again, a refresh re-arms the
/// warning, the schedule-cache epoch moves iff the row invalidates, and
/// XMPI_T_cvar_read reports the right source); the per-knob XMPI_T_*
/// wrappers must write their rows; sixteen rank threads resolve every row
/// at once; and README's knob table must list every row.
#include <gtest/gtest.h>

#include <climits>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../testing_utils.hpp"
#include "src/xmpi/algorithms/algorithms.hpp"
#include "src/xmpi/cvar.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace {

namespace cvar = xmpi::detail::cvar;
namespace alg = xmpi::detail::alg;
using testing_utils::cvar_index;
using testing_utils::count_occurrences;
using testing_utils::EnvVar;

struct Read {
    std::string value;
    int source = -1;
};

Read cvar_read(int index) {
    Read r;
    char buf[256];
    EXPECT_EQ(XMPI_T_cvar_read(index, buf, sizeof(buf), &r.source), MPI_SUCCESS);
    r.value = buf;
    return r;
}

/// Text form of `v` for `row`, as XMPI_T_cvar_read writes it.
std::string text_of(cvar::Row const& row, long long v) {
    if (row.type == cvar::Type::choice) return v < 0 ? "auto" : row.choice(static_cast<int>(v));
    return std::to_string(v);
}

/// First of `candidates` that lies in the row's range and differs from
/// `avoid`.
long long pick(cvar::Row const& row, std::vector<long long> const& candidates, long long avoid) {
    for (long long c : candidates) {
        if (c >= row.min && c <= row.max && c != avoid) return c;
    }
    ADD_FAILURE() << row.name << ": no sample value";
    return row.min;
}

class CvarRow : public ::testing::TestWithParam<int> {};

TEST_P(CvarRow, PrecedenceValidationAndEpoch) {
    int const index = GetParam();
    auto const id = static_cast<cvar::Id>(index);
    cvar::Row const& row = cvar::row(id);
    std::string const warning = std::string(row.env) + "=\"";
    char name[64], env[64];
    ASSERT_EQ(XMPI_T_cvar_name(index, name, sizeof(name), env, sizeof(env)), MPI_SUCCESS);
    EXPECT_STREQ(name, row.name);
    EXPECT_STREQ(env, row.env);

    // Sample values: an env value and a control value, each valid, distinct
    // from each other, and the env one distinct from the default.
    bool const path = row.type == cvar::Type::path;
    bool const choice = row.type == cvar::Type::choice;
    long long const env_v = choice ? 1 : path ? 1 : pick(row, {row.min, row.min + 1, row.max}, row.def);
    long long const ctl_v = choice ? 0 : pick(row, {row.min + 1, row.max, row.min}, env_v);
    std::string const env_text = path ? "xmpi_cvar_test.path" : text_of(row, env_v);
    std::string const ctl_text = text_of(row, ctl_v);

    {
        // Default: unset (and empty) means the row's default.
        EnvVar const unset(row.env);
        Read const r = cvar_read(index);
        EXPECT_EQ(r.value, path ? "" : text_of(row, row.def));
        EXPECT_EQ(r.source, XMPI_T_CVAR_SOURCE_DEFAULT);
        EXPECT_EQ(cvar::get(id), row.def);
    }
    {
        EnvVar const empty(row.env, "");
        EXPECT_EQ(cvar_read(index).source, XMPI_T_CVAR_SOURCE_DEFAULT);
    }
    {
        // A valid environment value beats the default.
        EnvVar const set(row.env, env_text);
        Read const r = cvar_read(index);
        EXPECT_EQ(r.value, env_text);
        EXPECT_EQ(r.source, XMPI_T_CVAR_SOURCE_ENV);

        if (path) {
            // Path rows are environment-only: writes are refused.
            std::uint64_t const epoch = alg::sched_epoch();
            EXPECT_EQ(XMPI_T_cvar_write(index, "elsewhere"), MPI_ERR_ARG);
            EXPECT_EQ(XMPI_T_cvar_write(index, nullptr), MPI_ERR_ARG);
            EXPECT_EQ(alg::sched_epoch(), epoch);
            EXPECT_EQ(cvar_read(index).value, env_text);
            return;
        }

        // Control beats env; the epoch moves iff the row invalidates.
        std::uint64_t const e0 = alg::sched_epoch();
        ASSERT_EQ(XMPI_T_cvar_write(index, ctl_text.c_str()), MPI_SUCCESS);
        std::uint64_t const e1 = alg::sched_epoch();
        EXPECT_EQ(e1 != e0, row.invalidates);
        Read const pinned = cvar_read(index);
        EXPECT_EQ(pinned.value, ctl_text);
        EXPECT_EQ(pinned.source, XMPI_T_CVAR_SOURCE_CONTROL);
        EXPECT_EQ(cvar::get(id), ctl_v);

        // An unparsable write is refused and keeps the pin.
        EXPECT_EQ(XMPI_T_cvar_write(index, "garbage!"), MPI_ERR_ARG);
        EXPECT_EQ(alg::sched_epoch(), e1);
        EXPECT_EQ(cvar_read(index).value, ctl_text);

        // Unpinning exposes the environment again.
        ASSERT_EQ(XMPI_T_cvar_write(index, nullptr), MPI_SUCCESS);
        EXPECT_EQ(alg::sched_epoch() != e1, row.invalidates);
        Read const unpinned = cvar_read(index);
        EXPECT_EQ(unpinned.value, env_text);
        EXPECT_EQ(unpinned.source, XMPI_T_CVAR_SOURCE_ENV);
    }
    if (path) return;
    {
        // Garbage takes the row's fallback with exactly one warning naming
        // the variable, however often the row is read.
        ::testing::internal::CaptureStderr();
        EnvVar const garbage(row.env, "garbage!");
        Read const r = cvar_read(index);
        EXPECT_EQ(r.value, text_of(row, row.fallback));
        EXPECT_EQ(r.source, XMPI_T_CVAR_SOURCE_ENV);
        EXPECT_EQ(cvar::get(id), row.fallback);
        cvar_read(index);
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(count_occurrences(err, warning), 1u) << err;
        EXPECT_NE(err.find("garbage!"), std::string::npos) << err;
        if (choice) {
            EXPECT_NE(err.find(row.choice(1)), std::string::npos) << "names the valid choices";
        }

        // A refresh re-arms the warning.
        ::testing::internal::CaptureStderr();
        ASSERT_EQ(XMPI_T_alg_env_refresh(), MPI_SUCCESS);
        cvar_read(index);
        cvar_read(index);
        err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(count_occurrences(err, warning), 1u) << err;

        // A control pin still beats the invalid environment.
        ASSERT_EQ(XMPI_T_cvar_write(index, ctl_text.c_str()), MPI_SUCCESS);
        EXPECT_EQ(cvar_read(index).value, ctl_text);
        ASSERT_EQ(XMPI_T_cvar_write(index, nullptr), MPI_SUCCESS);
    }
    if (row.onoff) {
        EnvVar const off(row.env, "off");
        EXPECT_EQ(cvar_read(index).value, "0");
        ASSERT_EQ(XMPI_T_cvar_write(index, "ON"), MPI_SUCCESS);
        EXPECT_EQ(cvar_read(index).value, "1");
        ASSERT_EQ(XMPI_T_cvar_write(index, nullptr), MPI_SUCCESS);
    }
}

INSTANTIATE_TEST_SUITE_P(Rows, CvarRow, ::testing::Range(0, cvar::kCount),
                         [](::testing::TestParamInfo<int> const& info) {
                             std::string name = cvar::row(static_cast<cvar::Id>(info.param)).name;
                             for (char& c : name) {
                                 if (c == '.') c = '_';
                             }
                             return name;
                         });

}  // namespace

TEST(Cvar, TableEnumerationAndArguments) {
    int num = 0;
    ASSERT_EQ(XMPI_T_cvar_num(&num), MPI_SUCCESS);
    EXPECT_EQ(num, cvar::kCount);
    std::set<std::string> names, envs;
    for (int i = 0; i < num; ++i) {
        char name[64], env[64];
        ASSERT_EQ(XMPI_T_cvar_name(i, name, sizeof(name), env, sizeof(env)), MPI_SUCCESS);
        names.insert(name);
        envs.insert(env);
        EXPECT_EQ(std::string(env).rfind("XMPI_", 0), 0u) << env;
    }
    EXPECT_EQ(static_cast<int>(names.size()), num) << "duplicate cvar names";
    EXPECT_EQ(static_cast<int>(envs.size()), num) << "duplicate environment variables";
    EXPECT_EQ(envs.count("XMPI_HIER_FIT"), 0u);

    EXPECT_EQ(XMPI_T_cvar_num(nullptr), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_cvar_name(-1, nullptr, 0, nullptr, 0), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_cvar_name(num, nullptr, 0, nullptr, 0), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_cvar_read(num, nullptr, 0, nullptr), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_cvar_write(-1, "1"), MPI_ERR_ARG);
    char tiny[1];
    EXPECT_EQ(XMPI_T_cvar_read(cvar_index("sim.event_limit"), tiny, sizeof(tiny), nullptr),
              MPI_ERR_ARG);
    int source = -1;
    EXPECT_EQ(XMPI_T_cvar_read(cvar_index("sim.event_limit"), nullptr, 0, &source), MPI_SUCCESS);
    EXPECT_GE(source, XMPI_T_CVAR_SOURCE_DEFAULT);
}

// The per-knob calls perfbench and the benches use are writes and reads of
// their rows; each keeps its own sentinel for "unpin".
TEST(Cvar, PerKnobWrappersWriteTheirRows) {
    auto source_of = [](char const* name) { return cvar_read(cvar_index(name)).source; };

    char const* alg = nullptr;
    ASSERT_EQ(XMPI_T_alg_get("allreduce", &alg), MPI_SUCCESS);
    EXPECT_STREQ(alg, "auto");  // reports the control pin only
    ASSERT_EQ(XMPI_T_alg_set("allreduce", "Rabenseifner"), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_alg_get("allreduce", &alg), MPI_SUCCESS);
    EXPECT_STREQ(alg, "rabenseifner");
    EXPECT_EQ(cvar_read(cvar_index("alg.allreduce")).value, "rabenseifner");
    EXPECT_EQ(source_of("alg.allreduce"), XMPI_T_CVAR_SOURCE_CONTROL);
    ASSERT_EQ(XMPI_T_alg_set("allreduce", "auto"), MPI_SUCCESS);
    EXPECT_NE(source_of("alg.allreduce"), XMPI_T_CVAR_SOURCE_CONTROL);
    EXPECT_EQ(XMPI_T_alg_set("allreduce", "nonexistent"), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_alg_set("notafamily", "flat"), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_alg_get("allreduce", nullptr), MPI_ERR_ARG);
    char buf[8];
    EXPECT_EQ(XMPI_T_alg_list("allreduce", buf, sizeof buf), MPI_ERR_ARG);  // too small

    // The 0/1 switches: -1 unpins, anything else out of range is refused.
    struct Switch {
        char const* cvar;
        int (*set)(int);
        int (*get)(int*);
    };
    for (Switch const& sw : {Switch{"sched.cache", XMPI_T_sched_cache_set, XMPI_T_sched_cache_get},
                             Switch{"shm.enabled", XMPI_T_shm_set, XMPI_T_shm_get},
                             Switch{"progress.enabled", XMPI_T_progress_set,
                                    XMPI_T_progress_get}}) {
        for (int v : {0, 1}) {
            ASSERT_EQ(sw.set(v), MPI_SUCCESS) << sw.cvar;
            int got = -7;
            ASSERT_EQ(sw.get(&got), MPI_SUCCESS);
            EXPECT_EQ(got, v) << sw.cvar;
            EXPECT_EQ(source_of(sw.cvar), XMPI_T_CVAR_SOURCE_CONTROL) << sw.cvar;
        }
        ASSERT_EQ(sw.set(-1), MPI_SUCCESS);
        EXPECT_NE(source_of(sw.cvar), XMPI_T_CVAR_SOURCE_CONTROL) << sw.cvar;
        EXPECT_EQ(sw.set(2), MPI_ERR_ARG) << sw.cvar;
        EXPECT_EQ(sw.set(-2), MPI_ERR_ARG) << sw.cvar;
        EXPECT_EQ(sw.get(nullptr), MPI_ERR_ARG) << sw.cvar;
    }

    long long seg = -1;
    ASSERT_EQ(XMPI_T_segment_set(4096), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_segment_get(&seg), MPI_SUCCESS);
    EXPECT_EQ(seg, 4096);
    EXPECT_EQ(XMPI_T_segment_set(-1), MPI_ERR_ARG);
    ASSERT_EQ(XMPI_T_segment_set(0), MPI_SUCCESS);  // 0 unpins
    EXPECT_NE(source_of("sched.segment_bytes"), XMPI_T_CVAR_SOURCE_CONTROL);
    EXPECT_EQ(XMPI_T_segment_get(nullptr), MPI_ERR_ARG);

    int rpn = -1;
    ASSERT_EQ(XMPI_T_topo_get(&rpn), MPI_SUCCESS);
    EXPECT_EQ(rpn, 0);  // reports the control pin only
    ASSERT_EQ(XMPI_T_topo_set(4), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_topo_get(&rpn), MPI_SUCCESS);
    EXPECT_EQ(rpn, 4);
    EXPECT_EQ(cvar_read(cvar_index("topo.ranks_per_node")).value, "4");
    ASSERT_EQ(XMPI_T_topo_set(0), MPI_SUCCESS);  // 0 unpins
    ASSERT_EQ(XMPI_T_topo_get(&rpn), MPI_SUCCESS);
    EXPECT_EQ(rpn, 0);
    EXPECT_EQ(XMPI_T_topo_set(-2), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_topo_get(nullptr), MPI_ERR_ARG);

    ASSERT_EQ(XMPI_T_tune_set("feedback", 1.0), MPI_SUCCESS);
    EXPECT_EQ(cvar_read(cvar_index("tune.feedback")).value, "1");
    EXPECT_EQ(source_of("tune.feedback"), XMPI_T_CVAR_SOURCE_CONTROL);
    ASSERT_EQ(XMPI_T_tune_set("feedback", -1.0), MPI_SUCCESS);  // negative unpins
    EXPECT_NE(source_of("tune.feedback"), XMPI_T_CVAR_SOURCE_CONTROL);

    long long limit = -1;
    ASSERT_EQ(XMPI_T_sim_event_limit_get(&limit), MPI_SUCCESS);
    EXPECT_EQ(std::to_string(limit), cvar_read(cvar_index("sim.event_limit")).value);
    EXPECT_EQ(XMPI_T_sim_event_limit_get(nullptr), MPI_ERR_ARG);
}

// Sixteen rank threads make the first read of every row after a refresh at
// once: every thread sees the same values, and each garbage row warns once.
TEST(Cvar, ConcurrentFirstReadsAgreeAndWarnOnce) {
    EnvVar const shm("XMPI_SHM", "garbage!");
    EnvVar const threads("XMPI_PROGRESS_THREADS", "99");
    EnvVar const bcast("XMPI_ALG_BCAST", "warpspeed");
    constexpr int kRanks = 16;
    std::vector<std::vector<long long>> seen(kRanks);
    std::vector<std::vector<std::string>> texts(kRanks);
    std::string err;
    xmpi::run(kRanks, [&](int rank) {
        // The universe launch itself reads some rows; the cycle under test
        // starts after it.
        if (rank == 0) {
            ::testing::internal::CaptureStderr();
            XMPI_T_alg_env_refresh();
        }
        ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
        for (int i = 0; i < cvar::kCount; ++i) {
            seen[static_cast<std::size_t>(rank)].push_back(cvar::get(static_cast<cvar::Id>(i)));
        }
        for (int i = 0; i < cvar::kCount; ++i) {
            char buf[256];
            ASSERT_EQ(XMPI_T_cvar_read(i, buf, sizeof(buf), nullptr), MPI_SUCCESS);
            texts[static_cast<std::size_t>(rank)].push_back(buf);
        }
        ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
        if (rank == 0) err = ::testing::internal::GetCapturedStderr();
    });
    for (int r = 1; r < kRanks; ++r) {
        EXPECT_EQ(seen[static_cast<std::size_t>(r)], seen[0]) << "rank " << r;
        EXPECT_EQ(texts[static_cast<std::size_t>(r)], texts[0]) << "rank " << r;
    }
    EXPECT_EQ(seen[0][static_cast<std::size_t>(cvar::Id::shm)], 0);
    EXPECT_EQ(seen[0][static_cast<std::size_t>(cvar::Id::progress_threads)], 1);
    EXPECT_EQ(seen[0][static_cast<std::size_t>(cvar::Id::alg_bcast)], -1);
    for (char const* var : {"XMPI_SHM=\"", "XMPI_PROGRESS_THREADS=\"", "XMPI_ALG_BCAST=\""}) {
        EXPECT_EQ(count_occurrences(err, var), 1u) << var << "\n" << err;
    }
}

// README's control-variable table lists every row, and no row that is gone.
TEST(Cvar, EveryRowDocumentedInReadme) {
    std::ifstream in(XMPI_SOURCE_ROOT "/README.md");
    ASSERT_TRUE(in.good());
    std::set<std::string> documented;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("| `XMPI_", 0) != 0) continue;
        std::size_t const end = line.find('`', 3);
        documented.insert(line.substr(3, end - 3));
    }
    std::set<std::string> rows;
    for (int i = 0; i < cvar::kCount; ++i) rows.insert(cvar::row(static_cast<cvar::Id>(i)).env);
    EXPECT_EQ(documented, rows);
}
