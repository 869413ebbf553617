/// @file layers.cpp
/// @brief Layer-ladder benchmark: collective latency, collective bandwidth and
/// application time to solution over `xmpi::run`, driven through the public
/// KaMPIng bindings and the `apps` algorithms, with per-layer attribution.
///
///   perfbench_layers --workload <name> --seed <n> --seconds <s>
///                    --mode e2e|layers|traced --out <result.json> [--spans <csv>]
///
/// Modes:
///  - e2e:    set-up repetitions plus the timed closed loop; end-to-end numbers.
///  - layers: the same, plus the per-layer probes (1-rank dispatch, self
///            send/recv, ping-pong, spawn) and pvar-derived counts.
///  - traced: only in the traced build: the timed loop with spans, then one
///            small XMPI_TRACE universe per collective shape for the vtime
///            attribution. Writes the spans to --spans.
/// run.py builds the program, picks the modes and prints the contract line.
///
/// Common settings: 4 ranks (one thread per core), compute_scale = 0, every
/// other knob at its default. Refuses to start when any XMPI_* variable is
/// set, because each of them changes behaviour.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs/bfs_kamping.hpp"
#include "apps/bfs/bfs_mpi.hpp"
#include "apps/sample_sort/sort_kamping.hpp"
#include "apps/sample_sort/sort_mpi.hpp"
#include "apps/suffix_array/prefix_doubling.hpp"
#include "checks.hpp"
#include "kagen/kagen.hpp"
#include "kamping/kamping.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "xmpi/xmpi.hpp"

extern char** environ;

namespace {

namespace pb = perfbench;
namespace trace = perfbench::trace;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;
/// Per-rank capacity of the latency samples of a mix (4 MiB of floats).
constexpr std::size_t kMixSamplesPerRank = std::size_t{1} << 20;

/// Pins the calling thread to the `index`-th CPU the process may run on
/// (modulo their number), so one rank thread owns one core.
void pin_to_cpu(int index) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    int const n = CPU_COUNT(&allowed);
    if (n <= 0) return;
    int target = index % n;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || target-- > 0) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        return;
    }
}

double us_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Result report: metrics with unit and sample count, plus string metadata.
// ---------------------------------------------------------------------------

struct Metric {
    double value = 0;
    std::string unit;
    std::size_t n = 1;
};

struct Report {
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::string> meta;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void put(std::string const& name, double value, std::string const& unit, std::size_t n = 1) {
        metrics[name] = {std::isfinite(value) ? value : 0.0, unit, n};
    }
    /// Median, p90, the tail percentile and the interquartile range of a
    /// timing series.
    void timing(std::string const& prefix, std::vector<double> samples, std::string const& unit) {
        auto const q = pb::quartiles(samples);
        put(prefix + ".iqr", q[2] - q[0], unit, samples.size());
        pb::Summary const s = pb::summarize(std::move(samples));
        put(prefix + ".p50", s.p50, unit, s.n);
        put(prefix + ".p90", s.p90, unit, s.n);
        put(prefix + ".tail", s.tail, unit, s.n);
        char pct[32];
        std::snprintf(pct, sizeof pct, "p%g", s.tail_pct);
        meta[prefix + ".tail_percentile"] = pct;
    }
};

std::string json_escape(std::string const& s) {
    std::string out;
    for (char const c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

bool write_report(Report const& r, std::string const& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"attempted\": %llu,\n  \"failed\": %llu,\n  \"metrics\": {",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    char const* sep = "\n";
    for (auto const& [name, m] : r.metrics) {
        std::fprintf(f, "%s    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %zu}", sep,
                     json_escape(name).c_str(), m.value, json_escape(m.unit).c_str(), m.n);
        sep = ",\n";
    }
    std::fprintf(f, "\n  },\n  \"meta\": {");
    sep = "\n";
    for (auto const& [k, v] : r.meta) {
        std::fprintf(f, "%s    \"%s\": \"%s\"", sep, json_escape(k).c_str(),
                     json_escape(v).c_str());
        sep = ",\n";
    }
    std::fprintf(f, "\n  }\n}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Pvars, looked up by name once; a name the library does not offer reads 0.
// ---------------------------------------------------------------------------

enum Pv {
    kP2pMsgs,
    kP2pBytes,
    kCollMsgs,
    kCollBytes,
    kIntraBytes,
    kBuilds,
    kHits,
    kShmCopies,
    kShmBytes,
    kWaitNs,
    kNumPv
};
constexpr std::array<char const*, kNumPv> kPvNames = {
    "counters.p2p_messages",      "counters.p2p_bytes",    "counters.coll_messages",
    "counters.coll_bytes",        "counters.intra_node_bytes", "counters.schedule_builds",
    "counters.schedule_cache_hits", "counters.shm_copies", "counters.shm_copy_bytes",
    "p2p.wait_time_ns"};
using PvValues = std::array<unsigned long long, kNumPv>;

std::array<int, kNumPv> g_pv_index;

void resolve_pvars(Report& rep) {
    g_pv_index.fill(-1);
    int num = 0;
    XMPI_T_pvar_num(&num);
    for (int i = 0; i < num; ++i) {
        char name[128] = {0};
        int count = 0;
        if (XMPI_T_pvar_name(i, name, sizeof name, &count) != MPI_SUCCESS || count != 1) continue;
        for (int k = 0; k < kNumPv; ++k) {
            if (std::strcmp(name, kPvNames[static_cast<std::size_t>(k)]) == 0)
                g_pv_index[static_cast<std::size_t>(k)] = i;
        }
    }
    for (int k = 0; k < kNumPv; ++k) {
        if (g_pv_index[static_cast<std::size_t>(k)] < 0)
            rep.meta[std::string("pvar_missing.") + kPvNames[static_cast<std::size_t>(k)]] = "1";
    }
}

/// Heap bytes the process has in use, over all malloc arenas.
double heap_in_use() {
    struct mallinfo2 const mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// Reads every tracked pvar; callable only inside a rank body.
PvValues read_pvars() {
    PvValues v{};
    for (std::size_t k = 0; k < kNumPv; ++k) {
        if (g_pv_index[k] < 0) continue;
        int count = 1;
        if (XMPI_T_pvar_read(g_pv_index[k], &v[k], &count) != MPI_SUCCESS) v[k] = 0;
    }
    return v;
}

// ---------------------------------------------------------------------------
// Closed-loop control shared by the ranks of one universe.
// ---------------------------------------------------------------------------

/// A measurement window: every rank calls next() once per batch; the first
/// call opens the window, and all ranks see it close at the same batch.
class Window {
public:
    Window(int ranks, double seconds) : seconds_(seconds), bar_(ranks, Tick{this}) {}
    Window(Window const&) = delete;
    Window& operator=(Window const&) = delete;

    bool next() {
        bar_.arrive_and_wait();
        return !stop_;
    }

private:
    struct Tick {
        Window* w;
        void operator()() noexcept { w->tick(); }
    };
    void tick() noexcept {
        auto const now = Clock::now();
        if (!started_) {
            started_ = true;
            deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds_));
        } else {
            stop_ = now >= deadline_;
        }
    }

    double seconds_;
    Clock::time_point deadline_{};
    bool started_ = false;
    bool stop_ = false;
    std::barrier<Tick> bar_;
};

enum class RunMode { setup, timed, attr };

/// What one rank measured in one universe.
struct RankLog {
    std::vector<pb::Reservoir> mix;            ///< per op kind of a mix (us)
    std::vector<double> solves;                ///< KaMPIng solves (us)
    std::vector<double> twin;                  ///< plain-MPI twin solves (us)
    double first_us = 0;                       ///< first call of op kind 0
    double seg_vtime = 0;                      ///< vtime of the deterministic segment
    double seg_ops = 1;                        ///< ops in the deterministic segment
    PvValues seg0{}, seg1{};                   ///< pvars around the deterministic segment
    double window_s = 0;                       ///< wall length of the timed window
    PvValues pv0{}, pv1{};                     ///< pvars around the timed window
    double heap0 = 0, heap1 = 0;               ///< process heap in use around it (B)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

struct Shared {
    Shared(double seconds, RunMode m) : window(kRanks, seconds), sync(kRanks), mode(m) {
        logs.resize(kRanks);
    }
    Window window;
    std::barrier<> sync;
    RunMode mode;
    int attr_op = 0;  ///< the op kind an attr universe runs
    std::vector<RankLog> logs;
    std::map<std::string, std::string> selected;  ///< written by rank 0
};

/// Times one call under an op span.
template <typename F>
double timed(char const* name, F&& f) {
    trace::OpScope const span(name);
    auto const t0 = Clock::now();
    f();
    return us_since(t0);
}

void record_selected(Shared& sh) {
    for (char const* fam : {"bcast", "reduce", "allgather", "allreduce", "alltoall"}) {
        char const* alg = nullptr;
        if (XMPI_T_alg_selected(fam, &alg) == MPI_SUCCESS && alg != nullptr)
            sh.selected[std::string("algorithms.selected.") + fam] = alg;
    }
}

/// Runs a collective mix on one rank. `op(k, iter, us)` runs op kind k of
/// round `iter`, sets `us` to the time of the call alone, and returns whether
/// the result was correct. Set-up mode stops after the first round, attr
/// mode runs op kind `attr_op` only.
template <typename Op>
void drive_mix(int rank, Shared& sh, int kinds, int batch, int vt_rounds, Op&& op) {
    RankLog& log = sh.logs[static_cast<std::size_t>(rank)];
    if (sh.mode == RunMode::timed) {
        for (int k = 0; k < kinds; ++k) {
            log.mix.emplace_back(kMixSamplesPerRank / static_cast<std::size_t>(kinds),
                                 pb::mix64(static_cast<std::uint64_t>(rank), static_cast<std::uint64_t>(k)));
        }
    }
    auto run = [&](int k, std::uint64_t it, double& us) {
        ++log.attempted;
        bool ok = false;
        try {
            ok = op(k, it, us);
        } catch (...) {
            ok = false;
        }
        if (!ok) ++log.failed;
    };
    std::uint64_t it = 0;
    if (sh.mode == RunMode::attr) {
        double us = 0;
        for (int rep = 0; rep < 3; ++rep) run(sh.attr_op, it++, us);
        return;
    }
    for (int k = 0; k < kinds; ++k) {  // warm-up: the first call of every shape
        double us = 0;
        run(k, it, us);
        if (k == 0) log.first_us = us;
    }
    ++it;
    if (sh.mode == RunMode::setup) return;

    // Deterministic segment: modelled (vtime) cost and exact counts per call.
    log.seg0 = read_pvars();
    double const v0 = xmpi::vtime_now();
    for (int r = 0; r < vt_rounds; ++r, ++it) {
        double us = 0;
        for (int k = 0; k < kinds; ++k) run(k, it, us);
    }
    log.seg_vtime = xmpi::vtime_now() - v0;
    log.seg1 = read_pvars();
    log.seg_ops = static_cast<double>(vt_rounds * kinds);

    sh.sync.arrive_and_wait();
    log.pv0 = read_pvars();
    log.heap0 = heap_in_use();
    trace::set_active(true);
    auto const t0 = Clock::now();
    while (sh.window.next()) {
        for (int b = 0; b < batch; ++b, ++it) {
            for (int k = 0; k < kinds; ++k) {
                double us = 0;
                run(k, it, us);
                log.mix[static_cast<std::size_t>(k)].add(us);
            }
        }
    }
    log.window_s = us_since(t0) * 1e-6;
    trace::set_active(false);
    log.pv1 = read_pvars();
    log.heap1 = heap_in_use();
    if (rank == 0) record_selected(sh);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
    std::string name;
    int ranks_per_node = 0;
    bool is_app = false;
};

/// coll_small: 8-byte KaMPIng calls on a flat topology.
constexpr std::array<char const*, 7> kSmallOps = {
    "coll.allreduce", "coll.bcast",      "coll.allgather", "coll.allgatherv",
    "coll.iallgatherv", "coll.persistent_allreduce", "coll.barrier"};

void coll_small_rank(int rank, Shared& sh, std::uint64_t seed) {
    using namespace kamping;
    Communicator comm;
    int const p = comm.size_signed();
    std::vector<std::uint64_t> one(1), out(static_cast<std::size_t>(p)), bv(1), pbuf(1);
    std::vector<int> counts(static_cast<std::size_t>(p), 1);
    auto handle = comm.allreduce_init(send_buf(pbuf), op(std::plus<>{}));
    auto gathered_ok = [&](std::uint64_t it) {
        for (int r = 0; r < p; ++r) {
            if (out[static_cast<std::size_t>(r)] != pb::small_value(seed, r, it)) return false;
        }
        return true;
    };
    auto op_call = [&](int k, std::uint64_t it, double& us) -> bool {
        std::uint64_t const mine = pb::small_value(seed, rank, it);
        std::uint64_t const sum = pb::small_sum(seed, p, it);
        char const* const name = kSmallOps[static_cast<std::size_t>(k)];
        std::fill(out.begin(), out.end(), 0);
        one[0] = mine;
        switch (k) {
            case 0: {
                std::uint64_t r = 0;
                us = timed(name, [&] { r = comm.allreduce_single(send_buf(mine), op(std::plus<>{})); });
                return r == sum;
            }
            case 1: {
                bv[0] = rank == 0 ? pb::small_value(seed, 0, it) : 0;
                us = timed(name, [&] { comm.bcast(send_recv_buf(bv), send_recv_count(1), root(0)); });
                return bv[0] == pb::small_value(seed, 0, it);
            }
            case 2:
                us = timed(name, [&] { comm.allgather(send_buf(one), recv_buf(out)); });
                return gathered_ok(it);
            case 3:
                us = timed(name, [&] { comm.allgatherv(send_buf(one), recv_buf(out), recv_counts(counts)); });
                return gathered_ok(it);
            case 4:
                us = timed(name, [&] {
                    comm.iallgatherv(send_buf(one), recv_buf(out), recv_counts(counts)).wait();
                });
                return gathered_ok(it);
            case 5: {
                pbuf[0] = mine;
                std::uint64_t r = 0;
                us = timed(name, [&] {
                    handle.start();
                    r = handle.wait().front();
                });
                return r == sum;
            }
            default:
                us = timed(name, [&] { comm.barrier(); });
                return true;
        }
    };
    drive_mix(rank, sh, static_cast<int>(kSmallOps.size()), 64, 100, op_call);
}

/// coll_large: 2 MiB allreduce (blocking and persistent), 2 MiB bcast and a
/// 512 KiB-per-rank allgather on 2 nodes x 2 ranks.
constexpr std::array<char const*, 4> kLargeOps = {
    "coll.allreduce_2MiB", "coll.persistent_allreduce_2MiB", "coll.bcast_2MiB",
    "coll.allgather_512KiB"};
constexpr std::size_t kLargeN = (2u << 20) / sizeof(double);
constexpr std::size_t kGatherN = (512u << 10) / sizeof(double);

void coll_large_rank(int rank, Shared& sh, std::uint64_t /*seed*/) {
    using namespace kamping;
    Communicator comm;
    int const p = comm.size_signed();
    std::vector<double> send(kLargeN), recv(kLargeN), psend(kLargeN), bbuf(kLargeN);
    std::vector<double> gsend(kGatherN), grecv(kGatherN * static_cast<std::size_t>(p));
    auto handle = comm.allreduce_init(send_buf(psend), op(std::plus<>{}));
    // large_value is periodic in j with period 1024, so one period suffices
    // for fills and expected values.
    std::array<double, 1024> mine{}, sum{}, root_pattern{};
    auto fill = [](std::vector<double>& v, std::array<double, 1024> const& pat, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) v[j] = pat[j & 1023];
    };
    auto matches = [](double const* v, std::array<double, 1024> const& pat, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) {
            if (v[j] != pat[j & 1023]) return false;
        }
        return true;
    };
    auto op_call = [&](int k, std::uint64_t it, double& us) -> bool {
        for (std::size_t j = 0; j < 1024; ++j) {
            mine[j] = pb::large_value(rank, it, j);
            root_pattern[j] = pb::large_value(0, it, j);
            sum[j] = 0;
            for (int r = 0; r < p; ++r) sum[j] += pb::large_value(r, it, j);
        }
        char const* const name = kLargeOps[static_cast<std::size_t>(k)];
        switch (k) {
            case 0:
                fill(send, mine, kLargeN);
                std::fill(recv.begin(), recv.end(), -1.0);
                us = timed(name, [&] { comm.allreduce(send_buf(send), recv_buf(recv), op(std::plus<>{})); });
                return matches(recv.data(), sum, kLargeN);
            case 1: {
                fill(psend, mine, kLargeN);
                bool ok = false;
                us = timed(name, [&] {
                    handle.start();
                    auto const& res = handle.wait();
                    ok = res.size() == kLargeN;
                });
                return ok && matches(handle.wait().data(), sum, kLargeN);
            }
            case 2:
                if (rank == 0) {
                    fill(bbuf, root_pattern, kLargeN);
                } else {
                    std::fill(bbuf.begin(), bbuf.end(), -1.0);
                }
                us = timed(name, [&] {
                    comm.bcast(send_recv_buf(bbuf), send_recv_count(static_cast<int>(kLargeN)), root(0));
                });
                return matches(bbuf.data(), root_pattern, kLargeN);
            default: {
                fill(gsend, mine, kGatherN);
                std::fill(grecv.begin(), grecv.end(), -1.0);
                us = timed(name, [&] { comm.allgather(send_buf(gsend), recv_buf(grecv)); });
                for (int r = 0; r < p; ++r) {
                    std::array<double, 1024> pat{};
                    for (std::size_t j = 0; j < 1024; ++j) pat[j] = pb::large_value(r, it, j);
                    if (!matches(grecv.data() + static_cast<std::size_t>(r) * kGatherN, pat, kGatherN))
                        return false;
                }
                return true;
            }
        }
    };
    drive_mix(rank, sh, static_cast<int>(kLargeOps.size()), 1, 3, op_call);
}

// ---------------------------------------------------------------------------
// Applications: inputs are generated from the seed before any timed universe.
// ---------------------------------------------------------------------------

constexpr std::size_t kSortKeysPerRank = std::size_t{1} << 18;
constexpr int kSortSets = 4;
constexpr std::uint64_t kBfsVerticesPerRank = std::uint64_t{1} << 14;
constexpr double kBfsDegree = 16.0;
constexpr std::size_t kBfsSources = 32;
constexpr std::size_t kTextPerRank = std::size_t{1} << 15;

struct AppInputs {
    // sort
    std::vector<std::vector<std::vector<std::uint64_t>>> keys;  ///< [set][rank]
    std::vector<pb::Checksum> key_sums;                         ///< per set
    // bfs
    std::vector<kagen::Graph> graphs;  ///< per rank
    std::vector<std::uint64_t> sources;
    std::vector<std::vector<std::size_t>> ref_dist;  ///< per source
    std::vector<double> levels;                      ///< BFS levels per source
    // suffix array
    std::vector<std::vector<unsigned char>> texts;  ///< per rank
    std::vector<std::uint64_t> ref_sa;
};

/// Per-rank result slots of the current solve, checked by rank 0.
struct AppSlots {
    std::vector<std::vector<std::uint64_t>> u64 = std::vector<std::vector<std::uint64_t>>(kRanks);
    std::vector<std::vector<std::size_t>> dist = std::vector<std::vector<std::size_t>>(kRanks);
    std::array<bool, kRanks> threw{};
};

void prepare_inputs(std::string const& app, std::uint64_t seed, AppInputs& in, Report& rep,
                    xmpi::Config const& cfg) {
    if (app == "apps_sort") {
        in.keys.resize(kSortSets);
        for (int s = 0; s < kSortSets; ++s) {
            pb::Checksum sum;
            for (int r = 0; r < kRanks; ++r) {
                in.keys[static_cast<std::size_t>(s)].push_back(pb::sort_keys(seed, s, r, kSortKeysPerRank));
                sum.add(in.keys[static_cast<std::size_t>(s)].back());
            }
            in.key_sums.push_back(sum);
        }
    } else if (app == "apps_bfs") {
        in.graphs.resize(kRanks);
        std::uint64_t const graph_seed = pb::mix64(seed, 0x6b6167656eULL);
        auto const t0 = Clock::now();
        xmpi::run(
            kRanks,
            [&](int rank) {
                kamping::Communicator comm;
                in.graphs[static_cast<std::size_t>(rank)] =
                    kagen::generate_rgg2d(comm, kBfsVerticesPerRank, kBfsDegree, graph_seed);
            },
            cfg);
        rep.put("kagen.generate_ms", us_since(t0) / 1e3, "ms");
        pb::GlobalGraph g;
        for (auto const& lg : in.graphs) pb::append_block(g, lg.xadj, lg.adjncy);
        // Sources rotate per instance; keep those that reach most of the graph
        // so every instance does a full-depth search.
        for (std::uint64_t c = 0; c < 4 * kBfsSources && in.sources.size() < kBfsSources; ++c) {
            std::uint64_t const s = pb::mix64(seed, 0x5000 + c) % g.n();
            auto dist = pb::reference_bfs(g, s);
            std::size_t reached = 0, ecc = 0;
            for (std::size_t const d : dist) {
                if (d != pb::kUnreached) {
                    ++reached;
                    ecc = std::max(ecc, d);
                }
            }
            if (reached * 10 < g.n() * 9) continue;
            in.sources.push_back(s);
            in.ref_dist.push_back(std::move(dist));
            in.levels.push_back(static_cast<double>(ecc + 1));
        }
    } else if (app == "apps_sa") {
        auto const text = pb::dna_text(seed, kRanks * kTextPerRank);
        for (std::size_t r = 0; r < kRanks; ++r) {
            auto const first = text.begin() + static_cast<std::ptrdiff_t>(r * kTextPerRank);
            in.texts.emplace_back(first, first + static_cast<std::ptrdiff_t>(kTextPerRank));
        }
        in.ref_sa = pb::naive_suffix_array(text);
    }
}

/// Runs solve `variant` (0: KaMPIng, 1: plain-MPI twin) of `instance` on this
/// rank, deposits the result in the rank's slot and returns its time in us.
double app_solve(std::string const& app, int variant, std::uint64_t instance, int rank,
                 AppInputs const& in, AppSlots& slots) {
    auto const r = static_cast<std::size_t>(rank);
    if (app == "apps_sort") {
        auto data = in.keys[instance % kSortSets][r];
        double const us = timed(variant == 0 ? "sort.kamping" : "sort.mpi", [&] {
            if (variant == 0) {
                apps::kamping_impl::sort(data, MPI_COMM_WORLD);
            } else {
                apps::mpi::sort(data, MPI_COMM_WORLD);
            }
        });
        slots.u64[r] = std::move(data);
        return us;
    }
    if (app == "apps_bfs") {
        std::uint64_t const s = in.sources[instance % in.sources.size()];
        std::vector<std::size_t> dist;
        double const us = timed(variant == 0 ? "bfs.kamping" : "bfs.mpi", [&] {
            dist = variant == 0 ? apps::bfs::kamping_impl::bfs(in.graphs[r], s, MPI_COMM_WORLD)
                                : apps::bfs::mpi::bfs(in.graphs[r], s, MPI_COMM_WORLD);
        });
        slots.dist[r] = std::move(dist);
        return us;
    }
    std::vector<std::uint64_t> sa;
    double const us = timed("sa.kamping", [&] {
        sa = apps::suffix_array::prefix_doubling(in.texts[r], MPI_COMM_WORLD);
    });
    slots.u64[r] = std::move(sa);
    return us;
}

bool app_check(std::string const& app, std::uint64_t instance, AppInputs const& in,
               AppSlots const& slots) {
    for (bool const t : slots.threw) {
        if (t) return false;
    }
    if (app == "apps_sort") return pb::check_sort(slots.u64, in.key_sums[instance % kSortSets]);
    if (app == "apps_bfs") return pb::check_blocks(slots.dist, in.ref_dist[instance % in.sources.size()]);
    return pb::check_blocks(slots.u64, in.ref_sa);
}

/// Whether the workload interleaves a plain-MPI twin of its KaMPIng solve.
bool has_twin(std::string const& workload) {
    return workload == "apps_sort" || workload == "apps_bfs";
}

/// Runs an application workload on one rank: one op is one solve; the
/// plain-MPI twin, where there is one, is interleaved in alternating order.
void app_rank(int rank, Shared& sh, std::string const& app, AppInputs const& in, AppSlots& slots) {
    RankLog& log = sh.logs[static_cast<std::size_t>(rank)];
    auto solve = [&](int variant, std::uint64_t instance) {
        sh.sync.arrive_and_wait();
        double us = 0;
        bool threw = false;
        try {
            us = app_solve(app, variant, instance, rank, in, slots);
        } catch (...) {
            threw = true;
        }
        slots.threw[static_cast<std::size_t>(rank)] = threw;
        sh.sync.arrive_and_wait();
        if (rank == 0) {
            ++log.attempted;
            if (!app_check(app, instance, in, slots)) ++log.failed;
        }
        return us;
    };
    std::uint64_t instance = 0;
    log.first_us = solve(0, instance);
    if (sh.mode == RunMode::attr) return;  // attribute the KaMPIng solve's last collective
    if (has_twin(app)) solve(1, instance);
    ++instance;
    if (sh.mode == RunMode::setup) return;

    // Deterministic segment: one KaMPIng solve, vtime-aligned by a barrier.
    MPI_Barrier(MPI_COMM_WORLD);
    log.seg0 = read_pvars();
    double const v0 = xmpi::vtime_now();
    solve(0, 0);
    log.seg_vtime = xmpi::vtime_now() - v0;
    log.seg1 = read_pvars();

    sh.sync.arrive_and_wait();
    log.pv0 = read_pvars();
    log.heap0 = heap_in_use();
    trace::set_active(true);
    auto const t0 = Clock::now();
    while (sh.window.next()) {
        bool const twin_first = has_twin(app) && instance % 2 == 1;
        if (twin_first) log.twin.push_back(solve(1, instance));
        log.solves.push_back(solve(0, instance));
        if (has_twin(app) && !twin_first) log.twin.push_back(solve(1, instance));
        ++instance;
    }
    log.window_s = us_since(t0) * 1e-6;
    trace::set_active(false);
    log.pv1 = read_pvars();
    log.heap1 = heap_in_use();
    if (rank == 0) record_selected(sh);
}

// ---------------------------------------------------------------------------
// One universe of a workload.
// ---------------------------------------------------------------------------

xmpi::Config config_for(Workload const& w) {
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    cfg.ranks_per_node = w.ranks_per_node;
    return cfg;
}

void run_universe(Workload const& w, std::uint64_t seed, Shared& sh, AppInputs const& in) {
    AppSlots slots;
    xmpi::run(
        kRanks,
        [&](int rank) {
            pin_to_cpu(rank);
            trace::set_rank(rank);
            if (w.name == "coll_small") {
                coll_small_rank(rank, sh, seed);
            } else if (w.name == "coll_large") {
                coll_large_rank(rank, sh, seed);
            } else {
                app_rank(rank, sh, w.name, in, slots);
            }
        },
        config_for(w));
}

/// Per-instance time to solution: the slowest rank of each solve.
std::vector<double> per_instance_max(std::vector<RankLog> const& logs, bool twin) {
    std::vector<double> out;
    std::size_t const n = twin ? logs[0].twin.size() : logs[0].solves.size();
    for (std::size_t i = 0; i < n; ++i) {
        double m = 0;
        for (auto const& l : logs) m = std::max(m, twin ? l.twin[i] : l.solves[i]);
        out.push_back(m);
    }
    return out;
}

/// Samples of the workload's op: per call on every rank for the mixes, per
/// instance (slowest rank) for the applications.
std::vector<double> op_samples(Workload const& w, std::vector<RankLog> const& logs) {
    if (w.is_app) return per_instance_max(logs, false);
    std::vector<double> all;
    for (auto const& l : logs) {
        for (auto const& r : l.mix) {
            auto const v = r.values();
            all.insert(all.end(), v.begin(), v.end());
        }
    }
    return all;
}

struct TimedResult {
    double op_p50 = 0;
    double first_kind_p50 = 0;  ///< steady median of the op timed by first_us
    double ops = 0;             ///< collective ops, or solves including twins
};

/// Runs the timed universe and reports the end-to-end and pvar-derived metrics.
TimedResult timed_phase(Workload const& w, std::uint64_t seed, double seconds, AppInputs const& in,
                        Report& rep) {
    Shared sh(seconds, RunMode::timed);
    run_universe(w, seed, sh, in);
    TimedResult res;
    std::vector<double> const op_us = op_samples(w, sh.logs);
    res.op_p50 = pb::median(op_us);
    res.first_kind_p50 = res.op_p50;
    rep.timing("op_us", op_us, "us");
    for (auto const& l : sh.logs) {
        rep.attempted += l.attempted;
        rep.failed += l.failed;
    }
    for (auto const& [k, v] : sh.selected) rep.meta[k] = v;

    RankLog const& l0 = sh.logs[0];
    if (w.is_app) {
        res.ops = static_cast<double>(l0.solves.size() + l0.twin.size());
        if (has_twin(w.name)) {
            auto twin = per_instance_max(sh.logs, true);
            double const twin_p50 = pb::median(twin);
            rep.timing("twin_us", std::move(twin), "us");
            rep.put("kamping.vs_mpi_pct", (res.op_p50 / twin_p50 - 1.0) * 100.0, "%",
                    l0.twin.size());
        }
    } else {
        res.ops = static_cast<double>(l0.mix.size() * l0.mix[0].seen());
        std::vector<char const*> const names = w.name == "coll_small"
            ? std::vector<char const*>(kSmallOps.begin(), kSmallOps.end())
            : std::vector<char const*>(kLargeOps.begin(), kLargeOps.end());
        for (std::size_t k = 0; k < names.size(); ++k) {
            std::vector<double> v;
            for (auto const& l : sh.logs) {
                auto const part = l.mix[k].values();
                v.insert(v.end(), part.begin(), part.end());
            }
            if (k == 0) res.first_kind_p50 = pb::median(v);
            rep.timing(std::string(names[k]) + "_us", std::move(v), "us");
        }
    }
    if (!has_twin(w.name)) {
        rep.put("twin_us.p50", 0.0, "us", 0);
        rep.put("kamping.vs_mpi_pct", 0.0, "%", 0);
        rep.meta["kamping.vs_mpi_pct"] = "n/a: the workload has no plain-MPI twin";
    }
    double vmax = 0;
    for (auto const& l : sh.logs) vmax = std::max(vmax, l.seg_vtime / l.seg_ops);
    rep.put("op_vtime_us", vmax * 1e6, "us");

    // Counts: pvar deltas over the deterministic segment, summed over ranks,
    // so they repeat exactly for a seed. Wait time: over the timed window.
    PvValues d{};
    double wait_ns = 0, wall_s = 0, busy_us = 0, rank_ops = 0;
    for (auto const& l : sh.logs) {
        for (std::size_t k = 0; k < kNumPv; ++k) d[k] += l.seg1[k] - l.seg0[k];
        wait_ns += static_cast<double>(l.pv1[kWaitNs] - l.pv0[kWaitNs]);
        wall_s += l.window_s;
        for (auto const& r : l.mix) {
            busy_us += r.sum();
            rank_ops += static_cast<double>(r.seen());
        }
        for (auto const* v : {&l.solves, &l.twin}) {
            for (double const x : *v) busy_us += x;
            rank_ops += static_cast<double>(v->size());
        }
    }
    double const seg_ops = l0.seg_ops;
    auto per_op = [&](Pv k) { return static_cast<double>(d[k]) / seg_ops; };
    rep.put("p2p.msgs_per_op", per_op(kP2pMsgs) + per_op(kCollMsgs), "count");
    rep.put("p2p.bytes_per_op", per_op(kP2pBytes) + per_op(kCollBytes), "B");
    rep.put("p2p.intra_node_bytes_per_op", per_op(kIntraBytes), "B");
    rep.put("shm.copies_per_op", per_op(kShmCopies), "count");
    rep.put("shm.copy_bytes_per_op", per_op(kShmBytes), "B");
    rep.put("algorithms.builds_per_op", per_op(kBuilds) / kRanks, "count");
    double const probes = static_cast<double>(d[kBuilds] + d[kHits]);
    rep.put("algorithms.cache_hit_ratio", probes > 0 ? static_cast<double>(d[kHits]) / probes : 0.0, "ratio");
    rep.put("p2p.wait_share", wait_ns / std::max(1e-9, wall_s * 1e9), "ratio");
    rep.put("heap_growth_b_per_op", (l0.heap1 - l0.heap0) / std::max(1.0, res.ops), "B");
    rep.put("xmpi.busy_us_per_op", (busy_us - wait_ns / 1e3) / std::max(1.0, rank_ops), "us");
    return res;
}

/// Set-up repetitions: spawn, communicator set-up and the warm-up pass.
/// Returns the median time of the first call of op kind 0 (first solve).
double setup_phase(Workload const& w, std::uint64_t seed, AppInputs const& in, Report& rep) {
    int const reps = w.is_app ? 7 : 51;
    std::vector<double> setup_s, first_us;
    for (int i = 0; i < reps; ++i) {
        Shared sh(0.0, RunMode::setup);
        auto const t0 = Clock::now();
        run_universe(w, seed, sh, in);
        setup_s.push_back(us_since(t0) * 1e-6);
        for (auto const& l : sh.logs) {
            rep.attempted += l.attempted;
            rep.failed += l.failed;
        }
        // The mixes time rank 0's first call; a solve takes its slowest rank.
        double first = sh.logs[0].first_us;
        if (w.is_app) {
            for (auto const& l : sh.logs) first = std::max(first, l.first_us);
        }
        first_us.push_back(first);
    }
    rep.put("setup_s", pb::median(setup_s), "s", setup_s.size());
    return pb::median(first_us);
}

// ---------------------------------------------------------------------------
// Per-layer probes (layers mode)
// ---------------------------------------------------------------------------

void probes(Report& rep) {
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    std::uint64_t failed = 0, attempted = 0;

    // Binding dispatch and xmpi entry on a 1-rank communicator, and the self
    // send/recv pair. Raw and KaMPIng blocks alternate in order pair by pair.
    std::vector<double> dispatch_ns, raw_ns, pair_ns;
    xmpi::run(
        1,
        [&](int) {
            using namespace kamping;
            Communicator self(MPI_COMM_SELF);
            constexpr int kBlock = 100;
            std::uint64_t y = 0;
            auto raw = [&] {
                auto const t0 = Clock::now();
                for (std::uint64_t i = 1; i <= kBlock; ++i) {
                    MPI_Allreduce(&i, &y, 1, MPI_UINT64_T, MPI_SUM, MPI_COMM_SELF);
                    failed += y != i;
                }
                attempted += kBlock;
                return us_since(t0) * 1e3 / kBlock;
            };
            auto kam = [&] {
                auto const t0 = Clock::now();
                for (std::uint64_t i = 1; i <= kBlock; ++i) {
                    y = self.allreduce_single(send_buf(i), op(std::plus<>{}));
                    failed += y != i;
                }
                attempted += kBlock;
                return us_since(t0) * 1e3 / kBlock;
            };
            for (int w = 0; w < 20; ++w) raw(), kam();
            for (int p = 0; p < 400; ++p) {
                double r = 0, k = 0;
                if (p % 2 == 0) {
                    r = raw();
                    k = kam();
                } else {
                    k = kam();
                    r = raw();
                }
                dispatch_ns.push_back(k - r);
                raw_ns.push_back(r);
            }
            for (int b = 0; b < 220; ++b) {
                auto const t0 = Clock::now();
                for (std::uint64_t i = 1; i <= kBlock; ++i) {
                    MPI_Send(&i, 1, MPI_UINT64_T, 0, 7, MPI_COMM_SELF);
                    MPI_Recv(&y, 1, MPI_UINT64_T, 0, 7, MPI_COMM_SELF, MPI_STATUS_IGNORE);
                    failed += y != i;
                }
                attempted += kBlock;
                if (b >= 20) pair_ns.push_back(us_since(t0) * 1e3 / kBlock);
            }
        },
        cfg);
    rep.put("kamping.dispatch_ns", pb::median(dispatch_ns), "ns", dispatch_ns.size());
    rep.put("xmpi.self_call_ns", pb::median(raw_ns), "ns", raw_ns.size());
    rep.put("p2p.self_pair_ns", pb::median(pair_ns), "ns", pair_ns.size());

    // Two-rank ping-pong: half round trip per message size.
    struct Size {
        char const* label;
        std::size_t bytes;
        int iters, blocks;
    };
    constexpr std::array<Size, 3> kSizes = {{{"8B", 8, 100, 60},
                                             {"4KiB", 4096, 100, 60},
                                             {"2MiB", 2u << 20, 4, 40}}};
    std::array<std::vector<double>, kSizes.size()> half_us;
    xmpi::run(
        2,
        [&](int rank) {
            for (std::size_t s = 0; s < kSizes.size(); ++s) {
                Size const& sz = kSizes[s];
                std::vector<unsigned char> buf(sz.bytes, 0);
                int const n = static_cast<int>(sz.bytes);
                for (int b = -2; b < sz.blocks; ++b) {  // two warm-up blocks
                    auto const t0 = Clock::now();
                    for (int i = 0; i < sz.iters; ++i) {
                        std::uint64_t const stamp = pb::mix64(static_cast<std::uint64_t>(b * 1000 + i));
                        if (rank == 0) {
                            std::memcpy(buf.data(), &stamp, sizeof stamp);
                            MPI_Send(buf.data(), n, MPI_BYTE, 1, 3, MPI_COMM_WORLD);
                            MPI_Recv(buf.data(), n, MPI_BYTE, 1, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
                        } else {
                            MPI_Recv(buf.data(), n, MPI_BYTE, 0, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
                            MPI_Send(buf.data(), n, MPI_BYTE, 0, 3, MPI_COMM_WORLD);
                        }
                        std::uint64_t got = 0;
                        std::memcpy(&got, buf.data(), sizeof got);
                        if (rank == 0) {
                            ++attempted;
                            failed += got != stamp;
                        }
                    }
                    if (rank == 0 && b >= 0) half_us[s].push_back(us_since(t0) / (2.0 * sz.iters));
                }
            }
        },
        cfg);
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
        rep.put(std::string("p2p.pingpong_us.") + kSizes[s].label, pb::median(half_us[s]), "us",
                half_us[s].size());
    }
    double const big_us = pb::median(half_us[2]);
    rep.put("p2p.pingpong_gbps.2MiB", big_us > 0 ? static_cast<double>(kSizes[2].bytes) / (big_us * 1e3) : 0.0,
            "GB/s", half_us[2].size());

    // Universe spawn: an empty 4-rank run.
    std::vector<double> spawn_ms;
    for (int i = 0; i < 25; ++i) {
        auto const t0 = Clock::now();
        xmpi::run(kRanks, [](int) {}, cfg);
        if (i >= 5) spawn_ms.push_back(us_since(t0) / 1e3);
    }
    rep.put("runtime.spawn_ms", pb::median(spawn_ms), "ms", spawn_ms.size());
    rep.attempted += attempted;
    rep.failed += failed;
}

// ---------------------------------------------------------------------------
// Traced mode: span shares and cost-model attribution.
// ---------------------------------------------------------------------------

void span_metrics(Workload const& w, trace::Totals const& totals, Report& rep) {
    double const hook_ns = trace::nested_hook_cost_ns();
    trace::OpTotals sum;
    for (auto const& [op, t] : totals) {
        // The workload's own op: every mix call, or the KaMPIng solve.
        bool const counts = w.is_app ? op.size() > 8 && op.compare(op.size() - 8, 8, ".kamping") == 0
                                     : op.rfind("coll.", 0) == 0;
        if (!counts) continue;
        sum.op_ns += t.op_ns;
        sum.kamping_self_ns += t.kamping_self_ns;
        sum.mpi_ns += t.mpi_ns;
        sum.ops += t.ops;
        sum.nested_hooks += t.nested_hooks;
        for (auto const& [fn, n] : t.mpi_calls) sum.mpi_calls[fn] += n;
    }
    double const op_ns = std::max(1.0, sum.op_ns);
    double const self_ns =
        std::max(0.0, sum.kamping_self_ns - static_cast<double>(sum.nested_hooks) * hook_ns);
    rep.put("kamping.self_share", self_ns / op_ns, "ratio", sum.ops);
    rep.put("apps.compute_share", 1.0 - sum.mpi_ns / op_ns, "ratio", sum.ops);
    double calls = 0;
    for (auto const& [fn, n] : sum.mpi_calls) {
        double const per = static_cast<double>(n) / std::max<double>(1, static_cast<double>(sum.ops));
        rep.put("mpi_calls." + fn, per, "count", sum.ops);
        calls += per;
    }
    rep.put("mpi_calls_per_op", calls, "count", sum.ops);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f", hook_ns);
    rep.meta["trace.nested_hook_ns"] = buf;
    std::snprintf(buf, sizeof buf, "%.1f",
                  static_cast<double>(sum.nested_hooks) / std::max<double>(1, static_cast<double>(sum.ops)));
    rep.meta["trace.nested_hooks_per_op"] = buf;
}

void attribution(Workload const& w, std::uint64_t seed, AppInputs const& in,
                 std::string const& trace_path, Report& rep) {
    setenv("XMPI_TRACE", trace_path.c_str(), 1);
    XMPI_T_alg_env_refresh();
    int const shapes = w.name == "coll_small" ? static_cast<int>(kSmallOps.size())
                       : w.name == "coll_large" ? static_cast<int>(kLargeOps.size())
                                                : 1;
    double terms[6] = {0, 0, 0, 0, 0, 0};
    double attributed = 0;
    for (int k = 0; k < shapes; ++k) {
        Shared sh(0.0, RunMode::attr);
        sh.attr_op = k;
        run_universe(w, seed, sh, in);
        XMPI_T_trace_attr a{};
        std::string const shape =
            w.name == "coll_small" ? kSmallOps[static_cast<std::size_t>(k)]
            : w.name == "coll_large" ? kLargeOps[static_cast<std::size_t>(k)]
                                     : w.name;
        if (XMPI_T_trace_attribution(-1, &a) != MPI_SUCCESS || a.attributed <= 0) {
            rep.meta["attr." + shape] = "unattributed";
            continue;
        }
        double const t[6] = {a.alpha_inter, a.beta_inter, a.o_inter,
                             a.alpha_intra, a.beta_intra, a.o_intra};
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "family=%d alg=%d traced=%.4g s attributed=%.4g s alpha_inter=%.3f "
                      "beta_inter=%.3f o_inter=%.3f alpha_intra=%.3f beta_intra=%.3f o_intra=%.3f",
                      a.family, a.alg, a.traced_makespan, a.attributed, t[0] / a.attributed, t[1] / a.attributed, t[2] / a.attributed,
                      t[3] / a.attributed, t[4] / a.attributed, t[5] / a.attributed);
        rep.meta["attr." + shape] = buf;
        for (int i = 0; i < 6; ++i) terms[i] += t[i];
        attributed += a.attributed;
    }
    unsetenv("XMPI_TRACE");
    XMPI_T_alg_env_refresh();
    constexpr std::array<char const*, 6> kTerms = {"alpha_inter", "beta_inter", "o_inter",
                                                   "alpha_intra", "beta_intra", "o_intra"};
    for (std::size_t i = 0; i < kTerms.size(); ++i) {
        rep.put(std::string("attr.") + kTerms[i] + "_share", attributed > 0 ? terms[i] / attributed : 0.0,
                "ratio", static_cast<std::size_t>(shapes));
    }
}

// ---------------------------------------------------------------------------
// Configuration stamp
// ---------------------------------------------------------------------------

void stamp(Workload const& w, Report& rep) {
#ifdef PERFBENCH_COMPILER
    rep.meta["config.compiler"] = PERFBENCH_COMPILER;
#endif
#ifdef PERFBENCH_FLAGS
    rep.meta["config.flags"] = PERFBENCH_FLAGS;
#endif
    rep.meta["config.traced_build"] = trace::kEnabled ? "1" : "0";
    rep.meta["config.nproc"] = std::to_string(std::thread::hardware_concurrency());
    rep.meta["config.l1d_bytes"] = std::to_string(sysconf(_SC_LEVEL1_DCACHE_SIZE));
    rep.meta["config.l2_bytes"] = std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE));
    rep.meta["config.l3_bytes"] = std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE));
    rep.meta["config.ranks"] = std::to_string(kRanks);
    rep.meta["config.ranks_per_node"] = std::to_string(w.ranks_per_node);
    rep.meta["config.compute_scale"] = "0";
    for (char const* fam : {"bcast", "reduce", "allgather", "allreduce", "alltoall"}) {
        char const* alg = nullptr;
        if (XMPI_T_alg_get(fam, &alg) == MPI_SUCCESS && alg != nullptr)
            rep.meta[std::string("knob.alg.") + fam] = alg;
    }
    long long ll = 0;
    int flag = 0;
    if (XMPI_T_segment_get(&ll) == MPI_SUCCESS) rep.meta["knob.segment_bytes"] = std::to_string(ll);
    if (XMPI_T_sched_cache_get(&flag) == MPI_SUCCESS) rep.meta["knob.sched_cache"] = std::to_string(flag);
    if (XMPI_T_shm_get(&flag) == MPI_SUCCESS) rep.meta["knob.shm"] = std::to_string(flag);
    if (XMPI_T_progress_get(&flag) == MPI_SUCCESS) rep.meta["knob.progress"] = std::to_string(flag);
    if (XMPI_T_topo_get(&flag) == MPI_SUCCESS) rep.meta["knob.topo_ranks_per_node"] = std::to_string(flag);
    if (XMPI_T_sim_event_limit_get(&ll) == MPI_SUCCESS) rep.meta["knob.sim_event_limit"] = std::to_string(ll);
    for (char const* key : {"alpha", "beta", "o", "alpha_intra", "beta_intra", "o_intra", "feedback"}) {
        double v = 0;
        if (XMPI_T_tune_get(key, &v) == MPI_SUCCESS) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", v);
            rep.meta[std::string("knob.tune.") + key] = buf;
        }
    }
}

bool xmpi_env_set() {
    bool any = false;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "XMPI_", 5) == 0) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
            any = true;
        }
    }
    return any;
}

struct Args {
    std::string workload, mode = "e2e", out, spans;
    std::uint64_t seed = 1;
    double seconds = 10;
};

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string const k = argv[i];
        std::string const v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--mode") {
            a.mode = v;
        } else if (k == "--out") {
            a.out = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            return false;
        }
    }
    bool const mode_ok = a.mode == "e2e" || a.mode == "layers" || (a.mode == "traced" && trace::kEnabled);
    return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() && a.seconds > 0 && mode_ok;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds <s> --mode e2e|layers%s "
                     "--out <json> [--spans <csv>]\n",
                     argv[0], trace::kEnabled ? "|traced" : "");
        return 2;
    }
    if (xmpi_env_set()) return 3;
    std::map<std::string, Workload> const workloads = {
        {"coll_small", {"coll_small", 0, false}}, {"coll_large", {"coll_large", 2, false}},
        {"apps_sort", {"apps_sort", 0, true}},    {"apps_bfs", {"apps_bfs", 0, true}},
        {"apps_sa", {"apps_sa", 0, true}}};
    auto const wit = workloads.find(args.workload);
    if (wit == workloads.end()) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
        return 2;
    }
    Workload const& w = wit->second;

    Report rep;
    rep.meta["workload"] = w.name;
    rep.meta["seed"] = std::to_string(args.seed);
    rep.meta["mode"] = args.mode;
    stamp(w, rep);
    resolve_pvars(rep);
    if (w.name != "apps_bfs") rep.put("kagen.generate_ms", 0.0, "ms", 0);

    AppInputs in;
    prepare_inputs(w.name, args.seed, in, rep, config_for(w));
    if (w.name == "apps_bfs") {
        if (in.sources.empty()) {
            std::fprintf(stderr, "perfbench: no BFS source reaches 90%% of the graph\n");
            return 1;
        }
        double levels = 0;
        for (double const l : in.levels) levels += l;
        rep.put("apps.bfs_levels", in.levels.empty() ? 0.0 : levels / static_cast<double>(in.levels.size()), "count", in.levels.size());
    } else {
        rep.put("apps.bfs_levels", 0.0, "count", 0);
    }

    if (args.mode == "traced") {
        timed_phase(w, args.seed, args.seconds, in, rep);
        span_metrics(w, trace::collect(), rep);
        attribution(w, args.seed, in, args.out + ".xmpi_trace.json", rep);
        if (!args.spans.empty() && !trace::write(args.spans)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
            return 1;
        }
    } else {
        double const first_us = setup_phase(w, args.seed, in, rep);
        TimedResult const res = timed_phase(w, args.seed, args.seconds, in, rep);
        rep.put("runtime.first_call_us", first_us - res.first_kind_p50, "us");
        if (args.mode == "layers") probes(rep);
    }
    rep.put("fail_ratio", static_cast<double>(rep.failed) / static_cast<double>(std::max<std::uint64_t>(1, rep.attempted)),
            "ratio", rep.attempted);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.put("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
    if (!write_report(rep, args.out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
        return 1;
    }
    return 0;
}
