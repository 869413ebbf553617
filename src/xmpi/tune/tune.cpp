/// @file tune.cpp
/// @brief Self-tuning implementation: the three-layer machine-parameter
/// overlay (control > calibrated fit > XMPI_TUNE_PROFILE file), the virtual-
/// time calibration pass, the measured-selection feedback table, and the
/// XMPI_T_tune_* control API. See tune.hpp for the design overview.
#include "tune.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "../algorithms/schedule.hpp"
#include "../cvar.hpp"
#include "../internal.hpp"
#include "../shm/shm.hpp"
#include "../topo/topo.hpp"

namespace xmpi::detail::alg {
void bump_sched_epoch();  // algorithms/registry.cpp
}

namespace xmpi::detail::tune {
namespace {

// ---------------------------------------------------------------------------
// Parameter layers. Index order matches the XMPI_T_tune_set keys:
// 0 alpha, 1 beta, 2 o (inter tier), 3 alpha_intra, 4 beta_intra, 5 o_intra,
// 6 gamma_copy, 7 copy_sync (shared-memory copy tier).
// NaN means "unset, fall through to the next layer".
// ---------------------------------------------------------------------------

constexpr int kParams = 8;
char const* const kParamNames[kParams] = {"alpha",       "beta",       "o",
                                          "alpha_intra", "beta_intra", "o_intra",
                                          "gamma_copy",  "copy_sync"};

double constexpr kUnset = std::numeric_limits<double>::quiet_NaN();

std::mutex g_mutex;

double g_control[kParams] = {kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset};
double g_fit[kParams] = {kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset};
double g_env[kParams] = {kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset};

/// Effective layered values, readable lock-free on the selection hot path.
std::atomic<double> g_eff[kParams] = {kUnset, kUnset, kUnset, kUnset,
                                      kUnset, kUnset, kUnset, kUnset};
std::atomic<bool> g_overlay_active{false};

/// cvar::generation() at which XMPI_TUNE_PROFILE was last parsed.
std::atomic<std::uint64_t> g_profile_generation{~0ull};

/// Feedback-loop statistics (process-global, read by the `tune.*` pvars).
std::atomic<unsigned long long> g_records{0};
std::atomic<unsigned long long> g_probes{0};
std::atomic<unsigned long long> g_demotions{0};
std::atomic<unsigned long long> g_recoveries{0};

void recompute_effective_locked() {
    bool active = false;
    for (int i = 0; i < kParams; ++i) {
        double v = g_control[i];
        if (std::isnan(v)) v = g_fit[i];
        if (std::isnan(v)) v = g_env[i];
        g_eff[i].store(v, std::memory_order_relaxed);
        if (!std::isnan(v)) active = true;
    }
    g_overlay_active.store(active, std::memory_order_release);
}

int param_index(char const* key) {
    if (key == nullptr) return -1;
    for (int i = 0; i < kParams; ++i) {
        if (std::strcmp(key, kParamNames[i]) == 0) return i;
    }
    return -1;
}

// ---------------------------------------------------------------------------
// XMPI_TUNE_PROFILE: hostfile-style machine description, e.g.
//
//     # 100G fabric, DDR shared memory
//     inter alpha=2e-6 beta=8e-10 o=2e-7
//     intra alpha=2e-7 beta=5e-11 o=5e-8
//     copy gamma_copy=2e-11 copy_sync=1e-7
//     prefer family=2 p=4 bytes=21 alg=1
//
// `copy` describes the zero-copy shared-memory tier (src/xmpi/shm/).
// `prefer` lines seed the measured-selection feedback table: one line per
// (family, log2(comm size), log2(bytes)) bucket whose preferred algorithm
// index should override the model until measurements say otherwise —
// XMPI_T_tune_save writes these out, so learned preferences round-trip
// across runs. Any parse error (unknown tier, unknown key, non-numeric or
// negative value) warns once naming the file and line and discards the
// whole file — a half-applied profile would be worse than none.
// ---------------------------------------------------------------------------

/// One `prefer` line: bucket coordinates plus the preferred algorithm index.
struct Pref {
    int family;
    int p_bits;
    int bytes_bits;
    int alg;
};

void warn_profile(char const* path, char const* detail, int lineno) {
    if (!cvar::warn_once(cvar::Id::tune_profile)) return;
    if (lineno > 0) {
        std::fprintf(stderr,
                     "xmpi: XMPI_TUNE_PROFILE=\"%s\" line %d: %s; "
                     "ignoring the profile\n",
                     path, lineno, detail);
    } else {
        std::fprintf(stderr, "xmpi: XMPI_TUNE_PROFILE=\"%s\" %s; ignoring the profile\n", path,
                     detail);
    }
}

/// Parses one `prefer` line's key=value tokens (family/p/bytes/alg, all
/// required non-negative integers, alg < 32). Returns false on any error.
bool parse_prefer_line(char const* path, int lineno, char** save, Pref* pref) {
    int got = 0;  // bitmask: 1 family, 2 p, 4 bytes, 8 alg
    char* tok = nullptr;
    while ((tok = ::strtok_r(nullptr, " \t\r\n", save)) != nullptr) {
        char* const eq = std::strchr(tok, '=');
        if (eq == nullptr) {
            warn_profile(path, "expected key=value", lineno);
            return false;
        }
        *eq = '\0';
        int* field;
        int bit;
        if (std::strcmp(tok, "family") == 0) {
            field = &pref->family;
            bit = 1;
        } else if (std::strcmp(tok, "p") == 0) {
            field = &pref->p_bits;
            bit = 2;
        } else if (std::strcmp(tok, "bytes") == 0) {
            field = &pref->bytes_bits;
            bit = 4;
        } else if (std::strcmp(tok, "alg") == 0) {
            field = &pref->alg;
            bit = 8;
        } else {
            warn_profile(path, "unknown key (valid: family, p, bytes, alg)", lineno);
            return false;
        }
        char* end = nullptr;
        long const v = std::strtol(eq + 1, &end, 10);
        if (end == eq + 1 || *end != '\0' || v < 0 || v > 1000) {
            warn_profile(path, "value is not a small non-negative integer", lineno);
            return false;
        }
        *field = static_cast<int>(v);
        got |= bit;
    }
    if (got != 15 || pref->alg >= 32) {
        warn_profile(path, "prefer needs family= p= bytes= alg= (alg < 32)", lineno);
        return false;
    }
    return true;
}

bool parse_profile_file(char const* path, double out[kParams], std::vector<Pref>* prefs) {
    std::FILE* const f = std::fopen(path, "r");
    if (f == nullptr) {
        warn_profile(path, "cannot be opened", 0);
        return false;
    }
    char line[512];
    int lineno = 0;
    bool ok = true;
    while (ok && std::fgets(line, sizeof line, f) != nullptr) {
        ++lineno;
        if (char* hash = std::strchr(line, '#'); hash != nullptr) *hash = '\0';
        char* save = nullptr;
        char* tok = ::strtok_r(line, " \t\r\n", &save);
        if (tok == nullptr) continue;  // blank / comment-only line
        int base;
        if (std::strcmp(tok, "inter") == 0) {
            base = 0;
        } else if (std::strcmp(tok, "intra") == 0) {
            base = 3;
        } else if (std::strcmp(tok, "copy") == 0) {
            base = 6;
        } else if (std::strcmp(tok, "prefer") == 0) {
            Pref pref{};
            if (!parse_prefer_line(path, lineno, &save, &pref)) {
                ok = false;
                break;
            }
            prefs->push_back(pref);
            continue;
        } else {
            warn_profile(path, "expected \"inter\", \"intra\", \"copy\" or \"prefer\"", lineno);
            ok = false;
            break;
        }
        while ((tok = ::strtok_r(nullptr, " \t\r\n", &save)) != nullptr) {
            char* const eq = std::strchr(tok, '=');
            if (eq == nullptr) {
                warn_profile(path, "expected key=value", lineno);
                ok = false;
                break;
            }
            *eq = '\0';
            int off;
            if (base == 6) {
                if (std::strcmp(tok, "gamma_copy") == 0) {
                    off = 0;
                } else if (std::strcmp(tok, "copy_sync") == 0) {
                    off = 1;
                } else {
                    warn_profile(path, "unknown key (valid: gamma_copy, copy_sync)", lineno);
                    ok = false;
                    break;
                }
            } else if (std::strcmp(tok, "alpha") == 0) {
                off = 0;
            } else if (std::strcmp(tok, "beta") == 0) {
                off = 1;
            } else if (std::strcmp(tok, "o") == 0) {
                off = 2;
            } else {
                warn_profile(path, "unknown key (valid: alpha, beta, o)", lineno);
                ok = false;
                break;
            }
            char* end = nullptr;
            double const v = std::strtod(eq + 1, &end);
            if (end == eq + 1 || *end != '\0' || !(v >= 0) || !std::isfinite(v)) {
                warn_profile(path, "value is not a non-negative number", lineno);
                ok = false;
                break;
            }
            out[base + off] = v;
        }
    }
    std::fclose(f);
    return ok;
}

/// Seeds feedback-table preferences from parsed `prefer` lines (defined
/// below the feedback table). Caller holds g_mutex.
void apply_prefs_locked(std::vector<Pref> const& prefs);

/// Parses XMPI_TUNE_PROFILE once per control-variable refresh cycle.
/// Caller holds g_mutex.
void resolve_env_locked(std::uint64_t generation) {
    double parsed[kParams] = {kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset};
    std::vector<Pref> prefs;
    if (std::string const path = cvar::path(cvar::Id::tune_profile); !path.empty()) {
        if (!parse_profile_file(path.c_str(), parsed, &prefs)) {
            for (double& v : parsed) v = kUnset;  // all-or-nothing fallback
            prefs.clear();
        }
    }
    for (int i = 0; i < kParams; ++i) g_env[i] = parsed[i];
    apply_prefs_locked(prefs);
    recompute_effective_locked();
    g_profile_generation.store(generation, std::memory_order_release);
}

void ensure_env_resolved() {
    std::uint64_t const generation = cvar::generation();
    if (g_profile_generation.load(std::memory_order_acquire) == generation) return;
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_profile_generation.load(std::memory_order_relaxed) != generation) {
        resolve_env_locked(generation);
    }
}

// ---------------------------------------------------------------------------
// Feedback table. One bucket per (family, log2 comm size, log2 bytes);
// each holds per-algorithm EWMAs of measured per-rank virtual-time
// makespans, the model's latest pick, the current preference override, and
// a small map of frozen per-generation decisions.
//
// Consistency: every rank of one collective calls pick() with the same
// sequence number, hence the same generation (seq / kGenLen); the first
// rank to reach a generation freezes its decision under g_mutex and all
// later ranks read the frozen value, so one collective can never mix
// algorithms across ranks even while measurements stream in concurrently.
// Frozen entries are pruned oldest-first; a rank lagging more than
// kFrozenKeep * kGenLen collectives behind the front-runner (pathological
// for a collective stream) would recompute, so the window is kept generous.
// ---------------------------------------------------------------------------

constexpr unsigned long long kGenLen = 2;   ///< collectives per decision generation
constexpr int kMinSamples = 2;              ///< reports before an EWMA is trusted
constexpr double kMargin = 0.05;            ///< demote only on a >5% measured win
constexpr unsigned long long kReprobe = 16; ///< steady-state re-probe period (gens)
constexpr std::size_t kFrozenKeep = 64;     ///< frozen generations retained

struct Stat {
    double ewma = 0.0;
    int n = 0;
};

struct Bucket {
    std::vector<Stat> stats;  ///< per algorithm index
    int preferred = -1;       ///< demotion override; -1 = trust the model
    int model_pick = -1;      ///< the model's latest argmin in this bucket
    std::map<unsigned long long, int> frozen;  ///< generation -> decision
};

int bit_width(unsigned long long v) {
    int w = 0;
    while (v != 0) {
        ++w;
        v >>= 1;
    }
    return w;
}

using BucketKey = std::tuple<int, int, int>;
std::map<BucketKey, Bucket> g_buckets;

Bucket& bucket_locked(int family, int p, std::size_t bytes) {
    return g_buckets[BucketKey{family, bit_width(static_cast<unsigned long long>(p)),
                               bit_width(static_cast<unsigned long long>(bytes))}];
}

/// Seeds `prefer` lines from a profile into the feedback table. The seeded
/// preference overrides the model exactly like a learned demotion; it is
/// dropped (recovery) once live measurements show the model's pick is at
/// least as good, so a stale profile cannot pin a bad algorithm forever.
void apply_prefs_locked(std::vector<Pref> const& prefs) {
    for (Pref const& pr : prefs) {
        g_buckets[BucketKey{pr.family, pr.p_bits, pr.bytes_bits}].preferred = pr.alg;
    }
}

/// Decision for a fresh generation: probe the least-sampled valid candidate
/// while any is under-sampled (every other generation, so the model's pick
/// keeps being measured too), re-probe occasionally at steady state so a
/// demoted algorithm can recover, otherwise apply the bucket's preference.
int decide_locked(Bucket& b, unsigned long long gen, unsigned valid_mask, bool* probed) {
    int least = -1;
    int least_n = std::numeric_limits<int>::max();
    for (int i = 0; i < 32; ++i) {
        if ((valid_mask >> i & 1u) == 0) continue;
        int const n = i < static_cast<int>(b.stats.size()) ? b.stats[static_cast<std::size_t>(i)].n : 0;
        if (n < least_n) {
            least_n = n;
            least = i;
        }
    }
    bool const undersampled = least >= 0 && least_n < kMinSamples;
    if ((undersampled && gen % 2 == 1) ||
        (!undersampled && least >= 0 && gen % kReprobe == kReprobe - 1)) {
        g_probes.fetch_add(1, std::memory_order_relaxed);
        *probed = true;
        return least;
    }
    return b.preferred;
}

}  // namespace

void overlay(bench::model::TwoTier& t) {
    ensure_env_resolved();
    if (!g_overlay_active.load(std::memory_order_acquire)) return;
    double* const fields[kParams] = {&t.inter.alpha, &t.inter.beta, &t.inter.o,
                                     &t.intra.alpha, &t.intra.beta, &t.intra.o,
                                     &t.gamma_copy,  &t.copy_sync};
    for (int i = 0; i < kParams; ++i) {
        double const v = g_eff[i].load(std::memory_order_relaxed);
        if (!std::isnan(v)) *fields[i] = v;
    }
}

bool feedback_enabled() { return cvar::get(cvar::Id::tune) != 0; }

int pick(int family, int p, std::size_t bytes, unsigned long long seq, int model_pick,
         unsigned valid_mask) {
    unsigned long long const gen = seq / kGenLen;
    int decision;
    bool probed = false;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        Bucket& b = bucket_locked(family, p, bytes);
        b.model_pick = model_pick;
        auto const it = b.frozen.find(gen);
        if (it != b.frozen.end()) {
            decision = it->second;
        } else {
            decision = decide_locked(b, gen, valid_mask, &probed);
            b.frozen.emplace(gen, decision);
            while (b.frozen.size() > kFrozenKeep) b.frozen.erase(b.frozen.begin());
        }
    }
    if (probed) {
        trace::ev(trace::Ev::tune_probe, model_pick, -1, bytes, seq, family, decision);
    }
    if (decision >= 0 && decision < 32 && (valid_mask >> decision & 1u) != 0) return decision;
    return model_pick;
}

void record(int family, int p, std::size_t bytes, int alg, double elapsed) {
    if (alg < 0 || alg >= 32 || !(elapsed >= 0)) return;
    bool flipped = false;
    int demoted_to = -1;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        Bucket& b = bucket_locked(family, p, bytes);
        if (static_cast<int>(b.stats.size()) <= alg) b.stats.resize(static_cast<std::size_t>(alg) + 1);
        Stat& s = b.stats[static_cast<std::size_t>(alg)];
        s.ewma = s.n == 0 ? elapsed : 0.5 * (s.ewma + elapsed);
        ++s.n;
        g_records.fetch_add(1, std::memory_order_relaxed);
        // Re-evaluate the bucket preference: demote the model's pick when a
        // sampled alternative's measured time beats it by more than the
        // margin; drop the override (recovery) when that stops holding.
        int want = b.preferred;
        int const model = b.model_pick;
        if (model >= 0 && model < static_cast<int>(b.stats.size()) &&
            b.stats[static_cast<std::size_t>(model)].n >= kMinSamples) {
            int best = -1;
            double best_t = std::numeric_limits<double>::infinity();
            for (int i = 0; i < static_cast<int>(b.stats.size()); ++i) {
                Stat const& c = b.stats[static_cast<std::size_t>(i)];
                if (c.n >= kMinSamples && c.ewma < best_t) {
                    best_t = c.ewma;
                    best = i;
                }
            }
            if (best >= 0 && best != model &&
                best_t * (1.0 + kMargin) < b.stats[static_cast<std::size_t>(model)].ewma) {
                want = best;
            } else {
                want = -1;
            }
        }
        if (want != b.preferred) {
            b.preferred = want;
            (want >= 0 ? g_demotions : g_recoveries).fetch_add(1, std::memory_order_relaxed);
            flipped = true;
            demoted_to = want;
        }
    }
    // A preference flip changes future selections: stale cached schedules
    // keyed on the old algorithm must not be replayed.
    if (flipped) {
        trace::ev(demoted_to >= 0 ? trace::Ev::tune_demote : trace::Ev::tune_recover, -1, -1,
                  bytes, 0, family, demoted_to >= 0 ? demoted_to : alg);
        alg::bump_sched_epoch();
    }
}

}  // namespace xmpi::detail::tune

// ---------------------------------------------------------------------------
// Calibration: recover both tiers' alpha/beta/o from the virtual time of a
// deterministic probe schedule. The LogP tape makes the fit exact:
//
//   - an isolated MPI_Send advances the sender's clock by exactly o;
//   - after one warm-up round, a ping-pong round trip of B bytes costs
//     exactly R(B) = 2*(o + alpha + beta*B) (the reply's arrival is always
//     derived from this rank's own clock, so no cross-rank skew leaks in);
//   - two sizes give beta = (R(B2) - R(B1)) / (2*(B2 - B1)) and
//     alpha = R(B1)/2 - o - beta*B1.
//
// Rank 0 probes the first rank sharing its node (intra tier) and the first
// rank on a different node (inter tier); absent tiers are skipped and their
// parameters fall through to the next layer. Every other rank waits in the
// surrounding barriers, so the probe traffic is isolated.
//
// The copy tier's gamma_copy is fitted the same way through the real shm
// transport: the intra peer publishes rendezvous cells at two sizes and
// rank 0 copy-gets them through tiny one-shot schedules. After a warm-up
// cell the consumer's clock is already past each publish's arrival (a
// publish never advances the producer's clock), so the per-run virtual-time
// delta is a constant plus exactly gamma_copy * bytes and two sizes
// difference it out. copy_sync is not fitted — it is a sub-microsecond
// constant that differencing removes — and falls through to the next layer.
// ---------------------------------------------------------------------------

namespace xmpi::detail::tune {
namespace {

constexpr int kCalTagO = 912;     ///< isolated sender-overhead probe
constexpr int kCalTagPing = 913;  ///< ping-pong request
constexpr int kCalTagPong = 914;  ///< ping-pong reply
constexpr int kCalB1 = 512;
constexpr int kCalB2 = 8192;

/// Rank 0's side of one tier probe; returns {alpha, beta, o}.
void probe_tier(MPI_Comm comm, int peer, double out[3]) {
    RankState* const rs = tls_rank();
    std::vector<char> buf(kCalB2);
    double t0 = rs->vnow;
    MPI_Send(buf.data(), 1, MPI_CHAR, peer, kCalTagO, comm);
    double const o = rs->vnow - t0;
    int const sizes[2] = {kCalB1, kCalB2};
    double rtt[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
        for (int round = 0; round < 2; ++round) {  // round 0 aligns the clocks
            t0 = rs->vnow;
            MPI_Send(buf.data(), sizes[k], MPI_CHAR, peer, kCalTagPing, comm);
            MPI_Recv(buf.data(), sizes[k], MPI_CHAR, peer, kCalTagPong, comm, MPI_STATUS_IGNORE);
            rtt[k] = rs->vnow - t0;
        }
    }
    double const beta = (rtt[1] - rtt[0]) / (2.0 * (kCalB2 - kCalB1));
    double const alpha = rtt[0] / 2.0 - o - beta * kCalB1;
    out[0] = alpha < 0 ? 0.0 : alpha;
    out[1] = beta < 0 ? 0.0 : beta;
    out[2] = o < 0 ? 0.0 : o;
}

/// The probed peer's side: echo everything rank 0 sends.
void echo_tier(MPI_Comm comm) {
    std::vector<char> buf(kCalB2);
    MPI_Recv(buf.data(), 1, MPI_CHAR, 0, kCalTagO, comm, MPI_STATUS_IGNORE);
    int const sizes[2] = {kCalB1, kCalB2};
    for (int k = 0; k < 2; ++k) {
        for (int round = 0; round < 2; ++round) {
            MPI_Recv(buf.data(), sizes[k], MPI_CHAR, 0, kCalTagPing, comm, MPI_STATUS_IGNORE);
            MPI_Send(buf.data(), sizes[k], MPI_CHAR, 0, kCalTagPong, comm);
        }
    }
}

/// Schedule sequence numbers reserved for the copy-tier probe so its
/// rendezvous cells can never collide with a real collective's.
constexpr std::uint64_t kCalCopySeq = ~0ull - 16;

/// Rank 0's side of the copy-tier probe: copy-get three cells (warm-up,
/// B1, B2) published by the intra peer and difference the last two
/// virtual-time deltas into gamma_copy.
void probe_copy_tier(MPI_Comm comm, int peer, double* gamma_out) {
    RankState* const rs = tls_rank();
    std::vector<char> buf(kCalB2);
    int const sizes[3] = {1, kCalB1, kCalB2};
    double delta[3] = {0, 0, 0};
    for (int k = 0; k < 3; ++k) {
        alg::Schedule s(comm, kCalCopySeq + static_cast<std::uint64_t>(k));
        s.copy_get(0, peer, buf.data(), 0, sizes[k], MPI_CHAR);
        double const t0 = rs->vnow;
        alg::run_blocking(s);
        delta[k] = rs->vnow - t0;
    }
    double const gamma = (delta[2] - delta[1]) / static_cast<double>(kCalB2 - kCalB1);
    *gamma_out = gamma < 0 ? 0.0 : gamma;
}

/// The probed peer's side: publish the three cells and drain the acks.
void echo_copy_tier(MPI_Comm comm) {
    std::vector<char> buf(kCalB2);
    int const sizes[3] = {1, kCalB1, kCalB2};
    for (int k = 0; k < 3; ++k) {
        alg::Schedule s(comm, kCalCopySeq + static_cast<std::uint64_t>(k));
        s.copy_pub(0, buf.data(), sizes[k], MPI_CHAR, {0});
        s.drain_published();
        alg::run_blocking(s);
    }
}

}  // namespace

int calibrate(MPI_Comm comm) {
    RankState* const rs = tls_rank();
    if (rs == nullptr) return MPI_ERR_OTHER;  // only meaningful inside a rank
    comm = resolve(comm);                     // MPI_COMM_WORLD/SELF handles
    if (comm == nullptr) return MPI_ERR_ARG;
    int const p = comm->size();
    int const r = comm->rank();
    if (p < 2) return MPI_ERR_OTHER;  // nothing to probe against
    topo::NodeInfo const& ni = topo::node_info(comm);
    // Deterministic peer choice, identical on every rank: the first rank
    // sharing rank 0's node and the first rank on a different node.
    int intra_peer = -1;
    int inter_peer = -1;
    for (int j = 1; j < p && (intra_peer < 0 || inter_peer < 0); ++j) {
        bool const same = ni.node_of[static_cast<std::size_t>(j)] == ni.node_of[0];
        if (same && intra_peer < 0) intra_peer = j;
        if (!same && inter_peer < 0) inter_peer = j;
    }
    if (int rc = MPI_Barrier(comm); rc != MPI_SUCCESS) return rc;
    double fit[kParams] = {kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset, kUnset};
    if (inter_peer >= 0) {
        if (r == 0) probe_tier(comm, inter_peer, fit + 0);
        if (r == inter_peer) echo_tier(comm);
    }
    if (intra_peer >= 0) {
        if (r == 0) probe_tier(comm, intra_peer, fit + 3);
        if (r == intra_peer) echo_tier(comm);
        if (shm::enabled()) {
            if (r == 0) probe_copy_tier(comm, intra_peer, fit + 6);
            if (r == intra_peer) echo_copy_tier(comm);
        }
    }
    if (r == 0) {
        {
            std::lock_guard<std::mutex> lock(g_mutex);
            for (int i = 0; i < kParams; ++i) {
                if (!std::isnan(fit[i])) g_fit[i] = fit[i];
            }
            recompute_effective_locked();
        }
        // Fitted parameters move selection; invalidate cached schedules.
        alg::bump_sched_epoch();
    }
    return MPI_Barrier(comm);
}

int set_control(char const* key, double value) {
    if (key != nullptr && std::strcmp(key, "feedback") == 0) {
        return cvar::pin(cvar::Id::tune, value < 0 ? -1 : (value != 0 ? 1 : 0), -1);
    }
    int const i = param_index(key);
    if (i < 0) return MPI_ERR_ARG;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        g_control[i] = value < 0 ? kUnset : value;
        recompute_effective_locked();
    }
    alg::bump_sched_epoch();
    return MPI_SUCCESS;
}

int get_effective(char const* key, double* value) {
    if (value == nullptr) return MPI_ERR_ARG;
    if (key != nullptr && std::strcmp(key, "feedback") == 0) {
        *value = feedback_enabled() ? 1.0 : 0.0;
        return MPI_SUCCESS;
    }
    int const i = param_index(key);
    if (i < 0) return MPI_ERR_ARG;
    ensure_env_resolved();
    // Report what selection would see: the layered overlay over the default
    // machine (bench defaults mirror xmpi::Config's).
    bench::model::TwoTier t;
    overlay(t);
    double const* const fields[kParams] = {&t.inter.alpha, &t.inter.beta, &t.inter.o,
                                           &t.intra.alpha, &t.intra.beta, &t.intra.o,
                                           &t.gamma_copy,  &t.copy_sync};
    *value = *fields[i];
    return MPI_SUCCESS;
}

int save_profile(char const* path) {
    if (path == nullptr || *path == '\0') return MPI_ERR_ARG;
    ensure_env_resolved();
    bench::model::TwoTier t;
    overlay(t);
    // Snapshot learned feedback-table preferences so they round-trip through
    // the profile: loading this file seeds the same buckets back.
    std::vector<Pref> prefs;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        for (auto const& [key, b] : g_buckets) {
            if (b.preferred < 0) continue;
            prefs.push_back(Pref{std::get<0>(key), std::get<1>(key), std::get<2>(key),
                                 b.preferred});
        }
    }
    std::FILE* const f = std::fopen(path, "w");
    if (f == nullptr) return MPI_ERR_OTHER;
    std::fprintf(f, "# xmpi tuning profile (effective two-tier machine parameters)\n");
    std::fprintf(f, "inter alpha=%.17g beta=%.17g o=%.17g\n", t.inter.alpha, t.inter.beta,
                 t.inter.o);
    std::fprintf(f, "intra alpha=%.17g beta=%.17g o=%.17g\n", t.intra.alpha, t.intra.beta,
                 t.intra.o);
    std::fprintf(f, "copy gamma_copy=%.17g copy_sync=%.17g\n", t.gamma_copy, t.copy_sync);
    if (!prefs.empty()) {
        std::fprintf(f, "# measured-selection preferences (family, log2 p, log2 bytes)\n");
        for (Pref const& pr : prefs) {
            std::fprintf(f, "prefer family=%d p=%d bytes=%d alg=%d\n", pr.family, pr.p_bits,
                         pr.bytes_bits, pr.alg);
        }
    }
    std::fclose(f);
    return MPI_SUCCESS;
}

Stats stats() {
    Stats s;
    s.records = g_records.load(std::memory_order_relaxed);
    s.probes = g_probes.load(std::memory_order_relaxed);
    s.demotions = g_demotions.load(std::memory_order_relaxed);
    s.recoveries = g_recoveries.load(std::memory_order_relaxed);
    return s;
}

int reset() {
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        for (double& v : g_fit) v = kUnset;
        g_buckets.clear();
        recompute_effective_locked();
    }
    g_records.store(0, std::memory_order_relaxed);
    g_probes.store(0, std::memory_order_relaxed);
    g_demotions.store(0, std::memory_order_relaxed);
    g_recoveries.store(0, std::memory_order_relaxed);
    alg::bump_sched_epoch();
    return MPI_SUCCESS;
}

}  // namespace xmpi::detail::tune

// ---------------------------------------------------------------------------
// MPI_T-style control API (declared in <xmpi/mpi.h>).
// ---------------------------------------------------------------------------

int XMPI_T_tune_set(const char* key, double value) {
    return xmpi::detail::tune::set_control(key, value);
}

int XMPI_T_tune_get(const char* key, double* value) {
    return xmpi::detail::tune::get_effective(key, value);
}

int XMPI_T_tune_calibrate(MPI_Comm comm) { return xmpi::detail::tune::calibrate(comm); }

int XMPI_T_tune_save(const char* path) { return xmpi::detail::tune::save_profile(path); }

int XMPI_T_tune_reset(void) { return xmpi::detail::tune::reset(); }
