/// @file topo.cpp
/// @brief Topology resolution (control > env > config) and the
/// per-communicator node structure cache.
#include "topo.hpp"

#include <unordered_map>

#include "../cvar.hpp"
#include "../internal.hpp"

namespace xmpi::detail::topo {

int resolve_ranks_per_node(int world_size, Config const& cfg) {
    auto rpn = static_cast<int>(cvar::get(cvar::Id::ranks_per_node));
    if (rpn <= 0) {
        if (auto const nodes = static_cast<int>(cvar::get(cvar::Id::nodes)); nodes > 0) {
            rpn = (world_size + nodes - 1) / nodes;
        }
    }
    if (rpn <= 0) rpn = cfg.ranks_per_node;
    return rpn <= 0 ? 1 : rpn;
}

std::vector<int> block_map(int world_size, int ranks_per_node) {
    if (ranks_per_node <= 1) return {};  // flat: every rank its own node
    std::vector<int> map(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        map[static_cast<std::size_t>(r)] = r / ranks_per_node;
    }
    return map;
}

std::vector<int> node_map_from_sizes(std::vector<int> const& node_sizes) {
    std::vector<int> map;
    for (std::size_t n = 0; n < node_sizes.size(); ++n) {
        for (int i = 0; i < node_sizes[n]; ++i) map.push_back(static_cast<int>(n));
    }
    return map;
}

std::vector<int> build_node_map(int world_size, Config const& cfg) {
    return block_map(world_size, resolve_ranks_per_node(world_size, cfg));
}

bool same_node(Universe const* u, int wa, int wb) {
    if (u->node_of_world.empty()) return false;
    return u->node_of_world[static_cast<std::size_t>(wa)] ==
           u->node_of_world[static_cast<std::size_t>(wb)];
}

NodeInfo const& node_info(MPI_Comm comm) {
    if (comm->node_cache != nullptr) return *comm->node_cache;
    auto ni = std::make_unique<NodeInfo>();
    int const p = comm->size();
    ni->node_of.assign(static_cast<std::size_t>(p), 0);
    ni->index_in_node.assign(static_cast<std::size_t>(p), 0);
    auto const& world_map = comm->universe->node_of_world;
    if (world_map.empty()) {
        // Flat topology: every rank is its own node. Short-circuit the
        // dense-id scan below, which would be O(p^2) in this case.
        ni->members.reserve(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            ni->node_of[static_cast<std::size_t>(r)] = r;
            ni->members.push_back({r});
        }
        ni->my_node = comm->rank();
        ni->max_ppn = 1;
        ni->min_ppn = 1;
        ni->contiguous = true;
        comm->node_cache = std::move(ni);
        return *comm->node_cache;
    }
    // Dense node ids in order of first appearance over ascending comm ranks.
    // Hash-densified: the simulator runs this at p up to 10^6, where the
    // former linear scan over seen nodes was O(p * nodes).
    std::unordered_map<int, int> dense_of;  // universe node id -> dense node
    dense_of.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
        int const wn = world_map[static_cast<std::size_t>(comm->world_of(r))];
        auto const [it, inserted] =
            dense_of.emplace(wn, static_cast<int>(ni->members.size()));
        if (inserted) ni->members.emplace_back();
        int const dense = it->second;
        auto& node = ni->members[static_cast<std::size_t>(dense)];
        ni->node_of[static_cast<std::size_t>(r)] = dense;
        ni->index_in_node[static_cast<std::size_t>(r)] = static_cast<int>(node.size());
        node.push_back(r);
    }
    ni->my_node = ni->node_of[static_cast<std::size_t>(comm->rank())];
    ni->max_ppn = 1;
    ni->min_ppn = p;
    ni->contiguous = true;
    for (auto const& m : ni->members) {
        int const sz = static_cast<int>(m.size());
        if (sz > ni->max_ppn) ni->max_ppn = sz;
        if (sz < ni->min_ppn) ni->min_ppn = sz;
        if (m.back() - m.front() + 1 != sz) ni->contiguous = false;
    }
    comm->node_cache = std::move(ni);
    return *comm->node_cache;
}

}  // namespace xmpi::detail::topo
